"""Source-reference registry.

Every classification, orbit, and orthogonality verdict this toolkit emits is
backed either by an entry here (a labeled statement from the underlying
mathematical literature, quoted verbatim) or by an explicit "open-question"
tag.  Keeping the registry in one module makes the JSON output
self-documenting and keeps quotes out of the computational code.
"""

from __future__ import annotations

from collections import namedtuple


class Citation(namedtuple("Citation", "key where claim quote")):
    __slots__ = ()

    def as_json(self) -> dict:
        return {"key": self.key, "where": self.where, "claim": self.claim, "quote": self.quote}


CITATIONS: dict[str, Citation] = {
    c.key: c
    for c in [
        # -- global ---------------------------------------------------------
        Citation(
            "rank_one",
            "abstract",
            "every equation in every family has Morley rank one",
            "any equation in any of the Painlevé families has Morley rank one",
        ),
        Citation(
            "generic_sm_trivial",
            "introduction",
            "generic-parameter equations are strongly minimal and geometrically trivial",
            "establishing the strong minimality and geometric triviality of the given equation, "
            "which Nagloo and Pillay accomplish for all Painlevé equations with generic complex parameters",
        ),
        Citation(
            "naggy",
            "Thm. Naggy",
            "distinct families with generic parameters are orthogonal",
            "Any two Painlevé equations which have generic parameters and come from distinct "
            "families (I-VI) are orthogonal.",
        ),
        Citation(
            "backlund_maps",
            "introduction",
            "same-family fibers related by the transformation group are in definable bijection",
            "A notable property of the Painlevé families is the presence of bijective differential "
            "algebraic maps between the solution sets of the various equations in a fixed family, "
            "known as Bäcklund transformations.",
        ),
        # -- second family ----------------------------------------------------
        Citation(
            "pii_trivial_all",
            "abstract",
            "generic solutions of every second-family fiber are geometrically trivial",
            "the type of the generic solution of any equation in the second Painlevé family is "
            "geometrically trivial",
        ),
        Citation(
            "pii_degree_two",
            "second-family analysis",
            "half-integer fibers have Morley rank one and Morley degree two",
            "X_II(-1/2) is of Morley rank one and Morley degree two",
        ),
        Citation(
            "pii_halfinteger_backlund",
            "second-family analysis",
            "the half-integer analysis transports along the transformation group",
            "The differential varieties X_II(alpha) for alpha in 1/2 + Z are all isomorphic via "
            "Bäcklund transformations, so the same analysis applies to X_II(alpha) for alpha in 1/2 + Z",
        ),
        Citation(
            "pii_riccati",
            "second-family analysis",
            "the exceptional order-one locus at -1/2 is the Riccati relation",
            "y_1' = y_1^2 + 1/2 t",
        ),
        Citation(
            "pii_riccati_subvariety",
            "introduction",
            "half-integer fibers carry exactly one order-one subvariety R(alpha)",
            "for such alpha, X_II(alpha) has one order one subvariety, which we will denote by R(alpha)",
        ),
        Citation(
            "pii_sm_nonhalf",
            "introduction",
            "off the half-integer locus the fiber is strongly minimal (degree one)",
            "while X_II(alpha) is not strongly minimal for alpha in 1/2 + Z, the equation does "
            "have Morley rank one",
        ),
        Citation(
            "murata_pii",
            "second-family analysis (Murata)",
            "algebraic-solution criterion for the second family",
            "X_II(alpha) has a solution in C(t)^alg if and only if alpha in Z; in this case, "
            "there is a unique element of C(t)^alg in X_II(alpha)",
        ),
        Citation(
            "pii_backlund",
            "second-family analysis",
            "the three parameter maps generating the second-family transformations",
            "there are birational bijections between X_II(alpha) and X_II(-1-alpha), X_II(alpha) "
            "and X_II(alpha+1), X_II(alpha) and X_II(alpha-1)",
        ),
        Citation(
            "genone",
            "Prop. genone",
            "nonorthogonality criterion when at least one parameter is transcendental",
            "Suppose that alpha, beta in C, with at least one of alpha, beta transcendental. Then "
            "X_II(alpha) is nonorthogonal to X_II(beta) if and only if beta - alpha in Z or "
            "beta + alpha in Z.",
        ),
        Citation(
            "kernel1",
            "Prop. kernel1",
            "algebraic-parameter fibers are orthogonal to transcendental fibers",
            "Let a in Q^alg and let alpha be transcendental. Then X_II(a) is orthogonal to X_II(alpha).",
        ),
        # -- third family ------------------------------------------------------
        Citation(
            "piii_w1",
            "third-family analysis",
            "the stratum of even-integer parameter difference",
            "W_1 = { v in C^2 | v_1 - v_2 in 2Z }",
        ),
        Citation(
            "piii_d1",
            "third-family analysis",
            "the stratum of integer parameters with even sum",
            "D_1 = { v in Z^2 | v_1 + v_2 in 2Z }",
        ),
        Citation(
            "piii_sm",
            "third-family analysis",
            "off both strata the fiber is strongly minimal",
            "for v not in W_1 or D_1, X_III(v) is strongly minimal",
        ),
        Citation(
            "piii_deg2",
            "third-family analysis",
            "the W_1 stratum has Morley degree two",
            "For v in W_1, Lemma 3.1 implies that X_III(v) has Morley rank one and Morley degree two.",
        ),
        Citation(
            "piii_deg3",
            "third-family analysis",
            "the D_1 stratum has Morley degree three",
            "For v in D_1, Lemma 3.2 implies that X_III(v) has Morley rank one and Morley degree three.",
        ),
        Citation(
            "murata3",
            "Thm. Murata3",
            "algebraic-solution counts for the third family",
            "The equation S_III(v_1, v_2) has algebraic solutions if and only if v_2-v_1-1 in 2Z "
            "or v_2+v_1+1 in 2Z. If there are algebraic solutions to S_III(v_1, v_2), then there "
            "are either two or four. There are four algebraic solutions precisely when both "
            "v_2-v_1-1 in 2Z and v_2+v_1+1 in 2Z.",
        ),
        Citation(
            "piii_no_alg_generic",
            "Prop. orthofam3 (proof)",
            "generic third-family fibers have no algebraic solutions",
            "the fact that X_III(beta, gamma) has no algebraic solutions",
        ),
        Citation(
            "piii_backlund",
            "third-family analysis",
            "fibers related by the four generating maps are isomorphic",
            "the fibers of the family related by an affine transformation in the group generated by "
            "s_1(v) = (v_2, v_1), s_2(v) = (-v_2, -v_1), s_3(v) = (v_2+1, v_1-1), "
            "s_4(v) = (-v_2+1, -v_1+1) are isomorphic",
        ),
        Citation(
            "orthofam3",
            "Prop. orthofam3",
            "second vs third family orthogonality for independent transcendental pairs",
            "For any alpha in C \\ (1/2 + Z), and any beta, gamma in C which are independent and "
            "transcendental over Q, X_II(alpha) is orthogonal to X_III(beta, gamma). For any alpha "
            "in 1/2 + Z, X_II(alpha) \\ R(alpha) is orthogonal to X_III(beta, gamma).",
        ),
        Citation(
            "p3orth",
            "Prop. P3orth",
            "third-family nonorthogonality criterion for generic pairs",
            "Then X_III(v_1, v_2) is nonorthogonal to X_III(w_1, w_2) if and only if the sets "
            "{pi(v_2-v_1), pi(v_1-v_2)} and {pi(w_2-w_1), pi(w_1-w_2)} are identical.",
        ),
        # -- fourth family ------------------------------------------------------
        Citation(
            "piv_w",
            "fourth-family analysis",
            "the stratum of at least one integer parameter difference",
            "W = { v in V | v_1 - v_2 in Z or v_3 - v_2 in Z or v_1 - v_3 in Z }",
        ),
        Citation(
            "piv_d",
            "fourth-family analysis",
            "the stratum of all-integer parameter differences",
            "D = { v in V | v_1 - v_2 in Z and v_3 - v_2 in Z and v_1 - v_3 in Z }",
        ),
        Citation(
            "piv_sm",
            "fourth-family analysis",
            "off W the fiber satisfies Condition J, i.e. is strongly minimal",
            "X_IV(v) satisfies Condition J (has no differential subvarieties except for finite "
            "sets of points) when v in Gamma \\ W",
        ),
        Citation(
            "piv_deg3",
            "fourth-family analysis",
            "the D stratum has two order-one subvarieties, hence degree three",
            "for v in D, X_IV(v) has two irreducible order one differential subvarieties over any "
            "differential field K extending C(t). So, X_IV(v) has Morley rank one and Morley degree three.",
        ),
        Citation(
            "piv_deg2",
            "fourth-family analysis",
            "the W \\ D stratum has one order-one subvariety, hence degree two",
            "If v in W \\ D, then Lemma 3.10 implies that X_IV(v) has one irreducible order one "
            "differential subvariety, and so X_IV(v) has Morley rank one and Morley degree two.",
        ),
        Citation(
            "piv_backlund",
            "fourth-family analysis",
            "same-orbit fourth-family fibers are isomorphic",
            "For parameters v, w which are in the same orbit under H, the sets X_IV(v) and "
            "X_IV(w) are isomorphic",
        ),
        Citation(
            "p4orth",
            "Prop. P4orth",
            "fourth-family nonorthogonality criterion under genericity",
            "Then X_IV(v) is nonorthogonal to X_IV(w) if and only if there is a permutation sigma "
            "of {1,2,3} such that for i=1,2,3, v_i - w_sigma(i) in Z.",
        ),
        Citation(
            "naggy1",
            "Prop. Naggy1",
            "generic second family is orthogonal to generic fourth family",
            "Let alpha be transcendental, and let v in V be generic. Then X_II(alpha) is orthogonal "
            "to X_IV(v).",
        ),
        # -- fifth family ----------------------------------------------------------
        Citation(
            "pv_w",
            "fifth-family analysis",
            "the stratum of at least one integer difference",
            "W = { v in V | for some 1 <= i <= j <= 4, v_i - v_j in Z }",
        ),
        Citation(
            "pv_s1",
            "fifth-family analysis",
            "two disjoint integer-difference pairs",
            "Let S_1 denote the set of v in V such that for some sigma in S_4, "
            "v_sigma(1) - v_sigma(2) in Z and v_sigma(3) - v_sigma(4) in Z.",
        ),
        Citation(
            "pv_s2",
            "fifth-family analysis",
            "three entries in a common Z-coset",
            "Let S_2 denote the set of v in V such that for some sigma in S_4, "
            "v_sigma(1) - v_sigma(2) in Z and v_sigma(2) - v_sigma(3) in Z.",
        ),
        Citation(
            "pv_d",
            "fifth-family analysis",
            "all entries in a common Z-coset",
            "Let D denote the subset of v in V such that each of the entries of v is in the same Z-coset.",
        ),
        Citation(
            "pv_sm",
            "fifth-family analysis",
            "off W the fiber is strongly minimal",
            "Corollary 2.6 implies that for v not in W, S(v) is strongly minimal.",
        ),
        Citation(
            "pv_deg2",
            "fifth-family analysis",
            "W outside S_1 and S_2 has degree two",
            "for v such that v in W, but v not in S_1 or S_2, the set X_V(v) is of Morley rank one "
            "and Morley degree two",
        ),
        Citation(
            "pv_deg3",
            "fifth-family analysis",
            "S_1 or S_2 outside D has degree three",
            "for v in S_2, but v not in D, X_V(v) has Morley rank one and Morley degree three",
        ),
        Citation(
            "pv_deg4",
            "fifth-family analysis",
            "the D stratum has degree four",
            "for v in D, X_V(v) has Morley rank one and Morley degree four",
        ),
        Citation(
            "pv_count1",
            "fifth-family analysis",
            "one algebraic solution on S_2 \\ D",
            "for v in S_2 \\ D, X_V(v) has one algebraic solution",
        ),
        Citation(
            "pv_count2",
            "fifth-family analysis",
            "two algebraic solutions on D",
            "If v in D, X_V(v) has two algebraic solutions.",
        ),
        Citation(
            "pv_backlund",
            "fifth-family analysis",
            "same-orbit fifth-family fibers are nonorthogonal",
            "the sets X_V(v_1) and X_V(v_2), where v_1, v_2 are such that there is tau in G such "
            "that tau(v_1) = v_2, are nonorthogonal (there is a Q-definable bijection between the sets)",
        ),
        Citation(
            "pv_orbit",
            "fifth-family orbit proposition",
            "fifth-family orthogonality criterion under genericity",
            "Let v in V be generic over Q. Let w in V. Then X_V(v) is orthogonal to X_V(w) unless "
            "there is sigma in S_4 and a in Z such that a/4 (1,1,1) + (v_sigma(1), v_sigma(2), "
            "v_sigma(3)) - (w_1,w_2,w_3) in Z^3.",
        ),
        Citation(
            "naggy2",
            "Prop. Naggy2",
            "generic third family is orthogonal to generic fifth family",
            "Let alpha, beta be transcendental and independent, and let v in V be generic. Then "
            "X_III(alpha, beta) is orthogonal to X_V(v).",
        ),
        # -- sixth family --------------------------------------------------------------
        Citation(
            "pvi_roots",
            "sixth-family analysis",
            "the 24-vector root system behind the sixth-family strata",
            "Let R be the collection of 24 vectors of the following form: (±1, ±1, 0, 0), "
            "(±1, 0, ±1, 0), (±1, 0, 0, ±1), (0, ±1, ±1, 0), (0, ±1, 0, ±1), (0, 0, ±1, ±1).",
        ),
        Citation(
            "pvi_sm",
            "sixth-family analysis",
            "off M the fiber is strongly minimal",
            "Theorem 2.1 (v) implies that for v not in M, the solution set of the sixth Painlevé "
            "equation, which we denote by X_VI(v), is strongly minimal.",
        ),
        Citation(
            "pvi_m_deg",
            "sixth-family analysis",
            "degree on M \\ P, with the half-integer exception",
            "for v in M \\ P, X_VI(v) is Morley rank one and Morley degree two unless "
            "v_1 - v_2 in 1/2 + Z and v_3 - v_4 in Z, in which case X_VI(v) has Morley degree four",
        ),
        Citation(
            "pvi_p_deg",
            "sixth-family analysis",
            "degree three on P \\ L",
            "for v in P \\ L, X_VI(v) is Morley rank one and Morley degree three",
        ),
        Citation(
            "pvi_l_deg3",
            "sixth-family analysis",
            "degree three on L \\ D (first statement)",
            "Propositions 4.3 and 4.6 imply that for v in L \\ D, X_VI(v) is Morley rank one and "
            "Morley degree three.",
        ),
        Citation(
            "pvi_l_deg4",
            "sixth-family analysis",
            "degree four on L \\ D (conflicting statement)",
            "Proposition 4.4 implies that for v in L \\ D, X_VI(v) is Morley rank one and Morley "
            "degree four.",
        ),
        Citation(
            "pvi_d_deg",
            "sixth-family analysis",
            "degree five on D",
            "Proposition 4.7 implies that for v in D, X_VI(v) is Morley rank one and Morley degree five.",
        ),
        Citation(
            "pvi_backlund",
            "sixth-family analysis",
            "group-related sixth-family fibers are nonorthogonal",
            "for any two points v, w in C^4 which are related, g v = w, by an element of W, we "
            "have X_VI(v) is nonorthogonal to X_VI(w)",
        ),
        Citation(
            "pvi_orbit_criterion",
            "sixth-family analysis",
            "closed form of the sixth-family group relation",
            "g v = w for some g in G if and only if there is some sigma in S_4 and some i,j,k,l in "
            "{0,1} such that i+j+k+l in {0,2,4} so that (v_1, v_2, v_3, v_4) - ((-1)^i w_sigma(1), "
            "(-1)^j w_sigma(2), (-1)^k w_sigma(3), (-1)^l w_sigma(4)) in Z^4 and v_1 - (-1)^i "
            "w_sigma(1) + v_2 - (-1)^j w_sigma(2) + v_3 - (-1)^k w_sigma(3) + v_4 - (-1)^l "
            "w_sigma(4) in 2Z",
        ),
        Citation(
            "pvi_manin",
            "introduction (footnote)",
            "some sixth-family fibers relate to Manin kernels, blocking a triviality verdict",
            "An infinite collection of the fibers of P_VI are nonorthogonal to Manin kernels of "
            "elliptic curves",
        ),
        # -- displayed group relations --------------------------------------------------
        Citation(
            "piv_s0_display",
            "fourth-family analysis",
            "the composite t_-^-1 s_1 s_2 s_1 t_- acts as (v_1, v_3+1, v_2-1)",
            "Direct calculations allow one to verify that s_0(v_1, v_2, v_3) = (v_1, v_3+1, v_2-1).",
        ),
        Citation(
            "pv_composite_display",
            "fifth-family analysis",
            "the composite t_-^-1 s_3 s_1 s_2 s_1 s_3 t_- acts as (v_1, v_4+1, v_3, v_2-1)",
            "t_-^-1 s_3 s_1 s_2 s_1 s_3 t_-(v_1, v_2, v_3, v_4) = (v_1, v_4+1, v_3, v_2-1)",
        ),
        # -- open questions ---------------------------------------------------------------
        Citation(
            "q_np2",
            "Question np2",
            "are generic solutions from distinct families orthogonal?",
            "Are generic solutions to equations from distinct Painlevé families orthogonal?",
        ),
        Citation(
            "q_ortho2",
            "Question ortho2",
            "is the integer-shift criterion equivalent to nonorthogonality for all parameters?",
            "For any alpha, beta in C, consider the following conditions: X_II(alpha) is "
            "nonorthogonal to X_II(beta); beta - alpha in Z or beta + alpha in Z. Are the two "
            "conditions equivalent?",
        ),
        Citation(
            "q_nongen3orth",
            "Question nongen3orth",
            "second vs third family orthogonality for arbitrary parameters",
            "For any complex parameters, alpha, beta, gamma, are the generic types of X_II(alpha) "
            "and X_III(beta, gamma) orthogonal?",
        ),
        Citation(
            "q_p3orth_nongen",
            "Question after Prop. P3orth",
            "does the third-family criterion hold for non-generic coefficients?",
            "Does Proposition P3orth hold for non generic coefficients as well?",
        ),
        Citation(
            "q_p4orth_nongen",
            "Question after Prop. P4orth",
            "does the fourth-family criterion hold without genericity?",
            "Does Proposition P4orth hold without the assumption that one of the equations has "
            "generic coefficients?",
        ),
        Citation(
            "q_ques5",
            "Question ques5",
            "does criterion failure imply fifth-family orthogonality?",
            "If v, w in V are such that there is no sigma in S_4 and a in Z such that a/4 (1,1,1) "
            "+ (v_sigma(1), v_sigma(2), v_sigma(3)) - (w_1,w_2,w_3) in Z^3, then are X_V(v) and "
            "X_V(w) orthogonal?",
        ),
        Citation(
            "q_pvi_orbit",
            "sixth-family question",
            "does group-unrelatedness imply sixth-family orthogonality?",
            "For v, w such that there is no g in W such that g v = w, is X_VI(v) orthogonal to X_VI(w)?",
        ),
    ]
}


class Ambiguity(str):
    """A note that surfaces an unresolved reading or conflict in the source
    material; responses list these under "ambiguities", apart from plain
    notes."""


PVI_LDEG_AMBIGUITY = Ambiguity(
    "Conflicting degree statements for the L \\ D stratum of the sixth family: "
    f'"{CITATIONS["pvi_l_deg3"].quote}" versus "{CITATIONS["pvi_l_deg4"].quote}". '
    "Degree three (the first statement) is reported; the conflict is surfaced, not resolved."
)

RICCATI_SIGN_NOTE = Ambiguity(
    "Sign convention: the source text attributes the order-one locus"
    " y' = y^2 + t/2 to the fiber at alpha = -1/2, while symbolic prolongation"
    " matches y' = +(y^2 + t/2) to alpha = +1/2 and y' = -(y^2 + t/2) to"
    " alpha = -1/2.  The computed matching is reported; the attribution in"
    " the text is quoted, not resolved."
)


def cite(key: str) -> Citation:
    return CITATIONS[key]
