"""Fiber classification: Morley rank/degree, strong minimality, stratum,
component structure, algebraic-solution counts, geometric triviality.

Every verdict carries a citation from the registry or is an explicit
Unknown; undecided congruences (algebraic-irrational atoms) propagate as
Unknown rather than being guessed.  ``catalog.FamilySpec.strata`` is the one
statement of each family's strata, deepest first; a fiber lies in the first
stratum there whose membership decides Yes, which is sound because each
family's deeper strata are contained in the shallower ones.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .catalog import EquationId, Family, family_space
from .citations import cite
from .exactnum import (
    Scaled,
    TriBool,
    coset,
    decide_coset,
    rational_rank,
    scale,
    transcendence_degree,
    tri_and,
    tri_or,
)

_HALF = Fraction(1, 2)


# A family-specific parameter stratum; ``label`` is None when membership is
# undecided.  ``half_integer_special`` is only meaningful for the sixth
# family's M stratum.
Stratum = namedtuple(
    "Stratum", "family label half_integer_special special_after_transformation", defaults=(TriBool.NO, False)
)
Component = namedtuple("Component", "label order")

# ``stratum_citation`` to ``triviality_citation``: the statement behind each
# verdict, None where the verdict is unknown.
ClassificationReport = namedtuple(
    "ClassificationReport",
    "equation rank degree strongly_minimal stratum components algebraic_solutions geometrically_trivial"
    " citations notes stratum_citation degree_citation count_citation triviality_citation",
)


# -- strata ----------------------------------------------------------------------
#
# Each congruence is a row (coefficients, offset, modulus) that
# ``exactnum.coset`` decides on the fiber's integer form.  Each family maps
# its rows' verdicts to the membership verdicts of its non-generic strata;
# ``stratum`` walks ``FamilySpec.strata`` over that map.


def _pair(arity: int, i: int, j: int, sign: int = -1) -> tuple[int, ...]:
    """The coefficients of v_i + sign*v_j."""
    return tuple(1 if k == i else sign if k == j else 0 for k in range(arity))


_PV_PAIRS = tuple(itertools.combinations(range(4), 2))


def _pv_strata(t: Sequence[TriBool]) -> dict[str, TriBool]:
    pair = dict(zip(_PV_PAIRS, t))

    def two_pairs(covered: int) -> TriBool:
        """Two integral pairs that together cover ``covered`` coordinates."""
        return tri_or(
            tri_and([pair[p], pair[q]])
            for p, q in itertools.combinations(_PV_PAIRS, 2)
            if len(set(p + q)) == covered
        )

    # S1 and S2 together force D, so their order in the walk does not matter.
    return {
        "D": tri_and([pair[0, 1], pair[0, 2], pair[0, 3]]),
        "S1": two_pairs(4),
        "S2": two_pairs(3),
        "W": tri_or(t),
    }


# The sixth family's 12 pairings v_i + sign*v_j (i < j), each with its D4
# root e_i + sign*e_j; a root and its negative pair alike.  Least rank of the
# integrally pairing roots on each stratum.
_PVI_PAIRINGS = tuple(_pair(4, i, j, sign) for i, j in _PV_PAIRS for sign in (1, -1))
_PVI_MIN_RANK = {"D": 4, "L": 3, "P": 2, "M": 1}


def _pvi_strata(t: Sequence[TriBool]) -> dict[str, TriBool]:
    """Strata by the rank of the D4 roots that pair integrally with v; a
    stratum is Unknown when only the undecided pairings reach its rank."""
    yes = [root for root, verdict in zip(_PVI_PAIRINGS, t) if verdict is TriBool.YES]
    undecided = [root for root, verdict in zip(_PVI_PAIRINGS, t) if verdict is TriBool.UNKNOWN]
    rank_yes = rational_rank(yes)
    rank_all = rational_rank(yes + undecided) if undecided else rank_yes
    return {
        label: TriBool.YES if rank_yes >= r else TriBool.UNKNOWN if rank_all >= r else TriBool.NO
        for label, r in _PVI_MIN_RANK.items()
    }


# family -> (denominator of its integer form, 2 where an offset is 1/2;
# congruence rows; strata from the rows' verdicts).  The third family's D1
# lies inside W1, so W1's congruence (the last row) joins D1's: D1 is No
# wherever W1 is.
_STRATA_TESTS = {
    Family.PI: (1, (), lambda t: {}),
    Family.PII: (2, (((1,), _HALF, 1),), lambda t: {"half-integer": t[0]}),
    Family.PIII: (1, (((1, 0), 0, 1), ((0, 1), 0, 1), ((1, 1), 0, 2), ((1, -1), 0, 2)),
                  lambda t: {"D1": tri_and(t), "W1": t[3]}),
    Family.PIV: (1, tuple((_pair(3, i, j), 0, 1) for i, j in ((0, 1), (2, 1), (0, 2))),
                 lambda t: {"D": tri_and(t), "W": tri_or(t)}),
    Family.PV: (1, tuple((_pair(4, i, j), 0, 1) for i, j in _PV_PAIRS), _pv_strata),
    Family.PVI: (2, tuple((root, 0, 1) for root in _PVI_PAIRINGS), _pvi_strata),
}


# ``_pvi_half_integer_special``'s rows v_a op v_b and v_c op v_d, and whether each needs a transformation.
_PVI_HALF_TESTS = tuple(
    (_pair(4, a, b, sign), _pair(4, c, d, sign), (a, b, sign) != (0, 1, -1))
    for a, b in _PV_PAIRS
    for c, d in [tuple(i for i in range(4) if i not in (a, b))]
    for sign in (-1, 1)
)


def _pvi_half_integer_special(form: Scaled) -> tuple[TriBool, bool]:
    """Test v1 - v2 in 1/2 + Z and v3 - v4 in Z over every image of v under
    the finite transformations (signed permutations with even sign weight);
    integer translations preserve both congruences, so this makes the test
    orbit-invariant.  Returns the verdict and whether a non-identity
    transformation was needed.  ``form`` is the fiber's integer form.

    An image's first two coordinates come from a pair {a, b} and its last two
    from the complement {c, d}; even sign weight gives both differences the
    same relative sign.  So up to negation, which keeps both cosets, the
    images test v_a op v_b in 1/2 + Z and v_c op v_d in Z over the 6 splits
    and op = -, +: 12 tests where the images number 192, the identity's
    {0, 1} | {2, 3} with op = - first.  On M no test is undecided: each has
    the atoms of a root pairing, and M leaves no root pairing undecided."""
    for half, whole, transformed in _PVI_HALF_TESTS:
        half_holds = coset(form, half, _HALF, 1, decide_coset) is TriBool.YES
        if half_holds and coset(form, whole, 0, 1, decide_coset) is TriBool.YES:
            return TriBool.YES, transformed
    return TriBool.NO, False


def stratum(eq: EquationId, form: Scaled | None = None) -> Stratum:
    """Walk ``FamilySpec.strata`` deepest first: the first stratum whose
    membership decides Yes, or Unknown (label None) at the first undecided
    one.  The generic row has no test and always holds.  ``form`` is the
    fiber's integer form over its family's denominator, when the caller has
    built it."""
    fam = eq.family
    den, rows, strata = _STRATA_TESTS[fam]
    form = form or scale(eq.params, den)
    membership = strata([coset(form, *row, decide_coset) for row in rows])
    for row in family_space(fam).strata:
        verdict = membership.get(row.label, TriBool.YES)
        if verdict is TriBool.UNKNOWN:
            return Stratum(fam, None)
        if verdict is TriBool.YES:
            break
    if fam is Family.PVI and row.label == "M":
        special, transformed = _pvi_half_integer_special(form)
        return Stratum(fam, row.label, half_integer_special=special, special_after_transformation=transformed)
    return Stratum(fam, row.label)


# -- degree, components, counts ---------------------------------------------------


def _components_for(fam: Family, degree: int) -> tuple[Component, ...]:
    comps = [Component("generic", 2)]
    if fam is Family.PII and degree == 2:
        comps.append(Component("riccati R(alpha)", 1))
    else:
        comps.extend(Component(f"order-one subvariety {i}", 1) for i in range(1, degree))
    return tuple(comps)


def _pvi_m_degree(strat: Stratum, notes: list[str]) -> int:
    """The sixth family's M stratum has degree 4 where the half-integer
    special condition holds and 2 elsewhere."""
    if strat.half_integer_special is TriBool.YES:
        if strat.special_after_transformation:
            notes.append(
                "half-integer special condition holds after a signed-permutation "
                "change of representative (it is orbit-invariant)"
            )
        return 4
    return 2


def is_generic(eq: EquationId) -> bool:
    """Whether the parameters' transcendence degree is their space's dimension."""
    return transcendence_degree(eq.params) == family_space(eq.family).dimension


def algebraic_solution_count_P3(form: Scaled) -> int | None:
    """Counts by the two fixed congruences, on the third family's integer
    form ``form``: 4 when both v2-v1-1 and v2+v1+1 are even integers, 2 when
    exactly one is, 0 when neither; None (Unknown) when an undecided
    congruence leaves the count unforced."""
    first = coset(form, (-1, 1), 1, 2, decide_coset)
    second = coset(form, (1, 1), -1, 2, decide_coset)
    if TriBool.UNKNOWN in (first, second):
        return None
    yes = [first, second].count(TriBool.YES)
    return {2: 4, 1: 2, 0: 0}[yes]


def _algebraic_solutions(eq: EquationId, strat: Stratum, form: Scaled, generic: bool) -> tuple[int | None, list[str]]:
    fam = eq.family
    if fam is Family.PII:
        verdict = coset(form, (1,), 0, 1, decide_coset)
        if verdict is TriBool.UNKNOWN:
            return None, []
        return (1 if verdict is TriBool.YES else 0), ["murata_pii"]
    if fam is Family.PIII:
        count = algebraic_solution_count_P3(form)
        if count is None:
            return None, []
        keys = ["murata3"]
        if count == 0 and generic:
            keys.append("piii_no_alg_generic")
        return count, keys
    if fam is Family.PV:
        if strat.label == "D":
            return 2, ["pv_count2"]
        if strat.label == "S2":
            return 1, ["pv_count1"]
        return None, []
    # First, fourth and sixth families: no count criterion is implemented.
    return None, []


def _geometric_triviality(eq: EquationId, generic: bool, notes: list[str]) -> tuple[TriBool, list[str]]:
    fam = eq.family
    if fam is Family.PII:
        return TriBool.YES, ["pii_trivial_all"]
    if generic:
        return TriBool.YES, ["generic_sm_trivial"]
    if fam is Family.PVI:
        notes.append(
            "triviality unknown for non-generic sixth-family parameters: some fibers are "
            f'nonorthogonal to Manin kernels ("{cite("pvi_manin").quote}")'
        )
    return TriBool.UNKNOWN, []


def classify(eq: EquationId) -> ClassificationReport:
    """Full classification report for one equation, with citations."""
    spec = family_space(eq.family)
    notes: list[str] = []
    form = scale(eq.params, _STRATA_TESTS[eq.family][0])
    strat = stratum(eq, form)
    citation_keys: list[str] = ["rank_one"]
    stratum_citation = degree_citation = None
    components: tuple[Component, ...] = ()
    if strat.label is None:
        degree = None
        notes.append(
            "stratum undecided: a defining congruence involves unrelated algebraic-irrational atoms"
        )
    else:
        row = spec.row(strat.label)
        stratum_citation = cite(row.stratum_key)
        degree = row.degree
        if degree is None:
            degree = _pvi_m_degree(strat, notes)
        if row.note is not None:
            notes.append(row.note)
        components = _components_for(eq.family, degree)
        citation_keys.extend(row.degree_keys)
        degree_citation = cite(row.degree_keys[0])

    strongly_minimal = TriBool.UNKNOWN if degree is None else TriBool.of(degree == 1)
    generic = is_generic(eq)
    count, count_keys = _algebraic_solutions(eq, strat, form, generic)
    trivial, trivial_keys = _geometric_triviality(eq, generic, notes)
    citation_keys += count_keys + trivial_keys
    notes.extend(spec.notes)

    return ClassificationReport(
        equation=eq,
        rank=1,
        degree=degree,
        strongly_minimal=strongly_minimal,
        stratum=strat,
        components=components,
        algebraic_solutions=count,
        geometrically_trivial=trivial,
        citations=tuple(cite(key) for key in dict.fromkeys(citation_keys)),
        notes=tuple(notes),
        stratum_citation=stratum_citation,
        degree_citation=degree_citation,
        count_citation=cite(count_keys[0]) if count_keys else None,
        triviality_citation=cite(trivial_keys[0]) if trivial_keys else None,
    )
