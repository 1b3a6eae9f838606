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
from operator import add, sub
from typing import Sequence

from .catalog import EquationId, Family, family_space
from .citations import cite
from .exactnum import (
    ParamValue,
    TriBool,
    decide_coset,
    rational_rank,
    transcendence_degree,
    tri_and,
    tri_or,
)

_INT = 1  # modulus for plain integer-coset tests
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


# -- congruence helpers ----------------------------------------------------------


def _is_int(x: ParamValue) -> TriBool:
    return decide_coset(x, 0, _INT)


# -- strata ----------------------------------------------------------------------
#
# Each family maps the labels of its non-generic strata to membership
# verdicts; ``stratum`` walks ``FamilySpec.strata`` over that map.


def _pii_strata(v: Sequence[ParamValue]) -> dict[str, TriBool]:
    return {"half-integer": decide_coset(v[0], _HALF, 1)}


def _piii_strata(v: Sequence[ParamValue]) -> dict[str, TriBool]:
    # D1 lies inside W1, so W1's congruence joins D1's: D1 is No wherever W1 is.
    w1 = decide_coset(v[0] - v[1], 0, 2)
    return {"D1": tri_and([_is_int(v[0]), _is_int(v[1]), decide_coset(v[0] + v[1], 0, 2), w1]), "W1": w1}


def _piv_strata(v: Sequence[ParamValue]) -> dict[str, TriBool]:
    tests = [_is_int(v[0] - v[1]), _is_int(v[2] - v[1]), _is_int(v[0] - v[2])]
    return {"D": tri_and(tests), "W": tri_or(tests)}


def _pv_strata(v: Sequence[ParamValue]) -> dict[str, TriBool]:
    pair = {(i, j): _is_int(v[i] - v[j]) for i, j in itertools.combinations(range(4), 2)}

    def two_pairs(covered: int) -> TriBool:
        """Two integral pairs that together cover ``covered`` coordinates."""
        return tri_or(
            tri_and([pair[p], pair[q]])
            for p, q in itertools.combinations(pair, 2)
            if len(set(p + q)) == covered
        )

    # S1 and S2 together force D, so their order in the walk does not matter.
    return {
        "D": tri_and([pair[0, 1], pair[0, 2], pair[0, 3]]),
        "S1": two_pairs(4),
        "S2": two_pairs(3),
        "W": tri_or(pair.values()),
    }


# Least rank of the integrally pairing D4 roots on each sixth-family stratum.
_PVI_MIN_RANK = {"D": 4, "L": 3, "P": 2, "M": 1}


def _pvi_strata(v: Sequence[ParamValue]) -> dict[str, TriBool]:
    """Strata by the rank of the D4 roots ±e_i±e_j that pair integrally with
    v.  A root and its negative pair alike, so the 12 pairings v_i ± v_j
    (i < j) decide it; a stratum is Unknown when only the undecided
    pairings reach its rank."""
    yes, undecided = [], []
    for i, j in itertools.combinations(range(4), 2):
        for sign, value in ((1, v[i] + v[j]), (-1, v[i] - v[j])):
            verdict = _is_int(value)
            if verdict is not TriBool.NO:
                row = [0, 0, 0, 0]
                row[i], row[j] = 1, sign
                (yes if verdict is TriBool.YES else undecided).append(row)
    rank_yes = rational_rank(yes)
    rank_all = rational_rank(yes + undecided) if undecided else rank_yes
    return {
        label: TriBool.YES if rank_yes >= r else TriBool.UNKNOWN if rank_all >= r else TriBool.NO
        for label, r in _PVI_MIN_RANK.items()
    }


_STRATA_TESTS = {
    Family.PI: lambda v: {},
    Family.PII: _pii_strata,
    Family.PIII: _piii_strata,
    Family.PIV: _piv_strata,
    Family.PV: _pv_strata,
    Family.PVI: _pvi_strata,
}


# The splits of the sixth family's coordinates into a pair {a, b} and its
# complement {c, d}, the identity's {0, 1} | {2, 3} first.
_PVI_SPLITS = tuple(
    (a, b, *(i for i in range(4) if i not in (a, b))) for a, b in itertools.combinations(range(4), 2)
)


def _pvi_half_integer_special(v: Sequence[ParamValue]) -> tuple[TriBool, bool]:
    """Test v1 - v2 in 1/2 + Z and v3 - v4 in Z over every image of v under
    the finite transformations (signed permutations with even sign weight);
    integer translations preserve both congruences, so this makes the test
    orbit-invariant.  Returns the verdict and whether a non-identity
    transformation was needed.

    An image's first two coordinates come from a pair {a, b} and its last two
    from the complement {c, d}; even sign weight gives both differences the
    same relative sign.  So up to negation, which keeps both cosets, the
    images test v_a op v_b in 1/2 + Z and v_c op v_d in Z over the 6 splits
    and op = -, +: 12 tests where the images number 192.  The identity is
    the first split with op = -.  On M no test is undecided: each has the
    atoms of a root pairing, and M leaves no root pairing undecided."""
    for a, b, c, d in _PVI_SPLITS:
        for op in (sub, add):
            if decide_coset(op(v[a], v[b]), _HALF, 1) is TriBool.YES and _is_int(op(v[c], v[d])) is TriBool.YES:
                return TriBool.YES, (a, b, op) != (0, 1, sub)
    return TriBool.NO, False


def stratum(eq: EquationId) -> Stratum:
    """Walk ``FamilySpec.strata`` deepest first: the first stratum whose
    membership decides Yes, or Unknown (label None) at the first undecided
    one.  The generic row has no test and always holds."""
    fam = eq.family
    membership = _STRATA_TESTS[fam](eq.params)
    for row in family_space(fam).strata:
        verdict = membership.get(row.label, TriBool.YES)
        if verdict is TriBool.UNKNOWN:
            return Stratum(fam, None)
        if verdict is TriBool.YES:
            break
    if fam is Family.PVI and row.label == "M":
        special, transformed = _pvi_half_integer_special(eq.params)
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


def algebraic_solution_count_P3(v1: ParamValue, v2: ParamValue) -> int | None:
    """Counts by the two fixed congruences: 4 when both v2-v1-1 and v2+v1+1
    are even integers, 2 when exactly one is, 0 when neither; None (Unknown)
    when an undecided congruence leaves the count unforced."""
    first = decide_coset(v2 - v1 - 1, 0, 2)
    second = decide_coset(v2 + v1 + 1, 0, 2)
    if TriBool.UNKNOWN in (first, second):
        return None
    yes = [first, second].count(TriBool.YES)
    return {2: 4, 1: 2, 0: 0}[yes]


def _algebraic_solutions(eq: EquationId, strat: Stratum) -> tuple[int | None, list[str]]:
    fam = eq.family
    if fam is Family.PII:
        verdict = _is_int(eq.params[0])
        if verdict is TriBool.UNKNOWN:
            return None, []
        return (1 if verdict is TriBool.YES else 0), ["murata_pii"]
    if fam is Family.PIII:
        count = algebraic_solution_count_P3(eq.params[0], eq.params[1])
        if count is None:
            return None, []
        keys = ["murata3"]
        if count == 0 and is_generic(eq):
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


def _geometric_triviality(eq: EquationId, notes: list[str]) -> tuple[TriBool, list[str]]:
    fam = eq.family
    if fam is Family.PII:
        return TriBool.YES, ["pii_trivial_all"]
    if is_generic(eq):
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
    strat = stratum(eq)
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
    count, count_keys = _algebraic_solutions(eq, strat)
    trivial, trivial_keys = _geometric_triviality(eq, notes)
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
