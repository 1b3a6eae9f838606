"""Fiber classification: Morley rank/degree, strong minimality, stratum,
component structure, algebraic-solution counts, geometric triviality.

Every verdict carries a citation from the registry or is an explicit
Unknown; undecided congruences (algebraic-irrational atoms) propagate as
Unknown rather than being guessed.  Strata are tested deepest-first, which
is sound because each family's deeper strata are contained in the shallower
ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .catalog import EquationId, Family, family_space, inner_product, root_system
from .citations import Citation, cite
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


@dataclass(frozen=True)
class Stratum:
    """Family-specific parameter stratum; ``label`` is None when membership
    is undecided.  ``half_integer_special`` is only meaningful for the
    sixth family's M stratum."""

    family: Family
    label: str | None
    half_integer_special: TriBool = TriBool.NO
    special_after_transformation: bool = False

    @property
    def known(self) -> bool:
        return self.label is not None


@dataclass(frozen=True)
class Component:
    label: str
    order: int


@dataclass(frozen=True)
class ClassificationReport:
    equation: EquationId
    rank: int
    degree: int | None
    strongly_minimal: TriBool
    stratum: Stratum
    components: tuple[Component, ...]
    algebraic_solutions: int | None
    geometrically_trivial: TriBool
    citations: tuple[Citation, ...]
    notes: tuple[str, ...]
    # The statement behind each verdict; None where the verdict is unknown.
    stratum_citation: Citation | None
    degree_citation: Citation | None
    count_citation: Citation | None
    triviality_citation: Citation | None


# -- congruence helpers ----------------------------------------------------------


def _is_int(x: ParamValue) -> TriBool:
    return decide_coset(x, 0, _INT)


def _same_int_coset(values: Sequence[ParamValue]) -> TriBool:
    return tri_and(_is_int(values[0] - y) for y in values[1:])


# -- strata ----------------------------------------------------------------------


def _pii_region(alpha: ParamValue) -> TriBool:
    return decide_coset(alpha, Fraction(1, 2), 1)


def _piii_regions(v: Sequence[ParamValue]) -> tuple[TriBool, TriBool]:
    in_w1 = decide_coset(v[0] - v[1], 0, 2)
    in_d1 = tri_and([_is_int(v[0]), _is_int(v[1]), decide_coset(v[0] + v[1], 0, 2)])
    return in_w1, in_d1


def _piv_regions(v: Sequence[ParamValue]) -> tuple[TriBool, TriBool]:
    diffs = [v[0] - v[1], v[2] - v[1], v[0] - v[2]]
    tests = [_is_int(d) for d in diffs]
    return tri_or(tests), tri_and(tests)


def _pv_regions(v: Sequence[ParamValue]) -> tuple[TriBool, TriBool, TriBool, TriBool]:
    pair_tests = {(i, j): _is_int(v[i] - v[j]) for i, j in itertools.combinations(range(4), 2)}
    in_w = tri_or(pair_tests.values())
    in_s1 = tri_or(
        tri_and([pair_tests[p1], pair_tests[p2]])
        for p1, p2 in [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    )
    in_s2 = tri_or(
        tri_and([pair_tests[_ord(i, j)], pair_tests[_ord(j, k)]])
        for i, j, k in itertools.permutations(range(4), 3)
        if i < k  # (i,j,k) and (k,j,i) give the same pair of tests
    )
    in_d = tri_and([pair_tests[(0, 1)], pair_tests[(0, 2)], pair_tests[(0, 3)]])
    return in_w, in_s1, in_s2, in_d


def _ord(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _pvi_root_scan(v: Sequence[ParamValue]) -> tuple[list, list]:
    """Split the 24 roots by whether <v, root> pairs integrally: certainly-yes
    and undecided."""
    yes, unknown = [], []
    for root in root_system():
        verdict = _is_int(inner_product(v, root))
        if verdict is TriBool.YES:
            yes.append(root)
        elif verdict is TriBool.UNKNOWN:
            unknown.append(root)
    return yes, unknown


def _pvi_rank(v: Sequence[ParamValue]) -> int | None:
    """Rank of the span of integrally-pairing roots; None when undecided
    pairings could change it."""
    yes, unknown = _pvi_root_scan(v)
    rank_yes = rational_rank(yes)
    if unknown and rational_rank(yes + unknown) > rank_yes:
        return None
    return rank_yes


_PVI_LABELS = {0: "generic", 1: "M", 2: "P", 3: "L", 4: "D"}


def _pvi_half_integer_special(v: Sequence[ParamValue]) -> tuple[TriBool, bool]:
    """Test v1 - v2 in 1/2 + Z and v3 - v4 in Z over every image of v under
    the finite transformations (signed permutations with even sign weight);
    integer translations preserve both congruences, so this makes the test
    orbit-invariant.  Returns the verdict and whether a non-identity
    transformation was needed.  On M no test is undecided: each has the atoms
    of a root pairing, and M leaves no root pairing undecided."""
    identity_hit = False
    hit = False
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            if signs.count(-1) % 2:
                continue
            image = [v[perm[j]] * signs[j] for j in range(4)]
            check = tri_and(
                [
                    decide_coset(image[0] - image[1], Fraction(1, 2), 1),
                    _is_int(image[2] - image[3]),
                ]
            )
            if check is TriBool.YES:
                hit = True
                if perm == (0, 1, 2, 3) and signs == (1, 1, 1, 1):
                    identity_hit = True
    if hit:
        return TriBool.YES, not identity_hit
    return TriBool.NO, False


def stratum(eq: EquationId) -> Stratum:
    """Deepest stratum whose defining congruences all decide Yes; Unknown
    (label None) when an undecided congruence could change the answer."""
    fam = eq.family
    v = eq.params
    if fam is Family.PI:
        return Stratum(fam, "generic")
    if fam is Family.PII:
        region = _pii_region(v[0])
        if region is TriBool.UNKNOWN:
            return Stratum(fam, None)
        return Stratum(fam, "half-integer" if region is TriBool.YES else "generic")
    if fam is Family.PIII:
        in_w1, in_d1 = _piii_regions(v)
        if in_d1 is TriBool.YES:
            return Stratum(fam, "D1")
        if in_d1 is TriBool.UNKNOWN:
            return Stratum(fam, None)
        if in_w1 is TriBool.YES:
            return Stratum(fam, "W1")
        if in_w1 is TriBool.UNKNOWN:
            return Stratum(fam, None)
        return Stratum(fam, "generic")
    if fam is Family.PIV:
        in_w, in_d = _piv_regions(v)
        if in_d is TriBool.YES:
            return Stratum(fam, "D")
        if in_d is TriBool.UNKNOWN:
            return Stratum(fam, None)
        if in_w is TriBool.YES:
            return Stratum(fam, "W")
        if in_w is TriBool.UNKNOWN:
            return Stratum(fam, None)
        return Stratum(fam, "generic")
    if fam is Family.PV:
        in_w, in_s1, in_s2, in_d = _pv_regions(v)
        if in_d is TriBool.YES:
            return Stratum(fam, "D")
        if in_d is TriBool.UNKNOWN:
            return Stratum(fam, None)
        # S1 and S2 together force D, so at most one of them is Yes here.
        if TriBool.UNKNOWN in (in_s1, in_s2):
            # The undecided test flips the label (S1 vs W, S2 vs W, ...).
            return Stratum(fam, None)
        if in_s1 is TriBool.YES:
            return Stratum(fam, "S1")
        if in_s2 is TriBool.YES:
            return Stratum(fam, "S2")
        if in_w is TriBool.YES:
            return Stratum(fam, "W")
        if in_w is TriBool.UNKNOWN:
            return Stratum(fam, None)
        return Stratum(fam, "generic")
    if fam is Family.PVI:
        rank = _pvi_rank(v)
        if rank is None:
            return Stratum(fam, None)
        label = _PVI_LABELS[rank]
        special, transformed = TriBool.NO, False
        if label == "M":
            special, transformed = _pvi_half_integer_special(v)
        return Stratum(fam, label, half_integer_special=special, special_after_transformation=transformed)
    raise ValueError(f"unhandled family {fam}")


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


def _is_generic(eq: EquationId) -> bool:
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


def _algebraic_solutions(eq: EquationId) -> tuple[int | None, list[str]]:
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
        if count == 0 and _is_generic(eq):
            keys.append("piii_no_alg_generic")
        return count, keys
    if fam is Family.PV:
        _, _, in_s2, in_d = _pv_regions(eq.params)
        if in_d is TriBool.YES:
            return 2, ["pv_count2"]
        if in_d is TriBool.NO and in_s2 is TriBool.YES:
            return 1, ["pv_count1"]
        return None, []
    # First, fourth and sixth families: no count criterion is implemented.
    return None, []


def _geometric_triviality(eq: EquationId, notes: list[str]) -> tuple[TriBool, list[str]]:
    fam = eq.family
    if fam is Family.PII:
        return TriBool.YES, ["pii_trivial_all"]
    if _is_generic(eq):
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
    count, count_keys = _algebraic_solutions(eq)
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
