import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from painleve.catalog import EquationId, Family, family_space
from painleve.citations import CITATIONS, PVI_LDEG_AMBIGUITY
from painleve.classify import algebraic_solution_count_P3, classify, stratum
from painleve.exactnum import ParamValue, TriBool, alg, coset, decide_coset, rational_rank, scale, tau

from oracles import (
    chain_classify, chain_stratum, classify_module, coset_classify, coset_strata, pvi_image_scan_special,
    pvi_root_scan,
)

PV = ParamValue
T1, T2, T3, T4 = (PV.of_atom(tau(i)) for i in (1, 2, 3, 4))
A1, A2 = PV.of_atom(alg(1)), PV.of_atom(alg(2))
H = Fraction(1, 2)


def eq(family, params):
    return EquationId(family, params)


# -- stratum fixtures -----------------------------------------------------------

def test_stratum_fixtures():
    assert stratum(eq(Family.PIII, [1, 0])).label == "generic"
    assert stratum(eq(Family.PIII, [2, 0])).label == "D1"
    assert stratum(eq(Family.PIII, [3, 1])).label == "D1"
    assert stratum(eq(Family.PIII, [H, H + 2])).label == "W1"
    assert stratum(eq(Family.PV, [0, 0, 0, 0])).label == "D"
    assert stratum(eq(Family.PVI, [Fraction(1, 3), 0, 0, 0])).label == "L"
    assert stratum(eq(Family.PII, [H])).label == "half-integer"
    assert stratum(eq(Family.PI, [])).label == "generic"


def test_pv_stratum_labels():
    assert stratum(eq(Family.PV, [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), -1])).label == "S2"
    w = [Fraction(1, 8), Fraction(9, 8), Fraction(-5, 8) + T1, Fraction(-5, 8) - T1]
    assert stratum(eq(Family.PV, w)).label == "W"
    generic = [T1, T2, T3, -T1 - T2 - T3]
    assert stratum(eq(Family.PV, generic)).label == "generic"


def test_pv_s1_without_s2():
    # pairs {1,2} and {3,4} integral, cosets 2/3 and 1/3 distinct
    v = [Fraction(2, 3), Fraction(-1, 3), Fraction(1, 3), Fraction(-2, 3)]
    s = stratum(eq(Family.PV, v))
    assert s.label == "S1"


def test_pv_s1_and_s2_together_force_d():
    # Coset-class sizes: S1 needs (4) or (2,2), S2 needs (4) or (3,1), so a
    # point in both lies in D; the deepest-first test reports D.
    rng = random.Random(12)
    for _ in range(200):
        base = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 4]))
        offsets = [rng.randint(-2, 2) for _ in range(3)]
        v = [base + o for o in offsets]
        v.append(-sum(v, Fraction(0)))
        equation = eq(Family.PV, v)
        s = stratum(equation)
        if s.label in ("S1S2",):
            raise AssertionError("S1 and S2 together must collapse into D")


def test_pvi_stratum_by_rank():
    assert stratum(eq(Family.PVI, [0, 0, 0, 0])).label == "D"
    assert stratum(eq(Family.PVI, [T1, T2, T3, T4])).label == "generic"
    assert stratum(eq(Family.PVI, [H, 0, Fraction(1, 4), Fraction(1, 4)])).label == "M"
    # exactly two independent integral pairings: (1,-1,0,0) and (0,0,1,-1)
    assert stratum(eq(Family.PVI, [Fraction(1, 3), Fraction(1, 3), Fraction(1, 4), Fraction(-3, 4)])).label == "P"


def test_pvi_half_integer_special_flag():
    s = stratum(eq(Family.PVI, [H, 0, Fraction(1, 4), Fraction(1, 4)]))
    assert s.half_integer_special is TriBool.YES
    assert s.special_after_transformation is False
    # same point with the special pair moved elsewhere by a permutation
    s2 = stratum(eq(Family.PVI, [Fraction(1, 4), Fraction(1, 4), H, 0]))
    assert s2.label == "M"
    assert s2.half_integer_special is TriBool.YES
    assert s2.special_after_transformation is True
    # an M point without the half-integer condition
    s3 = stratum(eq(Family.PVI, [Fraction(1, 5), 0, Fraction(1, 4), Fraction(1, 4)]))
    assert s3.label == "M"
    assert s3.half_integer_special is TriBool.NO


_PVI_ATOMS = (tau(1), tau(2), alg(1), alg(2), alg(3))


@st.composite
def pvi_on_m(draw):
    """Sixth-family parameters with tau/alg atoms, built to land on M often:
    v_j is tied to v_i by a signed integral shift (one integral root
    pairing), and sometimes v_l to v_m by a half-integral one."""

    def value():
        const = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3, 5])))
        coeffs = {a: draw(st.sampled_from([0, 0, 0, 1, -1, 2, H])) for a in _PVI_ATOMS}
        return PV(const, coeffs)

    v = [value() for _ in range(4)]
    i, j, l, m = draw(st.permutations(range(4)))
    v[j] = v[i] * draw(st.sampled_from([1, -1])) + draw(st.integers(-3, 3))
    if draw(st.booleans()):
        v[m] = v[l] * draw(st.sampled_from([1, -1])) + H + draw(st.integers(-3, 3))
    return v


@given(pvi_on_m())
@settings(max_examples=60, deadline=None)
def test_pvi_m_half_integer_special_is_decided(v):
    # Each half-integer test has the atoms of a root pairing, and M leaves no
    # root pairing undecided, so the special condition is always decided.
    s = stratum(eq(Family.PVI, v))
    assume(s.label == "M")
    assert s.half_integer_special in (TriBool.YES, TriBool.NO)
    assert classify(eq(Family.PVI, v)).degree == (4 if s.half_integer_special is TriBool.YES else 2)


def test_pvi_half_integer_special_pairings_match_image_scan():
    # Values with tau/alg atoms, mostly tied onto the special locus: v_b is
    # e*v_a + 1/2 and v_d is e*v_c up to integers, for a random split
    # {a, b} | {c, d} and sign e.
    rng = random.Random(16)
    seen = {}
    for _ in range(5000):
        v = [
            PV(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 5])),
               {a: rng.choice([0, 0, 0, 1, -1, 2, H]) for a in _PVI_ATOMS})
            for _ in range(4)
        ]
        a, b, c, d = rng.sample(range(4), 4)
        e = rng.choice([1, -1])
        if rng.random() < 0.8:
            v[b] = v[a] * e + H + rng.randint(-3, 3)
        if rng.random() < 0.8:
            v[d] = v[c] * e + rng.randint(-3, 3)
        expected = pvi_image_scan_special(v)
        assert classify_module._pvi_half_integer_special(scale(v, 2)) == expected, v
        seen[expected] = seen.get(expected, 0) + 1
    assert min(seen.get(k, 0) for k in [(TriBool.YES, False), (TriBool.YES, True), (TriBool.NO, False)]) > 200


def test_stratum_unknown_on_undecided_congruence():
    assert stratum(eq(Family.PII, [A1 + A2])).label is None
    assert stratum(eq(Family.PIII, [A1 + A2, 0])).label is None


def test_piii_d1_decided_where_w1_is_no():
    # v1 - v2 = -alg2 is not an even integer, so the fiber is off W1 and so
    # off D1 inside it, though D1's own congruences are undecided.
    report = classify(eq(Family.PIII, [A1 + A2 - H, A1 + 2 * A2 - H]))
    assert report.stratum.label == "generic"
    assert report.degree == 1


def test_piii_stratum_decided_whenever_w1_is_no():
    rng = random.Random(91)
    d1_undecided = 0
    for _ in range(2000):
        v = _tied_params(Family.PIII, rng)
        if decide_coset(v[0] - v[1], 0, 2) is not TriBool.NO:
            continue
        own = [decide_coset(v[0], 0, 1), decide_coset(v[1], 0, 1), decide_coset(v[0] + v[1], 0, 2)]
        d1_undecided += TriBool.NO not in own and TriBool.UNKNOWN in own
        assert stratum(eq(Family.PIII, v)).label is not None, v
    assert d1_undecided > 20


def test_stratum_monotonicity_deepest_first():
    # D-type points satisfy the shallower defining conditions too.
    v = eq(Family.PIV, [1, -2, 1])
    assert stratum(v).label == "D"
    diffs = [v.params[0] - v.params[1], v.params[2] - v.params[1], v.params[0] - v.params[2]]
    assert all(decide_coset(d, 0, 1) is TriBool.YES for d in diffs)
    p = eq(Family.PIII, [4, 2])
    assert stratum(p).label == "D1"
    assert decide_coset(p.params[0] - p.params[1], 0, 2) is TriBool.YES  # W1 condition


# -- degree table ------------------------------------------------------------------

DEGREE_FIXTURES = [
    (Family.PII, [H], 2),
    (Family.PII, [T1], 1),
    (Family.PIII, [0, 0], 3),
    (Family.PIII, [2, 1], 1),
    (Family.PIV, [0, 0, 0], 3),
    (Family.PIV, [H, -H, 0], 2),
    (Family.PV, [0, 0, 0, 0], 4),
    (Family.PVI, [0, 0, 0, 0], 5),
    (Family.PVI, [Fraction(1, 3), 0, 0, 0], 3),
    (Family.PVI, [H, 0, Fraction(1, 4), Fraction(1, 4)], 4),
    (Family.PI, [], 1),
]


@pytest.mark.parametrize("family,params,degree", DEGREE_FIXTURES)
def test_degree_fixture_table(family, params, degree):
    assert classify(eq(family, params)).degree == degree


def test_pvi_l_stratum_carries_ambiguity_note():
    report = classify(eq(Family.PVI, [Fraction(1, 3), 0, 0, 0]))
    assert PVI_LDEG_AMBIGUITY in report.notes


def test_rank_always_one():
    rng = random.Random(1)
    for _ in range(30):
        fam = rng.choice(list(Family))
        params = _random_params(fam, rng)
        assert classify(eq(fam, params)).rank == 1


def test_strongly_minimal_iff_degree_one():
    for family, params, degree in DEGREE_FIXTURES:
        report = classify(eq(family, params))
        expected = TriBool.YES if degree == 1 else TriBool.NO
        assert report.strongly_minimal is expected
        if degree == 1:
            assert [c.label for c in report.components] == ["generic"]


def test_component_degrees_sum_to_total():
    for family, params, degree in DEGREE_FIXTURES:
        report = classify(eq(family, params))
        assert len(report.components) == degree
        assert report.components[0].order == 2
        assert all(c.order == 1 for c in report.components[1:])


def test_pii_half_integer_components():
    report = classify(eq(Family.PII, [H]))
    assert [c.label for c in report.components] == ["generic", "riccati R(alpha)"]


def test_unknown_stratum_propagates_to_degree():
    report = classify(eq(Family.PII, [A1 + A2]))
    assert report.stratum.label is None
    assert report.degree is None
    assert report.strongly_minimal is TriBool.UNKNOWN
    assert report.components == ()


# -- algebraic solutions --------------------------------------------------------------

def p3_count(v1, v2):
    return algebraic_solution_count_P3(scale((PV(0) + v1, PV(0) + v2)))


def test_p3_count_fixtures():
    assert p3_count(1, 0) == 4
    assert p3_count(0, 0) == 0
    assert p3_count(T1, T2) == 0


def test_p3_count_parity_details():
    # v = (0,1): v2-v1-1 = 0 in 2Z, v2+v1+1 = 2 in 2Z -> 4
    assert p3_count(0, 1) == 4
    # v = (0,2): v2-v1-1 = 1 odd, v2+v1+1 = 3 odd -> 0
    assert p3_count(0, 2) == 0
    # v = (1/2, 3/2): v2-v1-1 = 0 in 2Z; v2+v1+1 = 3 odd -> 2
    assert p3_count(H, Fraction(3, 2)) == 2
    # undecided congruence -> None
    assert p3_count(A1 + A2, 0) is None


def test_algebraic_solution_fixtures():
    assert classify(eq(Family.PII, [3])).algebraic_solutions == 1
    assert classify(eq(Family.PII, [T1])).algebraic_solutions == 0
    assert classify(eq(Family.PIII, [1, 0])).algebraic_solutions == 4
    assert classify(eq(Family.PIII, [0, 0])).algebraic_solutions == 0
    assert classify(eq(Family.PIII, [T1, T2])).algebraic_solutions == 0
    assert classify(eq(Family.PV, [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), -1])).algebraic_solutions == 1
    assert classify(eq(Family.PV, [0, 0, 0, 0])).algebraic_solutions == 2
    assert classify(eq(Family.PIV, [0, 0, 0])).algebraic_solutions is None
    assert classify(eq(Family.PVI, [0, 0, 0, 0])).algebraic_solutions is None
    assert classify(eq(Family.PV, [T1, T2, T3, -T1 - T2 - T3])).algebraic_solutions is None


# -- geometric triviality ---------------------------------------------------------------

def test_geometric_triviality():
    assert classify(eq(Family.PII, [H])).geometrically_trivial is TriBool.YES
    assert classify(eq(Family.PII, [3])).geometrically_trivial is TriBool.YES
    assert classify(eq(Family.PIII, [T1, T2])).geometrically_trivial is TriBool.YES
    assert classify(eq(Family.PIII, [0, 0])).geometrically_trivial is TriBool.UNKNOWN
    assert classify(eq(Family.PIV, [T1, T2, -T1 - T2])).geometrically_trivial is TriBool.YES
    assert classify(eq(Family.PVI, [T1, T2, T3, T4])).geometrically_trivial is TriBool.YES
    report = classify(eq(Family.PVI, [0, 0, 0, 0]))
    assert report.geometrically_trivial is TriBool.UNKNOWN
    assert any("Manin" in note for note in report.notes)
    assert classify(eq(Family.PI, [])).geometrically_trivial is TriBool.YES


# -- citations --------------------------------------------------------------------------

def test_every_report_carries_citations():
    for family, params, _ in DEGREE_FIXTURES:
        report = classify(eq(family, params))
        keys = {c.key for c in report.citations}
        assert "rank_one" in keys
        assert len(report.citations) == len(keys)


def test_degree_citation_quotes():
    report = classify(eq(Family.PII, [H]))
    assert any("Morley rank one and Morley degree two" in c.quote for c in report.citations)
    report = classify(eq(Family.PV, [0, 0, 0, 0]))
    assert any("Morley degree four" in c.quote for c in report.citations)
    assert any("has two algebraic solutions" in c.quote for c in report.citations)
    report = classify(eq(Family.PVI, [0, 0, 0, 0]))
    assert any("Morley degree five" in c.quote for c in report.citations)


def test_every_registry_entry_is_cited():
    # A key is cited when it is a string literal somewhere in the package
    # outside the registry's own entries.
    literals = set()
    for path in (Path(__file__).parent.parent / "src" / "painleve").glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) == "CITATIONS":
                continue
            literals.update(
                n.value for n in ast.walk(stmt) if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
    assert sorted(set(CITATIONS) - literals) == []


# -- PVI rank cross-check and invariance ---------------------------------------------------

def _random_params(family, rng, atoms=True):
    arity = {Family.PI: 0, Family.PII: 1, Family.PIII: 2, Family.PIV: 3, Family.PV: 4, Family.PVI: 4}[family]
    vals = []
    for i in range(arity):
        x = PV(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4])))
        if atoms and rng.random() < 0.5:
            x = x + PV.of_atom(tau(i + 1), rng.choice([1, 2]))
        vals.append(x)
    if family in (Family.PIV, Family.PV):
        total = PV(0)
        for x in vals[:-1]:
            total = total + x
        vals[-1] = -total
    return vals


def test_pvi_rank_matches_bruteforce_independent_subsets():
    rng = random.Random(21)
    roots = [r for r in itertools.product((-1, 0, 1), repeat=4) if sum(map(abs, r)) == 2]
    assert len(roots) == 24
    for _ in range(20):
        params = _random_params(Family.PVI, rng)
        integral = [
            r for r in roots
            if decide_coset(sum((x * a for x, a in zip(params, r)), PV(0)), 0, 1) is TriBool.YES
        ]
        s = stratum(eq(Family.PVI, params))
        # brute force: largest linearly independent subset of size <= 4
        best = 0
        for size in range(1, 5):
            if best == 4:
                break
            for subset in itertools.combinations(integral, size):
                if rational_rank(subset) == size:
                    best = size
                    break
        label = {0: "generic", 1: "M", 2: "P", 3: "L", 4: "D"}[best]
        assert s.label == label


def test_degree_invariant_under_generator_words():
    from painleve import weyl

    rng = random.Random(8)
    for _ in range(40):
        family = rng.choice([Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI])
        params = _random_params(family, rng)
        names = family_space(family).orbit_generators
        word = tuple(rng.choice(names) for _ in range(rng.randint(0, 12)))
        image = weyl.apply_word(family, word, params)
        before = classify(eq(family, params))
        after = classify(eq(family, list(image)))
        assert before.degree == after.degree
        assert before.algebraic_solutions == after.algebraic_solutions
    # tau and alg atoms, with coordinates tied through shared atom parts so
    # that the non-generic strata are reached.  The special-after-
    # transformation flag and the notes depend on the representative.
    labels = set()
    for _ in range(200):
        family = rng.choice([Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI])
        params = _tied_params(family, rng)
        names = family_space(family).orbit_generators
        word = tuple(rng.choice(names) for _ in range(rng.randint(0, 12)))
        image = weyl.apply_word(family, word, params)
        before = classify(eq(family, params))
        after = classify(eq(family, list(image)))
        assert _invariant_fields(before) == _invariant_fields(after), (family, params, word)
        labels.add((family, before.stratum.label))
    assert {label for family, label in labels if family is Family.PVI} >= {"M", "P", "L"}
    assert {family for family, label in labels if label not in ("generic", None)} >= {
        Family.PIII, Family.PIV, Family.PV, Family.PVI,
    }


def _tied_params(family, rng):
    """Rationals of small denominator plus atom parts shared up to sign."""
    arity = {Family.PII: 1, Family.PIII: 2, Family.PIV: 3, Family.PV: 4, Family.PVI: 4}[family]
    pool = [T1, T2, A1, A2, A1 + A2, T1 - A1]
    shared = rng.choice([PV(0)] + pool)
    vals = []
    for _ in range(arity):
        part = rng.choice([shared, shared, -shared, rng.choice(pool)])
        vals.append(part + Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 4])))
    if family in (Family.PIV, Family.PV):
        vals[-1] = -sum(vals[:-1], PV(0))
    return vals


def _invariant_fields(report):
    return (
        report.stratum.label,
        report.degree,
        report.strongly_minimal,
        report.algebraic_solutions,
        report.geometrically_trivial,
        report.stratum.half_integer_special,
    )


# -- the walk over FamilySpec.strata against the per-family chains ------------------------

def test_strata_tests_name_every_non_generic_row():
    for family in Family:
        labels = [row.label for row in family_space(family).strata]
        assert labels[-1] == "generic"
        _, rows, strata = classify_module._STRATA_TESTS[family]
        assert all(len(coeffs) == family_space(family).arity for coeffs, _, _ in rows)
        assert list(strata([TriBool.YES] * len(rows))) == labels[:-1]


@st.composite
def tied_equations(draw):
    """Parameters of any family with tau/alg atoms, some coordinates tied to
    others, or to their negatives, by small rational shifts.  Sum-zero
    families subtract the mean, which keeps every difference."""
    family = draw(st.sampled_from(list(Family)))
    spec = family_space(family)
    parts = [PV(0), PV(0), T1, T2, A1, A2, A1 + A2, T1 - A1, A1 - 2 * A2 + PV.of_atom(alg(3))]

    def value():
        const = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 1, 2, 3, 4])))
        return draw(st.sampled_from(parts)) + const

    v = [value() for _ in range(spec.arity)]
    for _ in range(draw(st.integers(0, 2 * spec.arity))):
        i, j = draw(st.integers(0, spec.arity - 1)), draw(st.integers(0, spec.arity - 1))
        shift = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 1, 2])))
        v[j] = v[i] * draw(st.sampled_from([1, -1])) + shift
    if spec.sum_zero:
        mean = sum(v, PV(0)) / spec.arity
        v = [x - mean for x in v]
    return eq(family, v)


@given(tied_equations())
@settings(max_examples=400, deadline=None)
def test_classify_matches_per_family_chains(equation):
    assert stratum(equation) == chain_stratum(equation)
    assert classify(equation) == chain_classify(equation)


@st.composite
def coset_fibers(draw):
    """Fibers of the second to sixth families with tau/alg atoms whose
    rationals lie on, or a small step off, the cosets the strata test:
    integers of both parities, half-integers, and coordinates tied to others
    up to sign by such shifts.  Sixth-family fibers take the M-special shape
    (v_b = e*v_a + 1/2, v_d = e*v_c up to integers) half the time."""
    family = draw(st.sampled_from([Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI]))
    spec = family_space(family)
    parts = [PV(0), PV(0), T1, T2, A1, A2, A1 + A2, T1 - A1, A1 - 2 * A2]

    def near():
        step = draw(st.sampled_from([0, 0, 0, Fraction(1, 4), Fraction(-1, 3), Fraction(1, 12)]))
        return draw(st.sampled_from([0, H])) + draw(st.integers(-3, 3)) + step

    def sign():
        return draw(st.sampled_from([1, -1]))

    v = [draw(st.sampled_from(parts)) + near() for _ in range(spec.arity)]
    for _ in range(draw(st.integers(0, spec.arity))):
        i, j = draw(st.integers(0, spec.arity - 1)), draw(st.integers(0, spec.arity - 1))
        v[j] = v[i] * sign() + near()
    if family is Family.PVI and draw(st.booleans()):
        a, b, c, d = draw(st.permutations(range(4)))
        e = sign()
        v[b] = v[a] * e + H + draw(st.integers(-3, 3))
        v[d] = v[c] * e + draw(st.integers(-3, 3))
    if spec.sum_zero:
        mean = sum(v, PV(0)) / spec.arity
        v = [x - mean for x in v]
    return eq(family, v)


@given(coset_fibers())
@settings(max_examples=500, deadline=None)
def test_integer_strata_match_coset_oracles(equation):
    s = stratum(equation)
    assert s == coset_strata(equation) == chain_stratum(equation)
    assert classify(equation) == coset_classify(equation) == chain_classify(equation)
    if s.label == "M":
        assert (s.half_integer_special, s.special_after_transformation) == pvi_image_scan_special(equation.params)


def test_tied_fibers_match_coset_oracle():
    # Fibers whose coordinates are tied by rational shifts and signs, with
    # and without algebraic atoms, against the strata and counts decided on
    # ParamValue differences.
    rng = random.Random(24)
    labels = set()
    for _ in range(400):
        family = rng.choice([Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI])
        equation = eq(family, _tied_params(family, rng))
        report = classify(equation)
        assert report == coset_classify(equation), equation
        labels.add((family, report.stratum.label))
    assert len(labels) >= 12
    two_alg = eq(Family.PIII, [A1 + A2, 0])
    assert classify(two_alg) == coset_classify(two_alg)
    assert stratum(two_alg).label is None


def test_pvi_pairings_match_root_scan_rank():
    rng = random.Random(34)
    for _ in range(300):
        v = _tied_params(Family.PVI, rng)
        yes, unknown = pvi_root_scan(v)
        form = scale(eq(Family.PVI, v).params, 2)
        tests = classify_module._pvi_strata([coset(form, *row) for row in classify_module._STRATA_TESTS[Family.PVI][1]])
        rank_yes, rank_all = rational_rank(yes), rational_rank(yes + unknown)
        for label, least in [("D", 4), ("L", 3), ("P", 2), ("M", 1)]:
            expected = (
                TriBool.YES if rank_yes >= least else TriBool.UNKNOWN if rank_all >= least else TriBool.NO
            )
            assert tests[label] is expected, (v, label)
