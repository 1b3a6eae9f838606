"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and time budget is pinned here.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from painleve.catalog import EquationId, Family, family_space
from painleve.citations import PVI_LDEG_AMBIGUITY, RICCATI_SIGN_NOTE
from painleve.classify import classify
from painleve.diffpoly import (
    pv_random_point_check,
    verify_pv_change_of_variables,
    verify_riccati,
)
from painleve.exactnum import (
    ParamValue,
    TriBool,
    alg,
    decide_coset,
    parse_param,
    tau,
    transcendence_degree,
)
from painleve.numint import TrajectoryStatus, integrate
from painleve.ortho import Verdict, cross_family_verdict
from painleve.weyl import (
    AffineMap,
    HypothesisStatus,
    apply_word,
    generator_word,
    named_generators,
    orbit_decide,
    word_map,
)

from oracles import integer_solve, of_atom, witness_maps

PV = ParamValue
T1, T2, T3, T4 = (of_atom(tau(i)) for i in (1, 2, 3, 4))
H = Fraction(1, 2)


def _ok(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_degree_fixture_table():
    start = time.perf_counter()
    fixtures = [
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
    ]
    for family, params, expected in fixtures:
        report = classify(EquationId(family, params))
        assert report.degree == expected, (family, params, report.degree)
    pvi_l = classify(EquationId(Family.PVI, [Fraction(1, 3), 0, 0, 0]))
    assert PVI_LDEG_AMBIGUITY in pvi_l.notes
    special = classify(EquationId(Family.PVI, [H, 0, Fraction(1, 4), Fraction(1, 4)]))
    assert special.stratum.label == "M"
    assert special.stratum.half_integer_special is TriBool.YES
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"degree table reproduced exactly on {len(fixtures)} fixtures in {elapsed:.3f}s")


def test_criterion_2_algebraic_solution_fixtures():
    fixtures = [
        (Family.PII, [3], 1),
        (Family.PII, [T1], 0),
        (Family.PIII, [1, 0], 4),
        (Family.PIII, [0, 0], 0),
        (Family.PIII, [T1, T2], 0),
        (Family.PV, [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), -1], 1),  # S2 \ D
        (Family.PV, [0, 0, 0, 0], 2),  # D
        (Family.PIV, [0, 0, 0], None),
        (Family.PVI, [0, 0, 0, 0], None),
    ]
    for family, params, expected in fixtures:
        report = classify(EquationId(family, params))
        assert report.algebraic_solutions == expected, (family, params)
    _ok(2, f"algebraic-solution counts exact on {len(fixtures)} fixtures (None = Unknown)")


def test_criterion_3_group_relation_identities():
    start = time.perf_counter()
    s0 = named_generators(Family.PIV)["s0"]
    assert word_map(Family.PIV, ("tminus", "s1", "s2", "s1", "tminus^-1")) == s0
    assert s0.apply((T1, T2, -T1 - T2)) == (T1, -T1 - T2 + 1, T2 - 1)
    expected = AffineMap.from_permutation(Family.PV, (0, 3, 2, 1), translation=(0, 1, 0, -1))
    assert word_map(Family.PV, ("tminus", "s3", "s1", "s2", "s1", "s3", "tminus^-1")) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    _ok(3, f"both composite identities hold as exact affine-map equalities in {elapsed:.3f}s")


def test_criterion_4_orbit_soundness_fuzz():
    start = time.perf_counter()
    rng = random.Random(2024)
    families = [Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI]

    def random_params(family):
        arity = {Family.PII: 1, Family.PIII: 2, Family.PIV: 3, Family.PV: 4, Family.PVI: 4}[family]
        vals = []
        for i in range(arity):
            x = PV(Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])))
            if rng.random() < 0.5:
                x = x + of_atom(tau(i + 1), rng.choice([1, 2]))
            vals.append(x)
        if family in (Family.PIV, Family.PV):
            total = PV(0)
            for x in vals[:-1]:
                total = total + x
            vals[-1] = -total
        return tuple(vals)

    trials = 1000
    for _ in range(trials):
        family = rng.choice(families)
        v = random_params(family)
        names = family_space(family).orbit_generators
        word = tuple(rng.choice(names) for _ in range(rng.randint(0, 12)))
        w = apply_word(family, word, v)
        verdict = orbit_decide(family, v, w)
        assert verdict.related is TriBool.YES, (family, word)
        assert verdict.witness is not None
        if verdict.witness.has_map:
            assert witness_maps(verdict.witness, v, w), (family, word)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(4, f"{trials} random generator words all recognized with verifying witnesses in {elapsed:.1f}s")


def test_criterion_5_orbit_criterion_fixtures():
    v = orbit_decide(Family.PII, [Fraction(1, 4)], [Fraction(7, 4)])
    assert v.related is TriBool.YES
    v = orbit_decide(Family.PII, [T1], [T2])
    assert v.related is TriBool.NO
    assert v.hypothesis_status is HypothesisStatus.PROVED
    v = orbit_decide(Family.PII, [T1], [T1 + 5])
    assert v.related is TriBool.YES
    v = orbit_decide(Family.PIII, (T1, T2), (T1 + H, T2 + H))
    assert v.related is TriBool.YES
    word = generator_word(Family.PIII, (T1, T2), (T1 + H, T2 + H))
    assert word.word is None
    assert word.reason == "NoWordFound"
    v = orbit_decide(Family.PVI, (T1, T2, T3, T4), (-T2 + 1, -T1 + 1, T3, T4))
    assert v.related is TriBool.YES
    _ok(5, "orbit criterion fixtures exact, including criterion-Yes with NoWordFound recorded")


def test_criterion_6_cross_family_verdict_table():
    generic_iv = EquationId(Family.PIV, [T2, T3, -T2 - T3])
    generic_v = EquationId(Family.PV, [T1, T2, T3, -T1 - T2 - T3])
    generic_vi = EquationId(Family.PVI, [T1, T2, T3, T4])
    generic_iii = EquationId(Family.PIII, [T1, T2])
    pii_t = EquationId(Family.PII, [T1])
    fixtures = [
        (pii_t, generic_iv, Verdict.ORTHOGONAL, "naggy1"),
        (generic_iii, generic_v, Verdict.ORTHOGONAL, "naggy2"),
        (EquationId(Family.PI, []), pii_t, Verdict.ORTHOGONAL, "naggy"),
        (pii_t, generic_v, Verdict.ORTHOGONAL, "naggy"),
        (pii_t, generic_vi, Verdict.ORTHOGONAL, "naggy"),
        (generic_iii, generic_iv, Verdict.ORTHOGONAL, "naggy"),
        (generic_iv, generic_v, Verdict.ORTHOGONAL, "naggy"),
        (generic_v, generic_vi, Verdict.ORTHOGONAL, "naggy"),
        (EquationId(Family.PII, [3]), pii_t, Verdict.ORTHOGONAL, "kernel1"),
        (EquationId(Family.PII, [Fraction(1, 4)]), EquationId(Family.PIII, [H, 0]), Verdict.OPEN, None),
        (EquationId(Family.PIV, [0, 0, 0]), EquationId(Family.PV, [0, 0, 0, 0]), Verdict.OPEN, None),
        (EquationId(Family.PII, [Fraction(1, 4)]), EquationId(Family.PII, [Fraction(1, 3)]), Verdict.OPEN, None),
    ]
    for eq1, eq2, expected, key in fixtures:
        verdict = cross_family_verdict(eq1, eq2)
        assert verdict.verdict is expected, (eq1, eq2, verdict)
        if key is None:
            assert verdict.citation is None
            assert verdict.question is not None
        else:
            assert verdict.citation.key == key, (eq1, eq2, verdict.citation.key)
    _ok(6, f"cross-family verdict table exact on {len(fixtures)} fixture pairs")


def test_criterion_7_symbolic_riccati():
    start = time.perf_counter()
    assert verify_riccati(1) == Fraction(1, 2)
    assert verify_riccati(-1) == Fraction(-1, 2)
    note = RICCATI_SIGN_NOTE
    assert "-1/2" in note and "+1/2" in note
    report = classify(EquationId(Family.PII, [H]))
    assert note in report.notes
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(7, f"riccati matching +1 -> 1/2, -1 -> -1/2 with sign-convention note emitted ({elapsed:.3f}s)")


def test_criterion_8_pv_change_of_variables():
    start = time.perf_counter()
    report = verify_pv_change_of_variables()
    assert report.identity_q is True
    assert report.identity_p is True
    points, all_zero = pv_random_point_check(points=25, seed=11)
    assert points == 25
    assert all_zero is True

    v = [Fraction(1, 10), Fraction(1, 5), Fraction(-1, 20), Fraction(-1, 4)]
    eq = EquationId(Family.PV, v)
    v1, v3 = float(v[0]), float(v[2])

    def mapped(Q, P):
        return (Q / (Q - 1.0), -((Q - 1.0) ** 2) * P + (v3 - v1) * (Q - 1.0))

    Q0, P0 = 0.5, 0.1
    q0, p0 = mapped(Q0, P0)
    tr_QP = integrate(eq, None, [Q0, P0], 1.0, 2.0, 1e-4, form="QP")
    tr_qp = integrate(eq, None, [q0, p0], 1.0, 2.0, 1e-4, form="system")
    assert tr_QP.status is TrajectoryStatus.COMPLETED
    assert tr_qp.status is TrajectoryStatus.COMPLETED
    sup = 0.0
    for (_, sA), (_, sB) in zip(tr_QP.samples, tr_qp.samples):
        qm, pm = mapped(*sA)
        sup = max(sup, abs(qm - sB[0]), abs(pm - sB[1]))
    assert sup <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(8, f"chart change verified symbolically, at 25 random points, and on trajectories (sup {sup:.2e}, {elapsed:.1f}s)")


def test_criterion_9_integrator_order_and_riccati_agreement():
    # y = -1/t solves the second family at alpha = 1.
    errors, steps = [], [1e-2, 5e-3, 2.5e-3]
    for h in steps:
        traj = integrate(EquationId(Family.PII, [1]), None, [-1.0, 1.0], 1.0, 2.0, h)
        errors.append(abs(traj.samples[-1][1][0] + 0.5))
    slope = (math.log(errors[0]) - math.log(errors[-1])) / (math.log(steps[0]) - math.log(steps[-1]))
    assert slope >= 3.7

    # From Riccati data, the fiber at alpha = -1/2 stays on y' + y^2 + t/2 = 0.
    y0 = 0.3
    eq = EquationId(Family.PII, [Fraction(-1, 2)])
    pii = integrate(eq, None, [y0, -(y0**2) - 0.5], 1.0, 2.0, 1e-4)
    sup = max(abs(dy + y * y + t / 2) for t, (y, dy) in pii.samples)
    assert sup <= 1e-6
    _ok(9, f"RK4 slope {slope:.2f} >= 3.7; riccati invariant along the second family sup {sup:.2e} <= 1e-6")


def test_criterion_10_exactnum_property_suite():
    rng = random.Random(424242)
    atoms = [tau(1), tau(2), tau(3), alg(1), alg(2)]

    def rand_value():
        coeffs = {}
        for a in rng.sample(atoms, rng.randint(0, 3)):
            coeffs[a] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return PV(Fraction(rng.randint(-30, 30), rng.randint(1, 8)), coeffs)

    checks = 0
    # canonicalization: a + b - b == a, and printing round-trips
    for _ in range(3500):
        a, b = rand_value(), rand_value()
        assert a + b - b == a
        assert parse_param(str(a)) == a
        checks += 2
    # coset soundness on atom-free values against exact rational arithmetic
    for _ in range(2000):
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        offset = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        modulus = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        expected = TriBool.YES if ((q - offset) / modulus).denominator == 1 else TriBool.NO
        assert decide_coset(PV(q), offset, modulus) is expected
        checks += 1
    # coset stability under cancelling atom noise
    for _ in range(1500):
        v = rand_value()
        a = rng.choice(atoms)
        coeff = Fraction(rng.randint(1, 5))
        noisy = v + of_atom(a, coeff) - of_atom(a, coeff)
        assert decide_coset(noisy, 0, 1) is decide_coset(v, 0, 1)
        checks += 1
    # transcendence degree: permutation-invariant, linear combinations add nothing
    for _ in range(1500):
        values = [rand_value() for _ in range(rng.randint(1, 4))]
        shuffled = values[:]
        rng.shuffle(shuffled)
        td = transcendence_degree(values)
        assert transcendence_degree(shuffled) == td
        combo = PV(0)
        for x in values:
            combo = combo + x * Fraction(rng.randint(-3, 3))
        assert transcendence_degree(values + [combo]) == td
        checks += 2
    assert checks >= 10000

    # integer_solve vs brute force on all solutions within the stated box
    def brute(A, b, radius=20):
        n = len(A[0])
        for cand in itertools.product(range(-radius, radius + 1), repeat=n):
            if all(sum(A[i][j] * cand[j] for j in range(n)) == b[i] for i in range(len(A))):
                return list(cand)
        return None

    solver_checks = 0
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 2)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-8, 8) for _ in range(m)]
        got = integer_solve(A, b)
        found = brute(A, b)
        if got is None:
            assert found is None
        else:
            assert all(sum(A[i][j] * got[j] for j in range(n)) == b[i] for i in range(m))
            if all(abs(x) <= 20 for x in got):
                assert found is not None
        solver_checks += 1
    # constructed solvable instances: a solution must be produced
    for _ in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x_true = [rng.randint(-6, 6) for _ in range(n)]
        b = [sum(A[i][j] * x_true[j] for j in range(n)) for i in range(m)]
        got = integer_solve(A, b)
        assert got is not None
        assert all(sum(A[i][j] * got[j] for j in range(n)) == b[i] for i in range(m))
        solver_checks += 1
    _ok(10, f"{checks} randomized kernel checks and {solver_checks} solver/brute-force comparisons, zero failures")
