import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from painleve import catalog, diffpoly, odes
from painleve.citations import RICCATI_SIGN_NOTE
from painleve.diffpoly import (
    MAX_EXPONENT,
    DiffExpr,
    ExponentOverflowError,
    Poly,
    RedrawBudgetError,
    RelationSet,
    T_VAR,
    jet,
    pv_change_of_variables_exprs,
    pv_random_point_check,
    reduce,
    relations_for_system,
    sym,
    verify_group_relation,
    verify_pv_change_of_variables,
    verify_riccati,
)

from oracles import (
    FractionPoly, TuplePoly, affine_verify_group_relation, evaluating_pv_random_point_check, exact_value,
    residual_exprs,
)

Y0, Y1, Y2 = jet("y", 0), jet("y", 1), jet("y", 2)
T = DiffExpr.t()
Y = DiffExpr.var(Y0)
YP = DiffExpr.var(Y1)


# -- expression strategies -----------------------------------------------------

coeffs = st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=4))
base_vars = st.sampled_from([T_VAR, Y0, Y1, sym("v1"), jet("q", 0)])


@st.composite
def polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    out = Poly.const(draw(coeffs))
    for _ in range(n_terms):
        term = Poly.const(draw(coeffs))
        for v in draw(st.lists(base_vars, max_size=3)):
            term = term * Poly.var(v)
        out = out + term
    return out


@st.composite
def exprs(draw):
    num = draw(polys())
    den = draw(polys())
    if den.is_zero:
        den = Poly.const(1)
    return DiffExpr(num, den)


# -- total derivative -----------------------------------------------------------


def test_derivative_examples():
    assert (Y * Y).total_derivative().equals(2 * Y * YP)
    assert (T * DiffExpr.var(jet("q", 0))).total_derivative().equals(
        DiffExpr.var(jet("q", 0)) + T * DiffExpr.var(jet("q", 1))
    )
    assert DiffExpr.var(sym("v1")).total_derivative().is_zero
    assert T.total_derivative().equals(1)
    assert DiffExpr.var(Y1).total_derivative().equals(DiffExpr.var(Y2))


@given(exprs(), exprs())
@settings(max_examples=60, deadline=None)
def test_derivation_leibniz_and_additivity(f, g):
    assert (f * g).total_derivative().equals(f.total_derivative() * g + f * g.total_derivative())
    assert (f + g).total_derivative().equals(f.total_derivative() + g.total_derivative())


# -- polynomial arithmetic sanity --------------------------------------------------


@given(exprs(), exprs(), exprs())
@settings(max_examples=40, deadline=None)
def test_field_laws_by_cross_multiplication(a, b, c):
    assert (a + b).equals(b + a)
    assert ((a + b) + c).equals(a + (b + c))
    assert (a * (b + c)).equals(a * b + a * c)
    assert (a - a).is_zero


# -- the kernel against the Fraction-coefficient oracle ---------------------------------

# Ints, Fractions that may be integral (Fraction(4, 2) is one) and zeros.
raw_coeffs = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=4)),
    st.sampled_from([Fraction(4, 2), Fraction(0), Fraction(-3, 3)]),
)


@st.composite
def raw_polys(draw):
    """(vars, terms) as a caller may pass them: unsorted, with unused
    variables and zero coefficients; no variables gives a constant."""
    vars = draw(st.lists(base_vars, unique=True, max_size=3))
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * len(vars))
    return vars, draw(st.dictionaries(exps, raw_coeffs, max_size=5))


def assert_agrees(p, f, rng):
    assert (p.vars, p.dense_terms()) == (f.vars, f.terms)
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in p.terms.values())
    assert str(p) == str(f)
    assert hash(p) == hash(f)
    if p.is_constant:
        assert type(p.constant_value()) is Fraction
        assert p.constant_value() == f.constant_value()
    for _ in range(3):
        point = {v: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-20, 20), rng.randint(1, 6))))
                 for v in p.vars}
        value = exact_value(DiffExpr(p), point)
        assert type(value) is Fraction and value == f.evaluate(point)


@given(st.lists(raw_polys(), min_size=1, max_size=3), raw_coeffs, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_kernel_agrees_with_fraction_oracle(raws, c, rng):
    polys = [Poly(vars, terms) for vars, terms in raws]
    fracs = [FractionPoly(vars, terms) for vars, terms in raws]
    assert_agrees(Poly.const(c), FractionPoly((), {(): c}), rng)
    assert_agrees(polys[0].scale(c), FractionPoly(fracs[0].vars, {e: x * c for e, x in fracs[0].terms.items()}), rng)
    for p, f in zip(polys, fracs):
        assert_agrees(p, f, rng)
        assert_agrees(-p, FractionPoly(f.vars, {e: -c for e, c in f.terms.items()}), rng)
    product, frac_product = polys[0], fracs[0]
    for p, f in zip(polys[1:], fracs[1:]):
        product, frac_product = product * p, frac_product * f
        assert_agrees(product, frac_product, rng)
    assert_agrees(polys[0] * polys[0], fracs[0] * fracs[0], rng)
    assert_agrees(Poly.sum(polys), FractionPoly.sum(fracs), rng)
    # Sums and products whose terms cancel, down to zero.
    assert_agrees(polys[-1] - polys[-1], FractionPoly((), {}), rng)
    t, frac_t = Poly.var(T_VAR), FractionPoly((T_VAR,), {(1,): 1})
    frac_minus_t = FractionPoly((T_VAR,), {(1,): -1})
    assert_agrees(
        (polys[0] - t) * (polys[0] + t),
        FractionPoly.sum([fracs[0], frac_minus_t]) * FractionPoly.sum([fracs[0], frac_t]),
        rng,
    )


# -- packed keys against the tuple-exponent oracle ----------------------------------------


def assert_same_poly(p, tp):
    assert (p.vars, p.dense_terms()) == (tp.vars, tp.terms)
    assert str(p) == str(tp)
    assert hash(p) == hash(tp)


@st.composite
def tuple_mappings(draw):
    """Images n_v/d_v for a subset of the base variables, as raw polynomials."""
    out = {}
    for v in draw(st.lists(base_vars, unique=True, max_size=3)):
        num, den = draw(raw_polys()), draw(raw_polys())
        if not any(den[1].values()):
            den = ((), {(): 1})
        out[v] = num, den
    return out


@given(st.lists(raw_polys(), min_size=2, max_size=3), tuple_mappings())
@settings(max_examples=150, deadline=None)
def test_packed_kernel_agrees_with_tuple_oracle(raws, mapping):
    polys = [Poly(vars, terms) for vars, terms in raws]
    tuples = [TuplePoly(vars, terms) for vars, terms in raws]
    for p, tp in zip(polys, tuples):
        assert_same_poly(p, tp)
        assert_same_poly(p.total_derivative(), tp.total_derivative())
        assert_same_poly(p.total_derivative().total_derivative(), tp.total_derivative().total_derivative())
    assert_same_poly(polys[0] + polys[1], tuples[0] + tuples[1])
    assert_same_poly(polys[0] - polys[1], tuples[0] - tuples[1])
    assert_same_poly(polys[0] * polys[1], tuples[0] * tuples[1])
    assert_same_poly(Poly.sum(polys) * polys[-1], TuplePoly.sum(tuples) * tuples[-1])
    packed_map = {v: DiffExpr(Poly(*num), Poly(*den)) for v, (num, den) in mapping.items()}
    tuple_map = {v: tuple(TuplePoly(q.vars, q.dense_terms()) for q in (e.num, e.den)) for v, e in packed_map.items()}
    for p, tp in zip(polys, tuples):
        got = p.substitute(packed_map)
        num, den = tp.substitute(tuple_map)
        assert_same_poly(got.num, num)
        assert_same_poly(got.den, den)


def test_printing_follows_the_var_order_not_the_index_order():
    # Two fresh interpreters index the variables in opposite orders, so their
    # packed keys differ; the canonical view, printed and hashed, does not.
    script = (
        "import sys\n"
        "from painleve.diffpoly import DiffExpr, jet, sym, _INDEX, _pv_residuals\n"
        "names = [jet('P', 0), jet('Q', 0), sym('t'), sym('v1'), sym('v2'), sym('v3'), sym('v4')]\n"
        "for v in names[::int(sys.argv[1])]:\n"
        "    DiffExpr.var(v)\n"
        "r = _pv_residuals()\n"
        "print(list(_INDEX)[0]); print(r[0]); print(r[1]); print(hash(r[0].num), hash(r[1].den))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": os.pathsep.join(sys.path)}
    runs = [
        subprocess.run([sys.executable, "-c", script, step], env=env, capture_output=True, text=True, check=True)
        .stdout.splitlines()
        for step in ("1", "-1")
    ]
    assert [run[0] for run in runs] == ["P", "v4"]
    assert runs[0][1:] == runs[1][1:]
    assert runs[0][1:3] == [str(r) for r in diffpoly._pv_residuals()]


def test_exponents_past_the_field_raise():
    y = Poly.var(Y0)
    top = Poly((Y0, T_VAR), {(MAX_EXPONENT, 1): 1})
    assert top.degree_in(Y0) == MAX_EXPONENT
    assert (top * Poly.var(T_VAR)).degree_in(T_VAR) == 2
    with pytest.raises(ExponentOverflowError):
        top * y
    with pytest.raises(ExponentOverflowError):
        Poly((Y0,), {(MAX_EXPONENT + 1,): 1})
    half = Poly((Y0,), {(MAX_EXPONENT // 2 + 1,): 1})
    with pytest.raises(ExponentOverflowError):
        half * half
    # D(y * y'^MAX) has the term y'^(MAX + 1).
    with pytest.raises(ExponentOverflowError):
        Poly((Y0, Y1), {(1, MAX_EXPONENT): 1}).total_derivative()
    assert Poly((Y0, Y1), {(0, MAX_EXPONENT): 1}).total_derivative().degree_in(Y2) == 1


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        DiffExpr(Poly.const(1), Poly.const(0))
    with pytest.raises(ZeroDivisionError):
        DiffExpr.const(1) / (Y - Y)


def test_equality_ignores_common_factors():
    a = (Y * Y - DiffExpr.const(1)) / (Y - DiffExpr.const(1))
    b = Y + DiffExpr.const(1)
    assert a.equals(b)


def test_printing_is_deterministic():
    e = Y * Y * 2 + T * 3 - DiffExpr.const(Fraction(1, 2))
    assert str(e) == str(Y * Y * 2 + T * 3 - DiffExpr.const(Fraction(1, 2)))


# -- reduction ------------------------------------------------------------------------


def riccati_rels(sign=1):
    return RelationSet(odes.riccati_rules(sign))


def test_reduce_second_derivative_under_riccati():
    expected = 2 * Y * (Y * Y + Fraction(1, 2) * T) + Fraction(1, 2)
    assert reduce(DiffExpr.var(Y2), riccati_rels(1)).equals(expected)


def test_reduce_piii_first_equation():
    system = odes.ode_system(catalog.Family.PIII)
    rels = system.relations()
    q, p = DiffExpr.var(jet("q", 0)), DiffExpr.var(jet("p", 0))
    v1 = DiffExpr.var(sym("v1"))
    expected = (2 * q * q * p - q * q - v1 * q + T) / T
    assert reduce(DiffExpr.var(jet("q", 1)), rels).equals(expected)


def test_reduce_relation_residual_to_zero():
    system = odes.ode_system(catalog.Family.PV, "QP")
    rels = system.relations()
    for resid in residual_exprs(system):
        assert reduce(resid, rels).is_zero


def test_reduce_is_idempotent():
    rels = riccati_rels(-1)
    e = DiffExpr.var(jet("y", 3)) * Y + DiffExpr.var(Y2)
    once = reduce(e, rels)
    assert reduce(once, rels).equals(once)
    assert not any(v.is_jet and v.order >= 1 for v in once.variables())


def test_reduce_handles_prolonged_orders():
    rels = riccati_rels(1)
    reduced = reduce(DiffExpr.var(jet("y", 4)), rels)
    assert reduced.variables() == (T_VAR, Y0)


def test_reduce_detects_vanishing_denominator():
    q1 = DiffExpr.var(jet("q", 1))
    q = DiffExpr.var(jet("q", 0))
    rels = RelationSet({jet("q", 1): DiffExpr.const(0)})
    with pytest.raises(ZeroDivisionError):
        reduce(q / q1, rels)
    assert reduce(q1 / q, rels).is_zero


def test_relations_require_derivatives():
    with pytest.raises(ValueError):
        RelationSet({Y0: Y})
    with pytest.raises(ValueError):
        relations_for_system(["y"], 2, [Y, Y])


# -- zero test vs random evaluation (sanity oracle) -------------------------------------


@given(exprs())
@settings(max_examples=25, deadline=None)
def test_zero_test_agrees_with_random_evaluation(e):
    rng = random.Random(99)
    vars_needed = e.variables()
    hits = 0
    agree_zero = e.is_zero
    for _ in range(25):
        point = {v: Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for v in vars_needed}
        try:
            value = exact_value(e, point)
        except ZeroDivisionError:
            continue
        hits += 1
        if value != 0:
            assert not agree_zero
            return
    if hits >= 5:
        # Never nonzero across many points: for these small degrees the
        # Schwartz-Zippel failure chance is negligible.
        assert agree_zero or e.num.is_zero or hits < 5


def evaluate_term_by_term(p, point):
    """The exact value of a polynomial by one Fraction power per factor of
    every term, against the power tables of ``TuplePoly.evaluate``."""
    total = Fraction(0)
    for exps, c in p.dense_terms().items():
        value = Fraction(c)
        for i, e in enumerate(exps):
            if e:
                value *= Fraction(point[p.vars[i]]) ** e
        total += value
    return total


@given(polys(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_evaluate_agrees_with_term_by_term_evaluation(p, rng):
    for _ in range(5):
        point = {v: Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for v in p.vars}
        assert exact_value(DiffExpr(p), point) == evaluate_term_by_term(p, point)


def test_evaluate_agrees_on_chart_change_residuals():
    rng = random.Random(5)
    for r in diffpoly._pv_residuals():
        for p in (r.num, r.den):
            for _ in range(10):
                point = {v: Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for v in p.vars}
                assert exact_value(DiffExpr(p), point) == evaluate_term_by_term(p, point)


def cross_add(a, b):
    """a + b by cross-multiplication, whatever the denominators."""
    return DiffExpr(a.num * b.den + b.num * a.den, a.den * b.den)


def substitute_term_by_term(p, mapping):
    """Poly.substitute as it was before the common denominator: each
    substituted term is cross-multiplied into the running sum."""
    relevant = {v: ex for v, ex in mapping.items() if v in p.vars}
    if not relevant:
        return DiffExpr(p, Poly.const(1))
    out = DiffExpr.const(0)
    for exps, c in p.dense_terms().items():
        term = DiffExpr.const(c)
        for i, e in enumerate(exps):
            if e == 0:
                continue
            v = p.vars[i]
            base = relevant.get(v)
            factor = base.power(e) if base is not None else DiffExpr(Poly((v,), {(e,): Fraction(1)}), Poly.const(1))
            term = term * factor
        out = cross_add(out, term)
    return out


def expr_substitute_term_by_term(e, mapping):
    num = substitute_term_by_term(e.num, mapping)
    den = substitute_term_by_term(e.den, mapping)
    if den.num.is_zero:
        raise ZeroDivisionError("denominator vanished identically after substitution")
    return DiffExpr(num.num * den.den, num.den * den.num)


@st.composite
def mappings(draw):
    """Images for a subset of the base variables, with non-constant
    denominators allowed; unmapped variables stay as they are."""
    names = draw(st.lists(base_vars, unique=True, max_size=3))
    return {v: draw(exprs()) for v in names}


@given(st.one_of(polys(), st.just(Poly.const(0))), exprs(), mappings())
@settings(max_examples=80, deadline=None)
def test_substitute_agrees_with_term_by_term_substitution(p, e, mapping):
    assert p.substitute(mapping).equals(substitute_term_by_term(p, mapping))
    try:
        expected = expr_substitute_term_by_term(e, mapping)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            e.substitute(mapping)
        return
    assert e.substitute(mapping).equals(expected)


def test_substitute_with_mapped_exponent_zero_in_some_terms():
    q0, v1 = jet("q", 0), sym("v1")
    q, v = DiffExpr.var(q0), DiffExpr.var(v1)
    mapping = {q0: (T + 1) / (T - 1), v1: Y / T}
    # q occurs in the denominator only, v1 in the numerator only, and each
    # polynomial has terms without them.
    e = (v * v * Y + T + 3) / (q * q * q + Y)
    expected = expr_substitute_term_by_term(e, mapping)
    assert e.substitute(mapping).equals(expected)
    for p in (e.num, e.den, Poly.const(0), Poly.const(5)):
        assert p.substitute(mapping).equals(substitute_term_by_term(p, mapping))
    with pytest.raises(ZeroDivisionError):
        (T / (q - 1)).substitute({q0: DiffExpr.const(1)})


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_equal_denominator_sum_agrees_with_cross_multiplication(a, b, d):
    if d.is_zero:
        d = Poly.const(1)
    x, y = DiffExpr(a, d), DiffExpr(b, d)
    assert x.den == y.den
    total = x + y
    assert total.equals(cross_add(x, y))
    assert total.den == x.den


def test_chart_change_residual_denominators_stay_small():
    # Summing substituted terms by cross-multiplication gave the q residual
    # the denominator t^2 (Q - 1)^12; over one common denominator it is
    # t (Q - 1)^2.
    for r in diffpoly._pv_residuals():
        assert r.den.degree_in(jet("Q", 0)) <= 4


def test_v4_elimination_detects_off_plane_residuals(monkeypatch):
    v1, v2, v3, v4 = (DiffExpr.var(sym(f"v{i}")) for i in range(1, 5))
    on_plane = {sym("v4"): -(v1 + v2 + v3)}
    residuals = diffpoly._pv_residuals()
    # The residuals vanish on the hyperplane but not off it; the perturbed
    # ones vanish on neither.
    bump = v4.power(3) * DiffExpr.var(jet("Q", 0)) - 3 * v4 * T + v1 * v4
    assert not any(r.is_zero for r in residuals)
    assert all(r.substitute(on_plane).is_zero for r in residuals)
    assert not any((r + bump).substitute(on_plane).is_zero for r in residuals)
    report = verify_pv_change_of_variables()
    assert report.identity_q and report.identity_p
    monkeypatch.setattr(diffpoly, "_pv_residuals", lambda: tuple(r + bump for r in residuals))
    report = verify_pv_change_of_variables()
    assert not report.identity_q and not report.identity_p


def test_pv_change_report_holds_no_expression():
    # The residuals are cached per process and a DiffExpr is assignable, so
    # a report that handed them out would let its caller change what every
    # later query checks; the report holds plain verdicts and texts only.
    report = verify_pv_change_of_variables()
    fields = [x for field in report for x in (field if isinstance(field, tuple) else (field,))]
    assert not any(isinstance(x, (DiffExpr, Poly)) for x in fields)
    assert all(type(x) in (bool, str) for x in fields)


def test_random_point_check_agrees_with_evaluating_oracle():
    v1, v2, v3, v4 = (DiffExpr.var(sym(f"v{i}")) for i in range(1, 5))
    Q, P = DiffExpr.var(jet("Q", 0)), DiffExpr.var(jet("P", 0))
    residuals = diffpoly._pv_residuals()
    bump = v4.power(3) * Q - 3 * v4 * T + v1 * v4
    # Zero exactly where the drawn t is nonnegative, over denominators that
    # vanish on part of the grid (t = 1, Q = 1/2 or P = -v2): the outcome
    # depends on which points are drawn and which are redrawn.
    rare = DiffExpr.const(1)
    for g in {Fraction(n, d) for n in range(13) for d in range(1, 6)}:
        rare = rare * (T - g)
    cases = [
        residuals,
        tuple(r + bump for r in residuals),
        (rare / ((T - 1) * (2 * Q - 1)), DiffExpr.const(0)),
        (rare, DiffExpr.const(0) / (P * Q * (P + v2))),
        (DiffExpr.const(0), rare * v3 / (P + v2)),
    ]
    for case in cases:
        for seed in range(40):
            for points in (1, 3, 25):
                assert pv_random_point_check(points, seed, case) == evaluating_pv_random_point_check(points, seed, case)
    assert pv_random_point_check(25, 0, cases[1]) == (25, False)


def test_random_point_check_bounds_its_redraws():
    # v1 + v2 + v3 + v4 vanishes at every drawn point, which lies on the
    # hyperplane; the unbounded check never returned.
    v = [DiffExpr.var(sym(f"v{i}")) for i in range(1, 5)]
    on_plane = v[0] + v[1] + v[2] + v[3]
    stuck = (DiffExpr.const(1) / on_plane, DiffExpr.const(0))
    for points in (1, 25):
        with pytest.raises(RedrawBudgetError, match=f"{100 * points + 1} points redrawn"):
            pv_random_point_check(points, 0, stuck)
    assert pv_random_point_check(0, 0, stuck) == (0, True)
    with pytest.raises(ValueError, match="outside"):
        pv_random_point_check(3, 0, (DiffExpr.var(sym("alpha")), DiffExpr.const(0)))


# -- verifications ---------------------------------------------------------------------------


def test_verify_riccati_exact_values():
    assert verify_riccati(1) == Fraction(1, 2)
    assert verify_riccati(-1) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        verify_riccati(0)


def test_riccati_residual_at_alpha_zero():
    for sign in (1, -1):
        rels = riccati_rels(sign)
        residual = reduce(DiffExpr.var(Y2) - 2 * Y * Y * Y - T * Y - DiffExpr.const(0), rels)
        assert residual.equals(DiffExpr.const(Fraction(sign, 2)))


def test_riccati_note_mentions_both_signs():
    note = RICCATI_SIGN_NOTE
    assert "-1/2" in note and "+1/2" in note


def test_pv_change_of_variables_substitution_values():
    q_expr, p_expr = pv_change_of_variables_exprs()
    point = {jet("Q", 0): Fraction(2), jet("P", 0): Fraction(1), sym("v1"): Fraction(0), sym("v3"): Fraction(0)}
    assert exact_value(q_expr, point) == 2
    assert exact_value(p_expr, point) == -1


def test_pv_change_of_variables_report():
    report = verify_pv_change_of_variables()
    assert report.identity_q is True
    assert report.identity_p is True
    assert report.excluded_loci == ("t = 0", "Q = 1")
    assert any("v4" in n for n in report.notes)


def test_pv_random_point_secondary_oracle():
    points, all_zero = pv_random_point_check(points=25, seed=3)
    assert points == 25
    assert all_zero is True


def test_verify_group_relation_fixtures():
    for relation in catalog.GROUP_RELATIONS:
        assert verify_group_relation(relation.family, relation.word, relation.expected), relation.name


def _perturbed(expected):
    """``expected`` with its translation moved by 1, its perm transposed, or
    one sign flipped, each at every coordinate."""
    n = len(expected.perm)
    translation, signs = expected.translation or (0,) * n, expected.signs or (1,) * n
    for j in range(n):
        yield expected._replace(translation=tuple(t + (i == j) for i, t in enumerate(translation)))
        yield expected._replace(signs=tuple(-s if i == j else s for i, s in enumerate(signs)))
        perm = list(expected.perm)
        perm[j], perm[j - 1] = perm[j - 1], perm[j]
        yield expected._replace(perm=tuple(perm))


@pytest.mark.parametrize("relation", catalog.GROUP_RELATIONS, ids=lambda r: r.name)
def test_verify_group_relation_detects_a_wrong_map_or_word(relation):
    # The integer composition agrees with the AffineMap oracle on the row,
    # and both reject every perturbed expectation and a shortened word.
    family, word, expected = relation.family, relation.word, relation.expected
    assert verify_group_relation(family, word, expected) is affine_verify_group_relation(family, word, expected) is True
    wrong = list(_perturbed(expected))
    assert len(wrong) == 3 * len(expected.perm)
    for moved in wrong:
        assert verify_group_relation(family, word, moved) is affine_verify_group_relation(family, word, moved) is False
    for cut in (word[:-1], word[1:]):
        assert verify_group_relation(family, cut, expected) is affine_verify_group_relation(family, cut, expected)
    assert not verify_group_relation(family, word[:-1], expected)
