import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from painleve.catalog import (
    EquationId,
    Family,
    InvalidEquationError,
    UnknownFamilyError,
    UnsupportedFamilyError,
    family_space,
    PIV_SCALAR_NOTE,
)
from painleve.diffpoly import DiffExpr, T_VAR, jet, sym
from painleve.exactnum import ParamValue, alg, tau
from painleve.odes import PI_FORM_NOTE, ode_system, riccati_rules

from oracles import exact_value, fraction_sum_zero_error, loop_family_from_name, of_atom, residual_exprs


def test_family_names():
    assert Family.from_name("II") is Family.PII
    assert Family.from_name("vi") is Family.PVI
    assert Family.from_name("PIV") is Family.PIV
    with pytest.raises(UnknownFamilyError):
        Family.from_name("VII")


def _named(call, text):
    try:
        return call(text)
    except UnknownFamilyError as error:
        return str(error)


@given(st.one_of(
    st.sampled_from([f.value for f in Family] + [f.name for f in Family]).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(["", " ", "\t", "\n "]), st.booleans())
    ).map(lambda t: t[1] + (t[0].lower() if t[2] else t[0]) + t[1]),
    st.text(alphabet="PpIiVvXı \t", max_size=6),
))
def test_from_name_matches_member_loop(text):
    # Every spelling, in any case and with surrounding whitespace, names the
    # same family as the loop did, or fails with the same message.
    assert _named(Family.from_name, text) == _named(loop_family_from_name, text)


def test_family_space_shapes():
    assert family_space(Family.PI).arity == 0
    assert family_space(Family.PII).arity == 1
    assert (family_space(Family.PIV).arity, family_space(Family.PIV).sum_zero) == (3, True)
    assert (family_space(Family.PV).arity, family_space(Family.PV).sum_zero) == (4, True)
    assert (family_space(Family.PVI).arity, family_space(Family.PVI).sum_zero) == (4, False)
    assert family_space(Family.PIV).dimension == 2
    assert family_space(Family.PV).dimension == 3


def test_equation_id_validation():
    EquationId(Family.PIV, [1, 1, -2])
    with pytest.raises(InvalidEquationError):
        EquationId(Family.PIV, [1, 1, 1])
    with pytest.raises(InvalidEquationError):
        EquationId(Family.PV, [1, 0, 0, 0])
    with pytest.raises(InvalidEquationError):
        EquationId(Family.PII, [1, 2])
    t1 = of_atom(tau(1))
    EquationId(Family.PIV, [t1, -t1, 0])  # symbolic cancellation is exact


def test_sum_zero_check_matches_parameter_sum():
    # Accepted exactly when the ParamValue sum is zero; the message prints it.
    rng = random.Random(1903)
    atoms = [of_atom(a) for a in (tau(1), tau(2), alg(1))]
    outcomes = set()
    for _ in range(600):
        family = rng.choice([Family.PIV, Family.PV])
        params = [
            ParamValue(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) + rng.choice(atoms) * rng.randint(-1, 1)
            for _ in range(family_space(family).arity)
        ]
        total = sum(params[:-1], ParamValue(0))
        if rng.random() < 0.5:  # close the vector, then maybe break it in the atoms or the constant
            params[-1] = -total + rng.choice([0, 0, Fraction(1, 3), atoms[0], atoms[2] - atoms[1]])
        total = sum(params, ParamValue(0))
        try:
            EquationId(family, params)
        except InvalidEquationError as err:
            assert total != 0 and str(err).endswith(f"(got {total})")
            outcomes.add("rejected, atoms" if total.terms else "rejected, constant")
        else:
            assert total == 0
            outcomes.add("accepted")
    assert outcomes == {"accepted", "rejected, atoms", "rejected, constant"}


_HUGE = st.builds(operator.mul, st.sampled_from([1, -1]), st.integers(min_value=10**199, max_value=10**200 - 1))
_BIG = st.builds(
    Fraction,
    st.one_of(st.integers(min_value=-9, max_value=9), _HUGE),
    st.one_of(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=10**12)),
)
_VALUES = st.builds(
    ParamValue, _BIG, st.dictionaries(st.sampled_from([tau(1), tau(2), alg(1)]), _BIG, max_size=2)
)


@given(st.sampled_from([Family.PIV, Family.PV]), st.data())
@settings(max_examples=300, deadline=None)
def test_integer_sum_zero_test_matches_fraction_sums(family, data):
    params = data.draw(st.lists(_VALUES, min_size=family_space(family).arity, max_size=family_space(family).arity))
    if data.draw(st.booleans()):  # close the vector, then maybe break it
        nudge = data.draw(st.sampled_from([0, 0, Fraction(1, 10**12), of_atom(tau(2))]))
        params[-1] = -sum(params[:-1], ParamValue(0)) + nudge
    expected = fraction_sum_zero_error(family, params)
    try:
        EquationId(family, params)
    except InvalidEquationError as err:
        assert str(err) == expected
    else:
        assert expected is None


# -- right-hand sides against independent transcriptions ------------------------

T = T_VAR
Y0, Y1 = jet("y", 0), jet("y", 1)
Q0, P0 = jet("q", 0), jet("p", 0)
QQ, PP = jet("Q", 0), jet("P", 0)


def rand_point(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


HAND_RHS = {
    (Family.PI, "scalar"): [lambda t, y, v: 6 * y**2 + t],
    (Family.PII, "scalar"): [lambda t, y, v: 2 * y**3 + t * y + v["alpha"]],
    (Family.PIII, "system"): [
        lambda t, q, p, v: (2 * q**2 * p - q**2 - v["v1"] * q + t) / t,
        lambda t, q, p, v: (-2 * q * p**2 + 2 * q * p - v["v1"] * p + Fraction(1, 2) * (v["v1"] + v["v2"])) / t,
    ],
    (Family.PIV, "system"): [
        lambda t, q, p, v: 2 * p * q - q**2 - 2 * t * q + 2 * (v["v1"] - v["v2"]),
        lambda t, q, p, v: 2 * p * q - p**2 + 2 * t * p + 2 * (v["v1"] - v["v3"]),
    ],
    (Family.PV, "system"): [
        lambda t, q, p, v: (
            2 * q**2 * p - 2 * q * p + t * q**2 - t * q
            + (v["v1"] - v["v2"] - v["v3"] + v["v4"]) * q + v["v2"] - v["v1"]
        ) / t,
        lambda t, q, p, v: (
            -2 * q * p**2 + p**2 - 2 * t * p * q + t * p
            - (v["v1"] - v["v2"] - v["v3"] + v["v4"]) * p + (v["v3"] - v["v1"]) * t
        ) / t,
    ],
    (Family.PV, "QP"): [
        lambda t, q, p, v: (
            2 * q * (q - 1) ** 2 * p + (3 * v["v1"] + v["v2"]) * q**2
            - (t + 4 * v["v1"]) * q + v["v1"] - v["v2"]
        ) / t,
        lambda t, q, p, v: (
            (-3 * q**2 + 4 * q - 1) * p**2 - 2 * (3 * v["v1"] + v["v2"]) * q * p
            + (t + 4 * v["v1"]) * p - (v["v3"] - v["v1"]) * (v["v4"] - v["v1"])
        ) / t,
    ],
}


@pytest.mark.parametrize("key", sorted(HAND_RHS, key=str))
def test_rhs_matches_hand_transcription(key):
    family, form = key
    system = ode_system(family, form)
    rng = random.Random(str(key))
    for _ in range(8):
        t = rand_point(rng) or Fraction(1)
        params = {name: rand_point(rng) for name in system.param_names}
        point = {T: t, **{sym(k): val for k, val in params.items()}}
        if system.order == 2:
            y = rand_point(rng)
            point[Y0] = y
            point[Y1] = rand_point(rng)
            expected = HAND_RHS[key][0](t, y, params)
            assert exact_value(system.rhs[0], point) == expected
        else:
            q, p = rand_point(rng), rand_point(rng)
            point[jet(system.state_vars[0], 0)] = q
            point[jet(system.state_vars[1], 0)] = p
            for expr, hand in zip(system.rhs, HAND_RHS[key]):
                assert exact_value(expr, point) == hand(t, q, p, params)


def test_piv_scalar_uses_4ty2_reading():
    system = ode_system(Family.PIV, "scalar")
    assert PIV_SCALAR_NOTE in system.notes
    rng = random.Random(5)
    for _ in range(6):
        t, y, y1 = rand_point(rng), rand_point(rng) or Fraction(1), rand_point(rng)
        a, b = rand_point(rng), rand_point(rng)
        point = {T: t, Y0: y, Y1: y1, sym("alpha"): a, sym("beta"): b}
        expected = (
            y1**2 / (2 * y) + Fraction(3, 2) * y**3 + 4 * t * y**2 + 2 * (t**2 - a) * y + b / y
        )
        assert exact_value(system.rhs[0], point) == expected


def test_pi_note_flags_literature_form():
    assert PI_FORM_NOTE in ode_system(Family.PI).notes


def test_pvi_has_no_ode():
    with pytest.raises(UnsupportedFamilyError):
        ode_system(Family.PVI)


def test_singular_loci():
    assert ode_system(Family.PIII).singular_t == (Fraction(0),)
    assert ode_system(Family.PV).singular_t == (Fraction(0),)
    assert ode_system(Family.PV, "QP").singular_t == (Fraction(0),)
    assert ode_system(Family.PIV).singular_t == ()


def riccati_relation(sign: int) -> DiffExpr:
    """The order-one relation y' - sign*(y^2 + t/2) inside the second family."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    y = DiffExpr.var(Y0)
    return DiffExpr.var(Y1) - sign * (y.power(2) + Fraction(1, 2) * DiffExpr.t())


def test_pii_residual():
    resid = residual_exprs(ode_system(Family.PII))[0]
    point = {T: Fraction(2), Y0: Fraction(3), Y1: Fraction(0), jet("y", 2): Fraction(61), sym("alpha"): Fraction(1)}
    # y'' - 2y^3 - t y - alpha at y'' = 61, y = 3, t = 2, alpha = 1: 61 - 54 - 6 - 1 = 0
    assert exact_value(resid, point) == 0


def test_riccati_relation_signs():
    plus = riccati_relation(1)
    minus = riccati_relation(-1)
    y = DiffExpr.var(Y0)
    yp = DiffExpr.var(Y1)
    assert plus.equals(yp - y * y - Fraction(1, 2) * DiffExpr.t())
    assert minus.equals(yp + y * y + Fraction(1, 2) * DiffExpr.t())
    with pytest.raises(ValueError):
        riccati_relation(2)


def test_riccati_prolongation_has_order_two():
    prolonged = riccati_relation(1).total_derivative()
    assert jet("y", 2) in prolonged.variables()


def test_riccati_rules_kill_relation():
    from painleve.diffpoly import RelationSet, reduce as dp_reduce

    for sign in (1, -1):
        rels = RelationSet(riccati_rules(sign))
        assert dp_reduce(riccati_relation(sign), rels).is_zero


def test_rhs_variable_discipline():
    # Right-hand sides reference only t, the declared states, and parameters.
    for family in (Family.PI, Family.PII, Family.PIII, Family.PIV, Family.PV):
        for form in ("scalar", "system"):
            try:
                system = ode_system(family, form)
            except UnsupportedFamilyError:
                continue
            allowed = {T}
            allowed.update(sym(name) for name in system.param_names)
            for name in system.state_vars:
                for order in range(system.order):
                    allowed.add(jet(name, order))
            for expr in system.rhs:
                assert set(expr.variables()) <= allowed, (family, form)


def test_relations_roundtrip_for_all_systems():
    from painleve.diffpoly import reduce as dp_reduce

    for family in (Family.PI, Family.PII, Family.PIII, Family.PIV, Family.PV):
        system = ode_system(family)
        rels = system.relations()
        for resid in residual_exprs(system):
            assert dp_reduce(resid, rels).is_zero
