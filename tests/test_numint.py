import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import FractionPoly, csv_module_write_csv, indexed_residual_norm, of_atom, tuple_integrate_rhs
from painleve import numint
from painleve.catalog import EquationId, Family, UnsupportedFamilyError
from painleve.exactnum import tau
from painleve.numint import (
    MAX_STEPS,
    MissingAtomError,
    NumericAssignment,
    NumericInputError,
    SingularIntervalError,
    StepBudgetError,
    Trajectory,
    TrajectoryStatus,
    integrate,
    integrate_rhs,
    residual_norm,
    trajectory_json,
    write_csv,
    write_json,
)
from painleve.odes import ode_system

H = Fraction(1, 2)
PI = EquationId(Family.PI, [])
# y = -1/t solves the second family at alpha = 1: y'' = -2/t^3 = 2y^3 + ty + 1.
PII_ONE = EquationId(Family.PII, [1])


def pi_rhs():
    """The first family's compiled right-hand side, (y, y') -> (y', 6y^2 + t)."""
    return numint._companion_rhs(ode_system(Family.PI), {})


def test_rational_solution_oracle():
    traj = integrate(PII_ONE, None, [-1.0, 1.0], 1.0, 2.0, 1e-3)
    assert traj.status is TrajectoryStatus.COMPLETED
    assert abs(traj.samples[-1][1][0] + 0.5) < 1e-8


def test_rk4_convergence_order():
    errors = []
    steps = [1e-2, 5e-3, 2.5e-3]
    for h in steps:
        traj = integrate(PII_ONE, None, [-1.0, 1.0], 1.0, 2.0, h)
        errors.append(abs(traj.samples[-1][1][0] + 0.5))
    slope = (math.log(errors[0]) - math.log(errors[-1])) / (math.log(steps[0]) - math.log(steps[-1]))
    assert slope >= 3.7


def test_determinism_bit_identical():
    eq = EquationId(Family.PII, [H])
    a = integrate(eq, None, [0.2, 0.1], 1.0, 2.0, 1e-3)
    b = integrate(eq, None, [0.2, 0.1], 1.0, 2.0, 1e-3)
    assert a.samples == b.samples


def test_time_grid_is_strictly_monotone():
    traj = integrate(PI, None, [0.0, 0.0], 0.0, 0.5, 1e-2)
    times = [t for t, _ in traj.samples]
    assert all(b > a for a, b in zip(times, times[1:]))


def riccati_drift(traj: Trajectory) -> float:
    """The sup of |y' + y^2 + t/2| along a second-family trajectory."""
    return max(abs(dy + y * y + t / 2) for t, (y, dy) in traj.samples)


def test_riccati_agreement_with_pii():
    # From data on the Riccati locus y' = -(y^2 + t/2), the fiber at
    # alpha = -1/2 keeps the trajectory on it.
    y0 = 0.3
    eq = EquationId(Family.PII, [Fraction(-1, 2)])
    pii = integrate(eq, None, [y0, -(y0**2) - 0.5], 1.0, 2.0, 1e-4)
    assert pii.status is TrajectoryStatus.COMPLETED
    assert riccati_drift(pii) <= 1e-6


def test_riccati_mismatch_for_wrong_fiber():
    # The same first-order locus inside the fiber at alpha = 0 must diverge.
    y0 = 0.3
    eq = EquationId(Family.PII, [0])
    pii = integrate(eq, None, [y0, -(y0**2) - 0.5], 1.0, 2.0, 1e-3)
    assert riccati_drift(pii) > 1e-3


def test_pv_chart_equivalence_on_trajectories():
    v = [Fraction(1, 10), Fraction(1, 5), Fraction(-1, 20), Fraction(-1, 4)]
    eq = EquationId(Family.PV, v)
    v1, v3 = float(v[0]), float(v[2])

    def mapped(Q, P):
        return (Q / (Q - 1.0), -((Q - 1.0) ** 2) * P + (v3 - v1) * (Q - 1.0))

    Q0, P0 = 0.5, 0.1
    q0, p0 = mapped(Q0, P0)
    tr_qp = integrate(eq, None, [q0, p0], 1.0, 2.0, 1e-4, form="system")
    tr_QP = integrate(eq, None, [Q0, P0], 1.0, 2.0, 1e-4, form="QP")
    assert tr_qp.status is TrajectoryStatus.COMPLETED
    assert tr_QP.status is TrajectoryStatus.COMPLETED
    sup = 0.0
    for (_, sA), (_, sB) in zip(tr_QP.samples, tr_qp.samples):
        qm, pm = mapped(*sA)
        sup = max(sup, abs(qm - sB[0]), abs(pm - sB[1]))
    assert sup <= 1e-5


def test_blowup_detection():
    # y'' = 6y^2 + t from y = y' = 2 reaches a movable pole before t = 1.
    traj = integrate(PI, None, [2.0, 2.0], 0.0, 5.0, 1e-3)
    assert traj.status is TrajectoryStatus.BLOWUP
    assert traj.blowup_t is not None and traj.blowup_t < 1.0
    assert all(abs(x) <= 1e8 for _, state in traj.samples for x in state)


def test_singular_interval_rejected():
    eq = EquationId(Family.PIII, [1, 0])
    with pytest.raises(SingularIntervalError):
        integrate(eq, None, [1.0, 1.0], -1.0, 1.0, 1e-3)
    # intervals strictly right of the singularity are fine
    traj = integrate(eq, None, [1.0, 1.0], 0.5, 1.0, 1e-3)
    assert traj.status in (TrajectoryStatus.COMPLETED, TrajectoryStatus.BLOWUP)


def test_pvi_unsupported():
    eq = EquationId(Family.PVI, [0, 0, 0, 0])
    with pytest.raises(UnsupportedFamilyError):
        integrate(eq, None, [0.0, 0.0], 0.0, 1.0, 1e-2)


def test_atoms_need_assignment():
    eq = EquationId(Family.PII, [of_atom(tau(1))])
    with pytest.raises(MissingAtomError):
        integrate(eq, None, [0.1, 0.1], 1.0, 2.0, 1e-2)
    assign = NumericAssignment({tau(1): 0.25})
    traj = integrate(eq, assign, [0.1, 0.1], 1.0, 1.5, 1e-3)
    assert traj.params == (0.25,)


def test_compile_rhs_folds_parameters():
    rhs = numint._companion_rhs(ode_system(Family.PIV), {"v1": 0.5, "v2": 0.25, "v3": -0.75})
    q, p, t = 0.3, -0.2, 1.1
    expected_q = 2 * p * q - q * q - 2 * t * q + 2 * (0.5 - 0.25)
    expected_p = 2 * p * q - p * p + 2 * t * p + 2 * (0.5 + 0.75)
    got = rhs(t, (q, p))
    assert math.isclose(got[0], expected_q, rel_tol=1e-12)
    assert math.isclose(got[1], expected_p, rel_tol=1e-12)


# -- residual norms -----------------------------------------------------------------


def test_residual_halves_with_step():
    eq = EquationId(Family.PII, [H])
    coarse = residual_norm(integrate(eq, None, [0.2, 0.0], 1.0, 2.0, 2e-3))
    fine = residual_norm(integrate(eq, None, [0.2, 0.0], 1.0, 2.0, 1e-3))
    assert coarse.discretization_order == 4
    assert fine.value > 0
    assert coarse.value / fine.value >= 8


def test_residual_of_non_solution_is_large():
    eq = EquationId(Family.PII, [H])
    real = integrate(eq, None, [0.2, 0.0], 1.0, 2.0, 1e-3)
    fake = real._replace(samples=[(t, (1.0, 1.0)) for t, _ in real.samples])
    report = residual_norm(fake)
    assert report.value > 0.1


def test_residual_empty_trajectory_warns():
    eq = EquationId(Family.PII, [H])
    short = integrate(eq, None, [0.2, 0.0], 1.0, 1.1, 1e-3)._replace(samples=[(1.0, (0.0, 0.0))])
    report = residual_norm(short)
    assert report.value == 0.0
    assert report.warning is not None


def test_integrate_and_residual_compile_the_rhs_once(monkeypatch):
    # One compiled kernel per chart and process: a second integration of the
    # chart, at other parameters, compiles nothing, nor does its residual.
    sources = []
    compiled = numint._compiled

    def counting(source, *names):
        sources.append(names)
        return compiled(source, *names)

    monkeypatch.setattr(numint, "_compiled", counting)
    numint._chart_kernel.cache_clear()
    for params in ([Fraction(1, 3), Fraction(1, 5), Fraction(-8, 15)], [0, Fraction(1, 2), Fraction(-1, 2)]):
        eq = EquationId(Family.PIV, params)
        residual_norm(integrate(eq, None, [0.2, 0.1], 1.0, 1.5, 1e-2))
    assert sources == [("rhs", "rk4", "residual")]
    residual_norm(integrate(EquationId(Family.PV, [0, 0, 0, 0]), None, [0.2, 0.1], 1.0, 1.5, 1e-2, form="QP"))
    assert len(sources) == 2
    assert numint._chart_kernel.cache_info().currsize == 2


# -- export -------------------------------------------------------------------------


def test_csv_and_json_export(tmp_path):
    eq = EquationId(Family.PII, [H])
    traj = integrate(eq, None, [0.2, 0.0], 1.0, 1.1, 1e-2)
    csv_path = tmp_path / "traj.csv"
    write_csv(traj, str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,y,y'"
    assert len(lines) == len(traj.samples) + 1
    payload = trajectory_json(traj)
    assert payload["family"] == "II"
    assert payload["status"] == "completed"
    assert len(payload["samples"]) == len(traj.samples)


# Every chart numeric integration accepts.
CHARTS = [
    (Family.PI, "scalar", []),
    (Family.PII, "scalar", [H]),
    (Family.PIII, "system", [Fraction(1, 3), Fraction(-2, 5)]),
    (Family.PIV, "system", [Fraction(1, 3), Fraction(1, 6), Fraction(-1, 2)]),
    (Family.PV, "system", [Fraction(1, 10), Fraction(1, 5), Fraction(-1, 20), Fraction(-1, 4)]),
    (Family.PV, "QP", [Fraction(1, 10), Fraction(1, 5), Fraction(-1, 20), Fraction(-1, 4)]),
]


def test_csv_bytes_match_the_csv_module(tmp_path):
    trajectories = [
        integrate(EquationId(family, params), None, [0.25, -0.125], 1.0, 1.2, 1e-2, form=form)
        for family, form, params in CHARTS
    ]
    trajectories.append(trajectories[1]._replace(samples=[(1.0, (-0.0, 0.0)), (1e-300, (-1e300, 0.1 + 0.2))]))
    assert {traj.form for traj in trajectories} == {"scalar", "system", "QP"}
    assert any("y'" in traj.state_names for traj in trajectories)
    for traj in trajectories:
        write_csv(traj, str(tmp_path / "new.csv"))
        csv_module_write_csv(traj, str(tmp_path / "old.csv"))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_json_export_is_the_dumped_payload(tmp_path):
    eq = EquationId(Family.PV, [Fraction(1, 10), Fraction(1, 5), Fraction(-1, 20), Fraction(-1, 4)])
    for traj in (
        integrate(eq, None, [0.5, -0.0], 1.0, 1.2, 1e-2, form="QP"),
        integrate(PI, None, [2.0, 2.0], 0.0, 5.0, 1e-2),  # blowup_t set
    ):
        path = tmp_path / "traj.json"
        write_json(traj, str(path))
        assert path.read_text() == json.dumps(trajectory_json(traj))


def test_json_export_splices_the_csv_rows(tmp_path):
    # write_json reuses the reprs write_csv made; samples json would not
    # write as reprs (nan, inf) and an empty trajectory go through json.dumps.
    eq = EquationId(Family.PIV, [Fraction(1, 3), Fraction(1, 6), Fraction(-1, 2)])
    traj = integrate(eq, None, [0.2, -0.0], 1.0, 1.5, 1e-2)
    trajectories = [
        traj,
        integrate(PI, None, [1, 0], 0, 1, 0.25),  # int t0 and state
        traj._replace(samples=[(1.0, (1e-300, -1e300)), (2.5, (0.1 + 0.2, 5e-324))]),
        traj._replace(samples=[(1.0, (math.nan, 0.0)), (2.0, (math.inf, -math.inf))]),
        traj._replace(samples=[]),
    ]
    for traj in trajectories:
        rows = write_csv(traj, str(tmp_path / "traj.csv"))
        csv_module_write_csv(traj, str(tmp_path / "old.csv"))
        assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        for given in (rows, None):
            write_json(traj, str(tmp_path / "traj.json"), given)
            assert (tmp_path / "traj.json").read_text() == json.dumps(trajectory_json(traj))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("which", ["t0", "t1", "step"])
def test_integrate_rejects_non_finite_times(which, bad):
    # Checked before the step budget: an infinite step would otherwise pass
    # it as a single step, and a NaN would fail it with a misleading message.
    args = {"t0": 0.0, "t1": 1.0, "step": 1e-3, which: bad}
    with pytest.raises(ValueError, match=f"{which} must be a finite number") as info:
        integrate_rhs(pi_rhs(), [1.0, 0.0], args["t0"], args["t1"], args["step"])
    assert not isinstance(info.value, StepBudgetError)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_integrate_rejects_non_finite_initial_state(bad):
    with pytest.raises(ValueError, match="initial state must be finite"):
        integrate_rhs(pi_rhs(), [bad, 0.0], 0.0, 1.0, 1e-2)
    eq = EquationId(Family.PII, [0])
    with pytest.raises(ValueError, match="initial state must be finite"):
        integrate(eq, None, [0.1, bad], 0.0, 1.0, 1e-2)


def test_overflowing_span_is_not_a_step_budget():
    # t1 - t0 overflows to inf: the request is for two steps, not too many.
    with pytest.raises(NumericInputError, match="span t1 - t0 of .* is not a finite float") as info:
        integrate(PI, None, [0.0, 0.0], -1e308, 1e308, 1e308)
    assert not isinstance(info.value, StepBudgetError)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_atom_values_rejected(bad):
    with pytest.raises(ValueError, match="atom tau1 must be a finite number"):
        NumericAssignment({tau(1): bad})


def test_parameter_overflow_rejected():
    # Finite atom values whose parameter, or a folded product of
    # parameters, leaves the floats.
    t1 = of_atom(tau(1))
    with pytest.raises(ValueError, match="overflows"):
        integrate(EquationId(Family.PII, [t1 * 2]), NumericAssignment({tau(1): 1e308}), [0.1, 0.1], 0.0, 1.0, 1e-2)
    # v1 * v4 overflows to inf; v1^2 alone raises OverflowError in the power.
    for eq in (EquationId(Family.PV, [t1, 0, 0, -t1]), EquationId(Family.PV, [t1, -t1, 0, 0])):
        with pytest.raises(ValueError, match="overflows"):
            integrate(eq, NumericAssignment({tau(1): 1e200}), [0.5, 0.5], 1.0, 1.1, 1e-2, form="QP")


def test_integrate_rejects_bad_arguments():
    rhs = pi_rhs()
    with pytest.raises(ValueError):
        integrate_rhs(rhs, [0.0, 0.0], 0.0, 1.0, -1e-3)
    with pytest.raises(ValueError):
        integrate_rhs(rhs, [0.0, 0.0], 1.0, 0.5, 1e-3)
    for step in (1e-300, 5e-324, 1.0 / (MAX_STEPS + 1)):
        with pytest.raises(StepBudgetError):
            integrate_rhs(rhs, [0.0, 0.0], 0.0, 1.0, step)
    assert len(integrate_rhs(rhs, [0.0, 0.0], 0.0, 1.0, 1.0 / MAX_STEPS).samples) == MAX_STEPS + 1
    eq = EquationId(Family.PII, [H])
    with pytest.raises(ValueError):
        integrate(eq, None, [0.1], 1.0, 2.0, 1e-3)  # needs (y, y')


# -- the generated loops against the tuple and index loops ----------------------------


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 8))


def _chart_case(chart: str, rng: random.Random):
    """(equation, form, initial, t0) for one cataloged chart."""
    small = [rng.uniform(-0.5, 0.5) for _ in range(2)]
    t0 = rng.choice((1.0, 1.25, 1.5))
    if chart == "I":
        return EquationId(Family.PI, []), None, small, t0
    if chart == "II":
        return EquationId(Family.PII, [_fraction(rng)]), None, small, t0
    if chart == "II riccati":
        sign = rng.choice((1, -1))
        y0 = small[0]
        return EquationId(Family.PII, [Fraction(sign, 2)]), None, [y0, sign * (y0 * y0 + t0 / 2)], t0
    if chart == "III":
        return EquationId(Family.PIII, [_fraction(rng), _fraction(rng)]), None, small, t0
    if chart == "IV":
        v1, v2 = _fraction(rng), _fraction(rng)
        return EquationId(Family.PIV, [v1, v2, -v1 - v2]), "system", small, t0
    v = [_fraction(rng) for _ in range(3)]
    eq = EquationId(Family.PV, [*v, -sum(v)])
    if chart == "V":
        return eq, "system", small, t0
    return eq, "QP", [rng.choice((-0.375, -0.25, 0.25, 0.375)), small[1]], t0


def _assert_same_trajectory(new: Trajectory, old: Trajectory) -> None:
    # repr() tells -0.0 from 0.0 and nan from a number.
    assert repr(new.samples) == repr(old.samples)
    assert new.status is old.status
    assert repr(new.blowup_t) == repr(old.blowup_t)
    assert repr(new.step) == repr(old.step)


def _assert_same_run(eq, form, initial, t0, t1, step, assign=None) -> Trajectory:
    new = integrate(eq, assign, initial, t0, t1, step, form=form)
    with mock.patch.object(numint, "integrate_rhs", tuple_integrate_rhs):
        old = integrate(eq, assign, initial, t0, t1, step, form=form)
    _assert_same_trajectory(new, old)
    assert repr(residual_norm(new)) == repr(indexed_residual_norm(old))
    return new


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("chart", ["I", "II", "II riccati", "III", "IV", "V", "V QP"])
def test_generated_loops_match_oracle_on_charts(chart, seed):
    rng = random.Random(f"{chart}:{seed}")
    eq, form, initial, t0 = _chart_case(chart, rng)
    step = rng.choice((1e-2, 7e-3, 5e-3, 2.5e-3))
    _assert_same_run(eq, form, initial, t0, t0 + rng.choice((0.25, 0.5, 0.75)), step)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("chart", ["I", "II", "II riccati", "III", "IV", "V", "V QP"])
def test_rhs_source_matches_fraction_coefficients(chart, seed):
    # The chart's kernel reads its sources and coefficient folds from the
    # packed polynomials; from the Fraction-coefficient kernel they are the same.
    eq, form, _, _ = _chart_case(chart, random.Random(f"{chart}:{seed}"))
    system = ode_system(eq.family, form)
    params = numint._numeric_params(eq, None, system)
    exprs, state_vars, _ = numint._companion(system)
    as_fractions = [
        SimpleNamespace(**{part: FractionPoly(p.vars, p.dense_terms()) for part, p in (("num", e.num), ("den", e.den))})
        for e in exprs
    ]
    bodies, coeffs = numint._sources(exprs, state_vars)
    assert (bodies, coeffs) == numint._sources(as_fractions, state_vars)
    rhs = numint._companion_rhs(system, params)
    assert rhs.kernel.coeffs == tuple(coeffs)
    assert repr(rhs.coeffs) == repr(numint._folded(coeffs, params))


# The seven cataloged charts, as (family, form).
KERNEL_CHARTS = {
    "I": (Family.PI, "scalar"),
    "II": (Family.PII, "scalar"),
    "III": (Family.PIII, "system"),
    "IV": (Family.PIV, "system"),
    "IV scalar": (Family.PIV, "scalar"),
    "V": (Family.PV, "system"),
    "V QP": (Family.PV, "QP"),
}
_state_values = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, 3.0]))


@given(
    chart=st.sampled_from(sorted(KERNEL_CHARTS)),
    values=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    initial=st.lists(_state_values, min_size=2, max_size=2),
    t0=st.sampled_from([-0.5, 0.25, 1.0]),
    span=st.sampled_from([0.5, 1.0, 5.0]),
    step=st.sampled_from([0.125, 0.04, 0.01]),
)
@example(chart="III", values=[0.5, -0.25, 0.0, 0.0], initial=[0.3, -0.2], t0=-0.5, span=1.0, step=0.125)  # t = 0
@example(chart="V QP", values=[0.1, 0.2, -0.05, -0.25], initial=[0.25, 0.1], t0=-0.5, span=1.0, step=0.125)
@example(chart="IV scalar", values=[0.5, -0.25, 0.0, 0.0], initial=[0.0, 1.0], t0=1.0, span=0.5, step=0.01)  # y = 0
@example(chart="I", values=[0.0, 0.0, 0.0, 0.0], initial=[3.0, 3.0], t0=1.0, span=5.0, step=0.01)  # a pole
@settings(max_examples=80, deadline=None)
def test_chart_kernel_matches_the_called_rhs(chart, values, initial, t0, span, step):
    # The kernel's loops, with the right-hand side inlined, against the
    # oracle loops that call the kernel's right-hand side: bit-identical
    # trajectories and residuals, blow-ups and divisions by zero included.
    family, form = KERNEL_CHARTS[chart]
    system = ode_system(family, form)
    rhs = numint._companion_rhs(system, dict(zip(system.param_names, values)))
    assert rhs.kernel is numint._chart_kernel(family, form)
    new = integrate_rhs(rhs, initial, t0, t0 + span, step)
    old = tuple_integrate_rhs(rhs, initial, t0, t0 + span, step)
    _assert_same_trajectory(new, old)
    assert (new.family, new.form, new.params, new.state_names) == (old.family, old.form, old.params, old.state_names)
    assert repr(residual_norm(new)) == repr(indexed_residual_norm(old))
    # A step onto t = 0, or y = 0 in the fourth family's scalar chart, divides by zero.
    if system.singular_t and (t0, step) == (-0.5, 0.125):
        assert new.status is TrajectoryStatus.BLOWUP and new.blowup_t <= -0.125
    if chart == "IV scalar" and initial[0] == 0.0:
        assert (new.status, new.blowup_t) == (TrajectoryStatus.BLOWUP, t0)


def test_generated_loops_match_oracle_with_atoms():
    eq = EquationId(Family.PII, [of_atom(tau(1)) * Fraction(1, 3)])
    _assert_same_run(eq, None, [0.1, -0.2], 1.0, 1.5, 3e-3, NumericAssignment({tau(1): 0.7}))


def test_generated_loops_match_oracle_on_blowup():
    # y'' = 6y^2 + t from y = y' = 2 reaches a movable pole before t = 1.
    traj = _assert_same_run(EquationId(Family.PI, []), None, [2.0, 2.0], 0.0, 5.0, 1e-2)
    assert traj.status is TrajectoryStatus.BLOWUP and traj.blowup_t < 1.0


def test_generated_loops_match_oracle_on_division_by_zero():
    # The fourth family's scalar chart divides by y: from y = 0 the first
    # evaluation raises ZeroDivisionError inside the compiled right-hand side.
    system = ode_system(Family.PIV, "scalar")
    rhs = numint._companion_rhs(system, {"alpha": 0.5, "beta": -0.25})
    cases = (([0.0, 1.0], TrajectoryStatus.BLOWUP, 1.0), ([0.5, 0.1], TrajectoryStatus.COMPLETED, None))
    for initial, status, blowup_t in cases:
        new = integrate_rhs(rhs, initial, 1.0, 1.5, 1e-2)
        _assert_same_trajectory(new, tuple_integrate_rhs(rhs, initial, 1.0, 1.5, 1e-2))
        assert (new.status, new.blowup_t) == (status, blowup_t)


def test_empty_initial_state_rejected():
    with pytest.raises(ValueError, match="initial state needs 2 components"):
        integrate_rhs(pi_rhs(), [], 0.0, 0.1, 0.05)
