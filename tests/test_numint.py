import math
from fractions import Fraction

import pytest

from painleve.catalog import EquationId, Family, UnsupportedFamilyError
from painleve.exactnum import ParamValue, tau
from painleve.numint import (
    MAX_STEPS,
    MissingAtomError,
    NumericAssignment,
    SingularIntervalError,
    StepBudgetError,
    Trajectory,
    TrajectoryStatus,
    compile_rhs,
    integrate,
    integrate_rhs,
    residual_norm,
    trajectory_json,
    write_csv,
)

H = Fraction(1, 2)


def exp_rhs(t, state):
    return (state[0],)


def test_exponential_oracle():
    traj = integrate_rhs(exp_rhs, [1.0], 0.0, 1.0, 1e-3)
    assert traj.status is TrajectoryStatus.COMPLETED
    assert abs(traj.samples[-1][1][0] - math.e) < 1e-8


def test_rk4_convergence_order():
    errors = []
    steps = [1e-2, 5e-3, 2.5e-3]
    for h in steps:
        traj = integrate_rhs(exp_rhs, [1.0], 0.0, 1.0, h)
        errors.append(abs(traj.samples[-1][1][0] - math.e))
    slope = (math.log(errors[0]) - math.log(errors[-1])) / (math.log(steps[0]) - math.log(steps[-1]))
    assert slope >= 3.7


def test_determinism_bit_identical():
    eq = EquationId(Family.PII, [H])
    a = integrate(eq, None, [0.2, 0.1], 1.0, 2.0, 1e-3)
    b = integrate(eq, None, [0.2, 0.1], 1.0, 2.0, 1e-3)
    assert a.samples == b.samples


def test_time_grid_is_strictly_monotone():
    traj = integrate_rhs(exp_rhs, [1.0], 0.0, 0.5, 1e-2)
    times = traj.times
    assert all(b > a for a, b in zip(times, times[1:]))


def test_riccati_agreement_with_pii():
    y0 = 0.3
    eq = EquationId(Family.PII, [Fraction(-1, 2)])
    pii = integrate(eq, None, [y0, -(y0**2) - 0.5], 1.0, 2.0, 1e-4)
    riccati = integrate_rhs(lambda t, s: (-(s[0] ** 2) - t / 2,), [y0], 1.0, 2.0, 1e-4)
    assert pii.status is TrajectoryStatus.COMPLETED
    sup = max(abs(a[1][0] - b[1][0]) for a, b in zip(pii.samples, riccati.samples))
    assert sup <= 1e-6


def test_riccati_mismatch_for_wrong_fiber():
    # The same first-order locus inside the fiber at alpha = 0 must diverge.
    y0 = 0.3
    eq = EquationId(Family.PII, [0])
    pii = integrate(eq, None, [y0, -(y0**2) - 0.5], 1.0, 2.0, 1e-3)
    riccati = integrate_rhs(lambda t, s: (-(s[0] ** 2) - t / 2,), [y0], 1.0, 2.0, 1e-3)
    sup = max(abs(a[1][0] - b[1][0]) for a, b in zip(pii.samples, riccati.samples))
    assert sup > 1e-3


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
    # y' = y^2 from y(0) = 1 blows up at t = 1.
    traj = integrate_rhs(lambda t, s: (s[0] ** 2,), [1.0], 0.0, 2.0, 1e-3)
    assert traj.status is TrajectoryStatus.BLOWUP
    assert traj.blowup_t is not None and traj.blowup_t < 1.05
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
    eq = EquationId(Family.PII, [ParamValue.of_atom(tau(1))])
    with pytest.raises(MissingAtomError):
        integrate(eq, None, [0.1, 0.1], 1.0, 2.0, 1e-2)
    assign = NumericAssignment({tau(1): 0.25})
    traj = integrate(eq, assign, [0.1, 0.1], 1.0, 1.5, 1e-3)
    assert traj.params == (0.25,)


def test_compile_rhs_folds_parameters():
    from painleve.odes import ode_system

    system = ode_system(Family.PIV)
    rhs = compile_rhs(system.rhs, system.state_vars, {"v1": 0.5, "v2": 0.25, "v3": -0.75})
    q, p, t = 0.3, -0.2, 1.1
    expected_q = 2 * p * q - q * q - 2 * t * q + 2 * (0.5 - 0.25)
    expected_p = 2 * p * q - p * p + 2 * t * p + 2 * (0.5 + 0.75)
    got = rhs(t, (q, p))
    assert math.isclose(got[0], expected_q, rel_tol=1e-12)
    assert math.isclose(got[1], expected_p, rel_tol=1e-12)


# -- residual norms -----------------------------------------------------------------


def test_residual_halves_with_step():
    eq = EquationId(Family.PII, [H])
    coarse = residual_norm(integrate(eq, None, [0.2, 0.0], 1.0, 2.0, 2e-3), eq)
    fine = residual_norm(integrate(eq, None, [0.2, 0.0], 1.0, 2.0, 1e-3), eq)
    assert coarse.discretization_order == 4
    assert fine.value > 0
    assert coarse.value / fine.value >= 8


def test_residual_of_non_solution_is_large():
    eq = EquationId(Family.PII, [H])
    real = integrate(eq, None, [0.2, 0.0], 1.0, 2.0, 1e-3)
    fake = Trajectory(
        family=real.family,
        form=real.form,
        params=real.params,
        state_names=real.state_names,
        samples=[(t, (1.0, 1.0)) for t, _ in real.samples],
        status=TrajectoryStatus.COMPLETED,
        step=real.step,
    )
    report = residual_norm(fake, eq)
    assert report.value > 0.1


def test_residual_empty_trajectory_warns():
    eq = EquationId(Family.PII, [H])
    short = Trajectory(
        family=Family.PII,
        form="scalar",
        params=(0.5,),
        state_names=("y", "y'"),
        samples=[(1.0, (0.0, 0.0))],
        status=TrajectoryStatus.COMPLETED,
        step=1e-3,
    )
    report = residual_norm(short, eq)
    assert report.value == 0.0
    assert report.warning is not None


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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("which", ["t0", "t1", "step"])
def test_integrate_rejects_non_finite_times(which, bad):
    # Checked before the step budget: an infinite step would otherwise pass
    # it as a single step, and a NaN would fail it with a misleading message.
    args = {"t0": 0.0, "t1": 1.0, "step": 1e-3, which: bad}
    with pytest.raises(ValueError, match=f"{which} must be a finite number") as info:
        integrate_rhs(exp_rhs, [1.0], args["t0"], args["t1"], args["step"])
    assert not isinstance(info.value, StepBudgetError)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_integrate_rejects_non_finite_initial_state(bad):
    with pytest.raises(ValueError, match="initial state must be finite"):
        integrate_rhs(exp_rhs, [bad], 0.0, 1.0, 1e-2)
    eq = EquationId(Family.PII, [0])
    with pytest.raises(ValueError, match="initial state must be finite"):
        integrate(eq, None, [0.1, bad], 0.0, 1.0, 1e-2)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_atom_values_rejected(bad):
    with pytest.raises(ValueError, match="atom tau1 must be a finite number"):
        NumericAssignment({tau(1): bad})


def test_parameter_overflow_rejected():
    # Finite atom values whose parameter, or a folded product of
    # parameters, leaves the floats.
    t1 = ParamValue.of_atom(tau(1))
    with pytest.raises(ValueError, match="overflows"):
        integrate(EquationId(Family.PII, [t1 * 2]), NumericAssignment({tau(1): 1e308}), [0.1, 0.1], 0.0, 1.0, 1e-2)
    eq = EquationId(Family.PV, [t1, 0, 0, -t1])
    with pytest.raises(ValueError, match="overflows"):
        integrate(eq, NumericAssignment({tau(1): 1e200}), [0.5, 0.5], 1.0, 1.1, 1e-2, form="QP")


def test_integrate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate_rhs(exp_rhs, [1.0], 0.0, 1.0, -1e-3)
    with pytest.raises(ValueError):
        integrate_rhs(exp_rhs, [1.0], 1.0, 0.5, 1e-3)
    for step in (1e-300, 5e-324, 1.0 / (MAX_STEPS + 1)):
        with pytest.raises(StepBudgetError):
            integrate_rhs(exp_rhs, [1.0], 0.0, 1.0, step)
    assert len(integrate_rhs(exp_rhs, [1.0], 0.0, 1.0, 1.0 / MAX_STEPS).samples) == MAX_STEPS + 1
    eq = EquationId(Family.PII, [H])
    with pytest.raises(ValueError):
        integrate(eq, None, [0.1], 1.0, 2.0, 1e-3)  # needs (y, y')
