"""Fixed-step RK4 integration of the cataloged systems.

Used to cross-validate the symbolic identities on actual trajectories.
Deliberately simple: fixed step (no adaptive controller), a hard blow-up
threshold of 1e8 (the solutions have movable poles), and real-valued states
only.  Identical inputs produce bit-identical trajectories.

Right-hand sides are compiled once per integration into plain Python
functions with the numeric parameter values folded in as literals.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

from .catalog import (
    EquationId, Family, MissingAtomError, NumericInputError, SingularIntervalError, StepBudgetError,
    UnsupportedFamilyError,
)
from .diffpoly import DiffExpr, Poly, Var, jet, sym
from .exactnum import Atom, ParamValue
from .odes import OdeSystem, ode_system

BLOWUP_THRESHOLD = 1e8

# Most RK4 steps one integration may take.  Every sample is kept in memory
# (about 200 bytes for a two-component state), so this also caps memory.
MAX_STEPS = 200_000


class TrajectoryStatus(Enum):
    COMPLETED = "completed"
    BLOWUP = "blowup"
    SINGULAR_T = "singular-t"


@dataclass(frozen=True)
class NumericAssignment:
    """Numeric values for symbolic atoms; the module never invents values.
    Every value must be finite."""

    atom_values: Mapping[Atom, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for atom, value in self.atom_values.items():
            if not math.isfinite(value):
                raise NumericInputError(f"atom {atom.name} must be a finite number, got {value}")

    def value_of(self, p: ParamValue) -> float:
        try:
            total = float(p.const)
            for atom, coeff in p.terms:
                if atom not in self.atom_values:
                    raise MissingAtomError(f"atom {atom.name} has no numeric assignment")
                total += float(coeff) * self.atom_values[atom]
        except OverflowError:
            raise NumericInputError(f"parameter {p} is too large for a float") from None
        return total


@dataclass
class Trajectory:
    family: Family | None
    form: str
    params: tuple[float, ...]
    state_names: tuple[str, ...]
    samples: list[tuple[float, tuple[float, ...]]]
    status: TrajectoryStatus
    blowup_t: float | None = None
    step: float = 0.0

    @property
    def times(self) -> list[float]:
        return [t for t, _ in self.samples]


# -- compilation ------------------------------------------------------------------


def _poly_source(poly: Poly, names: Mapping[Var, str], consts: Mapping[Var, float]) -> str:
    if poly.is_zero:
        return "0.0"
    chunks = []
    for exps in sorted(poly.terms):
        constant = float(poly.terms[exps])
        factors = []
        for i, e in enumerate(exps):
            if not e:
                continue
            v = poly.vars[i]
            if v in consts:
                try:
                    constant *= consts[v] ** e
                except OverflowError:
                    constant = math.inf
            else:
                factors.extend([names[v]] * e)
        if not math.isfinite(constant):
            raise NumericInputError("a coefficient of the right-hand side overflows at these parameter values")
        chunks.append("*".join([repr(constant), *factors]))
    return "(" + " + ".join(chunks) + ")"


def _expr_source(expr: DiffExpr, names: Mapping[Var, str], consts: Mapping[Var, float]) -> str:
    num = _poly_source(expr.num, names, consts)
    if expr.den.is_constant and expr.den.constant_value() == 1:
        return num
    return f"({num}) / ({_poly_source(expr.den, names, consts)})"


def compile_rhs(
    exprs: Sequence[DiffExpr],
    state_vars: Sequence[str | Var],
    param_values: Mapping[str, float],
) -> Callable[[float, Sequence[float]], tuple[float, ...]]:
    """Compile first-order right-hand sides into f(t, state) -> state'.

    A state variable given by name is its jet of order 0; a jet ``Var``
    stands for itself, so a scalar order-2 equation compiles as its (x, x')
    companion system.  Parameter symbols are folded in as numeric literals.
    """
    names: dict[Var, str] = {sym("t"): "t"}
    for i, s in enumerate(state_vars):
        names[s if isinstance(s, Var) else jet(s, 0)] = f"x{i}"
    consts = {sym(k): float(v) for k, v in param_values.items()}
    args = ", ".join(["t"] + [f"x{i}" for i in range(len(state_vars))])
    body = ", ".join(_expr_source(e, names, consts) for e in exprs)
    source = f"def _rhs({args}):\n    return ({body}{',' if len(exprs) == 1 else ''})\n"
    namespace: dict = {}
    exec(source, namespace)  # generated from exact catalog data only
    fn = namespace["_rhs"]

    def rhs(t: float, state: Sequence[float]) -> tuple[float, ...]:
        return fn(t, *state)

    return rhs


def _companion_rhs(system: OdeSystem, param_values: Mapping[str, float]) -> tuple[Callable, tuple[str, ...]]:
    """First-order form of a cataloged system: scalar order-2 equations become
    (x, x') companion systems."""
    if system.order == 1:
        return compile_rhs(system.rhs, system.state_vars, param_values), system.state_vars
    base = system.state_vars[0]
    slope = jet(base, 1)
    rhs = compile_rhs((DiffExpr.var(slope), system.rhs[0]), (base, slope), param_values)
    return rhs, (base, base + "'")


# -- integration --------------------------------------------------------------------


def integrate_rhs(
    rhs: Callable[[float, Sequence[float]], Sequence[float]],
    initial: Sequence[float],
    t0: float,
    t1: float,
    step: float,
    state_names: Sequence[str] = (),
    family: Family | None = None,
    form: str = "custom",
    params: Sequence[float] = (),
) -> Trajectory:
    """Classical RK4 with a fixed step (the step is snapped so that the span
    divides evenly).  Aborts with Blowup when any state component leaves
    [-1e8, 1e8] or stops being finite.  Raises NumericInputError for a
    non-finite t0, t1, step or initial component, a step that is not
    positive or t1 <= t0, and StepBudgetError, before any step is taken,
    when the interval needs more than MAX_STEPS steps."""
    for name, value in (("t0", t0), ("t1", t1), ("step", step)):
        if not math.isfinite(value):
            raise NumericInputError(f"{name} must be a finite number, got {value}")
    if not all(math.isfinite(x) for x in initial):
        raise NumericInputError(f"initial state must be finite, got {list(initial)}")
    if step <= 0:
        raise NumericInputError("step must be positive")
    if t1 <= t0:
        raise NumericInputError("t1 must exceed t0")
    if (t1 - t0) / step > MAX_STEPS:
        raise StepBudgetError(f"interval [{t0}, {t1}] at step {step} needs more than {MAX_STEPS} steps")
    n_steps = max(1, round((t1 - t0) / step))
    h = (t1 - t0) / n_steps
    state = tuple(float(x) for x in initial)
    samples = [(t0, state)]
    status = TrajectoryStatus.COMPLETED
    blowup_t = None
    for i in range(n_steps):
        t = t0 + i * h
        try:
            k1 = rhs(t, state)
            k2 = rhs(t + h / 2, [x + h / 2 * k for x, k in zip(state, k1)])
            k3 = rhs(t + h / 2, [x + h / 2 * k for x, k in zip(state, k2)])
            k4 = rhs(t + h, [x + h * k for x, k in zip(state, k3)])
            state = tuple(
                x + h / 6 * (a + 2 * b + 2 * c + d)
                for x, a, b, c, d in zip(state, k1, k2, k3, k4)
            )
        except (ZeroDivisionError, OverflowError):
            status = TrajectoryStatus.BLOWUP
            blowup_t = t
            break
        t_next = t0 + (i + 1) * h
        if any(not math.isfinite(x) or abs(x) > BLOWUP_THRESHOLD for x in state):
            status = TrajectoryStatus.BLOWUP
            blowup_t = t_next
            break
        samples.append((t_next, state))
    return Trajectory(
        family=family,
        form=form,
        params=tuple(params),
        state_names=tuple(state_names),
        samples=samples,
        status=status,
        blowup_t=blowup_t,
        step=h,
    )


def _numeric_params(eq: EquationId, assign: NumericAssignment | None, system: OdeSystem) -> dict[str, float]:
    assign = assign or NumericAssignment()
    return {name: assign.value_of(p) for name, p in zip(system.param_names, eq.params)}


def integrate(
    eq: EquationId,
    assign: NumericAssignment | None,
    initial: Sequence[float],
    t0: float,
    t1: float,
    step: float,
    form: str | None = None,
) -> Trajectory:
    """Integrate a cataloged equation.

    The third and fifth families are singular at t = 0, so the interval must
    not touch it.  The sixth family is rejected (classification-only).
    """
    system = ode_system(eq.family, form)
    for s in system.singular_t:
        if t0 <= float(s) <= t1:
            raise SingularIntervalError(
                f"interval [{t0}, {t1}] touches the fixed singularity t = {s}"
            )
    if eq.family is Family.PIV and system.form == "scalar":
        raise UnsupportedFamilyError(
            "numeric integration of the fourth family uses the first-order system chart"
        )
    params = _numeric_params(eq, assign, system)
    rhs, state_names = _companion_rhs(system, params)
    expected = len(state_names)
    if len(initial) != expected:
        raise NumericInputError(f"initial state needs {expected} components {state_names}")
    return integrate_rhs(
        rhs,
        initial,
        t0,
        t1,
        step,
        state_names=state_names,
        family=eq.family,
        form=system.form,
        params=[params[name] for name in system.param_names],
    )


# -- residuals ------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    value: float
    discretization_order: int
    warning: str | None = None


def residual_norm(traj: Trajectory, eq: EquationId, assign: NumericAssignment | None = None) -> ResidualReport:
    """Max deviation between a five-point fourth-order finite-difference
    derivative of the trajectory and the cataloged right-hand side.

    The reported discretization order is 4, so halving the step on a smooth
    segment shrinks the residual by roughly 16x.
    """
    system = ode_system(eq.family, traj.form if traj.form != "custom" else None)
    params = _numeric_params(eq, assign, system)
    rhs, _ = _companion_rhs(system, params)
    if len(traj.samples) < 5:
        return ResidualReport(value=0.0, discretization_order=4, warning="trajectory too short for a residual")
    h = traj.step
    worst = 0.0
    for i in range(2, len(traj.samples) - 2):
        t_i, x_i = traj.samples[i]
        f = rhs(t_i, x_i)
        for j in range(len(x_i)):
            fd = (
                -traj.samples[i + 2][1][j]
                + 8 * traj.samples[i + 1][1][j]
                - 8 * traj.samples[i - 1][1][j]
                + traj.samples[i - 2][1][j]
            ) / (12 * h)
            worst = max(worst, abs(fd - f[j]))
    return ResidualReport(value=worst, discretization_order=4)


# -- export -----------------------------------------------------------------------------


def write_csv(traj: Trajectory, path: str) -> None:
    """Columns: t, then one column per state component."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *traj.state_names])
        for t, state in traj.samples:
            writer.writerow([repr(t), *[repr(x) for x in state]])


def trajectory_json(traj: Trajectory) -> dict:
    return {
        "family": traj.family.value if traj.family else None,
        "form": traj.form,
        "params": list(traj.params),
        "state": list(traj.state_names),
        "status": traj.status.value,
        "blowup_t": traj.blowup_t,
        "step": traj.step,
        "samples": [[t, *state] for t, state in traj.samples],
    }


def write_json(traj: Trajectory, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(trajectory_json(traj), fh)
