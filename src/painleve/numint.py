"""Fixed-step RK4 integration of the cataloged systems.

Used to cross-validate the symbolic identities on actual trajectories.
Deliberately simple: fixed step (no adaptive controller), a hard blow-up
threshold of 1e8 (the solutions have movable poles), and real-valued states
only.  Identical inputs produce bit-identical trajectories.

Right-hand sides are compiled once per integration into plain Python
functions f(t, x0, x1, ...) with the numeric parameter values folded in as
literals; the trajectory carries f, and its residual reuses it.  The RK4
loop and the residual loop are generated once per state dimension (memoised
by the dimension alone); they keep the components in locals and call f
positionally, an opaque rhs(t, state) through an adapter.
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from enum import Enum
from types import MappingProxyType
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


class NumericAssignment(namedtuple("NumericAssignment", "atom_values")):
    """Numeric values for symbolic atoms; the module never invents values.
    Every value must be finite."""

    __slots__ = ()

    def __new__(cls, atom_values: Mapping[Atom, float] = MappingProxyType({})) -> "NumericAssignment":
        for atom, value in atom_values.items():
            if not math.isfinite(value):
                raise NumericInputError(f"atom {atom.name} must be a finite number, got {value}")
        return super().__new__(cls, atom_values)

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


# ``samples`` is a list of (t, state) pairs; ``rhs`` is f(t, x0, x1, ...),
# the right-hand side the samples were integrated with.
Trajectory = namedtuple(
    "Trajectory", "family form params state_names samples status blowup_t step rhs", defaults=(None, 0.0, None)
)


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


def _compiled(source: str, name: str) -> Callable:
    namespace: dict = {}
    exec(source, namespace)  # generated from catalog data or a state dimension only
    return namespace[name]


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
    fn = _compiled(f"def rhs({args}):\n    return ({body}{',' if len(exprs) == 1 else ''})\n", "rhs")

    def rhs(t: float, state: Sequence[float]) -> tuple[float, ...]:
        return fn(t, *state)

    rhs.positional = fn
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


def _components(n: int, pattern: str) -> str:
    return "".join(pattern.format(j=j) + ", " for j in range(n))


@functools.cache
def _rk4_loop(n: int) -> Callable:
    """rk4(f, t0, h, n_steps, x0, ..., x{n-1}) -> (samples, blowup_t), blowup_t
    None when every step was taken.  h2, h6 and tm are the very floats
    h / 2, h / 6 and t + h / 2 of the formulas, so the results are too."""
    x = _components(n, "x{j}")
    return _compiled("\n".join([
        f"def rk4(f, t0, h, n_steps, {x}):",
        f"    samples = [(t0, ({x}))]",
        "    append = samples.append",
        "    h2, h6 = h / 2, h / 6",
        "    for i in range(n_steps):",
        "        t = t0 + i * h",
        "        try:",
        f"            {_components(n, 'a{j}')}= f(t, {x})",
        "            tm = t + h2",
        f"            {_components(n, 'b{j}')}= f(tm, {_components(n, 'x{j} + h2 * a{j}')})",
        f"            {_components(n, 'c{j}')}= f(tm, {_components(n, 'x{j} + h2 * b{j}')})",
        f"            {_components(n, 'd{j}')}= f(t + h, {_components(n, 'x{j} + h * c{j}')})",
        *(f"            x{j} = x{j} + h6 * (a{j} + 2 * b{j} + 2 * c{j} + d{j})" for j in range(n)),
        "        except (ZeroDivisionError, OverflowError):",
        "            return samples, t",
        "        t = t0 + (i + 1) * h",
        # abs(x) <= threshold is False for inf and nan too.
        f"        if not ({' and '.join(f'abs(x{j}) <= {BLOWUP_THRESHOLD!r}' for j in range(n))}):",
        "            return samples, t",
        f"        append((t, ({x})))",
        "    return samples, None",
    ]), "rk4")


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
    non-finite t0, t1 or step, an empty or non-finite initial state, a step
    that is not positive or t1 <= t0, and StepBudgetError, before any step
    is taken, when the interval needs more than MAX_STEPS steps; ValueError
    when rhs returns a state of another length."""
    for name, value in (("t0", t0), ("t1", t1), ("step", step)):
        if not math.isfinite(value):
            raise NumericInputError(f"{name} must be a finite number, got {value}")
    if not initial:
        raise NumericInputError("initial state needs at least one component")
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
    f = getattr(rhs, "positional", None) or (lambda t, *state: rhs(t, state))
    samples, blowup_t = _rk4_loop(len(initial))(f, t0, h, n_steps, *[float(x) for x in initial])
    return Trajectory(
        family=family,
        form=form,
        params=tuple(params),
        state_names=tuple(state_names),
        samples=samples,
        status=TrajectoryStatus.COMPLETED if blowup_t is None else TrajectoryStatus.BLOWUP,
        blowup_t=blowup_t,
        step=h,
        rhs=f,
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


ResidualReport = namedtuple("ResidualReport", "value discretization_order warning", defaults=(None,))


@functools.cache
def _residual_loop(n: int) -> Callable:
    """residual(f, samples, h) -> the running max, from 0.0, of
    |five-point derivative - f| over interior samples and components."""
    window = ", ".join(f"({'t' if k == 'r' else '_'}, ({_components(n, k + '{j}')}))" for k in "pqrsu")
    return _compiled("\n".join([
        "def residual(f, samples, h):",
        "    worst = 0.0",
        "    h12 = 12 * h",
        f"    for {window} in zip(samples, samples[1:], samples[2:], samples[3:], samples[4:]):",
        f"        {_components(n, 'f{j}')}= f(t, {_components(n, 'r{j}')})",
        f"        worst = max(worst, {_components(n, 'abs((-u{j} + 8 * s{j} - 8 * q{j} + p{j}) / h12 - f{j})')})",
        "    return worst",
    ]), "residual")


def residual_norm(traj: Trajectory) -> ResidualReport:
    """Max deviation between a five-point fourth-order finite-difference
    derivative of the trajectory and the right-hand side it was integrated
    with.

    The reported discretization order is 4, so halving the step on a smooth
    segment shrinks the residual by roughly 16x.
    """
    if len(traj.samples) < 5:
        return ResidualReport(value=0.0, discretization_order=4, warning="trajectory too short for a residual")
    worst = _residual_loop(len(traj.samples[0][1]))(traj.rhs, traj.samples, traj.step)
    return ResidualReport(value=worst, discretization_order=4)


# -- export -----------------------------------------------------------------------------


def write_csv(traj: Trajectory, path: str) -> None:
    """Columns: t, then one column per state component; lines end in CRLF.
    No field needs quoting: state names come from the catalog and values
    are float reprs."""
    lines = [",".join(("t", *traj.state_names))]
    lines += [",".join(map(repr, (t, *state))) for t, state in traj.samples]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


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
        fh.write(json.dumps(trajectory_json(traj)))
