"""Fixed-step RK4 integration of the cataloged systems.

Used to cross-validate the symbolic identities on actual trajectories.
Deliberately simple: fixed step (no adaptive controller), a hard blow-up
threshold of 1e8 (the solutions have movable poles), and real-valued states
only.  Identical inputs produce bit-identical trajectories.

Each cataloged chart compiles once per process into a kernel: the
right-hand side f(k..., t, x0, x1, ...), and an RK4 loop and a residual loop
with that right-hand side inlined into their stages.  The coefficients that
depend on the parameters are folded per integration and passed as the
leading arguments k....  The loops keep the state components in locals.
"""

from __future__ import annotations

import functools
import itertools
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
            total = p.num / p.den
            for atom, n, d in p.parts:
                if atom not in self.atom_values:
                    raise MissingAtomError(f"atom {atom.name} has no numeric assignment")
                total += n / d * self.atom_values[atom]
        except OverflowError:
            raise NumericInputError(f"parameter {p} is too large for a float") from None
        return total


# ``samples`` is a list of (t, state) pairs; ``rhs`` is the chart's compiled
# right-hand side the samples were integrated with.
Trajectory = namedtuple("Trajectory", "family form params state_names samples status blowup_t step rhs")


# -- compilation ------------------------------------------------------------------
#
# An expression compiles to Python source over t, x0, x1, ... .  A term with
# parameter factors reads its coefficient from an argument k<i>; its value,
# float(coefficient) times each parameter power in var order, is folded per
# integration (``_folded``).  Other coefficients are float literals.


def _poly_source(poly: Poly, names: Mapping[Var, str], coeffs: list) -> str:
    """Source of ``poly``; each parameter-dependent term appends its fold,
    (float coefficient, ((parameter, exponent), ...)), to ``coeffs``."""
    if poly.is_zero:
        return "0.0"
    chunks = []
    for exps, c in sorted(poly.dense_terms().items()):
        factors, folded = [], []
        for v, e in zip(poly.vars, exps):
            if not e:
                continue
            if v in names:
                factors.extend([names[v]] * e)
            else:
                folded.append((v.name, e))
        if folded:
            chunks.append("*".join([f"k{len(coeffs)}", *factors]))
            coeffs.append((float(c), tuple(folded)))
        else:
            chunks.append("*".join([repr(float(c)), *factors]))
    return "(" + " + ".join(chunks) + ")"


def _expr_source(expr: DiffExpr, names: Mapping[Var, str], coeffs: list) -> str:
    num = _poly_source(expr.num, names, coeffs)
    if expr.den.is_constant and expr.den.constant_value() == 1:
        return num
    return f"({num}) / ({_poly_source(expr.den, names, coeffs)})"


def _folded(coeffs: Sequence[tuple[float, tuple]], values: Mapping[str, float]) -> list[float]:
    """The coefficient arguments at these parameter values."""
    out = []
    for constant, factors in coeffs:
        for name, e in factors:
            try:
                constant *= values[name] ** e
            except OverflowError:
                constant = math.inf
        if not math.isfinite(constant):
            raise NumericInputError("a coefficient of the right-hand side overflows at these parameter values")
        out.append(constant)
    return out


def _sources(exprs: Sequence[DiffExpr], state_vars: Sequence[Var]) -> tuple[list[str], list]:
    """Each expression's source, with {t} and {x0}, {x1}, ... for the time and
    state, and the folds of its coefficient arguments."""
    names = {sym("t"): "{t}", **{v: "{x%d}" % i for i, v in enumerate(state_vars)}}
    coeffs: list = []
    return [_expr_source(e, names, coeffs) for e in exprs], coeffs


def _compiled(source: str, *names: str) -> tuple[Callable, ...]:
    namespace: dict = {"itertools": itertools}
    exec(source, namespace)  # generated from catalog data only
    return tuple(namespace[name] for name in names)


def _companion(system: OdeSystem) -> tuple[tuple[DiffExpr, ...], tuple[Var, ...], tuple[str, ...]]:
    """First-order form of a cataloged system, (expressions, state variables,
    state names): scalar order-2 equations become (x, x') companion systems."""
    if system.order == 1:
        return system.rhs, tuple(jet(s, 0) for s in system.state_vars), system.state_vars
    base = system.state_vars[0]
    slope = jet(base, 1)
    return (DiffExpr.var(slope), system.rhs[0]), (jet(base, 0), slope), (base, base + "'")


# One chart, (family, form), with the folds of its coefficient arguments, its
# state names and its compiled functions; each function takes the coefficient
# arguments first: rhs(k..., t, x...), rk4(k..., t0, h, n_steps, x...) and
# residual(k..., samples, h), the last two with the right-hand side inlined.
ChartKernel = namedtuple("ChartKernel", "family form coeffs state_names rhs rk4 residual")


@functools.cache
def _chart_kernel(family: Family, form: str) -> ChartKernel:
    """Compiled once per chart and process."""
    exprs, state_vars, state_names = _companion(ode_system(family, form))
    bodies, coeffs = _sources(exprs, state_vars)
    n, k = len(state_vars), len(coeffs)
    lead = _components(k, "k{j}")
    stage = _inline_stage(bodies)
    source = "\n".join([_rhs_source(n, bodies, k), _rk4_source(n, stage, lead), _residual_source(n, stage, lead)])
    return ChartKernel(family, form, tuple(coeffs), state_names, *_compiled(source, "rhs", "rk4", "residual"))


class CompiledRhs(namedtuple("CompiledRhs", "kernel coeffs params")):
    """A chart's right-hand side at given parameter values: ``kernel`` is the
    chart's kernel, ``coeffs`` the coefficient arguments its functions take
    first, and ``params`` the parameter values in the system's order.
    ``self(t, state)`` is the derivative."""

    __slots__ = ()

    def __call__(self, t: float, state: Sequence[float]) -> tuple[float, ...]:
        return self.kernel.rhs(*self.coeffs, t, *state)


def _companion_rhs(system: OdeSystem, param_values: Mapping[str, float]) -> CompiledRhs:
    """The chart's compiled right-hand side at these parameter values."""
    kernel = _chart_kernel(system.family, system.form)
    params = tuple(param_values[name] for name in system.param_names)
    return CompiledRhs(kernel, _folded(kernel.coeffs, param_values), params)


# -- generated loops ------------------------------------------------------------------
#
# A stage emitter gives the lines that set dest0, dest1, ... to the right-hand
# side at a time and state given as source: the chart's expressions inlined,
# with non-trivial arguments bound to locals first.


def _components(n: int, pattern: str) -> str:
    return "".join(pattern.format(j=j) + ", " for j in range(n))


def _rhs_source(n: int, bodies: Sequence[str], k: int) -> str:
    x = {f"x{j}": f"x{j}" for j in range(n)}
    values = "".join(body.format(t="t", **x) + ", " for body in bodies)
    return f"def rhs({_components(k, 'k{j}')}t, {_components(n, 'x{j}')}):\n    return ({values})\n"


def _inline_stage(bodies: Sequence[str]) -> Callable[[str, str, Sequence[str]], list[str]]:
    def stage(dest: str, t: str, args: Sequence[str]) -> list[str]:
        lines = []
        if not t.isidentifier():
            lines.append(f"te = {t}")
            t = "te"
        x = {}
        for j, arg in enumerate(args):
            if arg.isidentifier():
                x[f"x{j}"] = arg
            else:
                lines.append(f"y{j} = {arg}")
                x[f"x{j}"] = f"y{j}"
        return lines + [f"{dest}{j} = {body.format(t=t, **x)}" for j, body in enumerate(bodies)]

    return stage


def _indented(lines: Sequence[str], depth: int) -> list[str]:
    return [" " * depth + line for line in lines]


def _rk4_source(n: int, stage: Callable, lead: str) -> str:
    """rk4(<lead>t0, h, n_steps, x0, ..., x{n-1}) -> (samples, blowup_t),
    blowup_t None when every step was taken.  h2, h6 and tm are the very
    floats h / 2, h / 6 and t + h / 2 of the formulas, so the results are too."""
    x = _components(n, "x{j}")

    def at(pattern: str) -> list[str]:
        return [pattern.format(j=j) for j in range(n)]

    return "\n".join([
        f"def rk4({lead}t0, h, n_steps, {x}):",
        f"    samples = [(t0, ({x}))]",
        "    append = samples.append",
        "    h2, h6 = h / 2, h / 6",
        "    for i in range(n_steps):",
        "        t = t0 + i * h",
        "        try:",
        *_indented(stage("a", "t", at("x{j}")), 12),
        "            tm = t + h2",
        *_indented(stage("b", "tm", at("x{j} + h2 * a{j}")), 12),
        *_indented(stage("c", "tm", at("x{j} + h2 * b{j}")), 12),
        *_indented(stage("d", "t + h", at("x{j} + h * c{j}")), 12),
        *(f"            x{j} = x{j} + h6 * (a{j} + 2 * b{j} + 2 * c{j} + d{j})" for j in range(n)),
        "        except (ZeroDivisionError, OverflowError):",
        "            return samples, t",
        "        t = t0 + (i + 1) * h",
        # -threshold <= x <= threshold is False for inf and nan too.
        f"        if not ({' and '.join(f'-{BLOWUP_THRESHOLD!r} <= x{j} <= {BLOWUP_THRESHOLD!r}' for j in range(n))}):",
        "            return samples, t",
        f"        append((t, ({x})))",
        "    return samples, None",
        "",
    ])


def _residual_source(n: int, stage: Callable, lead: str) -> str:
    """residual(<lead>samples, h) -> the running max, from 0.0, of
    |five-point derivative - f| over interior samples and components.

    The window p, q, r, s, u of five samples slides along in locals, and the
    max is taken as ``max`` does: a value replaces the running max when it
    compares greater."""
    def shifted(k: str, into: str) -> list[str]:
        return [f"{into}{j} = {k}{j}" for j in range(n)]

    def worst(j: int) -> list[str]:
        return [f"e = abs((-u{j} + 8 * s{j} - 8 * q{j} + p{j}) / h12 - f{j})", "if e > worst:", "    worst = e"]

    window = ", ".join(f"({'t' if k == 'r' else 'ts' if k == 's' else '_'}, ({_components(n, k + '{j}')}))"
                       for k in "pqrs")
    return "\n".join([
        f"def residual({lead}samples, h):",
        "    worst = 0.0",
        "    h12 = 12 * h",
        f"    {window} = samples[:4]",
        f"    for tu, ({_components(n, 'u{j}')}) in itertools.islice(samples, 4, None):",
        *_indented(stage("f", "t", [f"r{j}" for j in range(n)]), 8),
        *_indented([line for j in range(n) for line in worst(j)], 8),
        *_indented(shifted("q", "p") + shifted("r", "q") + shifted("s", "r") + shifted("u", "s"), 8),
        "        t, ts = ts, tu",
        "    return worst",
        "",
    ])


# -- integration --------------------------------------------------------------------


def integrate_rhs(rhs: CompiledRhs, initial: Sequence[float], t0: float, t1: float, step: float) -> Trajectory:
    """Classical RK4 with a fixed step (the step is snapped so that the span
    divides evenly), by the loop of the chart's kernel, with the right-hand
    side inlined.  Aborts with Blowup when any state component leaves
    [-1e8, 1e8] or stops being finite.  Raises NumericInputError for an
    initial state whose length is not the chart's, a non-finite t0, t1 or
    step, a non-finite initial state, a step that is not positive, t1 <= t0
    or a span t1 - t0 that is not a finite float, and StepBudgetError,
    before any step is taken, when the interval needs more than MAX_STEPS
    steps."""
    kernel = rhs.kernel
    if len(initial) != len(kernel.state_names):
        raise NumericInputError(f"initial state needs {len(kernel.state_names)} components {kernel.state_names}")
    for name, value in (("t0", t0), ("t1", t1), ("step", step)):
        if not math.isfinite(value):
            raise NumericInputError(f"{name} must be a finite number, got {value}")
    if not all(math.isfinite(x) for x in initial):
        raise NumericInputError(f"initial state must be finite, got {list(initial)}")
    if step <= 0:
        raise NumericInputError("step must be positive")
    if t1 <= t0:
        raise NumericInputError("t1 must exceed t0")
    span = t1 - t0
    if not math.isfinite(span):
        raise NumericInputError(f"span t1 - t0 of [{t0}, {t1}] is not a finite float")
    if span / step > MAX_STEPS:
        raise StepBudgetError(f"interval [{t0}, {t1}] at step {step} needs more than {MAX_STEPS} steps")
    n_steps = max(1, round(span / step))
    h = span / n_steps
    samples, blowup_t = kernel.rk4(*rhs.coeffs, t0, h, n_steps, *[float(x) for x in initial])
    return Trajectory(
        family=kernel.family,
        form=kernel.form,
        params=rhs.params,
        state_names=kernel.state_names,
        samples=samples,
        status=TrajectoryStatus.COMPLETED if blowup_t is None else TrajectoryStatus.BLOWUP,
        blowup_t=blowup_t,
        step=h,
        rhs=rhs,
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
    return integrate_rhs(_companion_rhs(system, _numeric_params(eq, assign, system)), initial, t0, t1, step)


# -- residuals ------------------------------------------------------------------------


ResidualReport = namedtuple("ResidualReport", "value discretization_order warning", defaults=(None,))


def residual_norm(traj: Trajectory) -> ResidualReport:
    """Max deviation between a five-point fourth-order finite-difference
    derivative of the trajectory and the right-hand side it was integrated
    with.

    The reported discretization order is 4, so halving the step on a smooth
    segment shrinks the residual by roughly 16x.
    """
    if len(traj.samples) < 5:
        return ResidualReport(value=0.0, discretization_order=4, warning="trajectory too short for a residual")
    worst = traj.rhs.kernel.residual(*traj.rhs.coeffs, traj.samples, traj.step)
    return ResidualReport(value=worst, discretization_order=4)


# -- export -----------------------------------------------------------------------------


def _sample_rows(traj: Trajectory) -> str:
    """One CSV row per sample, the reprs of t and the state components joined
    by commas, the rows joined by CRLFs."""
    return "\r\n".join([",".join(map(repr, (t, *state))) for t, state in traj.samples])


def write_csv(traj: Trajectory, path: str) -> str:
    """Columns: t, then one column per state component; lines end in CRLF.
    No field needs quoting: state names come from the catalog and values
    are float reprs.  Returns the sample rows, for ``write_json``."""
    rows = _sample_rows(traj)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(("t", *traj.state_names)) + "\r\n" + (rows + "\r\n" if rows else ""))
    return rows


def _trajectory_head(traj: Trajectory) -> dict:
    return {
        "family": traj.family.value,
        "form": traj.form,
        "params": list(traj.params),
        "state": list(traj.state_names),
        "status": traj.status.value,
        "blowup_t": traj.blowup_t,
        "step": traj.step,
    }


def trajectory_json(traj: Trajectory) -> dict:
    return {**_trajectory_head(traj), "samples": [[t, *state] for t, state in traj.samples]}


def write_json(traj: Trajectory, path: str, rows: str | None = None) -> None:
    """``json.dumps(trajectory_json(traj))``.  The samples are spliced in from
    their CSV rows (``rows`` as ``write_csv`` returned them, or formatted
    here): json writes an int or a finite float as its repr.  Rows holding
    an "n" (nan, inf or anything else) go through ``json.dumps``."""
    rows = _sample_rows(traj) if rows is None else rows
    if "n" in rows:
        text = json.dumps(trajectory_json(traj))
    else:
        samples = "[[" + rows.replace(",", ", ").replace("\r\n", "], [") + "]]" if rows else "[]"
        text = json.dumps(_trajectory_head(traj))[:-1] + ', "samples": ' + samples + "}"
    with open(path, "w") as fh:
        fh.write(text)
