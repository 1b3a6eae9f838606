"""Independent checks of each NDJSON record against the query that made it.

A check returns None when the record is right and a short reason when it is
not.  Expected values come from ``oracle`` (exact), sympy (the symbolic
identities), mpmath and scipy (the trajectories); nothing is compared against a
stored copy of the program's output.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache

from oracle import (
    YES,
    apply_token,
    apply_word,
    expected_degree,
    generic_point,
    parse,
    pvi_half_integer_special,
    rhs,
)


def _verdicts(record) -> dict:
    return {v["kind"]: v["value"] for v in record.get("verdicts", [])}


def _same_params(printed, values) -> bool:
    return len(printed) == len(values) and all(parse(p) == v for p, v in zip(printed, values))


def echoes(query, record) -> bool:
    """Does the record's echoed query belong to this query line?"""
    e, q = query.expect, record.get("query", {})
    sub = query.line.split()[0]
    if q.get("subcommand") != sub:
        return False
    if sub == "classify":
        return q["family"] == e["family"] and _same_params(q["params"], e["params"])
    if sub == "orbit":
        return q["family"] == e["family"] and _same_params(q["v"], e["v"]) and _same_params(q["w"], e["w"])
    if sub == "orthogonal":
        return (
            q["family1"] == e["family1"] and q["family2"] == e["family2"]
            and _same_params(q["params1"], e["params1"]) and _same_params(q["params2"], e["params2"])
        )
    if sub == "verify":
        return q["target"] == e["target"]
    if sub == "integrate":
        return (
            q["family"] == e["family"] and q["form"] == e["form"] and _same_params(q["params"], e["params"])
            and (q["t0"], q["t1"], q["step"]) == (e["t0"], e["t1"], e["step"])
        )
    return False


def check(query, record) -> str | None:
    sub = query.line.split()[0]
    return {
        "classify": check_classify,
        "orbit": check_orbit,
        "orthogonal": check_orthogonal,
        "verify": check_verify,
        "integrate": check_integrate,
    }[sub](query.expect, record)


# -- classify -----------------------------------------------------------------------


def check_classify(e, record) -> str | None:
    v = _verdicts(record)
    if v.get("morley-rank") != 1:
        return f"morley-rank {v.get('morley-rank')!r}, the theorem says 1"
    degree, minimal = v.get("morley-degree"), v.get("strongly-minimal")
    if (minimal == "yes") != (degree == 1) or (minimal == "unknown") != (degree == "unknown"):
        return f"strongly-minimal {minimal!r} with degree {degree!r}"
    want = e["stratum"]
    if v.get("stratum") != (want if want is not None else "unknown"):
        return f"stratum {v.get('stratum')!r}, expected {want or 'unknown'!r}"
    if want is not None:
        want_degree = expected_degree(e["family"], want, e["params"])
        if degree != (want_degree if want_degree is not None else "unknown"):
            return f"degree {degree!r}, expected {want_degree!r}"
        if e["family"] == "VI" and want == "M":
            special = pvi_half_integer_special(e["params"])
            if v.get("half-integer-special") != special:
                return f"half-integer-special {v.get('half-integer-special')!r}, expected {special!r}"
    return None


# -- orbit and orthogonal ----------------------------------------------------------


def check_orbit(e, record) -> str | None:
    family, v, w = e["family"], e["v"], e["w"]
    related = _verdicts(record).get("related")
    if related != e["related"]:
        return f"related {related!r}, expected {e['related']!r}"
    witness = record.get("witness") or {}
    if all(k in witness for k in ("perm", "signs", "shift")):
        perm, signs = witness["perm"], witness["signs"]
        shift = [parse(s) for s in witness["shift"]]
        if [v[perm[j]] * signs[j] + shift[j] for j in range(len(v))] != list(w):
            return "witness does not map v to w"
    if e["related"] == YES:
        word = record.get("word")
        if word is None:
            return f"no generator word for a pair built by a word ({record.get('word_reason')})"
        try:
            image = apply_word(family, word, v)
        except KeyError as err:
            return f"word uses unknown generator {err}"
        if list(image) != list(w):
            return f"word {' '.join(word)} does not map v to w"
    return None


def check_orthogonal(e, record) -> str | None:
    got = _verdicts(record).get("orthogonality")
    return None if got == e["verdict"] else f"orthogonality {got!r}, expected {e['verdict']!r}"


# -- verify ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def riccati_alphas() -> tuple[str, str]:
    """alpha for which y' = s*(y^2 + t/2) solves y'' = 2y^3 + t*y + alpha, s = +1, -1."""
    from sympy import Function, Symbol, diff, solve, symbols

    t = symbols("t")
    y = Function("y")(t)
    alpha = Symbol("alpha")
    out = []
    for s in (1, -1):
        yp = s * (y**2 + t / 2)
        ypp = diff(yp, t).subs(diff(y, t), yp)
        (value,) = solve(ypp - 2 * y**3 - t * y - alpha, alpha)
        out.append(str(value))
    return out[0], out[1]


@lru_cache(maxsize=None)
def pv_chart_identities() -> tuple[bool, bool]:
    """Does q = Q/(Q-1), p = -(Q-1)^2 P + (v3-v1)(Q-1) carry the (Q, P) system
    onto the (q, p) system on the hyperplane v1 + v2 + v3 + v4 = 0?"""
    from sympy import cancel, diff, symbols

    t, Q, P, v1, v2, v3 = symbols("t Q P v1 v2 v3")
    v4 = -(v1 + v2 + v3)
    dQ, dP = rhs("V", "QP", (v1, v2, v3, v4))(t, [Q, P])
    q = Q / (Q - 1)
    p = -((Q - 1) ** 2) * P + (v3 - v1) * (Q - 1)
    rq, rp = rhs("V", "system", (v1, v2, v3, v4))(t, [q, p])
    dq = diff(q, Q) * dQ + diff(q, P) * dP
    dp = diff(p, Q) * dQ + diff(p, P) * dP
    return cancel(dq - rq) == 0, cancel(dp - rp) == 0


@lru_cache(maxsize=None)
def group_relations() -> dict[str, bool]:
    x3, x4 = generic_point(3), generic_point(4)
    return {
        "piv-s0-composite": apply_word("IV", ("tminus", "s1", "s2", "s1", "tminus^-1"), x3)
        == apply_token("IV", "s0", x3),
        "pv-composite": apply_word("V", ("tminus", "s3", "s1", "s2", "s1", "s3", "tminus^-1"), x4)
        == (x4[0], x4[3] + 1, x4[2], x4[1] - 1),
        "piii-s1-involution": apply_word("III", ("s1", "s1"), generic_point(2)) == generic_point(2),
    }


def check_verify(e, record) -> str | None:
    v = _verdicts(record)
    target = e["target"]
    if target == "riccati":
        plus, minus = riccati_alphas()
        got = (v.get("riccati-matched-alpha-plus"), v.get("riccati-matched-alpha-minus"))
        return None if got == (plus, minus) else f"riccati alphas {got}, expected {(plus, minus)}"
    if target == "pv-change":
        want_q, want_p = pv_chart_identities()
        if (v.get("chart-identity-q"), v.get("chart-identity-p")) != (want_q, want_p):
            return "chart identities disagree with the sympy check"
        points = v.get("random-point-check") or {}
        if points.get("all_zero") is not True or not points.get("points"):
            return f"random-point-check {points}"
        return None
    if target == "group-relations":
        want = group_relations()
        got = {k: v.get(k) for k in want}
        return None if got == want else f"group relations {got}, expected {want}"
    return f"unknown verify target {target}"


# -- integrate -------------------------------------------------------------------------


def reference_final(e) -> list[float]:
    """High-precision final state from mpmath's Taylor-series ODE solver."""
    import mpmath

    with mpmath.workdps(15):
        params = [mpmath.mpf(p.const.numerator) / p.const.denominator for p in e["params"]]
        f = rhs(e["family"], e["form"], params)
        solution = mpmath.odefun(f, mpmath.mpf(e["t0"]), [mpmath.mpf(x) for x in e["initial"]])
        return [float(x) for x in solution(mpmath.mpf(e["t1"]))]


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol * (1 + abs(b))


RK4_TOL = 1e-6  # RK4 at h <= 1/200 over at most one time unit: global error well below this
# The program's residual is the five-point stencil applied to its RK4 samples;
# the stencil applied to the exact solution on the same grid differs from it
# only by the RK4 error's share of the stencil, a few percent of the value,
# plus the reference solver's own error (about 1e-11 at these steps).
RESIDUAL_REL_TOL = 0.2
RESIDUAL_ABS_TOL = 1e-8


def reference_residual(e) -> float:
    """Max deviation between the five-point fourth-order derivative stencil
    and the right-hand side, both evaluated on an accurate solution (scipy's
    DOP853 at tolerance 1e-13) sampled on the program's grid: the step snapped
    so that it divides the span."""
    import numpy as np
    from scipy.integrate import solve_ivp

    f = rhs(e["family"], e["form"], [float(p.const) for p in e["params"]])
    t0, t1 = e["t0"], e["t1"]
    n = max(1, round((t1 - t0) / e["step"]))
    h = (t1 - t0) / n
    ts = t0 + h * np.arange(n + 1)
    ts[-1] = t1
    xs = solve_ivp(f, (t0, t1), e["initial"], method="DOP853", rtol=1e-13, atol=1e-13, t_eval=ts).y.T
    worst = 0.0
    for i in range(2, n - 1):
        stencil = (-xs[i + 2] + 8 * xs[i + 1] - 8 * xs[i - 1] + xs[i - 2]) / (12 * h)
        worst = max(worst, float(np.max(np.abs(stencil - np.asarray(f(ts[i], xs[i]))))))
    return worst


def check_integrate(e, record) -> str | None:
    if record.get("status") != "completed":
        return f"status {record.get('status')!r}"
    final = record.get("final") or []
    if len(final) != 3 or abs(final[0] - e["t1"]) > 1e-9:
        return f"final sample {final} does not end at t1 = {e['t1']}"
    want = reference_final(e)
    if not all(_close(a, b, RK4_TOL) for a, b in zip(final[1:], want)):
        return f"final state {final[1:]} differs from the mpmath solve {want}"
    if e["riccati"] is not None:
        y, dy = final[1], final[2]
        on_locus = e["riccati"] * (y * y + e["t1"] / 2)
        if not _close(dy, on_locus, RK4_TOL):
            return f"left the Riccati locus: y' = {dy}, expected {on_locus}"
    residual = (record.get("residual") or {}).get("value")
    if not isinstance(residual, float) or not math.isfinite(residual):
        return f"residual {residual!r}"
    want = reference_residual(e)
    if abs(residual - want) > RESIDUAL_REL_TOL * want + RESIDUAL_ABS_TOL:
        return f"residual {residual!r}, the stencil on the scipy solve gives {want!r}"
    if e["out"]:
        if record.get("csv") != e["out"]:
            return f"csv path {record.get('csv')!r}"
        with open(e["out"], newline="") as fh:
            last = list(csv.reader(fh))[-1]
        if [float(x) for x in last] != final:
            return "last CSV row differs from the final state"
        with open(e["out"] + ".json") as fh:
            if json.load(fh)["samples"][-1] != final:
                return "last JSON sample differs from the final state"
    return None
