"""Seeded query generators for the two workloads.

Every query is a ``--batch`` line plus what the benchmark expects of its
record.  Shares are fixed counts per category, so two seeds differ only in
the values drawn, not in the mix; only the values come from the seed.
Leading negative parameters use the ``--params=VALUE`` form.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from oracle import (
    DIMENSION,
    NO,
    ORBIT_GENERATORS,
    YES,
    Lin,
    apply_word,
    atom,
    bounded,
    expected_stratum,
    generic,
    orbit_criterion,
    rhs,
)

ARITY = {"I": 0, "II": 1, "III": 2, "IV": 3, "V": 4, "VI": 4}
SUM_ZERO = {"IV", "V"}
DENOMINATORS = (3, 5, 7, 9, 11, 13)


class Query:
    __slots__ = ("line", "kind", "expect")

    def __init__(self, line: str, kind: str, expect: dict):
        self.line = line
        self.kind = kind
        self.expect = expect


def _params(values) -> str:
    return ",".join(v.text() for v in values)


def _spread(total: int, kinds) -> list[tuple[str, int]]:
    base, extra = divmod(total, len(kinds))
    return [(k, base + (i < extra)) for i, k in enumerate(kinds)]


class Draw:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def int(self, lo=-6, hi=6) -> int:
        return self.rng.randint(lo, hi)

    def frac(self) -> Fraction:
        """A rational off every small coset: denominator 3..13, never 1, 2 or 4."""
        d = self.rng.choice(DENOMINATORS)
        n = self.rng.randint(-4 * d, 4 * d)
        while n % d == 0:
            n += 1
        return Fraction(n, d)

    def rat(self) -> Lin:
        return Lin(self.frac())

    def closing(self, values) -> list[Lin]:
        """Append the coordinate that makes a sum-zero tuple."""
        return list(values) + [-sum(values, Lin())]

    def generic(self, family: str, first_atom: int) -> list[Lin]:
        """Parameters of full transcendence degree, over tau<first_atom>, ..."""
        values = []
        for i in range(DIMENSION[family]):
            v = Lin(self.frac()) + atom(f"tau{first_atom + i}", self.rng.choice((1, 2, -1, Fraction(1, 2))))
            if i and self.rng.random() < 0.5:
                v = v + atom(f"tau{first_atom + i - 1}", self.int(-2, 2))
            values.append(v)
        values = self.closing(values) if family in SUM_ZERO else values
        if not generic(family, values):  # pragma: no cover - the triangular draw is always generic
            raise RuntimeError(f"non-generic {family} draw")
        return values


# -- classify -------------------------------------------------------------------------

CLASSIFY_KINDS = {
    "I": ["generic"],
    "II": ["half-integer", "integer", "generic", "tau", "alg", "undecided"],
    "III": ["D1", "W1", "generic", "tau", "alg", "undecided"],
    "IV": ["D", "W", "generic", "tau", "undecided"],
    "V": ["D", "S1", "S2", "W", "generic", "tau", "undecided"],
    "VI": ["D", "L", "P", "M", "M-special", "generic", "tau", "undecided"],
}

# Category -> stratum the template is built to land on (None: undecided).
_TARGET = {
    ("II", "integer"): "generic", ("II", "tau"): "generic", ("II", "alg"): "generic",
    ("III", "tau"): "W1", ("III", "alg"): "W1",
    ("IV", "tau"): "W", ("V", "tau"): "W", ("VI", "tau"): "M", ("VI", "M-special"): "M",
}


def _classify_values(family: str, kind: str, d: Draw) -> list[Lin]:
    n, f = d.int, d.frac
    if family == "I":
        return []
    if family == "II":
        return [{
            "half-integer": lambda: Lin(n() + Fraction(1, 2)),
            "integer": lambda: Lin(n()),
            "generic": d.rat,
            "tau": lambda: atom("tau1", d.rng.choice((1, 3, Fraction(1, 3)))) + f(),
            "alg": lambda: atom(f"alg{d.rng.randint(1, 3)}") + f(),
            "undecided": lambda: atom("alg1") - atom("alg2") + f(),
        }[kind]()]
    if family == "III":
        a = f()
        k = n()
        return {
            "D1": lambda: [Lin(k), Lin(k + 2 * n())],
            "W1": lambda: [Lin(a), Lin(a - 2 * k)],
            "generic": lambda: [Lin(a), Lin(f())],
            "tau": lambda: [atom("tau1") + a, atom("tau1") + a - 2 * k],
            "alg": lambda: [atom("alg1") + a, atom("alg1") + a + 2 * k],
            "undecided": lambda: [atom("alg1") + atom("alg2"), Lin(k)],
        }[kind]()
    if family == "IV":
        a = f()
        return {
            "D": lambda: d.closing([Lin(Fraction(n(), 3) + n()), Lin(Fraction(n(), 3))]),
            "W": lambda: d.closing([Lin(a + n()), Lin(a + n())]),
            "generic": lambda: d.closing([Lin(a), Lin(f())]),
            "tau": lambda: d.closing([atom("tau1") + a, atom("tau1") + a + n()]),
            "undecided": lambda: d.closing([atom("alg1"), atom("alg2") + n()]),
        }[kind]()
    if family == "V":
        a, b = f(), f()
        return {
            "D": lambda: d.closing([Lin(Fraction(n(), 4) + n()) for _ in range(3)]),
            "S1": lambda: d.closing([Lin(a + n()), Lin(a + n()), Lin(-a + Fraction(n(), 2))]),
            "S2": lambda: d.closing([Lin(a + n()), Lin(a + n()), Lin(a + n())]),
            "W": lambda: d.closing([Lin(a + n()), Lin(a + n()), Lin(b)]),
            "generic": lambda: d.closing([Lin(a), Lin(b), Lin(f())]),
            "tau": lambda: d.closing([atom("tau1") + a, atom("tau1") + a + n(), atom("tau2") + b]),
            "undecided": lambda: d.closing([atom("alg1"), atom("alg2"), Lin(a)]),
        }[kind]()
    if family == "VI":
        a, b, c = f(), f(), f()
        half = d.rng.choice((0, Fraction(1, 2)))
        return {
            "D": lambda: [Lin(half + n()) for _ in range(4)],
            "L": lambda: [Lin(a + n()), Lin(-a + n()), Lin(a + n()), Lin(-a + n())],
            "P": lambda: [Lin(a + n()), Lin(-a + n()), Lin(b + n()), Lin(-b + n())],
            "M": lambda: [Lin(a + n()), Lin(-a + n()), Lin(b), Lin(c)],
            "M-special": lambda: [Lin(a), Lin(a - Fraction(1, 2) + n()), Lin(b), Lin(b + n())],
            "generic": lambda: [Lin(a), Lin(b), Lin(c), Lin(f())],
            "tau": lambda: [atom("tau1") + a, -atom("tau1") - a + n(), atom("tau2") + b, Lin(c)],
            "undecided": lambda: [atom("alg1"), atom("alg2"), Lin(a), Lin(b)],
        }[kind]()
    raise ValueError(family)


def _classify_query(family: str, kind: str, d: Draw) -> Query:
    target = None if kind == "undecided" else _TARGET.get((family, kind), kind)
    for _ in range(1000):
        values = _classify_values(family, kind, d)
        if expected_stratum(family, values) == target:
            break
    else:  # pragma: no cover - a template that cannot hit its target is a benchmark bug
        raise RuntimeError(f"classify template {family}/{kind} missed {target}")
    line = f"classify --family {family}"
    if values:
        line += f" --params={_params(values)}"
    return Query(line, f"classify {family} {kind}", {"family": family, "params": values, "stratum": target})


def classify_workload(rng: random.Random) -> list[Query]:
    d = Draw(rng)
    plan = [("I", "generic", 100)]
    for family in ("II", "III", "IV", "V", "VI"):
        plan += [(family, k, c) for k, c in _spread(380, CLASSIFY_KINDS[family])]
    queries = [_classify_query(f, k, d) for f, k, count in plan for _ in range(count)]
    rng.shuffle(queries)
    return queries


# -- orbit-verify: orbit and orthogonal queries ----------------------------------------


def _random_point(family: str, d: Draw, with_tau: bool) -> list[Lin]:
    free = ARITY[family] - (family in SUM_ZERO)
    values = [d.rat() for _ in range(free)]
    if with_tau:
        values[0] = values[0] + atom("tau1")
    return d.closing(values) if family in SUM_ZERO else values


def _word(family: str, d: Draw) -> list[str]:
    return [d.rng.choice(ORBIT_GENERATORS[family]) for _ in range(d.rng.randint(1, 6))]


def _related_pair(family: str, d: Draw):
    v = _random_point(family, d, with_tau=d.rng.random() < 1 / 3)
    return v, list(apply_word(family, _word(family, d), v))


def _unrelated_pair(family: str, d: Draw, by_tau: bool):
    for _ in range(1000):
        v = _random_point(family, d, with_tau=False)
        w = _random_point(family, d, with_tau=False)
        if by_tau:
            w[0] = w[0] + atom("tau1")
            if family in SUM_ZERO:
                w[-1] = w[-1] - atom("tau1")
        if orbit_criterion(family, v, w) == NO:
            return v, w
    raise RuntimeError(f"no unrelated {family} pair")  # pragma: no cover


def _orbit_query(family, v, w, related: bool) -> Query:
    line = f"orbit --family {family} --v={_params(v)} --w={_params(w)}"
    kind = f"orbit {family} {'related' if related else 'unrelated'}"
    return Query(line, kind, {"family": family, "v": v, "w": w, "related": YES if related else NO})


def _orthogonal_query(fam1, p1, fam2, p2, kind, verdict) -> Query:
    line = f"orthogonal --family1 {fam1} --family2 {fam2}"
    if p1:
        line += f" --params1={_params(p1)}"
    if p2:
        line += f" --params2={_params(p2)}"
    return Query(line, kind, {"family1": fam1, "params1": p1, "family2": fam2, "params2": p2, "verdict": verdict})


def _orbit_queries(d: Draw) -> list[Query]:
    queries = []
    for family in ("II", "III", "IV", "V", "VI"):
        for _ in range(19):
            v, w = _related_pair(family, d)
            queries.append(_orbit_query(family, v, w, related=True))
        for i in range(19):
            v, w = _unrelated_pair(family, d, by_tau=i % 2 == 0)
            queries.append(_orbit_query(family, v, w, related=False))
        for i in range(6):
            if family == "VI" or i % 2:
                v, w = _related_pair(family, d)
                queries.append(_orthogonal_query(family, v, family, w, f"orthogonal {family} related", "nonorthogonal"))
            else:
                v, w = d.generic(family, 1), d.generic(family, 5)
                queries.append(_orthogonal_query(family, v, family, w, f"orthogonal {family} generic", "orthogonal"))
    pairs = list(itertools.combinations(("I", "II", "III", "IV", "V", "VI"), 2))
    for i in range(35):
        f1, f2 = pairs[i % len(pairs)]
        if d.rng.random() < 0.5:
            f1, f2 = f2, f1
        queries.append(_orthogonal_query(f1, d.generic(f1, 1), f2, d.generic(f2, 5), "orthogonal cross-family", "orthogonal"))
    return queries


# -- orbit-verify: verify and integrate queries -----------------------------------------

INTEGRATE_KINDS = [
    ("I", None, 5),
    ("II", None, 5),
    ("II", "riccati+", 2),
    ("II", "riccati-", 2),
    ("III", None, 5),
    ("IV", None, 5),
    ("V", "system", 5),
    ("V", "QP", 5),
]
STEPS = (Fraction(1, 200), Fraction(1, 250), Fraction(1, 400), Fraction(1, 500))


def _small(d: Draw, scale=Fraction(1, 2)) -> Fraction:
    return Fraction(d.rng.randint(-8, 8), 16) * scale * 2


def _integrate_query(family, variant, d: Draw, out_dir: str, index: int) -> Query:
    """Draw until a coarse probe shows the solution staying small on the
    interval, so no seed puts a movable pole inside it."""
    for _ in range(1000):
        query = _integrate_draw(family, variant, d, out_dir, index)
        e = query.expect
        f = rhs(family, e["form"], [float(p.const) for p in e["params"]])
        if bounded(f, list(e["initial"]), e["t0"], e["t1"], 100, 8.0):
            return query
    raise RuntimeError(f"no bounded {family} trajectory")  # pragma: no cover


def _integrate_draw(family, variant, d: Draw, out_dir: str, index: int) -> Query:
    t0 = Fraction(d.rng.choice((4, 5, 6)), 4)
    span = d.rng.choice((Fraction(1, 2), Fraction(3, 4), Fraction(1)))
    step = d.rng.choice(STEPS)
    form = None
    sign = None
    if family == "I":
        params = []
        initial = [_small(d, Fraction(1, 4)), _small(d, Fraction(1, 4))]
    elif family == "II":
        if variant:
            sign = 1 if variant == "riccati+" else -1
            y0 = _small(d, Fraction(1, 4))
            params = [Lin(Fraction(sign, 2))]
            initial = [y0, sign * (y0 * y0 + t0 / 2)]
        else:
            params = [d.rat() * Fraction(1, 4)]
            initial = [_small(d), _small(d)]
    elif family == "III":
        params = [Lin(_small(d)), Lin(_small(d))]
        initial = [_small(d), _small(d)]
    elif family == "IV":
        params = d.closing([Lin(_small(d)), Lin(_small(d))])
        initial = [_small(d, Fraction(1, 4)), _small(d, Fraction(1, 4))]
        span = min(span, Fraction(3, 4))
    else:
        form = variant
        params = d.closing([Lin(_small(d)) for _ in range(3)])
        initial = [_small(d), _small(d)]
        if form == "QP":
            initial[0] = Fraction(d.rng.choice((-3, -2, 2, 3)), 8)  # keep Q away from 1
    t1 = t0 + span
    line = (
        f"integrate --family {family} --initial={','.join(_float(x) for x in initial)}"
        f" --t0 {_float(t0)} --t1 {_float(t1)} --step {_float(step)}"
    )
    if params:
        line += f" --params={_params(params)}"
    if form:
        line += f" --form {form}"
    out = None
    if index % 3 == 0:
        out = f"{out_dir}/traj{index}.csv"
        line += f" --out {out}"
    expect = {
        "family": family, "form": form or ("scalar" if family in ("I", "II") else "system"),
        "params": params, "initial": [float(x) for x in initial],
        "t0": float(t0), "t1": float(t1), "step": float(step), "riccati": sign, "out": out,
    }
    return Query(line, f"integrate {family} {variant or form or ''}".strip(), expect)


def _float(x) -> str:
    return repr(float(x))


def _verify_integrate_queries(d: Draw, out_dir: str) -> list[Query]:
    queries = []
    for target, count in (("riccati", 5), ("pv-change", 8), ("group-relations", 5)):
        queries += [Query(f"verify --target {target}", f"verify {target}", {"target": target})] * count
    index = 0
    for family, variant, count in INTEGRATE_KINDS:
        for _ in range(count):
            queries.append(_integrate_query(family, variant, d, out_dir, index))
            index += 1
    return queries


def orbit_verify_workload(rng: random.Random, out_dir: str) -> list[Query]:
    d = Draw(rng)
    queries = _orbit_queries(d) + _verify_integrate_queries(d, out_dir)
    rng.shuffle(queries)
    return queries


def build(workload: str, seed: int, out_dir: str) -> list[Query]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classify":
        return classify_workload(rng)
    if workload == "orbit-verify":
        return orbit_verify_workload(rng, out_dir)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(queries: list[Query]) -> list[Query]:
    """The first query of every category: one of every kind the workload sends."""
    seen, out = set(), []
    for q in queries:
        if q.kind not in seen:
            seen.add(q.kind)
            out.append(q)
    return out
