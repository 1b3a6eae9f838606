"""Differential-polynomial engine over Q with parameter symbols.

Expressions are fractions of multivariate polynomials in the time variable
``t``, parameter symbols, and formal jet variables (a state variable together
with its derivatives of each order).  The total-derivative operator D obeys
the Leibniz rule with D(t) = 1, D(parameter) = 0 and D(x^(k)) = x^(k+1) on
free jets.  Reduction rewrites derivatives modulo a triangular set of ODE
relations.  Equality of fractions is decided by cross-multiplication, so no
multivariate gcd machinery is needed.

Without a gcd, denominators are kept small by construction.  Substituting
v -> n_v/d_v into a polynomial brings every term over one common denominator,
prod(d_v^m_v) with m_v the top degree of v, instead of cross-multiplying the
terms into a running sum; and two fractions over the same denominator are
added by adding their numerators.

A coefficient is an ``int`` when integral and a ``Fraction`` otherwise, so the
mostly integral arithmetic of the verifications runs on ints.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence


Rational = Fraction | int

_PLAIN = -1  # derivative order used for non-jet symbols (t, parameters)


class Var(namedtuple("Var", "name order", defaults=(_PLAIN,))):
    """Ring variable: a plain symbol (order -1) or a jet variable x^(k)."""

    __slots__ = ()

    @property
    def is_jet(self) -> bool:
        return self.order >= 0

    def __str__(self) -> str:
        if not self.is_jet:
            return self.name
        if self.order <= 3:
            return self.name + "'" * self.order
        return f"{self.name}^({self.order})"


def sym(name: str) -> Var:
    """A plain (non-differential) symbol; D(sym) = 0 except D(t) = 1."""
    return Var(name, _PLAIN)


def jet(name: str, order: int = 0) -> Var:
    if order < 0:
        raise ValueError("jet order must be nonnegative")
    return Var(name, order)


T_VAR = sym("t")


def _coefficient(c: Rational) -> Fraction | int:
    """A rational coefficient in canonical form: an int when integral."""
    c = c if type(c) is int or type(c) is Fraction else Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Poly:
    """Multivariate polynomial: dense exponent tuples over a sorted tuple of
    the variables it uses, mapped to nonzero rational coefficients, each an
    ``int`` when integral and a ``Fraction`` otherwise."""

    __slots__ = ("vars", "terms", "_plan")

    vars: tuple[Var, ...]
    terms: dict[tuple[int, ...], Fraction | int]

    def __init__(self, vars: Sequence[Var], terms: Mapping[tuple[int, ...], Rational]):
        # Canonicalize: drop zero coefficients, prune unused variables,
        # keep the variable tuple sorted.
        vars = tuple(vars)
        clean = {exps: c if type(c) is int else _coefficient(c) for exps, c in terms.items() if c}
        used = [i for i in range(len(vars)) if any(e[i] for e in clean)]
        if len(used) != len(vars):
            vars = tuple(vars[i] for i in used)
            clean = {tuple(e[i] for i in used): c for e, c in clean.items()}
        if vars and list(vars) != sorted(vars):
            order = sorted(range(len(vars)), key=vars.__getitem__)
            vars = tuple(vars[i] for i in order)
            clean = {tuple(e[i] for i in order): c for e, c in clean.items()}
        self.vars = vars
        self.terms = clean
        self._plan = None

    @staticmethod
    def _canonical(vars: tuple[Var, ...], terms: dict[tuple[int, ...], Fraction | int]) -> "Poly":
        """A Poly from parts already in canonical form, without ``__init__``."""
        p = object.__new__(Poly)
        p.vars, p.terms, p._plan = vars, terms, None
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: Rational) -> "Poly":
        value = _coefficient(value)
        return Poly._canonical((), {(): value} if value else {})

    @staticmethod
    def var(v: Var) -> "Poly":
        return Poly._canonical((v,), {(1,): 1})

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get((), 0))

    def degree_in(self, v: Var) -> int:
        if v not in self.vars:
            return 0
        i = self.vars.index(v)
        return max((e[i] for e in self.terms), default=0)

    def variables(self) -> tuple[Var, ...]:
        return self.vars

    # -- alignment -----------------------------------------------------------

    def _aligned(self, target: tuple[Var, ...]) -> dict[tuple[int, ...], Fraction | int]:
        # Read-only for the caller: the result may be this polynomial's terms.
        if target == self.vars:
            return self.terms
        pos = {v: i for i, v in enumerate(target)}
        idx = [pos[v] for v in self.vars]
        out: dict[tuple[int, ...], Fraction | int] = {}
        for exps, c in self.terms.items():
            key = [0] * len(target)
            for i, e in zip(idx, exps):
                key[i] = e
            out[tuple(key)] = c
        return out

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly.sum((self, other))

    @staticmethod
    def sum(polys: Sequence["Poly"]) -> "Poly":
        """Sum of polynomials, collected in one pass."""
        vars = tuple(sorted({v for p in polys for v in p.vars}))
        terms: dict[tuple[int, ...], Fraction | int] = {}
        for p in polys:
            for exps, c in p._aligned(vars).items():
                terms[exps] = terms[exps] + c if exps in terms else c
        return Poly(vars, terms)

    def __neg__(self) -> "Poly":
        return Poly._canonical(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.const(0)
        vars = self.vars if self.vars == other.vars else tuple(sorted(set(self.vars) | set(other.vars)))
        a = self._aligned(vars)
        b = other._aligned(vars)
        terms: dict[tuple[int, ...], Fraction | int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(add, e1, e2))
                terms[key] = terms[key] + c1 * c2 if key in terms else c1 * c2
        # A product of nonzero polynomials uses every variable of its factors
        # (degrees add), so only cancelled coefficients are dropped.
        return Poly._canonical(vars, {e: c if type(c) is int else _coefficient(c) for e, c in terms.items() if c})

    def scale(self, q: Rational) -> "Poly":
        q = Fraction(q)
        return Poly(self.vars, {e: c * q for e, c in self.terms.items()})

    def power(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    # -- calculus ----------------------------------------------------------------

    def _var_derivative(self, v: Var) -> "Poly | None":
        if v.is_jet:
            return Poly.var(Var(v.name, v.order + 1))
        if v == T_VAR:
            return Poly.const(1)
        return None  # parameter: derivative 0

    def total_derivative(self) -> "Poly":
        parts = []
        for exps, c in self.terms.items():
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                dv = self._var_derivative(self.vars[i])
                if dv is None:
                    continue
                rest = list(exps)
                rest[i] = e - 1
                parts.append(Poly(self.vars, {tuple(rest): c * e}) * dv)
        return Poly.sum(parts)

    # -- substitution and evaluation ------------------------------------------------

    def substitute(self, mapping: Mapping[Var, "DiffExpr"]) -> "DiffExpr":
        """Replace each mapped variable v by n_v/d_v over one common denominator.

        With m_v the top degree of v here, every term is brought to
        prod(d_v^m_v): its factor v^e becomes n_v^e * d_v^(m_v - e), read from
        per-variable power tables.  No term is cross-multiplied into a running
        sum, so the denominator is prod(d_v^m_v) and not a product over terms.
        """
        return DiffExpr(self).substitute(mapping)

    def _top_degrees(self, mapping: Mapping[Var, "DiffExpr"]) -> dict[Var, int]:
        """Top degree of each mapped variable that occurs here."""
        return {v: self.degree_in(v) for v in self.vars if v in mapping}

    def _cleared(self, tables: Mapping[Var, list["Poly"]]) -> "Poly":
        """This polynomial with each factor v^e replaced by tables[v][e].

        ``tables`` may name variables that do not occur here (exponent 0).
        Terms that share their exponents in the tabled variables are
        multiplied by the table factors once.
        """
        pos = {v: i for i, v in enumerate(self.vars)}
        mapped = [pos.get(v) for v in tables]
        kept = [i for i, v in enumerate(self.vars) if v not in tables]
        kept_vars = tuple(self.vars[i] for i in kept)
        groups: dict[tuple[int, ...], dict[tuple[int, ...], Fraction | int]] = {}
        for exps, c in self.terms.items():
            key = tuple(0 if i is None else exps[i] for i in mapped)
            groups.setdefault(key, {})[tuple(exps[i] for i in kept)] = c
        parts = []
        for key, terms in groups.items():
            part = Poly(kept_vars, terms)
            for row, e in zip(tables.values(), key):
                part = part * row[e]
            parts.append(part)
        return Poly.sum(parts)

    def evaluate(self, point: Mapping[Var, Rational]) -> Fraction:
        """Exact value at a rational point, summed over one common denominator.

        With vars[i] = n_i/d_i of top degree m_i, a monomial is
        prod(n_i^e_i * d_i^(m_i - e_i)) / prod(d_i^m_i); a per-point table of
        those integer factors leaves only integer products in the sum.  The m_i
        and the coefficients as integers over their lcm are kept as a plan.
        """
        if self._plan is None:
            coeff_den = math.lcm(*(c.denominator for c in self.terms.values()))
            coeffs = [(exps, c.numerator * (coeff_den // c.denominator)) for exps, c in self.terms.items()]
            self._plan = (tuple(map(max, zip(*self.terms))), coeffs, coeff_den)
        tops, coeffs, coeff_den = self._plan
        scaled = []  # scaled[i][e] = n_i^e * d_i^(m_i - e)
        den = 1
        for v, top in zip(self.vars, tops):
            x = point[v]
            n, d = x.numerator, x.denominator
            scaled.append([n**e * d ** (top - e) for e in range(top + 1)])
            den *= d**top
        total = 0
        for exps, term in coeffs:
            for row, e in zip(scaled, exps):
                term *= row[e]
            total += term
        return Fraction(total, den * coeff_den)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            factors = [
                (str(self.vars[i]) if e == 1 else f"{self.vars[i]}^{e}")
                for i, e in enumerate(exps)
                if e
            ]
            if not factors:
                chunks.append(str(c))
            elif c == 1:
                chunks.append("*".join(factors))
            elif c == -1:
                chunks.append("-" + "*".join(factors))
            else:
                chunks.append(str(c) + "*" + "*".join(factors))
        out = chunks[0]
        for ch in chunks[1:]:
            out += " - " + ch[1:] if ch.startswith("-") else " + " + ch
        return out

    __repr__ = __str__


def _powers(p: Poly, k: int) -> list[Poly]:
    """[p^0, p^1, ..., p^k]."""
    out = [Poly.const(1)]
    for _ in range(k):
        out.append(out[-1] * p)
    return out


def _factor_tables(mapping: Mapping[Var, "DiffExpr"], tops: Mapping[Var, int]) -> dict[Var, list[Poly]]:
    """tables[v][e] = n_v^e * d_v^(m - e) for v -> n_v/d_v of top degree m."""
    tables = {}
    for v, m in tops.items():
        nums = _powers(mapping[v].num, m)
        dens = _powers(mapping[v].den, m)
        tables[v] = [nums[e] * dens[m - e] for e in range(m + 1)]
    return tables


class DiffExpr:
    """Fraction of two polynomials; denominator never identically zero."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        den = Poly.const(1) if den is None else den
        if den.is_zero:
            raise ZeroDivisionError("denominator is identically zero")
        if den.is_constant:
            c = den.constant_value()
            if c != 1:
                num = num.scale(Fraction(1) / c)
                den = Poly.const(1)
        self.num = num
        self.den = den

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def const(value: Rational) -> "DiffExpr":
        return DiffExpr(Poly.const(value))

    @staticmethod
    def var(v: Var) -> "DiffExpr":
        return DiffExpr(Poly.var(v))

    @staticmethod
    def t() -> "DiffExpr":
        return DiffExpr.var(T_VAR)

    # -- coercion ----------------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "DiffExpr":
        if isinstance(x, DiffExpr):
            return x
        if isinstance(x, (int, Fraction)):
            return DiffExpr.const(x)
        if isinstance(x, Var):
            return DiffExpr.var(x)
        raise TypeError(f"cannot coerce {x!r} to DiffExpr")

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other):
        other = DiffExpr._coerce(other)
        if self.den == other.den:
            return DiffExpr(self.num + other.num, self.den)
        return DiffExpr(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return DiffExpr(-self.num, self.den)

    def __sub__(self, other):
        return self + (-DiffExpr._coerce(other))

    def __rsub__(self, other):
        return (-self) + DiffExpr._coerce(other)

    def __mul__(self, other):
        other = DiffExpr._coerce(other)
        return DiffExpr(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = DiffExpr._coerce(other)
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero expression")
        return DiffExpr(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return DiffExpr._coerce(other) / self

    def power(self, k: int) -> "DiffExpr":
        if k < 0:
            return DiffExpr.const(1) / self.power(-k)
        return DiffExpr(self.num.power(k), self.den.power(k))

    # -- queries -----------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def equals(self, other) -> bool:
        """Exact equality by cross-multiplication."""
        other = DiffExpr._coerce(other)
        return (self.num * other.den - other.num * self.den).is_zero

    def variables(self) -> tuple[Var, ...]:
        return tuple(sorted(set(self.num.vars) | set(self.den.vars)))

    def constant_value(self) -> Fraction:
        if not (self.num.is_constant and self.den.is_constant):
            raise ValueError("expression is not constant")
        return self.num.constant_value() / self.den.constant_value()

    # -- calculus -------------------------------------------------------------------------

    def total_derivative(self) -> "DiffExpr":
        dn = self.num.total_derivative()
        dd = self.den.total_derivative()
        if dd.is_zero:
            return DiffExpr(dn, self.den)
        return DiffExpr(dn * self.den - self.num * dd, self.den * self.den)

    def substitute(self, mapping: Mapping[Var, "DiffExpr"]) -> "DiffExpr":
        """Numerator and denominator are both brought over the common
        denominator of ``Poly.substitute`` for their joint top degrees, which
        then cancels."""
        tops = self.den._top_degrees(mapping)
        for v, m in self.num._top_degrees(mapping).items():
            tops[v] = max(m, tops.get(v, 0))
        if not tops:
            return self
        tables = _factor_tables(mapping, tops)
        den = self.den._cleared(tables)
        if den.is_zero:
            raise ZeroDivisionError("denominator vanished identically after substitution")
        return DiffExpr(self.num._cleared(tables), den)

    def evaluate(self, point: Mapping[Var, Rational]) -> Fraction:
        den = self.den.evaluate(point)
        if den == 0:
            raise ZeroDivisionError("denominator vanished at the evaluation point")
        return self.num.evaluate(point) / den

    def __eq__(self, other):
        if isinstance(other, (DiffExpr, int, Fraction)):
            return self.equals(other)
        return NotImplemented

    def __hash__(self):
        raise TypeError("DiffExpr is unhashable (equality is by cross-multiplication)")

    def __str__(self) -> str:
        if self.den.is_constant and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


class RelationSet:
    """Triangular substitution rules x^(k) -> expression, derived from an ODE.

    Rules for higher derivatives are obtained by prolongation (differentiate
    the previous rule, then reduce it) on demand and cached.  Each cached
    rule is in normal form: it mentions no derivative that itself has a rule.
    """

    def __init__(self, rules: Mapping[Var, DiffExpr]):
        for v in rules:
            if not v.is_jet or v.order < 1:
                raise ValueError("relation rules must rewrite derivatives of order >= 1")
        self._base = dict(rules)
        self._min_order = {}
        for v in rules:
            cur = self._min_order.get(v.name)
            self._min_order[v.name] = v.order if cur is None else min(cur, v.order)
        self._normal: dict[Var, DiffExpr] = {}

    def has_rule(self, v: Var) -> bool:
        if not v.is_jet:
            return False
        m = self._min_order.get(v.name)
        return m is not None and v.order >= m

    def normal_rule(self, v: Var) -> DiffExpr:
        if v in self._normal:
            return self._normal[v]
        if v in self._base:
            out = reduce(self._base[v], self)
        else:
            if not self.has_rule(v):
                raise KeyError(f"no rule for {v}")
            lower = self.normal_rule(Var(v.name, v.order - 1))
            out = reduce(lower.total_derivative(), self)
        self._normal[v] = out
        return out


def relations_for_system(state_vars: Sequence[str], order: int, rhs: Sequence[DiffExpr]) -> RelationSet:
    """Build the rewrite rules for a first-order system (order 1, one rule per
    state variable) or a scalar equation of higher order (single rule)."""
    if order == 1:
        if len(state_vars) != len(rhs):
            raise ValueError("one right-hand side per state variable expected")
        return RelationSet({jet(name, 1): expr for name, expr in zip(state_vars, rhs)})
    if len(state_vars) != 1 or len(rhs) != 1:
        raise ValueError("scalar equations carry a single state variable")
    return RelationSet({jet(state_vars[0], order): rhs[0]})


def reduce(e: DiffExpr, rels: RelationSet) -> DiffExpr:
    """Fixpoint of substitution: the result contains no derivative that has a
    rule (explicit or obtained by prolongation)."""
    e = DiffExpr._coerce(e)
    while True:
        pending = [v for v in e.variables() if rels.has_rule(v)]
        if not pending:
            return e
        e = e.substitute({v: rels.normal_rule(v) for v in pending})


# -- verifications driven by the cataloged systems -----------------------------


def verify_riccati(sign: int) -> Fraction:
    """Reduce y'' - 2y^3 - ty modulo y' = sign*(y^2 + t/2) and return the
    unique constant alpha for which the full residual vanishes identically.
    """
    from . import odes

    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    rels = RelationSet(odes.riccati_rules(sign))
    y = DiffExpr.var(jet("y", 0))
    target = DiffExpr.var(jet("y", 2)) - 2 * y.power(3) - DiffExpr.t() * y
    residual = reduce(target, rels)
    return residual.constant_value()


ChangeOfVariablesReport = namedtuple("ChangeOfVariablesReport", "identity_q identity_p residuals excluded_loci notes")


def pv_change_of_variables_exprs() -> tuple[DiffExpr, DiffExpr]:
    """The substitution q = Q/(Q-1), p = -(Q-1)^2 P + (v3-v1)(Q-1)."""
    Q = DiffExpr.var(jet("Q", 0))
    P = DiffExpr.var(jet("P", 0))
    v1 = DiffExpr.var(sym("v1"))
    v3 = DiffExpr.var(sym("v3"))
    one = DiffExpr.const(1)
    q_expr = Q / (Q - one)
    p_expr = -(Q - one).power(2) * P + (v3 - v1) * (Q - one)
    return q_expr, p_expr


def _pv_residuals() -> tuple[DiffExpr, DiffExpr]:
    from .catalog import Family
    from .odes import ode_system

    qp = ode_system(Family.PV, form="system")
    QP = ode_system(Family.PV, form="QP")
    rels = QP.relations()
    q_expr, p_expr = pv_change_of_variables_exprs()
    state_map = {jet("q", 0): q_expr, jet("p", 0): p_expr}
    t = DiffExpr.t()
    residuals = []
    for target_expr, rhs in zip((q_expr, p_expr), qp.rhs):
        lhs = reduce(t * target_expr.total_derivative(), rels)
        rhs_sub = t * rhs.substitute(state_map)
        residuals.append(lhs - rhs_sub)
    return residuals[0], residuals[1]


def verify_pv_change_of_variables() -> ChangeOfVariablesReport:
    """Check symbolically that the chart substitution carries the (Q, P)
    system onto the displayed (q, p) system, on the hyperplane sum(v) = 0.

    Both residuals are cross-multiplied to polynomial form; the zero test
    substitutes v4 = -(v1 + v2 + v3), since the parameter space is that
    hyperplane.  The loci t = 0 and Q = 1 are excluded (cleared denominators).
    The report carries the residuals, so that ``pv_random_point_check`` can
    evaluate them without deriving them again.
    """
    residuals = _pv_residuals()
    v4 = -(DiffExpr.var(sym("v1")) + DiffExpr.var(sym("v2")) + DiffExpr.var(sym("v3")))
    on_plane = [r.substitute({sym("v4"): v4}) for r in residuals]
    return ChangeOfVariablesReport(
        identity_q=on_plane[0].is_zero,
        identity_p=on_plane[1].is_zero,
        residuals=residuals,
        excluded_loci=("t = 0", "Q = 1"),
        notes=(
            "zero test performed on the hyperplane v1 + v2 + v3 + v4 = 0"
            " (v4 eliminated); the residuals are nonzero off that hyperplane",
        ),
    )


def pv_random_point_check(
    points: int = 25,
    seed: int = 0,
    residuals: tuple[DiffExpr, DiffExpr] | None = None,
) -> tuple[int, bool]:
    """Secondary oracle for the chart change: evaluate both residuals at
    random rational points on the parameter hyperplane (redrawing any point
    on an excluded locus).  Returns (points evaluated, all residuals zero).
    ``residuals`` defaults to deriving them afresh, as
    ``verify_pv_change_of_variables`` does."""
    import random

    rng = random.Random(seed)
    res_q, res_p = residuals if residuals is not None else _pv_residuals()

    def rand_frac() -> Fraction:
        return Fraction(rng.randint(-12, 12), rng.randint(1, 5))

    checked = 0
    all_zero = True
    while checked < points:
        v = [rand_frac() for _ in range(3)]
        point = {
            T_VAR: rand_frac(),
            jet("Q", 0): rand_frac(),
            jet("P", 0): rand_frac(),
            sym("v1"): v[0],
            sym("v2"): v[1],
            sym("v3"): v[2],
            sym("v4"): -(v[0] + v[1] + v[2]),
        }
        try:
            values = (res_q.evaluate(point), res_p.evaluate(point))
        except ZeroDivisionError:
            continue
        checked += 1
        if any(x != 0 for x in values):
            all_zero = False
    return checked, all_zero


def verify_group_relation(family, word: Sequence[str], expected) -> bool:
    """Exact equality between the composed generator word and an affine map."""
    from . import weyl

    return weyl.word_map(family, tuple(word)) == expected
