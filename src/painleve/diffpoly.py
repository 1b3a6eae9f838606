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
mostly integral arithmetic of the verifications runs on ints.  A monomial is
one packed int key: every variable gets a process-wide index, and its exponent
a 16-bit field (at most MAX_EXPONENT = 65535) with a guard bit above it.  A
product of monomials is the sum of their keys, and an exponent past the bound
raises ExponentOverflowError.  Printing, hashing and every other order-
dependent view go through the canonical ``Var`` order, never the index order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
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


def _clean(terms: dict[int, Fraction | int]) -> dict[int, Fraction | int]:
    """``terms`` without zero coefficients, each coefficient canonical."""
    return {k: c if type(c) is int else _coefficient(c) for k, c in terms.items() if c}


# -- packed monomials ------------------------------------------------------------
#
# Every variable gets a process-wide index on first use, and a monomial is one
# int: the exponent of the variable with index i sits in bits 17i to 17i + 15,
# and bit 17i + 16 is that field's guard bit.  Multiplying monomials adds their
# keys.  While every exponent stays within MAX_EXPONENT no field carries into
# the next; a sum that does not sets its guard bit, which is checked.

_FIELD = 17
MAX_EXPONENT = (1 << 16) - 1
_INDEX: dict[Var, int] = {}
_GUARDS = 0  # the guard bit of every indexed variable


class ExponentOverflowError(ArithmeticError):
    """A monomial exponent exceeds MAX_EXPONENT."""


def _shift(v: Var) -> int:
    """Bit offset of v's exponent field, indexing v on first use."""
    i = _INDEX.get(v)
    if i is None:
        global _GUARDS
        i = _INDEX[v] = len(_INDEX)
        _GUARDS |= 1 << (_FIELD * i + 16)
    return _FIELD * i


def _check_guards(keys) -> None:
    if any(k & _GUARDS for k in keys):
        raise ExponentOverflowError(f"a monomial exponent exceeds {MAX_EXPONENT}")


def _support(terms: Mapping[int, object]) -> int:
    """Bitwise or of the keys: a field is nonzero iff its variable occurs."""
    acc = 0
    for k in terms:
        acc |= k
    return acc


class Poly:
    """Multivariate polynomial: packed monomial keys mapped to nonzero rational
    coefficients, each an ``int`` when integral and a ``Fraction`` otherwise.

    ``vars`` (the variables used, sorted) and ``dense_terms`` (exponent tuples
    over ``vars``) give the canonical view; printing, hashing and anything
    else that depends on term order reads that view, never the key order."""

    __slots__ = ("terms", "_vars")

    terms: dict[int, Fraction | int]

    def __init__(self, vars: Sequence[Var], terms: Mapping[tuple[int, ...], Rational]):
        shifts = [_shift(v) for v in vars]
        packed: dict[int, Fraction | int] = {}
        for exps, c in terms.items():
            if not c:
                continue
            if any(e < 0 or e > MAX_EXPONENT for e in exps):
                raise ExponentOverflowError(f"exponents must lie in 0..{MAX_EXPONENT}, got {exps}")
            key = sum(e << s for e, s in zip(exps, shifts))
            packed[key] = packed[key] + c if key in packed else c
        self.terms = _clean(packed)
        self._vars = None

    @staticmethod
    def _canonical(terms: dict[int, Fraction | int]) -> "Poly":
        """A Poly from terms already in canonical form, without ``__init__``."""
        p = object.__new__(Poly)
        p.terms, p._vars = terms, None
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: Rational) -> "Poly":
        value = _coefficient(value)
        return Poly._canonical({0: value} if value else {})

    @staticmethod
    def var(v: Var) -> "Poly":
        return Poly._canonical({1 << _shift(v): 1})

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and 0 in terms)

    @property
    def vars(self) -> tuple[Var, ...]:
        """The variables that occur, in the canonical ``Var`` order."""
        if self._vars is None:
            support = _support(self.terms)
            self._vars = tuple(sorted(v for v, i in _INDEX.items() if support >> (_FIELD * i) & MAX_EXPONENT))
        return self._vars

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get(0, 0))

    def degree_in(self, v: Var) -> int:
        s = _shift(v)
        return max((k >> s & MAX_EXPONENT for k in self.terms), default=0)

    def variables(self) -> tuple[Var, ...]:
        return self.vars

    def dense_terms(self) -> dict[tuple[int, ...], Fraction | int]:
        """The terms keyed by exponent tuples over ``vars``."""
        shifts = [_shift(v) for v in self.vars]
        return {tuple(k >> s & MAX_EXPONENT for s in shifts): c for k, c in self.terms.items()}

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly.sum((self, other))

    @staticmethod
    def sum(polys: Sequence["Poly"]) -> "Poly":
        """Sum of polynomials, collected in one pass."""
        terms: dict[int, Fraction | int] = {}
        for p in polys:
            for k, c in p.terms.items():
                terms[k] = terms[k] + c if k in terms else c
        return Poly._canonical(_clean(terms))

    def __neg__(self) -> "Poly":
        return Poly._canonical({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.terms, other.terms
        if not a or not b:
            return Poly.const(0)
        terms: dict[int, Fraction | int] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                terms[k] = terms[k] + c1 * c2 if k in terms else c1 * c2
        # The keys' field-wise maxima add up to at most the supports' sum, so
        # a product key can only overflow a field where that sum does.
        if (_support(a) + _support(b)) & _GUARDS:
            _check_guards(terms)
        return Poly._canonical(_clean(terms))

    def scale(self, q: Rational) -> "Poly":
        q = Fraction(q)
        return Poly._canonical(_clean({k: c * q for k, c in self.terms.items()}))

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
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.dense_terms().items()))))

    # -- calculus ----------------------------------------------------------------

    def total_derivative(self) -> "Poly":
        """D by the Leibniz rule: each factor v^e of a term gives e * v^(e-1) * D(v),
        with D(x^(k)) = x^(k+1), D(t) = 1 and D(parameter) = 0, so a term's key
        moves by a fixed offset per variable."""
        moves = []
        for v in self.vars:
            s = _shift(v)
            if v.is_jet:
                moves.append((s, (1 << _shift(Var(v.name, v.order + 1))) - (1 << s)))
            elif v == T_VAR:
                moves.append((s, -(1 << s)))
        terms: dict[int, Fraction | int] = {}
        for k, c in self.terms.items():
            for s, move in moves:
                e = k >> s & MAX_EXPONENT
                if e:
                    key = k + move
                    terms[key] = terms[key] + c * e if key in terms else c * e
        _check_guards(terms)
        return Poly._canonical(_clean(terms))

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
        rows = [(_shift(v), row) for v, row in tables.items()]
        mask = sum(MAX_EXPONENT << s for s, _ in rows)
        groups: dict[int, dict[int, Fraction | int]] = {}
        for k, c in self.terms.items():
            tabled = k & mask
            groups.setdefault(tabled, {})[k - tabled] = c
        parts = []
        for tabled, terms in groups.items():
            part = Poly._canonical(terms)
            for s, row in rows:
                part = part * row[tabled >> s & MAX_EXPONENT]
            parts.append(part)
        return Poly.sum(parts)

    def _integer_terms(self, vars: Sequence[Var]) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
        """([(coefficient * lcm, exponents over vars)], lcm) for the lcm of the
        coefficient denominators; ``vars`` must include every variable here."""
        shifts = [_shift(v) for v in vars]
        if _support(self.terms) & ~sum(MAX_EXPONENT << s for s in shifts):
            raise ValueError(f"{self} has variables outside {[str(v) for v in vars]}")
        coeff_den = math.lcm(*(c.denominator for c in self.terms.values()))
        return [
            (c.numerator * (coeff_den // c.denominator), tuple(k >> s & MAX_EXPONENT for s in shifts))
            for k, c in self.terms.items()
        ], coeff_den

    def evaluate(self, point: Mapping[Var, Rational]) -> Fraction:
        """Exact value at a rational point, summed over one common denominator.

        With vars[i] = n_i/d_i of top degree m_i, a monomial is
        prod(n_i^e_i * d_i^(m_i - e_i)) / prod(d_i^m_i); a per-point table of
        those integer factors leaves only integer products in the sum.
        """
        coeffs, coeff_den = self._integer_terms(self.vars)
        tops = tuple(map(max, zip(*(e for _, e in coeffs))))
        scaled = []  # scaled[i][e] = n_i^e * d_i^(m_i - e)
        den = 1
        for v, top in zip(self.vars, tops):
            x = point[v]
            n, d = x.numerator, x.denominator
            scaled.append([n**e * d ** (top - e) for e in range(top + 1)])
            den *= d**top
        return Fraction(_cleared_sum(coeffs, scaled), den * coeff_den)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        vars = self.vars
        chunks = []
        for exps, c in sorted(self.dense_terms().items()):
            factors = [(str(vars[i]) if e == 1 else f"{vars[i]}^{e}") for i, e in enumerate(exps) if e]
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


def _cleared_sum(coeffs: Sequence[tuple[int, tuple[int, ...]]], scaled: Sequence[Sequence[int]]) -> int:
    """sum(c * prod(scaled[i][e_i])) over the integer terms (c, e)."""
    total = 0
    for term, exps in coeffs:
        for row, e in zip(scaled, exps):
            term *= row[e]
        total += term
    return total


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


class RedrawBudgetError(ArithmeticError):
    """A random-point check redrew more points than its budget allows."""


def pv_random_point_check(
    points: int = 25,
    seed: int = 0,
    residuals: tuple[DiffExpr, DiffExpr] | None = None,
) -> tuple[int, bool]:
    """Secondary oracle for the chart change: evaluate both residuals at
    random rational points on the parameter hyperplane (redrawing any point
    on an excluded locus).  Returns (points evaluated, all residuals zero).
    ``residuals`` defaults to deriving them afresh, as
    ``verify_pv_change_of_variables`` does.

    A point is a numerator and a denominator per variable; each point's power
    tables serve all four polynomials, and "denominator != 0" and "numerator
    = 0" are decided on the cleared integer sums (a positive multiple of the
    value).  More than 100 * points redraws raise RedrawBudgetError.
    """
    import random

    rng = random.Random(seed)
    res_q, res_p = residuals if residuals is not None else _pv_residuals()
    v1, v2, v3, v4, q, p = sym("v1"), sym("v2"), sym("v3"), sym("v4"), jet("Q", 0), jet("P", 0)
    names = (v1, v2, v3, T_VAR, q, p, v4)  # the draw order, v4 last
    # Denominators first: a point where one vanishes is redrawn.
    plans = [poly._integer_terms(names)[0] for poly in (res_q.den, res_p.den, res_q.num, res_p.num)]
    tops = [max((e[i] for plan in plans for _, e in plan), default=0) for i in range(len(names))]

    checked = 0
    redraws = 0
    all_zero = True
    while checked < points:
        # (numerator, denominator) of Fraction(randint(-12, 12), randint(1, 5)),
        # unreduced: the zero tests are invariant under the scaling.
        drawn = [(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(6)]
        (n1, d1), (n2, d2), (n3, d3) = drawn[:3]
        drawn.append((-(n1 * d2 * d3 + n2 * d1 * d3 + n3 * d1 * d2), d1 * d2 * d3))
        scaled = [[n**e * d ** (top - e) for e in range(top + 1)] for (n, d), top in zip(drawn, tops)]
        if _cleared_sum(plans[0], scaled) == 0 or _cleared_sum(plans[1], scaled) == 0:
            redraws += 1
            if redraws > 100 * points:
                raise RedrawBudgetError(
                    f"{redraws} points redrawn for a {points}-point check: a residual denominator"
                    " vanishes on the draw grid"
                )
            continue
        checked += 1
        if _cleared_sum(plans[2], scaled) or _cleared_sum(plans[3], scaled):
            all_zero = False
    return checked, all_zero


def verify_group_relation(family, word: Sequence[str], expected) -> bool:
    """Exact equality between the composed generator word and the map of
    ``expected``, a ``catalog.Generator``."""
    from . import weyl

    expected_map = weyl.AffineMap.from_permutation(family, expected.perm, expected.signs, expected.translation)
    return weyl.word_map(family, tuple(word)) == expected_map
