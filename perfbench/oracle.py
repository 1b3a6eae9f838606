"""The benchmark's own exact arithmetic, kept apart from the program under test.

Values are Q-affine combinations of named atoms (``tauN`` transcendental,
``algN`` algebraic irrational), the universe the program documents.  The
congruence test, the generator maps and the D4 root rank below are written
from the quoted statements and the displayed group actions, not imported
from ``painleve``, so a fault there cannot hide itself here.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

YES, NO, UNKNOWN = "yes", "no", "unknown"


class Lin:
    """const + sum(coeff * atom); canonical (no zero coefficients)."""

    __slots__ = ("const", "terms")

    def __init__(self, const=0, terms=None):
        self.const = Fraction(const)
        self.terms = {a: Fraction(c) for a, c in (terms or {}).items() if c != 0}

    def __add__(self, other):
        other = _lin(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, 0) + c
        return Lin(self.const + other.const, terms)

    __radd__ = __add__

    def __neg__(self):
        return Lin(-self.const, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_lin(other))

    def __rsub__(self, other):
        return _lin(other) - self

    def __mul__(self, k):
        k = Fraction(k)
        return Lin(self.const * k, {a: c * k for a, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _lin(other)
        return self.const == other.const and self.terms == other.terms

    @property
    def is_rational(self):
        return not self.terms

    def text(self) -> str:
        """Grammar text with no spaces, so a batch line needs no quoting."""
        parts = []
        for atom in sorted(self.terms):
            c = self.terms[atom]
            mag = abs(c)
            body = atom if mag == 1 else f"{_q(mag)}*{atom}"
            parts.append((c < 0, body))
        if self.const != 0 or not parts:
            parts.append((self.const < 0, _q(abs(self.const))))
        neg, body = parts[0]
        out = ("-1*" + body if not body[0].isdigit() else "-" + body) if neg else body
        for neg, body in parts[1:]:
            out += ("-" if neg else "+") + body
        return out

    def __repr__(self):
        return f"Lin({self.text()})"


def _lin(x) -> Lin:
    return x if isinstance(x, Lin) else Lin(x)


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def atom(name: str, coeff=1) -> Lin:
    return Lin(0, {name: coeff})


_TOKEN = re.compile(r"\s*(?:(tau\d+|alg\d+)|(\d+)|([+\-*/]))")


def parse(text: str) -> Lin:
    """Parse the printed parameter grammar (term := rational['*'atom] | atom)."""
    tokens, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unparsable parameter {text!r}")
        tokens.append(m.group(1) and ("atom", m.group(1)) or m.group(2) and ("num", m.group(2)) or ("op", m.group(3)))
        pos = m.end()
    i = 0

    def take(kind, value=None):
        nonlocal i
        if i < len(tokens) and tokens[i][0] == kind and (value is None or tokens[i][1] == value):
            i += 1
            return tokens[i - 1][1]
        return None

    def term() -> Lin:
        name = take("atom")
        if name:
            return atom(name)
        sign = -1 if take("op", "-") else 1
        num = take("num")
        if num is None:
            raise ValueError(f"unparsable parameter {text!r}")
        q = Fraction(sign * int(num))
        if take("op", "/"):
            q /= int(take("num"))
        if take("op", "*"):
            return atom(take("atom"), q)
        return Lin(q)

    out = term()
    while i < len(tokens):
        op = take("op")
        out = out + term() if op == "+" else out - term()
    return out


# -- congruences -------------------------------------------------------------------


def coset(x: Lin, offset, modulus=1) -> str:
    """Is x - offset in modulus*Z?  A surviving tau atom or a single surviving
    alg atom forces No; two or more alg atoms leave it undecided."""
    y = x - offset
    if not isinstance(y, Lin):
        return YES if (Fraction(y) / Fraction(modulus)).denominator == 1 else NO
    if y.is_rational:
        return YES if (y.const / Fraction(modulus)).denominator == 1 else NO
    if any(a.startswith("tau") for a in y.terms) or len(y.terms) == 1:
        return NO
    return UNKNOWN


def t_and(values) -> str:
    out = YES
    for v in values:
        if v == NO:
            return NO
        if v == UNKNOWN:
            out = UNKNOWN
    return out


def t_or(values) -> str:
    out = NO
    for v in values:
        if v == YES:
            return YES
        if v == UNKNOWN:
            out = UNKNOWN
    return out


def rank(rows) -> int:
    """Rank over Q by fraction-exact elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                f = rows[k][col] / rows[r][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return r


def tau_degree(values) -> int:
    """Transcendence degree: rank of the tau-coefficient matrix."""
    taus = sorted({a for v in values for a in v.terms if a.startswith("tau")})
    if not taus:
        return 0
    return rank([[v.terms.get(a, 0) for a in taus] for v in values])


DIMENSION = {"I": 0, "II": 1, "III": 2, "IV": 2, "V": 3, "VI": 4}


def generic(family: str, values) -> bool:
    return tau_degree(values) == DIMENSION[family]


# -- strata from the quoted congruences --------------------------------------------

D4_ROOTS = [
    tuple(s if k == i else t if k == j else 0 for k in range(4))
    for i, j in itertools.combinations(range(4), 2)
    for s in (1, -1)
    for t in (1, -1)
]


def expected_stratum(family: str, v) -> str | None:
    """Deepest stratum of the quoted definitions; None when an undecided
    congruence could change it."""
    if family == "I":
        return "generic"
    if family == "II":
        t = coset(v[0], Fraction(1, 2))
        return None if t == UNKNOWN else "half-integer" if t == YES else "generic"
    if family == "III":
        w1 = coset(v[0] - v[1], 0, 2)
        d1 = t_and([coset(v[0], 0), coset(v[1], 0), coset(v[0] + v[1], 0, 2)])
        if d1 == UNKNOWN or (d1 == NO and w1 == UNKNOWN):
            return None
        return "D1" if d1 == YES else "W1" if w1 == YES else "generic"
    if family == "IV":
        tests = [coset(v[0] - v[1], 0), coset(v[2] - v[1], 0), coset(v[0] - v[2], 0)]
        if UNKNOWN in tests:
            return None
        return "D" if tests.count(YES) == 3 else "W" if YES in tests else "generic"
    if family == "V":
        same = {(i, j): coset(v[i] - v[j], 0) for i, j in itertools.combinations(range(4), 2)}
        if UNKNOWN in same.values():
            return None
        classes = _classes(4, [p for p, t in same.items() if t == YES])
        sizes = sorted(len(c) for c in classes)
        return {(4,): "D", (1, 3): "S2", (2, 2): "S1", (1, 1, 2): "W", (1, 1, 1, 1): "generic"}[tuple(sizes)]
    if family == "VI":
        tests = [(r, coset(_pair(v, r), 0)) for r in D4_ROOTS]
        yes = [r for r, t in tests if t == YES]
        unk = [r for r, t in tests if t == UNKNOWN]
        k = rank(yes) if yes else 0
        if unk and rank(yes + unk) > k:
            return None
        return ["generic", "M", "P", "L", "D"][k]
    raise ValueError(family)


def _pair(v, root) -> Lin:
    i, j = (k for k, c in enumerate(root) if c)
    return v[i] * root[i] + v[j] * root[j]


def _classes(n, pairs):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in pairs:
        parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def pvi_half_integer_special(v) -> str:
    """v1 - v2 in 1/2 + Z and v3 - v4 in Z for some even-sign signed permutation."""
    seen = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            if signs.count(-1) % 2:
                continue
            u = [v[perm[j]] * signs[j] for j in range(4)]
            seen.append(t_and([coset(u[0] - u[1], Fraction(1, 2)), coset(u[2] - u[3], 0)]))
    return t_or(seen)


DEGREE = {
    ("I", "generic"): 1,
    ("II", "half-integer"): 2, ("II", "generic"): 1,
    ("III", "D1"): 3, ("III", "W1"): 2, ("III", "generic"): 1,
    ("IV", "D"): 3, ("IV", "W"): 2, ("IV", "generic"): 1,
    ("V", "D"): 4, ("V", "S1"): 3, ("V", "S2"): 3, ("V", "W"): 2, ("V", "generic"): 1,
    ("VI", "D"): 5, ("VI", "L"): 3, ("VI", "P"): 3, ("VI", "generic"): 1,
}


def expected_degree(family: str, label: str, v) -> int | None:
    if family == "VI" and label == "M":
        special = pvi_half_integer_special(v)
        return None if special == UNKNOWN else 4 if special == YES else 2
    return DEGREE[(family, label)]


# -- orbit criteria, as quoted ------------------------------------------------------


def orbit_criterion(family: str, v, w) -> str:
    """Three-valued evaluation of the quoted same-family criterion, by brute force."""
    if all(x.is_rational for x in (*v, *w)):
        v, w = [x.const for x in v], [x.const for x in w]
    if family == "II":
        return t_or([coset(w[0] - v[0], 0), coset(w[0] + v[0], 0)])
    if family == "III":
        dv, dw = v[1] - v[0], w[1] - w[0]
        return t_or([coset(dw - dv, 0, 2), coset(dw + dv, 0, 2)])
    if family == "IV":
        return t_or(
            t_and(coset(v[i] - w[s[i]], 0) for i in range(3)) for s in itertools.permutations(range(3))
        )
    if family == "V":
        return t_or(
            t_and(coset(v[s[j]] - w[j] + Fraction(a, 4), 0) for j in range(3))
            for s in itertools.permutations(range(4))
            for a in range(4)
        )
    if family == "VI":
        def candidate(s, signs):
            d = [v[j] - w[s[j]] * signs[j] for j in range(4)]
            yield from (coset(x, 0) for x in d)
            yield coset(d[0] + d[1] + d[2] + d[3], 0, 2)

        return t_or(
            t_and(candidate(s, signs))
            for s in itertools.permutations(range(4))
            for signs in itertools.product((1, -1), repeat=4)
            if signs.count(-1) % 2 == 0
        )
    raise ValueError(family)


# -- generator maps, transcribed from the displayed actions ------------------------
# Each map is (perm, signs, translation): result[j] = signs[j]*v[perm[j]] + translation[j].

_F = Fraction
GENERATORS = {
    "II": {
        "reflect": ((0,), (-1,), (-1,)),         # alpha -> -1 - alpha
        "shift_up": ((0,), (1,), (1,)),
        "shift_down": ((0,), (1,), (-1,)),
    },
    "III": {
        "s1": ((1, 0), (1, 1), (0, 0)),          # (v2, v1)
        "s2": ((1, 0), (-1, -1), (0, 0)),        # (-v2, -v1)
        "s3": ((1, 0), (1, 1), (1, -1)),         # (v2 + 1, v1 - 1)
        "s4": ((1, 0), (-1, -1), (1, 1)),        # (-v2 + 1, -v1 + 1)
    },
    "IV": {
        "s0": ((0, 2, 1), (1, 1, 1), (0, 1, -1)),  # (v1, v3 + 1, v2 - 1)
        "s1": ((1, 0, 2), (1, 1, 1), (0, 0, 0)),
        "s2": ((2, 1, 0), (1, 1, 1), (0, 0, 0)),
        "tminus": ((0, 1, 2), (1, 1, 1), (_F(-1, 3), _F(-1, 3), _F(2, 3))),
    },
    "V": {
        "s1": ((1, 0, 2, 3), (1, 1, 1, 1), (0, 0, 0, 0)),
        "s2": ((2, 1, 0, 3), (1, 1, 1, 1), (0, 0, 0, 0)),
        "s3": ((0, 1, 3, 2), (1, 1, 1, 1), (0, 0, 0, 0)),
        "tminus": ((0, 1, 2, 3), (1, 1, 1, 1), (_F(-1, 4), _F(-1, 4), _F(-1, 4), _F(3, 4))),
    },
    "VI": {
        "s1": ((1, 0, 2, 3), (1, 1, 1, 1), (0, 0, 0, 0)),
        "s2": ((0, 2, 1, 3), (1, 1, 1, 1), (0, 0, 0, 0)),
        "s3": ((0, 1, 3, 2), (1, 1, 1, 1), (0, 0, 0, 0)),
        "s4": ((0, 1, 3, 2), (1, 1, -1, -1), (0, 0, 0, 0)),  # (v1, v2, -v4, -v3)
        "s5": ((1, 0, 2, 3), (-1, -1, 1, 1), (1, 1, 0, 0)),  # (1 - v2, 1 - v1, v3, v4)
    },
}

# Generators of each family's orbit group (the fourth family's tminus only
# builds s0 and is not itself in the group).
ORBIT_GENERATORS = {
    "II": ("reflect", "shift_up", "shift_down"),
    "III": ("s1", "s2", "s3", "s4"),
    "IV": ("s0", "s1", "s2"),
    "V": ("s1", "s2", "s3", "tminus"),
    "VI": ("s1", "s2", "s3", "s4", "s5"),
}


def apply_token(family: str, token: str, v):
    inverse = token.endswith("^-1")
    perm, signs, shift = GENERATORS[family][token[:-3] if inverse else token]
    if not inverse:
        return tuple(v[perm[j]] * signs[j] + shift[j] for j in range(len(v)))
    out = [None] * len(v)
    for j in range(len(v)):  # v_new[perm[j]] = signs[j] * (v[j] - shift[j])
        out[perm[j]] = (v[j] - shift[j]) * signs[j]
    return tuple(out)


def apply_word(family: str, word, v):
    v = tuple(v)
    for token in word:
        v = apply_token(family, token, v)
    return v


def generic_point(n: int):
    """A point whose image under an affine map determines the map."""
    return tuple(atom(f"tau{i + 1}") for i in range(n))


# -- right-hand sides, transcribed from the displayed systems -----------------------
# State order follows the program's CSV columns: (y, y') for the scalar
# equations, (q, p) or (Q, P) for the first-order charts.  The functions use
# only + - * /, so they run on floats and on mpmath numbers alike.


def rhs(family: str, form: str, v):
    if family == "I":
        return lambda t, x: [x[1], 6 * x[0] ** 2 + t]
    if family == "II":
        return lambda t, x: [x[1], 2 * x[0] ** 3 + t * x[0] + v[0]]
    if family == "III":
        v1, v2 = v
        return lambda t, x: [
            (2 * x[0] ** 2 * x[1] - x[0] ** 2 - v1 * x[0] + t) / t,
            (-2 * x[0] * x[1] ** 2 + 2 * x[0] * x[1] - v1 * x[1] + (v1 + v2) / 2) / t,
        ]
    if family == "IV":
        v1, v2, v3 = v
        return lambda t, x: [
            2 * x[1] * x[0] - x[0] ** 2 - 2 * t * x[0] + 2 * (v1 - v2),
            2 * x[1] * x[0] - x[1] ** 2 + 2 * t * x[1] + 2 * (v1 - v3),
        ]
    v1, v2, v3, v4 = v
    if form == "system":
        c = v1 - v2 - v3 + v4
        return lambda t, x: [
            (2 * x[0] ** 2 * x[1] - 2 * x[0] * x[1] + t * x[0] ** 2 - t * x[0] + c * x[0] + v2 - v1) / t,
            (-2 * x[0] * x[1] ** 2 + x[1] ** 2 - 2 * t * x[1] * x[0] + t * x[1] - c * x[1] + (v3 - v1) * t) / t,
        ]
    return lambda t, x: [
        (2 * x[0] * (x[0] - 1) ** 2 * x[1] + (3 * v1 + v2) * x[0] ** 2 - (t + 4 * v1) * x[0] + v1 - v2) / t,
        ((-3 * x[0] ** 2 + 4 * x[0] - 1) * x[1] ** 2 - 2 * (3 * v1 + v2) * x[0] * x[1]
         + (t + 4 * v1) * x[1] - (v3 - v1) * (v4 - v1)) / t,
    ]


def bounded(f, x, t0: float, t1: float, steps: int, limit: float) -> bool:
    """Coarse RK4 probe: does the solution stay within |x| < limit on [t0, t1]?"""
    h = (t1 - t0) / steps
    for i in range(steps):
        t = t0 + i * h
        k1 = f(t, x)
        k2 = f(t + h / 2, [a + h / 2 * b for a, b in zip(x, k1)])
        k3 = f(t + h / 2, [a + h / 2 * b for a, b in zip(x, k2)])
        k4 = f(t + h, [a + h * b for a, b in zip(x, k3)])
        x = [a + h / 6 * (p + 2 * q + 2 * r + s) for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
        if any(abs(a) >= limit for a in x):
            return False
    return True
