"""Exact number kernel: Q-affine values over symbolic atoms.

A :class:`ParamValue` is a rational constant plus a finite Q-linear
combination of declared atoms.  An atom is either transcendental (distinct
transcendental atoms are treated as algebraically independent over Q) or
algebraic-irrational (guaranteed not in Q, nothing else assumed).  This is
the entire universe for parameter arithmetic; it is exactly rich enough to
make every integer-coset condition used by the classifiers decidable, up to
an explicit three-valued Unknown.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence

Rational = Fraction | int


class AtomKind(Enum):
    TRANSCENDENTAL = "tau"
    ALGEBRAIC_IRRATIONAL = "alg"

    # Members are singletons, so identity hashing keeps every dict and set
    # keyed by an atom in C, where Enum's hash is a Python call.
    __hash__ = object.__hash__


class Atom(namedtuple("Atom", "kind index")):
    """A named symbolic constant, e.g. tau1 (transcendental) or alg2."""

    __slots__ = ()

    def __new__(cls, kind: AtomKind, index: int) -> "Atom":
        if index < 0:
            raise ValueError("atom index must be nonnegative")
        return super().__new__(cls, kind, index)

    @property
    def name(self) -> str:
        return f"{self.kind.value}{self.index}"

    def sort_key(self) -> tuple[str, int]:
        return (self.kind.value, self.index)

    def __repr__(self) -> str:
        return f"Atom({self.name})"


def tau(index: int) -> Atom:
    return Atom(AtomKind.TRANSCENDENTAL, index)


def alg(index: int) -> Atom:
    return Atom(AtomKind.ALGEBRAIC_IRRATIONAL, index)


class TriBool(Enum):
    """Three-valued verdict. Unknown only arises from algebraic-irrational
    atoms whose mutual relations are underdetermined."""

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        # Forbid accidental truthiness: callers must branch on all three values.
        raise TypeError("TriBool is not a bool; compare against TriBool members")

    @staticmethod
    def of(flag: bool) -> "TriBool":
        return TriBool.YES if flag else TriBool.NO


def tri_and(values: Iterable[TriBool]) -> TriBool:
    out = TriBool.YES
    for v in values:
        if v is TriBool.NO:
            return TriBool.NO
        if v is TriBool.UNKNOWN:
            out = TriBool.UNKNOWN
    return out


def tri_or(values: Iterable[TriBool]) -> TriBool:
    out = TriBool.NO
    for v in values:
        if v is TriBool.YES:
            return TriBool.YES
        if v is TriBool.UNKNOWN:
            out = TriBool.UNKNOWN
    return out


class InputError(ValueError):
    """Bad input to the toolkit; the CLI reports every subclass as exit 2."""


class ParamSyntaxError(InputError):
    """Malformed parameter text; carries the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


class ParamValue:
    """Immutable canonical Q-affine combination of atoms.

    Canonical form: ``const`` is a ``Fraction``, and ``terms`` holds
    ``(atom, coefficient)`` pairs sorted by :meth:`Atom.sort_key`, each
    coefficient a nonzero ``Fraction``.  Structural equality is then semantic
    equality and values hash.  ``__init__`` brings any input into this form;
    the internal constructor :meth:`_canonical` relies on its caller passing
    parts already in it, and the arithmetic below uses it wherever no atom
    can cancel.
    """

    __slots__ = ("const", "terms")

    const: Fraction
    terms: tuple[tuple[Atom, Fraction], ...]

    def __init__(self, const: Rational = 0, coeffs: Mapping[Atom, Rational] | None = None):
        object.__setattr__(self, "const", const if type(const) is Fraction else Fraction(const))
        items = []
        if coeffs:
            for atom, c in coeffs.items():
                if c != 0:
                    items.append((atom, c if type(c) is Fraction else Fraction(c)))
            if len(items) > 1:
                items.sort(key=lambda it: _intern(it[0].name)[1])
        object.__setattr__(self, "terms", tuple(items))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ParamValue is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _canonical(cls, const: Fraction, terms: tuple[tuple[Atom, Fraction], ...]) -> "ParamValue":
        """Build a value from parts already in canonical form, unchecked."""
        value = object.__new__(cls)
        object.__setattr__(value, "const", const)
        object.__setattr__(value, "terms", terms)
        return value

    @staticmethod
    def of_atom(atom: Atom, coeff: Rational = 1) -> "ParamValue":
        return ParamValue(0, {atom: coeff})

    # -- inspection --------------------------------------------------------

    def coeff(self, atom: Atom) -> Fraction:
        for a, c in self.terms:
            if a == atom:
                return c
        return Fraction(0)

    @property
    def is_rational(self) -> bool:
        return not self.terms

    @property
    def has_transcendental(self) -> bool:
        return any(a.kind is AtomKind.TRANSCENDENTAL for a, _ in self.terms)

    # -- arithmetic (closed and exact) --------------------------------------

    def _combine(self, other: "ParamValue", sign: int) -> "ParamValue":
        const = self.const + other.const if sign > 0 else self.const - other.const
        if not other.terms:
            return ParamValue._canonical(const, self.terms)
        if not self.terms:
            terms = other.terms if sign > 0 else tuple((a, -c) for a, c in other.terms)
            return ParamValue._canonical(const, terms)
        # Atoms on both sides may cancel; __init__ drops the zero coefficients.
        coeffs: dict[Atom, Fraction] = dict(self.terms)
        for a, c in other.terms:
            coeffs[a] = coeffs.get(a, 0) + c if sign > 0 else coeffs.get(a, 0) - c
        return ParamValue(const, coeffs)

    def __add__(self, other):
        if isinstance(other, ParamValue):
            return self._combine(other, 1)
        if isinstance(other, (int, Fraction)):
            return ParamValue._canonical(self.const + other, self.terms)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ParamValue):
            return self._combine(other, -1)
        if isinstance(other, (int, Fraction)):
            return ParamValue._canonical(self.const - other, self.terms)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "ParamValue":
        return ParamValue._canonical(-self.const, tuple((a, -c) for a, c in self.terms))

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            if scalar == 0:
                return ZERO
            if scalar == 1:
                return self
            return ParamValue._canonical(
                self.const * scalar, tuple((a, c * scalar) for a, c in self.terms)
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            if scalar == 0:
                raise ZeroDivisionError("division of ParamValue by zero")
            return self * (Fraction(1) / Fraction(scalar))
        return NotImplemented

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamValue(other)
        if not isinstance(other, ParamValue):
            return NotImplemented
        return self.const == other.const and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.const, self.terms))

    def __str__(self) -> str:
        return format_param(self)

    def __repr__(self) -> str:
        return f"ParamValue({format_param(self)!r})"


ZERO = ParamValue(0)


def format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_param(value: ParamValue) -> str:
    """Deterministic printer; output re-parses to an equal value.

    Atom terms come first (sorted by atom name), then the constant.
    """
    pieces: list[tuple[bool, str]] = []  # (negative, magnitude text)
    for atom, c in value.terms:
        num, den = c.numerator, c.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        pieces.append((num < 0, atom.name if mag == "1" else f"{mag}*{atom.name}"))
    num, den = value.const.numerator, value.const.denominator
    if num or not pieces:
        pieces.append((num < 0, str(abs(num)) if den == 1 else f"{abs(num)}/{den}"))
    negative, out = pieces[0]
    if negative:
        # A bare leading "-atom" is outside the grammar; emit "-1*atom" instead.
        out = ("-" if out[0].isdigit() else "-1*") + out
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


_TOKEN_RE = re.compile(r"\s*(?:(?P<atom>(?:tau|alg)\d+)|(?P<num>\d+)|(?P<op>[+\-*/]))")

# Longest digit run accepted (a numerator, denominator or atom index), so
# every printed value stays under CPython's 4,300-digit int-to-str limit.
MAX_DIGITS = 1000
_LONG_DIGIT_RUN = re.compile(r"\d{%d}" % (MAX_DIGITS + 1))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParamSyntaxError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


# ``parse_param``'s grammar without whitespace, Unicode digits or a zero
# denominator.  A text it matches in full is read term by term by
# ``_FAST_TERM`` (operator, sign, numerator, denominator, atom, bare atom);
# any other text goes to the tokenizer, which reports the errors.
_FAST_TERM_TEXT = r"-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?(?:\*(?:tau|alg)[0-9]+)?|(?:tau|alg)[0-9]+"
_FAST_PARAM = re.compile(rf"(?:{_FAST_TERM_TEXT})(?:[+-](?:{_FAST_TERM_TEXT}))*")
_FAST_TERM = re.compile(r"([+-]?)(?:(-?)([0-9]+)(?:/([0-9]+))?(?:\*((?:tau|alg)[0-9]+))?|((?:tau|alg)[0-9]+))")


# Atom names already read, each with its atom and sort key; names past the
# bound are read afresh every time.
MAX_INTERNED_ATOMS = 1024
_ATOMS: dict[str, tuple[Atom, tuple[str, int]]] = {}


def _intern(name: str) -> tuple[Atom, tuple[str, int]]:
    entry = _ATOMS.get(name)
    if entry is None:
        kind = AtomKind.TRANSCENDENTAL if name.startswith("tau") else AtomKind.ALGEBRAIC_IRRATIONAL
        atom = Atom(kind, int(name[3:]))
        entry = atom, atom.sort_key()
        if len(_ATOMS) < MAX_INTERNED_ATOMS:
            _ATOMS[name] = entry
    return entry


def parse_param(text: str) -> ParamValue:
    """Parse the parameter grammar::

        expr   := term (("+"|"-") term)*
        term   := rational ("*" atom)? | atom
        rational := ["-"] digits ("/" digits)?
        atom   := "tau" digits | "alg" digits

    Whitespace is insignificant.  Raises :class:`ParamSyntaxError` with the
    offending position on malformed input, a zero denominator or a digit
    run longer than ``MAX_DIGITS``.  Text in ``_FAST_PARAM``'s grammar is
    read by one ``findall`` into integer sums, the rest by the tokenizer.
    """
    long_run = _LONG_DIGIT_RUN.search(text)
    if long_run:
        raise ParamSyntaxError(f"more than {MAX_DIGITS} digits", long_run.start())
    if _FAST_PARAM.fullmatch(text):
        sums: dict = {}  # None (the constant) or an atom -> [numerator, denominator, sort key]
        for op, minus, num, den, name, bare in _FAST_TERM.findall(text):
            n = int(num) if num else 1
            if (op == "-") != (minus == "-"):
                n = -n
            d = int(den) if den else 1
            atom, key = _intern(name or bare) if name or bare else (None, None)
            acc = sums.get(atom)
            if acc is None:
                sums[atom] = [n, d, key]
            else:
                m = math.lcm(acc[1], d)
                acc[0], acc[1] = acc[0] * (m // acc[1]) + n * (m // d), m
        num, den, _ = sums.pop(None, (0, 1, None))
        terms = sorted((key, atom, n, d) for atom, (n, d, key) in sums.items() if n) if sums else ()
        return ParamValue._canonical(Fraction(num, den), tuple((atom, Fraction(n, d)) for _, atom, n, d in terms))
    const: Rational = 0
    coeffs: dict[Atom, Rational] = {}
    tokens = _tokenize(text)
    if not tokens:
        raise ParamSyntaxError("empty parameter expression", 0)
    tokens.append((None, "", len(text)))  # end sentinel: an error at the end reports position len(text)
    sign, i = 1, 0
    while True:  # one term per round, then the '+'/'-' before the next
        kind, val, pos = tokens[i]
        i += 1
        if kind == "atom":
            atom = _intern(val)[0]
            coeffs[atom] = coeffs.get(atom, 0) + sign
        else:
            if kind == "op" and val == "-":
                sign = -sign
                kind, val, pos = tokens[i]
                i += 1
            if kind != "num":
                raise ParamSyntaxError("expected a number", pos)
            q: Rational = sign * int(val)
            kind, val, pos = tokens[i]
            if kind == "op" and val == "/":
                kind, val, pos = tokens[i + 1]
                i += 2
                if kind != "num":
                    raise ParamSyntaxError("expected a denominator", pos)
                if int(val) == 0:
                    raise ParamSyntaxError("zero denominator", pos)
                q = Fraction(q, int(val))
                kind, val, pos = tokens[i]
            if kind == "op" and val == "*":
                kind, val, pos = tokens[i + 1]
                i += 2
                if kind != "atom":
                    raise ParamSyntaxError("expected an atom after '*'", pos)
                atom = _intern(val)[0]
                coeffs[atom] = coeffs.get(atom, 0) + q
            else:
                const += q
        kind, val, pos = tokens[i]
        if kind is None:
            return ParamValue(const, coeffs)
        if kind != "op" or val not in "+-":
            raise ParamSyntaxError("expected '+' or '-'", pos)
        sign = 1 if val == "+" else -1
        i += 1


def decide_coset(x: ParamValue, offset: Rational, modulus: Rational) -> TriBool:
    """Decide whether ``x - offset`` lies in ``modulus * Z``: ``coset`` on
    x's integer form, where a modulus a/b is the test b*x - b*offset in aZ."""
    modulus, offset = Fraction(modulus), Fraction(offset)
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    a, b = modulus.numerator, modulus.denominator
    return coset(scale((x,), (b * offset).denominator), (b,), b * offset, a)


# Values in integer form: value i is (consts[i] + sum over k of rows[i][k] *
# atoms[k]) / den, over one positive common denominator, with ``atoms`` those
# of all the values in sort order.
Scaled = namedtuple("Scaled", "den consts rows atoms")


def scale(values: Sequence[ParamValue], den: int = 1) -> Scaled:
    """The integer form of ``values`` over the least common denominator
    that is a multiple of ``den``.  The orbit path, the sum-zero test and
    the transcendence degree read values in this form."""
    ratios = [v.const.as_integer_ratio() for v in values]
    atoms, dens = set(), [d for _, d in ratios]
    for v in values:
        for a, c in v.terms:
            atoms.add(a)
            dens.append(c.denominator)
    den = math.lcm(den, *dens)
    consts = tuple([n * (den // d) for n, d in ratios])
    if not atoms:
        return Scaled(den, consts, ((),) * len(values), ())
    atoms = sorted(atoms, key=Atom.sort_key)
    column = {a: k for k, a in enumerate(atoms)}
    rows = []
    for v in values:
        row = [0] * len(atoms)
        for a, c in v.terms:
            n, d = c.as_integer_ratio()
            row[column[a]] = n * (den // d)
        rows.append(tuple(row))
    return Scaled(den, consts, tuple(rows), tuple(atoms))


def coset(form: Scaled, coeffs: Sequence[int], offset: Rational, modulus: int) -> TriBool:
    """Is sum_i coeffs[i]*v_i - offset in ``modulus * Z``, for the values v
    of ``form`` (whose ``den`` clears ``offset``)?  The one integrality rule:
    with no surviving atom one integer ``%`` decides; a surviving
    transcendental atom, or a lone algebraic one, decides No (membership
    would make it algebraic, or rational); two or more surviving algebraic
    atoms, and no transcendental one, leave it Unknown, since their mutual
    relations are not known."""
    if form.atoms:
        kinds = [a.kind for a, column in zip(form.atoms, zip(*form.rows)) if sum(map(mul, coeffs, column))]
        if kinds:
            if len(kinds) == 1 or AtomKind.TRANSCENDENTAL in kinds:
                return TriBool.NO
            return TriBool.UNKNOWN
    den = form.den
    num = sum(map(mul, coeffs, form.consts)) - offset.numerator * (den // offset.denominator)
    return TriBool.YES if num % (modulus * den) == 0 else TriBool.NO


def rational_rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Rank over Q of a small dense matrix: each row is scaled by its
    denominators' lcm to integers (a no-op on integer rows), then reduced by
    fraction-free (Bareiss) elimination, whose divisions by the previous
    pivot are exact."""
    work = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        work.append([x.numerator * (den // x.denominator) for x in row])
    rank, previous = 0, 1
    for col in range(len(work[0]) if work else 0):
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        top, pivot = work[rank], work[rank][col]
        for r in range(rank + 1, len(work)):
            factor = work[r][col]
            work[r] = [(pivot * a - factor * b) // previous for a, b in zip(work[r], top)]
        previous = pivot
        rank += 1
        if rank == len(work):
            break
    return rank


def transcendence_degree(values: Sequence[ParamValue]) -> int:
    """Transcendence degree over Q contributed by a tuple of values.

    Equals the Q-rank of the matrix of transcendental-atom coefficient
    vectors, taken on their integer form; algebraic-irrational atoms and
    constants contribute nothing.
    """
    atoms = {a for v in values for a, _ in v.terms if a.kind is AtomKind.TRANSCENDENTAL}
    if len(atoms) < 2:  # a canonical coefficient is nonzero
        return len(atoms)
    form = scale(values)
    columns = [k for k, a in enumerate(form.atoms) if a.kind is AtomKind.TRANSCENDENTAL]
    return rational_rank([[row[k] for k in columns] for row in form.rows])
