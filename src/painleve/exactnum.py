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
        return f"{self.kind._value_}{self.index}"

    def sort_key(self) -> tuple[str, int]:
        return (self.kind._value_, self.index)

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
    can cancel.  The slot ``ints`` keeps the value's ``IntValue`` once
    ``parse_param`` or ``_int_value`` has it.
    """

    __slots__ = ("const", "terms", "ints")

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
                items.sort(key=lambda it: it[0].sort_key())
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

    # -- inspection --------------------------------------------------------

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


# A value read into integers: the reduced constant ``num/den`` and the atom
# terms ``(atom, numerator, denominator)``, each reduced and nonzero, in
# atom order.  ``read_param`` returns it; ``scale`` and ``param_text`` read it.
IntValue = namedtuple("IntValue", "num den terms")


def _int_value(value: ParamValue) -> IntValue:
    try:
        return value.ints
    except AttributeError:
        const = value.const
        ints = IntValue(const.numerator, const.denominator, [(a, c.numerator, c.denominator) for a, c in value.terms])
        object.__setattr__(value, "ints", ints)
        return ints


def format_param(value: ParamValue) -> str:
    """Deterministic printer; output re-parses to an equal value."""
    return param_text(_int_value(value))


def param_text(value: IntValue) -> str:
    """The canonical text of a value read into integers: atom terms first
    (sorted by atom name), then the constant."""
    num, den, terms = value
    if not terms:
        return str(num) if den == 1 else f"{num}/{den}"
    pieces: list[tuple[bool, str]] = []  # (negative, magnitude text)
    for atom, n, d in terms:
        mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        pieces.append((n < 0, atom.name if mag == "1" else f"{mag}*{atom.name}"))
    if num:
        pieces.append((num < 0, str(abs(num)) if den == 1 else f"{abs(num)}/{den}"))
    negative, out = pieces[0]
    if negative:
        # A bare leading "-atom" is outside the grammar; emit "-1*atom" instead.
        out = ("-" if out[0].isdigit() else "-1*") + out
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


# Most digits accepted in a digit run (a numerator, denominator or atom
# index) and in a parsed value's reduced numerators and denominators, so that
# every printed value, a sum of four parameters included, stays under
# CPython's 4,300-digit int-to-str limit.
MAX_DIGITS = 1000
_LONG_DIGIT_RUN = re.compile(r"\d{%d}" % (MAX_DIGITS + 1))
_TOO_MANY_DIGITS = 10**MAX_DIGITS  # the least integer with more than MAX_DIGITS digits

# A plain rational, the commonest value, read directly: numerator and denominator.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")
# One token after optional whitespace: an operator, a digit run, an atom, or
# any other character, which is an error.
_TOKEN = re.compile(r"\s*(?:([-+*/])|(\d+)|((?:tau|alg)\d+)|(\S))")


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


def read_param(text: str) -> IntValue:
    """Read the parameter grammar into integers::

        expr   := term (("+"|"-") term)*
        term   := rational ("*" atom)? | atom
        rational := ["-"] digits ("/" digits)?
        atom   := "tau" digits | "alg" digits

    Whitespace is insignificant.  Raises :class:`ParamSyntaxError` with the
    offending position on malformed input, a zero denominator or a digit
    run longer than ``MAX_DIGITS``, and at position 0 for a value whose
    reduced constant or atom coefficient has a numerator or denominator of
    more than ``MAX_DIGITS`` digits.  A plain rational (``_PLAIN_RATIONAL``)
    is read directly.  Any other text is split into tokens by one
    ``findall``, and one walk over them checks the grammar and sums each
    term into an integer numerator and denominator per atom and for the
    constant; the constant and each atom's coefficient are then reduced.
    """
    long_run = _LONG_DIGIT_RUN.search(text)
    if long_run:
        raise ParamSyntaxError(f"more than {MAX_DIGITS} digits", long_run.start())
    plain = _PLAIN_RATIONAL.fullmatch(text)
    if plain:  # one digit run each, so within the digit bound
        num, den = int(plain[1]), int(plain[2] or 1)
        g = math.gcd(num, den)
        return IntValue(num // g, den // g, ())
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParamSyntaxError("empty parameter expression", 0)
    last = len(tokens)
    tokens.append(("", "", "", ""))  # past the last token
    sums: dict = {}  # None (the constant) or an atom -> [numerator, denominator, sort key]
    summed = False  # parts read from single digit runs need no digit bound
    sign, i = 1, 0
    while True:  # one term per round, then the '+'/'-' before the next
        op, num, name, _ = tokens[i]
        n = d = 1
        if name:
            i += 1
        else:
            if op == "-":
                sign, i = -sign, i + 1
                num = tokens[i][1]
            if not num:
                raise _syntax_error(text, "expected a number", i)
            n = int(num)
            i += 1
            op = tokens[i][0]
            if op == "/":
                i += 1
                num = tokens[i][1]
                if not num:
                    raise _syntax_error(text, "expected a denominator", i)
                d = int(num)
                if not d:  # also a zero in other scripts, such as U+0660
                    raise _syntax_error(text, "zero denominator", i)
                i += 1
                op = tokens[i][0]
            name = None
            if op == "*":
                i += 1
                name = tokens[i][2]
                if not name:
                    raise _syntax_error(text, "expected an atom after '*'", i)
                i += 1
        atom, key = _intern(name) if name else (None, None)
        acc = sums.get(atom)
        if acc is None:
            sums[atom] = [sign * n, d, key]
        else:
            m = math.lcm(acc[1], d)
            acc[0], acc[1] = acc[0] * (m // acc[1]) + sign * n * (m // d), m
            summed = True
        if i == last:
            break
        op = tokens[i][0]
        if op != "+" and op != "-":
            raise _syntax_error(text, "expected '+' or '-'", i)
        sign, i = 1 if op == "+" else -1, i + 1
    num, den, _ = sums.pop(None, (0, 1, None))
    g = math.gcd(num, den)
    terms = []
    for _, atom, n, d in sorted((key, atom, n, d) for atom, (n, d, key) in sums.items() if n) if sums else ():
        gt = math.gcd(n, d)
        terms.append((atom, n // gt, d // gt))
    value = IntValue(num // g, den // g, terms)
    return _bounded(value) if summed else value


def parse_param(text: str) -> ParamValue:
    """``read_param``'s value as a ``ParamValue``."""
    ints = num, den, terms = read_param(text)
    value = ParamValue._canonical(Fraction(num, den), tuple([(a, Fraction(n, d)) for a, n, d in terms]) if terms else ())
    object.__setattr__(value, "ints", ints)
    return value


def _syntax_error(text: str, message: str, at: int) -> ParamSyntaxError:
    """``message`` at the start of ``text``'s token number ``at`` (at the end
    past the last token), unless ``text`` has a character outside the
    grammar: then the first such character is the error."""
    matches = list(_TOKEN.finditer(text))
    for m in matches:
        if m[4]:
            return ParamSyntaxError(f"unexpected character {m[4]!r}", m.start(4))
    return ParamSyntaxError(message, matches[at].start(matches[at].lastindex) if at < len(matches) else len(text))


def _bounded(value: IntValue) -> IntValue:
    """``value``, unless a reduced numerator or denominator in it has more than ``MAX_DIGITS`` digits."""
    for n, d in ((value.num, value.den), *[(n, d) for _, n, d in value.terms]):
        if abs(n) >= _TOO_MANY_DIGITS or d >= _TOO_MANY_DIGITS:
            raise ParamSyntaxError(f"more than {MAX_DIGITS} digits", 0)
    return value


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


def scale(values: Sequence[ParamValue | IntValue], den: int = 1) -> Scaled:
    """The integer form of ``values`` (``ParamValue``s, or ``IntValue``s as
    ``read_param`` reads them) over the least common denominator that is a
    multiple of ``den``.  The orbit and orthogonality paths, the classify
    strata, the sum-zero test and the transcendence degree read values in
    this form."""
    values = [v if type(v) is IntValue else _int_value(v) for v in values]
    den = math.lcm(den, *[v.den for v in values], *[d for v in values for _, _, d in v.terms])
    consts = tuple([num * (den // d) for num, d, _ in values])
    atoms = {a for v in values for a, _, _ in v.terms}
    if not atoms:
        return Scaled(den, consts, ((),) * len(values), ())
    atoms = sorted(atoms, key=Atom.sort_key)
    column = {a: k for k, a in enumerate(atoms)}
    rows = []
    for v in values:
        row = [0] * len(atoms)
        for a, n, d in v.terms:
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
    """Transcendence degree over Q contributed by a tuple of values: the
    ``tau_rank`` of their integer form; algebraic-irrational atoms and
    constants contribute nothing."""
    atoms = {a for v in values for a, _ in v.terms if a.kind is AtomKind.TRANSCENDENTAL}
    if len(atoms) < 2:  # a canonical coefficient is nonzero
        return len(atoms)
    return tau_rank(scale(values))


def tau_rank(form: Scaled, start: int = 0, stop: int | None = None) -> int:
    """Q-rank of the transcendental-atom coefficient rows of the values
    ``start`` to ``stop`` of ``form``: the transcendence degree over Q that
    those values contribute."""
    columns = [
        column for a, column in zip(form.atoms, zip(*form.rows[start:stop]))
        if a.kind is AtomKind.TRANSCENDENTAL and any(column)
    ]
    if len(columns) < 2:
        return len(columns)
    return rational_rank(list(zip(*columns)))
