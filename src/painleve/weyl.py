"""Parameter-transformation engine for the six families.

Each family carries a group of exact affine maps on parameter space
(generated by the cataloged reflections and quarter/third translations);
fibers over the same orbit are in definable bijection.  The groups' data
(generators, orbit criteria, lattice scans, alcoves) are rows of the
per-family table, read through ``catalog.family_space``; this module holds
the algorithms: the affine-map algebra, the orbit criteria with
re-verifiable witnesses, and generator words read off the witnesses.

Every map is a signed permutation plus a translation.  Maps and orbit
witnesses store ``perm``, ``signs`` and a translation ``t``, meaning
``result[j] = signs[j] * v[perm[j]] + t[j]``.  Words are tuples of
generator names applied left to right; ``name^-1`` denotes an inverse.  The
third to sixth families' words come from one alcove walk: the witness maps
a point of the fundamental alcove to another alcove, and walking that image
back, one wall at a time, spells the shortest group element that maps v to
w (see ``_alcove_word``).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .catalog import Family, InvalidEquationError, as_param, check_params, family_space
from .citations import cite
from .classify import is_generic
from .exactnum import (
    AtomKind,
    ParamValue,
    Rational,
    Scaled,
    TriBool,
    coset,
    decide_coset,  # uncalled; perfbench/tracer.py wraps it here (ROADMAP item 1b)
    scale,
    transcendence_degree,  # uncalled; perfbench/tracer.py wraps it here (ROADMAP item 1b)
    tri_and,
    tri_or,
)


class NoGeneratorsError(ValueError):
    pass


# -- affine maps -----------------------------------------------------------------


class AffineMap(namedtuple("AffineMap", "family perm signs translation")):
    """Exact affine map on a family's parameter space, stored as a signed
    permutation plus a translation (the convention in the module docstring)."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.perm)

    def apply(self, values: Sequence[ParamValue | Rational]) -> tuple[ParamValue, ...]:
        vals = [v if isinstance(v, ParamValue) else ParamValue(v) for v in values]
        if len(vals) != self.dim:
            raise ValueError(f"expected {self.dim} values, got {len(vals)}")
        signed = (vals[p] if s > 0 else -vals[p] for p, s in zip(self.perm, self.signs))
        return tuple(x + t if t else x for x, t in zip(signed, self.translation))

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: apply(compose(f, g), v) == apply(f, apply(g, v))."""
        if self.family is not other.family:
            raise ValueError("cannot compose maps from different families")
        return AffineMap(
            self.family,
            tuple(other.perm[p] for p in self.perm),
            tuple(s * other.signs[p] for p, s in zip(self.perm, self.signs)),
            tuple(s * other.translation[p] + t for p, s, t in zip(self.perm, self.signs, self.translation)),
        )

    def inverse(self) -> "AffineMap":
        # w[j] = signs[j]*v[perm[j]] + translation[j] solves to
        # v[perm[j]] = signs[j]*w[j] - signs[j]*translation[j].
        n = self.dim
        perm, signs, translation = [0] * n, [1] * n, [Fraction(0)] * n
        for j, (p, s, t) in enumerate(zip(self.perm, self.signs, self.translation)):
            perm[p], signs[p], translation[p] = j, s, -s * t
        return AffineMap(self.family, tuple(perm), tuple(signs), tuple(translation))

    @staticmethod
    def identity(family: Family, dim: int) -> "AffineMap":
        return AffineMap.from_permutation(family, range(dim))

    @staticmethod
    def from_permutation(
        family: Family,
        perm: Sequence[int],
        signs: Sequence[int] | None = None,
        translation: Sequence[Rational] | None = None,
    ) -> "AffineMap":
        """Signed permutation plus translation: result[j] = signs[j]*v[perm[j]] + translation[j]."""
        n = len(perm)
        signs = tuple(signs or [1] * n)
        translation = tuple(Fraction(x) for x in translation or [0] * n)
        if sorted(perm) != list(range(n)) or {len(signs), len(translation)} != {n} or not set(signs) <= {1, -1}:
            raise ValueError(f"not a signed permutation plus translation on {n} coordinates")
        return AffineMap(family, tuple(perm), signs, translation)


# -- generators -----------------------------------------------------------------------


def named_generators(family: Family) -> dict[str, AffineMap]:
    """All named maps for a family, including auxiliaries such as tminus."""
    generators = family_space(family).generators
    if not generators:
        raise NoGeneratorsError(f"family {family.value} has no parameter transformations")
    return {g.name: AffineMap.from_permutation(family, g.perm, g.signs, g.translation) for g in generators}


@lru_cache(maxsize=None)
def _token_table(family: Family) -> dict[str, AffineMap]:
    """Every word token of a family, ``name`` and ``name^-1``, mapped to its affine map."""
    maps = named_generators(family)
    maps.update({name + "^-1": m.inverse() for name, m in maps.items()})
    return maps


def resolve_token(family: Family, token: str) -> AffineMap:
    try:
        return _token_table(family)[token]
    except KeyError:
        raise KeyError(f"unknown generator {token!r} for family {family.value}") from None


def word_map(family: Family, word: Sequence[str]) -> AffineMap:
    """Compose a word (applied left to right) into a single affine map."""
    dim = family_space(family).arity
    out = AffineMap.identity(family, dim)
    for token in word:
        out = resolve_token(family, token).compose(out)
    return out


def apply_word(family: Family, word: Sequence[str], values: Sequence[ParamValue | Rational]) -> tuple[ParamValue, ...]:
    out = tuple(v if isinstance(v, ParamValue) else ParamValue(v) for v in values)
    for token in word:
        out = resolve_token(family, token).apply(out)
    return out


# -- orbit verdicts -------------------------------------------------------------------


class HypothesisStatus(Enum):
    PROVED = "proved"
    SUFFICIENT_ONLY = "sufficient-only"
    OPEN = "open"


class OrbitWitness(namedtuple(
    "OrbitWitness", "perm signs shift quarter_shift integer_shift note", defaults=(None,) * 6
)):
    """Witness data; when the map fields are set, ``perm``, ``signs`` and the
    translation ``shift`` map v to w exactly, in the module's convention."""

    __slots__ = ()

    @property
    def has_map(self) -> bool:
        return self.perm is not None and self.signs is not None and self.shift is not None


OrbitVerdict = namedtuple(
    "OrbitVerdict",
    "family related criterion criterion_citation hypothesis_status witness word word_reason notes",
    defaults=(None, None, None, ()),
)
WordResult = namedtuple("WordResult", "word reason", defaults=(None,))


@lru_cache(maxsize=None)
def _int_tokens(family: Family) -> tuple[int, dict[str, tuple[tuple[int, ...], ...]]]:
    """The family's token denominator (the lcm of its translations'
    denominators), and each word token's perm, signs and translation times it."""
    generators = family_space(family).generators
    den = math.lcm(*(Fraction(x).denominator for g in generators for x in g.translation or ()))
    tokens = _token_table(family) if generators else {}
    return den, {name: (m.perm, m.signs, tuple(int(x * den) for x in m.translation)) for name, m in tokens.items()}


def _scaled(family: Family, v: Sequence[ParamValue], w: Sequence[ParamValue]) -> Scaled:
    """v then w in integer form, over a multiple of the family's token denominator."""
    return scale((*v, *w), _int_tokens(family)[0])


def checked_form(family: Family, v: Sequence[ParamValue | Rational], w: Sequence[ParamValue | Rational]) -> Scaled:
    """The ``_scaled`` form of v and w, once each is checked as
    ``EquationId(family, ...)`` would check it; v's error is raised before w's."""
    v = [as_param(x) for x in v]
    try:
        w = [as_param(x) for x in w]
    except InvalidEquationError:
        check_params(family, v)  # v's own error comes first
        raise
    form = _scaled(family, v, w)
    check_params(family, v, form)
    check_params(family, w, form, len(v))
    return form


def _signed(row: tuple[int, ...], sign: int) -> tuple[int, ...]:
    return row if sign > 0 else tuple(-x for x in row)


@lru_cache(maxsize=None)
def _scan_order(family: Family) -> tuple[dict[tuple[tuple[int, ...], tuple[int, ...]], int], tuple[int, ...]]:
    """Each linear part ``(perm, signs)`` of the family's lattice scan mapped
    to its rank in scan order (the dict keeps that order), and the signs the
    scan uses, +1 first."""
    spec = family_space(family)
    linear = [(p, s) for p in itertools.permutations(range(spec.arity)) for s in spec.scan.sign_patterns]
    signs = sorted({s for pattern in spec.scan.sign_patterns for s in pattern}, reverse=True)
    return {part: rank for rank, part in enumerate(linear)}, tuple(signs)


def _lattice_scan(family: Family, form: Scaled) -> tuple[TriBool, OrbitWitness | None]:
    """``(related, witness)`` from the first candidate g, c of the family's
    scan (see ``catalog.FamilySpec``) with w - g(v) - c integral; ``form``
    is ``_scaled(family, v, w)``.

    A value's residue key is its atom row and its constant mod the common
    denominator, so w_j - s*v_i - c_k is Yes exactly when w_j and
    s*v_i + c_k have the same key, and one dict of v's keys gives every
    Yes.  Where the atoms do not cancel the difference is No unless
    ``coset`` leaves it Unknown, which only algebraic atoms can; so only a
    form with an algebraic atom tests it, once for all k.  Candidates are
    built a coordinate at a time from the non-No differences; the witness
    and the sixth family's even-sum test read the integer constants of the
    candidates, earliest in scan order first.
    """
    spec = family_space(family)
    _, offsets, named, even_sum = spec.scan
    order, signs = _scan_order(family)
    n, den, consts, rows = len(form.consts) // 2, form.den, form.consts, form.rows
    offs = [c.numerator * (den // c.denominator) for c in offsets]
    # (i, s) -> the atom row of s*v_i; (residue key of s*v_i + c_k) -> [(i, s, k)]
    scaled = {(i, s): _signed(rows[i], s) for i in range(n) for s in signs}
    yes: dict[tuple, list[tuple[int, int, int]]] = {}
    for (i, s), row in scaled.items():
        for k, c in enumerate(offs):
            yes.setdefault((row, (s * consts[i] + c) % den), []).append((i, s, k))
    alg = any(a.kind is AtomKind.ALGEBRAIC_IRRATIONAL for a in form.atoms)
    partial = [((), (), None, TriBool.YES)]  # (perm, signs, k, verdict) on the coordinates so far
    for j in range(n):
        row = rows[n + j]
        options = {key: TriBool.YES for key in yes.get((row, consts[n + j] % den), ())}
        for (i, s), terms in scaled.items() if alg else ():
            if terms != row:  # test w_j - s*v_i, a row over v then w
                diff = [(x == n + j) - s * (x == i) for x in range(2 * n)]
                if coset(form, diff, 0, 1) is TriBool.UNKNOWN:
                    options.update(((i, s, k), TriBool.UNKNOWN) for k in range(len(offsets)))
        partial = [
            (perm + (i,), sg + (s,), k, t if verdict is TriBool.YES else verdict)
            for perm, sg, kk, verdict in partial
            for (i, s, k), t in options.items()
            if i not in perm and kk in (None, k)
        ]
        if not partial:
            return TriBool.NO, None
    found = sorted((order[c[:2]] * len(offsets) + c[2], *c) for c in partial if c[:2] in order)
    saw_unknown = False
    for _, perm, sg, k, related in found:
        if related is TriBool.YES:
            nums = [consts[n + j] - s * consts[i] for j, (i, s) in enumerate(zip(perm, sg))]
            if not even_sum or (sum(nums) - n * offs[k]) % (2 * den) == 0:
                return related, OrbitWitness(
                    perm=perm,
                    signs=sg,
                    shift=tuple(Fraction(x, den) for x in nums),
                    quarter_shift=k if len(offsets) > 1 else None,
                    integer_shift=tuple((x - offs[k]) // den for x in nums[:named]),
                )
        elif even_sum:  # an algebraic atom survives: the sum may still decide No
            # The row of the sum of the w_j - s*v_i over v then w; perm is a permutation.
            total = [-s for _, s in sorted(zip(perm, sg))] + [1] * n
            related = tri_and((related, coset(form, total, n * offsets[k], 2)))
            saw_unknown = saw_unknown or related is TriBool.UNKNOWN
        else:
            saw_unknown = True
    return (TriBool.UNKNOWN if saw_unknown else TriBool.NO), None


def _piii_decide(form: Scaled) -> tuple[TriBool, OrbitWitness | None]:
    """The third family's criterion on differences mod 2Z, as ``(related,
    witness)``, on ``form``, which is ``_scaled(Family.PIII, v, w)``."""
    den, consts, rows = form.den, form.consts, form.rows
    # Is dw - sign*dv in 2Z, for dv = v1 - v0 and dw = w1 - w0?
    t_plus, t_minus = (coset(form, (sign, -sign, -1, 1), 0, 2) for sign in (1, -1))
    related = tri_or([t_plus, t_minus])
    if related is not TriBool.YES:
        return related, None
    # The group's elements are exactly these four linear parts with an
    # integral shift of even sum, so a candidate in that lattice is
    # preferred; the note marks a witness that is not a group element.
    rational = [
        (perm, eps, tuple(consts[2 + j] - eps * consts[p] for j, p in enumerate(perm)))
        for eps, perm in itertools.product((1, -1), ((0, 1), (1, 0)))
        if all(rows[2 + j] == _signed(rows[p], eps) for j, p in enumerate(perm))
    ]
    in_lattice = [c for c in rational if _in_lattice(c[2], den)]
    if rational:
        perm, eps, shift = (in_lattice or rational)[0]
        note = None if in_lattice else "affine witness lies outside the generator lattice"
        shift = tuple(Fraction(x, den) for x in shift)
        return related, OrbitWitness(perm=perm, signs=(eps, eps), shift=shift, note=note)
    sign = 1 if t_plus is TriBool.YES else -1
    return related, OrbitWitness(
        integer_shift=((consts[3] - consts[2] - sign * (consts[1] - consts[0])) // den,),
        note=f"difference criterion only (branch {'+' if sign > 0 else '-'}); no affine witness with rational shift",
    )


def orbit_decide(
    family: Family, v: Sequence[ParamValue | Rational], w: Sequence[ParamValue | Rational], *, checked: bool = False,
    form: Scaled | None = None,
) -> OrbitVerdict:
    """``decide_form`` on the ``checked_form`` of v and w.  ``checked`` says
    v and w are already ``EquationId(family, ...).params``, and ``form`` is
    their ``_scaled`` form when the caller has built it."""
    if not checked:
        form = checked_form(family, v, w)
    return decide_form(family, form or _scaled(family, v, w))


def decide_form(family: Family, form: Scaled) -> OrbitVerdict:
    """Evaluate the family's closed-form transformation-orbit criterion on
    v and w, the halves of ``form`` (``_scaled(family, v, w)``).

    Yes always certifies nonorthogonality (the transformations realize it);
    the converse direction holds exactly when the hypothesis status is
    ``proved``, i.e. the supporting statement's genericity clauses hold.
    """
    n = len(form.consts) // 2
    if family is Family.PI:
        related, hypotheses = TriBool.YES, True
        witness = OrbitWitness(perm=(), signs=(), shift=(), note="parameter-free family")
    elif family is Family.PIII:
        related, witness = _piii_decide(form)
        hypotheses = is_generic(family, form, 0, n) and is_generic(family, form, n)
    else:
        related, witness = _lattice_scan(family, form)
        # The sixth family's converse is open: its hypotheses never hold.
        hypotheses = family is not Family.PVI and (is_generic(family, form, 0, n) or is_generic(family, form, n))
    criterion = family_space(family).criterion
    return OrbitVerdict(
        family=family,
        related=related,
        criterion=criterion.text,
        criterion_citation=cite(criterion.key),
        hypothesis_status=_status(related, hypotheses),
        witness=witness,
        notes=criterion.notes,
    )


def _status(related: TriBool, hypotheses_hold: bool) -> HypothesisStatus:
    if hypotheses_hold:
        return HypothesisStatus.PROVED
    if related is TriBool.YES:
        return HypothesisStatus.SUFFICIENT_ONLY
    return HypothesisStatus.OPEN


# -- generator words ---------------------------------------------------------------------

# Longest word returned; a longer one is reported as WordTooLong.
MAX_WORD_TOKENS = 10_000


class WordCheckError(RuntimeError):
    """A spelled word does not map v to w: a bug in the walk, not a fact about the input."""


def _in_lattice(shift: Sequence[int], den: int) -> bool:
    """``shift / den`` is integral with even sum: the translations of the
    III-VI orbit groups (for IV/V, whose shifts sum to zero, just integral)."""
    return all(t % den == 0 for t in shift) and sum(shift) % (2 * den) == 0


@lru_cache(maxsize=None)
def _alcove(family: Family):
    """The family's alcove, scaled by the common denominator of its point:
    ``(size, point, walls, roots)``.  Each wall is ``(i, a, j, b, k, block)``:
    inside the alcove a*x_i + b*x_j > k, and ``block`` spells the reflection
    x -> x - c*(a*e_i + b*e_j) with c = a*x_i + b*x_j - k.  ``roots`` lists
    the positive roots x_i + b*x_j (i < j) of the finite group; each has a
    reflecting wall at every integer level."""
    blocks, point = family_space(family).alcove
    size = math.lcm(*(x.denominator for x in point))
    point = tuple(int(x * size) for x in point)
    walls = []
    for block in blocks:
        # The block is the reflection in a root e_i + b*e_j at level k.
        m = word_map(family, block)
        i = next(i for i in range(m.dim) if (m.perm[i], m.signs[i]) != (i, 1))
        j, b, k = m.perm[i], -m.signs[i], int(m.translation[i]) * size
        a = 1 if point[i] + b * point[j] > k else -1
        walls.append((i, a, j, a * b, a * k, block))
    signs = (-1,) if family_space(family).sum_zero else (-1, 1)
    roots = tuple((i, j, b) for i, j in itertools.combinations(range(len(point)), 2) for b in signs)
    return size, point, tuple(walls), roots


def _walls_through(family: Family, target: Sequence[int], form: Scaled) -> list[tuple[int, int, int, int]]:
    """The reflecting walls x_i + b*x_j = k through the point with integer
    constants ``target`` and w's atom rows in ``form``, as ``(i, j, b, k)``
    with k scaled as the alcove's point."""
    size, point, _, roots = _alcove(family)
    den, rows = form.den, form.rows[len(point):]
    through = []
    for i, j, b in roots:
        level = target[i] + b * target[j]
        if level % den == 0 and rows[i] == _signed(rows[j], -b):
            through.append((i, j, b, level // den * size))
    return through


def _alcove_word(
    family: Family, witness: OrbitWitness, shift: Sequence[int], target: Sequence[int], form: Scaled, budget: int
) -> tuple[str, ...] | None:
    """Reduced word of the shortest group element h with h(v) = w, given the
    witness map g (with translation ``shift / form.den``, a group element)
    that maps v to w; None when that word has more than ``budget`` tokens.
    ``target`` holds w's integer constants in ``form`` (the fifth family's
    less its quarter translations).

    Every such h is u*g with u in the stabilizer of w, which the reflections
    in walls through w generate.  Reflecting g(point) across those walls
    until none of them separates it from the point gives h(point) for the
    shortest h of the coset (Dyer).  Walking h(point) back into the alcove,
    one violated wall at a time, lowers the length by one per step, so the
    reflections taken, last first, spell a reduced word for h.  The point is
    rational, so the walk is integer arithmetic on the scaled point even when
    v and w carry atoms.
    """
    size, point, walls, _ = _alcove(family)
    q = [s * point[p] + t // form.den * size for p, s, t in zip(witness.perm, witness.signs, shift)]
    through_w = _walls_through(family, target, form)
    moved = True
    while moved:
        moved = False
        for i, j, b, k in through_w:
            c = q[i] + b * q[j] - k
            if c * (point[i] + b * point[j] - k) < 0:
                q[i] -= c
                q[j] -= b * c
                moved = True
    taken: list[tuple[str, ...]] = []
    tokens = 0
    while True:
        for i, a, j, b, k, block in walls:
            c = a * q[i] + b * q[j] - k
            if c < 0:
                q[i] -= a * c
                q[j] -= b * c
                taken.append(block)
                tokens += len(block)
                if tokens > budget:
                    return None
                break
        else:
            return tuple(token for block in reversed(taken) for token in block)


def _int_word(family: Family, word: Sequence[str]) -> tuple[int, Sequence[int], Sequence[int], Sequence[int]]:
    """The family's token denominator, and the perm, signs and translation
    times it of ``word`` (applied left to right), composed on the integer
    token maps."""
    den, tokens = _int_tokens(family)
    n = family_space(family).arity
    perm, sg, t = range(n), (1,) * n, (0,) * n
    for p, s, u in map(tokens.__getitem__, word):
        perm, sg = [perm[i] for i in p], [a * sg[i] for a, i in zip(s, p)]
        t = [a * t[i] + b for a, i, b in zip(s, p, u)]
    return den, perm, sg, t


def _word_maps(family: Family, word: Sequence[str], form: Scaled) -> bool:
    """Whether ``word`` maps v to w, for ``form = _scaled(family, v, w)``: the
    word is composed once (``_int_word``), and its one image of v compared
    with w."""
    token_den, perm, sg, t = _int_word(family, word)
    n, c, rows, k = len(form.consts) // 2, form.consts, form.rows, form.den // token_den
    return all(
        c[n + j] == sg[j] * c[perm[j]] + t[j] * k and rows[n + j] == _signed(rows[perm[j]], sg[j]) for j in range(n)
    )


def generator_word(
    family: Family, v: Sequence[ParamValue | Rational], w: Sequence[ParamValue | Rational],
    verdict: OrbitVerdict | None = None, *, checked: bool = False, form: Scaled | None = None,
) -> WordResult:
    """``word_form`` on the ``checked_form`` of v and w; ``verdict`` is
    ``orbit_decide(family, v, w)`` when the caller has already computed it,
    and ``checked`` and ``form`` are as there."""
    if not checked:
        form = checked_form(family, v, w)
    form = form or _scaled(family, v, w)
    return word_form(family, form, verdict or decide_form(family, form))


def word_form(family: Family, form: Scaled, verdict: OrbitVerdict) -> WordResult:
    """A word in the family's generators mapping v to w exactly, read from
    the witness of ``verdict``, which is ``decide_form(family, form)``.

    The second family's word is its normal form, a reflection or not and
    then a run of one shift.  For the third to sixth families the witness
    map is a group element unless it lies outside the generator lattice
    (the third family's extra parity), and the group is an affine Weyl
    group, so ``_alcove_word`` spells the shortest element mapping v to w by
    an alcove walk; the fifth family's quarter translation is split off
    first and appended as ``tminus^-1`` tokens.  NoWordFound therefore
    proves that no group element maps v to w.  A word longer than
    MAX_WORD_TOKENS is reported as WordTooLong.  Every word returned passes
    one exact check (``_word_maps``); a word that fails it raises
    WordCheckError.
    """
    if verdict.related is not TriBool.YES:
        raise ValueError("generator_word requires an orbit_decide verdict of Yes")
    if family is Family.PI:
        return WordResult(word=())
    witness = verdict.witness
    if not witness.has_map:
        return WordResult(word=None, reason="NoWordFound")

    if family is Family.PII:
        # w = v + n, or w = -v + n = reflect(v) + (n + 1).
        reflect = witness.signs[0] < 0
        n = int(witness.shift[0]) + reflect
        if abs(n) + reflect > MAX_WORD_TOKENS:
            return WordResult(word=None, reason="WordTooLong")
        word = ("reflect",) * reflect + (("shift_up",) * n if n >= 0 else ("shift_down",) * -n)
    else:
        n, den, consts = len(form.consts) // 2, form.den, form.consts
        shift = [consts[n + j] - s * consts[p] for j, (p, s) in enumerate(zip(witness.perm, witness.signs))]
        target, tail = consts[n:], ()
        if family is Family.PV:
            a = witness.quarter_shift
            token_den, tokens = _int_tokens(family)
            quarter = [x * (den // token_den) for x in tokens["tminus^-1"][2]]
            shift = [t - a * x for t, x in zip(shift, quarter)]
            target = [y - a * x for y, x in zip(target, quarter)]
            tail = ("tminus^-1",) * a
        if not _in_lattice(shift, den):
            return WordResult(word=None, reason="NoWordFound")
        word = _alcove_word(family, witness, shift, target, form, MAX_WORD_TOKENS - len(tail))
        if word is None:
            return WordResult(word=None, reason="WordTooLong")
        word += tail
    if not _word_maps(family, word, form):
        raise WordCheckError(f"the word spelled for family {family.value} does not map v to w")
    return WordResult(word=word)


def orbit_with_word(
    family: Family, v: Sequence[ParamValue | Rational], w: Sequence[ParamValue | Rational]
) -> OrbitVerdict:
    """orbit_decide plus word synthesis when the verdict is Yes; v and w
    are validated and scaled once, here."""
    form = checked_form(family, v, w)
    verdict = orbit_decide(family, v, w, checked=True, form=form)
    if verdict.related is not TriBool.YES:
        return verdict
    result = generator_word(family, v, w, verdict, checked=True, form=form)
    return verdict._replace(word=result.word, word_reason=result.reason)
