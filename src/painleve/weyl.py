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

from .catalog import EquationId, Family, family_space
from .citations import cite
from .exactnum import (
    AtomKind,
    ParamValue,
    Rational,
    TriBool,
    decide_coset,
    transcendence_degree,
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

    def is_identity(self) -> bool:
        return self == AffineMap.identity(self.family, self.dim)

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


def _coerce_params(family: Family, values: Sequence[ParamValue | Rational]) -> tuple[ParamValue, ...]:
    return EquationId(family, values).params


def _is_generic(family: Family, params: Sequence[ParamValue]) -> bool:
    return transcendence_degree(params) == family_space(family).dimension


@lru_cache(maxsize=None)
def _scan_order(family: Family) -> tuple[dict[tuple[tuple[int, ...], tuple[int, ...]], int], tuple[int, ...]]:
    """Each linear part ``(perm, signs)`` of the family's lattice scan mapped
    to its rank in scan order (the dict keeps that order), and the signs the
    scan uses, +1 first."""
    spec = family_space(family)
    linear = [(p, s) for p in itertools.permutations(range(spec.arity)) for s in spec.scan.sign_patterns]
    signs = sorted({s for pattern in spec.scan.sign_patterns for s in pattern}, reverse=True)
    return {part: rank for rank, part in enumerate(linear)}, tuple(signs)


def _residue_key(terms: tuple, const: Fraction, sign: int, offset: Rational) -> tuple:
    """Key of the value with these atom terms and constant ``sign*const +
    offset``: two values have equal keys exactly when their difference is
    an integer."""
    num, den = sign * const.numerator, const.denominator
    if offset:
        num, den = num * offset.denominator + offset.numerator * den, den * offset.denominator
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return terms, num % den, den


def _lattice_scan(
    family: Family, v: Sequence[ParamValue], w: Sequence[ParamValue]
) -> tuple[TriBool, OrbitWitness | None]:
    """``(related, witness)`` from the first candidate g, c of the family's
    scan (see ``catalog.FamilySpec``) with w - g(v) - c integral.

    w_j - s*v_i - c_k is Yes exactly when w_j and s*v_i + c_k have the same
    residue key, so one dict of v's keys gives every Yes.  Where the atoms
    do not cancel the difference is No, unless an algebraic atom may leave
    it Unknown: only then does ``decide_coset`` test it, once for all k.
    Candidates are built a coordinate at a time from the non-No
    differences; the sixth family's even-sum test and the witness use the
    exact differences of those candidates, earliest in scan order first.
    """
    spec = family_space(family)
    _, offsets, named, even_sum = spec.scan
    order, signs = _scan_order(family)
    # (i, s) -> the atom terms of s*v_i; (residue key of s*v_i + c_k) -> [(i, s, k)]
    scaled = {(i, s): x.terms if s > 0 else tuple((a, -c) for a, c in x.terms) for i, x in enumerate(v) for s in signs}
    yes: dict[tuple, list[tuple[int, int, int]]] = {}
    for (i, s), terms in scaled.items():
        for k, c in enumerate(offsets):
            yes.setdefault(_residue_key(terms, v[i].const, s, c), []).append((i, s, k))
    has_alg = [any(a.kind is AtomKind.ALGEBRAIC_IRRATIONAL for a, _ in x.terms) for x in v]
    partial = [((), (), None, TriBool.YES)]  # (perm, signs, k, verdict) on the coordinates so far
    for j, y in enumerate(w):
        options = {key: TriBool.YES for key in yes.get(_residue_key(y.terms, y.const, 1, 0), ())}
        y_alg = any(a.kind is AtomKind.ALGEBRAIC_IRRATIONAL for a, _ in y.terms)
        for (i, s), terms in scaled.items():
            if (y_alg or has_alg[i]) and terms != y.terms:
                if decide_coset(y - v[i] if s > 0 else y + v[i], 0, 1) is TriBool.UNKNOWN:
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
        if related is TriBool.UNKNOWN and not even_sum:
            saw_unknown = True
            continue
        diffs = [w[j] - v[i] if s > 0 else w[j] + v[i] for j, (i, s) in enumerate(zip(perm, sg))]
        if even_sum:
            related = tri_and((related, decide_coset(sum(diffs[1:], diffs[0]), len(v) * offsets[k], 2)))
        if related is TriBool.YES:
            shift = tuple(d.const for d in diffs)
            return related, OrbitWitness(
                perm=perm,
                signs=sg,
                shift=shift,
                quarter_shift=k if len(offsets) > 1 else None,
                integer_shift=tuple(int(x - offsets[k]) for x in shift[:named]),
            )
        saw_unknown = saw_unknown or related is TriBool.UNKNOWN
    return (TriBool.UNKNOWN if saw_unknown else TriBool.NO), None


def _piii_decide(v: Sequence[ParamValue], w: Sequence[ParamValue]) -> tuple[TriBool, OrbitWitness | None]:
    """The third family's criterion on differences mod 2Z, as ``(related, witness)``."""
    dv = v[1] - v[0]
    dw = w[1] - w[0]
    t_plus = decide_coset(dw - dv, 0, 2)
    t_minus = decide_coset(dw + dv, 0, 2)
    related = tri_or([t_plus, t_minus])
    if related is not TriBool.YES:
        return related, None
    # The group's elements are exactly these four linear parts with an
    # integral shift of even sum, so a candidate in that lattice is
    # preferred; the note marks a witness that is not a group element.
    rational = []
    for eps, perm in itertools.product((1, -1), ((0, 1), (1, 0))):
        shifts = [w[j] - v[perm[j]] * eps for j in range(2)]
        if all(s.is_rational for s in shifts):
            rational.append((perm, eps, tuple(s.const for s in shifts)))
    in_lattice = [c for c in rational if _in_lattice(c[2])]
    if rational:
        perm, eps, shift = (in_lattice or rational)[0]
        note = None if in_lattice else "affine witness lies outside the generator lattice"
        return related, OrbitWitness(perm=perm, signs=(eps, eps), shift=shift, note=note)
    branch = "+" if t_plus is TriBool.YES else "-"
    shift = (dw - dv) if t_plus is TriBool.YES else (dw + dv)
    return related, OrbitWitness(
        integer_shift=(int(shift.const),),
        note=f"difference criterion only (branch {branch}); no affine witness with rational shift",
    )


def orbit_decide(
    family: Family, v: Sequence[ParamValue | Rational], w: Sequence[ParamValue | Rational], *, checked: bool = False
) -> OrbitVerdict:
    """Evaluate the family's closed-form transformation-orbit criterion.

    Yes always certifies nonorthogonality (the transformations realize it);
    the converse direction holds exactly when the hypothesis status is
    ``proved``, i.e. the supporting statement's genericity clauses hold.
    ``checked`` says v and w are already ``EquationId(family, ...).params``.
    """
    if not checked:
        v, w = _coerce_params(family, v), _coerce_params(family, w)

    if family is Family.PI:
        related, hypotheses = TriBool.YES, True
        witness = OrbitWitness(perm=(), signs=(), shift=(), note="parameter-free family")
    elif family is Family.PIII:
        related, witness = _piii_decide(v, w)
        hypotheses = _is_generic(family, v) and _is_generic(family, w)
    else:
        related, witness = _lattice_scan(family, v, w)
        # The sixth family's converse is open: its hypotheses never hold.
        hypotheses = family is not Family.PVI and (_is_generic(family, v) or _is_generic(family, w))
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


def _in_lattice(shift: Sequence[Fraction]) -> bool:
    """Integral with even sum: the translations of the III-VI orbit groups
    (for IV/V, whose shifts sum to zero, just integral)."""
    return all(t.denominator == 1 for t in shift) and sum(shift) % 2 == 0


@lru_cache(maxsize=None)
def _alcove(family: Family):
    """The family's alcove, scaled by the common denominator of its point:
    ``(scale, point, walls, roots)``.  Each wall is ``(i, a, j, b, k, block)``:
    inside the alcove a*x_i + b*x_j > k, and ``block`` spells the reflection
    x -> x - c*(a*e_i + b*e_j) with c = a*x_i + b*x_j - k.  ``roots`` lists
    the positive roots x_i + b*x_j (i < j) of the finite group; each has a
    reflecting wall at every integer level."""
    blocks, point = family_space(family).alcove
    scale = math.lcm(*(x.denominator for x in point))
    point = tuple(int(x * scale) for x in point)
    walls = []
    for block in blocks:
        # The block is the reflection in a root e_i + b*e_j at level k.
        m = word_map(family, block)
        i = next(i for i in range(m.dim) if (m.perm[i], m.signs[i]) != (i, 1))
        j, b, k = m.perm[i], -m.signs[i], int(m.translation[i]) * scale
        a = 1 if point[i] + b * point[j] > k else -1
        walls.append((i, a, j, a * b, a * k, block))
    signs = (-1,) if family_space(family).sum_zero else (-1, 1)
    roots = tuple((i, j, b) for i, j in itertools.combinations(range(len(point)), 2) for b in signs)
    return scale, point, tuple(walls), roots


def _alcove_word(
    family: Family, witness: OrbitWitness, shift: Sequence[Fraction], w: Sequence[ParamValue], budget: int
) -> tuple[str, ...] | None:
    """Reduced word of the shortest group element h with h(v) = w, given the
    witness map g (with translation ``shift``, a group element) that maps v
    to w; None when that word has more than ``budget`` tokens.

    Every such h is u*g with u in the stabilizer of w, which the reflections
    in walls through w generate.  Reflecting g(point) across those walls
    until none of them separates it from the point gives h(point) for the
    shortest h of the coset (Dyer).  Walking h(point) back into the alcove,
    one violated wall at a time, lowers the length by one per step, so the
    reflections taken, last first, spell a reduced word for h.  The point is
    rational, so the walk is integer arithmetic on the scaled point even when
    v and w carry atoms.
    """
    scale, point, walls, roots = _alcove(family)
    q = [s * point[p] + int(t) * scale for p, s, t in zip(witness.perm, witness.signs, shift)]
    through_w = []
    for i, j, b in roots:
        level = w[i] + w[j] * b
        if level.is_rational and level.const.denominator == 1:
            through_w.append((i, j, b, int(level.const) * scale))
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


def generator_word(
    family: Family,
    v: Sequence[ParamValue | Rational],
    w: Sequence[ParamValue | Rational],
    verdict: OrbitVerdict | None = None,
    *, checked: bool = False,
) -> WordResult:
    """A word in the family's generators mapping v to w exactly, read from
    the orbit witness.

    The second family's word is its normal form, a reflection or not and
    then a run of one shift.  For the third to sixth families the witness
    map is a group element unless it lies outside the generator lattice
    (the third family's extra parity), and the group is an affine Weyl
    group, so ``_alcove_word`` spells the shortest element mapping v to w by
    an alcove walk; the fifth family's quarter translation is split off
    first and appended as ``tminus^-1`` tokens.  NoWordFound therefore
    proves that no group element maps v to w.  A word longer than
    MAX_WORD_TOKENS is reported as WordTooLong.  ``verdict`` is
    ``orbit_decide(family, v, w)`` when the caller has already computed it,
    and ``checked`` is as there.
    """
    if not checked:
        v, w = _coerce_params(family, v), _coerce_params(family, w)
    if verdict is None:
        verdict = orbit_decide(family, v, w, checked=True)
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
        shift, target, tail = witness.shift, w, ()
        if family is Family.PV:
            a = witness.quarter_shift
            quarter = resolve_token(family, "tminus^-1").translation
            shift = tuple(t - a * x for t, x in zip(shift, quarter))
            target = tuple(y - a * x for y, x in zip(w, quarter))
            tail = ("tminus^-1",) * a
        if not _in_lattice(shift):
            return WordResult(word=None, reason="NoWordFound")
        word = _alcove_word(family, witness, shift, target, MAX_WORD_TOKENS - len(tail))
        if word is None:
            return WordResult(word=None, reason="WordTooLong")
        word += tail
    if apply_word(family, word, v) == w:
        return WordResult(word=word)
    return WordResult(word=None, reason="NoWordFound")


def orbit_with_word(
    family: Family,
    v: Sequence[ParamValue | Rational],
    w: Sequence[ParamValue | Rational],
) -> OrbitVerdict:
    """orbit_decide plus word synthesis when the verdict is Yes; v and w
    are validated once, here."""
    v, w = _coerce_params(family, v), _coerce_params(family, w)
    verdict = orbit_decide(family, v, w, checked=True)
    if verdict.related is not TriBool.YES:
        return verdict
    result = generator_word(family, v, w, verdict=verdict, checked=True)
    return verdict._replace(word=result.word, word_reason=result.reason)
