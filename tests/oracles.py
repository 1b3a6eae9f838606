"""Reference implementations kept as test oracles.

- ``integer_solve`` solves integer linear systems by column reduction.
- ``fraction_decide_coset`` is ``exactnum.decide_coset`` from before the
  integer form: the three-valued integrality rule on a ``ParamValue``,
  with ``Fraction`` arithmetic.  Every oracle below decides its
  congruences with it.
- ``pvi_root_scan`` splits the 24 roots of D4 by how they pair with a
  sixth-family parameter.
- ``pvi_image_scan_special`` decides the sixth family's half-integer
  special condition over all 192 even-sign-weight signed-permutation images
  of the parameter, as ``classify`` did before it tested the 12 pairings.
- ``loop_family_from_name`` is ``Family.from_name`` from before its
  spelling table: a loop over the members.
- ``chain_stratum`` decides the stratum by one hand-written if-chain per
  family, and ``chain_pv_algebraic_solutions`` decides the fifth family's
  count from its congruences, apart from the stratum.  ``chain_classify``
  runs ``classify`` on both, for comparison with the walk over
  ``FamilySpec.strata``.
- ``coset_strata`` is ``classify.stratum`` from before the integer form:
  the same walk, with every congruence a ``ParamValue`` difference given to
  ``fraction_decide_coset``, and the sixth family's half-integer test over the 12
  pairings likewise.  ``coset_classify`` runs ``classify`` on it and on the
  second and third families' counts decided the same way.
- ``scan_orbit_decide`` decides the second and fourth to sixth families'
  orbit criteria by a plain scan: every candidate computes all of its coset
  tests.  ``witness_maps`` checks a witness map against v and w.
  ``SCANS`` writes out each family's lattice-scan candidates by hand.
- ``lazy_lattice_scan`` is ``weyl._lattice_scan`` from before residue
  keys: it walks ``SCANS`` in order, builds each difference
  w_j - s*v_i - c as a ``ParamValue`` when a candidate first reaches it, and
  calls ``fraction_decide_coset`` on it.
- ``chain_distinct_family_verdict`` is the distinct-family orthogonality
  chain with one block per specially cited pair.
- ``shortest_word`` is the bounded meet-in-the-middle search that spelled
  third- and sixth-family words before the alcove walk; it finds a shortest
  word.  ``table_word`` is the fourth and fifth families' former
  construction: a permutation word from a breadth-first search, then the
  translation as copies of conjugated elementary translation words.
- ``TuplePoly`` is ``diffpoly.Poly`` from before packed monomial keys:
  exponent tuples over a sorted variable tuple, remapped onto a common tuple
  for every sum and product.  ``FractionPoly`` is that kernel from before
  integer coefficients: every coefficient a ``Fraction``, every product
  re-canonicalised by ``__init__``, and ``evaluate`` deriving its top
  degrees and coefficient lcm on each call.  ``diffpoly`` has no exact
  evaluator of its own: ``TuplePoly.evaluate`` is the only copy, and
  ``exact_value`` evaluates a ``DiffExpr`` by it.
- ``evaluating_pv_random_point_check`` is ``diffpoly.pv_random_point_check``
  from before cleared integer sums: a ``Fraction`` per draw and per value,
  and no bound on the redraws.
- ``affine_verify_group_relation`` is ``diffpoly.verify_group_relation``
  from before integer token maps: the word composed by ``word_map`` into an
  ``AffineMap`` with ``Fraction`` translations, compared with the
  expectation's ``AffineMap``.
- ``residual_exprs`` writes each equation of an ODE system as its left
  side minus its right side.
- ``csv_module_write_csv`` is ``numint.write_csv`` as it was before it
  joined its lines itself: ``csv.writer`` with a list of reprs per row.
- ``tuple_integrate_rhs`` and ``indexed_residual_norm`` are the RK4 and
  residual loops from before the generated loops: they call a chart's
  compiled ``rhs(t, state)`` on tuples and lists and index the samples.
  ``numint`` runs only its chart kernels, so these are the only integrator
  and residual loops that call a right-hand side.
- ``fraction_rational_rank`` is ``exactnum.rational_rank`` from before
  integer rows: Gauss-Jordan elimination over ``Fraction``.
- The two parse oracles read text apart from ``exactnum.parse_param``'s one
  reader (one ``findall`` of tokens, one walk into integer sums).
  ``descent_parse_param`` is a recursive descent over its own tokenizer:
  one closure per grammar rule and every term a ``ParamValue`` added to the
  running result; a character outside the grammar is reported before any
  grammar error, which is raised where the grammar first fails.
  ``fraction_fast_parse_param`` reads whitespace-free text only, by two
  regexes and ``Fraction`` sums: the reference for the integer sums.
- ``of_atom``, ``coeff`` and ``is_rational`` build and inspect
  ``ParamValue``s for tests; no module in ``src/`` needs them.
- The orbit path from before the integer form, on ``Fraction`` and
  ``ParamValue`` arithmetic: ``fraction_piii_decide`` (the third family's
  criterion), ``fraction_in_lattice``, ``fraction_walls_through`` (the
  walls through w, from ``ParamValue`` levels), ``fraction_alcove_word``,
  and ``fraction_generator_word``, which splits off the fifth family's
  quarter translation on ``AffineMap`` translations and checks each word
  with ``apply_word``.  ``fraction_transcendence_degree`` ranks ``Fraction``
  rows, and ``fraction_sum_zero_error`` is ``EquationId``'s sum-zero test on
  ``Fraction`` sums.
- ``dict_run`` answers an ``orbit`` or ``orthogonal`` query as ``cli`` did
  before its records were spliced from per-class fragments and its values
  read straight into one integer form: every value a ``ParamValue`` from
  ``parse_param``, checked through ``EquationId`` (``orbit_with_word`` and
  ``cross_family_verdict`` take the values), and one payload dict dumped by
  ``json.dumps(payload, sort_keys=True)``.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import json
import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import Sequence
from unittest import mock

from painleve.catalog import EquationId, Family, UnknownFamilyError, family_space
from painleve import cli, diffpoly
from painleve.diffpoly import T_VAR, DiffExpr, Var, _coefficient, jet, sym
from painleve.classify import ClassificationReport, Stratum
from painleve.exactnum import (
    MAX_DIGITS, AtomKind, InputError, ParamSyntaxError, ParamValue, TriBool, _LONG_DIGIT_RUN, _intern, format_param,
    transcendence_degree, tri_and, tri_or,
)
from painleve.numint import BLOWUP_THRESHOLD, ResidualReport, Trajectory, TrajectoryStatus
from painleve.odes import OdeSystem
from painleve.citations import cite
from painleve.ortho import OrthoVerdict, Verdict, cross_family_verdict
from painleve import weyl
from painleve.weyl import (
    MAX_WORD_TOKENS, AffineMap, HypothesisStatus, OrbitWitness, WordResult, apply_word, named_generators,
    orbit_decide, resolve_token, word_map,
)

# The package exports the function ``classify`` under the module's name.
classify_module = importlib.import_module("painleve.classify")

# -- ParamValue helpers ---------------------------------------------------------------


def of_atom(atom, coeff=1) -> ParamValue:
    """The value ``coeff * atom``."""
    return ParamValue(0, {atom: coeff})


def coeff(value: ParamValue, atom) -> Fraction:
    """The coefficient of ``atom`` in ``value`` (0 when absent)."""
    return dict(value.terms).get(atom, Fraction(0))


def is_rational(value: ParamValue) -> bool:
    return not value.terms


# -- the integrality rule -------------------------------------------------------------


def fraction_decide_coset(x: ParamValue, offset, modulus) -> TriBool:
    """Decide whether ``x - offset`` lies in ``modulus * Z``.

    Atom-free values are settled by rational arithmetic.  A surviving
    transcendental coefficient decides No; a single surviving
    algebraic-irrational atom decides No; two or more distinct surviving
    algebraic-irrational atoms leave the question Unknown.
    """
    modulus = Fraction(modulus)
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if not x.terms:
        q = x.const - offset if offset else x.const
        if modulus != 1:
            q = q / modulus
        return TriBool.of(q.denominator == 1)
    # A rational offset leaves the atom terms of x - offset unchanged.
    if x.has_transcendental:
        return TriBool.NO
    return TriBool.NO if len(x.terms) == 1 else TriBool.UNKNOWN


# -- integer linear systems -----------------------------------------------------------


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def integer_solve(A: Sequence[Sequence[int]], b: Sequence[int]) -> list[int] | None:
    """Solve A·x = b over the integers, exactly.

    Performs unimodular column reduction (Hermite-style) of A, tracking the
    transform, then back-substitutes with divisibility checks.  Returns one
    integral solution, or None when no integral solution exists.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("matrix rows must have equal length")
    if len(b) != m:
        raise ValueError("dimension mismatch between matrix and vector")
    W = [[int(x) for x in row] for row in A]
    b = [int(x) for x in b]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivots: list[tuple[int, int]] = []
    col = 0
    for row in range(m):
        if col >= n:
            break
        j0 = next((j for j in range(col, n) if W[row][j] != 0), None)
        if j0 is None:
            continue
        if j0 != col:
            for M in (W, U):
                for r in range(len(M)):
                    M[r][col], M[r][j0] = M[r][j0], M[r][col]
        for j in range(col + 1, n):
            if W[row][j] == 0:
                continue
            a, c = W[row][col], W[row][j]
            g, s, t = _ext_gcd(a, c)
            u_, v_ = a // g, c // g
            for M in (W, U):
                for r in range(len(M)):
                    x, y = M[r][col], M[r][j]
                    M[r][col] = s * x + t * y
                    M[r][j] = -v_ * x + u_ * y
        pivots.append((row, col))
        col += 1
    y = [0] * n
    for row, c in pivots:
        residue = b[row] - sum(W[row][j] * y[j] for j in range(c))
        pivot = W[row][c]
        if residue % pivot != 0:
            return None
        y[c] = residue // pivot
    for r in range(m):
        if sum(W[r][j] * y[j] for j in range(n)) != b[r]:
            return None
    x = [sum(U[i][j] * y[j] for j in range(n)) for i in range(n)]
    assert all(sum(A[i][k] * x[k] for k in range(n)) == b[i] for i in range(m))
    return x


# -- the D4 roots ----------------------------------------------------------------------

# The 24 integer vectors with exactly two nonzero entries, each ±1.
D4_ROOTS = tuple(
    tuple(si if k == i else sj if k == j else 0 for k in range(4))
    for i, j in itertools.combinations(range(4), 2)
    for si in (1, -1)
    for sj in (1, -1)
)


def pvi_root_scan(v: Sequence[ParamValue]) -> tuple[list, list]:
    """Split the 24 roots by whether <v, root> is an integer: certainly yes,
    and undecided."""
    yes, unknown = [], []
    for root in D4_ROOTS:
        verdict = fraction_decide_coset(sum((x * a for x, a in zip(v, root)), ParamValue(0)), 0, 1)
        if verdict is TriBool.YES:
            yes.append(root)
        elif verdict is TriBool.UNKNOWN:
            unknown.append(root)
    return yes, unknown


def pvi_image_scan_special(v: Sequence[ParamValue]) -> tuple[TriBool, bool]:
    """Test v1 - v2 in 1/2 + Z and v3 - v4 in Z on every image of v under the
    signed permutations with even sign weight.  Returns the verdict and
    whether only a non-identity image passed.  Each of the 48 differences
    of two signed coordinates is tested once, and the images share them."""
    signed = {(i, s): v[i] * s for i in range(4) for s in (1, -1)}
    difference = {(x, y): signed[x] - signed[y] for x in signed for y in signed if x[0] != y[0]}
    in_half = {key: fraction_decide_coset(d, Fraction(1, 2), 1) for key, d in difference.items()}
    in_int = {key: fraction_decide_coset(d, 0, 1) for key, d in difference.items()}
    identity_hit = False
    hit = False
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            if signs.count(-1) % 2:
                continue
            image = [(perm[j], signs[j]) for j in range(4)]
            if tri_and([in_half[image[0], image[1]], in_int[image[2], image[3]]]) is TriBool.YES:
                hit = True
                if perm == (0, 1, 2, 3) and signs == (1, 1, 1, 1):
                    identity_hit = True
    if hit:
        return TriBool.YES, not identity_hit
    return TriBool.NO, False


# -- family names -----------------------------------------------------------------------


def loop_family_from_name(name: str) -> Family:
    """``Family.from_name`` as a loop over the members' value and name."""
    name = name.strip().upper()
    for fam in Family:
        if name in (fam.value, fam.name, f"P{fam.value}"):
            return fam
    raise UnknownFamilyError(f"unknown family {name!r}; expected one of I, II, III, IV, V, VI")


# -- the per-family strata chains -------------------------------------------------------


def _is_int(x: ParamValue) -> TriBool:
    return fraction_decide_coset(x, 0, 1)


def _pv_regions(v: Sequence[ParamValue]) -> tuple[TriBool, TriBool, TriBool, TriBool]:
    pair = {(i, j): _is_int(v[i] - v[j]) for i, j in itertools.combinations(range(4), 2)}
    in_w = tri_or(pair.values())
    in_s1 = tri_or(
        tri_and([pair[p], pair[q]]) for p, q in [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    )
    in_s2 = tri_or(
        tri_and([pair[min(i, j), max(i, j)], pair[min(j, k), max(j, k)]])
        for i, j, k in itertools.permutations(range(4), 3)
    )
    in_d = tri_and([pair[0, 1], pair[0, 2], pair[0, 3]])
    return in_w, in_s1, in_s2, in_d


def _pvi_rank(v: Sequence[ParamValue]) -> int | None:
    yes, unknown = pvi_root_scan(v)
    rank_yes = fraction_rational_rank(yes)
    if unknown and fraction_rational_rank(yes + unknown) > rank_yes:
        return None
    return rank_yes


def chain_stratum(eq: EquationId) -> Stratum:
    """The stratum, decided by one hand-written if-chain per family."""
    fam = eq.family
    v = eq.params
    if fam is Family.PI:
        return Stratum(fam, "generic")
    if fam is Family.PII:
        region = fraction_decide_coset(v[0], Fraction(1, 2), 1)
        if region is TriBool.UNKNOWN:
            return Stratum(fam, None)
        return Stratum(fam, "half-integer" if region is TriBool.YES else "generic")
    if fam is Family.PIII:
        in_w1 = fraction_decide_coset(v[0] - v[1], 0, 2)
        in_d1 = tri_and([_is_int(v[0]), _is_int(v[1]), fraction_decide_coset(v[0] + v[1], 0, 2), in_w1])
        if in_d1 is TriBool.YES:
            return Stratum(fam, "D1")
        if in_d1 is TriBool.UNKNOWN:
            return Stratum(fam, None)
        if in_w1 is TriBool.YES:
            return Stratum(fam, "W1")
        if in_w1 is TriBool.UNKNOWN:
            return Stratum(fam, None)
        return Stratum(fam, "generic")
    if fam is Family.PIV:
        tests = [_is_int(v[0] - v[1]), _is_int(v[2] - v[1]), _is_int(v[0] - v[2])]
        in_w, in_d = tri_or(tests), tri_and(tests)
        if in_d is TriBool.YES:
            return Stratum(fam, "D")
        if in_d is TriBool.UNKNOWN:
            return Stratum(fam, None)
        if in_w is TriBool.YES:
            return Stratum(fam, "W")
        if in_w is TriBool.UNKNOWN:
            return Stratum(fam, None)
        return Stratum(fam, "generic")
    if fam is Family.PV:
        in_w, in_s1, in_s2, in_d = _pv_regions(v)
        if in_d is TriBool.YES:
            return Stratum(fam, "D")
        if in_d is TriBool.UNKNOWN:
            return Stratum(fam, None)
        if TriBool.UNKNOWN in (in_s1, in_s2):
            return Stratum(fam, None)
        if in_s1 is TriBool.YES:
            return Stratum(fam, "S1")
        if in_s2 is TriBool.YES:
            return Stratum(fam, "S2")
        if in_w is TriBool.YES:
            return Stratum(fam, "W")
        if in_w is TriBool.UNKNOWN:
            return Stratum(fam, None)
        return Stratum(fam, "generic")
    rank = _pvi_rank(v)
    if rank is None:
        return Stratum(fam, None)
    label = {0: "generic", 1: "M", 2: "P", 3: "L", 4: "D"}[rank]
    if label != "M":
        return Stratum(fam, label)
    special, transformed = pvi_image_scan_special(v)
    return Stratum(fam, label, half_integer_special=special, special_after_transformation=transformed)


def chain_pv_algebraic_solutions(v: Sequence[ParamValue]) -> int | None:
    """The fifth family's count from its congruences, decided apart from the
    stratum."""
    _, _, in_s2, in_d = _pv_regions(v)
    if in_d is TriBool.YES:
        return 2
    if in_d is TriBool.NO and in_s2 is TriBool.YES:
        return 1
    return None


_walk_algebraic_solutions = classify_module._algebraic_solutions


def _chain_algebraic_solutions(eq: EquationId, strat: Stratum, *form_and_generic) -> tuple[int | None, list[str]]:
    if eq.family is not Family.PV:
        return _walk_algebraic_solutions(eq, strat, *form_and_generic)
    count = chain_pv_algebraic_solutions(eq.params)
    return count, [] if count is None else [{2: "pv_count2", 1: "pv_count1"}[count]]


def chain_classify(eq: EquationId) -> ClassificationReport:
    """``classify`` with the stratum and the fifth family's count decided by
    the chains above."""
    with mock.patch.object(classify_module, "stratum", lambda eq, form=None: chain_stratum(eq)), mock.patch.object(
        classify_module, "_algebraic_solutions", _chain_algebraic_solutions
    ):
        return classify_module.classify(eq)


# -- the strata on ParamValue differences ------------------------------------------------


def _coset_pii(v: Sequence[ParamValue]) -> dict[str, TriBool]:
    return {"half-integer": fraction_decide_coset(v[0], Fraction(1, 2), 1)}


def _coset_piii(v: Sequence[ParamValue]) -> dict[str, TriBool]:
    w1 = fraction_decide_coset(v[0] - v[1], 0, 2)
    return {"D1": tri_and([_is_int(v[0]), _is_int(v[1]), fraction_decide_coset(v[0] + v[1], 0, 2), w1]), "W1": w1}


def _coset_piv(v: Sequence[ParamValue]) -> dict[str, TriBool]:
    tests = [_is_int(v[0] - v[1]), _is_int(v[2] - v[1]), _is_int(v[0] - v[2])]
    return {"D": tri_and(tests), "W": tri_or(tests)}


def _coset_pv(v: Sequence[ParamValue]) -> dict[str, TriBool]:
    pair = {(i, j): _is_int(v[i] - v[j]) for i, j in itertools.combinations(range(4), 2)}

    def two_pairs(covered: int) -> TriBool:
        return tri_or(
            tri_and([pair[p], pair[q]])
            for p, q in itertools.combinations(pair, 2)
            if len(set(p + q)) == covered
        )

    return {
        "D": tri_and([pair[0, 1], pair[0, 2], pair[0, 3]]),
        "S1": two_pairs(4),
        "S2": two_pairs(3),
        "W": tri_or(pair.values()),
    }


def _coset_pvi(v: Sequence[ParamValue]) -> dict[str, TriBool]:
    yes, undecided = [], []
    for i, j in itertools.combinations(range(4), 2):
        for sign, value in ((1, v[i] + v[j]), (-1, v[i] - v[j])):
            verdict = _is_int(value)
            if verdict is not TriBool.NO:
                row = [0, 0, 0, 0]
                row[i], row[j] = 1, sign
                (yes if verdict is TriBool.YES else undecided).append(row)
    rank_yes = fraction_rational_rank(yes)
    rank_all = fraction_rational_rank(yes + undecided)
    return {
        label: TriBool.YES if rank_yes >= r else TriBool.UNKNOWN if rank_all >= r else TriBool.NO
        for label, r in {"D": 4, "L": 3, "P": 2, "M": 1}.items()
    }


_COSET_TESTS = {
    Family.PI: lambda v: {},
    Family.PII: _coset_pii,
    Family.PIII: _coset_piii,
    Family.PIV: _coset_piv,
    Family.PV: _coset_pv,
    Family.PVI: _coset_pvi,
}


def coset_pvi_half_integer_special(v: Sequence[ParamValue]) -> tuple[TriBool, bool]:
    """The sixth family's half-integer test over the 12 pairings, each a
    ``ParamValue`` difference given to ``fraction_decide_coset``."""
    splits = [(a, b, *(i for i in range(4) if i not in (a, b))) for a, b in itertools.combinations(range(4), 2)]
    for a, b, c, d in splits:
        for op in (operator.sub, operator.add):
            half = fraction_decide_coset(op(v[a], v[b]), Fraction(1, 2), 1)
            if half is TriBool.YES and _is_int(op(v[c], v[d])) is TriBool.YES:
                return TriBool.YES, (a, b, op) != (0, 1, operator.sub)
    return TriBool.NO, False


def coset_strata(eq: EquationId) -> Stratum:
    """The stratum by the walk over ``FamilySpec.strata``, each congruence
    decided by ``fraction_decide_coset`` on a ``ParamValue`` difference."""
    fam = eq.family
    membership = _COSET_TESTS[fam](eq.params)
    for row in family_space(fam).strata:
        verdict = membership.get(row.label, TriBool.YES)
        if verdict is TriBool.UNKNOWN:
            return Stratum(fam, None)
        if verdict is TriBool.YES:
            break
    if fam is Family.PVI and row.label == "M":
        special, transformed = coset_pvi_half_integer_special(eq.params)
        return Stratum(fam, row.label, half_integer_special=special, special_after_transformation=transformed)
    return Stratum(fam, row.label)


def coset_piii_count(v1: ParamValue, v2: ParamValue) -> int | None:
    """The third family's algebraic-solution count on ``ParamValue`` differences."""
    verdicts = [fraction_decide_coset(v2 - v1 - 1, 0, 2), fraction_decide_coset(v2 + v1 + 1, 0, 2)]
    if TriBool.UNKNOWN in verdicts:
        return None
    return {2: 4, 1: 2, 0: 0}[verdicts.count(TriBool.YES)]


def _coset_algebraic_solutions(eq: EquationId, strat: Stratum, form, generic: bool) -> tuple[int | None, list[str]]:
    v = eq.params
    if eq.family is Family.PII:
        verdict = _is_int(v[0])
        return (None, []) if verdict is TriBool.UNKNOWN else (int(verdict is TriBool.YES), ["murata_pii"])
    if eq.family is Family.PIII:
        count = coset_piii_count(v[0], v[1])
        if count is None:
            return None, []
        return count, ["murata3", "piii_no_alg_generic"] if count == 0 and _is_generic(eq.family, v) else ["murata3"]
    return _walk_algebraic_solutions(eq, strat, form, generic)


def coset_classify(eq: EquationId) -> ClassificationReport:
    """``classify`` with the stratum and the second and third families'
    counts decided on ``ParamValue`` differences."""
    with mock.patch.object(classify_module, "stratum", lambda eq, form=None: coset_strata(eq)), mock.patch.object(
        classify_module, "_algebraic_solutions", _coset_algebraic_solutions
    ):
        return classify_module.classify(eq)


# -- orbit criteria -------------------------------------------------------------------


def witness_maps(witness: OrbitWitness, v: Sequence[ParamValue], w: Sequence[ParamValue]) -> bool:
    """Whether the witness has a map and it sends v to w exactly:
    w[j] == signs[j] * v[perm[j]] + shift[j] for every j."""
    if not witness.has_map:
        return False
    rebuilt = tuple(v[witness.perm[j]] * witness.signs[j] + witness.shift[j] for j in range(len(witness.perm)))
    return rebuilt == tuple(w)


# Each family's lattice scan written out: the linear parts (perm, signs) in
# scan order, the offsets, how many coordinates the criterion names, and the
# even-sum test.  The first all-Yes candidate is the printed witness, so the
# order is part of the output.
_PERMS3, _PERMS4 = tuple(itertools.permutations(range(3))), tuple(itertools.permutations(range(4)))
SCANS = {
    Family.PII: ((((0,), (1,)), ((0,), (-1,))), (Fraction(0),), 1, False),
    Family.PIV: (tuple((p, (1, 1, 1)) for p in _PERMS3), (Fraction(0),), 3, False),
    Family.PV: (tuple((p, (1, 1, 1, 1)) for p in _PERMS4), tuple(Fraction(a, 4) for a in range(4)), 3, False),
    Family.PVI: (
        tuple((p, s) for p in _PERMS4 for s in itertools.product((1, -1), repeat=4) if s.count(-1) % 2 == 0),
        (Fraction(0),), 4, True,
    ),
}


def scan_orbit_decide(family: Family, v, w) -> tuple[TriBool, OrbitWitness | None, HypothesisStatus]:
    """The second and fourth to sixth families' orbit criteria as a plain
    candidate scan: every candidate computes its differences and all of its
    coset tests, and the first candidate whose tests are all Yes gives the
    witness.  Returns ``(related, witness, hypothesis status)``."""
    v = EquationId(family, v).params
    w = EquationId(family, w).params

    if family is Family.PII:
        diff = w[0] - v[0]
        summ = w[0] + v[0]
        t_diff = fraction_decide_coset(diff, 0, 1)
        t_sum = fraction_decide_coset(summ, 0, 1)
        related = tri_or([t_diff, t_sum])
        witness = None
        if t_diff is TriBool.YES:
            witness = OrbitWitness(perm=(0,), signs=(1,), shift=(diff.const,), integer_shift=(int(diff.const),))
        elif t_sum is TriBool.YES:
            witness = OrbitWitness(perm=(0,), signs=(-1,), shift=(summ.const,), integer_shift=(int(summ.const),))
        if v[0].has_transcendental or w[0].has_transcendental:
            status = HypothesisStatus.PROVED
        elif related is TriBool.YES:
            status = HypothesisStatus.SUFFICIENT_ONLY
        else:
            status = HypothesisStatus.OPEN
        return related, witness, status

    def candidates():
        if family is Family.PIV:
            for perm in itertools.permutations(range(3)):
                diffs = [w[j] - v[perm[j]] for j in range(3)]
                tests = [fraction_decide_coset(d, 0, 1) for d in diffs]
                witness = None
                if tri_and(tests) is TriBool.YES:
                    witness = OrbitWitness(
                        perm=perm,
                        signs=(1, 1, 1),
                        shift=tuple(d.const for d in diffs),
                        integer_shift=tuple(int(d.const) for d in diffs),
                    )
                yield tests, witness
        elif family is Family.PV:
            for perm in itertools.permutations(range(4)):
                for a in range(4):
                    diffs = [w[j] - v[perm[j]] - Fraction(a, 4) for j in range(3)]
                    tests = [fraction_decide_coset(d, 0, 1) for d in diffs]
                    tests.append(fraction_decide_coset(w[3] - v[perm[3]] - Fraction(a, 4), 0, 1))
                    witness = None
                    if tri_and(tests) is TriBool.YES:
                        witness = OrbitWitness(
                            perm=perm,
                            signs=(1, 1, 1, 1),
                            shift=tuple((w[j] - v[perm[j]]).const for j in range(4)),
                            quarter_shift=a,
                            integer_shift=tuple(int(d.const) for d in diffs),
                        )
                    yield tests, witness
        else:
            for perm in itertools.permutations(range(4)):
                for signs in itertools.product((1, -1), repeat=4):
                    if signs.count(-1) % 2:
                        continue
                    diffs = [w[j] - v[perm[j]] * signs[j] for j in range(4)]
                    tests = [fraction_decide_coset(d, 0, 1) for d in diffs]
                    tests.append(fraction_decide_coset(diffs[0] + diffs[1] + diffs[2] + diffs[3], 0, 2))
                    witness = None
                    if tri_and(tests) is TriBool.YES:
                        witness = OrbitWitness(
                            perm=perm,
                            signs=signs,
                            shift=tuple(d.const for d in diffs),
                            integer_shift=tuple(int(d.const) for d in diffs),
                        )
                    yield tests, witness

    related, witness = TriBool.NO, None
    for tests, candidate in candidates():
        combined = tri_and(tests)
        if combined is TriBool.YES:
            related, witness = combined, candidate
            break
        if combined is TriBool.UNKNOWN:
            related = TriBool.UNKNOWN
    # Proved needs a generic endpoint (IV, V); the sixth family's converse is open.
    dimension = family_space(family).dimension
    generic = family is not Family.PVI and dimension in (transcendence_degree(v), transcendence_degree(w))
    if generic:
        status = HypothesisStatus.PROVED
    elif related is TriBool.YES:
        status = HypothesisStatus.SUFFICIENT_ONLY
    else:
        status = HypothesisStatus.OPEN
    return related, witness, status


def lazy_lattice_scan(
    family: Family, v: Sequence[ParamValue], w: Sequence[ParamValue]
) -> tuple[TriBool, OrbitWitness | None]:
    """``(related, witness)`` from the first candidate of ``SCANS[family]``
    with w - g(v) - c integral.  Each difference and its coset test is
    computed at most once, when a candidate first reaches it; a candidate
    stops at its first No coordinate.  In the sum-zero families the last
    coordinate is tested only where the others leave Unknown."""
    linear, offsets, named, even_sum = SCANS[family]
    n = len(v)
    free = n - family_space(family).sum_zero
    diffs: dict[tuple[int, int, int, int], ParamValue] = {}
    tests: dict[tuple[int, int, int, int], TriBool] = {}

    def diff(key):
        d = diffs.get(key)
        if d is None:
            j, i, s, k = key
            d = w[j] - v[i] if s > 0 else w[j] + v[i]
            d = diffs[key] = d - offsets[k] if offsets[k] else d
        return d

    def test(key):
        t = tests.get(key)
        if t is None:
            t = tests[key] = fraction_decide_coset(diff(key), 0, 1)
        return t

    saw_unknown = False
    for perm, signs in linear:
        for k, c in enumerate(offsets):
            related = tri_and(test((j, perm[j], signs[j], k)) for j in range(free))
            if related is TriBool.NO:
                continue
            keys = [(j, perm[j], signs[j], k) for j in range(n)]
            if related is TriBool.UNKNOWN and free < n:
                related = tri_and((related, test(keys[-1])))
            if even_sum and related is not TriBool.NO:
                total = sum((diff(key) for key in keys[1:]), diff(keys[0]))
                related = tri_and((related, fraction_decide_coset(total, 0, 2)))
            if related is TriBool.YES:
                consts = [diff(key).const for key in keys]
                return related, OrbitWitness(
                    perm=perm,
                    signs=signs,
                    shift=tuple(x + c for x in consts),
                    quarter_shift=k if len(offsets) > 1 else None,
                    integer_shift=tuple(int(x) for x in consts[:named]),
                )
            saw_unknown = saw_unknown or related is TriBool.UNKNOWN
    return (TriBool.UNKNOWN if saw_unknown else TriBool.NO), None


def fraction_piii_decide(v: Sequence[ParamValue], w: Sequence[ParamValue]) -> tuple[TriBool, OrbitWitness | None]:
    """The third family's criterion on ``ParamValue`` differences mod 2Z."""
    dv = v[1] - v[0]
    dw = w[1] - w[0]
    t_plus = fraction_decide_coset(dw - dv, 0, 2)
    t_minus = fraction_decide_coset(dw + dv, 0, 2)
    related = tri_or([t_plus, t_minus])
    if related is not TriBool.YES:
        return related, None
    rational = []
    for eps, perm in itertools.product((1, -1), ((0, 1), (1, 0))):
        shifts = [w[j] - v[perm[j]] * eps for j in range(2)]
        if all(is_rational(s) for s in shifts):
            rational.append((perm, eps, tuple(s.const for s in shifts)))
    in_lattice = [c for c in rational if fraction_in_lattice(c[2])]
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


# -- orthogonality ----------------------------------------------------------------------


def _is_generic(family: Family, params: Sequence[ParamValue]) -> bool:
    """Genericity as the transcendence degree of the values themselves, apart from any integer form."""
    return transcendence_degree(params) == family_space(family).dimension


def _open_distinct(question_key: str = "q_np2") -> OrthoVerdict:
    return OrthoVerdict(
        verdict=Verdict.OPEN,
        citation=None,
        applicability="no proved clause covers this distinct-family pair",
        question=cite(question_key),
    )


def chain_distinct_family_verdict(eq1: EquationId, eq2: EquationId) -> OrthoVerdict:
    """The distinct-family orthogonality verdict with the second and fourth,
    and the third and fifth, families' clauses written out as their own blocks."""
    pair = {eq1.family, eq2.family}

    def by_family(fam: Family) -> EquationId:
        return eq1 if eq1.family is fam else eq2

    if pair == {Family.PII, Family.PIII}:
        p3 = by_family(Family.PIII)
        p2 = by_family(Family.PII)
        if _is_generic(Family.PIII, p3.params):
            alpha = p2.params[0]
            half = fraction_decide_coset(alpha, Fraction(1, 2), 1)
            if half is TriBool.YES:
                applicability = (
                    "third-family parameters independent transcendental; the second-family "
                    "parameter is half-integer, so the statement covers the strongly minimal "
                    "part X_II(alpha) \\ R(alpha) (its order-one locus R(alpha) is orthogonal "
                    "by the dimension argument in the proof)"
                )
            elif half is TriBool.UNKNOWN:
                applicability = (
                    "third-family parameters independent transcendental; whether the "
                    "second-family parameter is half-integer is undecided, but both clauses "
                    "of the statement yield orthogonality"
                )
            else:
                applicability = "third-family parameters independent transcendental"
            return OrthoVerdict(
                verdict=Verdict.ORTHOGONAL,
                citation=cite("orthofam3"),
                applicability=applicability,
            )
        return _open_distinct(question_key="q_nongen3orth")

    if pair == {Family.PII, Family.PIV}:
        p2 = by_family(Family.PII)
        p4 = by_family(Family.PIV)
        if p2.params[0].has_transcendental and _is_generic(Family.PIV, p4.params):
            return OrthoVerdict(
                verdict=Verdict.ORTHOGONAL,
                citation=cite("naggy1"),
                applicability="second-family parameter transcendental, fourth-family parameters generic",
            )
        return _open_distinct()

    if pair == {Family.PIII, Family.PV}:
        p3 = by_family(Family.PIII)
        p5 = by_family(Family.PV)
        if _is_generic(Family.PIII, p3.params) and _is_generic(Family.PV, p5.params):
            return OrthoVerdict(
                verdict=Verdict.ORTHOGONAL,
                citation=cite("naggy2"),
                applicability="third-family parameters independent transcendental, fifth-family parameters generic",
            )
        return _open_distinct()

    if _is_generic(eq1.family, eq1.params) and _is_generic(eq2.family, eq2.params):
        return OrthoVerdict(
            verdict=Verdict.ORTHOGONAL,
            citation=cite("naggy"),
            applicability="distinct families, both parameter tuples generic",
        )
    return _open_distinct()


# -- orbit and orthogonal records ----------------------------------------------------


def _dict_orbit(args) -> tuple[dict, int]:
    family = Family.from_name(args.family)
    v = cli._parse_params(args.v)
    w = cli._parse_params(args.w)
    verdict = weyl.orbit_with_word(family, v, w)
    status_cite = verdict.criterion_citation if verdict.hypothesis_status is not HypothesisStatus.OPEN else None
    verdicts = [
        cli._verdict("related", verdict.related.value, verdict.criterion_citation),
        cli._verdict("hypothesis-status", verdict.hypothesis_status.value, status_cite),
    ]
    query = {
        "subcommand": "orbit",
        "family": family.value,
        "v": [format_param(p) for p in v],
        "w": [format_param(p) for p in w],
    }
    payload = cli._response(query, verdicts, [verdict.criterion_citation], verdict.notes)
    payload["criterion"] = verdict.criterion
    payload["witness"] = cli._witness_json(verdict)
    payload["word"] = list(verdict.word) if verdict.word is not None else None
    if verdict.word_reason:
        payload["word_reason"] = verdict.word_reason
    return payload, (3 if verdict.related is TriBool.UNKNOWN else 0)


def _dict_orthogonal(args) -> tuple[dict, int]:
    eq1 = EquationId(Family.from_name(args.family1), cli._parse_params(args.params1))
    eq2 = EquationId(Family.from_name(args.family2), cli._parse_params(args.params2))
    verdict = cross_family_verdict(eq1, eq2)
    verdicts = [cli._verdict("orthogonality", verdict.verdict.value, verdict.citation)]
    notes = list(verdict.notes)
    citations = [c for c in (verdict.citation, verdict.question) if c is not None]
    if verdict.question is not None:
        notes.append(f'open question ({verdict.question.where}): "{verdict.question.quote}"')
    query = {
        "subcommand": "orthogonal",
        "family1": eq1.family.value,
        "params1": [format_param(p) for p in eq1.params],
        "family2": eq2.family.value,
        "params2": [format_param(p) for p in eq2.params],
    }
    payload = cli._response(query, verdicts, citations, notes)
    payload["applicability"] = verdict.applicability
    return payload, (3 if verdict.verdict is Verdict.OPEN else 0)


_DICT_HANDLERS = {"orbit": _dict_orbit, "orthogonal": _dict_orthogonal}


def dict_run(argv: Sequence[str], indent: int | None = None) -> tuple[str, str, int]:
    """``cli.run(argv)``'s stdout, stderr and exit code for one ``orbit`` or
    ``orthogonal`` query, by the handlers from before records were spliced:
    each value read by ``parse_param`` into a ``ParamValue``, ``EquationId``
    checks (through ``orbit_with_word`` and ``cross_family_verdict``), and
    one payload dict given to ``json.dumps(payload, sort_keys=True)``, with
    ``indent`` as a single query prints it (None: as a ``--batch`` line)."""
    args = cli._parse_args(argv)
    try:
        payload, code = _DICT_HANDLERS[args.subcommand](args)
    except InputError as err:
        return "", f"error: {err}\n", 2
    return json.dumps(payload, indent=indent, sort_keys=True) + "\n", "", code


# -- generator words ------------------------------------------------------------------


def invert_word(family: Family, word: Sequence[str]) -> tuple[str, ...]:
    """A word for the inverse map: each token inverted (by the name itself for
    an involution, else by another generator equal to the inverse, else by
    ``name^-1``), in reverse order."""
    named = named_generators(family)

    def invert(token: str) -> str:
        if token.endswith("^-1"):
            return token[:-3]
        inverse = named[token].inverse()
        return next((name for name, g in named.items() if g == inverse), token + "^-1")

    return tuple(invert(token) for token in reversed(word))


def shortest_word(
    family: Family, v: Sequence[ParamValue], w: Sequence[ParamValue], bound: int = 16
) -> tuple[str, ...] | None:
    """Meet-in-the-middle over the (involutive) orbit generators: a shortest,
    then lexicographically first, word of at most ``bound`` letters mapping v
    to w, or None."""
    gens = [(name, resolve_token(family, name)) for name in family_space(family).orbit_generators]
    v, w = tuple(v), tuple(w)
    if v == w:
        return ()
    sides: list[dict[tuple[ParamValue, ...], tuple[str, ...]]] = [{v: ()}, {w: ()}]
    frontiers = [dict(sides[0]), dict(sides[1])]
    depths = [0, 0]
    while sum(depths) < bound and (frontiers[0] or frontiers[1]):
        if not frontiers[0]:
            side = 1
        elif not frontiers[1]:
            side = 0
        else:
            side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        new_frontier: dict[tuple[ParamValue, ...], tuple[str, ...]] = {}
        for state, word in frontiers[side].items():
            for name, g in gens:
                nxt = g.apply(state)
                if nxt in sides[side]:
                    continue
                sides[side][nxt] = word + (name,)
                new_frontier[nxt] = word + (name,)
        frontiers[side] = new_frontier
        depths[side] += 1
        meet = sides[0].keys() & sides[1].keys()
        if meet:
            words = (sides[0][mid] + invert_word(family, sides[1][mid]) for mid in meet)
            word = min(words, key=lambda wd: (len(wd), wd))
            if apply_word(family, word, v) == w:
                return word
    return None


@lru_cache(maxsize=None)
def _perm_words(family: Family) -> dict[tuple[int, ...], tuple[str, ...]]:
    """BFS over the permutation generators: permutation -> shortest word."""
    perm_gens = {Family.PIV: ("s1", "s2"), Family.PV: ("s1", "s2", "s3")}[family]
    start = AffineMap.identity(family, family_space(family).arity)
    seen = {start.perm: ()}
    frontier = [start]
    while frontier:
        nxt = []
        for m in frontier:
            for name in perm_gens:
                composed = resolve_token(family, name).compose(m)
                if composed.perm not in seen:
                    seen[composed.perm] = seen[m.perm] + (name,)
                    nxt.append(composed)
        frontier = nxt
    return seen


@lru_cache(maxsize=None)
def _translation_words(family: Family) -> dict[tuple[Fraction, ...], tuple[str, ...]]:
    """Words for the elementary integer translations e_i - e_j: one base
    translation word conjugated by every permutation word."""
    if family is Family.PIV:
        base_word: tuple[str, ...] = ("s1", "s2", "s1", "s0")
    else:
        composite = ("tminus", "s3", "s1", "s2", "s1", "s3", "tminus^-1")
        base_word = _perm_words(family)[(0, 3, 2, 1)] + composite
    ident = AffineMap.identity(family, family_space(family).arity)
    out: dict[tuple[Fraction, ...], tuple[str, ...]] = {}
    for pword in _perm_words(family).values():
        word = pword + base_word + invert_word(family, pword)
        m = word_map(family, word)
        if (m.perm, m.signs) == (ident.perm, ident.signs) and m.translation not in out:
            out[m.translation] = word
    return out


def table_word(family: Family, witness: OrbitWitness) -> tuple[str, ...]:
    """The fourth or fifth family's word for the witness map: the permutation
    word, the quarter translations, then each integral translation e_k -
    e_{k+1} repeated by its coefficient (a prefix sum of the shift)."""
    word = _perm_words(family)[witness.perm]
    shift = witness.shift
    if family is Family.PV:
        a = witness.quarter_shift
        word += ("tminus^-1",) * a
        shift = tuple(t - a * Fraction(q, 4) for t, q in zip(shift, (1, 1, 1, -3)))
    moves = _translation_words(family)
    n = family_space(family).arity
    for k, c in enumerate(itertools.accumulate(int(x) for x in shift[:-1])):
        vec = tuple(Fraction(1 if i == k else (-1 if i == k + 1 else 0)) for i in range(n))
        word += (moves[vec] if c >= 0 else invert_word(family, moves[vec])) * abs(c)
    return word


def fraction_in_lattice(shift: Sequence[Fraction]) -> bool:
    """``weyl._in_lattice`` on ``Fraction`` shifts."""
    return all(t.denominator == 1 for t in shift) and sum(shift) % 2 == 0


def fraction_walls_through(family: Family, w: Sequence[ParamValue]) -> list[tuple[int, int, int, int]]:
    """``weyl._walls_through`` from ``ParamValue`` levels w_i + b*w_j."""
    size, _, _, roots = weyl._alcove(family)
    through = []
    for i, j, b in roots:
        level = w[i] + w[j] * b
        if is_rational(level) and level.const.denominator == 1:
            through.append((i, j, b, int(level.const) * size))
    return through


def fraction_alcove_word(
    family: Family, witness: OrbitWitness, shift: Sequence[Fraction], w: Sequence[ParamValue], budget: int
) -> tuple[str, ...] | None:
    """``weyl._alcove_word`` with a ``Fraction`` shift and the walls of
    ``fraction_walls_through``."""
    size, point, walls, _ = weyl._alcove(family)
    q = [s * point[p] + int(t) * size for p, s, t in zip(witness.perm, witness.signs, shift)]
    through_w = fraction_walls_through(family, w)
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


def fraction_generator_word(family: Family, v, w) -> WordResult:
    """``weyl.generator_word`` on ``Fraction`` shifts and ``ParamValue``
    targets: the fifth family's quarter split by ``AffineMap`` translations,
    and every word re-checked by ``apply_word``, token by token; a word that
    fails the check is NoWordFound."""
    v, w = EquationId(family, v).params, EquationId(family, w).params
    verdict = orbit_decide(family, v, w, checked=True)
    if verdict.related is not TriBool.YES:
        raise ValueError("generator_word requires an orbit_decide verdict of Yes")
    if family is Family.PI:
        return WordResult(word=())
    witness = verdict.witness
    if not witness.has_map:
        return WordResult(word=None, reason="NoWordFound")
    if family is Family.PII:
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
        if not fraction_in_lattice(shift):
            return WordResult(word=None, reason="NoWordFound")
        word = fraction_alcove_word(family, witness, shift, target, MAX_WORD_TOKENS - len(tail))
        if word is None:
            return WordResult(word=None, reason="WordTooLong")
        word += tail
    if apply_word(family, word, v) == w:
        return WordResult(word=word)
    return WordResult(word=None, reason="NoWordFound")


# -- the polynomial kernel ----------------------------------------------------------------


class TuplePoly:
    """``diffpoly.Poly`` before packed monomial keys: dense exponent tuples
    over a sorted tuple of the variables it uses, mapped to nonzero rational
    coefficients, each an ``int`` when integral and a ``Fraction`` otherwise.
    Operands are remapped onto a common variable tuple (``_aligned``)."""

    __slots__ = ("vars", "terms", "_plan")

    def __init__(self, vars: Sequence[Var], terms) -> None:
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

    @classmethod
    def _canonical(cls, vars, terms):
        p = object.__new__(cls)
        p.vars, p.terms, p._plan = vars, terms, None
        return p

    @classmethod
    def const(cls, value):
        value = _coefficient(value)
        return cls._canonical((), {(): value} if value else {})

    @classmethod
    def var(cls, v: Var):
        return cls._canonical((v,), {(1,): 1})

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

    def dense_terms(self):
        return self.terms

    def _aligned(self, target):
        if target == self.vars:
            return self.terms
        pos = {v: i for i, v in enumerate(target)}
        idx = [pos[v] for v in self.vars]
        out = {}
        for exps, c in self.terms.items():
            key = [0] * len(target)
            for i, e in zip(idx, exps):
                key[i] = e
            out[tuple(key)] = c
        return out

    def __add__(self, other):
        return type(self).sum((self, other))

    @classmethod
    def sum(cls, polys):
        vars = tuple(sorted({v for p in polys for v in p.vars}))
        terms = {}
        for p in polys:
            for exps, c in p._aligned(vars).items():
                terms[exps] = terms[exps] + c if exps in terms else c
        return cls(vars, terms)

    def __neg__(self):
        return self._canonical(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return self.const(0)
        vars = self.vars if self.vars == other.vars else tuple(sorted(set(self.vars) | set(other.vars)))
        a = self._aligned(vars)
        b = other._aligned(vars)
        terms = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(operator.add, e1, e2))
                terms[key] = terms[key] + c1 * c2 if key in terms else c1 * c2
        return self._canonical(vars, {e: c if type(c) is int else _coefficient(c) for e, c in terms.items() if c})

    def power(self, k: int):
        out = self.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def _var_derivative(self, v: Var):
        if v.is_jet:
            return self.var(Var(v.name, v.order + 1))
        if v == T_VAR:
            return self.const(1)
        return None  # parameter: derivative 0

    def total_derivative(self):
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
                parts.append(type(self)(self.vars, {tuple(rest): c * e}) * dv)
        return type(self).sum(parts)

    def substitute(self, mapping):
        """(numerator, denominator) of ``DiffExpr(self).substitute(mapping)``
        for ``mapping`` v -> (n_v, d_v): every term is brought to the common
        denominator prod(d_v^m_v), which is divided out when constant."""
        tops = {v: self.degree_in(v) for v in self.vars if v in mapping}
        if not tops:
            return self, self.const(1)
        tables = {}
        for v, m in tops.items():
            n, d = mapping[v]
            nums, dens = [n.power(e) for e in range(m + 1)], [d.power(e) for e in range(m + 1)]
            tables[v] = [nums[e] * dens[m - e] for e in range(m + 1)]
        num, den = self._cleared(tables), self.const(1)._cleared(tables)
        if den.is_constant:
            c = den.constant_value()
            num = type(self)(num.vars, {e: x / c for e, x in num.terms.items()})
            den = self.const(1)
        return num, den

    def _cleared(self, tables):
        pos = {v: i for i, v in enumerate(self.vars)}
        mapped = [pos.get(v) for v in tables]
        kept = [i for i, v in enumerate(self.vars) if v not in tables]
        kept_vars = tuple(self.vars[i] for i in kept)
        groups = {}
        for exps, c in self.terms.items():
            key = tuple(0 if i is None else exps[i] for i in mapped)
            groups.setdefault(key, {})[tuple(exps[i] for i in kept)] = c
        parts = []
        for key, terms in groups.items():
            part = type(self)(kept_vars, terms)
            for row, e in zip(tables.values(), key):
                part = part * row[e]
            parts.append(part)
        return type(self).sum(parts)

    def evaluate(self, point) -> Fraction:
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


def exact_value(expr: DiffExpr, point) -> Fraction:
    """``expr`` at a rational point: its numerator over its denominator, each by ``TuplePoly.evaluate``."""
    num, den = (TuplePoly(p.vars, p.dense_terms()).evaluate(point) for p in (expr.num, expr.den))
    return num / den


class FractionPoly(TuplePoly):
    """The polynomial kernel from before integer coefficients: every
    coefficient a ``Fraction``, every product re-canonicalised by
    ``__init__``, and ``evaluate`` deriving its top degrees and coefficient
    lcm on each call."""

    __slots__ = ()

    def __init__(self, vars: Sequence[Var], terms) -> None:
        vars = tuple(vars)
        clean = {exps: c if type(c) is Fraction else Fraction(c) for exps, c in terms.items() if c}
        used = [i for i in range(len(vars)) if any(e[i] for e in clean)]
        if len(used) != len(vars):
            vars = tuple(vars[i] for i in used)
            clean = {tuple(e[i] for i in used): c for e, c in clean.items()}
        if vars and list(vars) != sorted(vars):
            order = sorted(range(len(vars)), key=lambda i: vars[i])
            vars = tuple(vars[i] for i in order)
            clean = {tuple(e[i] for i in order): c for e, c in clean.items()}
        self.vars = vars
        self.terms = clean

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get((), Fraction(0))

    @staticmethod
    def sum(polys: Sequence["FractionPoly"]) -> "FractionPoly":
        vars = tuple(sorted({v for p in polys for v in p.vars}))
        terms: dict[tuple[int, ...], Fraction] = {}
        for p in polys:
            for exps, c in p._aligned(vars).items():
                terms[exps] = terms[exps] + c if exps in terms else c
        return FractionPoly(vars, terms)

    def __mul__(self, other: "FractionPoly") -> "FractionPoly":
        if self.is_zero or other.is_zero:
            return FractionPoly((), {})
        vars = tuple(sorted(set(self.vars) | set(other.vars)))
        a = self._aligned(vars)
        b = other._aligned(vars)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                terms[key] = terms[key] + c1 * c2 if key in terms else c1 * c2
        return FractionPoly(vars, terms)

    def evaluate(self, point) -> Fraction:
        scaled = []  # scaled[i][e] = n_i^e * d_i^(m_i - e)
        den = 1
        for i, v in enumerate(self.vars):
            x = Fraction(point[v])
            top = max(e[i] for e in self.terms)
            scaled.append([x.numerator**e * x.denominator ** (top - e) for e in range(top + 1)])
            den *= x.denominator**top
        coeff_den = math.lcm(*(c.denominator for c in self.terms.values()))
        total = 0
        for exps, c in self.terms.items():
            term = c.numerator * (coeff_den // c.denominator)
            for row, e in zip(scaled, exps):
                term *= row[e]
            total += term
        return Fraction(total, den * coeff_den)


def evaluating_pv_random_point_check(points=25, seed=0, residuals=None) -> tuple[int, bool]:
    """``diffpoly.pv_random_point_check`` from before cleared integer sums:
    each residual evaluated as a ``Fraction`` at a point of ``Fraction``
    coordinates, and no bound on the redraws."""
    import random

    rng = random.Random(seed)
    res_q, res_p = residuals if residuals is not None else diffpoly._pv_residuals()

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
            values = (exact_value(res_q, point), exact_value(res_p, point))
        except ZeroDivisionError:
            continue
        checked += 1
        if any(x != 0 for x in values):
            all_zero = False
    return checked, all_zero


def affine_verify_group_relation(family: Family, word: Sequence[str], expected) -> bool:
    """Whether ``word`` composes to the map of ``expected``, a
    ``catalog.Generator``, compared as ``AffineMap``s."""
    expected_map = AffineMap.from_permutation(family, expected.perm, expected.signs, expected.translation)
    return word_map(family, tuple(word)) == expected_map


# -- ODE systems --------------------------------------------------------------------------


def residual_exprs(system: OdeSystem) -> tuple[DiffExpr, ...]:
    """Left side minus right side, one expression per equation."""
    if system.order == 1:
        return tuple(DiffExpr.var(jet(name, 1)) - expr for name, expr in zip(system.state_vars, system.rhs))
    return (DiffExpr.var(jet(system.state_vars[0], system.order)) - system.rhs[0],)


# -- the RK4 and residual loops ---------------------------------------------------------


def tuple_integrate_rhs(rhs, initial, t0, t1, step):
    """``numint.integrate_rhs`` for valid arguments, stepping tuples through
    ``rhs(t, state)``."""
    n_steps = max(1, round((t1 - t0) / step))
    h = (t1 - t0) / n_steps
    state = tuple(float(x) for x in initial)
    samples = [(t0, state)]
    status = TrajectoryStatus.COMPLETED
    blowup_t = None
    for i in range(n_steps):
        t = t0 + i * h
        try:
            k1 = rhs(t, state)
            k2 = rhs(t + h / 2, [x + h / 2 * k for x, k in zip(state, k1)])
            k3 = rhs(t + h / 2, [x + h / 2 * k for x, k in zip(state, k2)])
            k4 = rhs(t + h, [x + h * k for x, k in zip(state, k3)])
            state = tuple(
                x + h / 6 * (a + 2 * b + 2 * c + d)
                for x, a, b, c, d in zip(state, k1, k2, k3, k4)
            )
        except (ZeroDivisionError, OverflowError):
            status = TrajectoryStatus.BLOWUP
            blowup_t = t
            break
        t_next = t0 + (i + 1) * h
        if any(not math.isfinite(x) or abs(x) > BLOWUP_THRESHOLD for x in state):
            status = TrajectoryStatus.BLOWUP
            blowup_t = t_next
            break
        samples.append((t_next, state))
    return Trajectory(
        family=rhs.kernel.family,
        form=rhs.kernel.form,
        params=rhs.params,
        state_names=rhs.kernel.state_names,
        samples=samples,
        status=status,
        blowup_t=blowup_t,
        step=h,
        rhs=rhs,
    )


def indexed_residual_norm(traj: Trajectory) -> ResidualReport:
    """``numint.residual_norm``, indexing ``traj.samples`` per component."""
    rhs = traj.rhs
    if len(traj.samples) < 5:
        return ResidualReport(value=0.0, discretization_order=4, warning="trajectory too short for a residual")
    h = traj.step
    worst = 0.0
    for i in range(2, len(traj.samples) - 2):
        t_i, x_i = traj.samples[i]
        f = rhs(t_i, x_i)
        for j in range(len(x_i)):
            fd = (
                -traj.samples[i + 2][1][j]
                + 8 * traj.samples[i + 1][1][j]
                - 8 * traj.samples[i - 1][1][j]
                + traj.samples[i - 2][1][j]
            ) / (12 * h)
            worst = max(worst, abs(fd - f[j]))
    return ResidualReport(value=worst, discretization_order=4)


def csv_module_write_csv(traj: Trajectory, path: str) -> None:
    """Columns: t, then one column per state component."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *traj.state_names])
        for t, state in traj.samples:
            writer.writerow([repr(t), *[repr(x) for x in state]])


# -- rank ---------------------------------------------------------------------------------


def fraction_rational_rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of a small dense matrix, by Gauss-Jordan elimination in ``Fraction``."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] / pivot
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def fraction_transcendence_degree(values: Sequence[ParamValue]) -> int:
    """``exactnum.transcendence_degree`` on ``Fraction`` rows, by ``fraction_rational_rank``."""
    atoms = sorted(
        {a for v in values for a, _ in v.terms if a.kind is AtomKind.TRANSCENDENTAL}, key=lambda a: a.sort_key()
    )
    if not atoms:
        return 0
    return fraction_rational_rank([[coeff(v, a) for a in atoms] for v in values])


def fraction_sum_zero_error(family: Family, params: Sequence[ParamValue]) -> str | None:
    """The message of ``EquationId``'s sum-zero test, from sums of
    ``Fraction``s; None when the parameters sum to zero."""
    const: Fraction | int = 0
    coeffs: dict = {}
    for p in params:
        const += p.const
        for atom, c in p.terms:
            coeffs[atom] = coeffs.get(atom, 0) + c
    if const or any(coeffs.values()):
        return f"family {family.value} parameters must sum to zero exactly (got {ParamValue(const, coeffs)})"
    return None


# -- parameter parsing ----------------------------------------------------------------


_TOKEN_RE = re.compile(r"\s*(?:(?P<atom>(?:tau|alg)\d+)|(?P<num>\d+)|(?P<op>[+\-*/]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token; raises on the first character outside the grammar."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParamSyntaxError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


def descent_parse_param(text: str) -> ParamValue:
    long_run = _LONG_DIGIT_RUN.search(text)
    if long_run:
        raise ParamSyntaxError(f"more than {MAX_DIGITS} digits", long_run.start())
    tokens = _tokenize(text)
    if not tokens:
        raise ParamSyntaxError("empty parameter expression", 0)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, "", len(text))

    def parse_rational(allow_sign: bool) -> Fraction:
        nonlocal idx
        sign = 1
        kind, val, pos = peek()
        if allow_sign and kind == "op" and val == "-":
            sign = -1
            idx += 1
            kind, val, pos = peek()
        if kind != "num":
            raise ParamSyntaxError("expected a number", pos)
        idx += 1
        numerator = int(val)
        kind, val, pos = peek()
        if kind == "op" and val == "/":
            idx += 1
            kind, val, pos = peek()
            if kind != "num":
                raise ParamSyntaxError("expected a denominator", pos)
            idx += 1
            if int(val) == 0:
                raise ParamSyntaxError("zero denominator", pos)
            return Fraction(sign * numerator, int(val))
        return Fraction(sign * numerator)

    def parse_term() -> ParamValue:
        nonlocal idx
        kind, val, pos = peek()
        if kind == "atom":
            idx += 1
            return of_atom(_intern(val)[0])
        q = parse_rational(allow_sign=True)
        kind, val, pos = peek()
        if kind == "op" and val == "*":
            idx += 1
            kind, val, pos = peek()
            if kind != "atom":
                raise ParamSyntaxError("expected an atom after '*'", pos)
            idx += 1
            return of_atom(_intern(val)[0], q)
        return ParamValue(q)

    result = parse_term()
    while idx < len(tokens):
        kind, val, pos = peek()
        if kind != "op" or val not in "+-":
            raise ParamSyntaxError("expected '+' or '-'", pos)
        idx += 1
        term = parse_term()
        result = result + term if val == "+" else result - term
    for q in (result.const, *(c for _, c in result.terms)):
        if max(abs(q.numerator), q.denominator) >= 10**MAX_DIGITS:
            raise ParamSyntaxError(f"more than {MAX_DIGITS} digits", 0)
    return result


# ``exactnum.parse_param``'s grammar without whitespace, Unicode digits or a
# zero denominator; ``_FAST_TERM`` reads a matching text term by term
# (operator, sign, numerator, denominator, atom, bare atom).
_FAST_TERM_TEXT = r"-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?(?:\*(?:tau|alg)[0-9]+)?|(?:tau|alg)[0-9]+"
_FAST_PARAM = re.compile(rf"(?:{_FAST_TERM_TEXT})(?:[+-](?:{_FAST_TERM_TEXT}))*")
_FAST_TERM = re.compile(r"([+-]?)(?:(-?)([0-9]+)(?:/([0-9]+))?(?:\*((?:tau|alg)[0-9]+))?|((?:tau|alg)[0-9]+))")


def fraction_fast_parse_param(text: str) -> ParamValue:
    """Whitespace-free text read term by term by two regexes, as
    ``exactnum.parse_param`` read it before integer sums: a ``Fraction`` per
    term, added up, and the value built by ``ParamValue.__init__``."""
    if not _FAST_PARAM.fullmatch(text) or _LONG_DIGIT_RUN.search(text):
        raise ValueError(f"{text!r} is not fast-path text")
    const: Fraction | int = 0
    coeffs: dict = {}
    for op, minus, num, den, name, bare in _FAST_TERM.findall(text):
        q: Fraction | int = int(num) if num else 1
        if (op == "-") != (minus == "-"):
            q = -q
        if den:
            q = Fraction(q, int(den))
        if name or bare:
            atom = _intern(name or bare)[0]
            coeffs[atom] = coeffs.get(atom, 0) + q
        else:
            const += q
    return ParamValue(const, coeffs)
