import itertools
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from painleve import weyl
from painleve.catalog import EquationId, Family, InvalidEquationError, family_space
from painleve.exactnum import (
    AtomKind,
    ParamValue,
    TriBool,
    alg,
    coset,
    decide_coset,
    parse_param,
    tau,
    transcendence_degree,
)
from painleve.ortho import Verdict, cross_family_verdict
from painleve.weyl import (
    MAX_WORD_TOKENS,
    AffineMap,
    HypothesisStatus,
    NoGeneratorsError,
    apply_word,
    generator_word,
    named_generators,
    orbit_decide,
    orbit_with_word,
    resolve_token,
    word_map,
)

from oracles import (
    SCANS, chain_distinct_family_verdict, coeff, fraction_generator_word, fraction_piii_decide,
    fraction_walls_through, lazy_lattice_scan, of_atom, scan_orbit_decide, shortest_word, table_word, witness_maps,
)

PV = ParamValue
T1, T2, T3, T4 = (of_atom(tau(i)) for i in (1, 2, 3, 4))
A1, A2 = of_atom(alg(1)), of_atom(alg(2))
H = Fraction(1, 2)


def rand_params(family, rng, atom_chance=0.5):
    vals = []
    for i in range(family_space(family).arity):
        x = PV(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4])))
        if rng.random() < atom_chance:
            x = x + of_atom(tau(i + 1), rng.choice([1, 2]))
        vals.append(x)
    if family in (Family.PIV, Family.PV):
        total = PV(0)
        for x in vals[:-1]:
            total = total + x
        vals[-1] = -total
    return tuple(vals)


# -- affine map algebra ------------------------------------------------------------


def test_compose_apply_law():
    rng = random.Random(3)
    maps = list(named_generators(Family.PV).values())
    for _ in range(40):
        f, g = rng.choice(maps), rng.choice(maps)
        v = rand_params(Family.PV, rng)
        assert f.compose(g).apply(v) == f.apply(g.apply(v))


def test_compose_associativity():
    rng = random.Random(5)
    maps = list(named_generators(Family.PVI).values())
    for _ in range(30):
        f, g, h = (rng.choice(maps) for _ in range(3))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_identity_and_inverse_laws():
    for family in (Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI):
        ident = AffineMap.identity(family, len(next(iter(named_generators(family).values())).translation))
        for name, g in named_generators(family).items():
            assert g.compose(g.inverse()) == ident
            assert g.inverse().compose(g) == ident


def test_maps_built_by_different_words_are_equal():
    tminus, tminus_inv = resolve_token(Family.PV, "tminus"), resolve_token(Family.PV, "tminus^-1")
    pairs = [
        (word_map(Family.PIII, ("s1", "s1")), AffineMap.identity(Family.PIII, 2)),
        (tminus.compose(tminus_inv), AffineMap.identity(Family.PV, 4)),
        (word_map(Family.PIV, ("tminus", "s1", "s2", "s1", "tminus^-1")), resolve_token(Family.PIV, "s0")),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)


def test_from_permutation_rejects_non_permutations():
    bad = [((0, 0), None, None), ((0, 2), None, None), ((1, 0), (1,), None), ((1, 0), (1, 2), None),
           ((1, 0), None, (1,))]
    for perm, signs, translation in bad:
        with pytest.raises(ValueError):
            AffineMap.from_permutation(Family.PIII, perm, signs=signs, translation=translation)


def test_generator_catalogs():
    catalogs = {
        Family.PII: ["reflect", "shift_up", "shift_down"],
        Family.PIII: ["s1", "s2", "s3", "s4"],
        Family.PIV: ["s0", "s1", "s2"],
        Family.PV: ["s1", "s2", "s3", "tminus"],
        Family.PVI: ["s1", "s2", "s3", "s4", "s5"],
    }
    for family, names in catalogs.items():
        assert list(family_space(family).orbit_generators) == names
        for g in family_space(family).generators:
            assert resolve_token(family, g.name) == AffineMap.from_permutation(family, g.perm, g.signs, g.translation)
    with pytest.raises(NoGeneratorsError):
        resolve_token(Family.PI, "s1")


@pytest.mark.parametrize("family", list(Family))
def test_family_group_table_is_consistent(family):
    spec = family_space(family)
    names = [g.name for g in spec.generators]
    for g in spec.generators:
        assert {len(x) for x in (g.perm, g.signs or g.perm, g.translation or g.perm)} == {spec.arity}
        AffineMap.from_permutation(family, g.perm, g.signs, g.translation)
    assert set(spec.orbit_generators) <= set(names)
    if spec.alcove is not None:
        point = spec.alcove.point
        assert len(point) == spec.arity and (not spec.sum_zero or sum(point) == 0)
        _, scaled, walls, roots = weyl._alcove(family)
        # Strictly inside every wall, and on no reflecting hyperplane x_i + b*x_j = k.
        assert all(a * scaled[i] + b * scaled[j] > k for i, a, j, b, k, _ in walls)
        assert all((point[i] + b * point[j]).denominator != 1 for i, j, b in roots)
    scan = spec.scan
    if scan is None:
        assert family not in SCANS
        return
    if family is Family.PVI:
        assert all(s.count(-1) % 2 == 0 for s in scan.sign_patterns)
    assert (tuple(weyl._scan_order(family)[0]), scan.offsets, scan.named, scan.even_sum) == SCANS[family]


@pytest.mark.parametrize("family", [Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI])
def test_token_table_matches_fresh_generators(family):
    fresh = named_generators(family)
    for name, m in fresh.items():
        assert resolve_token(family, name) == m
        assert resolve_token(family, name + "^-1") == m.inverse()
    for bad in ("nosuch", "nosuch^-1", "s1^-1^-1"):
        with pytest.raises(KeyError):
            resolve_token(family, bad)


def test_pii_generator_actions():
    named = named_generators(Family.PII)
    alpha = (T1,)
    assert named["reflect"].apply(alpha) == (-T1 - 1,)
    assert named["shift_up"].apply(alpha) == (T1 + 1,)
    assert named["shift_down"].apply(alpha) == (T1 - 1,)


def test_piii_generator_actions():
    named = named_generators(Family.PIII)
    v = (T1, T2)
    assert named["s1"].apply(v) == (T2, T1)
    assert named["s2"].apply(v) == (-T2, -T1)
    assert named["s3"].apply(v) == (T2 + 1, T1 - 1)
    assert named["s4"].apply(v) == (-T2 + 1, -T1 + 1)


def test_pvi_generator_actions():
    named = named_generators(Family.PVI)
    v = (T1, T2, T3, T4)
    assert named["s4"].apply(v) == (T1, T2, -T4, -T3)
    assert named["s5"].apply(v) == (-T2 + 1, -T1 + 1, T3, T4)


def test_group_relation_fixtures():
    named = named_generators(Family.PIV)
    assert word_map(Family.PIV, ("tminus", "s1", "s2", "s1", "tminus^-1")) == named["s0"]
    assert named["s0"].apply((T1, T2, -T1 - T2)) == (T1, -T1 - T2 + 1, T2 - 1)
    expected = AffineMap.from_permutation(Family.PV, (0, 3, 2, 1), translation=(0, 1, 0, -1))
    assert word_map(Family.PV, ("tminus", "s3", "s1", "s2", "s1", "s3", "tminus^-1")) == expected
    assert word_map(Family.PIII, ("s1", "s1")) == AffineMap.identity(Family.PIII, 2)


def test_sum_zero_preserved_symbolically():
    rng = random.Random(11)
    for family in (Family.PIV, Family.PV):
        for name, g in named_generators(family).items():
            v = rand_params(family, rng)
            image = g.apply(v)
            total = PV(0)
            for x in image:
                total = total + x
            assert total == PV(0), (family, name)


def test_pv_translation_module_actions():
    # The four quarter translations generating the fifth family's translations.
    vecs = [(H / 2, H / 2, H / 2, -3 * H / 2), (0, 0, -1, 1), (0, -1, 0, 1), (-1, 0, 0, 1)]
    alphas = [AffineMap.from_permutation(Family.PV, range(4), translation=vec) for vec in vecs]
    v = (T1, T2, T3, -T1 - T2 - T3)
    a1 = alphas[0].apply(v)
    assert a1[0] == T1 + Fraction(1, 4)
    assert a1[3] == -T1 - T2 - T3 - Fraction(3, 4)
    assert alphas[1].apply(v)[2] == T3 - 1
    # each alpha translation is realized by a generator word
    for i, alpha in enumerate(alphas):
        target = alpha.apply(v)
        res = generator_word(Family.PV, v, target)
        assert res.word is not None
        assert apply_word(Family.PV, res.word, v) == target


def test_invert_word_roundtrip():
    word = ("tminus", "s3", "s1")
    inv = tuple(token + "^-1" for token in reversed(word))
    assert word_map(Family.PV, word + inv) == AffineMap.identity(Family.PV, 4)
    assert resolve_token(Family.PII, "shift_up^-1") == resolve_token(Family.PII, "shift_down")


# -- dense-matrix reference -------------------------------------------------------------
# An independent model of the affine-map algebra: dense Fraction matrices,
# matrix products, a Gaussian-elimination inverse and a row-by-row apply.
# Only each generator's own data is read from the module under test.


def dense(m):
    n = m.dim
    linear = tuple(tuple(Fraction(m.signs[j] if k == m.perm[j] else 0) for k in range(n)) for j in range(n))
    return linear, m.translation


def dense_compose(f, g):
    """f after g."""
    (fl, ft), (gl, gt) = f, g
    n = len(ft)
    linear = tuple(tuple(sum((fl[i][k] * gl[k][j] for k in range(n)), Fraction(0)) for j in range(n))
                   for i in range(n))
    return linear, tuple(sum((fl[i][k] * gt[k] for k in range(n)), ft[i]) for i in range(n))


def dense_inverse(f):
    linear, translation = f
    n = len(translation)
    aug = [list(linear[i]) + [Fraction(int(j == i)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    inv = tuple(tuple(row[n:]) for row in aug)
    return inv, tuple(-sum((inv[i][k] * translation[k] for k in range(n)), Fraction(0)) for i in range(n))


def dense_apply(f, values):
    linear, translation = f
    return tuple(sum((x * c for x, c in zip(values, row)), PV(t)) for row, t in zip(linear, translation))


def dense_word(family, word):
    named = named_generators(family)
    n = family_space(family).arity
    out = dense(AffineMap.identity(family, n))
    for token in word:
        g = dense(named[token.removesuffix("^-1")])
        out = dense_compose(dense_inverse(g) if token.endswith("^-1") else g, out)
    return out


@pytest.mark.parametrize("family", [Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI])
def test_word_algebra_matches_dense_reference(family):
    rng = random.Random(f"dense:{family.value}")
    tokens = [name + suffix for name in named_generators(family) for suffix in ("", "^-1")]
    for _ in range(60):
        word = tuple(rng.choice(tokens) for _ in range(rng.randint(0, 12)))
        reference = dense_word(family, word)
        m = word_map(family, word)
        assert dense(m) == reference, word
        assert dense(m.inverse()) == dense_inverse(reference), word
        v = rand_atom_params(family, rng)
        assert apply_word(family, word, v) == dense_apply(reference, v), (word, v)


# -- orbit criterion fixtures -----------------------------------------------------------


def test_orbit_pii_quarter_case():
    v = orbit_decide(Family.PII, [Fraction(1, 4)], [Fraction(7, 4)])
    assert v.related is TriBool.YES
    assert v.hypothesis_status is HypothesisStatus.SUFFICIENT_ONLY
    assert v.witness.signs == (-1,)
    assert v.witness.shift == (Fraction(2),)
    assert witness_maps(v.witness, (PV(Fraction(1, 4)),), (PV(Fraction(7, 4)),))


def test_orbit_pii_generic_no():
    v = orbit_decide(Family.PII, [T1], [T2])
    assert v.related is TriBool.NO
    assert v.hypothesis_status is HypothesisStatus.PROVED


def test_orbit_pii_integer_shift_of_transcendental():
    v = orbit_decide(Family.PII, [T1], [T1 + 5])
    assert v.related is TriBool.YES
    assert v.hypothesis_status is HypothesisStatus.PROVED
    assert v.witness.signs == (1,)


def test_orbit_pii_unknown():
    v = orbit_decide(Family.PII, [A1], [A2])
    assert v.related is TriBool.UNKNOWN
    assert v.hypothesis_status is HypothesisStatus.OPEN


def test_orbit_piv_witness_example():
    v = (T1, T2, -T1 - T2)
    w = (T2 + 1, -T1 - T2, T1 - 1)
    verdict = orbit_decide(Family.PIV, v, w)
    assert verdict.related is TriBool.YES
    assert verdict.witness.perm == (1, 2, 0)
    assert verdict.witness.shift == (Fraction(1), Fraction(0), Fraction(-1))
    assert witness_maps(verdict.witness, v, w)
    assert verdict.hypothesis_status is HypothesisStatus.PROVED


def test_orbit_pv_quarter_shift():
    verdict = orbit_with_word(Family.PV, [0, 0, 0, 0], [Fraction(1, 4)] * 3 + [Fraction(-3, 4)])
    assert verdict.related is TriBool.YES
    assert verdict.witness.quarter_shift == 1
    assert verdict.word is not None
    assert any("tminus" in token for token in verdict.word)


def test_orbit_pvi_s5_image():
    v = (T1, T2, T3, T4)
    w = (-T2 + 1, -T1 + 1, T3, T4)
    verdict = orbit_decide(Family.PVI, v, w)
    assert verdict.related is TriBool.YES
    assert verdict.witness.signs.count(-1) == 2
    assert sum(verdict.witness.integer_shift) % 2 == 0
    assert witness_maps(verdict.witness, v, w)
    assert verdict.hypothesis_status is HypothesisStatus.SUFFICIENT_ONLY


def test_orbit_pvi_open_on_failure():
    verdict = orbit_decide(Family.PVI, (T1, T2, T3, T4), (T1 + H, T2, T3, T4))
    assert verdict.related is TriBool.NO
    assert verdict.hypothesis_status is HypothesisStatus.OPEN


def test_orbit_piii_half_shift_yes_without_word():
    v = (T1, T2)
    w = (T1 + H, T2 + H)
    verdict = orbit_with_word(Family.PIII, v, w)
    assert verdict.related is TriBool.YES
    assert verdict.word is None
    assert verdict.word_reason == "NoWordFound"
    assert witness_maps(verdict.witness, v, w)
    assert verdict.witness.note is not None  # outside the generator lattice


# v has one coordinate with a single alg atom and three with two.  Where a
# candidate maps that coordinate to w_4, the three tests the criterion names
# are Unknown and only the fourth coordinate's test decides No.
PV_FOURTH_COORDINATE_PAIR = (
    "alg3 - 1,-1*alg1 + alg3 + 1,alg1 - alg2 + 1/2,alg2 - 2*alg3 - 1/2",
    "2/3,-2/3,-5/4,5/4",
)


def test_orbit_symmetry():
    rng = random.Random(17)
    for _ in range(60):
        family = rng.choice([Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI])
        v = rand_params(family, rng)
        w = rand_params(family, rng)
        assert orbit_decide(family, v, w).related is orbit_decide(family, w, v).related
    # tau and alg atoms, with related pairs and pairs tied through alg atoms.
    for i in range(150):
        family = rng.choice([Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI])
        names = family_space(family).orbit_generators
        v = rand_atom_params(family, rng)
        kind = i % 3
        if kind == 0:
            w = apply_word(family, [rng.choice(names) for _ in range(rng.randint(0, 5))], v)
        elif kind == 1:
            w = apply_word(family, [rng.choice(names) for _ in range(rng.randint(0, 3))], v)
            w = tuple(x + (A2 - A1) * coeff(x, alg(1)) for x in w)
        else:
            w = rand_atom_params(family, rng)
        assert orbit_decide(family, v, w).related is orbit_decide(family, w, v).related, (family, v, w)
    v, w = (tuple(parse_param(x) for x in text.split(",")) for text in PV_FOURTH_COORDINATE_PAIR)
    assert orbit_decide(Family.PV, v, w).related is TriBool.NO
    assert orbit_decide(Family.PV, w, v).related is TriBool.NO


def test_orbit_validates_parameters():
    with pytest.raises(InvalidEquationError):
        orbit_decide(Family.PIV, (1, 1, 1), (0, 0, 0))


def test_orbit_soundness_fuzz():
    rng = random.Random(23)
    for _ in range(250):
        family = rng.choice([Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI])
        v = rand_params(family, rng)
        names = family_space(family).orbit_generators
        word = tuple(rng.choice(names) for _ in range(rng.randint(0, 12)))
        w = apply_word(family, word, v)
        verdict = orbit_decide(family, v, w)
        assert verdict.related is TriBool.YES
        assert verdict.witness is not None
        if verdict.witness.has_map:
            assert witness_maps(verdict.witness, v, w)


# -- generator words -------------------------------------------------------------------------


def rand_atom_params(family, rng):
    """Rational coordinates, some carrying a tau or alg atom; sum zero for IV/V."""
    arity = family_space(family).arity
    vals = []
    for _ in range(arity):
        x = PV(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 6])))
        r = rng.random()
        if r < 0.25:
            x = x + of_atom(tau(rng.randint(1, 2)), rng.choice([1, -1, 2]))
        elif r < 0.5:
            x = x + of_atom(alg(rng.randint(1, 3)), rng.choice([1, -1]))
        vals.append(x)
    if family in (Family.PIV, Family.PV):
        vals[-1] = -sum(vals[:-1], PV(0))
    return tuple(vals)


def scan_pairs(family, count):
    """Seeded (v, w) pairs for the second and fourth to sixth families: a
    third related by a generator word, a third whose coordinate tests come
    out Unknown, and a third unrelated."""
    rng = random.Random({Family.PII: 40, Family.PIV: 41, Family.PV: 42, Family.PVI: 43}[family])
    names = family_space(family).orbit_generators
    for i in range(count):
        v = rand_atom_params(family, rng)
        kind = i % 3
        if kind == 0:  # related: a random generator word
            w = apply_word(family, [rng.choice(names) for _ in range(rng.randint(0, 5))], v)
        elif kind == 1:
            # alg1 renamed alg2, plus integers: coordinate tests come out
            # Unknown, and for VI the even-sum test can still decide No.
            v = (v[0] + A1,) + v[1:-1] + (v[-1] - A1,) if len(v) > 1 else (v[0] + A1,)
            shift = [rng.randint(-2, 2) for _ in v]
            if family_space(family).sum_zero:
                shift[-1] = -sum(shift[:-1])
            renamed = [x + (A2 - A1) * coeff(x, alg(1)) + k for x, k in zip(v, shift)]
            w = apply_word(family, [rng.choice(names) for _ in range(rng.randint(0, 3))], renamed)
        else:
            w = rand_atom_params(family, rng)
        yield v, w


@pytest.mark.parametrize("family", [Family.PII, Family.PIV, Family.PV, Family.PVI])
def test_orbit_decide_agrees_with_candidate_scan(family):
    seen = set()
    for v, w in scan_pairs(family, 300):
        verdict = orbit_decide(family, v, w)
        related, witness, status = scan_orbit_decide(family, v, w)
        assert (verdict.related, verdict.witness, verdict.hypothesis_status) == (related, witness, status), (v, w)
        seen.add(related)
    assert seen == {TriBool.YES, TriBool.NO, TriBool.UNKNOWN}


def _coerced(family, v, w):
    return EquationId(family, v).params, EquationId(family, w).params


def lattice_scan(family, v, w):
    """``weyl._lattice_scan`` on the query's integer form, as ``orbit_decide`` runs it."""
    return weyl._lattice_scan(family, weyl._scaled(family, v, w))


def quarter_pairs(count):
    """Seeded fifth-family pairs w = g(v) + a/4*(1, 1, 1, -3) with atoms, a
    third of them moved off the orbit by 1/8 on two coordinates."""
    rng = random.Random(44)
    names = family_space(Family.PV).orbit_generators
    for i in range(count):
        v = rand_atom_params(Family.PV, rng)
        w = apply_word(Family.PV, [rng.choice(names) for _ in range(rng.randint(0, 4))], v)
        q = Fraction(rng.randint(1, 3), 4) + (Fraction(1, 8) if i % 3 == 2 else 0)
        yield v, (w[0] + q, w[1] + q, w[2] + q, w[3] - 3 * q)


def grid_pairs(family, count):
    """Seeded rational pairs on a coarse grid (thirds for IV, quarters for
    V, halves otherwise), where many candidates pass and scan order alone
    picks the witness."""
    rng = random.Random(45)
    den = {Family.PIV: 3, Family.PV: 4}.get(family, 2)
    arity, sum_zero = family_space(family).arity, family_space(family).sum_zero

    def point():
        x = [Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(arity)]
        if sum_zero:
            x[-1] = -sum(x[:-1])
        return tuple(PV(c) for c in x)

    for _ in range(count):
        yield point(), point()


def two_alg_pairs():
    """``(family, v, w, related)``: coordinate differences that keep two
    algebraic atoms, so residue keys differ and only ``coset`` can say
    Unknown.  In the last pair the atoms cancel in the sixth family's
    even-sum test, which then says No."""
    yield Family.PII, (A1,), (A2 + 3,), TriBool.UNKNOWN
    yield Family.PIV, (A1, T1, -A1 - T1), (A2 + 1, T1 - 1, -A2 - T1), TriBool.UNKNOWN
    yield Family.PV, (A1, T1, T2, -A1 - T1 - T2), (A2, T1 + 1, T2 - 1, -A2 - T1 - T2), TriBool.UNKNOWN
    yield Family.PVI, (A1, T1, T2, PV(Fraction(1, 3))), (A2, T1, T2 + 1, PV(Fraction(4, 3))), TriBool.UNKNOWN
    third = PV(Fraction(1, 3))
    yield Family.PVI, (A1 + T2, A2 + T2, T1, third), (A2 + T2, A1 + T2 + 1, T1, third), TriBool.NO


@pytest.mark.parametrize("family", [Family.PII, Family.PIV, Family.PV, Family.PVI])
def test_lattice_scan_matches_lazy_oracle(family):
    # The residue-key scan against the scan that built every difference.
    seen = set()
    pairs = list(scan_pairs(family, 300)) + list(grid_pairs(family, 300))
    pairs += [(v, w) for fam, v, w, _ in two_alg_pairs() if fam is family]
    for v, w in pairs:
        v, w = _coerced(family, v, w)
        got = lattice_scan(family, v, w)
        assert got == lazy_lattice_scan(family, v, w), (v, w)
        seen.add(got[0])
    assert seen == {TriBool.YES, TriBool.NO, TriBool.UNKNOWN}


def test_fifth_family_quarter_offsets_match_lazy_oracle():
    offsets = set()
    for v, w in quarter_pairs(150):
        v, w = _coerced(Family.PV, v, w)
        related, witness = lattice_scan(Family.PV, v, w)
        assert (related, witness) == lazy_lattice_scan(Family.PV, v, w), (v, w)
        if related is TriBool.YES:
            assert witness_maps(witness, v, w)
            offsets.add(witness.quarter_shift)
    assert offsets >= {1, 2, 3}


@pytest.mark.parametrize("family, v, w, related", list(two_alg_pairs()))
def test_two_algebraic_atoms_are_unknown_through_decide_coset(monkeypatch, family, v, w, related):
    # decide_coset leaves a coordinate difference Unknown, and the scan's
    # coset tests reach it and agree with the lazy oracle.
    v, w = _coerced(family, v, w)
    expected = lazy_lattice_scan(family, v, w)
    assert expected[0] is related
    assert TriBool.UNKNOWN in {decide_coset(y - x, 0, 1) for y in w for x in v}
    assert coset_moduli(monkeypatch, family, v, w).count(1) > 0
    assert lattice_scan(family, v, w) == expected


def test_scan_without_algebraic_atoms_makes_no_coset_test(monkeypatch):
    # Residue keys decide every tau-only or rational difference, so the
    # scan calls coset for neither a difference nor the sixth family's sum.
    for family in (Family.PII, Family.PIV, Family.PV, Family.PVI):
        for v, w in scan_pairs(family, 60):
            if any(a.kind is AtomKind.ALGEBRAIC_IRRATIONAL for x in v + w for a, _ in x.terms):
                continue
            v, w = _coerced(family, v, w)
            assert coset_moduli(monkeypatch, family, v, w) == [], (v, w)
            assert lattice_scan(family, v, w) == lazy_lattice_scan(family, v, w), (v, w)


@pytest.mark.parametrize("call", [orbit_decide, generator_word, orbit_with_word])
def test_library_callers_are_still_validated(call):
    with pytest.raises(InvalidEquationError):
        call(Family.PV, (1, 0, 0, 0), (1, 0, 0, -1))
    with pytest.raises(InvalidEquationError):
        call(Family.PIV, (0, 0, 0), (0, 0))


def _defective(base, defects):
    """``base`` with each named defect: a non-zero sum (with an atom), an
    extra coordinate, an inexact last value."""
    out = list(base)
    if "sum" in defects:
        out[0] = out[0] + T2 + Fraction(1, 3)
    if "arity" in defects:
        out.append(Fraction(0))
    if "inexact" in defects:
        out[-1] = 0.5
    return out


_DEFECT_SETS = [set(c) for r in range(4) for c in itertools.combinations(("arity", "sum", "inexact"), r)]


@pytest.mark.parametrize("family,v0,w0", [
    (Family.PIV, (Fraction(1, 3), Fraction(1, 6), Fraction(-1, 2)), (Fraction(4, 3), Fraction(-5, 6), Fraction(-1, 2))),
    (Family.PIV, (A1, T1, -A1 - T1), (T1 + 1, A1 - 1, -A1 - T1)),
    (Family.PV, (0, 0, 0, 0), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(-3, 4))),
])
@pytest.mark.parametrize("call", [orbit_decide, generator_word, orbit_with_word])
def test_pair_errors_are_equation_errors_v_first(family, v0, w0, call):
    # Every mix of defects in v and w raises what EquationId raises, for v first.
    for v_defects, w_defects in itertools.product(_DEFECT_SETS, repeat=2):
        v, w = _defective(v0, v_defects), _defective(w0, w_defects)
        expected = None
        for x in (v, w):
            try:
                EquationId(family, x)
            except InvalidEquationError as err:
                expected = type(err), str(err)
                break
        if expected is None:
            call(family, v, w)
            continue
        with pytest.raises(InvalidEquationError) as exc:
            call(family, v, w)
        assert (type(exc.value), str(exc.value)) == expected, (v_defects, w_defects)


def coset_moduli(monkeypatch, family, v, w):
    """The modulus of every ``coset`` test one ``orbit_decide`` makes."""
    moduli = []

    def counting(form, coeffs, offset, modulus):
        moduli.append(modulus)
        return coset(form, coeffs, offset, modulus)

    with monkeypatch.context() as m:
        m.setattr(weyl, "coset", counting)
        orbit_decide(family, v, w)
    return moduli


@pytest.mark.parametrize("family, bound", [(Family.PII, 2), (Family.PIV, 9), (Family.PV, 64), (Family.PVI, 32)])
def test_orbit_decide_tests_each_difference_at_most_once(monkeypatch, family, bound):
    # One integer-coset test per difference w_j - s*v_i - c, at most.
    for v, w in scan_pairs(family, 60):
        assert coset_moduli(monkeypatch, family, v, w).count(1) <= bound, (v, w)


def test_pvi_scan_stops_at_the_first_no_coordinate(monkeypatch):
    # No w_0 - s*v_i is integral, so every candidate stops at its first
    # coordinate: 8 tests in all (4 v_i, 2 signs).
    v = tuple(PV(x) for x in (Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), Fraction(3, 11)))
    w = tuple(PV(x) for x in (Fraction(1, 13), Fraction(5, 2), Fraction(7, 3), Fraction(1, 6)))
    assert orbit_decide(Family.PVI, v, w).related is TriBool.NO
    assert len(coset_moduli(monkeypatch, Family.PVI, v, w)) <= 8


@pytest.mark.parametrize("family", [Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI])
def test_orbit_decide_is_invariant_under_the_group(family):
    # w = g(v) lies in v's orbit, so v and w get the same verdict against any
    # u, Unknown included: transitivity when the verdict is undecided.
    rng = random.Random(f"invariance:{family.value}")
    names = family_space(family).orbit_generators
    sum_zero = family_space(family).sum_zero
    seen = set()
    for i in range(300):
        v = rand_atom_params(family, rng)
        w = apply_word(family, [rng.choice(names) for _ in range(rng.randint(1, 6))], v)
        u = apply_word(family, [rng.choice(names) for _ in range(rng.randint(0, 4))], v)
        kind = i % 4
        if kind == 1:  # a near miss: half a shift off the orbit
            u = (u[0] + H,) + (u[1:-1] + (u[-1] - H,) if sum_zero else u[1:])
        elif kind == 2:  # alg1 renamed alg2: Unknown where v carries alg1
            u = tuple(x + (A2 - A1) * coeff(x, alg(1)) for x in u)
        elif kind == 3:
            u = rand_atom_params(family, rng)
        related = orbit_decide(family, v, u).related
        assert orbit_decide(family, w, u).related is related, (v, w, u)
        seen.add(related)
    assert seen == {TriBool.YES, TriBool.NO, TriBool.UNKNOWN}


@pytest.mark.parametrize("family, named", [(Family.PII, 1), (Family.PIV, 3), (Family.PV, 3), (Family.PVI, 4)])
def test_integer_shift_covers_the_named_coordinates(family, named):
    yes = [orbit_decide(family, v, w) for v, w in scan_pairs(family, 30)]
    yes = [verdict for verdict in yes if verdict.related is TriBool.YES]
    assert yes
    for verdict in yes:
        assert len(verdict.witness.integer_shift) == named
        assert len(verdict.witness.shift) == family_space(family).arity


def test_word_requires_yes_verdict():
    with pytest.raises(ValueError):
        generator_word(Family.PII, [T1], [T2])


def test_word_pii_reflection_branch():
    res = generator_word(Family.PII, [Fraction(1, 4)], [Fraction(7, 4)])
    assert res.word is not None
    assert res.word[0] == "reflect"
    assert apply_word(Family.PII, res.word, (PV(Fraction(1, 4)),)) == (PV(Fraction(7, 4)),)


def test_word_piv_single_move():
    res = generator_word(Family.PIV, [0, 0, 0], [0, 1, -1])
    assert res.word is not None
    assert apply_word(Family.PIV, res.word, (PV(0), PV(0), PV(0))) == (PV(0), PV(1), PV(-1))


def test_word_property_random_words():
    rng = random.Random(31)
    lengths = {Family.PII: 12, Family.PIV: 10, Family.PV: 8, Family.PIII: 6, Family.PVI: 6}
    for family, max_len in lengths.items():
        for _ in range(8):
            v = rand_params(family, rng)
            names = family_space(family).orbit_generators
            word = tuple(rng.choice(names) for _ in range(rng.randint(1, max_len)))
            w = apply_word(family, word, v)
            res = generator_word(family, v, w)
            assert res.word is not None, (family, word)
            assert apply_word(family, res.word, v) == w


def test_word_identity_cases():
    fixtures = {
        Family.PII: (T1,),
        Family.PIII: (T1, T2),
        Family.PIV: (T1, T2, -T1 - T2),
        Family.PV: (T1, T2, T3, -T1 - T2 - T3),
        Family.PVI: (T1, T2, T3, T4),
    }
    for family, v in fixtures.items():
        res = generator_word(family, v, v)
        assert res.word == ()


def test_word_pv_negative_quarter_shift():
    v = (PV(0), PV(0), PV(0), PV(0))
    w = (Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 4), Fraction(3, 4))
    verdict = orbit_decide(Family.PV, v, w)
    assert verdict.related is TriBool.YES
    assert verdict.witness.quarter_shift == 3  # -1/4 = 3/4 mod Z in each slot
    res = generator_word(Family.PV, v, w)
    assert res.word is not None
    assert apply_word(Family.PV, res.word, v) == tuple(PV(x) for x in w)


def test_word_piv_negative_translation():
    res = generator_word(Family.PIV, [2, -3, 1], [-3, 3, 0])
    assert res.word is not None
    assert apply_word(Family.PIV, res.word, (PV(2), PV(-3), PV(1))) == (PV(-3), PV(3), PV(0))


def test_orbit_piii_witness_prefers_the_generator_lattice():
    # The identity candidate has the rational shift (-2/15, 2/15); the swap
    # has shift 0 and is the generator s1.
    v, w = (PV(Fraction(1, 3)), PV(Fraction(1, 5))), (PV(Fraction(1, 5)), PV(Fraction(1, 3)))
    verdict = orbit_with_word(Family.PIII, v, w)
    assert (verdict.witness.perm, verdict.witness.shift, verdict.witness.note) == ((1, 0), (0, 0), None)
    assert verdict.word == ("s1",)


def test_word_pvi_long_translation():
    # A translation by (60, 60, 0, 0): the bounded search gave NoWordFound.
    v = tuple(PV(Fraction(*x)) for x in ((1, 3), (1, 5), (2, 7), (3, 11)))
    w = (v[0] + 60, v[1] + 60, v[2], v[3])
    res = generator_word(Family.PVI, v, w)
    assert res.word is not None and apply_word(Family.PVI, res.word, v) == w
    # one reflection per wall x_i + b*x_j = k crossed on the way from v to w
    assert len(res.word) == 120 + 8 * 60


@pytest.mark.parametrize("family", [Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI])
def test_word_too_long_keeps_the_verdict(family):
    n = 10**9
    v = {
        Family.PII: (PV(0),),
        Family.PIII: (PV(Fraction(1, 3)), PV(Fraction(1, 5))),
        Family.PIV: (PV(Fraction(1, 3)), PV(Fraction(1, 5)), PV(Fraction(-8, 15))),
        Family.PV: (PV(Fraction(1, 3)), PV(Fraction(1, 5)), PV(Fraction(1, 7)), PV(Fraction(-71, 105))),
        Family.PVI: (PV(Fraction(1, 3)), PV(Fraction(1, 5)), PV(Fraction(2, 7)), PV(Fraction(3, 11))),
    }[family]
    shift = {Family.PII: (n,), Family.PIII: (n, n), Family.PVI: (n, n, 0, 0)}.get(family, (n, -n) + (0,) * (len(v) - 2))
    w = tuple(x + k for x, k in zip(v, shift))
    start = time.perf_counter()
    verdict = orbit_with_word(family, v, w)
    assert time.perf_counter() - start < 1.0
    assert (verdict.word, verdict.word_reason) == (None, "WordTooLong")
    assert verdict == orbit_decide(family, v, w)._replace(word_reason="WordTooLong")


def test_word_at_the_token_cap_is_returned():
    assert generator_word(Family.PII, [0], [MAX_WORD_TOKENS]).word == ("shift_up",) * MAX_WORD_TOKENS
    assert generator_word(Family.PII, [0], [MAX_WORD_TOKENS + 1]).reason == "WordTooLong"
    # reflect, then shift_up past the reflection's -1: one token over the cap
    v, w = [Fraction(1, 4)], [Fraction(-1, 4) + MAX_WORD_TOKENS - 1]
    assert generator_word(Family.PII, v, w).reason == "WordTooLong"


def fuzz_params(family, rng):
    """Rational coordinates, or coordinates carrying tau atoms, alg atoms, or
    tied to another coordinate (equal or opposite up to an integer or a
    half), so that walls pass through the points; sum zero for IV/V."""
    arity = family_space(family).arity
    vals = [PV(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 6]))) for _ in range(arity)]
    kind = rng.choice(("rational", "tau", "alg", "tied"))
    for i in range(arity):
        if kind == "tau" and rng.random() < 0.6:
            vals[i] = vals[i] + of_atom(tau(rng.randint(1, 2)), rng.choice([1, -1]))
        elif kind == "alg" and rng.random() < 0.6:
            vals[i] = vals[i] + of_atom(alg(rng.randint(1, 2)), rng.choice([1, -1]))
        elif kind == "tied" and i and rng.random() < 0.7:
            vals[i] = vals[rng.randrange(i)] * rng.choice([1, -1]) + rng.choice([0, 1, -1, H])
    if family in (Family.PIV, Family.PV):
        vals[-1] = -sum(vals[:-1], PV(0))
    return tuple(vals)


@pytest.mark.parametrize("family", [Family.PIII, Family.PIV, Family.PV, Family.PVI])
def test_alcove_word_is_shortest(family):
    rng = random.Random(f"alcove:{family.value}")
    names = family_space(family).orbit_generators
    for _ in range(400):
        v = fuzz_params(family, rng)
        w = apply_word(family, [rng.choice(names) for _ in range(rng.randint(0, 10))], v)
        verdict = orbit_with_word(family, v, w)
        assert verdict.word is not None and apply_word(family, verdict.word, v) == w, (v, w)
        if family is not Family.PV:
            assert len(verdict.word) == len(shortest_word(family, v, w, bound=10)), (v, w)
        if family in (Family.PIV, Family.PV):
            assert len(verdict.word) <= len(table_word(family, verdict.witness)), (v, w)


def test_piii_no_word_found_is_a_proof():
    # The criterion holds after a half shift of both coordinates, but for most
    # points no group element maps v to w (the group's extra parity).
    rng = random.Random(19)
    names = family_space(Family.PIII).orbit_generators
    reasons = set()
    for _ in range(30):
        v = fuzz_params(Family.PIII, rng)
        w = tuple(x + H for x in apply_word(Family.PIII, [rng.choice(names) for _ in range(rng.randint(0, 6))], v))
        verdict = orbit_with_word(Family.PIII, v, w)
        assert verdict.related is TriBool.YES
        oracle = shortest_word(Family.PIII, v, w, bound=12)
        if verdict.word is None:
            assert (verdict.word_reason, oracle) == ("NoWordFound", None), (v, w)
        else:
            assert apply_word(Family.PIII, verdict.word, v) == w, (v, w)
            assert len(verdict.word) == len(oracle) if len(verdict.word) <= 12 else oracle is None, (v, w)
        reasons.add(verdict.word_reason)
    assert reasons == {None, "NoWordFound"}


_HUGE = st.builds(operator.mul, st.sampled_from([1, -1]), st.integers(min_value=10**199, max_value=10**200 - 1))
_BIG = st.builds(
    Fraction,
    st.one_of(st.integers(min_value=-9, max_value=9), _HUGE, _HUGE),
    st.one_of(st.sampled_from([1, 2, 3, 4, 6, 8]), st.integers(min_value=1, max_value=10**12)),
)
_ATOMS = (T1, T2, A1, A2)


@st.composite
def orbit_queries(draw):
    """``(family, v, w)``: w the image of v under a word of up to six
    generators, or that image moved by a half or a quarter off the orbit
    (for the third family both coordinates by a half, where the criterion
    holds but no word may exist).
    Coordinates carry tau and alg atoms, denominators up to 10^12 and
    numerators of up to 200 digits, and some are tied to an earlier one, so
    that walls pass through the points."""
    family = draw(st.sampled_from([Family.PII, Family.PIII, Family.PIV, Family.PV, Family.PVI]))
    spec = family_space(family)
    v = []
    for i in range(spec.arity):
        if i and draw(st.integers(0, 3)) == 0:
            x = v[draw(st.integers(0, i - 1))] * draw(st.sampled_from([1, -1])) + draw(st.sampled_from([0, 1, -1, H]))
        else:
            x = PV(draw(_BIG))
            for atom in draw(st.lists(st.sampled_from(_ATOMS), max_size=2, unique=True)):
                x = x + atom * draw(st.sampled_from([1, -1, 2, H]))
        v.append(x)
    if spec.sum_zero:
        v[-1] = -sum(v[:-1], PV(0))
    word = draw(st.lists(st.sampled_from(spec.orbit_generators), max_size=6))
    w = list(apply_word(family, word, v))
    off = draw(st.sampled_from([0, 0, 0, H, Fraction(1, 4)]))
    w[0] = w[0] + off
    if spec.sum_zero:
        w[-1] = w[-1] - off
    elif family is Family.PIII and off == H:
        w[1] = w[1] + off
    return family, tuple(v), tuple(w)


def _corrupted(word, at):
    """The word with token ``at`` dropped, with it inverted, and with it
    swapped with the next token."""
    token = word[at]
    inverse = token[:-3] if token.endswith("^-1") else token + "^-1"
    out = [word[:at] + word[at + 1:], word[:at] + (inverse,) + word[at + 1:]]
    if at + 1 < len(word):
        out.append(word[:at] + (word[at + 1], token) + word[at + 2:])
    return out


@given(orbit_queries(), st.data())
@settings(max_examples=300, deadline=None)
def test_integer_orbit_path_matches_fraction_oracles(query, data):
    family, v, w = query
    form = weyl._scaled(family, v, w)
    if family is Family.PIII:
        assert weyl._piii_decide(form) == fraction_piii_decide(v, w)
    else:
        assert weyl._lattice_scan(family, form) == lazy_lattice_scan(family, v, w)
    if family is not Family.PII:
        assert weyl._walls_through(family, form.consts[len(v):], form) == fraction_walls_through(family, w)
    verdict = orbit_with_word(family, v, w)
    if verdict.related is not TriBool.YES:
        return
    expected = fraction_generator_word(family, v, w)
    assert (verdict.word, verdict.word_reason) == (expected.word, expected.reason)
    if verdict.word:
        words = [verdict.word, *_corrupted(verdict.word, data.draw(st.integers(0, len(verdict.word) - 1)))]
        for word in words:
            assert weyl._word_maps(family, word, form) == (apply_word(family, word, v) == w), word


# -- cross-family verdicts ----------------------------------------------------------------------


def test_cross_family_naggy1():
    verdict = cross_family_verdict(
        EquationId(Family.PII, [T1]),
        EquationId(Family.PIV, [T2, T3, -T2 - T3]),
    )
    assert verdict.verdict is Verdict.ORTHOGONAL
    assert verdict.citation.key == "naggy1"


def test_cross_family_naggy2():
    verdict = cross_family_verdict(
        EquationId(Family.PIII, [T1, T2]),
        EquationId(Family.PV, [T1, T2, T3, -T1 - T2 - T3]),
    )
    assert verdict.verdict is Verdict.ORTHOGONAL
    assert verdict.citation.key == "naggy2"


def test_cross_family_generic_pairs_cite_naggy():
    pairs = [
        (EquationId(Family.PI, []), EquationId(Family.PII, [T1])),
        (EquationId(Family.PII, [T1]), EquationId(Family.PV, [T1, T2, T3, -T1 - T2 - T3])),
        (EquationId(Family.PII, [T1]), EquationId(Family.PVI, [T1, T2, T3, T4])),
        (EquationId(Family.PIII, [T1, T2]), EquationId(Family.PIV, [T1, T2, -T1 - T2])),
        (EquationId(Family.PIV, [T1, T2, -T1 - T2]), EquationId(Family.PV, [T1, T2, T3, -T1 - T2 - T3])),
        (EquationId(Family.PV, [T1, T2, T3, -T1 - T2 - T3]), EquationId(Family.PVI, [T1, T2, T3, T4])),
    ]
    for eq1, eq2 in pairs:
        verdict = cross_family_verdict(eq1, eq2)
        assert verdict.verdict is Verdict.ORTHOGONAL
        assert verdict.citation.key == "naggy"


def test_distinct_family_verdict_agrees_with_chain():
    # Seeded pairs over all 36 ordered family pairs: the verdict does not
    # depend on the order of the pair; distinct families agree with the chain
    # with one block per cited pair, and the second family's
    # kernel1 clause against its statement (one parameter algebraic, the
    # other transcendental, and the orbit criterion not Yes).
    rng = random.Random(53)
    families = list(Family)
    keys = set()
    for _ in range(40):
        for f1, f2 in itertools.product(families, repeat=2):
            eq1, eq2 = (EquationId(f, rand_params(f, rng, atom_chance=0.75)) for f in (f1, f2))
            verdict = cross_family_verdict(eq1, eq2)
            assert cross_family_verdict(eq2, eq1) == verdict, (eq1, eq2)
            if f1 is not f2:
                assert verdict == chain_distinct_family_verdict(eq1, eq2), (eq1, eq2)
            elif f1 is Family.PII:
                a, b = (eq.params[0].has_transcendental for eq in (eq1, eq2))
                related = orbit_decide(f1, eq1.params, eq2.params).related
                kernel1 = a is not b and related is not TriBool.YES
                assert (verdict.citation is not None and verdict.citation.key == "kernel1") is kernel1, (eq1, eq2)
            keys.add((verdict.citation or verdict.question).key)
    assert {"naggy", "naggy1", "naggy2", "orthofam3", "q_np2", "kernel1"} <= keys


def test_cross_family_kernel1():
    verdict = cross_family_verdict(EquationId(Family.PII, [3]), EquationId(Family.PII, [T1]))
    assert verdict.verdict is Verdict.ORTHOGONAL
    assert verdict.citation.key == "kernel1"
    # algebraic-irrational counts as algebraic over Q as well
    verdict = cross_family_verdict(EquationId(Family.PII, [A1]), EquationId(Family.PII, [T1]))
    assert verdict.citation.key == "kernel1"


def test_cross_family_orthofam3_clauses():
    verdict = cross_family_verdict(EquationId(Family.PII, [Fraction(1, 4)]), EquationId(Family.PIII, [T1, T2]))
    assert verdict.verdict is Verdict.ORTHOGONAL
    assert verdict.citation.key == "orthofam3"
    half = cross_family_verdict(EquationId(Family.PII, [H]), EquationId(Family.PIII, [T1, T2]))
    assert half.verdict is Verdict.ORTHOGONAL
    assert "R(alpha)" in half.applicability


def test_cross_family_same_family_nonorthogonal():
    verdict = cross_family_verdict(EquationId(Family.PII, [T1]), EquationId(Family.PII, [T1 + 3]))
    assert verdict.verdict is Verdict.NONORTHOGONAL
    assert verdict.citation.key == "pii_backlund"
    verdict = cross_family_verdict(EquationId(Family.PV, [0, 0, 0, 0]), EquationId(Family.PV, [1, -1, 0, 0]))
    assert verdict.verdict is Verdict.NONORTHOGONAL
    assert verdict.citation.key == "pv_backlund"


def test_cross_family_same_family_proved_orthogonal():
    verdict = cross_family_verdict(EquationId(Family.PIII, [T1, T2]), EquationId(Family.PIII, [T3, T4]))
    assert verdict.verdict is Verdict.ORTHOGONAL
    assert verdict.citation.key == "p3orth"
    verdict = cross_family_verdict(
        EquationId(Family.PIV, [T1, T2, -T1 - T2]), EquationId(Family.PIV, [T1 + H, T2, -T1 - T2 - H])
    )
    assert verdict.verdict is Verdict.ORTHOGONAL
    assert verdict.citation.key == "p4orth"


def test_cross_family_open_cases():
    verdict = cross_family_verdict(EquationId(Family.PII, [Fraction(1, 4)]), EquationId(Family.PIII, [H, 0]))
    assert verdict.verdict is Verdict.OPEN
    assert verdict.citation is None
    assert verdict.question is not None
    same = cross_family_verdict(EquationId(Family.PII, [Fraction(1, 4)]), EquationId(Family.PII, [Fraction(1, 3)]))
    assert same.verdict is Verdict.OPEN
    assert same.question.key == "q_ortho2"
    pvi = cross_family_verdict(
        EquationId(Family.PVI, [T1, T2, T3, T4]), EquationId(Family.PVI, [T1 + H, T2, T3, T4])
    )
    assert pvi.verdict is Verdict.OPEN
    assert pvi.question.key == "q_pvi_orbit"


def test_cross_family_identical_equations_nonorthogonal():
    one = EquationId(Family.PI, [])
    verdict = cross_family_verdict(one, one)
    assert verdict.verdict is Verdict.NONORTHOGONAL
    assert verdict.citation is not None


def test_hypothesis_genericity_measured_by_td():
    # dependent transcendentals are not generic for the third family
    v = orbit_decide(Family.PIII, (T1, T1 + 1), (T2, T3))
    assert v.hypothesis_status is not HypothesisStatus.PROVED
    assert transcendence_degree((T1, T1 + 1)) == 1
