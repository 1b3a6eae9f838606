import collections
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from painleve import exactnum
from painleve.exactnum import (
    MAX_DIGITS,
    MAX_INTERNED_ATOMS,
    Atom,
    AtomKind,
    ParamSyntaxError,
    ParamValue,
    Scaled,
    TriBool,
    alg,
    coset,
    decide_coset,
    format_param,
    parse_param,
    rational_rank,
    scale,
    tau,
    tau_rank,
    transcendence_degree,
    tri_and,
    tri_or,
)

from oracles import (
    _FAST_PARAM, coeff, descent_parse_param, fraction_decide_coset, fraction_fast_parse_param,
    fraction_rational_rank, fraction_transcendence_degree, integer_solve, is_rational, of_atom,
)

# -- strategies --------------------------------------------------------------

rationals = st.builds(
    Fraction,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=12),
)
atoms = st.one_of(
    st.integers(min_value=0, max_value=3).map(tau),
    st.integers(min_value=0, max_value=2).map(alg),
)
param_values = st.builds(
    ParamValue,
    rationals,
    st.dictionaries(atoms, rationals, max_size=4),
)
# As the integer form meets them: denominators up to 10^12 and numerators
# of 200 digits.
huge_integers = st.builds(operator.mul, st.sampled_from([1, -1]), st.integers(min_value=10**199, max_value=10**200 - 1))
big_rationals = st.builds(
    Fraction,
    st.one_of(st.integers(min_value=-60, max_value=60), huge_integers),
    st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=10**12)),
)
big_values = st.builds(ParamValue, big_rationals, st.dictionaries(atoms, big_rationals, max_size=3))


# -- parsing and printing ----------------------------------------------------

def test_parse_plain_rational():
    assert parse_param("1/2") == ParamValue(Fraction(1, 2))
    assert is_rational(parse_param("1/2"))


def test_parse_linear_term():
    v = parse_param("2*tau1 - 1/3")
    assert v.const == Fraction(-1, 3)
    assert coeff(v, tau(1)) == 2
    assert [a for a, _ in v.terms] == [tau(1)]


def test_parse_canonicalizes_repeated_atoms():
    assert parse_param("tau1 + tau1") == ParamValue(0, {tau(1): 2})
    # Coefficients read from one term and summed over several are reduced.
    value = parse_param("1/4*alg1 + 2/4*tau1 + 1/4*alg1 - 3/6")
    assert_same_canonical(value, ParamValue(Fraction(-1, 2), {tau(1): Fraction(1, 2), alg(1): Fraction(1, 2)}))


def test_parse_cancellation_drops_atom():
    assert parse_param("tau1 - tau1 + 5") == ParamValue(5)


def test_parse_accepts_signed_continuation():
    assert parse_param("tau1 + -1/3") == parse_param("tau1 - 1/3")


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("1//2", 2),
        ("2*", 2),
        ("2*3", 2),
        ("tau1 tau2", 5),
        ("-tau1", 1),
        ("1 + ^", 4),
    ],
)
def test_parse_syntax_error_positions(text, pos):
    with pytest.raises(ParamSyntaxError) as err:
        parse_param(text)
    assert err.value.position == pos


def test_parse_zero_denominator():
    with pytest.raises(ParamSyntaxError):
        parse_param("1/0")


@pytest.mark.parametrize(
    "template,pos",
    [("{}", 0), ("-{}", 1), ("1/{}", 2), ("tau{}", 3), ("1 + 2*alg{}", 9), ("tau1 - {}/3", 7)],
)
def test_parse_rejects_digit_runs_over_the_limit(template, pos):
    assert parse_param(template.format("7" * MAX_DIGITS)) is not None
    with pytest.raises(ParamSyntaxError) as err:
        parse_param(template.format("7" * (MAX_DIGITS + 1)))
    assert err.value.position == pos
    with pytest.raises(ParamSyntaxError) as err:
        parse_param(template.format("1" * 5000))
    assert err.value.position == pos


def _parse_outcome(parse, text):
    try:
        value = parse(text)
    except ParamSyntaxError as err:
        return "error", str(err), err.position
    assert_canonical_form(value)
    return "value", value, (value.num, value.den, value.parts)


# Pieces of parameter text, mostly from the grammar, with Unicode digits,
# tabs, bare "tau"/"alg", zero denominators and digit runs on both sides of
# the limit.
_GRAMMAR_PIECES = ["0", "1", "7", "12", "\u0663", "/", "*", "+", "-", "--", " ", "\t", "tau1", "alg2", "alg12", "tau0"]
_PARAM_PIECES = st.one_of(
    st.sampled_from(_GRAMMAR_PIECES),
    st.sampled_from(_GRAMMAR_PIECES),
    st.sampled_from(["\U0001d7d9", "1/0", "/0", "tau", "alg", "x", ",", "1" * MAX_DIGITS, "9" * (MAX_DIGITS + 1)]),
)


@given(st.lists(_PARAM_PIECES, max_size=12).map("".join))
@settings(max_examples=1000, deadline=None)
def test_parse_matches_descent_oracle(text):
    # Same value, or the same message and position, as the recursive descent.
    assert _parse_outcome(parse_param, text) == _parse_outcome(descent_parse_param, text)


# Near misses of the whitespace-free grammar, and spaced or Unicode-digit
# texts: each must fail or parse as the recursive descent does.  A zero
# denominator in another script is still a zero denominator.
_FAST_PATH_NEAR_MISSES = [
    "-1*tau2-35/13", "1/0", "007", "tau1+-3", "1--3", "-tau1", "+1", "tau1*2", "1/2/3", "1/00", "1/010", "-0",
    "1 /2", " 1", "1\t", "tau1 +3", "tau1- 3", "1*tau1 ", "\u0663", "1/\u0663", "tau\u0663", "1" * (MAX_DIGITS + 1),
    "1/" + "2" * (MAX_DIGITS + 1), "tau" + "1" * (MAX_DIGITS + 1), "1" * MAX_DIGITS + "/" + "3" * MAX_DIGITS,
    "1/\u0660", "tau1 - 2/\u0660\u0660", "1 /\u0663", " -1*tau2 - tau3 ",
]


def _fast_path_text(rng):
    """A random expression over the grammar's alphabet, its tokens joined
    with no whitespace or, one time in four, with spaces and tabs; one in
    three is then broken by an inserted or deleted character."""

    def term():
        if rng.random() < 0.3:
            return [rng.choice(["tau", "alg"]) + rng.choice(["0", "1", "12", "007"])]
        tokens = rng.choice([[], [], ["-"]]) + [rng.choice(["0", "1", "7", "12", "007", str(rng.randint(0, 10**9))])]
        if rng.random() < 0.4:
            tokens += ["/", rng.choice(["1", "3", "12", "0", "00", "010", str(rng.randint(1, 999)), str(rng.randint(1, 10**12))])]
        if rng.random() < 0.4:
            tokens += ["*", rng.choice(["tau", "alg"]) + str(rng.randint(0, 12))]
        return tokens

    tokens = term()
    for _ in range(rng.randint(0, 3)):
        tokens += [rng.choice("+-")] + term()
    gaps = ["", " ", "\t", "  "] if rng.random() < 0.25 else [""]
    text = "".join(rng.choice(gaps) + token for token in tokens) + rng.choice(gaps)
    if rng.random() < 0.02:
        text = text.replace("1", "1" * rng.choice([MAX_DIGITS, MAX_DIGITS + 1]), 1)
    if rng.random() < 1 / 3:
        at = rng.randint(0, len(text))
        if rng.random() < 0.5:
            text = text[:at] + rng.choice([" ", "\t", "+", "-", "*", "/", "0", "\u0663", "\u0660", "x"]) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


@pytest.mark.parametrize("text", _FAST_PATH_NEAR_MISSES)
def test_fast_path_near_misses_match_descent_oracle(text):
    assert _parse_outcome(parse_param, text) == _parse_outcome(descent_parse_param, text)


def test_fast_path_matches_descent_oracle_on_seeded_texts():
    rng = random.Random(1901)
    counts = collections.Counter()
    for _ in range(20_000):
        text = _fast_path_text(rng)
        outcome = _parse_outcome(parse_param, text)
        assert outcome == _parse_outcome(descent_parse_param, text), text
        joined = "".join(text.split())
        if outcome[0] == "error":
            counts["invalid"] += 1
        elif _FAST_PARAM.fullmatch(joined):
            # The integer sums give the value the Fraction sums gave, with or
            # without whitespace between the tokens.
            assert outcome == _parse_outcome(fraction_fast_parse_param, joined), text
            counts["spaced" if joined != text else "unspaced"] += 1
    # Valid spaced, valid unspaced and invalid texts are each exercised.
    assert 5_000 < counts["unspaced"] < 18_000, counts
    assert counts["spaced"] > 1_000 and counts["invalid"] > 1_000, counts


# Plain rationals and their near misses: leading zeros, "-0", digit runs at
# and over the limit, zero denominators, Unicode digits and whitespace.
_DIGIT_RUNS = st.one_of(
    st.integers(min_value=0, max_value=10**12).map(str),
    st.sampled_from(["0", "00", "007", "1" * MAX_DIGITS, "9" * (MAX_DIGITS + 1), "\u0663", "1\u0663", "\U0001d7d9"]),
)
_GAPS = st.sampled_from(["", "", "", "", " ", "\t"])
_plain_rational_texts = st.builds(
    lambda *parts: "".join(parts),
    _GAPS, st.sampled_from(["", "-", "--", "+"]), _GAPS, _DIGIT_RUNS,
    st.one_of(st.just(""), st.builds(lambda gap, den: gap + "/" + den, _GAPS, _DIGIT_RUNS)), _GAPS,
)


@given(_plain_rational_texts)
@settings(max_examples=500, deadline=None)
def test_plain_rational_branch_matches_oracles(text):
    outcome = _parse_outcome(parse_param, text)
    assert outcome == _parse_outcome(descent_parse_param, text)
    if exactnum._PLAIN_RATIONAL.fullmatch(text) and not exactnum._LONG_DIGIT_RUN.search(text):
        # The direct read gives the value the Fraction sums give.
        assert outcome == _parse_outcome(fraction_fast_parse_param, text)


def test_atom_intern_table_stays_at_its_bound(monkeypatch):
    monkeypatch.setattr(exactnum, "_ATOMS", {})
    for i in range(10_000):
        assert parse_param(f"2*tau{10**6 + i}+alg3") == ParamValue(0, {tau(10**6 + i): 2, alg(3): 1})
    assert len(exactnum._ATOMS) == MAX_INTERNED_ATOMS
    # Past the bound a name is read afresh, to an equal atom.
    assert parse_param("tau1010000").terms == ((tau(1010000), 1),)
    assert len(exactnum._ATOMS) == MAX_INTERNED_ATOMS


@given(param_values)
def test_print_parse_roundtrip(v):
    assert parse_param(format_param(v)) == v


@given(param_values)
def test_roundtrip_is_idempotent_on_text(v):
    text = format_param(v)
    assert format_param(parse_param(text)) == text


@given(st.one_of(param_values, big_values))
def test_printed_text_reads_back_to_the_stored_form(v):
    text = format_param(v)
    back = parse_param(text)
    assert_canonical_form(back)
    assert (back.num, back.den, back.parts) == (v.num, v.den, v.parts)
    assert hash(back) == hash(v)
    assert scale([back]) == scale([descent_parse_param(text)])


# Constructor inputs: ints and Fractions, zero coefficients included.
mixed_rationals = st.one_of(rationals, st.integers(min_value=-60, max_value=60), st.just(0))


@given(mixed_rationals, st.dictionaries(atoms, mixed_rationals, max_size=5))
def test_constructor_stores_the_canonical_form(const, coeffs):
    v = ParamValue(const, coeffs)
    assert_canonical_form(v)
    assert v.const == const
    assert dict(v.terms) == {a: c for a, c in coeffs.items() if c}
    assert_same_canonical(v, ParamValue(Fraction(const), {a: Fraction(c) for a, c in reversed(coeffs.items())}))


# -- arithmetic and canonical form -------------------------------------------

@given(param_values, param_values)
def test_add_then_subtract_is_identity(a, b):
    assert a + b - b == a


@given(param_values, rationals)
def test_scaling_distributes_over_coefficients(v, q):
    scaled = v * q
    assert scaled.const == v.const * q
    for a, _ in v.terms:
        assert coeff(scaled, a) == coeff(v, a) * q


def test_no_zero_coefficients_stored():
    v = ParamValue(1, {tau(1): Fraction(0), alg(0): 2})
    assert [a for a, _ in v.terms] == [alg(0)]


def test_equality_against_plain_rationals():
    assert ParamValue(Fraction(3, 2)) == Fraction(3, 2)
    assert parse_param("2*tau1 - 2*tau1 + 7") == 7


# -- decide_coset -------------------------------------------------------------

def test_coset_rational_yes():
    assert decide_coset(ParamValue(Fraction(7, 2)), Fraction(1, 2), 1) is TriBool.YES


def test_coset_transcendental_no():
    x = ParamValue(Fraction(1, 2), {tau(1): 1})
    assert decide_coset(x, 0, 1) is TriBool.NO


def test_coset_two_algebraic_unknown():
    x = ParamValue(0, {alg(1): 1, alg(2): 1})
    assert decide_coset(x, 0, 1) is TriBool.UNKNOWN


def test_coset_cancelled_atoms_yes():
    x = of_atom(alg(1), 2) - of_atom(alg(1), 2) + 4
    assert decide_coset(x, 0, 2) is TriBool.YES


def test_coset_single_algebraic_no():
    assert decide_coset(ParamValue(0, {alg(1): Fraction(1, 3)}), 0, 1) is TriBool.NO


def test_coset_requires_positive_modulus():
    with pytest.raises(ValueError):
        decide_coset(ParamValue(1), 0, 0)


def test_coset_soundness_exhaustive_small_rationals():
    # Independent oracle: for atom-free q, the verdict must equal exact
    # rational membership of (q - offset) / modulus in Z.
    grid = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 4)]
    for q, offset in itertools.product(grid, [Fraction(0), Fraction(1, 2), Fraction(-1, 3)]):
        for modulus in (1, 2, Fraction(1, 2)):
            expected = TriBool.of(((q - offset) / Fraction(modulus)).denominator == 1)
            assert decide_coset(ParamValue(q), offset, modulus) is expected


@given(param_values, atoms, rationals)
def test_coset_stable_under_cancelling_atom_noise(v, a, q):
    noisy = v + of_atom(a, q) - of_atom(a, q)
    assert decide_coset(noisy, 0, 1) is decide_coset(v, 0, 1)


@given(param_values)
def test_coset_yes_implies_atom_free(v):
    if decide_coset(v, 0, 1) is TriBool.YES:
        assert is_rational(v)


# -- fast paths against the __init__-based arithmetic ------------------------
#
# The reference operations build every result through ``__init__``, which
# re-normalises its input; the arithmetic under test builds results from
# parts it assumes are already canonical.

def reference_combine(x, y, sign):
    coeffs = dict(x.terms)
    for a, c in y.terms:
        coeffs[a] = coeffs.get(a, Fraction(0)) + sign * c
    return ParamValue(x.const + sign * y.const, coeffs)


def reference_neg(x):
    return ParamValue(-x.const, {a: -c for a, c in x.terms})


def reference_mul(x, scalar):
    s = Fraction(scalar)
    return ParamValue(x.const * s, {a: c * s for a, c in x.terms})


def reference_decide_coset(x, offset, modulus):
    modulus = Fraction(modulus)
    y = reference_combine(x, ParamValue(offset), -1)
    if not y.terms:
        return TriBool.of((y.const / modulus).denominator == 1)
    if y.has_transcendental:
        return TriBool.NO
    return TriBool.NO if len(y.terms) == 1 else TriBool.UNKNOWN


def assert_canonical_form(value):
    """The stored integers are the canonical form: every ratio reduced over
    a positive denominator, no zero coefficient, atoms in sort order; the
    ``Fraction`` views read the same value."""
    assert type(value.num) is int and type(value.den) is int
    assert value.den > 0 and math.gcd(value.num, value.den) == 1
    assert type(value.parts) is tuple
    for atom, n, d in value.parts:
        assert type(n) is int and type(d) is int
        assert n != 0 and d > 0 and math.gcd(n, d) == 1
    keys = [a.sort_key() for a, _, _ in value.parts]
    assert keys == sorted(set(keys))
    assert value.const == Fraction(value.num, value.den)
    assert value.terms == tuple((a, Fraction(n, d)) for a, n, d in value.parts)


def assert_same_canonical(value, expected):
    assert value == expected
    assert hash(value) == hash(expected)
    assert_canonical_form(value)
    assert (value.num, value.den, value.parts) == (expected.num, expected.den, expected.parts)


operands = st.one_of(rationals.map(ParamValue), param_values)
scalars = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(min_value=-20, max_value=20),
    rationals,
)


@given(operands, operands)
def test_combine_matches_reference(x, y):
    assert_same_canonical(x + y, reference_combine(x, y, 1))
    assert_same_canonical(x - y, reference_combine(x, y, -1))


@given(operands, scalars)
def test_scalar_operations_match_reference(x, s):
    assert_same_canonical(-x, reference_neg(x))
    assert_same_canonical(x * s, reference_mul(x, s))
    assert_same_canonical(s * x, reference_mul(x, s))
    assert_same_canonical(x + s, reference_combine(x, ParamValue(s), 1))
    assert_same_canonical(s + x, reference_combine(x, ParamValue(s), 1))
    assert_same_canonical(x - s, reference_combine(x, ParamValue(s), -1))
    assert_same_canonical(s - x, reference_combine(ParamValue(s), x, -1))
    if s != 0:
        assert_same_canonical(x / s, reference_mul(x, Fraction(1) / Fraction(s)))


offsets = st.one_of(
    st.sampled_from([0, Fraction(0), Fraction(1, 2)]),
    st.integers(min_value=-9, max_value=9).map(lambda a: Fraction(a, 4)),
)
moduli = st.sampled_from([1, 2, Fraction(1), Fraction(1, 2), Fraction(3, 2)])


@given(operands, offsets, moduli)
def test_decide_coset_matches_reference(x, offset, modulus):
    expected = reference_decide_coset(x, offset, modulus)
    assert decide_coset(x, offset, modulus) is expected
    assert fraction_decide_coset(x, offset, modulus) is expected


# Values with one or several algebraic atoms and no transcendental one, the
# only shape the rule can leave Unknown.
algebraic_values = st.builds(
    ParamValue, rationals, st.dictionaries(st.integers(0, 2).map(alg), rationals, min_size=1, max_size=3)
)


@given(st.lists(st.one_of(operands, algebraic_values), min_size=1, max_size=4), st.data())
def test_coset_matches_decide_coset(values, data):
    # The integer-row kernel against the Fraction rule on the exact
    # combination, and decide_coset, which runs on the kernel, against the
    # same rule with fractional moduli.
    coeffs = [data.draw(st.integers(-2, 2)) for _ in values]
    offset = data.draw(st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-3, 2)]))
    modulus = data.draw(st.sampled_from([1, 2]))
    x = sum((v * c for v, c in zip(values, coeffs)), ParamValue(0))
    assert coset(scale(values, 2), coeffs, offset, modulus) is fraction_decide_coset(x, offset, modulus)
    for fractional in (Fraction(1, 2), Fraction(3, 2)):
        assert decide_coset(x, offset, fractional) is fraction_decide_coset(x, offset, fractional)


# -- tri-valued logic ----------------------------------------------------------

def test_tribool_combinators():
    assert tri_and([TriBool.YES, TriBool.UNKNOWN]) is TriBool.UNKNOWN
    assert tri_and([TriBool.NO, TriBool.UNKNOWN]) is TriBool.NO
    assert tri_or([TriBool.NO, TriBool.UNKNOWN]) is TriBool.UNKNOWN
    assert tri_or([TriBool.YES, TriBool.UNKNOWN]) is TriBool.YES


def test_tribool_is_not_truthy():
    with pytest.raises(TypeError):
        bool(TriBool.YES)


# -- transcendence degree -------------------------------------------------------

def test_td_single_atom_family():
    t1 = of_atom(tau(1))
    assert transcendence_degree([t1, t1 + 3, 2 * t1]) == 1


def test_td_ignores_algebraic_atoms():
    assert transcendence_degree([ParamValue(Fraction(1, 2)), ParamValue(3), of_atom(alg(1))]) == 0


def test_td_two_independent():
    t1, t2 = of_atom(tau(1)), of_atom(tau(2))
    assert transcendence_degree([t1, t2, t1 + t2]) == 2


@given(st.lists(param_values, min_size=1, max_size=5), st.randoms())
def test_td_invariant_under_permutation(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert transcendence_degree(values) == transcendence_degree(shuffled)


@given(st.lists(param_values, min_size=1, max_size=4), st.lists(rationals, min_size=1, max_size=4), rationals)
def test_td_unchanged_by_linear_combinations(values, weights, const):
    combo = ParamValue(const)
    for v, w in zip(values, weights):
        combo = combo + v * w
    assert transcendence_degree(values + [combo]) == transcendence_degree(values)


# -- integer_solve (the test oracle for translation words) -----------------------

def brute_force_solve(A, b, radius):
    n = len(A[0]) if A else 0
    for cand in itertools.product(range(-radius, radius + 1), repeat=n):
        if all(sum(A[i][j] * cand[j] for j in range(n)) == b[i] for i in range(len(A))):
            return list(cand)
    return None


def test_solve_identity():
    assert integer_solve([[1, 0], [0, 1]], [3, -5]) == [3, -5]


def test_solve_parity_obstruction():
    assert integer_solve([[2, 0], [0, 2]], [1, 0]) is None


def test_solve_small_system_matches_brute_force():
    A, b = [[1, 1], [1, -1]], [2, 0]
    expected = brute_force_solve(A, b, 5)
    assert expected == [1, 1]
    got = integer_solve(A, b)
    assert got is not None
    assert all(sum(A[i][j] * got[j] for j in range(2)) == b[i] for i in range(2))


def test_solve_rectangular_systems():
    # Underdetermined: 1 equation, 2 unknowns.
    got = integer_solve([[2, 3]], [1])
    assert got is not None and 2 * got[0] + 3 * got[1] == 1
    # Overdetermined but consistent.
    assert integer_solve([[1, 0], [0, 1], [1, 1]], [2, 3, 5]) == [2, 3]
    # Overdetermined and inconsistent.
    assert integer_solve([[1, 0], [0, 1], [1, 1]], [2, 3, 6]) is None


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_solve_agrees_with_brute_force(m, n, data):
    A = [
        [data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(n)]
        for _ in range(m)
    ]
    b = [data.draw(st.integers(min_value=-6, max_value=6)) for _ in range(m)]
    got = integer_solve(A, b)
    brute = brute_force_solve(A, b, 20)
    if got is None:
        assert brute is None
    else:
        assert all(sum(A[i][j] * got[j] for j in range(n)) == b[i] for i in range(m))
        if all(abs(x) <= 20 for x in got):
            assert brute is not None


# -- rank helper -------------------------------------------------------------------

def test_rational_rank_basic():
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[0, 0]]) == 0
    assert rational_rank([]) == 0


def _random_rational_matrix(rng):
    """Up to 12 x 4, entries mostly small rationals or zero, some with
    1,000-digit numerators or denominators; some rows zero, duplicated or
    a rational multiple of another row."""
    big = int("7" * MAX_DIGITS)

    def entry():
        r = rng.random()
        if r < 0.35:
            return 0
        if r < 0.45:
            return Fraction(rng.choice([big, -big, 1]), rng.choice([1, 3, int("3" * MAX_DIGITS)]))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if r < 0.85 else rng.randint(-3, 3)

    cols = rng.randint(1, 4)
    rows = [[entry() for _ in range(cols)] for _ in range(rng.randint(0, 12))]
    for r in range(len(rows)):
        kind = rng.random()
        if kind < 0.1:
            rows[r] = [0] * cols
        elif kind < 0.3:
            scale = rng.choice([1, -1, Fraction(2, 3), big])
            rows[r] = [x * scale for x in rng.choice(rows)]
    return rows


def test_rational_rank_matches_fraction_oracle():
    rng = random.Random(1902)
    ranks = set()
    for _ in range(2_000):
        rows = _random_rational_matrix(rng)
        rank = rational_rank(rows)
        assert rank == fraction_rational_rank(rows), rows
        ranks.add(rank)
    assert ranks == {0, 1, 2, 3, 4}


@st.composite
def scaled_forms(draw):
    """A form of up to 6 values over up to 6 distinct atoms, tau and alg
    mixed, with integer rows: mostly zeros and units (so that triangular
    patterns, where ``tau_rank`` skips elimination, are common), some large
    entries, and some rows copied or combined from earlier ones."""
    atoms = draw(st.lists(st.one_of(st.integers(0, 5).map(tau), st.integers(0, 5).map(alg)),
                          max_size=6, unique=True))
    entry = st.one_of(st.just(0), st.just(0), st.sampled_from([1, -1, 2]), st.integers(-10**30, 10**30))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.lists(entry, min_size=len(atoms), max_size=len(atoms)))
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(-3, 3))
            row = [x + k * y for x, y in zip(a, b)]
        rows.append(tuple(row))
    return Scaled(1, (0,) * len(rows), tuple(rows), tuple(atoms))


@given(scaled_forms(), st.integers(0, 6), st.one_of(st.none(), st.integers(0, 6)))
@settings(max_examples=500, deadline=None)
def test_tau_rank_matches_fraction_oracle(form, start, stop):
    columns = [i for i, a in enumerate(form.atoms) if a.kind is AtomKind.TRANSCENDENTAL]
    rows = [[row[i] for i in columns] for row in form.rows[start:stop]]
    assert tau_rank(form, start, stop) == fraction_rational_rank(rows)


def test_tau_rank_takes_both_paths():
    # As many fresh rows as rows, or as columns: their count is the rank, with
    # no elimination.
    t = (tau(1), tau(2), tau(3))
    assert tau_rank(Scaled(1, (0,) * 3, ((1, 0, 0), (5, 2, 0), (7, 0, -1)), t)) == 3
    assert tau_rank(Scaled(1, (0,) * 4, ((1, 0), (0, 1), (1, 1), (3, 0)), t[:2])) == 2
    # Fresh rows fewer than both the rows and the columns: elimination decides.
    assert tau_rank(Scaled(1, (0,) * 3, ((1, 1, 0), (2, 2, 0), (0, 0, 1)), t)) == 2
    assert tau_rank(Scaled(1, (0,) * 3, ((1, 1, 0), (1, -1, 0), (0, 0, 1)), t)) == 3
    # alg columns are ignored.
    assert tau_rank(Scaled(1, (0,) * 2, ((1, 1), (1, 2)), (tau(1), alg(1)))) == 1


@given(st.lists(big_values, max_size=5), st.integers(min_value=1, max_value=12), big_rationals)
@settings(max_examples=300, deadline=None)
def test_integer_form_and_rank_match_fraction_oracles(values, den, q):
    if len(values) > 1:  # a dependent row
        values.append(values[0] * q - values[-1])
    form = scale(values, den)
    assert form.den == math.lcm(den, *(x.const.denominator for x in values), *(c.denominator for x in values for _, c in x.terms))
    assert list(form.atoms) == sorted({a for x in values for a, _ in x.terms}, key=Atom.sort_key)
    for x, c, row in zip(values, form.consts, form.rows):
        assert ParamValue(Fraction(c, form.den), {a: Fraction(k, form.den) for a, k in zip(form.atoms, row)}) == x
    assert transcendence_degree(values) == fraction_transcendence_degree(values)


def test_atom_names_and_kinds():
    assert tau(3).name == "tau3"
    assert alg(0).name == "alg0"
    assert tau(1).kind is AtomKind.TRANSCENDENTAL
    with pytest.raises(ValueError):
        Atom(AtomKind.TRANSCENDENTAL, -1)
