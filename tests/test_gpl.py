"""Goncharov polylogarithm words, series, shuffles, and integration."""

import random
from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperred import gpl, series
from hyperred.errors import UncancelledPole, UnsupportedClass
from hyperred.expansion import epsilon_expand, verify_expansion
from hyperred.gpl import (ONE, GplCombo, PolyLogExpr, basis_product, basis_ratfunc,
                          partial_fractions)
from hyperred.grammar import parse_hyper
from hyperred.poly import Poly
from hyperred.ratfunc import RatFunc
import gpl_reference
from gpl_reference import shuffle_product, shuffle_words, word_series
from series_reference import combine_per_term, mul_trunc, to_biseries_laurent


# RatFunc reference builders: the program builds its kernels as basis dicts


def rf_from_coeffs(coeffs):
    return RatFunc(Poly.from_terms(("z",), {(m,): F(c) for m, c in enumerate(coeffs) if c}))


def rf_monomial(a, power):
    """(z - a)^power as a RatFunc, any integer power, by RatFunc products."""
    base, out = rf_from_coeffs([-F(a), 1]), rf_from_coeffs([1])
    for _ in range(abs(power)):
        out = out * base
    return out if power >= 0 else rf_from_coeffs([1]) / out


def test_g1_is_log():
    # G(1; z) = ln(1-z) = -sum z^j / j
    assert word_series((1,), 6) == [0] + [F(-1, j) for j in range(1, 7)]


def test_g01_is_minus_li2():
    assert word_series((0, 1), 5) == [0] + [F(-1, j * j) for j in range(1, 6)]


def test_word_series_cache_is_bounded():
    maxsize = gpl._word_series.cache_info().maxsize
    assert maxsize is not None and maxsize >= 4096


def test_empty_expression_is_zero_series():
    e = PolyLogExpr({}, 0)
    assert e.series(5) == [0] * 6


def test_trailing_zero_rejected():
    for word in ((1, 0), (0,), ()):
        with pytest.raises(ValueError):
            PolyLogExpr({word: F(1)})
        with pytest.raises(ValueError):
            PolyLogExpr([(word, F(1))])


def test_weight():
    e = PolyLogExpr({(0, 1): F(2), (1,): F(1)}, 5)
    assert e.weight == 2



def test_shuffle_count():
    assert len(shuffle_words((1,), (0, 1))) == 3
    assert sorted(shuffle_words((1,), (1,))) == [(1, 1), (1, 1)]


def test_shuffle_product_matches_series():
    """The series of a shuffle sum is the Cauchy product of the factors' series."""
    rng = random.Random(5)
    words = [(1,), (-1,), (0, 1), (0, -1), (1, 1), (0, 0, 1)]
    for _ in range(12):
        w1, w2 = rng.choice(words), rng.choice(words)
        e1 = PolyLogExpr({w1: F(rng.randint(1, 3))}, rng.randint(0, 2))
        e2 = PolyLogExpr({w2: F(rng.randint(-3, -1))}, rng.randint(0, 1))
        prod = shuffle_product(e1, e2)
        N = 14
        s1, s2 = e1.series(N), e2.series(N)
        direct = [sum(s1[i] * s2[j - i] for i in range(j + 1)) for j in range(N + 1)]
        assert prod.series(N) == direct, (w1, w2)

def test_partial_fractions_round_trip():
    r = rf_from_coeffs([F(1), F(0), F(3)]) / (rf_monomial(F(0), 1) * rf_monomial(F(1), 2))
    pf = partial_fractions(r, [F(1)])
    assert pf == {(F(0), 1): F(1), (F(1), 1): F(2), (F(1), 2): F(4)}
    acc = rf_from_coeffs([F(0)])
    for (a, m), c in pf.items():
        acc = acc + rf_monomial(a, -m) * c
    assert acc == r


def test_partial_fractions_rejects_foreign_pole():
    r = rf_from_coeffs([F(1)]) / rf_monomial(F(2), 1)
    with pytest.raises(UnsupportedClass):
        partial_fractions(r, [F(1)])


def test_integrate_prepends_letters():
    c = GplCombo({(): {(1, 1): F(1)}})              # 1/(z-1)
    assert c.integrate().series(8) == word_series((1,), 8)
    c2 = GplCombo({(F(1),): {(0, 1): F(1)}})        # G(1;z)/z
    assert c2.integrate().series(8) == word_series((0, 1), 8)


def test_integrate_polynomial_ibp():
    c = GplCombo({(F(1),): {(0, -1): F(1)}})       # z G(1;z)
    got = c.integrate().series(10)
    g1 = word_series((1,), 10)
    expect = [F(0)] * 11
    for j in range(1, 9):
        expect[j + 2] = g1[j] / (j + 2)
    expect[2] = g1[0] / 2
    assert got == expect


def test_integrate_divergent_raises():
    c = GplCombo({(): {(0, 1): F(1)}})   # int dt/t
    with pytest.raises(UncancelledPole):
        c.integrate()
    c2 = GplCombo({(F(1),): {(0, 2): F(1)}})  # int G(1;t)/t^2
    with pytest.raises(UncancelledPole):
        c2.integrate()


def test_theta_of_combo():
    c = GplCombo({(1,): {ONE: 1}})
    t = c.theta()
    # theta G(1; z) = z/(z-1)
    s = t.series(8)
    # z/(z-1) = -z (1 + z + z^2 + ...)
    assert s == [F(0)] + [F(-1)] * 8


def test_value_at_zero_with_pole_prefactor():
    c = GplCombo({(F(1),): {(0, 1): F(1)}})  # G(1;z)/z
    assert c.value_at_zero() == -1


def test_to_polylog_requires_constant_coefficients():
    good = GplCombo({(1,): {ONE: F(3, 2)}})
    e = good.to_polylog()
    assert e == PolyLogExpr({(1,): F(3, 2)})
    bad = GplCombo({(F(1),): {(0, -1): F(1)}})     # z G(1;z)
    with pytest.raises(UnsupportedClass):
        bad.to_polylog()


# ---------------------------------------------------------------------------
# O(N) word-series recurrence against the O(N^2) geometric convolution


def _convolution_word_series(word, N):
    """Reference: 1/(t-a) = -(1/a) sum (t/a)^m convolved with the inner series."""
    if not word:
        return (F(1),) + (F(0),) * N
    a, u = word[0], _convolution_word_series(word[1:], N)
    out = [F(0)] * (N + 1)
    if a == 0:
        for j in range(1, N + 1):
            out[j] = u[j] / j
        return tuple(out)
    conv = [F(0)] * (N + 1)
    geom = F(1)
    for m in range(N + 1):
        c = -geom / a
        for j in range(N + 1 - m):
            conv[m + j] += c * u[j]
        geom /= a
    for j in range(1, N + 1):
        out[j] = conv[j - 1] / j
    return tuple(out)


LETTERS = (F(-3), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2))


def test_word_series_matches_convolution_on_short_words():
    words = [(a,) for a in LETTERS if a] + [(a, b) for a in LETTERS for b in LETTERS if b]
    for w in words:
        assert word_series(w, 40) == list(_convolution_word_series(w, 40)), w


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=4)
       .filter(lambda w: w[-1] != 0).map(tuple),
       st.integers(0, 40))
def test_word_series_matches_convolution(word, N):
    assert word_series(word, N) == list(_convolution_word_series(word, N))


def test_word_series_int_form_to_order_60():
    # one positive denominator over integer numerators, the value exact; odd
    # orders give a negative letter a negative p^N, whose sign D must not keep
    rest = ((), (1,), (0, F(-1, 2)))
    for a in (F(-3), F(-1, 2), F(1, 2), F(2)):
        for w in [(a,) + r for r in rest] + [r + (a,) for r in rest if r]:
            for N in (1, 8, 59, 60):
                s = gpl._word_series(gpl.as_word(w), N)
                D, nums = s.den, s.nums
                assert (s.z_order, s.eps_order) == (N, 0), (w, N)
                assert type(D) is int and D > 0 and len(nums) == N + 1, (w, N)
                assert all(type(x) is int for x in nums), (w, N)
                assert [F(x, D) for x in nums] == list(_convolution_word_series(w, N)), (w, N)


def test_int_and_fraction_letters_are_one_word():
    for letters in ((1,), (-1, 0, 1), (2, F(1, 2), -3)):
        ints, fracs = gpl.as_word(letters), tuple(F(a) for a in letters)
        assert [type(a) for a in ints] == [int if F(a).denominator == 1 else F
                                            for a in letters]
        assert ints == fracs and hash(ints) == hash(fracs)
        gi, gf = PolyLogExpr({ints: 2}), PolyLogExpr({fracs: 2})
        assert gi == gf and hash(gi) == hash(gf) and str(gi) == str(gf)
        assert [type(a) for w in gf.terms for a in w] == [type(a) for a in ints]
        si, sf = gpl._word_series(ints, 12), gpl._word_series(fracs, 12)
        assert (si.den, si.nums) == (sf.den, sf.nums)
        assert word_series(ints, 12) == word_series(fracs, 12)
        assert {ints: 1}[fracs] == 1
    # combinations built from Fraction keys intern them and match int-keyed ones
    c1 = GplCombo({(F(1), F(-1)): {(F(1), 2): F(3)}})
    c2 = GplCombo({(1, -1): {(1, 2): F(3)}})
    assert c1.data == c2.data and str(c1) == str(c2) and c1.series(6) == c2.series(6)
    assert [type(a) for w in c1.data for a in w] == [int, int]


REP_LETTERS = (-1, 0, 1, 2, -3, F(1, 2), F(-2, 3))


def test_word_series_rep_matches_per_coefficient_kernel():
    # the tabulated factors give the reps of three products and a floor division per coefficient
    words = [()]
    for _ in range(4):
        words = [(a,) + w for a in REP_LETTERS for w in words if a or w]
        for N in (0, 1, 2, 30, 60):
            for w in words:
                s = gpl._word_series(gpl.as_word(w), N)
                assert (s.nums, s.den) == gpl_reference.word_series_rep(w, N), (w, N)


def test_word_series_dt_over_t_against_constant_term_raises():
    """The message names the word whose dt/t step diverges, as the reference's
    does; a word past the cached length is built by the same letter steps."""
    for w in ((F(0),), (F(2), F(0)), (F(1),) * 70 + (F(0), F(0))):
        with pytest.raises(UncancelledPole) as got:
            gpl._word_series(w, 6)
        with pytest.raises(UncancelledPole) as want:
            gpl_reference.word_series_rep(w, 6)
        assert str(got.value) == str(want.value) == f"dt/t against constant term in G{(F(0),)}"


# ---------------------------------------------------------------------------
# PolyLogExpr.series: one normalization per coefficient against a per-word sum


def _per_word_series(e, N):
    out = [F(0)] * (N + 1)
    out[0] = e.const
    for w, c in e.terms.items():
        for j, x in enumerate(word_series(w, N)):
            out[j] += c * x
    return out


@pytest.mark.parametrize("const", [F(0), F(-7, 3), F(5)])
def test_polylog_series_equals_per_word_sum(const):
    terms = {(1,): F(3, 4), (0, 1): F(-2, 9), (F(1, 2), 1): F(5), (-1, F(1, 3)): F(1, 6),
             (0, 0, 2): F(-11, 10)}
    e = PolyLogExpr(terms, const)
    for N in (0, 1, 7, 30):
        got = e.series(N)
        assert got == _per_word_series(e, N)
        assert all(isinstance(c, F) for c in got)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(3)]),
                                   min_size=1, max_size=3),
                          st.builds(F, st.integers(-9, 9), st.integers(1, 15))),
                max_size=6),
       st.builds(F, st.integers(-5, 5), st.integers(1, 7)))
def test_polylog_series_equals_per_word_sum_random(words, const):
    terms = [(w, c) for w, c in words if w[-1] != 0]
    e = PolyLogExpr(terms, const)
    assert e.series(12) == _per_word_series(e, 12)


def test_polylog_series_cancels_to_zero():
    # G(1) + G(-1) = ln(1-z) + ln(1+z) = ln(1-z^2): odd orders cancel exactly
    got = PolyLogExpr({(1,): 1, (-1,): 1}).series(6)
    assert got == [0, 0, -1, 0, F(-1, 2), 0, F(-1, 3)]
    assert all(c.denominator == 1 for c in got[1::2])


# ---------------------------------------------------------------------------
# PolyLogExpr.biseries through first letters against the per-word combine


def _per_word_combine(e, N):
    """sum c G(w) as one product per term of the full words' own series, each
    word with at most N nonzero letters, the constant on the empty word's
    series 1, reduced by one gcd."""
    return combine_per_term([(c, gpl._word_series(w, N))
                             for w, c in [((), e.const), *e.terms.items()]
                             if len(w) - w.count(0) <= N], N, 0)


_FIRST_LETTER_LETTERS = [F(0), F(1), F(-1), F(1, 2), F(3)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from(_FIRST_LETTER_LETTERS), min_size=1, max_size=5),
                          st.builds(F, st.integers(-9, 9), st.integers(1, 15))),
                max_size=10),
       st.builds(F, st.integers(-5, 5).filter(bool), st.integers(1, 7)),
       st.integers(0, 8))
# first letter 0 starting three words, one-word groups at 1/2 and 3, and
# (1, 1, 1, 1) with more nonzero letters than N = 3
@example([((F(0), F(1)), F(2)), ((F(0), F(0), F(-1)), F(-1, 3)), ((F(0), F(3), F(1)), F(5, 4)),
          ((F(1, 2), F(1)), F(7)), ((F(3),), F(-2, 9)), ((F(1), F(1), F(1), F(1)), F(1, 5)),
          ((F(1), F(-1)), F(3))],
         F(7, 3), 3)
def test_biseries_reduces_to_the_per_word_combine_rep_for_rep(words, const, N):
    e = PolyLogExpr([(w, c) for w, c in words if w[-1] != 0], const)
    s = e.biseries(N)
    got, want = series._reduced(s.nums, s.den, N, 0), _per_word_combine(e, N)
    assert (got.nums, got.den) == (want.nums, want.den)


_PAIR_LETTERS = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)]
_PAIR_COEFFS = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 15))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from(_PAIR_LETTERS), min_size=1, max_size=4),
                          _PAIR_COEFFS, st.sampled_from(["absent", "-c", "+c", "-c+e"]),
                          _PAIR_COEFFS),
                max_size=8),
       st.builds(F, st.integers(-5, 5), st.integers(1, 7)),
       st.integers(0, 8))
# every word paired at -c, at +c and at -c + e, two starting with 0, and
# one unpaired word with more nonzero letters than N = 3
@example([((F(1), F(-1)), F(3), "-c", F(1)), ((F(0), F(1, 2)), F(-2, 7), "+c", F(1)),
          ((F(0), F(0), F(-2)), F(5), "-c+e", F(1, 3)), ((F(1),) * 4, F(1, 5), "absent", F(1))],
         F(0), 3)
def test_biseries_pairs_words_with_their_negations_rep_for_rep(words, const, N):
    """A word's letterwise negation absent or present at -c, +c or -c + e: the
    paired sum, reduced once, is the per-word combine rep for rep."""
    terms = []
    for w, c, mode, e in words:
        if w[-1] != 0:
            terms.append((w, c))
            if mode != "absent":
                terms.append((tuple(-a for a in w), {"-c": -c, "+c": c, "-c+e": e - c}[mode]))
    p = PolyLogExpr(terms, const)
    s = p.biseries(N)
    got, want = series._reduced(s.nums, s.den, N, 0), _per_word_combine(p, N)
    assert (got.nums, got.den) == (want.nums, want.den)


def test_xi_check_sums_half_its_words_through_representatives(monkeypatch):
    """Every word of an order-6 xi expansion has its negation at minus its
    coefficient, so the check's Horner passes read 1,457 of its 2,914 words,
    each with a positive first nonzero letter."""
    f = parse_hyper("2F1[1/2+2*eps, 1/2+3*eps; 3/2-3*eps; z]")
    exp = epsilon_expand(f, 6)
    assert all(layer.terms.get(tuple(-a for a in w)) == -c
               for layer in exp.layers for w, c in layer.terms.items())
    read, steps = [], gpl._steps
    monkeypatch.setattr(gpl, "_steps", lambda terms, N: read.extend(terms) or steps(terms, N))
    assert verify_expansion(f, exp, N=30) == (True, None)
    assert sum(map(len, (layer.terms for layer in exp.layers))) == 2914
    assert len(read) == 1457 and all(next(filter(None, w)) > 0 for w, _ in read)


_XI = "2F1[1/2+eps, 1/2-2*eps; 3/2+3*eps; z]"


def test_xi_check_caches_no_word_of_its_longest_layer(monkeypatch):
    """An order-6 check's layers hold words of 7 letters; the cache is asked
    only for their suffixes, of 6 letters at most."""
    f = parse_hyper(_XI)
    exp = epsilon_expand(f, 6)
    asked, cached = set(), gpl._word_series
    monkeypatch.setattr(gpl, "_word_series", lambda w, N: asked.add(w) or cached(w, N))
    assert verify_expansion(f, exp, N=30) == (True, None)
    assert max(len(w) for layer in exp.layers for w in layer.terms) == 7
    assert max(map(len, asked)) == 6


def test_xi_check_at_max_k_fits_the_word_series_cache():
    """An order-8 check run twice in one process misses the cache 0 times the
    second time: the words it reads fit under the bound."""
    f = parse_hyper(_XI)
    exp = epsilon_expand(f, 8)
    gpl._word_series.cache_clear()
    assert verify_expansion(f, exp, N=30) == (True, None)
    info = gpl._word_series.cache_info()
    assert info.currsize < info.maxsize
    assert verify_expansion(f, exp, N=30) == (True, None)
    assert gpl._word_series.cache_info().misses == info.misses


def _words_over(letters):
    return (st.lists(st.sampled_from(letters), max_size=6)
            .filter(lambda w: not w or w[-1] != 0).map(gpl.as_word))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_words_over((-1, 0, 1)), _words_over((F(-5, 7), 0, F(5, 7)))),
       st.integers(0, 12))
def test_negated_word_series_is_the_flipped_series(w, N):
    """G(-w; z) = G(w; -z): the series of -w is w's with its odd cells
    negated, numerators and denominator alike."""
    s, o = gpl._word_series(w, N), gpl._word_series(tuple(-a for a in w), N)
    assert o.den == s.den
    assert o.nums == tuple(-x if j % 2 else x for j, x in enumerate(s.nums))


def test_xi_check_caches_only_representatives(monkeypatch):
    """A cold order-6 expansion and check cache only the empty word and words
    whose first nonzero letter is positive, 371 of them: each other suffix
    is read through its negation."""
    asked, cached = set(), gpl._word_series
    monkeypatch.setattr(gpl, "_word_series", lambda w, N: asked.add((w, N)) or cached(w, N))
    cached.cache_clear()
    f = parse_hyper(_XI)
    assert verify_expansion(f, epsilon_expand(f, 6), N=30) == (True, None)
    assert cached.cache_info().currsize == len(asked) == 371
    assert all(next(filter(None, w), 1) > 0 for w, _ in asked)


# ---------------------------------------------------------------------------
# the partial-fraction basis against the RatFunc / series oracle


def _kernel_strategy(letters):
    # (0, -i) is z^i; (a, m) with m >= 1 a pole at a letter or at 0
    return st.one_of(st.tuples(st.just(F(0)), st.integers(-3, 0)),
                     st.tuples(st.sampled_from((F(0),) + letters), st.integers(1, 3)))


def _basis_strategy(letters):
    kernels = _kernel_strategy(letters)
    coeffs = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 5))
    return st.dictionaries(kernels, coeffs, min_size=1, max_size=4)


def _word_strategy(letters):
    return (st.lists(st.sampled_from((F(0),) + letters), min_size=0, max_size=3)
            .filter(lambda w: not w or w[-1] != 0).map(tuple))


# several words, so poles that cancel only between words reach the checks
def _combo_strategy(letters):
    return st.dictionaries(_word_strategy(letters), _basis_strategy(letters),
                           min_size=1, max_size=3)


ALPHABETS = ((F(1),), (F(-1), F(1)), (F(1, 2), F(-2, 3)))


def _oracle_laurent(data, N):
    """{j: coefficient of z^j} of sum_w r_w G(w) through to_biseries_laurent, j <= N."""
    laurent = {}
    for w, r in data.items():
        s, v = to_biseries_laurent(r, N + r.den.degree(), 0)
        rc = [s.get(j, 0) for j in range(N + v + 1)]
        for j, x in enumerate(mul_trunc(rc, word_series(w, N + v), N + v)):
            laurent[j - v] = laurent.get(j - v, 0) + x
    return laurent


def _oracle_series(data, N):
    """Series of sum_w r_w G(w); None if the sum keeps a pole."""
    laurent = _oracle_laurent(data, N)
    if any(x for j, x in laurent.items() if j < 0):
        return None
    return [F(laurent.get(j, 0)) for j in range(N + 1)]


def _series_or_none(combo, N):
    try:
        return combo.series(N)
    except UncancelledPole:
        return None


def _as_ratfuncs(data):
    return {w: basis_ratfunc(r, "z") for w, r in data.items()}


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_basis_series_matches_ratfunc_oracle(data, letters):
    d = data.draw(_combo_strategy(letters))
    assert _series_or_none(GplCombo(d), 8) == _oracle_series(_as_ratfuncs(d), 8)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_basis_scale_rf_matches_ratfunc_product(data, letters):
    d = data.draw(_combo_strategy(letters))
    r = basis_ratfunc(data.draw(_basis_strategy(letters)), "z")
    got = _series_or_none(GplCombo(d).scale(partial_fractions(r, letters)), 8)
    assert got == _oracle_series({w: rw * r for w, rw in _as_ratfuncs(d).items()}, 8)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_basis_theta_is_j_times_series(data, letters):
    c = GplCombo(data.draw(_combo_strategy(letters)))
    s, t = _series_or_none(c, 8), _series_or_none(c.theta(), 8)
    # theta keeps a Laurent tail (theta z^-k = -k z^-k) and kills constants only
    assert (s is None) == (t is None)
    if s is not None:
        assert t == [j * x for j, x in enumerate(s)]


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_basis_integrate_is_antiderivative(data, letters):
    d = data.draw(_combo_strategy(letters))
    c = GplCombo(d)
    s = _oracle_series(_as_ratfuncs(d), 8)
    # poles may cancel between words: integrate refuses exactly when the
    # summed integrand keeps a pole (a 1/z one included, since int dt/t = ln z)
    if s is None:
        with pytest.raises(UncancelledPole):
            c.integrate()
        return
    integral = c.integrate()
    assert integral.series(8) == [F(0)] + [s[j - 1] / j for j in range(1, 9)]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_basis_poles_cancelled_by_the_rational_part(data, letters):
    # subtract the summed pole part on the empty word: the words' own terms
    # keep their poles, the sum is regular, and series and integrate accept it
    d = data.draw(_combo_strategy(letters))
    rational = dict(d.get((), {}))
    for j, x in _oracle_laurent(_as_ratfuncs(d), 0).items():
        if j < 0 and x:
            rational[(F(0), -j)] = rational.get((F(0), -j), 0) - x
    d[()] = {k: c for k, c in rational.items() if c}
    s = _oracle_series(_as_ratfuncs(d), 8)
    c = GplCombo(d)
    assert c.series(8) == s
    assert c.integrate().series(8) == [F(0)] + [s[j - 1] / j for j in range(1, 9)]


def test_basis_integrate_covers_boundary_and_higher_poles():
    # (z-1)^-m with m >= 2 integrates to a pole whose value at 0 is the boundary
    # term; on a nonempty word the by-parts remainder reaches the empty word
    for d in ({(): {(F(1), 3): F(1), (F(1), 2): F(-3), (F(0), -2): F(1, 2)}},
              {(F(1),): {(F(0), 1): F(1), (F(1), 2): F(2)}},
              {(F(1), F(1)): {(F(0), 2): F(2)}}):
        c = GplCombo(d)
        s = c.series(8)
        assert c.integrate().series(8) == [F(0)] + [s[j - 1] / j for j in range(1, 9)]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_kernel_product_table_matches_ratfunc_products(data, letters):
    kernel = _kernel_strategy(letters)
    k1, k2 = data.draw(kernel), data.draw(kernel)
    D, items = gpl._kernel_product(k1, k2)
    assert type(D) is int and D > 0 and all(type(x) is int for _, x in items)
    # the cache is keyed on equal int and Fraction letters, so its rows carry interned ones
    assert all(type(a) is (int if F(a).denominator == 1 else F) for (a, _), _ in items)
    table = basis_ratfunc({k: F(x, D) for k, x in items}, "z")
    assert table == basis_ratfunc({k1: F(1)}, "z") * basis_ratfunc({k2: F(1)}, "z")


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_ratfunc_basis_round_trip(data, letters):
    num = data.draw(st.lists(st.builds(F, st.integers(-5, 5), st.integers(1, 4)),
                             min_size=1, max_size=5))
    poles = data.draw(st.lists(st.tuples(st.sampled_from((F(0),) + letters),
                                         st.integers(1, 3)), max_size=3))
    r = rf_from_coeffs(num)
    for a, m in poles:
        r = r * rf_monomial(a, -m)
    b = partial_fractions(r, letters)
    assert basis_ratfunc(b, "z") == r
    assert partial_fractions(basis_ratfunc(b, "z"), letters) == b


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_basis_ratfunc_is_the_normalized_ratfunc_sum(data, letters):
    # kernels with coefficient 0 put their z - a into the numerator as well as
    # into the denominator; the result must be what gcd normalization gives,
    # compared field by field (== cross-multiplies and would accept any form)
    d = data.draw(_basis_strategy(letters))
    poles = st.tuples(st.sampled_from((F(0),) + letters), st.integers(1, 4))
    d = {**{k: F(0) for k in data.draw(st.lists(poles, max_size=2))}, **d}
    ref = rf_from_coeffs([0])
    for (a, m), c in d.items():
        ref = ref + rf_monomial(a, -m) * c
    got = basis_ratfunc(d, "z")
    assert (got.num, got.den) == (ref.num, ref.den)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from((F(0), F(1), F(-1))), st.integers(-3, 3), max_size=3))
def test_basis_product_matches_ratfunc_product(powers):
    ref = rf_from_coeffs([1])
    for a, e in powers.items():
        ref = ref * rf_monomial(a, e)
    assert basis_product(powers) == partial_fractions(ref, (F(-1), F(1)))


def test_combo_copies_its_input():
    r = {(F(1), 1): F(2)}
    d = {(F(1),): r}
    c = GplCombo(d)
    before = c.series(6)
    r[(F(1), 1)] = F(5)
    d[()] = {(F(0), 0): F(3)}
    assert c.data == {(F(1),): {(F(1), 1): F(2)}}
    assert c.series(6) == before
    # sums share no state with their operands' inputs either
    g1 = GplCombo({(1,): {ONE: 1}})
    s = GplCombo.combine(((1, c), (1, g1)))
    r[(F(1), 2)] = F(1)
    assert c.series(6) == before and GplCombo.combine(((1, s), (-1, g1))).series(6) == before


def test_poles_cancel_between_words():
    # G(1) + G(-1) = ln(1 - z^2) = -z^2 - z^4/2 - ..., so these are regular at 0
    over_z2 = {(F(1),): {(F(0), 2): F(1)}, (F(-1),): {(F(0), 2): F(1)}}
    assert GplCombo(over_z2).series(3) == _oracle_series(_as_ratfuncs(over_z2), 3)
    assert GplCombo(over_z2).series(3) == [-1, 0, F(-1, 2), 0]
    # ln(1 - z^2)/z^3 + 1/z: the by-parts boundary terms cancel between the words
    over_z3 = {(F(1),): {(F(0), 3): F(1)}, (F(-1),): {(F(0), 3): F(1)}, (): {(F(0), 1): F(1)}}
    # G(1)/z^3 + 1/z^2 + 1/(2z): they cancel between the levels of the by-parts recursion
    levels = {(F(1),): {(F(0), 3): F(1)}, (): {(F(0), 2): F(1), (F(0), 1): F(1, 2)}}
    for d in (over_z3, levels):
        s = _oracle_series(_as_ratfuncs(d), 8)
        got = GplCombo(d).integrate().series(8)
        assert got == [F(0)] + [s[j - 1] / j for j in range(1, 9)]
    # a pole left in the sum is still refused
    with pytest.raises(UncancelledPole):
        GplCombo({(F(1),): {(F(0), 3): F(1)}, (F(-1),): {(F(0), 3): F(1)}}).integrate()
    with pytest.raises(UncancelledPole):
        GplCombo({(F(1),): {(F(0), 3): F(1)}}).series(2)


# ---------------------------------------------------------------------------
# integer numerators over one denominator against the Fraction-dict reference


REF_ALPHABETS = ((F(1),), (F(-1), F(1)), (F(0), F(1)), (F(1, 2), F(2)))


def _rep(c):
    """c's rep read as Fractions, after checking the integer invariants."""
    nums = [x for r in c.data.values() for x in r.values()]
    assert type(c.den) is int and c.den > 0 and all(c.data.values())
    assert all(type(x) is int and x for x in nums) and gcd(c.den, *nums) == 1
    assert all(type(a) is (int if F(a).denominator == 1 else F)
               for w, r in c.data.items() for a in w + tuple(k[0] for k in r))
    return {w: {k: F(x, c.den) for k, x in r.items()} for w, r in c.data.items()}


def _outcome(f, *args):
    try:
        return f(*args)
    except (UncancelledPole, UnsupportedClass) as e:
        return type(e)


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(REF_ALPHABETS))
def test_integer_combo_matches_fraction_reference(data, letters):
    d1, d2 = data.draw(_combo_strategy(letters)), data.draw(_combo_strategy(letters))
    b = data.draw(_basis_strategy(letters))
    q = data.draw(st.builds(F, st.integers(-6, 6), st.integers(1, 6)))
    pure = data.draw(st.dictionaries(_word_strategy(letters),
                                     st.builds(F, st.integers(-6, 6).filter(bool),
                                               st.integers(1, 6)).map(lambda c: {ONE: c}),
                                     max_size=3))
    c1, c2 = GplCombo(d1), GplCombo(d2)
    assert _rep(c1) == d1 and _rep(GplCombo(pure)) == pure
    assert _rep(GplCombo.combine(((1, c1), (1, c2)))) == gpl_reference.add(d1, d2)
    assert (_rep(GplCombo.combine(((1, c1), (-1, c2))))
            == gpl_reference.add(d1, gpl_reference.scale_q(d2, F(-1))))
    assert _rep(GplCombo.combine(((q, c1),))) == gpl_reference.scale_q(d1, q)
    assert _rep(c1.scale(b)) == gpl_reference.scale(d1, b)
    assert _rep(c1.theta()) == gpl_reference.theta(d1)
    for d in (d1, pure):
        got, ref = _outcome(GplCombo(d).integrate), _outcome(gpl_reference.integrate, d)
        assert (got if isinstance(got, type) else _rep(got)) == ref
        for op in ("value_at_zero", "to_polylog"):
            got, ref = _outcome(getattr(GplCombo(d), op)), _outcome(getattr(gpl_reference, op), d)
            assert got == ref and type(got) is type(ref)


# ---------------------------------------------------------------------------
# the value at the origin: order 0 with no pole at 0 reads only the empty word


def test_value_at_origin_reads_the_empty_words_kernels():
    # 3/(z - 2) + 1 + 5 z^2 + 7 G(1; z) at 0: 3 (-1/2) + 1; G(1) has a nonzero
    # letter, more than N + V = 0, and is not summed
    d = {(): {(F(2), 1): F(3), ONE: F(1), (F(0), -2): F(5)}, (F(1),): {ONE: F(7)}}
    c = GplCombo(d)
    got = gpl._series_sum(list(c.data.items()), c.den, 0)
    assert got == [F(-1, 2)] and type(got[0]) is F
    # a pole at 0 sums the words to z^V and checks the rows below it
    with pytest.raises(UncancelledPole):
        GplCombo({(F(1),): {(F(0), 3): F(1)}}).value_at_zero()
    assert GplCombo({(F(1),): {(F(0), 1): F(1)}}).value_at_zero() == -1


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(REF_ALPHABETS))
def test_value_at_origin_matches_series_path(data, letters):
    c = GplCombo(data.draw(_combo_strategy(letters)))
    terms = list(c.data.items())
    # order 0 keeps only the words with at most V nonzero letters; order 1's
    # z^0 coefficient, which reads one more letter, is the same value
    got = _outcome(gpl._series_sum, terms, c.den, 0)
    ref = _outcome(lambda: gpl._series_sum(terms, c.den, 1)[:1])
    assert got == ref
    assert got is UncancelledPole or type(got[0]) is F


# ---------------------------------------------------------------------------
# one sum per kernel: a word with more nonzero letters than N + V builds no
# series, and each call is one truncated_sum with at most one piece per kernel


def test_series_sum_keeps_a_word_at_the_order_bound():
    # z^-2 G(1, 1; z) = z^-2 ln(1 - z)^2 / 2 = 1/2 + z/2 + ...: two nonzero letters, N + V = 2
    c = GplCombo({(1, 1): {(0, 2): 1}})
    assert c.value_at_zero() == F(1, 2)
    assert c.series(1) == gpl_reference.series({(1, 1): {(0, 2): F(1)}}, 1) == [F(1, 2), F(1, 2)]


def test_series_sum_builds_no_series_past_the_order_bound():
    # G(w) with three nonzero letters is O(z^3): z^-1 G(w) vanishes at 0 and z^-2 G(w) at order 0
    w = (F(5, 7), 0, F(5, 7), F(5, 7))
    before = gpl._word_series.cache_info().misses
    assert GplCombo({w: {(0, 1): 1}}).value_at_zero() == 0
    assert GplCombo({w: {(0, 2): 1, (0, -1): 3}}).series(0) == [0]
    assert gpl._word_series.cache_info().misses == before


def _pole_free(d, V):
    """d plus the empty word's kernels that cancel its pole of order V at 0."""
    if not V:
        return d
    low = gpl_reference.series(gpl_reference.scale(d, {(0, -V): F(1)}), V - 1)
    out = {w: dict(r) for w, r in d.items()}
    gpl_reference.merge(out, (), {(F(0), V - i): -x for i, x in enumerate(low) if x})
    return out


_SKIP_LETTERS = (F(1), F(-1), F(1, 2))
_SKIP_KERNELS = st.one_of(st.tuples(st.just(F(0)), st.integers(-2, 2)),
                          st.tuples(st.sampled_from(_SKIP_LETTERS), st.integers(1, 2)))
_SKIP_WORDS = (st.lists(st.sampled_from((F(0),) + _SKIP_LETTERS), max_size=5)
               .filter(lambda w: not w or w[-1] != 0).map(tuple))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_SKIP_WORDS, st.dictionaries(
           _SKIP_KERNELS, st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 5)),
           min_size=1, max_size=3), min_size=1, max_size=4),
       st.integers(0, 2), st.booleans())
def test_series_sum_with_origin_skip_matches_reference(d, N, cancel):
    """Poles of order V <= 2 at 0, cancelled between words or not, N <= 2: the
    value, or UncancelledPole with the message naming every term, from one
    truncated_sum call with at most one piece per distinct kernel."""
    V = max((m for r in d.values() for a, m in r if a == 0 and m > 0), default=0)
    if cancel:
        d = _pole_free(d, V)
    c = GplCombo(d)
    terms = list(c.data.items())
    ref = _outcome(gpl_reference.series, d, N)
    with mock.patch.object(gpl, "truncated_sum", wraps=gpl.truncated_sum) as spy:
        try:
            got = gpl._series_sum(terms, c.den, N)
        except UncancelledPole as e:
            assert ref is UncancelledPole
            assert str(e) == f"pole at 0 not cancelled in {gpl._terms_str(terms, c.den)}"
        else:
            assert got == ref
    assert ref is not UncancelledPole or not cancel
    assert spy.call_count == 1
    assert len(spy.call_args.args[0]) <= len({k for _, r in terms for k in r})


# ---------------------------------------------------------------------------
# one _collect for a sum of q c against a chain of one-term sums


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(REF_ALPHABETS))
def test_one_collect_combination_matches_chained_ops(data, letters):
    ds = data.draw(st.lists(_combo_strategy(letters), max_size=4))
    ds += data.draw(st.lists(st.sampled_from(ds), max_size=2)) if ds else []   # repeated terms
    qs = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-6, 6), st.integers(1, 6)))
    terms = [(data.draw(qs), GplCombo(d)) for d in ds]
    got, chained, ref = GplCombo.combine(terms), GplCombo.zero(), {}
    for (q, c), d in zip(terms, ds):
        chained = GplCombo.combine(((1, chained), (q, c)))
        ref = gpl_reference.add(ref, gpl_reference.scale_q(d, q))
    assert (got.den, got.data) == (chained.den, chained.data)
    assert _rep(got) == ref
