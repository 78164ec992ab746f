"""Goncharov polylogarithm words, series, shuffles, and integration."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hyperred import gpl
from hyperred.errors import UncancelledPole, UnsupportedClass
from hyperred.gpl import (GplCombo, PolyLogExpr, basis_product, basis_ratfunc,
                          gpl_word_series, partial_fractions, shuffle_words)
from hyperred.poly import Poly
from hyperred.ratfunc import RatFunc
from series_reference import mul_trunc


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
    assert gpl_word_series((1,), 6) == [0] + [F(-1, j) for j in range(1, 7)]


def test_g01_is_minus_li2():
    assert gpl_word_series((0, 1), 5) == [0] + [F(-1, j * j) for j in range(1, 6)]


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
    rng = random.Random(5)
    words = [(1,), (-1,), (0, 1), (0, -1), (1, 1), (0, 0, 1)]
    for _ in range(12):
        w1, w2 = rng.choice(words), rng.choice(words)
        e1 = PolyLogExpr({w1: F(rng.randint(1, 3))}, rng.randint(0, 2))
        e2 = PolyLogExpr({w2: F(rng.randint(-3, -1))}, rng.randint(0, 1))
        prod = e1 * e2
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
    letters = (F(1),)
    c = GplCombo({(): {(1, 1): F(1)}}, letters)              # 1/(z-1)
    assert c.integrate().series(8) == gpl_word_series((1,), 8)
    c2 = GplCombo({(F(1),): {(0, 1): F(1)}}, letters)        # G(1;z)/z
    assert c2.integrate().series(8) == gpl_word_series((0, 1), 8)


def test_integrate_polynomial_ibp():
    letters = (F(1),)
    c = GplCombo({(F(1),): {(0, -1): F(1)}}, letters)       # z G(1;z)
    got = c.integrate().series(10)
    g1 = gpl_word_series((1,), 10)
    expect = [F(0)] * 11
    for j in range(1, 9):
        expect[j + 2] = g1[j] / (j + 2)
    expect[2] = g1[0] / 2
    assert got == expect


def test_integrate_divergent_raises():
    letters = (F(1),)
    c = GplCombo({(): {(0, 1): F(1)}}, letters)   # int dt/t
    with pytest.raises(UncancelledPole):
        c.integrate()
    c2 = GplCombo({(F(1),): {(0, 2): F(1)}}, letters)  # int G(1;t)/t^2
    with pytest.raises(UncancelledPole):
        c2.integrate()


def test_theta_of_combo():
    letters = (F(1),)
    c = GplCombo.word((1,), letters)
    t = c.theta()
    # theta G(1; z) = z/(z-1)
    s = t.series(8)
    # z/(z-1) = -z (1 + z + z^2 + ...)
    assert s == [F(0)] + [F(-1)] * 8


def test_value_at_zero_with_pole_prefactor():
    letters = (F(1),)
    c = GplCombo({(F(1),): {(0, 1): F(1)}}, letters)  # G(1;z)/z
    assert c.value_at_zero() == -1


def test_to_polylog_requires_constant_coefficients():
    letters = (F(1),)
    good = GplCombo.word((1,), letters).scale_q(F(3, 2))
    e = good.to_polylog()
    assert e == PolyLogExpr({(1,): F(3, 2)})
    bad = GplCombo({(F(1),): {(0, -1): F(1)}}, letters)     # z G(1;z)
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
        assert gpl_word_series(w, 40) == list(_convolution_word_series(w, 40)), w


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=4)
       .filter(lambda w: w[-1] != 0).map(tuple),
       st.integers(0, 40))
def test_word_series_matches_convolution(word, N):
    assert gpl_word_series(word, N) == list(_convolution_word_series(word, N))


def test_word_series_int_form_to_order_60():
    # one positive denominator over integer numerators, the value exact; odd
    # orders give a negative letter a negative p^N, whose sign D must not keep
    rest = ((), (1,), (0, F(-1, 2)))
    for a in (F(-3), F(-1, 2), F(1, 2), F(2)):
        for w in [(a,) + r for r in rest] + [r + (a,) for r in rest if r]:
            for N in (1, 8, 59, 60):
                D, nums = gpl._word_series(gpl.as_word(w), N)
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
        assert gpl._word_series(ints, 12) == gpl._word_series(fracs, 12)
        assert gpl_word_series(ints, 12) == gpl_word_series(fracs, 12)
        assert {ints: 1}[fracs] == 1
    # combinations built from Fraction keys intern them and match int-keyed ones
    c1 = GplCombo({(F(1), F(-1)): {(F(1), 2): F(3)}}, (F(-1), F(1)))
    c2 = GplCombo({(1, -1): {(1, 2): F(3)}}, (-1, 1))
    assert c1.data == c2.data and str(c1) == str(c2) and c1.series(6) == c2.series(6)
    assert [type(a) for w in c1.data for a in w] == [int, int]


def test_word_series_dt_over_t_against_constant_term_raises():
    for w in ((F(0),), (F(2), F(0))):
        with pytest.raises(UncancelledPole):
            gpl._word_series(w, 6)


# ---------------------------------------------------------------------------
# PolyLogExpr.series: one normalization per coefficient against a per-word sum


def _per_word_series(e, N):
    out = [F(0)] * (N + 1)
    out[0] = e.const
    for w, c in e.terms.items():
        for j, x in enumerate(gpl_word_series(w, N)):
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


ALPHABETS = ((F(1),), (F(-1), F(1)))


def _oracle_laurent(data, N):
    """{j: coefficient of z^j} of sum_w r_w G(w) through RatFunc.to_biseries, j <= N."""
    laurent = {}
    for w, r in data.items():
        s, v = r.to_biseries(N + r.den.degree(), 0)
        rc = [s.get(j, 0) for j in range(N + v + 1)]
        for j, x in enumerate(mul_trunc(rc, gpl_word_series(w, N + v), N + v)):
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
    return {w: basis_ratfunc(r) for w, r in data.items()}


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_basis_series_matches_ratfunc_oracle(data, letters):
    d = data.draw(_combo_strategy(letters))
    assert _series_or_none(GplCombo(d, letters), 8) == _oracle_series(_as_ratfuncs(d), 8)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_basis_scale_rf_matches_ratfunc_product(data, letters):
    d = data.draw(_combo_strategy(letters))
    r = basis_ratfunc(data.draw(_basis_strategy(letters)))
    got = _series_or_none(GplCombo(d, letters).scale(partial_fractions(r, letters)), 8)
    assert got == _oracle_series({w: rw * r for w, rw in _as_ratfuncs(d).items()}, 8)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_basis_theta_is_j_times_series(data, letters):
    c = GplCombo(data.draw(_combo_strategy(letters)), letters)
    s, t = _series_or_none(c, 8), _series_or_none(c.theta(), 8)
    # theta keeps a Laurent tail (theta z^-k = -k z^-k) and kills constants only
    assert (s is None) == (t is None)
    if s is not None:
        assert t == [j * x for j, x in enumerate(s)]


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_basis_integrate_is_antiderivative(data, letters):
    d = data.draw(_combo_strategy(letters))
    c = GplCombo(d, letters)
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
    c = GplCombo(d, letters)
    assert c.series(8) == s
    assert c.integrate().series(8) == [F(0)] + [s[j - 1] / j for j in range(1, 9)]


def test_basis_integrate_covers_boundary_and_higher_poles():
    # (z-1)^-m with m >= 2 integrates to a pole whose value at 0 is the boundary
    # term; on a nonempty word the by-parts remainder reaches the empty word
    letters = (F(1),)
    for d in ({(): {(F(1), 3): F(1), (F(1), 2): F(-3), (F(0), -2): F(1, 2)}},
              {(F(1),): {(F(0), 1): F(1), (F(1), 2): F(2)}},
              {(F(1), F(1)): {(F(0), 2): F(2)}}):
        c = GplCombo(d, letters)
        s = c.series(8)
        assert c.integrate().series(8) == [F(0)] + [s[j - 1] / j for j in range(1, 9)]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(ALPHABETS))
def test_kernel_product_table_matches_ratfunc_products(data, letters):
    kernel = _kernel_strategy(letters)
    k1, k2 = data.draw(kernel), data.draw(kernel)
    table = basis_ratfunc(dict(gpl._kernel_product(k1, k2)))
    assert table == basis_ratfunc({k1: F(1)}) * basis_ratfunc({k2: F(1)})


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
    assert basis_ratfunc(b) == r
    assert partial_fractions(basis_ratfunc(b), letters) == b


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
    got = basis_ratfunc(d)
    assert (got.num, got.den) == (ref.num, ref.den)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from((F(0), F(1), F(-1))), st.integers(-3, 3), max_size=3))
def test_basis_product_matches_ratfunc_product(powers):
    ref = rf_from_coeffs([1])
    for a, e in powers.items():
        ref = ref * rf_monomial(a, e)
    assert basis_product(powers) == partial_fractions(ref, (F(-1), F(1)))


def test_combo_copies_its_input():
    letters = (F(1),)
    r = {(F(1), 1): F(2)}
    d = {(F(1),): r}
    c = GplCombo(d, letters)
    before = c.series(6)
    r[(F(1), 1)] = F(5)
    d[()] = {(F(0), 0): F(3)}
    assert c.data == {(F(1),): {(F(1), 1): F(2)}}
    assert c.series(6) == before
    # sums share no state with their operands' inputs either
    s = c + GplCombo.word((1,), letters)
    r[(F(1), 2)] = F(1)
    assert c.series(6) == before and (s - GplCombo.word((1,), letters)).series(6) == before


def test_poles_cancel_between_words():
    # G(1) + G(-1) = ln(1 - z^2) = -z^2 - z^4/2 - ..., so these are regular at 0
    letters = (F(-1), F(1))
    over_z2 = {(F(1),): {(F(0), 2): F(1)}, (F(-1),): {(F(0), 2): F(1)}}
    assert GplCombo(over_z2, letters).series(3) == _oracle_series(_as_ratfuncs(over_z2), 3)
    assert GplCombo(over_z2, letters).series(3) == [-1, 0, F(-1, 2), 0]
    # ln(1 - z^2)/z^3 + 1/z: the by-parts boundary terms cancel between the words
    over_z3 = {(F(1),): {(F(0), 3): F(1)}, (F(-1),): {(F(0), 3): F(1)}, (): {(F(0), 1): F(1)}}
    # G(1)/z^3 + 1/z^2 + 1/(2z): they cancel between the levels of the by-parts recursion
    levels = {(F(1),): {(F(0), 3): F(1)}, (): {(F(0), 2): F(1), (F(0), 1): F(1, 2)}}
    for d in (over_z3, levels):
        s = _oracle_series(_as_ratfuncs(d), 8)
        got = GplCombo(d, letters).integrate().series(8)
        assert got == [F(0)] + [s[j - 1] / j for j in range(1, 9)]
    # a pole left in the sum is still refused
    with pytest.raises(UncancelledPole):
        GplCombo({(F(1),): {(F(0), 3): F(1)}, (F(-1),): {(F(0), 3): F(1)}},
                 letters).integrate()
    with pytest.raises(UncancelledPole):
        GplCombo({(F(1),): {(F(0), 3): F(1)}}, letters).series(2)
