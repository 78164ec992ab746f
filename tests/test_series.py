"""Series oracle: integer rows against the Fraction reference, hypergeometric
series, truncation."""

import re
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hyperred.errors import PoleAtEpsZero, UnsupportedClass
from hyperred.hyper import HyperFn
from hyperred.poly import Poly
from hyperred.ratfunc import RatFunc
from hyperred.scalars import EpsLin
from hyperred.series import (BiSeries, combine, compose_z_series, series_of_hyper,
                             theta_pieces, truncated_sum)
from series_reference import (inv_pochhammer_eps, inv_trunc, mul_trunc, pochhammer_eps,
                              rows_add, rows_compose, rows_crop, rows_first_mismatch,
                              rows_invert, rows_mul, rows_theta, truncated_sum_row_major,
                              combine_per_term)


def test_pochhammer_half_plus_eps():
    # (1/2 + eps)(3/2 + eps) = 3/4 + 2 eps + eps^2
    p = pochhammer_eps(EpsLin(F(1, 2), 1), 2, 2)
    assert p == (F(3, 4), F(2), F(1))


def test_pochhammer_empty_product():
    assert pochhammer_eps(EpsLin(F(7, 3), 5), 0, 3) == (1, 0, 0, 0)


def test_pochhammer_pure_eps():
    # (a e)(1 + a e)(2 + a e): eps^1 coefficient is 2! a
    for a in (F(1), F(3, 2), F(-2)):
        p = pochhammer_eps(EpsLin(0, a), 3, 1)
        assert p == (0, 2 * a)


def test_inv_pochhammer_geometric():
    p = inv_pochhammer_eps(EpsLin(1, 1), 1, 2)
    assert p == (F(1), F(-1), F(1))
    assert inv_pochhammer_eps(EpsLin(1, 7), 0, 2) == (1, 0, 0)


def test_inv_pochhammer_pole():
    # (-1 + c e)(c e) vanishes at eps = 0
    with pytest.raises(PoleAtEpsZero):
        inv_pochhammer_eps(EpsLin(-1, 1), 2, 1)


@settings(max_examples=30, deadline=None)
@given(st.builds(F, st.integers(-5, 5), st.integers(1, 3)),
       st.builds(F, st.integers(-3, 3), st.integers(1, 2)),
       st.integers(0, 6))
def test_pochhammer_recurrence(c, e, j):
    x = EpsLin(c, e)
    lhs = pochhammer_eps(x, j + 1, 3)
    rhs = mul_trunc(pochhammer_eps(x, j, 3), (x.const + j, x.eps), 3)
    assert list(lhs) == rhs


def test_series_2f1_112():
    s = series_of_hyper(HyperFn([1, 1], [2]), 8, 0)
    assert [s.get(j, 0) for j in range(9)] == [F(1, j + 1) for j in range(9)]


def test_series_constant_term_is_one():
    f = HyperFn([EpsLin(F(1, 2), 3), EpsLin(0, -2)], [EpsLin(F(4, 3), 1)])
    s = series_of_hyper(f, 5, 3)
    assert s.get(0, 0) == 1 and all(s.get(0, k) == 0 for k in (1, 2, 3))


def test_series_eps2_z2_coefficient():
    # 2F1(a e, b e; 1 + c e; z): coefficient of eps^2 z^2 is a b / 4
    for a, b, c in ((F(1), F(1), F(0)), (F(2), F(3), F(5)), (F(-1, 2), F(1, 3), F(1))):
        f = HyperFn([EpsLin(0, a), EpsLin(0, b)], [EpsLin(1, c)])
        s = series_of_hyper(f, 3, 2)
        # oracle by hand: (a e)_2 (b e)_2 / ((1 + c e)_2 2!) -> eps^2: a b (1)(1) / 2 / 2
        assert s.get(2, 2) == a * b / 4
        assert s.get(2, 1) == 0


def test_series_lower_pole_raises():
    with pytest.raises(PoleAtEpsZero):
        series_of_hyper(HyperFn([1, 1], [EpsLin(0, 1)]), 5, 2)
    with pytest.raises(PoleAtEpsZero):
        series_of_hyper(HyperFn([1, 1], [EpsLin(-2, 1)]), 5, 2)


def test_series_kappa_absorbed():
    f = HyperFn([1, 1], [2], kappa=F(-1, 4))
    s = series_of_hyper(f, 4, 0)
    assert [s.get(j, 0) for j in range(5)] == [
        F(1, j + 1) * F(-1, 4) ** j for j in range(5)]


def test_biseries_truncation_minimum():
    a = BiSeries([[F(0)] * 4] * 11)
    b = BiSeries([[F(0)] * 3] * 6)
    c = a + b
    assert c.z_order == 5 and c.eps_order == 2
    d = a * b
    assert d.z_order == 5 and d.eps_order == 2


def test_biseries_mul_exact():
    # (1 + z)^2 = 1 + 2z + z^2 with eps payloads
    rows = ((F(1), F(2)), (F(1), F(0)), (F(0), F(0)))
    s = BiSeries(rows)
    sq = s * s
    assert sq.get(0, 0) == 1 and sq.get(1, 0) == 2 and sq.get(2, 0) == 1
    # z^0: (1+2e)^2 -> eps coeff 4; z^1: 2(1+2e)(1) -> eps coeff 4
    assert sq.get(0, 1) == 4 and sq.get(1, 1) == 4


def test_biseries_invert():
    # 1/(1 - z) = sum z^j
    N = 6
    rows = [[F(1)]] + [[F(-1)]] + [[F(0)] for _ in range(N - 1)]
    s = BiSeries(tuple(tuple(r) for r in rows))
    inv = s.invert()
    assert all(inv.get(j, 0) == 1 for j in range(N + 1))


def test_compose_z_series():
    # F(z) = 1/(1-z); z = w^2: composed = sum w^(2m)
    N = 6
    s = BiSeries(tuple((F(1),) for _ in range(N + 1)))
    # s = sum z^j: composition with z(w) = w^2 to order 8
    zser = [F(0), F(0), F(1)]
    out = compose_z_series(s, zser, 8)
    assert [out.get(j, 0) for j in range(9)] == [1, 0, 1, 0, 1, 0, 1, 0, 1]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2))
def test_ring_axioms_biseries(n, k):
    import random
    rng = random.Random(n * 7 + k)
    def rand(N, K):
        return BiSeries(tuple(tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                                    for _ in range(K + 1)) for _ in range(N + 1)))
    a, b, c = rand(4, 2), rand(4, 2), rand(4, 2)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def _unit(N, K):
    return BiSeries(((F(1),) + (F(0),) * K,) + tuple((F(0),) * (K + 1) for _ in range(N)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 4), st.integers(0, 10 ** 6), st.booleans())
def test_invert_is_a_right_inverse(N, K, seed, sparse_eps0):
    import random
    rng = random.Random(seed)
    def entry():
        return F(rng.randint(-5, 5), rng.randint(1, 4))
    rows = [[entry() for _ in range(K + 1)] for _ in range(N + 1)]
    rows[0][0] = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    if sparse_eps0:
        # eps^0 vanishes in every row after row 0
        for r in rows[1:]:
            r[0] = F(0)
    s = BiSeries(tuple(tuple(r) for r in rows))
    inv = s.invert()
    assert (inv.z_order, inv.eps_order) == (N, K)
    assert s * inv == _unit(N, K)


def test_invert_raises_on_vanishing_eps0_of_row0():
    s = BiSeries(((F(0), F(1)), (F(1), F(0))))
    with pytest.raises(PoleAtEpsZero):
        s.invert()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.builds(F, st.integers(-5, 5), st.integers(1, 4)), min_size=1, max_size=6),
       st.integers(0, 6))
def test_inv_trunc_is_an_inverse(a, M):
    if a[0] == 0:
        with pytest.raises(PoleAtEpsZero):
            inv_trunc(a, M)
        return
    inv = inv_trunc(a, M)
    assert len(inv) == M + 1
    assert mul_trunc(a, inv, M) == [1] + [0] * M


# ---------------------------------------------------------------------------
# the integer-row product against the dense Fraction product


def _sparse_series(rng, N, K, zero_share):
    def row():
        if rng.random() < zero_share:
            return (F(0),) * (K + 1)
        return tuple(F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(K + 1))
    return BiSeries(tuple(row() for _ in range(N + 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(0, 4), st.integers(0, 10), st.integers(0, 4),
       st.sampled_from([0.0, 0.5, 0.8, 1.0]), st.integers(0, 10 ** 6))
def test_mul_matches_dense_product(Na, Ka, Nb, Kb, zero_share, seed):
    import random
    rng = random.Random(seed)
    a = _sparse_series(rng, Na, Ka, zero_share)
    b = _sparse_series(rng, Nb, Kb, zero_share)
    got = a * b
    assert (got.z_order, got.eps_order) == (min(Na, Nb), min(Ka, Kb))
    assert got.rows == rows_mul(a.rows, b.rows)
    assert (b * a).rows == got.rows


# ---------------------------------------------------------------------------
# compose_z_series against the per-term Fraction loop


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 3), st.integers(1, 3), st.integers(0, 12),
       st.sampled_from([0.0, 0.5, 0.8]), st.booleans(), st.integers(0, 10 ** 6))
def test_compose_z_series_matches_per_term_loop(N, K, v, M, zero_share, integral, seed):
    import random
    rng = random.Random(seed)
    s = _sparse_series(rng, N, K, zero_share)
    M = min(M, N * v)
    zser = [F(0)] * v + [F(rng.randint(-4, 4), 1 if integral else rng.randint(1, 6))
                         for _ in range(rng.randint(0, M + 1))]
    if len(zser) > v:
        zser[v] = zser[v] or F(1)
    assert compose_z_series(s, zser, M).rows == rows_compose(s.rows, zser, M)


# ---------------------------------------------------------------------------
# series_of_hyper against the term-by-term Pochhammer product


def _termwise_series(f, N, K):
    rows = []
    for j in range(N + 1):
        t = (F(f.kappa) ** j / _factorial(j),) + (F(0),) * K
        for a in f.upper:
            t = mul_trunc(t, pochhammer_eps(a, j, K), K)
        for b in f.lower:
            t = mul_trunc(t, inv_pochhammer_eps(b, j, K), K)
        rows.append(t)
    return BiSeries(tuple(rows))


def _factorial(j):
    out = 1
    for m in range(2, j + 1):
        out *= m
    return out


@pytest.mark.parametrize("kappa", [F(1), F(-1), F(1, 4), F(4)])
@pytest.mark.parametrize("upper,lower", [
    ([EpsLin(F(2, 5), 1), EpsLin(F(1, 3), -1)], [EpsLin(F(3, 2), 2)]),
    ([EpsLin(0, 2), EpsLin(1), EpsLin(F(-1, 2), 3)], [EpsLin(1, -1), EpsLin(F(5, 3), F(1, 2))]),
])
def test_series_of_hyper_matches_termwise_product(upper, lower, kappa):
    f = HyperFn(upper, lower, kappa=kappa)
    for N, K in ((12, 0), (10, 3), (6, 5)):
        assert series_of_hyper(f, N, K).rows == _termwise_series(f, N, K).rows


@pytest.mark.parametrize("lower,j", [(EpsLin(-2, 1), 2), (EpsLin(0, F(1, 3)), 0),
                                     (EpsLin(-4, -2), 4)])
def test_series_of_hyper_lower_pole_index(lower, j):
    f = HyperFn([EpsLin(F(1, 2), 1), 1], [lower])
    with pytest.raises(PoleAtEpsZero) as e:
        series_of_hyper(f, 8, 2)
    assert str(e.value) == f"lower parameter {lower} hits 0 at series index {j}"
    # the series up to index j has no pole yet
    assert series_of_hyper(f, j, 2).rows == _termwise_series(f, j, 2).rows


@pytest.mark.parametrize("upper,lower,kappa,K", [
    # a negative lower p0 with K + 1 odd makes an index's new denominator negative
    ([EpsLin(F(1, 3), 1), EpsLin(2, -1)], [EpsLin(F(-7, 2), 2)], F(1), 2),
    ([EpsLin(F(1, 3), 1), EpsLin(2), EpsLin(F(-1, 5), 1)],
     [EpsLin(F(-9, 4), -1), EpsLin(F(1, 2), 3)], F(1), 4),
    ([EpsLin(F(1, 3), 1), EpsLin(1)], [EpsLin(F(-5, 3))], F(1), 0),
    # kappa < 0 with |kappa| != 1
    ([EpsLin(F(2, 5), 1), EpsLin(F(1, 3), -1)], [EpsLin(F(3, 2), 2)], F(-3, 2), 3),
    ([EpsLin(F(2, 5), 1), EpsLin(F(-7, 3), -1)], [EpsLin(F(-11, 2), 2)], F(-4), 2),
    ([EpsLin(1), EpsLin(F(1, 2), 1)], [EpsLin(F(-1, 3), 1)], F(-2, 7), 4),
])
def test_series_of_hyper_rep_matches_termwise_reference(upper, lower, kappa, K):
    f = HyperFn(upper, lower, kappa=kappa)
    s, ref = series_of_hyper(f, 12, K), _termwise_series(f, 12, K)
    assert s == ref and s.rows == ref.rows
    assert type(s.den) is int and s.den > 0 and (s.z_order, s.eps_order) == (12, K)


def test_series_of_hyper_numeric_rows_to_depth_200():
    # 2F1(1, 1; 2; z) = -ln(1 - z)/z and 2F1(1/2, 1/2; 3/2; z) = arcsin(sqrt z)/sqrt z
    cases = ((HyperFn([1, 1], [2]), lambda j: F(1, j + 1)),
             (HyperFn([1, 1], [2], kappa=-1), lambda j: F((-1) ** j, j + 1)),
             (HyperFn([F(1, 2), F(1, 2)], [F(3, 2)]),
              lambda j: F(comb(2 * j, j), 4 ** j * (2 * j + 1))))
    for f, coeff in cases:
        s = series_of_hyper(f, 200, 0)
        assert s.rows == tuple((coeff(j),) for j in range(201)) and s.den > 0


@pytest.mark.parametrize("lower", [-3, 0])
def test_series_of_hyper_nonpositive_integer_lower_text(lower):
    with pytest.raises(PoleAtEpsZero) as e:
        series_of_hyper(HyperFn([EpsLin(F(1, 2), 1), 1], [EpsLin(lower)]), 8, 2)
    assert str(e.value) == f"lower parameter {lower} is a non-positive integer at eps=0"


# ---------------------------------------------------------------------------
# truncated_sum against the row-major loop with masked columns


def _random_pieces(rng, N, K):
    """Pieces of every kind: polynomial cells alone or times an integer
    series, scale -1 among the scales, cells at k = K."""
    W, pieces = K + 1, []
    for _ in range(rng.randint(1, 4)):
        cells = {(rng.randint(0, N), rng.randint(0, K)): rng.randint(-9, 9) or 1
                 for _ in range(rng.randint(0, 4))}
        if rng.random() < 0.5:
            cells[rng.randint(0, N), K] = rng.choice((-1, 1, 7))
        cells = [(j, k, x) for (j, k), x in sorted(cells.items())]
        rows = None
        if rng.random() < 0.6:
            rows = [0 if rng.random() < 0.3 else rng.randint(-99, 99) for _ in range((N + 1) * W)]
        pieces.append((rng.choice((1, -1, 3)), cells, rng.choice((1, 2, 6, 35)), rows))
    return pieces


def _sum_outcome(kernel, pieces, N, K):
    s = kernel(pieces, N, K)
    return s.nums, s.den, s.z_order, s.eps_order


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.integers(0, 4), st.integers(0, 10 ** 6))
def test_truncated_sum_matches_row_major_reference(N, K, seed):
    import random
    pieces = _random_pieces(random.Random(seed), N, K)
    got = _sum_outcome(truncated_sum, pieces, N, K)
    assert got == _sum_outcome(truncated_sum_row_major, pieces, N, K)
    assert type(got[0]) is tuple and got[2] == N


def test_truncated_sum_pole_piece_cases():
    """A rational function with a pole at z = 0 never becomes a piece: its
    to_biseries refuses it, also where theta^j s vanishes below the pole.  One
    whose denominator has a nonzero z^0 row is taken as its series, and the
    sum keeps the series' z-depth."""
    V = ("eps", "z")
    z, one = Poly.variable(V, "z"), Poly.const(V, 1)
    s = BiSeries(((F(0), F(0)), (F(2), F(1)), (F(3), F(0))))     # N = 2, K = 1
    for j, r in ((0, RatFunc(one, z)), (1, RatFunc(one, z)), (2, RatFunc(z + 1, z * z))):
        with pytest.raises(UnsupportedClass,
                           match=rf"^piece {re.escape(str(r))} has a pole at z = 0$"):
            theta_pieces([RatFunc.const(V, 0)] * j + [r], s)
    r = RatFunc(one, z * 3 + 1)
    (piece,) = theta_pieces([r], s)
    got = truncated_sum([piece], 2, 1)
    assert got == s * r.to_biseries(2, 1) and got.z_order == 2


def test_truncated_sum_is_byte_identical_on_the_checks(monkeypatch):
    """Every truncated_sum of a reduction check, the checks of both expansion
    classes and a ThetaOp application equals the row-major loop's, rep for rep."""
    from hyperred import expansion, reduction, series, theta
    from hyperred.grammar import parse_hyper
    calls = []

    def checked(pieces, N, K):
        got = _sum_outcome(truncated_sum, pieces, N, K)
        calls.append(got == _sum_outcome(truncated_sum_row_major, pieces, N, K))
        return BiSeries._of(*got)

    for mod in (series, theta, reduction, expansion):
        monkeypatch.setattr(mod, "truncated_sum", checked)
    f = parse_hyper("3F2[2/5+eps, 1/3-eps, 1/7+3*eps; 3/2+2*eps, 5/4-eps; z]")
    target = f.shifted("upper", 0, 2).shifted("lower", 1, -1)
    half = parse_hyper("2F1[1/2+eps, 1/2-2*eps; 3/2+3*eps; z]")
    direct = parse_hyper("3F2[1+2*eps, -eps, 3*eps; 1+eps, 1-2*eps; z]")
    checks = (lambda: reduction.verify_reduction(reduction.reduce_to_basis(target, f), N=12, K=4)[0],
              lambda: reduction.ode_operator(f).apply(series_of_hyper(f, 10, 4)).is_zero(),
              lambda: expansion.verify_expansion(half, expansion.epsilon_expand(half, 3), N=8)[0],
              lambda: expansion.verify_expansion(direct, expansion.epsilon_expand(direct, 4), N=8)[0])
    for check in checks:
        before = len(calls)
        assert check() and len(calls) > before
    assert all(calls)


# ---------------------------------------------------------------------------
# integer rows against the Fraction reference, with different denominators
# on the two sides


_DENS = {"small": (1, 2, 3, 4, 6), "prime": (1, 5, 7, 11, 13), "power": (1, 8, 9, 16, 27)}


def _rand_series(rng, N, K, dens, zero_share=0.3):
    def cell():
        return F(0) if rng.random() < zero_share else F(rng.randint(-9, 9), rng.choice(dens))
    return BiSeries([[cell() for _ in range(K + 1)] for _ in range(N + 1)])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7), st.integers(0, 3), st.integers(0, 7), st.integers(0, 3),
       st.sampled_from(sorted(_DENS)), st.sampled_from(sorted(_DENS)), st.integers(0, 10 ** 6))
def test_binary_ops_match_fraction_reference(Na, Ka, Nb, Kb, da, db, seed):
    import random
    rng = random.Random(seed)
    a, b = _rand_series(rng, Na, Ka, _DENS[da]), _rand_series(rng, Nb, Kb, _DENS[db])
    assert (a * b).rows == rows_mul(a.rows, b.rows)
    assert (a + b).rows == rows_add(a.rows, b.rows)
    assert (a - b).rows == rows_add(a.rows, b.rows, -1)
    assert a.first_mismatch(b) == rows_first_mismatch(a.rows, b.rows)
    assert (a == b) == (rows_first_mismatch(a.rows, b.rows) is None)
    p, q = F(rng.randint(-5, 5), rng.randint(1, 7)), F(rng.randint(-5, 5), rng.randint(1, 7))
    assert (a * q).rows == (q * a).rows == tuple(tuple(q * x for x in r) for r in a.rows)
    N, K = min(Na, Nb), min(Ka, Kb)
    want = tuple(tuple(p * x + q * y for x, y in zip(ra, rb))
                 for ra, rb in zip(rows_crop(a.rows, N, K), rows_crop(b.rows, N, K)))
    assert combine(((p, a), (q, b)), N, K).rows == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 3), st.integers(0, 12), st.integers(0, 10 ** 6))
def test_combine_groups_equal_coefficients_rep_for_rep(N, K, n_terms, seed):
    """Grouped combine against one product per term: repeated coefficients and
    series, coefficients of opposite sign, int and zero q, several
    denominators, eps orders above 0."""
    import random
    rng = random.Random(seed)
    pool = [_rand_series(rng, N + rng.randint(0, 2), K + rng.randint(0, 1), _DENS[d])
            for d in sorted(_DENS)]
    qs = (0, 1, -1, 3, F(0), F(1, 2), F(-1, 2), F(3, 2), F(2, 3), F(7, 4))
    terms = [(rng.choice(qs), rng.choice(pool)) for _ in range(n_terms)]
    got, ref = combine(terms, N, K), combine_per_term(terms, N, K)
    assert (got.nums, got.den, got.z_order, got.eps_order) == (ref.nums, ref.den, N, K)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7), st.integers(0, 3), st.sampled_from(sorted(_DENS)),
       st.integers(0, 10 ** 6))
def test_unary_ops_match_fraction_reference(N, K, d, seed):
    import random
    rng = random.Random(seed)
    a = _rand_series(rng, N, K, _DENS[d])
    assert a.theta().rows == rows_theta(a.rows)
    if a.get(0, 0) == 0:
        with pytest.raises(PoleAtEpsZero):
            a.invert()
    else:
        assert a.invert().rows == rows_invert(a.rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.integers(0, 3), st.sampled_from(sorted(_DENS)),
       st.integers(2, 9), st.integers(0, 10 ** 6))
def test_first_mismatch_finds_one_perturbed_cell(N, K, d, scale, seed):
    import random
    rng = random.Random(seed)
    a = _rand_series(rng, N, K, _DENS[d])
    # the same values over a denominator `scale` times larger are no mismatch
    same = BiSeries._of(tuple(x * scale for x in a.nums), a.den * scale, N, K)
    assert a.first_mismatch(same) is None and a == same and same.rows == a.rows
    j, k = rng.randint(0, N), rng.randint(0, K)
    rows = [list(r) for r in a.rows]
    rows[j][k] += F(rng.choice([-1, 1]), rng.randint(1, 30))
    bumped = BiSeries(rows)
    assert a.first_mismatch(bumped) == bumped.first_mismatch(a) == (j, k)
    assert same.first_mismatch(bumped) == (j, k) and a != bumped
