"""Fraction reference for the series oracle, which the program never calls.

``BiSeries`` keeps integer numerators over one denominator and does no
Fraction arithmetic.  The functions here redo its operations the direct
way, one Fraction per coefficient, on the ``rows`` read out of a series
(rows[j][k] at z^j eps^k), so equal results are an independent check.
``mul_trunc``/``inv_trunc`` are the truncated product and inverse of
coefficient lists, and the Pochhammer expansions build
``series_of_hyper``'s terms factor by factor.  ``truncated_sum_row_major``
is ``truncated_sum`` accumulated row-major, with masked columns, for a
byte-for-byte comparison of its integer results, and ``combine_per_term``
is ``combine`` with one product per term instead of one per group of
equal coefficients.  ``series_of_hyper_per_parameter`` and
``theta_pieces_per_j`` are the integer kernels before pair cancellation,
eps-free scalars and tuple cells: one pass per parameter and index, and
one piece over theta^j s per nonzero r_j.  The program's results must
equal theirs rep for rep.  ``to_biseries_laurent`` reads a rational
function with a pole at z = 0 as z^(-v) S, which the program refuses to
do: step-matrix entries and word coefficients carry 1/z poles that
cancel only in a sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence

from hyperred.errors import PoleAtEpsZero, UncancelledPole
from hyperred.scalars import EpsLin
from hyperred.series import BiSeries, truncated_sum

_ZERO = Fraction(0)


def mul_trunc(a: Sequence[Fraction], b: Sequence[Fraction], M: int) -> List[Fraction]:
    """Cauchy product of two coefficient lists, truncated after index M."""
    out = [_ZERO] * (M + 1)
    for i, x in enumerate(a[:M + 1]):
        if x:
            for j in range(min(M + 1 - i, len(b))):
                y = b[j]
                if y:
                    out[i + j] += x * y
    return out


def inv_trunc(a: Sequence[Fraction], M: int) -> List[Fraction]:
    """Inverse of a coefficient list as a series, truncated after index M."""
    c0 = a[0]
    if c0 == 0:
        raise PoleAtEpsZero(f"inverting ({', '.join(map(str, a))}) whose constant term vanishes")
    out = [1 / c0]
    for k in range(1, M + 1):
        s = _ZERO
        for i in range(1, min(k, len(a) - 1) + 1):
            if a[i]:
                s += a[i] * out[k - i]
        out.append(-s / c0)
    return out


def pochhammer_eps(x: EpsLin, j: int, K: int) -> tuple:
    """(x)_j = prod_{m<j} (x.const + m + x.eps*eps), truncated at eps^K."""
    out = (Fraction(1),) + (_ZERO,) * K
    for m in range(j):
        out = tuple(mul_trunc(out, (x.const + m, x.eps), K))
    return out


def inv_pochhammer_eps(x: EpsLin, j: int, K: int) -> tuple:
    """1/(x)_j truncated at eps^K; raises PoleAtEpsZero on vanishing factors."""
    for m in range(j):
        if x.const + m == 0:
            raise PoleAtEpsZero(
                f"({x})_{j} vanishes at eps=0 (factor m={m}); inverse has an eps pole")
    return tuple(inv_trunc(pochhammer_eps(x, j, K), K))


# ---------------------------------------------------------------------------
# BiSeries operations on Fraction rows


def _common(a, b):
    return [r[:len(b[0])] for r in a[:len(b)]], [r[:len(a[0])] for r in b[:len(a)]]


def rows_add(a, b, sign=1):
    a, b = _common(a, b)
    return tuple(tuple(x + sign * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def rows_mul(a, b):
    """The dense product, one Fraction multiply-add per term."""
    a, b = _common(a, b)
    N, K = len(a) - 1, len(a[0]) - 1
    out = [[_ZERO] * (K + 1) for _ in range(N + 1)]
    for j1 in range(N + 1):
        for j2 in range(N + 1 - j1):
            for k1 in range(K + 1):
                for k2 in range(K + 1 - k1):
                    out[j1 + j2][k1 + k2] += a[j1][k1] * b[j2][k2]
    return tuple(tuple(r) for r in out)


def rows_invert(a):
    """1/a row by row: c0 = 1/a_0 and out_j = -c0 sum_{i>=1} a_i out_(j-i)."""
    K = len(a[0]) - 1
    c0 = inv_trunc(a[0], K)
    out = [c0]
    for j in range(1, len(a)):
        s = [_ZERO] * (K + 1)
        for i in range(1, j + 1):
            for k, c in enumerate(mul_trunc(a[i], out[j - i], K)):
                s[k] += c
        out.append([-c for c in mul_trunc(s, c0, K)])
    return tuple(tuple(r) for r in out)


def rows_theta(a):
    return tuple(tuple(j * x for x in r) for j, r in enumerate(a))


def rows_div_z(a, v):
    low = [j for j, r in enumerate(a[:v]) if any(r)]
    if low:
        raise UncancelledPole(f"1/z^{v} applied to series with nonzero z^{low[0]} coefficient")
    return a[v:]


def rows_mul_z_power(a, v):
    return (tuple(_ZERO for _ in a[0]),) * v + a[:len(a) - v]


def rows_crop(a, N, K):
    return tuple(r[:K + 1] for r in a[:N + 1])


def rows_compose(a, zser, M):
    """a(zser(xi)) to xi^M: one Fraction multiply-add per (power coefficient, entry)."""
    K = len(a[0]) - 1
    zs = list(zser[:M + 1]) + [_ZERO] * max(0, M + 1 - len(zser))
    out = [[_ZERO] * (K + 1) for _ in range(M + 1)]
    power = [Fraction(1)] + [_ZERO] * M
    for j, row in enumerate(a):
        if j > 0:
            power = mul_trunc(power, zs, M)
            if all(c == 0 for c in power):
                break
        for i, c in enumerate(power):
            if c:
                for k in range(K + 1):
                    out[i][k] += c * row[k]
    return tuple(tuple(r) for r in out)


def rows_first_mismatch(a, b):
    a, b = _common(a, b)
    for j, (ra, rb) in enumerate(zip(a, b)):
        for k, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                return (j, k)
    return None


def truncated_sum_row_major(pieces, N, K):
    """``truncated_sum`` on one row-major list: a cell at (j, k) adds a
    multiple of the series' first N + 1 - j rows, with the columns past
    eps^(K-k) masked to zero; a tuple cell's multiple of row t is
    sum_e x_e t^e."""
    W = K + 1
    L = lcm(*(p[2] for p in pieces))
    out = [0] * ((N + 1) * W)
    for scale, cells, den, rows in pieces:
        m = scale * (L // den)
        if rows is None:
            for j, k, x in cells:
                out[j * W + k] += m * x
            continue
        cols = {0: rows}
        for j, k, x in cells:
            col = cols.get(k)
            if col is None:
                col = cols[k] = [y if i % W + k < W else 0 for i, y in enumerate(rows)]
            off = j * W + k
            # a tuple x is sum_e x_e t^e at row t of the series, summed power by power
            xs = ([m * sum(c * (i // W) ** e for e, c in enumerate(x)) for i in range(len(col))]
                  if isinstance(x, tuple) else [m * x] * len(col))
            out[off:] = [a + w * y for a, w, y in zip(out[off:], xs, col)]
    g = gcd(L, *out)
    return BiSeries._of(tuple(x // g for x in out), L // g, N, K)


def combine_per_term(terms, N, K):
    """sum q s over (q, s) pairs: each term's integer row times its numerator,
    accumulated per denominator, the per-denominator rows to ``truncated_sum``."""
    rows = {}
    for q, s in terms:
        if not q:
            continue
        d, n, cells = q.denominator * s.den, q.numerator, s._cells(N, K)
        acc = rows.get(d)
        rows[d] = ([n * x for x in cells] if acc is None
                   else [r + n * x for r, x in zip(acc, cells)])
    return truncated_sum([(1, ((0, 0, 1),), d, acc) for d, acc in rows.items()], N, K)


# ---------------------------------------------------------------------------
# the integer kernels as they were before pair cancellation and tuple cells


def series_of_hyper_per_parameter(f, N: int, K: int) -> BiSeries:
    """``series_of_hyper`` with one pass over the eps cells per parameter and index.

    No upper/lower pair cancels and no eps-free parameter becomes a scalar:
    every parameter updates the term in place, and every lower is checked
    for a zero at every index as the loop meets it.
    """
    for b in f.lower:
        if b.is_integer() and b.const <= 0:
            raise PoleAtEpsZero(f"lower parameter {b} is a non-positive integer at eps=0")
    # term j is num[k]/D_j at eps^k, updated in place by one linear eps factor
    # x + j = (p0 + j q + p1 eps)/q per parameter x, (p0, p1, q) its
    # ``int_line``, and by kappa; index j's new
    # denominator m_j is cancelled against num alone, so D_(j+1) = D_j m_j
    # with the cancelled m_j, and term j is put over D_N by the suffix
    # product of the m_i, i >= j
    W = K + 1
    num = [1] + [0] * K
    nums, ms = num[:], []
    kn, kd = f.kappa.numerator, f.kappa.denominator
    ups, lows = [a.int_line("eps") for a in f.upper], [b.int_line("eps") for b in f.lower]
    for j in range(N):
        m = (j + 1) * kd
        for p0, p1, q in ups:
            p0 += j * q
            for k in range(K, 0, -1):
                num[k] = p0 * num[k] + p1 * num[k - 1]
            num[0] *= p0
            m *= q
        for b, (p0, p1, q) in zip(f.lower, lows):
            p0 += j * q
            if p0 == 0:
                raise PoleAtEpsZero(f"lower parameter {b} hits 0 at series index {j}")
            # o[k] = (t[k] - c1 o[k-1]) / c0, with o[k] scaled by den * p0^(k+1)
            o = 0
            for k in range(K + 1):
                o = q * num[k] * p0 ** k - p1 * o
                num[k] = o * p0 ** (K - k)
            m *= p0 ** (K + 1)
        # kappa's numerator and the sign of m go into num, so den > 0
        c = kn if m > 0 else -kn
        if c != 1:
            num = [x * c for x in num]
        m = abs(m)
        g = gcd(m, *num)
        if g != 1:
            m //= g
            num = [x // g for x in num]
        ms.append(m)
        nums += num
    # rescale in place, from the last term down: term j by m_j ... m_(N-1)
    d = 1
    for j in range(N - 1, -1, -1):
        d *= ms[j]
        for i in range(j * W, j * W + W):
            nums[i] *= d
    return BiSeries._of(tuple(nums), d, N, K)


def theta_pieces_per_j(coeffs: Sequence, s: BiSeries, scale: int = 1):
    """``theta_pieces`` with one piece per nonzero r_j: the z_cells of r_j
    (a ``RatFunc``) times theta^j s built row by row."""
    pieces = []
    for j, r in enumerate(coeffs):
        if j:
            s = s.theta()
        if not r.is_zero():
            cells, den = r.z_cells(s.z_order, s.eps_order)
            pieces.append((scale, cells, den * s.den, s.nums))
    return pieces


def to_biseries_laurent(r, N: int, K: int):
    """(S, v) with r = z^(-v) S and S a BiSeries valid to z-order N.

    The rows of num and den are read from z^min(vn, vd) and z^vd, their
    z-valuations vn and vd, so a zero of order vn - vd > 0 stays in S.
    Parameters other than eps must have been bound.
    """
    assert r.vars[:-1] in ((), ("eps",)), r.vars

    def rows(p, lo):
        out = [[_ZERO] * (K + 1) for _ in range(N + 1)]
        for (*e, j), c in p.terms().items():
            k = e[0] if e else 0
            if lo <= j <= lo + N and k <= K:
                out[j - lo][k] += c
        return BiSeries(tuple(map(tuple, out)))

    if r.is_polynomial():
        return rows(r.num, 0), 0
    vn, vd = (min(e[-1] for e in p.terms()) for p in (r.num, r.den))
    den = rows(r.den, vd)
    if den.get(0, 0) == 0:
        raise PoleAtEpsZero(f"denominator {r.den} vanishes at eps=0 after removing z^{vd}")
    return rows(r.num, min(vn, vd)) * den.invert(), max(vd - vn, 0)
