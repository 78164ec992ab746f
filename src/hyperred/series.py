"""Truncated power-series arithmetic: the verification oracle's currency.

``BiSeries`` is a series in z to z^N whose coefficients are polynomials in
eps to eps^K, held as one positive integer denominator over row-major
integer numerators; a series in z alone (K = 0) is how ``gpl`` builds
and caches a word's series.  ``summed`` adds q s over many series as
integer rows over the lcm of their denominators, with no gcd, and leaves
the sum unreduced for its callers in ``gpl``.  One integer accumulator,
``truncated_sum``, does every truncated product of such series: products,
``ThetaOp.apply`` (over ``theta_pieces``), the Horner steps of
``compose_z_series``, a ``GplCombo``'s series (one piece per kernel) and
both verifiers' residuals, whose lowest nonzero cell is the verdict.  It
accumulates eps-major, one integer list per power of eps, so a cell at
eps^k meets only the series' columns up to eps^(K-k), and interleaves the
rows once at the end.  Every piece is pole-free (``RatFunc.to_biseries``,
the one reader of a rational function's series, refuses a pole at z = 0,
and ``gpl`` lifts one by z^V), so a sum holds to the z-depth of its series.
A cell may hold a tuple of numerators x_i for sum_i x_i theta^i, which
``theta_pieces`` builds from the r_j, so a sum of r_j theta^j s makes one
product per cell.  ``invert`` is fraction-free.  ``truncated_sum`` and
``invert`` reduce their results by one gcd.  ``series_of_hyper`` drops
the upper/lower pairs that cancel and folds kappa and the eps-free
parameters into one scalar per index, cancels each index's new factor
only and leaves its result unreduced, since every caller sums or
multiplies it, which reduces, or compares values.  The coefficients of
the hypergeometric and the nested-sum series are integer rows by
construction (Moch, Uwer & Weinzierl, hep-ph/0110083).  A
Fraction is built only where a coefficient is read out or rational input
is converted in.  Mixing truncation orders takes the minimum.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, List, Sequence, Tuple

from .errors import PoleAtEpsZero
from .hyper import HyperFn
from .value import Value


class BiSeries(Value):
    """Series in z up to z_order whose coefficients are eps-truncated.

    nums[j * (eps_order + 1) + k] / den is the coefficient of z^j eps^k;
    ``_of(nums, den, N, K)`` takes a row-major tuple over den > 0 as it
    stands, with no gcd.
    """

    __slots__ = ("nums", "den", "z_order", "eps_order")

    def __init__(self, rows: Sequence[Sequence[Fraction]], z_order=None, eps_order=None):
        """Rows of rationals (ints or Fractions), rows[j][k] at z^j eps^k."""
        rows = [tuple(r) for r in rows]
        if z_order is None:
            z_order = len(rows) - 1
        if eps_order is None:
            eps_order = len(rows[0]) - 1 if rows else 0
        if len(rows) != z_order + 1 or any(len(r) != eps_order + 1 for r in rows):
            raise ValueError("row shape does not match declared truncation orders")
        cells = [c for r in rows for c in r]
        den = lcm(*(c.denominator for c in cells))
        self._set(tuple(c.numerator * (den // c.denominator) for c in cells), den,
                  z_order, eps_order)

    @property
    def rows(self) -> Tuple[Tuple[Fraction, ...], ...]:
        W = self.eps_order + 1
        return tuple(tuple(Fraction(x, self.den) for x in self.nums[j:j + W])
                     for j in range(0, len(self.nums), W))

    def get(self, j: int, k: int) -> Fraction:
        return Fraction(self.nums[j * (self.eps_order + 1) + k], self.den)

    def eps_row(self, k: int) -> List[Fraction]:
        """The z-series at a fixed power of eps."""
        return [Fraction(x, self.den) for x in self.nums[k::self.eps_order + 1]]

    def _cells(self, N: int, K: int) -> Sequence[int]:
        """The numerators of z^0..z^N, eps^0..eps^K, row-major."""
        W = self.eps_order + 1
        if K + 1 == W:
            return self.nums[:(N + 1) * W]
        return [x for j in range(0, (N + 1) * W, W) for x in self.nums[j:j + K + 1]]

    def cells(self, N: int, K: int):
        """The nonzero (j, k, numerator) of z^0..z^N, eps^0..eps^K, z-power first."""
        W = self.eps_order + 1
        return [(j, k, x) for j in range(min(N, self.z_order) + 1)
                for k, x in enumerate(self.nums[j * W:j * W + K + 1]) if x]

    def _common(self, other):
        N = min(self.z_order, other.z_order)
        K = min(self.eps_order, other.eps_order)
        return N, K

    def __mul__(self, other):
        N, K = self._common(other)
        a, b = self._cells(N, K), other._cells(N, K)
        if a.count(0) < b.count(0):
            a, b = b, a
        W = K + 1
        cells = [(i // W, i % W, x) for i, x in enumerate(a) if x]
        return truncated_sum([(1, cells, self.den * other.den, b)], N, K)

    __rmul__ = __mul__

    def invert(self) -> "BiSeries":
        """1/series; the z^0 eps^0 coefficient must not vanish.

        With A = nums and a = A[0][0], the inverse of A is B[j][k] =
        b[j][k] / a^(j+k+1) for the integers
        b[j][k] = -sum_{(i,l) != (0,0)} A[i][l] a^(i+l-1) b[j-i][k-l].
        """
        N, K = self.z_order, self.eps_order
        W = K + 1
        a = self.nums[0]
        if a == 0:
            raise PoleAtEpsZero("inverting a series whose z^0 eps^0 coefficient vanishes")
        pw = [a ** e for e in range(N + K + 2)]
        cells = [(i, l, x * pw[i + l - 1]) for i, l, x in self.cells(N, K) if i or l]
        b = [0] * ((N + 1) * W)
        b[0] = 1
        for j in range(N + 1):
            for k in range(1 if j == 0 else 0, K + 1):
                s = 0
                for i, l, x in cells:
                    if i > j:
                        break
                    if l <= k:
                        s += x * b[(j - i) * W + k - l]
                b[j * W + k] = -s
        top = N + K
        nums = [self.den * b[j * W + k] * pw[top - j - k] for j in range(N + 1) for k in range(W)]
        den = pw[top + 1]
        if den < 0:
            nums, den = [-x for x in nums], -den
        return _reduced(nums, den, N, K)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.first_mismatch(other) is None

    def first_mismatch(self, other):
        """Lowest (j, k), z-power first, where the two series differ, or None."""
        N, K = self._common(other)
        d1, d2 = self.den, other.den
        return lowest_cell([x * d2 - y * d1 for x, y in
                            zip(self._cells(N, K), other._cells(N, K))], K)

    def __str__(self):
        return f"BiSeries(N={self.z_order}, K={self.eps_order})"


def _reduced(nums: Sequence[int], den: int, N: int, K: int) -> BiSeries:
    """nums / den (den > 0) divided by the gcd of all its integers."""
    g = gcd(den, *nums)
    if g != 1:
        nums, den = [x // g for x in nums], den // g
    return BiSeries._of(tuple(nums), den, N, K)


def summed(terms: Iterable[Tuple[Fraction, BiSeries]], N: int, K: int) -> BiSeries:
    """sum q s over (q, s) pairs of a rational and a series, to orders (N, K),
    not reduced: over the lcm L of the q s denominators.

    The series of one group, one denominator d and one numerator n up to
    sign, are added, or subtracted where the sign differs from the first's,
    and the group's sum is multiplied once, by +-n L/d, into one integer row.
    """
    groups = {}
    for q, s in terms:
        if q:
            groups.setdefault((q.denominator * s.den, abs(q.numerator)), []).append(
                (q.numerator > 0, s._cells(N, K)))
    L = lcm(*(d for d, _ in groups))
    out = [0] * ((N + 1) * (K + 1))
    for (d, n), ((pos, g), *rest) in groups.items():
        for p, row in rest:
            g = list(map(add if p is pos else sub, g, row))
        m = (n if pos else -n) * (L // d)
        out = [o + m * x for o, x in zip(out, g)]
    return BiSeries._of(tuple(out), L, N, K)


def truncated_sum(pieces, N: int, K: int) -> BiSeries:
    """The sum of the pieces to z^N eps^K, as integer numerators over one denominator.

    A piece (scale, cells, den, rows) is scale C / den, C the sum of its
    nonzero cells x z^j eps^k, z-power first, times the integer series
    rows (row-major, width K + 1, to z^N) unless rows is None.  A cell
    times rows may hold a tuple (x_0, ..., x_p) for x: it stands for
    sum_i x_i t^i at row t of the series, evaluated by Horner's rule once
    per row, so sum_i x_i theta^i of the series costs one product per row
    (``theta_pieces``).  The sum is accumulated eps-major, one integer list
    per power of eps, and rows' columns are read as rows[e::K + 1]: a cell
    at (j, k) adds x times column e to eps^(k+e) from z^j on, for each
    e <= K - k.  The pieces go over the lcm of their denominators, and
    the result is reduced by one gcd.
    """
    W = K + 1
    L = lcm(*(p[2] for p in pieces))
    out = [[0] * (N + 1) for _ in range(W)]
    for scale, cells, den, rows in pieces:
        m = scale * (L // den)
        if rows is None:
            for j, k, x in cells:
                out[k][j] += m * x
            continue
        cols = [rows[e::W] for e in range(W)]
        for j, k, x in cells:
            if type(x) is tuple:
                xs = [m * x[-1]] * (N + 1 - j)
                for c in x[-2::-1]:
                    c *= m
                    xs = [h * t + c for t, h in enumerate(xs)]
                for o, col in zip(out[k:], cols):
                    o[j:] = [a + w * y for a, w, y in zip(o[j:], xs, col)]
                continue
            x *= m
            for o, col in zip(out[k:], cols):
                o[j:] = [a + x * y for a, y in zip(o[j:], col)]
    nums = [0] * ((N + 1) * W)
    for k, o in enumerate(out):
        nums[k::W] = o
    return _reduced(nums, L, N, K)


def lowest_cell(nums: Sequence[int], K: int):
    """(j, k) of the first nonzero of row-major nums of width K + 1, or None."""
    i = next((i for i, x in enumerate(nums) if x), None)
    return None if i is None else divmod(i, K + 1)


def theta_pieces(coeffs: Sequence, s: BiSeries, scale: int = 1):
    """The truncated_sum pieces of scale sum_j r_j theta^j s, each r_j a ``RatFunc``.

    The nonzero r_j go over one denominator as one piece times s itself,
    whose cell at z^i eps^k holds the tuple (x_0, ..., x_p) of their
    numerators there: truncated_sum reads it as sum_j x_j t^j at row t of
    s, t^j being theta^j's factor, so a cell makes one product with s
    however many r_j there are, and no theta^j s is built.  Where only r_0
    is nonzero a cell holds its numerator itself.  An r_j with a pole at
    z = 0 is refused by its ``z_cells``; with no nonzero r_j there is no
    piece.
    """
    N, K = s.z_order, s.eps_order
    flat = [(j, *r.z_cells(N, K)) for j, r in enumerate(coeffs) if not r.is_zero()]
    if not flat:
        return []
    D, p = lcm(*(den for _, _, den in flat)), flat[-1][0]
    merged = {}
    for j, cells, den in flat:
        f = D // den
        for i, k, x in cells:
            merged.setdefault((i, k), [0] * (p + 1))[j] = f * x
    return [(scale, [(i, k, tuple(x) if p else x[0]) for (i, k), x in sorted(merged.items())],
             D * s.den, s.nums)]


# ---------------------------------------------------------------------------
# the hypergeometric series oracle


def series_of_hyper(f: HyperFn, N: int, K: int) -> BiSeries:
    """The defining series of f as a BiSeries, kappa absorbed into z powers.

    Each upper parameter equal to a lower one (as a multiset, by ``EpsLin``
    equality) cancels from every term, after every lower's pole checks,
    and an eps-free parameter enters each index's new factor as a scalar,
    so only the parameters that carry eps make a pass over the eps cells.
    The result is nums / den with den > 0, not reduced: every caller either
    sums it in ``truncated_sum`` or multiplies it, which reduce their own
    results, or compares values.
    """
    for b in f.lower:
        if b.is_integer() and b.const <= 0:
            raise PoleAtEpsZero(f"lower parameter {b} is a non-positive integer at eps=0")
    lines = [b.int_line("eps") for b in f.lower]
    # the first index at which a lower's p0 + j q vanishes, the first lower at that index
    hit = min(((-p0 // q, i) for i, (p0, _, q) in enumerate(lines) if p0 <= 0 and p0 % q == 0),
              default=(N, 0))
    if hit[0] < N:
        raise PoleAtEpsZero(f"lower parameter {f.lower[hit[1]]} hits 0 at series index {hit[0]}")
    uppers, lows = list(f.upper), []
    for b, line in zip(f.lower, lines):
        if b in uppers:
            uppers.remove(b)
        else:
            lows.append(line)
    ups = [a.int_line("eps") for a in uppers]
    # term j is num[k]/D_j at eps^k.  Index j's new factor is kappa/(j + 1)
    # times x + j = (p0 + j q + p1 eps)/q for each upper x and its inverse
    # for each lower, (p0, p1, q) the parameter's ``int_line``.  kappa and
    # the eps-free factors go into a scalar c over m; one with eps updates
    # num in place.  m is cancelled against num alone, so D_(j+1) = D_j m_j
    # with the cancelled m_j, and term j is put over D_N by the suffix
    # product of the m_i, i >= j
    W = K + 1
    num = [1] + [0] * K
    nums, ms = num[:], []
    kn, kd = f.kappa.numerator, f.kappa.denominator
    up0 = [(p0, q) for p0, p1, q in ups if not p1]
    low0 = [(p0, q) for p0, p1, q in lows if not p1]
    up1 = [t for t in ups if t[1]]
    low1 = [t for t in lows if t[1]]
    for j in range(N):
        c, m = kn, (j + 1) * kd
        for p0, q in up0:
            c *= p0 + j * q
            m *= q
        for p0, q in low0:
            c *= q
            m *= p0 + j * q
        for p0, p1, q in up1:
            p0 += j * q
            for k in range(K, 0, -1):
                num[k] = p0 * num[k] + p1 * num[k - 1]
            num[0] *= p0
            m *= q
        for p0, p1, q in low1:
            p0 += j * q
            pw = [1]
            for _ in range(K):
                pw.append(pw[-1] * p0)
            # o[k] = (t[k] - c1 o[k-1]) / c0, with o[k] scaled by den * p0^(k+1)
            o = 0
            for k in range(W):
                o = q * num[k] * pw[k] - p1 * o
                num[k] = o * pw[K - k]
            m *= pw[K] * p0
        # the sign of m goes into num, so den > 0
        if m < 0:
            c, m = -c, -m
        if c != 1:
            num = [x * c for x in num]
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


def compose_z_series(s: BiSeries, zser: Sequence[Fraction], M: int) -> BiSeries:
    """s with z -> zser(xi), a series from xi^v (v >= 1), to xi^M if s.z_order * v >= M.

    Horner's rule: one truncated_sum per row of s up to z^(M // v).
    """
    if zser and zser[0] != 0:
        raise ValueError("composition requires a series with zero constant term")
    zs, K, W = zser[:M + 1], s.eps_order, s.eps_order + 1
    v = next((i for i, c in enumerate(zs) if c), M + 1)
    if s.z_order * v < M:
        raise ValueError(f"need z order >= {-(-M // v)} to compose to order {M}")
    D = lcm(*(c.denominator for c in zs))
    zn = [(i, 0, c.numerator * (D // c.denominator)) for i, c in enumerate(zs) if c]
    acc = truncated_sum([], M, K)
    for j in range(min(s.z_order, M // v), -1, -1):
        row = [(0, k, x) for k, x in enumerate(s.nums[j * W:(j + 1) * W]) if x]
        acc = truncated_sum([(1, zn, D * acc.den, acc.nums), (1, row, s.den, None)], M, K)
    return acc
