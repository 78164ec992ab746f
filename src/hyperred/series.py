"""Truncated power-series arithmetic: the verification oracle's currency.

``BiSeries`` is a series in z to z^N whose coefficients are polynomials in
eps to eps^K, held as one positive integer denominator over row-major
integer numerators; a series in z alone (K = 0) is a word series
``(D, nums)`` of ``gpl`` as it stands.  Products are one integer 2-D
convolution over the denominator product, sums (``combine``) go over the
lcm, comparisons cross-multiply and ``invert`` is fraction-free; results
are reduced by one gcd.  The coefficients of the hypergeometric and the
nested-sum series are integer rows by construction (Moch, Uwer &
Weinzierl, hep-ph/0110083).  A Fraction is built only where a coefficient
is read out or rational input is converted in.  Mixing truncation orders
takes the minimum.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Tuple

from .errors import PoleAtEpsZero, UncancelledPole
from .hyper import HyperFn
from .scalars import EpsLin


class BiSeries:
    """Series in z up to z_order whose coefficients are eps-truncated.

    nums[j * (eps_order + 1) + k] / den is the coefficient of z^j eps^k.
    """

    __slots__ = ("z_order", "eps_order", "den", "nums")

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

    def _set(self, nums, den, N, K):
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "z_order", N)
        object.__setattr__(self, "eps_order", K)

    def __setattr__(self, *a):
        raise AttributeError("BiSeries is immutable")

    @classmethod
    def from_ints(cls, nums: Sequence[int], den: int, N: int, K: int) -> "BiSeries":
        """The series nums / den as it stands: den > 0, nums row-major, no gcd."""
        s = object.__new__(cls)
        s._set(tuple(nums), den, N, K)
        return s

    @classmethod
    def zeros(cls, N: int, K: int):
        return cls.from_ints((0,) * ((N + 1) * (K + 1)), 1, N, K)

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

    def _terms(self, N: int, K: int):
        """(j, [(k, numerator), ...]) for each nonzero z-row j <= N, eps^k <= K."""
        W = self.eps_order + 1
        out = []
        for j in range(N + 1):
            t = [(k, x) for k, x in enumerate(self.nums[j * W:j * W + K + 1]) if x]
            if t:
                out.append((j, t))
        return out

    def crop(self, N: int, K: int) -> "BiSeries":
        N = min(N, self.z_order)
        K = min(K, self.eps_order)
        return BiSeries.from_ints(self._cells(N, K), self.den, N, K)

    def _common(self, other):
        N = min(self.z_order, other.z_order)
        K = min(self.eps_order, other.eps_order)
        return N, K

    def __add__(self, other):
        return combine(((1, self), (1, other)), *self._common(other))

    def __sub__(self, other):
        return combine(((1, self), (-1, other)), *self._common(other))

    def __neg__(self):
        return BiSeries.from_ints([-x for x in self.nums], self.den, self.z_order, self.eps_order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return combine(((other, self),), self.z_order, self.eps_order)
        N, K = self._common(other)
        W = K + 1
        out = [0] * ((N + 1) * W)
        right = other._terms(N, K)
        for j1, t1 in self._terms(N, K):
            for j2, t2 in right:
                if j1 + j2 > N:
                    break
                base = (j1 + j2) * W
                for k1, n1 in t1:
                    for k2, n2 in t2:
                        if k1 + k2 > K:
                            break
                        out[base + k1 + k2] += n1 * n2
        return _reduced(out, self.den * other.den, N, K)

    __rmul__ = __mul__

    def theta(self) -> "BiSeries":
        """z d/dz on the series."""
        W = self.eps_order + 1
        nums = [x * j for j in range(self.z_order + 1) for x in self.nums[j * W:(j + 1) * W]]
        return BiSeries.from_ints(nums, self.den, self.z_order, self.eps_order)

    def div_z(self, v: int) -> "BiSeries":
        """Divide by z^v; the v lowest rows must vanish."""
        if v == 0:
            return self
        W = self.eps_order + 1
        for j in range(min(v, self.z_order + 1)):
            if any(self.nums[j * W:(j + 1) * W]):
                raise UncancelledPole(
                    f"1/z^{v} applied to series with nonzero z^{j} coefficient")
        return BiSeries.from_ints(self.nums[v * W:], self.den, self.z_order - v, self.eps_order)

    def mul_z_power(self, v: int) -> "BiSeries":
        """Multiply by z^v (v >= 0); keeps the declared z order."""
        if v == 0:
            return self
        N, W = self.z_order, self.eps_order + 1
        nums = ((0,) * (v * W) + self.nums)[:(N + 1) * W]
        return BiSeries.from_ints(nums, self.den, N, self.eps_order)

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
        cells = [(i, l, x * pw[i + l - 1]) for i, t in self._terms(N, K) for l, x in t if i or l]
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
        for i, (x, y) in enumerate(zip(self._cells(N, K), other._cells(N, K))):
            if x * d2 != y * d1:
                return divmod(i, K + 1)
        return None

    def __str__(self):
        return f"BiSeries(N={self.z_order}, K={self.eps_order})"

    __repr__ = __str__


def _reduced(nums: Sequence[int], den: int, N: int, K: int) -> BiSeries:
    """nums / den (den > 0) divided by the gcd of all its integers."""
    g = gcd(den, *nums)
    if g != 1:
        nums, den = [x // g for x in nums], den // g
    return BiSeries.from_ints(nums, den, N, K)


def combine(terms: Iterable[Tuple[Fraction, BiSeries]], N: int, K: int) -> BiSeries:
    """sum q s over (q, s) pairs of a rational and a series, to orders (N, K).

    Integer rows are accumulated per denominator, then brought to their
    lcm once.
    """
    rows = {}
    for q, s in terms:
        if not q:
            continue
        d, n, cells = q.denominator * s.den, q.numerator, s._cells(N, K)
        acc = rows.get(d)
        rows[d] = ([n * x for x in cells] if acc is None
                   else [r + n * x for r, x in zip(acc, cells)])
    L = lcm(*rows)
    out = [0] * ((N + 1) * (K + 1))
    for d, acc in rows.items():
        m = L // d
        out = [x + m * y for x, y in zip(out, acc)]
    return _reduced(out, L, N, K)


def theta_action(coeffs: Sequence, s: BiSeries) -> BiSeries:
    """sum_j r_j theta^j s for rational functions r_j of z (``RatFunc``).

    Each piece r_j theta^j s is divided by z^v, v the pole order of r_j at
    0, so the sum is valid to z-order N - max v; zero coefficients are
    skipped and an empty sum is the zero series of s's orders.
    """
    N, K = s.z_order, s.eps_order
    out = None
    theta_pow = s
    for j, r in enumerate(coeffs):
        if j > 0:
            theta_pow = theta_pow.theta()
        if r.is_zero():
            continue
        rs, v = r.to_biseries(N, K)
        piece = (rs * theta_pow).div_z(v)
        out = piece if out is None else out + piece
    return BiSeries.zeros(N, K) if out is None else out


# ---------------------------------------------------------------------------
# the hypergeometric series oracle


def series_of_hyper(f: HyperFn, N: int, K: int) -> BiSeries:
    """The defining series of f as a BiSeries, kappa absorbed into z powers."""
    for b in f.lower:
        if b.is_integer() and b.const <= 0:
            raise PoleAtEpsZero(f"lower parameter {b} is a non-positive integer at eps=0")
    # term j is num[k]/den at eps^k, updated in place by one linear eps factor
    # (p0 + p1 eps)/q per parameter and reduced once per index
    num, den = [1] + [0] * K, 1
    terms = [(num[:], 1)]
    kn, kd = 1, 1
    for j in range(N):
        for a in f.upper:
            p0, p1, q = _integer_linear(a, j)
            for k in range(K, 0, -1):
                num[k] = p0 * num[k] + p1 * num[k - 1]
            num[0] *= p0
            den *= q
        for b in f.lower:
            p0, p1, q = _integer_linear(b, j)
            if p0 == 0:
                raise PoleAtEpsZero(f"lower parameter {b} hits 0 at series index {j}")
            # o[k] = (t[k] - c1 o[k-1]) / c0, with o[k] scaled by den * p0^(k+1)
            o = 0
            for k in range(K + 1):
                o = q * num[k] * p0 ** k - p1 * o
                num[k] = o * p0 ** (K - k)
            den *= p0 ** (K + 1)
        den *= j + 1
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [c // g for c in num]
        kn, kd = kn * f.kappa.numerator, kd * f.kappa.denominator
        terms.append(([c * kn for c in num], den * kd))
    L = lcm(*(d for _, d in terms))
    nums = []
    for t, d in terms:
        m = L // d
        nums += [c * m for c in t]
    return _reduced(nums, L, N, K)


def _integer_linear(x: EpsLin, j: int):
    """(p0, p1, q) in integers with x + j = (p0 + p1 eps)/q."""
    c0, c1 = x.const + j, x.eps
    q = lcm(c0.denominator, c1.denominator)
    return c0.numerator * (q // c0.denominator), c1.numerator * (q // c1.denominator), q


def compose_z_series(s: BiSeries, zser: Sequence[Fraction], M: int) -> BiSeries:
    """Substitute z -> zser(xi) (a series with zero constant term) into s.

    Returns a BiSeries in the new variable, valid to order M in it as long
    as zser starts at order v >= 1 with s.z_order * v >= M.
    """
    if zser and zser[0] != 0:
        raise ValueError("composition requires a series with zero constant term")
    K = s.eps_order
    W = K + 1
    zs = list(zser[:M + 1]) + [0] * max(0, M + 1 - len(zser))
    v = next((i for i, c in enumerate(zs) if c != 0), M + 1)
    if v >= 1 and s.z_order * v < M:
        raise ValueError(f"need z order >= {-(-M // v)} to compose to order {M}")
    # z^j is power[i] / D^j at xi^i; its lowest term is at xi^(j v), so rows
    # j <= J reach order M, and all of them go over s.den * D^J
    D = lcm(*(c.denominator for c in zs))
    zn = [(i, c.numerator * (D // c.denominator)) for i, c in enumerate(zs) if c]
    J = min(s.z_order, M // v)
    power, scale = [1] + [0] * M, D ** J
    out = [0] * ((M + 1) * W)
    for j in range(J + 1):
        if j > 0:
            nxt = [0] * (M + 1)
            for a, p in enumerate(power):
                if p:
                    for b, n in zn:
                        if a + b > M:
                            break
                        nxt[a + b] += p * n
            power, scale = nxt, scale // D
        for k, n in enumerate(s.nums[j * W:(j + 1) * W]):
            if n:
                n *= scale
                for i, p in enumerate(power):
                    if p:
                        out[i * W + k] += p * n
    return _reduced(out, s.den * D ** J, M, K)
