"""Truncated power-series arithmetic: the verification oracle's currency.

A polynomial in eps truncated at eps^K is a plain tuple of K + 1 exact
rationals, index k holding the eps^k coefficient.  ``mul_trunc`` is the one
truncated product of such tuples and ``inv_trunc`` the one truncated
inverse.  ``BiSeries`` is a power series in z whose rows are such tuples;
every operation tracks the valid truncation orders and mixing truncations
takes the minimum.  Sums of products accumulate integer numerators per
denominator and build one Fraction per coefficient (``collect``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence

from .errors import PoleAtEpsZero, UncancelledPole
from .hyper import HyperFn
from .scalars import EpsLin, rat

_ZERO = Fraction(0)


class BiSeries:
    """Series in z up to z_order whose coefficients are eps-truncated.

    rows[j][k] is the coefficient of z^j eps^k.
    """

    __slots__ = ("z_order", "eps_order", "rows")

    def __init__(self, rows: Sequence[Sequence[Fraction]], z_order=None, eps_order=None):
        rows = tuple(tuple(rat(c) for c in r) for r in rows)
        if z_order is None:
            z_order = len(rows) - 1
        if eps_order is None:
            eps_order = len(rows[0]) - 1 if rows else 0
        if len(rows) != z_order + 1 or any(len(r) != eps_order + 1 for r in rows):
            raise ValueError("row shape does not match declared truncation orders")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "z_order", z_order)
        object.__setattr__(self, "eps_order", eps_order)

    def __setattr__(self, *a):
        raise AttributeError("BiSeries is immutable")

    @classmethod
    def zeros(cls, N: int, K: int):
        return cls(tuple((_ZERO,) * (K + 1) for _ in range(N + 1)))

    def get(self, j: int, k: int) -> Fraction:
        return self.rows[j][k]

    def eps_row(self, k: int) -> List[Fraction]:
        """The z-series at a fixed power of eps."""
        return [r[k] for r in self.rows]

    def crop(self, N: int, K: int) -> "BiSeries":
        N = min(N, self.z_order)
        K = min(K, self.eps_order)
        return BiSeries(tuple(r[:K + 1] for r in self.rows[:N + 1]))

    def _common(self, other):
        N = min(self.z_order, other.z_order)
        K = min(self.eps_order, other.eps_order)
        return N, K

    def __add__(self, other):
        N, K = self._common(other)
        return BiSeries(tuple(
            tuple(self.rows[j][k] + other.rows[j][k] for k in range(K + 1))
            for j in range(N + 1)))

    def __sub__(self, other):
        N, K = self._common(other)
        return BiSeries(tuple(
            tuple(self.rows[j][k] - other.rows[j][k] for k in range(K + 1))
            for j in range(N + 1)))

    def __neg__(self):
        return BiSeries(tuple(tuple(-c for c in r) for r in self.rows))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            return BiSeries(tuple(tuple(c * q for c in r) for r in self.rows))
        N, K = self._common(other)
        cells = [[{} for _ in range(K + 1)] for _ in range(N + 1)]
        right = _split_rows(other.rows, N, K)
        for j1, t1 in _split_rows(self.rows, N, K):
            for j2, t2 in right:
                if j1 + j2 > N:
                    break
                row = cells[j1 + j2]
                for k1, n1, d1 in t1:
                    for k2, n2, d2 in t2:
                        if k1 + k2 > K:
                            break
                        cell = row[k1 + k2]
                        d = d1 * d2
                        cell[d] = cell.get(d, 0) + n1 * n2
        return BiSeries(tuple(tuple(collect(c) for c in row) for row in cells))

    __rmul__ = __mul__

    def theta(self) -> "BiSeries":
        """z d/dz on the series."""
        return BiSeries(tuple(tuple(c * j for c in r) for j, r in enumerate(self.rows)))

    def div_z(self, v: int) -> "BiSeries":
        """Divide by z^v; the v lowest rows must vanish."""
        if v == 0:
            return self
        for j in range(min(v, self.z_order + 1)):
            if any(c != 0 for c in self.rows[j]):
                raise UncancelledPole(
                    f"1/z^{v} applied to series with nonzero z^{j} coefficient")
        return BiSeries(self.rows[v:], self.z_order - v, self.eps_order)

    def mul_z_power(self, v: int) -> "BiSeries":
        """Multiply by z^v (v >= 0); keeps the declared z order."""
        if v == 0:
            return self
        K = self.eps_order
        pad = tuple((_ZERO,) * (K + 1) for _ in range(min(v, self.z_order + 1)))
        return BiSeries((pad + self.rows)[:self.z_order + 1], self.z_order, K)

    def invert(self) -> "BiSeries":
        """1/series; the z^0 coefficient must be invertible in eps."""
        N, K = self.z_order, self.eps_order
        rows = self.rows
        c0 = inv_trunc(rows[0], K)
        out = [c0]
        for j in range(1, N + 1):
            s = [_ZERO] * (K + 1)
            for i in range(1, j + 1):
                for k, c in enumerate(mul_trunc(rows[i], out[j - i], K)):
                    s[k] += c
            out.append(tuple(-c for c in mul_trunc(s, c0, K)))
        return BiSeries(tuple(out))

    def is_zero(self) -> bool:
        return all(c == 0 for r in self.rows for c in r)

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        N, K = self._common(other)
        return all(self.rows[j][:K + 1] == other.rows[j][:K + 1] for j in range(N + 1))

    def first_mismatch(self, other):
        """Lowest (j, k) where the two series differ, or None."""
        N, K = self._common(other)
        for j in range(N + 1):
            for k in range(K + 1):
                if self.rows[j][k] != other.rows[j][k]:
                    return (j, k)
        return None

    def __str__(self):
        return f"BiSeries(N={self.z_order}, K={self.eps_order})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Pochhammer machinery and the hypergeometric series oracle


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


def series_of_hyper(f: HyperFn, N: int, K: int) -> BiSeries:
    """The defining series of f as a BiSeries, kappa absorbed into z powers."""
    for b in f.lower:
        if b.eps == 0 and b.const.denominator == 1 and b.const <= 0:
            raise PoleAtEpsZero(f"lower parameter {b} is a non-positive integer at eps=0")
    # term j is num[k]/den at eps^k, updated in place by one linear eps factor
    # (p0 + p1 eps)/q per parameter and reduced once per index
    num, den = [1] + [0] * K, 1
    rows = [tuple(Fraction(c) for c in num)]
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
        rows.append(tuple(Fraction(c * kn, den * kd) for c in num))
    return BiSeries(tuple(rows))


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
    zs = list(zser[:M + 1]) + [_ZERO] * max(0, M + 1 - len(zser))
    v = next((i for i, c in enumerate(zs) if c != 0), M + 1)
    if v >= 1 and s.z_order * v < M:
        raise ValueError(f"need z order >= {-(-M // v)} to compose to order {M}")
    # z^j is power[i] / pd at xi^i, kept as integers over D^j
    D = lcm(*(c.denominator for c in zs))
    zn = [(i, c.numerator * (D // c.denominator)) for i, c in enumerate(zs) if c]
    power, pd = [1] + [0] * M, 1
    rows = dict(_split_rows(s.rows, s.z_order, K))
    cells = [[{} for _ in range(K + 1)] for _ in range(M + 1)]
    for j in range(s.z_order + 1):
        if j > 0:
            nxt = [0] * (M + 1)
            for a, p in enumerate(power):
                if p:
                    for b, n in zn:
                        if a + b > M:
                            break
                        nxt[a + b] += p * n
            power, pd = nxt, pd * D
            if not any(power):
                break
        for k, n, d in rows.get(j, ()):
            d *= pd
            for i, p in enumerate(power):
                if p:
                    cell = cells[i][k]
                    cell[d] = cell.get(d, 0) + p * n
    return BiSeries(tuple(tuple(collect(c) for c in row) for row in cells))


def collect(cell: Dict[int, int]) -> Fraction:
    """The sum of n/d over a {d: n} map of integers, normalized once."""
    if not cell:
        return _ZERO
    L = lcm(*cell)
    return Fraction(sum(n * (L // d) for d, n in cell.items()), L)


def _split_rows(rows: Sequence[Sequence[Fraction]], N: int, K: int):
    """(j, [(k, numerator, denominator), ...]) for each nonzero row j <= N, k <= K."""
    out = []
    for j, r in enumerate(rows[:N + 1]):
        t = [(k, c.numerator, c.denominator) for k, c in enumerate(r[:K + 1]) if c]
        if not t:
            continue
        out.append((j, t))
    return out


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
