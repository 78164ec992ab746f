"""Fraction reference for ``gpl.GplCombo``, which the program never calls.

``GplCombo`` keeps integer numerators over one denominator.  The functions
here redo its operations the way the module did before, on plain dicts
{word: {kernel: Fraction}} with one Fraction per coefficient: the kernel
product table, ``mul``, ``merge`` and ``theta_coeffs`` are the old
``_kernel_product``, ``_mul``, ``_merge`` and ``_theta_coeffs``.  Inputs
have no zero coefficients and no empty basis dicts, and neither have the
results, so a result equals ``GplCombo``'s rep read as Fractions exactly
when the two agree.  ``series`` expands each term directly to its Laurent
series, without ``BiSeries`` products.  ``word_series_rep`` is the integer
word-series kernel as it was before its per-coefficient factors were
tabulated, three products and a floor division per coefficient, for a
rep-for-rep comparison.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from hyperred.errors import UncancelledPole, UnsupportedClass
from hyperred.gpl import PolyLogExpr

F = Fraction
ONE = (0, 0)
_Z = (0, -1)


def word_series(w, N):
    """G(w; z) to z^N as Fractions, through ``PolyLogExpr.series``; the empty word's is 1."""
    return (PolyLogExpr({w: 1}) if w else PolyLogExpr((), 1)).series(N)


@lru_cache(maxsize=4096)
def word_series_rep(word, N):
    """G(word; z) to z^N as (nums, den): z^j is nums[j]/den, den > 0."""
    if not word:
        return (1,) + (0,) * N, 1
    a, (u, D) = Fraction(word[0]), word_series_rep(word[1:], N)
    L = lcm(*range(1, N + 1))
    if a == 0:
        if u[0] != 0:
            raise UncancelledPole(f"dt/t against constant term in G{word}")
        return (0,) + tuple(u[j] * (L // j) for j in range(1, N + 1)), D * L
    p, q = a.numerator, a.denominator
    pw = [p ** k for k in range(N + 1)]
    sign = 1 if pw[N] > 0 else -1
    C, out = 0, [0]
    for j in range(1, N + 1):
        C = q * (C - u[j - 1] * pw[j - 1])
        out.append(sign * C * pw[N - j] * (L // j))
    return tuple(out), sign * D * pw[N] * L


def kernel_product(k1, k2):
    """The product of two basis kernels, expanded in the basis."""
    (a, m), (b, n) = k1, k2
    if a == b:
        return {(a, m + n): F(1)}
    if n <= 0:
        (a, m), (b, n) = (b, n), (a, m)
    out = {}
    if m <= 0:
        # z^i = sum_k C(i,k) b^(i-k) (z-b)^k; the powers k >= n are polynomials
        for k in range(1 - m):
            c = comb(-m, k) * b ** (-m - k)
            if k < n:
                out[(b, n - k)] = c
            else:
                for l in range(k - n + 1):
                    kl = (0, -l)
                    out[kl] = out.get(kl, 0) + c * comb(k - n, l) * (-b) ** (k - n - l)
    else:
        for (p, mp), (q, mq) in (((a, m), (b, n)), ((b, n), (a, m))):
            for j in range(mp):
                out[(p, mp - j)] = F(comb(mq + j - 1, j) * (-1) ** j, (p - q) ** (mq + j))
    return {k: F(c) for k, c in out.items() if c}


def mul(r1, r2):
    out = {}
    for k1, c1 in r1.items():
        for k2, c2 in r2.items():
            c = c1 * c2
            for k, x in kernel_product(k1, k2).items():
                out[k] = out.get(k, 0) + c * x
    return {k: c for k, c in out.items() if c}


def merge(out, w, r):
    """out[w] += r, dropping cancelled kernels and emptied words."""
    s = dict(out.get(w, ()))
    for k, c in r.items():
        s[k] = s.get(k, 0) + c
    s = {k: c for k, c in s.items() if c}
    if s:
        out[w] = s
    else:
        out.pop(w, None)


def theta_coeffs(r):
    """theta (z-a)^-m = -m (z-a)^-m - m a (z-a)^-(m+1); at a = 0, theta z^i = i z^i."""
    out = {}
    for k, c in r.items():
        a, m = k
        out[k] = out.get(k, 0) - m * c
        if a:
            nk = (a, m + 1)
            out[nk] = out.get(nk, 0) - m * a * c
    return {k: c for k, c in out.items() if c}


def add(d1, d2):
    out = dict(d1)
    for w, r in d2.items():
        merge(out, w, r)
    return out


def scale_q(d, q):
    return {w: {k: c * q for k, c in r.items()} for w, r in d.items()} if q else {}


def scale(d, b):
    out = {w: mul(r, b) for w, r in d.items()}
    return {w: r for w, r in out.items() if r}


def theta(d):
    out = {}
    for w, r in d.items():
        merge(out, w, theta_coeffs(r))
        if w:
            merge(out, w[1:], mul(r, kernel_product(_Z, (w[0], 1))))
    return out


def series(terms, N):
    """z-series of sum r(z) G(w; z) over (w, r) pairs (or a dict) to order N;
    UncancelledPole if the sum keeps a pole at 0."""
    terms = list(terms.items()) if isinstance(terms, dict) else terms
    V = max((m for _, r in terms for a, m in r if a == 0 and m > 0), default=0)
    M = N + V
    acc = [F(0)] * (M + 1)                 # acc[j] is the coefficient of z^(j - V)
    for w, r in terms:
        rc = [F(0)] * (M + 1)              # z^V r(z)
        for (a, m), c in r.items():
            if a != 0:                     # (z-a)^-m = (-a)^-m sum C(m+k-1, k) (z/a)^k
                t = (F(-1) / a) ** m
                for k in range(N + 1):
                    rc[k + V] += c * t
                    t = t * (m + k) / ((k + 1) * a)
            elif m >= -N:
                rc[V - m] += c
        g = word_series(w, M)
        for j in range(M + 1):
            acc[j] += sum(rc[i] * g[j - i] for i in range(j + 1))
    if any(acc[:V]):
        raise UncancelledPole("pole at 0 not cancelled")
    return acc[V:]


def value_at_zero(d):
    return series(d, 0)[0]


def integrate(d):
    """int_0^z by the old level-by-level recursion: simple poles prepend
    letters, the rest goes by parts, the boundary value taken once."""
    out, edge, log_residue, current = {}, [], F(0), d
    while current:
        pending = {}
        for w, r in current.items():
            anti = {}
            for (a, m), c in r.items():
                if m != 1:
                    anti[(a, m - 1)] = c / (1 - m)
                elif a == 0 and not w:
                    log_residue += c
                else:
                    merge(out, (a,) + w, {ONE: c})
            if not anti:
                continue
            edge.append((w, anti))
            merge(out, w, anti)
            if w:
                merge(pending, w[1:], mul(anti, {(w[0], 1): F(-1)}))
        current = pending
    if log_residue != 0:
        raise UncancelledPole("int dt/t of a nonzero rational part")
    b = series(edge, 0)[0]
    if b != 0:
        merge(out, (), {ONE: -b})
    return out


def to_polylog(d, var="z"):
    if any(r.keys() != {ONE} for r in d.values()):
        raise UnsupportedClass("layer is not a pure polylog combination")
    return PolyLogExpr({w: r[ONE] for w, r in d.items() if w}, d.get((), {}).get(ONE, 0), var)
