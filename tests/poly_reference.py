"""Reference gcd for tests/test_poly.py that the program never calls.

Euclid over Q on univariate polynomials, every remainder made monic to
keep the coefficients small.  ``Poly.gcd`` runs the primitive
pseudo-remainder sequence at every depth instead, so the two share no
division or remainder code and equal results are an independent check.
"""

from __future__ import annotations

from fractions import Fraction

from hyperred.poly import Poly


def _rem(a, b):
    """Remainder of a by b; both lists of Fraction coefficients, low degree first."""
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b) and r:
        if r[-1] == 0:
            r.pop()
            continue
        k = len(r) - len(b)
        c = r[-1] / lb
        for i, cb in enumerate(b):
            r[i + k] -= c * cb
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials in one variable (zero if both are zero)."""
    if a.d != 1 or b.vars != a.vars:
        raise ValueError("euclid_gcd takes two polynomials in the same single variable")
    x, y = list(a.rep), list(b.rep)
    while y:
        r = _rem(x, y)
        if r:
            r = [c / r[-1] for c in r]
        x, y = y, r
    if not x:
        return Poly.zero(a.vars)
    return Poly.from_terms(a.vars, {(i,): Fraction(c) / x[-1] for i, c in enumerate(x)})
