"""Reference polynomial arithmetic for tests/test_poly.py that the program never calls.

Two independent checks of ``hyperred.poly``:

- ``euclid_gcd``: Euclid over Q on univariate polynomials, every remainder
  made monic to keep the coefficients small.  ``Poly.gcd`` runs the
  primitive pseudo-remainder sequence at every depth instead, so the two
  share no division or remainder code.
- The ``Fraction``-leaf helpers below: the dense recursive rep with a
  ``Fraction`` at depth 0 that ``Poly`` used before it held an integer rep
  over one denominator.  ``frac_rep`` reads a ``Poly`` into that form, so
  every operation of the integer representation can be compared with the
  same operation on rational leaves.
"""

from __future__ import annotations

from fractions import Fraction

from hyperred.poly import Poly

_ZERO = Fraction(0)


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
    x = [Fraction(c, a.den) for c in a.rep]
    y = [Fraction(c, b.den) for c in b.rep]
    while y:
        r = _rem(x, y)
        if r:
            r = [c / r[-1] for c in r]
        x, y = y, r
    if not x:
        return Poly.zero(a.vars)
    return Poly.from_terms(a.vars, {(i,): Fraction(c) / x[-1] for i, c in enumerate(x)})


# ---------------------------------------------------------------------------
# Fraction-leaf reps; ``d`` is the nesting depth (number of variables)


def frac_rep(p: Poly):
    """p's rep with every integer divided by p.den."""
    def walk(rep, d):
        return Fraction(rep, p.den) if d == 0 else tuple(walk(c, d - 1) for c in rep)
    return walk(p.rep, p.d)


def zero(d):
    return _ZERO if d == 0 else ()


def const(d, q):
    q = Fraction(q)
    if q == 0:
        return zero(d)
    rep = q
    for _ in range(d):
        rep = (rep,)
    return rep


def trim(rep, d):
    if d == 0:
        return rep
    out = list(rep)
    while out and is_zero(out[-1], d - 1):
        out.pop()
    return tuple(out)


def is_zero(rep, d):
    if d == 0:
        return rep == 0
    return len(rep) == 0


def add(a, b, d):
    if d == 0:
        return a + b
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add(out[i], c, d - 1)
    return trim(tuple(out), d)


def neg(a, d):
    if d == 0:
        return -a
    return tuple(neg(c, d - 1) for c in a)


def sub(a, b, d):
    return add(a, neg(b, d), d)


def mul(a, b, d):
    if d == 0:
        return a * b
    if not a or not b:
        return ()
    out = [zero(d - 1)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if is_zero(ca, d - 1):
            continue
        for j, cb in enumerate(b):
            if is_zero(cb, d - 1):
                continue
            out[i + j] = add(out[i + j], mul(ca, cb, d - 1), d - 1)
    return trim(tuple(out), d)


def scale(a, q, d):
    """Multiply by a Fraction."""
    if q == 0:
        return zero(d)
    if d == 0:
        return a * q
    return tuple(scale(c, q, d - 1) for c in a)


def _mul_elem(a, e, d):
    """Multiply a depth-d rep by a depth-(d-1) element coefficient-wise."""
    if is_zero(e, d - 1):
        return ()
    return trim(tuple(mul(c, e, d - 1) for c in a), d)


def power(a, n, d):
    out = const(d, 1)
    for _ in range(n):
        out = mul(out, a, d)
    return out


def _degree(rep):
    return len(rep) - 1


def _const_rep_value(rep, d):
    while d > 0:
        if not rep:
            return _ZERO
        if len(rep) > 1:
            return None
        rep = rep[0]
        d -= 1
    return rep


def _lead_fraction(rep, d):
    while d > 0:
        rep = rep[-1]
        d -= 1
    return rep


def derivative(rep, d):
    """Derivative in the top variable."""
    if len(rep) <= 1:
        return ()
    return trim(tuple(scale(c, Fraction(i), d - 1) for i, c in enumerate(rep) if i), d)


def _shift(rep, k, d):
    if not rep:
        return ()
    return (zero(d - 1),) * k + tuple(rep)


def _prem(a, b, d):
    """Pseudo-remainder of a by b in the top variable (sloppy powers)."""
    db = _degree(b)
    lb = b[-1]
    r = a
    while not is_zero(r, d) and _degree(r) >= db:
        k = _degree(r) - db
        lr = r[-1]
        r = sub(_mul_elem(r, lb, d), _shift(_mul_elem(b, lr, d), k, d), d)
    return r


def _exact_div_elem(a, e, d):
    if d == 1:
        return trim(tuple(c / e for c in a), d)
    return trim(tuple(exact_div(c, e, d - 1) for c in a), d)


def exact_div(a, b, d):
    """Exact division over Q; raises ZeroDivisionError / ValueError."""
    if d == 0:
        return a / b
    if is_zero(b, d):
        raise ZeroDivisionError("polynomial division by zero")
    if is_zero(a, d):
        return ()
    db = _degree(b)
    lb = b[-1]
    q = [zero(d - 1)] * (len(a) - db)
    r = a
    while not is_zero(r, d) and _degree(r) >= db:
        k = _degree(r) - db
        c = exact_div(r[-1], lb, d - 1) if d > 1 else r[-1] / lb
        q[k] = c
        r = sub(r, _shift(_mul_elem(b, c, d), k, d), d)
    if not is_zero(r, d):
        raise ValueError("inexact polynomial division")
    return trim(tuple(q), d)


def div_root(a, i, r, d):
    """a / (x_i - r) if exact, else None; x_(d-1) is the top variable."""
    if is_zero(a, d):
        return a
    if i < d - 1:
        out = []
        for c in a:
            q = div_root(c, i, r, d - 1)
            if q is None:
                return None
            out.append(q)
        return tuple(out)
    q = [None] * (len(a) - 1)
    acc = a[-1]
    for j in range(len(a) - 2, -1, -1):
        q[j] = acc
        acc = add(a[j], scale(acc, r, d - 1), d - 1)
    return tuple(q) if is_zero(acc, d - 1) else None


def _unit_normalize(a, d):
    if is_zero(a, d):
        return a
    return scale(a, 1 / _lead_fraction(a, d), d)


def _content(a, d):
    c = zero(d - 1)
    for coeff in a:
        c = gcd(c, coeff, d - 1)
        if _const_rep_value(c, d - 1) == 1:
            break
    return c


def _rat_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd over Q normalized so primitive parts get coprime integer parts."""
    from math import gcd as igcd, lcm
    return Fraction(igcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator))


def gcd(a, b, d):
    """Monic gcd (the rational content at depth 0)."""
    if d == 0:
        if a == 0:
            return abs(b)
        if b == 0:
            return abs(a)
        return _rat_gcd(a, b)
    if is_zero(a, d):
        return _unit_normalize(b, d)
    if is_zero(b, d):
        return _unit_normalize(a, d)
    ca, cb = _content(a, d), _content(b, d)
    pa = _exact_div_elem(a, ca, d)
    pb = _exact_div_elem(b, cb, d)
    cg = gcd(ca, cb, d - 1)
    if _degree(pa) < _degree(pb):
        pa, pb = pb, pa
    while not is_zero(pb, d):
        r = _prem(pa, pb, d)
        if not is_zero(r, d):
            r = _exact_div_elem(r, _content(r, d), d)
        pa, pb = pb, r
    pa = _exact_div_elem(pa, _content(pa, d), d)
    return _unit_normalize(_mul_elem(pa, cg, d), d)


def to_terms(rep, d, prefix=(), out=None):
    """{exponents: Fraction} of the nonzero terms."""
    out = {} if out is None else out
    if d == 0:
        if rep != 0:
            out[prefix] = rep
        return out
    for i, c in enumerate(rep):
        to_terms(c, d - 1, (i,) + prefix, out)
    return out


def from_terms(terms, d):
    if d == 0:
        return terms.get((), _ZERO)
    by_exp = {}
    for exps, q in terms.items():
        if q != 0:
            by_exp.setdefault(exps[-1], {})[exps[:-1]] = Fraction(q)
    if not by_exp:
        return ()
    top = max(by_exp)
    return trim(tuple(from_terms(by_exp.get(i, {}), d - 1) for i in range(top + 1)), d)


def subst(a, d, images, d_new):
    """a with variable k mapped to the Fraction-leaf rep images[k] (depth d_new)."""
    acc = zero(d_new)
    for exps, q in to_terms(a, d).items():
        term = const(d_new, q)
        for img, e in zip(images, exps):
            term = mul(term, power(img, e, d_new), d_new)
        acc = add(acc, term, d_new)
    return acc
