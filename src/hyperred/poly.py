"""Exact multivariate polynomials over Q.

A polynomial in variables ``(v1, ..., vk)`` is an integer ``rep`` over one
positive integer ``den``.  ``rep`` is recursive and dense: depth 0 is an
``int``; depth d is a tuple of depth-(d-1) coefficients of the powers of
``vk`` (the *last* variable is the outermost one), with no trailing zeros,
so the zero polynomial at depth >= 1 is the empty tuple: a zero rep is
falsy at every depth, and the kernels test it so.  ``den`` is prime to the
content of ``rep`` (the gcd of its integers) and zero has den 1, so
structural equality is semantic equality; ``Poly(vars, rep, den)`` is the
one place that divides that gcd out.  Products multiply the
denominators and sums go over their lcm; a Fraction is built only where a
coefficient is read out or a rational comes in.

src works at two depths, (z,) and (eps, z) or (n, z), and the kernels are
flat there: at depth 1 ``_add``, ``_neg``, ``_mul``, ``_scale``,
``_div_int``, ``_div_root`` and ``_trim`` are single loops over ints, and
at depth 2 ``_mul`` accumulates every product of two rows into one int
list per power of the top variable, so the reduction's fold and its
clearing (``_div_root`` through ``_div_int``, ``_scale`` and ``_add``)
make no call per integer.  Deeper reps recurse down to them.  The
reduction calls these kernels on integer reps directly, with its constant
denominators in one int, so it builds no Poly and scans no content per
operation; a Poly's normalizing gcd of den with the integers of rep
(``_int_content``) runs where a value is built.  ``_theta_product`` is
the one expansion of prod (q theta + p0 + p1 v) over the integer forms
of linear parameters (``Linear.int_line``), for the reduction's relation
row and the expansion's eps-theta tables.

GCDs use one primitive pseudo-remainder sequence over Z at every depth,
with no fast path in front of it, normalized to lead coefficient 1.  The
reduction and ``RatFunc.over`` clear their denominators by trial division
over known linear factors q x - p, recorded by root (``_cancel``, below),
so a traced seed-1 ``bench/run.py`` stream counts 0 gcd calls on every
workload; ``gpl.partial_fractions`` factors a denominator over its
alphabet through ``_cancel`` too.  ``_cancel`` and its ``_div_root`` are
the one division by a linear factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Mapping, Tuple

from .value import Value


# ---------------------------------------------------------------------------
# raw-rep helpers; ``d`` is the nesting depth (number of variables)

def _zero(d):
    return 0 if d == 0 else ()


def _const(d, n):
    return _monomial(d, -1, n)


def _monomial(d, i, n):
    """n x_i at depth d; the constant n for i = -1."""
    if n == 0:
        return _zero(d)
    rep = n
    for j in range(d):
        rep = (_zero(j), rep) if j == i else (rep,)
    return rep


def _trim(rep, d):
    """rep (a tuple or list) as a tuple without trailing zeros, at any depth."""
    if d == 0:
        return rep
    n = len(rep)
    while n and not rep[n - 1]:
        n -= 1
    return tuple(rep[:n])


def _add(a, b, d):
    if d == 0:
        return a + b
    if len(a) < len(b):
        a, b = b, a
    if d == 1:
        out = [x + y for x, y in zip(a, b)]
    else:
        out = [_add(x, y, d - 1) for x, y in zip(a, b)]
    if len(a) > len(b):
        return tuple(out) + a[len(b):]
    return _trim(out, d)


def _neg(a, d):
    if d == 0:
        return -a
    if d == 1:
        return tuple([-c for c in a])
    return tuple(_neg(c, d - 1) for c in a)


def _mac(out, a, b):
    """out[i + j] += a[i] b[j] over int lists, the inner loop over the longer one."""
    if len(a) > len(b):
        a, b = b, a
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _mul(a, b, d):
    """The product; flat at depth 1, and at depth 2 fused into one int list per top power."""
    if d == 0:
        return a * b
    if not a or not b:
        return ()
    # the top coefficient is a product of nonzero top coefficients: no trim at the top
    if d == 1:
        return tuple(_mac([0] * (len(a) + len(b) - 1), a, b))
    if d == 2:
        rows = [[] for _ in range(len(a) + len(b) - 1)]
        for i, ca in enumerate(a):
            if ca:
                for row, cb in zip(rows[i:], b):
                    if cb:
                        n = len(ca) + len(cb) - 1
                        if len(row) < n:
                            row += [0] * (n - len(row))
                        _mac(row, ca, cb)
        return tuple([_trim(row, 1) for row in rows])
    out = [()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                if cb:
                    out[j] = _add(out[j], _mul(ca, cb, d - 1), d - 1)
    return tuple(out)


def _scale(a, n, d):
    """Multiply by an int."""
    if n == 1:
        return a
    if n == 0:
        return _zero(d)
    if d == 0:
        return a * n
    if d == 1:
        return tuple([c * n for c in a])
    return tuple(_scale(c, n, d - 1) for c in a)


def _div_int(a, n, d):
    """a / n for an int n, or None when some integer of a is not a multiple."""
    if d == 0:
        q, r = divmod(a, n)
        return None if r else q
    if d == 1:
        if any(c % n for c in a):
            return None
        return tuple([c // n for c in a])
    out = []
    for c in a:
        c = _div_int(c, n, d - 1)
        if c is None:
            return None
        out.append(c)
    return tuple(out)


def _int_content(a, d, g=0):
    """gcd of g and every integer of a (non-negative), stopping at 1."""
    if d <= 1:
        return gcd(g, *a) if d else gcd(g, a)
    for c in reversed(a):
        g = _int_content(c, d - 1, g)
        if g == 1:
            break
    return g


def _mul_elem(a, e, d):
    """Multiply a depth-d rep by a depth-(d-1) element coefficient-wise."""
    if not e:
        return ()
    return _trim(tuple(_mul(c, e, d - 1) for c in a), d)


def _pow(a, n, d):
    out = _const(d, 1)
    base = a
    while n:
        if n & 1:
            out = _mul(out, base, d)
        base = _mul(base, base, d)
        n >>= 1
    return out


def _degree(rep):
    """Degree in the top variable; -1 for the zero polynomial."""
    return len(rep) - 1


def _const_rep_value(rep, d):
    """The int a constant rep stands for (0 for zero); None if not constant."""
    while d > 0:
        if not rep:
            return 0
        if len(rep) > 1:
            return None
        rep = rep[0]
        d -= 1
    return rep


def _lead(rep, d):
    while d > 0:
        rep = rep[-1]
        d -= 1
    return rep


def _derivative(rep, d):
    """Derivative in the top variable."""
    if len(rep) <= 1:
        return ()
    return _trim(tuple(_scale(c, i, d - 1) for i, c in enumerate(rep) if i), d)


def _shift(rep, k, d):
    """Multiply by top_var**k."""
    if not rep:
        return ()
    return (_zero(d - 1),) * k + tuple(rep)


def _prem(a, b, d):
    """Pseudo-remainder of a by b in the top variable (sloppy powers)."""
    db = _degree(b)
    lb = b[-1]
    r = a
    while r and _degree(r) >= db:
        k = _degree(r) - db
        lr = r[-1]
        r = _add(_mul_elem(r, lb, d), _neg(_shift(_mul_elem(b, lr, d), k, d), d), d)
    return r


def _exact_div_elem(a, e, d):
    """Divide a depth-d rep by a depth-(d-1) element, asserting exactness."""
    return _trim(tuple(_exact_div(c, e, d - 1) for c in a), d)


def _exact_div(a, b, d):
    """Exact division over Z; raises ZeroDivisionError / ValueError."""
    if d == 0:
        q, r = divmod(a, b)
        if r:
            raise ValueError("inexact polynomial division")
        return q
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    db = _degree(b)
    lb = b[-1]
    q = [_zero(d - 1)] * (len(a) - db)
    r = a
    while r and _degree(r) >= db:
        k = _degree(r) - db
        c = _exact_div(r[-1], lb, d - 1)
        q[k] = c
        r = _add(r, _neg(_shift(_mul_elem(b, c, d), k, d), d), d)
    if r:
        raise ValueError("inexact polynomial division")
    return _trim(tuple(q), d)


def _div_root(a, i, p, q, d):
    """a / (q x_i - p) if exact, else None; x_(d-1) is the top variable.

    q x_i - p is primitive, so a quotient is integral (Gauss's lemma).
    Top coefficients first: a reduction row's low ones carry the factors.
    """
    if not a:
        return a
    if i < d - 1:
        out = []
        for c in reversed(a):
            c = _div_root(c, i, p, q, d - 1)
            if c is None:
                return None
            out.append(c)
        return tuple(reversed(out))
    b = [None] * (len(a) - 1)
    acc = a[-1]
    if d == 1:
        for j in range(len(a) - 2, -1, -1):
            if q != 1:
                acc, r = divmod(acc, q)
                if r:
                    return None
            b[j] = acc
            acc = a[j] + acc * p
        return None if acc else tuple(b)
    for j in range(len(a) - 2, -1, -1):
        acc = _div_int(acc, q, d - 1) if q != 1 else acc
        if acc is None:
            return None
        b[j] = acc
        acc = _add(a[j], _scale(acc, p, d - 1), d - 1)
    return None if acc else tuple(b)


def _content(a, d):
    """GCD of the top-variable coefficients (a depth-(d-1) element)."""
    c = _zero(d - 1)
    for coeff in a:
        c = _gcd(c, coeff, d - 1)
        if c == _const(d - 1, 1):
            break
    return c


def _gcd(a, b, d):
    """gcd over Z, up to sign, its integer content included."""
    if d == 0:
        return gcd(a, b)
    if not a:
        return b
    if not b:
        return a
    ca, cb = _content(a, d), _content(b, d)
    pa = _exact_div_elem(a, ca, d)
    pb = _exact_div_elem(b, cb, d)
    cg = _gcd(ca, cb, d - 1)
    if _degree(pa) < _degree(pb):
        pa, pb = pb, pa
    while pb:
        r = _prem(pa, pb, d)
        if r:
            r = _exact_div_elem(r, _content(r, d), d)
        pa, pb = pb, r
    pa = _exact_div_elem(pa, _content(pa, d), d)
    return _mul_elem(pa, cg, d)


def _to_terms(rep, d, den, prefix, out):
    if d == 0:
        if rep != 0:
            out[prefix] = Fraction(rep, den)
        return
    for i, c in enumerate(rep):
        _to_terms(c, d - 1, den, (i,) + prefix, out)


def _from_terms(terms, d):
    if d == 0:
        return terms.get((), 0)
    by_exp = {}
    for exps, n in terms.items():
        by_exp.setdefault(exps[-1], {})[exps[:-1]] = n
    if not by_exp:
        return ()
    top = max(by_exp)
    return _trim(tuple(_from_terms(by_exp.get(i, {}), d - 1) for i in range(top + 1)), d)


# ---------------------------------------------------------------------------


class Poly(Value):
    """Immutable multivariate polynomial: integer rep over a positive den."""

    __slots__ = ("vars", "rep", "den")

    def __init__(self, vars: tuple, rep, den: int = 1):
        """rep / den for an integer rep and den > 0, in the canonical form."""
        if den != 1:
            g = _int_content(rep, len(vars), den)
            if g != 1:
                rep, den = _div_int(rep, g, len(vars)), den // g
        self._set(tuple(vars), rep, den)

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, _zero(len(vars)))

    @classmethod
    def const(cls, vars, q):
        q = Fraction(q)
        return cls(vars, _const(len(vars), q.numerator), q.denominator)

    @classmethod
    def variable(cls, vars, name):
        return cls(vars, _monomial(len(vars), tuple(vars).index(name), 1))

    @classmethod
    def from_terms(cls, vars, terms: Mapping[tuple, Fraction]):
        clean = {tuple(e): Fraction(q) for e, q in terms.items() if q != 0}
        den = lcm(*(q.denominator for q in clean.values()))
        ints = {e: q.numerator * (den // q.denominator) for e, q in clean.items()}
        return cls(vars, _from_terms(ints, len(vars)), den)

    # queries ------------------------------------------------------------

    @property
    def d(self):
        return len(self.vars)

    def is_zero(self):
        return not self.rep

    def is_const(self):
        return _const_rep_value(self.rep, self.d) is not None

    def const_value(self) -> Fraction:
        n = _const_rep_value(self.rep, self.d)
        if n is None:
            raise ValueError(f"not a constant: {self}")
        return Fraction(n, self.den)

    def degree(self) -> int:
        """Degree in the last (top) variable; -1 if zero."""
        if self.d == 0:
            return 0 if self.rep else -1
        return _degree(self.rep)

    def lead_fraction(self) -> Fraction:
        return Fraction(_lead(self.rep, self.d), self.den)

    def terms(self):
        out = {}
        _to_terms(self.rep, self.d, self.den, (), out)
        return out

    # arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        """The sum over the lcm of the denominators."""
        other = self._coerce(other)
        self._check(other)
        a, b, d, den = self.rep, other.rep, self.d, other.den
        if den != self.den:
            den = lcm(self.den, other.den)
            a, b = _scale(a, den // self.den, d), _scale(b, den // other.den, d)
        return Poly(self.vars, _add(a, b, d), den)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        return Poly(self.vars, _mul(self.rep, other.rep, self.d), self.den * other.den)

    def __neg__(self):
        return Poly._of(self.vars, _neg(self.rep, self.d), self.den)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return Poly(self.vars, _pow(self.rep, n, self.d), self.den ** n)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.vars, other)
        return NotImplemented

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def scale(self, q):
        q = Fraction(q)
        return Poly(self.vars, _scale(self.rep, q.numerator, self.d), self.den * q.denominator)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        return (isinstance(other, Poly) and self.vars == other.vars
                and self.rep == other.rep and self.den == other.den)

    def __hash__(self):
        return hash((self.vars, self.rep, self.den))

    # calculus / structure ----------------------------------------------

    def derivative_top(self):
        """d/d(top variable)."""
        return Poly(self.vars, _derivative(self.rep, self.d), self.den)

    def gcd(self, other):
        """The gcd over Q with lead coefficient 1 (the rational content at depth 0)."""
        self._check(other)
        g = _gcd(self.rep, other.rep, self.d)
        if self.d == 0:
            return Poly(self.vars, g, lcm(self.den, other.den))
        lead = _lead(g, self.d) if g else 1
        return Poly(self.vars, g if lead > 0 else _neg(g, self.d), abs(lead))

    def exact_div(self, other):
        """self / other, or ValueError; over Z once other's content is off (Gauss)."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        c = _int_content(other.rep, self.d)
        q = _exact_div(self.rep, _div_int(other.rep, c, self.d), self.d)
        return Poly(self.vars, _scale(q, other.den, self.d), self.den * c)

    def at_line(self, p0: int, p1: int, q: int, var: str = "eps") -> "Poly":
        """self at its first variable x = (p0 + p1 var) / q, over (var,) + vars[1:].

        By Horner's rule on integers each coefficient sum c_i x^i becomes
        sum c_i (p0 + p1 var)^i q^(D-i) over q^D, D the top degree in x,
        which is normalized once.
        """
        line = _trim((p0, p1), 1)

        def top(rep, d):
            return len(rep) - 1 if d == 1 else max((top(c, d - 1) for c in rep), default=-1)
        D = max(top(self.rep, self.d), 0)

        def horner(rep, d):
            if d > 1:
                return _trim([horner(c, d - 1) for c in rep], d)
            acc = ()
            for i in range(len(rep) - 1, -1, -1):
                acc = _add(_mul(acc, line, 1), _const(1, rep[i] * q ** (D - i)), 1)
            return acc
        return Poly((var,) + self.vars[1:], horner(self.rep, self.d), self.den * q ** D)

    # display -------------------------------------------------------------

    def __str__(self):
        terms = self.terms()
        if not terms:
            return "0"
        pieces = []
        for exps in sorted(terms, reverse=True):
            q = terms[exps]
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                body = str(q)
            else:
                mon = "*".join(factors)
                if q == 1:
                    body = mon
                elif q == -1:
                    body = f"-{mon}"
                else:
                    body = f"{q}*{mon}"
            pieces.append(body)
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _theta_product(params):
    """(the theta-coefficients of prod (q theta + p0 + p1 v), prod q) for integer
    params (p0, p1, q); each coefficient is a rep in v alone."""
    coeffs, D = [(1,)], 1
    for p0, p1, q in params:
        r = _trim((p0, p1), 1)
        nxt = [_mul(c, r, 1) for c in coeffs] + [()]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = _add(nxt[i + 1], _scale(c, q, 1), 1)
        coeffs, D = nxt, D * q
    return coeffs, D


# ---------------------------------------------------------------------------
# products of known linear factors, cleared by trial division instead of a gcd

# Linear factors x - r keyed by (x, r), with their multiplicities.  On integer
# reps, (P, factors, K) stands for P / (K * prod (q x - p)^m), r = p/q, with
# q x - p primitive and K a nonzero int; RatFunc.over reads the monic form.
Factors = Dict[Tuple[str, Fraction], int]


def _add_factor(factors: Factors, x: str, a: int, b: int, m: int = 1) -> int:
    """Record (a x + b)^m under (x, -b/a); returns the int k^m with a x + b = k (q x - p).

    For a = 0 nothing is recorded and b^m is returned.
    """
    if a == 0:
        return b ** m
    key = (x, Fraction(-b, a))
    factors[key] = factors.get(key, 0) + m
    return (a // key[1].denominator) ** m


def _factor_product(vars, factors: Factors):
    """The integer rep of prod (q x - p)^m: primitive (Gauss), its lead coefficient prod q^m."""
    d = len(vars)
    out = _const(d, 1)
    for (x, r), m in factors.items():
        f = _add(_monomial(d, vars.index(x), r.denominator), _const(d, -r.numerator), d)
        out = _mul(out, _pow(f, m, d), d)
    return out


def _monic_product(vars, factors: Factors) -> Poly:
    """prod (x - r)^m: the primitive ``_factor_product`` over its lead prod q^m."""
    lead = 1
    for (_, r), m in factors.items():
        lead *= r.denominator ** m
    return Poly._of(tuple(vars), _factor_product(vars, factors), lead)


def _cancel(reps, vars, factors: Factors, roots=None):
    """Divide each factor out of integer reps while it divides all of them.

    Returns the quotients and the factors left.  Every factor is linear,
    hence irreducible, so it is divided out, tested at its root by
    ``_div_root`` over its primitive form q x - p, for as long as it
    divides every rep; what is left then shares no factor with the
    quotients: the gcd-free form.  The quotients stay integral (Gauss).

    ``roots`` (None: all) are the only factors tried; the others are
    kept whole.  The reduction's fold passes the roots of the step it has
    just applied (``reduction._unit_step``): the linear factors of det P
    and the step's own factors, which it must try whatever det P is.
    That is sound for a factor f carried from earlier steps, which the
    clearing after the last one left, so f does not divide the row: if f
    divided row P, row mod f would be a nonzero vector over the domain
    Q[vars] / (f) with (row mod f)(P mod f) = 0, so P mod f would be
    singular and f would divide det P.
    """
    reps = list(reps)
    d = len(vars)
    live = [i for i, a in enumerate(reps) if a]
    left: Factors = {}
    for key, m in factors.items():
        if roots is None or key in roots:
            x, r = key
            i, p, q = vars.index(x), r.numerator, r.denominator
            while m:
                qs = []
                for j in live:
                    b = _div_root(reps[j], i, p, q, d)
                    if b is None:
                        break
                    qs.append(b)
                if len(qs) < len(live):
                    break
                for j, b in zip(live, qs):
                    reps[j] = b
                m -= 1
        if m:
            left[key] = m
    return reps, left
