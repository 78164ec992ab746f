"""Exact multivariate polynomials over Q.

A polynomial in variables ``(v1, ..., vk)`` is stored as a recursive dense
representation: depth 0 is a ``Fraction``; depth d is a tuple of depth-(d-1)
coefficients of the powers of ``vk`` (the *last* variable is the outermost
one).  The zero polynomial at depth >= 1 is the empty tuple, and reps never
carry trailing zero coefficients, so structural equality is semantic
equality.

GCDs use one primitive pseudo-remainder sequence at every depth, with no
fast path in front of it: the reduction clears its denominators by trial
division over known linear factors, so a traced seed-1 ``bench/run.py``
stream counts 0 gcd calls on ``reduce`` and ``diagram`` and 50 small
univariate ones on ``expand``.  The result is normalized to lead
coefficient 1.  Everything is immutable and exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Mapping, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# raw-rep helpers; ``d`` is the nesting depth (number of variables)

def _zero(d):
    return _ZERO if d == 0 else ()


def _const(d, q):
    q = Fraction(q)
    if q == 0:
        return _zero(d)
    rep = q
    for _ in range(d):
        rep = (rep,)
    return rep


def _trim(rep, d):
    if d == 0:
        return rep
    out = list(rep)
    while out and _is_zero(out[-1], d - 1):
        out.pop()
    return tuple(out)


def _is_zero(rep, d):
    if d == 0:
        return rep == 0
    return len(rep) == 0


def _add(a, b, d):
    if d == 0:
        return a + b
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = _add(out[i], c, d - 1)
    return _trim(tuple(out), d)


def _neg(a, d):
    if d == 0:
        return -a
    return tuple(_neg(c, d - 1) for c in a)


def _sub(a, b, d):
    return _add(a, _neg(b, d), d)


def _mul(a, b, d):
    if d == 0:
        return a * b
    if not a or not b:
        return ()
    out = [_zero(d - 1)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if _is_zero(ca, d - 1):
            continue
        for j, cb in enumerate(b):
            if _is_zero(cb, d - 1):
                continue
            out[i + j] = _add(out[i + j], _mul(ca, cb, d - 1), d - 1)
    return _trim(tuple(out), d)


def _scale(a, q, d):
    """Multiply by a Fraction."""
    if q == 0:
        return _zero(d)
    if d == 0:
        return a * q
    return tuple(_scale(c, q, d - 1) for c in a)


def _mul_elem(a, e, d):
    """Multiply a depth-d rep by a depth-(d-1) element coefficient-wise."""
    if _is_zero(e, d - 1):
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
    """The Fraction a constant rep stands for (0 for zero); None if not constant."""
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


def _derivative(rep, d):
    """Derivative in the top variable."""
    if len(rep) <= 1:
        return ()
    return _trim(tuple(_scale(c, Fraction(i), d - 1) for i, c in enumerate(rep) if i), d)


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
    while not _is_zero(r, d) and _degree(r) >= db:
        k = _degree(r) - db
        lr = r[-1]
        r = _sub(_mul_elem(r, lb, d), _shift(_mul_elem(b, lr, d), k, d), d)
    return r


def _exact_div_elem(a, e, d):
    """Divide a depth-d rep by a depth-(d-1) element, asserting exactness."""
    if d == 1:
        return _trim(tuple(c / e for c in a), d)
    return _trim(tuple(_exact_div(c, e, d - 1) for c in a), d)


def _exact_div(a, b, d):
    """Exact polynomial division; raises ZeroDivisionError / ValueError."""
    if d == 0:
        return a / b
    if _is_zero(b, d):
        raise ZeroDivisionError("polynomial division by zero")
    if _is_zero(a, d):
        return ()
    db = _degree(b)
    lb = b[-1]
    q = [_zero(d - 1)] * (len(a) - db)
    r = a
    while not _is_zero(r, d) and _degree(r) >= db:
        k = _degree(r) - db
        c = _exact_div(r[-1], lb, d - 1) if d > 1 else r[-1] / lb
        q[k] = c
        r = _sub(r, _shift(_mul_elem(b, c, d), k, d), d)
    if not _is_zero(r, d):
        raise ValueError("inexact polynomial division")
    return _trim(tuple(q), d)


def _div_root(a, i, r, d):
    """a / (x_i - r) if exact, else None; x_(d-1) is the top variable."""
    if _is_zero(a, d):
        return a
    if i < d - 1:
        out = []
        for c in a:
            q = _div_root(c, i, r, d - 1)
            if q is None:
                return None
            out.append(q)
        return tuple(out)
    q = [None] * (len(a) - 1)
    acc = a[-1]
    for j in range(len(a) - 2, -1, -1):
        q[j] = acc
        acc = _add(a[j], _scale(acc, r, d - 1), d - 1)
    return tuple(q) if _is_zero(acc, d - 1) else None


def _unit_normalize(a, d):
    if _is_zero(a, d):
        return a
    lf = _lead_fraction(a, d)
    return _scale(a, 1 / lf, d)


def _content(a, d):
    """GCD of the top-variable coefficients (a depth-(d-1) element)."""
    c = _zero(d - 1)
    for coeff in a:
        c = _gcd(c, coeff, d - 1)
        if _const_rep_value(c, d - 1) == 1:
            break
    return c


def _rat_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd over Q normalized so primitive parts get coprime integer parts."""
    from math import gcd, lcm
    return Fraction(gcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator))


def _gcd(a, b, d):
    if d == 0:
        # rational content convention: gcd(0, b) = |b|
        if a == 0:
            return abs(b)
        if b == 0:
            return abs(a)
        return _rat_gcd(a, b)
    if _is_zero(a, d):
        return _unit_normalize(b, d)
    if _is_zero(b, d):
        return _unit_normalize(a, d)
    ca, cb = _content(a, d), _content(b, d)
    pa = _exact_div_elem(a, ca, d)
    pb = _exact_div_elem(b, cb, d)
    cg = _gcd(ca, cb, d - 1)
    if _degree(pa) < _degree(pb):
        pa, pb = pb, pa
    while not _is_zero(pb, d):
        r = _prem(pa, pb, d)
        if not _is_zero(r, d):
            r = _exact_div_elem(r, _content(r, d), d)
        pa, pb = pb, r
    pa = _exact_div_elem(pa, _content(pa, d), d)
    return _unit_normalize(_mul_elem(pa, cg, d), d)


def _to_terms(rep, d, prefix, out):
    if d == 0:
        if rep != 0:
            out[prefix] = rep
        return
    for i, c in enumerate(rep):
        _to_terms(c, d - 1, (i,) + prefix, out)


def _from_terms(terms, d):
    if d == 0:
        return terms.get((), _ZERO)
    by_exp = {}
    for exps, q in terms.items():
        by_exp.setdefault(exps[-1], {})[exps[:-1]] = q
    if not by_exp:
        return ()
    top = max(by_exp)
    return _trim(tuple(_from_terms(by_exp.get(i, {}), d - 1) for i in range(top + 1)), d)


# ---------------------------------------------------------------------------


class Poly:
    """Immutable multivariate polynomial with Fraction coefficients."""

    __slots__ = ("vars", "rep")

    def __init__(self, vars: tuple, rep):
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # construction -----------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, _zero(len(vars)))

    @classmethod
    def const(cls, vars, q):
        return cls(vars, _const(len(vars), q))

    @classmethod
    def variable(cls, vars, name):
        i = tuple(vars).index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls.from_terms(vars, {exps: _ONE})

    @classmethod
    def from_terms(cls, vars, terms: Mapping[tuple, Fraction]):
        clean = {tuple(e): Fraction(q) for e, q in terms.items() if q != 0}
        return cls(vars, _from_terms(clean, len(vars)))

    # queries ------------------------------------------------------------

    @property
    def d(self):
        return len(self.vars)

    def is_zero(self):
        return _is_zero(self.rep, self.d)

    def is_const(self):
        return _const_rep_value(self.rep, self.d) is not None

    def const_value(self) -> Fraction:
        q = _const_rep_value(self.rep, self.d)
        if q is None:
            raise ValueError(f"not a constant: {self}")
        return q

    def degree(self) -> int:
        """Degree in the last (top) variable; -1 if zero."""
        if self.d == 0:
            return 0 if self.rep else -1
        return _degree(self.rep)

    def lead_fraction(self) -> Fraction:
        return _lead_fraction(self.rep, self.d)

    def terms(self):
        out = {}
        _to_terms(self.rep, self.d, (), out)
        return out

    # arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return Poly(self.vars, _add(self.rep, other.rep, self.d))

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return Poly(self.vars, _sub(self.rep, other.rep, self.d))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        return Poly(self.vars, _mul(self.rep, other.rep, self.d))

    def __neg__(self):
        return Poly(self.vars, _neg(self.rep, self.d))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return Poly(self.vars, _pow(self.rep, n, self.d))

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
        return Poly(self.vars, _scale(self.rep, Fraction(q), self.d))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        return isinstance(other, Poly) and self.vars == other.vars and self.rep == other.rep

    def __hash__(self):
        return hash((self.vars, self.rep))

    # calculus / structure ----------------------------------------------

    def derivative_top(self):
        """d/d(top variable)."""
        return Poly(self.vars, _derivative(self.rep, self.d))

    def gcd(self, other):
        self._check(other)
        return Poly(self.vars, _gcd(self.rep, other.rep, self.d))

    def exact_div(self, other):
        self._check(other)
        return Poly(self.vars, _exact_div(self.rep, other.rep, self.d))

    def div_root(self, name, r):
        """self / (name - r) when that linear factor divides self, else None.

        Synthetic division: its remainder is self at name = r, so a factor
        that does not divide costs one evaluation and no exact_div.
        """
        q = _div_root(self.rep, self.vars.index(name), Fraction(r), self.d)
        return None if q is None else Poly(self.vars, q)

    def subst(self, new_vars, mapping: Mapping[str, "Poly"]):
        """Map each variable to a polynomial over ``new_vars``."""
        values = {}
        for v in self.vars:
            img = mapping.get(v)
            if img is None:
                img = Poly.variable(new_vars, v)
            if img.vars != tuple(new_vars):
                raise ValueError("substitution image over wrong variables")
            values[v] = img
        acc = Poly.zero(new_vars)
        for exps, q in self.terms().items():
            term = Poly.const(new_vars, q)
            for v, e in zip(self.vars, exps):
                if e:
                    term = term * values[v] ** e
            acc = acc + term
        return acc

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

    __repr__ = __str__


def theta_poly(roots: Sequence[Poly], one: Poly) -> List[Poly]:
    """Coefficients in theta of prod (theta + r), the r commuting with theta."""
    coeffs = [one]
    for r in roots:
        nxt = [c * r for c in coeffs] + [coeffs[-1]]
        for i in range(1, len(coeffs)):
            nxt[i] = nxt[i] + coeffs[i - 1]
        coeffs = nxt
    return coeffs
