"""Rational functions of z with coefficients in a parameter field.

A RatFunc is a normalized fraction of polynomials whose variable tuple
ends in "z"; the earlier variables (if any) are symbolic parameters such
as "eps" or "n".  Expansion into a BiSeries requires the parameters to be
reduced to "eps" only.
"""

from __future__ import annotations

from fractions import Fraction
from .errors import PoleAtEpsZero
from .poly import Poly
from .series import BiSeries

_Z = "z"


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None, _normalized=False):
        if num.vars[-1:] != (_Z,):
            raise ValueError(f"RatFunc variables must end in 'z', got {num.vars}")
        if den is None:
            den = Poly.const(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            if num.is_zero():
                den = Poly.const(num.vars, 1)
            else:
                num, den = _cancel(num, den)
                lf = den.lead_fraction()
                if lf != 1:
                    num = num.scale(1 / lf)
                    den = den.scale(1 / lf)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    # constructors ---------------------------------------------------------

    @classmethod
    def const(cls, vars, q):
        return cls(Poly.const(vars, q), _normalized=True)

    # basics ---------------------------------------------------------------

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.is_const()

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.vars, other)
        if isinstance(other, Poly):
            return RatFunc(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        g = self.den.gcd(o.den)
        if g.is_const() and g.const_value() == 1:
            return _lead_normalized(self.num * o.den + o.num * self.den,
                                    self.den * o.den)
        db, dd = self.den.exact_div(g), o.den.exact_div(g)
        t = self.num * dd + o.num * db
        t, g = _cancel(t, g)
        return _lead_normalized(t, db * (dd * g))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        if self.is_zero() or o.is_zero():
            return RatFunc.const(self.vars, 0)
        # a constant is q/1 with q != 0: scaling the other numerator keeps it normalized
        if o.is_polynomial() and o.num.is_const():
            return RatFunc(self.num.scale(o.num.const_value()), self.den, _normalized=True)
        if self.is_polynomial() and self.num.is_const():
            return RatFunc(o.num.scale(self.num.const_value()), o.den, _normalized=True)
        num_a, den_b = _cancel(self.num, o.den)
        num_b, den_a = _cancel(o.num, self.den)
        return _lead_normalized(num_a * num_b, den_a * den_b)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * _lead_normalized(o.den, o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    # calculus ---------------------------------------------------------------

    def theta(self) -> "RatFunc":
        """z * d/dz of the function."""
        zp = Poly.variable(self.vars, _Z)
        return RatFunc(zp * (self.num.derivative_top() * self.den
                             - self.num * self.den.derivative_top()),
                       self.den * self.den)

    def subst_params(self, new_vars, mapping) -> "RatFunc":
        """Substitute parameter variables (z maps to itself)."""
        full = dict(mapping)
        full[_Z] = Poly.variable(new_vars, _Z)
        return RatFunc(self.num.subst(new_vars, full), self.den.subst(new_vars, full))

    # series ------------------------------------------------------------------

    def to_biseries(self, N: int, K: int):
        """Expand as z^(-v) * S with S a BiSeries valid to z-order N.

        Returns (S, v).  Parameters other than eps must have been bound.
        The z-valuations are those of the exact coefficients, so a lowest
        denominator row that vanishes at eps = 0 raises PoleAtEpsZero even
        when its eps terms all lie above eps^K.
        """
        if self.is_polynomial():
            # a normalized constant denominator is 1: the series is the numerator
            return _z_rows(self.num, 0, N, K), 0
        vn, vd = _valuation(self.num), _valuation(self.den)
        den = _z_rows(self.den, vd, N, K)
        if den.get(0, 0) == 0:
            raise PoleAtEpsZero(
                f"denominator {self.den} vanishes at eps=0 after removing z^{vd}")
        s = _z_rows(self.num, vn, N, K) * den.invert()
        v = vd - vn
        if v < 0:
            s = s.mul_z_power(-v)
            v = 0
        return s, v

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _cancel(num: Poly, den: Poly):
    """(num, den) divided by their gcd, with no division when the gcd is 1.

    A constant den (nonzero) is a unit, so it needs no gcd either.
    """
    if den.is_const():
        return num, den
    g = num.gcd(den)
    if g.is_const() and g.const_value() == 1:
        return num, den
    return num.exact_div(g), den.exact_div(g)


def _lead_normalized(num: Poly, den: Poly) -> RatFunc:
    """Wrap an already-coprime pair, scaling the denominator lead to 1."""
    if num.is_zero():
        return RatFunc.const(num.vars, 0)
    lf = den.lead_fraction()
    if lf != 1:
        num = num.scale(1 / lf)
        den = den.scale(1 / lf)
    return RatFunc(num, den, _normalized=True)


def _valuation(p: Poly) -> int:
    """Lowest power of z with a nonzero coefficient in a nonzero p."""
    return next(j for j, c in enumerate(p.rep) if c)


def _z_rows(p: Poly, v: int, N: int, K: int) -> BiSeries:
    """The coefficients of z^v .. z^(v+N) in p as rows of eps^0 .. eps^K.

    For vars (eps, z) each z-coefficient in the rep already is the tuple of
    its eps-coefficients; for vars (z,) it is a single integer.  Either way
    the integers stand over p.den, as the series' do.
    """
    extra = [x for x in p.vars[:-1] if x != "eps"]
    if extra:
        raise ValueError(f"unbound parameters {extra}; substitute them before expanding")
    nums = []
    for c in p.rep[v:v + N + 1]:
        c = c[:K + 1] if p.d == 2 else (c,)
        nums += c + (0,) * (K + 1 - len(c))
    nums += [0] * ((N + 1) * (K + 1) - len(nums))
    return BiSeries.from_ints(nums, p.den, N, K)
