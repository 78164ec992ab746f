"""Rational functions of one variable with coefficients in a parameter field.

A RatFunc is a normalized fraction of polynomials whose last variable is
the function's variable, z below; the earlier ones (if any) are symbolic
parameters such as "eps" or "n".  ``RatFunc(num, den)`` divides by the
gcd and makes den monic; ``RatFunc._of`` trusts a pair in that form, as
``RatFunc.over`` builds one from known linear factors.  Expansion into a
BiSeries requires the parameters to be reduced to "eps" only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import PoleAtEpsZero
from .poly import Factors, Poly, _cancel, _monic_product, _neg, _scale, _subst, _trim, _zero
from .series import BiSeries
from .value import Value


class RatFunc(Value):
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:
            den = Poly.const(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self._set(*_monic(*_coprime(num, den)))

    # constructors ---------------------------------------------------------

    @classmethod
    def const(cls, vars, q):
        return cls._of(Poly.const(vars, q), Poly.const(vars, 1))

    @classmethod
    def over(cls, num: Poly, factors: Factors = None, K=1) -> "RatFunc":
        """num / (K prod (x - r)^m) for factors {(x, r): m} and a nonzero K.

        Trial division at the roots (``_cancel``) leaves factors prime to
        num: no gcd.  Each division by the primitive q x - p = q (x - r)
        leaves q on the quotient.
        """
        factors = factors or {}
        (rep,), left = _cancel([num.rep], num.vars, factors)
        K = Fraction(K)
        for (x, r), m in factors.items():
            K /= r.denominator ** (m - left.get((x, r), 0))
        if K < 0:
            rep, K = _neg(rep, num.d), -K
        if K.numerator == 1:
            # rep keeps num's content, prime to num.den (Gauss): only K's denominator can share
            g = gcd(K.denominator, num.den)
            num = Poly._of(num.vars, _scale(rep, K.denominator // g, num.d), num.den // g)
        else:
            num = Poly(num.vars, _scale(rep, K.denominator, num.d), num.den * K.numerator)
        return cls._of(num, _monic_product(num.vars, left))

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
            return RatFunc._of(*_monic(self.num * o.den + o.num * self.den,
                                       self.den * o.den))
        db, dd = self.den.exact_div(g), o.den.exact_div(g)
        t = self.num * dd + o.num * db
        t, g = _coprime(t, g)
        return RatFunc._of(*_monic(t, db * (dd * g)))

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
            return RatFunc._of(self.num.scale(o.num.const_value()), self.den)
        if self.is_polynomial() and self.num.is_const():
            return RatFunc._of(o.num.scale(self.num.const_value()), o.den)
        num_a, den_b = _coprime(self.num, o.den)
        num_b, den_a = _coprime(o.num, self.den)
        return RatFunc._of(*_monic(num_a * num_b, den_a * den_b))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc._of(*_monic(o.den, o.num))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return RatFunc._of(-self.num, self.den)

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
        zp = Poly.variable(self.vars, self.vars[-1])
        return RatFunc(zp * (self.num.derivative_top() * self.den
                             - self.num * self.den.derivative_top()),
                       self.den * self.den)

    def subst_params(self, new_vars, mapping) -> "RatFunc":
        """Substitute parameter variables by polynomials over new_vars free of z.

        z maps to itself, so each z-coefficient is substituted on its own.
        """
        return RatFunc(_subst_below_z(self.num, new_vars, mapping),
                       _subst_below_z(self.den, new_vars, mapping))

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
        # rows from z^min(vn, vd), so a zero of order vn - vd > 0 stays in them
        return _z_rows(self.num, min(vn, vd), N, K) * den.invert(), max(vd - vn, 0)

    def pole_order(self) -> int:
        """The order of the pole at z = 0; 0 where there is none."""
        return 0 if self.is_polynomial() else max(_valuation(self.den) - _valuation(self.num), 0)

    def z_cells(self, N: int, K: int):
        """(cells, den, v): the function is z^(-v) sum x z^j eps^k / den to z^N eps^K.

        cells lists the nonzero (j, k, x), z-power first.  A polynomial's
        rows up to its degree are read off its rep by ``_z_rows``, as
        to_biseries reads them, with no series product and v = 0; otherwise
        the cells are those of to_biseries.
        """
        if self.is_polynomial():
            s, v = _z_rows(self.num, 0, min(N, self.num.degree()), K), 0
        else:
            s, v = self.to_biseries(N, K)
        return s.cells(N, K), s.den, v

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"


def _coprime(num: Poly, den: Poly):
    """(num, den) divided by their gcd, with no division when the gcd is 1.

    A constant den (nonzero) is a unit and a zero num has no factor: no gcd.
    """
    if den.is_const() or num.is_zero():
        return num, den
    g = num.gcd(den)
    if g.is_const() and g.const_value() == 1:
        return num, den
    return num.exact_div(g), den.exact_div(g)


def _monic(num: Poly, den: Poly):
    """A coprime pair scaled to a den of lead 1; den is 1 when num is 0."""
    if num.is_zero():
        return num, Poly.const(num.vars, 1)
    lf = den.lead_fraction()
    return (num, den) if lf == 1 else (num.scale(1 / lf), den.scale(1 / lf))


def _valuation(p: Poly) -> int:
    """Lowest power of z with a nonzero coefficient in a nonzero p."""
    return next(j for j, c in enumerate(p.rep) if c)


def _z_rows(p: Poly, v: int, N: int, K: int) -> BiSeries:
    """The coefficients of z^v .. z^(v+N) in p as rows of eps^0 .. eps^K.

    For vars (eps, z) each z-coefficient in the rep already is the tuple of
    its eps-coefficients; for vars (z,) it is a single integer.  Either way
    the integers stand over p.den, as the series' do.
    """
    _check_eps_only(p)
    nums = []
    for c in p.rep[v:v + N + 1]:
        c = c[:K + 1] if p.d == 2 else (c,)
        nums += c + (0,) * (K + 1 - len(c))
    nums += [0] * ((N + 1) * (K + 1) - len(nums))
    return BiSeries._of(tuple(nums), p.den, N, K)


def _check_eps_only(p: Poly):
    extra = [x for x in p.vars[:-1] if x != "eps"]
    if extra:
        raise ValueError(f"unbound parameters {extra}; substitute them before expanding")


def _subst_below_z(p: Poly, new_vars, mapping) -> Poly:
    """p with its parameters substituted inside each z-coefficient, normalized once."""
    e = len(new_vars) - 1
    images = []
    for x in p.vars[:-1]:
        img = mapping.get(x) or Poly.variable(new_vars, x)
        if img.vars != tuple(new_vars) or img.degree() > 0:
            raise ValueError(f"the image of {x} must be a polynomial over {new_vars} free of z")
        images.append((img.rep[0] if img.rep else _zero(e), img.den))
    coeffs = [_subst(c, p.d - 1, images, e) for c in p.rep]
    L = lcm(*(d for _, d in coeffs))
    rep = _trim(tuple(_scale(c, L // d, e) for c, d in coeffs), e + 1)
    return Poly(new_vars, rep, L * p.den)
