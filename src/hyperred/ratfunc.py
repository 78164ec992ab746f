"""Rational functions of one variable with coefficients in a parameter field.

A RatFunc is a normalized fraction of polynomials whose last variable is
the function's variable, z below; the earlier ones (if any) are symbolic
parameters such as "eps" or "n".  ``RatFunc(num, den)`` divides by the
gcd and makes den monic, the one normalization; ``RatFunc._of`` trusts a
pair in that form, as ``RatFunc.over`` builds one from known linear
factors.  A sum runs the constructor on its numerator over the gcd of the
denominators, a product on each numerator over the other's denominator,
and what is left is coprime (Henrici), so they build through ``_of`` too.
``to_biseries`` is the one reader of a function's series: it needs the
parameters reduced to "eps" only, and it refuses a pole at z = 0, since
the oracle sums pole-free pieces only.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleAtEpsZero, UnsupportedClass
from .poly import Factors, Poly, _cancel, _monic_product, _neg, _scale
from .series import BiSeries
from .value import Value


class RatFunc(Value):
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        """num / den over their gcd, den of lead 1; a constant den is a unit: no gcd."""
        if den is None:
            den = Poly.const(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.const(num.vars, 1)
        elif not den.is_const():
            g = num.gcd(den)
            if not g.is_const():
                num, den = num.exact_div(g), den.exact_div(g)
        lf = den.lead_fraction()
        if lf != 1:
            num, den = num.scale(1 / lf), den.scale(1 / lf)
        self._set(num, den)

    # constructors ---------------------------------------------------------

    @classmethod
    def const(cls, vars, q):
        return cls._of(Poly.const(vars, q), Poly.const(vars, 1))

    @classmethod
    def over(cls, num: Poly, factors: Factors = None, K=1) -> "RatFunc":
        """num / (K prod (x - r)^m) for factors {(x, r): m} and a nonzero K.

        Trial division at the roots (``_cancel``) leaves factors prime to
        num: no gcd.  Each division by the primitive q x - p = q (x - r)
        leaves q on the quotient.  The numerator is built by ``Poly``,
        which divides out what its integers share with its denominator.
        """
        factors = factors or {}
        (rep,), left = _cancel([num.rep], num.vars, factors)
        K = Fraction(K)
        for (x, r), m in factors.items():
            K /= r.denominator ** (m - left.get((x, r), 0))
        if K < 0:
            rep, K = _neg(rep, num.d), -K
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
        b, d = self.den.exact_div(g), o.den.exact_div(g)
        t = RatFunc(self.num * d + o.num * b, g)
        return RatFunc._of(t.num, b * d * t.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = RatFunc(self.num, o.den), RatFunc(o.num, self.den)
        return RatFunc._of(a.num * b.num, a.den * b.den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc(o.den, o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return RatFunc._of(-self.num, self.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        """Equal fields: every constructor yields the one normal form."""
        if isinstance(other, (int, Fraction, Poly)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # calculus ---------------------------------------------------------------

    def theta(self) -> "RatFunc":
        """z * d/dz of the function."""
        zp = Poly.variable(self.vars, self.vars[-1])
        return RatFunc(zp * (self.num.derivative_top() * self.den
                             - self.num * self.den.derivative_top()),
                       self.den * self.den)

    # series ------------------------------------------------------------------

    def to_biseries(self, N: int, K: int) -> BiSeries:
        """The series of the function to z^N eps^K: num's rows times the
        inverse of den's.

        Parameters other than eps must have been bound.  A function with a
        pole at z = 0, whose normalized den has a zero z^0 row, is refused
        (UnsupportedClass): the oracle sums pole-free pieces only.  The
        z^0 row is read off the exact den, so one that vanishes at eps = 0
        raises PoleAtEpsZero even when its eps terms all lie above eps^K.
        """
        if not self.den.rep[0]:
            raise UnsupportedClass(f"piece {self} has a pole at z = 0")
        den = _z_rows(self.den, N, K)
        if den.get(0, 0) == 0:
            raise PoleAtEpsZero(f"denominator {self.den} vanishes at eps=0")
        return _z_rows(self.num, N, K) * den.invert()

    def z_cells(self, N: int, K: int):
        """(cells, den): the function is sum x z^j eps^k / den to z^N eps^K.

        cells lists the nonzero (j, k, x), z-power first.  A polynomial's
        rows up to its degree are read off its rep by ``_z_rows``, with no
        series product; otherwise the cells are those of to_biseries, which
        refuses a pole at z = 0 before it builds any series.
        """
        if self.is_polynomial():
            s = _z_rows(self.num, min(N, self.num.degree()), K)
        else:
            s = self.to_biseries(N, K)
        return s.cells(N, K), s.den

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"


def _z_rows(p: Poly, N: int, K: int) -> BiSeries:
    """The coefficients of z^0 .. z^N in p as rows of eps^0 .. eps^K.

    For vars (eps, z) each z-coefficient in the rep already is the tuple of
    its eps-coefficients; for vars (z,) it is a single integer.  Either way
    the integers stand over p.den, as the series' do.
    """
    _check_eps_only(p)
    nums = []
    for c in p.rep[:N + 1]:
        c = c[:K + 1] if p.d == 2 else (c,)
        nums += c + (0,) * (K + 1 - len(c))
    nums += [0] * ((N + 1) * (K + 1) - len(nums))
    return BiSeries._of(tuple(nums), p.den, N, K)


def _check_eps_only(p: Poly):
    extra = [x for x in p.vars[:-1] if x != "eps"]
    if extra:
        raise ValueError(f"unbound parameters {extra}; substitute them before expanding")
