"""Rational functions of one variable with coefficients in a parameter field.

A RatFunc is a normalized fraction of polynomials whose last variable is
the function's variable, z below; the earlier ones (if any) are symbolic
parameters such as "eps" or "n".  ``RatFunc(num, den)`` divides by the
gcd and makes den monic; ``RatFunc._of`` trusts a pair in that form, as
``RatFunc.over`` builds one from known linear factors.  ``to_biseries``
is the one reader of a function's series: it needs the parameters
reduced to "eps" only, and it refuses a pole at z = 0, since the oracle
sums pole-free pieces only.
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
