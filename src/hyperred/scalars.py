"""Exact scalars: one linear form over named symbols, and its two views.

``Linear`` is const + sum c_s * s with exact rational coefficients.
``EpsLin`` (a parameter const + c*eps) and ``LinearForm`` (a
Mellin-Barnes form in n and the propagator powers j_k) are views of it
that keep their own constructors, attributes and printers.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from .errors import UnboundSymbols
from .value import Value

_ZERO = Fraction(0)


def rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _canonical(pairs) -> tuple:
    """(symbol, coefficient) pairs merged by symbol, zeros dropped, sorted by symbol."""
    merged = {}
    for s, c in pairs:
        c = rat(c)
        merged[s] = merged[s] + c if s in merged else c
    return tuple(sorted(t for t in merged.items() if t[1]))


class Linear(Value):
    """const + sum c_s * s over named symbols, exact rationals, immutable.

    ``terms`` holds the (symbol, coefficient) pairs sorted by symbol, zero
    coefficients dropped, so equal forms have equal fields.  Arithmetic
    keeps the type of its form operand; equality also compares types.
    """

    __slots__ = ("terms", "const")

    def __init__(self, coeffs=(), const=0):
        self._set(_canonical(coeffs.items() if isinstance(coeffs, Mapping) else coeffs), rat(const))

    @classmethod
    def from_terms(cls, coeffs, const=0):
        """A ``cls`` from (symbol, coefficient) pairs, past the view's own constructor."""
        return cls._of(_canonical(coeffs), rat(const))

    @classmethod
    def constant(cls, q):
        return cls._of((), rat(q))

    @classmethod
    def coerce(cls, x):
        return x if isinstance(x, cls) else cls.constant(x)

    def __add__(self, other):
        other = self.coerce(other)
        terms = _canonical(self.terms + other.terms) if other.terms else self.terms
        return self._of(terms, self.const + other.const)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self.coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self._of(tuple((s, -c) for s, c in self.terms), -self.const)

    def scale(self, q):
        q = rat(q)
        return self._of(tuple((s, c * q) for s, c in self.terms) if q else (), self.const * q)

    def coeff(self, symbol: str) -> Fraction:
        return dict(self.terms).get(symbol, _ZERO)

    @property
    def symbols(self):
        return tuple(s for s, _ in self.terms)

    def int_line(self, symbol: str):
        """(p0, p1, q) in integers with self = (p0 + p1 symbol) / q, q > 0, gcd 1.

        The one integer form of a parameter linear in eps or n, read off the
        two fields; a form that holds another symbol is refused.
        """
        t = self.terms
        if len(t) > 1 or t and t[0][0] != symbol:
            raise ValueError(f"bind propagator powers before reducing: {self}")
        c0, c1 = self.const, t[0][1] if t else 0
        q = lcm(c0.denominator, c1.denominator)
        return c0.numerator * (q // c0.denominator), c1.numerator * (q // c1.denominator), q

    def subst(self, values: Mapping[str, object], cls=None) -> "Linear":
        """Substitute numbers or forms for the given symbols; a ``cls``, by default this type.

        One integer pass: each c v (v a number or a form's constant) goes into
        one integer numerator over one denominator, made a Fraction at the end;
        the terms left and each form's scaled terms are canonical, so they are
        merged and sorted only when two of them contribute.  A substitution
        that touches no symbol returns self."""
        cls, kept, sources = cls or type(self), [], []
        num, den = self.const.numerator, self.const.denominator
        for s, c in self.terms:
            if s not in values:
                kept.append((s, c))
                continue
            v = values[s]
            if isinstance(v, Linear):
                v = cls.coerce(v)
                if v.terms:
                    sources.append(tuple((t, c * x) for t, x in v.terms))
                v = v.const
            elif not isinstance(v, (int, Fraction)):
                v = rat(v)
            p, q = c.numerator * v.numerator, c.denominator * v.denominator
            num, den = num * q + p * den, den * q
        if len(kept) == len(self.terms) and cls is type(self):
            return self
        if kept:
            sources.append(kept)
        terms = (_canonical(t for src in sources for t in src) if len(sources) > 1
                 else tuple(sources[0]) if sources else ())
        return cls._of(terms, Fraction(num, den))

    def is_const(self) -> bool:
        return not self.terms

    def is_zero(self) -> bool:
        return not self.terms and self.const == 0

    def is_integer(self) -> bool:
        """Integer for every value of the symbols: no symbol part, integer constant."""
        return not self.terms and self.const.denominator == 1

    def sort_key(self):
        return (self.terms, self.const)

    def __str__(self):
        """n first, then the other symbols, then a nonzero constant."""
        parts = [_coeff_str(c, s) for s, c in sorted(self.terms, key=lambda t: t[0] != "n")]
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return parts[0] + "".join(p if p.startswith("-") else f"+{p}" for p in parts[1:])

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def _coeff_str(c: Fraction, sym: str) -> str:
    if c == 1:
        return sym
    if c == -1:
        return f"-{sym}"
    if c.denominator == 1:
        return f"{c}*{sym}"
    return f"{c.numerator}*{sym}/{c.denominator}" if c.numerator != 1 else f"{sym}/{c.denominator}"


class EpsLin(Linear):
    """A parameter of the form const + eps_part * eps, both exact rationals."""

    __slots__ = ()

    def __init__(self, const, eps=0):
        super().__init__((("eps", eps),), const)

    @property
    def eps(self) -> Fraction:
        return self.coeff("eps")

    def __str__(self):
        if self.eps == 0:
            return str(self.const)
        e = "eps" if self.eps == 1 else ("-eps" if self.eps == -1 else f"{self.eps}*eps")
        if self.const == 0:
            return e
        return f"{self.const}+{e}" if not e.startswith("-") else f"{self.const}{e}"


# the dimension n = 4 - 2 eps, bound wherever no n is given
DEFAULT_N = EpsLin(4, -2)


class LinearForm(Linear):
    """c_n * n + sum_k c_k * j_k + const, with exact rational coefficients.

    ``j_coeffs`` maps propagator-power symbol names to coefficients, given
    as a mapping or as pairs.
    """

    __slots__ = ()

    def __init__(self, n_coeff=0, j_coeffs=(), const=0):
        super().__init__((("n", n_coeff), *dict(j_coeffs).items()), const)

    @classmethod
    def n(cls, coeff=1):
        return cls(coeff)

    @classmethod
    def j(cls, name, coeff=1):
        return cls(0, ((name, coeff),))

    def bind(self, j_values: Mapping[str, object]) -> "LinearForm":
        """Substitute values (numbers or forms) for the given j symbols."""
        return self.subst(j_values)

    def to_epslin(self, n_value: EpsLin = DEFAULT_N, j_values=None) -> EpsLin:
        """Bind the j symbols to j_values and n to n_value (default n = 4 - 2*eps): numbers
        and n in one ``subst`` pass straight to EpsLin, a form value (which may bring in
        n or j symbols) first and n after.  UnboundSymbols names every j symbol left."""
        if j_values and any(isinstance(v, Linear) for v in j_values.values()):
            return self.subst(j_values).to_epslin(n_value)
        values = {"n": n_value, **(j_values or {})}
        out = self.subst(values, EpsLin)
        left = [s for s, _ in self.terms if s not in values]
        if left:
            raise UnboundSymbols(left)
        return out
