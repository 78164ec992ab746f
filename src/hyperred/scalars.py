"""Exact scalar types: eps-linear parameters and (n, j) linear forms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Tuple

from .errors import UnboundSymbols


def rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class EpsLin:
    """A parameter of the form const + eps_part * eps, both exact rationals."""

    const: Fraction
    eps: Fraction = Fraction(0)

    def __init__(self, const, eps=0):
        object.__setattr__(self, "const", rat(const))
        object.__setattr__(self, "eps", rat(eps))

    def __add__(self, other):
        other = _as_epslin(other)
        return EpsLin(self.const + other.const, self.eps + other.eps)

    def __sub__(self, other):
        other = _as_epslin(other)
        return EpsLin(self.const - other.const, self.eps - other.eps)

    def __neg__(self):
        return EpsLin(-self.const, -self.eps)

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return _as_epslin(other) - self

    def scale(self, q):
        q = rat(q)
        return EpsLin(self.const * q, self.eps * q)

    def is_zero(self) -> bool:
        return self.const == 0 and self.eps == 0

    def is_integer(self) -> bool:
        """Integer at the eps-generic level: no eps part, integer constant."""
        return self.eps == 0 and self.const.denominator == 1

    def sort_key(self):
        return (self.const, self.eps)

    def __str__(self):
        if self.eps == 0:
            return str(self.const)
        e = "eps" if self.eps == 1 else ("-eps" if self.eps == -1 else f"{self.eps}*eps")
        if self.const == 0:
            return e
        return f"{self.const}+{e}" if not e.startswith("-") else f"{self.const}{e}"


def _as_epslin(x) -> EpsLin:
    if isinstance(x, EpsLin):
        return x
    return EpsLin(rat(x))


@dataclass(frozen=True)
class LinearForm:
    """c_n * n + sum_k c_k * j_k + const, with exact rational coefficients.

    ``j_coeffs`` maps propagator-power symbol names to coefficients; zero
    coefficients are dropped so equal forms compare equal.
    """

    n_coeff: Fraction
    j_coeffs: Tuple[Tuple[str, Fraction], ...]
    const: Fraction

    def __init__(self, n_coeff=0, j_coeffs=(), const=0):
        if isinstance(j_coeffs, Mapping):
            j_coeffs = tuple(sorted(j_coeffs.items()))
        items = tuple(sorted((name, rat(c)) for name, c in j_coeffs if rat(c) != 0))
        object.__setattr__(self, "n_coeff", rat(n_coeff))
        object.__setattr__(self, "j_coeffs", items)
        object.__setattr__(self, "const", rat(const))

    @classmethod
    def constant(cls, q):
        return cls(0, (), q)

    @classmethod
    def n(cls, coeff=1):
        return cls(coeff, (), 0)

    @classmethod
    def j(cls, name, coeff=1):
        return cls(0, ((name, rat(coeff)),), 0)

    def _jdict(self):
        return dict(self.j_coeffs)

    def __add__(self, other):
        other = _as_form(other)
        js = self._jdict()
        for k, v in other.j_coeffs:
            js[k] = js.get(k, Fraction(0)) + v
        return LinearForm(self.n_coeff + other.n_coeff, js, self.const + other.const)

    def __sub__(self, other):
        return self + (-_as_form(other))

    def __rsub__(self, other):
        return _as_form(other) - self

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return LinearForm(-self.n_coeff, {k: -v for k, v in self.j_coeffs}, -self.const)

    def scale(self, q):
        q = rat(q)
        return LinearForm(self.n_coeff * q, {k: v * q for k, v in self.j_coeffs}, self.const * q)

    def is_zero(self):
        return self.n_coeff == 0 and not self.j_coeffs and self.const == 0

    def bind(self, j_values: Mapping[str, object]) -> "LinearForm":
        """Substitute values (numbers or forms) for the given j symbols."""
        left = {k: v for k, v in self.j_coeffs if k not in j_values}
        out = LinearForm(self.n_coeff, left, self.const)
        for k, v in self.j_coeffs:
            if k in j_values:
                val = j_values[k]
                if not isinstance(val, LinearForm):
                    val = LinearForm.constant(rat(val))
                out = out + val.scale(v)
        return out

    def to_epslin(self, n_value: EpsLin = EpsLin(4, -2)) -> EpsLin:
        """Fully bind (default n = 4 - 2*eps); all j symbols must be gone."""
        if self.j_coeffs:
            raise UnboundSymbols([k for k, _ in self.j_coeffs])
        return EpsLin(self.const + self.n_coeff * n_value.const,
                      self.n_coeff * n_value.eps)

    def sort_key(self):
        return (self.n_coeff, self.j_coeffs, self.const)

    def __str__(self):
        parts = []
        if self.n_coeff != 0:
            parts.append(_coeff_str(self.n_coeff, "n"))
        for k, v in self.j_coeffs:
            parts.append(_coeff_str(v, k))
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += f"{p}" if p.startswith("-") else f"+{p}"
        return out

    __repr__ = __str__


def _coeff_str(c: Fraction, sym: str) -> str:
    if c == 1:
        return sym
    if c == -1:
        return f"-{sym}"
    if c.denominator == 1:
        return f"{c}*{sym}"
    return f"{c.numerator}*{sym}/{c.denominator}" if c.numerator != 1 else f"{sym}/{c.denominator}"


def _as_form(x) -> LinearForm:
    if isinstance(x, LinearForm):
        return x
    return LinearForm.constant(rat(x))
