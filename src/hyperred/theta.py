"""Noncommutative operators: polynomials in theta = z d/dz.

Coefficients are rational functions of z written on the left of the theta
powers, so composition only has to push theta through coefficient
functions: theta . R(z) = R(z) . theta + (theta R)(z).
"""

from __future__ import annotations

from typing import Sequence

from .ratfunc import RatFunc
from .series import BiSeries, theta_pieces, truncated_sum
from .value import Value


class ThetaOp(Value):
    """sum_k coeffs[k] * theta^k with RatFunc coefficients, trailing zeros
    trimmed down to one: the zero operator is ``(0,)``, of degree -1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RatFunc]):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("an operator needs at least one coefficient")
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        self._set(tuple(coeffs))

    @classmethod
    def zero(cls, vars):
        return cls([RatFunc.const(vars, 0)])

    @classmethod
    def identity(cls, vars):
        return cls([RatFunc.const(vars, 1)])

    @classmethod
    def theta(cls, vars):
        return cls([RatFunc.const(vars, 0), RatFunc.const(vars, 1)])

    @property
    def vars(self):
        return self.coeffs[0].vars

    @property
    def degree(self) -> int:
        return -1 if self.is_zero() else len(self.coeffs) - 1

    def coeff(self, k: int) -> RatFunc:
        if k < len(self.coeffs):
            return self.coeffs[k]
        return RatFunc.const(self.vars, 0)

    def is_zero(self):
        return self.coeffs[-1].is_zero()

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return ThetaOp([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return ThetaOp([-c for c in self.coeffs])

    def left_mul(self, r: RatFunc) -> "ThetaOp":
        """Multiply by a function on the left (commutes with nothing)."""
        return ThetaOp([r * c for c in self.coeffs])

    def theta_shift(self) -> "ThetaOp":
        """theta composed with self: applies theta . R = R theta + theta(R)."""
        out = [RatFunc.const(self.vars, 0)] * (len(self.coeffs) + 1)
        for j, b in enumerate(self.coeffs):
            out[j] = out[j] + b.theta()
            out[j + 1] = out[j + 1] + b
        return ThetaOp(out)

    def compose(self, other: "ThetaOp") -> "ThetaOp":
        """self after other, under theta.z = z.(theta+1)."""
        acc = ThetaOp.zero(self.vars)
        cur = other
        for k, a in enumerate(self.coeffs):
            if k > 0:
                cur = cur.theta_shift()
            acc = acc + cur.left_mul(a)
        return acc

    def apply(self, s: BiSeries) -> BiSeries:
        """sum_k coeffs[k] theta^k s to the z-order of s; the zero operator
        gives zero, and a coefficient with a pole at z = 0 is refused
        (UnsupportedClass, from ``RatFunc.z_cells``)."""
        return truncated_sum(theta_pieces(self.coeffs, s), s.z_order, s.eps_order)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            tp = "" if k == 0 else ("*theta" if k == 1 else f"*theta^{k}")
            parts.append(f"({c}){tp}")
        return " + ".join(parts) or "0"

