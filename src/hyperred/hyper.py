"""Generalized hypergeometric function descriptors."""

from __future__ import annotations

from .scalars import DEFAULT_N, EpsLin, LinearForm, rat
from .value import Value


class Hyper(Value):
    """A (p+1)F_p instance: parameter lists plus argument kappa * var.

    ``upper`` and ``lower`` are tuples of ``param_type`` values, which
    subclasses fix, and ``kappa`` is a Fraction.  Equality and hashing are
    ``Value``'s, field by field, so parameter order counts: two equal
    functions print alike and step alike.
    """

    __slots__ = ("upper", "lower", "kappa", "var")

    def __init__(self, upper, lower, kappa=1, var="z"):
        upper = tuple(map(self.param_type.coerce, upper))
        lower = tuple(map(self.param_type.coerce, lower))
        if len(upper) != len(lower) + 1:
            raise ValueError(
                f"need p+1 upper and p lower parameters, got {len(upper)} and {len(lower)}")
        self._set(upper, lower, rat(kappa), var)

    @property
    def p(self) -> int:
        return len(self.lower)

    def shifted(self, which: str, index: int, step: int):
        """New function with one parameter moved by an integer step."""
        up = which == "upper"
        ps = self.upper if up else self.lower
        x = ps[index]
        ps = ps[:index] + (x._of(x.terms, x.const + step),) + ps[index + 1:]
        return self._of(*((ps, self.lower) if up else (self.upper, ps)), self.kappa, self.var)

    def _arg(self) -> str:
        return self.var if self.kappa == 1 else f"({self.kappa})*{self.var}"

    def __str__(self):
        p = self.p
        ups = ", ".join(str(u) for u in self.upper)
        los = ", ".join(str(l) for l in self.lower)
        return f"{p + 1}F{p}[{ups}; {los}; {self._arg()}]"


class HyperFn(Hyper):
    """Numeric parameters: each one is const + c*eps."""

    __slots__ = ()
    param_type = EpsLin

    def _arg(self) -> str:
        if self.kappa != 1 and self.kappa.denominator == 1:
            return f"{self.kappa}*{self.var}"
        return super()._arg()


class SymHyperFn(Hyper):
    """A hypergeometric function whose parameters are (n, j) linear forms.

    This is the shape Mellin-Barnes conversion produces; binding the
    propagator powers and the space-time dimension yields a HyperFn.
    """

    __slots__ = ()
    param_type = LinearForm

    def bind(self, j_values=None, n_value: EpsLin = DEFAULT_N) -> HyperFn:
        """Bind propagator powers and n (default 4 - 2 eps), one ``to_epslin`` per parameter."""
        conv = lambda ps: tuple(x.to_epslin(n_value, j_values) for x in ps)
        return HyperFn._of(conv(self.upper), conv(self.lower), self.kappa, self.var)
