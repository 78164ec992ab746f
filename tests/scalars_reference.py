"""Reference parameter operations for tests/test_scalars.py that the program never calls.

The Fraction route that the one integer pass over a form's fields
replaced: ``reference_subst`` adds each substituted c v to the constant
as a ``Fraction`` sum and merges and sorts the terms whenever a form value
contributes any; ``reference_to_epslin`` binds in two steps, the j symbols
first into an intermediate ``LinearForm`` and n after;
``reference_int_line`` reads the form through ``symbols`` and ``coeff``;
``reference_detect_exceptional`` compares parameters by building u - b as
a ``Linear``.  Equal fields (type, ``terms``, ``const``), equal reports
and equal refusals against these are the check that the integer pass
binds and compares as they did.
"""

from __future__ import annotations

from math import lcm

from hyperred.errors import UnboundSymbols
from hyperred.hyper import HyperFn
from hyperred.reduction import ExceptionalReport
from hyperred.scalars import DEFAULT_N, EpsLin, Linear, _canonical, rat


def reference_subst(x: Linear, values, cls=None) -> Linear:
    """Substitute numbers or forms for the given symbols into a ``cls``."""
    cls = cls or type(x)
    pairs, const, forms = [], x.const, []
    for s, c in x.terms:
        if s not in values:
            pairs.append((s, c))
            continue
        v = values[s]
        if isinstance(v, Linear):
            v = cls.coerce(v)
            forms += [(t, c * w) for t, w in v.terms]
            const += c * v.const
        else:
            const += c * rat(v)
    if forms:
        return cls._of(_canonical(pairs + forms), const)
    if cls is type(x) and len(pairs) == len(x.terms):
        return x
    return cls._of(tuple(pairs), const)


def reference_to_epslin(x, n_value: EpsLin = DEFAULT_N, j_values=None) -> EpsLin:
    """bind(j_values) to a LinearForm, then n: UnboundSymbols for any j left."""
    bound = reference_subst(x, j_values or {})
    j_coeffs = [t for t in bound.terms if t[0] != "n"]
    if j_coeffs:
        raise UnboundSymbols([k for k, _ in j_coeffs])
    return reference_subst(bound, {"n": n_value}, EpsLin)


def reference_bind_fn(fn, j_values=None, n_value: EpsLin = DEFAULT_N) -> HyperFn:
    conv = lambda x: reference_to_epslin(x, n_value, j_values)
    return HyperFn(map(conv, fn.upper), map(conv, fn.lower), fn.kappa, fn.var)


def reference_int_line(x: Linear, symbol: str):
    if any(s != symbol for s in x.symbols):
        raise ValueError(f"bind propagator powers before reducing: {x}")
    c0, c1 = x.const, x.coeff(symbol)
    q = lcm(c0.denominator, c1.denominator)
    return c0.numerator * (q // c0.denominator), c1.numerator * (q // c1.denominator), q


def reference_detect_exceptional(fn: HyperFn) -> ExceptionalReport:
    integer_uppers = tuple(i for i, u in enumerate(fn.upper) if u.is_integer())
    used_lowers = set()
    pairs = []
    for i, u in enumerate(fn.upper):
        best = None
        for l, b in enumerate(fn.lower):
            d = u - b
            if l not in used_lowers and d.is_integer() and d.const >= 0:
                if best is None or d.const < best[1]:
                    best = (l, d.const)
        if best is not None:
            used_lowers.add(best[0])
            pairs.append((i, best[0], int(best[1])))
    shared = tuple(i for i, _, _ in pairs if i in integer_uppers)
    terminating = any(fn.upper[i].const <= 0 for i in integer_uppers)
    unpaired = len(shared) < len(integer_uppers)
    count = 0 if terminating else max(fn.p + 1 - len(pairs) - unpaired, 0)
    return ExceptionalReport(integer_uppers, tuple(pairs), shared, count)
