"""Per-layer spans and counters, recorded from outside the program.

The benchmark wraps public functions and methods of each hyperred module
at run time; nothing under ``src/`` knows about it.  Spans are aggregated
as they close instead of being kept, because a run makes tens of
thousands of polynomial calls: each span adds its duration to its
parent's child time, so a layer's self time is its duration minus its
wrapped children.
Time spent on the tracer's own counters is charged to no span.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Span stack plus per-name totals: calls, self time and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[list] = []           # [name, start, child time]
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}     # summed counters
        self.maxima: Dict[str, float] = {}     # high-water counters

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, after: Optional[Callable[[], None]] = None) -> None:
        """Close the innermost span; ``after`` runs outside every span."""
        name, start, child = self._stack.pop()
        end = self.clock()
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - child)
        if after is not None:
            after()
            end = self.clock()
        if self._stack:
            self._stack[-1][2] += end - start

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def high(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value


def frac_bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def poly_bits(p) -> int:
    return max((frac_bits(c) for c in p.terms().values()), default=0)


def ratfunc_bits(r) -> int:
    return max(poly_bits(r.num), poly_bits(r.den))


def poly_degrees(p) -> Dict[str, int]:
    """Highest exponent of each variable of p."""
    out = {v: 0 for v in p.vars}
    for exps in p.terms():
        for v, e in zip(p.vars, exps):
            out[v] = max(out[v], e)
    return out


class LayerTrace:
    """Installs span wrappers on the hyperred layers and reads them back.

    Wrappers replace a function in every hyperred module that holds it
    (``from .series import series_of_hyper`` makes a second reference), so
    callers must look layer functions up through their module at call
    time.  ``uninstall`` puts every original back.
    """

    def __init__(self):
        self.tracer = Tracer()
        self._undo: List[tuple] = []
        self._built = set()

    # -- installation -----------------------------------------------------

    def _span(self, name: str, fn, after=None):
        tracer = self.tracer

        if after is None:
            def wrapper(*args, **kwargs):
                tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit()
        else:
            def wrapper(*args, **kwargs):
                tracer.enter(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    tracer.exit(lambda: after(args, result))
        return wrapper

    def wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._span(name, original, after))
        self._undo.append((cls, attr, original))

    def wrap_function(self, modules, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        wrapper = self._span(name, original, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    self._undo.append((m, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def new_job(self) -> None:
        """Forget which quotient modules were built (repeat_share is per job)."""
        self._built = set()

    def install(self) -> None:
        import hyperred
        from hyperred import (cli, expansion, gpl, grammar, mb, poly, ratfunc,
                              reduction, series, theta)
        modules = [hyperred, cli, expansion, gpl, grammar, mb, poly, ratfunc,
                   reduction, series, theta]
        t = self.tracer

        def on_gcd(args, result):
            if result is not None and result.is_const():
                t.add("poly.gcd.trivial")
            t.high("poly.coeff_bits_max", max(poly_bits(args[0]), poly_bits(args[1])))

        self.wrap_method(poly.Poly, "gcd", "poly.gcd", on_gcd)
        self.wrap_method(poly.Poly, "exact_div", "poly.exact_div")
        self.wrap_method(poly.Poly, "__mul__", "poly.mul")
        self.wrap_method(poly.Poly, "__rmul__", "poly.mul")

        R = ratfunc.RatFunc
        self.wrap_method(R, "__add__", "ratfunc.add")
        self.wrap_method(R, "__radd__", "ratfunc.add")
        self.wrap_method(R, "__mul__", "ratfunc.mul")
        self.wrap_method(R, "__rmul__", "ratfunc.mul")
        self.wrap_method(R, "__truediv__", "ratfunc.div")
        self.wrap_method(R, "__rtruediv__", "ratfunc.div")
        self.wrap_method(R, "to_biseries", "ratfunc.to_biseries")

        for attr in ("__add__", "__sub__", "__neg__", "left_mul", "theta_shift",
                     "compose", "apply"):
            self.wrap_method(theta.ThetaOp, attr, "theta.ops")

        def on_module(args, result):
            fn, affine = args[1], args[2] if len(args) > 2 else None
            key = (fn, affine)
            if key in self._built:
                t.add("reduction.module_build.repeats")
            self._built.add(key)

        def on_matmul(args, result):
            if result is not None:
                t.high("reduction.intermediate_bits_max",
                       max(ratfunc_bits(e) for row in result.entries for e in row))

        def on_step(args, result):
            t.add("reduction.path_steps")

        def on_reduce(args, result):
            if result is None:
                return
            for r in (result.s_poly,) + tuple(result.r_polys) + (result.algebraic_tail,):
                t.high("reduction.result_bits_max", ratfunc_bits(r))
                for p in (r.num, r.den):
                    for var, deg in poly_degrees(p).items():
                        t.high(f"reduction.result_{var}deg_max", deg)

        self.wrap_method(reduction.QuotientModule, "__init__",
                         "reduction.module_build", on_module)
        self.wrap_function(modules, reduction, "step_matrix",
                           "reduction.step_matrix", on_step)
        self.wrap_method(reduction.OpMatrix, "__matmul__", "reduction.matmul", on_matmul)
        self.wrap_method(reduction.OpMatrix, "inverse", "reduction.inverse")
        self.wrap_function(modules, reduction, "reduce_to_basis",
                           "reduction.reduce", on_reduce)
        self.wrap_function(modules, reduction, "verify_reduction", "reduction.verify")

        self.wrap_function(modules, series, "series_of_hyper", "series.series_of_hyper")
        self.wrap_method(series.BiSeries, "__mul__", "series.mul")
        self.wrap_method(series.BiSeries, "__rmul__", "series.mul")
        self.wrap_method(series.BiSeries, "invert", "series.invert")
        self.wrap_function(modules, series, "compose_z_series", "series.compose")

        self.wrap_method(gpl.GplCombo, "integrate", "gpl.integrate")
        self.wrap_method(gpl.GplCombo, "series", "gpl.combo_series")
        self.wrap_method(gpl.GplCombo, "theta", "gpl.theta")
        self.wrap_method(gpl.PolyLogExpr, "series", "gpl.polylog_series")
        self.wrap_function(modules, gpl, "partial_fractions", "gpl.partial_fractions")

        def on_expand(args, result):
            if result is not None:
                t.add("gpl.words_out", sum(len(layer.terms) for layer in result.layers))

        self.wrap_function(modules, expansion, "epsilon_expand", "expansion.expand",
                           on_expand)
        self.wrap_function(modules, expansion, "verify_expansion", "expansion.verify")

        self.wrap_function(modules, mb, "mb_to_hyper", "mb.to_hyper")
        self.wrap_function(modules, mb, "count_master_integrals", "mb.count_masters")
        self.wrap_function(modules, grammar, "parse_input", "grammar.parse")
        self.wrap_function(modules, grammar, "parse_hyper", "grammar.parse")
        self.wrap_function(modules, cli, "_emit", "cli.emit")
