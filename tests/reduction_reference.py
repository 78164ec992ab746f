"""Reference reduction and check for tests/test_reduction.py that the program never calls.

The rational-function path that ``reduce_to_basis`` replaced: each unit
step is the ``RatFunc`` matrix I + N/c built from the theta-polynomial
relation divided by its lead coefficient, inverse steps go through
Gauss-Jordan (``OpMatrix.inverse``), row 0 of the path product is folded
with ``OpMatrix`` products, and the result is cleared by the lcm of the
denominators and a multivariate gcd.  It shares no step, fold or clearing
code with the fraction-free (P, factors) path, so equal reps are an
independent check.

``reference_verify`` is ``verify_reduction`` on the Fraction rows of
``tests/series_reference.py``: S, the R_j and the tail are expanded by a
Fraction inverse of their denominators, S F(target) and sum R_j theta^j
F(basis) + tail are built with ``rows_mul``, ``rows_theta`` and
``rows_add``, and compared cell by cell with
``rows_first_mismatch``, where ``verify_reduction`` accumulates one
integer residual in ``series.truncated_sum``.  Only the defining series
of the two functions (``series_of_hyper``) is shared.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from hyperred.errors import PoleAtEpsZero, SingularStep, UnsupportedClass
from hyperred.hyper import Hyper, HyperFn
from hyperred.poly import Poly
from hyperred.ratfunc import RatFunc
from hyperred.reduction import (OpMatrix, ReductionResult, _check_path, _is_unit_param,
                                _ring_vars, canonical_path, shift_vector)
from hyperred.series import series_of_hyper
from series_reference import (rows_add, rows_first_mismatch, rows_invert, rows_mul,
                              rows_theta)


def _param_rf(vars, x) -> RatFunc:
    """const + c vars[0] over vars, from a parameter linear in vars[0] alone."""
    return RatFunc(Poly.from_terms(vars, {(0, 0): x.const, (1, 0): x.coeff(vars[0])}))


def _theta_poly(vars, roots):
    """Coefficients of prod (theta + r), the factors commuting."""
    coeffs = [RatFunc.const(vars, 1)]
    for r in roots:
        nxt = [RatFunc.const(vars, 0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = nxt[i] + c * r
            nxt[i + 1] = nxt[i + 1] + c
        coeffs = nxt
    return coeffs


def relation(fn: Hyper, affine_index: Optional[int]):
    """(rel_vec, rel_tail): theta^dim F = sum_i rel_vec[i] theta^i F + rel_tail."""
    vars = _ring_vars(fn)
    zf = RatFunc(Poly.variable(vars, "z")) * fn.kappa
    low = _theta_poly(vars, [_param_rf(vars, b) - 1 for b in fn.lower])
    if affine_index is None:
        # kappa z prod(theta + a_i) - theta prod(theta + b_l - 1)
        up = _theta_poly(vars, [_param_rf(vars, a) for a in fn.upper])
        coeffs = [zf * c for c in up]
        for i, c in enumerate(low):
            coeffs[i + 1] = coeffs[i + 1] - c
        const = RatFunc.const(vars, 0)
    else:
        # prod(theta + b_l - 1) - kappa z prod_{i != skip}(theta + a_i) = prod(b_l - 1)
        up = _theta_poly(vars, [_param_rf(vars, a) for i, a in enumerate(fn.upper)
                                if i != affine_index])
        coeffs = [c - zf * u for c, u in zip(low, up)]
        const = RatFunc.const(vars, 1)
        for b in fn.lower:
            const = const * (_param_rf(vars, b) - 1)
    lead = coeffs[-1]
    return [-(c / lead) for c in coeffs[:-1]], const / lead


def forward_matrix(fn: Hyper, which: str, index: int, affine_index: Optional[int]) -> OpMatrix:
    """I + N/c for upper+1 / lower-1."""
    if affine_index is not None and not _is_unit_param(fn.upper[affine_index]):
        raise ValueError("affine reduction needs a unit upper parameter")
    vars = _ring_vars(fn)
    rel_vec, rel_tail = relation(fn, affine_index)
    affine = affine_index is not None
    if which == "upper":
        c = _param_rf(vars, fn.upper[index])
    else:
        c = _param_rf(vars, fn.lower[index]) - 1
    if c.is_zero():
        raise SingularStep(f"step divisor vanishes for {which}[{index}] of {fn}")
    inv_c = 1 / c
    zero, one = RatFunc.const(vars, 0), RatFunc.const(vars, 1)
    dim = len(rel_vec)
    rows = []
    for k in range(dim - 1):
        row = [zero] * (dim + affine)
        row[k], row[k + 1] = one, inv_c
        rows.append(tuple(row))
    if dim:
        last = [inv_c * r for r in rel_vec]
        last[-1] = one + last[-1]
        if affine:
            last.append(inv_c * rel_tail)
        rows.append(tuple(last))
    if affine:
        rows.append(tuple(zero for _ in range(dim)) + (one,))
    return OpMatrix(tuple(rows), affine)


def reference_step(fn: Hyper, which: str, index: int, direction: int,
                   affine_index: Optional[int] = None) -> OpMatrix:
    if (which == "upper") == (direction == 1):
        return forward_matrix(fn, which, index, affine_index)
    return forward_matrix(fn.shifted(which, index, direction), which, index,
                          affine_index).inverse()


def clear_and_normalize(target, basis, coeffs, tail, affine) -> ReductionResult:
    """Multiply by the lcm of the denominators, divide by the gcd, make S monic."""
    vars = coeffs[0].vars
    den_lcm = Poly.const(vars, 1)
    for c in list(coeffs) + [tail]:
        g = den_lcm.gcd(c.den)
        den_lcm = den_lcm * c.den.exact_div(g)
    s = den_lcm
    cleared = [(c * RatFunc.over(s)) for c in coeffs]
    tail_c = tail * RatFunc.over(s)
    polys = [s] + [c.num for c in cleared] + [tail_c.num]
    g = Poly.zero(vars)
    for p in polys:
        if not p.is_zero():
            g = g.gcd(p)
    if not g.is_zero() and not (g.is_const() and g.const_value() == 1):
        polys = [p.exact_div(g) if not p.is_zero() else p for p in polys]
    lf = polys[0].lead_fraction()
    if lf != 1:
        polys = [p.scale(1 / lf) for p in polys]
    s_poly = RatFunc.over(polys[0])
    r_polys = tuple(RatFunc.over(p) for p in polys[1:-1])
    tail_p = RatFunc.over(polys[-1])
    return ReductionResult(target, basis, s_poly, r_polys, tail_p, affine)


def reference_reduce(target: Hyper, basis: Hyper, path=None) -> ReductionResult:
    """reduce_to_basis by RatFunc steps, an OpMatrix row fold and a gcd clearing."""
    ups, los = shift_vector(target, basis)
    affine_index = next((i for i, b in enumerate(basis.upper)
                         if ups[i] == 0 and _is_unit_param(b)), None)
    if path is None:
        path = canonical_path(ups, los)
    _check_path(path, ups, los)
    vars = _ring_vars(basis)
    steps = []
    cur = basis
    for which, index, direction in path:
        steps.append(reference_step(cur, which, index, direction, affine_index))
        cur = cur.shifted(which, index, direction)
    affine = affine_index is not None
    last = steps.pop() if steps else OpMatrix.identity(vars, basis.p + 1, affine)
    acc = OpMatrix((last.row(0),), last.affine)
    for m in reversed(steps):
        acc = acc @ m
    row = acc.row(0)
    coeffs, tail = (row[:-1], row[-1]) if affine else (row, RatFunc.const(vars, 0))
    return clear_and_normalize(target, basis, coeffs, tail, affine)


def _z_valuation(p: Poly) -> int:
    return min(e[-1] for e in p.terms())


def _rows_from(p: Poly, lo: int, N: int, K: int):
    """The Fraction coefficients of z^lo .. z^(lo+N), eps^0 .. eps^K of p, as rows."""
    rows = [[Fraction(0)] * (K + 1) for _ in range(N + 1)]
    for (*e, j), c in p.terms().items():
        k = e[0] if e else 0
        if lo <= j <= lo + N and k <= K:
            rows[j - lo][k] += c
    return tuple(map(tuple, rows))


def _series_rows(r: RatFunc, N: int, K: int):
    """r's rows to z^N eps^K, by a Fraction inverse of r's denominator; a
    piece with a pole at z = 0 is refused."""
    if r.is_zero():
        return _rows_from(r.num, 0, N, K)
    if _z_valuation(r.den):
        raise UnsupportedClass(f"piece {r} has a pole at z = 0")
    den = _rows_from(r.den, 0, N, K)
    if den[0][0] == 0:
        raise PoleAtEpsZero(f"denominator {r.den} vanishes at eps=0")
    return rows_mul(_rows_from(r.num, 0, N, K), rows_invert(den))


def reference_depth(result: ReductionResult, N: int) -> int:
    """At least N and d + p + 2."""
    parts = [result.s_poly, *result.r_polys, result.algebraic_tail]
    d = max(max((e[-1] for e in r.num.terms()), default=-1) for r in parts)
    return max(N, d + len(result.target.lower) + 2)


def reference_verify(result: ReductionResult, N: int = 30, K: int = 2):
    """verify_reduction by Fraction row products, theta, sums and compare; after
    every piece is read (refusing a pole at z = 0), a piece with any other
    denominator in z is refused."""
    if not isinstance(result.target, HyperFn):
        raise ValueError("bind symbolic parameters before verification")
    N = reference_depth(result, N)
    st = series_of_hyper(result.target, N, K).rows
    theta_pow = series_of_hyper(result.basis, N, K).rows
    lhs = rows_mul(_series_rows(result.s_poly, N, K), st)
    rhs = tuple((Fraction(0),) * (K + 1) for _ in range(N + 1))
    for j, r in enumerate(result.r_polys):
        if j:
            theta_pow = rows_theta(theta_pow)
        if not r.is_zero():
            rhs = rows_add(rhs, rows_mul(_series_rows(r, N, K), theta_pow))
    if not result.algebraic_tail.is_zero():
        rhs = rows_add(rhs, _series_rows(result.algebraic_tail, N, K))
    for r in (result.s_poly, *result.r_polys, result.algebraic_tail):
        if any(e[-1] for e in r.den.terms()):
            raise UnsupportedClass(f"piece {r} is not a polynomial in z")
    mism = rows_first_mismatch(lhs, rhs)
    return (mism is None), mism
