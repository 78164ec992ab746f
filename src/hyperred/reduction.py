"""Differential reduction of hypergeometric functions to a derivative basis.

Functions are written as vectors over the basis column (F, theta F, ...,
theta^(d-1) F), with theta^d F brought back by the hypergeometric ODE (the
relation row).  When the function carries a unit upper parameter the module
becomes affine, with a constant slot realizing the algebraic tails of the
integer-parameter case.  A contiguous step F_shifted = (1 + theta/c) F, with
c free of z, is the matrix I + N/c, where N is theta on the basis and its
last row is the relation row; inverse steps invert that matrix, and a
vanishing determinant is exactly the exceptional-parameter signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import NotIntegerShift, SingularStep, VerificationFailure
from .hyper import Hyper, HyperFn
from .poly import Poly
from .ratfunc import RatFunc
from .scalars import EpsLin, LinearForm
from .series import BiSeries, series_of_hyper
from .theta import ThetaOp


# ---------------------------------------------------------------------------
# parameter embedding


def _ring_vars(fn: Hyper):
    if isinstance(fn, HyperFn):
        return ("eps", "z")
    return ("n", "z")


def _param_rf(vars, x) -> RatFunc:
    if isinstance(x, EpsLin):
        return RatFunc.from_epslin(vars, x)
    if isinstance(x, LinearForm):
        if x.j_coeffs:
            raise ValueError(f"bind propagator powers before reducing: {x}")
        p = Poly.const(vars, x.const)
        if x.n_coeff:
            p = p + Poly.variable(vars, "n").scale(x.n_coeff)
        return RatFunc(p, _normalized=True)
    return RatFunc.const(vars, x)


def _is_unit_param(x) -> bool:
    if isinstance(x, EpsLin):
        return x.eps == 0 and x.const == 1
    return x.n_coeff == 0 and not x.j_coeffs and x.const == 1


def _theta_poly(vars, roots: Sequence[RatFunc]) -> List[RatFunc]:
    """Coefficients of prod (theta + r), the factors commuting."""
    coeffs = [RatFunc.const(vars, 1)]
    for r in roots:
        nxt = [RatFunc.const(vars, 0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = nxt[i] + c * r
            nxt[i + 1] = nxt[i + 1] + c
        coeffs = nxt
    return coeffs


def ode_operator(fn: Hyper) -> ThetaOp:
    """kappa z prod(theta + a_i) - theta prod(theta + b_l - 1), degree p+1."""
    vars = _ring_vars(fn)
    zf = RatFunc.z(vars) * fn.kappa
    up = _theta_poly(vars, [_param_rf(vars, a) for a in fn.upper])
    low = _theta_poly(vars, [_param_rf(vars, b) - 1 for b in fn.lower])
    coeffs = [zf * c for c in up]
    for i, c in enumerate(low):
        coeffs[i + 1] = coeffs[i + 1] - c
    return ThetaOp(coeffs)


def unit_upper_relation(fn: Hyper, skip_index: int) -> Tuple[ThetaOp, RatFunc]:
    """Inhomogeneous order-p relation for a function with upper parameter 1.

    Returns (T, c) with T F = c, where
    T = prod_l (theta + b_l - 1) - kappa z prod_{i != skip} (theta + a_i)
    and c = prod_l (b_l - 1).
    """
    vars = _ring_vars(fn)
    zf = RatFunc.z(vars) * fn.kappa
    lows = [_param_rf(vars, b) - 1 for b in fn.lower]
    low = _theta_poly(vars, lows)
    ups = [_param_rf(vars, a) for i, a in enumerate(fn.upper) if i != skip_index]
    up = _theta_poly(vars, ups)
    coeffs = [RatFunc.const(vars, 0)] * (len(low))
    for i, c in enumerate(low):
        coeffs[i] = c
    for i, c in enumerate(up):
        coeffs[i] = coeffs[i] - zf * c
    const = RatFunc.const(vars, 1)
    for c in lows:
        const = const * c
    return ThetaOp(coeffs), const


# ---------------------------------------------------------------------------
# quotient module


class QuotientModule:
    """The relation that brings theta^dim F back into the basis of fn.

    dim is p+1 in the generic case; with ``affine`` a unit upper parameter
    contributes an order-p inhomogeneous relation, and theta^dim F picks
    up a constant tail: theta^dim F = sum_i rel_vec[i] theta^i F + rel_tail.
    """

    def __init__(self, fn: Hyper, affine_index: Optional[int] = None):
        self.affine = affine_index is not None
        if self.affine:
            if not _is_unit_param(fn.upper[affine_index]):
                raise ValueError("affine reduction needs a unit upper parameter")
            rel, const = unit_upper_relation(fn, affine_index)
            self.dim = fn.p
        else:
            rel = ode_operator(fn)
            const = RatFunc.const(_ring_vars(fn), 0)
            self.dim = fn.p + 1
        lead = rel.coeff(self.dim)
        if lead.is_zero():
            raise SingularStep(f"relation for {fn} lost its leading term")
        self.rel_vec = [-(rel.coeff(i) / lead) for i in range(self.dim)]
        self.rel_tail = const / lead


# ---------------------------------------------------------------------------
# matrices over rational functions


@dataclass(frozen=True)
class OpMatrix:
    """Square matrix over rational functions of z (or one row of one).

    Acts on the basis column (F, theta F, ..., theta^p F); in affine mode
    the final slot holds the constant function 1 instead of theta^p F and
    the bottom row is (0, ..., 0, 1).
    """

    entries: Tuple[Tuple[RatFunc, ...], ...]
    affine: bool = False

    @property
    def size(self):
        return len(self.entries)

    @classmethod
    def identity(cls, vars, n, affine=False):
        one = RatFunc.const(vars, 1)
        zero = RatFunc.const(vars, 0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n))
                         for i in range(n)), affine)

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        """Product; the left operand may be a single row (a 1 x n matrix)."""
        inner, cols = other.size, len(other.entries[0])
        zero = RatFunc.const(self.entries[0][0].vars, 0)
        out = []
        for i in range(self.size):
            row = []
            for j in range(cols):
                acc = zero
                for k in range(inner):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return OpMatrix(tuple(out), self.affine or other.affine)

    def inverse(self) -> "OpMatrix":
        """Gauss-Jordan inverse; SingularStep if the determinant vanishes."""
        n = self.size
        vars = self.entries[0][0].vars
        zero = RatFunc.const(vars, 0)
        one = RatFunc.const(vars, 1)
        a = [list(r) for r in self.entries]
        inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if piv is None:
                raise SingularStep(
                    "contiguous-shift matrix is singular (exceptional parameters)")
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            p = a[col][col]
            a[col] = [x / p for x in a[col]]
            inv[col] = [x / p for x in inv[col]]
            for r in range(n):
                if r == col or a[r][col].is_zero():
                    continue
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return OpMatrix(tuple(tuple(r) for r in inv), self.affine)

    def row(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, OpMatrix):
            return NotImplemented
        return self.size == other.size and all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb))


# ---------------------------------------------------------------------------
# contiguous steps


def _forward_matrix(fn: Hyper, which: str, index: int,
                    affine_index: Optional[int]) -> OpMatrix:
    """I + N/c, the matrix of F_shifted = (1 + theta/c) F for upper+1 / lower-1.

    c is the upper parameter, or the lower one minus 1; it is free of z, so
    theta^k (1 + theta/c) F = theta^k F + theta^(k+1) F / c.  N is theta on
    the basis column: row k < dim-1 is e_(k+1), and the last row is the
    relation row, with its tail in affine mode.
    """
    module = QuotientModule(fn, affine_index)
    vars = _ring_vars(fn)
    if which == "upper":
        c = _param_rf(vars, fn.upper[index])
    else:
        c = _param_rf(vars, fn.lower[index]) - 1
    if c.is_zero():
        raise SingularStep(
            f"step divisor vanishes for {which}[{index}] of {fn} (exceptional)")
    inv_c = 1 / c
    zero = RatFunc.const(vars, 0)
    one = RatFunc.const(vars, 1)
    dim = module.dim
    rows = []
    for k in range(dim - 1):
        row = [zero] * (dim + module.affine)
        row[k], row[k + 1] = one, inv_c
        rows.append(tuple(row))
    if dim:
        last = [inv_c * r for r in module.rel_vec]
        last[-1] = one + last[-1]
        if module.affine:
            last.append(inv_c * module.rel_tail)
        rows.append(tuple(last))
    if module.affine:
        rows.append(tuple(zero for _ in range(dim)) + (one,))
    return OpMatrix(tuple(rows), module.affine)


def step_matrix(fn: Hyper, which: str, index: int, direction: int,
                affine_index: Optional[int] = None) -> OpMatrix:
    """Matrix M with basis-column(shifted fn) = M basis-column(fn).

    direction +1 raises the parameter, -1 lowers it.  Upper raises and
    lower lowers are built directly as I + N/c; the two opposite moves
    invert the matrix of the reverse step, built at the shifted function.
    """
    if which not in ("upper", "lower"):
        raise ValueError("which must be 'upper' or 'lower'")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    forward = (which == "upper") == (direction == 1)
    if forward:
        return _forward_matrix(fn, which, index, affine_index)
    g = fn.shifted(which, index, direction)
    reverse = _forward_matrix(g, which, index, affine_index)
    try:
        return reverse.inverse()
    except SingularStep as exc:
        value = (fn.upper if which == "upper" else fn.lower)[index]
        raise SingularStep(
            f"contiguous-shift matrix is singular for step {which}[{index}] {direction:+d}"
            f" of {fn}, where {which}[{index}] = {value} (exceptional parameters)") from exc


# ---------------------------------------------------------------------------
# full reduction


@dataclass(frozen=True)
class ReductionResult:
    """S F(target) = sum_j r_polys[j] theta^j F(basis) + algebraic_tail.

    s_poly, r_polys and the tail are cleared of denominators and globally
    normalized (gcd removed, s_poly lead coefficient 1), so equal
    reductions produced along different shift paths compare equal.
    """

    target: Hyper
    basis: Hyper
    s_poly: RatFunc
    r_polys: Tuple[RatFunc, ...]
    algebraic_tail: RatFunc
    affine: bool = False

    def bind(self, j_values=None, n_value: EpsLin = EpsLin(4, -2)) -> "ReductionResult":
        """Bind symbolic n (and propagator powers) to get a numeric result."""
        if isinstance(self.target, HyperFn):
            return self
        tgt = self.target.bind(j_values or {}, n_value)
        bas = self.basis.bind(j_values or {}, n_value)
        new_vars = ("eps", "z")
        n_img = Poly.const(new_vars, n_value.const) + \
            Poly.variable(new_vars, "eps").scale(n_value.eps)
        sub = {"n": n_img}
        conv = lambda r: r.subst_params(new_vars, sub)
        return ReductionResult(tgt, bas, conv(self.s_poly),
                               tuple(conv(r) for r in self.r_polys),
                               conv(self.algebraic_tail), self.affine)


def shift_vector(target: Hyper, basis: Hyper):
    """Integer componentwise shifts target - basis; NotIntegerShift otherwise."""
    if len(target.upper) != len(basis.upper) or len(target.lower) != len(basis.lower):
        raise NotIntegerShift("parameter list lengths differ")
    if target.kappa != basis.kappa or target.var != basis.var:
        raise NotIntegerShift("argument descriptors differ")
    ups, los = [], []
    for t, b in zip(target.upper, basis.upper):
        ups.append(_int_diff(t, b))
    for t, b in zip(target.lower, basis.lower):
        los.append(_int_diff(t, b))
    return ups, los


def _int_diff(t, b) -> int:
    d = t - b
    if isinstance(d, EpsLin):
        if d.eps != 0 or d.const.denominator != 1:
            raise NotIntegerShift(f"difference {d} is not an integer")
        return int(d.const)
    if d.n_coeff != 0 or d.j_coeffs or d.const.denominator != 1:
        raise NotIntegerShift(f"difference {d} is not an integer")
    return int(d.const)


def canonical_path(ups, los):
    """Unit steps: uppers left to right, then lowers left to right."""
    path = []
    for i, m in enumerate(ups):
        path.extend([("upper", i, 1 if m > 0 else -1)] * abs(m))
    for l, m in enumerate(los):
        path.extend([("lower", l, 1 if m > 0 else -1)] * abs(m))
    return path


def reduce_to_basis(target: Hyper, basis: Hyper,
                    path: Optional[List[Tuple[str, int, int]]] = None) -> ReductionResult:
    """Compose unit-step matrices from basis to target and clear denominators.

    Uses the affine (tail-carrying) module when basis and target share an
    unshifted unit upper parameter, realizing the integer-parameter special
    case; the result is path independent after normalization.
    """
    ups, los = shift_vector(target, basis)
    affine_index = None
    for i, (t, b) in enumerate(zip(target.upper, basis.upper)):
        if ups[i] == 0 and _is_unit_param(b):
            affine_index = i
            break
    if path is None:
        path = canonical_path(ups, los)
    _check_path(path, ups, los)
    vars = _ring_vars(basis)
    steps = []
    cur = basis
    for which, index, direction in path:
        steps.append(step_matrix(cur, which, index, direction, affine_index))
        cur = cur.shifted(which, index, direction)
    # row 0 of M_k ... M_1, folded from the target end as row x matrix products
    last = steps.pop() if steps else OpMatrix.identity(vars, basis.p + 1,
                                                        affine_index is not None)
    acc = OpMatrix((last.row(0),), last.affine)
    for m in reversed(steps):
        acc = acc @ m
    row = acc.row(0)
    if affine_index is not None:
        coeffs, tail = row[:-1], row[-1]
    else:
        coeffs, tail = row, RatFunc.const(vars, 0)
    return _clear_and_normalize(target, basis, coeffs, tail, affine_index is not None)


def _check_path(path, ups, los):
    ups = list(ups)
    los = list(los)
    for which, index, direction in path:
        if which == "upper":
            ups[index] -= direction
        else:
            los[index] -= direction
    if any(ups) or any(los):
        raise NotIntegerShift("shift path does not connect basis to target")


def _clear_and_normalize(target, basis, coeffs, tail, affine) -> ReductionResult:
    vars = coeffs[0].vars
    den_lcm = Poly.const(vars, 1)
    for c in list(coeffs) + [tail]:
        g = den_lcm.gcd(c.den)
        den_lcm = den_lcm * c.den.exact_div(g)
    s = Poly(vars, den_lcm.rep)
    cleared = [(c * RatFunc(s, _normalized=True)) for c in coeffs]
    tail_c = tail * RatFunc(s, _normalized=True)
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
    s_poly = RatFunc(polys[0], _normalized=True)
    r_polys = tuple(RatFunc(p, _normalized=True) for p in polys[1:-1])
    tail_p = RatFunc(polys[-1], _normalized=True)
    return ReductionResult(target, basis, s_poly, r_polys, tail_p, affine)


def verify_reduction(result: ReductionResult, N: int = 30, K: int = 2):
    """Check S F(target) = sum R_j theta^j F(basis) + tail on the oracle.

    Returns (True, None) or (False, (j, k)) at the first mismatching
    series coefficient.  Parameters must be numeric (bind symbolic n first).
    The z-depth is at least d + p + 2, where d is the highest z-degree of
    the numerators of S, the R_j and the tail, and p the number of lower
    parameters, so no term of the result lies beyond the checked orders.
    """
    if not isinstance(result.target, HyperFn):
        raise ValueError("bind symbolic parameters before verification")
    parts = (result.s_poly,) + tuple(result.r_polys) + (result.algebraic_tail,)
    d = max(r.num.degree() for r in parts)
    N = max(N, d + len(result.target.lower) + 2)
    st = series_of_hyper(result.target, N, K)
    sb = series_of_hyper(result.basis, N, K)
    s_series, v = result.s_poly.to_biseries(N, K)
    if v:
        raise VerificationFailure("cleared S acquired a z pole")
    lhs = s_series * st
    rhs = None
    theta_pow = sb
    for j, r in enumerate(result.r_polys):
        if j > 0:
            theta_pow = theta_pow.theta()
        if r.is_zero():
            continue
        rs, rv = r.to_biseries(N, K)
        piece = (rs * theta_pow).div_z(rv)
        rhs = piece if rhs is None else rhs + piece
    if rhs is None:
        rhs = BiSeries.zeros(N, K)
    if not result.algebraic_tail.is_zero():
        ts, tv = result.algebraic_tail.to_biseries(N, K)
        rhs = rhs + ts.div_z(tv)
    mism = lhs.first_mismatch(rhs)
    return (mism is None), mism


# ---------------------------------------------------------------------------
# exceptional parameters and basis counting


@dataclass(frozen=True)
class ExceptionalReport:
    """Integer uppers, cancellable upper/lower pairs, and overlap flags."""

    integer_uppers: Tuple[int, ...]
    pairs: Tuple[Tuple[int, int, int], ...]  # (upper index, lower index, diff)
    shared_flags: Tuple[int, ...] = ()

    @property
    def remaining_integer_uppers(self):
        used = {i for i, _, _ in self.pairs}
        return tuple(i for i in self.integer_uppers if i not in used)


def detect_exceptional(fn: HyperFn) -> ExceptionalReport:
    """Flag integer uppers and upper/lower pairs with integer differences.

    Pairs are matched greedily, each upper taking the unused lower with
    the smallest non-negative integer difference (equal eps parts).
    """
    integer_uppers = tuple(i for i, u in enumerate(fn.upper) if u.is_integer())
    used_lowers = set()
    pairs = []
    for i, u in enumerate(fn.upper):
        best = None
        for l, b in enumerate(fn.lower):
            if l in used_lowers or u.eps != b.eps:
                continue
            d = u.const - b.const
            if d.denominator == 1 and d >= 0:
                if best is None or d < best[1]:
                    best = (l, d)
        if best is not None:
            used_lowers.add(best[0])
            pairs.append((i, best[0], int(best[1])))
    shared = tuple(i for i, _, _ in pairs if i in integer_uppers)
    return ExceptionalReport(integer_uppers, tuple(pairs), shared)


def count_nontrivial_basis(fn: HyperFn) -> int:
    """Nontrivial basis elements: (p+1) - #pairs - (1 if integer uppers left).

    A non-positive integer upper terminates the series, so the function is
    rational and the count is 0.  Positive integer uppers left over after
    pair cancellation all sit in the contiguous orbit of a single
    unit-upper function, whose inhomogeneous relation drops the order by
    exactly one; subtracting them individually would break criterion (i)
    on all-integer bindings.
    """
    rep = detect_exceptional(fn)
    if any(fn.upper[i].const <= 0 for i in rep.integer_uppers):
        return 0
    L = (fn.p + 1) - len(rep.pairs) - (1 if rep.remaining_integer_uppers else 0)
    return max(L, 0)
