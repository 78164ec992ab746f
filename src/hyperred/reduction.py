"""Differential reduction of hypergeometric functions to a derivative basis.

Functions are written as vectors over the basis column (F, theta F, ...,
theta^(d-1) F), with theta^d F brought back by the hypergeometric ODE (the
relation row).  When the function carries a unit upper parameter the module
becomes affine, with a constant slot realizing the algebraic tails of the
integer-parameter case.

Every denominator on a reduction path is a known linear factor, so a unit
step is kept fraction-free as (P, factors, K): a polynomial matrix P over K
times a product of linear factors (x - r)^m, each recorded by its root as
(x, r) (``poly.Factors``).  The relation row is polynomial over its
lead 1 - kappa z, so theta's matrix on the basis column is N' / (1 - kappa z)
with N' polynomial; its rows are lead e_(k+1) and, last, the relation row,
and ``QuotientModule.times_n`` applies it to a row.  One step builder
serves both moves around N'.  The
contiguous step F_shifted = (1 + theta/c) F, c free of z, is
P = c(1 - kappa z) I + N' over {c, 1 - kappa z}.  The opposite move inverts
that step in closed form: dividing the relation on the right by theta + c
leaves the remainder R = T(-c), a product of parameter differences (times
kappa z for a lower), so row 0 is a synthetic division over R, row k is
row 0 times N'^k, and the denominator is R (1 - kappa z)^(d-1), factored by
construction (Takayama 1989; HYPERDIRE, arXiv:1105.3565); a vanishing R is
the exceptional-parameter signal.  reduce_to_basis folds row 0 of the path
product with Poly products alone and, after each step, divides each
recorded factor out while it divides every numerator, tested at its root,
so the row stays at the size of the answer.  That reaches the unique
gcd-free form with S monic without a gcd.  The bindings of one diagram
family reduce from one basis along shared path prefixes, so the steps are
memoized process-wide, keyed on the ordered parameters.

verify_reduction checks a result on the series oracle as one residual
S F(target) - sum R_j theta^j F(basis) - tail, summed by the series
kernel ``truncated_sum``: the nonzero cells of S times the target's
integer series, the ``theta_pieces`` of sum R_j theta^j F(basis), as
``ThetaOp.apply`` sums them, and the tail's cells, over one denominator.
Its lowest nonzero (z^j, eps^k) cell is the verdict, so no series
product, sum or compare is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import List, Optional, Sequence, Tuple

from .errors import NotIntegerShift, SingularStep, VerificationFailure
from .hyper import Hyper, HyperFn
from .poly import Factors, Poly, _add_factor, _cancel, _factor_product, theta_poly
from .ratfunc import RatFunc
from .scalars import DEFAULT_N, EpsLin
from .series import lowest_cell, series_of_hyper, theta_pieces, truncated_sum
from .theta import ThetaOp

# ---------------------------------------------------------------------------
# parameter embedding


def _ring_vars(fn: Hyper):
    """(eps or n, the function's variable): the ring its parameters and steps live in."""
    return ("eps" if isinstance(fn, HyperFn) else "n", fn.var)


def _param_poly(vars, x) -> Poly:
    """const + c*vars[0] over vars, from a parameter linear in vars[0] alone."""
    if any(s != vars[0] for s in x.symbols):
        raise ValueError(f"bind propagator powers before reducing: {x}")
    return Poly.linear(vars, vars[0], x.coeff(vars[0]), x.const)


def _is_unit_param(x) -> bool:
    return x.is_integer() and x.const == 1


def ode_operator(fn: Hyper) -> ThetaOp:
    """kappa z prod(theta + a_i) - theta prod(theta + b_l - 1), degree p+1."""
    m = QuotientModule(fn)
    return ThetaOp([RatFunc.over(r) for r in m.rel_num + [-m.lead]])


# ---------------------------------------------------------------------------
# quotient module


class QuotientModule:
    """The relation that brings theta^dim F back into the basis of fn.

    theta^dim F = (sum_i rel_num[i] theta^i F + tail_num) / lead, the
    numerators polynomial over lead = 1 - kappa z, built in closed form
    from T = prod_l (theta + b_l - 1) - kappa z prod_i (theta + a_i), whose
    lead coefficient is 1 - kappa z, with T F = tail_num.  Generic (dim
    p+1): the first product carries an extra theta, so T is minus the ODE
    and tail_num = 0.  With ``affine`` the unit upper a_skip drops from the
    second product, giving the order-p inhomogeneous relation with
    tail_num = prod_l (b_l - 1).
    """

    def __init__(self, fn: Hyper, affine_index: Optional[int] = None):
        self.affine = affine_index is not None
        if self.affine and not _is_unit_param(fn.upper[affine_index]):
            raise ValueError("affine reduction needs a unit upper parameter")
        vars = _ring_vars(fn)
        one = Poly.const(vars, 1)
        self.lows = [_param_poly(vars, b) - 1 for b in fn.lower]
        if not self.affine:
            self.lows.append(Poly.zero(vars))
        self.ups = [_param_poly(vars, a) for i, a in enumerate(fn.upper) if i != affine_index]
        kz = Poly.variable(vars, fn.var).scale(fn.kappa)
        T = [lo - kz * up for lo, up in zip(theta_poly(self.lows, one),
                                            theta_poly(self.ups, one))]
        self.dim = len(T) - 1
        self.lead = T[-1]
        self.rel_num = [-t for t in T[:-1]]
        self.tail_num = one
        for lo in self.lows:
            self.tail_num = self.tail_num * lo

    def times_n(self, w):
        """The row w N', N' = lead N with N theta's matrix on the basis column.

        (w N')_0 = w_(dim-1) rel_0 and (w N')_j = lead w_(j-1) + w_(dim-1)
        rel_j; in affine mode the constant slot gets w_(dim-1) tail_num.
        """
        last = w[self.dim - 1]
        out = [last * self.rel_num[0]]
        out += [self.lead * w[j - 1] + last * self.rel_num[j] for j in range(1, self.dim)]
        return out + [last * self.tail_num] * self.affine


# ---------------------------------------------------------------------------
# matrices over rational functions


@dataclass(frozen=True)
class OpMatrix:
    """Square matrix over rational functions of z (or one row of one).

    The RatFunc view of a step (``step_matrix``), for tests and the public
    API; reductions fold the polynomial (P, factors, K) form instead.  Acts
    on the basis column (F, theta F, ..., theta^p F); in affine mode the
    final slot holds the constant function 1 instead of theta^p F and the
    bottom row is (0, ..., 0, 1).
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
# fraction-free steps


def _step(fn: Hyper, which: str, index: int, direction: int,
          affine_index: Optional[int]):
    """(P, factors, K) of one unit step of fn, from the step memo.

    The memo is keyed on the ordered parameters, never on fn itself: Hyper
    equality sorts the parameter lists, and the same move on a permuted
    list is another step.
    """
    return _unit_step(type(fn), fn.upper, fn.lower, fn.kappa, fn.var,
                      which, index, direction, affine_index)


# bounded; a 30 s `bench/run.py --workload diagram` run asks for 162 steps, 116 of
# them hits on 40 entries, while a `reduce` run meets each of its 256 steps once
# (about 0.6 MB of peak RSS, so 512 entries stay near 5% of that run's 24 MB)
@lru_cache(maxsize=512)
def _unit_step(cls, upper, lower, kappa, var, which: str, index: int, direction: int,
               affine_index: Optional[int]):
    """(P, factors, K): basis-column(shifted fn) = P / (K prod f^m) basis-column(fn).

    fn is cls(upper, lower, kappa, var).  P is a tuple of rows, factors a
    read-only mapping and K a Fraction, so a memoized step is shared safely.

    For upper+1 / lower-1, c is the upper parameter, or the lower one
    minus 1; it is free of z, so theta^k (1 + theta/c) F = theta^k F +
    theta^(k+1) F / c.  That is I + N/c with N theta's matrix on the basis
    column, and P = c lead I + N' over {c, lead}, N' = lead N: row k < dim-1
    is lead e_(k+1), row dim-1 the relation row with its tail, and the
    affine constant row zero, each plus c lead on the diagonal.

    The opposite moves invert the reverse step M = I + N/c, built at
    g = fn shifted.  g's relation T = sum T_k theta^k (T_dim = lead,
    T g = tail_num) divided on the right by theta + c is T = Q (theta + c)
    + R with R = T(-c), and (theta + c) g = c fn, so g = (tail_num - c Q fn)
    / R: row 0 of M^-1.  The stepped parameter is a root of one of T's two
    products, so R is the other one: prod (low - c) for an upper, and
    -kappa z prod (up - c) for a lower.  M is a polynomial in N and
    e_k = e_0 N^k, so row k is row 0 times N'^k, over R lead^k; the affine
    constant row stays e_const.
    """
    if which not in ("upper", "lower"):
        raise ValueError("which must be 'upper' or 'lower'")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    fn = cls(upper, lower, kappa, var)
    forward = (which == "upper") == (direction == 1)
    g = fn if forward else fn.shifted(which, index, direction)
    module = QuotientModule(g, affine_index)
    vars = _ring_vars(g)
    c = _param_poly(vars, g.upper[index]) if which == "upper" else \
        _param_poly(vars, g.lower[index]) - 1
    if c.is_zero():
        raise SingularStep(
            f"step divisor vanishes for {which}[{index}] of {g} (exceptional)")
    lead, rel, dim = module.lead, module.rel_num, module.dim
    zero = Poly.zero(vars)
    factors: Factors = {}
    if forward:
        K = _add_factor(factors, c) * _add_factor(factors, lead)
        size = dim + module.affine
        P = [[zero] * size for _ in range(size)]
        for k in range(dim - 1):
            P[k][k + 1] = lead
        P[dim - 1] = rel + [module.tail_num] * module.affine
        cl = c * lead
        for k, row in enumerate(P):
            row[k] = row[k] + cl
        return _frozen_step(P, factors, K)
    if which == "upper":
        pieces = [lo - c for lo in module.lows]
    else:
        pieces = [Poly.variable(vars, var).scale(-g.kappa)] + [u - c for u in module.ups]
    K = Fraction(1)
    for f in pieces:
        if f.is_zero():
            value = (fn.upper if which == "upper" else fn.lower)[index]
            raise SingularStep(
                f"contiguous-shift matrix is singular for step {which}[{index}] {direction:+d}"
                f" of {fn}, where {which}[{index}] = {value} (exceptional parameters)")
        K *= _add_factor(factors, f)
    # synthetic division: Q_(dim-1) = T_dim = lead, Q_(k-1) = T_k - c Q_k
    Q = [lead]
    for k in range(dim - 1, 0, -1):
        Q.append(-rel[k] - c * Q[-1])
    rows = [[-c * q for q in reversed(Q)] + [module.tail_num] * module.affine]
    for _ in range(dim - 1):
        rows.append(module.times_n(rows[-1]))
    K *= _add_factor(factors, lead, dim - 1)
    P = [[e * lead ** (dim - 1 - k) for e in v] for k, v in enumerate(rows)]
    if module.affine:
        P.append([zero] * dim + [_factor_product(vars, K, factors)])
    n = len(P)
    flat, factors = _cancel([e for row in P for e in row], factors)
    return _frozen_step([flat[i * n:(i + 1) * n] for i in range(n)], factors, K)


def _frozen_step(P, factors: Factors, K):
    return tuple(map(tuple, P)), MappingProxyType(factors), Fraction(K)


def step_matrix(fn: Hyper, which: str, index: int, direction: int,
                affine_index: Optional[int] = None) -> OpMatrix:
    """Matrix M with basis-column(shifted fn) = M basis-column(fn).

    direction +1 raises the parameter, -1 lowers it.  Upper raises and
    lower lowers are built directly; the two opposite moves invert the
    step of the reverse move, built at the shifted function.  This is the
    RatFunc view P / (K prod (x - r)^m) of the step that reduce_to_basis
    folds, each entry built by ``RatFunc.over``.
    """
    P, factors, K = _step(fn, which, index, direction, affine_index)
    return OpMatrix(tuple(tuple(RatFunc.over(e, factors, K) for e in row) for row in P),
                    affine_index is not None)


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

    def bind(self, n_value: EpsLin = DEFAULT_N) -> "ReductionResult":
        """Bind symbolic n to get a numeric result."""
        if isinstance(self.target, HyperFn):
            return self
        new_vars = ("eps", self.target.var)
        sub = {"n": _param_poly(new_vars, n_value)}
        conv = lambda r: r.subst_params(new_vars, sub)
        return ReductionResult(self.target.bind(n_value=n_value), self.basis.bind(n_value=n_value),
                               conv(self.s_poly),
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
    """t - b read off the fields: equal symbol parts and constants an integer apart."""
    c = t.const - b.const
    if t.terms != b.terms or c.denominator != 1:
        raise NotIntegerShift(f"difference {t - b} is not an integer")
    return c.numerator


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
    """Fold the unit steps from basis to target and clear the denominators.

    Uses the affine (tail-carrying) module when basis and target share an
    unshifted unit upper parameter, realizing the integer-parameter special
    case; the result is path independent after normalization.
    """
    ups, los = shift_vector(target, basis)
    affine_index = tail_upper(basis, ups)
    if path is None:
        path = canonical_path(ups, los)
    _check_path(path, ups, los)
    steps = []
    cur = basis
    for which, index, direction in path:
        steps.append(_step(cur, which, index, direction, affine_index))
        cur = cur.shifted(which, index, direction)
    # row 0 of M_k ... M_1 = row / (K prod f^m), folded from the target end
    vars = _ring_vars(basis)
    zero = Poly.zero(vars)
    row = [Poly.const(vars, 1)] + [zero] * basis.p
    factors: Factors = {}
    K = Fraction(1)
    for P, step_factors, step_K in reversed(steps):
        out = [zero] * len(row)
        for a, prow in zip(row, P):
            if a.is_zero():
                continue
            for j, e in enumerate(prow):
                if not e.is_zero():
                    out[j] = out[j] + a * e
        for f, m in step_factors.items():
            factors[f] = factors.get(f, 0) + m
        row, factors = _cancel(out, factors)
        K *= step_K
    affine = affine_index is not None
    if not affine:
        row.append(zero)
    s = RatFunc.over(_factor_product(vars, 1, factors))
    row = [RatFunc.over(p, K=K) for p in row]
    return ReductionResult(target, basis, s, tuple(row[:-1]), row[-1], affine)


def tail_upper(basis: Hyper, ups: Sequence[int]) -> Optional[int]:
    """The index of the first unit upper of basis that the upper shifts ups
    (of ``shift_vector``) leave alone, whose affine module carries the tail;
    None if there is none."""
    return next((i for i, b in enumerate(basis.upper) if ups[i] == 0 and _is_unit_param(b)),
                None)


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


def verify_depth(result: ReductionResult, N: int) -> int:
    """The z-depth verify_reduction checks: at least N and d + p + 2 + v.

    d is the highest z-degree of the numerators of S, the R_j and the
    tail, p the number of lower parameters and v the largest z-pole order
    among the R_j and the tail.  A piece over z^v moves the last checked
    row down by v, so no term of the result lies beyond the checked orders.
    """
    parts = (result.s_poly,) + tuple(result.r_polys) + (result.algebraic_tail,)
    return max(N, max(r.num.degree() for r in parts) + len(result.target.lower) + 2
               + max(r.pole_order() for r in parts[1:]))


def verify_reduction(result: ReductionResult, N: int = 30, K: int = 2):
    """Check S F(target) = sum R_j theta^j F(basis) + tail on the oracle.

    Returns (True, None) or (False, (j, k)) at the lowest nonzero cell of
    the residual S F(target) - sum R_j theta^j F(basis) - tail, summed by
    ``truncated_sum`` at z-depth verify_depth(result, N).  Parameters must
    be numeric (bind symbolic n first).
    """
    if not isinstance(result.target, HyperFn):
        raise ValueError("bind symbolic parameters before verification")
    N = verify_depth(result, N)
    pieces = theta_pieces([result.s_poly], series_of_hyper(result.target, N, K))
    if pieces and pieces[0][3]:
        raise VerificationFailure("cleared S acquired a z pole")
    pieces += theta_pieces(result.r_polys, series_of_hyper(result.basis, N, K), -1)
    if not result.algebraic_tail.is_zero():
        cells, den, v = result.algebraic_tail.z_cells(N, K)
        pieces.append((-1, cells, den, v, None))
    mism = lowest_cell(truncated_sum(pieces, N, K).nums, K)
    return mism is None, mism


# ---------------------------------------------------------------------------
# exceptional parameters and basis counting


@dataclass(frozen=True)
class ExceptionalReport:
    """Integer uppers, cancellable upper/lower pairs, overlap flags, basis count."""

    integer_uppers: Tuple[int, ...]
    pairs: Tuple[Tuple[int, int, int], ...]  # (upper index, lower index, diff)
    shared_flags: Tuple[int, ...]
    count: int


def detect_exceptional(fn: HyperFn) -> ExceptionalReport:
    """Flag integer uppers and upper/lower pairs with integer differences.

    Pairs are matched greedily, each upper taking the unused lower with
    the smallest non-negative integer difference (equal eps parts).

    The nontrivial basis count is (p+1) - #pairs - (1 if integer uppers are
    left unpaired).  A non-positive integer upper terminates the series, so
    the function is rational and the count is 0.  Positive integer uppers
    left over after pair cancellation all sit in the contiguous orbit of a
    single unit-upper function, whose inhomogeneous relation drops the
    order by exactly one; subtracting them individually would break
    criterion (i) on all-integer bindings.
    """
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


def count_nontrivial_basis(fn: HyperFn) -> int:
    """The number of nontrivial basis elements, ``detect_exceptional(fn).count``."""
    return detect_exceptional(fn).count
