"""Differential reduction of hypergeometric functions to a derivative basis.

Functions are written as vectors over the basis column (F, theta F, ...,
theta^(d-1) F), with theta^d F brought back by the hypergeometric ODE (the
relation row).  When the function carries a unit upper parameter the module
becomes affine, with a constant slot realizing the algebraic tails of the
integer-parameter case.

Every denominator on a reduction path is a known linear factor, so a unit
step is kept fraction-free as (P, factors, K): a polynomial matrix P over K
times a product of monic factors.  The relation row is polynomial over its
lead 1 - kappa z, so the contiguous step F_shifted = (1 + theta/c) F, c free
of z, is P = c(1 - kappa z) I + (1 - kappa z) shift + relation row, over
{c, 1 - kappa z}.  An inverse step is written in closed form: dividing the
relation on the right by theta + c leaves the remainder R = T(-c), a
product of parameter differences (times kappa z for a lower), so its
denominator is R (1 - kappa z)^(d-1), factored by construction (Takayama
1989; HYPERDIRE, arXiv:1105.3565); a vanishing R is the
exceptional-parameter signal.  reduce_to_basis folds row 0 of the path
product with Poly products alone and, after each step, divides each
recorded factor out while it divides every numerator, tested at its root,
so the row stays at the size of the answer.  That reaches the unique
gcd-free form with S monic without a gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import NotIntegerShift, SingularStep, VerificationFailure
from .hyper import Hyper, HyperFn
from .poly import Factors, Poly, _cancel, _factor_product, theta_poly
from .ratfunc import RatFunc
from .scalars import EpsLin
from .series import series_of_hyper, theta_action
from .theta import ThetaOp

# ---------------------------------------------------------------------------
# parameter embedding


def _ring_vars(fn: Hyper):
    if isinstance(fn, HyperFn):
        return ("eps", "z")
    return ("n", "z")


def _param_poly(vars, x) -> Poly:
    if isinstance(x, EpsLin):
        name, coeff = "eps", x.eps
    elif x.j_coeffs:
        raise ValueError(f"bind propagator powers before reducing: {x}")
    else:
        name, coeff = "n", x.n_coeff
    p = Poly.const(vars, x.const)
    return p + Poly.variable(vars, name).scale(coeff) if coeff else p


def _is_unit_param(x) -> bool:
    return x.is_integer() and x.const == 1


def ode_operator(fn: Hyper) -> ThetaOp:
    """kappa z prod(theta + a_i) - theta prod(theta + b_l - 1), degree p+1."""
    m = QuotientModule(fn)
    return ThetaOp([RatFunc(r, _normalized=True) for r in m.rel_num]
                   + [RatFunc(-m.lead, _normalized=True)])


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
        kz = Poly.variable(vars, "z").scale(fn.kappa)
        T = [lo - kz * up for lo, up in zip(theta_poly(self.lows, one),
                                            theta_poly(self.ups, one))]
        self.dim = len(T) - 1
        self.lead = T[-1]
        self.rel_num = [-t for t in T[:-1]]
        self.tail_num = one
        for lo in self.lows:
            self.tail_num = self.tail_num * lo


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


def _add_factor(factors: Factors, f: Poly, m: int = 1) -> Fraction:
    """Record f^m by its monic form; returns the constant split off, lead^m."""
    if f.is_const():
        return f.const_value() ** m
    lf = f.lead_fraction()
    key = f if lf == 1 else f.scale(1 / lf)
    factors[key] = factors.get(key, 0) + m
    return lf ** m


def _step_divisor(fn: Hyper, which: str, index: int, vars) -> Poly:
    """c of F_shifted = (1 + theta/c) F: the upper, or the lower minus 1."""
    if which == "upper":
        c = _param_poly(vars, fn.upper[index])
    else:
        c = _param_poly(vars, fn.lower[index]) - 1
    if c.is_zero():
        raise SingularStep(
            f"step divisor vanishes for {which}[{index}] of {fn} (exceptional)")
    return c


def _forward_step(fn: Hyper, which: str, index: int, affine_index: Optional[int]):
    """(P, c, lead): the step F_shifted = (1 + theta/c) F is P / (c lead).

    For upper+1 / lower-1, c is the upper parameter, or the lower one
    minus 1; it is free of z, so theta^k (1 + theta/c) F = theta^k F +
    theta^(k+1) F / c.  That is I + N/c with N theta on the basis column:
    row k < dim-1 is e_(k+1), and the last row is the relation row, with
    its tail in affine mode.  P = c lead (I + N/c), lead = 1 - kappa z.
    """
    module = QuotientModule(fn, affine_index)
    vars = _ring_vars(fn)
    c = _step_divisor(fn, which, index, vars)
    lead, dim = module.lead, module.dim
    size = dim + module.affine
    P = [[Poly.zero(vars)] * size for _ in range(size)]
    for k in range(size):
        P[k][k] = c * lead
    for k in range(dim - 1):
        P[k][k + 1] = lead
    if dim:
        last = P[dim - 1]
        for i, r in enumerate(module.rel_num):
            last[i] = last[i] + r
        if module.affine:
            last[dim] = module.tail_num
    return P, c, lead


def _inverse_step(fn: Hyper, which: str, index: int, direction: int,
                  affine_index: Optional[int]):
    """The inverse of the reverse step M = I + N/c, built at g = fn shifted.

    g's relation T = sum T_k theta^k (T_dim = lead, T g = tail_num) divided
    on the right by theta + c, c free of z, is T = Q (theta + c) + R with
    R = T(-c), and (theta + c) g = c fn, so g = (tail_num - c Q fn) / R:
    row 0 of M^-1.  The stepped parameter is a root of one of T's two
    products, so R is the other one: prod (low - c) for an upper, and
    -kappa z prod (up - c) for a lower.  M is a polynomial in N and
    e_k = e_0 N^k, so row k is row 0 times N^k, kept fraction-free over
    R lead^k; the affine constant row stays e_const.
    """
    g = fn.shifted(which, index, direction)
    module = QuotientModule(g, affine_index)
    vars = _ring_vars(g)
    c = _step_divisor(g, which, index, vars)
    lead, rel, dim = module.lead, module.rel_num, module.dim
    if which == "upper":
        pieces = [lo - c for lo in module.lows]
    else:
        pieces = [Poly.variable(vars, "z").scale(-g.kappa)] + [u - c for u in module.ups]
    factors: Factors = {}
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
    # (v N)_j = v_(j-1) + v_(dim-1) rel_num[j] / lead; constant slot v_(dim-1) tail_num / lead
    for _ in range(dim - 1):
        v = rows[-1]
        last = v[dim - 1]
        nxt = [last * rel[0]] + [lead * v[j - 1] + last * rel[j] for j in range(1, dim)]
        rows.append(nxt + [last * module.tail_num] * module.affine)
    K *= _add_factor(factors, lead, dim - 1)
    P = [[e * lead ** (dim - 1 - k) for e in v] for k, v in enumerate(rows)]
    if module.affine:
        P.append([Poly.zero(vars)] * dim + [_factor_product(vars, K, factors)])
    n = len(P)
    flat, factors = _cancel([e for row in P for e in row], factors)
    return [flat[i * n:(i + 1) * n] for i in range(n)], factors, K


def _step(fn: Hyper, which: str, index: int, direction: int,
          affine_index: Optional[int]):
    """(P, factors, K): basis-column(shifted fn) = P / (K prod f^m) basis-column(fn)."""
    if which not in ("upper", "lower"):
        raise ValueError("which must be 'upper' or 'lower'")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if (which == "upper") != (direction == 1):
        return _inverse_step(fn, which, index, direction, affine_index)
    P, c, lead = _forward_step(fn, which, index, affine_index)
    factors: Factors = {}
    K = _add_factor(factors, c) * _add_factor(factors, lead)
    return P, factors, K


def step_matrix(fn: Hyper, which: str, index: int, direction: int,
                affine_index: Optional[int] = None) -> OpMatrix:
    """Matrix M with basis-column(shifted fn) = M basis-column(fn).

    direction +1 raises the parameter, -1 lowers it.  Upper raises and
    lower lowers are built directly; the two opposite moves invert the
    step of the reverse move, built at the shifted function.  This is the
    RatFunc view P / (K prod f^m) of the step that reduce_to_basis folds.
    """
    P, factors, K = _step(fn, which, index, direction, affine_index)
    vars = P[0][0].vars

    def entry(e: Poly) -> RatFunc:
        # the factors left after trial division share none with e: gcd-free;
        # a zero entry keeps no factor, so its denominator is 1
        (e,), left = _cancel([e], factors)
        return RatFunc(e.scale(1 / K), _factor_product(vars, 1, left), _normalized=True)

    return OpMatrix(tuple(tuple(entry(e) for e in row) for row in P), affine_index is not None)


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
    if not d.is_integer():
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
    """Fold the unit steps from basis to target and clear the denominators.

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
    s = _factor_product(vars, Fraction(1), factors)
    if K != 1:
        row = [p.scale(1 / K) for p in row]
    r_polys = tuple(RatFunc(p, _normalized=True) for p in row[:-1])
    return ReductionResult(target, basis, RatFunc(s, _normalized=True), r_polys,
                           RatFunc(row[-1], _normalized=True), affine)


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
    rhs = theta_action(result.r_polys, sb)
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
