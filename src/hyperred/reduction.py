"""Differential reduction of hypergeometric functions to a derivative basis.

Functions are written as vectors over the basis column (F, theta F, ...,
theta^(d-1) F), with theta^d F brought back by the hypergeometric ODE (the
relation row).  When the function carries a unit upper parameter the module
becomes affine, with a constant slot realizing the algebraic tails of the
integer-parameter case.

Every denominator on a reduction path is a known linear factor, so a unit
step is kept fraction-free on integer reps as (P, factors, K): an integer
polynomial matrix P over an int K times a product of primitive linear
factors (q x - p)^m, each recorded by its root as (x, p/q) (``poly.Factors``).
Each parameter enters as its integer form (p0 + p1 v) / q, v = eps or n
(``Linear.int_line``), and every constant denominator lands in K.
theta's matrix on the basis column is N' / lead with N' integral
(``QuotientModule``), and one step builder (``_unit_step``) serves the
forward move P = c lead I + N' over {c, lead} and, inverting it in
closed form over the remainder R = T(-c) (Takayama 1989; HYPERDIRE,
arXiv:1105.3565), the opposite one; a vanishing R is the
exceptional-parameter signal.

reduce_to_basis folds row 0 of the path product on integer reps through
poly's flat kernels alone, with no Poly, Fraction or content scan per
operation, and after each step divides recorded factors out while they
divide every entry, tested at their roots (``_cancel``).  A factor carried
from an earlier step is tried again only at a step whose det P vanishes
on it, from roots each memoized step records in closed form.  That
reaches the unique gcd-free form with S monic without a gcd; the R_j and
the tail are put over their own denominators as the answer leaves the
module.  The bindings of one diagram family reduce from one basis along
shared path prefixes, so the steps are memoized process-wide, keyed on
the function, whose equality keeps its parameters in order.

verify_reduction checks a result on the series oracle as one residual
S F(target) - sum R_j theta^j F(basis) - tail, summed by the series
kernel ``truncated_sum``: the nonzero cells of S times the target's
integer series, the ``theta_pieces`` of sum R_j theta^j F(basis), as
``ThetaOp.apply`` sums them (the R_j as one piece, one product per
cell), and the tail's cells, over one denominator.  Every piece must be
a polynomial: ``RatFunc.z_cells`` refuses one with a pole at z = 0, and
verify_reduction any other denominator in z.
Its lowest nonzero (z^j, eps^k) cell is the verdict, so no series
product, sum or compare is built.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import List, Optional, Sequence, Tuple

from .errors import NotIntegerShift, SingularStep, UnsupportedClass, VerificationFailure
from .hyper import Hyper, HyperFn
from .poly import (Factors, Poly, _add, _add_factor, _cancel, _const, _div_int, _factor_product,
                   _int_content, _monic_product, _monomial, _mul, _neg, _pow, _scale,
                   _theta_product, _trim)
from .ratfunc import RatFunc
from .scalars import DEFAULT_N, EpsLin
from .series import lowest_cell, series_of_hyper, theta_pieces, truncated_sum
from .theta import ThetaOp
from .value import Value

# ---------------------------------------------------------------------------
# parameter embedding


def _ring_vars(fn: Hyper):
    """(eps or n, the function's variable): the ring its parameters and steps live in."""
    return ("eps" if isinstance(fn, HyperFn) else "n", fn.var)


def _line(i, a, b):
    """The rep of a x_i + b over the two variables of a reduction ring."""
    return _add(_monomial(2, i, a), _const(2, b), 2)


def _is_unit_param(x) -> bool:
    return x.is_integer() and x.const == 1


def ode_operator(fn: Hyper) -> ThetaOp:
    """kappa z prod(theta + a_i) - theta prod(theta + b_l - 1), degree p+1."""
    m = QuotientModule(fn)
    vars = _ring_vars(fn)
    # the module's -T is this operator times L, the constant term of its lead
    L = m.lead_line[1]
    return ThetaOp([RatFunc.over(Poly._of(vars, r, 1), K=L)
                    for r in m.rel_num + [_neg(m.lead, 2)]])


# ---------------------------------------------------------------------------
# quotient module


class QuotientModule:
    """The relation that brings theta^dim F back into the basis of fn.

    theta^dim F = (sum_i rel_num[i] theta^i F + tail_num) / lead, integer
    reps over (v, x) (v = eps or n, x the function's variable) built in
    closed form from T = sum_k T_k theta^k, T F = tail_num, a primitive
    integer multiple of prod_l (theta + b_l - 1) - kappa x prod_i (theta + a_i),
    whose lead coefficient is a multiple of 1 - kappa x.  Each parameter
    enters as integers (p0 + p1 v) / q (``lows`` and ``ups`` hold them,
    b_l - 1 for a lower), so with A and B the theta-products of q theta +
    p0 + p1 v over lows and ups (``poly._theta_product``), and Dlo, Dup the
    products of their q, T = alpha A - beta x B for alpha = Dup kd / h and
    beta = Dlo kn / h, kappa = kn / kd and h = gcd(Dup kd, Dlo kn).  A and
    B are primitive (Gauss) and so is T, and lead = -beta Dup x + alpha Dlo,
    kept as the pair ``lead_line``.
    Generic (dim p+1): lows carries an extra 0, so T is a multiple of minus
    the ODE and tail_num = 0.  With ``affine`` the unit upper a_skip drops
    from ups, giving the order-p inhomogeneous relation with tail_num =
    alpha prod_l (p0 + p1 v) = alpha A_0.
    """

    def __init__(self, fn: Hyper, affine_index: Optional[int] = None):
        self.affine = affine_index is not None
        if self.affine and not _is_unit_param(fn.upper[affine_index]):
            raise ValueError("affine reduction needs a unit upper parameter")
        vars = _ring_vars(fn)
        self.lows = [(p0 - q, p1, q) for p0, p1, q in (b.int_line(vars[0]) for b in fn.lower)]
        if not self.affine:
            self.lows.append((0, 0, 1))
        self.ups = [a.int_line(vars[0]) for i, a in enumerate(fn.upper) if i != affine_index]
        (A, Dlo), (B, Dup) = _theta_product(self.lows), _theta_product(self.ups)
        kn, kd = fn.kappa.numerator, fn.kappa.denominator
        h = gcd(Dup * kd, Dlo * kn)
        self.alpha, self.beta = Dup * kd // h, Dlo * kn // h
        T = [_trim((_scale(a, self.alpha, 1), _scale(b, -self.beta, 1)), 2)
             for a, b in zip(A, B)]
        self.dim = len(T) - 1
        self.lead = T[-1]
        self.lead_line = (-self.beta * Dup, self.alpha * Dlo)
        self.rel_num = [_neg(t, 2) for t in T[:-1]]
        self.tail_num = _trim((_scale(A[0], self.alpha, 1),), 2)

    def times_n(self, w):
        """The row w N', N' = lead N with N theta's matrix on the basis column.

        (w N')_0 = w_(dim-1) rel_0 and (w N')_j = lead w_(j-1) + w_(dim-1)
        rel_j; in affine mode the constant slot gets w_(dim-1) tail_num.
        """
        last = w[self.dim - 1]
        out = [_mul(last, self.rel_num[0], 2)]
        out += [_add(_mul(self.lead, w[j - 1], 2), _mul(last, self.rel_num[j], 2), 2)
                for j in range(1, self.dim)]
        return out + [_mul(last, self.tail_num, 2)] * self.affine


# ---------------------------------------------------------------------------
# matrices over rational functions


class OpMatrix(Value):
    """Square matrix over rational functions of z (or one row of one).

    The RatFunc view of a step (``step_matrix``), for tests and the public
    API; reductions fold the polynomial (P, factors, K) form instead.  Acts
    on the basis column (F, theta F, ..., theta^p F); in affine mode the
    final slot holds the constant function 1 instead of theta^p F and the
    bottom row is (0, ..., 0, 1).
    """

    __slots__ = ("entries", "affine")
    _defaults = (False,)

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



# ---------------------------------------------------------------------------
# fraction-free steps


# bounded; a 30 s `bench/run.py --workload diagram` run asks for 162 steps, 116 of
# them hits on 40 entries, while a `reduce` run meets each of its 256 steps once
# (about 0.6 MB of peak RSS, so 512 entries stay near 5% of that run's 24 MB)
@lru_cache(maxsize=512)
def _unit_step(fn: Hyper, which: str, index: int, direction: int,
               affine_index: Optional[int]):
    """(P, factors, K, roots): basis-column(shifted fn) = P / (K prod (q x - p)^m) basis-column(fn).

    The memo keys on fn itself: Hyper equality is field by field, so equal
    functions list their parameters in one order and take one step.  P is
    a tuple of rows of integer reps over (v, x), factors a read-only
    mapping {(x, p/q): m}, K an int and roots a frozenset of factor keys,
    or None, so a memoized step is shared safely.  roots are the linear
    factors of det P and the step's own factors; None where det P is
    identically zero (``_cancel``).

    Both moves are built at g (fn for a forward move, fn shifted for the
    opposite one) from the parameter c, the upper one or the lower one
    minus 1, written cn / cq with cn = c0 + c1 v.  c is free of x, so
    theta^k (1 + theta/c) g = theta^k g + theta^(k+1) g / c: the forward
    step is M = I + N/c, N theta's matrix on the basis column, and with
    N' = lead N (row k < dim-1 is lead e_(k+1), row dim-1 the relation row
    with its tail, the affine constant row zero) P = cn lead/s I + cq/s N'
    over cn lead/s, s = gcd(cq, content of lead), primitive for dim > 1.

    The opposite moves invert the reverse step M at g.  g's relation T
    divided on the right by theta + c is T = Q (theta + c) + R with
    R = T(-c), and (theta + c) g = c fn, so g = (tail_num - c Q fn) / R:
    row 0 of M^-1.  The stepped parameter is a root of one of T's two
    products, so R is the other one: alpha prod (low - c) for an upper and
    -beta x prod (up - c) for a lower (``QuotientModule``), each difference
    (cq (p0 + p1 v) - q cn) / (q cq), so cq^dim R is a constant times a
    product of integer linear pieces.  Scaling Q_k by cq^(dim-1-k) keeps
    the synthetic division integral: row 0 is (-cq^k cn Q_k ...,
    cq^dim tail_num) over cq^dim R, row k is row 0 times N'^k over
    cq^dim R lead^k (M is a polynomial in N and e_k = e_0 N^k), and the
    affine constant row stays e_const.  The denominator is factored by
    construction (Takayama 1989; HYPERDIRE, arXiv:1105.3565), and a
    vanishing piece of R is the exceptional-parameter signal.  Its
    constants leave a content on P, which one gcd with K divides out of
    P and K here, once per memoized step, so the fold carries none of it.

    det (I + N/c) = det (c I + N) / c^dim = (-1)^dim T(-c) / (lead c^dim),
    T(-c) / lead being the characteristic polynomial of N at -c, and the
    affine constant slot adds the eigenvalue 0.  So for both moves det P
    is a product of powers of c, lead and the pieces of R (identically
    zero when a piece is), and their roots are the step's roots.
    """
    if which not in ("upper", "lower"):
        raise ValueError("which must be 'upper' or 'lower'")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    forward = (which == "upper") == (direction == 1)
    g = fn if forward else fn.shifted(which, index, direction)
    module = QuotientModule(g, affine_index)
    vars = _ring_vars(g)
    c0, c1, cq = g.upper[index].int_line(vars[0]) if which == "upper" else module.lows[index]
    if not (c0 or c1):
        raise SingularStep(
            f"step divisor vanishes for {which}[{index}] of {g} (exceptional)")
    lead, rel, dim = module.lead, module.rel_num, module.dim
    a, b = module.lead_line
    # cq^dim R as a product of pieces (x, a, b), a x + b each
    if which == "upper":
        params, pieces = module.lows, [(vars[0], 0, module.alpha)]
    else:
        params, pieces = module.ups, [(fn.var, -module.beta, 0)]
    pieces += [(vars[0], p1 * cq - c1 * q, p0 * cq - c0 * q) for p0, p1, q in params]
    singular = any(not (pa or pb) for _, pa, pb in pieces)
    roots = {}
    for x, pa, pb in pieces + [(vars[0], c1, c0), (fn.var, a, b)]:
        _add_factor(roots, x, pa, pb)
    roots = None if singular else frozenset(roots)
    factors: Factors = {}
    if forward:
        s = gcd(cq, a, b)
        K = _add_factor(factors, vars[0], c1, c0) * _add_factor(factors, fn.var, a // s, b // s)
        size = dim + module.affine
        P = [[()] * size for _ in range(size)]
        for k in range(dim - 1):
            P[k][k + 1] = _scale(lead, cq // s, 2)
        P[dim - 1] = [_scale(e, cq // s, 2) for e in rel + [module.tail_num] * module.affine]
        cl = _mul(_line(0, c1, c0), _line(1, a // s, b // s), 2)
        for k, row in enumerate(P):
            row[k] = _add(row[k], cl, 2)
        return _frozen_step(P, factors, K, roots)
    if singular:
        value = (fn.upper if which == "upper" else fn.lower)[index]
        raise SingularStep(
            f"contiguous-shift matrix is singular for step {which}[{index}] {direction:+d}"
            f" of {fn}, where {which}[{index}] = {value} (exceptional parameters)")
    K = 1
    for x, pa, pb in pieces:
        K *= _add_factor(factors, x, pa, pb)
    # synthetic division by theta + c, Q_k scaled by cq^(dim-1-k):
    # Q_(dim-1) = lead, Q_(k-1) = cq^(dim-k) T_k - cn Q_k
    cn = _line(0, c1, c0)
    Q = [lead]
    for k in range(dim - 1, 0, -1):
        Q.append(_add(_scale(rel[k], -cq ** (dim - k), 2), _neg(_mul(cn, Q[-1], 2), 2), 2))
    rows = [[_scale(_mul(cn, q, 2), -cq ** k, 2) for k, q in enumerate(reversed(Q))]
            + [_scale(module.tail_num, cq ** dim, 2)] * module.affine]
    for _ in range(dim - 1):
        rows.append(module.times_n(rows[-1]))
    K *= _add_factor(factors, fn.var, a, b, dim - 1)
    P = [[_mul(e, _pow(lead, dim - 1 - k, 2), 2) for e in v] for k, v in enumerate(rows)]
    if module.affine:
        P.append([()] * dim + [_scale(_factor_product(vars, factors), K, 2)])
    n = len(P)
    flat, factors = _cancel([e for row in P for e in row], vars, factors)
    content = abs(K)
    for e in flat:
        content = _int_content(e, 2, content)
    flat = [_div_int(e, content, 2) for e in flat]
    K //= content
    return _frozen_step([flat[i * n:(i + 1) * n] for i in range(n)], factors, K, roots)


def _frozen_step(P, factors: Factors, K: int, roots):
    return tuple(map(tuple, P)), MappingProxyType(factors), K, roots


def step_matrix(fn: Hyper, which: str, index: int, direction: int,
                affine_index: Optional[int] = None) -> OpMatrix:
    """Matrix M with basis-column(shifted fn) = M basis-column(fn).

    direction +1 raises the parameter, -1 lowers it.  Upper raises and
    lower lowers are built directly; the two opposite moves invert the
    step of the reverse move, built at the shifted function.  This is the
    RatFunc view P / (K prod (q x - p)^m) of the step that reduce_to_basis
    folds, each entry built by ``RatFunc.over``.
    """
    P, factors, K, _ = _unit_step(fn, which, index, direction, affine_index)
    vars = _ring_vars(fn)
    K *= _monic_product(vars, factors).den   # prod q^m, as q x - p = q (x - r)
    return OpMatrix(tuple(tuple(RatFunc.over(Poly._of(vars, e, 1), factors, K) for e in row)
                          for row in P), affine_index is not None)


# ---------------------------------------------------------------------------
# full reduction


class ReductionResult(Value):
    """S F(target) = sum_j r_polys[j] theta^j F(basis) + algebraic_tail.

    s_poly, r_polys and the tail are cleared of denominators and globally
    normalized (gcd removed, s_poly lead coefficient 1), so equal
    reductions produced along different shift paths compare equal.
    """

    __slots__ = ("target", "basis", "s_poly", "r_polys", "algebraic_tail", "affine")
    _defaults = (False,)

    def bind(self, n_value: EpsLin = DEFAULT_N) -> "ReductionResult":
        """Bind symbolic n to get a numeric result.

        With n = (p0 + p1 eps) / q (``int_line``), each numerator and
        denominator is bound by Horner's rule on integers (``Poly.at_line``).
        """
        if isinstance(self.target, HyperFn):
            return self
        p0, p1, q = n_value.int_line("eps")
        conv = lambda r: RatFunc(r.num.at_line(p0, p1, q), r.den.at_line(p0, p1, q))
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
    for ts, bs, out in ((target.upper, basis.upper, ups), (target.lower, basis.lower, los)):
        for t, b in zip(ts, bs):
            out.append(_int_diff(t, b))
            if out[-1] is None:
                raise NotIntegerShift(f"difference {t - b} is not an integer")
    return ups, los


def _int_diff(t, b) -> Optional[int]:
    """t - b as an int read off the fields, or None: equal symbol parts, and
    constants of one reduced denominator whose numerators differ by a multiple of it."""
    p, q = t.const, b.const
    d, r = divmod(p.numerator - q.numerator, p.denominator)
    if r or t.terms != b.terms or p.denominator != q.denominator:
        return None
    return d


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
        steps.append(_unit_step(cur, which, index, direction, affine_index))
        cur = cur.shifted(which, index, direction)
    # row 0 of M_k ... M_1 = row / (K prod (q x - p)^m), folded from the target end
    vars = _ring_vars(basis)
    row = [_const(2, 1)] + [()] * basis.p
    factors: Factors = {}
    K = 1
    for P, step_factors, step_K, roots in reversed(steps):
        out = [()] * len(row)
        for a, prow in zip(row, P):
            if a:
                for j, e in enumerate(prow):
                    if e:
                        out[j] = _add(out[j], _mul(a, e, 2), 2)
        for f, m in step_factors.items():
            factors[f] = factors.get(f, 0) + m
        row, factors = _cancel(out, vars, factors, roots)
        K *= step_K
    # S = prod (x - r)^m = prod (q x - p)^m / prod q^m, so R_j = row_j / (K prod q^m)
    s = _monic_product(vars, factors)
    row = [RatFunc.over(Poly._of(vars, p, 1), K=K * s.den) for p in row]
    tail = row.pop() if affine_index is not None else RatFunc.const(vars, 0)
    return ReductionResult(target, basis, RatFunc._of(s, Poly.const(vars, 1)), tuple(row),
                           tail, affine_index is not None)


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
    """The z-depth verify_reduction checks: at least N and d + p + 2.

    d is the highest z-degree of S, the R_j and the tail, which are
    pole-free, and p the number of lower parameters.  The depth catches
    one edited cell past the degree, but it proves nothing: a coordinated
    (Hermite-Pade) edit of S and the R_j within the degree box passes it
    (ROADMAP item 15).
    """
    parts = (result.s_poly,) + tuple(result.r_polys) + (result.algebraic_tail,)
    return max(N, max(r.num.degree() for r in parts) + len(result.target.lower) + 2)


def verify_reduction(result: ReductionResult, N: int = 30, K: int = 2):
    """Check S F(target) = sum R_j theta^j F(basis) + tail on the oracle.

    Returns (True, None) or (False, (j, k)) at the lowest nonzero cell of
    the residual S F(target) - sum R_j theta^j F(basis) - tail, summed by
    ``truncated_sum`` at z-depth verify_depth(result, N).  Every piece must
    be a polynomial in z, and that is checked before any series is built:
    reading each other piece to z^0 refuses a pole at z = 0
    (UnsupportedClass) or a z^0 row of a denominator that vanishes at
    eps = 0 (PoleAtEpsZero), and then the first such piece is refused
    (UnsupportedClass): reduce_to_basis returns polynomials only.  Then a
    zero S, which says nothing of F(target), fails (VerificationFailure).
    Parameters must be numeric (bind symbolic n first).
    """
    if not isinstance(result.target, HyperFn):
        raise ValueError("bind symbolic parameters before verification")
    poles = [r for r in (result.s_poly, *result.r_polys, result.algebraic_tail)
             if r.den.degree() > 0]
    for r in poles:
        r.to_biseries(0, K)
    if poles:
        raise UnsupportedClass(f"piece {poles[0]} is not a polynomial in {poles[0].vars[-1]}")
    if result.s_poly.is_zero():
        raise VerificationFailure("S is zero, so the reduction says nothing about F(target)")
    N = verify_depth(result, N)
    pieces = theta_pieces([result.s_poly], series_of_hyper(result.target, N, K))
    pieces += theta_pieces(result.r_polys, series_of_hyper(result.basis, N, K), -1)
    if not result.algebraic_tail.is_zero():
        pieces.append((-1, *result.algebraic_tail.z_cells(N, K), None))
    mism = lowest_cell(truncated_sum(pieces, N, K).nums, K)
    return mism is None, mism


# ---------------------------------------------------------------------------
# exceptional parameters and basis counting


class ExceptionalReport(Value):
    """Integer uppers, (upper, lower, diff) cancellable pairs, overlap flags, basis count."""

    __slots__ = ("integer_uppers", "pairs", "shared_flags", "count")


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
        diffs = [(d, l) for l, b in enumerate(fn.lower) if l not in used_lowers
                 for d in (_int_diff(u, b),) if d is not None and d >= 0]
        if diffs:
            d, l = min(diffs)
            used_lowers.add(l)
            pairs.append((i, l, d))
    shared = tuple(i for i, _, _ in pairs if i in integer_uppers)
    terminating = any(fn.upper[i].const <= 0 for i in integer_uppers)
    unpaired = len(shared) < len(integer_uppers)
    count = 0 if terminating else max(fn.p + 1 - len(pairs) - unpaired, 0)
    return ExceptionalReport(integer_uppers, tuple(pairs), shared, count)
