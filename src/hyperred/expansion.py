"""Epsilon expansion of hypergeometric functions via triangular systems.

The eps=0 operator is factored as a first-order piece times prod(theta +
beta_j); each expansion order is then one first-order solve plus theta
peels, all performed on rational-function-weighted polylog combinations
and integrated iteratively from the origin.  One enumerator, _splits,
lists the factorizations (beta, R1, R2) and _cases classifies each as
R1 = R2, R1 = 0 or R2 = 0; the engine, factorization_conditions and
three_f2_system all read their factorization from these two.

Two parameter classes are supported: (a) integer constant parts whose
factorization admits non-negative integer beta with R2 >= 0 (alphabet
{0, 1} in z), and (b) the half-integer Gauss family 2F1(1/2 + a1 eps,
1/2 + a2 eps; 3/2 + c eps; z), integrated in xi = (z/(z-1))^(1/2) over the
alphabet {-1, 0, 1} after dressing the function by sqrt(-z).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .errors import NoFactorization, NotTriangular, UncancelledPole, UnsupportedClass
from .gpl import ONE, GplCombo, Kernel, PolyLogExpr, basis_product, basis_ratfunc
from .hyper import HyperFn
from .poly import _theta_product
from .ratfunc import RatFunc
from .scalars import EpsLin, rat
from .series import BiSeries, lowest_cell, series_of_hyper, truncated_sum
from .value import Value

F = Fraction


# ---------------------------------------------------------------------------
# operator factorization data


class FactorizationReport(Value):
    """Outcome of matching R1/R2/beta against the three known cases: ``case``
    is "R1=R2", "R1=0", "R2=0" or "none", and h = z^e0 (z-1)^e1 for
    ``h_exponents`` (e0, e1)."""

    __slots__ = ("case", "r1", "r2", "beta", "h_exponents", "xi_description", "candidates",
                 "gauss_checks")
    _defaults = ((), None)


def _xi_for_case(case: str, r1: Fraction, r2: Fraction) -> Optional[str]:
    """xi = base^(1/q), q the denominator of the case's free R; None when that R is 0."""
    r = r1 if case == "R2=0" else r2
    base = {"R1=R2": "z", "R1=0": "((z-1)/z)", "R2=0": "(z-1)"}[case]
    return None if r == 0 else f"xi = {base}^(1/{r.denominator})"


CASES = ("R1=R2", "R1=0", "R2=0")


def _splits(A: Sequence[Fraction], Bm: Sequence[Fraction]):
    """Every (beta, R1, R2) with prod(theta + A) = prod(theta + beta) (theta + R1).

    beta is a (P-1)-subset of A in A's order (the left-out index falling)
    that Bm contains as a multiset; R1 is the left-out A, R2 the first of
    Bm that beta leaves.
    """
    for i in reversed(range(len(A))):
        beta, rest = A[:i] + A[i + 1:], list(Bm)
        try:
            for x in beta:
                rest.remove(x)
        except ValueError:
            continue
        yield beta, A[i], rest[0]


def _cases(r1: Fraction, r2: Fraction) -> List[str]:
    """The cases of CASES that (R1, R2) satisfies, in that order."""
    return [c for c, hit in zip(CASES, (r1 == r2, r1 == 0, r2 == 0)) if hit]


def gauss_flags(p1q: Fraction, p2q: Fraction, rq: Fraction) -> dict:
    """Classifier flags of 2F1(p1/q + a1 eps, p2/q + a2 eps; 1 - r/q + c eps)."""
    return {
        "p1p2_zero": p1q * p2q == 0,
        "p1_zero": p1q == 0,
        "lemma_iv": p1q == p2q == -rq and p1q != 0,
    }


def factorization_conditions(upper: Sequence[EpsLin], lower: Sequence[EpsLin]) -> FactorizationReport:
    """Solve the factorization constraints for the two-parameter shape.

    The constant parts must consist of at most two nontrivial uppers
    (nonzero) and two nontrivial lowers (different from one); the rest
    must be eps-proportional or unit.  Each case takes its first split.
    """
    nontrivial_up = [u.const for u in upper if u.const != 0]
    nontrivial_lo = [l.const for l in lower if l.const != 1]
    if len(nontrivial_up) > 2 or len(nontrivial_lo) > 2:
        raise UnsupportedClass(
            "factorization analysis needs at most two nontrivial parameters per list")
    matches = {}
    for beta, r1, r2 in _splits((nontrivial_up + [F(0), F(0)])[:2],
                                ([b - 1 for b in nontrivial_lo] + [F(0), F(0)])[:2]):
        for case in _cases(r1, r2):
            matches.setdefault(case, (r1, r2, tuple(beta)))
    gauss = None
    if len(upper) == 2 and len(lower) == 1:
        p1q, p2q, rq = upper[0].const, upper[1].const, 1 - lower[0].const
        gauss = dict(gauss_flags(p1q, p2q, rq), p_over_q=(p1q, p2q, -rq))
    if not matches:
        raise NoFactorization(
            f"no case of R1=R2 / R1=0 / R2=0 matches uppers {nontrivial_up} "
            f"lowers {nontrivial_lo}")
    candidates = tuple(c for c in CASES if c in matches)
    r1, r2, beta = matches[candidates[0]]
    return FactorizationReport(
        case=candidates[0], r1=r1, r2=r2, beta=beta,
        h_exponents=(-r2, r2 - r1),
        xi_description=_xi_for_case(candidates[0], r1, r2),
        candidates=candidates,
        gauss_checks=gauss)


# ---------------------------------------------------------------------------
# triangular systems


def gauss_triangular_system(p1: int, p2: int, r: int, q: int, beta) -> None:
    """Check the (omega_k, rho_k) system for the deformed Gauss function.

    Raises NotTriangular unless the omega_k coupling bracket
    (beta - p1/q)(beta - p2/q) - beta(beta + r/q)/z vanishes identically.
    """
    beta = rat(beta)
    c1 = (beta - F(p1, q)) * (beta - F(p2, q))
    c2 = beta * (beta + F(r, q))
    if c1 != 0 or c2 != 0:
        raise NotTriangular((c1, c2))


def three_f2_system(r: int, p: int, q: int, a1, a2, a3, b1, b2):
    """Three-layer system for 3F2(r/q+a1 e, a2 e, a3 e; 1+r/q+b1 e, 1-p/q+b2 e).

    Returns (deltas, FactorizationReport), deltas its four coupling
    coefficients delta_1..delta_4; the rational parametrization exists,
    and the report names its xi, exactly when p = -r.
    """
    a1, a2, a3, b1, b2 = (rat(x) for x in (a1, a2, a3, b1, b2))
    if a1 == 0 or a2 == 0 or a3 == 0:
        raise ValueError("the three upper deformations must be nonzero")
    deltas = (-a1 * F(r, q), a1 * a2 + a1 * a3 + a2 * a3, b1 * F(p + r, q), -b1 * b2)
    r1, r2 = -F(r, q), -F(p + r, q)
    case = (_cases(r1, r2) + ["none"])[0]
    report = FactorizationReport(
        case=case, r1=r1, r2=r2, beta=(F(r, q),),
        h_exponents=(-r2, r2 - r1),
        xi_description=(f"xi = (z/(z-1))^(1/{q})" if p == -r else None),
        candidates=(case,) if case != "none" else (),
    )
    return deltas, report


class F3Report(Value):
    """Admissibility data for the two-variable F3 parameter check: the
    exponents of x^e0 (x-1)^e1 in h1 and h2, and of x, y and (xy-x-y) in H."""

    __slots__ = ("passes", "s1", "s2", "h1_exponents", "h2_exponents", "H_exponents", "form",
                 "flags")
    _defaults = ((),)


def f3_parametrization_check(p1: int, p2: int, r1: int, r2: int,
                             p: int, q: int) -> F3Report:
    """Check p_j r_j = 0 and report the h1, h2, H exponent data."""
    if q < 1:
        raise ValueError("q must be >= 1")
    passes = (p1 * r1 == 0) and (p2 * r2 == 0)
    s1, s2 = p1 + r1, p2 + r2
    h1 = (F(p, q), -F(s1 + p, q))
    h2 = (F(p, q), -F(s2 + p, q))
    H = (F(s2 + p, q), F(s1 + p, q), -F(s1 + s2 + p, q))
    form = None
    if passes:
        for sa, sb in ((s1, s2), (s2, s1)):
            if sb % q == 0:
                if (p + sa) % q == 0:
                    form = 1
                    break
                if p % q == 0:
                    form = 2
                    break
    flags = []
    if p % q == 0 and p // q >= 1:
        flags.append("non-positive integer lower parameter (1 - p/q <= 0)")
    return F3Report(passes, s1, s2, h1, h2, H, form, tuple(flags))


# ---------------------------------------------------------------------------
# the expansion engine


class EpsilonExpansion(Value):
    """Layered expansion result; layers[k] is the eps^k coefficient.

    kind "direct": layers live in the function's own variable and layer 0
    is the rational function omega0.  kind "xi": layers are for the
    dressed function sqrt(-z) F in the variable xi = (z/(z-1))^(1/2).
    """

    __slots__ = ("fn", "kind", "var", "omega0", "layers")

    @property
    def order(self):
        return len(self.layers) - 1


def epsilon_expand(f: HyperFn, K: int) -> EpsilonExpansion:
    """Expand f to order K in eps by iterated integration."""
    if expansion_class(f) == "direct":
        return _expand_integer_class(f, K)
    return _expand_half_integer_gauss(f, K)


def expansion_class(f: HyperFn) -> str:
    """The kind of expansion f gets, "direct" or "xi"; UnsupportedClass outside both."""
    if f.kappa != 1:
        raise UnsupportedClass("expansion requires kappa = 1 (rescale first)")
    up, lo = [u.const for u in f.upper], [l.const for l in f.lower]
    if all(c.denominator == 1 for c in up + lo):
        return "direct"
    if len(lo) == 1 and up[0] == F(1, 2) and gauss_flags(*up, 1 - lo[0])["lemma_iv"]:
        return "xi"
    raise UnsupportedClass(f"parameters {f} fall outside the supported expansion classes")


def _choose_factorization(A: List[Fraction], B: List[Fraction]):
    """Pick beta (size P-1), R1, R2 with beta >= 0 and R2 >= 0.

    Prefers R2 = 0, then the smallest sum of beta, then the smallest |R1|.
    """
    splits = [s for s in _splits(sorted(A), sorted([F(0)] + [b - 1 for b in B]))
              if min(s[0] + [s[2]]) >= 0]
    if not splits:
        raise UnsupportedClass("no factorization with beta >= 0 and R2 >= 0 for uppers "
                               f"[{', '.join(map(str, A))}], lowers [{', '.join(map(str, B))}]")
    beta, r1, r2 = min(splits, key=lambda s: (s[2] != 0, sum(s[0]), abs(s[1])))
    return [int(x) for x in beta], int(r1), int(r2)


def _eps_theta_product(params: Sequence[EpsLin]):
    """prod (theta + x) over the parameters x as {eps power: theta coefficient list}.

    prod (q theta + p0 + p1 eps) over their ``int_line`` forms is D prod
    (theta + x), D the product of the q; only eps powers with a nonzero
    entry are kept.
    """
    coeffs, D = _theta_product([x.int_line("eps") for x in params])
    table: Dict[int, List[Fraction]] = {}
    for l, c in enumerate(coeffs):
        for e, n in enumerate(c):
            if n:
                table.setdefault(e, [F(0)] * len(coeffs))[l] = F(n, D)
    return table


def _first_order_solve(rhs: GplCombo, kernel, h) -> GplCombo:
    """[(z-1) theta + z R1 - R2] psi = rhs with psi(0) = 0.

    psi = h int_0^z rhs(t) t^(R2-1) (t-1)^(R1-R2-1) dt,
    h = z^(-R2) (z-1)^(R2-R1), kernel and h given as basis dicts; h is 1 when
    R1 = R2 = 0, and then scales nothing.
    """
    psi = rhs.scale(kernel).integrate()
    return psi if h == {ONE: 1} else psi.scale(h)


def _peel_theta_beta(u: GplCombo, beta: Sequence[int]) -> GplCombo:
    """prod (theta + b)^(-1) u, each (theta + b)^(-1) u = z^(-b) int_0^z t^(b-1) u dt
    (z^0 = 1 scales nothing)."""
    for b in sorted(beta, reverse=True):
        u = u.scale({(0, 1 - b): 1}).integrate()
        if b:
            u = u.scale({(0, b): 1})
    return u


def _expand_integer_class(f: HyperFn, K: int) -> EpsilonExpansion:
    P = len(f.upper)
    A = [u.const for u in f.upper]
    B = [l.const for l in f.lower]
    if any(x.denominator == 1 and x <= 0 for x in B):
        raise UnsupportedClass("non-positive integer lower parameter")
    beta, r1, r2 = _choose_factorization(A, B)
    U = _eps_theta_product(f.upper)
    T0 = _eps_theta_product([x - 1 for x in f.lower])
    T = {e: [F(0)] + coeffs for e, coeffs in T0.items()}   # left theta factor
    kernel = basis_product({0: r2 - 1, 1: r1 - r2 - 1})
    h = basis_product({0: -r2, 1: r2 - r1})

    omega0 = _omega0_rational(A, beta, h)
    layers: List[GplCombo] = [omega0]
    thetas: List[List[GplCombo]] = [_theta_stack(omega0, P)]
    for k in range(1, K + 1):
        # rhs = sum_j (T_j(theta) - z U_j(theta)) omega_(k-j), one sum
        rhs = []
        for j in range(1, min(k, P) + 1):
            st = thetas[k - j]
            rhs += [(1, x.scale({(0, -1): -c})) for c, x in zip(U.get(j, ()), st) if c]
            rhs += [(c, x) for c, x in zip(T.get(j, ()), st) if c]
        om = _peel_theta_beta(_first_order_solve(GplCombo.combine(rhs), kernel, h), beta)
        layers.append(om)
        thetas.append(_theta_stack(om, P))
    exprs = [c.to_polylog(f.var) for c in layers[1:]]
    om0_rf = basis_ratfunc(_combo_rational_part(layers[0]), f.var)
    return EpsilonExpansion(f, "direct", f.var, om0_rf,
                            (direct_layer0(om0_rf, f.var),) + tuple(exprs))


def direct_layer0(omega0: RatFunc, var: str) -> PolyLogExpr:
    """Layer 0 of a direct expansion: 1 when omega0 is 1, else 0 (omega0 holds it);
    a normalized RatFunc is 1 exactly when num == den, with no products to compare."""
    return PolyLogExpr({}, 1 if omega0.num == omega0.den else 0, var)


def _combo_rational_part(combo: GplCombo) -> Dict[Kernel, Fraction]:
    for w in combo.data:
        if w:
            raise UnsupportedClass("eps^0 layer is not rational")
    return combo.coeffs(())


def _theta_stack(c: GplCombo, P: int) -> List[GplCombo]:
    out = [c]
    for _ in range(P):
        out.append(out[-1].theta())
    return out


def _omega0_rational(A, beta, h) -> GplCombo:
    if any(x == 0 for x in A):
        return GplCombo.const(1)
    try:
        om = _peel_theta_beta(GplCombo({(): h}), beta)
    except UncancelledPole as e:
        raise UnsupportedClass(f"eps^0 layer is not rational: {e}") from e
    # a pole at 0 is a kernel (0, m >= 1), the basis being unique
    r = _combo_rational_part(om)
    if any(a == 0 and m > 0 for a, m in r) or not (c0 := om.value_at_zero()):
        raise UnsupportedClass("eps^0 layer cannot be normalized to 1 at the origin")
    return GplCombo.combine(((1 / c0, om),))


# ---------------------------------------------------------------------------
# half-integer Gauss class in xi


def _expand_half_integer_gauss(f: HyperFn, K: int) -> EpsilonExpansion:
    """2F1(1/2 + a1 e, 1/2 + a2 e; 3/2 + c e; z), dressed by sqrt(-z).

    In xi = (z/(z-1))^(1/2) the dressed layers u_k = [sqrt(-z) F]_k solve
      u_k' = 2 v_k / (1 - xi^2),
      v_k  = int [ -(a1+a2) 2t/(1-t^2) v_(k-1) + 2c t/(1-t^2) v_(k-1)
                   - 2 a1 a2 u_(k-2)/(1-t^2) ] dt
             - c u_(k-1)/xi + 2c v_(k-1)(0),
    with u_0 = artanh(xi), v_0 = 1/2; all kernels live on {-1, 0, 1}.
    Every u_k is odd in xi and every v_k even, and the kernels each have a
    parity, so the engine keeps halves (``GplCombo.integrate``): the words whose
    first nonzero letter is positive and the empty word's whole part E.
    An even half's value at 0 is E(0) + 2 R(0), R the rest, and each layer
    is written out whole, w: c and -w: -c.
    """
    a1, a2 = f.upper[0].eps, f.upper[1].eps
    c = f.lower[0].eps
    k_flat = {(1, 1): F(-1), (-1, 1): F(1)}     # 2/(1-t^2) = -1/(t-1) + 1/(t+1), even
    # v_k's integrand kernels with their factors c - (a1+a2) and -a1 a2 folded in,
    # 2t/(1-t^2) = -1/(t-1) - 1/(t+1), odd
    s, p = c - (a1 + a2), a1 * a2
    k_v = {(1, 1): -s, (-1, 1): -s}
    k_u = {(1, 1): p, (-1, 1): -p}
    one = GplCombo.const(1)

    us = [GplCombo({(1,): {ONE: F(-1, 2)}})]      # u_0 = (G(-1) - G(1)) / 2, odd
    vs = [GplCombo.const(F(1, 2))]
    for k in range(1, K + 1):
        um2 = us[k - 2] if k >= 2 else GplCombo.zero()
        integrand = GplCombo.combine([(1, vs[k - 1].scale(k_v)), (1, um2.scale(k_u))])
        vk = GplCombo.combine([(1, integrand.integrate(-1)),
                               (1, us[k - 1].scale({(0, 1): -c})),     # -c u_(k-1)/xi
                               (2 * c * vs[k - 1].value_at_zero(1), one)])
        us.append(vk.scale(k_flat).integrate(1))
        vs.append(vk)
    layers = tuple(u.to_polylog("xi", -1) for u in us)
    return EpsilonExpansion(f, "xi", "xi", None, layers)


# ---------------------------------------------------------------------------
# verification against the series oracle


def xi_oracle(f: HyperFn, N: int, K: int) -> BiSeries:
    """sqrt(-z) F / xi to t^N eps^K in t = xi^2 = z/(z-1), F a 2F1 of argument z.

    By Pfaff's transformation (DLMF 15.8.1) sqrt(-z) 2F1(a, b; c; z) =
    xi 1F0(1/2-a;; t) 2F1(a, c-b; c; t): one product of two defining series.
    """
    if f.kappa != 1 or len(f.lower) != 1:
        raise UnsupportedClass(f"the xi oracle needs a 2F1 of argument z, got {f}")
    (a, b), (c,) = f.upper, f.lower
    return (series_of_hyper(HyperFn([F(1, 2) - a], []), N, K)
            * series_of_hyper(HyperFn([a, c - b], [c]), N, K))


def verify_expansion(f: HyperFn, exp: EpsilonExpansion, N: int = 30):
    """Exact comparison of every layer against the series oracle.

    Returns (True, None) or (False, (j, k)) for the lowest nonzero cell
    of the residual oracle minus layers, summed by ``truncated_sum``:
    z-power j (xi-power for the dressed class) first, then eps order k.
    The dressed class is checked to xi^(2N) against ``xi_oracle`` to
    t^(N-1), whose t^j is xi^(2j+1); even powers vanish on both sides.
    An omega0 with a pole at z = 0 is refused (UnsupportedClass).
    """
    K = exp.order
    if exp.kind == "direct":
        oracle = series_of_hyper(f, N, K)
        pieces = [(1, ((0, 0, 1),), oracle.den, oracle.nums),
                  (-1, *exp.omega0.z_cells(N, 0), None)]
        layers = range(1, K + 1)
    else:
        oracle = xi_oracle(f, N - 1, K)
        pieces = [(1, [(2 * j + 1, k, x) for j, k, x in oracle.cells(N - 1, K)],
                   oracle.den, None)]
        N = 2 * N
        layers = range(K + 1)
    for k in layers:
        s = exp.layers[k].biseries(N)
        pieces.append((-1, [(j, k, x) for j, _, x in s.cells(N, 0)], s.den, None))
    mism = lowest_cell(truncated_sum(pieces, N, K).nums, K)
    return mism is None, mism
