"""Epsilon expansion of hypergeometric functions via triangular systems.

The eps=0 operator is factored as a first-order piece times prod(theta +
beta_j); each expansion order is then one first-order solve plus theta
peels, all performed on rational-function-weighted polylog combinations
and integrated iteratively from the origin.

Two parameter classes are supported: (a) integer constant parts whose
factorization admits non-negative integer beta with R2 >= 0 (alphabet
{0, 1} in z), and (b) the half-integer Gauss family 2F1(1/2 + a1 eps,
1/2 + a2 eps; 3/2 + c eps; z), integrated in xi = (z/(z-1))^(1/2) over the
alphabet {-1, 0, 1} after dressing the function by sqrt(-z).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NoFactorization, NotTriangular, UncancelledPole, UnsupportedClass
from .gpl import ONE, GplCombo, Kernel, PolyLogExpr, basis_product, basis_ratfunc
from .hyper import HyperFn
from .poly import Poly, theta_poly
from .ratfunc import RatFunc
from .scalars import EpsLin, rat
from .series import BiSeries, compose_z_series, series_of_hyper

F = Fraction
_EPS = ("eps",)


# ---------------------------------------------------------------------------
# operator factorization data


@dataclass(frozen=True)
class FactorizationReport:
    """Outcome of matching R1/R2/beta against the three known cases."""

    case: str                      # "R1=R2" | "R1=0" | "R2=0" | "none"
    r1: Optional[Fraction]
    r2: Optional[Fraction]
    beta: Tuple[Fraction, ...]
    h_exponents: Tuple[Fraction, Fraction]   # h = z^e0 (z-1)^e1
    xi_description: Optional[str]
    candidates: Tuple[str, ...] = ()
    gauss_checks: Optional[dict] = None


def _xi_for_case(case: str, r1: Fraction, r2: Fraction) -> Optional[str]:
    if case == "R1=R2":
        q = r2.denominator
        return None if r2 == 0 else f"xi = z^(1/{q})"
    if case == "R1=0":
        q = r2.denominator
        return None if r2 == 0 else f"xi = ((z-1)/z)^(1/{q})"
    if case == "R2=0":
        q = r1.denominator
        return None if r1 == 0 else f"xi = (z-1)^(1/{q})"
    return None


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
    must be eps-proportional or unit.
    """
    nontrivial_up = [u.const for u in upper if u.const != 0]
    nontrivial_lo = [l.const for l in lower if l.const != 1]
    if len(nontrivial_up) > 2 or len(nontrivial_lo) > 2:
        raise UnsupportedClass(
            "factorization analysis needs at most two nontrivial parameters per list")
    a1 = nontrivial_up[0] if nontrivial_up else F(0)
    a2 = nontrivial_up[1] if len(nontrivial_up) > 1 else F(0)
    b1 = nontrivial_lo[0] if nontrivial_lo else F(1)
    b2 = nontrivial_lo[1] if len(nontrivial_lo) > 1 else F(1)
    bm1, bm2 = b1 - 1, b2 - 1
    matches = []
    if a1 + a2 == bm1 + bm2 and a1 * a2 == bm1 * bm2:
        matches.append(("R1=R2", a2, a2, (a1,)))
        # beta and R are the two roots of x^2-(A1+A2)x+A1A2
    for x, y in ((a1, a2), (a2, a1)):
        if y == 0:
            r2 = bm1 + bm2 - x
            if r2 * x == bm1 * bm2:
                matches.append(("R1=0", F(0), r2, (x,)))
            break
    for x, y in ((bm1, bm2), (bm2, bm1)):
        if y == 0:
            r1 = a1 + a2 - x
            if r1 * x == a1 * a2:
                matches.append(("R2=0", r1, F(0), (x,)))
            break
    gauss = None
    if len(upper) == 2 and len(lower) == 1:
        p1q, p2q = upper[0].const, upper[1].const
        rq = 1 - lower[0].const
        gauss = dict(gauss_flags(p1q, p2q, rq), p_over_q=(p1q, p2q, -rq))
    if not matches:
        raise NoFactorization(
            f"no case of R1=R2 / R1=0 / R2=0 matches uppers {nontrivial_up} "
            f"lowers {nontrivial_lo}")
    case, r1, r2, beta = matches[0]
    return FactorizationReport(
        case=case, r1=r1, r2=r2, beta=tuple(beta),
        h_exponents=(-r2, r2 - r1),
        xi_description=_xi_for_case(case, r1, r2),
        candidates=tuple(m[0] for m in matches),
        gauss_checks=gauss)


# ---------------------------------------------------------------------------
# triangular systems (structure reports)


@dataclass(frozen=True)
class TriangularSystem:
    """First-order layered system data: lhs operator and rhs coefficients.

    rhs maps (unknown name, layer offset) to (constant coefficient,
    coefficient of 1/z); the lhs is (1-z) d/dz + drift - pole/z acting on
    the top unknown.
    """

    order: int
    unknowns: Tuple[str, ...]
    beta: Fraction
    lhs_drift: Fraction
    lhs_pole: Fraction
    rhs: Dict[Tuple[str, int], Tuple[Fraction, Fraction]]
    triangular: bool
    bracket: Tuple[Fraction, Fraction]
    substitutions: Tuple[str, ...] = ()
    deltas: Tuple[Fraction, ...] = ()


def gauss_triangular_system(p1: int, p2: int, r: int, q: int,
                            a1, a2, c, beta) -> TriangularSystem:
    """The (omega_k, rho_k) system for the deformed Gauss function.

    Raises NotTriangular unless the omega_k coupling bracket
    (beta - p1/q)(beta - p2/q) - beta(beta + r/q)/z vanishes identically.
    """
    a1, a2, c, beta = rat(a1), rat(a2), rat(c), rat(beta)
    c1 = (beta - F(p1, q)) * (beta - F(p2, q))
    c2 = beta * (beta + F(r, q))
    system = TriangularSystem(
        order=2,
        unknowns=("omega", "rho"),
        beta=beta,
        lhs_drift=beta - F(p1 + p2, q),
        lhs_pole=beta + F(r, q),
        rhs={
            ("rho", 1): (a1 + a2, -c),
            ("omega", 1): (-(a1 * (beta - F(p2, q)) + a2 * (beta - F(p1, q))), c * beta),
            ("omega", 2): (a1 * a2, F(0)),
        },
        triangular=(c1 == 0 and c2 == 0),
        bracket=(c1, c2),
        substitutions=(f"omega_k = z^({F(r,q)}) pi_k", f"rho_k = (1-z)^({-F(p2,q)}) sigma_k"),
    )
    if not system.triangular:
        raise NotTriangular((c1, c2))
    return system


def three_f2_system(r: int, p: int, q: int, a1, a2, a3, b1, b2):
    """Three-layer system for 3F2(r/q+a1 e, a2 e, a3 e; 1+r/q+b1 e, 1-p/q+b2 e).

    Returns (TriangularSystem, FactorizationReport); the rational
    parametrization exists exactly when p = -r.
    """
    a1, a2, a3, b1, b2 = (rat(x) for x in (a1, a2, a3, b1, b2))
    if a1 == 0 or a2 == 0 or a3 == 0:
        raise ValueError("the three upper deformations must be nonzero")
    deltas = (-a1 * F(r, q),
              a1 * a2 + a1 * a3 + a2 * a3,
              b1 * F(p + r, q),
              -b1 * b2)
    system = TriangularSystem(
        order=3,
        unknowns=("omega", "sigma", "phi"),
        beta=F(r, q),
        lhs_drift=F(0),
        lhs_pole=F(p, q),
        rhs={
            ("phi", 1): (a1 + a2 + a3, -(b1 + b2)),
            ("omega", 2): (a2 * a3 * F(r, q), F(0)),
            ("omega", 3): (a1 * a2 * a3, F(0)),
            ("sigma", 1): (deltas[0], deltas[2]),
            ("sigma", 2): (deltas[1], deltas[3]),
        },
        triangular=True,
        bracket=(F(0), F(0)),
        substitutions=("sigma_k = z^(r/q) theta omega_k",
                       "phi_k = ((z-1)/z)^(p/q) (theta + r/q) theta omega_k"),
        deltas=deltas,
    )
    r2 = -F(p + r, q)
    r1 = -F(r, q)
    if r1 == r2:
        case = "R1=R2"
    elif r1 == 0:
        case = "R1=0"
    elif r2 == 0:
        case = "R2=0"
    else:
        case = "none"
    report = FactorizationReport(
        case=case, r1=r1, r2=r2, beta=(F(r, q),),
        h_exponents=(F(p + r, q), -F(p, q)),
        xi_description=(f"xi = (z/(z-1))^(1/{q})" if p == -r else None),
        candidates=(case,) if case != "none" else (),
    )
    return system, report


@dataclass(frozen=True)
class F3Report:
    """Admissibility data for the two-variable F3 parameter check."""

    passes: bool
    s1: int
    s2: int
    h1_exponents: Tuple[Fraction, Fraction]       # x^e0 (x-1)^e1
    h2_exponents: Tuple[Fraction, Fraction]
    H_exponents: Tuple[Fraction, Fraction, Fraction]  # x, y, (xy-x-y)
    form: Optional[int]
    flags: Tuple[str, ...] = ()


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


@dataclass(frozen=True)
class EpsilonExpansion:
    """Layered expansion result; layers[k] is the eps^k coefficient.

    kind "direct": layers live in the function's own variable and layer 0
    is the rational function omega0.  kind "xi": layers are for the
    dressed function sqrt(-z) F in the variable xi = (z/(z-1))^(1/2).
    """

    fn: HyperFn
    kind: str                      # "direct" | "xi"
    var: str
    omega0: Optional[RatFunc]
    layers: Tuple[PolyLogExpr, ...]
    beta: Tuple[Fraction, ...] = ()
    r1: Fraction = F(0)
    r2: Fraction = F(0)

    @property
    def order(self):
        return len(self.layers) - 1


def epsilon_expand(f: HyperFn, K: int) -> EpsilonExpansion:
    """Expand f to order K in eps by iterated integration."""
    if f.kappa != 1:
        raise UnsupportedClass("expansion requires kappa = 1 (rescale first)")
    consts_up = [u.const for u in f.upper]
    consts_lo = [l.const for l in f.lower]
    if all(c.denominator == 1 for c in consts_up + consts_lo):
        return _expand_integer_class(f, K)
    if (len(f.upper) == 2 and len(f.lower) == 1
            and consts_up[0] == consts_up[1] == F(1, 2) and consts_lo[0] == F(3, 2)):
        return _expand_half_integer_gauss(f, K)
    raise UnsupportedClass(
        f"parameters {f} fall outside the supported expansion classes")


def _choose_factorization(A: List[Fraction], B: List[Fraction]):
    """Pick beta (size P-1), R1, R2 with beta >= 0 and R2 >= 0."""
    listA = sorted(A)
    listB = sorted([F(0)] + [b - 1 for b in B])
    P = len(listA)
    best = None
    for idxA in combinations(range(P), P - 1):
        betaA = [listA[i] for i in idxA]
        r1 = [listA[i] for i in range(P) if i not in idxA][0]
        remB = list(listB)
        ok = True
        for x in betaA:
            if x in remB:
                remB.remove(x)
            else:
                ok = False
                break
        if not ok:
            continue
        r2 = remB[0]
        if any(x < 0 for x in betaA) or r2 < 0:
            continue
        score = (r2 != 0, sum(betaA), abs(r1))
        if best is None or score < best[0]:
            best = (score, betaA, r1, r2)
    if best is None:
        raise UnsupportedClass(
            f"no factorization with beta >= 0 and R2 >= 0 for uppers {A}, lowers {B}")
    _, beta, r1, r2 = best
    return [int(x) for x in beta], int(r1), int(r2)


def _eps_theta_product(factors):
    """prod (theta + A + a eps) as {eps power: theta coefficient list}."""
    coeffs = theta_poly([Poly.from_terms(_EPS, {(0,): A, (1,): a}) for A, a in factors],
                        Poly.const(_EPS, 1))
    table: Dict[int, List[Fraction]] = {}
    for l, c in enumerate(coeffs):
        for (e,), q in c.terms().items():
            table.setdefault(e, [F(0)] * len(coeffs))[l] = q
    return table


def _apply_theta_poly(coeffs: Sequence[Fraction], thetas: Sequence[GplCombo],
                      letters) -> GplCombo:
    acc = GplCombo.zero(letters)
    for l, c in enumerate(coeffs):
        if c:
            acc = acc + thetas[l].scale_q(c)
    return acc


def _first_order_solve(rhs: GplCombo, kernel, h) -> GplCombo:
    """[(z-1) theta + z R1 - R2] psi = rhs with psi(0) = 0.

    psi = h int_0^z rhs(t) t^(R2-1) (t-1)^(R1-R2-1) dt,
    h = z^(-R2) (z-1)^(R2-R1), kernel and h given as basis dicts.
    """
    return rhs.scale(kernel).integrate().scale(h)


def _peel_theta_beta(u: GplCombo, beta: int) -> GplCombo:
    """(theta + beta)^(-1) u = z^(-beta) int_0^z t^(beta-1) u dt."""
    return u.scale({(0, 1 - beta): 1}).integrate().scale({(0, beta): 1})


def _expand_integer_class(f: HyperFn, K: int) -> EpsilonExpansion:
    P = len(f.upper)
    A = [u.const for u in f.upper]
    a = [u.eps for u in f.upper]
    B = [l.const for l in f.lower]
    b = [l.eps for l in f.lower]
    if any(x.denominator == 1 and x <= 0 for x in B):
        raise UnsupportedClass("non-positive integer lower parameter")
    beta, r1, r2 = _choose_factorization(A, B)
    letters = (F(1),)
    U = _eps_theta_product(list(zip(A, a)))
    T0 = _eps_theta_product([(x - 1, y) for x, y in zip(B, b)])
    T = {e: [F(0)] + coeffs for e, coeffs in T0.items()}   # left theta factor
    kernel = basis_product({0: r2 - 1, 1: r1 - r2 - 1})
    h = basis_product({0: -r2, 1: r2 - r1})

    omega0 = _omega0_rational(A, beta, h, letters)
    layers: List[GplCombo] = [omega0]
    thetas: List[List[GplCombo]] = [_theta_stack(omega0, P)]
    for k in range(1, K + 1):
        rhs = GplCombo.zero(letters)
        for j in range(1, min(k, P) + 1):
            st = thetas[k - j]
            if j in U:
                rhs = rhs - _apply_theta_poly(U[j], st, letters).scale({(0, -1): 1})  # z
            if j in T:
                rhs = rhs + _apply_theta_poly(T[j], st, letters)
        chi = _first_order_solve(rhs, kernel, h)
        om = chi
        for bt in sorted(beta, reverse=True):
            om = _peel_theta_beta(om, bt)
        layers.append(om)
        thetas.append(_theta_stack(om, P))
    exprs = [c.to_polylog("z") for c in layers[1:]]
    om0_rf = basis_ratfunc(_combo_rational_part(layers[0]))
    lead = layers[0].to_polylog("z") if _is_pure(layers[0]) else PolyLogExpr({}, 0, "z")
    return EpsilonExpansion(f, "direct", "z", om0_rf, (lead,) + tuple(exprs),
                            tuple(F(x) for x in beta), F(r1), F(r2))


def _is_pure(combo: GplCombo) -> bool:
    return all(r.keys() == {ONE} for r in combo.data.values())


def _combo_rational_part(combo: GplCombo) -> Dict[Kernel, Fraction]:
    for w in combo.data:
        if w:
            raise UnsupportedClass("eps^0 layer is not rational")
    return combo.data.get((), {})


def _theta_stack(c: GplCombo, P: int) -> List[GplCombo]:
    out = [c]
    for _ in range(P):
        out.append(out[-1].theta())
    return out


def _omega0_rational(A, beta, h, letters) -> GplCombo:
    if any(x == 0 for x in A):
        return GplCombo.const(1, letters)
    om = GplCombo({(): h}, letters)
    try:
        for bt in sorted(beta, reverse=True):
            om = _peel_theta_beta(om, bt)
    except UncancelledPole as e:
        raise UnsupportedClass(f"eps^0 layer is not rational: {e}") from e
    # a pole at 0 is a kernel (0, m >= 1), the basis being unique
    r = _combo_rational_part(om)
    if any(a == 0 and m > 0 for a, m in r) or not (c0 := om.value_at_zero()):
        raise UnsupportedClass("eps^0 layer cannot be normalized to 1 at the origin")
    return om.scale_q(1 / c0)


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
    """
    a1, a2 = f.upper[0].eps, f.upper[1].eps
    c = f.lower[0].eps
    letters = (-1, 1)
    k_t = {(1, 1): F(-1), (-1, 1): F(-1)}       # 2t/(1-t^2) = -1/(t-1) - 1/(t+1)
    k_flat = {(1, 1): F(-1), (-1, 1): F(1)}     # 2/(1-t^2) = -1/(t-1) + 1/(t+1)
    inv_xi = {(0, 1): 1}                        # 1/xi

    u0 = GplCombo({(-1,): {ONE: F(1, 2)}, (1,): {ONE: F(-1, 2)}}, letters)
    v0 = GplCombo.const(F(1, 2), letters)
    us = [u0]
    vs = [v0]
    for k in range(1, K + 1):
        um2 = us[k - 2] if k >= 2 else GplCombo.zero(letters)
        integrand = (vs[k - 1].scale(k_t).scale_q(c - (a1 + a2))
                     + um2.scale(k_flat).scale_q(-a1 * a2))
        vk = integrand.integrate()
        vk = vk + us[k - 1].scale(inv_xi).scale_q(-c)
        vk = vk + GplCombo.const(2 * c * vs[k - 1].value_at_zero(), letters)
        uk = vk.scale(k_flat).integrate()
        us.append(uk)
        vs.append(vk)
    layers = tuple(u.to_polylog("xi") for u in us)
    return EpsilonExpansion(f, "xi", "xi", None, layers)


# ---------------------------------------------------------------------------
# verification against the series oracle


def xi_z_series(M: int) -> List[Fraction]:
    """z = -xi^2/(1 - xi^2) as an exact series in xi."""
    out = [F(0)] * (M + 1)
    for m in range(2, M + 1, 2):
        out[m] = F(-1)
    return out


def xi_dressing_series(M: int) -> List[Fraction]:
    """sqrt(-z) = xi (1 - xi^2)^(-1/2) as an exact series in xi."""
    out = [F(0)] * (M + 1)
    coef = F(1)
    m = 0
    while 2 * m + 1 <= M:
        out[2 * m + 1] = coef
        coef = coef * (2 * m + 1) / (2 * m + 2)
        m += 1
    return out


def verify_expansion(f: HyperFn, exp: EpsilonExpansion, N: int = 30):
    """Exact comparison of every layer against the series oracle.

    Returns (True, None) or (False, (j, k)) for the lowest mismatching
    z-power j (xi-power for the dressed class), then eps order k.
    """
    K = exp.order
    oracle = series_of_hyper(f, N, K)
    if exp.kind == "direct":
        s0, v0 = exp.omega0.to_biseries(N, 0)
        if v0:
            raise UnsupportedClass("omega0 has a pole at the origin")
        layers = [s0.eps_row(0)] + [exp.layers[k].series(N) for k in range(1, K + 1)]
    else:
        M = 2 * N
        dress = BiSeries([(c,) + (0,) * K for c in xi_dressing_series(M)])
        oracle = compose_z_series(oracle, xi_z_series(M), M) * dress
        layers = [exp.layers[k].series(M) for k in range(K + 1)]
    mism = oracle.first_mismatch(BiSeries(zip(*layers)))
    return (mism is None), mism
