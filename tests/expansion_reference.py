"""References for tests/test_expansion.py that the program never calls.

The two solvers that ``expansion._splits`` replaced: the report's
sum/product matching (each case solved from x + y and x y of the padded
two-parameter shape, with its own xi text) and the engine's subset search
over sorted parameters.  Neither shares a line with the split enumerator,
so equal answers on a grid are an independent check.

The xi oracle that Pfaff's transformation replaced: the z-series composed
with z = -xi^2/(1 - xi^2) and dressed by sqrt(-z) = xi (1 - xi^2)^(-1/2),
both as hand-built Fraction series.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence

from hyperred.errors import NoFactorization, UnsupportedClass
from hyperred.expansion import FactorizationReport, gauss_flags
from hyperred.hyper import HyperFn
from hyperred.scalars import EpsLin
from hyperred.series import BiSeries, compose_z_series, series_of_hyper, truncated_sum

F = Fraction


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


def factorization_conditions(upper: Sequence[EpsLin], lower: Sequence[EpsLin]) -> FactorizationReport:
    """Solve the factorization constraints for the two-parameter shape."""
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


def choose_factorization(A: List[Fraction], B: List[Fraction]):
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
        raise UnsupportedClass("no factorization with beta >= 0 and R2 >= 0 for uppers "
                               f"[{', '.join(map(str, A))}], lowers [{', '.join(map(str, B))}]")
    _, beta, r1, r2 = best
    return [int(x) for x in beta], int(r1), int(r2)


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


def xi_composed_oracle(f: HyperFn, N: int, K: int) -> BiSeries:
    """sqrt(-z) F to xi^(2N) eps^K: F's z-series composed, then dressed."""
    M = 2 * N
    oracle = compose_z_series(series_of_hyper(f, N, K), xi_z_series(M), M)
    dress = BiSeries([(c,) for c in xi_dressing_series(M)])
    return truncated_sum([(1, dress.cells(M, 0), dress.den * oracle.den, oracle.nums)], M, K)
