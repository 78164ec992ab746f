"""Reference code for tests/test_mb.py that the program itself never calls.

``family_series`` builds a pole family's series straight from residue
Pochhammer data, an independent check of ``mb_to_hyper`` followed by
``series_of_hyper``.  ``RawMB``, ``canonicalize_raw`` and ``raw_v1200``
rebuild the V1200 preset from its printed integrand in the original s
variable.  ``cancel_matching`` drops equal upper/lower pairs, the
series-identical simplification the C3 bridge test checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F
from typing import Mapping, Tuple

from hyperred.hyper import HyperFn
from hyperred.mb import MBRepr
from hyperred.scalars import EpsLin, LinearForm
from hyperred.series import BiSeries
from series_reference import inv_trunc, mul_trunc, pochhammer_eps


def family_series(m: MBRepr, k: int, bindings: Mapping[str, int],
                  n_value: EpsLin, N: int, K: int) -> BiSeries:
    """Series of family k assembled directly from residue Pochhammer data.

    Independent cross-check of mb_to_hyper + series_of_hyper: rewrites each
    Gamma factor at t = C_k + m via rising factorials and multiplies them
    out coefficient by coefficient.
    """
    zero = LinearForm.constant(0)
    families = [zero] + list(m.c_forms)
    ck = families[k]
    bind = lambda f: (f + 0).bind(bindings).to_epslin(n_value)
    ups = [bind(a + ck) for a in m.a_forms] + [bind(1 - d + ck) for d in m.d_forms]
    los = [bind(b + ck) for b in m.b_forms] + \
          [bind(1 - cj + ck) for j, cj in enumerate(families) if j != k]
    sign = -1 if (1 + len(m.c_forms) + len(m.d_forms)) % 2 else 1
    arg = m.kappa * sign
    rows = []
    fact = F(1)
    for j in range(N + 1):
        num = (arg ** j * F(1, fact),) + (F(0),) * K
        for u in ups:
            num = mul_trunc(num, pochhammer_eps(u, j, K), K)
        for l in los:
            num = mul_trunc(num, inv_trunc(pochhammer_eps(l, j, K), K), K)
        rows.append(num)
        fact *= j + 1
    return BiSeries(tuple(rows))


@dataclass(frozen=True)
class RawMB:
    """Gamma factors with explicit s coefficients, before canonicalization.

    Each factor is (linear form L, c) for Gamma(L + c*s) with c in
    {1, -1, 2, -2}; ``var`` names the base of the (base)^s power and
    ``var_inv`` the abstract variable of the canonical form (base^-1).
    """

    numerator: Tuple[Tuple[LinearForm, int], ...]
    denominator: Tuple[Tuple[LinearForm, int], ...]
    var_inv: str


def canonicalize_raw(raw: RawMB, shift: LinearForm) -> MBRepr:
    """Substitute s = shift - t and split doubled arguments.

    After the substitution the factor Gamma(L + c s) has t coefficient -c;
    |c| = 2 factors are split by Legendre duplication, whose 4^(+-t) is
    absorbed into kappa.  Exactly one descending numerator factor must
    land on Gamma(-t).
    """
    kappa = F(1)
    a_forms, b_forms, c_forms, d_forms = [], [], [], []
    minus_t = 0
    for forms, is_num in ((raw.numerator, True), (raw.denominator, False)):
        for L, c in forms:
            base = L + shift.scale(c)
            tc = -c
            if abs(c) == 2:
                halves = [base.scale(F(1, 2)), (base + 1).scale(F(1, 2))]
                kappa *= F(4) if (tc > 0) == is_num else F(1, 4)
                for h in halves:
                    if tc > 0:
                        (a_forms if is_num else b_forms).append(h)
                    else:
                        (c_forms if is_num else d_forms).append(h)
            else:
                if tc > 0:
                    (a_forms if is_num else b_forms).append(base)
                elif is_num and base.is_zero():
                    minus_t += 1
                else:
                    (c_forms if is_num else d_forms).append(base)
    if minus_t != 1:
        raise ValueError(
            f"canonical form needs exactly one Gamma(-t) factor, found {minus_t}")
    return MBRepr(kappa, raw.var_inv, a_forms, b_forms, c_forms, d_forms)


def raw_v1200() -> RawMB:
    """The printed V1200 integrand in its original s variable."""
    n = LinearForm.n(1)
    n2 = LinearForm.n(F(1, 2))
    al, be, sg, rho = map(LinearForm.j, ("alpha", "beta", "sigma", "rho"))
    num = (
        (LinearForm.constant(0), -1),                      # Gamma(-s)
        (n2 - sg, -1),
        (n.scale(2) - al.scale(2) - be.scale(2) - sg.scale(2) - rho, -2),
        (al + be + sg + rho - n, 1),
        (al + sg - n2, 1),
    )
    den = (
        (n - al - sg, -1),
        (n.scale(F(3, 2)) - al - be - sg - rho, -1),
    )
    return RawMB(num, den, "w")


def cancel_matching(fn: HyperFn) -> HyperFn:
    """Drop upper/lower pairs that are exactly equal (series-identical)."""
    uppers = list(fn.upper)
    lowers = list(fn.lower)
    for u in list(uppers):
        if u in lowers:
            uppers.remove(u)
            lowers.remove(u)
    return HyperFn(uppers, lowers, fn.kappa, fn.var)
