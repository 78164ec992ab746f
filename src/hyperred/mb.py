"""Mellin-Barnes integrands, residue closure, and master-integral counting.

An MBRepr holds the integrand (kappa z)^t Gamma(-t) prod Gamma(A_i+t)
Gamma(C_k-t) / (Gamma(B_j+t) Gamma(D_l-t)) through its four lists of
(n, j) linear forms.  Closing the contour to the right produces one
hypergeometric term per pole family: t = m from Gamma(-t) and t = C_k + m
from each descending numerator factor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import CriterionViolation, DegeneratePoles
from .hyper import SymHyperFn
from .reduction import _int_diff, detect_exceptional
from .scalars import LinearForm, rat
from .value import Value

F = Fraction


class MBRepr(Value):
    """One-fold Mellin-Barnes integrand data: ``kappa`` is a Fraction and the
    four form lists are tuples of ``LinearForm``."""

    __slots__ = ("kappa", "var", "a_forms", "b_forms", "c_forms", "d_forms")

    def __init__(self, kappa, var, a_forms, b_forms, c_forms=(), d_forms=()):
        self._set(rat(kappa), var, tuple(a_forms), tuple(b_forms), tuple(c_forms),
                  tuple(d_forms))
        if not check_dim(self):
            raise ValueError(
                f"list dimensions {self.dims()} violate dimA+dimD-dimB-dimC=1")

    def dims(self):
        return (len(self.a_forms), len(self.b_forms),
                len(self.c_forms), len(self.d_forms))

    def __str__(self):
        """The MB[...] input form, which parse_input reads back."""
        fmt = lambda fs: "[" + ", ".join(str(f) for f in fs) + "]"
        kap = str(self.kappa) if self.kappa.denominator == 1 else f"({self.kappa})"
        return (f"MB[{kap}*{self.var}; {fmt(self.a_forms)}; {fmt(self.b_forms)}; "
                f"{fmt(self.c_forms)}; {fmt(self.d_forms)}]")


def check_dim(m: MBRepr) -> bool:
    """Eq. dimA + dimD - dimB - dimC = 1 for the Gamma-ratio structure."""
    da, db, dc, dd = m.dims()
    return da + dd - db - dc == 1


class GammaProduct(Value):
    """Symbolic prod Gamma(num_i)/prod Gamma(den_j), recorded for display."""

    __slots__ = ("num", "den")

    def __str__(self):
        num = " ".join(f"G[{f}]" for f in self.num) or "1"
        den = " ".join(f"G[{f}]" for f in self.den)
        return f"{num} / ({den})" if den else num

    __repr__ = Value.__str__   # the display form is str; repr names the fields


class HyperTerm(Value):
    """One pole family: z^power * gamma-prefactor * hypergeometric term."""

    __slots__ = ("power", "gamma", "fn")


class HyperSum(Value):
    """Sum over pole families produced by closing the contour right."""

    __slots__ = ("terms",)

    @property
    def q(self) -> int:
        return len(self.terms)


# bounded; a diagram job converts its preset's one MBRepr, so a stream of
# jobs over the three presets converts each once
@lru_cache(maxsize=16)
def mb_to_hyper(m: MBRepr) -> HyperSum:
    """Residue closure of an MBRepr into its hypergeometric sum, which is immutable
    and shared by equal MBReprs.

    Family k sits at t = C_k + m (C_0 = 0 for the explicit Gamma(-t)); the
    sign bookkeeping of the descending factors flips the argument by
    (-1)^(1 + dimC + dimD), uniformly over families.
    """
    zero = LinearForm.constant(0)
    families = [zero] + list(m.c_forms)
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            if _int_diff(families[i], families[j]) is not None:
                raise DegeneratePoles(
                    f"pole families {families[i]} and {families[j]} collide")
    sign = -1 if (1 + len(m.c_forms) + len(m.d_forms)) % 2 else 1
    kappa_eff = m.kappa * sign
    terms = []
    for k, ck in enumerate(families):
        upper = [a + ck for a in m.a_forms] + [1 - d + ck for d in m.d_forms]
        lower = [b + ck for b in m.b_forms] + \
                [1 - cj + ck for j, cj in enumerate(families) if j != k]
        gnum = [a + ck for a in m.a_forms] + \
               [cj - ck for j, cj in enumerate(families) if j != k]
        gden = [b + ck for b in m.b_forms] + [d - ck for d in m.d_forms]
        terms.append(HyperTerm(
            power=ck,
            gamma=GammaProduct(tuple(gnum), tuple(gden)),
            fn=SymHyperFn(upper, lower, kappa_eff, m.var)))
    return HyperSum(tuple(terms))


def count_master_integrals(h: HyperSum, bindings: Mapping[str, int]):
    """Common nontrivial-basis count over all terms at n = DEFAULT_N, plus per-term reports.

    Raises CriterionViolation if the terms disagree (criterion (i) says
    they must not, so a disagreement is surfaced, never averaged away).
    """
    fns = [term.fn.bind(bindings) for term in h.terms]
    reports = [(fn, detect_exceptional(fn)) for fn in fns]
    counts = [rep.count for _, rep in reports]
    if len(set(counts)) > 1:
        raise CriterionViolation(counts)
    return counts[0], reports


def dressed_propagator_shift(sigma_list: Sequence, q: int) -> LinearForm:
    """Effective power sigma - (n/2) q of a dressed massless propagator."""
    if q < 0:
        raise ValueError("q must be a non-negative integer")
    if len(sigma_list) != q + 1:
        raise ValueError(f"need q+1 = {q + 1} exponents, got {len(sigma_list)}")
    return sum(sigma_list, LinearForm.constant(0)) - LinearForm.n(F(q, 2))


# ---------------------------------------------------------------------------
# diagram presets


class DiagramPreset(Value):
    """A built-in diagram: MB data plus the printed hypergeometric form."""

    __slots__ = ("symbols", "mb", "printed")


def preset_c3() -> DiagramPreset:
    """One-loop vertex with two massive lines; argument y/4, y=(p1-p2)^2/m^2;
    the sum's prefactor is G[j1+j2+sigma-n/2] G[n/2-sigma] / (G[j1+j2] G[n/2])."""
    n2 = LinearForm.n(F(1, 2))
    j1, j2 = map(LinearForm.j, ("j1", "j2"))
    j12 = j1 + j2
    sg = LinearForm.j("sigma")
    upper = (j12 + sg - n2, j1, j2, n2 - sg)
    lower = (n2, j12.scale(F(1, 2)), (j12 + 1).scale(F(1, 2)))
    mb = MBRepr(F(-1, 4), "y", upper, lower, (), ())
    printed = HyperSum((HyperTerm(
        power=LinearForm.constant(0),
        gamma=GammaProduct(upper, ()),
        fn=SymHyperFn(upper, lower, F(1, 4), "y")),))
    return DiagramPreset(("n", "j1", "j2", "sigma"), mb, printed)


def preset_c1() -> DiagramPreset:
    """One-loop vertex with one massive line; argument -y, y=(p1-p2)^2/m^2."""
    n2 = LinearForm.n(F(1, 2))
    s1, s2, rho = map(LinearForm.j, ("sigma1", "sigma2", "rho"))
    a = (rho + s1 + s2 - n2, s1, s2)
    b = (n2,)
    c = (n2 - s1 - s2,)
    mb = MBRepr(F(-1), "y", a, b, c, ())
    t0 = HyperTerm(
        power=LinearForm.constant(0),
        gamma=GammaProduct(a + (c[0],), b),
        fn=SymHyperFn(a, (n2, s1 + s2 - n2 + 1), F(-1), "y"))
    t1 = HyperTerm(
        power=c[0],
        gamma=GammaProduct((n2 - s1, n2 - s2, s1 + s2 - n2), (LinearForm.n(1) - s1 - s2,)),
        fn=SymHyperFn((rho, n2 - s1, n2 - s2),
                      (LinearForm.n(1) - s1 - s2, n2 - s1 - s2 + 1), F(-1), "y"))
    printed = HyperSum((t0, t1))
    return DiagramPreset(("n", "sigma1", "sigma2", "rho"), mb, printed)


def preset_v1200() -> DiagramPreset:
    """Two-loop sunset-type self energy; argument 4*w, w = m^2/M^2; the raw MB
    is canonicalized with t = n/2-alpha-sigma-s."""
    n = LinearForm.n(1)
    n2 = LinearForm.n(F(1, 2))
    al, be, sg, rho = map(LinearForm.j, ("alpha", "beta", "sigma", "rho"))
    a = (al, al + sg - n2, (n - rho).scale(F(1, 2)) - be,
         (n + 1 - rho).scale(F(1, 2)) - be)
    b = (n2, n - be - rho)
    c = (be + rho - n2,)
    mb = MBRepr(F(4), "w", a, b, c, ())
    t0 = HyperTerm(
        power=LinearForm.constant(0),
        gamma=GammaProduct((al, al + sg - n2, be + rho - n2, n - be.scale(2) - rho),
                           (rho, n - be - rho)),
        fn=SymHyperFn(a, (n2, n - be - rho, n2 + 1 - be - rho), F(4), "w"))
    t1 = HyperTerm(
        power=c[0],
        gamma=GammaProduct((al + be + sg + rho - n, al + be + rho - n2, n2 - be - rho),
                           (be + rho,)),
        fn=SymHyperFn((al + be + sg + rho - n, al + be + rho - n2,
                       rho.scale(F(1, 2)), (rho + 1).scale(F(1, 2))),
                      (n2, be + rho, be + rho - n2 + 1), F(4), "w"))
    printed = HyperSum((t0, t1))
    return DiagramPreset(("n", "alpha", "beta", "sigma", "rho"), mb, printed)


PRESETS = {
    "c3": preset_c3,
    "c1": preset_c1,
    "v1200": preset_v1200,
}


@lru_cache(maxsize=len(PRESETS))
def get_preset(name: str) -> DiagramPreset:
    """The named preset, built on first use and then shared (it is immutable)."""
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None
