"""Mellin-Barnes integrands, residue closure, and master-integral counting.

An MBRepr holds the integrand (kappa z)^t Gamma(-t) prod Gamma(A_i+t)
Gamma(C_k-t) / (Gamma(B_j+t) Gamma(D_l-t)) through its four lists of
(n, j) linear forms.  Closing the contour to the right produces one
hypergeometric term per pole family: t = m from Gamma(-t) and t = C_k + m
from each descending numerator factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence, Tuple

from .errors import CriterionViolation, DegeneratePoles
from .hyper import SymHyperFn
from .reduction import count_nontrivial_basis, detect_exceptional
from .scalars import EpsLin, LinearForm, rat

F = Fraction


@dataclass(frozen=True)
class MBRepr:
    """One-fold Mellin-Barnes integrand data."""

    kappa: Fraction
    var: str
    a_forms: Tuple[LinearForm, ...]
    b_forms: Tuple[LinearForm, ...]
    c_forms: Tuple[LinearForm, ...]
    d_forms: Tuple[LinearForm, ...]
    prefactor: str = field(default="", compare=False)

    def __init__(self, kappa, var, a_forms, b_forms, c_forms=(), d_forms=(),
                 prefactor="", validate=True):
        object.__setattr__(self, "kappa", rat(kappa))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "a_forms", tuple(a_forms))
        object.__setattr__(self, "b_forms", tuple(b_forms))
        object.__setattr__(self, "c_forms", tuple(c_forms))
        object.__setattr__(self, "d_forms", tuple(d_forms))
        object.__setattr__(self, "prefactor", prefactor)
        if validate and not check_dim(self):
            raise ValueError(
                f"list dimensions {self.dims()} violate dimA+dimD-dimB-dimC=1")

    def dims(self):
        return (len(self.a_forms), len(self.b_forms),
                len(self.c_forms), len(self.d_forms))

    def __str__(self):
        fmt = lambda fs: "[" + ", ".join(str(f) for f in fs) + "]"
        return (f"MB[{self.kappa}*{self.var}; A={fmt(self.a_forms)}; "
                f"B={fmt(self.b_forms)}; C={fmt(self.c_forms)}; D={fmt(self.d_forms)}]")


def check_dim(m: MBRepr) -> bool:
    """Eq. dimA + dimD - dimB - dimC = 1 for the Gamma-ratio structure."""
    da, db, dc, dd = m.dims()
    return da + dd - db - dc == 1


@dataclass(frozen=True)
class GammaProduct:
    """Symbolic prod Gamma(num_i)/prod Gamma(den_j), recorded for display."""

    num: Tuple[LinearForm, ...]
    den: Tuple[LinearForm, ...]

    def __str__(self):
        num = " ".join(f"G[{f}]" for f in self.num) or "1"
        den = " ".join(f"G[{f}]" for f in self.den)
        return f"{num} / ({den})" if den else num


@dataclass(frozen=True)
class HyperTerm:
    """One pole family: z^power * gamma-prefactor * hypergeometric term."""

    power: LinearForm
    gamma: GammaProduct
    fn: SymHyperFn


@dataclass(frozen=True)
class HyperSum:
    """Sum over pole families produced by closing the contour right."""

    terms: Tuple[HyperTerm, ...]

    @property
    def q(self) -> int:
        return len(self.terms)


def mb_to_hyper(m: MBRepr) -> HyperSum:
    """Residue closure of an MBRepr into its hypergeometric sum.

    Family k sits at t = C_k + m (C_0 = 0 for the explicit Gamma(-t)); the
    sign bookkeeping of the descending factors flips the argument by
    (-1)^(1 + dimC + dimD), uniformly over families.
    """
    zero = LinearForm.constant(0)
    families = [zero] + list(m.c_forms)
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            d = families[i] - families[j]
            if d.is_integer():
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


def count_master_integrals(h: HyperSum, bindings: Mapping[str, int],
                           n_value: EpsLin = EpsLin(4, -2)):
    """Common nontrivial-basis count over all terms, plus per-term reports.

    Raises CriterionViolation if the terms disagree (criterion (i) says
    they must not, so a disagreement is surfaced, never averaged away).
    """
    counts = []
    reports = []
    for term in h.terms:
        fn = term.fn.bind(bindings, n_value)
        counts.append(count_nontrivial_basis(fn))
        reports.append((fn, detect_exceptional(fn)))
    if len(set(counts)) > 1:
        raise CriterionViolation(counts)
    return counts[0], reports


def dressed_propagator_shift(sigma_list: Sequence, q: int) -> LinearForm:
    """Effective power sigma - (n/2) q of a dressed massless propagator."""
    if q < 0:
        raise ValueError("q must be a non-negative integer")
    if len(sigma_list) != q + 1:
        raise ValueError(f"need q+1 = {q + 1} exponents, got {len(sigma_list)}")
    total = LinearForm.constant(0)
    for s in sigma_list:
        total = total + (s if isinstance(s, LinearForm) else LinearForm.constant(rat(s)))
    return total - LinearForm.n(F(q, 2))


# ---------------------------------------------------------------------------
# diagram presets


@dataclass(frozen=True)
class DiagramPreset:
    """A built-in diagram: MB data plus the printed hypergeometric form."""

    name: str
    symbols: Tuple[str, ...]
    mb: MBRepr
    printed: HyperSum
    notes: str = ""


def _n(c=1):
    return LinearForm.n(c)


def _j(name, c=1):
    return LinearForm.j(name, c)


def _c(q):
    return LinearForm.constant(q)


def preset_c3() -> DiagramPreset:
    """One-loop vertex with two massive lines; argument y/4, y=(p1-p2)^2/m^2."""
    n2 = _n(F(1, 2))
    j1, j2 = _j("j1"), _j("j2")
    j12 = j1 + j2
    sg = _j("sigma")
    upper = (j12 + sg - n2, j1, j2, n2 - sg)
    lower = (n2, j12.scale(F(1, 2)), (j12 + 1).scale(F(1, 2)))
    mb = MBRepr(F(-1, 4), "y", upper, lower, (), (),
                prefactor="G[j1+j2+sigma-n/2] G[n/2-sigma] / (G[j1+j2] G[n/2])")
    printed = HyperSum((HyperTerm(
        power=_c(0),
        gamma=GammaProduct(upper, ()),
        fn=SymHyperFn(upper, lower, F(1, 4), "y")),))
    return DiagramPreset("c3", ("n", "j1", "j2", "sigma"), mb, printed,
                         notes="y = (p1-p2)^2/m^2")


def preset_c1() -> DiagramPreset:
    """One-loop vertex with one massive line; argument -y, y=(p1-p2)^2/m^2."""
    n2 = _n(F(1, 2))
    s1, s2, rho = _j("sigma1"), _j("sigma2"), _j("rho")
    a = (rho + s1 + s2 - n2, s1, s2)
    b = (n2,)
    c = (n2 - s1 - s2,)
    mb = MBRepr(F(-1), "y", a, b, c, ())
    t0 = HyperTerm(
        power=_c(0),
        gamma=GammaProduct(a + (c[0],), b),
        fn=SymHyperFn(a, (n2, _c(1) + s1 + s2 - n2), F(-1), "y"))
    t1 = HyperTerm(
        power=c[0],
        gamma=GammaProduct((n2 - s1, n2 - s2, s1 + s2 - n2), (_n(1) - s1 - s2,)),
        fn=SymHyperFn((rho, n2 - s1, n2 - s2),
                      (_n(1) - s1 - s2, n2 - s1 - s2 + 1), F(-1), "y"))
    printed = HyperSum((t0, t1))
    return DiagramPreset("c1", ("n", "sigma1", "sigma2", "rho"), mb, printed,
                         notes="y = (p1-p2)^2/m^2")


def preset_v1200() -> DiagramPreset:
    """Two-loop sunset-type self energy; argument 4*w, w = m^2/M^2."""
    n = _n(1)
    n2 = _n(F(1, 2))
    al, be, sg, rho = _j("alpha"), _j("beta"), _j("sigma"), _j("rho")
    a = (al, al + sg - n2, (n - rho).scale(F(1, 2)) - be,
         (n + 1 - rho).scale(F(1, 2)) - be)
    b = (n2, n - be - rho)
    c = (be + rho - n2,)
    mb = MBRepr(F(4), "w", a, b, c, ())
    t0 = HyperTerm(
        power=_c(0),
        gamma=GammaProduct((al, al + sg - n2, be + rho - n2, n - be.scale(2) - rho),
                           (rho, n - be - rho)),
        fn=SymHyperFn(a, (n2, n - be - rho, n2 + 1 - be - rho), F(4), "w"))
    t1 = HyperTerm(
        power=c[0],
        gamma=GammaProduct((al + be + sg + rho - n, al + be + rho - n2, n2 - be - rho),
                           (be + rho,)),
        fn=SymHyperFn((al + be + sg + rho - n, al + be + rho - n2,
                       rho.scale(F(1, 2)), (rho + 1).scale(F(1, 2))),
                      (n2, be + rho, _c(1) + be + rho - n2), F(4), "w"))
    printed = HyperSum((t0, t1))
    return DiagramPreset("v1200", ("n", "alpha", "beta", "sigma", "rho"), mb, printed,
                         notes="w = m^2/M^2; raw MB canonicalized with t = n/2-alpha-sigma-s")


PRESETS = {
    "c3": preset_c3,
    "c1": preset_c1,
    "v1200": preset_v1200,
}


def get_preset(name: str) -> DiagramPreset:
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None
