"""Acceptance criteria: one test per criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact (rational equality, integer counts).
"""

import itertools
import random
import time
from fractions import Fraction as F

from hyperred.errors import SingularStep
from hyperred.expansion import (EpsilonExpansion, epsilon_expand,
                                f3_parametrization_check, factorization_conditions,
                                gauss_triangular_system, three_f2_system,
                                verify_expansion)
from hyperred.gpl import PolyLogExpr
from hyperred.hyper import HyperFn
from hyperred.mb import count_master_integrals, dressed_propagator_shift, get_preset, mb_to_hyper
from hyperred.reduction import (ReductionResult, canonical_path, detect_exceptional,
                                ode_operator, reduce_to_basis, step_matrix,
                                verify_reduction)
from hyperred.scalars import EpsLin
from hyperred.series import series_of_hyper


def _report(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {status}: {text}")
    assert ok, f"criterion {num}: {text}"


def _rand_param(rng, lower=False):
    while True:
        c = F(rng.randint(-6, 8), rng.choice((1, 2, 3, 4, 5, 7)))
        e = F(rng.choice((-3, -2, -1, 1, 2, 3)))
        if lower and c.denominator == 1 and c <= 0:
            continue
        return EpsLin(c, e)


def _rand_fn(rng, p, exclude_exceptional=True):
    while True:
        fn = HyperFn([_rand_param(rng) for _ in range(p + 1)],
                     [_rand_param(rng, lower=True) for _ in range(p)])
        if not exclude_exceptional:
            return fn
        rep = detect_exceptional(fn)
        if not rep.pairs and not rep.integer_uppers:
            return fn


def test_criterion_1_ode_annihilation():
    """50 randomized 2F1/3F2/4F3: the ODE operator annihilates the series."""
    rng = random.Random(20260809)
    t0 = time.time()
    count = 0
    for i in range(50):
        p = (1, 2, 3)[i % 3]
        fn = _rand_fn(rng, p, exclude_exceptional=False)
        res = ode_operator(fn).apply(series_of_hyper(fn, 30, 4))
        assert res.is_zero(), fn
        count += 1
    elapsed = time.time() - t0
    _report(1, count == 50 and elapsed < 60,
            f"ODE annihilation on {count} instances at N=30, K=4 "
            f"in {elapsed:.1f}s (< 60s)")


def test_criterion_2_reduction_identities():
    """100 random integer shifts verify exactly; 20 paired paths agree."""
    rng = random.Random(77)
    t0 = time.time()
    done = 0
    while done < 100:
        p = rng.choice((1, 2))
        fn = _rand_fn(rng, p)
        total = rng.randint(1, 4)
        ups = [0] * (p + 1)
        los = [0] * p
        for _ in range(total):
            if rng.random() < 0.6:
                ups[rng.randrange(p + 1)] += rng.choice((1, -1))
            else:
                los[rng.randrange(p)] += rng.choice((1, -1))
        tgt = fn
        for i, m in enumerate(ups):
            tgt = tgt.shifted("upper", i, m) if m else tgt
        for l, m in enumerate(los):
            tgt = tgt.shifted("lower", l, m) if m else tgt
        if any(b.const.denominator == 1 and b.const <= 0 for b in tgt.lower):
            continue
        try:
            r = reduce_to_basis(tgt, fn)
        except SingularStep:
            continue
        ok, mism = verify_reduction(r, 30, 2)
        assert ok, (fn, tgt, mism)
        done += 1
    paired = 0
    while paired < 20:
        fn = _rand_fn(rng, rng.choice((1, 2)))
        p = fn.p
        ups = [rng.choice((1, -1, 0)) for _ in range(p + 1)]
        los = [rng.choice((1, 0)) for _ in range(p)]
        if sum(map(abs, ups)) + sum(map(abs, los)) < 2:
            continue
        tgt = fn
        for i, m in enumerate(ups):
            tgt = tgt.shifted("upper", i, m) if m else tgt
        for l, m in enumerate(los):
            tgt = tgt.shifted("lower", l, m) if m else tgt
        if any(b.const.denominator == 1 and b.const <= 0 for b in tgt.lower):
            continue
        base = canonical_path(ups, los)
        alt = list(base)
        rng.shuffle(alt)
        try:
            r1 = reduce_to_basis(tgt, fn, base)
            r2 = reduce_to_basis(tgt, fn, alt)
        except SingularStep:
            continue
        assert r1.s_poly == r2.s_poly and r1.r_polys == r2.r_polys \
            and r1.algebraic_tail == r2.algebraic_tail, (fn, base, alt)
        paired += 1
    elapsed = time.time() - t0
    _report(2, elapsed < 300,
            f"100 reductions verified at N=30 and 20 paired paths agree "
            f"in {elapsed:.1f}s (< 5 min)")


def test_criterion_3_master_counts():
    """C3 -> 2; C1 generic -> 2, one integer sigma -> 1; V1200 -> 2."""
    hc3 = mb_to_hyper(get_preset("c3").mb)
    L3, _ = count_master_integrals(hc3, {"j1": 1, "j2": 1, "sigma": 1})
    hc1 = mb_to_hyper(get_preset("c1").mb)
    dressed = dressed_propagator_shift([1, 1], 1)
    Lg, _ = count_master_integrals(hc1, {"sigma1": dressed, "sigma2": dressed, "rho": 1})
    Li, _ = count_master_integrals(hc1, {"sigma1": 1, "sigma2": dressed, "rho": 1})
    hv = mb_to_hyper(get_preset("v1200").mb)
    Lv, _ = count_master_integrals(hv, {"alpha": 1, "beta": 1, "sigma": 1, "rho": 1})
    ok = (L3, Lg, Li, Lv) == (2, 2, 1, 2)
    _report(3, ok, f"master counts C3={L3}, C1 generic={Lg}, "
                   f"C1 one-integer={Li}, V1200={Lv} (expect 2, 2, 1, 2)")


def _same_up_to_order(got, want):
    """Same type, argument and parameter multisets: the lists may be permuted."""
    multiset = lambda forms: sorted(f.sort_key() for f in forms)
    return (type(got) is type(want) and (got.kappa, got.var) == (want.kappa, want.var)
            and multiset(got.upper) == multiset(want.upper)
            and multiset(got.lower) == multiset(want.lower))


def test_criterion_4_mb_conversion_fidelity():
    """Printed parameter lists reproduced symbolically, as multisets; term
    counts match."""
    ok = True
    details = []
    for name, q_expected in (("v1200", 2), ("c1", 2), ("c3", 1)):
        p = get_preset(name)
        h = mb_to_hyper(p.mb)
        same_q = h.q == p.printed.q == q_expected
        same_terms = all(
            _same_up_to_order(got.fn, want.fn) and (got.power - want.power).is_zero()
            for got, want in zip(h.terms, p.printed.terms))
        ok = ok and same_q and same_terms
        details.append(f"{name}: q={h.q} lists identical={same_terms}")
    _report(4, ok, "; ".join(details))


def test_criterion_5_epsilon_expansion():
    """Both reference expansions verify at N=30, K=4; eps^2 layer is ab Li2."""
    t0 = time.time()
    checks = []
    for a, b, c in ((F(2), F(3), F(5)), (F(-1), F(7), F(1, 2))):
        f = HyperFn([EpsLin(0, a), EpsLin(0, b)], [EpsLin(1, c)])
        e = epsilon_expand(f, 4)
        ok, _ = verify_expansion(f, e, 30)
        li2 = e.layers[2] == PolyLogExpr({(0, 1): -a * b})
        checks.append(ok and li2)
    f2 = HyperFn([EpsLin(1), EpsLin(0, 1)], [EpsLin(1, 1)])
    e2 = epsilon_expand(f2, 4)
    ok2, _ = verify_expansion(f2, e2, 30)
    checks.append(ok2)
    elapsed = time.time() - t0
    _report(5, all(checks) and elapsed < 30,
            f"2F1(a e,b e;1+c e) and 2F1(1,e;1+e) verified to K=4 at N=30, "
            f"eps^2 layer equals a*b*Li2; {elapsed:.1f}s (< 30s)")


def test_criterion_6_criterion_i_on_presets():
    """All terms of each preset share one L for bindings in {1,2,3}."""
    ok = True
    hc3 = mb_to_hyper(get_preset("c3").mb)
    for j1, j2, sg in itertools.product((1, 2, 3), repeat=3):
        count_master_integrals(hc3, {"j1": j1, "j2": j2, "sigma": sg})
    hc1 = mb_to_hyper(get_preset("c1").mb)
    for s1, s2, rho in itertools.product((1, 2, 3), repeat=3):
        count_master_integrals(hc1, {"sigma1": s1, "sigma2": s2, "rho": rho})
    hv = mb_to_hyper(get_preset("v1200").mb)
    for al, be, sg, rho in itertools.product((1, 2, 3), repeat=4):
        count_master_integrals(hv, {"alpha": al, "beta": be, "sigma": sg, "rho": rho})
    _report(6, ok, "criterion (i) holds on c3 (27), c1 (27), v1200 (81) bindings")


def test_criterion_7_parametrization_classifiers():
    """Lemma IV family accepted, violations rejected; p=-r; p_j r_j = 0."""
    sys_ok = gauss_triangular_system(1, 1, -1, 2, F(1, 2)) is None   # NotTriangular otherwise
    rep = factorization_conditions(
        [EpsLin(F(1, 2), 1), EpsLin(F(1, 2), 2)], [EpsLin(F(3, 2), 1)])
    lemma_ok = rep.gauss_checks["lemma_iv"]
    from hyperred.errors import NotTriangular
    violated = False
    try:
        gauss_triangular_system(1, 2, 3, 3, 0)
    except NotTriangular:
        violated = True
    _, r_yes = three_f2_system(1, -1, 2, 1, 1, 1, 1, 1)
    _, r_no = three_f2_system(1, 1, 2, 1, 1, 1, 1, 1)
    ex4_ok = (r_yes.xi_description is not None) and (r_no.xi_description is None)
    f3_yes = f3_parametrization_check(1, 0, 0, 1, 0, 2).passes
    f3_no = f3_parametrization_check(1, 0, 1, 1, 0, 2).passes
    ok = sys_ok and lemma_ok and violated and ex4_ok and f3_yes and not f3_no
    _report(7, ok, "Lemma IV accepted, violating tuple rejected, "
                   "Example IV iff p=-r, F3 iff p_j r_j = 0")


def test_criterion_8_negative_controls():
    """Corruption is caught at the lowest affected order; singular raises."""
    a, b, c = EpsLin(F(2, 5), 1), EpsLin(F(1, 3), -1), EpsLin(F(3, 2), 2)
    fn = HyperFn([a, b], [c])
    r = reduce_to_basis(HyperFn([a + 1, b], [c]), fn)
    bad_r = list(r.r_polys)
    bad_r[1] = bad_r[1] + 1
    bad = ReductionResult(r.target, r.basis, r.s_poly, tuple(bad_r),
                          r.algebraic_tail, r.affine)
    ok1, mism1 = verify_reduction(bad, 20, 1)
    red_ok = (not ok1) and mism1 == (1, 0)

    f = HyperFn([EpsLin(0, 2), EpsLin(0, 3)], [EpsLin(1, 5)])
    e = epsilon_expand(f, 2)
    bad_layers = list(e.layers)
    edited = bad_layers[2]
    bad_layers[2] = PolyLogExpr([*edited.terms.items(), ((1,), F(1, 9))], edited.const, edited.var)
    bade = EpsilonExpansion(e.fn, e.kind, e.var, e.omega0, tuple(bad_layers))
    ok2, mism2 = verify_expansion(f, bade, 15)
    exp_ok = (not ok2) and mism2 == (1, 2)

    singular = False
    try:
        step_matrix(HyperFn([EpsLin(1), b], [EpsLin(1)]), "lower", 0, 1)
    except SingularStep:
        singular = True
    _report(8, red_ok and exp_ok and singular,
            f"corrupted R detected at {mism1}, corrupted layer at {mism2}, "
            "exceptional step raises SingularStep")
