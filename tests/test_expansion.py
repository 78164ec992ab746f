"""Factorization classifiers and the epsilon-expansion engine."""

import json
from fractions import Fraction as F

import pytest

from hyperred import cli
from hyperred.errors import (NoFactorization, NotTriangular, UnsupportedClass)
from hyperred.expansion import (EpsilonExpansion, epsilon_expand,
                                f3_parametrization_check, factorization_conditions,
                                gauss_flags, gauss_triangular_system, three_f2_system,
                                verify_expansion, xi_dressing_series, xi_z_series)
from hyperred.gpl import PolyLogExpr
from hyperred.hyper import HyperFn
from hyperred.scalars import EpsLin


def elementary_symmetric(values, j):
    """Reference for the root checks: the degree-j symmetric sum, from prod (z + r_k)."""
    values = [F(v) for v in values]
    if j < 0 or j > len(values):
        raise ValueError(f"index {j} out of range for {len(values)} values")
    coeffs = [F(1)]
    for r in values:
        nxt = [F(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * r
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs[len(values) - j]


def test_elementary_symmetric():
    assert elementary_symmetric([F(1), F(2)], 1) == 3
    assert elementary_symmetric([F(1), F(2)], 2) == 2
    assert elementary_symmetric([F(5), F(7)], 0) == 1
    # (z+1)(z+2)(z+3) = z^3 + 6 z^2 + 11 z + 6
    assert elementary_symmetric([1, 2, 3], 2) == 11
    with pytest.raises(ValueError):
        elementary_symmetric([1], 2)


def test_factorization_integer_case():
    # all A_i = 0, B_j = 1: factorizable with R1 = R2 = 0
    up = [EpsLin(0, 1), EpsLin(0, 2)]
    lo = [EpsLin(1, 3)]
    rep = factorization_conditions(up, lo)
    assert rep.case == "R1=R2"
    assert rep.r1 == 0 and rep.r2 == 0
    assert rep.h_exponents == (0, 0)
    assert all(e.denominator == 1 for e in rep.h_exponents)


def test_factorization_b1_is_one_plus_a1():
    # B1 = 1 + A1 solves both the R1=0 and R2=0 cases with beta = A1
    up = [EpsLin(F(1, 3), 1), EpsLin(0, 1)]
    lo = [EpsLin(F(4, 3), 1)]
    rep = factorization_conditions(up, lo)
    assert F(1, 3) in rep.beta
    assert set(rep.candidates) >= {"R1=0", "R2=0"}


def test_factorization_gauss_lemma_iv():
    # (p1, p2, r, q) = (1, 1, -1, 2): upper consts 1/2, lower 3/2
    up = [EpsLin(F(1, 2), 1), EpsLin(F(1, 2), 2)]
    lo = [EpsLin(F(3, 2), 1)]
    rep = factorization_conditions(up, lo)
    assert rep.gauss_checks["lemma_iv"]
    # violating tuple: 2F1(1/2, 1/3; ...) has p1/q != p2/q
    up2 = [EpsLin(F(1, 2), 1), EpsLin(F(1, 3), 2)]
    rep2 = None
    try:
        rep2 = factorization_conditions(up2, lo)
    except NoFactorization:
        pass
    if rep2 is not None:
        assert not rep2.gauss_checks["lemma_iv"]


@pytest.mark.parametrize("p1,p2,r,want", [
    (0, 1, -1, {"p1p2_zero": True, "p1_zero": True, "lemma_iv": False}),
    (1, 0, -1, {"p1p2_zero": True, "p1_zero": False, "lemma_iv": False}),
    (0, 0, 0, {"p1p2_zero": True, "p1_zero": True, "lemma_iv": False}),
])
def test_gauss_flags_shared_by_library_and_cli(p1, p2, r, want, capsys):
    q = 2
    assert gauss_flags(F(p1, q), F(p2, q), F(r, q)) == want
    rep = factorization_conditions([EpsLin(F(p1, q), 1), EpsLin(F(p2, q), 2)],
                                   [EpsLin(1 - F(r, q), 1)])
    assert {k: rep.gauss_checks[k] for k in want} == want
    assert cli.main(["check-parametrization", "gauss", "--p1", str(p1), "--p2", str(p2),
                     "--r", str(r), "--q", str(q), "--format", "jsonl"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert {k: rec[k] for k in want} == want


def test_factorization_none():
    up = [EpsLin(F(1, 5), 1), EpsLin(F(2, 7), 1)]
    lo = [EpsLin(F(9, 4), 1)]
    with pytest.raises(NoFactorization):
        factorization_conditions(up, lo)


def test_gauss_triangular_cases():
    s = gauss_triangular_system(0, 2, 1, 3, 1, 1, 1, 0)   # p1 p2 = 0, beta = 0
    assert s.triangular
    s = gauss_triangular_system(1, 5, -1, 2, 1, 1, 1, F(1, 2))  # beta = -r/q = p1/q
    assert s.triangular
    with pytest.raises(NotTriangular) as exc:
        gauss_triangular_system(1, 2, 3, 3, 1, 1, 1, 0)
    c1, c2 = exc.value.bracket
    assert c1 == F(1, 3) * F(2, 3) and c2 == 0


def test_three_f2_system_deltas():
    a1, a2, a3, b1, b2 = F(2), F(3), F(5), F(7), F(11)
    r, p, q = 1, -1, 2
    system, rep = three_f2_system(r, p, q, a1, a2, a3, b1, b2)
    assert system.deltas == (-a1 * F(r, q),
                             a1 * a2 + a1 * a3 + a2 * a3,
                             b1 * F(p + r, q),
                             -b1 * b2)
    assert rep.h_exponents == (F(p + r, q), -F(p, q))
    assert rep.xi_description is not None          # p = -r
    _, rep2 = three_f2_system(1, 1, 2, a1, a2, a3, b1, b2)
    assert rep2.xi_description is None             # p != -r
    sys3, rep3 = three_f2_system(0, 0, 2, a1, a2, a3, b1, b2)
    assert rep3.h_exponents == (0, 0)              # integer case, h = 1


def test_three_f2_requires_nonzero_deformations():
    with pytest.raises(ValueError):
        three_f2_system(1, -1, 2, 0, 1, 1, 1, 1)


def test_f3_checker():
    rep = f3_parametrization_check(1, 0, 0, 1, 0, 2)
    assert rep.passes and rep.s1 == 1 and rep.s2 == 1
    rep = f3_parametrization_check(1, 0, 1, 1, 0, 2)
    assert not rep.passes
    rep = f3_parametrization_check(0, 0, 0, 0, 0, 1)
    assert rep.passes and rep.h1_exponents == (0, 0) and rep.form is not None
    # non-positive lower flag: p/q integer >= 1
    rep = f3_parametrization_check(0, 0, 0, 0, 2, 2)
    assert rep.flags


def test_expand_pure_eps_gauss():
    f = HyperFn([EpsLin(0, 2), EpsLin(0, 3)], [EpsLin(1, 5)])
    e = epsilon_expand(f, 2)
    assert e.kind == "direct"
    assert e.omega0 == 1
    assert e.layers[1].is_zero()
    assert e.layers[2] == PolyLogExpr({(0, 1): F(-6)})   # ab Li2(z)
    ok, mism = verify_expansion(f, e, 30)
    assert ok, mism


def test_expand_unit_upper():
    f = HyperFn([EpsLin(1), EpsLin(0, 1)], [EpsLin(1, 1)])
    e = epsilon_expand(f, 3)
    # eps^k coefficient of z^j is (-1)^(k+1)/j^k
    assert e.layers[1] == PolyLogExpr({(1,): F(-1)})
    assert e.layers[2] == PolyLogExpr({(0, 1): F(1)})
    assert e.layers[3] == PolyLogExpr({(0, 0, 1): F(-1)})
    ok, mism = verify_expansion(f, e, 30)
    assert ok, mism


def test_expand_weight_bound_and_boundary():
    f = HyperFn([EpsLin(1, 2), EpsLin(0, 3)], [EpsLin(1, 5)])
    e = epsilon_expand(f, 4)
    ok, mism = verify_expansion(f, e, 25)
    assert ok, mism
    for k in range(1, 5):
        assert e.layers[k].weight <= k
        assert e.layers[k].const == 0          # omega_k(0) = 0


def test_expand_3f2_pure():
    f = HyperFn([EpsLin(0, 1), EpsLin(0, 2), EpsLin(0, -1)],
                [EpsLin(1, 1), EpsLin(1, 3)])
    e = epsilon_expand(f, 3)
    ok, mism = verify_expansion(f, e, 20)
    assert ok, mism
    for k in range(1, 4):
        assert e.layers[k].weight <= k


def test_expand_half_integer_gauss():
    f = HyperFn([EpsLin(F(1, 2), 2), EpsLin(F(1, 2), -3)], [EpsLin(F(3, 2), 5)])
    e = epsilon_expand(f, 3)
    assert e.kind == "xi"
    # layer 0 of the dressed function sqrt(-z) F is artanh(xi)
    assert e.layers[0] == PolyLogExpr(
        {(-1,): F(1, 2), (1,): F(-1, 2)}, 0, "xi")
    ok, mism = verify_expansion(f, e, 25)
    assert ok, mism
    for k in range(4):
        assert e.layers[k].weight <= k + 1     # dressing carries weight one


def test_expand_unsupported():
    with pytest.raises(UnsupportedClass):
        epsilon_expand(HyperFn([EpsLin(1, 1), EpsLin(1, 2)], [EpsLin(1, 3)]), 2)
    with pytest.raises(UnsupportedClass):
        epsilon_expand(HyperFn([EpsLin(F(1, 3), 1), EpsLin(0, 1)], [EpsLin(1, 1)]), 2)
    with pytest.raises(UnsupportedClass):
        epsilon_expand(HyperFn([EpsLin(0, 1), EpsLin(0, 2)], [EpsLin(1, 1)],
                               kappa=F(2)), 2)
    # 2F1(1+a e, 1+b e; 2+c e): omega0 = -ln(1-z)/z is not rational
    with pytest.raises(UnsupportedClass):
        epsilon_expand(HyperFn([EpsLin(1, 1), EpsLin(1, 2)], [EpsLin(2, 3)]), 2)


def test_expand_rational_omega0():
    # 2F1(1 + a e, b e; 1 + c e): omega0 = 1 (zero upper kills the series)
    f = HyperFn([EpsLin(1, 1), EpsLin(0, 1)], [EpsLin(1, -1)])
    e = epsilon_expand(f, 3)
    assert e.omega0 == 1
    ok, mism = verify_expansion(f, e, 25)
    assert ok, mism


def test_verify_k0_checks_rationality():
    f = HyperFn([EpsLin(0, 2), EpsLin(0, 3)], [EpsLin(1, 5)])
    e = epsilon_expand(f, 0)
    ok, _ = verify_expansion(f, e, 15)
    assert ok


def test_verify_detects_corrupted_layer():
    f = HyperFn([EpsLin(0, 2), EpsLin(0, 3)], [EpsLin(1, 5)])
    e = epsilon_expand(f, 2)
    bad_layers = list(e.layers)
    bad_layers[2] = bad_layers[2] + PolyLogExpr({(1,): F(1, 7)})
    bad = EpsilonExpansion(e.fn, e.kind, e.var, e.omega0, tuple(bad_layers))
    ok, mism = verify_expansion(f, bad, 15)
    assert not ok
    assert mism == (1, 2)    # lowest affected order: z^1 at eps^2


def test_shuffle_closure_of_layers():
    """Products of emitted layers re-expand consistently (word algebra)."""
    f = HyperFn([EpsLin(1), EpsLin(0, 1)], [EpsLin(1, 1)])
    e = epsilon_expand(f, 3)
    N = 15
    for k1 in (1, 2):
        for k2 in (1, 2):
            prod = e.layers[k1] * e.layers[k2]
            s1 = e.layers[k1].series(N)
            s2 = e.layers[k2].series(N)
            direct = [sum(s1[i] * s2[j - i] for i in range(j + 1))
                      for j in range(N + 1)]
            assert prod.series(N) == direct


def test_xi_series_helpers():
    zs = xi_z_series(8)
    assert zs[2] == -1 and zs[4] == -1 and zs[3] == 0
    ds = xi_dressing_series(7)
    assert ds[1] == 1 and ds[3] == F(1, 2) and ds[5] == F(3, 8)


def test_xi_layers_reconstruct_undressed_function():
    """Undoing the sqrt(-z) substitution reproduces the raw oracle layers."""
    from hyperred.series import compose_z_series, series_of_hyper
    f = HyperFn([EpsLin(F(1, 2), 2), EpsLin(F(1, 2), -1)], [EpsLin(F(3, 2), 3)])
    K, N = 2, 12
    e = epsilon_expand(f, K)
    M = 2 * N
    composed = compose_z_series(series_of_hyper(f, N, K), xi_z_series(M), M)
    dress = xi_dressing_series(M)
    for k in range(K + 1):
        uk = e.layers[k].series(M)
        target = composed.eps_row(k)
        # u_k = dress * omega_k(z(xi)): cross-multiply avoids series division
        lhs = uk
        rhs = [sum(dress[i] * target[j - i] for i in range(j + 1)) for j in range(M + 1)]
        assert lhs == rhs, k


def test_factorization_report_satisfies_root_equations():
    """Reported (R1, R2, beta) solve the sum/product constraint system."""
    shapes = [
        ([EpsLin(0, 1), EpsLin(0, 2)], [EpsLin(1, 3)]),
        ([EpsLin(F(1, 3), 1), EpsLin(0, 1)], [EpsLin(F(4, 3), 1)]),
        ([EpsLin(1, 1), EpsLin(0, 2)], [EpsLin(1, 1)]),
        ([EpsLin(F(1, 2), 1), EpsLin(F(1, 2), 2)], [EpsLin(F(3, 2), 1)]),
    ]
    for up, lo in shapes:
        try:
            rep = factorization_conditions(up, lo)
        except Exception:
            continue
        A = ([u.const for u in up if u.const != 0] + [F(0), F(0)])[:2]
        Bm = ([l.const - 1 for l in lo if l.const != 1] + [F(0), F(0)])[:2]
        beta = rep.beta[0]
        assert rep.r1 + beta == A[0] + A[1]
        assert rep.r1 * beta == A[0] * A[1]
        assert rep.r2 + beta == Bm[0] + Bm[1]
        assert rep.r2 * beta == Bm[0] * Bm[1]
        # same constraints through the symmetric polynomials
        assert elementary_symmetric([rep.r1, beta], 1) == elementary_symmetric(A, 1)
        assert elementary_symmetric([rep.r2, beta], 2) == elementary_symmetric(Bm, 2)


def test_pure_eps_layers_weight_homogeneous():
    """All const parts 0 or 1: the eps^k layer has words of weight exactly k."""
    for f in (HyperFn([EpsLin(0, 2), EpsLin(0, 3)], [EpsLin(1, 5)]),
              HyperFn([EpsLin(1), EpsLin(0, 1)], [EpsLin(1, 1)])):
        e = epsilon_expand(f, 4)
        for k in range(1, 5):
            for w in e.layers[k].terms:
                assert len(w) == k


def test_expand_4f3_pure_class():
    f = HyperFn([EpsLin(0, 1), EpsLin(0, 2), EpsLin(0, 3), EpsLin(0, -1)],
                [EpsLin(1, 1), EpsLin(1, -2), EpsLin(1, 5)])
    e = epsilon_expand(f, 4)
    ok, mism = verify_expansion(f, e, 18)
    assert ok, mism
    # four pure-eps uppers make every series term O(eps^4)
    assert all(e.layers[k].is_zero() for k in (1, 2, 3))
    # eps^4 z^j coefficient is abcd/j^4, i.e. abcd*Li4 = -abcd*G(0,0,0,1)
    assert e.layers[4] == PolyLogExpr({(0, 0, 0, 1): F(6)})


def test_expand_rejects_nonpure_layers():
    # 3F2(1+a e, b e, c e; 1+d e, 2+f e): the eps^2 layer needs 1/z weights
    f = HyperFn([EpsLin(1, 1), EpsLin(0, 2), EpsLin(0, 3)],
                [EpsLin(1, 1), EpsLin(2, 1)])
    with pytest.raises(UnsupportedClass):
        epsilon_expand(f, 2)


def test_half_integer_k4_at_n30():
    f = HyperFn([EpsLin(F(1, 2), 2), EpsLin(F(1, 2), -3)], [EpsLin(F(3, 2), 5)])
    e = epsilon_expand(f, 4)
    ok, mism = verify_expansion(f, e, 30)
    assert ok, mism
