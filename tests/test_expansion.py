"""Factorization classifiers and the epsilon-expansion engine."""

import copy
import json
import pickle
import re
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import expansion_reference
from hyperred import cli, expansion
from hyperred.errors import (NoFactorization, NotTriangular, UnsupportedClass)
from hyperred.expansion import (EpsilonExpansion, epsilon_expand,
                                f3_parametrization_check, factorization_conditions,
                                gauss_flags, gauss_triangular_system, three_f2_system,
                                verify_expansion)
from hyperred.gpl import GplCombo, PolyLogExpr
from hyperred.grammar import parse_hyper
from hyperred.hyper import HyperFn, SymHyperFn
from hyperred.mb import MBRepr, get_preset
from hyperred.poly import Poly
from hyperred.ratfunc import RatFunc
from hyperred.reduction import ode_operator, reduce_to_basis
from hyperred.series import BiSeries, series_of_hyper
from hyperred.scalars import EpsLin, Linear, LinearForm
from hyperred.theta import ThetaOp


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
    # a triangular system returns; any other raises NotTriangular
    assert gauss_triangular_system(0, 2, 1, 3, 0) is None           # p1 p2 = 0, beta = 0
    assert gauss_triangular_system(1, 5, -1, 2, F(1, 2)) is None    # beta = -r/q = p1/q
    with pytest.raises(NotTriangular) as exc:
        gauss_triangular_system(1, 2, 3, 3, 0)
    c1, c2 = exc.value.bracket
    assert c1 == F(1, 3) * F(2, 3) and c2 == 0


def test_three_f2_system_deltas():
    a1, a2, a3, b1, b2 = F(2), F(3), F(5), F(7), F(11)
    r, p, q = 1, -1, 2
    deltas, rep = three_f2_system(r, p, q, a1, a2, a3, b1, b2)
    assert deltas == (-a1 * F(r, q),
                      a1 * a2 + a1 * a3 + a2 * a3,
                      b1 * F(p + r, q),
                      -b1 * b2)
    assert rep.h_exponents == (F(p + r, q), -F(p, q))
    assert rep.xi_description is not None          # p = -r
    _, rep2 = three_f2_system(1, 1, 2, a1, a2, a3, b1, b2)
    assert rep2.xi_description is None             # p != -r
    sys3, rep3 = three_f2_system(0, 0, 2, a1, a2, a3, b1, b2)
    assert rep3.h_exponents == (0, 0)              # integer case, h = 1


def test_three_f2_rational_parametrization_flag_is_the_reports(capsys):
    """check-parametrization 3f2 reads its flag off the report: xi is named
    exactly when p = -r, in the record and in the text."""
    for r, p, q in product(range(-2, 3), range(-2, 3), (1, 2, 3)):
        _, rep = three_f2_system(r, p, q, 1, 1, 1, 1, 1)
        assert (rep.xi_description is not None) == (p == -r), (r, p, q)
        argv = ["check-parametrization", "3f2", "--r", str(r), "--p", str(p), "--q", str(q)]
        assert cli.main(argv + ["--format", "jsonl"]) == 0
        assert json.loads(capsys.readouterr().out)["rational_parametrization"] == (p == -r)
        assert cli.main(argv) == 0
        assert f"rational parametrization exists: {p == -r}\n" in capsys.readouterr().out


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


def test_expand_integer_class_with_rational_eps_coefficients():
    """Parameters whose eps parts have denominators: prod (theta + x) is read
    off the integer theta-product of q theta + p0 + p1 eps over prod q."""
    for f in (HyperFn([EpsLin(1, F(1, 2)), EpsLin(0, F(2, 3))], [EpsLin(1, F(-3, 4))]),
              HyperFn([EpsLin(0, F(1, 2)), EpsLin(0, F(-5, 3)), EpsLin(0, 3)],
                      [EpsLin(1, F(1, 6)), EpsLin(1, F(7, 2))])):
        e = epsilon_expand(f, 3)
        ok, mism = verify_expansion(f, e, 20)
        assert ok, (f, mism)


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


def test_verify_refuses_an_omega0_with_a_pole_at_the_origin():
    """omega0 over z is refused (UnsupportedClass, exit 3), naming it."""
    f = HyperFn([EpsLin(0, 2), EpsLin(0, 3)], [EpsLin(1, 5)])
    e = epsilon_expand(f, 2)
    omega0 = e.omega0 / RatFunc(Poly.variable(e.omega0.vars, "z"))
    bad = EpsilonExpansion(e.fn, e.kind, e.var, omega0, e.layers)
    with pytest.raises(UnsupportedClass,
                       match=rf"^piece {re.escape(str(omega0))} has a pole at z = 0$") as exc:
        verify_expansion(f, bad, 15)
    assert cli.exit_code_for(exc.value) == 3


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
    zs = expansion_reference.xi_z_series(8)
    assert zs[2] == -1 and zs[4] == -1 and zs[3] == 0
    ds = expansion_reference.xi_dressing_series(7)
    assert ds[1] == 1 and ds[3] == F(1, 2) and ds[5] == F(3, 8)


def test_xi_layers_reconstruct_undressed_function():
    """Undoing the sqrt(-z) substitution reproduces the raw oracle layers."""
    from hyperred.series import compose_z_series, series_of_hyper
    f = HyperFn([EpsLin(F(1, 2), 2), EpsLin(F(1, 2), -1)], [EpsLin(F(3, 2), 3)])
    K, N = 2, 12
    e = epsilon_expand(f, K)
    M = 2 * N
    ref = expansion_reference
    composed = compose_z_series(series_of_hyper(f, N, K), ref.xi_z_series(M), M)
    dress = ref.xi_dressing_series(M)
    for k in range(K + 1):
        uk = e.layers[k].series(M)
        target = composed.eps_row(k)
        # u_k = dress * omega_k(z(xi)): cross-multiply avoids series division
        lhs = uk
        rhs = [sum(dress[i] * target[j - i] for i in range(j + 1)) for j in range(M + 1)]
        assert lhs == rhs, k


_Q = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _pfaff_draws(draw, N_min=1):
    """(f, N, K): a kappa = 1 2F1 with a != b and c off the non-positive
    integers, a z-depth N and an eps order K."""
    a = EpsLin(draw(_Q), draw(_Q))
    b = draw(st.builds(EpsLin, _Q, _Q).filter(lambda b: b != a))
    c0 = draw(_Q.filter(lambda q: q.denominator != 1 or q > 0))
    f = HyperFn([a, b], [EpsLin(c0, draw(_Q))])
    return f, draw(st.integers(N_min, 30)), draw(st.integers(0, 8))


def _odd_rows(s: BiSeries, N: int, K: int):
    """(nums, den) of the odd xi-powers of s to xi^(2N-1); its even ones must vanish."""
    W = K + 1
    rows = [s.nums[j * W:(j + 1) * W] for j in range(2 * N + 1)]
    assert not any(any(r) for r in rows[::2])
    return tuple(x for r in rows[1::2] for x in r), s.den


@settings(max_examples=60, deadline=None)
@given(_pfaff_draws())
def test_xi_oracle_is_the_composed_and_dressed_oracle(case):
    """Pfaff's transformation in t = xi^2 gives, cell for cell, the z-series
    composed with z = -xi^2/(1 - xi^2) and dressed by sqrt(-z)."""
    f, N, K = case
    t = expansion.xi_oracle(f, N - 1, K)
    assert (t.nums, t.den) == _odd_rows(expansion_reference.xi_composed_oracle(f, N, K), N, K)


@settings(max_examples=60, deadline=None)
@given(_pfaff_draws(N_min=2).filter(lambda d: d[0].upper[0].const not in
                                    (0, d[0].upper[1].const)))
def test_xi_oracle_property_fails_with_c_minus_a(case):
    """Negative control: with c - a for c - b the t^1 cell is off by
    a (a - b)/c at eps^0, so the same comparison fails."""
    f, N, K = case
    a, _ = f.upper
    c = f.lower[0]
    t = (series_of_hyper(HyperFn([F(1, 2) - a], []), N - 1, K)
         * series_of_hyper(HyperFn([a, c - a], [c]), N - 1, K))
    assert (t.nums, t.den) != _odd_rows(expansion_reference.xi_composed_oracle(f, N, K), N, K)


def test_xi_oracle_refuses_what_pfaff_does_not_cover():
    f = parse_hyper("2F1[1/2+eps, 1/2-2*eps; 3/2+3*eps; z]")
    e = epsilon_expand(f, 2)
    for g in (parse_hyper("2F1[1/2+eps, 1/2-2*eps; 3/2+3*eps; -z]"),
              parse_hyper("3F2[1/2+eps, 1/2-2*eps, 1; 3/2+3*eps, 1; z]")):
        with pytest.raises(UnsupportedClass, match="xi oracle"):
            verify_expansion(g, e)


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


def test_values_survive_pickle_and_deepcopy():
    # every immutable value type, alone and inside the two result records
    half = parse_hyper("2F1[1/2+eps, 1/2-2*eps; 3/2+3*eps; z]")
    red = reduce_to_basis(parse_hyper("2F1[7/5+eps, 1/3-eps; 1/2+2*eps; z]"),
                          parse_hyper("2F1[2/5+eps, 1/3-eps; 3/2+2*eps; z]"))
    direct = epsilon_expand(parse_hyper("3F2[eps, -3*eps, 2*eps; 1+eps, 1-eps; z]"), 2)
    values = [red.s_poly.num, red.s_poly, series_of_hyper(half, 6, 2),
              GplCombo({(1, F(1, 2)): {(2, 1): F(3, 4)}, (): {(0, 2): F(1, 6)}}),
              epsilon_expand(half, 2).layers[2], half.upper[1], ode_operator(half),
              red, epsilon_expand(half, 2), direct, half, get_preset("c3").mb,
              get_preset("c1").printed.terms[1].fn]
    for v in values:
        for c in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
            assert type(c) is type(v) and c == v, type(v).__name__


ONE_OF_EACH_VALUE_TYPE = {
    "Poly": lambda: Poly.variable(("z",), "z"),
    "RatFunc": lambda: RatFunc(Poly.const(("z",), 1), Poly.variable(("z",), "z")),
    "BiSeries": lambda: BiSeries(((F(1), F(2)), (F(3), F(4)))),
    "GplCombo": lambda: GplCombo.word((1,), F(1, 2)),
    "PolyLogExpr": lambda: PolyLogExpr({(0, 1): 2}, 1),
    "Linear": lambda: Linear({"n": 1}, 2),
    "ThetaOp": lambda: ThetaOp.theta(("z",)),
    "HyperFn": lambda: HyperFn([F(1, 2), EpsLin(1, 2)], [EpsLin(F(3, 2), -1)], 2, "y"),
    "SymHyperFn": lambda: SymHyperFn([LinearForm.n(1), 1], [LinearForm.j("j1")], -1, "y"),
    "MBRepr": lambda: MBRepr(-1, "y", [LinearForm.j("j1"), 1], [LinearForm.n(F(1, 2))]),
}


@pytest.mark.parametrize("name", sorted(ONE_OF_EACH_VALUE_TYPE))
def test_value_fields_refuse_assignment(name):
    v = ONE_OF_EACH_VALUE_TYPE[name]()
    assert type(v).__name__ == name and type(v)._fields
    before = str(v)
    for field in type(v)._fields:
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(v, field, None)
    assert str(v) == before


def test_mb_repr_equality_and_hash_read_every_field():
    # mb_to_hyper's cache keys on MBRepr equality, so no field may be left out of it
    m = ONE_OF_EACH_VALUE_TYPE["MBRepr"]()
    same = MBRepr(m.kappa, m.var, m.a_forms, m.b_forms, m.c_forms, m.d_forms)
    assert same == m and hash(same) == hash(m) and len({same, m}) == 1
    assert MBRepr(-2, "y", m.a_forms, m.b_forms) != m
    assert MBRepr(m.kappa, "w", m.a_forms, m.b_forms) != m
    assert MBRepr(m.kappa, m.var, m.a_forms[::-1], m.b_forms) != m


def test_no_factorization_error_writes_rationals_as_the_grammar_does(capsys):
    assert cli.main(["expand", "2F1[1+eps, 1+eps; 1+eps; z]", "--order", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: no factorization with beta >= 0 and R2 >= 0"
                                 " for uppers [1, 1], lowers [1]\n")


# ---------------------------------------------------------------------------
# one split enumerator against the two solvers it replaced

REPORT_CONSTS = [F(0), F(1), F(-1), F(1, 2), F(3, 2), F(4, 3)]
ENGINE_CONSTS = [F(c) for c in range(-2, 4)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:      # noqa: BLE001 - the exception class is the outcome
        return type(e)


def _split_mismatches():
    """Grid inputs where the report or the engine differs from the reference."""
    bad = []
    for p in (2, 3):
        for consts in product(REPORT_CONSTS, repeat=2 * p - 1):
            up = [EpsLin(c, k + 1) for k, c in enumerate(consts[:p])]
            lo = [EpsLin(c, -k - 1) for k, c in enumerate(consts[p:])]
            if (_outcome(factorization_conditions, up, lo)
                    != _outcome(expansion_reference.factorization_conditions, up, lo)):
                bad.append(("report", consts))
        for consts in product(ENGINE_CONSTS, repeat=2 * p - 1):
            A, B = list(consts[:p]), list(consts[p:])
            if (_outcome(expansion._choose_factorization, A, B)
                    != _outcome(expansion_reference.choose_factorization, A, B)):
                bad.append(("engine", consts))
    return bad


def test_splits_match_the_reference_solvers():
    assert _split_mismatches() == []


def test_split_equivalence_fails_a_multiset_leak(monkeypatch):
    """Negative control: a beta matched against Bm without removing its elements."""
    def leaky_splits(A, Bm):
        for i in reversed(range(len(A))):
            beta, rest = A[:i] + A[i + 1:], list(Bm)
            if all(x in Bm for x in beta):
                for x in beta:
                    if x in rest:
                        rest.remove(x)
                yield beta, A[i], rest[0]

    monkeypatch.setattr(expansion, "_splits", leaky_splits)
    bad = _split_mismatches()
    # A = (0, 0, 0) over Bm = (0, 1, 1): beta = (0, 0) is not in Bm, only 0 is
    assert ("engine", (0, 0, 0, 2, 2)) in bad
