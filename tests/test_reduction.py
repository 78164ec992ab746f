"""Differential reduction: ODE operators, contiguous steps, counting."""

import json
import random
import re
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperred import cli

from hyperred.errors import (HyperredError, NotIntegerShift, SingularStep, UnsupportedClass,
                             VerificationFailure)
from hyperred.grammar import parse_hyper
from hyperred.hyper import HyperFn, SymHyperFn
from hyperred.poly import Poly, _div_root
from hyperred.ratfunc import RatFunc
from hyperred.reduction import (OpMatrix, ReductionResult, canonical_path, detect_exceptional,
                                ode_operator, reduce_to_basis, shift_vector,
                                step_matrix, verify_depth, verify_reduction)
from hyperred.scalars import EpsLin, LinearForm
from hyperred.series import BiSeries, series_of_hyper
from poly_reference import poly_object_subst
from reduction_reference import (_z_valuation, clear_and_normalize, reference_reduce,
                                 reference_verify)
from series_reference import (rows_add, rows_div_z, rows_mul_z_power, rows_theta,
                              to_biseries_laurent)

V = ("eps", "z")


def _rand_fn(rng, p):
    """Random (p+1)Fp with eps-deformed rational parameters, non-exceptional."""
    def param(kind):
        while True:
            c = F(rng.randint(-6, 6), rng.choice((2, 3, 5, 7)))
            e = F(rng.choice((-2, -1, 1, 2)))
            if kind == "lower" and c.denominator == 1 and c <= 0:
                continue
            return EpsLin(c, e)
    while True:
        fn = HyperFn([param("upper") for _ in range(p + 1)],
                     [param("lower") for _ in range(p)])
        rep = detect_exceptional(fn)
        if not rep.pairs and not rep.integer_uppers:
            return fn


def test_ode_operator_2f1_coefficients():
    a, b, c = EpsLin(F(2, 5)), EpsLin(F(1, 3)), EpsLin(F(3, 2))
    L = ode_operator(HyperFn([a, b], [c]))
    z = RatFunc(Poly.variable(V, "z"))
    assert L.coeff(2) == z - 1
    assert L.coeff(1) == z * F(2, 5) + z * F(1, 3) - (F(3, 2) - 1)
    assert L.coeff(0) == z * (F(2, 5) * F(1, 3))


def test_ode_operator_1f0():
    L = ode_operator(HyperFn([EpsLin(F(1, 2))], []))
    z = RatFunc(Poly.variable(V, "z"))
    assert L.coeff(1) == z - 1
    assert L.coeff(0) == z * F(1, 2)


def test_ode_annihilates_random():
    rng = random.Random(42)
    for p in (1, 2, 3):
        fn = _rand_fn(rng, p)
        res = ode_operator(fn).apply(series_of_hyper(fn, 20, 3))
        assert res.is_zero(), fn


def test_upper_raise_is_theta_plus_one():
    b, c = EpsLin(F(1, 3), 1), EpsLin(F(3, 2), -2)
    f = HyperFn([EpsLin(1), b], [c])
    m = step_matrix(f, "upper", 0, 1)
    # 2F1(2,b;c;z) = (theta + 1) 2F1(1,b;c;z)
    assert m.row(0)[0] == 1 and m.row(0)[1] == 1
    st_t = series_of_hyper(f.shifted("upper", 0, 1), 25, 1)
    sb = series_of_hyper(f, 25, 1)
    assert st_t == BiSeries(rows_add(sb.rows, rows_theta(sb.rows)))


def test_zero_shift_is_identity():
    f = HyperFn([EpsLin(F(2, 5), 1), EpsLin(F(1, 3))], [EpsLin(F(3, 2))])
    r = reduce_to_basis(f, f)
    assert r.s_poly == 1 and r.r_polys[0] == 1
    assert all(x.is_zero() for x in r.r_polys[1:])
    assert r.algebraic_tail.is_zero()


def test_lower_shift_two_term():
    a, b, c = EpsLin(F(2, 5), 1), EpsLin(F(1, 3), -1), EpsLin(F(3, 2), 2)
    f = HyperFn([a, b], [c])
    r = reduce_to_basis(HyperFn([a, b], [c - 1]), f)
    nonzero = [x for x in r.r_polys if not x.is_zero()]
    assert len(nonzero) == 2
    ok, mism = verify_reduction(r, 30, 0)
    assert ok, mism


@pytest.mark.parametrize("kappa", [F(-1), F(1, 4), F(4)])
def test_scaled_argument_reductions_verify(kappa):
    # the ODE of F(kappa z) carries kappa z, in both the generic and the
    # affine (unit upper) module
    a, b, c = EpsLin(F(2, 5), 1), EpsLin(F(1, 3), -1), EpsLin(F(3, 2), 2)
    basis = HyperFn([a, b], [c], kappa)
    assert ode_operator(basis).apply(series_of_hyper(basis, 20, 2)).is_zero()
    r = reduce_to_basis(HyperFn([a + 1, b], [c - 1], kappa), basis)
    assert verify_reduction(r, 30, 2) == (True, None)
    one, d = EpsLin(1), EpsLin(F(4, 3), 1)
    affine_basis = HyperFn([one, a, b], [c, d], kappa)
    r = reduce_to_basis(HyperFn([one, a + 1, b], [c + 1, d], kappa), affine_basis)
    assert r.affine
    assert verify_reduction(r, 30, 2) == (True, None)


def _reduce_by_full_product(target, basis, affine_index=None):
    """Row 0 of the whole product M_k ... M_1, built left to right as squares."""
    affine = affine_index is not None
    total = OpMatrix.identity(V, basis.p + 1, affine)
    cur = basis
    for which, index, direction in canonical_path(*shift_vector(target, basis)):
        total = step_matrix(cur, which, index, direction, affine_index) @ total
        cur = cur.shifted(which, index, direction)
    row = total.row(0)
    coeffs, tail = (row[:-1], row[-1]) if affine else (row, RatFunc.const(V, 0))
    return clear_and_normalize(target, basis, coeffs, tail, affine)


_A, _B, _C = EpsLin(F(2, 5), 1), EpsLin(F(1, 3), -1), EpsLin(F(3, 2), 2)
_ONE, _D = EpsLin(1), EpsLin(F(4, 3), 1)


@pytest.mark.parametrize("target, basis, affine_index", [
    # empty path: the identity row
    (HyperFn([_A, _B], [_C]), HyperFn([_A, _B], [_C]), None),
    # forward and inverse steps (upper -1 and lower +1 invert a matrix)
    (HyperFn([_A + 1, _B - 1], [_C + 1]), HyperFn([_A, _B], [_C]), None),
    # affine unit-upper module, whose row carries the tail column
    (HyperFn([_ONE, _A + 1, _B], [_C + 1, _D]), HyperFn([_ONE, _A, _B], [_C, _D]), 0),
    # scaled argument
    (HyperFn([_A + 1, _B], [_C - 1], F(-1)), HyperFn([_A, _B], [_C], F(-1)), None),
])
def test_row_fold_equals_full_product(target, basis, affine_index):
    r = reduce_to_basis(target, basis)
    ref = _reduce_by_full_product(target, basis, affine_index)
    assert r.affine == (affine_index is not None) == ref.affine
    assert r.s_poly == ref.s_poly
    assert r.r_polys == ref.r_polys
    assert r.algebraic_tail == ref.algebraic_tail


@pytest.mark.parametrize("affine_index", [None, 0])
def test_row_times_matrix_is_row_of_square_product(affine_index):
    fn = HyperFn([_ONE, _A, _B], [_C, _D])
    m = step_matrix(fn, "upper", 1, 1, affine_index)
    n = step_matrix(fn, "lower", 0, 1, affine_index)
    row = OpMatrix((m.row(0),), m.affine) @ n
    assert row.size == 1 and row.affine == m.affine
    assert row.row(0) == (m @ n).row(0)


_KAPPAS = (F(1), F(-1), F(1, 4), F(4))


def _reps(r):
    rd = lambda p: (p.rep, p.den)
    return (r.affine, rd(r.s_poly.num), rd(r.s_poly.den),
            tuple((rd(x.num), rd(x.den)) for x in r.r_polys),
            rd(r.algebraic_tail.num), rd(r.algebraic_tail.den))


@st.composite
def _mixed_paths(draw):
    """A 2F1 or 3F2 basis (eps or symbolic n, generic or unit-upper affine,
    argument kappa z) and a path of up to 4 unit steps, raising or lowering."""
    p = draw(st.sampled_from((1, 2)))
    affine = draw(st.booleans())
    symbolic = draw(st.booleans())
    kappa = draw(st.sampled_from(_KAPPAS))

    def param():
        c = F(draw(st.integers(-6, 6)), draw(st.sampled_from((2, 3, 5, 7))))
        e = F(draw(st.sampled_from((-2, -1, 1, 2))), draw(st.sampled_from((1, 2))))
        return LinearForm(e, (), c) if symbolic else EpsLin(c, e)
    upper = [param() for _ in range(p + 1)]
    if affine:
        upper[0] = LinearForm.constant(1) if symbolic else EpsLin(1)
    basis = (SymHyperFn if symbolic else HyperFn)(upper, [param() for _ in range(p)], kappa)
    moves = [("upper", i) for i in range(1 if affine else 0, p + 1)]
    moves += [("lower", l) for l in range(p)]
    path = draw(st.lists(st.tuples(st.sampled_from(moves), st.sampled_from((1, -1))),
                         max_size=4))
    path = [(which, index, d) for (which, index), d in path]
    target = basis
    for which, index, d in path:
        target = target.shifted(which, index, d)
    return target, basis, path


@settings(max_examples=60, deadline=None)
@given(_mixed_paths())
def test_fraction_free_fold_equals_reference_rep_for_rep(case):
    target, basis, path = case
    try:
        got = reduce_to_basis(target, basis, path)
    except SingularStep:
        with pytest.raises(SingularStep):
            reference_reduce(target, basis, path)
        return
    assert _reps(got) == _reps(reference_reduce(target, basis, path))


def _basis_column(fn, affine, N, K):
    """Series of (F, theta F, ..., theta^(d-1) F), then 1 in affine mode."""
    col = [series_of_hyper(fn, N, K)]
    for _ in range(fn.p - (1 if affine else 0)):
        col.append(BiSeries(rows_theta(col[-1].rows)))
    if affine:
        col.append(BiSeries(((F(1),) + (F(0),) * K,) + ((F(0),) * (K + 1),) * N))
    return col


def _apply_rows(m, col, N, K):
    """m times the column; each row is summed over its largest z pole first,
    since single entries carry 1/z poles that cancel only in the row sum."""
    out = []
    for row in m.entries:
        pieces = [(to_biseries_laurent(e, N, K), s) for e, s in zip(row, col) if not e.is_zero()]
        v = max(ev for (_, ev), _ in pieces)
        acc = tuple((F(0),) * (K + 1) for _ in range(N + 1))
        for (es, ev), s in pieces:
            acc = rows_add(acc, rows_mul_z_power((es * s).rows, v - ev))
        out.append(BiSeries(rows_div_z(acc, v)))
    return out


@pytest.mark.parametrize("kappa", [F(1), F(-1)], ids=["z", "-z"])
@pytest.mark.parametrize("fn, affine_index", [
    (HyperFn([_A, _B], [_C]), None),
    (HyperFn([_ONE, _A, _B], [_C, _D]), 0),
], ids=["2F1", "3F2-affine"])
def test_every_step_matrix_maps_the_basis_column(fn, affine_index, kappa):
    # series oracle for single steps: M column(fn) == column(shifted fn)
    fn = HyperFn(fn.upper, fn.lower, kappa)
    affine = affine_index is not None
    N, K = 12, 2
    col = _basis_column(fn, affine, N, K)
    moves = [("upper", i) for i in range(len(fn.upper)) if i != affine_index]
    moves += [("lower", l) for l in range(len(fn.lower))]
    for which, index in moves:
        for direction in (1, -1):
            m = step_matrix(fn, which, index, direction, affine_index)
            want = _basis_column(fn.shifted(which, index, direction), affine, N, K)
            got = _apply_rows(m, col, N, K)
            assert len(got) == len(want)
            for k, (g, w) in enumerate(zip(got, want)):
                assert g.z_order >= N - 4
                assert g == w, (which, index, direction, k)


def test_singular_step_determinant():
    # raising the lower parameter of 2F1(1,b;1;z) inverts a matrix whose
    # determinant carries the factor (c-1-a)(c-1-b) -> 0 at a=1, c=2
    f = HyperFn([EpsLin(1), EpsLin(F(1, 3), -1)], [EpsLin(1)])
    with pytest.raises(SingularStep, match=r"step lower\[0\] \+1 of .*, where lower\[0\] = 1 "):
        step_matrix(f, "lower", 0, 1)


def test_singular_step_names_step_function_and_parameter():
    """Term 1 of @c1 at binding (1,2,1): the canonical path's first step,
    upper[1] -1, inverts a singular matrix (upper and lower n/2 - 1 cancel)."""
    from hyperred.grammar import parse_input
    from hyperred.mb import mb_to_hyper
    preset = parse_input("@c1")
    powers = [s for s in preset.symbols if s != "n"]
    fn = mb_to_hyper(preset.mb).terms[1].fn

    def bound(values):
        return SymHyperFn([u.bind(values) for u in fn.upper],
                          [l.bind(values) for l in fn.lower], fn.kappa, fn.var)
    target, basis = bound(dict(zip(powers, (1, 2, 1)))), bound(dict.fromkeys(powers, 1))
    with pytest.raises(SingularStep, match=(
            r"singular for step upper\[1\] -1 of 3F2\[1, n/2-1, n/2-1; n-2, n/2-1; "
            r"\(-1\)\*y\], where upper\[1\] = n/2-1")):
        reduce_to_basis(target, basis)


def test_singular_zero_divisor():
    f = HyperFn([EpsLin(0), EpsLin(F(1, 3))], [EpsLin(F(3, 2))])
    with pytest.raises(SingularStep):
        step_matrix(f, "upper", 0, 1)


def test_not_integer_shift():
    f = HyperFn([EpsLin(F(2, 5)), EpsLin(F(1, 3))], [EpsLin(F(3, 2))])
    g = HyperFn([EpsLin(F(2, 5) + F(1, 2)), EpsLin(F(1, 3))], [EpsLin(F(3, 2))])
    with pytest.raises(NotIntegerShift, match="^difference 1/2 is not an integer$"):
        reduce_to_basis(g, f)
    h = HyperFn([EpsLin(F(2, 5), 1), EpsLin(F(1, 3))], [EpsLin(F(3, 2))])
    with pytest.raises(NotIntegerShift, match="^difference eps is not an integer$"):
        reduce_to_basis(h, f)
    # an integer constant part does not make up for an eps part
    k = HyperFn([EpsLin(F(2, 5)), EpsLin(F(1, 3))], [EpsLin(F(5, 2), F(1, 3))])
    with pytest.raises(NotIntegerShift, match=r"^difference 1\+1/3\*eps is not an integer$"):
        reduce_to_basis(k, f)
    with pytest.raises(NotIntegerShift, match="^parameter list lengths differ$"):
        reduce_to_basis(HyperFn(f.upper + (EpsLin(1),), f.lower + (EpsLin(2),)), f)
    with pytest.raises(NotIntegerShift, match="^argument descriptors differ$"):
        reduce_to_basis(HyperFn(f.upper, f.lower, kappa=2), f)
    assert shift_vector(HyperFn([EpsLin(F(-8, 5)), EpsLin(F(10, 3))], [EpsLin(F(1, 2))]), f) \
        == ([-2, 3], [-1])


def test_round_trip_matrices():
    rng = random.Random(3)
    for p in (1, 2):
        f = _rand_fn(rng, p)
        for which, idx in (("upper", 0), ("lower", p - 1)):
            up = step_matrix(f, which, idx, 1)
            down = step_matrix(f.shifted(which, idx, 1), which, idx, -1)
            assert (down @ up) == OpMatrix.identity(V, p + 1)


def _sym(n_coeff, c):
    return LinearForm.n(F(n_coeff)) + LinearForm.constant(F(c))


_UP_4F3 = [EpsLin(F(1, 3), 1), EpsLin(F(2, 5), -1), EpsLin(F(1, 7), 2), EpsLin(F(5, 4), -3)]
_LOW_4F3 = [EpsLin(F(3, 2), 1), EpsLin(F(5, 6), -1), EpsLin(F(7, 5), 3)]
_SYM_UP_4F3 = [_sym(F(1, 2), F(1, 3)), _sym(F(1, 3), 0), _sym(-1, F(2, 5)),
               _sym(F(1, 2), F(-1, 7))]
_SYM_LOW_4F3 = [_sym(F(1, 2), F(3, 2)), _sym(1, F(-5, 6)), _sym(F(-1, 3), F(7, 5))]


@pytest.mark.parametrize("kappa", [F(1), F(-1), F(1, 4), F(4)], ids=["1", "-1", "1/4", "4"])
@pytest.mark.parametrize("fn, affine_index", [
    (HyperFn(_UP_4F3, _LOW_4F3), None),
    (SymHyperFn(_SYM_UP_4F3, _SYM_LOW_4F3), None),
    (HyperFn([EpsLin(1)] + _UP_4F3[:3], _LOW_4F3), 0),
], ids=["4F3", "4F3-symbolic-n", "4F3-affine"])
def test_4f3_inverse_steps_round_trip(fn, affine_index, kappa):
    """Every inverse step (upper -1, lower +1) undoes its forward step:
    step_matrix(down) @ step_matrix(up) is the identity."""
    fn = type(fn)(fn.upper, fn.lower, kappa)
    vars = ("eps", "z") if isinstance(fn, HyperFn) else ("n", "z")
    moves = [("upper", i, 1) for i in range(4) if i != affine_index]
    moves += [("lower", l, -1) for l in range(3)]
    identity = OpMatrix.identity(vars, 4, affine_index is not None)
    for which, index, forward in moves:
        up = step_matrix(fn, which, index, forward, affine_index)
        down = step_matrix(fn.shifted(which, index, forward), which, index, -forward,
                           affine_index)
        assert down @ up == identity, (which, index)


def _step_grid():
    """192 unit moves: 2F1-4F3, generic and affine, in (eps, z) and in (n, z),
    at four kappas; each raises and lowers the last upper and the last lower.

    The 2F1 (eps, z) functions carry an upper 0 and the 3F2 ones an upper
    equal to their first lower, so a few moves end in SingularStep.
    """
    for kappa in (F(1), F(-1), F(1, 4), F(4)):
        for p in (1, 2, 3):
            up, low = list(_UP_4F3[:p + 1]), _LOW_4F3[:p]
            up[-1] = {1: EpsLin(0), 2: low[0], 3: up[-1]}[p]
            for cls, ups, lows, one in ((HyperFn, up, low, EpsLin(1)),
                                        (SymHyperFn, _SYM_UP_4F3[:p + 1], _SYM_LOW_4F3[:p],
                                         LinearForm.constant(1))):
                for affine_index in (None, 0):
                    fn = cls([one] + ups[1:] if affine_index == 0 else ups, lows, kappa)
                    for which, index in (("upper", p), ("lower", p - 1)):
                        for direction in (1, -1):
                            yield fn, which, index, direction, affine_index


def test_steps_are_pinned_rep_for_rep():
    """The step_matrix view of every move of the step grid (each RatFunc entry's
    num and den reps, free of how the step scales its integer P and K) and
    the message of each SingularStep hash to the digest the rational-
    parameter step builder gave."""
    import hashlib
    h = hashlib.sha256()
    moves = 0
    for fn, which, index, direction, affine_index in _step_grid():
        moves += 1
        try:
            M = step_matrix(fn, which, index, direction, affine_index)
            item = [[(e.num.rep, e.num.den, e.den.rep, e.den.den) for e in row]
                    for row in M.entries]
        except SingularStep as e:
            item = ("SingularStep", str(e))
        h.update(repr(item).encode())
    assert moves == 192
    assert h.hexdigest() == \
        "6722d10e50d4054c9ffa2a485ac688efca13c7453a6d38ac06bbb973044ec162"


def _result_reps(r):
    return [(p.rep, p.den) for x in (r.s_poly,) + r.r_polys + (r.algebraic_tail,)
            for p in (x.num, x.den)]


def test_step_memo_keys_on_parameter_order():
    """The two 2F1s differ only in the order of their uppers, so they are
    different Hypers and their upper[0] +1 steps differ: each reduces to
    its own cold answer while the other's step sits in the memo."""
    from hyperred.reduction import _unit_step
    f = HyperFn([EpsLin(F(2, 5), 1), EpsLin(F(1, 3), -1)], [EpsLin(F(3, 2), 2)])
    g = HyperFn([EpsLin(F(1, 3), -1), EpsLin(F(2, 5), 1)], [EpsLin(F(3, 2), 2)])
    assert f != g
    cold = []
    for fn in (f, g):
        _unit_step.cache_clear()
        cold.append(_result_reps(reduce_to_basis(fn.shifted("upper", 0, 1), fn)))
    assert cold[0] != cold[1]
    _unit_step.cache_clear()
    for fn, want in zip((f, g), cold):
        r = reduce_to_basis(fn.shifted("upper", 0, 1), fn)
        assert _result_reps(r) == want
        ok, mism = verify_reduction(r, 20, 2)
        assert ok, mism
    assert _unit_step.cache_info().misses == 2


@st.composite
def _hyper_pairs(draw):
    """Two HyperFns over one pool of two parameters and one argument kappa
    z, the second often a permutation of the first's lists."""
    p = draw(st.sampled_from((1, 2)))
    pool = [EpsLin(F(draw(st.sampled_from((-5, -1, 1, 2, 7))), draw(st.sampled_from((2, 3)))),
                   draw(st.sampled_from((-1, 1, 2)))) for _ in range(2)]
    kappa = draw(st.sampled_from(_KAPPAS))
    params = lambda n: draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    f = HyperFn(params(p + 1), params(p), kappa)
    if draw(st.booleans()):
        return f, HyperFn(draw(st.permutations(f.upper)), draw(st.permutations(f.lower)), kappa)
    return f, HyperFn(params(p + 1), params(p), draw(st.sampled_from(_KAPPAS)))


@settings(max_examples=80, deadline=None)
@given(_hyper_pairs())
def test_equal_hypers_print_alike_and_step_alike(pair):
    """Hyper equality is field equality: two functions are equal exactly when
    they print alike, equal ones hash alike and shift to equal functions,
    and the step memo answers the second of two equal functions."""
    from hyperred.reduction import _unit_step
    f, g = pair
    assert (f == g) == (str(f) == str(g))
    if f == g:
        assert hash(f) == hash(g)
        for which, n in (("upper", f.p + 1), ("lower", f.p)):
            assert all(f.shifted(which, i, d) == g.shifted(which, i, d)
                       for i in range(n) for d in (1, -1))
    _unit_step.cache_clear()
    _unit_step(f, "upper", 0, 1, None)
    _unit_step(g, "upper", 0, 1, None)
    assert _unit_step.cache_info()[:2] == ((1, 1) if f == g else (0, 2))   # (hits, misses)


def test_a_reparsed_function_reduces_from_the_memo():
    """parse_hyper(str(f)) is f: reducing it again after f reads every step
    from the memo and gives an equal result."""
    from hyperred.reduction import _unit_step
    for text, ups, los in (
            ("2F1[2/5+eps, 1/3-eps; 3/2+2*eps; z]", [1, -1], [1]),
            ("3F2[1, 1/2+eps, -1/3-eps; 5/3-eps, 1/4+eps; -1/4*z]", [0, 1, 0], [-1, 1]),
            ("2F1[1/7-2*eps, 3/5+eps; 1/2+eps; 4*z]", [0, 2], [-1])):
        f = target = parse_hyper(text)
        for step in canonical_path(ups, los):
            target = target.shifted(*step)
        _unit_step.cache_clear()
        first = reduce_to_basis(target, f)
        misses = _unit_step.cache_info().misses
        g = parse_hyper(str(f))
        assert g == f and hash(g) == hash(f) and g is not f
        again = reduce_to_basis(parse_hyper(str(target)), g)
        assert _unit_step.cache_info()[:2] == (misses, misses), text   # (hits, misses)
        assert again == first


def _assert_normal_form(r):
    """r's fields are what the normalizing constructor gives, from its
    polynomials rebuilt by their terms."""
    rebuild = lambda p: Poly.from_terms(p.vars, p.terms())
    n = RatFunc(rebuild(r.num), rebuild(r.den))
    assert (r.num, r.den) == (n.num, n.den), str(r)


@settings(max_examples=40, deadline=None)
@given(_mixed_paths())
def test_every_ratfunc_built_is_in_normal_form(case):
    """RatFunc equality compares fields, so every constructor must yield the
    one normal form: reduction pieces, bound pieces, step entries (built by
    RatFunc.over), the record codec's round trip and arithmetic on them."""
    from hyperred.reduction import tail_upper
    target, basis, path = case
    try:
        r = reduce_to_basis(target, basis, path)
    except SingularStep:
        return
    pieces = [r.s_poly, *r.r_polys, r.algebraic_tail]
    bound = r.bind()
    pieces += [bound.s_poly, *bound.r_polys, bound.algebraic_tail]
    if path:
        affine_index = tail_upper(basis, shift_vector(target, basis)[0])
        m = step_matrix(basis, *path[0], affine_index)
        pieces += [e for row in m.entries for e in row]
    a, b = pieces[-1], pieces[-2]
    c = RatFunc.const(a.vars, F(-2, 3))
    for x, y in ((a, b), (b, a), (a, c), (c, a), (a, a)):
        pieces += [x + y, x - y, x * y] + ([x / y] if not y.is_zero() else [])
    pieces += [a.theta(), -a]
    pieces += [cli.dec_ratfunc(cli.enc_ratfunc(x)) for x in pieces]
    for x in pieces:
        _assert_normal_form(x)


def test_repeated_reduction_reads_its_steps_from_the_memo():
    from hyperred.reduction import _unit_step
    basis = HyperFn(_UP_4F3[:3], _LOW_4F3[:2])
    path = canonical_path([1, -1, 0], [1, -1])
    target = basis.shifted("upper", 0, 1).shifted("upper", 1, -1) \
        .shifted("lower", 0, 1).shifted("lower", 1, -1)
    _unit_step.cache_clear()
    first = reduce_to_basis(target, basis)
    assert _unit_step.cache_info()[:2] == (0, len(path))   # (hits, misses)
    second = reduce_to_basis(target, basis)
    assert _result_reps(second) == _result_reps(first)
    assert _unit_step.cache_info()[:2] == (len(path), len(path))
    step_matrix(basis, *path[0])
    assert _unit_step.cache_info()[:2] == (len(path) + 1, len(path))


def test_memoized_steps_are_bounded_and_immutable():
    from hyperred.reduction import _unit_step
    assert 0 < _unit_step.cache_info().maxsize < 1 << 16
    fn = HyperFn(_UP_4F3[:3], _LOW_4F3[:2])
    for which, index, direction in (("upper", 0, 1), ("upper", 0, -1), ("lower", 1, 1)):
        P, factors, K, roots = _unit_step(fn, which, index, direction, None)
        assert _unit_step(fn, which, index, direction, None)[0] is P
        with pytest.raises(TypeError):
            P[0][0] = P[1][1]
        with pytest.raises(TypeError):
            P[0] = P[1]
        with pytest.raises(TypeError):
            factors[next(iter(factors))] = 7
        assert type(K) is int and type(roots) is frozenset
        assert all(type(e) is tuple for row in P for e in row)


def test_step_roots_hold_own_factors_and_every_root_of_det_p():
    """The retry rule's input: over the step grid, each memoized step's roots
    hold its own factors and every x = r where det P vanishes (det P by
    Leibniz on the integer reps, tried at every root any step records), and
    roots is None exactly where det P is identically zero."""
    from itertools import permutations
    from hyperred.reduction import _ring_vars, _unit_step
    steps, pool = [], set()
    for fn, which, index, direction, affine_index in _step_grid():
        try:
            P, factors, K, roots = _unit_step(fn, which, index, direction, affine_index)
        except SingularStep:
            continue
        steps.append((_ring_vars(fn), P, factors, roots))
        pool |= set(factors) | set(roots or ())
    assert len(steps) > 150
    for vars, P, factors, roots in steps:
        n = len(P)
        det = Poly.zero(vars)
        for perm in permutations(range(n)):
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            term = Poly.const(vars, sign)
            for i in range(n):
                term = term * Poly(vars, P[i][perm[i]])
            det = det + term
        assert (roots is None) == det.is_zero()
        if roots is not None:
            assert set(factors) <= roots
            assert all(_div_root(det.rep, vars.index(x), r.numerator, r.denominator,
                                 len(vars)) is None
                       for x, r in pool - roots if x in vars), (vars, P)


@pytest.mark.parametrize("text", [
    "3F2[2/5+eps, 1/3-eps, 1/7+3*eps; 3/2+2*eps, 5/4-eps; z]",
    "4F3[2/5+eps, 1/3-eps, 1/7+3*eps, 2/9+eps; 3/2+2*eps, 5/4-eps, 7/3+eps; z]"],
    ids=["3F2", "4F3"])
def test_fold_retries_carried_factors_where_det_p_vanishes(text):
    """The smallest frontier rows (each upper +1, the lowers +1, -1, +1 in
    turn): factors carried from earlier steps clear at steps that do not
    add them, so a fold that never retries a carried factor, or retries
    only the step's own factors, leaves a common factor in S and the R_j
    that the gcd path of the reference does not."""
    basis = parse_hyper(text)
    target = basis
    for i in range(len(basis.upper)):
        target = target.shifted("upper", i, 1)
    for l in range(len(basis.lower)):
        target = target.shifted("lower", l, (-1) ** l)
    assert _reps(reduce_to_basis(target, basis)) == _reps(reference_reduce(target, basis))


def _c3_term_row():
    """Term 0 of @c3 with symbolic n, its propagator powers 2 over 1: over (n, y)."""
    from hyperred.grammar import parse_input
    from hyperred.mb import mb_to_hyper
    preset = parse_input("@c3")
    fn = mb_to_hyper(preset.mb).terms[0].fn
    powers = [s for s in preset.symbols if s != "n"]

    def bound(value):
        values = dict.fromkeys(powers, value)
        return SymHyperFn([u.bind(values) for u in fn.upper],
                          [l.bind(values) for l in fn.lower], fn.kappa, fn.var)
    return bound(2), bound(1)


def test_reduction_scans_content_only_as_its_answer_leaves(monkeypatch):
    """Once its steps are memoized, reduce_to_basis runs ``poly._int_content``
    only to put each R_j and the tail over its own denominator: the fold's
    products, sums and clearing on integer reps scan no content.  A numeric
    3F2 row, a unit-upper (affine) row and the @c3 row over (n, y)."""
    from hyperred import poly as poly_mod
    three = HyperFn(_UP_4F3[:3], _LOW_4F3[:2])
    affine = HyperFn([EpsLin(1)] + _UP_4F3[1:3], _LOW_4F3[:2])
    rows = [(three.shifted("upper", 0, 2).shifted("lower", 1, -2), three),
            (affine.shifted("upper", 1, 2).shifted("lower", 0, 1), affine),
            _c3_term_row()]
    calls = []
    scan = poly_mod._int_content
    for target, basis in rows:
        want = reduce_to_basis(target, basis)
        # a scan recurses into each z-coefficient; count the calls on whole reps
        monkeypatch.setattr(poly_mod, "_int_content",
                            lambda a, d, g=0: calls.append(d == 2) or scan(a, d, g))
        got = reduce_to_basis(target, basis)
        monkeypatch.setattr(poly_mod, "_int_content", scan)
        assert _reps(got) == _reps(want)
        assert sum(calls) <= len(got.r_polys) + got.affine, (target, sum(calls))
        calls.clear()
    assert rows[1][0].upper[0] == EpsLin(1) and reduce_to_basis(*rows[1]).affine
    assert reduce_to_basis(*rows[2]).s_poly.vars == ("n", "y")


def test_path_independence_small():
    rng = random.Random(11)
    for _ in range(4):
        f = _rand_fn(rng, 1)
        tgt = HyperFn([f.upper[0] + 1, f.upper[1] - 1], [f.lower[0] + 1],
                      f.kappa, f.var)
        ups, los = [1, -1], [1]
        base = canonical_path(ups, los)
        alt = list(reversed(base))
        r1 = reduce_to_basis(tgt, f, base)
        r2 = reduce_to_basis(tgt, f, alt)
        assert r1.s_poly == r2.s_poly
        assert r1.r_polys == r2.r_polys
        assert r1.algebraic_tail == r2.algebraic_tail
        ok, mism = verify_reduction(r1, 25, 2)
        assert ok, mism


def _affine_n_row():
    """C3-type target at j1=j2=1, q=0, sigma=1 after cancelling the unit pair:
    3F2(3-n/2, 1, n/2-1; n/2, 3/2) over a basis with {1, theta} plus a tail."""
    n2 = LinearForm.n(F(1, 2))
    one = LinearForm.constant(1)
    tgt = SymHyperFn([LinearForm.constant(3) - n2, one, n2 - 1],
                     [n2, LinearForm.constant(F(3, 2))])
    bas = SymHyperFn([one - n2, one, n2 - 1], [n2, LinearForm.constant(F(1, 2))])
    return tgt, bas


def test_affine_reduction_with_tail():
    r = reduce_to_basis(*_affine_n_row())
    assert r.affine
    assert len(r.r_polys) == 2          # basis {1, theta}
    assert not r.algebraic_tail.is_zero()
    bound = r.bind()
    ok, mism = verify_reduction(bound, 25, 2)
    assert ok, mism


def test_verify_detects_corruption():
    a, b, c = EpsLin(F(2, 5), 1), EpsLin(F(1, 3), -1), EpsLin(F(3, 2), 2)
    f = HyperFn([a, b], [c])
    r = reduce_to_basis(HyperFn([a + 1, b], [c]), f)
    ok, _ = verify_reduction(r, 20, 1)
    assert ok
    bad_r = list(r.r_polys)
    bad_r[1] = bad_r[1] + 1
    bad = ReductionResult(r.target, r.basis, r.s_poly, tuple(bad_r),
                          r.algebraic_tail, r.affine)
    ok, mism = verify_reduction(bad, 20, 1)
    assert not ok
    # corrupting R1 by +1 changes the theta F term, first visible at z^1
    assert mism == (1, 0)


def test_verify_looks_past_the_degree_of_the_result():
    # c z^40 in R0 lies beyond N = 30; the verifier must deepen to see it
    a, b, c = EpsLin(F(2, 5), 1), EpsLin(F(1, 3), -1), EpsLin(F(3, 2), 2)
    f = HyperFn([a, b], [c])
    r = reduce_to_basis(HyperFn([a + 1, b], [c]), f)
    assert verify_reduction(r, 30, 2) == (True, None)
    z40 = RatFunc(Poly.variable(r.s_poly.vars, "z") ** 40)
    bad_r = (r.r_polys[0] + z40 * F(3, 7),) + tuple(r.r_polys[1:])
    bad = ReductionResult(r.target, r.basis, r.s_poly, bad_r, r.algebraic_tail, r.affine)
    ok, mism = verify_reduction(bad, 30, 2)
    assert not ok
    assert mism[0] == 40


def test_detect_exceptional_examples():
    # 3F2(1, a, b; c, d): one integer upper
    f = HyperFn([EpsLin(1), EpsLin(F(2, 5), 1), EpsLin(F(1, 3))],
                [EpsLin(F(3, 2)), EpsLin(F(7, 5))])
    rep = detect_exceptional(f)
    assert rep.integer_uppers == (0,)
    assert not rep.pairs

    # cancellable pair: upper - lower = 2 with equal eps parts
    g = HyperFn([EpsLin(F(7, 2), 1), EpsLin(F(1, 3))],
                [EpsLin(F(3, 2), 1)])
    rep = detect_exceptional(g)
    assert rep.pairs == ((0, 0, 2),)

    # generic: no flags
    h = HyperFn([EpsLin(F(1, 2), 1), EpsLin(0, 1)], [EpsLin(1, 2)])
    rep = detect_exceptional(h)
    assert not rep.integer_uppers or rep == rep  # uppers: 0+1*eps is not integer
    assert not rep.pairs and not rep.integer_uppers


def test_count_nontrivial_basis():
    # generic 2F1 -> 2
    f = HyperFn([EpsLin(F(2, 5), 1), EpsLin(F(1, 3))], [EpsLin(F(3, 2))])
    assert detect_exceptional(f).count == 2
    # C3 4F3 at n = 4 - 2 eps, j1 = j2 = sigma = 1 -> 2
    g = HyperFn([EpsLin(1, 1), EpsLin(1), EpsLin(1), EpsLin(1, -1)],
                [EpsLin(2, -1), EpsLin(1), EpsLin(F(3, 2))])
    assert detect_exceptional(g).count == 2


def test_greedy_smallest_difference():
    # upper 5/2 can pair with lower 5/2 (diff 0) or 3/2 (diff 1): takes 0
    f = HyperFn([EpsLin(F(5, 2), 1), EpsLin(F(1, 7))],
                [EpsLin(F(5, 2), 1)])
    rep = detect_exceptional(f)
    assert rep.pairs == ((0, 0, 0),)
    g = HyperFn([EpsLin(F(5, 2), 1), EpsLin(F(1, 7))],
                [EpsLin(F(3, 2), 1)])
    rep = detect_exceptional(g)
    assert rep.pairs == ((0, 0, 1),)


# (target, basis) text pairs: 2F1 and 3F2, generic and affine (a shared unit upper)
_VERIFY_CASES = (
    ("2F1[7/5+eps, 1/3-eps; 1/2+2*eps; z]", "2F1[2/5+eps, 1/3-eps; 3/2+2*eps; z]"),
    ("2F1[7/5+eps, -2/3-eps; 5/2+2*eps; -1*z]", "2F1[2/5+eps, 1/3-eps; 3/2+2*eps; -1*z]"),
    ("2F1[1, 4/3-eps; 1/2+2*eps; z]", "2F1[1, 1/3-eps; 3/2+2*eps; z]"),
    ("3F2[3/2+eps, 2/3+2*eps, 1/5-eps; 7/4+eps, 1/3-2*eps; z]",
     "3F2[1/2+eps, -1/3+2*eps, 1/5-eps; 3/4+eps, 4/3-2*eps; z]"),
    ("3F2[1, 3/2+eps, 1/3-eps; 5/2+2*eps, 4/3+eps; z]",
     "3F2[1, 1/2+eps, 1/3-eps; 3/2+2*eps, 4/3+eps; z]"),
)


@lru_cache(maxsize=None)
def _verify_result(i):
    t, b = _VERIFY_CASES[i]
    return reduce_to_basis(parse_hyper(t), parse_hyper(b))


def _outcome_of_check(check, r, N, K):
    try:
        return check(r, N, K)
    except (HyperredError, ValueError) as e:
        return type(e), str(e)


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def _perturbed_checks(draw):
    """(result, N, K, refused): a numeric reduction result, exact or with
    entries changed, and whether an entry now has a pole at z = 0 or is
    not a polynomial in z.

    An entry is S, an R_j or the tail.  It gains one cell x z^j eps^k, or
    is divided by a denominator with a power of z (a pole unless the entry
    vanishes to that order at z = 0), or by one with a factor prime to z
    (not a polynomial, unless its z^0 row vanishes at eps = 0, which is
    PoleAtEpsZero), or gets x z^j eps^k / z^m added with j < m (a pole,
    even where theta^j would cancel it).  "deep" adds eps^(K+1) / z^(p+2)
    to the tail, which is zero to eps^K, and a cell to R_0 at the row that
    such a piece over z^(p+2) would hide below the checked depth.  Every
    pole and every other denominator in z is refused, on both sides.
    """
    r = _verify_result(draw(st.integers(0, len(_VERIFY_CASES) - 1)))
    N, K = draw(st.integers(4, 12)), draw(st.integers(0, 4))
    entries = [r.s_poly, *r.r_polys, r.algebraic_tail]
    result = lambda: ReductionResult(r.target, r.basis, entries[0], tuple(entries[1:-1]),
                                     entries[-1], r.affine)
    how = draw(st.sampled_from(("exact", "cell", "divide", "pole", "deep")))
    zp = lambda m: Poly.variable(V, "z") ** m
    j, k, x = draw(st.integers(0, 8)), draw(st.integers(0, 5)), draw(_SMALL)
    i = draw(st.integers(0, len(entries) - 1))
    refused = how in ("pole", "deep")
    if how == "cell":
        entries[i] = entries[i] + RatFunc(Poly.from_terms(V, {(k, j): x}))
    elif how == "divide":
        # (denominator, its power of z, whether it has a factor in z prime to z that
        # no entry shares and whose z^0 row is nonzero at eps = 0)
        den, m, prime = draw(st.sampled_from(((zp(1), 1, False), (zp(2), 2, False),
                                              (zp(1) * (Poly.const(V, 1) - zp(1) * 2), 1, True),
                                              (Poly.const(V, 1) + zp(1) * 3, 0, True),
                                              (Poly.variable(V, "eps") + zp(1), 0, False),
                                              (zp(1) * (Poly.variable(V, "eps") + 1), 1, False))))
        refused = not entries[i].is_zero() and (_z_valuation(entries[i].num) < m or prime)
        entries[i] = entries[i] / RatFunc(den)
    elif how == "pole":
        m = draw(st.integers(1, 3))
        entries[i] = entries[i] + RatFunc(Poly.from_terms(V, {(k, j % m): x}), zp(m))
    elif how == "deep":
        v = r.target.p + 2
        entries[-1] = entries[-1] + RatFunc(Poly.from_terms(V, {(K + 1, 0): 1}), zp(v))
        top = verify_depth(result(), N) - v
        entries[1] = entries[1] + RatFunc(Poly.from_terms(V, {(min(k, K), top): x}))
    return result(), N, K, refused


# golden stored-pole-depth.jsonl: R_0 + z^27 and a tail eps^5 / z^4, checked at the
# (N, K) = (30, 4) that `hyperred verify` uses for it, and refused for the tail's pole
_POLE_DEPTH = (cli._decode_record(json.loads(
    (Path(__file__).parent / "golden" / "stored-pole-depth.jsonl").read_text())), 30, 4, True)

# the reduce-generic result with R_0 over 1 + 3z: no pole at z = 0, but not a polynomial
_R = _verify_result(0)
_NOT_POLYNOMIAL = (ReductionResult(
    _R.target, _R.basis, _R.s_poly,
    (_R.r_polys[0] / RatFunc(Poly.const(V, 1) + Poly.variable(V, "z") * 3),) + _R.r_polys[1:],
    _R.algebraic_tail, _R.affine), 12, 2, True)


@settings(max_examples=150, deadline=None)
@given(_perturbed_checks())
@example(_POLE_DEPTH)
@example(_NOT_POLYNOMIAL)
def test_one_residual_check_matches_the_series_products(case):
    """verify_reduction against the Fraction-row reference: same verdict, cell
    or exception, and the refusal (UnsupportedClass) exactly where an entry
    has a pole at z = 0 or another denominator in z."""
    *case, refused = case
    got = _outcome_of_check(verify_reduction, *case)
    assert got == _outcome_of_check(reference_verify, *case)
    assert (got[0] is UnsupportedClass) == refused, got
    if refused:
        assert got[1].startswith("piece (")
        assert got[1].endswith((") has a pole at z = 0", ") is not a polynomial in z"))


def test_verify_refuses_a_pole_in_any_piece():
    """1/z added to S, to each R_j or to the tail is refused, naming the piece."""
    r = _verify_result(4)
    assert r.affine
    entries = [r.s_poly, *r.r_polys, r.algebraic_tail]
    for i in range(len(entries)):
        edited = list(entries)
        edited[i] = edited[i] + RatFunc(Poly.const(V, 1), Poly.variable(V, "z"))
        bad = ReductionResult(r.target, r.basis, edited[0], tuple(edited[1:-1]), edited[-1],
                              r.affine)
        with pytest.raises(UnsupportedClass,
                           match=rf"^piece {re.escape(str(edited[i]))} has a pole at z = 0$"):
            verify_reduction(bad, 12, 2)


def test_verify_refuses_a_zero_s():
    """S = 0 says nothing about F(target), whatever the R_j and the tail hold:
    refused after the pole refusals, naming S.  The result itself passes, and
    so does every piece scaled by 2, a true identity that reduce never writes."""
    r = _verify_result(4)
    zero = RatFunc.const(V, 0)
    pole = RatFunc(Poly.const(V, 1), Poly.variable(V, "z"))
    for rs, tail in ((r.r_polys, r.algebraic_tail), ((zero,) * len(r.r_polys), zero)):
        bad = ReductionResult(r.target, r.basis, zero, rs, tail, r.affine)
        with pytest.raises(VerificationFailure, match=r"^S is zero"):
            verify_reduction(bad, 12, 2)
        with pytest.raises(UnsupportedClass):
            verify_reduction(ReductionResult(r.target, r.basis, zero, rs, pole, r.affine), 12, 2)
    doubled = ReductionResult(r.target, r.basis, r.s_poly * 2, tuple(x * 2 for x in r.r_polys),
                              r.algebraic_tail * 2, r.affine)
    assert verify_reduction(r, 12, 2) == verify_reduction(doubled, 12, 2) == (True, None)


def _valid_series_params(fn):
    return all(not (b.const.denominator == 1 and b.const <= 0) for b in fn.lower)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_reduction_verifies_randomized(seed):
    rng = random.Random(seed)
    p = rng.choice((1, 2))
    f = _rand_fn(rng, p)
    shifts_up = [rng.randint(-1, 1) for _ in range(p + 1)]
    shifts_lo = [rng.randint(-1, 1) for _ in range(p)]
    tgt = f
    for i, m in enumerate(shifts_up):
        tgt = tgt.shifted("upper", i, m) if m else tgt
    for l, m in enumerate(shifts_lo):
        tgt = tgt.shifted("lower", l, m) if m else tgt
    if not _valid_series_params(tgt):
        return
    try:
        r = reduce_to_basis(tgt, f)
    except SingularStep:
        return
    # the one refusal of a z-pole relies on this: every piece is a polynomial
    assert all(p.is_polynomial() for p in (r.s_poly, *r.r_polys, r.algebraic_tail))
    ok, mism = verify_reduction(r, 20, 1)
    assert ok, (f, mism)


def test_reduce_4f3_single_shift():
    rng = random.Random(23)
    f = _rand_fn(rng, 3)
    tgt = f.shifted("upper", 2, 1).shifted("lower", 0, -1)
    r = reduce_to_basis(tgt, f)
    assert len(r.r_polys) == 4
    ok, mism = verify_reduction(r, 18, 1)
    assert ok, mism


def test_4f3_frontier_row_is_pinned_byte_for_byte():
    """ROADMAP's 4F3 n=4 row: every upper +4, the lowers +4, -4, +4.

    Its coefficients carry products of the parameters' denominators far
    past the golden corpus's small jobs.  The digest of str(S), the
    str(R_j) and str(tail) was taken with Fraction-leaf polynomials and
    the row cleared only at the end of the fold.
    """
    import hashlib
    from hyperred.grammar import parse_hyper
    basis = parse_hyper(
        "4F3[2/5+eps, 1/3-eps, 1/7+3*eps, 2/9+eps; 3/2+2*eps, 5/4-eps, 7/3+eps; z]")
    target = basis
    for i in range(4):
        target = target.shifted("upper", i, 4)
    for l, m in enumerate((4, -4, 4)):
        target = target.shifted("lower", l, m)
    r = reduce_to_basis(target, basis)
    text = "\n".join([str(r.s_poly)] + [str(x) for x in r.r_polys] + [str(r.algebraic_tail)])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3f082df971736b955da4483e3123d7c672c07c697ca589d1c55fdfeef4936439"


def test_symbolic_n_reduction_c1_rho_shift():
    """Raise rho on the first C1 term symbolically in n, then bind and verify."""
    n2 = LinearForm.n(F(1, 2))
    sg = LinearForm.constant(2) - n2      # dressed sigma, q=1
    def term0(rho):
        return SymHyperFn([LinearForm.constant(rho) + sg + sg - n2, sg, sg],
                          [n2, LinearForm.constant(1) + sg + sg - n2],
                          F(-1), "y")
    r = reduce_to_basis(term0(2), term0(1))
    assert not r.affine
    # S and R carry the symbolic dimension n
    assert "n" in r.s_poly.vars
    # bind at a generic dimension (n = 4 - 2 eps makes these lowers degenerate)
    ok, mism = verify_reduction(r.bind(n_value=EpsLin(F(7, 3), -2)), 25, 2)
    assert ok, mism


def test_bind_matches_poly_object_horner():
    """ReductionResult.bind against Horner's rule over Poly objects
    (``poly_reference.poly_object_subst``) on symbolic-n results of n-degree
    >= 2, the @c3 row, the affine row and a result whose R_0 has a
    denominator in n, at n = c - 2 eps with q = 1 and q > 1 and at a
    constant n: the same canonical num and den.  Binding at another n gives
    another result, and a denominator that vanishes at n is refused."""
    parts = lambda r: (r.s_poly,) + r.r_polys + (r.algebraic_tail,)
    n_degree = lambda r: max(len(c) for p in (r.num, r.den) for c in p.rep) - 1
    c3, affine = reduce_to_basis(*_c3_term_row()), reduce_to_basis(*_affine_n_row())
    W = ("n", "y")
    n, y = Poly.variable(W, "n"), Poly.variable(W, "y")
    R0 = c3.r_polys[0] / RatFunc(n * n * y - n * 3 + y * F(1, 2), n * y + F(2, 3))
    mixed = ReductionResult(c3.target, c3.basis, c3.s_poly, (R0,) + c3.r_polys[1:],
                            c3.algebraic_tail, c3.affine)
    assert any(len(c) > 1 for c in R0.den.rep)   # a denominator in n
    for r in (c3, affine, mixed):
        assert max(map(n_degree, parts(r))) >= 2
        V = ("eps", r.target.var)
        bound = {}
        for n_value in (EpsLin(5, -2), EpsLin(F(37, 7), -2), EpsLin(F(9, 2))):
            b = bound[n_value] = r.bind(n_value)
            image = {"n": Poly.const(V, n_value.const) + Poly.variable(V, "eps").scale(n_value.eps)}
            for got, p in zip(parts(b), parts(r)):
                want = RatFunc(poly_object_subst(p.num, V, image), poly_object_subst(p.den, V, image))
                assert (got.num, got.den) == (want.num, want.den)
            assert (b.target, b.basis) == (r.target.bind(n_value=n_value),
                                           r.basis.bind(n_value=n_value))
        # the negative control: each n gives other pieces
        assert len({parts(b) for b in bound.values()}) == len(bound)
    # a denominator that vanishes at the bound n is refused
    zero = ReductionResult(c3.target, c3.basis, c3.s_poly, (R0 / RatFunc(n - 5),) + c3.r_polys[1:],
                           c3.algebraic_tail, c3.affine)
    with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
        zero.bind(EpsLin(5))
