"""Noncommutative theta-operator algebra and series action."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hyperred.hyper import HyperFn
from hyperred.poly import Poly
from hyperred.ratfunc import RatFunc
from hyperred.scalars import EpsLin
from hyperred.series import series_of_hyper
from hyperred.theta import ThetaOp

V = ("eps", "z")


def rf(c):
    return RatFunc.const(V, c)


def eps_rf(x):
    return RatFunc(Poly.const(V, x.const) + Poly.variable(V, "eps").scale(x.eps))


def zf():
    return RatFunc(Poly.variable(V, "z"))


def test_theta_through_z():
    # theta . z = z . (theta + 1): coefficient list [z, z]
    th = ThetaOp.theta(V)
    mz = ThetaOp([zf()])
    out = th.compose(mz)
    assert out.coeffs == (zf(), zf())


def test_identity_compose():
    ident = ThetaOp.identity(V)
    p = ThetaOp([rf(2), zf(), rf(F(1, 3))])
    assert ident.compose(p) == p
    assert p.compose(ident) == p


@st.composite
def small_ops(draw):
    coeffs = []
    for _ in range(draw(st.integers(1, 3))):
        num = draw(st.sampled_from([0, 1, 2, -1]))
        deg = draw(st.integers(0, 1))
        c = RatFunc(Poly.from_terms(V, {(0, deg): num}) + Poly.const(V, draw(st.integers(-1, 1))))
        coeffs.append(c)
    if all(c.is_zero() for c in coeffs):
        coeffs[-1] = rf(1)
    return ThetaOp(coeffs)


@settings(max_examples=25, deadline=None)
@given(small_ops(), small_ops(), small_ops())
def test_compose_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_theta_z_commutation_powers(n, m):
    # theta^n . z^m = z^m . (theta + m)^n
    th_n = ThetaOp.identity(V)
    for _ in range(n):
        th_n = ThetaOp.theta(V).compose(th_n)
    zm = ThetaOp([RatFunc(Poly.from_terms(V, {(0, m): 1}))])
    lhs = th_n.compose(zm)
    shifted = ThetaOp.identity(V)
    for _ in range(n):
        shifted = ThetaOp([rf(m), rf(1)]).compose(shifted)
    rhs = zm.compose(shifted)
    assert lhs == rhs


def test_apply_theta_geometric():
    # theta applied to sum z^j/j gives the geometric tail sum z^j
    from hyperred.series import BiSeries
    N = 8
    rows = [(F(0),)] + [(F(1, j),) for j in range(1, N + 1)]
    s = BiSeries(tuple(rows))
    out = ThetaOp.theta(V).apply(s)
    assert all(out.get(j, 0) == 1 for j in range(1, N + 1))
    assert out.get(0, 0) == 0


def test_apply_identity():
    f = HyperFn([EpsLin(F(1, 2), 1), EpsLin(0, -1)], [EpsLin(1, 2)])
    s = series_of_hyper(f, 10, 2)
    assert ThetaOp.identity(V).apply(s) == s


def test_ode_lhs_equals_rhs_on_series():
    # z (theta+a)(theta+b) F = theta (theta+c-1) F for F = 2F1(a,b;c;z)
    a, b, c = EpsLin(F(2, 5), 1), EpsLin(F(1, 3), -1), EpsLin(F(3, 2), 2)
    f = HyperFn([a, b], [c])
    s = series_of_hyper(f, 15, 3)
    left_op = ThetaOp([eps_rf(a), rf(1)])
    left_op = ThetaOp([eps_rf(b), rf(1)]).compose(left_op)
    lhs = left_op.left_mul(RatFunc(Poly.variable(V, "z"))).apply(s)
    right_op = ThetaOp.theta(V).compose(ThetaOp([eps_rf(c - 1), rf(1)]))
    rhs = right_op.apply(s)
    assert lhs == rhs


def test_apply_pole_coefficient():
    # a 1/z coefficient is refused, whether or not the series vanishes at z^0
    from hyperred.errors import UnsupportedClass
    from hyperred.series import BiSeries
    op = ThetaOp([RatFunc(Poly.const(V, 1), Poly.variable(V, "z"))])
    for s in (BiSeries(((F(0),), (F(2),), (F(3),))), BiSeries(((F(1),), (F(0),), (F(0),)))):
        with pytest.raises(UnsupportedClass, match=r"^piece \(1\)/\(z\) has a pole at z = 0$"):
            op.apply(s)


@settings(max_examples=20, deadline=None)
@given(small_ops(), small_ops())
def test_product_degree_additive(a, b):
    # degree of a composition is the sum of degrees when leads are nonzero
    if a.is_zero() or b.is_zero():
        return
    prod = a.compose(b)
    if not (a.coeffs[-1] * b.coeffs[-1]).is_zero():
        assert prod.degree == a.degree + b.degree


@settings(max_examples=20, deadline=None)
@given(small_ops())
def test_zero_operator_is_one_zero_coefficient(p):
    """The constructor trims trailing zeros down to one coefficient, so
    p - p, ThetaOp([0, 0]) and ThetaOp.zero are the one zero operator."""
    zero = ThetaOp.zero(V)
    assert zero.coeffs == (rf(0),) and zero.degree == -1 and zero.is_zero()
    for op in (p - p, ThetaOp([rf(0), rf(0)]), p + -p, p.left_mul(rf(0))):
        assert op == zero and op.degree == -1 and str(op) == "0"
    assert ThetaOp([rf(2), rf(0)]) == ThetaOp([rf(2)])


def test_an_operator_needs_a_coefficient():
    with pytest.raises(ValueError):
        ThetaOp([])
