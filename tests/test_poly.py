"""Ring axioms and normal forms for the polynomial / fraction tower."""

import random
import re
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperred import poly as poly_mod, ratfunc as ratfunc_mod
from hyperred.errors import PoleAtEpsZero, UnsupportedClass
from hyperred.poly import Poly
from hyperred.ratfunc import RatFunc
from hyperred.series import BiSeries
import poly_reference as ref
from poly_reference import euclid_gcd
from series_reference import to_biseries_laurent

V = ("eps", "z")


def zvar():
    return Poly.variable(V, "z")


def evar():
    return Poly.variable(V, "eps")


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, max_size=4))
    return Poly.from_terms(V, terms)


def test_basic_arithmetic():
    z, e = zvar(), evar()
    p = (z + e) * (z - e)
    assert p == z * z - e * e
    assert (z + 1) * (z + 2) * (z + 3) == Poly.from_terms(
        V, {(0, 3): 1, (0, 2): 6, (0, 1): 11, (0, 0): 6})


def test_zero_and_const():
    assert Poly.zero(V).is_zero()
    assert Poly.const(V, 0).is_zero()
    assert Poly.const(V, F(3, 2)).const_value() == F(3, 2)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_gcd_divides(a, b):
    g = a.gcd(b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert (a.exact_div(g) * g) == a
    assert (b.exact_div(g) * g) == b


def test_gcd_known():
    z, e = zvar(), evar()
    a = (z + 1) * (z + 2) * e
    b = (z + 1) * (z * z + 2)
    assert a.gcd(b) == z + 1


def test_exact_div_raises_on_inexact():
    z = zvar()
    with pytest.raises(ValueError):
        (z + 1).exact_div(z + 2)


def test_subst_and_eval():
    W = ("n", "z")
    n, z = Poly.variable(W, "n"), Poly.variable(W, "z")
    p = n * n + z
    img = ref.poly_object_subst(p, V, {"n": Poly.const(V, 4) - Poly.variable(V, "eps") * 2})
    at = lambda q, **values: ref.poly_object_subst(
        q, (), {v: Poly.const((), values[v]) for v in q.vars}).const_value()
    assert at(img, eps=F(1, 2), z=F(3)) == F(9) + 3
    assert at(p, n=F(3), z=F(1, 2)) == F(19, 2)


def test_ratfunc_normalization():
    z = zvar()
    f = RatFunc((z + 1) * (z + 2), (z + 1) * z)
    assert f == RatFunc(z + 2, z)
    assert (f - f).is_zero()
    assert f / f == 1
    g = RatFunc(z, z * 2)
    assert g == RatFunc(Poly.const(V, F(1, 2)))


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_ratfunc_field_ops(a, b):
    if b.is_zero():
        return
    f = RatFunc(a, b)
    assert f * RatFunc(b) == RatFunc(a)
    if not a.is_zero():
        assert f * (1 / f) == 1


@settings(max_examples=30, deadline=None)
@given(polys(), polys(), polys())
def test_ratfunc_ring_axioms(a, b, c):
    if b.is_zero() or c.is_zero():
        return
    x = RatFunc(a, b)
    y = RatFunc(b, c)
    z = RatFunc(a + c, b)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    if not a.is_zero():
        assert (x / x) == 1


# ---------------------------------------------------------------------------
# gcd: the primitive PRS at every depth


RINGS = [("z",), ("eps", "z"), ("n", "z"), ("n", "eps", "z")]


@st.composite
def ring_polys(draw, vars, max_deg=2):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_deg)] * len(vars)), rationals,
        min_size=1, max_size=3))
    return Poly.from_terms(vars, terms)


def _monic(p):
    return p.scale(1 / p.lead_fraction())


@pytest.mark.parametrize("vars", RINGS)
def test_gcd_of_common_multiples(vars):
    @settings(max_examples=25, deadline=None)
    @given(ring_polys(vars), ring_polys(vars), ring_polys(vars, max_deg=1))
    def check(a, b, c):
        if a.is_zero() or b.is_zero() or c.is_zero():
            return
        g = a.gcd(b)
        assert g.lead_fraction() == 1
        assert a.exact_div(g).gcd(b.exact_div(g)) == 1
        assert (a * c).gcd(b * c) == _monic(g * c)
    check()


U = ("z",)


@st.composite
def uni_polys(draw, max_deg=4):
    coeffs = draw(st.lists(rationals, min_size=1, max_size=max_deg + 1))
    return Poly.from_terms(U, {(i,): q for i, q in enumerate(coeffs)})


@settings(max_examples=80, deadline=None)
@given(uni_polys(), uni_polys(), uni_polys(max_deg=2))
def test_depth_one_gcd_matches_monic_euclid(a, b, c):
    # c makes shared factors common; zero inputs are allowed on either side
    for x, y in ((a, b), (a * c, b * c), (c, a * c)):
        assert x.gcd(y) == euclid_gcd(x, y)


# Cases that an image-based coprimality certificate (evaluation at small
# integers, reduction mod a large prime) decides wrongly or cannot decide;
# the PRS must still return the exact gcd on each.


def test_certificate_fires_on_coprime_pairs():
    z, e = zvar(), evar()
    assert (z + e).gcd(z + e + 1) == 1
    assert (z * z - e).gcd(e * e + z) == 1
    assert (z + 1).gcd(Poly.const(V, 3)) == 1        # a constant shares nothing


def test_certificate_silent_on_eps_only_factor():
    z, e = zvar(), evar()
    a, b = (e - 1) * (z + 1), (e - 1) * (z + 2)
    assert a.gcd(b) == e - 1


def test_certificate_silent_on_accidental_image_factor():
    # at eps = 2 both images are z - 2, yet z - eps and z - 2 are coprime
    z, e = zvar(), evar()
    assert (z - e).gcd(z - 2) == 1


def test_certificate_falls_back_when_every_probe_drops_a_degree():
    # the leading coefficient vanishes at eps = 2, 3, 5 and 7
    z, e = zvar(), evar()
    lc = (e - 2) * (e - 3) * (e - 5) * (e - 7)
    a, b = lc * z + 1, z + e
    assert a.gcd(b) == 1
    # a shared factor behind the same vanishing leading coefficient is kept
    c = z * z + e
    assert (a * c).gcd(b * c) == c


def test_certificate_on_primitive_parts_settles_an_eps_content():
    # coprime primitive parts: the gcd is the gcd of the eps-contents
    z, e = zvar(), evar()
    a, b = (e - 1) * (e + 3) * (z + 1), (e - 1) ** 2 * (z * z + e)
    assert a.gcd(b) == e - 1


eps_only = st.builds(
    lambda terms: Poly.from_terms(V, {(i, 0): q for i, q in terms.items()}),
    st.dictionaries(st.integers(0, 2), rationals.filter(bool), min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(ring_polys(V), ring_polys(V), eps_only, eps_only)
def test_gcd_with_eps_contents_matches_prs(r, s, c, c2):
    # z^3 + r is monic in z, so primitive: the eps-contents are c and c2
    a, b = zvar() ** 3 + r, zvar() ** 3 + s
    assert (c * a).gcd(c2 * b) == _monic(c.gcd(c2) * a.gcd(b))


def test_primitive_parts_sharing_a_z_factor_still_run_the_prs(monkeypatch):
    z, e = zvar(), evar()
    shared = z + e
    a, b = (e - 1) * (e + 2) * shared * (z + 1), (e - 1) * shared * (z + 2)
    prem = poly_mod._prem
    calls = []
    monkeypatch.setattr(poly_mod, "_prem", lambda *args: calls.append(1) or prem(*args))
    assert a.gcd(b) == (e - 1) * shared
    assert calls


P = (1 << 61) - 1       # the Mersenne prime 2^61 - 1


@pytest.mark.parametrize("vars", [("z",), ("eps", "z")])
def test_certificate_mod_p_unlucky_prime(vars):
    z = Poly.variable(vars, "z")
    assert z.gcd(z + P) == 1        # the same image mod p


@pytest.mark.parametrize("vars", [("z",), ("eps", "z")])
def test_certificate_mod_p_refuses_denominators_divisible_by_p(vars):
    # reading 1/p as 0 mod p would leave the coprime images z^2 + 1, z^2 + 2
    z = Poly.variable(vars, "z")
    g = z + F(1, P)
    assert (g * (z + P)).gcd(g * (z + 2 * P)) == g


@pytest.mark.parametrize("vars", [("z",), ("eps", "z")])
def test_certificate_mod_p_refuses_leading_coefficients_divisible_by_p(vars):
    # a = p z^2 + (2p+1) z + 2: mod p the shared factor p z + 1 becomes a unit
    z = Poly.variable(vars, "z")
    g = z * P + 1
    assert (g * (z + 2)).gcd(g * (z + 3)) == _monic(g)


def test_depth_one_gcd_finds_a_shared_linear_factor():
    z = Poly.variable(U, "z")
    a, b = z * z + 1, (z + 1) * (z - F(1, 3))
    assert (a * (z + 5)).gcd(b * (z + 5)) == z + 5
    assert a.gcd(b) == 1


# ---------------------------------------------------------------------------
# RatFunc arithmetic: values at points, and the normal form of each result


PRODUCT_RINGS = [("z",), ("eps", "z"), ("n", "eps", "z")]


@st.composite
def ratfuncs(draw, vars):
    kind = draw(st.sampled_from(["const", "zero", "poly", "fraction"]))
    if kind == "zero":
        return RatFunc.const(vars, 0)
    if kind == "const":
        return RatFunc.const(vars, draw(rationals.filter(bool)))
    num = draw(ring_polys(vars))
    den = draw(ring_polys(vars)) if kind == "fraction" else Poly.const(vars, 1)
    return RatFunc(num, den if not den.is_zero() else Poly.const(vars, 1))


def _assert_normalized(r):
    assert r.den.lead_fraction() == 1
    assert r.num.gcd(r.den) == 1


def _value_at(p, point):
    """p at a point, one value per variable, summed off Poly.terms()."""
    total = F(0)
    for exps, q in p.terms().items():
        for x, e in zip(point, exps):
            q *= x ** e
        total += q
    return total


@pytest.mark.parametrize("vars", PRODUCT_RINGS)
def test_ratfunc_arithmetic_matches_values_at_points(vars):
    """(a op b)(x) == a(x) op b(x) for +, -, * and / at seeded rational
    points that zero no denominator, and the results are normalized."""
    @settings(max_examples=40, deadline=None)
    @given(ratfuncs(vars), ratfuncs(vars), st.integers(0, 2**32))
    def check(a, b, seed):
        rng = random.Random(seed)
        ops = [(a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y),
               (b - a, lambda x, y: y - x), (a * b, lambda x, y: x * y),
               (b * a, lambda x, y: x * y)]
        if not b.is_zero():
            ops.append((a / b, lambda x, y: x / y))
        # the gcd that checks a sum over (n, eps, z) can run for tens of seconds
        for r, _ in ops[3 if len(vars) == 3 else 0:]:
            _assert_normalized(r)
        checked = 0
        while checked < 3:
            point = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in vars]
            dens = [_value_at(r.den, point) for r in (a, b, *(r for r, _ in ops))]
            if 0 in dens or (not b.is_zero() and _value_at(b.num, point) == 0):
                continue
            x, y = (_value_at(r.num, point) / d for r, d in zip((a, b), dens))
            for (r, op), d in zip(ops, dens[2:]):
                assert _value_at(r.num, point) / d == op(x, y)
            checked += 1
    check()


@pytest.mark.parametrize("vars", PRODUCT_RINGS)
def test_ratfunc_constant_and_zero_factors(vars):
    z = Poly.variable(vars, "z")
    r = RatFunc(z * z - 1, z * 3 + 2)
    q = F(-5, 3)
    for p in (r * q, q * r, r * RatFunc.const(vars, q), RatFunc.const(vars, q) * r):
        assert (p.num, p.den) == (r.num.scale(q), r.den)
    assert (r * 0).is_zero() and (0 * r).is_zero()
    assert (r * 0).den == Poly.const(vars, 1)


def test_ratfunc_product_still_cancels_shared_factors():
    z, e = zvar(), evar()
    a = RatFunc(z + 1, z + e)
    b = RatFunc((z + e) * (z - 2), (z + 3) * (z + 1))
    p = a * b
    assert (p.num, p.den) == (z - 2, z + 3)
    _assert_normalized(p)


@st.composite
def linear_fractions(draw, vars):
    """(p, factors, K): roots from a few values, so they repeat, and p a
    polynomial times each factor up to one more time than its multiplicity."""
    roots = st.tuples(st.sampled_from(vars), st.sampled_from([0, 1, -2, F(1, 3), F(-5, 2)]))
    factors = draw(st.dictionaries(roots, st.integers(1, 3), max_size=3))
    p = draw(ring_polys(vars, max_deg=1))
    for (x, r), m in factors.items():
        p = p * (Poly.variable(vars, x) - r) ** draw(st.integers(0, m + 1))
    return p, factors, draw(rationals.filter(bool))


def _check_over_is_the_gcd_path(vars):
    z = Poly.variable(vars, "z")

    @settings(max_examples=60, deadline=None)
    @given(linear_fractions(vars))
    @example(((z - 1) ** 2 * (z + 2), {("z", 1): 2}, F(3)))
    def check(case):
        p, factors, K = case
        den = Poly.const(vars, K)
        for (x, r), m in factors.items():
            den = den * (Poly.variable(vars, x) - r) ** m
        got, want = RatFunc.over(p, factors, K), RatFunc(p, den)
        assert (got.num, got.den) == (want.num, want.den)
    check()


@pytest.mark.parametrize("vars", [("eps", "z"), ("n", "z")])
def test_over_matches_the_gcd_path(vars):
    """RatFunc.over(p, factors, K) is RatFunc(p, K prod (x - r)^m) rep for rep."""
    _check_over_is_the_gcd_path(vars)


def test_over_property_fails_a_clearing_that_divides_each_factor_once(monkeypatch):
    """Negative control: with each factor divided out at most once, a root
    of p of order 2 leaves a common factor, and the property sees it."""
    def cancel_once(reps, vars, factors, roots=None):
        left = {}
        for (x, r), m in factors.items():
            qs = [poly_mod._div_root(a, vars.index(x), r.numerator, r.denominator, len(vars))
                  for a in reps]
            if None not in qs:
                reps, m = qs, m - 1
            if m:
                left[(x, r)] = m
        return list(reps), left

    monkeypatch.setattr(ratfunc_mod, "_cancel", cancel_once)
    with pytest.raises(AssertionError):
        _check_over_is_the_gcd_path(("eps", "z"))


def test_const_queries_walk_the_rep():
    for vars in PRODUCT_RINGS:
        assert Poly.const(vars, F(7, 2)).const_value() == F(7, 2)
        assert Poly.zero(vars).is_const() and Poly.zero(vars).const_value() == 0
        z = Poly.variable(vars, "z")
        assert not z.is_const() and not (z + 1).is_const()
        with pytest.raises(ValueError):
            (z + 1).const_value()
        assert not Poly.variable(vars, vars[0]).is_const()
    assert Poly.const((), F(3)).is_const() and Poly.const((), F(3)).const_value() == 3


def _series_by_terms(p, N, K):
    """Reference: p as a BiSeries to (N, K), read off Poly.terms()."""
    rows = [[F(0)] * (K + 1) for _ in range(N + 1)]
    for exps, q in p.terms().items():
        k, j = exps if len(exps) == 2 else (0, exps[0])
        if j <= N and k <= K:
            rows[j][k] = q
    return BiSeries(tuple(tuple(r) for r in rows))


def _to_biseries_by_inversion(r, N, K):
    """Reference: numerator times the inverted series of the denominator 1."""
    return _series_by_terms(r.num, N, K) * _series_by_terms(Poly.const(r.vars, 1), N, K).invert()


@settings(max_examples=40, deadline=None)
@given(polys(), st.integers(0, 3), st.sampled_from([(0, 0), (3, 1), (8, 2), (30, 4)]))
def test_polynomial_to_biseries_equals_inversion_path(p, v, NK):
    N, K = NK
    r = RatFunc(p * zvar() ** v)
    assert r.is_polynomial()
    s = r.to_biseries(N, K)
    assert (s.z_order, s.eps_order) == (N, K)
    if p.is_zero():
        assert s.is_zero()
    else:
        assert s.rows == _to_biseries_by_inversion(r, N, K).rows


def test_polynomial_to_biseries_truncates_past_n():
    # z^2 + 3 eps z^5 at N = 4: only the z^2 row survives
    r = RatFunc(zvar() ** 2 + evar() * zvar() ** 5 * 3)
    s = r.to_biseries(4, 1)
    assert s.rows == tuple((F(int(j == 2)), F(0)) for j in range(5))


@st.composite
def eps_heavy_polys(draw, vars):
    """Nonzero polys whose eps degrees reach past the truncation orders tested."""
    exps = st.tuples(st.integers(0, 5), st.integers(0, 3)) if len(vars) == 2 else \
        st.tuples(st.integers(0, 3))
    terms = draw(st.dictionaries(exps, rationals.filter(bool), min_size=1, max_size=4))
    return Poly.from_terms(vars, terms)


@pytest.mark.parametrize("vars", [("z",), ("eps", "z")])
def test_to_biseries_times_denominator_is_numerator(vars):
    @settings(max_examples=60, deadline=None)
    @given(eps_heavy_polys(vars), eps_heavy_polys(vars), st.integers(0, 6), st.integers(0, 2))
    def check(num, den, N, K):
        r = RatFunc(num, den)
        if min(e[-1] for e in r.den.terms()) > 0:
            with pytest.raises(UnsupportedClass,
                               match=rf"^piece {re.escape(str(r))} has a pole at z = 0$"):
                r.to_biseries(N, K)
            return
        if r.den.terms().get((0, 0)[-len(vars):], 0) == 0:
            # the z^0 row of the denominator vanishes at eps = 0
            with pytest.raises(PoleAtEpsZero, match=r"^denominator .* vanishes at eps=0$"):
                r.to_biseries(N, K)
            return
        s = r.to_biseries(N, K)
        assert s * _series_by_terms(r.den, N, K) == _series_by_terms(r.num, N, K)
        assert (s, 0) == to_biseries_laurent(r, N, K)
    check()


@pytest.mark.parametrize("power, K", [(5, 2), (5, 4), (2, 2)])
def test_to_biseries_denominator_vanishing_above_k_is_a_pole(power, K):
    # (3z + 1)/(z + eps^p) has an eps pole at every z order, whether or not
    # eps^p survives truncation at eps^K
    z, e = zvar(), evar()
    with pytest.raises(PoleAtEpsZero, match=r"^denominator .* vanishes at eps=0$"):
        RatFunc(z * 3 + 1, z + e ** power).to_biseries(4, K)


# ---------------------------------------------------------------------------
# the integer rep over one denominator against the Fraction-leaf reference

mixed_rationals = st.builds(F, st.integers(-30, 30), st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 35)))


@st.composite
def int_polys(draw, vars, max_deg=2, max_size=4):
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, max_deg)] * len(vars)),
                                 mixed_rationals, max_size=max_size))
    return Poly.from_terms(vars, terms)


def _leaves(rep, d):
    return [rep] if d == 0 else [x for c in rep for x in _leaves(c, d - 1)]


def _assert_canonical(p):
    leaves = _leaves(p.rep, p.d)
    assert all(type(x) is int for x in leaves)
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *leaves) == 1
    assert not p.is_zero() or p.den == 1
    assert p.rep == ref.trim(p.rep, p.d)


def _outcome(fn):
    try:
        return fn()
    except (ValueError, ZeroDivisionError) as e:
        return type(e)


@pytest.mark.parametrize("vars", [("z",), ("eps", "z"), ("n", "eps", "z")])
def test_integer_rep_matches_fraction_leaf_reference(vars):
    d = len(vars)

    @settings(max_examples=40, deadline=None)
    @given(int_polys(vars), int_polys(vars), mixed_rationals, st.integers(0, 3),
           st.lists(int_polys(V, max_deg=2, max_size=3), min_size=d, max_size=d))
    def check(a, b, q, n, images):
        A, B = ref.frac_rep(a), ref.frac_rep(b)
        got = [a + b, a - b, a * b, a ** n, a.scale(q), a.derivative_top(),
               Poly.from_terms(vars, ref.to_terms(A, d)), a.gcd(b),
               ref.poly_object_subst(a, V, dict(zip(vars, images)))]
        expected = [ref.add(A, B, d), ref.sub(A, B, d), ref.mul(A, B, d), ref.power(A, n, d),
                    ref.scale(A, q, d), ref.derivative(A, d), A, ref.gcd(A, B, d),
                    ref.subst(A, d, [ref.frac_rep(x) for x in images], 2)]
        # exact_div where the divisor may not divide
        got += [_outcome(lambda: a.exact_div(b)), _outcome(lambda: (a * b).exact_div(b))]
        expected += [_outcome(lambda: ref.exact_div(A, B, d)),
                     _outcome(lambda: ref.exact_div(ref.frac_rep(a * b), B, d))]
        for p, e in zip(got, expected):
            if isinstance(p, Poly):
                _assert_canonical(p)
                assert ref.frac_rep(p) == e
            else:
                assert p == e
        assert a.terms() == ref.to_terms(A, d)
        # equal values along different routes: the same rep, den and hash
        routes = [((a + b) - b, a), (b * a, a * b), (Poly.from_terms(vars, a.terms()), a),
                  (-(-a), a), (a * a, a ** 2)]
        if q:
            routes.append((a.scale(q).scale(1 / q), a))
        if not b.is_zero():
            routes.append(((a * b).exact_div(b), a))
        for x, y in routes:
            assert (x.rep, x.den, hash(x)) == (y.rep, y.den, hash(y))
    check()


@pytest.mark.parametrize("vars", [("z",), ("n", "z"), ("eps", "z"), ("n", "eps", "z")])
def test_subst_matches_poly_object_horner(vars):
    """Poly.at_line, the first variable at (p0 + p1 t) / q, against Horner's
    rule over Poly objects: the same canonical rep and den, and a ring map."""
    W = ("t",) + vars[1:]

    @settings(max_examples=30, deadline=None)
    @given(int_polys(vars), int_polys(vars), st.integers(-30, 30), st.integers(-30, 30),
           st.integers(1, 12))
    @example(Poly.variable(vars, vars[0]) ** 2 - 4, Poly.const(vars, 1), 2, 0, 1)
    def check(a, b, p0, p1, q):
        got = a.at_line(p0, p1, q, "t")
        line = (Poly.const(W, p0) + Poly.variable(W, "t").scale(p1)).scale(F(1, q))
        want = ref.poly_object_subst(a, W, {vars[0]: line})
        _assert_canonical(got)
        assert (got.vars, got.rep, got.den) == (want.vars, want.rep, want.den)
        assert (a * b).at_line(p0, p1, q, "t") == got * b.at_line(p0, p1, q, "t")
    check()


# ---------------------------------------------------------------------------
# the flat depth-1 and fused depth-2 kernels against the recursive reference

small_ints = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))


def int_reps(d):
    """Trimmed integer reps of depth d, zero and inner zero rows included."""
    if d == 1:
        return st.lists(small_ints, max_size=6).map(lambda c: ref.trim(tuple(c), 1))
    return st.lists(int_reps(d - 1), max_size=4).map(lambda c: ref.trim(tuple(c), d))


def _ints(rep, d):
    """A reference result, whose integers may be Fractions of denominator 1, as ints."""
    if d == 0:
        assert rep.denominator == 1
        return int(rep)
    return tuple(_ints(c, d - 1) for c in rep)


def _root_rep(d, i, p, q):
    """The rep of q x_i - p at depth 1 or 2."""
    lin = (-p, q)
    if d == 1:
        return lin
    return (lin,) if i == 0 else ((-p,) if p else (), (q,))


def _assert_int_rep(rep, d):
    assert all(type(x) is int for x in _leaves(rep, d))
    assert rep == ref.trim(rep, d) and type(rep) is tuple


# (a, b, n) the properties must meet: at depth 1, sums that cancel the top
# and products of negative coefficients; at depth 2, 1 + z times 1 - z
# cancels a whole z row, (eps + z)(eps - z) another, and
# (1 + eps + z)(1 - eps + z) the top eps power of one
KERNEL_EXAMPLES = {
    1: [((1, 2, 3), (0, 0, -3), 2), ((-1, 0, 4), (), -3), ((), (), 1)],
    2: [(((1,), (1,)), ((1,), (-1,)), 2), (((0, 1), (1,)), ((0, 1), (-1,)), 3),
        (((1, 1), (1,)), ((1, -1), (1,)), -1), (((), (5,)), ((2,), (), (-1, 1)), 7)],
}


@pytest.mark.parametrize("d", [1, 2])
def test_flat_kernels_match_the_recursive_reference(d):
    @settings(max_examples=150, deadline=None)
    @given(int_reps(d), int_reps(d), st.integers(-40, 40).filter(bool))
    def check(a, b, n):
        got = [poly_mod._add(a, b, d), poly_mod._neg(a, d), poly_mod._mul(a, b, d),
               poly_mod._scale(a, n, d), poly_mod._div_int(poly_mod._scale(a, n, d), n, d)]
        want = [ref.add(a, b, d), ref.neg(a, d), ref.mul(a, b, d), ref.scale(a, n, d), a]
        for x, y in zip(got, want):
            _assert_int_rep(x, d)
            assert x == y
        assert poly_mod._add(a, poly_mod._neg(a, d), d) == ()
        # a list with trailing zeros at every depth trims to the rep
        assert poly_mod._trim(list(a) + [poly_mod._zero(d - 1)] * 3, d) == a
        # _div_int is None exactly when some integer is not a multiple of n
        exact = all(x % n == 0 for x in _leaves(a, d))
        got = poly_mod._div_int(a, n, d)
        assert (got is not None) == exact
        if exact:
            assert got == _ints(ref.scale(a, F(1, n), d), d)
    for case in KERNEL_EXAMPLES[d]:
        check = example(*case)(check)
    check()


@pytest.mark.parametrize("d, i", [(1, 0), (2, 0), (2, 1)])
def test_flat_div_root_matches_the_recursive_reference(d, i):
    @settings(max_examples=150, deadline=None)
    @given(int_reps(d), st.integers(-7, 7), st.integers(1, 6), st.integers(-5, 5))
    @example((), 3, 2, 0)
    @example((1,) if d == 1 else ((1,),), 1, 1, 1)
    def check(a, p, q, c):
        g = gcd(p, q)
        p, q = p // g, q // g
        f = _root_rep(d, i, p, q)
        # exact: a times the root's primitive linear factor divides back to a
        prod = _ints(ref.mul(a, f, d), d)
        got = poly_mod._div_root(prod, i, p, q, d)
        assert got == a
        _assert_int_rep(got, d)
        # a + c, c != 0 a constant, is divisible only when its value at the root is 0
        b = _ints(ref.add(prod, ref.const(d, c), d), d) if c else a
        want = ref.div_root(b, i, F(p, q), d)
        got = poly_mod._div_root(b, i, p, q, d)
        if want is None:
            assert got is None
        else:
            assert got == _ints(ref.scale(want, F(1, q), d), d)
            _assert_int_rep(got, d)
    check()


def test_flat_kernels_inexact_cases_return_none():
    assert poly_mod._div_int((2, 4, 5), 2, 1) is None
    assert poly_mod._div_int(((2,), (), (4, -6, 3)), 2, 2) is None
    assert poly_mod._div_int(((2,), (), (4, -6, 8)), 2, 2) == ((1,), (), (2, -3, 4))
    # z^2 + 1 at z = 1, and 2z - 1 divides 2z^2 + z - 1 = (2z - 1)(z + 1) but not 2z^2 + z
    assert poly_mod._div_root((1, 0, 1), 0, 1, 1, 1) is None
    assert poly_mod._div_root((-1, 1, 2), 0, 1, 2, 1) == (1, 1)
    assert poly_mod._div_root((0, 1, 2), 0, 1, 2, 1) is None
    # the same at depth 2, in z (the top variable) and in eps
    assert poly_mod._div_root(((-1,), (1,), (2,)), 1, 1, 2, 2) == ((1,), (1,))
    assert poly_mod._div_root(((), (1,), (2,)), 1, 1, 2, 2) is None
    assert poly_mod._div_root(((-1, 1, 2), (0, 1, 2)), 0, 1, 2, 2) is None
    assert poly_mod._div_root(((-1, 1, 2), (), (-2, 2, 4)), 0, 1, 2, 2) == ((1, 1), (), (2, 2))
    # a step of a q != 1 division that does not divide: 3z - 1 over 2z - 1 ends with
    # remainder 0 once 3 // 2 is taken for 3 / 2; 3 does not divide the top 2 of 2z + 1
    assert poly_mod._div_root((-1, 3), 0, 1, 2, 1) is None
    assert poly_mod._div_root(((-1, 3),), 0, 1, 2, 2) is None
    assert poly_mod._div_root(((-1,), (3,)), 1, 1, 2, 2) is None
    assert poly_mod._div_root(((1,), (2,)), 1, 1, 3, 2) is None


@pytest.mark.parametrize("vars", [("z",), ("eps", "z"), ("n", "eps", "z")])
def test_linear_factors_are_built_on_the_integer_rep(vars):
    """Poly.variable, _add_factor, _factor_product and _monic_product against
    Poly.from_terms, and lines a x + b built from Poly.variable, scale and +."""
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(vars), mixed_rationals, mixed_rationals, st.integers(1, 3),
           st.integers(-30, 30), st.integers(-30, 30))
    def check(x, a, b, m, ia, ib):
        e = tuple(int(v == x) for v in vars)
        assert Poly.variable(vars, x) == Poly.from_terms(vars, {e: 1})
        line = lambda a, b: Poly.variable(vars, x).scale(a) + b
        f = line(a, b)
        assert f == Poly.from_terms(vars, {e: a, (0,) * len(vars): b})
        _assert_canonical(f)
        # on integers: (ia x + ib)^m = k^m prod (q x - p)^m, and prod (x - r)^m monic
        factors = {}
        k = poly_mod._add_factor(factors, x, ia, ib, m)
        if ia == 0:
            assert factors == {} and k == ib ** m
            return
        assert factors == {(x, F(-ib, ia)): m}
        prim = Poly(vars, poly_mod._factor_product(vars, factors))
        assert prim.scale(k) == line(ia, ib) ** m
        monic = poly_mod._monic_product(vars, factors)
        _assert_canonical(monic)
        assert monic == line(1, F(ib, ia)) ** m
    check()
