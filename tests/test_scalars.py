"""The one linear form: Linear, EpsLin and LinearForm against a plain-dict model.

A form is modelled as ({symbol: coefficient} without zeros, constant).
Every operation is checked against the model, equal values built along
different routes must be equal and hash equal, and the parser must read
back what the printers write.
"""

import pickle
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hyperred.errors import NotIntegerShift, UnboundSymbols
from hyperred.grammar import parse_hyper, parse_input
from hyperred.hyper import HyperFn, SymHyperFn
from hyperred.mb import MBRepr
from hyperred.reduction import QuotientModule, detect_exceptional, shift_vector
from hyperred.scalars import EpsLin, Linear, LinearForm
from scalars_reference import (reference_bind_fn, reference_detect_exceptional,
                               reference_int_line, reference_subst, reference_to_epslin)

RATS = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6))
NONZERO = RATS.filter(bool)
J_NAMES = ("j1", "j2", "alpha", "sigma")
SYMBOLS = ("eps", "n") + J_NAMES


def _model(coeffs, const):
    return {s: F(c) for s, c in coeffs.items() if c}, F(const)


def _plus(m1, m2, q=1):
    d = dict(m1[0])
    for s, c in m2[0].items():
        d[s] = d.get(s, F(0)) + q * c
    return _model(d, m1[1] + q * m2[1])


def _scale(m, q):
    return _model({s: c * q for s, c in m[0].items()}, m[1] * q)


def _subst(m, values):
    out = _model({s: c for s, c in m[0].items() if s not in values}, m[1])
    for s, c in m[0].items():
        if s in values:
            out = _plus(out, values[s], c)
    return out


def _assert_models(x, m):
    assert x.symbols == tuple(sorted(m[0]))
    assert all(x.coeff(s) == m[0].get(s, 0) for s in SYMBOLS)
    assert x.const == m[1]
    assert x.is_const() == (not m[0])
    assert x.is_integer() == (not m[0] and m[1].denominator == 1)
    assert x.is_zero() == (not m[0] and m[1] == 0)


def _routes(cls, coeffs, const):
    """The same value built four ways; zero coefficients and repeats included."""
    pairs = list(coeffs.items())
    direct = cls.from_terms(pairs, const)
    summed = cls.constant(const)
    for s, c in reversed(pairs):
        summed = summed + cls.from_terms([(s, 1)]).scale(c) + cls.from_terms([(s, 3)]) \
            - cls.from_terms([(s, 3)])
    split = cls.from_terms(pairs + [(s, -c) for s, c in pairs] + pairs, const)
    zeros = cls.from_terms([(s, 0) for s in SYMBOLS] + pairs, const)
    return [direct, summed, split, zeros]


def _coeffs(symbols):
    return st.dictionaries(st.sampled_from(symbols), RATS, max_size=len(symbols))


@settings(max_examples=100, deadline=None)
@given(_coeffs(SYMBOLS), RATS, _coeffs(SYMBOLS), RATS, RATS)
def test_linear_matches_dict_model(c1, k1, c2, k2, q):
    m1, m2 = _model(c1, k1), _model(c2, k2)
    x, y = Linear(c1, k1), Linear(c2, k2)
    _assert_models(x, m1)
    _assert_models(x + y, _plus(m1, m2))
    _assert_models(x - y, _plus(m1, m2, -1))
    _assert_models(-x, _scale(m1, -1))
    _assert_models(x.scale(q), _scale(m1, q))
    _assert_models(x + q, _plus(m1, _model({}, q)))
    _assert_models(q - x, _plus(_model({}, q), m1, -1))
    values = {"n": y, "j1": q}
    _assert_models(x.subst(values), _subst(m1, {"n": m2, "j1": _model({}, q)}))
    # equality and hash follow the model, whatever the route
    for a in _routes(Linear, c1, k1):
        assert a == x and hash(a) == hash(x) and a.sort_key() == x.sort_key()
    assert (x == y) == (m1 == m2)
    assert x - x == Linear() and (x - x).is_zero()


@settings(max_examples=100, deadline=None)
@given(RATS, RATS, RATS, RATS, RATS)
def test_epslin_matches_dict_model(c, e, c2, e2, q):
    x, y = EpsLin(c, e), EpsLin(c2, e2)
    m1, m2 = _model({"eps": e}, c), _model({"eps": e2}, c2)
    assert (x.const, x.eps) == (c, e)
    _assert_models(x, m1)
    for got, want in ((x + y, _plus(m1, m2)), (x - y, _plus(m1, m2, -1)),
                      (x.scale(q), _scale(m1, q)), (1 - x, _plus(_model({}, 1), m1, -1))):
        assert type(got) is EpsLin
        _assert_models(got, want)
    routes = _routes(EpsLin, {"eps": e}, c) + [EpsLin(c) + EpsLin(0, e), parse_hyper(
        f"2F1[{x}, 1; 1; z]").upper[0]]
    for a in routes + [pickle.loads(pickle.dumps(x))]:
        assert type(a) is EpsLin and a == x and hash(a) == hash(x)
    with pytest.raises(AttributeError):
        x.const = c + 1
    assert (x == y) == (m1 == m2)
    # equal fields but another view: never equal
    assert x != Linear({"eps": e}, c) and EpsLin(c) != LinearForm.constant(c)


@settings(max_examples=100, deadline=None)
@given(RATS, _coeffs(J_NAMES), RATS, _coeffs(J_NAMES), RATS, RATS, RATS)
def test_linear_form_matches_dict_model(nc, js, c, js2, c2, n0, n1):
    x = LinearForm(nc, js, c)
    m = _model({"n": nc, **js}, c)
    assert x.coeff("n") == nc and x.terms == tuple(sorted(_model({"n": nc, **js}, 0)[0].items()))
    _assert_models(x, m)
    built = LinearForm.n(nc) + LinearForm.constant(c)
    for s, v in js.items():
        built = built + LinearForm.j(s, v)
    for a in _routes(LinearForm, {"n": nc, **js}, c) + [built, LinearForm(nc, tuple(js.items()), c),
                                                         pickle.loads(pickle.dumps(x))]:
        assert type(a) is LinearForm and a == x and hash(a) == hash(x)
    # bind: numbers and forms for j symbols, the rest untouched
    y = LinearForm(0, js2, c2)
    values = {"j1": y, "j2": n0}
    bound = x.bind(values)
    assert type(bound) is LinearForm
    _assert_models(bound, _subst(m, {"j1": _model(js2, c2), "j2": _model({}, n0)}))
    # to_epslin binds n and refuses any j symbol left
    n_value = EpsLin(n0, n1)
    free = LinearForm(nc, {}, c)
    got = free.to_epslin(n_value)
    assert type(got) is EpsLin and got == EpsLin(c + nc * n0, nc * n1)
    if set(x.symbols) - {"n"}:
        with pytest.raises(UnboundSymbols):
            x.to_epslin(n_value)


def _epslins():
    return st.builds(EpsLin, RATS, RATS)


def _sequential_subst(x, values, cls=None):
    """Linear.subst as it was: one canonicalizing sum per substituted symbol."""
    out = (cls or type(x))._of(tuple(t for t in x.terms if t[0] not in values), x.const)
    for s, c in x.terms:
        if s in values:
            out = out + out.coerce(values[s]).scale(c)
    return out


def _outcome(fn):
    try:
        x = fn()
    except (TypeError, ValueError) as e:
        return type(e), str(e)
    return type(x), x.terms, x.const


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((Linear, LinearForm, EpsLin)), _coeffs(SYMBOLS), RATS,
       st.dictionaries(st.sampled_from(SYMBOLS + ("m",)),
                       st.one_of(RATS, st.integers(-3, 3), st.tuples(_coeffs(SYMBOLS), RATS),
                                 st.tuples(st.just("epslin"), RATS)), max_size=4),
       st.booleans())
def test_subst_merges_once_as_sequential_sums_do(cls, coeffs, const, raw, to_eps):
    """Linear.subst against the sum per symbol: number and form values mixed.

    A form value is of the form's own class, or an EpsLin, which only a
    substitution into EpsLin accepts; the others raise the same TypeError.
    """
    x = cls.from_terms(coeffs.items(), const)
    values = {}
    for s, v in raw.items():
        if isinstance(v, tuple) and v[0] == "epslin":
            v = EpsLin(v[1], 1)
        elif isinstance(v, tuple):
            v = (EpsLin if to_eps else cls).from_terms(v[0].items(), v[1])
        values[s] = v
    target = EpsLin if to_eps else None
    assert _outcome(lambda: x.subst(values, target)) == \
        _outcome(lambda: _sequential_subst(x, values, target))


BIND_NAMES = ("j1", "j2", "sigma")


def _bind_forms():
    """LinearForms over n and the powers, rational coefficients."""
    return st.builds(lambda cs, c: LinearForm.from_terms(cs.items(), c),
                     _coeffs(("n",) + BIND_NAMES), RATS)


def _fields(fn):
    """A value's fields with their types, an int_line, or the refusal (type, text, names)."""
    try:
        x = fn()
    except (UnboundSymbols, TypeError, ValueError) as e:
        return type(e), str(e), getattr(e, "names", None)
    if isinstance(x, tuple):
        return x
    if isinstance(x, HyperFn):
        return type(x), [_fields(lambda: p) for p in x.upper + x.lower], x.kappa, x.var
    return type(x), [(s, c, type(c)) for s, c in x.terms], x.const, type(x.const)


@settings(max_examples=300, deadline=None)
@given(_bind_forms(),
       st.dictionaries(st.sampled_from(BIND_NAMES + ("n",)),
                       st.one_of(st.integers(-3, 3), RATS, _bind_forms()), max_size=3),
       _epslins(), st.lists(_bind_forms(), min_size=1, max_size=5))
def test_one_integer_pass_binds_as_the_fraction_route(x, j_values, n_value, params):
    """subst, bind, to_epslin and SymHyperFn.bind against the Fraction route
    of tests/scalars_reference.py: field-equal results (type, terms,
    const, their coefficient types), equal UnboundSymbols for a missing
    power and equal int_line texts for a symbol other than n or eps."""
    assert _fields(lambda: x.subst(j_values)) == _fields(lambda: reference_subst(x, j_values))
    assert _fields(lambda: x.subst(j_values, EpsLin)) == \
        _fields(lambda: reference_subst(x, j_values, EpsLin))
    assert _fields(lambda: x.bind(j_values)) == _fields(lambda: reference_subst(x, j_values))
    for got in (x, x.bind(j_values)):
        assert _fields(lambda: got.int_line("n")) == _fields(lambda: reference_int_line(got, "n"))
    if not any(isinstance(v, LinearForm) for v in j_values.values()):
        got = x.subst({"n": 1, **j_values}, EpsLin)
        assert _fields(lambda: got.int_line("eps")) == \
            _fields(lambda: reference_int_line(got, "eps"))
    assert _fields(lambda: x.to_epslin(n_value, j_values)) == \
        _fields(lambda: reference_to_epslin(x, n_value, j_values))
    assert _fields(lambda: x.to_epslin(n_value)) == _fields(lambda: reference_to_epslin(x, n_value))
    numbers = {s: v for s, v in j_values.items() if not isinstance(v, Linear)}
    k = (len(params) - 1) // 2
    fn = SymHyperFn(params[:k + 1], params[k + 1:2 * k + 1])
    for values in (j_values, numbers, dict.fromkeys(BIND_NAMES, 2)):
        assert _fields(lambda: fn.bind(values, n_value)) == \
            _fields(lambda: reference_bind_fn(fn, values, n_value))


OFFSETS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=7))


@st.composite
def _paired_fns(draw):
    """HyperFns whose lowers are often an upper moved by an integer or by a
    fraction (so the constants may share a denominator and still differ by
    a non-integer, as 5/7 and -3/7 do), some uppers integers."""
    p = draw(st.integers(0, 3))
    ups = [EpsLin(draw(st.integers(-2, 3))) if draw(st.booleans()) else draw(_epslins())
           for _ in range(p + 1)]
    los = []
    for _ in range(p):
        u = draw(st.sampled_from(ups))
        los.append(u - draw(OFFSETS) if draw(st.integers(0, 3)) else draw(_epslins()))
    return HyperFn(ups, los)


@settings(max_examples=300, deadline=None)
@given(_paired_fns(), st.data())
def test_integer_differences_read_off_the_fields_as_subtraction_does(fn, data):
    """detect_exceptional's report equals the Linear-subtraction one; a shifted
    function (``Hyper.shifted``, built past the constructor) equals the one
    the constructor builds, and shift_vector reads the shift back."""
    assert detect_exceptional(fn) == reference_detect_exceptional(fn)
    which = data.draw(st.sampled_from(("upper", "lower") if fn.p else ("upper",)))
    index = data.draw(st.integers(0, len(getattr(fn, which)) - 1))
    step = data.draw(st.integers(-3, 3))
    g = fn.shifted(which, index, step)
    ps = list(getattr(fn, which))
    ps[index] = ps[index] + step
    assert g == (HyperFn(ps, fn.lower) if which == "upper" else HyperFn(fn.upper, ps))
    ups, los = shift_vector(g, fn)
    assert (ups if which == "upper" else los)[index] == step
    assert sum(map(abs, ups + los)) == abs(step)
    moved = data.draw(st.one_of(_epslins(), OFFSETS.map(lambda k: fn.upper[0] + k)))
    h = HyperFn([moved, *fn.upper[1:]], fn.lower)
    d = moved - fn.upper[0]
    if d.is_integer():
        assert shift_vector(h, fn)[0][0] == d.const
    else:
        text = f"^difference {re.escape(str(d))} is not an integer$"
        with pytest.raises(NotIntegerShift, match=text):
            shift_vector(h, fn)


@st.composite
def _hyper_fns(draw):
    p = draw(st.integers(0, 3))
    ups = draw(st.lists(_epslins(), min_size=p + 1, max_size=p + 1))
    los = draw(st.lists(_epslins(), min_size=p, max_size=p))
    return HyperFn(ups, los, draw(NONZERO), draw(st.sampled_from(("z", "y", "x1"))))


@settings(max_examples=40, deadline=None)
@given(_hyper_fns())
def test_parse_hyper_reads_back_the_printed_function(f):
    g = parse_hyper(str(f))
    assert g == f and hash(g) == hash(f) and str(g) == str(f)
    assert g.upper == f.upper and g.lower == f.lower


def _forms():
    return st.builds(LinearForm, RATS, _coeffs(J_NAMES), RATS)


@st.composite
def _mb_forms(draw):
    db, dc, dd = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 1))
    da = 1 + db + dc - dd      # dimA + dimD - dimB - dimC = 1
    lists = [draw(st.lists(_forms(), min_size=k, max_size=k)) for k in (da, db, dc, dd)]
    return MBRepr(draw(NONZERO), draw(st.sampled_from(("z", "y"))), *lists)


@settings(max_examples=20, deadline=None)
@given(_mb_forms())
def test_parse_input_reads_back_the_printed_mb_form(mb):
    got = parse_input(str(mb))
    assert got == mb and str(got) == str(mb)


def test_param_poly_refuses_unbound_propagator_powers():
    """``Linear.int_line``, the one integer form of a parameter, refuses a
    form with another symbol, and reads (p0, p1, q), q > 0 and gcd 1."""
    j = LinearForm(1, {"j1": 1}, F(1, 2))
    with pytest.raises(ValueError, match="bind propagator powers before reducing"):
        j.int_line("n")
    with pytest.raises(ValueError, match="bind propagator powers before reducing"):
        QuotientModule(SymHyperFn([LinearForm.n(1), j], [LinearForm.constant(F(3, 2))]))
    with pytest.raises(ValueError, match="bind propagator powers before reducing"):
        EpsLin(3, 1).int_line("n")
    # n alone, and eps alone: x = (p0 + p1 v) / q
    for x, v, want in ((LinearForm(F(1, 2), {}, 3), "n", (6, 1, 2)),
                       (EpsLin(3, F(1, 2)), "eps", (6, 1, 2)),
                       (LinearForm(F(-2, 3), {}, F(5, 4)), "n", (15, -8, 12)),
                       (EpsLin(F(-7, 6), F(4, 9)), "eps", (-21, 8, 18)),
                       (EpsLin(F(5, 3)), "eps", (5, 0, 3)),
                       (LinearForm.n(2), "n", (0, 2, 1)),
                       (EpsLin(0), "eps", (0, 0, 1))):
        assert x.int_line(v) == want
