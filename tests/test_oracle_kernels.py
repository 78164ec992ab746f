"""The oracle's integer kernels against the kernels they replaced.

``series_of_hyper`` cancels equal upper/lower pairs and folds eps-free
parameters into a scalar, and ``theta_pieces`` sums the pole-free r_j
theta^j F as one piece of tuple cells.  Both must give the results of
``series_of_hyper_per_parameter`` and ``theta_pieces_per_j`` rep for rep,
and raise the same ``PoleAtEpsZero`` and ``UnsupportedClass`` texts, on
hand-made cases, on the golden records and on every oracle call of one
round of each benchmark stream.
"""

import contextlib
import importlib.util
import io
import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperred import cli, expansion, reduction
from hyperred.errors import HyperredError, PoleAtEpsZero, UnsupportedClass
from hyperred.grammar import parse_hyper
from hyperred.hyper import HyperFn, SymHyperFn
from hyperred.mb import count_master_integrals, get_preset, mb_to_hyper
from hyperred.poly import Poly
from hyperred.ratfunc import RatFunc
from hyperred.reduction import ReductionResult, ode_operator, verify_depth, verify_reduction
from hyperred.scalars import EpsLin
from hyperred.series import lowest_cell, series_of_hyper, theta_pieces, truncated_sum
from series_reference import series_of_hyper_per_parameter, theta_pieces_per_j
from test_acceptance import _rand_fn

GOLDEN = Path(__file__).parent / "golden"
E = EpsLin


def _series_outcome(kernel, f, N, K):
    try:
        s = kernel(f, N, K)
    except PoleAtEpsZero as e:
        return str(e)
    return s.nums, s.den, s.z_order, s.eps_order


def _assert_series_matches(f, N, K):
    got = _series_outcome(series_of_hyper, f, N, K)
    assert got == _series_outcome(series_of_hyper_per_parameter, f, N, K), (str(f), N, K)
    return got


# ---------------------------------------------------------------------------
# series_of_hyper


PAIR_CASES = [
    # one pair
    ([E(F(2, 5), 1), E(F(1, 3), -1)], [E(F(2, 5), 1)]),
    # two pairs, matched out of order
    ([E(F(2, 5), 1), E(F(1, 3), -1), E(F(1, 7), 3)], [E(F(1, 3), -1), E(F(2, 5), 1)]),
    # a repeated pair, and a repeated upper with one equal lower
    ([E(F(1, 3), -1), E(F(1, 3), -1), E(F(3, 4), 2)], [E(F(1, 3), -1), E(F(1, 3), -1)]),
    ([E(F(1, 3), -1), E(F(1, 3), -1), E(F(3, 4), 2)], [E(F(1, 3), -1), E(F(5, 2), 1)]),
    # eps-free uppers 1 and 2 and an eps-free lower
    ([E(1), E(2), E(F(1, 3), -1)], [E(F(3, 2)), E(F(5, 4), 1)]),
    # eps-free lowers 1 and 2, the 1 cancelling an equal upper
    ([E(1), E(F(1, 2)), E(F(-1, 3), 2)], [E(1), E(2)]),
    # negative eps-free parameters and an eps lower with a negative p0
    ([E(F(-5, 2)), E(F(2, 7)), E(F(1, 3), 1)], [E(F(-7, 2)), E(F(-2, 3), -2)]),
    # a terminating eps-free upper
    ([E(-3), E(F(1, 2), 1)], [E(F(4, 3), -1)]),
    # only pairs and eps-free parameters: no pass over the eps cells
    ([E(F(1, 2)), E(F(3, 5), 2), E(2)], [E(F(3, 5), 2), E(F(7, 3))]),
]


@pytest.mark.parametrize("kappa", [F(1), F(-1), F(1, 4), F(-4)])
@pytest.mark.parametrize("upper,lower", PAIR_CASES)
def test_series_of_hyper_matches_the_per_parameter_kernel(upper, lower, kappa):
    f = HyperFn(upper, lower, kappa=kappa)
    for K in range(5):
        for N in (0, 1, 7, 60):
            assert not isinstance(_assert_series_matches(f, N, K), str)


_CONSTS = st.sampled_from([F(-5, 2), F(-2), F(-1), F(0), F(1, 3), F(1, 2), F(1), F(2), F(7, 4)])
_EPS = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2)])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.data(), st.sampled_from([F(1), F(-1), F(1, 4), F(-4)]),
       st.integers(0, 12), st.integers(0, 4))
def test_series_of_hyper_matches_on_colliding_parameters(p, data, kappa, N, K):
    """Parameters from a small pool, so pairs, repeats, eps-free ones and
    lowers that hit 0 (refused with the reference's text) all occur."""
    param = st.builds(EpsLin, _CONSTS, _EPS)
    upper = data.draw(st.lists(param, min_size=p + 1, max_size=p + 1))
    lower = data.draw(st.lists(param, min_size=p, max_size=p))
    if lower and data.draw(st.booleans()):
        upper[0] = lower[-1]
    _assert_series_matches(HyperFn(upper, lower, kappa=kappa), N, K)


def test_a_cancelled_lower_still_hits_zero():
    f = parse_hyper("3F2[-2+eps, 1/3, 1/5; -2+eps, 1/2; z]")
    for N in (3, 4, 30):
        with pytest.raises(PoleAtEpsZero) as e:
            series_of_hyper(f, N, 2)
        assert str(e.value) == "lower parameter -2+eps hits 0 at series index 2"
        _assert_series_matches(f, N, 2)
    # up to index 2 there is no pole yet
    assert not isinstance(_assert_series_matches(f, 2, 2), str)


@pytest.mark.parametrize("text,named", [
    # the first index first: the uncancelled -1+2*eps hits 0 before the cancelled -3+eps
    ("3F2[-3+eps, 1/3, 1/5; -3+eps, -1+2*eps; z]", "lower parameter -1+2*eps hits 0 at series index 1"),
    ("3F2[-3+eps, 1/3, 1/5; -1+2*eps, -3+eps; z]", "lower parameter -1+2*eps hits 0 at series index 1"),
    # at one index, the first lower: cancelled or not
    ("3F2[-2+eps, 1/3, 1/5; -2+eps, -2+3*eps; z]", "lower parameter -2+eps hits 0 at series index 2"),
    ("3F2[-2+eps, 1/3, 1/5; -2+3*eps, -2+eps; z]", "lower parameter -2+3*eps hits 0 at series index 2"),
    # the eps-free refusal comes before any index
    ("3F2[-2+eps, 1/3, 1/5; -2+eps, -4; z]", "lower parameter -4 is a non-positive integer at eps=0"),
])
def test_two_lowers_that_hit_zero_name_the_reference_one(text, named):
    f = parse_hyper(text)
    for N in (3, 8):
        assert _assert_series_matches(f, N, 3) == named


# ---------------------------------------------------------------------------
# the residual of a reduction check


def _residual(result, N, K, pieces):
    """verify_reduction's residual at its depth, the theta pieces built by
    ``pieces``, or the text of the refusal of a piece with a pole at z = 0."""
    N = verify_depth(result, N)
    try:
        ps = pieces([result.s_poly], series_of_hyper(result.target, N, K))
        ps += pieces(result.r_polys, series_of_hyper(result.basis, N, K), -1)
        if not result.algebraic_tail.is_zero():
            ps.append((-1, *result.algebraic_tail.z_cells(N, K), None))
    except UnsupportedClass as e:
        return str(e)
    s = truncated_sum(ps, N, K)
    return s.nums, s.den, s.z_order, s.eps_order


def _assert_residual_matches(result, N=30, K=4):
    """The one-piece residual equals the per-j one, and verify_reduction's
    verdict is the per-j residual's lowest cell."""
    got = _residual(result, N, K, theta_pieces)
    assert got == _residual(result, N, K, theta_pieces_per_j)
    if isinstance(got, str):
        with pytest.raises(UnsupportedClass, match=f"^{re.escape(got)}$"):
            verify_reduction(result, N, K)
    else:
        mism = lowest_cell(got[0], K)
        assert verify_reduction(result, N, K) == (mism is None, mism)
    return got


def _golden_reductions():
    paths = sorted(GOLDEN.glob("reduce-*.jsonl.out"))
    return [cli._decode_record(json.loads(p.read_text())) for p in paths]


def _edited(result, j, extra):
    """result with extra added to R_j."""
    r = list(result.r_polys)
    r[j] = r[j] + extra
    return ReductionResult(result.target, result.basis, result.s_poly, tuple(r),
                           result.algebraic_tail, result.affine)


def test_residual_matches_on_the_golden_records():
    results = _golden_reductions()
    assert {r.affine for r in results} == {False, True}
    assert {r.target.kappa for r in results} == {1, -1}
    for result in results:
        for K in (0, 2, 4):
            assert not any(_assert_residual_matches(result, 30, K)[0])


def test_residual_matches_on_edited_pole_and_zero_pieces():
    """Hand-made R_j: a z-pole that theta would cancel and ones that it
    would not, each refused as it stands, edits that the check catches,
    and R_j set to zero."""
    generic = cli._decode_record(json.loads((GOLDEN / "reduce-generic.jsonl.out").read_text()))
    vars = generic.s_poly.vars
    z, e = (Poly.variable(vars, x) for x in ("z", "eps"))
    one = Poly.const(vars, 1)
    edits = ((1, RatFunc(one, z)), (1, RatFunc(e * 3, z * z)), (0, RatFunc(one, z)),
             (0, RatFunc(e * e * z)), (1, RatFunc(e ** 4 * z ** 3)))
    outcomes = [_assert_residual_matches(_edited(generic, j, extra)) for j, extra in edits]
    refusal = [f"piece {generic.r_polys[j] + extra} has a pole at z = 0" for j, extra in edits[:3]]
    assert [o if isinstance(o, str) else lowest_cell(o[0], 4) for o in outcomes] == [
        *refusal, (1, 2), (4, 4)]
    for j, r in enumerate(generic.r_polys):
        zeroed = _assert_residual_matches(_edited(generic, j, -r))
        assert lowest_cell(zeroed[0], 4) is not None


def test_ode_operator_apply_matches_per_j_pieces():
    """ThetaOp.apply of each acceptance function's ODE, on its own series and
    on the series of a neighbour, against the per-j pieces."""
    rng = random.Random(20260809)
    for i in range(30):
        fn = _rand_fn(rng, (1, 2, 3)[i % 3], exclude_exceptional=False)
        op = ode_operator(fn)
        for g in (fn, fn.shifted("upper", 0, 1)):
            try:
                s = series_of_hyper(g, 20, 3)
            except PoleAtEpsZero:
                continue
            got = op.apply(s)
            want = truncated_sum(theta_pieces_per_j(op.coeffs, s), s.z_order, s.eps_order)
            assert (got.nums, got.den, got.z_order) == (want.nums, want.den, want.z_order)
            assert got.is_zero() == (g is fn)


# ---------------------------------------------------------------------------
# every oracle call of one round of each benchmark stream


def _first_round(workload, seed=53):
    """The first round of the seeded job stream bench/workloads.py builds."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.job_stream(workload, seed, 1)[0]


def _run_diagram_job(job):
    """The diagram pipeline as the benchmark runs it: MB conversion, the
    master count, each term reduced with n symbolic and checked at N=30, K=2."""
    _, name, values, n_const = job
    preset = get_preset(name)
    powers = [s for s in preset.symbols if s != "n"]
    hs = mb_to_hyper(preset.mb)
    count_master_integrals(hs, dict(zip(powers, values)))
    for term in hs.terms:
        fn = term.fn
        bind = lambda v: SymHyperFn([u.bind(v) for u in fn.upper], [l.bind(v) for l in fn.lower],
                                    fn.kappa, fn.var)
        try:
            r = reduction.reduce_to_basis(bind(dict(zip(powers, values))),
                                          bind(dict.fromkeys(powers, 1)))
            reduction.verify_reduction(r.bind(n_value=EpsLin(F(n_const), -2)), 30, 2)
        except HyperredError:
            pass


@pytest.fixture
def oracle_calls(monkeypatch):
    """Records each series_of_hyper call and each checked ReductionResult."""
    series_calls, checks = [], []

    def series(f, N, K):
        series_calls.append((f, N, K))
        return series_of_hyper(f, N, K)

    def verify(result, N, K):
        checks.append((result, N, K))
        return verify_reduction(result, N, K)

    for mod in (reduction, expansion, cli):
        monkeypatch.setattr(mod, "series_of_hyper", series)
    for mod in (reduction, cli):
        monkeypatch.setattr(mod, "verify_reduction", verify)
    return series_calls, checks


@pytest.mark.parametrize("workload", ["reduce", "expand", "diagram"])
def test_one_stream_round_matches_the_references(workload, oracle_calls):
    series_calls, checks = oracle_calls
    for job in _first_round(workload):
        if job[0] == "diagram":
            _run_diagram_job(job)
            continue
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(job))
    assert series_calls
    for f, N, K in series_calls:
        _assert_series_matches(f, N, K)
    assert bool(checks) == (workload != "expand")
    for result, N, K in checks:
        _assert_residual_matches(result, N, K)
