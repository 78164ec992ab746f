"""Mellin-Barnes conversion, presets, and master-integral counting."""

import itertools
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from hyperred.errors import CriterionViolation, DegeneratePoles
from hyperred.mb import (MBRepr, check_dim, count_master_integrals,
                         dressed_propagator_shift, get_preset, mb_to_hyper)
from hyperred.scalars import EpsLin, LinearForm
from hyperred.series import series_of_hyper
from mb_reference import cancel_matching, canonicalize_raw, family_series, raw_v1200


def _sorted_forms(forms):
    return sorted(f.sort_key() for f in forms)


def test_check_dim():
    p = get_preset("v1200")
    assert check_dim(p.mb)
    assert p.mb.dims() == (4, 2, 1, 0)   # 5 numerator vs 2 denominator Gammas
    good = MBRepr(1, "z", [LinearForm.constant(1), LinearForm.n(1)],
                  [LinearForm.n(F(1, 2))], [LinearForm.constant(F(1, 3))],
                  [LinearForm.constant(F(1, 5))])
    assert check_dim(good) and good.dims() == (2, 1, 1, 1)
    assert not check_dim(SimpleNamespace(dims=lambda: (2, 2, 1, 1)))
    with pytest.raises(ValueError, match=r"dimensions \(2, 2, 1, 1\)"):
        MBRepr(1, "z", good.a_forms, good.b_forms + (LinearForm.constant(2),),
               good.c_forms, good.d_forms)
    c3 = get_preset("c3").mb
    assert check_dim(c3) and not c3.c_forms and not c3.d_forms


def test_conversion_matches_printed_forms():
    for name in ("c3", "c1", "v1200"):
        p = get_preset(name)
        h = mb_to_hyper(p.mb)
        assert h.q == p.printed.q
        assert h.q == 1 + len(p.mb.c_forms)
        for got, want in zip(h.terms, p.printed.terms):
            assert _sorted_forms(got.fn.upper) == _sorted_forms(want.fn.upper), name
            assert _sorted_forms(got.fn.lower) == _sorted_forms(want.fn.lower), name
            assert got.fn.kappa == want.fn.kappa and got.fn.var == want.fn.var
            assert (got.power - want.power).is_zero()


def test_v1200_raw_canonicalization():
    shift = LinearForm.n(F(1, 2)) - LinearForm.j("alpha") - LinearForm.j("sigma")
    canon = canonicalize_raw(raw_v1200(), shift)
    ref = get_preset("v1200").mb
    assert canon.kappa == ref.kappa == 4
    assert _sorted_forms(canon.a_forms) == _sorted_forms(ref.a_forms)
    assert _sorted_forms(canon.b_forms) == _sorted_forms(ref.b_forms)
    assert _sorted_forms(canon.c_forms) == _sorted_forms(ref.c_forms)
    assert canon.d_forms == ref.d_forms == ()


def test_degenerate_poles():
    m = MBRepr(1, "z",
               [LinearForm.constant(F(1, 3)), LinearForm.constant(F(1, 5))],
               [], [LinearForm.constant(2)], [])
    with pytest.raises(DegeneratePoles, match=r"^pole families 0 and 2 collide$"):
        mb_to_hyper(m)


def test_degenerate_poles_need_an_integer_difference_of_equal_symbol_parts():
    # n/2 + 1/3 and n/2 - 5/3 differ by 2: their pole families collide
    a = [LinearForm.constant(F(1, 3)), LinearForm.constant(F(1, 5)), LinearForm.constant(F(1, 7))]
    half, third = LinearForm.n(F(1, 2)), LinearForm.n(F(1, 3))
    with pytest.raises(DegeneratePoles, match=r"^pole families n/2\+1/3 and n/2-5/3 collide$"):
        mb_to_hyper(MBRepr(1, "z", a, [], [half + F(1, 3), half - F(5, 3)], []))
    # a non-integer difference, or different symbol parts, keeps both families
    for c in ([half + F(1, 3), half], [half, third], [half + 1, third + 1]):
        assert mb_to_hyper(MBRepr(1, "z", a, [], c, [])).q == 3


def test_master_counts_match_paper():
    # C3: two master integrals
    hc = mb_to_hyper(get_preset("c3").mb)
    L, _ = count_master_integrals(hc, {"j1": 1, "j2": 1, "sigma": 1})
    assert L == 2
    # C1 generic (dressed sigmas): two; one integer sigma: one
    hc1 = mb_to_hyper(get_preset("c1").mb)
    dressed = dressed_propagator_shift([1, 1], 1)
    L, _ = count_master_integrals(hc1, {"sigma1": dressed, "sigma2": dressed, "rho": 1})
    assert L == 2
    L, _ = count_master_integrals(hc1, {"sigma1": 1, "sigma2": dressed, "rho": 1})
    assert L == 1
    # V1200 with integer powers: two
    hv = mb_to_hyper(get_preset("v1200").mb)
    L, _ = count_master_integrals(hv, {"alpha": 1, "beta": 1, "sigma": 1, "rho": 1})
    assert L == 2


def test_criterion_i_grids():
    hc = mb_to_hyper(get_preset("c3").mb)
    for j1, j2, sg in itertools.product((1, 2, 3), repeat=3):
        L, _ = count_master_integrals(hc, {"j1": j1, "j2": j2, "sigma": sg})
        assert L == 2
    hv = mb_to_hyper(get_preset("v1200").mb)
    for al, be, sg, rho in itertools.product((1, 2, 3), repeat=4):
        L, _ = count_master_integrals(
            hv, {"alpha": al, "beta": be, "sigma": sg, "rho": rho})
        assert L == 2
    hc1 = mb_to_hyper(get_preset("c1").mb)
    for s1, s2, rho in itertools.product((1, 2, 3), repeat=3):
        # the call itself asserts criterion (i); integer sigmas give L = 1
        L, _ = count_master_integrals(hc1, {"sigma1": s1, "sigma2": s2, "rho": rho})
        assert L == 1


def test_criterion_violation_surfaces():
    # contrived integrand whose two families disagree on the count
    m = MBRepr(1, "z", [LinearForm.constant(1)], [],
               [LinearForm.constant(F(1, 2))], [LinearForm.constant(F(3, 2))])
    assert check_dim(m)
    h = mb_to_hyper(m)
    with pytest.raises(CriterionViolation):
        count_master_integrals(h, {})


def test_dressed_propagator_shift():
    assert dressed_propagator_shift([1], 0) == LinearForm.constant(1)
    assert dressed_propagator_shift([1, 1], 1) == \
        LinearForm.constant(2) - LinearForm.n(F(1, 2))
    assert dressed_propagator_shift([1, 1, 1], 2) == \
        LinearForm.constant(3) - LinearForm.n(1)
    with pytest.raises(ValueError):
        dressed_propagator_shift([1, 1], 0)
    with pytest.raises(ValueError):
        dressed_propagator_shift([1], -1)


def test_residue_series_cross_check():
    """Eq. (MB) -> Eq. (eq) as formal series, straight from residue data."""
    bindings = {"j1": 1, "j2": 1, "sigma": 1}
    p = get_preset("c3")
    fn = mb_to_hyper(p.mb).terms[0].fn.bind(bindings)
    direct = family_series(p.mb, 0, bindings, EpsLin(4, -2), 20, 2)
    assembled = series_of_hyper(fn, 20, 2)
    assert direct == assembled
    # also both families of C1 (binding chosen clear of eps-pole lowers)
    p1 = get_preset("c1")
    binds = {"sigma1": F(1, 1), "sigma2": F(1, 1), "rho": F(2, 1)}
    h = mb_to_hyper(p1.mb)
    for k in (0, 1):
        fn = h.terms[k].fn.bind(binds)
        assert family_series(p1.mb, k, binds, EpsLin(4, -2), 15, 2) == \
            series_of_hyper(fn, 15, 2)


def test_c3_cancellation_bridge():
    """The bound C3 4F3 cancels its unit pair into the unit-upper 3F2."""
    bindings = {"j1": 1, "j2": 1, "sigma": 1}
    fn = mb_to_hyper(get_preset("c3").mb).terms[0].fn.bind(bindings)
    reduced = cancel_matching(fn)
    assert reduced.p == fn.p - 1
    assert EpsLin(1) in reduced.upper
    assert series_of_hyper(reduced, 12, 2) == series_of_hyper(fn, 12, 2)


def test_c1_first_term_pair_is_rho_minus_one():
    """Upper rho+s1+s2-n/2 minus lower 1+s1+s2-n/2 = rho-1, a cancellable pair."""
    h = mb_to_hyper(get_preset("c1").mb)
    dressed = dressed_propagator_shift([1, 1], 1)
    for rho in (1, 2, 3):
        fn = h.terms[0].fn.bind({"sigma1": dressed, "sigma2": dressed, "rho": rho})
        from hyperred.reduction import detect_exceptional
        rep = detect_exceptional(fn)
        assert (0, 1, rho - 1) in rep.pairs


def test_count_master_integrals_detects_each_term_once(monkeypatch):
    """The count is read off the one exceptional report of each term."""
    from hyperred import mb, reduction
    calls, detect = [], reduction.detect_exceptional
    for module in (mb, reduction):
        monkeypatch.setattr(module, "detect_exceptional", lambda fn: calls.append(fn) or detect(fn))
    h = mb_to_hyper(get_preset("v1200").mb)
    L, reports = count_master_integrals(h, {"alpha": 1, "beta": 1, "sigma": 1, "rho": 1})
    assert L == 2 and len(calls) == len(h.terms) == len(reports)


def test_get_preset_builds_each_preset_once(capsys):
    """A preset is built on first use and then shared: the same object, equal
    to a fresh build; an unknown name keeps its KeyError and @nope exits 2."""
    from hyperred import cli
    from hyperred.mb import PRESETS
    for name, build in PRESETS.items():
        p = get_preset(name)
        assert get_preset(name) is p
        fresh = build()
        assert p.mb == fresh.mb and p.printed == fresh.printed and p.symbols == fresh.symbols
    with pytest.raises(KeyError) as e:
        get_preset("nope")
    assert e.value.args == ("unknown preset 'nope'; have ['c1', 'c3', 'v1200']",)
    capsys.readouterr()
    assert cli.main(["mb", "@nope"]) == 2
    assert "unknown preset @nope" in capsys.readouterr().err
