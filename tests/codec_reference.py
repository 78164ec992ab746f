"""Fraction reference for the record codec in ``cli``, which the program never calls.

``cli`` prints a ``Poly`` straight from its integer rep over ``den`` and
reads a record's polynomials as integers over the lcm of their
denominators.  The functions here are the codec as it was before: the
encoders build one Fraction per coefficient (``Poly.terms``) and print its
numerator and denominator, and the decoders read every rational with
``int()`` or ``Fraction(str)``.  Those also accept spellings the encoders
never write (``" 3 "``, ``"+3"``, ``"3_0"``, ``"1.5"``, ``"1e3"``, non-ASCII
digits), which ``cli`` refuses; on what the encoders write, the two agree.
``enc_record`` is a record as a dict, whose JSON with sorted keys and no
spaces is the line ``cli._encode_record`` writes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from hyperred.gpl import PolyLogExpr
from hyperred.poly import Poly
from hyperred.ratfunc import RatFunc
from hyperred.reduction import ReductionResult


def enc_rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def dec_rat(s: str) -> Fraction:
    try:
        return Fraction(int(s))
    except ValueError:
        return Fraction(s)


def enc_ratfunc(r: RatFunc) -> dict:
    enc_poly = lambda p: sorted([list(e), enc_rat(c)] for e, c in p.terms().items())
    return {"vars": list(r.vars), "num": enc_poly(r.num), "den": enc_poly(r.den)}


def dec_ratfunc(d: dict, expect: Optional[tuple] = None) -> RatFunc:
    vars = tuple(d["vars"])
    if expect not in (None, vars):
        raise ValueError(f"expected variables {list(expect)}, got {list(vars)}")
    for e, _ in d["num"] + d["den"]:
        if len(e) != len(vars) or any(type(x) is not int or x < 0 for x in e):
            raise ValueError(f"exponents {e} are not one non-negative integer per variable")
    mk = lambda terms: Poly.from_terms(
        vars, _unique(((tuple(e), dec_rat(c)) for e, c in terms), "exponent list"))
    return RatFunc(mk(d["num"]), mk(d["den"]))


def _unique(pairs, what: str) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"{what} [{', '.join(map(str, key))}] repeats")
        out[key] = value
    return out


def enc_polylog(e: PolyLogExpr) -> dict:
    return {
        "var": e.var,
        "const": enc_rat(e.const),
        "terms": [{"coeff": enc_rat(c), "letters": [enc_rat(a) for a in w]}
                  for w, c in sorted(e.terms.items(), key=lambda wc: (len(wc[0]), wc[0]))],
    }


def dec_polylog(d: dict) -> PolyLogExpr:
    terms = _unique(((tuple(dec_rat(a) for a in t["letters"]), dec_rat(t["coeff"]))
                     for t in d["terms"]), "word")
    return PolyLogExpr(terms, dec_rat(d["const"]), d["var"])


def enc_record(value, N: int, K: int) -> dict:
    """The record of a reduction checked at (N, K) or an expansion checked at N."""
    if isinstance(value, ReductionResult):
        return {"command": "reduce", "target": str(value.target), "basis": str(value.basis),
                "s": enc_ratfunc(value.s_poly), "r": [enc_ratfunc(r) for r in value.r_polys],
                "tail": enc_ratfunc(value.algebraic_tail), "affine": value.affine,
                "verified": True, "N": N, "K": K}
    return {"command": "expand", "fn": str(value.fn), "kind": value.kind, "var": value.var,
            "omega0": enc_ratfunc(value.omega0) if value.omega0 is not None else None,
            "layers": [enc_polylog(l) for l in value.layers], "verified": True, "N": N}
