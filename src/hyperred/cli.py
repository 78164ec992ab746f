"""Command-line front end and exact-value serialization.

Machine-readable output is line-delimited JSON with every rational encoded
as a "num/den" string; identical jobs produce byte-identical output.
Engine failures map to distinct exit codes: parse errors and unbound
symbols 2, unsupported inputs 3, exceptional or singular parameters 4,
verification failures 5; a file that cannot be read or written exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional

from .errors import (CriterionViolation, DegeneratePoles, HyperredError,
                     NoFactorization, NotIntegerShift, NotTriangular, ParseError,
                     PoleAtEpsZero, SingularStep, UnboundSymbols, UncancelledPole,
                     UnsupportedClass, VerificationFailure)
from .expansion import (EpsilonExpansion, epsilon_expand, f3_parametrization_check,
                        gauss_flags, gauss_triangular_system, three_f2_system,
                        verify_expansion)
from .gpl import PolyLogExpr
from .grammar import format_mb, parse_hyper, parse_input
from .mb import DiagramPreset, MBRepr, count_master_integrals, mb_to_hyper
from .poly import Poly
from .ratfunc import RatFunc
from .reduction import (ReductionResult, count_nontrivial_basis, detect_exceptional,
                        ode_operator, reduce_to_basis, verify_reduction)
from .series import series_of_hyper

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_EXCEPTIONAL = 4
EXIT_VERIFY = 5

MAX_N = 200
MAX_K = 8


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, (ParseError, UnboundSymbols)):
        return EXIT_PARSE
    if isinstance(exc, (UnsupportedClass, NoFactorization, NotTriangular,
                        DegeneratePoles, NotIntegerShift)):
        return EXIT_UNSUPPORTED
    if isinstance(exc, (SingularStep, PoleAtEpsZero, UncancelledPole,
                        CriterionViolation)):
        return EXIT_EXCEPTIONAL
    if isinstance(exc, VerificationFailure):
        return EXIT_VERIFY
    return EXIT_ERROR


# ---------------------------------------------------------------------------
# exact-value encoding


def enc_rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def dec_rat(s: str) -> Fraction:
    try:
        return Fraction(int(s))     # enc_rat writes integers bare; int() skips the regex
    except ValueError:
        return Fraction(s)


def parse_rat(what: str, text: str) -> Fraction:
    """A rational option value; a malformed one is a ParseError (exit 2)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what} is not a rational number: {text!r}", 1, 1) from None


def enc_ratfunc(r: RatFunc) -> dict:
    enc_poly = lambda p: sorted([list(e), enc_rat(c)] for e, c in p.terms().items())
    return {"vars": list(r.vars), "num": enc_poly(r.num), "den": enc_poly(r.den)}


def dec_ratfunc(d: dict) -> RatFunc:
    vars = tuple(d["vars"])
    mk = lambda terms: Poly.from_terms(vars, {tuple(e): dec_rat(c) for e, c in terms})
    den_terms = d["den"]
    return RatFunc(mk(d["num"]), mk(den_terms) if den_terms else None)


def enc_polylog(e: PolyLogExpr) -> dict:
    return {
        "var": e.var,
        "const": enc_rat(e.const),
        "terms": [{"coeff": enc_rat(c), "letters": [enc_rat(a) for a in w]}
                  for w, c in e.sorted_terms()],
    }


def dec_polylog(d: dict) -> PolyLogExpr:
    terms = {tuple(dec_rat(a) for a in t["letters"]): dec_rat(t["coeff"]) for t in d["terms"]}
    return PolyLogExpr(terms, dec_rat(d["const"]), d["var"])


# ---------------------------------------------------------------------------
# job running


@dataclass
class JobSpec:
    N: int = 30
    K: int = 4
    out: Optional[str] = None
    fmt: str = "text"
    no_verify: bool = False

    def __post_init__(self):
        if not (1 <= self.N <= MAX_N):
            raise UnsupportedClass(f"series order N must be within 1..{MAX_N}")
        if not (0 <= self.K <= MAX_K):
            raise UnsupportedClass(f"eps order K must be within 0..{MAX_K}")


def _load_expr(text: str) -> str:
    """Expression arguments may name a file as file:PATH."""
    if text.startswith("file:"):
        with open(text[5:]) as fh:
            return fh.read().strip()
    return text


def _emit(records: List[dict], spec: JobSpec, text_lines: List[str]):
    if spec.fmt == "jsonl":
        body = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                         for r in records)
    else:
        body = "\n".join(text_lines)
    if spec.out:
        with open(spec.out, "w") as fh:
            fh.write(body + "\n")
    print(body)


def run_reduce(spec: JobSpec, target_text: str, basis_text: str) -> int:
    target = parse_hyper(_load_expr(target_text))
    basis = parse_hyper(_load_expr(basis_text))
    result = reduce_to_basis(target, basis)
    verified = None
    if not spec.no_verify:
        ok, mism = verify_reduction(result, spec.N, min(spec.K, 4))
        if not ok:
            raise VerificationFailure(f"reduction failed oracle at (z^{mism[0]}, eps^{mism[1]})")
        verified = True
    rec = {
        "command": "reduce",
        "target": str(target),
        "basis": str(basis),
        "s": enc_ratfunc(result.s_poly),
        "r": [enc_ratfunc(r) for r in result.r_polys],
        "tail": enc_ratfunc(result.algebraic_tail),
        "affine": result.affine,
        "verified": bool(verified),
        "N": spec.N,
        "K": min(spec.K, 4),
    }
    lines = [f"target: {target}", f"basis:  {basis}", f"S  = {result.s_poly}"]
    lines += [f"R{j} = {r}" for j, r in enumerate(result.r_polys)]
    if not result.algebraic_tail.is_zero():
        lines.append(f"tail = {result.algebraic_tail}")
    if verified:
        lines.append(f"verified against series oracle at N={spec.N}")
    _emit([rec], spec, lines)
    return EXIT_OK


def run_count_basis(spec: JobSpec, text: str) -> int:
    fn = parse_hyper(_load_expr(text))
    rep = detect_exceptional(fn)
    L = count_nontrivial_basis(fn)
    rec = {
        "command": "count-basis",
        "fn": str(fn),
        "L": L,
        "integer_uppers": list(rep.integer_uppers),
        "pairs": [list(p) for p in rep.pairs],
        "shared_flags": list(rep.shared_flags),
    }
    lines = [f"fn: {fn}", f"L = {L}",
             f"integer uppers: {list(rep.integer_uppers)}",
             f"cancellable pairs (upper, lower, diff): {list(rep.pairs)}"]
    if rep.shared_flags:
        lines.append(f"warning: uppers {list(rep.shared_flags)} are integer and paired")
    _emit([rec], spec, lines)
    return EXIT_OK


def _mb_of(parsed) -> MBRepr:
    if isinstance(parsed, DiagramPreset):
        return parsed.mb
    if isinstance(parsed, MBRepr):
        return parsed
    raise ParseError("expected an MB[...] spec or @preset", 1, 1)


def run_mb(spec: JobSpec, text: str) -> int:
    mb = _mb_of(parse_input(_load_expr(text)))
    hs = mb_to_hyper(mb)
    recs = []
    lines = [f"input: {format_mb(mb)}", f"terms: {hs.q}"]
    for i, t in enumerate(hs.terms):
        recs.append({
            "command": "mb",
            "term": i,
            "power": str(t.power),
            "gamma": str(t.gamma),
            "fn": str(t.fn),
        })
        lines.append(f"term {i}: z^({t.power}) * {t.gamma} * {t.fn}")
    _emit(recs, spec, lines)
    return EXIT_OK


def run_count_masters(spec: JobSpec, text: str, bindings) -> int:
    mb = _mb_of(parse_input(_load_expr(text)))
    hs = mb_to_hyper(mb)
    L, reports = count_master_integrals(hs, bindings)
    rec = {
        "command": "count-masters",
        "input": format_mb(mb),
        "bindings": {k: enc_rat(v) for k, v in bindings.items()},
        "L": L,
        "terms": [{"fn": str(fn), "integer_uppers": list(r.integer_uppers),
                   "pairs": [list(p) for p in r.pairs]} for fn, r in reports],
    }
    lines = [f"L = {L}"]
    for fn, r in reports:
        lines.append(f"  {fn}: integer uppers {list(r.integer_uppers)}, "
                     f"pairs {list(r.pairs)}")
    _emit([rec], spec, lines)
    return EXIT_OK


def run_expand(spec: JobSpec, text: str, order: int) -> int:
    fn = parse_hyper(_load_expr(text))
    exp = epsilon_expand(fn, order)
    verified = None
    if not spec.no_verify:
        ok, mism = verify_expansion(fn, exp, spec.N)
        if not ok:
            raise VerificationFailure(
                f"expansion failed oracle at (power {mism[0]}, eps^{mism[1]})")
        verified = True
    # each format sorts every word of every layer, so build only the one printed
    if spec.fmt == "jsonl":
        _emit([{
            "command": "expand",
            "fn": str(fn),
            "kind": exp.kind,
            "var": exp.var,
            "omega0": enc_ratfunc(exp.omega0) if exp.omega0 is not None else None,
            "layers": [enc_polylog(l) for l in exp.layers],
            "verified": bool(verified),
            "N": spec.N,
        }], spec, [])
        return EXIT_OK
    lines = [f"fn: {fn}", f"class: {exp.kind}"]
    if exp.kind == "xi":
        lines.append("layers are for sqrt(-z)*F in xi = (z/(z-1))^(1/2)")
        lines.append(f"eps^0: {exp.layers[0]}")
    else:
        lines.append(f"eps^0: {exp.omega0}")
    for k in range(1, len(exp.layers)):
        lines.append(f"eps^{k}: {exp.layers[k]}")
    if verified:
        lines.append(f"verified against series oracle at N={spec.N}")
    _emit([], spec, lines)
    return EXIT_OK


def _rat_options(opts, *names):
    return [parse_rat(f"--{name}", getattr(opts, name)) for name in names]


def run_check_parametrization(spec: JobSpec, family: str, opts) -> int:
    if opts.q < 1:
        raise ParseError(f"--q must be >= 1, got {opts.q}", 1, 1)
    if family == "gauss":
        rec = {"command": "check-parametrization", "family": "gauss"}
        lines = []
        if opts.beta is not None:
            sysd = gauss_triangular_system(opts.p1, opts.p2, opts.r, opts.q,
                                           *_rat_options(opts, "a1", "a2", "c", "beta"))
            rec["triangular"] = sysd.triangular
            lines.append(f"triangular with beta={opts.beta}: {sysd.triangular}")
        flags = gauss_flags(Fraction(opts.p1, opts.q), Fraction(opts.p2, opts.q),
                            Fraction(opts.r, opts.q))
        rec.update(flags)
        lines.append(f"p1*p2=0 case: {flags['p1p2_zero']}; p1=0 case: {flags['p1_zero']}; "
                     f"beta=-r/q=p1/q=p2/q (Lemma IV) case: {flags['lemma_iv']}")
        _emit([rec], spec, lines)
        return EXIT_OK
    if family == "3f2":
        sysd, rep = three_f2_system(opts.r, opts.p, opts.q,
                                    *_rat_options(opts, "a1", "a2", "a3", "b1", "b2"))
        rec = {"command": "check-parametrization", "family": "3f2",
               "deltas": [enc_rat(d) for d in sysd.deltas],
               "h_exponents": [enc_rat(e) for e in rep.h_exponents],
               "rational_parametrization": opts.p == -opts.r,
               "case": rep.case}
        lines = [f"h(z) = z^({rep.h_exponents[0]}) (z-1)^({rep.h_exponents[1]})",
                 f"rational parametrization exists: {opts.p == -opts.r}"]
        _emit([rec], spec, lines)
        return EXIT_OK
    if family == "f3":
        rep = f3_parametrization_check(opts.p1, opts.p2, opts.r1, opts.r2,
                                       opts.p, opts.q)
        rec = {"command": "check-parametrization", "family": "f3",
               "passes": rep.passes, "s1": rep.s1, "s2": rep.s2,
               "h1": [enc_rat(e) for e in rep.h1_exponents],
               "h2": [enc_rat(e) for e in rep.h2_exponents],
               "H": [enc_rat(e) for e in rep.H_exponents],
               "form": rep.form, "flags": list(rep.flags)}
        lines = [f"p_j r_j = 0 admissibility: {rep.passes}",
                 f"s1={rep.s1} s2={rep.s2} form={rep.form}"]
        lines += [f"flag: {f}" for f in rep.flags]
        _emit([rec], spec, lines)
        return EXIT_OK
    raise UnsupportedClass(f"unknown family {family!r}")


def _decode_record(rec: dict):
    """The ReductionResult or EpsilonExpansion a stored record holds."""
    cmd = rec.get("command")
    if cmd == "reduce":
        return ReductionResult(
            target=parse_hyper(rec["target"]),
            basis=parse_hyper(rec["basis"]),
            s_poly=dec_ratfunc(rec["s"]),
            r_polys=tuple(dec_ratfunc(r) for r in rec["r"]),
            algebraic_tail=dec_ratfunc(rec["tail"]),
            affine=rec.get("affine", False))
    if cmd == "expand":
        fn = parse_hyper(rec["fn"])
        return EpsilonExpansion(
            fn=fn, kind=rec["kind"], var=rec["var"],
            omega0=dec_ratfunc(rec["omega0"]) if rec["omega0"] is not None else None,
            layers=tuple(dec_polylog(l) for l in rec["layers"]))
    raise UnsupportedClass(f"cannot verify record kind {cmd!r}")


def run_verify_file(spec: JobSpec, path: str) -> int:
    """Re-check stored records, never at less depth than this job's own N and K.

    Every record is decoded before the first check; a malformed one is a
    ParseError naming its line (exit 2), and a record whose N or K lies
    outside a job's own bounds is refused as a job's would be (exit 3).
    """
    jobs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                job = (rec, _decode_record(rec), max(int(rec.get("N", 0)), spec.N),
                       max(int(rec.get("K", 0)), min(spec.K, 4)))
            except (ParseError, ValueError, ZeroDivisionError, KeyError, TypeError,
                    AttributeError) as e:
                raise ParseError(f"malformed stored record ({type(e).__name__}: {e})",
                                 lineno, 1) from None
            JobSpec(N=job[2], K=job[3])
            jobs.append(job)
    for rec, value, N, K in jobs:
        if isinstance(value, ReductionResult):
            ok, mism = verify_reduction(value, N, K)
            if not ok:
                raise VerificationFailure(
                    f"stored reduction fails oracle at (z^{mism[0]}, eps^{mism[1]})")
            print(f"reduce record ok: {rec['target']}")
        else:
            ok, mism = verify_expansion(value.fn, value, N)
            if not ok:
                raise VerificationFailure(
                    f"stored expansion fails oracle at (power {mism[0]}, eps^{mism[1]})")
            print(f"expand record ok: {rec['fn']}")
    return EXIT_OK


def run_verify_suite(spec: JobSpec) -> int:
    """Compact oracle battery over the built-in presets and expanders."""
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            fn()
            print(f"PASS {name}")
        except Exception as e:          # noqa: BLE001 - suite reports all
            failures += 1
            print(f"FAIL {name}: {e}")

    def ode_check():
        f = parse_hyper("3F2[1/2+eps, -eps, 1/3+2*eps; 1+2*eps, 4/3-eps; z]")
        res = ode_operator(f).apply(series_of_hyper(f, 20, 3))
        if not res.is_zero():
            raise VerificationFailure("ODE does not annihilate the series")

    def reduce_check():
        basis = parse_hyper("2F1[2/5+eps, 1/3-eps; 3/2+2*eps; z]")
        target = parse_hyper("2F1[7/5+eps, 1/3-eps; 1/2+2*eps; z]")
        ok, _ = verify_reduction(reduce_to_basis(target, basis), 20, 2)
        if not ok:
            raise VerificationFailure("reduction identity failed")

    def expand_check():
        f = parse_hyper("2F1[2*eps, 3*eps; 1+5*eps; z]")
        ok, _ = verify_expansion(f, epsilon_expand(f, 3), 20)
        if not ok:
            raise VerificationFailure("expansion failed")

    def masters_check():
        from .mb import get_preset
        expected = {"c3": ({"j1": 1, "j2": 1, "sigma": 1}, 2),
                    "v1200": ({"alpha": 1, "beta": 1, "sigma": 1, "rho": 1}, 2)}
        for name, (binds, want) in expected.items():
            L, _ = count_master_integrals(mb_to_hyper(get_preset(name).mb), binds)
            if L != want:
                raise VerificationFailure(f"{name}: L={L}, expected {want}")

    check("ode-annihilation", ode_check)
    check("reduction-identity", reduce_check)
    check("epsilon-expansion", expand_check)
    check("master-counts", masters_check)
    if failures:
        raise VerificationFailure(f"{failures} suite check(s) failed")
    print("suite ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


# built on the first call, not at import; parsing leaves no state in the parser
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hyperred",
        description="Differential reduction, Mellin-Barnes conversion, and "
                    "eps expansion of hypergeometric functions, all oracle-verified.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--N", type=int, default=30, help="series verification depth")
        p.add_argument("--K", type=int, default=4, help="eps truncation order")
        p.add_argument("--format", choices=("text", "jsonl"),
                       help="output format (default: $HYPERRED_FORMAT or text)")
        p.add_argument("--out", help="also write the output to this file")

    p = sub.add_parser("reduce", help="reduce a function to a shifted basis")
    p.add_argument("target")
    p.add_argument("--basis", required=True)
    p.add_argument("--no-verify", action="store_true")
    common(p)

    p = sub.add_parser("count-basis", help="nontrivial basis count for one function")
    p.add_argument("fn")
    common(p)

    p = sub.add_parser("mb", help="convert an MB integrand to hypergeometric terms")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("count-masters", help="master-integral count for a diagram")
    p.add_argument("input")
    p.add_argument("--bind", action="append", default=[],
                   metavar="NAME=VALUE", help="bind a propagator power")
    common(p)

    p = sub.add_parser("expand", help="epsilon expansion into polylogarithms")
    p.add_argument("fn")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--no-verify", action="store_true")
    common(p)

    p = sub.add_parser("check-parametrization",
                       help="rational-parametrization condition checks")
    fam = p.add_subparsers(dest="family", required=True)
    g = fam.add_parser("gauss")
    for name in ("p1", "p2", "r", "q"):
        g.add_argument(f"--{name}", type=int, required=True)
    for name in ("a1", "a2", "c"):
        g.add_argument(f"--{name}", default="1")
    g.add_argument("--beta", default=None)
    common(g)
    t = fam.add_parser("3f2")
    for name in ("r", "p", "q"):
        t.add_argument(f"--{name}", type=int, required=True)
    for name, dflt in (("a1", "1"), ("a2", "1"), ("a3", "1"), ("b1", "1"), ("b2", "1")):
        t.add_argument(f"--{name}", default=dflt)
    common(t)
    f3 = fam.add_parser("f3")
    for name in ("p1", "p2", "r1", "r2", "p", "q"):
        f3.add_argument(f"--{name}", type=int, required=True)
    common(f3)

    p = sub.add_parser("verify", help="re-verify stored results or run the suite")
    p.add_argument("path", nargs="?")
    p.add_argument("--suite", action="store_true")
    common(p)

    return ap


def _parse_bindings(pairs, extras):
    out = {}
    items = list(pairs)
    i = 0
    while i < len(extras):
        tok = extras[i]
        if tok.startswith("--") and i + 1 < len(extras):
            items.append(f"{tok[2:]}={extras[i + 1]}")
            i += 2
        else:
            raise ParseError(f"cannot interpret extra argument {tok!r}", 1, 1)
    for item in items:
        if "=" not in item:
            raise ParseError(f"binding {item!r} is not NAME=VALUE", 1, 1)
        name, val = item.split("=", 1)
        name = name.strip()
        out[name] = parse_rat(f"binding {name}", val.strip())
    return out


def run_job(spec: JobSpec, args, extras=()) -> int:
    """Dispatch one parsed job; raises engine errors for the caller to map."""
    if args.command == "reduce":
        return run_reduce(spec, args.target, args.basis)
    if args.command == "count-basis":
        return run_count_basis(spec, args.fn)
    if args.command == "mb":
        return run_mb(spec, args.input)
    if args.command == "count-masters":
        return run_count_masters(spec, args.input,
                                 _parse_bindings(args.bind, extras))
    if args.command == "expand":
        if not (0 <= args.order <= MAX_K):
            raise UnsupportedClass(f"order must be within 0..{MAX_K}")
        return run_expand(spec, args.fn, args.order)
    if args.command == "check-parametrization":
        return run_check_parametrization(spec, args.family, args)
    if args.command == "verify":
        if args.suite:
            return run_verify_suite(spec)
        if not args.path:
            raise UnsupportedClass("verify needs a result file or --suite")
        return run_verify_file(spec, args.path)
    raise UnsupportedClass(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        if argv and argv[0] == "count-masters":
            args, extras = ap.parse_known_args(argv)
        else:
            args = ap.parse_args(argv)
            extras = []
        spec = JobSpec(N=getattr(args, "N", 30), K=getattr(args, "K", 4),
                       out=getattr(args, "out", None),
                       fmt=getattr(args, "format", None)
                       or os.environ.get("HYPERRED_FORMAT", "text"),
                       no_verify=getattr(args, "no_verify", False))
        return run_job(spec, args, extras)
    except (HyperredError, OSError) as e:
        # a file that cannot be read or written is EXIT_ERROR, without a traceback
        print(f"error: {e}", file=sys.stderr)
        return exit_code_for(e)


if __name__ == "__main__":
    sys.exit(main())
