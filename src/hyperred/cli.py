"""Command-line front end and exact-value serialization.

Machine-readable output is line-delimited JSON with every rational encoded
as a "num/den" string; identical jobs produce byte-identical output.  A
record is one line of JSON with sorted keys and no spaces; an expand record,
which may hold thousands of words, is formatted straight from its layers,
one fragment per term, with no dict built (``_encode_record``).
Engine failures map to distinct exit codes: parse errors and unbound
symbols 2, unsupported inputs 3, exceptional or singular parameters 4,
verification failures 5; a file that cannot be read or written exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import List, Optional

from .errors import (CriterionViolation, DegeneratePoles, HyperredError,
                     NoFactorization, NotIntegerShift, NotTriangular, ParseError,
                     PoleAtEpsZero, SingularStep, UnboundSymbols, UncancelledPole,
                     UnsupportedClass, VerificationFailure)
from .expansion import (EpsilonExpansion, direct_layer0, epsilon_expand, expansion_class,
                        f3_parametrization_check, gauss_flags, gauss_triangular_system,
                        three_f2_system, verify_expansion)
from .gpl import PolyLogExpr, _letter, term_word
from .grammar import parse_hyper, parse_input
from .mb import DiagramPreset, MBRepr, count_master_integrals, mb_to_hyper
from .poly import Poly, _from_terms
from .ratfunc import RatFunc
from .reduction import (ReductionResult, detect_exceptional, ode_operator, reduce_to_basis,
                        shift_vector, tail_upper, verify_depth, verify_reduction)
from .series import series_of_hyper

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_EXCEPTIONAL = 4
EXIT_VERIFY = 5

MAX_N = 200
MAX_K = 8
# a stored polynomial's exponents: ten times the deepest check, so a record
# past the depth bound by that much still meets its own gate, while
# RatFunc's gcd never runs on a degree that takes it seconds
MAX_EXPONENT = 10 * MAX_N
REDUCE_CHECK_K = 4      # a reduction is checked to eps^min(K, REDUCE_CHECK_K)


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


# a record rational: str prints an int as n, and a Fraction as n/d, or as n when d is 1
enc_rat = str


def _dec_ints(s: str):
    """(n, d) of a record rational n or n/d, in ASCII decimal digits with an
    optional minus on n; a zero d raises ZeroDivisionError where it divides."""
    n, slash, d = s.partition("/")
    digits = n[1:] if n[:1] == "-" else n
    if not (digits.isdigit() and digits.isascii() and (not slash or d.isdigit() and d.isascii())):
        raise ValueError(f"{s!r} is not a rational n or n/d in decimal digits")
    return int(n), int(d) if slash else 1


def dec_rat(s: str) -> Fraction:
    return Fraction(*_dec_ints(s))


def parse_rat(what: str, text: str) -> Fraction:
    """A rational option value; a malformed one is a ParseError (exit 2)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what} is not a rational number: {text!r}") from None


def enc_ratfunc(r: RatFunc) -> dict:
    return {"vars": list(r.vars), "num": _enc_poly(r.num), "den": _enc_poly(r.den)}


def _enc_poly(p: Poly) -> list:
    """p's [exponents, coefficient] pairs, sorted, off its rep: one gcd per coefficient."""
    terms, den = [((), p.rep)], p.den
    for _ in range(p.d):        # the outermost rep level is the last variable
        terms = [((i,) + e, c) for e, rep in terms for i, c in enumerate(rep) if c]
    terms.sort()
    out = []
    for e, c in terms:
        g = gcd(c, den)
        out.append([list(e), f"{c // g}/{den // g}" if g != den else str(c // g)])
    return out


def _list(x) -> list:
    """x, where a record holds a list: a string there would read as its characters."""
    if type(x) is not list:
        raise ValueError(f"{json.dumps(x)} is not a list")
    return x


def dec_ratfunc(d: dict, expect: Optional[tuple] = None) -> RatFunc:
    """The RatFunc a record holds, over the variables ``expect`` when given, each
    polynomial read as integers over the lcm of its denominators.  _from_terms
    trusts its exponents: each must be a non-negative int, and no list may repeat.
    An exponent above MAX_EXPONENT is unsupported, refused before any gcd."""
    vars = tuple(_list(d["vars"]))
    if expect not in (None, vars):
        raise ValueError(f"expected variables {list(expect)}, got {list(vars)}")
    for e, _ in d["num"] + d["den"]:
        if len(e) != len(vars) or any(type(x) is not int or x < 0 for x in e):
            raise ValueError(f"exponents {e} are not one non-negative integer per variable")
        if max(e, default=0) > MAX_EXPONENT:
            raise UnsupportedClass(f"a stored polynomial has exponent {max(e)}, "
                                   f"above {MAX_EXPONENT}")

    def mk(terms):
        ratios = _unique(((tuple(e), _dec_ints(c)) for e, c in terms), "exponent list")
        den = lcm(*(q for _, q in ratios.values()))
        ints = {e: p * (den // q) for e, (p, q) in ratios.items()}
        return Poly(vars, _from_terms(ints, len(vars)), den)
    return RatFunc(mk(d["num"]), mk(d["den"]))


def _unique(pairs, what: str) -> dict:
    """dict(pairs), unless two of the pairs share a key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"{what} [{', '.join(map(str, key))}] repeats")
        out[key] = value
    return out


def dec_polylog(d: dict) -> PolyLogExpr:
    # past the constructor, with its checks: each letter read once, as as_word keeps it
    letter = {s: _letter(dec_rat(s))
              for s in {s for t in _list(d["terms"]) for s in _list(t["letters"])}}
    terms = _unique(((tuple(map(letter.__getitem__, t["letters"])), dec_rat(t["coeff"]))
                     for t in d["terms"]), "word")
    const, var = dec_rat(d["const"]), d["var"]
    for w in terms:
        term_word(w)
    return PolyLogExpr._of({w: c for w, c in terms.items() if c}, const, var)   # zeros dropped


# ---------------------------------------------------------------------------
# job running


def _check_bounds(N: int, K: int, what: str = "the job", value=None):
    """The one exit-3 gate: a check at series depth N outside 1..MAX_N, or at
    eps order K outside 0..MAX_K, is unsupported.  Given a ReductionResult,
    N is its verify_depth; given an EpsilonExpansion, K is len(layers) - 1."""
    if isinstance(value, ReductionResult):
        N = verify_depth(value, N)
    elif value is not None:
        K = len(value.layers) - 1
    for name, x, low, high in (("needs series depth", N, 1, MAX_N),
                               ("has eps order", K, 0, MAX_K)):
        if not low <= x <= high:
            raise UnsupportedClass(f"{what} {name} {x}, "
                                   + (f"above {high}" if x > high else f"below {low}"))


def _check_oracle(value, N: int, K: int, whose: str):
    """Check a ReductionResult at (N, K), or every layer of an EpsilonExpansion
    at N, on the series oracle; a mismatch is a VerificationFailure (exit 5)."""
    if isinstance(value, ReductionResult):
        ok, mism = verify_reduction(value, N, K)
        what, at = "reduction", "z^"
    else:
        ok, mism = verify_expansion(value.fn, value, N)
        what, at = "expansion", "power "
    if not ok:
        raise VerificationFailure(f"{whose} {what} fails oracle at ({at}{mism[0]}, eps^{mism[1]})")


def _load_expr(text: str) -> str:
    """Expression arguments may name a file as file:PATH."""
    if text.startswith("file:"):
        with open(text[5:]) as fh:
            return fh.read().strip()
    return text


# a record's JSON line, sorted keys and no spaces: json.dumps with these
# options, whose encoder is built once here rather than once per call
_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _emit(lines: List[str], args, text_lines: List[str]):
    """Print the JSON lines or the text lines, as args.format asks, and
    write the same bytes to args.out when given."""
    body = "\n".join(lines if args.format == "jsonl" else text_lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body + "\n")
    print(body)


def _print_checked(value, args, K: int) -> int:
    """Gate, check and print a fresh reduction or expansion.  Each format
    reads every coefficient of the result, so build only the one printed."""
    reduction = isinstance(value, ReductionResult)
    _check_bounds(args.N, K, "the reduction" if reduction else "the expansion", value)
    _check_oracle(value, args.N, K, "the")
    if args.format == "jsonl":
        _emit([_encode_record(value, args.N, K)], args, [])
        return EXIT_OK
    if reduction:
        lines = [f"target: {value.target}", f"basis:  {value.basis}", f"S  = {value.s_poly}"]
        lines += [f"R{j} = {r}" for j, r in enumerate(value.r_polys)]
        if not value.algebraic_tail.is_zero():
            lines.append(f"tail = {value.algebraic_tail}")
    else:
        lines = [f"fn: {value.fn}", f"class: {value.kind}"]
        if value.kind == "xi":
            v = value.fn.var
            lines.append(f"layers are for sqrt(-{v})*F in xi = ({v}/({v}-1))^(1/2)")
            lines.append(f"eps^0: {value.layers[0]}")
        else:
            lines.append(f"eps^0: {value.omega0}")
        lines += [f"eps^{k}: {value.layers[k]}" for k in range(1, len(value.layers))]
    _emit([], args, lines + [f"verified against series oracle at N={args.N}"])
    return EXIT_OK


def run_reduce(args) -> int:
    result = reduce_to_basis(parse_hyper(_load_expr(args.target)),
                             parse_hyper(_load_expr(args.basis)))
    return _print_checked(result, args, min(args.K, REDUCE_CHECK_K))


def run_count_basis(args) -> int:
    fn = parse_hyper(_load_expr(args.fn))
    rep = detect_exceptional(fn)
    rec = {
        "command": "count-basis",
        "fn": str(fn),
        "L": rep.count,
        "integer_uppers": list(rep.integer_uppers),
        "pairs": [list(p) for p in rep.pairs],
        "shared_flags": list(rep.shared_flags),
    }
    lines = [f"fn: {fn}", f"L = {rep.count}",
             f"integer uppers: {list(rep.integer_uppers)}",
             f"cancellable pairs (upper, lower, diff): {list(rep.pairs)}"]
    if rep.shared_flags:
        lines.append(f"warning: uppers {list(rep.shared_flags)} are integer and paired")
    _emit([_line(rec)], args, lines)
    return EXIT_OK


def _mb_of(parsed) -> MBRepr:
    if isinstance(parsed, DiagramPreset):
        return parsed.mb
    if isinstance(parsed, MBRepr):
        return parsed
    raise ParseError("expected an MB[...] spec or @preset", 1, 1)


def run_mb(args) -> int:
    mb = _mb_of(parse_input(_load_expr(args.input)))
    hs = mb_to_hyper(mb)
    recs = []
    lines = [f"input: {mb}", f"terms: {hs.q}"]
    for i, t in enumerate(hs.terms):
        recs.append({
            "command": "mb",
            "term": i,
            "power": str(t.power),
            "gamma": str(t.gamma),
            "fn": str(t.fn),
        })
        lines.append(f"term {i}: z^({t.power}) * {t.gamma} * {t.fn}")
    _emit([_line(r) for r in recs], args, lines)
    return EXIT_OK


def run_count_masters(args) -> int:
    mb = _mb_of(parse_input(_load_expr(args.input)))
    bindings = _parse_bindings(args.bind, mb)
    hs = mb_to_hyper(mb)
    L, reports = count_master_integrals(hs, bindings)
    rec = {
        "command": "count-masters",
        "input": str(mb),
        "bindings": {k: enc_rat(v) for k, v in bindings.items()},
        "L": L,
        "terms": [{"fn": str(fn), "integer_uppers": list(r.integer_uppers),
                   "pairs": [list(p) for p in r.pairs]} for fn, r in reports],
    }
    lines = [f"L = {L}"]
    for fn, r in reports:
        lines.append(f"  {fn}: integer uppers {list(r.integer_uppers)}, "
                     f"pairs {list(r.pairs)}")
    _emit([_line(rec)], args, lines)
    return EXIT_OK


def run_expand(args) -> int:
    return _print_checked(epsilon_expand(parse_hyper(_load_expr(args.fn)), args.K), args, args.K)


def run_check_parametrization(opts) -> int:
    if opts.q < 1:
        raise ParseError(f"--q must be >= 1, got {opts.q}")
    if opts.family == "gauss":
        rec = {"command": "check-parametrization", "family": "gauss"}
        lines = []
        if opts.beta is not None:
            # any other beta raises NotTriangular (exit 3)
            gauss_triangular_system(opts.p1, opts.p2, opts.r, opts.q,
                                    parse_rat("--beta", opts.beta))
            rec["triangular"] = True
            lines.append(f"triangular with beta={opts.beta}: True")
        flags = gauss_flags(Fraction(opts.p1, opts.q), Fraction(opts.p2, opts.q),
                            Fraction(opts.r, opts.q))
        rec.update(flags)
        lines.append(f"p1*p2=0 case: {flags['p1p2_zero']}; p1=0 case: {flags['p1_zero']}; "
                     f"beta=-r/q=p1/q=p2/q (Lemma IV) case: {flags['lemma_iv']}")
    elif opts.family == "3f2":
        deforms = [parse_rat(f"--{name}", getattr(opts, name))
                   for name in ("a1", "a2", "a3", "b1", "b2")]
        for name, x in zip(("a1", "a2", "a3"), deforms):
            if x == 0:
                raise ParseError(f"--{name} must be nonzero, got {getattr(opts, name)}")
        deltas, rep = three_f2_system(opts.r, opts.p, opts.q, *deforms)
        rational = rep.xi_description is not None
        rec = {"command": "check-parametrization", "family": "3f2",
               "deltas": [enc_rat(d) for d in deltas],
               "h_exponents": [enc_rat(e) for e in rep.h_exponents],
               "rational_parametrization": rational,
               "case": rep.case}
        lines = [f"h(z) = z^({rep.h_exponents[0]}) (z-1)^({rep.h_exponents[1]})",
                 f"rational parametrization exists: {rational}"]
    else:
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
    _emit([_line(rec)], opts, lines)
    return EXIT_OK


def _encode_record(value, N: int, K: int) -> str:
    """The record line of a reduction checked at (N, K) or an expansion checked
    at N (its eps order is len(layers) - 1); _decode_record reads its JSON.

    An expand record is written as ``_line`` would write its dict, straight
    from its layers, one fragment per term: a rational prints as a record
    rational, which needs no JSON escaping, and N is an int."""
    if isinstance(value, ReductionResult):
        return _line({"command": "reduce", "target": str(value.target),
                      "basis": str(value.basis), "s": enc_ratfunc(value.s_poly),
                      "r": [enc_ratfunc(r) for r in value.r_polys],
                      "tail": enc_ratfunc(value.algebraic_tail), "affine": value.affine,
                      "verified": True, "N": N, "K": K})
    omega0 = _line(enc_ratfunc(value.omega0)) if value.omega0 is not None else "null"
    quoted = _Quoted()
    layers = ",".join([_polylog_line(l, quoted) for l in value.layers])
    return (f'{{"N":{N},"command":"expand","fn":{_line(str(value.fn))},'
            f'"kind":{_line(value.kind)},"layers":[{layers}],"omega0":{omega0},'
            f'"var":{_line(value.var)},"verified":true}}')


class _Quoted(dict):
    """letter -> its record rational in JSON quotes, each letter printed once."""

    def __missing__(self, a):
        s = self[a] = f'"{enc_rat(a)}"'
        return s


def _polylog_line(e: PolyLogExpr, quoted: _Quoted) -> str:
    """A layer's JSON, {"const", "terms": [{"coeff", "letters"}, ...], "var"},
    its terms sorted by length, then word, one formatted fragment per term."""
    q = quoted.__getitem__
    terms = ",".join(['{"coeff":"%s","letters":[%s]}' % (c, ",".join(map(q, w)))
                      for w, c in e.sorted_terms()])
    return f'{{"const":"{enc_rat(e.const)}","terms":[{terms}],"var":{_line(e.var)}}}'


def _decode_record(rec: dict):
    """The ReductionResult or EpsilonExpansion a stored record holds; a
    ValueError for a shape or a field no job writes for its function, and
    UnsupportedClass for a function the job would refuse.  The record's N
    and K are not read: the verifier checks at its own depth."""
    cmd = rec.get("command")
    if cmd == "reduce":
        target, basis = parse_hyper(rec["target"]), parse_hyper(rec["basis"])
        piece = lambda d: dec_ratfunc(d, ("eps", target.var))
        affine = tail_upper(basis, shift_vector(target, basis)[0]) is not None
        if rec["affine"] is not affine:
            raise ValueError(f"affine is {json.dumps(affine)} for this target and basis,"
                             f" got {json.dumps(rec['affine'])}")
        return ReductionResult(
            target=target,
            basis=basis,
            s_poly=piece(rec["s"]),
            r_polys=tuple(piece(r) for r in _list(rec["r"])),
            algebraic_tail=piece(rec["tail"]),
            affine=affine)
    if cmd == "expand":
        kind, omega0, layers = rec["kind"], rec["omega0"], rec["layers"]
        if kind not in ("direct", "xi") or (omega0 is None) == (kind == "direct") or not layers:
            raise ValueError("an expand record needs kind 'direct' with omega0 or 'xi' with"
                             f" omega0 null, and a layer; got {kind!r}, omega0"
                             f" {'null' if omega0 is None else 'set'}, {len(layers)} layers")
        fn = parse_hyper(rec["fn"])
        if expansion_class(fn) != kind:
            raise ValueError(f"{fn} expands as kind {expansion_class(fn)!r}, not {kind!r}")
        var = "xi" if kind == "xi" else fn.var
        if {rec["var"], *(l["var"] for l in layers)} != {var}:
            raise ValueError(f"an expand record of kind {kind!r} and its layers are in {var!r}")
        exp = EpsilonExpansion(
            fn=fn, kind=kind, var=var,
            omega0=dec_ratfunc(omega0, (fn.var,)) if omega0 is not None else None,
            layers=tuple(dec_polylog(l) for l in layers))
        if kind == "direct" and exp.layers[0] != direct_layer0(exp.omega0, var):
            raise ValueError("a direct record's layer 0 is 1 when omega0 is 1, and 0 otherwise")
        return exp
    raise UnsupportedClass(f"cannot verify record kind {cmd!r}")


def run_verify(args) -> int:
    """Run the suite, or re-check stored records at this job's N and min(K, 4).

    Every record is decoded before the first check; a malformed one, or a
    file with no record (at line 1), is a ParseError naming its line (exit
    2), and one whose check would run past a job's bounds (a reduce
    record's verify_depth above MAX_N, an expand record's eps order above
    MAX_K) is refused as a job's would be (exit 3).
    """
    if args.suite:
        return run_verify_suite()
    K = min(args.K, REDUCE_CHECK_K)
    jobs = []
    with open(args.path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                value = _decode_record(rec)
            except (ParseError, ValueError, ZeroDivisionError, KeyError, TypeError,
                    AttributeError) as e:
                raise ParseError(f"malformed stored record ({type(e).__name__}: {e})",
                                 lineno, 1) from None
            _check_bounds(args.N, K, f"{rec['command']} record at line {lineno}", value)
            jobs.append((rec, value))
    if not jobs:
        raise ParseError("malformed stored file (no record)", 1, 1)
    for rec, value in jobs:
        _check_oracle(value, args.N, K, "stored")
        name = rec["target"] if isinstance(value, ReductionResult) else rec["fn"]
        print(f"{rec['command']} record ok: {name}")
    return EXIT_OK


def run_verify_suite() -> int:
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
        _check_oracle(reduce_to_basis(target, basis), 20, 2, "the")

    def expand_check():
        f = parse_hyper("2F1[2*eps, 3*eps; 1+5*eps; z]")
        _check_oracle(epsilon_expand(f, 3), 20, 3, "the")

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
                    "eps expansion of hypergeometric functions; reduce, expand and "
                    "verify check their results on the series oracle.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, run, N=False, K=False, emits=True):
        p.set_defaults(run=run)
        if N:
            p.add_argument("--N", type=int, default=30, help="series verification depth")
        if K:
            p.add_argument("--K", type=int, default=4, help="eps order of the oracle check, "
                           f"capped at {REDUCE_CHECK_K}")
        if emits:       # a command that prints through _emit
            p.add_argument("--format", choices=("text", "jsonl"), default="text",
                           help="output format")
            p.add_argument("--out", help="also write the output to this file")

    p = sub.add_parser("reduce", help="reduce a function to a shifted basis")
    p.add_argument("target")
    p.add_argument("--basis", required=True)
    common(p, run_reduce, N=True, K=True)

    p = sub.add_parser("count-basis", help="nontrivial basis count for one function")
    p.add_argument("fn")
    common(p, run_count_basis)

    p = sub.add_parser("mb", help="convert an MB integrand to hypergeometric terms")
    p.add_argument("input")
    common(p, run_mb)

    p = sub.add_parser("count-masters", help="master-integral count for a diagram")
    p.add_argument("input")
    p.add_argument("--bind", action="append", default=[],
                   metavar="NAME=VALUE", help="bind a propagator power")
    common(p, run_count_masters)

    p = sub.add_parser("expand", help="epsilon expansion into polylogarithms")
    p.add_argument("fn")
    p.add_argument("--order", dest="K", type=int, required=True)
    common(p, run_expand, N=True)

    p = sub.add_parser("check-parametrization",
                       help="rational-parametrization condition checks")
    fam = p.add_subparsers(dest="family", required=True)
    g = fam.add_parser("gauss")
    for name in ("p1", "p2", "r", "q"):
        g.add_argument(f"--{name}", type=int, required=True)
    g.add_argument("--beta", default=None)
    common(g, run_check_parametrization)
    t = fam.add_parser("3f2")
    for name in ("r", "p", "q"):
        t.add_argument(f"--{name}", type=int, required=True)
    for name, dflt in (("a1", "1"), ("a2", "1"), ("a3", "1"), ("b1", "1"), ("b2", "1")):
        t.add_argument(f"--{name}", default=dflt)
    common(t, run_check_parametrization)
    f3 = fam.add_parser("f3")
    for name in ("p1", "p2", "r1", "r2", "p", "q"):
        f3.add_argument(f"--{name}", type=int, required=True)
    common(f3, run_check_parametrization)

    p = sub.add_parser("verify", help="re-verify stored results or run the suite")
    path_or_suite = p.add_mutually_exclusive_group(required=True)   # the suite reads no file
    path_or_suite.add_argument("path", nargs="?")
    path_or_suite.add_argument("--suite", action="store_true")
    common(p, run_verify, N=True, K=True, emits=False)

    return ap


def _parse_bindings(pairs, mb: MBRepr):
    """The values of NAME=VALUE pairs, each NAME a symbol of mb's forms but n, once."""
    symbols = {s for f in mb.a_forms + mb.b_forms + mb.c_forms + mb.d_forms for s in f.symbols}
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ParseError(f"binding {item!r} is not NAME=VALUE")
        name, val = (x.strip() for x in item.split("=", 1))
        if name == "n":
            raise ParseError("cannot bind n: it is the dimension, n = 4 - 2*eps")
        if name not in symbols:
            raise ParseError(f"cannot bind {name}: the input has no symbol {name} "
                             f"(its symbols are {', '.join(sorted(symbols - {'n'}))})")
        if name in out:
            raise ParseError(f"binding {name} repeats")
        out[name] = parse_rat(f"binding {name}", val)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        _check_bounds(getattr(args, "N", 1), getattr(args, "K", 0))
        return args.run(args)
    except (HyperredError, OSError) as e:
        # a file that cannot be read or written is EXIT_ERROR, without a traceback
        print(f"error: {e}", file=sys.stderr)
        return exit_code_for(e)


if __name__ == "__main__":
    sys.exit(main())
