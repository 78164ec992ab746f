"""The text boundary on integers: the grammar's integer folding and the record
codec, each against its Fraction reference, and the record-rational grammar.

``grammar`` folds every linear expression as integer numerators over one
denominator; ``tests/grammar_reference.py`` folds it as a ``scalars.Linear``.
``cli`` prints and reads a ``Poly`` on its integer rep; ``tests/codec_reference.py``
goes through one Fraction per coefficient.  On every drawn input the two
give equal values with the same field types, or the same ``ParseError``
text at the same line and column, and byte-identical records.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import codec_reference
import grammar_reference
from hyperred import cli
from hyperred.errors import ParseError
from hyperred.gpl import PolyLogExpr
from hyperred.grammar import parse_input
from hyperred.poly import Poly
from hyperred.ratfunc import RatFunc
from hyperred.value import Value

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# the parser


def _shape(x):
    """x with every Fraction and int tagged by its type, Values by their fields."""
    if isinstance(x, Value):
        return type(x).__name__, _shape(x._values())
    if isinstance(x, (tuple, list)):
        return tuple(map(_shape, x))
    if isinstance(x, F):
        return "Fraction", x.numerator, x.denominator
    return type(x).__name__, x


def _parsed(parse, text):
    try:
        return _shape(parse(text))
    except ParseError as e:
        return "error", str(e), e.line, e.column


INTEGERS = st.one_of(st.integers(0, 12), st.integers(10 ** 39, 10 ** 40))
SYMBOLS = ["eps", "n", "j1", "sigma", "z", "y"]


def _extend(inner):
    return st.one_of(
        inner.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(["-", "+", "- -", "-+-"]), inner).map("".join),
        st.tuples(inner, st.sampled_from([" + ", " - ", "*", " * ", "/"]), inner).map("".join),
        st.tuples(inner, INTEGERS, INTEGERS).map(lambda t: f"{t[0]}/{t[1]}/{t[2]}"))


def exprs(symbols):
    """Linear texts over symbols: unary chains, a/b/c, constants on either side of
    *, symbols that cancel to zero, 40-digit integers."""
    atoms = [INTEGERS.map(str)]
    if symbols:
        names = st.sampled_from(symbols)
        atoms += [names, names.map(lambda s: f"({s} - {s})")]
    return st.recursive(st.one_of(*atoms), _extend, max_leaves=8)


CONSTS, EPS, MB_FORMS, ANY = exprs([]), exprs(["eps"]), exprs(SYMBOLS[1:]), exprs(SYMBOLS)
# mostly the value each slot takes, sometimes any expression
PARAMS, FORMS = st.one_of(EPS, EPS, ANY), st.one_of(MB_FORMS, MB_FORMS, ANY)
ARGUMENTS = st.one_of(st.tuples(CONSTS, st.sampled_from(SYMBOLS[1:])).map("({0[0]})*{0[1]}".format),
                      st.tuples(st.sampled_from(SYMBOLS[1:]), CONSTS).map("{0[0]}/({0[1]})".format),
                      st.sampled_from(SYMBOLS[4:]), ANY)
# whitespace between the parts moves the error positions across lines
GAPS = st.sampled_from(["", " ", "\n", "  \n\t"])


@st.composite
def hyper_texts(draw):
    p = draw(st.integers(0, 2))
    ups = draw(st.lists(PARAMS, min_size=p + 1, max_size=p + 1) | st.lists(PARAMS, max_size=4))
    los = draw(st.lists(PARAMS, min_size=p, max_size=p) | st.lists(PARAMS, max_size=3))
    gap = draw(GAPS)
    return (f"{p + 1}F{p}[{gap}{(',' + gap).join(ups)};{gap}{', '.join(los)}; "
            f"{draw(ARGUMENTS)}{gap}]")


@st.composite
def mb_texts(draw):
    forms = [", ".join(draw(st.lists(FORMS, max_size=3))) for _ in range(4)]
    gap = draw(GAPS)
    return f"MB[{draw(ARGUMENTS)};{gap}" + ";".join(f"[{f}]" for f in forms) + "]"


@settings(max_examples=400, deadline=None)
@given(st.one_of(hyper_texts(), mb_texts()))
@example("2F1[1/2+eps, -eps; 1+2*eps; z]")
@example("2F1[(1/2)/(3/4)/-5*eps - -eps, 2*(eps-eps)*eps; 1 - (a - a); 3*z/6]")
@example("MB[-1/4*y; [j1+j2+sigma-n/2, j1, j2, n/2-sigma]; [n/2, (j1+j2)/2, (j1+j2+1)/2]; []; []]")
@example("2F1[eps*eps, 1; 1; z]")
@example("2F1[1/(eps - eps), 1; 1; z]")
@example("2F1[a, b - b; 1;\n  z + 1]")
@example("MB[z; [eps]; []; []; []]")
@example("3F2[1, 2, 3; 4, 5; 1234567890123456789012345678901234567890*z/2]")
def test_integer_folding_matches_the_linear_reference(text):
    assert _parsed(parse_input, text) == _parsed(grammar_reference.parse_input, text)


@pytest.mark.parametrize("text", ["@c3", "@v1200", "@nope", "x", "", "2F1[1, 1; 1; z] 7"])
def test_presets_and_heads_match_the_reference(text):
    assert _parsed(parse_input, text) == _parsed(grammar_reference.parse_input, text)


# ---------------------------------------------------------------------------
# the record codec

BIG = st.integers(-(10 ** 30), 10 ** 30)
RATIONALS = st.builds(F, BIG, st.integers(1, 10 ** 20))


@st.composite
def polys(draw, vars):
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(vars)), RATIONALS,
                                 max_size=6))
    return Poly.from_terms(vars, terms)


@st.composite
def ratfuncs(draw):
    vars = draw(st.sampled_from([("eps", "z"), ("n", "y"), ("z",)]))
    den = draw(polys(vars))
    if den.is_zero():
        den = Poly.const(vars, draw(RATIONALS.filter(bool)))
    return RatFunc(draw(polys(vars)), den)


LETTERS = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-9, 9), st.integers(1, 5)))
WORDS = st.lists(LETTERS, min_size=1, max_size=4).filter(lambda w: w[-1] != 0).map(tuple)
POLYLOGS = st.builds(PolyLogExpr, st.dictionaries(WORDS, RATIONALS, max_size=8), RATIONALS,
                     st.sampled_from(["z", "y", "xi"]))


def _line(rec) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


@settings(max_examples=200, deadline=None)
@given(ratfuncs())
def test_ratfunc_encoding_is_byte_identical_and_round_trips(r):
    rec = cli.enc_ratfunc(r)
    assert _line(rec) == _line(codec_reference.enc_ratfunc(r))
    assert cli.dec_ratfunc(rec) == r == codec_reference.dec_ratfunc(rec)


@settings(max_examples=200, deadline=None)
@given(POLYLOGS)
def test_polylog_encoding_is_byte_identical_and_round_trips(e):
    rec = cli.enc_polylog(e)
    assert _line(rec) == _line(codec_reference.enc_polylog(e))
    back = cli.dec_polylog(rec)
    assert back == e == codec_reference.dec_polylog(rec)
    assert _shape(sorted(back.terms, key=str)) == _shape(sorted(e.terms, key=str))


RECORDS = sorted(GOLDEN.glob("reduce-*.jsonl.out")) + sorted(GOLDEN.glob("expand-*.jsonl.out"))


@pytest.mark.parametrize("path", RECORDS + [GOLDEN / "stored.jsonl"], ids=lambda p: p.name)
def test_golden_records_re_encode_to_their_lines(path):
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        back = cli._encode_record(cli._decode_record(rec), rec["N"], rec.get("K"))
        assert _line(back) == line


# ---------------------------------------------------------------------------
# the record-rational grammar: -?[0-9]+ or -?[0-9]+/[0-9]+, the denominator nonzero

# spellings of the first S coefficient, -1/10, and of S's denominator 1; the
# Fraction reader took each refused one, at the same value
FIRST_S = [("-1/10", 0), ("-2/20", 0), ("-01/10", 0),
           (" -1/10 ", 2), ("-١/١0", 2), ("-0.1", 2), ("-1e-1", 2), ("-1/1_0", 2),
           ("-1/10\n", 2), ("-1/١0", 2)]
S_DEN = [("1", 0), ("+1", 2), (" 1", 2), ("0_1", 2), ("١", 2), ("1.0", 2), ("1e0", 2), (1, 2)]


def _verify_with(tmp_path, capsys, edit):
    good, expand = (GOLDEN / "stored.jsonl").read_text().splitlines()
    rec = json.loads(good)
    edit(rec)
    path = tmp_path / "stored.jsonl"
    path.write_text(f"{json.dumps(rec)}\n{expand}\n")
    code = cli.main(["verify", str(path)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("spelling,code", FIRST_S)
def test_record_rationals_in_a_coefficient(tmp_path, capsys, spelling, code):
    assert codec_reference.dec_rat(spelling) == F(-1, 10)

    def edit(rec):
        assert rec["s"]["num"][0] == [[0, 0], "-1/10"]
        rec["s"]["num"][0][1] = spelling
    got, (out, err) = _verify_with(tmp_path, capsys, edit)
    assert got == code, (spelling, out, err)
    if code:
        assert out == "" and "malformed stored record (ValueError: " in err
        assert "is not a rational n or n/d in decimal digits) at line 1," in err
    else:
        assert out.startswith("reduce record ok: ")


@pytest.mark.parametrize("spelling,code", S_DEN)
def test_record_rationals_in_a_denominator(tmp_path, capsys, spelling, code):
    if isinstance(spelling, str):
        assert codec_reference.dec_rat(spelling) == 1
    got, (out, err) = _verify_with(
        tmp_path, capsys, lambda rec: rec["s"]["den"][0].__setitem__(1, spelling))
    assert got == code, (spelling, out, err)
    if code:
        assert out == "" and "malformed stored record (" in err and "at line 1," in err


@pytest.mark.parametrize("spelling,kind", [("1/0", "ZeroDivisionError"), ("1/-2", "ValueError"),
                                           ("1/", "ValueError"), ("-", "ValueError"),
                                           ("1/2/3", "ValueError"), ("--1", "ValueError")])
def test_malformed_rationals_stay_refused(tmp_path, capsys, spelling, kind):
    got, (out, err) = _verify_with(
        tmp_path, capsys, lambda rec: rec["s"]["num"][0].__setitem__(1, spelling))
    assert got == 2 and f"malformed stored record ({kind}: " in err, err


def test_a_letter_takes_the_same_grammar(tmp_path, capsys):
    """Letters and layer coefficients of an expand record are record rationals too."""
    good, expand = (GOLDEN / "stored.jsonl").read_text().splitlines()
    for old, new, code in (('"letters":["0","1"]', '"letters":["0","2/2"]', 0),
                           ('"letters":["0","1"]', '"letters":["0","+1"]', 2),
                           ('"coeff":"-6"', '"coeff":"-6.0"', 2)):
        assert old in expand
        path = tmp_path / "expand.jsonl"
        path.write_text(f"{good}\n{expand.replace(old, new)}\n")
        assert cli.main(["verify", str(path)]) == code, new
        out, err = capsys.readouterr()
        assert ("at line 2," in err) if code else out.endswith("expand record ok: "
                                                                "2F1[2*eps, 3*eps; 1+5*eps; z]\n")
