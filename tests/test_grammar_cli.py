"""Input grammar round-trips and the command-line contract."""

import argparse
import contextlib
import copy
import io
import json
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import grammar_reference
from hyperred.cli import dec_ratfunc, enc_ratfunc
from hyperred.errors import ParseError
from hyperred.grammar import _tokenize, parse_hyper, parse_input
from hyperred.hyper import HyperFn
from hyperred.mb import PRESETS, DiagramPreset, get_preset
from hyperred.poly import Poly
from hyperred.ratfunc import RatFunc
from hyperred.scalars import EpsLin


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hyperred.cli", *args],
                          capture_output=True, text=True)


def test_parse_basic():
    fn = parse_hyper("2F1[1/2+eps, -eps; 1+2*eps; z]")
    assert fn == HyperFn([EpsLin(F(1, 2), 1), EpsLin(0, -1)], [EpsLin(1, 2)])
    assert fn.var == "z" and fn.kappa == 1


def test_parse_arity_error():
    with pytest.raises(ParseError):
        parse_input("2F1[1/2; 1; z]")


def test_parse_unknown_symbol():
    with pytest.raises(ParseError) as e:
        parse_input("2F1[a, 1; 1; z]")
    assert "a" in str(e.value)


def test_parse_preset():
    p = parse_input("@v1200")
    assert isinstance(p, DiagramPreset)
    assert p.mb == get_preset("v1200").mb


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_input("2F1[1/2+eps, -eps; 1+2*eps; z")
    assert e.value.line == 1 and e.value.column >= 28


def _scan(tokenize, text):
    """The (kind, text, line, col) tokens of text, or ("error", message, line, column)."""
    try:
        return [tuple(t) for t in tokenize(text)]
    except ParseError as e:
        return ("error", str(e), e.line, e.column)


# ASCII printable characters, tab, newline, an accented letter and an Arabic-Indic digit
SCANNER_TEXT = st.text(st.sampled_from([chr(c) for c in range(32, 127)] + ["\t", "\n", "é", "٣"]),
                       max_size=40)


@settings(max_examples=300, deadline=None)
@given(SCANNER_TEXT)
@example("2F1[1/2+eps, -eps;\n\t1+2*eps; z]")
@example("MB[-1/4*y; [j1+j2-n/2]; [n/2]; []; []]\n@v1200 ?")
@example("x\n\n  é٣ = 12٣4\n")
def test_tokenize_matches_reference_scanner(text):
    assert _scan(_tokenize, text) == _scan(grammar_reference.tokenize, text)


@pytest.mark.parametrize("text,ours,reference", [
    ("[²]", [("[", "[", 1, 1), ("name", "²", 1, 2), ("]", "]", 1, 3), ("end", "", 1, 4)],
     [("[", "[", 1, 1), ("int", "²", 1, 2), ("]", "]", 1, 3), ("end", "", 1, 4)]),
    ("1²", [("int", "1", 1, 1), ("name", "²", 1, 2), ("end", "", 1, 3)],
     [("int", "1²", 1, 1), ("end", "", 1, 3)]),
    ("½+eps", [("name", "½", 1, 1), ("+", "+", 1, 2), ("name", "eps", 1, 3), ("end", "", 1, 6)],
     ("error", "unexpected character '½' at line 1, column 1", 1, 1)),
])
def test_tokenize_reads_non_decimal_numerals_as_names(text, ours, reference):
    """The one intended difference from the reference: numeric characters that
    are not decimal digits (str.isdigit accepts ², int() does not) are names."""
    assert _scan(_tokenize, text) == ours
    assert _scan(grammar_reference.tokenize, text) == reference


def test_parse_mb():
    m = parse_input("MB[-1/4*y; [j1+j2+sigma-n/2, j1, j2, n/2-sigma]; "
                    "[n/2, (j1+j2)/2, (j1+j2+1)/2]; []; []]")
    ref = get_preset("c3").mb
    assert sorted(f.sort_key() for f in m.a_forms) == \
        sorted(f.sort_key() for f in ref.a_forms)
    assert m.kappa == F(-1, 4)


def test_round_trip_hyper():
    rng = random.Random(19)
    for _ in range(25):
        p = rng.choice((1, 2, 3))
        up = [EpsLin(F(rng.randint(-9, 9), rng.randint(1, 6)),
                     F(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(p + 1)]
        lo = [EpsLin(F(rng.randint(1, 9), rng.randint(1, 6)),
                     F(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(p)]
        kappa = F(rng.choice((-1, 1, 4, -1)), rng.choice((1, 4)))
        fn = HyperFn(up, lo, kappa, rng.choice(("z", "y", "w")))
        assert parse_hyper(str(fn)) == fn


def test_round_trip_mb_presets():
    """str(MBRepr) is the MB[...] input form: every preset parses back."""
    for name in PRESETS:
        mb = get_preset(name).mb
        assert parse_input(str(mb)) == mb, str(mb)


def test_cli_expand_and_verify():
    r = run_cli("expand", "2F1[2*eps,3*eps;1+5*eps;z]", "--order", "2")
    assert r.returncode == 0, r.stderr
    assert "G(0,1;z)" in r.stdout
    assert "verified" in r.stdout


def test_cli_count_masters_presets():
    r = run_cli("count-masters", "@c3", "--bind", "j1=1", "--bind", "j2=1", "--bind", "sigma=1")
    assert r.returncode == 0, r.stderr
    assert "L = 2" in r.stdout


def test_cli_exit_codes():
    r = run_cli("expand", "2F1[oops; 1; z]", "--order", "2")
    assert r.returncode == 2
    r = run_cli("expand", "2F1[1/3+eps,eps;1+eps;z]", "--order", "2")
    assert r.returncode == 3
    r = run_cli("reduce", "2F1[1/3,1/5;-1+eps;z]", "--basis", "2F1[1/3,1/5;-2+eps;z]")
    assert r.returncode == 4
    r = run_cli("verify", "/nonexistent/x", "--suite")
    assert r.returncode == 2   # the suite reads no file: a path with --suite is refused


def test_cli_deterministic_jsonl():
    args = ("expand", "2F1[2*eps,3*eps;1+5*eps;z]", "--order", "2",
            "--format", "jsonl")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    rec = json.loads(a.stdout.strip())
    assert rec["verified"] is True
    assert rec["layers"][2]["terms"][0]["coeff"] == "-6"


def test_cli_saved_result_verification(tmp_path):
    out = tmp_path / "result.jsonl"
    r = run_cli("reduce", "2F1[7/5+eps,1/3-eps;1/2+2*eps;z]",
                "--basis", "2F1[2/5+eps,1/3-eps;3/2+2*eps;z]",
                "--format", "jsonl", "--out", str(out))
    assert r.returncode == 0, r.stderr
    r = run_cli("verify", str(out))
    assert r.returncode == 0, r.stderr
    # corrupt one rational in the stored S polynomial
    rec = json.loads(out.read_text())
    rec["s"]["num"][0][1] = "9999"
    out.write_text(json.dumps(rec) + "\n")
    r = run_cli("verify", str(out))
    assert r.returncode == 5


def test_cli_verify_uses_at_least_its_own_depth(tmp_path):
    out = tmp_path / "result.jsonl"
    r = run_cli("reduce", "2F1[7/5+eps,1/3-eps;1/2+2*eps;z]",
                "--basis", "2F1[2/5+eps,1/3-eps;3/2+2*eps;z]",
                "--format", "jsonl", "--out", str(out))
    assert r.returncode == 0, r.stderr
    # a record claiming depth 0 must not hide a wrong z^1 coefficient
    rec = json.loads(out.read_text())
    r0 = dec_ratfunc(rec["r"][0])
    rec["r"][0] = enc_ratfunc(r0 + RatFunc(Poly.variable(r0.vars, "z")))
    rec["N"] = 0
    out.write_text(json.dumps(rec) + "\n")
    assert run_cli("verify", str(out)).returncode == 5


def test_cli_verify_refuses_denominator_vanishing_above_stored_k(tmp_path):
    # R_1 * z/(z + eps^5) has an eps pole at every z order; eps^5 lies above
    # the record's K = 4, so only exact z-valuations expose it
    golden = Path(__file__).parent / "golden" / "reduce-generic.jsonl.out"
    rec = json.loads(golden.read_text())
    r1 = dec_ratfunc(rec["r"][1])
    z, e = (Poly.variable(r1.vars, x) for x in ("z", "eps"))
    rec["r"][1] = enc_ratfunc(r1 * RatFunc(z, z + e ** 5))
    out = tmp_path / "pole.jsonl"
    out.write_text(json.dumps(rec) + "\n")
    assert run_cli("verify", str(out)).returncode == 4


def test_cli_main_back_to_back_matches_fresh_runs():
    # cli.main builds its parser once per process: a spare --bind, a format
    # or an error must not carry over into the next job
    from hyperred import cli
    jobs = [["count-masters", "@c1", "--bind", "sigma1=1", "--bind", "sigma2=2",
             "--bind", "rho=1", "--bind", "spare=5", "--format", "jsonl"],
            ["expand", "2F1[2*eps, 3*eps; 1+5*eps; z]", "--order", "2"],
            ["reduce", "2F1[1/2+; 1; z]", "--basis", "2F1[1, 1; 1; z]"],
            ["count-masters", "@c1", "--bind", "sigma1=2", "--bind", "sigma2=1",
             "--bind", "rho=3", "--format", "jsonl"],
            ["count-masters", "@c1", "--bind", "sigma1=1", "--bind", "sigma2=2",
             "--bind", "rho=1"]]
    for argv in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        fresh = run_cli(*argv)
        assert (out.getvalue(), code) == (fresh.stdout, fresh.returncode), argv


def test_cli_mb_command():
    r = run_cli("mb", "@c1", "--format", "jsonl")
    assert r.returncode == 0, r.stderr
    lines = [json.loads(l) for l in r.stdout.strip().splitlines()]
    assert len(lines) == 2
    assert lines[0]["command"] == "mb"


def test_cli_check_parametrization():
    r = run_cli("check-parametrization", "gauss", "--p1", "1", "--p2", "1",
                "--r", "-1", "--q", "2")
    assert r.returncode == 0 and "Lemma IV" in r.stdout and "True" in r.stdout
    r = run_cli("check-parametrization", "3f2", "--r", "1", "--p", "-1", "--q", "2")
    assert r.returncode == 0 and "rational parametrization exists: True" in r.stdout
    r = run_cli("check-parametrization", "3f2", "--r", "1", "--p", "1", "--q", "2")
    assert "rational parametrization exists: False" in r.stdout
    r = run_cli("check-parametrization", "f3", "--p1", "1", "--p2", "0",
                "--r1", "0", "--r2", "1", "--p", "0", "--q", "2")
    assert r.returncode == 0 and "admissibility: True" in r.stdout


@pytest.mark.parametrize("family, args", [
    ("gauss", ["--p1", "1", "--p2", "1", "--r", "-1"]),
    ("3f2", ["--r", "1", "--p", "-1"]),
    ("f3", ["--p1", "1", "--p2", "0", "--r1", "0", "--r2", "1", "--p", "0"]),
])
def test_cli_check_parametrization_rejects_q_below_one(family, args):
    for q in ("0", "-2"):
        r = run_cli("check-parametrization", family, *args, "--q", q)
        assert r.returncode == 2, r.stderr
        assert "--q must be >= 1" in r.stderr and "Traceback" not in r.stderr


GAUSS = ["check-parametrization", "gauss", "--p1", "1", "--p2", "1", "--r", "-1", "--q", "2"]
THREE_F2 = ["check-parametrization", "3f2", "--r", "1", "--p", "-1", "--q", "2"]
C3 = ["count-masters", "@c3"]


def test_cli_malformed_rationals_are_parse_errors(capsys):
    from hyperred import cli
    with pytest.raises(ParseError, match="--a1 is not a rational number: '1/0'"):
        cli.parse_rat("--a1", "1/0")
    assert cli.parse_rat("--a1", "-3/6") == F(-1, 2)
    cases = [C3 + ["--bind", "j1=abc", "--bind", "j2=1", "--bind", "sigma=1"],
             C3 + ["--bind", "j1=1/0", "--bind", "j2=1", "--bind", "sigma=1"],
             C3 + ["--bind", "j1=1", "--bind", "j2=", "--bind", "sigma=1"]]
    cases += [GAUSS + ["--beta", "x"]]
    cases += [THREE_F2 + [f"--{name}", bad] for name in ("a1", "a2", "a3", "b1", "b2")
              for bad in ("1/0", "x")]
    for argv in cases:
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        assert "is not a rational number" in err, argv
    r = run_cli(*C3, "--bind", "j1=1/0", "--bind", "j2=1", "--bind", "sigma=1")
    assert r.returncode == 2 and "Traceback" not in r.stderr


def test_cli_verify_malformed_stored_records_are_parse_errors(tmp_path, capsys):
    """Each bad record exits 2 with one error line naming its line, and no
    record is checked before every line has decoded.  Exponent lists, the
    variables of reduce pieces and of omega0, and the shape of an expand
    record are checked while decoding: Poly.from_terms would drop a bad
    exponent, omega0's eps terms went unread, and the other records failed
    with a traceback or were checked as the wrong class."""
    from hyperred import cli
    good, expand = (Path(__file__).parent / "golden" / "stored.jsonl").read_text().splitlines()
    no_s = json.loads(good)
    del no_s["s"]

    def edited(line, edit):
        rec = json.loads(line)
        edit(rec)
        return json.dumps(rec)

    bad = [("ZeroDivisionError", good.replace('"1"', '"1/0"', 1)),
           ("ValueError", good.replace('"1"', '"x"', 1)),
           ("KeyError", json.dumps(no_s)),
           ("JSONDecodeError", good[:50])]
    for exps in ([-1, 0], [0, 0, 7], [0.5, 0], [0], [True, 0]):
        bad.append(("ValueError", edited(good, lambda r: r["s"]["num"].append([exps, "5"]))))
    bad.append(("ValueError", edited(good, lambda r: [p.update(vars=["n", "z"])
                                                     for p in [r["s"], r["tail"], *r["r"]]])))
    # "den": [] encodes the zero polynomial, not the denominator 1
    bad.append(("ZeroDivisionError", edited(good, lambda r: r["r"][0].update(den=[]))))
    # a repeated exponent list or word, and an affine flag reduce_to_basis would not set
    bad.append(("ValueError", edited(good, lambda r: r["s"]["num"].insert(0, [[0, 0], "7"]))))
    bad.append(("ValueError", edited(expand, lambda r: r["layers"][2]["terms"].insert(
        0, {"coeff": "5", "letters": ["0", "1"]}))))
    for flag in (True, "yes"):
        bad.append(("ValueError", edited(good, lambda r: r.update(affine=flag))))
    bad.append(("KeyError", edited(good, lambda r: r.pop("affine"))))
    # the variables and the layer 0 that epsilon_expand writes, and the class it assigns
    bad.append(("ValueError", edited(expand, lambda r: r.update(var="w"))))
    bad.append(("ValueError", edited(expand, lambda r: r["layers"][1].update(var="xi"))))
    bad.append(("ValueError", edited(expand, lambda r: r["layers"].__setitem__(
        0, {"const": "7", "terms": [{"coeff": "5", "letters": ["1"]}], "var": "z"}))))
    bad.append(("ValueError", edited(expand, lambda r: r.update(
        fn="2F1[1/2+eps, 1/2-2*eps; 3/2+3*eps; z]"))))
    # a direct layer 0 is 1 exactly when omega0 is 1: 0 under omega0 = 1, 1 under another
    rational = (Path(__file__).parent / "golden" / "expand-rational-omega0.jsonl.out").read_text()
    bad.append(("ValueError", edited(expand, lambda r: r["layers"][0].update(const="0"))))
    bad.append(("ValueError", edited(rational, lambda r: r["layers"][0].update(const="1"))))
    for edit in ({"omega0": None}, {"layers": []}, {"kind": "bogus"}, {"kind": "xi"},
                 {"omega0": {"vars": ["eps", "z"], "num": [[[0, 0], "1"], [[1, 0], "5"]], "den": []}},
                 {"omega0": {"vars": ["n", "z"], "num": [[[0, 0], "1"], [[1, 0], "5"]], "den": []}}):
        bad.append(("ValueError", edited(expand, lambda r: r.update(edit))))
    for i, (kind, line) in enumerate(bad):
        path = tmp_path / f"{i}.jsonl"
        path.write_text(f"{good}\n\n{line}\n")
        assert cli.main(["verify", str(path)]) == 2, line
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, line
        assert f"malformed stored record ({kind}: " in err and "at line 3," in err, err
    fresh = [i for i, (kind, line) in enumerate(bad) if kind == "KeyError" or '"layers": []' in line]
    assert len(fresh) == 3
    for i in fresh:
        r = run_cli("verify", str(tmp_path / f"{i}.jsonl"))
        assert r.returncode == 2 and "Traceback" not in r.stderr


def test_cli_verify_accepts_every_record_a_job_writes(tmp_path, capsys):
    """The decoder's checks hold for each golden reduce and expand record,
    affine and xi ones among them, and for a function of another variable."""
    from hyperred import cli
    golden = Path(__file__).parent / "golden"
    paths = sorted(golden.glob("reduce-*.jsonl.out")) + sorted(golden.glob("expand-*.jsonl.out"))
    assert len(paths) == 12
    out = tmp_path / "y.jsonl"
    assert cli.main(["expand", "2F1[2*eps, 3*eps; 1+5*eps; y]", "--order", "2",
                     "--format", "jsonl", "--out", str(out)]) == 0
    for path in paths + [out]:
        capsys.readouterr()
        assert cli.main(["verify", str(path)]) == 0, path
        assert " record ok: " in capsys.readouterr().out, path


def test_dec_polylog_reads_back_every_golden_layer_and_refuses_bad_words(tmp_path, capsys):
    """dec_polylog builds the layer past PolyLogExpr's constructor, so it must
    give the value that constructor gives for every layer a job writes, drop
    a zero coefficient as the constructor does, and refuse an empty word or a
    word ending in 0 with the constructor's texts (exit 2 from verify)."""
    from hyperred import cli
    from hyperred.gpl import PolyLogExpr
    golden = Path(__file__).parent / "golden"
    lines = [l for p in sorted(golden.glob("expand-*.jsonl.out")) for l in p.read_text().splitlines()]
    lines += [l for l in (golden / "stored.jsonl").read_text().splitlines() if '"expand"' in l]
    layers = [l for line in lines for l in json.loads(line)["layers"]]
    assert len(lines) == 8 and len(layers) == 32
    for d in layers:
        e = cli.dec_polylog(d)
        want = PolyLogExpr({tuple(map(cli.dec_rat, t["letters"])): cli.dec_rat(t["coeff"])
                            for t in d["terms"]}, cli.dec_rat(d["const"]), d["var"])
        assert e == want and cli.dec_polylog(cli.enc_polylog(e)) == e
        assert cli.enc_polylog(e) == d
    zero = {"const": "0", "var": "z", "terms": [{"coeff": "0", "letters": ["1"]},
                                                {"coeff": "2", "letters": ["0", "1"]}]}
    assert cli.dec_polylog(zero).terms == {(0, 1): 2}
    good = (golden / "expand-integer.jsonl.out").read_text()
    for letters, text in (([], "a PolyLogExpr word must be nonempty"),
                          (["1", "0"], "word (1, 0) ends in 0 (not analytic at the origin)")):
        bad = {"const": "0", "var": "z", "terms": [{"coeff": "1", "letters": letters}]}
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            cli.dec_polylog(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            PolyLogExpr({tuple(map(int, letters)): 1})
        rec = json.loads(good)
        rec["layers"][4]["terms"].append({"coeff": "1", "letters": letters})
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        capsys.readouterr()
        assert cli.main(["verify", str(path)]) == 2
        assert f"malformed stored record (ValueError: {text})" in capsys.readouterr().err


@pytest.mark.parametrize("letters, code", [(["1"] * 600, 0), (["0", "1"] * 300, 0),
                                           (["0"] * 599 + ["1"], 5)],
                         ids=["ones", "alternating", "zeros-then-one"])
def test_cli_verify_reads_a_600_letter_word_without_recursing(tmp_path, letters, code):
    """A stored word of 600 letters is input: verify must not recurse once per
    letter.  A word with more nonzero letters than the checked depth is
    O(z^(N+1)) and adds nothing to the series (item 10 closes that gap); one
    nonzero letter after 599 zeros is read, and its eps^4 edit fails."""
    rec = json.loads((Path(__file__).parent / "golden" / "expand-integer.jsonl.out").read_text())
    rec["layers"][4]["terms"].append({"coeff": "1", "letters": letters})
    path = tmp_path / "long.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    r = run_cli("verify", str(path))
    assert r.returncode == code and "Traceback" not in r.stderr, r.stderr
    if code:
        assert r.stderr == "error: stored expansion fails oracle at (power 1, eps^4)\n"


@pytest.mark.parametrize("edit", [lambda r: r["layers"][2]["terms"][0].update(letters="01"),
                                  lambda r: r["omega0"].update(vars="z")],
                         ids=["letters", "vars"])
def test_cli_verify_refuses_a_string_where_a_record_holds_a_list(tmp_path, capsys, edit):
    """A string iterates as its characters: layer 2's letters "01" would read
    as the word (0, 1) and omega0's vars "z" as ("z",), each the value the
    list holds.  Both are malformed (exit 2)."""
    from hyperred import cli
    rec = json.loads((Path(__file__).parent / "golden" / "expand-integer.jsonl.out").read_text())
    edit(rec)
    path = tmp_path / "string.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    assert cli.main(["verify", str(path)]) == 2
    assert "malformed stored record (ValueError: \"" in capsys.readouterr().err


_GOLDEN = Path(__file__).parent / "golden"
_GOLDEN_RECORDS = [json.loads(line) for p in (sorted(_GOLDEN.glob("reduce-*.jsonl.out"))
                                              + sorted(_GOLDEN.glob("expand-*.jsonl.out"))
                                              + [_GOLDEN / "stored.jsonl"])
                   for line in p.read_text().splitlines()]
_OTHER_JSON = (None, True, 0, -1, 1.5, "", "x", "01", "z", "1/0", [], ["z"], [[0], "1"], {})


def _nodes(x, at=()):
    """(path, value) of x and of each value inside it, a path the keys and
    indices that lead to it."""
    yield at, x
    for k, v in x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ():
        yield from _nodes(v, at + (k,))


def _parent(rec, path):
    for k in path[:-1]:
        rec = rec[k]
    return rec


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_verify_exits_by_the_table_on_mutated_golden_records(tmp_path, capsys, data):
    """A golden record with a key dropped, a value swapped for another JSON
    value, a list entry copied, an exponent set to MAX_EXPONENT + 1 or a word
    lengthened to 600 letters: verify returns a code of the exit-code table
    and raises nothing."""
    from hyperred import cli
    rec = copy.deepcopy(data.draw(st.sampled_from(_GOLDEN_RECORDS)))
    kind = data.draw(st.sampled_from(("drop", "swap", "copy", "exponent", "long word")))
    nodes = [(p, v) for p, v in _nodes(rec) if p and {
        "drop": isinstance(_parent(rec, p), dict),
        "swap": True,
        "copy": isinstance(_parent(rec, p), list),
        "exponent": len(p) > 3 and p[-4] in ("num", "den") and p[-2] == 0,
        "long word": p[-1] == "letters"}[kind]]
    assume(nodes)
    path, value = data.draw(st.sampled_from(nodes))
    parent = _parent(rec, path)
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "swap":
        parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(
            _OTHER_JSON + tuple(v for _, v in nodes))))
    elif kind == "copy":
        parent.insert(data.draw(st.integers(0, len(parent))), copy.deepcopy(value))
    elif kind == "exponent":
        parent[path[-1]] = cli.MAX_EXPONENT + 1
    else:
        fill = value * 600 if data.draw(st.booleans()) else ["0"] * 600
        value[:0] = fill[:600 - len(value)]
    out = tmp_path / "mutated.jsonl"
    out.write_text(json.dumps(rec) + "\n")
    assert cli.main(["verify", str(out)]) in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_PARSE,
                                               cli.EXIT_UNSUPPORTED, cli.EXIT_EXCEPTIONAL,
                                               cli.EXIT_VERIFY)
    capsys.readouterr()


def _stored_reduce_with_s(tmp_path, key, exponents):
    """The golden stored reduce record with S's num or den set to one monomial."""
    rec = json.loads((Path(__file__).parent / "golden" / "stored.jsonl").read_text().splitlines()[0])
    rec["s"][key] = [[list(exponents), "1"]]
    path = tmp_path / "exponent.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    return path


def test_cli_verify_refuses_an_exponent_above_the_cap_before_any_gcd(monkeypatch, capsys, tmp_path):
    """S over eps^10000 ran the decoder's gcd for seconds before exit 4; above
    MAX_EXPONENT it is unsupported (exit 3), the message names the cap, and
    no polynomial gcd runs."""
    from hyperred import cli
    assert cli.MAX_EXPONENT == 10 * cli.MAX_N

    def no_gcd(*args):
        raise AssertionError("a polynomial gcd ran")
    monkeypatch.setattr(Poly, "gcd", no_gcd)
    assert cli.main(["verify", str(_stored_reduce_with_s(tmp_path, "den", (10000, 0)))]) == 3
    assert capsys.readouterr().err == (f"error: a stored polynomial has exponent 10000,"
                                       f" above {cli.MAX_EXPONENT}\n")


def test_cli_verify_cap_is_inclusive(capsys, tmp_path):
    """z^MAX_EXPONENT in S decodes, and the depth gate names its depth; one
    more is refused by the cap."""
    from hyperred import cli
    assert cli.main(["verify", str(_stored_reduce_with_s(tmp_path, "num", (0, cli.MAX_EXPONENT)))]) == 3
    assert capsys.readouterr().err == (f"error: reduce record at line 1 needs series depth"
                                       f" {cli.MAX_EXPONENT + 3}, above {cli.MAX_N}\n")
    assert cli.main(["verify", str(_stored_reduce_with_s(tmp_path, "num", (0, cli.MAX_EXPONENT + 1)))]) == 3
    assert capsys.readouterr().err == (f"error: a stored polynomial has exponent"
                                       f" {cli.MAX_EXPONENT + 1}, above {cli.MAX_EXPONENT}\n")


def test_frontier_reduce_records_stay_under_the_exponent_cap():
    """The records reduce writes for the frontier's 2F1 n=40 and 3F2 n=16 rows
    (the largest the CI guard reduces) keep every exponent far under the cap."""
    from hyperred import cli
    from hyperred.reduction import reduce_to_basis
    for text, ups, los, top in (("2F1[2/5+eps, 1/3-eps; 3/2+2*eps; z]", (40, 40), (-40,), 120),
                                ("3F2[2/5+eps, 1/3-eps, 1/7+3*eps; 3/2+2*eps, 5/4-eps; z]",
                                 (16,) * 3, (16, -16), 62)):
        basis = target = parse_hyper(text)
        for which, shifts in (("upper", ups), ("lower", los)):
            for i, m in enumerate(shifts):
                target = target.shifted(which, i, m)
        rec = cli._encode_record(reduce_to_basis(target, basis), 30, 4)
        pieces = [rec["s"], rec["tail"], *rec["r"]]
        assert max(x for d in pieces for e, _ in d["num"] + d["den"] for x in e) == top
        assert top * 10 < cli.MAX_EXPONENT


def test_cli_expand_names_layers_by_the_function_variable(tmp_path, capsys):
    from hyperred import cli
    assert cli.main(["expand", "2F1[2*eps, 3*eps; 1+5*eps; y]", "--order", "2"]) == 0
    assert "eps^2: -6*G(0,1;y)" in capsys.readouterr().out
    assert cli.main(["expand", "2F1[2*eps, 3*eps; 1+5*eps; y]", "--order", "2",
                     "--format", "jsonl"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert {rec["var"]} | {l["var"] for l in rec["layers"]} == {"y"}
    # omega0 is a rational function of y, printed and recorded in y, and the
    # record verifies; the same omega0 recorded over z is refused as malformed
    rational = ["expand", "2F1[1+eps, 2+eps; 2+2*eps; y]", "--order", "0"]
    assert cli.main(rational) == 0
    assert "eps^0: (-1)/(y - 1)\n" in capsys.readouterr().out
    out = tmp_path / "y.jsonl"
    assert cli.main(rational + ["--format", "jsonl", "--out", str(out)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["var"] == "y" and rec["omega0"]["vars"] == ["y"]
    assert cli.main(["verify", str(out)]) == 0
    assert capsys.readouterr().out == "expand record ok: 2F1[1+eps, 2+eps; 2+2*eps; y]\n"
    rec["omega0"]["vars"] = ["z"]
    out.write_text(json.dumps(rec) + "\n")
    assert cli.main(["verify", str(out)]) == 2
    assert "expected variables ['y'], got ['z']" in capsys.readouterr().err
    # the xi banner names the function's variable
    assert cli.main(["expand", "2F1[1/2+eps, 1/2-eps; 3/2+2*eps; w]", "--order", "1"]) == 0
    assert "layers are for sqrt(-w)*F in xi = (w/(w-1))^(1/2)\n" in capsys.readouterr().out


def test_cli_verify_refuses_what_the_job_would_refuse(tmp_path, capsys):
    """An expand record whose fn epsilon_expand would refuse, and a reduce
    record whose target is no integer shift of its basis, exit 3 as the
    job would, before any record is checked."""
    from hyperred import cli
    good, expand = (Path(__file__).parent / "golden" / "stored.jsonl").read_text().splitlines()
    outside, no_shift = json.loads(expand), json.loads(good)
    outside["fn"] = "2F1[1/3+2*eps, 3*eps; 1+5*eps; z]"
    no_shift["target"] = "2F1[7/5+eps, 1/3-eps; 1/2+3*eps; z]"
    for rec, message, job in (
            (outside, "outside the supported expansion classes", ["expand", outside["fn"],
                                                                  "--order", "2"]),
            (no_shift, "is not an integer", ["reduce", no_shift["target"],
                                             "--basis", no_shift["basis"]])):
        path = tmp_path / "refused.jsonl"
        path.write_text(f"{good}\n{json.dumps(rec)}\n")
        assert cli.main(["verify", str(path)]) == 3, rec
        out, err = capsys.readouterr()
        assert out == "" and message in err, err
        assert cli.main(job) == 3, job


def test_cli_verify_ignores_stored_depth(tmp_path):
    """A record's N and K are not read: edited to N = 5000 and K = 9 it is
    checked at the verifier's own depth and passes."""
    stored = Path(__file__).parent / "golden" / "stored.jsonl"
    rec = json.loads(stored.read_text().splitlines()[0])
    rec.update(N=5000, K=9)
    path = tmp_path / "deep.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    # a verifier that read N = 5000 would run for minutes
    r = subprocess.run([sys.executable, "-m", "hyperred.cli", "verify", str(path)],
                       capture_output=True, text=True, timeout=20)
    assert r.returncode == 0, r.stderr
    assert r.stdout == f"reduce record ok: {rec['target']}\n"


def test_cli_record_codec_round_trips_every_golden_record():
    """_encode_record of each decoded golden reduce and expand record, at the
    record's N and K, is the stored line byte for byte."""
    from hyperred import cli
    golden = Path(__file__).parent / "golden"
    paths = sorted(golden.glob("reduce-*.jsonl.out")) + sorted(golden.glob("expand-*.jsonl.out"))
    assert len(paths) == 12
    for path in paths:
        line = path.read_text().rstrip("\n")
        rec = json.loads(line)
        again = cli._encode_record(cli._decode_record(rec), rec["N"], rec.get("K"))
        assert json.dumps(again, sort_keys=True, separators=(",", ":")) == line, path


def _generic_with_r0_plus(tmp_path, k):
    """reduce-generic's record with eps^k * z added to R_0."""
    rec = json.loads((Path(__file__).parent / "golden" / "reduce-generic.jsonl.out").read_text())
    r0 = dec_ratfunc(rec["r"][0])
    z, e = (Poly.variable(r0.vars, x) for x in ("z", "eps"))
    rec["r"][0] = enc_ratfunc(r0 + RatFunc(e ** k * z))
    path = tmp_path / f"eps{k}.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    return path


def test_cli_verify_catches_an_edit_at_the_checked_eps_order(tmp_path, capsys):
    """eps^4 * z in R_0 lies within the check's eps^0..eps^4: verify exits 5."""
    from hyperred import cli
    assert cli.main(["verify", str(_generic_with_r0_plus(tmp_path, 4))]) == 5
    assert "stored reduction fails oracle at (z^1, eps^4)" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_cli_verify_catches_an_edit_above_the_checked_eps_order(tmp_path):
    """eps^5 * z in R_0 lies above eps^4, where only a check of every eps order sees it."""
    from hyperred import cli
    assert cli.main(["verify", str(_generic_with_r0_plus(tmp_path, 5))]) == 5


def _generic_over_one_minus_z(tmp_path):
    """reduce-generic's record with S, every R_j and the tail divided by 1 - z,
    as (record path, decoded ReductionResult).  The relation holds as before,
    S stays a polynomial (it has the factor z - 1) and each R_j is over z - 1."""
    rec = json.loads((Path(__file__).parent / "golden" / "reduce-generic.jsonl.out").read_text())
    vars = tuple(rec["s"]["vars"])
    d = RatFunc(Poly.const(vars, 1) - Poly.variable(vars, "z"))
    for key in ("s", "tail"):
        rec[key] = enc_ratfunc(dec_ratfunc(rec[key]) / d)
    rec["r"] = [enc_ratfunc(dec_ratfunc(r) / d) for r in rec["r"]]
    path = tmp_path / "over-one-minus-z.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    from hyperred import cli
    return path, cli._decode_record(rec)


def test_reduction_with_non_polynomial_pieces_is_refused(tmp_path):
    """S, R_j and tail over 1 - z satisfy the relation on every series cell,
    but reduce_to_basis only returns polynomials: the check refuses them
    (exit 3)."""
    from hyperred.errors import UnsupportedClass
    from hyperred.reduction import verify_reduction
    _, result = _generic_over_one_minus_z(tmp_path)
    assert not any(r.is_polynomial() for r in result.r_polys)
    with pytest.raises(UnsupportedClass, match=r"^piece .* is not a polynomial in z$"):
        verify_reduction(result, 30, 4)


def test_cli_verify_refuses_a_record_with_non_polynomial_pieces(tmp_path, capsys):
    """The same pieces in a stored record are refused, not "reduce record ok"."""
    from hyperred import cli
    path, _ = _generic_over_one_minus_z(tmp_path)
    assert cli.main(["verify", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: piece ") and "is not a polynomial in z" in err


def test_cli_verify_refuses_non_polynomial_pieces_before_any_series(tmp_path, capsys,
                                                                     monkeypatch):
    """The refusal reads each such piece to z^0 only and builds neither
    function's series: it exits 3 with series_of_hyper made to fail."""
    from hyperred import cli, reduction

    def no_series(*args):
        raise RuntimeError("series_of_hyper called")
    depths = []
    to_biseries = RatFunc.to_biseries

    def recorded(self, N, K):
        depths.append(N)
        return to_biseries(self, N, K)
    monkeypatch.setattr(reduction, "series_of_hyper", no_series)
    monkeypatch.setattr(RatFunc, "to_biseries", recorded)
    path, _ = _generic_over_one_minus_z(tmp_path)
    assert cli.main(["verify", str(path)]) == 3
    assert "is not a polynomial in z" in capsys.readouterr().err
    assert depths and set(depths) == {0}


def test_cli_file_errors_are_one_error_line(tmp_path):
    missing = tmp_path / "missing.txt"
    for args in (("count-basis", f"file:{missing}"),
                 ("verify", str(missing)),
                 ("count-basis", "2F1[1/2+eps,1/3;3/2;z]", "--out", str(missing / "out.txt"))):
        r = run_cli(*args)
        assert r.returncode == 1, args
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, (args, r.stderr)
        assert "No such file or directory" in r.stderr and "Traceback" not in r.stderr, args


def test_cli_verify_suite():
    r = run_cli("verify", "--suite")
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.count("PASS") == 4


def test_cli_verify_refuses_a_path_with_suite():
    """--suite runs the built-in checks and reads no file, so a path with it is
    refused (exit 2) before the suite runs, in either order, not ignored; the
    file alone verifies (exit 0)."""
    stored = str(Path(__file__).parent / "golden" / "stored.jsonl")
    for args in ((stored, "--suite"), ("--suite", stored)):
        r = run_cli("verify", *args)
        assert r.returncode == 2 and r.stdout == "", args
        assert "not allowed with argument" in r.stderr and "Traceback" not in r.stderr, args


def test_cli_verify_needs_a_path_or_suite():
    """verify with neither a path nor --suite is a usage error (exit 2)."""
    r = run_cli("verify")
    assert r.returncode == 2 and r.stdout == "", r.stderr
    assert "one of the arguments path --suite is required" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_order_bounds():
    r = run_cli("expand", "2F1[2*eps,3*eps;1+5*eps;z]", "--order", "2", "--N", "9999")
    assert r.returncode == 3
    r = run_cli("expand", "2F1[2*eps,3*eps;1+5*eps;z]", "--order", "99")
    assert r.returncode == 3


def test_cli_expand_record_round_trip(tmp_path):
    out = tmp_path / "exp.jsonl"
    r = run_cli("expand", "2F1[2*eps,3*eps;1+5*eps;z]", "--order", "2",
                "--format", "jsonl", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert run_cli("verify", str(out)).returncode == 0
    rec = json.loads(out.read_text())
    rec["layers"][2]["terms"][0]["coeff"] = "-7"
    out.write_text(json.dumps(rec) + "\n")
    assert run_cli("verify", str(out)).returncode == 5


def test_cli_file_input(tmp_path):
    p = tmp_path / "fn.txt"
    p.write_text("2F1[2*eps,3*eps;1+5*eps;z]\n")
    r = run_cli("count-basis", f"file:{p}")
    assert r.returncode == 0 and "L = 2" in r.stdout


def test_cli_expand_half_integer():
    r = run_cli("expand", "2F1[1/2+eps, 1/2-eps; 3/2+2*eps; z]",
                "--order", "3", "--N", "20")
    assert r.returncode == 0, r.stderr
    assert "sqrt(-z)*F in xi" in r.stdout
    assert "verified" in r.stdout


def test_cli_count_masters_refuses_unbound_symbols():
    r = run_cli("count-masters", "@c1", "--bind", "sigma1=2")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
    assert "rho, sigma2" in r.stderr


@pytest.mark.parametrize("extra", [["--j1", "1"], ["x"], ["--sigma"], ["--sigma=1"]],
                         ids=["nameval", "bare", "flag", "flagvalue"])
def test_cli_count_masters_refuses_arguments_that_are_not_bind(extra):
    """Bindings come only as --bind NAME=VALUE; argparse refuses anything else."""
    r = run_cli(*C3, "--bind", "j2=1", "--bind", "sigma=1", *extra)
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
    assert r.stderr.endswith(f"error: unrecognized arguments: {' '.join(extra)}\n"), r.stderr


def test_cli_count_masters_refuses_a_symbol_the_input_lacks(capsys):
    """A binding must name a symbol of the MB forms other than n: a preset's, or a raw input's."""
    from hyperred import cli
    for name in PRESETS:
        preset = get_preset(name)
        forms = preset.mb.a_forms + preset.mb.b_forms + preset.mb.c_forms + preset.mb.d_forms
        assert {s for f in forms for s in f.symbols} == set(preset.symbols), name
    raw = ["count-masters", "MB[-1*y; [rho+sigma1+sigma2-n/2, sigma1, sigma2]; [n/2]; "
                            "[n/2-sigma1-sigma2]; []]", "--bind", "sigma1=1", "--bind", "sigma2=2"]
    assert cli.main(raw + ["--bind", "rho=1"]) == 0
    assert "L = " in capsys.readouterr().out
    assert cli.main(raw + ["--bind", "rho=1", "--bind", "j1=1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: cannot bind j1: the input has no symbol j1 (its symbols"
                                 " are rho, sigma1, sigma2)\n")
    # n is a symbol of the forms, but masters are counted at n = 4 - 2*eps
    assert cli.main(raw + ["--bind", "rho=1", "--bind", "n=4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: cannot bind n: it is the dimension, n = 4 - 2*eps\n"


def _leaf_options(parser, command=()):
    """{command words: option strings} for each leaf parser under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(command): {s for a in parser._actions for s in a.option_strings}}
    return {k: v for name, p in subs[0].choices.items()
            for k, v in _leaf_options(p, command + (name,)).items()}


def test_cli_each_command_declares_only_the_options_it_reads():
    """--N only where a series depth is read, --K only where a reduction's eps order is."""
    from hyperred import cli
    out = {"-h", "--help", "--format", "--out"}
    assert _leaf_options(cli.build_parser()) == {
        "reduce": out | {"--basis", "--N", "--K"},
        "count-basis": out,
        "mb": out,
        "count-masters": out | {"--bind"},
        "expand": out | {"--order", "--N"},
        "check-parametrization gauss": out | {"--p1", "--p2", "--r", "--q", "--beta"},
        "check-parametrization 3f2": out | {"--r", "--p", "--q", "--a1", "--a2", "--a3",
                                            "--b1", "--b2"},
        "check-parametrization f3": out | {"--p1", "--p2", "--r1", "--r2", "--p", "--q"},
        "verify": {"-h", "--help", "--suite", "--N", "--K"},
    }


def test_cli_verify_refuses_out(tmp_path):
    """verify prints no result to copy, so --out is refused (exit 2), not ignored."""
    stored = Path(__file__).parent / "golden" / "stored.jsonl"
    r = run_cli("verify", str(stored), "--out", str(tmp_path / "x"))
    assert r.returncode == 2 and r.stdout == "" and "unrecognized arguments: --out" in r.stderr
    assert not (tmp_path / "x").exists()


def test_cli_verify_refuses_format():
    """verify's lines are the same in every format, so --format is refused (exit 2)."""
    stored = Path(__file__).parent / "golden" / "stored.jsonl"
    r = run_cli("verify", str(stored), "--format", "jsonl")
    assert r.returncode == 2 and r.stdout == "" and "unrecognized arguments: --format" in r.stderr


def test_cli_reduce_works_in_the_function_variable(tmp_path, capsys):
    """A y-function's pieces are printed and recorded in y; its record verifies,
    and the same record over z is refused as malformed."""
    from hyperred import cli
    golden = Path(__file__).parent / "golden"
    assert "S  = eps^2*y - eps^2 + " in (golden / "reduce-y.text.out").read_text()
    rec = json.loads((golden / "reduce-y.jsonl.out").read_text())
    assert all(p["vars"] == ["eps", "y"] for p in [rec["s"], rec["tail"], *rec["r"]])
    assert cli.main(["verify", str(golden / "reduce-y.jsonl.out")]) == 0
    assert capsys.readouterr().out == f"reduce record ok: {rec['target']}\n"
    for p in [rec["s"], rec["tail"], *rec["r"]]:
        p["vars"] = ["eps", "z"]
    out = tmp_path / "z.jsonl"
    out.write_text(json.dumps(rec) + "\n")
    assert cli.main(["verify", str(out)]) == 2
    assert "expected variables ['eps', 'y'], got ['eps', 'z']" in capsys.readouterr().err


def test_cli_reduce_refuses_a_check_deeper_than_verify_allows(tmp_path, capsys, monkeypatch):
    """reduce exits 3, as verify does on its record, when the check needs a
    series deeper than MAX_N; a reduction within it still writes a record
    that verifies."""
    from hyperred import cli
    basis = "2F1[2/5+eps, 1/3-eps; 3/2+2*eps; z]"
    deep = ["reduce", "2F1[27/5+eps, 1/3-eps; 1/2+2*eps; z]", "--basis", basis]
    out = tmp_path / "deep.jsonl"
    assert cli.main(deep + ["--N", "6", "--format", "jsonl", "--out", str(out)]) == 0
    monkeypatch.setattr(cli, "MAX_N", 6)
    capsys.readouterr()
    assert cli.main(["verify", str(out), "--N", "6"]) == 3
    assert "reduce record at line 1 needs series depth 8, above 6" in capsys.readouterr().err
    assert cli.main(deep + ["--N", "6"]) == 3
    out_text, err = capsys.readouterr()
    assert out_text == "" and err == "error: the reduction needs series depth 8, above 6\n"
    shallow = tmp_path / "shallow.jsonl"
    assert cli.main(["reduce", "2F1[7/5+eps, 1/3-eps; 1/2+2*eps; z]", "--basis", basis,
                     "--N", "6", "--format", "jsonl", "--out", str(shallow)]) == 0
    assert cli.main(["verify", str(shallow), "--N", "6"]) == 0
