"""Input grammar round-trips and the command-line contract."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from hyperred.cli import dec_ratfunc, enc_ratfunc
from hyperred.errors import ParseError
from hyperred.grammar import format_mb, parse_hyper, parse_input
from hyperred.hyper import HyperFn
from hyperred.mb import DiagramPreset, get_preset
from hyperred.poly import Poly
from hyperred.ratfunc import RatFunc
from hyperred.scalars import EpsLin


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hyperred.cli", *args],
                          capture_output=True, text=True, env=env)


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
    for name in ("c3", "c1", "v1200"):
        mb = get_preset(name).mb
        again = parse_input(format_mb(mb))
        assert again == mb


def test_cli_expand_and_verify():
    r = run_cli("expand", "2F1[2*eps,3*eps;1+5*eps;z]", "--order", "2")
    assert r.returncode == 0, r.stderr
    assert "G(0,1;z)" in r.stdout
    assert "verified" in r.stdout


def test_cli_count_masters_presets():
    r = run_cli("count-masters", "@c3", "--j1", "1", "--j2", "1", "--sigma", "1")
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
    assert r.returncode == 0 or r.returncode == 5   # --suite ignores the path


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


def test_cli_env_format(tmp_path):
    r = run_cli("count-basis", "2F1[1/2+eps,-eps;1+2*eps;z]",
                env_extra={"HYPERRED_FORMAT": "jsonl"})
    assert r.returncode == 0
    rec = json.loads(r.stdout.strip())
    assert rec["L"] == 2


def test_cli_main_back_to_back_matches_fresh_runs(monkeypatch):
    # cli.main builds its parser once per process: a spare --bind, the env
    # format or an error must not carry over into the next job
    from hyperred import cli
    jobs = [(["count-masters", "@c1", "--bind", "sigma1=1", "--bind", "sigma2=2",
              "--bind", "rho=1", "--bind", "spare=5", "--format", "jsonl"], None),
            (["expand", "2F1[2*eps, 3*eps; 1+5*eps; z]", "--order", "2"], None),
            (["reduce", "2F1[1/2+; 1; z]", "--basis", "2F1[1, 1; 1; z]"], None),
            (["count-masters", "@c1", "--bind", "sigma1=2", "--bind", "sigma2=1",
              "--bind", "rho=3"], {"HYPERRED_FORMAT": "jsonl"}),
            (["count-masters", "@c1", "--sigma1", "1", "--sigma2", "2", "--rho", "1"], None)]
    monkeypatch.delenv("HYPERRED_FORMAT", raising=False)
    for argv, env in jobs:
        for k, v in (env or {}).items():
            monkeypatch.setenv(k, v)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        for k in env or {}:
            monkeypatch.delenv(k)
        fresh = run_cli(*argv, env_extra=env)
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
    cases = [C3 + ["--j1", "abc", "--j2", "1", "--sigma", "1"],
             C3 + ["--bind", "j1=1/0", "--j2", "1", "--sigma", "1"],
             C3 + ["--bind", "j1=1", "--bind", "j2=", "--sigma", "1"]]
    cases += [GAUSS + ["--beta", "x"]]
    cases += [GAUSS + ["--beta", "1/2", f"--{name}", "1/0"] for name in ("a1", "a2", "c")]
    cases += [THREE_F2 + [f"--{name}", bad] for name in ("a1", "a2", "a3", "b1", "b2")
              for bad in ("1/0", "x")]
    for argv in cases:
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        assert "is not a rational number" in err, argv
    r = run_cli(*C3, "--bind", "j1=1/0", "--j2", "1", "--sigma", "1")
    assert r.returncode == 2 and "Traceback" not in r.stderr


def test_cli_verify_malformed_stored_records_are_parse_errors(tmp_path, capsys):
    """Each bad record exits 2 with one error line naming its line, and no
    record is checked before every line has decoded."""
    from hyperred import cli
    good = (Path(__file__).parent / "golden" / "stored.jsonl").read_text().splitlines()[0]
    no_s = json.loads(good)
    del no_s["s"]
    bad = {"ZeroDivisionError": good.replace('"1"', '"1/0"', 1),
           "ValueError": good.replace('"1"', '"x"', 1),
           "KeyError": json.dumps(no_s),
           "JSONDecodeError": good[:50]}
    for kind, line in bad.items():
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(f"{good}\n\n{line}\n")
        assert cli.main(["verify", str(path)]) == 2, kind
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, kind
        assert f"malformed stored record ({kind}: " in err and "at line 3," in err, err
    r = run_cli("verify", str(tmp_path / "KeyError.jsonl"))
    assert r.returncode == 2 and "Traceback" not in r.stderr


def test_cli_verify_bounds_stored_depth(tmp_path, capsys):
    """A record's N and K are held to a job's own bounds, and a record out of
    them is refused (exit 3) before any record is checked."""
    from hyperred import cli
    good = (Path(__file__).parent / "golden" / "stored.jsonl").read_text().splitlines()[0]
    bounds = {"N": (5000, "N must be within 1..200"), "K": (9, "K must be within 0..8")}
    for key, (value, _) in bounds.items():
        rec = json.loads(good)
        rec[key] = value
        (tmp_path / f"{key}.jsonl").write_text(f"{good}\n{json.dumps(rec)}\n")
    # unbounded, the N = 5000 record runs for minutes: the subprocess goes first
    r = subprocess.run([sys.executable, "-m", "hyperred.cli", "verify", str(tmp_path / "N.jsonl")],
                       capture_output=True, text=True, timeout=20)
    assert r.returncode == 3 and r.stdout == "" and "Traceback" not in r.stderr
    for key, (_, message) in bounds.items():
        assert cli.main(["verify", str(tmp_path / f"{key}.jsonl")]) == 3, key
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err, (key, err)


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
