"""Golden CLI corpus: every command's stdout bytes and exit code, replayed.

Each job runs through ``cli.main`` in-process and must reproduce the
stored stdout byte for byte, plus the stored exit code; an ``exit-*`` job
must also reproduce its ``error:`` text on stderr.  A refactor that
changes no behaviour leaves every entry unchanged.  After an intended
behaviour change, rewrite the expected files with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

import contextlib
import io
import json
import time
from pathlib import Path

import pytest

from hyperred import cli

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

GENERIC_TARGET = "2F1[7/5+eps, 1/3-eps; 1/2+2*eps; z]"
GENERIC_BASIS = "2F1[2/5+eps, 1/3-eps; 3/2+2*eps; z]"
HALF_INTEGER = "2F1[1/2+eps, 1/2-eps; 3/2+2*eps; z]"

# name -> argv without --format; every job runs in both formats, but verify,
# whose lines are the same in both and which declares no --format, runs
# without it under both names
JOBS = {
    "reduce-generic": ["reduce", GENERIC_TARGET, "--basis", GENERIC_BASIS],
    "reduce-generic-k2": ["reduce", GENERIC_TARGET, "--basis", GENERIC_BASIS, "--K", "2"],
    "reduce-affine": ["reduce", "3F2[1, 3/2+eps, 1/3-eps; 5/2+2*eps, 4/3+eps; z]",
                      "--basis", "3F2[1, 1/2+eps, 1/3-eps; 3/2+2*eps, 4/3+eps; z]"],
    "reduce-minus-z": ["reduce", GENERIC_TARGET.replace("; z]", "; -1*z]"),
                       "--basis", GENERIC_BASIS.replace("; z]", "; -1*z]")],
    "reduce-y": ["reduce", GENERIC_TARGET.replace("; z]", "; y]"),
                 "--basis", GENERIC_BASIS.replace("; z]", "; y]")],
    "count-basis": ["count-basis", "3F2[1, 1/2+eps, -eps; 2-eps, 1+eps; z]"],
    "mb-raw": ["mb", "MB[-1*y; [rho+sigma1+sigma2-n/2, sigma1, sigma2]; [n/2]; "
                     "[n/2-sigma1-sigma2]; []]"],
    "mb-c3": ["mb", "@c3"],
    "mb-c1": ["mb", "@c1"],
    "mb-v1200": ["mb", "@v1200"],
    "count-masters-c3": ["count-masters", "@c3", "--bind", "j1=1", "--bind", "j2=1",
                         "--bind", "sigma=1"],
    "count-masters-c1": ["count-masters", "@c1", "--bind", "sigma1=1", "--bind", "sigma2=2",
                         "--bind", "rho=1"],
    "count-masters-v1200": ["count-masters", "@v1200", "--bind", "alpha=1", "--bind", "beta=2",
                            "--bind", "sigma=1", "--bind", "rho=1"],
    "expand-integer": ["expand", "2F1[2*eps, 3*eps; 1+5*eps; z]", "--order", "4"],
    "expand-half-integer": ["expand", HALF_INTEGER, "--order", "3"],
    "expand-unit-upper": ["expand", "2F1[1+2*eps, 3*eps; 1-eps; z]", "--order", "3"],
    "expand-3f2": ["expand", "3F2[2*eps, -3*eps, eps; 1+4*eps, 1-2*eps; z]", "--order", "4"],
    "expand-4f3": ["expand", "4F3[eps, 2*eps, -eps, 3*eps; 1+eps, 1-3*eps, 1+2*eps; z]",
                   "--order", "4"],
    "expand-half-integer-k4": ["expand", "2F1[1/2+2*eps, 1/2-3*eps; 3/2+5*eps; z]",
                               "--order", "4"],
    "expand-rational-omega0": ["expand", "2F1[1+eps, 2+eps; 2+2*eps; z]", "--order", "0"],
    "check-gauss": ["check-parametrization", "gauss", "--p1", "1", "--p2", "1",
                    "--r", "-1", "--q", "2", "--beta", "1/2"],
    "check-3f2": ["check-parametrization", "3f2", "--r", "1", "--p", "-1", "--q", "2"],
    "check-f3": ["check-parametrization", "f3", "--p1", "1", "--p2", "0", "--r1", "0",
                 "--r2", "1", "--p", "0", "--q", "2"],
    "verify-stored": ["verify", str(GOLDEN / "stored.jsonl")],
    # the record expand-rational-omega0 writes, whose omega0 is 1/(1 - z)
    "verify-stored-rational": ["verify", str(GOLDEN / "expand-rational-omega0.jsonl.out")],
    "verify-suite": ["verify", "--suite"],
    "exit-parse": ["reduce", "2F1[1/2+; 1; z]", "--basis", "2F1[1, 1; 1; z]"],
    "exit-parse-superscript": ["count-basis", "2F1[², 1; 1; z]"],
    "exit-unbound": ["count-masters", "@c1", "--bind", "sigma1=2"],
    "exit-bad-value": ["count-masters", "@c3", "--bind", "j1=abc", "--bind", "j2=1",
                       "--bind", "sigma=1"],
    "exit-bad-bind": ["count-masters", "@c3", "--bind", "j1=1/0", "--bind", "j2=1",
                      "--bind", "sigma=1"],
    "exit-repeat-bind": ["count-masters", "@c3", "--bind", "j1=1", "--bind", "j1=2",
                         "--bind", "j2=1", "--bind", "sigma=1"],
    "exit-unknown-bind": ["count-masters", "@c3", "--bind", "j1=1", "--bind", "j2=1",
                          "--bind", "sigma=1", "--bind", "foo=2"],
    "exit-bind-n": ["count-masters", "@c3", "--bind", "n=3", "--bind", "j1=1", "--bind", "j2=1",
                    "--bind", "sigma=1"],
    "exit-bad-beta": ["check-parametrization", "gauss", "--p1", "1", "--p2", "1",
                      "--r", "-1", "--q", "2", "--beta", "x"],
    "exit-bad-3f2": ["check-parametrization", "3f2", "--r", "1", "--p", "-1", "--q", "2",
                     "--a1", "1/0"],
    "exit-zero-3f2": ["check-parametrization", "3f2", "--r", "1", "--p", "-1", "--q", "2",
                      "--a2", "0"],
    "exit-unsupported": ["expand", "2F1[1/3+eps, 1/5; 1/7+eps; z]", "--order", "2"],
    "exit-not-polylog": ["expand", "2F1[1+2*eps, 3*eps; 2-eps; z]", "--order", "3"],
    "exit-no-factorization": ["expand", "2F1[1+eps, 1+eps; 1+eps; z]", "--order", "2"],
    "exit-exceptional": ["reduce", "2F1[1, 1/3-eps; 3/2; z]",
                         "--basis", "2F1[0, 1/3-eps; 3/2; z]"],
    "exit-bad-stored": ["verify", str(GOLDEN / "stored-bad.jsonl")],
    "exit-empty-stored": ["verify", str(GOLDEN / "stored-empty.jsonl")],
    "exit-budget-verify": ["verify", str(GOLDEN / "stored-deep.jsonl")],
    "exit-budget-verify-expand": ["verify", str(GOLDEN / "stored-deep-expand.jsonl")],
    "exit-pole-depth": ["verify", str(GOLDEN / "stored-pole-depth.jsonl")],
}

CASES = [(f"{name}.{fmt}", argv + (["--format", fmt] if argv[0] != "verify" else []))
         for name, argv in JOBS.items() for fmt in ("text", "jsonl")]


def run_case(argv):
    """(stdout bytes, stderr bytes, exit code) of one in-process CLI job."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue().encode(), err.getvalue().encode(), code


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden(name, argv):
    stdout, stderr, code = run_case(argv)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    if name.startswith("exit-"):
        assert stderr == (GOLDEN / f"{name}.err").read_bytes()


def test_deep_stored_reduction_is_refused_before_any_series():
    """stored-deep.jsonl is stored.jsonl with z^2000 added to S: refused while decoding."""
    start = time.perf_counter()
    _, _, code = run_case(JOBS["exit-budget-verify"])
    assert code == 3 and time.perf_counter() - start < 1.0


def test_deep_stored_expansion_is_refused_before_any_series():
    """stored-deep-expand.jsonl is stored.jsonl's expand record padded to 400 zero layers."""
    start = time.perf_counter()
    _, _, code = run_case(JOBS["exit-budget-verify-expand"])
    assert code == 3 and time.perf_counter() - start < 1.0


def test_stored_expansion_at_the_order_cap_is_still_checked(tmp_path):
    """Padded to 9 layers (eps order 8, the cap) the record is checked, and fails it."""
    rec = json.loads((GOLDEN / "stored.jsonl").read_text().splitlines()[1])
    assert rec["command"] == "expand"
    rec["layers"] += [{"const": "0", "terms": [], "var": "z"}] * (9 - len(rec["layers"]))
    path = tmp_path / "order8.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    _, stderr, code = run_case(["verify", str(path)])
    assert code == 5 and b"stored expansion fails oracle" in stderr


def test_stored_reduction_edited_past_its_degree_fails_without_the_pole_tail(tmp_path):
    """stored-pole-depth.jsonl is stored.jsonl's reduce record with z^27 added to
    R_0 and a tail eps^5 / z^4, which is refused (exit 3).  Without that tail
    the record is checked, and the edit is caught at (z^27, eps^0)."""
    stored = next(r for r in map(json.loads, (GOLDEN / "stored.jsonl").read_text().splitlines())
                  if r["command"] == "reduce")
    rec = json.loads((GOLDEN / "stored-pole-depth.jsonl").read_text())
    assert rec["r"][0]["num"] == stored["r"][0]["num"] + [[[0, 27], "1"]]
    assert rec["tail"] != stored["tail"]
    rec["tail"] = stored["tail"]
    assert rec == {**stored, "r": rec["r"]}
    path = tmp_path / "pole-free.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    _, stderr, code = run_case(["verify", str(path)])
    assert (code, stderr) == (5, b"error: stored reduction fails oracle at (z^27, eps^0)\n")


def test_stored_reduction_with_zero_pieces_fails(tmp_path):
    """stored.jsonl's reduce record with S, every R_j and the tail set to zero:
    0 = 0 holds at every cell, but a zero S says nothing, so it fails (exit 5)."""
    rec = json.loads((GOLDEN / "stored.jsonl").read_text().splitlines()[0])
    assert rec["command"] == "reduce" and rec["s"]["num"]
    for piece in (rec["s"], *rec["r"], rec["tail"]):
        piece["num"] = []
    path = tmp_path / "zeroed.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    _, stderr, code = run_case(["verify", str(path)])
    assert (code, stderr) == (5, b"error: S is zero, so the reduction says nothing about F(target)\n")


def test_stored_rational_omega0_edited_fails(tmp_path):
    """verify-stored-rational's record with omega0's numerator doubled, 2/(1 - z),
    reads through the quotient series and fails the oracle."""
    rec = json.loads(Path(JOBS["verify-stored-rational"][1]).read_text())
    assert rec["omega0"]["num"] == [[[0], "-1"]]
    rec["omega0"]["num"] = [[[0], "-2"]]
    path = tmp_path / "omega0-doubled.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    _, stderr, code = run_case(["verify", str(path)])
    assert code == 5 and stderr.startswith(b"error: stored expansion fails oracle at")


def test_stored_file_with_no_record_is_malformed(tmp_path):
    """An empty file is refused as stored-empty.jsonl, blank lines only, is."""
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    stdout, stderr, code = run_case(["verify", str(path)])
    assert (stdout, code) == (b"", 2)
    assert stderr == (GOLDEN / "exit-empty-stored.text.err").read_bytes()


def regenerate():
    codes = {}
    for name, argv in CASES:
        stdout, stderr, codes[name] = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(stdout)
        if name.startswith("exit-"):
            (GOLDEN / f"{name}.err").write_bytes(stderr)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
