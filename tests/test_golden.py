"""Golden CLI corpus: every command's stdout bytes and exit code, replayed.

Each job runs through ``cli.main`` in-process and must reproduce the
stored stdout byte for byte, plus the stored exit code.  A refactor that
changes no behaviour leaves every entry unchanged.  After an intended
behaviour change, rewrite the expected files with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from hyperred import cli

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

GENERIC_TARGET = "2F1[7/5+eps, 1/3-eps; 1/2+2*eps; z]"
GENERIC_BASIS = "2F1[2/5+eps, 1/3-eps; 3/2+2*eps; z]"
HALF_INTEGER = "2F1[1/2+eps, 1/2-eps; 3/2+2*eps; z]"

# name -> argv without --format; every job runs in both formats
JOBS = {
    "reduce-generic": ["reduce", GENERIC_TARGET, "--basis", GENERIC_BASIS],
    "reduce-affine": ["reduce", "3F2[1, 3/2+eps, 1/3-eps; 5/2+2*eps, 4/3+eps; z]",
                      "--basis", "3F2[1, 1/2+eps, 1/3-eps; 3/2+2*eps, 4/3+eps; z]"],
    "reduce-minus-z": ["reduce", GENERIC_TARGET.replace("; z]", "; -1*z]"),
                       "--basis", GENERIC_BASIS.replace("; z]", "; -1*z]")],
    "count-basis": ["count-basis", "3F2[1, 1/2+eps, -eps; 2-eps, 1+eps; z]"],
    "mb-raw": ["mb", "MB[-1*y; [rho+sigma1+sigma2-n/2, sigma1, sigma2]; [n/2]; "
                     "[n/2-sigma1-sigma2]; []]"],
    "mb-c3": ["mb", "@c3"],
    "mb-c1": ["mb", "@c1"],
    "mb-v1200": ["mb", "@v1200"],
    "count-masters-c3": ["count-masters", "@c3", "--j1", "1", "--j2", "1", "--sigma", "1"],
    "count-masters-c1": ["count-masters", "@c1", "--sigma1", "1", "--sigma2", "2",
                         "--rho", "1"],
    "count-masters-v1200": ["count-masters", "@v1200", "--alpha", "1", "--beta", "2",
                            "--sigma", "1", "--rho", "1"],
    "expand-integer": ["expand", "2F1[2*eps, 3*eps; 1+5*eps; z]", "--order", "4"],
    "expand-half-integer": ["expand", HALF_INTEGER, "--order", "3"],
    "expand-unit-upper": ["expand", "2F1[1+2*eps, 3*eps; 1-eps; z]", "--order", "3"],
    "expand-3f2": ["expand", "3F2[2*eps, -3*eps, eps; 1+4*eps, 1-2*eps; z]", "--order", "4"],
    "expand-4f3": ["expand", "4F3[eps, 2*eps, -eps, 3*eps; 1+eps, 1-3*eps, 1+2*eps; z]",
                   "--order", "4"],
    "expand-half-integer-k4": ["expand", "2F1[1/2+2*eps, 1/2-3*eps; 3/2+5*eps; z]",
                               "--order", "4"],
    "check-gauss": ["check-parametrization", "gauss", "--p1", "1", "--p2", "1",
                    "--r", "-1", "--q", "2", "--beta", "1/2"],
    "check-3f2": ["check-parametrization", "3f2", "--r", "1", "--p", "-1", "--q", "2"],
    "check-f3": ["check-parametrization", "f3", "--p1", "1", "--p2", "0", "--r1", "0",
                 "--r2", "1", "--p", "0", "--q", "2"],
    "verify-stored": ["verify", str(GOLDEN / "stored.jsonl")],
    "verify-suite": ["verify", "--suite"],
    "exit-parse": ["reduce", "2F1[1/2+; 1; z]", "--basis", "2F1[1, 1; 1; z]"],
    "exit-unbound": ["count-masters", "@c1", "--bind", "sigma1=2"],
    "exit-bad-value": ["count-masters", "@c3", "--j1", "abc", "--j2", "1", "--sigma", "1"],
    "exit-bad-bind": ["count-masters", "@c3", "--bind", "j1=1/0", "--j2", "1",
                      "--sigma", "1"],
    "exit-bad-beta": ["check-parametrization", "gauss", "--p1", "1", "--p2", "1",
                      "--r", "-1", "--q", "2", "--beta", "x"],
    "exit-bad-3f2": ["check-parametrization", "3f2", "--r", "1", "--p", "-1", "--q", "2",
                     "--a1", "1/0"],
    "exit-unsupported": ["expand", "2F1[1/3+eps, 1/5; 1/7+eps; z]", "--order", "2"],
    "exit-not-polylog": ["expand", "2F1[1+2*eps, 3*eps; 2-eps; z]", "--order", "3"],
    "exit-exceptional": ["reduce", "2F1[1, 1/3-eps; 3/2; z]",
                         "--basis", "2F1[0, 1/3-eps; 3/2; z]"],
}

CASES = [(f"{name}.{fmt}", argv + ["--format", fmt])
         for name, argv in JOBS.items() for fmt in ("text", "jsonl")]


def run_case(argv):
    """(stdout bytes, exit code) of one in-process CLI job."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return out.getvalue().encode(), code


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden(name, argv):
    stdout, code = run_case(argv)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()


def regenerate():
    codes = {}
    for name, argv in CASES:
        stdout, codes[name] = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(stdout)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
