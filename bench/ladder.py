"""One-off ladder report for the ROADMAP baseline rows (not a gated workload).

    python3 bench/ladder.py [--out bench/LADDER.md]

Each case runs in a fresh interpreter, so caches start cold, and is
killed after TIMEOUT_S seconds; such a case is recorded as "timeout at T
s", never dropped or shrunk.  The report puts each measurement beside the
number the ROADMAP recorded for the same case.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BASIS_2F1 = "2F1[2/5+eps, 1/3-eps; 3/2+2*eps; z]"
BASIS_3F2 = "3F2[2/5+eps, 1/3-eps, 1/7+3*eps; 3/2+2*eps, 5/4-eps; z]"
HALF_INTEGER = "2F1[1/2+2*eps, 1/2-3*eps; 3/2+5*eps; z]"
TIMEOUT_S = 120

# (label, kind, argument, order or shift, ROADMAP figure)
CASES = (
    [(f"reduce 2F1 ({n},{n};-{n})", "reduce", BASIS_2F1, ((n, n), (-n,)), baseline)
     for n, baseline in ((1, "0.09 s"), (2, "0.54 s"), (3, "31.8 s"), (4, "> 13 min (killed)"))]
    + [(f"reduce 3F2 ({n},{n},{n};{n},-{n})", "reduce", BASIS_3F2, ((n, n, n), (n, -n)), "-")
       for n in (1, 2, 3)]
    + [("expand half-integer K=4", "expand", HALF_INTEGER, 4, "0.14 s + 1.0 s verify"),
       ("expand half-integer K=6", "expand", HALF_INTEGER, 6, "0.9 s + 11-15 s verify")]
)


def run_case(index: int) -> dict:
    """Time one case in this process; the work and its check separately."""
    from hyperred.expansion import epsilon_expand, verify_expansion
    from hyperred.grammar import parse_hyper
    from hyperred.reduction import reduce_to_basis, verify_reduction
    _, kind, text, arg, _ = CASES[index]
    fn = parse_hyper(text)
    start = time.perf_counter()
    if kind == "reduce":
        target = fn
        ups, los = arg
        for i, m in enumerate(ups):
            target = target.shifted("upper", i, m)
        for i, m in enumerate(los):
            target = target.shifted("lower", i, m)
        result = reduce_to_basis(target, fn)
        mid = time.perf_counter()
        ok, _ = verify_reduction(result, 30, 2)
    else:
        result = epsilon_expand(fn, arg)
        mid = time.perf_counter()
        ok, _ = verify_expansion(fn, result, 30)
    end = time.perf_counter()
    return {"work_s": mid - start, "verify_s": end - mid, "verified": ok}


def src_loc(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.glob("hyperred/*.py")))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="also write the report here")
    ap.add_argument("--case", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    from run import SRC, _import_program
    _import_program()
    if args.case is not None:
        print(json.dumps(run_case(args.case)))
        return 0
    rows = []
    for i, (label, _, _, _, baseline) in enumerate(CASES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--case", str(i)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            measured = f"timeout at {TIMEOUT_S} s"
        else:
            if done.returncode != 0:
                measured = f"error (exit {done.returncode})"
            else:
                r = json.loads(done.stdout.strip().splitlines()[-1])
                measured = (f"{r['work_s']:.2f} s + {r['verify_s']:.2f} s verify"
                            + ("" if r["verified"] else " (oracle mismatch)"))
        rows.append(f"| {label} | {measured} | {baseline} |")
        print(rows[-1], flush=True)
    report = "\n".join([
        "# Ladder report",
        "",
        "Generated by `python3 bench/ladder.py`; each case in a fresh interpreter,",
        f"killed after {TIMEOUT_S} s.  Reductions are checked with",
        "`verify_reduction(N=30, K=2)`, expansions with `verify_expansion(N=30)`.",
        "",
        f"- Python {platform.python_version()}, {len(os.sched_getaffinity(0))} CPUs"
        f" ({cpu_model()})",
        f"- src LOC: {src_loc(SRC)} lines in src/hyperred/*.py",
        "",
        "| case | measured | ROADMAP baseline |",
        "|---|---|---|",
        *rows,
        "",
    ])
    if args.out:
        Path(args.out).write_text(report)
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
