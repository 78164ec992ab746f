"""hyperred benchmark: seeded workloads through the public API, oracle-checked.

    python3 bench/run.py --workload reduce --seed 1 --seconds 30 --trace 0

One closed-loop client: this process runs the jobs of the workload's
stream one after another, with no threads.  Every job ends as exactly one
of ``ok`` (its answer passed the series oracle), ``refused`` (a documented
refusal, CLI exit 3 or 4) or ``failed`` (exit 5, any other error, or over
the per-job budget).  Answers the program returns as verified are checked
again here before a job counts as ``ok``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see bench/README.md).  End-to-end times are
calibrated to the speed of the CPU while they were taken (speed.py).  The
last line of stdout is one JSON object; the lines before it give the job
counts, the tail percentile and a digest of every ``ok`` answer, so that
two runs or two commits can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

JOB_BUDGET_S = 40.0       # one job over this is failed
RUN_BUDGET_FACTOR = 3     # no job starts after this many times --seconds
SETUP_PROBES = 9
REDUCE_CHECK = (30, 4)    # (N, K) of the independent reduce check
EXPAND_CHECK_N = 12
DIAGRAM_VERIFY = (30, 2)

OK, REFUSED, FAILED = "ok", "refused", "failed"


def _import_program():
    """Import hyperred from this checkout's src/, never from elsewhere."""
    if not (SRC / "hyperred" / "__init__.py").is_file():
        sys.exit(f"bench: no hyperred sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import hyperred
    if Path(hyperred.__file__).resolve().parent != SRC / "hyperred":
        sys.exit(f"bench: imported hyperred from {hyperred.__file__}, not {SRC}")


class JobTimeout(BaseException):
    """Raised inside a job that runs past JOB_BUDGET_S."""


def _on_alarm(signum, frame):
    raise JobTimeout()


# ---------------------------------------------------------------------------
# running one job


def run_cli_job(job):
    """cli.main in-process; returns (exit code, stdout)."""
    from hyperred import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(job))
    return code, out.getvalue()


def _bind_powers(fn, values):
    from hyperred.hyper import SymHyperFn
    return SymHyperFn([u.bind(values) for u in fn.upper],
                      [l.bind(values) for l in fn.lower], fn.kappa, fn.var)


def run_diagram_job(job):
    """MB conversion, master count, then every term reduced onto the all-ones basis.

    Returns (exit code, answer): the code a CLI run would give (0, 4 for a
    documented refusal, 5 for an oracle mismatch) and, when 0, the answer
    as canonical JSON.
    """
    from hyperred import cli, grammar, mb, reduction
    from hyperred.errors import HyperredError
    from hyperred.scalars import EpsLin
    _, name, values, n_const = job
    preset = grammar.parse_input("@" + name)
    powers = [s for s in preset.symbols if s != "n"]
    binding = dict(zip(powers, values))
    ones = {s: 1 for s in powers}
    hs = mb.mb_to_hyper(preset.mb)
    L, _ = mb.count_master_integrals(hs, binding)
    n_value = EpsLin(Fraction(n_const), -2)
    terms, codes = [], []
    for term in hs.terms:
        try:
            r = reduction.reduce_to_basis(_bind_powers(term.fn, binding),
                                          _bind_powers(term.fn, ones))
            ok, _ = reduction.verify_reduction(r.bind(n_value=n_value), *DIAGRAM_VERIFY)
        except HyperredError as e:
            codes.append(cli.exit_code_for(e))
            continue
        codes.append(0 if ok else cli.EXIT_VERIFY)
        terms.append({"s": cli.enc_ratfunc(r.s_poly),
                      "r": [cli.enc_ratfunc(x) for x in r.r_polys],
                      "tail": cli.enc_ratfunc(r.algebraic_tail), "affine": r.affine})
    code = max(codes, key=lambda c: (c not in (0, 3, 4), c))
    if code:
        return code, ""
    return 0, json.dumps({"preset": name, "powers": list(values), "n": n_const,
                          "L": L, "terms": terms}, sort_keys=True, separators=(",", ":"))


def execute(job):
    """Run one job; returns (outcome before checking, exit code, answer, seconds)."""
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
    try:
        if job[0] == "diagram":
            code, answer = run_diagram_job(job)
        else:
            code, answer = run_cli_job(job)
    except JobTimeout:
        code, answer = None, ""
    except Exception:          # noqa: BLE001 - any crash is a failed job
        code, answer = 1, ""
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return outcome_of(code), code, answer, time.perf_counter() - start


def outcome_of(code) -> str:
    """What an exit code stands for, before an exit-0 answer is checked."""
    return OK if code == 0 else REFUSED if code in (3, 4) else FAILED


# ---------------------------------------------------------------------------
# checking answers independently of the program's own verdict


def check_answer(job, answer: str) -> bool:
    """True when an exit-0 answer really passes the series oracle."""
    if job[0] == "diagram":
        return True               # the job ran verify_reduction itself
    from hyperred import cli, expansion, grammar, reduction
    lines = [l for l in answer.splitlines() if l.strip()]
    if len(lines) != 1:
        return False
    rec = json.loads(lines[0])
    if job[0] == "reduce":
        if rec.get("command") != "reduce" or rec.get("verified") is not True:
            return False
        target, basis = grammar.parse_hyper(rec["target"]), grammar.parse_hyper(rec["basis"])
        if target != grammar.parse_hyper(job[1]) or basis != grammar.parse_hyper(job[3]):
            return False
        result = reduction.ReductionResult(
            target=target, basis=basis,
            s_poly=cli.dec_ratfunc(rec["s"]),
            r_polys=tuple(cli.dec_ratfunc(r) for r in rec["r"]),
            algebraic_tail=cli.dec_ratfunc(rec["tail"]),
            affine=rec["affine"])
        ok, _ = reduction.verify_reduction(result, *REDUCE_CHECK)
        return ok
    if rec.get("command") != "expand" or rec.get("verified") is not True:
        return False
    fn = grammar.parse_hyper(job[1])
    if grammar.parse_hyper(rec["fn"]) != fn or len(rec["layers"]) != int(job[3]) + 1:
        return False
    exp = expansion.EpsilonExpansion(
        fn=fn, kind=rec["kind"], var=rec["var"],
        omega0=cli.dec_ratfunc(rec["omega0"]) if rec["omega0"] is not None else None,
        layers=tuple(cli.dec_polylog(l) for l in rec["layers"]))
    ok, _ = expansion.verify_expansion(fn, exp, EXPAND_CHECK_N)
    return ok


def classify(job, code, answer) -> str:
    """ok / refused / failed for a finished job, checking exit-0 answers."""
    if code == 0:
        try:
            return OK if check_answer(job, answer) else FAILED
        except Exception:      # noqa: BLE001 - an unreadable answer is wrong
            return FAILED
    return outcome_of(code)


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it.

    With ten samples or fewer no percentile qualifies, and the median stands in.
    """
    if n <= 10:
        return 50
    return math.floor(100 * (n - 10) / n)


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta(q(n+1), (1-q)(n+1))-weighted mean of all order statistics.  Job
    times fall in clusters, one per slot, and a single order statistic
    jumps between clusters with run-to-run noise; the weighted mean moves
    smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    weights = []
    for i in range(n):                      # Simpson's rule on [i/n, (i+1)/n]
        lo, h = i / n, 1 / (16 * n)
        inner = sum((4 if j % 2 else 2) * density(lo + j * h) for j in range(1, 16))
        weights.append((density(lo) + density(lo + 16 * h) + inner) * h / 3)
    return sum(x * w for x, w in zip(xs, weights)) / sum(weights)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def word_series_cache():
    """The gpl word-series cache's own counters."""
    from hyperred import gpl
    return gpl._word_series.cache_info()


def clear_word_series_cache():
    from hyperred import gpl
    gpl._word_series.cache_clear()


# ---------------------------------------------------------------------------
# streams


class Stream:
    """Runs jobs in order and keeps what the metrics need."""

    def __init__(self, deadline: float, on_job=None, probe=None):
        self.deadline = deadline
        self.on_job = on_job
        self.probe = probe          # a speed.SpeedProbe: times are calibrated
        self.results = []           # (job, outcome, code, answer, seconds or None)

    def run(self, jobs):
        for job in jobs:
            if time.perf_counter() > self.deadline:
                self.results.append((job, FAILED, None, "", None))
                continue
            if self.on_job:
                self.on_job()
            if self.probe:
                self.probe.start()
            outcome, code, answer, seconds = execute(job)
            if self.probe:
                seconds *= self.probe.stop()
            self.results.append((job, outcome, code, answer, seconds))

    @property
    def wall_s(self) -> float:
        return sum(self.latencies())

    def check(self):
        """Re-check ok answers; returns the number the program got wrong."""
        wrong = 0
        for i, (job, outcome, code, answer, seconds) in enumerate(self.results):
            if outcome == OK and classify(job, code, answer) != OK:
                wrong += 1
                self.results[i] = (job, FAILED, code, answer, seconds)
        return wrong

    def count(self, outcome) -> int:
        return sum(1 for r in self.results if r[1] == outcome)

    def digest(self) -> str:
        h = hashlib.sha256()
        for job, outcome, _, answer, _ in self.results:
            if outcome == OK:
                h.update(json.dumps(job).encode() + b"\n" + answer.encode())
        return h.hexdigest()

    def latencies(self):
        """Time to outcome of every job that ran (skipped jobs have none)."""
        return [r[4] for r in self.results if r[4] is not None]

    def report(self, label: str, workload: str) -> int:
        n = len(self.results)
        pct = tail_percentile(len(self.latencies()))
        print(f"{label}: {n} jobs: {self.count(OK)} ok, {self.count(REFUSED)} refused, "
              f"{self.count(FAILED)} failed (failed_share {self.count(FAILED) / n:.4f})")
        print(f"{label}: latency_tail_s is p{pct} of {len(self.latencies())} jobs")
        print(f"{label}: digest {workload} sha256={self.digest()}")
        return pct


def setup_seconds(args) -> float:
    """Median calibrated time of fresh interpreters that import and build the inputs.

    A probe samples its own CPU speed from the moment its arguments are
    parsed and prints the mean; its wall time is scaled by that speed.
    Speed samples taken outside the probe would not do: the speed changes
    within a tenth of a second, and the probe may run on the other CPU.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    # No timeout: waiting with one polls the child every 50 ms, which would
    # round every probe up to the next poll.
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        times.append((time.perf_counter() - start) * float(out))
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, jobs):
    setup = setup_seconds(args)
    stream = Stream(time.perf_counter() + RUN_BUDGET_FACTOR * args.seconds,
                    probe=speed.SpeedProbe())
    stream.run(jobs)
    rss = peak_rss_mb()
    wrong = stream.check()
    pct = stream.report("run", args.workload)
    attempted = len(stream.results)
    times = stream.latencies()
    metrics = {
        "wall_s": metric(stream.wall_s, "s"),
        "latency_p50_s": metric(quantile(times, 0.5), "s"),
        "latency_tail_s": metric(quantile(times, pct / 100), "s"),
        "ok_share": metric(stream.count(OK) / attempted, "share"),
        "peak_rss_mb": metric(rss, "MB"),
        "setup_s": metric(setup, "s"),
    }
    return wrong == 0, attempted, stream.count(FAILED), metrics


LAYER_SPANS = (
    "poly.gcd", "poly.exact_div", "poly.mul", "ratfunc.add", "ratfunc.mul",
    "ratfunc.div", "ratfunc.to_biseries", "theta.ops", "reduction.module_build",
    "reduction.step_matrix", "reduction.matmul", "reduction.inverse",
    "reduction.reduce", "reduction.verify", "series.series_of_hyper", "series.mul",
    "series.compose", "series.invert", "gpl.integrate", "gpl.partial_fractions",
    "gpl.combo_series", "gpl.theta", "gpl.polylog_series", "expansion.expand",
    "expansion.verify", "mb.to_hyper", "mb.count_masters", "grammar.parse", "cli.emit",
)


def layer_metrics(trace, cache_before, cache_after, overhead):
    t = trace.tracer
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = metric(t.calls.get(name, 0), "count")
        out[f"{name}.self_s"] = metric(t.self_s.get(name, 0.0), "s")
    share = lambda part, whole: part / whole if whole else 0.0
    out["poly.gcd.trivial_share"] = metric(
        share(t.counts.get("poly.gcd.trivial", 0), t.calls.get("poly.gcd", 0)), "share")
    out["reduction.module_build.repeat_share"] = metric(
        share(t.counts.get("reduction.module_build.repeats", 0),
              t.calls.get("reduction.module_build", 0)), "share")
    out["reduction.path_steps"] = metric(t.counts.get("reduction.path_steps", 0), "count")
    for name, unit in (("poly.coeff_bits_max", "bits"),
                       ("reduction.intermediate_bits_max", "bits"),
                       ("reduction.result_bits_max", "bits"),
                       ("reduction.result_zdeg_max", "count"),
                       ("reduction.result_epsdeg_max", "count"),
                       ("reduction.result_ndeg_max", "count")):
        out[name] = metric(t.maxima.get(name, 0), unit)
    out["reduction.swell"] = metric(share(t.maxima.get("reduction.intermediate_bits_max", 0),
                                          t.maxima.get("reduction.result_bits_max", 0)), "ratio")
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    out["gpl.word_series.hits"] = metric(hits, "count")
    out["gpl.word_series.misses"] = metric(misses, "count")
    out["gpl.word_series.hit_share"] = metric(share(hits, hits + misses), "share")
    out["gpl.word_series.entries"] = metric(cache_after.currsize, "count")
    out["gpl.words_out"] = metric(t.counts.get("gpl.words_out", 0), "count")
    out["trace.overhead"] = metric(overhead, "ratio")
    return out


def traced(args, jobs):
    """Half the stream untraced, then the same jobs traced, each from a cold cache."""
    from spans import LayerTrace
    jobs = jobs[:max(1, len(jobs) // 2)]
    deadline = time.perf_counter() + RUN_BUDGET_FACTOR * args.seconds
    plain = Stream(deadline)
    plain.run(jobs)
    clear_word_series_cache()
    layer_trace = LayerTrace()
    layer_trace.install()
    try:
        cache_before = word_series_cache()
        spans = Stream(deadline, on_job=layer_trace.new_job)
        spans.run(jobs)
        cache_after = word_series_cache()
    finally:
        layer_trace.uninstall()
    wrong = plain.check() + spans.check()
    plain.report("untraced", args.workload)
    spans.report("traced", args.workload)
    overhead = spans.wall_s / plain.wall_s if plain.wall_s else 0.0
    attempted = len(plain.results) + len(spans.results)
    failed = plain.count(FAILED) + spans.count(FAILED)
    return (wrong == 0, attempted, failed,
            layer_metrics(layer_trace, cache_before, cache_after, overhead))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:
        probe = speed.SpeedProbe()
        probe.start()
    _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {workloads.WORKLOADS}")
    rounds = workloads.job_stream(args.workload, args.seed,
                                  workloads.rounds_for(args.workload, args.seconds))
    if args.probe:
        print(probe.stop())
        return 0
    jobs = [job for r in rounds for job in r]
    signal.signal(signal.SIGALRM, _on_alarm)
    run = traced if args.trace else end_to_end
    correct, attempted, failed, metrics = run(args, jobs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
