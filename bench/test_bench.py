"""Tests of the benchmark itself: inputs, job classification, span accounting.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import itertools
import json
import math
import statistics
import time
from pathlib import Path

import pytest

import run
import speed

run._import_program()

import workloads                                   # noqa: E402
from hyperred import cli, mb                      # noqa: E402
from hyperred.errors import HyperredError         # noqa: E402
from hyperred.reduction import shift_vector       # noqa: E402
from spans import Tracer                          # noqa: E402

CRITERION_8_JOB = ("reduce", "2F1[7/5+eps, 1/3-eps; 3/2+2*eps; z]",
                   "--basis", "2F1[2/5+eps, 1/3-eps; 3/2+2*eps; z]", "--format", "jsonl")


def test_same_seed_gives_same_inputs():
    for w in workloads.WORKLOADS:
        first = workloads.job_stream(w, 7, 2)
        assert first == workloads.job_stream(w, 7, 2)
        assert first != workloads.job_stream(w, 8, 2)
        assert len(first[0]) == len(first[1])         # every round has the same slots


def test_classifier_fails_a_corrupted_reduce_answer():
    code, answer = run.run_cli_job(CRITERION_8_JOB)
    assert code == 0
    assert run.classify(CRITERION_8_JOB, code, answer) == run.OK
    rec = json.loads(answer)
    rec["r"][1] = cli.enc_ratfunc(cli.dec_ratfunc(rec["r"][1]) + 1)
    assert run.classify(CRITERION_8_JOB, 0, json.dumps(rec)) == run.FAILED


def test_classifier_maps_exit_codes():
    assert run.classify(CRITERION_8_JOB, 4, "") == run.REFUSED
    assert run.classify(CRITERION_8_JOB, 3, "") == run.REFUSED
    assert run.classify(CRITERION_8_JOB, 5, "") == run.FAILED
    assert run.classify(CRITERION_8_JOB, None, "") == run.FAILED
    assert run.classify(CRITERION_8_JOB, 0, "not json") == run.FAILED


def test_self_time_is_duration_minus_child_spans():
    ticks = iter([0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    t.enter("a")            # a: 0 .. 10
    t.enter("b")            #   b: 1 .. 3
    t.enter("c")            #     c: 1.5 .. 2.5
    t.exit()
    t.exit()
    t.enter("b")            #   b: 4 .. 5
    t.exit()
    t.exit()
    assert t.calls == {"a": 1, "b": 2, "c": 1}
    assert t.self_s == {"a": 10 - 2 - 1, "b": (2 - 1) + 1, "c": 1}


def test_tail_percentile_leaves_ten_jobs_beyond():
    for n in (11, 22, 48, 60, 200):
        pct = run.tail_percentile(n)
        beyond = lambda p: n - math.ceil(p * n / 100)    # jobs above the nearest rank
        assert beyond(pct) >= 10 > beyond(pct + 1)


def test_quantile_is_a_weighted_mean_of_order_statistics():
    assert run.quantile([2.0] * 9, 0.5) == pytest.approx(2.0)
    xs = [0.1 * i for i in range(1, 41)]
    assert run.quantile(xs, 0.5) == pytest.approx(statistics.median(xs), rel=1e-3)
    assert run.quantile(xs, 0.5) < run.quantile(xs, 0.75) < max(xs)


def test_diagram_bindings_follow_the_rule():
    for name, table in workloads.DIAGRAM_BINDINGS.items():
        preset = mb.get_preset(name)
        powers = [s for s in preset.symbols if s != "n"]
        terms = mb.mb_to_hyper(preset.mb).terms
        ones = dict.fromkeys(powers, 1)
        want = []
        for values in itertools.product((1, 2, 3), repeat=len(powers)):
            binding = dict(zip(powers, values))
            if binding == ones:
                continue
            try:
                shifts = [shift_vector(run._bind_powers(t.fn, binding),
                                       run._bind_powers(t.fn, ones)) for t in terms]
            except HyperredError:          # not integral in some term
                continue
            size = sum(abs(k) for ups, los in shifts for k in ups + los)
            if size <= workloads.DIAGRAM_MAX_SHIFT:
                want.append(values)
        assert sorted(table) == want, name


def test_layer_metric_names_match_benchmark_json():
    spec = Path(run.BENCH_DIR.parent, "BENCHMARK.json")
    names = [m["name"] for m in json.loads(spec.read_text())["per_layer"]]
    from spans import LayerTrace
    cache = run.word_series_cache()
    assert sorted(run.layer_metrics(LayerTrace(), cache, cache, 1.0)) == sorted(names)


def test_speed_probe_samples_while_a_job_runs():
    probe = speed.SpeedProbe()
    probe.start()
    deadline = time.process_time() + 5 * speed.SAMPLE_EVERY_S
    while time.process_time() < deadline:
        pass
    factor = probe.stop()
    assert len(probe.samples) > 1
    assert 0 < factor < math.inf
