"""Seeded job streams for the ``reduce``, ``expand`` and ``diagram`` workloads.

A job stream is a list of rounds.  Every round holds the same slots in the
same order (the same shift patterns, expansion orders and presets), and
the seed draws everything inside a slot: parameter values, which
parameters a pattern lands on, the generic dimension.  Runs with
different seeds therefore do the same kind and amount of work, which
keeps their totals comparable, on different inputs.

Jobs are plain tuples of strings and numbers, so a stream can be compared
for equality and printed.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from typing import List, Tuple

from hyperred.hyper import HyperFn
from hyperred.reduction import detect_exceptional
from hyperred.scalars import EpsLin

WORKLOADS = ("reduce", "expand", "diagram")

# Rounds per stream for one second of --seconds, so --seconds sets the size
# of the stream and every commit runs the same jobs.  On the commit that
# defined the benchmark (2-CPU Xeon), as the CPU's speed varies, a reduce
# round takes 6 to 11 s, a diagram round 5 to 8, and expand rounds 17 to
# 27 s for the first (which fills the word-series cache) and 4 to 7 for
# each later one.
ROUNDS_PER_SECOND = {"reduce": 1 / 7.5, "expand": 1 / 10, "diagram": 1 / 10}

# ---------------------------------------------------------------------------
# reduce: (p, upper shifts, lower shifts, kappa, unit upper)
#
# Shift sizes run from 1 to 8 steps; raising uppers and lowering lowers
# swells the exact arithmetic fastest, from about 1 s at 6 steps.  A
# forward 8-step shift such as (3,3;-2) takes 4 to 10 s depending on the
# parameters, a spread that would swamp the run total; the larger forward
# shifts are timed by the ladder report (bench/ladder.py) instead.
# The seed permutes a pattern over the upper and over the lower
# parameters; it never flips a sign, because raising and lowering cost
# very different amounts.  Unit-upper bases stay unshifted in that
# parameter, so they take the affine module with a tail.  Scaled
# arguments (-z, z/4, 4z) are the form MB terms take.
REDUCE_SLOTS = (
    (1, (1, 0), (0,), 1, False),
    (1, (-1, 0), (0,), 1, False),
    (1, (0, 0), (-1,), 1, False),
    (1, (1, 0), (-1,), 1, False),
    (1, (-1, -1), (1,), 1, False),
    (1, (1, 1), (-2,), 1, False),
    (1, (2, 1), (-2,), 1, False),
    (1, (2, 2), (-2,), 1, False),
    (1, (3, 2), (-2,), 1, False),
    (1, (-3, -3), (2,), 1, False),
    (2, (1, 0, 0), (0, 0), 1, False),
    (2, (0, 0, 0), (1, 0), 1, False),
    (2, (1, 0, 0), (0, -1), 1, False),
    (2, (1, 1, 1), (1, -1), 1, False),
    (2, (2, 1, 1), (-1, -1), 1, False),
    (1, (0, 1), (-1,), 1, True),
    (2, (0, 1, 1), (1, -1), 1, True),
    (1, (0, 0), (1,), -1, False),
    (1, (1, 0), (-1,), F(1, 4), False),
    (2, (1, 0, 0), (0, -1), 4, False),
)


def _rand_param(rng, lower=False) -> EpsLin:
    while True:
        c = F(rng.randint(-6, 8), rng.choice((1, 2, 3, 4, 5, 7)))
        e = F(rng.choice((-3, -2, -1, 1, 2, 3)))
        if lower and c.denominator == 1 and c <= 0:
            continue
        return EpsLin(c, e)


def _rand_base(rng, p: int, kappa, unit_upper: bool) -> HyperFn:
    """Random non-exceptional (p+1)Fp; a unit upper is the only exception allowed."""
    while True:
        upper = [_rand_param(rng) for _ in range(p + 1)]
        if unit_upper:
            upper[0] = EpsLin(1)
        fn = HyperFn(upper, [_rand_param(rng, lower=True) for _ in range(p)], kappa)
        rep = detect_exceptional(fn)
        if not rep.pairs and rep.integer_uppers == ((0,) if unit_upper else ()):
            return fn


def _reduce_job(rng, slot) -> Tuple[str, ...]:
    p, ups, los, kappa, unit_upper = slot
    while True:
        basis = _rand_base(rng, p, kappa, unit_upper)
        fixed = 1 if unit_upper else 0
        moved = list(ups[fixed:])
        rng.shuffle(moved)
        up_shift = list(ups[:fixed]) + moved
        lo_shift = list(los)
        rng.shuffle(lo_shift)
        target = basis
        for i, m in enumerate(up_shift):
            if m:
                target = target.shifted("upper", i, m)
        for i, m in enumerate(lo_shift):
            if m:
                target = target.shifted("lower", i, m)
        if not any(b.const.denominator == 1 and b.const <= 0 for b in target.lower):
            return ("reduce", str(target), "--basis", str(basis), "--format", "jsonl")


# ---------------------------------------------------------------------------
# expand: the half-integer Gauss class at K = 2..6 shares its word series
# (letters -1, 0, 1) across jobs; the integer class covers the pure
# 2F1, 2F1 with a unit-shifted upper, 3F2 and 4F3 families.

EXPAND_HALF_ORDERS = (2, 3, 4, 5, 6)
# Forty small integer-class jobs per round put the median among them, so
# it rests on many samples and averages over many seeded coefficients.
EXPAND_INT_SLOTS = tuple((family, K) for K in (2, 3, 4, 5, 6) for family in range(4)) * 2


def _eps_coeff(rng) -> int:
    return rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))


def _int_class_fn(rng, family: int) -> HyperFn:
    e = lambda c: EpsLin(c, _eps_coeff(rng))
    if family == 0:
        return HyperFn([e(0), e(0)], [e(1)])
    if family == 1:
        while True:                        # 1+a e over 1+a e would cancel to 1F0
            fn = HyperFn([e(1), e(0)], [e(1)])
            if fn.upper[0] != fn.lower[0]:
                return fn
    if family == 2:
        return HyperFn([e(0), e(0), e(0)], [e(1), e(1)])
    return HyperFn([e(0), e(0), e(0), e(0)], [e(1), e(1), e(1)])


def _expand_round(rng) -> List[Tuple[str, ...]]:
    """Half-integer jobs by rising K, with the integer-class jobs between them.

    The first round's K=6 job fills most of the word-series cache and takes
    half the run; spreading the small jobs over the round lets the median
    sample more of the run than its last seconds.
    """
    half = []
    for K in EXPAND_HALF_ORDERS:
        a1, a2, c = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3))
        fn = HyperFn([EpsLin(F(1, 2), a1), EpsLin(F(1, 2), a2)], [EpsLin(F(3, 2), c)])
        half.append(("expand", str(fn), "--order", str(K), "--format", "jsonl"))
    small = [("expand", str(_int_class_fn(rng, family)), "--order", str(K), "--format", "jsonl")
             for family, K in EXPAND_INT_SLOTS]
    per_gap = len(small) // len(half)
    jobs = []
    for i, job in enumerate(half):
        jobs.append(job)
        jobs.extend(small[i * per_gap:(i + 1) * per_gap if i + 1 < len(half) else None])
    return jobs


# ---------------------------------------------------------------------------
# diagram: every binding of the presets' propagator powers in {1, 2, 3}
# whose shift from the all-ones binding is integral in every term and at
# most DIAGRAM_MAX_SHIFT unit steps summed over the terms (the tests
# check this table against the rule).  Up to 6 steps a job takes 0.1 to
# 1.5 s; at 8 steps c3 jobs take up to 3 s and from 10 steps many jobs
# run past the per-job budget.  The seed draws the generic dimension
# n = c - 2 eps used to check each term, and the order of the jobs.

DIAGRAM_MAX_SHIFT = 6
DIAGRAM_BINDINGS = {
    "c3": ((1, 1, 2), (1, 1, 3), (1, 3, 1), (3, 1, 1), (2, 2, 1)),
    "c1": ((1, 1, 2), (1, 1, 3), (1, 2, 1), (2, 1, 1)),
    "v1200": ((1, 1, 2, 1), (1, 1, 3, 1), (2, 1, 1, 1), (2, 1, 2, 1)),
}


def _diagram_round(rng) -> List[Tuple]:
    jobs = []
    for name, bindings in DIAGRAM_BINDINGS.items():
        for values in bindings:
            n_const = F(1)
            while n_const.denominator < 3:      # n/2 must stay off the half-integers
                n_const = F(rng.randint(7, 23), rng.choice((3, 5, 7)))
            jobs.append(("diagram", name, values, str(n_const)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


def job_stream(workload: str, seed: int, rounds: int) -> List[List[Tuple]]:
    """The jobs of ``rounds`` rounds, one list per round."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(rounds):
        if workload == "reduce":
            out.append([_reduce_job(rng, slot) for slot in REDUCE_SLOTS])
        elif workload == "expand":
            out.append(_expand_round(rng))
        else:
            out.append(_diagram_round(rng))
    return out
