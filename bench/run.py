"""freegeo benchmark: one workload, one seed, one timed or traced run.

    python3 bench/run.py --workload probe_trees --seed 1 --seconds 55 --trace 0

Run from the root of a freegeo checkout; the package is imported from the
checkout's ``src`` directory.  Each workload is a closed loop: one client in
one process sends the next op only after the previous one returned.

``--trace 0`` times the ops and prints the end-to-end metrics.  ``--trace 1``
runs every round twice, once plain and once with the package's public
functions wrapped (see ``tracer.py``), for ``--seconds`` in all, and prints
the per-layer metrics.  Both modes check every op's output outside the
timed region.

Standard output ends with two JSON lines: a record of the run (input
digest, input mix, sample counts, defect-probe outcomes, the first
failures) and the result ``{"correct", "attempted", "failed", "metrics"}``.
See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

MIN_OPS = 100          # at least ten samples beyond p90
SETUP_REPS = 5         # set-up is repeated; the median is reported
DIGEST_ROUNDS = 4      # rounds covered by the input digest
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=_nonnegative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import freegeo from the checkout; returns the import time in s."""
    if not (SRC / "freegeo" / "__init__.py").is_file():
        raise SystemExit(f"error: no freegeo sources under {SRC}")
    # one client, one thread: keep BLAS from starting worker threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import freegeo
    if Path(freegeo.__file__).resolve().parent != SRC / "freegeo":
        raise SystemExit(f"error: imported freegeo from {freegeo.__file__}")
    import workloads  # noqa: F401  (imports every freegeo module it uses)
    return perf_counter() - T_START


def _digest(wl) -> str:
    h = hashlib.sha256(wl.describe(wl.warmup_op()))
    for r in range(DIGEST_ROUNDS):
        for op in wl.round(r):
            h.update(wl.describe(op))
    return h.hexdigest()


def _setup(wl):
    """Repeat set-up; returns (median seconds, digests of each repetition).

    One repetition is the workload's own set-up, generating the inputs of
    the first rounds and one warm-up op.
    """
    times, digests = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        wl.setup()
        digests.append(_digest(wl))
        wl.call(wl.warmup_op())
        times.append(perf_counter() - t0)
    return statistics.median(times), digests


class Pass:
    """Outcome of one timed pass over whole rounds."""

    def __init__(self):
        self.latencies = []      # seconds per op
        self.round_rates = []    # ops per second of busy time, per round
        self.rounds = 0
        self.busy = 0.0
        self.ok = 0
        self.failed = 0
        self.failures = []
        self.kept = []           # (round, index in round, value to recheck)
        self.mix = defaultdict(Counter)
        self.probes = Counter()   # (probe, outcome) -> count

    @property
    def ops(self):
        return len(self.latencies)


def _run_round(wl, r, res):
    """Run round ``r`` into ``res``; checks run between ops, outside the
    timed region."""
    ops = wl.round(r)
    round_busy = 0.0
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            out = wl.call(op)
        except Exception as exc:               # noqa: BLE001  counted below
            out = exc
        dt = perf_counter() - t0
        round_busy += dt
        res.latencies.append(dt)
        if isinstance(out, Exception):
            problem, kept = f"raised {type(out).__name__}: {out}", None
        else:
            problem, kept = wl.check(op, out)
        probe = op.get("probe")
        if probe is not None:
            res.probes[probe, "ok" if problem is None
                       else "raised" if isinstance(out, Exception)
                       else "wrong_outcome"] += 1
        if problem is None:
            res.ok += 1
            if kept is not None:
                res.kept.append((r, i, kept))
        elif probe is None:
            res.failed += 1
            if len(res.failures) < 5:
                res.failures.append(f"round {r} op {i}: {problem}")
        for dim, label in wl.labels(op).items():
            res.mix[dim][label] += 1
    res.busy += round_busy
    res.round_rates.append(len(ops) / round_busy)
    res.rounds += 1


def _done(res, seconds):
    """The loop stops at the first round boundary after ``seconds`` of busy
    time (the summed latency of the ops) and at least MIN_OPS ops."""
    return res.busy >= seconds and res.ops >= MIN_OPS


def _timed(wl, seconds):
    res = Pass()
    while not _done(res, seconds):
        _run_round(wl, res.rounds, res)
    return res


def _traced(wl, seconds, tracer, problems):
    """Run each round twice, untraced and traced, alternating which goes
    first, until the untraced copies have run ``seconds / 2``.  Returns the
    (untraced, traced) passes; adjacent copies see the same machine load,
    so their busy-time ratio measures the tracing overhead."""
    untraced, traced = Pass(), Pass()
    unwrapped = set()
    r = 0
    while not _done(untraced, seconds / 2.0):
        for res in ((untraced, traced) if r % 2 == 0
                    else (traced, untraced)):
            if res is untraced:
                _run_round(wl, r, res)
                continue
            tracer.install()
            try:
                unwrapped.update(tracer.unwrapped_bindings())
                _run_round(wl, r, res)
            finally:
                tracer.uninstall()
        r += 1
    if unwrapped:
        problems.append(f"tracer left unwrapped: {sorted(unwrapped)}")
    return untraced, traced


def _final_checks(wl, res):
    """Checks that need more than the op's output; run after timing."""
    by_round = defaultdict(list)
    for r, i, kept in res.kept:
        by_round[r].append((i, kept))
    for r in sorted(by_round):
        ops = wl.round(r)
        for i, kept in by_round[r]:
            problem = wl.final_check(ops[i], kept)
            if problem is not None:
                res.ok -= 1
                res.failed += 1
                if len(res.failures) < 5:
                    res.failures.append(f"round {r} op {i}: {problem}")


def _percentile(values, q: int) -> float:
    """q-th percentile with linear interpolation (numpy's default)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(res, setup_s, rss_kb):
    return {
        "ops_per_s": (res.ops / res.busy, "1/s"),
        "op_p50_ms": (1e3 * _percentile(res.latencies, 50), "ms"),
        "op_p90_ms": (1e3 * _percentile(res.latencies, 90), "ms"),
        "ok_frac": (res.ok / res.ops, "1"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def _per_layer(tracer, traced, untraced_busy):
    st = tracer.stats
    k = traced.ops

    def self_per_op(*names):
        return sum(st[n].self_s for n in names) / k

    lipschitz = [n for n in st if n.startswith("lipschitz.")]
    gromov = [n for n in st if n.startswith("gromov.")]
    lp_durations = tracer.lp.durations
    return {
        "lp.solve.calls": (st["lp.solve"].calls, "count"),
        "lp.solve.per_op": (st["lp.solve"].calls / k, "1/op"),
        "lp.solve.self_s": (self_per_op("lp.solve"), "s/op"),
        "lp.solve.p50_ms": (1e3 * _percentile(lp_durations, 50)
                            if lp_durations else 0.0, "ms"),
        "lp.problem_cells": (tracer.lp.cells / k, "cells/op"),
        "lp.problem_rows": (tracer.lp.rows / k, "rows/op"),
        "lp.nonoptimal": (tracer.lp.nonoptimal, "count"),
        "lp.errors": (st["lp.solve"].errors, "count"),
        "free_space.free_norm.calls": (st["free_space.free_norm"].calls,
                                       "count"),
        "free_space.free_norm.self_s": (
            self_per_op("free_space.free_norm"), "s/op"),
        "free_space.lipschitz_ball_rows.calls": (
            st["free_space.lipschitz_ball_rows"].calls, "count"),
        "free_space.lipschitz_ball_rows.self_s": (
            self_per_op("free_space.lipschitz_ball_rows"), "s/op"),
        "ssd.exposedness_probe.self_s": (
            self_per_op("ssd.exposedness_probe"), "s/op"),
        "ssd.face_distance.calls": (st["ssd.face_distance"].calls, "count"),
        "ssd.face_distance.self_s": (self_per_op("ssd.face_distance"),
                                     "s/op"),
        "ssd.perturbation_pipeline.self_s": (
            self_per_op("ssd.perturbation_pipeline"), "s/op"),
        "ssd.find_common_norming.self_s": (
            self_per_op("ssd.find_common_norming"), "s/op"),
        "ssd.almost_aligned_certificate.self_s": (
            self_per_op("ssd.almost_aligned_certificate"), "s/op"),
        "lipschitz.calls": (sum(st[n].calls for n in lipschitz), "count"),
        "lipschitz.self_s": (self_per_op(*lipschitz), "s/op"),
        "gromov.analyze_pair.calls": (st["gromov.analyze_pair"].calls,
                                      "count"),
        "gromov.self_s": (self_per_op(*gromov), "s/op"),
        "metric.validate.calls": (st["metric.validate"].calls, "count"),
        "metric.validate.self_s": (self_per_op("metric.validate"), "s/op"),
        "cli.main.self_s": (self_per_op("cli.main"), "s/op"),
        "trace.ops": (k, "count"),
        "trace.overhead_frac": (traced.busy / untraced_busy - 1.0, "1"),
        "trace.coverage": (tracer.total_self_s() / traced.busy, "1"),
    }


def _shares(counter):
    total = sum(counter.values())
    return {k: round(v / total, 4) for k, v in sorted(counter.items())}


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_s = _import_package()
    import workloads
    import tracer as tracing

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed, str(WORKDIR))
    problems = []
    try:
        setup_s, digests = _setup(wl)
        setup_s += import_s
        if len(set(digests)) != 1:
            problems.append("input generation is not deterministic")
        if args.trace == 0:
            res = _timed(wl, args.seconds)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _final_checks(wl, res)
            metrics = _end_to_end(res, setup_s, rss_kb)
        else:
            tr = tracing.Tracer()
            untraced, res = _traced(wl, args.seconds, tr, problems)
            problems += [f"untraced {f}" for f in untraced.failures]
            _final_checks(wl, res)
            metrics = _per_layer(tr, res, untraced.busy)
    finally:
        wl.close()
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    bad_names = [n for n in metrics if not NAME_RE.fullmatch(n)]
    if bad_names:
        problems.append(f"bad metric names {bad_names}")
    p90 = _percentile(res.latencies, 90)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "input_digest": digests[0], "rounds": res.rounds,
        "samples": res.ops,
        "beyond_p90": sum(1 for v in res.latencies if v > p90),
        "busy_s": round(res.busy, 3),
        "round_rates": [round(v, 2) for v in res.round_rates],
        "mix": {dim: _shares(c) for dim, c in sorted(res.mix.items())},
        "probes": {f"{k}:{v}": c for (k, v), c in sorted(res.probes.items())},
        "problems": problems + res.failures,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": res.failed == 0 and not problems,
        "attempted": res.ops,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
