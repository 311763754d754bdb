"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload alg1-lockstep --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the same workload under ``cProfile`` and the
library's own metering and reports per-layer numbers.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import cProfile
import gc
import heapq
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from typing import NoReturn

import layers
from workloads import WORKLOADS, SweepWorkload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_ROOT = os.path.join(SRC, "repro")

#: Set-up samples per run: this process plus fresh interpreters.
SETUP_SAMPLES = 9

#: Fewest passes a timed run makes, however short ``--seconds`` is: an
#: operation's latency is the median of its repeats, one per pass.
MIN_PASSES = 3


#: Seconds :func:`calibrate` takes on the reference machine (a 2-vCPU
#: x86 VM).  Reported times are wall times scaled by this over the
#: calibration measured next to them; see README.md.
CALIBRATION_REF_S = 0.0018


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def calibrate() -> float:
    """Seconds a fixed interpreter loop takes right now.

    The loop touches only the stdlib (dict, tuple hashing, a heap, a
    sort), so no change to the library can move it; it tracks how fast
    this machine runs Python at the moment.  The garbage collector is
    paused so that the loop measures the processor, not the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    counts: dict = {}
    heap: list = []
    for i in range(3000):
        key = (i % 97, i % 13, "k")
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (i * 7919) % 1009)
    sorted(counts.items())
    while heap:
        heapq.heappop(heap)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Speedometer:
    """Reference-machine seconds per wall second, tracked as a run goes.

    Each reading adds one calibration sample and returns the reference
    time over the median of the last few, so that a single disturbed
    sample cannot make an operation look fast.
    """

    WINDOW = 5

    def __init__(self) -> None:
        self.samples = collections.deque(
            (calibrate() for _ in range(3)), maxlen=self.WINDOW
        )

    def read(self) -> float:
        self.samples.append(calibrate())
        return CALIBRATION_REF_S / statistics.median(self.samples)


def build(name: str, seed: int):
    """Build workload ``name`` and run its first operation.

    Returns ``(workload, first output, set-up seconds)``.  The clock
    starts before the library is imported and stops when the first
    operation returns, so set-up covers imports, graph construction, the
    factory, task enumeration and the cold work the first operation does
    (its phase plan, the path oracle's first fill, lazily built indexes).
    The seconds are wall seconds, not yet scaled.
    """
    start = time.perf_counter()
    workload = WORKLOADS[name](seed)
    out = workload.run(0)
    return workload, out, time.perf_counter() - start


def setup_probe(name: str, seed: int) -> float:
    """Set-up wall seconds of one fresh interpreter (cold imports)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_pass(workload, metrics: bool = False, scaled: bool = False,
               profile: "cProfile.Profile | None" = None):
    """One pass: ``(per-op seconds, output summaries, failure reasons)``.

    With ``scaled``, each operation's wall seconds are scaled to the
    reference machine by the mean of the speed readings taken just
    before and just after it (outside the timed region).  ``profile`` is
    enabled around the operations only, not around the harness's checks.
    Only each output's summary is kept, so the harness does not hold a
    pass's worth of execution traces in memory.
    """
    seconds, summaries, failures = [], [], []
    clock = time.perf_counter
    meter = Speedometer() if scaled else None
    before = meter.read() if meter else 1.0
    for i in range(len(workload)):
        if profile is not None:
            profile.enable()
        start = clock()
        out = workload.run(i, metrics)
        elapsed = clock() - start
        if profile is not None:
            profile.disable()
        after = meter.read() if meter else 1.0
        seconds.append(elapsed * (before + after) / 2)
        before = after
        reason = workload.failure(i, out)
        if reason is not None:
            failures.append(reason)
        summaries.append(workload.summary(out))
        del out
    return seconds, summaries, failures


def stratified_median(workload, latencies) -> float:
    """Mean over strata of the median latency within each stratum.

    Sweep latencies cluster by adversary (on ``alg1-lockstep``, silent,
    crash and drop-forward runs take about half as long as the rest),
    and the pooled median falls in the gap between clusters, where it
    jumps when a few runs change side.  Within one adversary (or one
    graph family) the latencies are unimodal and their median is steady.
    """
    strata = collections.defaultdict(list)
    for i, s in enumerate(latencies):
        strata[workload.stratum(i)].append(s)
    return statistics.fmean(statistics.median(v) for v in strata.values())


def measure(name: str, seed: int, run_seconds: float) -> dict:
    """End-to-end metrics (tracing off)."""
    factor = Speedometer().read()
    workload, first, setup_s = build(name, seed)
    setup_s *= factor
    failures = []
    reason = workload.failure(0, first)
    if reason is not None:
        failures.append(reason)
    del first
    # Passes run until the time is spent, and at least MIN_PASSES of them.
    repeats = []
    start = time.perf_counter()
    while len(repeats) < MIN_PASSES or time.perf_counter() - start < run_seconds:
        workload.begin_pass()
        seconds, _, bad = timed_pass(workload, scaled=True)
        failures += bad
        repeats.append(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        # The machine's speed swings within a second: calibrate right
        # before each sample.
        factor = Speedometer().read()
        setups.append(setup_probe(name, seed) * factor)
    # An operation's latency is the median of its repeats, one per pass.
    latencies = [statistics.median(r) for r in zip(*repeats)]
    n_ops, passes = len(workload), len(repeats)
    attempted = 1 + n_ops * passes
    fail_share = len(failures) / attempted
    metrics = {
        "ops_per_s": (statistics.median(n_ops / sum(r) for r in repeats), "1/s"),
        "op_p50_ms": (stratified_median(workload, latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    print(
        f"{name} seed={seed}: {n_ops} ops/pass x {passes} passes, "
        f"{attempted} attempted, {len(failures)} failed, "
        f"fail_share={fail_share:.4f} (latency quantiles over "
        f"{n_ops} operations, set-up median of {len(setups)} samples)"
    )
    for key, (value, unit) in metrics.items():
        print(f"  {key:12s} {value:12.4f} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def by_name(totals: dict, name: str) -> int:
    """Sum of counter ``name`` over all its label sets."""
    return sum(v for k, v in totals.items() if k.split("{", 1)[0] == name)


def sweep_counts(plain, traced, repeat, oracle) -> "tuple[dict, list]":
    """Exact counts of the metered pass, and the checks on them."""
    from repro.obs import merge_snapshots

    problems = []
    merged = merge_snapshots(r["metrics"] for r in traced)
    if merge_snapshots(r["metrics"] for r in repeat) != merged:
        problems.append("metered snapshots differ between two identical passes")
    totals = merged["counters"]
    # Metering must not change behaviour: the metered runs return what
    # the plain runs returned, and the engines' counters match what the
    # plain runs' traces record.
    fields = ("outcome", "decision", "transmissions", "deliveries", "landed")
    if [[r[k] for k in fields] for r in traced] != [
        [r[k] for k in fields] for r in plain
    ]:
        problems.append("metered runs returned other results than plain runs")
    for metric, field in (("net.transmissions", "transmissions"),
                          ("net.deliveries", "landed")):
        plain_sum = sum(r[field] for r in plain)
        if plain_sum != by_name(totals, metric):
            problems.append(
                f"{metric} {by_name(totals, metric)} != {plain_sum} "
                "summed from untraced results"
            )
    hits, misses = oracle
    accepted = by_name(totals, "flood.accepted")
    rejected = by_name(totals, "flood.rejected")
    counts = {
        name: by_name(totals, name)
        for name in ("net.transmissions", "net.deliveries", "net.ticks",
                     "reliable.queries", "reliable.packing_checks")
    }
    counts.update({
        "flood.accepted": accepted,
        "flood.rejected": rejected,
        "flood.accept_ratio": accepted / max(1, accepted + rejected),
        "oracle.hit_ratio": hits / max(1, hits + misses),
    })
    return counts, problems


def trace(name: str, seed: int) -> dict:
    """Per-layer metrics from one profiled and metered pass."""
    from repro.graphs import vertex_connectivity

    workload = WORKLOADS[name](seed)
    sweep = isinstance(workload, SweepWorkload)
    failed = []

    # Pass 1 (cold, plain): the reference outputs, and the path oracle's
    # hit ratio over a cold pass.
    oracle_before = workload.oracle_counts() if sweep else (0, 0)
    _, plain, bad = timed_pass(workload)
    failed += bad
    oracle = (
        tuple(a - b for a, b in zip(workload.oracle_counts(), oracle_before))
        if sweep else (0, 0)
    )

    # Pass 2 (warm, plain): the wall time tracing is compared with.
    workload.begin_pass()
    seconds, _, bad = timed_pass(workload)
    untraced_s = sum(seconds)
    failed += bad

    # Pass 3: profiled and metered.
    workload.begin_pass()
    kappa_before = vertex_connectivity.cache_info().misses
    profile = cProfile.Profile()
    seconds, traced, bad = timed_pass(workload, metrics=sweep, profile=profile)
    traced_s = sum(seconds)
    kappa_misses = vertex_connectivity.cache_info().misses - kappa_before
    failed += bad

    # Pass 4: metered again, not profiled: counts must repeat exactly.
    workload.begin_pass()
    _, repeat, bad = timed_pass(workload, metrics=sweep)
    failed += bad

    if sweep:
        counts, problems = sweep_counts(plain, traced, repeat, oracle)
    else:
        counts = {key: 0 for key in (
            "net.transmissions", "net.deliveries", "net.ticks",
            "reliable.queries", "reliable.packing_checks",
            "flood.accepted", "flood.rejected", "flood.accept_ratio",
            "oracle.hit_ratio",
        )}
        problems = [] if repeat == traced == plain else [
            "verdicts differ between identical passes"
        ]
    counts["kappa.cache_misses"] = kappa_misses

    report = layers.attribute(pstats.Stats(profile).stats, PACKAGE_ROOT)
    total_self = sum(entry["self_s"] for entry in report.values())
    metrics = {}
    for layer in layers.LAYERS:
        entry = report[layer]
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
        metrics[f"{layer}.share"] = (entry["self_s"] / total_self, "ratio")
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
    metrics["unattributed.share"] = (
        report[layers.UNATTRIBUTED]["self_s"] / total_self, "ratio"
    )
    for key, value in counts.items():
        metrics[key] = (value, "ratio" if key.endswith("_ratio") else "count")
    metrics["trace_overhead"] = (traced_s / untraced_s, "ratio")

    for reason in (failed + problems)[:20]:
        print(f"FAILED {reason}")
    print(f"{name} seed={seed} traced: {len(workload)} ops/pass x 4 passes, "
          f"plain {untraced_s:.3f}s, traced {traced_s:.3f}s, "
          f"profiled self time {total_self:.3f}s")
    for key, (value, unit) in metrics.items():
        if value:
            print(f"  {key:34s} {value:14.4f} {unit}")
    return {
        "correct": not failed and not problems,
        "attempted": 4 * len(workload),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(PACKAGE_ROOT):
        fail(f"library sources not found at {PACKAGE_ROOT}")
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        print(repr(build(args.workload, args.seed)[2]))
        return 0
    if args.trace:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
