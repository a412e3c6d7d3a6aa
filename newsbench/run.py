#!/usr/bin/env python3
"""NewsWire benchmark: one command, three workloads, end to end and per layer.

Usage (from the repository root)::

    python3 newsbench/run.py --workload breaking-news --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` additionally runs one traced iteration and reports the
per-layer metrics instead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give provenance and a readable table.  The exit code
is 0 only when every delivery set was correct (and, traced, the
trace's integrity checks held).  See newsbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Every run sets the program up (and runs it) at least this often,
#: so set-up time and throughput are medians even for long workloads.
MIN_ITERATIONS = 3

#: The wall metrics read as on a host that runs
#: ``workloads.reference_work`` in this many seconds: each phase's wall
#: time is scaled by this over the mean reference time around it.
REFERENCE_S = 0.2

#: Per-layer self times (plus the tracer's own bookkeeping) must sum
#: to the traced run phase's wall time within this share of it.
SELF_TIME_TOLERANCE = 0.01

E2E_UNITS = {
    "setup_s": "s",
    "deliveries_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "latency_p50_s": "sim_s",
    "latency_p99_s": "sim_s",
    "delivery_ok_frac": "ratio",
    "msgs_per_delivery": "count",
    "bytes_per_delivery": "B",
}


def load_program():
    """Import the program from ``src/`` of this checkout, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"newsbench: cannot import the program: {exc}", file=sys.stderr)
        raise SystemExit(2)
    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"newsbench: repro imported from {source}, not this checkout",
              file=sys.stderr)
        raise SystemExit(2)


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(args, shape) -> dict:
    try:  # read without importing: numpy would add to peak RSS
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": shape.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nodes": shape.nodes,
        "items": shape.items,
        "sim_seconds": shape.end,
        "min_iterations": MIN_ITERATIONS,
        "reference_s": REFERENCE_S,
    }


def measure(shape, seed: int, seconds: float):
    """Untraced iterations while another one still ends within
    ``seconds`` (at least MIN_ITERATIONS).

    Returns the first iteration's check and end-to-end inputs, and per
    iteration ``(setup_s, run_s, correct deliveries, digest, reference
    times)``.  Only the first iteration is checked in full; the later
    ones are compared with it by digest, which keeps the untimed share
    of an iteration small.  Only these summaries outlive an iteration,
    so every iteration starts from the same heap and the collector's
    work does not grow with the iteration count.
    """
    from workloads import check, delivery_digest, run_once

    first = None
    iterations = []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        record = run_once(shape, seed)
        if first is None:
            result = check(shape, record)
            first = summarize(shape, record, result)
            correct, digest = result.correct, result.digest
            del result
        else:
            # The same deliveries as the checked first iteration (the
            # caller compares digests) are the same correct count.
            correct, digest = first["check"].correct, delivery_digest(record.deliveries)
        iterations.append(
            (record.setup_s, record.run_s, correct, digest, record.reference_s)
        )
        del record
        now = time.perf_counter()
        if (len(iterations) >= MIN_ITERATIONS
                and now + (now - begun) - started > seconds):
            return first, iterations


def summarize(shape, record, result) -> dict:
    """The deterministic part of one iteration's results."""
    from workloads import modelled_traffic, percentile

    if shape.backend == "columnar":
        msgs, nbytes = modelled_traffic(record)
    else:
        msgs, nbytes = record.network["msgs"], record.network["bytes"]
    latencies = sorted(result.latencies)
    result.latencies = []
    return {
        "check": result,
        "latency_p50_s": percentile(latencies, 0.50),
        "latency_p99_s": percentile(latencies, 0.99),
        "latency_samples": len(latencies),
        "msgs": msgs,
        "bytes": nbytes,
        "flow_control_rejects": record.counters.get("news.flow_control_rejects", 0),
    }


def at_reference_speed(seconds: float, *reference_s: float) -> float:
    """``seconds`` of wall time, as on a host whose reference work
    takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.fmean(reference_s)


def scaled(iteration):
    """(set-up, run phase) wall time of one iteration at reference speed."""
    setup_s, run_s, _, _, (before, between, after) = iteration
    return (
        at_reference_speed(setup_s, before, between),
        at_reference_speed(run_s, between, after),
    )


def end_to_end(first: dict, iterations) -> dict:
    result = first["check"]
    correct = max(1, result.correct)
    times = [scaled(t) for t in iterations]
    return {
        "setup_s": statistics.median(setup for setup, _ in times),
        "deliveries_per_s": statistics.median(
            t[2] / run for t, (_, run) in zip(iterations, times)
        ),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_s": first["latency_p50_s"],
        "latency_p99_s": first["latency_p99_s"],
        "delivery_ok_frac": max(0.0, 1.0 - result.failed / max(1, result.attempted)),
        "msgs_per_delivery": first["msgs"] / correct,
        "bytes_per_delivery": first["bytes"] / correct,
    }


def traced(shape, seed: int, untraced_run_s: float):
    """One traced iteration: (record, check, tracer, per-layer metrics,
    integrity problems)."""
    from layers import layer_metrics
    from tracer import Tracer
    from workloads import check, run_once

    tracer = Tracer()
    tracer.install()
    try:
        record = run_once(shape, seed, tracer)
    finally:
        tracer.uninstall()
    result = check(shape, record)
    metrics = layer_metrics(shape, record, result, tracer, untraced_run_s)
    problems = []
    gap = abs(tracer.charged_s - tracer.run_s)
    if gap > SELF_TIME_TOLERANCE * tracer.run_s:
        problems.append(
            f"self times sum to {tracer.charged_s:.4f}s, run phase took "
            f"{tracer.run_s:.4f}s (tolerance {SELF_TIME_TOLERANCE:.0%})"
        )
    if tracer.self_s["kernel"] < 0:
        problems.append(f"negative kernel self time {tracer.self_s['kernel']:.4f}s")
    if tracer.events != record.events:
        problems.append(
            f"monitor saw {tracer.events} events, kernel ran {record.events}"
        )
    return record, result, tracer, metrics, problems


def main(argv=None) -> int:
    from workloads import SHAPES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    shape = SHAPES[args.workload]
    print("provenance " + json.dumps(provenance(args, shape), sort_keys=True))

    first, iterations = measure(shape, args.seed, args.seconds)
    result = first["check"]
    problems = []
    if not result.ok:
        problems.append(
            f"delivery gate: {result.missed} missed, {result.duplicates} "
            f"duplicate, {result.spurious} spurious of {result.attempted} "
            f"required; {result.published}/{result.expected_items} items published"
        )
    if len({t[3] for t in iterations}) != 1:
        problems.append("the same seed gave different delivery digests")
    if first["flow_control_rejects"]:
        problems.append("publisher flow control rejected items")
    print(
        f"{shape.name} seed={args.seed} iterations={len(iterations)} "
        f"required={result.attempted} correct={result.correct} "
        f"late_adopters={result.late_adopters} covered={result.late_covered} "
        f"latency_samples={first['latency_samples']} digest={result.digest}"
    )
    for iteration in iterations:
        setup_s, run_s, correct, _, reference_s = iteration
        scaled_setup_s, scaled_run_s = scaled(iteration)
        references = "/".join(f"{r:.4f}" for r in reference_s)
        print(
            f"  iteration setup_s={setup_s:.4f} run_s={run_s:.4f} "
            f"reference_s={references} scaled: setup_s={scaled_setup_s:.4f} "
            f"run_s={scaled_run_s:.4f} correct={correct}"
        )

    if args.trace:
        untraced_run_s = statistics.median(t[1] for t in iterations)
        _, t_result, tracer, metrics, integrity = traced(
            shape, args.seed, untraced_run_s
        )
        problems.extend(integrity)
        if t_result.digest != result.digest:
            problems.append("delivery digest differs with tracing on")
        print(f"traced digest={t_result.digest} run_s={tracer.run_s:.4f} "
              f"charged_s={tracer.charged_s:.4f}")
        print(f"  {'span':<32} {'calls':>9} {'incl_s':>9} {'self_s':>9}")
        for name, calls, inclusive, own in tracer.span_table():
            print(f"  {name:<32} {calls:>9} {inclusive:>9.4f} {own:>9.4f}")
        units = {name: unit for name, (_, unit) in metrics.items()}
        values = {name: value for name, (value, _) in metrics.items()}
    else:
        values = end_to_end(first, iterations)
        units = E2E_UNITS
    for name, value in values.items():
        print(f"  {name:<30} {value:>16.6f} {units[name]}")
    for problem in problems:
        print(f"FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    load_program()
    raise SystemExit(main())
