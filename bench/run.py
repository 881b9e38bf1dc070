"""Benchmark of the four jacobiflow CLI paths (see README.md).

    python3 bench/run.py --workload table --seed 1 --seconds 20 --trace 0

Runs the workload's seeded list of CLI calls in this process, checks every
output, and prints one JSON object as its last line: correct, attempted,
failed and the metrics declared in BENCHMARK.json (the end-to-end ones with
--trace 0, the per-layer ones with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import tracing
import workloads as W

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
UNTRACED_TIMEOUT_S = 150
# host_kernel()'s time on the 2-core machine of README.md's figures when no
# other tenant slows it: the 10th percentile of 3 x 600 passes was 0.0134-0.0147 s
KERNEL_REFERENCE_S = 0.0135
E = Fraction(2718281828459045, 10**15)  # e to 16 digits, for host_kernel()'s series


def _monotonic() -> float:
    # one system-wide clock, so a child's reading compares with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def host_kernel() -> float:
    """Wall time of one fixed pass of the two kinds of work the program
    does: exact rational arithmetic (flow, specfun) and numpy calls on a
    one-element complex array (herglotz_k's per-point continuation).

    Timed next to every operation, it measures how fast the host runs at
    that moment; other tenants of the machine slow both kinds of work by up
    to a factor of two for seconds at a time.
    """
    start = time.perf_counter()
    total, term = Fraction(0), Fraction(1)
    for k in range(1, 120):
        term = term * E / k
        total += term * Fraction(k, 3 * k + 1)
    z = np.full(1, 0.3 + 0.2j)
    for _ in range(1500):
        z = np.where(np.abs(z) < 2, z * 0.99 + np.exp(0.01 * z) * 0.01, z)
    return time.perf_counter() - start


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child_argv(args, *extra) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def setup_time(args) -> float:
    """Median over fresh processes of the time from spawning one to its
    being ready for the first timed operation, scaled to the reference host
    speed like the operations' latencies."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = host_kernel()
        start = _monotonic()
        proc = subprocess.run(_child_argv(args, "--setup-only"), capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: set-up process failed:\n{proc.stderr}")
        ready = float(proc.stdout.split()[-1])
        after = host_kernel()
        samples.append((ready - start) * KERNEL_REFERENCE_S / ((before + after) / 2))
    return statistics.median(samples)


def untraced_throughput(args) -> float:
    proc = subprocess.run(_child_argv(args, "--trace", "0"), capture_output=True,
                          text=True, timeout=UNTRACED_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: untraced comparison run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]["throughput"]["value"]


def run(args, scratch: Path) -> int:
    declared = json.loads((W.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = W.load_program()
    ops = W.operations(args.workload, args.seed, args.seconds, W.load_pool(), scratch)
    warmup = W.warmup_argv(args.workload, scratch)
    if warmup is not None:
        code, _, err = W.call_cli(cli.main, warmup)
        if code != 0:
            sys.exit(f"error: warm-up {' '.join(warmup)} exited {code}:\n{err}")
    if args.setup_only:
        print(f"{_monotonic():.9f}")
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    results, walls, kernel = [], [], [host_kernel()]
    for op in ops:
        start = time.perf_counter()
        results.append(W.call_cli(cli.main, op.argv))
        walls.append(time.perf_counter() - start)
        kernel.append(host_kernel())
    # each wall time scaled to the reference host speed, judged by the
    # kernel's times just before and just after the operation
    latencies = [wall * KERNEL_REFERENCE_S / ((before + after) / 2)
                 for wall, before, after in zip(walls, kernel, kernel[1:])]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    reference = W.load_reference()
    verdict = W.Verdict()
    failed = 0
    for op, (code, out, err) in zip(ops, results):
        if code != 0:
            failed += 1
            print(f"failed: {' '.join(op.argv)}: exit {code}: {err.strip()[-400:]}",
                  file=sys.stderr)
            continue
        try:
            W.check(args.workload, op, out, reference, verdict)
        except (KeyError, ValueError, IndexError, OSError) as exc:
            verdict.problems.append(f"{' '.join(op.argv)}: unreadable output ({exc!r})")
    for problem in verdict.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    throughput = (len(ops) - failed) / sum(latencies)

    if tracer:
        values = tracer.metrics()
        values["flow.misrounded"] = verdict.misrounded
        tracer.write_spans(W.RESULTS / f"spans-{args.workload}-seed{args.seed}.csv")
        if throughput > 0:
            values["trace.overhead_pct"] = 100 * (untraced_throughput(args) / throughput - 1)
        wanted = declared["per_layer"]
    else:
        values = {
            "throughput": throughput,
            "latency_p50_s": statistics.median(latencies),
            "setup_s": setup_time(args),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = declared["end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        else:
            print(f"note: metric {metric['name']} is absent", file=sys.stderr)
    print(json.dumps({"correct": not verdict.problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = W.RESULTS / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
