"""nablafrac benchmark: closed-loop workloads with one client thread.

Usage (from the repository root)::

    python3 bench/run.py --workload suites --seed 42 --seconds 40 --trace 0

A run repeats one fixed list of operations (the *pass*) generated from the
seed.  Every pass starts from a fresh import of the library, so caches start
cold each time, and runs to completion; passes repeat while the next one should
end within ``--seconds``, and at least ``MIN_PASSES`` run.  An operation's latency is the
best of its passes: the CPU speed of a shared machine can swing by 30% for
seconds at a time, and the best of several cold passes drops the passes that
such a swing hits.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs the pass once untraced and once traced and reports the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
sys.path[:0] = [BENCH_DIR, SRC]

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
MODULES = ("errors", "scalars", "grid", "fracops", "taylor", "ineq", "harness", "gridio", "cli")
MAX_ERRORS_SHOWN = 5


def declared_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def load_package():
    """Import ``nablafrac`` afresh from this checkout's ``src``: every module is
    dropped first, so each set-up pays the imports and starts with empty caches."""
    for name in [n for n in sys.modules if n == "nablafrac" or n.startswith("nablafrac.")]:
        del sys.modules[name]
    package = importlib.import_module("nablafrac")
    for name in MODULES:
        importlib.import_module(f"nablafrac.{name}")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        raise ImportError(f"nablafrac was imported from {package.__file__}, not from {SRC}")
    return package


def set_up(workload, seed: int):
    """One full set-up: imports, generated inputs and grid files. Returns (package, seconds)."""
    started = time.perf_counter()
    package = load_package()
    workload.setup(package, seed, os.path.join(WORK_DIR, workload.name))
    return package, time.perf_counter() - started


@dataclass
class Pass:
    latencies_ns: List[int] = field(default_factory=list)
    failed: int = 0
    violations: int = 0
    digest: str = ""

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies_ns) / (sum(self.latencies_ns) / 1e9)


def run_pass(package, workload, n_ops: int, tracer: Optional[Tracer] = None) -> Pass:
    """Run operations ``0 .. n_ops-1`` in a closed loop: each starts once the
    previous one is checked.  Only the library call is timed."""
    to_json = package.gridio.to_json
    out = Pass()
    digest = hashlib.sha256()
    clock = time.perf_counter_ns
    gc.collect()
    for index in range(n_ops):
        op = workload.op(index)
        if tracer is not None:
            tracer.active = True
        start = clock()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        if tracer is not None:
            tracer.active = False
        out.latencies_ns.append(end - start)
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # a check that cannot read the result fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            out.failed += 1
            if out.failed <= MAX_ERRORS_SHOWN:
                print(f"# failed op {index} {op.label}: {error}", file=sys.stderr)
        else:
            out.violations += op.violated(result)
        digest.update((error or to_json(op.payload(result))).encode())
    out.digest = digest.hexdigest()
    return out


def percentile(sorted_values: List[float], q: float) -> float:
    pos = q / 100 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile (to 0.1) with at least ten of ``n`` samples beyond it."""
    return max(50.0, math.floor(1000 * (1 - 10 / n)) / 10)


def pass_ops(workload, seconds: float) -> int:
    rounds = max(1, round(seconds * workload.pass_rounds_per_second))
    return rounds * workload.round_len


def end_to_end(workload, seed: int, seconds: float):
    n_ops = pass_ops(workload, seconds)
    setup_times = [set_up(workload, seed)[1] for _ in range(SETUP_REPEATS - 1)]
    started = time.perf_counter()
    passes: List[Pass] = []
    longest = 0.0
    # Start another pass only if it should end within --seconds.
    while len(passes) < MIN_PASSES or time.perf_counter() - started + longest <= seconds:
        pass_started = time.perf_counter()
        package, elapsed = set_up(workload, seed)
        setup_times.append(elapsed)
        passes.append(run_pass(package, workload, n_ops))
        longest = max(longest, time.perf_counter() - pass_started)
    latency = sorted(min(lat) for lat in zip(*(p.latencies_ns for p in passes)))
    q = tail_percentile(n_ops)
    metrics = {
        "ops_per_s": n_ops / (sum(latency) / 1e9),
        "op_p50_ms": percentile(latency, 50) / 1e6,
        "op_tail_ms": percentile(latency, q) / 1e6,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ok_ratio": 1 - sum(p.failed for p in passes) / (n_ops * len(passes)),
    }
    units = declared_units("end_to_end")
    digests = {p.digest for p in passes}
    print(f"# {workload.name}: {len(passes)} cold passes of {n_ops} ops, one client, closed loop")
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    print(f"# op latency = best of {len(passes)} passes; op_tail_ms is p{q} of {n_ops} ops")
    print(f"output_digest sha256:{' '.join(sorted(digests))}")
    print(f"bound_violations {passes[0].violations}")
    failed = sum(p.failed for p in passes)
    return failed == 0 and len(digests) == 1, n_ops * len(passes), failed, metrics, units


def per_layer(workload, seed: int, seconds: float):
    n_ops = pass_ops(workload, seconds)
    package, _ = set_up(workload, seed)
    plain = run_pass(package, workload, n_ops)
    package, _ = set_up(workload, seed)
    tracer = Tracer()
    tracer.install(package)
    traced = run_pass(package, workload, n_ops, tracer)
    os.makedirs(WORK_DIR, exist_ok=True)
    spans_path = os.path.join(WORK_DIR, f"spans-{workload.name}.tsv")
    tracer.write_spans(spans_path)
    metrics = tracer.metrics()
    metrics["trace.untraced_ops_per_s"] = plain.ops_per_s
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s
    metrics["trace.overhead_ratio"] = plain.ops_per_s / traced.ops_per_s
    units = declared_units("per_layer")
    print(f"# {workload.name}: {n_ops} traced ops, {len(tracer.span_start)} spans written to {spans_path}")
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    print(f"output_digest sha256:{traced.digest}")
    print(f"bound_violations {traced.violations}")
    failed = plain.failed + traced.failed
    return failed == 0 and plain.digest == traced.digest, 2 * n_ops, failed, metrics, units


def measure(workload, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload and return the result object printed as the last line."""
    correct, attempted, failed, metrics, units = (per_layer if trace else end_to_end)(workload, seed, seconds)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nablafrac", "__init__.py")):
        print(f"error: no nablafrac sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
