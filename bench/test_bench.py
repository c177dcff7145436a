"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest -q bench/test_bench.py``.
It is not part of the library's test suite.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
TINY_SCHEDULE = tuple((fn, n // 10, den, m) for fn, n, den, m in workloads.LONG_GRID_SCHEDULE)


def tiny(name):
    if name == "long-grid":
        return workloads.LongGrid(schedule=TINY_SCHEDULE)
    if name == "cli-float":
        return workloads.CliFloat(sizes=(12, 16, 20, 24, 28, 32, 36, 40), suite_trials={"verify": 2, "ineq": 3})
    return workloads.Suites()


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(name, trace):
    result = run.measure(tiny(name), SEED, 0.1, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize(
    "name, layer",
    [("suites", "harness.trial"), ("long-grid", "fracops.frac_sum_grid"), ("cli-float", "gridio.read_grid")],
)
def test_traced_run_sees_the_workload_layers(name, layer):
    metrics = run.measure(tiny(name), SEED, 0.1, 1)["metrics"]
    assert metrics[f"{layer}.calls"]["value"] > 0
    assert metrics["fracops.conv.terms"]["value"] > 0
    assert metrics["fracops.kernel_weights.calls"]["value"] > 0


def bump_field(text, key, delta):
    """Add ``delta`` to the number printed for ``key`` (json, csv, table or ``key: value``)."""
    pattern = re.compile(rf'^(\s*"?{re.escape(key)}"?(?::\s*"?|,|\s+))([-+0-9.eEnaif]+)', re.M)
    match = pattern.search(text)
    assert match, (key, text)
    return text[: match.start(2)] + repr(float(match.group(2)) + delta) + text[match.end(2):]


def corrupt(result, q):
    """The result with one checked value moved by 1/q."""
    delta = Fraction(1, q)
    if isinstance(result, list):  # identity pairs
        (got, want), rest = result[0], result[1:]
        return [(got + delta, want)] + rest
    if isinstance(result, dict):  # Taylor series
        t = max(result)
        return {**result, t: dataclasses.replace(result[t], remainder=result[t].remainder + delta)}
    if isinstance(result, workloads.CliResult):
        out = result.out
        if re.fullmatch(r"\S+\n", out):
            out = repr(float(out) + 1 / q) + "\n"
        elif "failures" in out:
            out = re.sub(r"(failures\D+)0", r"\g<1>1", out)
        else:
            key = "remainder" if "remainder" in out else "lhs"
            out = bump_field(out, key, 1 / q)
        return dataclasses.replace(result, out=out)
    if hasattr(result, "values"):  # grid function
        values = result.values[:-1] + (result.values[-1] + delta,)
        return dataclasses.replace(result, values=values)
    lhs = result.lhs + delta if isinstance(result.lhs, Fraction) else result.lhs + 1 / q
    return dataclasses.replace(result, lhs=lhs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_result_off_by_one_over_q_fails(name):
    workload = tiny(name)
    package, _ = run.set_up(workload, SEED)
    for index in range(workload.round_len):
        op = workload.op(index)
        result = op.call()
        assert op.check(result) is None, op.label
        q = 3 + index % 5
        assert op.check(corrupt(result, q)) is not None, op.label


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suites", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
