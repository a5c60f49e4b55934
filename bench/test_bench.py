"""Smoke test of the benchmark itself: each workload once at a tiny size.

    python -m pytest bench/test_bench.py

The checks of the correctness gate stay on, and the metric names and units
must match BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import Tracer, leftover_wrappers

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {"n": 30, "s": 5, "seed": 3}
TINY_EPSILONS = (1e-1, 1e-2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_passes_its_checks(workload, trace):
    result, meta = run.run_workload(workload, seed=5, seconds=0, trace=trace,
                                    instance=TINY, epsilons=TINY_EPSILONS)
    assert result["correct"] and result["failed"] == 0, meta["failures"]
    assert result["attempted"] >= run.SETUP_REPEATS + 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in expected}
    assert leftover_wrappers() == []


def test_wrappers_are_removed_when_a_traced_call_raises():
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed():
            assert leftover_wrappers()
            1 / 0
    assert leftover_wrappers() == []


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_tail_keeps_ten_samples_beyond():
    assert run.tail_of(range(1, 31)) == (20, 100.0 * 20 / 30)
    assert run.tail_of([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "known", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
