"""Tests of the benchmark itself, on small sizes of each workload.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compib  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402

END_TO_END = {"setup_s", "wall_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "cpu_s", "peak_rss_mb"}


def small(name, seed=3):
    if name == "grid":
        return workloads.grid(seed, a_max=2, box=3)
    if name == "factor":
        return workloads.factor(seed, per_composite=(2, 1, 1), min_ops=40)
    return workloads.d3(seed, a_max=5, box=3)


def one_round(wl):
    return run.run_round(wl, wl.build())["outputs"]


@pytest.mark.parametrize("name", ["grid", "factor", "d3"])
def test_small_run_passes_its_checks(name):
    wl = small(name)
    result = run.run(wl, seconds=0.1, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 40 and result["attempted"] % len(wl.keys) == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["grid", "factor", "d3"])
def test_traced_counts_repeat_and_tracer_is_removed(name):
    solve = compib.solve
    first, second = (run.run(small(name), seconds=0.1, trace=True) for _ in range(2))
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == set(LAYER_UNITS)
    counts = {k for k, unit in LAYER_UNITS.items() if unit == "count"}
    assert ({k: first["metrics"][k]["value"] for k in counts}
            == {k: second["metrics"][k]["value"] for k in counts})
    assert compib.solve is solve and compib.solver.solve is solve


def test_seed_gives_same_inputs():
    assert workloads.factor(7).keys == workloads.factor(7).keys
    assert workloads.factor(7).keys != workloads.factor(8).keys


def test_checker_rejects_flipped_grid_verdict():
    wl = small("grid")
    outputs = one_round(wl)
    assert wl.check(outputs) == ({}, [])
    key = wl.keys[0]
    outputs[key] = dict(outputs[key], verdict="MONOGENIC")
    bad, _ = wl.check(outputs)
    assert set(bad) == {key}


def test_checker_rejects_index_off_by_one():
    wl = small("factor")
    outputs = one_round(wl)
    assert wl.check(outputs) == ({}, [])
    key = wl.keys[0]
    outputs[key] = dict(outputs[key], index=outputs[key]["index"] + 1)
    bad, _ = wl.check(outputs)
    assert set(bad) == {key}


def test_checker_rejects_flipped_d3_verdict_and_index_one():
    wl = small("d3")
    outputs = one_round(wl)
    assert wl.check(outputs) == ({}, [])
    first, second = wl.keys[:2]
    outputs[first] = dict(outputs[first], verdict="NOT_MONOGENIC")
    rep = copy.deepcopy(outputs[second])
    rep["candidates"][0]["accepted"] = True
    outputs[second] = rep
    bad, _ = wl.check(outputs)
    assert set(bad) == {first, second}


def test_round_that_differs_from_the_first_counts_as_failed():
    wl = small("factor")
    rounds = [run.run_round(wl, wl.build()) for _ in range(2)]
    key = wl.keys[0]
    rounds[1]["outputs"][key] = dict(rounds[1]["outputs"][key], F=0)
    verdict = run.evaluate(wl, rounds)
    assert verdict["failed"] == 1 and verdict["attempted"] == 2 * len(wl.keys)


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
