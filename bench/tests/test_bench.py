"""Tests of the benchmark itself: inputs, spans, the correctness gate and
the contract with BENCHMARK.json. Run from the repository root with

    python3 -m pytest bench/tests -q

Benchmark runs are separate processes, as in real use, so each one pins
BLAS before NumPy loads.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def tree_state(root: Path) -> dict[str, tuple[int, int]]:
    skip = {".git", "__pycache__", ".pytest_cache"}
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            state[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
        state[dirpath] = (0, 0)
    return state


def inputs_of(name: str, seed: int, tmp: Path) -> list[np.ndarray]:
    w = workloads.WORKLOADS[name](seed, tmp, workloads.Gate(), False)
    w.setup()
    arrays = list(w.init.values())
    if name == "lm-fusion":
        arrays += [e.ids for e in w.train_set + w.heldout] + [w.short_prompt, w.long_prompt]
    else:
        arrays += [w.train_set.values, w.val_set.values]
    return arrays


@pytest.mark.parametrize("name", ["tok-toy", "lm-fusion"])
def test_seed_fixes_inputs(name, tmp_path):
    first = inputs_of(name, 3, tmp_path)
    again = inputs_of(name, 3, tmp_path)
    other = inputs_of(name, 4, tmp_path)
    assert len(first) == len(again)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(first, other))


def test_spans_nest_and_self_time_is_nonnegative(tmp_path):
    log = tmp_path / "spans.jsonl"
    res = result_of(bench("--workload", "tok-toy", "--seed", "2", "--seconds", "1",
                          "--trace", "1", "--spans", str(log)))
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {name for name, _, _ in spans.LAYER_METRICS}
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    rows = [r for r in rows if r["round"] == 0]
    assert {"tensor.matmul", "tensor.Tensor.backward", "pipeline.train_tokenizer"} <= {
        r["name"] for r in rows}
    for r in rows:
        assert r["start"] <= r["end"]
        if r["parent"] >= 0:
            parent = rows[r["parent"]]
            assert parent["start"] <= r["start"] and r["end"] <= parent["end"]
            assert parent["phase"] == r["phase"]
    as_lists = [[r["name"], r["start"], r["end"], r["parent"], r["op"], r["phase"]] for r in rows]
    assert min(spans.self_times(as_lists)) >= -1e-9
    # tok-toy trains on 64 clips in batches of 4; every step is its own operation.
    steps = {r["op"] for r in rows if r["phase"] == "train" and r["name"] == "tensor.Tensor.backward"}
    assert len(steps) == workloads.TRAIN_EPOCHS * 64 // 4


def test_lm_forward_metrics_count_generation_only():
    res = result_of(bench("--workload", "lm-fusion", "--seed", "2", "--seconds", "1",
                          "--trace", "1"))
    assert res["correct"] and res["failed"] == 0
    # One forward per new token; training and held-out scoring forwards are left out.
    new_tokens = workloads.GEN_SHORT_NEW + workloads.GEN_LONG_NEW
    assert res["metrics"]["lm.forward_calls"]["value"] == new_tokens


def test_tracer_restores_every_binding():
    import flowtok.lm as lm_mod
    import flowtok.nn as nn_mod
    import flowtok.tensor as tensor_mod

    before = (tensor_mod.matmul, nn_mod.matmul, lm_mod.matmul, nn_mod.Linear.__call__)
    with spans.Tracer() as tracer:
        assert nn_mod.matmul is lm_mod.matmul is tensor_mod.matmul
        assert tensor_mod.matmul is not before[0]
        a = tensor_mod.Tensor(np.ones((2, 3)), requires_grad=True)
        (a @ tensor_mod.Tensor(np.ones((3, 2)))).sum().backward()
    assert (tensor_mod.matmul, nn_mod.matmul, lm_mod.matmul, nn_mod.Linear.__call__) == before
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["tensor.matmul", "tensor.tsum", "tensor.Tensor.backward"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_minimal_run_passes_gate_and_leaves_tree_unchanged(name):
    before = tree_state(ROOT)
    res = result_of(bench("--workload", name, "--seed", "5", "--seconds", "1"))
    assert tree_state(ROOT) == before
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == [key for key, _ in run.END_TO_END]
    for key, unit in run.END_TO_END:
        value = res["metrics"][key]["value"]
        assert res["metrics"][key]["unit"] == unit
        assert math.isfinite(value) and value > 0, key


@pytest.mark.parametrize("name", ["tok-toy", "lm-fusion"])
def test_injected_nan_fails_operations_and_metrics_still_print(name):
    res = result_of(bench("--workload", name, "--seed", "5", "--seconds", "1", "--inject-nan"))
    assert not res["correct"]
    assert 0 < res["failed"] <= res["attempted"]
    assert list(res["metrics"]) == [key for key, _ in run.END_TO_END]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "tok-toy", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
