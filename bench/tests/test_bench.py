"""Self-tests for the benchmark. Run from the repository root:

    python3 -m pytest bench/tests -q

They use the tiny size, which shrinks every workload to a few seconds.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import gate  # noqa: E402
import run_bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run_bench.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run_bench.PER_LAYER if trace == "1" else run_bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert expected == _declared("per_layer" if trace == "1" else "end_to_end")
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_gate_names_the_perturbed_cell():
    entry = gate.reference_entry(gate.load_reference(), "tiny", "scarce_grid", 0)
    observed = copy.deepcopy(entry["outputs"])
    observed["errors"] = {}
    assert gate.compare_outputs("scarce_grid", observed, entry["outputs"]) == []

    perturbed = copy.deepcopy(entry["outputs"])
    perturbed["cells"]["tsfm|case1|24"][0] *= 1 + 1e-4
    perturbed["cells"]["pm|case1|1"][1] = np.nextafter(perturbed["cells"]["pm|case1|1"][1], 1.0)
    problems = gate.compare_outputs("scarce_grid", observed, perturbed)
    assert len(problems) == 2
    assert any("tsfm|case1|24 rmse" in p for p in problems)
    assert any("pm|case1|1 mae" in p and "bitwise" in p for p in problems)

    within = copy.deepcopy(entry["outputs"])
    within["cells"]["tsfm|case1|24"][0] *= 1 + gate.RTOL / 10
    assert gate.compare_outputs("scarce_grid", observed, within) == []


def test_gate_flags_work_counters_and_only_reports_op_counters():
    expected = {"nn.adam.calls": 10, "nn.autodiff.matmul.calls": 5}
    failures, drift = gate.compare_counters("w", {"nn.adam.calls": 9, "nn.autodiff.matmul.calls": 4}, expected)
    assert failures == ["w: counter nn.adam.calls = 9, reference 10"]
    assert drift == ["w: counter nn.autodiff.matmul.calls = 4, reference 5"]


def test_run_fails_against_a_perturbed_reference(tmp_path, monkeypatch):
    reference = gate.load_reference()
    reference["tiny"]["pretrain"]["0"]["outputs"]["losses"][1] *= 1.001
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(gate, "REFERENCE_PATH", str(path))
    for trace in ("0", "1"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_bench.main(["--workload", "pretrain", "--seed", "0", "--seconds", "1",
                                   "--trace", trace, "--size", "tiny"]) == 0
        lines = out.getvalue().strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] is False and result["failed"] >= 1
        assert any("FAILED" in line and "step 1 loss" in line for line in lines)


@pytest.mark.filterwarnings("ignore:min_child_samples")
def test_traced_self_times_are_non_negative_and_sum_to_their_parent(tmp_path):
    work = workloads.make("scarce_grid", 0, "tiny", str(tmp_path))
    work.setup()
    tracer = Tracer()
    from loadcast.nn import autodiff

    original = autodiff.matmul
    tracer.attach()
    try:
        work.unit()
    finally:
        tracer.detach()
    assert autodiff.matmul is original

    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    duration = end - start
    own = tracer.self_times()
    assert len(own) > 1000
    assert own.min() >= -1e-9
    # Children are recorded after their parent, so one reverse pass folds
    # every subtree's self time into its root.
    subtree = own.copy()
    for i in range(len(subtree) - 1, -1, -1):
        if parent[i] >= 0:
            subtree[parent[i]] += subtree[i]
    assert np.allclose(subtree, duration, rtol=0, atol=1e-9)
    table = tracer.table()
    assert table["nn.autodiff.backward"]["self_s"] >= 0
    assert table["nn.autodiff.matmul.bwd"]["calls"] > 0


@pytest.mark.filterwarnings("ignore:min_child_samples")
def test_scarce_inputs_do_equal_work():
    for input_id in workloads.SCARCE_INPUTS:
        epochs, kept = workloads.scarce_work(input_id)
        assert epochs in workloads.SCARCE_EPOCHS and kept in workloads.SCARCE_KEPT_TREES, input_id
