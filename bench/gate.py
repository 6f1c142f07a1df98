"""Correctness gate: compare a run's outputs and work counters to the reference.

The reference (`reference.json` beside this file) was recorded from the
commit that introduced the benchmark, one entry per size, workload and input
variant. Persistence, linear regression and the regression tree must match
it bitwise. Trained models (the transformer, GBT, MLP and LSTM) must match
within RTOL, because kernel changes may legitimately reorder floating-point
sums.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

RTOL = 1e-6
ATOL = 1e-12

#: Models whose arithmetic no planned optimization reorders.
BITWISE_MODELS = ("pm", "lr", "rt")

#: Counters that fix how much work a unit does; a difference fails the run,
#: since fewer epochs, rounds or splits would otherwise read as a speed-up.
WORK_COUNTERS = (
    "nn.adam.calls",
    "transformer.fine_tune_epochs",
    "baselines.gbt.trees_grown",
    "baselines.gbt.trees_kept",
    "baselines.trees.best_split_calls",
)

#: Op-level counters: a difference is reported but does not fail the run,
#: because fusing ops changes them without changing the work.
OP_COUNTER_PREFIX = "nn.autodiff."


def close(observed: float, expected: float) -> bool:
    return abs(observed - expected) <= ATOL + RTOL * abs(expected)


def fingerprint(matrix) -> dict:
    """Exact digest plus a few values that can be compared with a tolerance."""
    flat = np.ascontiguousarray(matrix, dtype=np.float64).ravel()
    picks = np.linspace(0, flat.size - 1, 16).astype(int)
    return {
        "sha256": hashlib.sha256(flat.tobytes()).hexdigest(),
        "values": [float(flat.sum()), float(np.abs(flat).sum())] + [float(v) for v in flat[picks]],
    }


def load_reference(path: str | None = None) -> dict:
    path = path or REFERENCE_PATH
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_entry(reference: dict, size: str, workload: str, variant: int) -> dict | None:
    return reference.get(size, {}).get(workload, {}).get(str(variant))


def compare_losses(label: str, observed: list[float], expected: list[float]) -> list[str]:
    if len(observed) != len(expected):
        return [f"{label}: {len(observed)} losses, reference has {len(expected)}"]
    return [
        f"{label}: step {i} loss {o!r} != reference {e!r} (rtol {RTOL})"
        for i, (o, e) in enumerate(zip(observed, expected))
        if not close(o, e)
    ]


def compare_cells(label: str, observed: dict, expected: dict) -> list[str]:
    """Grid report cells keyed 'model|case|horizon' -> [rmse, mae, mape]."""
    problems = []
    for key in sorted(set(expected) - set(observed)):
        problems.append(f"{label}: cell {key} missing")
    for key in sorted(set(observed) - set(expected)):
        problems.append(f"{label}: cell {key} not in reference")
    for key in sorted(set(observed) & set(expected)):
        bitwise = key.split("|")[0] in BITWISE_MODELS
        for metric, o, e in zip(("rmse", "mae", "mape"), observed[key], expected[key]):
            if (o != e) if bitwise else not close(o, e):
                rule = "bitwise" if bitwise else f"rtol {RTOL}"
                problems.append(f"{label}: cell {key} {metric} {o!r} != reference {e!r} ({rule})")
    return problems


def compare_fingerprints(label: str, observed: dict, expected: dict) -> list[str]:
    """Forecast matrices keyed by model id -> fingerprint()."""
    problems = []
    for key in sorted(set(expected) ^ set(observed)):
        problems.append(f"{label}: matrix {key} present on one side only")
    for key in sorted(set(observed) & set(expected)):
        if key in BITWISE_MODELS:
            if observed[key]["sha256"] != expected[key]["sha256"]:
                problems.append(f"{label}: matrix {key} digest differs from reference (bitwise)")
        elif not all(close(o, e) for o, e in zip(observed[key]["values"], expected[key]["values"])):
            problems.append(f"{label}: matrix {key} differs from reference beyond rtol {RTOL}")
    return problems


def compare_outputs(label: str, observed: dict, expected: dict) -> list[str]:
    """Dispatch on the output kind a workload unit returns."""
    problems = []
    if "losses" in expected:
        problems += compare_losses(label, observed["losses"], expected["losses"])
    if "cells" in expected:
        problems += compare_cells(label, observed["cells"], expected["cells"])
        problems += [f"{label}: cell {k} errored: {v}" for k, v in sorted(observed["errors"].items())]
    if "matrices" in expected:
        problems += compare_fingerprints(label, observed["matrices"], expected["matrices"])
    return problems


def compare_counters(label: str, observed: dict, expected: dict) -> tuple[list[str], list[str]]:
    """(failures, drift): work-counter differences fail, op-counter ones are flagged."""
    failures, drift = [], []
    for key in sorted(set(observed) | set(expected)):
        o, e = observed.get(key, 0), expected.get(key, 0)
        if o == e:
            continue
        message = f"{label}: counter {key} = {o}, reference {e}"
        if key in WORK_COUNTERS:
            failures.append(message)
        elif key.startswith(OP_COUNTER_PREFIX):
            drift.append(message)
    return failures, drift


def record_entry(size: str, workload: str, variant: int, entry: dict, path: str | None = None) -> None:
    """Merge one entry into the reference file under an exclusive lock."""
    path = path or REFERENCE_PATH
    lock_dir = os.path.join(os.path.dirname(path), "out")
    os.makedirs(lock_dir, exist_ok=True)
    with open(os.path.join(lock_dir, "reference.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        reference = load_reference(path)
        reference.setdefault(size, {}).setdefault(workload, {})[str(variant)] = entry
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(path + ".tmp", path)
