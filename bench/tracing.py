"""Spans and counters for the traced run.

Tracing works from outside the package: `Tracer.attach()` replaces each
public name the benchmark cares about with a timing wrapper, at every place
the name is looked up (a `from ... import` binds a second name that must be
patched too), and `detach()` puts the originals back. Each autodiff op
wrapper also wraps the backward closure of the Tensor it returns, so
backward time is attributed to the op that built the tape node.

Spans are kept in memory as (name, start, end, parent) in flat arrays and
aggregated once at the end. A span's self time is its duration minus the
durations of its direct children; the code is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: Autodiff ops that get a forward span and a backward span each.
AUTODIFF_OPS = (
    "add", "sub", "mul", "scale", "matmul", "relu", "sigmoid", "tanh", "exp", "log",
    "tsum", "mean", "reshape", "transpose", "concat", "softmax", "layer_norm",
    "conv1d_same", "maxpool1d_same", "mse",
)

_GBT_FIT = "baselines.gbt.fit"


class Tracer:
    """In-memory span recorder plus the name patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: Counter = Counter()
        self._open: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ---- span recording ---------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(math.nan)
        self._open.append(index)
        self._active[name] += 1
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()
        self._active[self.names[self.name_id[index]]] -= 1

    def inside(self, name: str) -> bool:
        return self._active[name] > 0

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(index)

        return wrapper

    # ---- aggregation ------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        if np.isnan(end).any():
            raise RuntimeError("table() called with spans still open")
        names = np.frombuffer(self.name_id, dtype=np.int32)
        duration = end - start
        self_time = self.self_times()
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        mask = parent >= 0
        return duration - np.bincount(parent[mask], weights=duration[mask], minlength=len(start))

    def dump(self, path: str) -> None:
        """Write every span and counter as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            counter_names=np.array(sorted(self.counters)),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)], dtype=np.float64),
        )

    # ---- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, owners, attr: str, wrapper) -> None:
        for owner in owners:
            self._set(owner, attr, wrapper)

    def _patch_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def detach(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def attach(self) -> None:
        """Replace the package's public names with timing wrappers."""
        import loadcast
        from loadcast import corpus, harness, metrics, report, series, transformer
        from loadcast import nn as lnn
        from loadcast.baselines import neural, simple, trees
        from loadcast import baselines
        from loadcast.nn import adam, autodiff, ops, params

        if self._patches:
            raise RuntimeError("tracer already attached")
        for op in AUTODIFF_OPS:
            self._patch_function([autodiff], op, self._op_wrapper(op, getattr(autodiff, op)))

        self._patch_method(autodiff.Tensor, "backward",
                           lambda fn: self.timed("nn.autodiff.backward", fn))
        update = self.timed("nn.adam.update", adam.adam_update)
        self._patch_function([adam, lnn, transformer, neural], "adam_update", update)
        conv_pool = self.timed("nn.ops.conv_pool_forward", ops.conv_pool_forward)
        self._patch_function([ops, lnn, transformer], "conv_pool_forward", conv_pool)
        self._patch_method(params.ParamStore, "snapshot",
                           lambda fn: self.timed("nn.params.snapshot", fn))

        tf = transformer.TransformerForecaster
        for method in ("pretrain", "forecast", "clone", "load"):
            self._patch_method(tf, method, lambda fn, m=method: self.timed(f"transformer.{m}", fn))
        self._patch_method(tf, "fine_tune", self._fine_tune_wrapper)
        self._patch_method(tf, "forecast_batch", self._forecast_batch_wrapper)

        for model_id, cls in (("mlp", neural.MLPModel), ("lstm", neural.LSTMModel)):
            self._patch_method(cls, "fit", lambda fn, m=model_id: self._neural_fit_wrapper(m, fn))
            self._patch_method(cls, "predict", lambda fn, m=model_id: self.timed(f"baselines.{m}.predict", fn))
        for model_id, cls in (("pm", simple.PersistenceModel), ("lr", simple.LinearModel)):
            for method in ("fit", "predict"):
                self._patch_method(cls, method, lambda fn, m=model_id, k=method: self.timed(f"baselines.{m}.{k}", fn))
        self._patch_method(trees.RegressionTree, "fit", lambda fn: self.timed("baselines.rt.fit", fn))
        self._patch_method(trees.RegressionTree, "predict", self._tree_predict_wrapper)
        self._patch_method(trees.RegressionTree, "fit_arrays", self._tree_fit_arrays_wrapper)
        self._patch_method(trees.GradientBoostedTrees, "fit", self._gbt_fit_wrapper)
        self._patch_method(trees.GradientBoostedTrees, "predict",
                           lambda fn: self.timed("baselines.gbt.predict", fn))
        self._patch_function([trees, baselines], "best_split", self._best_split_wrapper(trees.best_split))

        self._patch_function([harness], "fit_case_model", self._fit_case_model_wrapper(harness.fit_case_model))
        self._patch_function([harness], "roll_forecasts", self._roll_wrapper(harness.roll_forecasts))
        self._patch_function([harness], "score_horizon", self.timed("harness.score", harness.score_horizon))
        self._patch_function([harness], "aggregate_runs", self.timed("harness.score", harness.aggregate_runs))
        self._patch_method(metrics.MetricTriple, "from_arrays", lambda fn: self.timed("metrics.score", fn))
        self._patch_function([report, loadcast], "emit_report", self.timed("report.emit", report.emit_report))
        windows = self.timed("series.windows", series.make_windows)
        self._patch_function([series, harness, loadcast], "make_windows", windows)
        build = self.timed("corpus.build", corpus.build_corpus)
        self._patch_function([corpus, loadcast], "build_corpus", build)

    # ---- wrappers that also count work --------------------------------------

    def _op_wrapper(self, op: str, fn):
        fwd, bwd = f"nn.autodiff.{op}.fwd", f"nn.autodiff.{op}.bwd"
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(index)
            backward = getattr(out, "_backward", None)
            # Composite ops (mean, mse) return a tensor an inner op already
            # wrapped; only the op that built the node owns its backward.
            if backward is not None and not getattr(backward, "_traced", False):
                tracer.counters["nn.autodiff.nodes"] += 1

                def timed_backward(g):
                    i = tracer.begin(bwd)
                    try:
                        backward(g)
                    finally:
                        tracer.finish(i)

                timed_backward._traced = True
                out._backward = timed_backward
            return out

        return wrapper

    def _fine_tune_wrapper(self, fn):
        timed = self.timed("transformer.fine_tune", fn)

        def wrapper(*args, **kwargs):
            curve = timed(*args, **kwargs)
            self.counters["transformer.fine_tune_epochs"] += len(curve)
            return curve

        return wrapper

    def _forecast_batch_wrapper(self, fn):
        timed = self.timed("transformer.forecast_batch", fn)

        def wrapper(model, histories, horizon_hours):
            self.counters["transformer.forecast_rows"] += int(np.shape(histories)[0])
            return timed(model, histories, horizon_hours)

        return wrapper

    def _neural_fit_wrapper(self, model_id: str, fn):
        timed = self.timed(f"baselines.{model_id}.fit", fn)

        def wrapper(model, windows, *args, **kwargs):
            fitted = timed(model, windows, *args, **kwargs)
            batches = math.ceil(len(windows) / model.batch)
            self.counters[f"baselines.{model_id}.steps"] += len(model.curve) * batches
            return fitted

        return wrapper

    def _tree_predict_wrapper(self, fn):
        timed = self.timed("baselines.rt.predict", fn)

        def wrapper(*args, **kwargs):
            # Boosting calls the member trees' predict; that time belongs to
            # the enclosing gbt span, not to the stand-alone tree model.
            if self.inside(_GBT_FIT) or self.inside("baselines.gbt.predict"):
                return fn(*args, **kwargs)
            return timed(*args, **kwargs)

        return wrapper

    def _tree_fit_arrays_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            if self.inside(_GBT_FIT):
                self.counters["baselines.gbt.trees_grown"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gbt_fit_wrapper(self, fn):
        timed = self.timed(_GBT_FIT, fn)

        def wrapper(model, *args, **kwargs):
            fitted = timed(model, *args, **kwargs)
            self.counters["baselines.gbt.trees_kept"] += len(model.trees)
            self.counters["baselines.gbt.split_trees"] += sum(
                1 for tree in model.trees if tree.root is not None and not tree.root.is_leaf
            )
            return fitted

        return wrapper

    def _best_split_wrapper(self, fn):
        timed = self.timed("baselines.trees.best_split", fn)

        def wrapper(*args, **kwargs):
            found = timed(*args, **kwargs)
            self.counters["baselines.trees.splits_found"] += found is not None
            return found

        return wrapper

    def _fit_case_model_wrapper(self, fn):
        def wrapper(model_id, *args, **kwargs):
            index = self.begin(f"harness.fit_case_model.{model_id}")
            try:
                return fn(model_id, *args, **kwargs)
            finally:
                self.finish(index)

        return wrapper

    def _roll_wrapper(self, fn):
        from loadcast.baselines import neural, simple, trees
        from loadcast.transformer import TransformerForecaster

        ids = {
            TransformerForecaster: "tsfm", simple.PersistenceModel: "pm", simple.LinearModel: "lr",
            trees.RegressionTree: "rt", trees.GradientBoostedTrees: "gbt",
            neural.MLPModel: "mlp", neural.LSTMModel: "lstm",
        }

        def wrapper(model, *args, **kwargs):
            index = self.begin(f"harness.roll_forecasts.{ids.get(type(model), 'other')}")
            try:
                return fn(model, *args, **kwargs)
            finally:
                self.finish(index)

        return wrapper


def layer_metrics(table: dict, counters: Counter) -> dict[str, float]:
    """Per-layer metrics named as in the benchmark doc, from one traced phase."""

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    out: dict[str, float] = {}
    fwd_total = 0.0
    bwd_total = 0.0
    for op in AUTODIFF_OPS:
        out[f"nn.autodiff.{op}.calls"] = calls(f"nn.autodiff.{op}.fwd")
        out[f"nn.autodiff.{op}.fwd_s"] = own(f"nn.autodiff.{op}.fwd")
        out[f"nn.autodiff.{op}.bwd_s"] = own(f"nn.autodiff.{op}.bwd")
        fwd_total += out[f"nn.autodiff.{op}.fwd_s"]
        bwd_total += out[f"nn.autodiff.{op}.bwd_s"]
    out["nn.autodiff.fwd_s"] = fwd_total
    out["nn.autodiff.bwd_s"] = bwd_total
    out["nn.autodiff.backward_s"] = total("nn.autodiff.backward")
    out["nn.autodiff.tape_walk_s"] = own("nn.autodiff.backward")
    out["nn.autodiff.nodes"] = counters["nn.autodiff.nodes"]
    out["nn.adam.calls"] = calls("nn.adam.update")
    out["nn.adam.update_s"] = total("nn.adam.update")
    out["nn.params.snapshot_s"] = total("nn.params.snapshot")
    for method in ("pretrain", "fine_tune", "forecast", "forecast_batch", "load", "clone"):
        out[f"transformer.{method}_s"] = total(f"transformer.{method}")
    out["transformer.fine_tune_epochs"] = counters["transformer.fine_tune_epochs"]
    out["transformer.forecast_rows"] = counters["transformer.forecast_rows"]
    for model_id in ("pm", "lr", "rt", "gbt", "mlp", "lstm"):
        out[f"baselines.{model_id}.fit_s"] = total(f"baselines.{model_id}.fit")
        out[f"baselines.{model_id}.predict_s"] = total(f"baselines.{model_id}.predict")
    for model_id in ("mlp", "lstm"):
        out[f"baselines.{model_id}.steps"] = counters[f"baselines.{model_id}.steps"]
    split_calls = calls("baselines.trees.best_split")
    out["baselines.trees.best_split_s"] = total("baselines.trees.best_split")
    out["baselines.trees.best_split_calls"] = split_calls
    out["baselines.trees.split_found_ratio"] = (
        counters["baselines.trees.splits_found"] / split_calls if split_calls else 0.0
    )
    grown = counters["baselines.gbt.trees_grown"]
    out["baselines.gbt.trees_grown"] = grown
    out["baselines.gbt.trees_kept"] = counters["baselines.gbt.trees_kept"]
    out["baselines.gbt.kept_ratio"] = counters["baselines.gbt.trees_kept"] / grown if grown else 0.0
    out["baselines.gbt.split_trees"] = counters["baselines.gbt.split_trees"]
    for model_id in ("tsfm", "pm", "lr", "rt", "gbt", "mlp", "lstm"):
        out[f"harness.fit_case_model_s.{model_id}"] = total(f"harness.fit_case_model.{model_id}")
        out[f"harness.roll_forecasts_s.{model_id}"] = total(f"harness.roll_forecasts.{model_id}")
    out["harness.score_s"] = total("harness.score")
    out["metrics.score_s"] = total("metrics.score")
    out["report.emit_s"] = total("report.emit")
    out["series.windows_s"] = total("series.windows")
    out["corpus.build_s"] = total("corpus.build")
    return out
