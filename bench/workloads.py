"""The four benchmark workloads.

Each workload builds its inputs from an input variant (the run's seed modulo
VARIANTS, so every input has a recorded reference), then exposes:

- `setup()`: everything a user pays once before the work starts;
- `warm_up()`: a small untimed pass so first-call costs stay out of timing;
- `measure(seconds, expected)`: the timed closed loop, checking each output;
- `unit()`: one fixed piece of the same work, for the traced run and for
  recording the reference.

The package is reached only through module attributes looked up at call time
(`harness.run_experiment`, not a `from` import), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import gate
from loadcast import corpus, harness, metrics, report, series
from loadcast.transformer import TransformerConfig, TransformerForecaster

VARIANTS = 8
HORIZONS = (1, 6, 24)
H_MAX = max(HORIZONS)
ALL_MODELS = ("tsfm", "pm", "lr", "rt", "gbt", "mlp", "lstm")

#: The conftest pretraining recipe, minus its corpus size.
PRETRAIN_EXCLUDE = ("trend_seasonal",)
PRETRAIN_BATCH = 256
PRETRAIN_LR = 1e-3
#: 24 context + 6 horizon - 1: a series this long yields exactly one batch.
ONE_BATCH_LENGTH = 256 + 29

SIZES = {
    "full": {
        "pretrain": {"cycle_steps": 8},
        "artifact_series": 2,
        # LSTM runs at 10 epochs, not 200: one default fit takes ~34 s at
        # case1 on a 2-core box, more than a whole run may take.
        "scarce_grid": {"case": "case1", "models": ALL_MODELS, "length": 72 + 768, "lstm_epochs": 10},
        # LSTM is left out at case5: one fit takes about 7 minutes.
        "rich_grid": {"case": "case5", "models": ALL_MODELS[:-1], "length": 720 + 48, "lstm_epochs": 0},
        "forecast": {"long": ("case1", 72, 768), "short": ("case5", 720, 96),
                     "neural_epochs": 2, "singles": 60},
    },
    "tiny": {
        "pretrain": {"cycle_steps": 2},
        "artifact_series": 1,
        "scarce_grid": {"case": "case1", "models": ALL_MODELS, "length": 72 + 48, "lstm_epochs": 1},
        "rich_grid": {"case": "case2", "models": ALL_MODELS[:-1], "length": 120 + 48, "lstm_epochs": 0},
        "forecast": {"long": ("case1", 72, 48), "short": ("case2", 120, 24),
                     "neural_epochs": 1, "singles": 10},
    },
}


@dataclass
class Measurement:
    """What the timed loop saw: work items, busy time, latency samples, failures."""

    items: int = 0
    busy_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def problems_from(self, problems: list[str]) -> None:
        if problems:
            self.fail(problems)


#: Inputs of scarce_grid. At case1 the work a grid does depends on its data:
#: tsfm fine-tuning stops early after 6 to 20 epochs and GBT keeps 0 to 470
#: leaf-only trees, which moves grid time by a factor of two between inputs.
#: So candidate inputs 0, 1, 2, ... were drawn in order and the first eight
#: doing the same work were kept (see `scarce_work`), so that the spread
#: between seeds measures the program, not the inputs.
SCARCE_INPUTS = (16, 20, 53, 57, 103, 109, 130, 187)
SCARCE_EPOCHS = range(7, 10)
SCARCE_KEPT_TREES = range(175, 226)


def dataset_recipe(variant: int, length: int) -> dict:
    """Inline trend_seasonal recipe; values drawn from the variant alone."""
    rng = np.random.default_rng([7, variant])
    return {
        "family": "trend_seasonal",
        "length": length,
        "period": 24,
        "trend_slope": float(rng.uniform(-0.002, 0.002)),
        "noise_std": float(rng.uniform(0.03, 0.08)),
        "seed": int(rng.integers(0, 2**31 - 1)),
    }


def small_artifact(variant: int, series_count: int) -> TransformerForecaster:
    """A pretrained transformer from a few one-batch series: cheap, but real."""
    pieces = corpus.build_corpus(series_count, master_seed=100 + variant,
                                 series_length=ONE_BATCH_LENGTH, exclude_families=PRETRAIN_EXCLUDE)
    model = TransformerForecaster(TransformerConfig(), init_seed=variant)
    model.pretrain(pieces, epochs=1, learning_rate=PRETRAIN_LR, seed=variant, batch_size=PRETRAIN_BATCH)
    return model


def scarce_work(input_id: int) -> tuple[int, int]:
    """(tsfm fine-tune epochs, GBT trees kept) of one scarce_grid input."""
    cfg = SIZES["full"]["scarce_grid"]
    base = small_artifact(input_id, SIZES["full"]["artifact_series"])
    data = corpus.generate_series(corpus.GeneratorSpec(**dataset_recipe(input_id, cfg["length"])))
    split = series.split_case(data, cfg["case"])
    tsfm = base.clone()
    curve = tsfm.fine_tune(split.train, seed=harness.derive_run_seed(input_id, "tsfm", cfg["case"], 0))
    gbt = harness.fit_case_model("gbt", split.train, harness.derive_run_seed(input_id, "gbt", cfg["case"], 0))
    return len(curve), len(gbt.trees)


def warm_models(base: TransformerForecaster) -> None:
    """Fit and roll every model once on a short series, untimed."""
    data = harness.resolve_dataset(harness.ExperimentSpec(
        cases=("case1",), horizons_hours=HORIZONS, models=("pm",), dataset=dataset_recipe(99, 120)))
    split = series.split_case(data, "case1")
    normalizer = series.fit_normalizer(split.train)
    quick = {"gbt": {"estimators": 5}, "mlp": {"epochs": 1}, "lstm": {"epochs": 1}}
    for model_id in ALL_MODELS:
        model = harness.fit_case_model(model_id, split.train, 0, base_transformer=base,
                                       hyperparams=quick.get(model_id))
        harness.roll_forecasts(model, data, len(split.train), H_MAX, normalizer)


def _until(seconds: float, durations: list[float], started: float) -> bool:
    """Start another unit only if the typical one still ends inside the window."""
    if not durations:
        return True
    return perf_counter() - started + statistics.median(durations) <= seconds


class Pretrain:
    """Transformer pretraining steps at the conftest shape (batch 256)."""

    name = "pretrain"
    item = "training windows"
    op = "optimizer step (one 256-window batch)"

    def __init__(self, variant: int, size: str, workdir: str):
        self.variant = variant
        self.steps = SIZES[size]["pretrain"]["cycle_steps"]

    def setup(self) -> None:
        # Each series yields exactly one batch, so one pretrain() call on it
        # is one optimizer step and its duration is the step latency.
        self.corpus = corpus.build_corpus(self.steps, master_seed=self.variant,
                                          series_length=ONE_BATCH_LENGTH,
                                          exclude_families=PRETRAIN_EXCLUDE)
        self.initial = TransformerForecaster(TransformerConfig(), init_seed=self.variant)

    def _step(self, model, i: int) -> float:
        curve = model.pretrain([self.corpus[i]], epochs=1, learning_rate=PRETRAIN_LR,
                               seed=i, batch_size=PRETRAIN_BATCH)
        return curve[0]

    def warm_up(self) -> None:
        self._step(self.initial.clone(), 0)

    def unit(self) -> dict:
        model = self.initial.clone()
        return {"losses": [self._step(model, i) for i in range(self.steps)]}

    def measure(self, seconds: float, expected: dict | None) -> Measurement:
        m = Measurement()
        started = perf_counter()
        i = 0
        model = self.initial.clone()
        while _until(seconds, m.latencies_s, started):
            m.attempted += 1
            t0 = perf_counter()
            try:
                loss = self._step(model, i)
            except Exception as exc:  # noqa: BLE001 - a failed step is counted, not fatal
                m.fail([f"pretrain: step {i} raised {type(exc).__name__}: {exc}"])
                break
            dt = perf_counter() - t0
            m.latencies_s.append(dt)
            m.busy_s += dt
            m.items += PRETRAIN_BATCH
            if not np.isfinite(loss):
                m.fail([f"pretrain: step {i} loss is not finite"])
            elif expected is not None and not gate.close(loss, expected["losses"][i]):
                m.fail([f"pretrain: step {i} loss {loss!r} != reference "
                        f"{expected['losses'][i]!r} (rtol {gate.RTOL})"])
            i = (i + 1) % self.steps
            if i == 0:
                model = self.initial.clone()
        return m


class Grid:
    """`loadcast run` end to end: spec to written report, one case, three horizons."""

    item = "grid cells"
    op = "whole grid, spec to written report"

    def __init__(self, name: str, variant: int, size: str, workdir: str):
        self.name = name
        scarce_full = name == "scarce_grid" and size == "full"
        self.input_id = SCARCE_INPUTS[variant] if scarce_full else variant
        self.config = SIZES[size][name]
        self.artifact_series = SIZES[size]["artifact_series"]
        self.workdir = workdir

    def setup(self) -> None:
        cfg = self.config
        self.base = small_artifact(self.input_id, self.artifact_series)
        path = os.path.join(self.workdir, "pretrained.bin")
        self.base.save(path)
        self.spec = harness.ExperimentSpec(
            cases=(cfg["case"],),
            horizons_hours=HORIZONS,
            models=tuple(m for m in cfg["models"] if m != "lstm"),
            dataset=dataset_recipe(self.input_id, cfg["length"]),
            runs_per_model=1,
            master_seed=self.input_id,
            pretrained_artifact=path,
        )

    def warm_up(self) -> None:
        warm_models(self.base)

    def _lstm_cells(self, grid) -> None:
        """The LSTM cell, built from the harness's public steps with fewer epochs."""
        case = self.config["case"]
        try:
            data = harness.resolve_dataset(self.spec)
            split = series.split_case(data, case)
            normalizer = series.fit_normalizer(split.train)
            norm_test = normalizer.apply(split.test.values)
            seed = harness.derive_run_seed(self.spec.master_seed, "lstm", case, 0)
            model = harness.fit_case_model("lstm", split.train, seed,
                                           hyperparams={"epochs": self.config["lstm_epochs"]})
            preds = harness.roll_forecasts(model, data, len(split.train), H_MAX, normalizer)
            for h in HORIZONS:
                actual, forecast = harness.score_horizon(preds, norm_test, h)
                triple = metrics.MetricTriple.from_arrays(actual, forecast)
                grid.entries[("lstm", case, h)] = harness.aggregate_runs([triple])
        except Exception as exc:  # noqa: BLE001 - recorded per cell, as run_experiment does
            for h in HORIZONS:
                grid.errors[("lstm", case, h)] = f"{type(exc).__name__}: {exc}"

    def unit(self) -> dict:
        grid = harness.run_experiment(self.spec)
        if "lstm" in self.config["models"]:
            self._lstm_cells(grid)
        report.emit_report(grid, os.path.join(self.workdir, "report"))
        return {
            "cells": {f"{m}|{c}|{h}": [t.rmse, t.mae, t.mape] for (m, c, h), t in grid.entries.items()},
            "errors": {f"{m}|{c}|{h}": e for (m, c, h), e in grid.errors.items()},
        }

    def cell_count(self) -> int:
        return len(self.config["models"]) * len(HORIZONS)

    def measure(self, seconds: float, expected: dict | None) -> Measurement:
        m = Measurement()
        started = perf_counter()
        while _until(seconds, m.latencies_s, started):
            m.attempted += self.cell_count()
            t0 = perf_counter()
            try:
                outputs = self.unit()
            except Exception as exc:  # noqa: BLE001
                m.failed += self.cell_count()
                m.problems.append(f"{self.name}: grid raised {type(exc).__name__}: {exc}")
                break
            dt = perf_counter() - t0
            m.latencies_s.append(dt)
            m.busy_s += dt
            m.items += self.cell_count()
            if expected is None:
                problems = [f"{self.name}: cell {k} errored: {v}" for k, v in sorted(outputs["errors"].items())]
            else:
                problems = gate.compare_outputs(self.name, outputs, expected)
            # Every problem line names its cell; count each failing cell once.
            m.failed += len({p.split(" cell ")[1].split()[0] for p in problems})
            m.problems.extend(problems)
        return m


class Forecast:
    """Inference only: rolling 24 h sweeps for every model, plus one-origin forecasts."""

    name = "forecast"
    item = "rolling origins (all models' sweeps)"
    op = "one-origin tsfm 24 h forecast"

    def __init__(self, variant: int, size: str, workdir: str):
        self.variant = variant
        self.config = SIZES[size]["forecast"]
        self.artifact_series = SIZES[size]["artifact_series"]

    def setup(self) -> None:
        cfg = self.config
        long_case, long_train, long_origins = cfg["long"]
        short_case, short_train, short_origins = cfg["short"]
        length = max(long_train + long_origins, short_train + short_origins)
        self.base = base = small_artifact(self.variant, self.artifact_series)
        data = harness.resolve_dataset(harness.ExperimentSpec(
            cases=(long_case,), horizons_hours=HORIZONS, models=("pm",),
            dataset=dataset_recipe(self.variant, length)))
        # GBT and RT fit on the rich history, so their trees really split;
        # MLP and LSTM get short training, since inference cost does not
        # depend on the weights.
        plan = {
            "tsfm": (long_case, None), "pm": (long_case, None), "lr": (long_case, None),
            "mlp": (long_case, {"epochs": cfg["neural_epochs"]}),
            "lstm": (long_case, {"epochs": cfg["neural_epochs"]}),
            "rt": (short_case, None), "gbt": (short_case, None),
        }
        views = {
            long_case: data.slice(0, long_train + long_origins),
            short_case: data.slice(0, short_train + short_origins),
        }
        self.sweeps = []
        for model_id in ALL_MODELS:
            case, hyperparams = plan[model_id]
            view = views[case]
            split = series.split_case(view, case)
            seed = harness.derive_run_seed(self.variant, model_id, case, 0)
            model = harness.fit_case_model(model_id, split.train, seed, base_transformer=base,
                                           hyperparams=hyperparams)
            normalizer = series.fit_normalizer(split.train)
            self.sweeps.append((model_id, model, view, len(split.train), normalizer))
        tsfm = self.sweeps[0]
        self.tsfm, self.tsfm_view, self.tsfm_train, self.tsfm_norm = tsfm[1], tsfm[2], tsfm[3], tsfm[4]
        self.origins = long_origins

    def warm_up(self) -> None:
        warm_models(self.base)
        self.tsfm.forecast(self.tsfm_view.values[: self.tsfm_train], H_MAX)

    def _sweep(self, entry) -> np.ndarray:
        _, model, view, train_len, normalizer = entry
        return harness.roll_forecasts(model, view, train_len, H_MAX, normalizer)

    def _single(self, k: int) -> tuple[int, np.ndarray]:
        origin = (k * 97) % self.origins
        history = self.tsfm_view.values[: self.tsfm_train + origin]
        return origin, self.tsfm.forecast(history, H_MAX)

    def _single_problems(self, origin: int, single: np.ndarray, tsfm_matrix: np.ndarray) -> list[str]:
        normalized = self.tsfm_norm.apply(single)
        if np.allclose(normalized, tsfm_matrix[origin], rtol=gate.RTOL, atol=gate.ATOL):
            return []
        return [f"forecast: one-origin forecast at origin {origin} disagrees with the tsfm sweep row"]

    def unit(self) -> dict:
        matrices = {entry[0]: self._sweep(entry) for entry in self.sweeps}
        singles = []
        for k in range(self.config["singles"]):
            origin, single = self._single(k)
            singles.append(self.tsfm_norm.apply(single))
        matrices["tsfm_single"] = np.stack(singles)
        return {"matrices": {k: gate.fingerprint(v) for k, v in matrices.items()}}

    def measure(self, seconds: float, expected: dict | None) -> Measurement:
        m = Measurement()
        rounds: list[float] = []
        singles = self.config["singles"]
        # The one-origin calls are spread between the sweeps, so both kinds
        # of sample cover the whole window and machine-speed swings of a few
        # seconds average out instead of landing on one kind.
        chunks = np.array_split(np.arange(singles), len(self.sweeps))
        started = perf_counter()
        while _until(seconds, rounds, started):
            round_start = perf_counter()
            offset = len(rounds) * singles
            tsfm_matrix = None
            for entry, chunk in zip(self.sweeps, chunks):
                m.attempted += 1
                t0 = perf_counter()
                try:
                    matrix = self._sweep(entry)
                except Exception as exc:  # noqa: BLE001
                    m.fail([f"forecast: {entry[0]} sweep raised {type(exc).__name__}: {exc}"])
                    matrix = None
                if matrix is not None:
                    m.busy_s += perf_counter() - t0
                    m.items += matrix.shape[0]
                    if entry[0] == "tsfm":
                        tsfm_matrix = matrix
                    if expected is not None:
                        m.problems_from(gate.compare_fingerprints(
                            "forecast", {entry[0]: gate.fingerprint(matrix)},
                            {entry[0]: expected["matrices"][entry[0]]}))
                    elif not np.all(np.isfinite(matrix)):
                        m.fail([f"forecast: {entry[0]} sweep is not finite"])
                for k in chunk:
                    m.attempted += 1
                    t0 = perf_counter()
                    try:
                        origin, single = self._single(offset + int(k))
                    except Exception as exc:  # noqa: BLE001
                        m.fail([f"forecast: one-origin forecast raised {type(exc).__name__}: {exc}"])
                        continue
                    m.latencies_s.append(perf_counter() - t0)
                    if tsfm_matrix is not None:
                        m.problems_from(self._single_problems(origin, single, tsfm_matrix))
            rounds.append(perf_counter() - round_start)
        return m


def make(name: str, variant: int, size: str, workdir: str):
    if name == "pretrain":
        return Pretrain(variant, size, workdir)
    if name in ("scarce_grid", "rich_grid"):
        return Grid(name, variant, size, workdir)
    if name == "forecast":
        return Forecast(variant, size, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pretrain", "scarce_grid", "rich_grid", "forecast")
