"""Experiment orchestration: case splits, rolling-origin evaluation, comparison, selection.

The evaluation protocol is rolling-origin with one-step advance. For every
(model, case, run) triple the model is fit once on the case's training slice,
then launches a single recursive forecast to the largest requested horizon
from every origin in the test slice. The h-step cells are scored on the
prefix of origins whose h-th step still lands inside the test slice, so all
horizons share one fit and one forecast sweep per run.

All metrics are computed on min-max normalized values, with the normalizer
fit on the training slice only. Fitting consumes nothing but the train
slice; the test slice enters only as observed context once the origin has
rolled past the train/test boundary.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .baselines import MODEL_ORDER, create_baseline
from .corpus import GeneratorSpec, generate_series
from .errors import ConfigError, DomainError, InsufficientDataError, require_integer
from .metrics import METRICS, CellKey, MetricReport, MetricTriple, aggregate_runs, percent_reduction
from .series import (
    CaseId,
    TimeSeries,
    fit_normalizer,
    hour_features,
    load_csv,
    make_windows,
    origin_windows,
    read_json,
    split_case,
)
from .transformer import TransformerForecaster

#: Forecast horizons (hours ahead) the harness knows how to score.
ALLOWED_HORIZONS = (1, 4, 6, 12, 24)

#: Lag-window length fed to the baseline models (one day of hourly values).
DEFAULT_WINDOW = 24

DEFAULT_RUNS = 30
DEFAULT_VALIDATION_FRACTION = 0.25

#: Origins a model's own `roll` sweeps at once: a 768-origin sweep runs as
#: three calls whose arrays are a third the size, small enough for the heap
#: to keep between sweeps instead of trimming them and faulting them back in.
#: A multiple of 8, so that the row groups BLAS GEMV sums (a dense layer's
#: one-column output) fall where they fall in one pass over every origin.
ROLL_ROWS = 256

_CASE_ORDER = tuple(CaseId)


def _check_model_ids(ids: tuple[str, ...]) -> None:
    """A spec's models or a selection's candidates: at least one, all known, none repeated."""
    if not ids:
        raise ConfigError("no model ids given")
    unknown = [m for m in ids if m not in MODEL_ORDER]
    if unknown:
        raise ConfigError(f"unknown model ids {unknown}; known: {list(MODEL_ORDER)}")
    if len(set(ids)) != len(ids):
        raise ConfigError(f"repeated model ids in {list(ids)}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one evaluation grid.

    dataset is either a CSV path, an inline synthetic-series recipe (a dict
    of GeneratorSpec fields), or None when the caller passes a series to
    run_experiment directly.
    """

    cases: tuple[str, ...]
    horizons_hours: tuple[int, ...]
    models: tuple[str, ...]
    dataset: str | dict | None = None
    runs_per_model: int = DEFAULT_RUNS
    master_seed: int = 0
    fine_tune: bool = True
    pretrained_artifact: str | None = None

    def __post_init__(self):
        for name in ("cases", "horizons_hours", "models"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
        if any(isinstance(h, bool) or not isinstance(h, numbers.Integral) for h in self.horizons_hours):
            raise ConfigError(f"horizons_hours must be integers, got {list(self.horizons_hours)!r}")
        object.__setattr__(
            self, "cases", tuple(CaseId.parse(str(c)).value for c in self.cases)
        )
        object.__setattr__(self, "horizons_hours", tuple(int(h) for h in self.horizons_hours))
        object.__setattr__(self, "models", tuple(str(m) for m in self.models))
        if not self.cases:
            raise ConfigError("spec needs at least one case")
        if len(set(self.cases)) != len(self.cases):
            raise ConfigError("duplicate cases in spec")
        if not self.horizons_hours:
            raise ConfigError("spec needs at least one horizon")
        bad = [h for h in self.horizons_hours if h not in ALLOWED_HORIZONS]
        if bad:
            raise ConfigError(f"unsupported horizons {bad}; allowed: {list(ALLOWED_HORIZONS)}")
        if len(set(self.horizons_hours)) != len(self.horizons_hours):
            raise ConfigError("duplicate horizons in spec")
        _check_model_ids(self.models)
        if self.dataset is not None and not isinstance(self.dataset, (str, dict)):
            raise ConfigError(f"dataset must be a CSV path or a recipe object, got {self.dataset!r}")
        if self.pretrained_artifact is not None and not isinstance(self.pretrained_artifact, str):
            raise ConfigError(f"pretrained_artifact must be a path string, got {self.pretrained_artifact!r}")
        if not isinstance(self.fine_tune, bool):
            raise ConfigError(f"fine_tune must be true or false, got {self.fine_tune!r}")
        for name in ("runs_per_model", "master_seed"):
            require_integer(name, getattr(self, name))
        if self.runs_per_model < 1:
            raise ConfigError(f"runs_per_model must be >= 1, got {self.runs_per_model}")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        stray = set(d) - {f.name for f in fields(cls)}
        if stray:
            raise ConfigError(f"unknown spec fields: {sorted(stray)}")
        for required in ("cases", "horizons_hours", "models"):
            if required not in d:
                raise ConfigError(f"spec is missing the {required!r} field")
        return cls(**d)


def load_spec(path) -> ExperimentSpec:
    """Read an ExperimentSpec from a JSON file."""
    return ExperimentSpec.from_dict(read_json(path))


def resolve_dataset(spec: ExperimentSpec) -> TimeSeries:
    """Materialize the spec's dataset: a CSV path or an inline synthetic recipe."""
    if isinstance(spec.dataset, str):
        return load_csv(spec.dataset)
    if isinstance(spec.dataset, dict):
        try:
            recipe = GeneratorSpec(**spec.dataset)
        except TypeError as exc:
            raise ConfigError(f"bad synthetic dataset recipe: {exc}") from None
        return generate_series(recipe)
    raise ConfigError("spec has no dataset; set one or pass a series to run_experiment")


def derive_run_seed(master_seed: int, model_id: str, case: str, run: int) -> int:
    """Deterministic per-(model, case, run) seed, independent of grid order.

    Spawned through a seed sequence so that neighboring runs do not get
    correlated generator streams.
    """
    entropy = [
        int(master_seed),
        MODEL_ORDER.index(model_id),
        _CASE_ORDER.index(CaseId(case)),
        int(run),
    ]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def fit_case_model(
    model_id: str,
    train: TimeSeries,
    seed: int,
    *,
    base_transformer: TransformerForecaster | None = None,
    fine_tune: bool = True,
    hyperparams: dict | None = None,
):
    """Fit one model on a training slice and nothing else.

    Baselines consume DEFAULT_WINDOW-lag supervised windows built from the
    normalized train values. The transformer is cloned from the pretrained
    base and either fine-tuned on the raw train slice or, for zero-shot use,
    handed a normalizer fit on that slice.
    """
    if model_id == "tsfm":
        if base_transformer is None:
            raise ConfigError("transformer runs need a pretrained artifact")
        model = base_transformer.clone()
        if fine_tune:
            model.fine_tune(train, seed=seed)
        else:
            model.set_normalizer(fit_normalizer(train))
        return model
    normalizer = fit_normalizer(train)
    normalized = train.with_values(normalizer.apply(train.values))
    windows = make_windows(normalized, window=DEFAULT_WINDOW)
    return create_baseline(model_id, hyperparams).fit(windows, seed=seed)


def roll_forecasts(model, series: TimeSeries, train_len: int, h_max: int, normalizer) -> np.ndarray:
    """Normalized forecast matrix over every rolling origin in the test slice.

    Row o holds the h_max-step trajectory launched from the origin whose
    context ends just before absolute index train_len + o. A model with its
    own `roll(series, train_len, h_max, normalizer)` computes that matrix
    itself (the transformer decodes the origins as one batch, the LSTM
    resumes shared prefix states), in blocks of at most ROLL_ROWS origins,
    each a `roll` over the series cut after its last origin; the blocks are
    bitwise one pass. Any other model advances recursively from
    DEFAULT_WINDOW normalized lags, all origins at once (its arrays are
    only (test_len, DEFAULT_WINDOW + 2)): each prediction becomes the newest
    lag for the next step, with the target hour's cyclic features refreshed
    per step. Returns shape (test_len, h_max).
    """
    if h_max < 1:
        raise ConfigError(f"h_max must be >= 1, got {h_max}")
    roll = getattr(model, "roll", None)
    if roll is not None:
        origins = len(series) - train_len
        # A one-origin tail joins the block before it: numpy sends a one-row
        # product to GEMV or dot, which sums in another order than GEMM.
        edges = [0, *range(ROLL_ROWS, origins - 1, ROLL_ROWS), origins]
        return np.concatenate([roll(series.slice(0, train_len + hi), train_len + lo, h_max, normalizer)
                               for lo, hi in zip(edges, edges[1:])])
    lags = np.array(origin_windows(normalizer.apply(series.values), train_len, DEFAULT_WINDOW))
    target_index = train_len + np.arange(len(lags))
    preds = np.empty((len(lags), h_max))
    for step in range(1, h_max + 1):
        sin_h, cos_h = hour_features(series.hour_of_day(target_index + step - 1))
        p = np.asarray(model.predict(np.column_stack([lags, sin_h, cos_h])), dtype=np.float64)
        preds[:, step - 1] = p
        lags = np.column_stack([lags[:, 1:], p])
    return preds


def score_horizon(preds: np.ndarray, norm_test: np.ndarray, step: int):
    """Actual/forecast pair for one horizon.

    The h-step forecast from origin o targets test index o + h - 1, so only
    the first test_len - h + 1 origins stay inside the test slice.
    """
    n = int(norm_test.size)
    if step > n:
        raise InsufficientDataError(f"test slice of {n} points cannot score a {step}-step horizon")
    return norm_test[step - 1 :], preds[: n - step + 1, step - 1]


def _score(preds: np.ndarray, norm_test: np.ndarray, step: int) -> MetricTriple:
    return MetricTriple.from_arrays(*score_horizon(preds, norm_test, step))


def _load_base(models, artifact: str | None) -> TransformerForecaster | None:
    """The pretrained transformer when `models` include it, else None."""
    if "tsfm" not in models:
        return None
    if not artifact:
        raise ConfigError("the transformer needs a pretrained_artifact")
    return TransformerForecaster.load(artifact)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_experiment(
    spec: ExperimentSpec,
    series: TimeSeries | None = None,
    progress=None,
    trajectory_sink: dict | None = None,
) -> MetricReport:
    """Evaluate every (model, case, horizon) cell of the spec.

    Failures are captured per cell (a cell whose fit, forecast, or scoring
    raises in any run is marked errored); surviving cells are averaged over
    runs_per_model seeds derived from master_seed. When trajectory_sink is a
    dict, the first run's first-origin trajectory for each (model, case) is
    stored into it, denormalized, for later plotting.
    """
    if series is None:
        series = resolve_dataset(spec)
    base = _load_base(spec.models, spec.pretrained_artifact)
    h_max = max(spec.horizons_hours)
    report = MetricReport(run_count=spec.runs_per_model)
    for case_value in spec.cases:
        try:
            split = split_case(series, case_value)
            normalizer = fit_normalizer(split.train)
            norm_test = normalizer.apply(split.test.values)
        except Exception as exc:
            for model_id in spec.models:
                for h in spec.horizons_hours:
                    report.errors[(model_id, case_value, h)] = _describe(exc)
            continue
        train_len = len(split.train)
        for model_id in spec.models:
            # Per horizon: the triples of the runs so far, until its first error.
            triples: dict[int, list[MetricTriple]] = {h: [] for h in spec.horizons_hours}
            errors: dict[int, str] = {}
            for run in range(spec.runs_per_model):
                seed = derive_run_seed(spec.master_seed, model_id, case_value, run)
                try:
                    model = fit_case_model(
                        model_id, split.train, seed,
                        base_transformer=base, fine_tune=spec.fine_tune,
                    )
                    preds = roll_forecasts(model, series, train_len, h_max, normalizer)
                except Exception as exc:
                    for h in triples:
                        errors.setdefault(h, _describe(exc))
                    break
                if run == 0 and trajectory_sink is not None:
                    trajectory_sink[(model_id, case_value)] = normalizer.invert(preds[0])
                for h, cell in triples.items():
                    if h in errors:
                        continue
                    try:
                        cell.append(_score(preds, norm_test, h))
                    except Exception as exc:
                        errors[h] = _describe(exc)
                if progress is not None:
                    progress(model_id, case_value, run)
            # Run 0 always ends with a triple or an error, so no list is empty.
            for h, cell in triples.items():
                key: CellKey = (model_id, case_value, h)
                if h in errors:
                    report.errors[key] = errors[h]
                else:
                    report.entries[key] = aggregate_runs(cell)
    return report


def compare_models(report: MetricReport, reference: str) -> dict[CellKey, dict[str, float | None]]:
    """Percent error reduction of the reference model against every peer, per cell.

    Positive entries mean the reference has the smaller error. Cells where
    either side is missing, errored, lacks the metric (a MAPE over a zero
    actual) or has a zero peer error are None (absent, never zero).
    """
    if reference not in report.models():
        raise ConfigError(f"reference {reference!r} is not in the report")
    table: dict[CellKey, dict[str, float | None]] = {}
    for (model, case, horizon), peer in sorted(report.entries.items()):
        ref = report.get(reference, case, horizon)
        row: dict[str, float | None] = {}
        for name in METRICS:
            values = (None, None) if ref is None else (getattr(ref, name), getattr(peer, name))
            try:
                row[name] = None if None in values else percent_reduction(*values)
            except DomainError:
                row[name] = None
        table[(model, case, horizon)] = row
    for key in sorted(report.errors):
        table.setdefault(key, {name: None for name in METRICS})
    return table


@dataclass(frozen=True)
class SelectionVerdict:
    """Outcome of the validation-tail model selection protocol."""

    chosen_model: str
    validation_scores: dict[str, MetricTriple] = field(compare=False)
    criterion: str = "rmse"


def select_model(
    history: TimeSeries,
    candidates,
    criterion: str = "rmse",
    validation_fraction: float = DEFAULT_VALIDATION_FRACTION,
    seed: int = 0,
    *,
    pretrained_artifact: str | None = None,
    fine_tune: bool = True,
) -> SelectionVerdict:
    """Pick the candidate with the smallest one-step error on a validation tail.

    The chronological last validation_fraction of the history is held out;
    every candidate fits on the head (seeded identically) and forecasts each
    tail point one step ahead. The minimum of the chosen criterion wins, with
    ties broken toward the earlier id in MODEL_ORDER. A zero actual in the
    tail leaves every candidate's MAPE None, which ties as well.
    """
    candidates = tuple(candidates)
    _check_model_ids(candidates)
    if criterion not in METRICS:
        raise ConfigError(f"criterion must be one of {METRICS}, got {criterion!r}")
    if not 0.0 < validation_fraction < 0.5:
        raise ConfigError("validation_fraction must lie in (0, 0.5)")
    n = len(history)
    val_count = int(round(validation_fraction * n))
    if val_count < 1:
        raise InsufficientDataError("history too short for a non-empty validation tail")
    train_len = n - val_count
    if train_len < DEFAULT_WINDOW + 1:
        raise InsufficientDataError(
            f"history head of {train_len} points cannot fill a {DEFAULT_WINDOW}-lag window"
        )
    base = _load_base(candidates, pretrained_artifact)
    head = history.slice(0, train_len)
    normalizer = fit_normalizer(head)
    norm_tail = normalizer.apply(history.values[train_len:])
    scores: dict[str, MetricTriple] = {}
    for model_id in candidates:
        model = fit_case_model(model_id, head, seed, base_transformer=base, fine_tune=fine_tune)
        preds = roll_forecasts(model, history, train_len, 1, normalizer)
        scores[model_id] = _score(preds, norm_tail, 1)
    chosen = min(
        scores, key=lambda m: (getattr(scores[m], criterion), MODEL_ORDER.index(m))
    )
    return SelectionVerdict(chosen_model=chosen, validation_scores=scores, criterion=criterion)
