"""Command line entry points for pretraining, experiments, comparison, and plots.

Exit codes: 0 on success, 2 when the experiment finished but some report
cells errored, 1 on fatal errors (bad arguments, unreadable files, broken
state).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .baselines import MODEL_ORDER
from .corpus import DEFAULT_SERIES_COUNT, DEFAULT_SERIES_LENGTH, FAMILIES, build_corpus
from .errors import ConfigError, LoadcastError
from .harness import (
    ALLOWED_HORIZONS,
    DEFAULT_VALIDATION_FRACTION,
    compare_models,
    load_spec,
    resolve_dataset,
    run_experiment,
    select_model,
)
from .metrics import METRICS
from .report import (
    emit_plot,
    emit_report,
    load_report,
    render_comparison,
    write_forecasts,
)
from .series import load_csv, read_json
from .transformer import TransformerConfig, TransformerForecaster


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the fatal code (1)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="loadcast", description="Scarce-history load forecasting toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", parents=[], help="pretrain the transformer on a synthetic corpus")
    p.add_argument("--corpus-seed", type=int, default=0, help="seed for drawing the corpus")
    p.add_argument("--out", required=True, help="path for the weight binary (sidecar JSON beside it)")
    p.add_argument("--series-count", type=int, default=DEFAULT_SERIES_COUNT)
    p.add_argument("--series-length", type=int, default=DEFAULT_SERIES_LENGTH)
    p.add_argument("--exclude-family", action="append", default=[], choices=list(FAMILIES),
                   metavar="FAMILY", help="drop a series family from the corpus (repeatable)")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--train-seed", type=int, default=0, help="seed for weight init and shuffling")

    p = sub.add_parser("run", help="run the experiment grid described by a spec file")
    p.add_argument("--spec", required=True, help="ExperimentSpec JSON file")
    p.add_argument("--data", default=None, help="series CSV overriding the spec's dataset")
    p.add_argument("--out", default="report", help="directory for the report artifacts")
    p.add_argument("--verbose", action="store_true", help="print per-run progress to stderr")

    p = sub.add_parser("compare", help="percent error reductions of one model vs. the rest")
    p.add_argument("--report", required=True, help="directory written by the run command")
    p.add_argument("--reference", default="tsfm", help="model id to compare against")

    p = sub.add_parser("select", help="pick a model on a validation tail of the history")
    p.add_argument("--data", required=True, help="series CSV with the full history")
    p.add_argument("--candidates", required=True,
                   help=f"comma-separated model ids from {','.join(MODEL_ORDER)}")
    p.add_argument("--criterion", default="rmse", choices=METRICS)
    p.add_argument("--validation-fraction", type=float, default=DEFAULT_VALIDATION_FRACTION)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--artifact", default=None, help="pretrained transformer, if tsfm is a candidate")
    p.add_argument("--zero-shot", action="store_true", help="skip fine-tuning the transformer")

    p = sub.add_parser("plot", help="render one stored forecast cell as an SVG")
    p.add_argument("--report", default="report", help="directory written by the run command")
    p.add_argument("--cell", required=True, help="model:case:horizon, e.g. tsfm:case1:24h")
    p.add_argument("--out", default="plot.svg", help="output SVG path")
    return parser


def _cmd_pretrain(args) -> int:
    corpus = build_corpus(
        spec_count=args.series_count,
        master_seed=args.corpus_seed,
        series_length=args.series_length,
        exclude_families=tuple(args.exclude_family),
    )
    model = TransformerForecaster(TransformerConfig(), init_seed=args.train_seed)
    print(f"pretraining on {len(corpus)} series for {args.epochs} epochs", file=sys.stderr)
    curve = model.pretrain(
        corpus,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=args.train_seed,
        batch_size=args.batch_size,
    )
    for i, loss in enumerate(curve, start=1):
        print(f"epoch {i}/{len(curve)}  loss {loss:.6f}", file=sys.stderr)
    model.save(args.out)
    print(f"wrote {args.out}")
    print(f"state hash {model.state_hash()}")
    return 0


def _cmd_run(args) -> int:
    spec = load_spec(args.spec)
    if args.data is not None:
        spec = dataclasses.replace(spec, dataset=args.data)
    series = resolve_dataset(spec)
    progress = None
    if args.verbose:
        def progress(model_id, case, run):
            print(f"  {model_id} {case} run {run + 1}/{spec.runs_per_model}", file=sys.stderr)
    trajectories: dict = {}
    report = run_experiment(spec, series=series, progress=progress, trajectory_sink=trajectories)
    paths = emit_report(report, args.out)
    if trajectories:
        paths.append(write_forecasts(trajectories, series, os.path.join(args.out, "forecasts.json")))
    for path in paths:
        print(f"wrote {path}")
    if report.errors:
        print(f"errored cells: {len(report.errors)}", file=sys.stderr)
        return 2
    return 0


def _cmd_compare(args) -> int:
    report = load_report(args.report)
    table = compare_models(report, args.reference)
    sys.stdout.write(render_comparison(table, args.reference))
    return 0


def _cmd_select(args) -> int:
    candidates = tuple(c.strip() for c in args.candidates.split(",") if c.strip())
    history = load_csv(args.data)
    verdict = select_model(
        history,
        candidates,
        criterion=args.criterion,
        validation_fraction=args.validation_fraction,
        seed=args.seed,
        pretrained_artifact=args.artifact,
        fine_tune=not args.zero_shot,
    )
    print(f"chosen: {verdict.chosen_model}")
    for model, triple in sorted(verdict.validation_scores.items()):
        marker = "*" if model == verdict.chosen_model else " "
        mape = "ERR" if triple.mape is None else f"{100.0 * triple.mape:.4f}%"
        print(f"{marker} {model:<5} rmse {triple.rmse:.6f}  mae {triple.mae:.6f}  mape {mape}")
    return 0


def _cmd_plot(args) -> int:
    pieces = args.cell.split(":")
    if len(pieces) != 3:
        raise ConfigError(f"cell must look like model:case:horizon, got {args.cell!r}")
    model, case, horizon_text = pieces
    horizon_text = horizon_text.rstrip("hH")
    try:
        horizon = int(horizon_text)
    except ValueError:
        raise ConfigError(f"bad horizon in cell: {args.cell!r}") from None
    if horizon not in ALLOWED_HORIZONS:
        raise ConfigError(f"horizon {horizon} not in {list(ALLOWED_HORIZONS)}")
    payload = read_json(os.path.join(args.report, "forecasts.json"))
    if case not in payload:
        raise ConfigError(f"case {case!r} not in the stored forecasts")
    block = payload[case]
    if model not in block["forecasts"]:
        raise ConfigError(f"model {model!r} has no stored forecast for {case}")
    forecast = block["forecasts"][model]
    actual = block["actual"]
    n = min(horizon, len(forecast), len(actual))
    if n < 1:
        raise ConfigError(f"no overlapping points to plot for {args.cell!r}")
    path = emit_plot(
        actual[:n], {model: forecast[:n]}, args.out,
        title=f"{model} on {case}, {horizon}h ahead",
    )
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "select": _cmd_select,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (LoadcastError, OSError) as exc:
        print(f"loadcast: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
