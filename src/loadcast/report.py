"""Deterministic report artifacts: JSON, per-case CSVs, text tables, and SVG plots.

Every emitter here is a pure function of its inputs, so re-running with the
same report produces byte-identical files. MAPE values are stored as
fractions and converted to percent at this rendering layer only.
"""

from __future__ import annotations

import html
import os

import numpy as np

from .baselines import MODEL_ORDER
from .errors import DataError, ShapeError
from .metrics import METRICS, MetricReport
from .series import TimeSeries, read_json, split_case, write_json

#: Stroke colors assigned to forecast lines, cycled in sorted-model order.
PLOT_PALETTE = (
    "#d62728", "#1f77b4", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#e377c2",
)

_CELL_WIDTH = 11


def _model_rank(model: str) -> tuple[int, str]:
    """Sort key: the fixed model-id order first, then unknown ids by name."""
    return (MODEL_ORDER.index(model) if model in MODEL_ORDER else len(MODEL_ORDER), model)


def _cell_texts(report: MetricReport, model: str, case: str, horizon: int, absent: str) -> list[str]:
    """One cell's RMSE, MAE and MAPE% texts: ERR for an errored cell or a
    missing MAPE, `absent` three times for a cell the report does not hold."""
    triple = report.get(model, case, horizon)
    if triple is None:
        return ["ERR" if (model, case, horizon) in report.errors else absent] * 3
    values = (triple.rmse, triple.mae, None if triple.mape is None else 100.0 * triple.mape)
    return ["ERR" if v is None else f"{v:.6f}" for v in values]


def render_case_csv(report: MetricReport, case: str) -> str:
    """One case as CSV: model rows, horizon-grouped metric columns.

    Errored cells and a missing MAPE render as ERR, absent cells as empty
    fields, and MAPE as percent (column names carry the _pct marker).
    """
    horizons = report.horizons()
    header = ["model"]
    for h in horizons:
        header.extend([f"rmse_{h}h", f"mae_{h}h", f"mape_pct_{h}h"])
    lines = [",".join(header)]
    for model in sorted(report.models(), key=_model_rank):
        row = [model]
        for h in horizons:
            row.extend(_cell_texts(report, model, case, h, ""))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def render_text_table(report: MetricReport) -> str:
    """All cases as fixed-width text tables grouped by horizon.

    Each horizon contributes an RMSE/MAE/MAPE% column triple; the footer
    counts errored cells across the whole report.
    """
    if not report.entries and not report.errors:
        raise DataError("cannot render an empty report")
    horizons = report.horizons()
    models = sorted(report.models(), key=_model_rank)
    name_width = max([len("model")] + [len(m) for m in models])
    group_width = 3 * _CELL_WIDTH + 2
    blocks: list[str] = []
    for case in report.cases():
        lines = [f"Case {case} (metrics averaged over {report.run_count} runs)", ""]
        head1 = " " * name_width
        head2 = "model".ljust(name_width)
        for h in horizons:
            head1 += " | " + f"{h}h ahead".ljust(group_width)
            head2 += " | " + " ".join(
                label.ljust(_CELL_WIDTH) for label in ("RMSE", "MAE", "MAPE%")
            )
        lines.append(head1.rstrip())
        lines.append(head2.rstrip())
        lines.append("-" * len(head2))
        for model in models:
            row = model.ljust(name_width)
            for h in horizons:
                cells = _cell_texts(report, model, case, h, "-")
                row += " | " + " ".join(c.ljust(_CELL_WIDTH) for c in cells)
            lines.append(row.rstrip())
        blocks.append("\n".join(lines))
    footer = f"errored cells: {len(report.errors)}"
    return "\n\n".join(blocks) + "\n\n" + footer + "\n"


def render_comparison(table: dict, reference: str) -> str:
    """Percent-reduction table from compare_models as fixed-width text."""
    lines = [
        f"error reduction of {reference} vs. each model (positive = {reference} better)",
        "",
        "model".ljust(8) + "case".ljust(8) + "horizon".ljust(9)
        + "".join(f"{m}_red%".ljust(12) for m in METRICS),
    ]
    # Keys are (model, case, horizon): group by case and horizon, then rank models.
    for model, case, horizon in sorted(table, key=lambda k: (k[1], k[2], _model_rank(k[0]))):
        row = table[(model, case, horizon)]
        cells = "".join(
            ("-" if row[m] is None else f"{row[m]:+.2f}").ljust(12) for m in METRICS
        )
        lines.append(model.ljust(8) + case.ljust(8) + f"{horizon}h".ljust(9) + cells)
    return "\n".join(line.rstrip() for line in lines) + "\n"


def emit_report(report: MetricReport, out_dir) -> list[str]:
    """Write report.json, one metrics_<case>.csv per case, and tables.txt.

    Returns the paths written, in a fixed order. Output bytes depend only on
    the report contents.
    """
    if not report.entries and not report.errors:
        raise DataError("cannot emit an empty report")
    os.makedirs(out_dir, exist_ok=True)
    paths: list[str] = []

    json_path = os.path.join(out_dir, "report.json")
    write_json(json_path, report.to_dict())
    paths.append(json_path)

    for case in report.cases():
        csv_path = os.path.join(out_dir, f"metrics_{case}.csv")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(render_case_csv(report, case))
        paths.append(csv_path)

    text_path = os.path.join(out_dir, "tables.txt")
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(render_text_table(report))
    paths.append(text_path)
    return paths


def load_report(report_dir) -> MetricReport:
    """Read back the report.json written by emit_report."""
    path = os.path.join(report_dir, "report.json")
    if not os.path.exists(path):
        raise DataError(f"no report.json under {report_dir!r}")
    return MetricReport.from_dict(read_json(path))


def write_forecasts(trajectories: dict, series: TimeSeries, out_path) -> str:
    """Persist first-origin forecast trajectories next to the actual values.

    trajectories maps (model_id, case) to a denormalized forecast vector
    launched from the first test origin of that case. Each case block also
    stores the matching stretch of observed values so plots can overlay them.
    """
    if not trajectories:
        raise DataError("no trajectories to write")
    payload: dict[str, dict] = {}
    for (model, case), forecast in sorted(trajectories.items()):
        forecast = np.asarray(forecast, dtype=np.float64)
        block = payload.setdefault(case, {"actual": None, "forecasts": {}})
        block["forecasts"][model] = [float(v) for v in forecast]
        split = split_case(series, case)
        observed = split.test.values[: forecast.size]
        block["actual"] = [float(v) for v in observed]
        block["start_timestamp"] = split.test.start.isoformat()
    write_json(out_path, payload)
    return str(out_path)


def emit_plot(actual, forecasts: dict, out_path, title: str | None = None) -> str:
    """Line plot of the actual values and each model's forecast, as SVG.

    All vectors must share one length. The file contents are a pure function
    of the inputs, so identical calls produce byte-identical SVGs.
    """
    values = actual.values if isinstance(actual, TimeSeries) else np.asarray(actual, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ShapeError("actual must be a non-empty vector")
    series = {"actual": values}
    for model in sorted(forecasts):
        vec = np.asarray(forecasts[model], dtype=np.float64)
        if vec.shape != values.shape:
            raise ShapeError(
                f"forecast {model!r} has shape {vec.shape}, actual has {values.shape}"
            )
        series[model] = vec

    width, height = 840.0, 420.0
    left, right, top, bottom = 60.0, 680.0, 30.0, 380.0
    n = values.size
    stacked = np.concatenate(list(series.values()))
    lo, hi = float(np.min(stacked)), float(np.max(stacked))
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    lo, hi = lo - pad, hi + pad

    def x_at(i: int) -> float:
        return left if n == 1 else left + (right - left) * i / (n - 1)

    def y_at(v: float) -> float:
        return bottom - (bottom - top) * (v - lo) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{left:.1f}" y="18" font-family="monospace" font-size="13">'
            f'{html.escape(title, quote=False)}</text>'
        )
    parts.append(
        f'<line x1="{left:.1f}" y1="{bottom:.1f}" x2="{right:.1f}" y2="{bottom:.1f}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{bottom:.1f}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * (hi - lo)
        y = y_at(v)
        parts.append(
            f'<text x="{left - 6:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{v:.4g}</text>'
        )
    parts.append(
        f'<text x="{left:.1f}" y="{bottom + 16:.1f}" font-family="monospace" font-size="11">0</text>'
    )
    parts.append(
        f'<text x="{right:.1f}" y="{bottom + 16:.1f}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{n - 1}</text>'
    )

    color_of = {"actual": "#000000"}
    for idx, model in enumerate(sorted(forecasts)):
        color_of[model] = PLOT_PALETTE[idx % len(PLOT_PALETTE)]
    legend_y = top + 10.0
    for name, vec in series.items():
        points = " ".join(f"{x_at(i):.2f},{y_at(float(v)):.2f}" for i, v in enumerate(vec))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color_of[name]}" '
            'stroke-width="1.5"/>'
        )
        parts.append(
            f'<line x1="{right + 14:.1f}" y1="{legend_y:.1f}" x2="{right + 38:.1f}" '
            f'y2="{legend_y:.1f}" stroke="{color_of[name]}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{right + 44:.1f}" y="{legend_y + 4:.1f}" font-family="monospace" '
            f'font-size="12">{html.escape(name, quote=False)}</text>'
        )
        legend_y += 18.0
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return str(out_path)
