"""Batch command-line driver: fetch, forecast, risktree, eval."""

from __future__ import annotations

import argparse
import csv
import json
import math
import shutil
import sys
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from . import arima, datasets, hybrid, metrics, svgplot, tree, wavelet
from .series import load_series_csv


@dataclass
class RunConfig:
    horizon: int = 10
    minsplit: int | None = None
    folds: int = 10
    seed: int = 0
    out: str | None = None  # unset: "out", except that eval then writes nothing


_CONFIG_TYPES = {f.name: f.type for f in fields(RunConfig)}


def load_config_file(path, command: str | None = None, flags=frozenset(_CONFIG_TYPES)) -> dict:
    """Flat key=value text; '#' starts a comment. Unknown keys are rejected,
    and so are keys naming an option `command` has no flag for."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            key = key.strip().replace("-", "_")
            text = text.strip()
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            if key not in flags:
                raise ValueError(f"{path}:{lineno}: option {key!r} does not apply to {command}")
            if key in ("horizon", "minsplit", "folds", "seed"):
                values[key] = int(text)
            else:
                values[key] = text
    return values


def build_config(args) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        # the command's parser defines exactly the options it reads
        flags = {key for key in _CONFIG_TYPES if hasattr(args, key)}
        for key, value in load_config_file(args.config, args.command, flags).items():
            setattr(config, key, value)
    for field in _CONFIG_TYPES:
        value = getattr(args, field, None)
        if value is not None:
            setattr(config, field, value)
    return config


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out if config.out is not None else "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_fetch(args) -> int:
    config = build_config(args)
    names = datasets.available() + [datasets.CFR_TABLE]
    wanted = names if args.source == "all" else [args.source]
    for name in wanted:
        if name not in names:
            print(
                f"fetch: unknown dataset {name!r}; available: {', '.join(names)}",
                file=sys.stderr,
            )
            return 1
    out = _out_dir(config)
    for name in wanted:
        with resources.as_file(datasets.bundled_path(name)) as src:
            dest = out / f"{name}.csv"
            shutil.copyfile(src, dest)
            print(dest)
    return 0


def cmd_forecast(args) -> int:
    config = build_config(args)
    out = _out_dir(config)
    path = Path(args.input)
    stem = path.stem
    s = load_series_csv(path)

    fit = hybrid.fit_hybrid(s)
    parts = hybrid.forecast_components(fit, config.horizon)

    # standalone wavelet-domain model on the counts, for the comparison table
    wbf_direct = wavelet.wbf_fit(s.values)
    wbf_direct_fc = np.maximum(wavelet.wbf_forecast(wbf_direct, config.horizon), 0.0)
    wbf_direct_fitted = wbf_direct.fitted_values()

    horizon_dates = [s.dates[-1] + (i + 1) * (s.dates[-1] - s.dates[-2]) for i in range(config.horizon)]

    forecast_csv = out / f"{stem}_forecast.csv"
    with open(forecast_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "arima", "wbf_residual", "hybrid"])
        for day, a, w, h in zip(horizon_dates, parts.base, parts.residual, parts.final):
            writer.writerow([day.isoformat(), repr(float(a)), repr(float(w)), repr(float(h))])

    comparison_csv = out / f"{stem}_models.csv"
    with open(comparison_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "arima", "wbf", "hybrid"])
        for day, a, w, h in zip(horizon_dates, parts.base, wbf_direct_fc, parts.final):
            writer.writerow([day.isoformat(), repr(float(a)), repr(float(w)), repr(float(h))])

    train = {
        "arima": metrics.report(s.values, fit.base_fitted).to_dict(),
        "wbf": metrics.report(s.values, np.maximum(wbf_direct_fitted, 0.0)).to_dict(),
        "hybrid": metrics.report(s.values, fit.fitted_values).to_dict(),
    }
    fit_json = out / f"{stem}_fit.json"
    _write_json(
        fit_json,
        {
            "series": stem,
            "n_obs": s.n,
            "horizon": config.horizon,
            "model": fit.to_dict(),
            "training_metrics": train,
        },
    )

    labels = [d.isoformat() for d in s.dates] + [d.isoformat() for d in horizon_dates]
    nan_head = [float("nan")] * s.n
    plot = svgplot.line_chart(
        [
            ("actual", list(s.values) + [float("nan")] * config.horizon),
            ("hybrid fit", list(fit.fitted_values) + list(parts.final)),
            ("arima", nan_head + list(parts.base)),
            ("wbf", nan_head + list(wbf_direct_fc)),
        ],
        title=f"{stem}: training fit and {config.horizon}-step forecast",
        x_labels=labels,
        vline_at=s.n - 1,
    )
    plot_svg = out / f"{stem}_plot.svg"
    plot_svg.write_text(plot)

    for artifact in (forecast_csv, comparison_csv, fit_json, plot_svg):
        print(artifact)
    return 0


def cmd_risktree(args) -> int:
    config = build_config(args)
    out = _out_dir(config)
    table = datasets.load_cfr_csv(args.input)
    minsplit = config.minsplit if config.minsplit is not None else tree.default_minsplit(table.n)
    cv = tree.cross_validate(
        table,
        minsplit=minsplit,
        minbucket=max(1, minsplit // 3),
        folds=config.folds,
        seed=config.seed,
    )
    fitted = cv.tree
    preds = fitted.predict(table.x)
    k = len(fitted.used_variables())
    report = metrics.report(table.y, preds, k=k)

    tree_json = out / "risktree.json"
    payload = fitted.to_dict()
    payload["cv"] = {
        "alpha": cv.alpha,
        "folds": cv.folds,
        "seed": cv.seed,
        "table": [
            {"alpha": a, "n_leaves": nl, "cv_error": err, "cv_se": se}
            for a, nl, err, se in cv.table
        ],
    }
    payload["metrics"] = report.to_dict()
    if report.r2 is None:
        payload["metrics"]["note"] = "r2 undefined: constant response"
    _write_json(tree_json, payload)

    tree_svg = out / "risktree.svg"
    tree_svg.write_text(svgplot.tree_diagram(fitted))

    importance_csv = out / "importance.csv"
    importance = tree.variable_importance(fitted)
    with open(importance_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "importance_pct"])
        for name, value in importance.items():
            writer.writerow([name, repr(round(float(value), 6))])

    report_json = out / "risktree_report.json"
    _write_json(report_json, {"metrics": payload["metrics"], "n_leaves": fitted.n_leaves(),
                              "variables_used": sorted(table.names[v] for v in fitted.used_variables())})

    for artifact in (tree_json, tree_svg, importance_csv, report_json):
        print(artifact)
    return 0


def cmd_eval(args) -> int:
    config = build_config(args)
    actual = _read_dated_column(args.actual, value_field="cases")
    predicted = _read_dated_column(args.forecast, value_field=args.column)
    shared = sorted(set(actual) & set(predicted))
    if not shared:
        print("eval: no overlapping dates between the two files", file=sys.stderr)
        return 1
    a = np.array([actual[d] for d in shared])
    p = np.array([predicted[d] for d in shared])
    report = metrics.report(a, p)
    payload = {"n_dates": len(shared), "first": shared[0], "last": shared[-1],
               "metrics": report.to_dict()}
    print(json.dumps(payload, indent=2, sort_keys=True))
    if config.out is not None:
        _write_json(_out_dir(config) / "eval.json", payload)
    return 0


def _read_dated_column(path, value_field: str) -> dict:
    """date -> finite value of one column; a bad cell or a repeated date is
    rejected with its file and line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "date" not in reader.fieldnames:
            raise ValueError(f"{path}: expected a 'date' column")
        if value_field not in reader.fieldnames:
            raise ValueError(f"{path}: expected a {value_field!r} column")
        out = {}
        for record in reader:
            where = f"{path}:{reader.line_num}"
            text = record[value_field]
            try:
                value = float(text)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: bad {value_field} value {text!r}") from exc
            if not math.isfinite(value):
                raise ValueError(f"{where}: non-finite {value_field} value {text!r}")
            if record["date"] in out:
                raise ValueError(f"{where}: duplicate date {record['date']!r}")
            out[record["date"]] = value
    return out


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    parser.add_argument("--out", help="output directory (default: out; eval writes "
                        "eval.json only when given here or in --config)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epiforecast",
        description="Case-count forecasting and risk-tree toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fetch = sub.add_parser("fetch", help="write a bundled dataset as CSV")
    p_fetch.add_argument("source", help="bundled name or 'all'")
    _add_common(p_fetch)
    p_fetch.set_defaults(func=cmd_fetch)

    p_fc = sub.add_parser("forecast", help="fit the hybrid model and forecast")
    p_fc.add_argument("input", help="series CSV with date,cases columns")
    p_fc.add_argument("--horizon", type=int, help="forecast steps (default 10)")
    p_fc.add_argument("--seed", type=int, help="no effect: the forecast draws nothing at random")
    _add_common(p_fc)
    p_fc.set_defaults(func=cmd_forecast)

    p_rt = sub.add_parser("risktree", help="build the cross-validated risk tree")
    p_rt.add_argument("input", help="risk-factor CSV")
    p_rt.add_argument("--minsplit", type=int, help="minimum rows to attempt a split")
    p_rt.add_argument("--folds", type=int, help="cross-validation folds (default 10)")
    p_rt.add_argument("--seed", type=int, help="seed for the cross-validation fold assignment")
    _add_common(p_rt)
    p_rt.set_defaults(func=cmd_risktree)

    p_ev = sub.add_parser("eval", help="score a forecast CSV against actuals")
    p_ev.add_argument("actual", help="actual series CSV (date,cases)")
    p_ev.add_argument("forecast", help="forecast CSV (date,... columns)")
    p_ev.add_argument("--column", default="hybrid", help="forecast column to score")
    _add_common(p_ev)
    p_ev.set_defaults(func=cmd_eval)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, arima.ConvergenceError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
