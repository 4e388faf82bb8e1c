"""Batch command-line driver: fetch, forecast, risktree, eval."""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

# Each command imports the modules it runs, so that risktree, eval and fetch
# never load the forecaster. The series loader stays a name of this module,
# which bench/tracing.py patches.
from .series import load_series_csv, read_csv, read_text


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be positive, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must not be negative, got {value}")
    return value


def directory(text: str) -> str:
    if not text:
        raise ValueError("must not be empty")
    return text


# every config key, with the type its flag has
_CONFIG_KEYS = {"horizon": positive_int, "minsplit": int, "folds": int,
                "seed": non_negative_int, "out": directory}


def load_config_file(path, command: str, flags) -> dict:
    """Flat key=value text, read by `read_text`; '#' starts a comment.
    Unknown or repeated keys, and keys `command` has no flag for, are rejected."""
    values = {}
    for lineno, raw in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        text = text.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
        if key not in flags:
            raise ValueError(f"{path}:{lineno}: option {key!r} does not apply to {command}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate option {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad {key} value {text!r}") from exc
    return values


def _csv_text(rows) -> str:
    """The rows, header first, as csv.writer writes them (CRLF line ends)."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    """The payload as indented JSON with sorted keys. JSON has no NaN or
    Infinity, so a payload holding one is refused here, for every file."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("a value is not finite, and JSON has no NaN or Infinity") from None


def _publish(args, files: dict) -> list[Path]:
    """Create the output directory, write each {name: text} file into it,
    both encoded as UTF-8 under any locale, and return their paths in order.
    Commands render all files first, so a failure anywhere leaves nothing behind."""
    out = Path(args.out if args.out is not None else "out")
    data = {out / os.fsdecode(name.encode("utf-8", "surrogateescape")):
            text.encode("utf-8", "surrogateescape") for name, text in files.items()}
    out.mkdir(parents=True, exist_ok=True)
    for path, raw in data.items():
        path.write_bytes(raw)
    return list(data)


def cmd_fetch(args) -> None:
    from . import datasets

    names = [*datasets.BUNDLED_SERIES, datasets.CFR_TABLE]
    if args.source not in ("all", *names):
        raise ValueError(f"unknown dataset {args.source!r}; available: {', '.join(names)}")
    wanted = names if args.source == "all" else [args.source]
    print(*_publish(args, {f"{name}.csv": datasets.bundled_path(name).read_text()
                           for name in wanted}), sep="\n")


def cmd_forecast(args) -> None:
    from . import arima, hybrid, metrics, svgplot, wavelet

    path = Path(args.input)
    stem = os.fsencode(path.stem).decode("utf-8", "surrogateescape")  # UTF-8, as _publish writes
    s = load_series_csv(path)
    if args.horizon > (dt.date.max - s.dates[-1]).days:
        raise ValueError(f"{path}: --horizon {args.horizon} runs past {dt.date.max}")

    try:
        fit = hybrid.fit_hybrid(s)
        parts = hybrid.forecast_components(fit, args.horizon)
        # standalone wavelet-domain model on the counts, for the comparison table
        wbf_direct = wavelet.wbf_fit(s.values)
    except (ValueError, arima.ConvergenceError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    wbf_direct_fc = np.maximum(wavelet.wbf_forecast(wbf_direct, args.horizon), 0.0)

    horizon_dates = [s.dates[-1] + dt.timedelta(days=i + 1) for i in range(args.horizon)]

    def dated_rows(*columns):
        return ([day.isoformat(), *(repr(float(v)) for v in values)]
                for day, *values in zip(horizon_dates, *columns))

    train = {
        "arima": metrics.report(s.values, fit.base_fitted),
        "wbf": metrics.report(s.values, np.maximum(wbf_direct.fitted_values(), 0.0)),
        "hybrid": metrics.report(s.values, fit.fitted_values),
    }
    nan_head = [float("nan")] * s.n
    plot = svgplot.line_chart(
        [
            ("actual", list(s.values) + [float("nan")] * args.horizon),
            ("hybrid fit", list(fit.fitted_values) + list(parts.final)),
            ("arima", nan_head + list(parts.base)),
            ("wbf", nan_head + list(wbf_direct_fc)),
        ],
        title=f"{stem}: training fit and {args.horizon}-step forecast",
        x_labels=[d.isoformat() for d in (*s.dates, *horizon_dates)],
        vline_at=s.n - 1,
    )
    print(*_publish(args, {
        f"{stem}_forecast.csv": _csv_text([["date", "arima", "wbf_residual", "hybrid"],
                                           *dated_rows(parts.base, parts.residual, parts.final)]),
        f"{stem}_models.csv": _csv_text([["date", "arima", "wbf", "hybrid"],
                                         *dated_rows(parts.base, wbf_direct_fc, parts.final)]),
        f"{stem}_fit.json": _json_text({"series": stem, "n_obs": s.n, "horizon": args.horizon,
                                        "model": fit.to_dict(), "training_metrics": train}),
        f"{stem}_plot.svg": plot,
    }), sep="\n")


def cmd_risktree(args) -> None:
    from . import datasets, metrics, svgplot, tree

    table = datasets.load_cfr_csv(args.input)
    if args.folds > table.n:
        raise ValueError(f"{args.input}: --folds {args.folds} needs at least {args.folds} rows, got {table.n}")
    cv = tree.cross_validate(table, minsplit=args.minsplit, folds=args.folds, seed=args.seed)
    fitted = cv.tree
    preds = fitted.predict(table.x)
    k = len(fitted.used_variables())
    payload = fitted.to_dict()
    payload["cv"] = {
        "alpha": fitted.alpha,
        "folds": args.folds,
        "seed": args.seed,
        "table": [
            {"alpha": a, "n_leaves": nl, "cv_error": err, "cv_se": se}
            for a, nl, err, se in cv.table
        ],
    }
    payload["metrics"] = metrics.report(table.y, preds, k=k)
    if payload["metrics"]["r2"] is None:
        payload["metrics"]["note"] = "r2 undefined: constant response"
    importance = tree.variable_importance(fitted)
    print(*_publish(args, {
        "risktree.json": _json_text(payload),
        "risktree.svg": svgplot.tree_diagram(fitted),
        "importance.csv": _csv_text([["variable", "importance_pct"],
                                     *([name, repr(round(float(value), 6))]
                                       for name, value in importance.items())]),
        "risktree_report.json": _json_text({
            "metrics": payload["metrics"], "n_leaves": fitted.n_leaves(),
            "variables_used": sorted(table.names[v] for v in fitted.used_variables())}),
    }), sep="\n")


def cmd_eval(args) -> None:
    from . import metrics

    if args.column.strip().lower() == "date":
        raise ValueError("--column date: the date column holds no values to score")
    if not args.column.strip():
        raise ValueError(f"--column {args.column!r}: names no column")
    actual = _read_dated_column(args.actual, value_field="cases")
    predicted = _read_dated_column(args.forecast, value_field=args.column)
    shared = sorted(set(actual) & set(predicted))
    if not shared:
        raise ValueError("no overlapping dates between the two files")
    a = np.array([actual[d] for d in shared])
    p = np.array([predicted[d] for d in shared])
    try:
        text = _json_text({"n_dates": len(shared), "first": shared[0].isoformat(),
                           "last": shared[-1].isoformat(), "metrics": metrics.report(a, p)})
    except ValueError as exc:
        raise ValueError(f"{args.forecast}: {exc}") from None
    print(text, end="")
    if args.out is not None:
        _publish(args, {"eval.json": text})


def _read_dated_column(path, value_field: str) -> dict:
    """date -> value of one column, read by `read_csv`; a repeated date is
    rejected with its file and line."""
    out = {}
    for lineno, (day, value) in read_csv(path, ("date", value_field)):
        if day in out:
            raise ValueError(f"{path}:{lineno}: duplicate date '{day}'")
        out[day] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epiforecast",
        description="Case-count forecasting and risk-tree toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fetch = sub.add_parser("fetch", help="write a bundled dataset as CSV")
    p_fetch.add_argument("source", help="bundled name or 'all'")
    p_fetch.set_defaults(func=cmd_fetch)

    p_fc = sub.add_parser("forecast", help="fit the hybrid model and forecast")
    p_fc.add_argument("input", help="series CSV with date,cases columns")
    p_fc.add_argument("--horizon", type=_CONFIG_KEYS["horizon"], default=10,
                      help="forecast steps (default: %(default)s)")
    p_fc.set_defaults(func=cmd_forecast)

    p_rt = sub.add_parser("risktree", help="build the cross-validated risk tree")
    p_rt.add_argument("input", help="risk-factor CSV")
    p_rt.add_argument("--minsplit", type=_CONFIG_KEYS["minsplit"],
                      help="minimum rows to attempt a split (default: chosen from the table size)")
    p_rt.add_argument("--folds", type=_CONFIG_KEYS["folds"], default=10,
                      help="cross-validation folds (default: %(default)s)")
    p_rt.add_argument("--seed", type=_CONFIG_KEYS["seed"], default=0,
                      help="seed for the cross-validation fold assignment (default: %(default)s)")
    p_rt.set_defaults(func=cmd_risktree)

    p_ev = sub.add_parser("eval", help="score a forecast CSV against actuals")
    p_ev.add_argument("actual", help="actual series CSV (date,cases)")
    p_ev.add_argument("forecast", help="forecast CSV (date,... columns)")
    p_ev.add_argument("--column", default="hybrid", help="forecast column to score")
    p_ev.set_defaults(func=cmd_eval)

    for p in (p_fetch, p_fc, p_rt, p_ev):
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--out", type=_CONFIG_KEYS["out"], help="output directory (default: out; "
                       "eval writes eval.json only when given here or in --config)")

    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the command's defaults; flags parsed again win
            flags = _CONFIG_KEYS.keys() & vars(args).keys()
            sub.choices[args.command].set_defaults(**load_config_file(args.config, args.command, flags))
            args = parser.parse_args(argv)
        args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
