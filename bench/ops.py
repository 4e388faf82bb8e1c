"""One benchmark operation per call, driven through the CLI entry, with the
output checks every op must pass."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from epiforecast import cli

from inputs import HORIZON, ForecastInput, RisktreeInput


class CheckFailed(Exception):
    """An op ran but its outputs broke one of the benchmark's checks."""


@dataclass
class OpResult:
    label: str
    start: float  # time.perf_counter() when the op began
    seconds: float
    error: str | None = None
    quality: dict = field(default_factory=dict)
    # bytes that must repeat exactly when the same input runs again
    fingerprint: bytes = b""

    @property
    def ok(self) -> bool:
        return self.error is None


def _main(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_op(item, out_dir: Path) -> OpResult:
    """Run one op; a raise, a non-zero exit or a failed check marks it failed."""
    body = _forecast if item.command == "forecast" else _risktree
    start = time.perf_counter()
    # the loop must go on after a failed op, so any exception is reported
    try:
        codes, finish = body(item, out_dir)
    except Exception as exc:
        return OpResult(item.label, start, time.perf_counter() - start, error=_describe(exc))
    seconds = time.perf_counter() - start
    try:
        _check(all(code == 0 for code in codes), f"exit codes {codes}")
        quality, fingerprint = finish()
    except Exception as exc:
        return OpResult(item.label, start, seconds, error=_describe(exc))
    return OpResult(item.label, start, seconds, quality=quality, fingerprint=fingerprint)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _forecast(item: ForecastInput, out_dir: Path):
    code_fc, _ = _main(["forecast", str(item.train), "--horizon", str(HORIZON),
                        "--out", str(out_dir)])
    forecast_csv = out_dir / f"{item.train.stem}_forecast.csv"
    code_ev, report = _main(["eval", str(item.full), str(forecast_csv), "--column", "hybrid"])

    def finish():
        rows = _read_rows(forecast_csv, ["date", "arima", "wbf_residual", "hybrid"])
        models = _read_rows(out_dir / f"{item.train.stem}_models.csv",
                            ["date", "arima", "wbf", "hybrid"])
        _check(len(rows) == HORIZON and len(models) == HORIZON, "forecast row count")
        for row in rows + models:
            _check(all(math.isfinite(v) for v in row.values()), f"non-finite forecast {row}")
            _check(all(v >= 0.0 for k, v in row.items() if k != "wbf_residual"),
                   f"negative forecast {row}")
        for row in rows:
            # criterion 3: the hybrid path is the floored sum of its two stages
            expected = max(row["arima"] + row["wbf_residual"], 0.0)
            _check(abs(row["hybrid"] - expected) <= 1e-9 * max(1.0, abs(expected)),
                   f"hybrid {row['hybrid']!r} != max(arima + wbf_residual, 0) = {expected!r}")
        payload = json.loads(report)
        _check(payload["n_dates"] == HORIZON, f"eval n_dates {payload['n_dates']}")
        rmse = float(payload["metrics"]["rmse"])
        fit = json.loads((out_dir / f"{item.train.stem}_fit.json").read_text())
        quality = {"holdout_rmse_rel": rmse / item.holdout_mean,
                   "fit_rmse_rel": fit["training_metrics"]["hybrid"]["rmse"] / item.train_mean}
        return quality, forecast_csv.read_bytes()

    return (code_fc, code_ev), finish


def _risktree(item: RisktreeInput, out_dir: Path):
    code, _ = _main(["risktree", str(item.table), "--seed", str(item.fold_seed),
                     "--out", str(out_dir)])

    def finish():
        with open(out_dir / "importance.csv", newline="") as fh:
            total = sum(float(r["importance_pct"]) for r in csv.DictReader(fh))
        # ten values, each rounded to 6 decimals by the CLI
        _check(abs(total - 100.0) <= 1e-4, f"importances sum to {total!r}")
        payload = json.loads((out_dir / "risktree.json").read_text())
        alphas = [entry["alpha"] for entry in payload["cv"]["table"]]
        _check(all(a < b for a, b in zip(alphas, alphas[1:])), f"CV alphas {alphas}")
        chosen = [e for e in payload["cv"]["table"] if e["alpha"] == payload["cv"]["alpha"]]
        _check(len(chosen) == 1, "chosen alpha not in the CV table")
        cv_error = float(chosen[0]["cv_error"])
        quality = {"risktree_cv_error": cv_error,
                   "risktree_cv_error_rel": cv_error / item.root_error}
        return quality, (out_dir / "risktree.json").read_bytes()

    return (code,), finish


def _read_rows(path: Path, columns: list[str]) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _check(reader.fieldnames == columns, f"{path.name} header {reader.fieldnames}")
        return [{k: float(v) for k, v in r.items() if k != "date"} for r in reader]
