"""Daily time-series container, transforms, autocorrelations and stationarity test."""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import operator
from dataclasses import dataclass, field

import numpy as np

MIN_LENGTH = 8

# Finite-sample 5% critical value of the Dickey-Fuller t-distribution
# (regression with constant, no trend), as response-surface coefficients
# cv(n) = b0 + b1/n + b2/n^2 + b3/n^3 evaluated at the effective sample size.
_DF_CRIT_5PCT = (-2.86154, -2.8903, -4.234, -40.04)


@dataclass(frozen=True)
class TimeSeries:
    """Ordered daily observations.

    Dates must be strictly increasing with consecutive daily spacing; gaps
    are rejected so that silent imputation can never corrupt a model fit.
    Count-specific constraints (non-negative values, minimum length) are
    enforced at ingestion; derived series such as differences may be short
    or signed.
    """

    dates: tuple[dt.date, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if len(self.dates) != len(values):
            raise ValueError(
                f"dates ({len(self.dates)}) and values ({len(values)}) differ in length"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values must all be finite")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if (cur - prev).days != 1:
                raise ValueError(f"dates must be consecutive days; gap between {prev} and {cur}")

    @property
    def n(self) -> int:
        return len(self.values)


def values_of(s) -> np.ndarray:
    """The float array of a TimeSeries or of any array-like."""
    return np.asarray(getattr(s, "values", s), dtype=float)


@dataclass(frozen=True)
class TransformSpec:
    """Variance-stabilising transform applied before model fitting.

    kind "boxcox" is the Box-Cox map at lambda = 0, realised as log(y + 1) so
    that zero counts stay admissible; the inverse is exp(x) - 1 clipped at 0.
    """

    kind: str = "none"

    def __post_init__(self):
        if self.kind not in ("none", "boxcox"):
            raise ValueError(f"unknown transform kind {self.kind!r}")

    def forward(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self.kind == "none":
            return values.copy()
        if np.any(values < 0):
            raise ValueError("log transform requires non-negative values")
        return np.log1p(values)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self.kind == "none":
            return values.copy()
        return np.maximum(np.expm1(values), 0.0)


LOG_TRANSFORM = TransformSpec(kind="boxcox")
NO_TRANSFORM = TransformSpec(kind="none")


def diff_values(values: np.ndarray, d: int) -> np.ndarray:
    """Apply d-th order differencing to a plain array."""
    values = np.asarray(values, dtype=float)
    if d < 0 or d > 2:
        raise ValueError(f"differencing order must be in 0..2, got {d}")
    if len(values) <= d:
        raise ValueError(f"series of length {len(values)} too short to difference {d} times")
    out = values.copy()
    for _ in range(d):
        out = np.diff(out)
    return out


def undiff_values(diffed: np.ndarray, anchors: np.ndarray, d: int) -> np.ndarray:
    """Invert d-th order differencing given the d pre-differencing boundary values.

    Returns the full reconstructed array, anchors included, so that
    undiff_values(diff_values(x, d), x[:d], d) == x exactly.
    """
    diffed = np.asarray(diffed, dtype=float)
    anchors = np.asarray(anchors, dtype=float)
    if len(anchors) != d:
        raise ValueError(f"expected {d} anchor values, got {len(anchors)}")
    out = diffed.copy()
    for k in range(d, 0, -1):
        head = diff_values(anchors, k - 1)[:1]
        out = np.cumsum(np.concatenate([head, out]))
    return out


def acf(values, max_lag: int) -> np.ndarray:
    """Sample autocorrelations for lags 0..max_lag (biased estimator)."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if max_lag >= n:
        raise ValueError(f"max_lag {max_lag} must be below series length {n}")
    centered = values - values.mean()
    denom = float(np.dot(centered, centered))
    out = np.zeros(max_lag + 1)
    out[0] = 1.0
    if denom == 0.0:
        return out
    for k in range(1, max_lag + 1):
        out[k] = float(np.dot(centered[k:], centered[:-k])) / denom
    return out


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    reject_unit_root: bool


def adf_test(values) -> AdfResult:
    """Augmented Dickey-Fuller unit-root test, constant term, no trend.

    Lag order floor((n-1)^(1/3)); rejection at the 5% level against the
    finite-sample Dickey-Fuller critical values. A numerically constant
    series carries no unit root and is reported as stationary outright.
    """
    values = values_of(values)
    n = len(values)
    if n < 20:
        raise ValueError(f"adf test needs at least 20 observations, got {n}")
    if np.ptp(values) <= 1e-12 * max(1.0, abs(values[0])):
        return AdfResult(statistic=float("-inf"), reject_unit_root=True)

    k = int(np.floor((n - 1) ** (1.0 / 3.0)))
    dy = np.diff(values)
    # Regression: dy_t on [1, y_{t-1}, dy_{t-1}, ..., dy_{t-k}]; the constant
    # is absorbed by demeaning, which also makes shift invariance exact.
    rows = len(dy) - k
    if rows <= k + 3:
        raise ValueError("series too short for the chosen lag order")
    lhs = dy[k:]
    cols = [values[k:-1]]
    for i in range(1, k + 1):
        cols.append(dy[k - i : len(dy) - i])
    design = np.column_stack(cols)
    design = design - design.mean(axis=0)
    lhs = lhs - lhs.mean()
    beta, _, _, _ = np.linalg.lstsq(design, lhs, rcond=None)
    resid = lhs - design @ beta
    # rows > k + 3 leaves dof = rows - k - 2 >= 2
    dof = rows - design.shape[1] - 1
    sigma2 = float(resid @ resid) / dof
    _, r_mat = np.linalg.qr(design)
    r_inv_row = np.linalg.solve(r_mat.T, np.eye(design.shape[1])[:, 0])
    se = math.sqrt(sigma2 * float(r_inv_row @ r_inv_row))
    if se == 0.0 or not np.isfinite(se):
        stat = float("-inf")
    else:
        stat = float(beta[0] / se)
    return AdfResult(statistic=stat, reject_unit_root=stat < _df_critical(rows))


def _df_critical(n_eff: int) -> float:
    b0, b1, b2, b3 = _DF_CRIT_5PCT
    n = float(n_eff)
    return b0 + b1 / n + b2 / n**2 + b3 / n**3


def read_text(path) -> str:
    """The text of a UTF-8 file, without its byte-order mark if it has one; a
    byte that is not UTF-8 is refused with path:line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # a bad sequence holds no line break, so the bytes to its end stop on its line
        raise ValueError(f"{path}:{len(data[:exc.end].splitlines())}: not UTF-8 text") from exc


def read_csv(path, required):
    """Yield (line, values) per data row of a CSV file read by `read_text`, values
    being the cells of the `required` columns (two or more names, matched after
    strip().lower()) in that order: a date from `date`, a finite float from any
    other. Blank lines are skipped; a missing or repeated column, a row whose width
    differs from the header's and a cell that does not parse or is not finite are
    refused with path:line."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    names = [name.strip().lower() for name in header]
    where = f"{path}:{reader.line_num}"
    for k, name in enumerate(names):
        if name and name in names[:k]:
            raise ValueError(f"{where}: column {name} appears twice")
    missing = [name for name in required if name.lower() not in names]
    if missing:
        raise ValueError(f"{where}: header is missing required columns: {', '.join(missing)}")
    cells = operator.itemgetter(*(names.index(name.lower()) for name in required))
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):  # a blank line
            continue
        line = reader.line_num  # the row's last line: a quoted cell may span several
        if len(row) != len(names):
            raise ValueError(f"{path}:{line}: expected {len(names)} fields, got {len(row)}")
        values = []
        for name, text in zip(required, cells(row)):
            is_date = name.lower() == "date"
            try:
                value = dt.date.fromisoformat(text.strip()) if is_date else float(text)
            except ValueError:
                raise ValueError(f"{path}:{line}: bad {name} value {text!r}") from None
            if not (is_date or math.isfinite(value)):
                raise ValueError(f"{path}:{line}: non-finite {name} value {text!r}")
            values.append(value)
        yield line, values


def load_series_csv(path) -> TimeSeries:
    """Read a CSV with `date` and `cases` columns into a TimeSeries; a bad
    row, such as a negative count or a date that is not the day after the
    one before, is rejected with its file and line."""
    dates: list[dt.date] = []
    values: list[float] = []
    for lineno, (day, count) in read_csv(path, ("date", "cases")):
        if count < 0:
            raise ValueError(f"{path}:{lineno}: negative count {count}")
        if dates and (day - dates[-1]).days != 1:
            raise ValueError(f"{path}:{lineno}: date {day} is not the day after {dates[-1]}")
        dates.append(day)
        values.append(count)
    if len(values) < MIN_LENGTH:
        raise ValueError(f"{path}: need at least {MIN_LENGTH} observations, got {len(values)}")
    return TimeSeries(dates=tuple(dates), values=np.asarray(values))
