"""Daily time-series container, transforms, autocorrelations and stationarity test."""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

MIN_LENGTH = 8

# Finite-sample critical values for the Dickey-Fuller t-distribution
# (regression with constant, no trend), as response-surface coefficients
# cv(n) = b0 + b1/n + b2/n^2 + b3/n^3 evaluated at the effective sample size.
_DF_CRIT_CONSTANT = {
    0.01: (-3.43035, -6.5393, -16.786, -79.433),
    0.05: (-2.86154, -2.8903, -4.234, -40.04),
    0.10: (-2.56677, -1.5384, -2.809, 0.0),
}


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

    def __len__(self) -> int:
        return len(self.values)

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TransformSpec:
    """Variance-stabilising transform applied before model fitting.

    kind "boxcox" is only supported with lam=0, realised as log(y + 1) so
    that zero counts stay admissible; the inverse is exp(x) - 1 clipped at 0.
    "log1p" is the same map under its plain name.
    """

    kind: str = "none"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "log1p", "boxcox"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "boxcox" and self.lam != 0.0:
            raise ValueError("boxcox transform only supported with lam = 0")

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


LOG_TRANSFORM = TransformSpec(kind="boxcox", lam=0.0)
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


def difference(s: TimeSeries, d: int) -> TimeSeries:
    """Difference a series d times, dropping the first d dates."""
    out = diff_values(s.values, d)
    return TimeSeries(dates=s.dates[d:], values=out)


def inverse_difference(diffed: TimeSeries, anchors: np.ndarray, d: int) -> TimeSeries:
    """Undo differencing; the reconstructed series regains its first d dates."""
    values = undiff_values(diffed.values, anchors, d)
    first = diffed.dates[0] - dt.timedelta(days=d)
    dates = tuple(first + dt.timedelta(days=i) for i in range(len(values)))
    return TimeSeries(dates=dates, values=values)


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


def pacf(values, max_lag: int) -> np.ndarray:
    """Partial autocorrelations via the Durbin-Levinson recursion."""
    r = acf(values, max_lag)
    out = np.zeros(max_lag + 1)
    out[0] = 1.0
    if max_lag == 0:
        return out
    phi_prev = np.zeros(max_lag + 1)
    phi_prev[1] = r[1]
    out[1] = r[1]
    for k in range(2, max_lag + 1):
        num = r[k] - np.dot(phi_prev[1:k], r[1:k][::-1])
        den = 1.0 - np.dot(phi_prev[1:k], r[1:k])
        phi_kk = 0.0 if abs(den) < 1e-12 else num / den
        phi_cur = phi_prev.copy()
        phi_cur[k] = phi_kk
        phi_cur[1:k] = phi_prev[1:k] - phi_kk * phi_prev[1:k][::-1]
        out[k] = phi_kk
        phi_prev = phi_cur
    return out


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    reject_unit_root: bool
    lag_order: int
    critical_value_5pct: float


def adf_test(values) -> AdfResult:
    """Augmented Dickey-Fuller unit-root test, constant term, no trend.

    Lag order floor((n-1)^(1/3)); rejection at the 5% level against the
    finite-sample Dickey-Fuller critical values. A numerically constant
    series carries no unit root and is reported as stationary outright.
    """
    values = np.asarray(getattr(values, "values", values), dtype=float)
    n = len(values)
    if n < 20:
        raise ValueError(f"adf test needs at least 20 observations, got {n}")
    if np.ptp(values) <= 1e-12 * max(1.0, abs(values[0])):
        return AdfResult(
            statistic=float("-inf"),
            reject_unit_root=True,
            lag_order=0,
            critical_value_5pct=_df_critical(n - 1, 0.05),
        )

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
    dof = rows - design.shape[1] - 1
    if dof <= 0:
        raise ValueError("series too short for the chosen lag order")
    sigma2 = float(resid @ resid) / dof
    _, r_mat = np.linalg.qr(design)
    r_inv_row = np.linalg.solve(r_mat.T, np.eye(design.shape[1])[:, 0])
    se = math.sqrt(sigma2 * float(r_inv_row @ r_inv_row))
    if se == 0.0 or not np.isfinite(se):
        stat = float("-inf")
    else:
        stat = float(beta[0] / se)
    crit = _df_critical(rows, 0.05)
    return AdfResult(
        statistic=stat,
        reject_unit_root=stat < crit,
        lag_order=k,
        critical_value_5pct=crit,
    )


def _df_critical(n_eff: int, level: float) -> float:
    b0, b1, b2, b3 = _DF_CRIT_CONSTANT[level]
    n = float(max(n_eff, 1))
    return b0 + b1 / n + b2 / n**2 + b3 / n**3


def load_series_csv(path) -> TimeSeries:
    """Read a `date,cases` CSV into a TimeSeries, rejecting schema violations."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["date", "cases"]:
            raise ValueError(f"{path}: expected header 'date,cases', got {header}")
        dates: list[dt.date] = []
        values: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{lineno}: expected two columns")
            try:
                day = dt.date.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad date {row[0]!r}") from exc
            try:
                count = float(row[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad count {row[1]!r}") from exc
            if count < 0:
                raise ValueError(f"{path}:{lineno}: negative count {count}")
            dates.append(day)
            values.append(count)
    if len(values) < MIN_LENGTH:
        raise ValueError(
            f"{path}: need at least {MIN_LENGTH} observations, got {len(values)}"
        )
    return TimeSeries(dates=tuple(dates), values=np.asarray(values))


def write_series_csv(path, series: TimeSeries) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "cases"])
        for day, value in zip(series.dates, series.values):
            writer.writerow([day.isoformat(), _format_count(value)])


def _format_count(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
