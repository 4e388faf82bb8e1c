"""Forecast- and fit-quality metrics."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np


def _pair(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape:
        raise ValueError(f"length mismatch: actual {a.shape} vs predicted {p.shape}")
    if a.size < 1:
        raise ValueError("need at least one observation")
    return a, p


def _scaled_abs_errors(actual, predicted) -> tuple[np.ndarray, float]:
    """|actual - predicted| divided by its largest entry s, and s.

    On that [0, 1] scale nothing under- or overflows. When every error is 0
    (or one is not finite) s is 1, so all-zero errors score exactly 0.
    """
    a, p = _pair(actual, predicted)
    e = np.abs(a - p)
    s = float(e.max())
    if not 0.0 < s < math.inf:
        return e, 1.0
    return e / s, s


def rmse(actual, predicted) -> float:
    r, s = _scaled_abs_errors(actual, predicted)
    m = np.mean(r)
    # mean(r**2) >= mean(r)**2 can fail by rounding when the errors are
    # nearly equal; sqrt(m * m) == m exactly in binary floating point, so
    # the floor keeps rmse >= mae exactly
    return float(s * np.sqrt(max(np.mean(r * r), m * m)))


def mae(actual, predicted) -> float:
    r, s = _scaled_abs_errors(actual, predicted)
    return float(s * np.mean(r))


def r2(actual, predicted) -> float:
    """Coefficient of determination against the mean-of-actual baseline.

    Can be negative for fits worse than the constant mean; undefined (and
    rejected) when the actual values are constant. Both are scaled exactly,
    by one power of two, below 1 so that squared deviations cannot overflow.
    """
    a, p = _pair(actual, predicted)
    k = np.frexp(max(np.abs(a).max(), np.abs(p).max()))[1]
    a, p = np.ldexp(a, -k), np.ldexp(p, -k)
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("r2 undefined: actual values are constant")
    ss_res = float(np.sum((a - p) ** 2))
    return 1.0 - ss_res / ss_tot


def adj_r2(actual, predicted, k: int) -> float:
    a, p = _pair(actual, predicted)
    n = a.size
    if n <= k + 1:
        raise ValueError(f"adjusted r2 needs n > k+1 (n={n}, k={k})")
    plain = r2(a, p)
    return 1.0 - (1.0 - plain) * (n - 1) / (n - k - 1)


@dataclass(frozen=True)
class MetricReport:
    rmse: float
    mae: float
    r2: float | None
    adj_r2: float | None
    n: int
    k: int

    def to_dict(self) -> dict:
        return asdict(self)


def report(actual, predicted, k: int = 0) -> MetricReport:
    """Bundle the standard metrics; r2 fields are None when undefined."""
    a, p = _pair(actual, predicted)
    try:
        r2_val = r2(a, p)
    except ValueError:
        r2_val = None
    adj = None
    if r2_val is not None and k >= 1 and a.size > k + 1:
        adj = adj_r2(a, p, k)
    return MetricReport(
        rmse=rmse(a, p),
        mae=mae(a, p),
        r2=r2_val,
        adj_r2=adj,
        n=int(a.size),
        k=int(k),
    )
