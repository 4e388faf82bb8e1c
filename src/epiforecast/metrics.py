"""Forecast- and fit-quality metrics."""

from __future__ import annotations

import math

import numpy as np


def _pair(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape:
        raise ValueError(f"length mismatch: actual {a.shape} vs predicted {p.shape}")
    if a.size < 1:
        raise ValueError("need at least one observation")
    return a, p


def _error_scores(a, p) -> tuple[float, float]:
    """rmse and mae of a checked pair, from one scaling of |a - p|.

    The errors are divided by their largest entry s, and the scores are s
    times a score of that [0, 1] scale, where nothing under- or overflows.
    When every error is 0 (or one is not finite) s is 1, so all-zero errors
    score exactly 0; an error past the largest double is inf, and so are
    both scores, without a numpy warning.
    """
    with np.errstate(over="ignore"):
        r = np.abs(a - p)
    s = float(r.max())
    if 0.0 < s < math.inf:
        r = r / s
    else:
        s = 1.0
    m = np.mean(r)
    # mean(r**2) >= mean(r)**2 can fail by rounding when the errors are
    # nearly equal; sqrt(m * m) == m exactly in binary floating point, so
    # the floor keeps rmse >= mae exactly
    return float(s * np.sqrt(max(np.mean(r * r), m * m))), float(s * m)


def rmse(actual, predicted) -> float:
    return _error_scores(*_pair(actual, predicted))[0]


def mae(actual, predicted) -> float:
    return _error_scores(*_pair(actual, predicted))[1]


def r2(actual, predicted) -> float:
    """`report`'s r2; undefined (and rejected) when the actual values are constant."""
    value = report(actual, predicted)["r2"]
    if value is None:
        raise ValueError("r2 undefined: actual values are constant")
    return value


def adj_r2(actual, predicted, k: int) -> float:
    """`report`'s adj_r2 for k predictors; rejected where it is None."""
    scores = report(actual, predicted, k)
    n = scores["n"]
    if not 1 <= k < n - 1:
        raise ValueError(f"adjusted r2 needs 1 <= k < n-1 (n={n}, k={k})")
    if scores["adj_r2"] is None:
        raise ValueError("adjusted r2 undefined: actual values are constant")
    return scores["adj_r2"]


def report(actual, predicted, k: int = 0) -> dict:
    """rmse, mae, r2, adj_r2, n and k of one pair, each computed once.

    r2 is taken against the mean-of-actual baseline: it is negative for fits
    worse than that constant, and None when the actual values are constant,
    whatever their rounded mean. Both arrays are scaled for it exactly, by one
    power of two, below 1 so that squared deviations cannot overflow. adj_r2
    discounts r2 for k predictors; it is None unless r2 is defined and 1 <= k < n - 1.
    """
    a, p = _pair(actual, predicted)
    rmse_value, mae_value = _error_scores(a, p)
    n = a.size
    shift = np.frexp(max(np.abs(a).max(), np.abs(p).max()))[1]
    a, p = np.ldexp(a, -shift), np.ldexp(p, -shift)
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    r2_value = adj = None
    if ss_tot != 0.0 and np.ptp(a) != 0.0:
        r2_value = 1.0 - float(np.sum((a - p) ** 2)) / ss_tot
        if 1 <= k < n - 1:
            adj = 1.0 - (1.0 - r2_value) * (n - 1) / (n - k - 1)
    return {"rmse": rmse_value, "mae": mae_value, "r2": r2_value, "adj_r2": adj,
            "n": int(n), "k": int(k)}
