"""Maximal-overlap discrete wavelet transform (Haar, periodic boundary) and the
wavelet-domain forecaster built on it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import arima
from .series import NO_TRANSFORM, values_of

SUBSERIES_MAX_ORDER = 3


def decomposition_level(n: int) -> int:
    """Decomposition depth rule: floor of the natural log of the series length."""
    if n < 8:
        raise ValueError(f"need at least 8 observations to decompose, got {n}")
    return int(math.floor(math.log(n)))


@dataclass(frozen=True)
class ModwtDecomposition:
    """J detail sub-series plus one smooth sub-series, each of input length."""

    details: tuple[np.ndarray, ...]
    smooth: np.ndarray
    levels: int


def modwt(values, levels: int) -> ModwtDecomposition:
    """Haar MODWT pyramid with periodic boundary handling."""
    x = values_of(values)
    n = len(x)
    if n < 2:
        raise ValueError("series too short for wavelet decomposition")
    if levels < 1:
        raise ValueError(f"levels must be positive, got {levels}")
    max_levels = int(math.floor(math.log2(n)))
    if levels > max_levels:
        raise ValueError(f"levels {levels} exceeds floor(log2({n})) = {max_levels}")
    # the Haar filters rescaled for the maximal-overlap transform, (0.5, -0.5)
    # and (0.5, 0.5), at lag 2^(j-1); + 0.0 turns each -0.0 into +0.0, so
    # that no zero of a sub-series or a reconstruction carries a sign
    details = []
    smooth = x
    for j in range(1, levels + 1):
        half, lagged = 0.5 * smooth, 0.5 * np.roll(smooth, 2 ** (j - 1))
        details.append(half - lagged + 0.0)
        smooth = half + lagged + 0.0
    return ModwtDecomposition(details=tuple(details), smooth=smooth, levels=levels)


def imodwt(dec: ModwtDecomposition) -> np.ndarray:
    """Invert the pyramid; exact reconstruction up to floating-point error."""
    smooth = dec.smooth
    for j in range(dec.levels, 0, -1):
        detail, lead = dec.details[j - 1], -2 ** (j - 1)
        smooth = (0.5 * detail - 0.5 * np.roll(detail, lead)) + \
            (0.5 * smooth + 0.5 * np.roll(smooth, lead)) + 0.0
    return smooth


@dataclass
class WbfFit:
    """Per-sub-series ARIMA fits over a wavelet decomposition."""

    levels: int
    sub_fits: list[arima.ArimaFit]
    fallbacks: list[int]

    def sub_series_names(self) -> list[str]:
        return [f"detail_{j}" for j in range(1, self.levels + 1)] + ["smooth"]

    def fitted_values(self) -> np.ndarray:
        """In-sample one-step predictions, summed across sub-series."""
        return np.sum([f.fitted for f in self.sub_fits], axis=0)

    def to_dict(self) -> dict:
        return {
            "levels": self.levels,
            "sub_models": {
                name: fit.to_dict()
                for name, fit in zip(self.sub_series_names(), self.sub_fits)
            },
            "fallback_sub_series": [self.sub_series_names()[i] for i in self.fallbacks],
        }


def wbf_fit(values) -> WbfFit:
    """Decompose and fit one stationary ARIMA per sub-series.

    Sub-series are zero-mean (details) or slowly varying (smooth) by
    construction, so differencing is disabled and orders are capped low. A
    sub-series whose fit fails degrades to a mean-only model and is flagged.

    The order grids of all sub-series are fitted as one batch, then the
    refits of the chosen orders as one batch of one-cell grids, on every CPU.
    """
    x = values_of(values)
    if not np.isfinite(x).all():
        raise ValueError("wavelet fit needs finite values")
    levels = decomposition_level(len(x))
    dec = modwt(x, levels)
    sub_series = [*dec.details, dec.smooth]
    try:
        grids = [arima._order_grid(sub, NO_TRANSFORM, SUBSERIES_MAX_ORDER,
                                   SUBSERIES_MAX_ORDER, force_d=0) for sub in sub_series]
    except ValueError:
        # too short for a grid; every sub-series has the input's length
        chosen = [None] * len(sub_series)
    else:
        # boundary AR is legitimate here: detail sub-series oscillate by
        # construction, so the near-unit-root selection gate stays off
        chosen = arima._select(grids, reject_near_unit_roots=False)
    # at p = SUBSERIES_MAX_ORDER the grid cell conditioned on as many
    # residuals as the refit would, so it is the refit
    refits = [i for i, fit in enumerate(chosen)
              if isinstance(fit, arima.ArimaFit) and fit.order.p < SUBSERIES_MAX_ORDER]
    grids = [[(sub_series[i], chosen[i].order, NO_TRANSFORM, None)] for i in refits]
    for i, fit in zip(refits, arima._select(grids, reject_near_unit_roots=False)):
        chosen[i] = fit
    fits = []
    fallbacks = []
    for i, (sub, fit) in enumerate(zip(sub_series, chosen)):
        if not isinstance(fit, arima.ArimaFit):
            fallbacks.append(i)
            fit = arima.fit_arima(sub, arima.ArimaOrder(0, 0, 0), NO_TRANSFORM)
        fits.append(fit)
    return WbfFit(levels=levels, sub_fits=fits, fallbacks=fallbacks)


def wbf_forecast(fit: WbfFit, h: int) -> np.ndarray:
    """Sum of the h-step forecasts of every sub-series model."""
    return np.vstack([arima.forecast_transformed(f, h) for f in fit.sub_fits]).sum(axis=0)
