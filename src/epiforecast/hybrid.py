"""Two-stage forecaster: ARIMA on the counts, wavelet model on its residuals,
forecasts combined additively."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import arima, wavelet
from .series import LOG_TRANSFORM, TimeSeries


@dataclass
class HybridFit:
    base: arima.ArimaFit
    residual_model: wavelet.WbfFit | None
    residual_level: np.ndarray
    diagnostics: dict

    @property
    def base_fitted(self) -> np.ndarray:
        return self.base.fitted_level()

    @property
    def residual_fitted(self) -> np.ndarray:
        if self.residual_model is None:
            return np.zeros(len(self.residual_level))
        return self.residual_model.fitted_values()

    @property
    def fitted_values(self) -> np.ndarray:
        return self.base_fitted + self.residual_fitted

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "residual_model": self.residual_model.to_dict() if self.residual_model else None,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class HybridForecast:
    """Per-model forecast paths; `combined` is the raw sum, `final` is clipped."""

    base: np.ndarray
    residual: np.ndarray

    @property
    def combined(self) -> np.ndarray:
        return self.base + self.residual

    @property
    def final(self) -> np.ndarray:
        return np.maximum(self.combined, 0.0)


def fit_hybrid(s: TimeSeries, *, order: arima.ArimaOrder | None = None) -> HybridFit:
    """Stage 1: order-selected ARIMA under the log transform. Stage 2: wavelet
    model on the level-scale residuals (actual counts minus back-transformed
    in-sample predictions).

    A stage-2 failure degrades to the pure ARIMA forecastable state, flagged
    in diagnostics; stage-1 failure propagates.
    """
    if s.n < 20:
        raise ValueError(f"hybrid fitting needs at least 20 observations, got {s.n}")
    if order is None:
        order = arima.select_order(s, LOG_TRANSFORM)
    base = arima.fit_arima(s, order, LOG_TRANSFORM)
    residual_level = s.values - base.fitted_level()

    diagnostics: dict = {"stage2_degraded": False}
    try:
        residual_model = wavelet.wbf_fit(residual_level)
    except (ValueError, arima.ConvergenceError) as exc:
        residual_model = None
        diagnostics["stage2_degraded"] = True
        diagnostics["stage2_error"] = str(exc)
    return HybridFit(base, residual_model, residual_level, diagnostics)


def forecast_components(fit: HybridFit, h: int) -> HybridForecast:
    base = arima.forecast_arima(fit.base, h)
    if fit.residual_model is None:
        return HybridForecast(base, np.zeros(h))
    return HybridForecast(base, wavelet.wbf_forecast(fit.residual_model, h))


def forecast_hybrid(fit: HybridFit, h: int) -> np.ndarray:
    """h point forecasts: ARIMA forecast plus residual-model forecast, floored at 0."""
    return forecast_components(fit, h).final
