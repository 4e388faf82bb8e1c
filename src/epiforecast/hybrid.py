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
    base_fitted: np.ndarray
    residual_level: np.ndarray
    residual_fitted: np.ndarray
    fitted_values: np.ndarray
    diagnostics: dict

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
    combined: np.ndarray
    final: np.ndarray


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
    base_fitted = base.fitted_level()
    residual_level = s.values - base_fitted

    diagnostics: dict = {"stage2_degraded": False}
    try:
        residual_model = wavelet.wbf_fit(residual_level)
        residual_fitted = residual_model.fitted_values()
    except (ValueError, arima.ConvergenceError) as exc:
        residual_model = None
        residual_fitted = np.zeros(s.n)
        diagnostics["stage2_degraded"] = True
        diagnostics["stage2_error"] = str(exc)

    fitted_values = base_fitted + residual_fitted
    return HybridFit(
        base=base,
        residual_model=residual_model,
        base_fitted=base_fitted,
        residual_level=residual_level,
        residual_fitted=residual_fitted,
        fitted_values=fitted_values,
        diagnostics=diagnostics,
    )


def forecast_components(fit: HybridFit, h: int) -> HybridForecast:
    base = arima.forecast_arima(fit.base, h)
    if fit.residual_model is not None:
        residual = wavelet.wbf_forecast(fit.residual_model, h)
    else:
        residual = np.zeros(h)
    combined = base + residual
    return HybridForecast(
        base=base,
        residual=residual,
        combined=combined,
        final=np.maximum(combined, 0.0),
    )


def forecast_hybrid(fit: HybridFit, h: int) -> np.ndarray:
    """h point forecasts: ARIMA forecast plus residual-model forecast, floored at 0."""
    return forecast_components(fit, h).final
