"""Case-count forecasting (hybrid ARIMA + wavelet error remodeling) and
regression-tree risk assessment."""

from .arima import ArimaFit, ArimaOrder, fit_arima, forecast_arima, select_order
from .hybrid import HybridFit, fit_hybrid, forecast_components, forecast_hybrid
from .metrics import adj_r2, mae, r2, rmse
from .series import TimeSeries, TransformSpec, acf, adf_test
from .tree import RegressionTree, Table, best_split, cross_validate, grow, prune_sequence
from .wavelet import (
    ModwtDecomposition,
    WbfFit,
    decomposition_level,
    imodwt,
    modwt,
    wbf_fit,
    wbf_forecast,
)

__version__ = "0.1.0"

__all__ = [
    "ArimaFit",
    "ArimaOrder",
    "HybridFit",
    "ModwtDecomposition",
    "RegressionTree",
    "Table",
    "TimeSeries",
    "TransformSpec",
    "WbfFit",
    "acf",
    "adf_test",
    "adj_r2",
    "best_split",
    "cross_validate",
    "decomposition_level",
    "fit_arima",
    "fit_hybrid",
    "forecast_arima",
    "forecast_components",
    "forecast_hybrid",
    "grow",
    "imodwt",
    "mae",
    "modwt",
    "prune_sequence",
    "r2",
    "rmse",
    "select_order",
    "wbf_fit",
    "wbf_forecast",
]
