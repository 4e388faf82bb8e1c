"""Case-count forecasting (hybrid ARIMA + wavelet error remodeling) and
regression-tree risk assessment.

The public names below load their module on first access (PEP 562), so
importing one submodule, such as `epiforecast.tree`, loads none of the others.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(["ArimaFit", "ArimaOrder", "fit_arima", "forecast_arima", "select_order"],
                    "arima"),
    **dict.fromkeys(["HybridFit", "fit_hybrid", "forecast_components", "forecast_hybrid"], "hybrid"),
    **dict.fromkeys(["adj_r2", "mae", "r2", "rmse"], "metrics"),
    **dict.fromkeys(["TimeSeries", "TransformSpec", "acf", "adf_test"], "series"),
    **dict.fromkeys(["RegressionTree", "Table", "best_split", "cross_validate", "grow",
                     "prune_sequence"], "tree"),
    **dict.fromkeys(["ModwtDecomposition", "WbfFit", "decomposition_level", "imodwt", "modwt",
                     "wbf_fit", "wbf_forecast"], "wavelet"),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
