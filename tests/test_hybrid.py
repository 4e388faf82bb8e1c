"""Two-stage pipeline: additivity, residual bookkeeping, degradation paths."""

import numpy as np
import pytest

from epiforecast import arima, hybrid, metrics, wavelet
from epiforecast.arima import ArimaOrder

from conftest import make_series


def sim_integrated_ar1(seed, n=300, phi=0.6):
    """Integrated AR(1) on the log scale, exponentiated into count space."""
    rng = np.random.default_rng(seed)
    e = rng.normal(scale=0.02, size=n)
    w = np.zeros(n)
    for t in range(1, n):
        w[t] = phi * w[t - 1] + e[t]
    z = np.log(500.0) + np.cumsum(w)
    return make_series(np.expm1(z))


class TestFit:
    def test_requires_minimum_length(self):
        with pytest.raises(ValueError, match="at least 20"):
            hybrid.fit_hybrid(make_series(np.arange(10) + 1.0))

    def test_residual_bookkeeping_is_exact(self, country_hybrids, country_series):
        for name, fit in country_hybrids.items():
            s = country_series[name]
            np.testing.assert_array_equal(fit.residual_level, s.values - fit.base_fitted)
            np.testing.assert_array_equal(
                fit.fitted_values, fit.base_fitted + fit.residual_fitted
            )
            # combined in-sample residual decomposes into the two stages
            np.testing.assert_allclose(
                s.values - fit.fitted_values,
                fit.residual_level - fit.residual_fitted,
                atol=1e-9,
            )

    def test_constant_series_collapses_to_constant(self):
        s = make_series(np.full(30, 12.0))
        fit = hybrid.fit_hybrid(s)
        fc = hybrid.forecast_hybrid(fit, 5)
        np.testing.assert_allclose(fc, 12.0, atol=1e-6)

    def test_well_specified_base_leaves_little_for_stage_two(self):
        s = sim_integrated_ar1(0)
        fit = hybrid.fit_hybrid(s, order=ArimaOrder(1, 1, 0))
        parts = hybrid.forecast_components(fit, 10)
        assert np.abs(parts.residual).mean() < 0.1 * np.abs(parts.base).mean()

    def test_canada_hybrid_beats_pure_arima_in_sample(self, country_hybrids, country_series):
        s = country_series["canada"]
        fit = country_hybrids["canada"]
        hybrid_rmse = metrics.rmse(s.values, fit.fitted_values)
        arima_rmse = metrics.rmse(s.values, fit.base_fitted)
        assert hybrid_rmse <= arima_rmse

    def test_determinism(self, country_series):
        s = country_series["india"]
        a = hybrid.fit_hybrid(s)
        b = hybrid.fit_hybrid(s)
        np.testing.assert_array_equal(a.fitted_values, b.fitted_values)
        np.testing.assert_array_equal(
            hybrid.forecast_hybrid(a, 10), hybrid.forecast_hybrid(b, 10)
        )


class TestForecast:
    def test_additivity_before_clipping(self, country_hybrids):
        for fit in country_hybrids.values():
            parts = hybrid.forecast_components(fit, 10)
            np.testing.assert_array_equal(parts.combined, parts.base + parts.residual)
            np.testing.assert_array_equal(parts.final, np.maximum(parts.combined, 0.0))

    def test_bundled_series_contract(self, country_hybrids):
        for fit in country_hybrids.values():
            fc = hybrid.forecast_hybrid(fit, 10)
            assert fc.shape == (10,)
            assert np.all(np.isfinite(fc))
            assert np.all(fc >= 0)

    def test_zero_residual_model_equals_pure_arima(self, country_series):
        from epiforecast import arima as arima_mod

        s = country_series["france"]
        fit = hybrid.fit_hybrid(s)
        degraded = hybrid.HybridFit(
            base=fit.base,
            residual_model=None,
            base_fitted=fit.base_fitted,
            residual_level=fit.residual_level,
            residual_fitted=np.zeros(s.n),
            fitted_values=fit.base_fitted,
            diagnostics={"stage2_degraded": True},
        )
        fc = hybrid.forecast_hybrid(degraded, 10)
        np.testing.assert_array_equal(fc, arima_mod.forecast_arima(fit.base, 10))

    def test_invalid_horizon(self, country_hybrids):
        with pytest.raises(ValueError, match="horizon"):
            hybrid.forecast_hybrid(country_hybrids["india"], 0)

    # `arima.forecast_transformed` holds the one horizon check that every
    # public forecast path reaches
    @pytest.mark.parametrize("h", [0, -1])
    @pytest.mark.parametrize("forecast,model", [
        (arima.forecast_transformed, "base"),
        (arima.forecast_arima, "base"),
        (wavelet.wbf_forecast, "residual_model"),
        (hybrid.forecast_components, None),
        (hybrid.forecast_hybrid, None),
    ], ids=["forecast_transformed", "forecast_arima", "wbf_forecast", "forecast_components",
            "forecast_hybrid"])
    def test_bad_horizon_message(self, country_hybrids, forecast, model, h):
        fit = country_hybrids["india"]
        if model:
            fit = getattr(fit, model)
        assert fit is not None
        with pytest.raises(ValueError) as excinfo:
            forecast(fit, h)
        assert str(excinfo.value) == f"forecast horizon must be positive, got {h}"
