import pickle

import numpy as np
import pytest

from epiforecast import arima
from epiforecast.wavelet import (
    ModwtDecomposition,
    decomposition_level,
    imodwt,
    modwt,
    wbf_fit,
    wbf_forecast,
)


@pytest.mark.parametrize("n,expected", [(64, 4), (76, 4), (8, 2), (20, 2), (150, 5)])
def test_decomposition_level_rule(n, expected):
    assert decomposition_level(n) == expected


def test_decomposition_level_rejects_short():
    with pytest.raises(ValueError, match="at least 8"):
        decomposition_level(7)


def test_levels_capped_by_dyadic_length():
    with pytest.raises(ValueError, match="exceeds"):
        modwt(np.arange(10, dtype=float), 4)  # floor(log2(10)) == 3


class TestTransform:
    def test_constant_series(self):
        dec = modwt(np.full(32, 7.5), 3)
        for detail in dec.details:
            np.testing.assert_allclose(detail, 0.0, atol=1e-12)
        np.testing.assert_allclose(dec.smooth, 7.5, atol=1e-12)

    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(0)
        for n in (8, 21, 64, 100, 257, 512):
            x = rng.normal(size=n) * 10
            levels = min(decomposition_level(n), int(np.log2(n)))
            rec = imodwt(modwt(x, levels))
            assert np.max(np.abs(rec - x)) <= 1e-8

    def test_negative_zero_series_decomposes_to_positive_zero(self):
        # the filters sum -0.0 and -0.0, or -0.0 and -(+0.0), to +0.0, so no
        # sub-series and no reconstruction carries a sign that only zeros give
        minus, mixed = np.full(16, -0.0), np.array([-0.0, 0.0] * 8)
        parts = [imodwt(ModwtDecomposition(details=(mixed,), smooth=minus, levels=1))]
        for x in (minus, mixed):
            dec = modwt(x, 4)
            parts += [*dec.details, dec.smooth, imodwt(dec)]
        for part in parts:
            assert part.tobytes() == np.zeros(16).tobytes()

    def test_energy_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=64)
        dec = modwt(x, 4)
        coeff_energy = sum(float(np.dot(d, d)) for d in dec.details)
        coeff_energy += float(np.dot(dec.smooth, dec.smooth))
        assert coeff_energy == pytest.approx(float(np.dot(x, x)), abs=1e-6)

    def test_detail_means_are_zero(self):
        rng = np.random.default_rng(2)
        dec = modwt(rng.normal(size=48) + 100, 3)
        for detail in dec.details:
            assert abs(detail.mean()) < 1e-10

    def test_shift_covariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=64)
        shift = 5
        dec = modwt(x, 3)
        dec_shifted = modwt(np.roll(x, shift), 3)
        for a, b in zip([*dec.details, dec.smooth], [*dec_shifted.details, dec_shifted.smooth]):
            np.testing.assert_allclose(np.roll(a, shift), b, atol=1e-8)


class TestWbf:
    def test_constant_series_forecast(self):
        fit = wbf_fit(np.full(64, 4.0))
        assert fit.levels == decomposition_level(64)
        np.testing.assert_allclose(wbf_forecast(fit, 6), 4.0, atol=1e-6)

    def test_zero_series_forecast(self):
        fit = wbf_fit(np.zeros(40))
        np.testing.assert_allclose(wbf_forecast(fit, 5), 0.0, atol=1e-9)

    def test_sinusoid_continuation(self):
        n, period = 64, 8
        t = np.arange(n + 8)
        signal = np.sin(2 * np.pi * t / period)
        fit = wbf_fit(signal[:n])
        fc = wbf_forecast(fit, 8)
        corr = np.corrcoef(fc, signal[n:])[0, 1]
        assert corr > 0.8

    def test_forecast_sums_sub_series(self):
        rng = np.random.default_rng(7)
        fit = wbf_fit(rng.normal(size=32) * 3)
        per_sub = np.vstack([arima.forecast_transformed(f, 5) for f in fit.sub_fits])
        assert per_sub.shape == (fit.levels + 1, 5)
        np.testing.assert_array_equal(wbf_forecast(fit, 5), per_sub.sum(axis=0))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            wbf_fit(np.ones(5))

    @pytest.mark.parametrize("x", [
        # chooses p = 3 on two sub-series, whose grid fits are kept as they are
        np.cumsum(np.random.default_rng(0).normal(size=40)) + 5 * np.sin(np.arange(40) / 2),
        np.arange(12.0) ** 2,  # under 20 points: every sub-series falls back
    ])
    def test_batched_fit_matches_one_sub_series_at_a_time(self, x):
        fit = wbf_fit(x)
        dec = modwt(x, decomposition_level(len(x)))
        expected, fallbacks = [], []
        for i, sub in enumerate([*dec.details, dec.smooth]):
            try:
                order = arima.select_order(sub, max_p=3, max_q=3, force_d=0,
                                           reject_near_unit_roots=False)
                expected.append(arima.fit_arima(sub, order))
            except (ValueError, arima.ConvergenceError):
                fallbacks.append(i)
                expected.append(arima.fit_arima(sub, arima.ArimaOrder(0, 0, 0)))
        assert fit.fallbacks == fallbacks
        assert [pickle.dumps(f) for f in fit.sub_fits] == [pickle.dumps(f) for f in expected]
