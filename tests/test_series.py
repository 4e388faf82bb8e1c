"""Container, transform, autocorrelation and unit-root tests."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiforecast import series
from epiforecast.series import (
    LOG_TRANSFORM,
    TimeSeries,
    TransformSpec,
    acf,
    adf_test,
    diff_values,
    undiff_values,
)

from conftest import make_series

counts = st.lists(
    st.integers(min_value=0, max_value=10**6), min_size=8, max_size=60
).map(lambda xs: np.asarray(xs, dtype=float))


class TestTimeSeries:
    def test_rejects_date_gap(self):
        dates = [dt.date(2020, 3, 1) + dt.timedelta(days=i) for i in range(9)]
        dates[5] += dt.timedelta(days=1)  # duplicate spacing breaks
        with pytest.raises(ValueError, match="consecutive"):
            TimeSeries(dates=tuple(dates), values=np.ones(9))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            make_series([1, 2, 3, np.nan, 5, 6, 7, 8])

    def test_ingestion_rejects_negative_counts(self, tmp_path):
        path = tmp_path / "neg.csv"
        rows = "\n".join(f"2020-03-{i + 1:02d},{v}" for i, v in enumerate([1, 2, -3, 4, 5, 6, 7, 8]))
        path.write_text("date,cases\n" + rows + "\n")
        with pytest.raises(ValueError, match="negative count"):
            series.load_series_csv(path)

    def test_ingestion_rejects_short_series(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("date,cases\n2020-03-01,1\n2020-03-02,2\n")
        with pytest.raises(ValueError, match="at least"):
            series.load_series_csv(path)

    def test_csv_round_trip(self, tmp_path):
        s = make_series([0, 1, 2, 3, 10, 5, 6, 7])
        path = tmp_path / "s.csv"
        path.write_text("date,cases\n" + "".join(f"{d.isoformat()},{v:g}\n"
                                                  for d, v in zip(s.dates, s.values)))
        back = series.load_series_csv(path)
        assert back.dates == s.dates
        np.testing.assert_array_equal(back.values, s.values)

    def test_csv_finds_columns_by_name(self, tmp_path):
        # header names match after strip().lower(); other named columns and
        # blank or whitespace-only lines are ignored
        path = tmp_path / "s.csv"
        path.write_text(" Cases ,note,DATE\n" + "".join(
            f"{v},x,2020-03-{i + 1:02d}\n" + ("\n" if i == 2 else "   \n" if i == 5 else "")
            for i, v in enumerate([4, 1, 2, 3, 10, 5, 6, 7])))
        back = series.load_series_csv(path)
        assert back.dates[0] == dt.date(2020, 3, 1) and back.n == 8
        np.testing.assert_array_equal(back.values, [4, 1, 2, 3, 10, 5, 6, 7])

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("day,count\n2020-03-01,5\n")
        with pytest.raises(ValueError, match="header"):
            series.load_series_csv(path)


class TestDifference:
    def test_linear_ramp_first_difference(self):
        np.testing.assert_array_equal(diff_values(np.array([1.0, 2, 3, 4]), 1), [1, 1, 1])

    def test_d0_identity(self):
        x = np.array([3.0, 1, 4, 1, 5])
        np.testing.assert_array_equal(diff_values(x, 0), x)

    def test_second_difference_matches_twice_applied(self):
        x = np.array([1.0, 4, 9, 16, 25])
        np.testing.assert_array_equal(diff_values(x, 2), [2, 2, 2])
        np.testing.assert_array_equal(diff_values(diff_values(x, 1), 1), diff_values(x, 2))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            diff_values(np.array([1.0, 2.0]), 2)

    def test_inverse_examples(self):
        np.testing.assert_array_equal(undiff_values([1, 1, 1], [1], 1), [1, 2, 3, 4])
        np.testing.assert_array_equal(undiff_values([2, 2, 2], [1, 4], 2), [1, 4, 9, 16, 25])

    def test_anchor_count_mismatch(self):
        with pytest.raises(ValueError, match="anchor"):
            undiff_values([1, 1], [1, 2], 1)

    @given(counts, st.integers(min_value=0, max_value=2))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_exact(self, values, d):
        diffed = diff_values(values, d)
        np.testing.assert_array_equal(undiff_values(diffed, values[:d], d), values)


class TestTransform:
    def test_log_examples(self):
        spec = LOG_TRANSFORM
        x = np.array([0.0, np.e - 1, np.e**2 - 1])
        np.testing.assert_allclose(spec.forward(x), [0.0, 1.0, 2.0], atol=1e-12)

    def test_negative_forecast_clips_to_zero(self):
        assert LOG_TRANSFORM.inverse(np.array([-0.3]))[0] == 0.0

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError, match="non-negative"):
            LOG_TRANSFORM.forward(np.array([-1.0]))

    @pytest.mark.parametrize("kind", ["log1p", "log", "Boxcox"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match=f"^unknown transform kind '{kind}'$"):
            TransformSpec(kind)

    @given(counts)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_within_tolerance(self, values):
        for spec in (LOG_TRANSFORM, TransformSpec("none")):
            back = spec.inverse(spec.forward(values))
            np.testing.assert_allclose(back, values, rtol=1e-10, atol=1e-10)
            assert np.all(back >= 0)


class TestAcf:
    def test_lag_zero_is_one(self):
        assert acf(np.array([5.0, 1, 4, 4, 2, 8, 1, 3]), 3)[0] == 1.0

    def test_alternating_series_lag_one(self):
        alt = np.array([1.0, -1.0] * 25)
        # direct formula on the literal sequence: -49/50
        assert acf(alt, 1)[1] == pytest.approx(-0.98, abs=1e-12)

    def test_white_noise_mostly_inside_band(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=1000)
        values = acf(x, 20)[1:]
        inside = np.sum(np.abs(values) < 2 / np.sqrt(1000))
        assert inside >= 18  # >= 90% of 20 lags

    def test_max_lag_validated(self):
        with pytest.raises(ValueError, match="max_lag"):
            acf(np.ones(5), 5)

    @given(counts)
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_pacf_lag1_matches(self, values):
        lags = min(10, len(values) - 1)
        a = acf(values, lags)
        assert np.all(np.abs(a) <= 1.0 + 1e-9)


class TestAdf:
    def test_random_walk_rarely_rejects(self):
        rejects = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            walk = np.cumsum(rng.normal(size=200))
            rejects += adf_test(walk).reject_unit_root
        assert rejects <= 2  # stationary verdict in <= 10% of seeds

    def test_iid_noise_mostly_rejects(self):
        rejects = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rejects += adf_test(rng.normal(size=200)).reject_unit_root
        assert rejects >= 18

    def test_differenced_ramp_is_stationary(self):
        ramp = np.arange(40, dtype=float)
        result = adf_test(diff_values(ramp, 1))
        assert result.reject_unit_root

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 20"):
            adf_test(np.ones(10))

    def test_statistic_invariant_under_shift(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=120)
        base = adf_test(x).statistic
        shifted = adf_test(x + 1e4).statistic
        assert shifted == pytest.approx(base, rel=1e-6)
