"""Estimation, order selection and forecasting checks against simulation and
closed-form oracles."""

import atexit
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import re
import signal
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.signal import lfilter

from epiforecast import arima, metrics, wavelet
from epiforecast.arima import ArimaOrder, fit_arima, forecast_arima, forecast_transformed, select_order
from epiforecast.series import LOG_TRANSFORM, NO_TRANSFORM, diff_values

from conftest import make_series, run_fresh


def sim_ar1(seed, n=500, phi=0.7):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = phi * y[t - 1] + e[t]
    return y


def sim_ma1(seed, n=500, theta=0.8):
    # model convention: w_t = eps_t - theta * eps_{t-1}
    rng = np.random.default_rng(seed)
    eps = rng.normal(size=n + 1)
    return eps[1:] - theta * eps[:-1]


class TestFit:
    def test_ar1_recovery_single_seed(self):
        fit = fit_arima(sim_ar1(42), ArimaOrder(1, 0, 0))
        assert abs(fit.phi[0] - 0.7) < 0.1

    def test_degenerate_model_matches_moments(self):
        rng = np.random.default_rng(3)
        x = rng.normal(loc=5.0, scale=2.0, size=400)
        fit = fit_arima(x, ArimaOrder(0, 0, 0))
        assert fit.intercept == pytest.approx(x.mean(), abs=0.01)
        assert fit.sigma2 == pytest.approx(x.var(), rel=0.02)

    def test_information_criteria_identity(self):
        fit = fit_arima(sim_ar1(1), ArimaOrder(1, 0, 1))
        k = fit.k_params
        n_eff = len(diff_values(fit.transformed, fit.order.d)) - fit.order.p
        assert fit.aic == pytest.approx(-2 * fit.loglik + 2 * k, rel=1e-12)
        assert fit.bic == pytest.approx(-2 * fit.loglik + k * math.log(n_eff), rel=1e-12)

    def test_residuals_reconstruct_differenced_series(self):
        fit = fit_arima(sim_ar1(7), ArimaOrder(2, 0, 1))
        w = diff_values(fit.transformed, fit.order.d)
        np.testing.assert_array_equal(fit.fitted, w - fit.residuals)
        np.testing.assert_allclose(fit.fitted + fit.residuals, w, atol=1e-12)

    def test_residual_mean_near_zero_on_well_specified_model(self):
        fit = fit_arima(sim_ar1(11), ArimaOrder(1, 0, 0))
        resid = fit.residuals[fit.order.p:]
        bound = 3 * resid.std() / np.sqrt(len(resid))
        assert abs(resid.mean()) < bound

    def test_roots_outside_unit_circle(self):
        for seed in (0, 5):
            fit = fit_arima(sim_ma1(seed), ArimaOrder(1, 0, 1))
            assert arima._min_root_modulus(fit.phi) > 1.0
            assert arima._min_root_modulus(fit.theta) > 1.0

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            fit_arima(np.ones(8), ArimaOrder(3, 0, 3))

    def test_parameter_recovery_batch(self):
        ar_miss = sum(
            abs(fit_arima(sim_ar1(seed), ArimaOrder(1, 0, 0)).phi[0] - 0.7) > 0.1
            for seed in range(20)
        )
        ma_miss = sum(
            abs(fit_arima(sim_ma1(seed), ArimaOrder(0, 0, 1)).theta[0] - 0.8) > 0.1
            for seed in range(20)
        )
        assert ar_miss <= 2
        assert ma_miss <= 2

    def test_india_stated_order_rmse_band(self, country_series):
        s = country_series["india"]
        fit = fit_arima(s, ArimaOrder(1, 2, 1), LOG_TRANSFORM)
        rmse = metrics.rmse(s.values, fit.fitted_level())
        assert 50.83 * 0.75 <= rmse <= 50.83 * 1.25


class TestSelectOrder:
    def test_ma1_prefers_moving_average(self):
        hits = 0
        for seed in range(20):
            order = select_order(sim_ma1(seed))
            hits += order.q >= 1 and order.p <= 1
        assert hits > 10

    def test_white_noise_selects_empty_model(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            order = select_order(rng.normal(size=500))
            hits += (order.p, order.q) == (0, 0)
        assert hits > 10

    def test_india_soft_order_check(self, country_series):
        order = select_order(country_series["india"], LOG_TRANSFORM)
        assert abs(order.p - 1) <= 1
        assert abs(order.q - 1) <= 1
        assert order.d in (1, 2)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="at least 20"):
            select_order(np.ones(10))


class TestForecast:
    def test_constant_mean_model(self):
        rng = np.random.default_rng(2)
        x = rng.normal(loc=3.0, size=100)
        fit = fit_arima(x, ArimaOrder(0, 0, 0))
        fc = forecast_transformed(fit, 5)
        np.testing.assert_allclose(fc, fit.intercept)

    def test_random_walk_forecast_is_flat(self):
        s = make_series([1, 5, 2, 8, 3, 9, 4, 10, 6, 11, 7, 12, 8, 13, 9, 14, 10, 15, 11, 16])
        fit = fit_arima(s, ArimaOrder(0, 1, 0), LOG_TRANSFORM)
        fc = forecast_transformed(fit, 6)
        np.testing.assert_allclose(fc, fit.transformed[-1], atol=1e-12)

    def test_ar1_closed_form_recursion(self):
        fit = fit_arima(sim_ar1(9), ArimaOrder(1, 0, 0))
        fc = forecast_transformed(fit, 8)
        # independent closed-form recursion from the fitted parameters
        expected = []
        last = fit.transformed[-1]
        for _ in range(8):
            last = fit.intercept + fit.phi[0] * last
            expected.append(last)
        np.testing.assert_allclose(fc, expected, rtol=1e-12)

    def test_level_forecasts_non_negative_and_deterministic(self, country_series):
        s = country_series["south_korea"]
        fit = fit_arima(s, ArimaOrder(2, 1, 0), LOG_TRANSFORM)
        fc1 = forecast_arima(fit, 10)
        fc2 = forecast_arima(fit, 10)
        assert np.all(fc1 >= 0)
        np.testing.assert_array_equal(fc1, fc2)

    def test_invalid_horizon(self):
        fit = fit_arima(sim_ar1(0), ArimaOrder(1, 0, 0))
        with pytest.raises(ValueError, match="horizon"):
            forecast_arima(fit, 0)


# Reference estimator: the objective, barrier and residual recursion as they
# were before the simplex moved into the package, minimised by SciPy's
# Nelder-Mead. The package must reproduce it bit for bit.


def _ref_stability_violation(coeffs, limit: float = 1.0 - arima._ROOT_MARGIN) -> float:
    a = [float(c) for c in coeffs]
    while a and a[-1] == 0.0:
        a.pop()
    for i in range(len(a), 0, -1):
        k = a[i - 1]
        if not math.isfinite(k):
            return 1e6
        if abs(k) >= limit:
            return abs(k) - limit + 1e-9
        denom = 1.0 - k * k
        a = [(a[j] + k * a[i - 2 - j]) / denom for j in range(i - 1)]
    return 0.0


def _ref_css_residuals(w, phi, theta, intercept):
    u = w - intercept
    for i in range(1, len(phi) + 1):
        u[i:] -= phi[i - 1] * w[:-i]
    if len(theta):
        u = lfilter([1.0], np.concatenate([[1.0], -theta]), u)
    return u


def _ref_objective(params, w, p, q, use_intercept, n_cond):
    idx = 0
    intercept = 0.0
    if use_intercept:
        intercept = params[0]
        idx = 1
    phi = params[idx : idx + p]
    theta = params[idx + p : idx + p + q]
    violation = _ref_stability_violation(phi) + _ref_stability_violation(theta)
    eps = _ref_css_residuals(w, phi, theta, intercept)
    sse = float(np.dot(eps[n_cond:], eps[n_cond:]))
    if violation > 0.0:
        sse = sse * (1.0 + 100.0 * violation) + violation
    return math.log(max(sse, 1e-300))


def _ref_minimize(x0, args, maxiter):
    return minimize(_ref_objective, x0, args=args, method="Nelder-Mead",
                    options={"maxiter": maxiter, "xatol": 1e-4, "fatol": 1e-8})


def _ref_estimate(w, p, q, use_intercept, n_cond):
    """The estimator's restart schedule around the reference minimiser;
    None where it gives up."""
    nparams = int(use_intercept) + p + q
    if nparams == 0 or (np.ptp(w) == 0.0 and (use_intercept or w[0] == 0.0)):
        return arima._estimate(w, p, q, use_intercept, n_cond)
    args = (w, p, q, use_intercept, n_cond)
    budget = 150 + 100 * nparams
    with np.errstate(over="ignore", invalid="ignore"):
        results = [_ref_minimize(np.zeros(nparams), args, budget)]
        best = results[0]
        for delta in (0.1, -0.1):
            res = _ref_minimize(best.x + delta, args, budget)
            results.append(res)
            if res.fun < best.fun:
                best = res
        converged = any(r.success for r in results)
        if not converged:
            retry = _ref_minimize(best.x, args, budget * 4)
            if retry.fun <= best.fun:
                best = retry
            converged = retry.success
            if not converged:
                return None
    idx = int(use_intercept)
    intercept = float(best.x[0]) if use_intercept else 0.0
    return best.x[idx : idx + p], best.x[idx + p : idx + p + q], intercept


def _bits(estimate):
    """Byte-exact fingerprint of an _estimate result (None when it gave up)."""
    if estimate is None:
        return None
    phi, theta, intercept = estimate
    return phi.tobytes(), theta.tobytes(), float(intercept).hex()


def _package_estimate(w, p, q, use_intercept, n_cond):
    try:
        return arima._estimate(w, p, q, use_intercept, n_cond)
    except arima.ConvergenceError:
        return None


def _assert_grid_matches_reference(w, max_p, max_q, use_intercept):
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            args = (w, p, q, use_intercept, max_p)
            assert _bits(_package_estimate(*args)) == _bits(_ref_estimate(*args)), (p, q)


class TestSimplexParity:
    def test_bundled_log_grid(self, country_series):
        z = LOG_TRANSFORM.forward(country_series["india"].values)
        d = arima._select_d(z)
        _assert_grid_matches_reference(diff_values(z, d), arima.MAX_P, arima.MAX_Q, d == 0)

    def test_raw_count_sub_series_grid(self, country_series):
        values = country_series["india"].values
        dec = wavelet.modwt(values, wavelet.decomposition_level(len(values)))
        order = wavelet.SUBSERIES_MAX_ORDER
        _assert_grid_matches_reference(dec.details[0], order, order, True)

    @pytest.mark.parametrize("w, p, q", [(sim_ar1(42), 1, 0), (sim_ma1(0), 0, 1)])
    def test_n500_simulations(self, w, p, q):
        args = (w, p, q, True, p)
        assert _bits(_package_estimate(*args)) == _bits(_ref_estimate(*args))

    @pytest.mark.parametrize("p, q", [(1, 0), (3, 2), (5, 1)])
    def test_per_lag_cells(self, p, q):
        # at the length threshold, where `_estimate` takes the per-lag AR step
        w = sim_ar1(3, n=arima._PER_LAG_MIN_N, phi=0.5) + sim_ma1(4, n=arima._PER_LAG_MIN_N)
        args = (w, p, q, True, arima.MAX_P)
        assert _bits(_package_estimate(*args)) == _bits(_ref_estimate(*args))

    @pytest.mark.parametrize("x0", [np.zeros(4), np.full(4, 0.1)])
    def test_single_runs_match_minimize(self, country_series, x0):
        w = diff_values(LOG_TRANSFORM.forward(country_series["uk"].values), 1)
        args = (w, 2, 1, True, 5)
        for maxiter in (12, 550):  # exhausted, then converged
            ref = _ref_minimize(x0, args, maxiter)
            x, fun, success = arima._nelder_mead(
                arima._objective, x0, arima._objective_for(*args), maxiter)
            assert x.tobytes() == ref.x.tobytes()
            assert float(fun).hex() == float(ref.fun).hex()
            assert success == ref.success == (maxiter == 550)

    def test_stability_violation_matches_reference(self):
        rng = np.random.default_rng(0)
        limit = 1.0 - arima._ROOT_MARGIN
        special = [0.0, -0.0, limit, -limit, np.nextafter(limit, 0.0), np.nextafter(limit, 2.0),
                   0.99, -0.99, 1.0, np.inf, -np.inf, np.nan]
        for _ in range(10_000):
            k = int(rng.integers(0, 6))
            coeffs = rng.uniform(-1.0, 1.0, k) * rng.choice([0.2, 0.5, 1.0, 2.0])
            for i in range(k):
                if rng.random() < 0.15:
                    coeffs[i] = rng.choice(special)
            if k and rng.random() < 0.1:
                coeffs[-1] = 0.0
            total = np.abs(coeffs).sum()
            if 0.0 < total < np.inf and rng.random() < 0.1:
                coeffs *= 0.99 / total  # on the shortcut's threshold
            values = coeffs.tolist()
            snapshot = list(values)
            expected = _ref_stability_violation(values)
            assert arima._stability_violation(values) == expected, values
            assert values == snapshot  # the argument is left untouched

    @staticmethod
    def _random_cases(rng, count, lengths=(20, 64, 990)):
        """(w, phi, theta, intercept) with signed zeros in w, negative and
        non-finite coefficients, p, q <= 5 and n drawn from `lengths`."""
        special = [np.inf, -np.inf, np.nan, -0.0, 0.0]
        for _ in range(count):
            n = int(rng.choice(lengths))
            p, q = (int(v) for v in rng.integers(0, 6, 2))
            w = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3])
            w[rng.random(n) < 0.2] = -0.0
            w[rng.random(n) < 0.05] = 0.0
            phi = rng.uniform(-1.2, 1.2, p)
            theta = rng.uniform(-1.2, 1.2, q)
            intercept = float(rng.choice([0.0, -0.0, rng.normal()]))
            if rng.random() < 0.2:
                coeffs = np.concatenate([[intercept], phi, theta])
                coeffs[rng.integers(0, len(coeffs))] = rng.choice(special)
                intercept, phi, theta = float(coeffs[0]), coeffs[1 : 1 + p], coeffs[1 + p :]
            yield w, phi, theta, intercept

    def test_css_residuals_match_reference(self):
        rng = np.random.default_rng(7)
        with np.errstate(all="ignore"):
            for w, phi, theta, intercept in self._random_cases(rng, 600):
                expected = _ref_css_residuals(w, phi, theta, intercept)
                got = arima._css_residuals(w, phi, theta, intercept)
                assert got.tobytes() == expected.tobytes(), (len(w), phi, theta, intercept)

    def test_objective_matches_reference(self):
        # both AR step forms: the stacked one below the length threshold, the
        # per-lag one from it on
        threshold = arima._PER_LAG_MIN_N
        lengths = (20, 64, threshold - 1, threshold, 990)
        rng = np.random.default_rng(8)
        with np.errstate(all="ignore"):
            for w, phi, theta, intercept in self._random_cases(rng, 600, lengths):
                p, q = len(phi), len(theta)
                use_intercept = bool(rng.random() < 0.5)
                params = np.concatenate([[intercept] if use_intercept else [], phi, theta])
                if len(params) == 0:
                    continue
                args = (w, p, q, use_intercept, int(rng.integers(p, p + 3)))
                expected = _ref_objective(params, *args)
                got = arima._objective(params.tolist(), *arima._objective_for(*args))
                assert float(got).hex() == float(expected).hex(), (args[1:], params)

    @pytest.mark.parametrize("name", ["plateaus", "non_finite", "late_ties", "late_nan"])
    def test_ties_and_non_finite_values_match_minimize(self, name):
        def plateaus(x):
            # piecewise constant: vertices tie in runs, which argsort need not
            # keep in order
            return float(np.floor(16.0 * np.sum((np.asarray(x) - 0.3) ** 2)))

        def non_finite(x):
            # NaN below the diagonal x[1] < x[0], so that NaN vertices survive
            # a shrink toward a best vertex on it, and inf beyond x[0] = 1.5;
            # flat in the last coordinate, which may start at +-inf
            x = np.asarray(x)
            if len(x) > 1 and x[1] < x[0]:
                return math.nan
            if x[0] > 1.5:
                return math.inf
            return float(np.floor(8.0 * np.sum((x[:-1] - 0.7) ** 2)))

        def late_ties(x):
            # a smooth bowl with a flat floor of +-0: ties appear only once
            # the simplex has descended onto it
            x = np.asarray(x)
            s = float(np.sum((x - 1.0) ** 2)) - 0.04
            if s > 0.0:
                return s
            return -0.0 if x[0] < 1.0 else 0.0

        def late_nan(x):
            # smooth but not convex, and NaN on stripes across x[0]: NaN values
            # appear after tie-free iterations, and contractions fail, so the
            # simplex shrinks
            x = np.asarray(x)
            if (4.0 * x[0]) % 1.0 < 0.25:
                return math.nan
            return float(np.sum((x - 1.5) ** 2 + 0.3 * np.sin(9.0 * x)))

        func = {"plateaus": plateaus, "non_finite": non_finite,
                "late_ties": late_ties, "late_nan": late_nan}[name]
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            if rng.random() < 0.5:
                x0 = rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0, 1.25], n)
            else:
                x0 = rng.uniform(-1.0, 2.0, n)
            if name == "non_finite" and rng.random() < 0.3:
                x0[-1] = rng.choice([np.inf, -np.inf])
            maxiter = int(rng.choice([5, 30, 400]))
            with np.errstate(all="ignore"):
                ref = minimize(func, x0, method="Nelder-Mead",
                               options={"maxiter": maxiter, "xatol": 1e-4, "fatol": 1e-8})
                x, fun, success = arima._nelder_mead(func, x0, (), maxiter)
            assert x.tobytes() == ref.x.tobytes(), (x0, maxiter)
            assert float(fun).hex() == float(ref.fun).hex(), (x0, maxiter)
            assert success == ref.success, (x0, maxiter)


class TestProbeWarnings:
    def test_overflowing_probes_stay_silent_and_match_reference(self):
        # explosive MA probes on a long, large-amplitude series overflow the
        # residual recursion; the objective is meant to be inf there
        x = 1e3 * np.sin(2.0 * np.pi * np.arange(1000) / 32.0)
        args = (x, 0, 3, True, 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _ref_objective(np.array([0.0, -1.5, 0.0, 0.0]), *args)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _package_estimate(*args)
            fit = fit_arima(x, ArimaOrder(0, 0, 3), n_condition=3)
        assert _bits(got) == _bits(_ref_estimate(*args))
        assert fit.theta.tobytes() == got[1].tobytes()


# Reference undifferencing: the per-step binomial loops of `fitted_transformed`
# and `forecast_transformed` from before both were built on whole-array
# integration.


def _ref_fitted_transformed(fit):
    d = fit.order.d
    z = fit.transformed
    out = z.copy()
    if d == 0:
        out[:] = fit.fitted
        return out
    pred_w = fit.fitted
    coeffs = [math.comb(d, j) * (-1) ** (j + 1) for j in range(1, d + 1)]
    for t in range(d, len(z)):
        out[t] = pred_w[t - d] + sum(c * z[t - j] for j, c in enumerate(coeffs, start=1))
    return out


def _ref_forecast_transformed(fit, h):
    d = fit.order.d
    wf = arima._forecast_diffed(fit, h)
    if d == 0:
        return wf
    tail = list(fit.transformed[-d:])
    coeffs = [math.comb(d, j) * (-1) ** (j + 1) for j in range(1, d + 1)]
    out = np.empty(h)
    for step in range(h):
        level = wf[step] + sum(c * tail[-j] for j, c in enumerate(coeffs, start=1))
        out[step] = level
        tail.append(level)
    return out


def _undiff_fits(d):
    """Log-scale fits of order (p, d, q) on growing count series."""
    fits = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        counts = np.round(20.0 * np.exp(rng.normal(0.05, 0.1, 60).cumsum()))
        for p, q in ((0, 0), (1, 1), (2, 1)):
            fits.append(fit_arima(counts, ArimaOrder(p, d, q), LOG_TRANSFORM))
    return fits


class TestUndifferencingParity:
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_fitted_transformed_bit_identical(self, d):
        for fit in _undiff_fits(d):
            assert fit.fitted_transformed().tobytes() == _ref_fitted_transformed(fit).tobytes()

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_forecast_transformed(self, d):
        for fit in _undiff_fits(d):
            got = forecast_transformed(fit, 12)
            expected = _ref_forecast_transformed(fit, 12)
            if d < 2:
                assert got.tobytes() == expected.tobytes()
            else:
                # two cumulative sums round differently from the binomial
                # weights 2, -1 in the last bits
                np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _india_grid_jobs(country_series):
    """The India log-scale grid, then the grids of its raw-count sub-series."""
    values = country_series["india"].values
    jobs = arima._order_grid(values, LOG_TRANSFORM, arima.MAX_P, arima.MAX_Q, None)
    dec = wavelet.modwt(values, wavelet.decomposition_level(len(values)))
    order = wavelet.SUBSERIES_MAX_ORDER
    for sub in [*dec.details, dec.smooth]:
        jobs += arima._order_grid(sub, NO_TRANSFORM, order, order, force_d=0)
    return jobs


def _pickled(results):
    return [pickle.dumps(r) for r in results]


def _thread_errors(monkeypatch):
    """The uncaught exceptions of other threads from now on, such as the
    executor's own thread failing a future a caller cancelled."""
    errors = []
    monkeypatch.setattr(threading, "excepthook", errors.append)
    return errors


class _KillsOtherProcesses:
    """A series whose `values` SIGKILLs any process but the one that made it."""

    def __init__(self, values):
        self._values = values
        self._pid = os.getpid()

    @property
    def values(self):
        if os.getpid() != self._pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return self._values


def _kill_workers():
    for child in multiprocessing.active_children():
        # killing one worker can make the executor reap its siblings before
        # the loop reaches them; kill() skips a reaped child, os.kill would
        # raise ProcessLookupError
        child.kill()
        # the sentinel is ready once the child is gone, whoever reaps it
        assert multiprocessing.connection.wait([child.sentinel], timeout=30) == [child.sentinel]


def _select_in_pool_worker(values):
    return select_order(values, max_p=2, max_q=2), arima._cell_pool()


needs_two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                    reason="the worker pool needs two usable CPUs")


class TestCellScheduler:
    @pytest.fixture(autouse=True)
    def _own_pool(self):
        # a pool one test broke or left busy never reaches the next test
        yield
        if arima._pool is not None:
            arima._pool[1].shutdown()
        arima._pool = None

    @needs_two_cpus
    def test_pool_matches_main_process_bit_for_bit(self, country_series, monkeypatch):
        jobs = _india_grid_jobs(country_series)
        pooled = arima._fit_cells(jobs)
        # fork starts every worker with the pool: one per usable CPU
        assert len(multiprocessing.active_children()) == len(os.sched_getaffinity(0))
        with monkeypatch.context() as m:
            _one_cpu(m)
            in_process = arima._fit_cells(jobs)
        assert [pickle.dumps(r) for r in pooled] == [pickle.dumps(r) for r in in_process]
        assert [r.order for r in pooled] == [job[1] for job in jobs]

    @needs_two_cpus
    def test_workers_run_at_lowest_priority(self):
        executor = arima._cell_pool()
        # a job runs after the worker's initializer, so it sees its niceness
        niceness = [executor.submit(os.getpriority, os.PRIO_PROCESS, 0) for _ in range(8)]
        assert {future.result() for future in niceness} == {19}

    @needs_two_cpus
    def test_failures_keep_grid_order_and_first_message(self, monkeypatch):
        # on seven points every cell with p + q >= 5 is too short
        values = sim_ar1(5, n=7)
        jobs = [(values, ArimaOrder(p, 0, q), NO_TRANSFORM, None) for p in range(4) for q in range(4)]
        pooled = arima._fit_cells(jobs)
        with monkeypatch.context() as m:
            _one_cpu(m)
            in_process = arima._fit_cells(jobs)
        described = [(type(r).__name__, str(r)) if isinstance(r, Exception) else r.order
                     for r in pooled]
        assert described == [(type(r).__name__, str(r)) if isinstance(r, Exception) else r.order
                             for r in in_process]
        too_short = [job[1] for job, r in zip(jobs, pooled) if isinstance(r, ValueError)]
        assert too_short == [job[1] for job in jobs if job[1].p + job[1].q >= 5]
        # only failures: the message names the first cell of the grid
        failing = [(values, order, NO_TRANSFORM, 5) for _, order, _, _ in jobs]
        [error] = arima._select([failing], reject_near_unit_roots=True)
        assert isinstance(error, arima.ConvergenceError)
        assert str(error) == ("every (p,q) grid cell failed; first failure: series of "
                              "length 7 too short for ARIMA(0,0,0) estimation")

    @needs_two_cpus
    def test_other_worker_errors_propagate(self):
        values = sim_ar1(6, n=40)
        good = [(values, ArimaOrder(p, 0, 0), NO_TRANSFORM, 2) for p in range(3)]
        # the heaviest job is always a worker's; float(object()) is a TypeError
        bad = (object(), ArimaOrder(0, 0, 5), NO_TRANSFORM, 5)
        with pytest.raises(TypeError) as excinfo:
            arima._fit_cells([*good, bad])
        assert "fit_arima" in str(excinfo.value.__cause__)  # the worker's traceback
        # the pool still serves the next batch
        assert [r.order for r in arima._fit_cells(good)] == [job[1] for job in good]

    @needs_two_cpus
    def test_idle_worker_death_refits_batch_in_main_process(self, monkeypatch, capfd):
        values = sim_ar1(9, n=40)
        jobs = [(values, ArimaOrder(p, 0, q), NO_TRANSFORM, 4) for p in range(3) for q in range(3)]
        with monkeypatch.context() as m:
            _one_cpu(m)
            in_process = _pickled(arima._fit_cells(jobs))
        arima._fit_cells(jobs)  # the pool is up
        broken = arima._pool[1]
        thread_errors = _thread_errors(monkeypatch)
        _kill_workers()
        assert _pickled(arima._fit_cells(jobs)) == in_process
        assert arima._pool is None
        assert _pickled(arima._fit_cells(jobs)) == in_process
        assert arima._pool[1] is not broken  # the next batch forked a new pool
        assert not thread_errors
        assert "Exception in thread" not in capfd.readouterr().err

    @needs_two_cpus
    def test_worker_death_mid_batch_refits_in_main_process(self, monkeypatch, capfd):
        values = sim_ar1(10, n=40)
        jobs = [(values, ArimaOrder(p, 0, 0), NO_TRANSFORM, 3) for p in range(4)]
        # the most coefficients, so a worker takes it first and dies on it
        jobs.append((_KillsOtherProcesses(values), ArimaOrder(1, 0, 2), NO_TRANSFORM, 3))
        with monkeypatch.context() as m:
            _one_cpu(m)
            in_process = _pickled(arima._fit_cells(jobs))
        thread_errors = _thread_errors(monkeypatch)
        assert _pickled(arima._fit_cells(jobs)) == in_process
        assert arima._pool is None
        assert not thread_errors
        assert "Exception in thread" not in capfd.readouterr().err

    @needs_two_cpus
    def test_main_process_fits_no_cell_while_pool_is_up(self, monkeypatch):
        values = sim_ar1(11, n=40)
        jobs = [(values, ArimaOrder(p, 0, q), NO_TRANSFORM, 4) for p in range(3) for q in range(3)]
        expected = [r.order for r in arima._fit_cells(jobs)]  # the pool is up
        assert expected == [job[1] for job in jobs]

        def in_main_process(*args, **kwargs):
            raise AssertionError("the main process fitted a cell")

        # the forked workers keep the real fit_arima
        monkeypatch.setattr(arima, "fit_arima", in_main_process)
        assert [r.order for r in arima._fit_cells(jobs)] == expected

    @needs_two_cpus
    def test_replaced_pools_register_one_exit_hook(self, monkeypatch):
        values = sim_ar1(12, n=40)
        jobs = [(values, ArimaOrder(p, 0, 0), NO_TRANSFORM, 2) for p in range(3)]
        registered = []
        monkeypatch.setattr(atexit, "register", registered.append)
        for _ in range(3):
            arima._fit_cells(jobs)  # the pool is up
            _kill_workers()
            # the main process fits the batch the broken pool dropped
            assert [r.order for r in arima._fit_cells(jobs)] == [job[1] for job in jobs]
            assert arima._pool is None
        assert len(registered) <= 1

    def test_one_cpu_starts_no_process(self, monkeypatch):
        _one_cpu(monkeypatch)
        monkeypatch.setattr(arima, "_pool", None)

        def no_fork():
            raise AssertionError("a process was started")

        monkeypatch.setattr(os, "fork", no_fork)
        assert select_order(sim_ar1(7, n=60), max_p=2, max_q=2, force_d=0) == ArimaOrder(1, 0, 0)
        assert arima._pool is None

    def test_select_order_inside_pool_worker(self):
        values = sim_ar1(8, n=60)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            order, worker_pool = pool.apply_async(_select_in_pool_worker, (values,)).get(timeout=120)
        assert worker_pool is None  # a daemonic worker fits every cell itself
        assert order == select_order(values, max_p=2, max_q=2)


_RISKTREE_MODULES = """
import sys
from importlib import resources
import epiforecast
from epiforecast import cli
table = resources.files("epiforecast") / "data" / "cfr_countries.csv"
assert cli.main(["risktree", str(table), "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m == "scipy.signal" or m.endswith("_sigtools")))
"""

_LFILTER_PARITY = """
import numpy as np
from epiforecast import arima
import scipy.signal
assert isinstance(scipy.signal._sigtools._linear_filter, type(len))
rng = np.random.default_rng(20260)
cases = 0
for n in (20, 21, 64, 333, 990, 1000):
    for q in range(1, 6):
        for _ in range(4):
            den = np.concatenate([[1.0], -rng.uniform(-0.9, 0.9, q) / q])
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 9)
            want = scipy.signal.lfilter([1.0], den, x)
            assert want.tobytes() == arima._linear_filter(arima._ONE, den, x, -1).tobytes(), (n, q)
            cases += 1
print(cases)
"""


class TestKernelLoader:
    def test_risktree_process_never_imports_scipy_signal(self, tmp_path):
        assert run_fresh(_RISKTREE_MODULES, tmp_path).splitlines()[-1] == "[]"
        assert (tmp_path / "risktree.json").is_file()

    def test_later_scipy_signal_import_is_whole_and_matches_lfilter(self):
        assert run_fresh(_LFILTER_PARITY).split() == ["120"]

    def test_loaded_module_is_reused(self):
        import scipy.signal

        assert arima._load_linear_filter([]) is scipy.signal._sigtools._linear_filter

    def test_missing_extension_names_the_directory(self, tmp_path, monkeypatch):
        (tmp_path / "signal").mkdir()
        (tmp_path / "signal" / "_sigtools.py").write_text("")
        monkeypatch.delitem(sys.modules, "scipy.signal._sigtools", raising=False)
        with pytest.raises(ImportError, match=f"in {re.escape(str(tmp_path / 'signal'))}$"):
            arima._load_linear_filter([str(tmp_path)])
        assert "scipy.signal._sigtools" not in sys.modules
