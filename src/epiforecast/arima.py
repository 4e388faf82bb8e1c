"""ARIMA(p,d,q) estimation by conditional sum of squares, order selection and forecasting."""

from __future__ import annotations

import atexit
import math
import os
import sys
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from operator import add, lt, neg

import numpy as np

from .series import NO_TRANSFORM, TransformSpec, adf_test, diff_values, undiff_values, values_of


def _load_linear_filter(scipy_dirs):
    """SciPy's C filter kernel, loaded from `scipy_dirs` without scipy.signal.

    scipy.signal's package init imports scipy.stats, optimize, interpolate and
    spatial: over a second, and most of the process's memory. The extension
    alone is loaded, under its real name, which is then dropped from
    sys.modules, so that a later `import scipy.signal` builds its own module
    and binds it as an attribute. If it is loaded already, that one is used.
    """
    name = "scipy.signal._sigtools"
    if name in sys.modules:
        return sys.modules[name]._linear_filter
    searched = [os.path.join(d, "signal") for d in scipy_dirs]
    for directory in searched:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(directory, "_sigtools" + suffix)
            if os.path.isfile(path):
                spec = spec_from_file_location(name, path, loader=ExtensionFileLoader(name, path))
                try:
                    module = module_from_spec(spec)
                    spec.loader.exec_module(module)
                finally:
                    sys.modules.pop(name, None)
                return module._linear_filter
    raise ImportError(f"no {name} extension module in "
                      f"{', '.join(searched) or '(scipy is not installed)'}", name=name)


_linear_filter = _load_linear_filter(getattr(find_spec("scipy"), "submodule_search_locations", ()))

# the residual recursion has no compiled kernel; reports still print this flag
HAVE_NUMBA = False

MAX_P = 5
MAX_D = 2
MAX_Q = 5

_ROOT_MARGIN = 1e-3
_REFLECTION_LIMIT = 1.0 - _ROOT_MARGIN
# selection refuses candidates whose fitted roots crowd the unit circle;
# such optima are boundary artifacts, not identifiable dynamics
_SELECTION_MIN_ROOT = 1.01
# numerator of the MA filter 1 / theta(B), run by `_linear_filter`: SciPy's
# C filter kernel, which its public filter function calls for a denominator
# of length >= 2 and no initial state. Called directly, it gives the same
# output without the wrapper's dispatch and checks, which cost more than the
# kernel itself on series of about 60 values
_ONE = np.ones(1)
_ONE.flags.writeable = False


class ConvergenceError(RuntimeError):
    """Raised when the simplex optimizer fails to settle within the restart budget."""


@dataclass(frozen=True)
class ArimaOrder:
    p: int
    d: int
    q: int

    def __post_init__(self):
        for name, value, cap in (("p", self.p, MAX_P), ("d", self.d, MAX_D), ("q", self.q, MAX_Q)):
            if not 0 <= value <= cap:
                raise ValueError(f"order {name}={value} outside 0..{cap}")

    def __iter__(self):
        return iter((self.p, self.d, self.q))


@dataclass
class ArimaFit:
    """Fitted ARIMA model.

    Coefficients follow the sign convention
        w_t = intercept + phi_1 w_{t-1} + ... + eps_t - theta_1 eps_{t-1} - ...
    on the transformed, d-differenced scale; `residuals` and `fitted` live on
    that same scale and reconstruct it exactly (fitted + residuals == w).
    The first `n_cond` residuals are conditioned on; sigma2, the likelihood
    and the criteria score the rest, each by one residual pass.
    """

    order: ArimaOrder
    phi: np.ndarray
    theta: np.ndarray
    intercept: float
    n_cond: int
    transform: TransformSpec
    transformed: np.ndarray = field(repr=False)

    @property
    def residuals(self) -> np.ndarray:
        cell = _objective_for(self._diffed(), self.order.p, self.order.q, self.n_cond)[3]
        return _residuals(self.phi, self.theta, self.intercept, cell)

    @property
    def _n_eff(self) -> int:
        return len(self.transformed) - self.order.d - self.n_cond

    @property
    def sigma2(self) -> float:
        eps, n_cond = self.residuals, self.n_cond
        return max(float(np.dot(eps[n_cond:], eps[n_cond:])) / self._n_eff, 1e-300)

    @property
    def loglik(self) -> float:
        return -0.5 * self._n_eff * (math.log(2.0 * math.pi * self.sigma2) + 1.0)

    # k counts the coefficients, sigma2 and the intercept that d == 0 fits
    @property
    def aic(self) -> float:
        p, d, q = self.order
        return -2.0 * self.loglik + 2.0 * (p + q + 1 + (d == 0))

    @property
    def bic(self) -> float:
        p, d, q = self.order
        return -2.0 * self.loglik + (p + q + 1 + (d == 0)) * math.log(self._n_eff)

    @property
    def min_root_modulus(self) -> float:
        return min(_min_root_modulus(self.phi), _min_root_modulus(self.theta))

    @property
    def fitted(self) -> np.ndarray:
        return self._diffed() - self.residuals

    def _diffed(self) -> np.ndarray:
        return diff_values(self.transformed, self.order.d)

    def fitted_transformed(self) -> np.ndarray:
        """One-step in-sample predictions on the transformed (undifferenced)
        scale: the data less the one-step errors. The first d points have no
        prediction and are carried over from the data, so actual - fitted is
        exactly zero there."""
        out = self.transformed.copy()
        out[self.order.d:] -= self.residuals
        return out

    def fitted_level(self) -> np.ndarray:
        """In-sample predictions back on the original level scale."""
        return self.transform.inverse(self.fitted_transformed())

    def to_dict(self) -> dict:
        return {
            "order": {"p": self.order.p, "d": self.order.d, "q": self.order.q},
            "ar_coefficients": [float(v) for v in self.phi],
            "ma_coefficients": [float(v) for v in self.theta],
            "intercept": float(self.intercept),
            "sigma2": float(self.sigma2),
            "aic": float(self.aic),
            "bic": float(self.bic),
            "loglik": float(self.loglik),
            "transform": self.transform.kind,
        }


def _min_root_modulus(coeffs: np.ndarray) -> float:
    """Smallest root modulus of 1 - c_1 z - ... - c_k z^k (inf when k == 0)."""
    coeffs = np.asarray(coeffs, dtype=float)
    trimmed = np.trim_zeros(coeffs, "b")
    if len(trimmed) == 0:
        return float("inf")
    poly = np.concatenate([[1.0], -trimmed])[::-1]
    return float(np.abs(np.roots(poly)).min())


def _stability_violation(coeffs) -> float:
    """Schur-Cohn step-down check for 1 - c_1 z - ... - c_k z^k.

    Zero iff every reflection coefficient stays below `_REFLECTION_LIMIT`
    in magnitude, which keeps all polynomial roots strictly outside the unit
    circle; otherwise a positive penalty that grows with the excess.

    `coeffs` is a list of floats. A step-down maps S = sum|c| to at most
    (S - |k|) / (1 - |k|) <= S, so every reflection coefficient is bounded
    by S: `_objective` skips the check when S <= 0.99, where it returns 0.
    """
    a = coeffs
    while a and a[-1] == 0.0:
        a = a[:-1]
    n = len(a)
    k = a[-1] if n else 0.0
    while n:
        if not abs(k) < _REFLECTION_LIMIT:
            return abs(k) - _REFLECTION_LIMIT + 1e-9 if math.isfinite(k) else 1e6
        n -= 1
        if n == 1:
            # the last level has one coefficient: no list to build
            k = (a[0] + k * a[0]) / (1.0 - k * k)
        elif n:
            denom = 1.0 - k * k
            a = [(a[j] + k * a[n - 1 - j]) / denom for j in range(n)]
            k = a[-1]
    return 0.0


def _objective_for(w: np.ndarray, p: int, q: int, n_cond: int) -> tuple:
    """The args of `_objective` for one (p, q) cell, built once per fit: p, q,
    `n_cond` and the cell (w, lags, out) that `_residuals` fills: a full-length
    buffer `out` and, per lag i, the pair (`out[i:]`, w lagged by i)."""
    n = len(w)
    out = np.empty(n)
    return p, q, n_cond, (w, [(out[i:], w[: n - i]) for i in range(1, p + 1)], out)


def _residuals(phi, theta, intercept: float, cell: tuple) -> np.ndarray:
    """Conditional residual recursion with zero pre-sample values in `cell`:
    w - intercept, minus phi_i times w lagged by i lag by lag, MA-filtered."""
    w, lags, out = cell
    np.subtract(w, intercept, out)
    for c, (head, lagged) in zip(phi, lags):
        head -= c * lagged
    if len(theta):
        return _linear_filter(_ONE, np.array([1.0, *map(neg, theta)]), out, -1)
    return out


def _objective(params: list, p: int, q: int, skip: int, cell: tuple) -> float:
    """log CSS at `params` = ([intercept], phi_1..phi_p, theta_1..theta_q),
    scored from residual `skip` on, plus a barrier outside the invertible,
    stationary region; the rest are the args `_objective_for` builds."""
    k = len(params) - q
    phi, theta = params[k - p : k], params[k:]
    violation = 0.0
    if not sum(map(abs, phi)) <= 0.99:
        violation = _stability_violation(phi)
    if not sum(map(abs, theta)) <= 0.99:
        violation += _stability_violation(theta)
    eps = _residuals(phi, theta, params[0] if k > p else 0.0, cell)[skip:]
    sse = float(np.dot(eps, eps))
    if violation > 0.0:
        sse = sse * (1.0 + 100.0 * violation) + violation
    return math.log(max(sse, 1e-300))


def _nelder_mead(func, x0: np.ndarray, args: tuple, maxiter: int):
    """Minimise func(x, *args) from x0; return (x, fun, success).

    SciPy's `minimize(method="Nelder-Mead", options={"xatol": 1e-4,
    "fatol": 1e-8})` without bounds, adaptive coefficients or an evaluation
    limit, operation for operation, so results match it bit for bit. The
    coefficients rho=1, chi=2, psi=0.5, sigma=0.5 are folded into the
    literals (multiplying by 1 is exact). Success means the xatol/fatol test
    passed before `maxiter` iterations.

    Vertices are lists of floats and `func` receives them as lists: on at
    most a dozen coordinates, numpy calls cost more than the arithmetic.
    Each sum runs row by row from the first row, as numpy's reduction does,
    so that signed zeros match.

    An iteration without a shrink replaces only the last vertex. If the
    other N values are strictly increasing and the new value equals none of
    them, the sorted order is unique, so moving the new vertex to its
    `bisect_left` place gives `np.argsort`'s permutation. Otherwise (a
    shrink, a tie, ±0 included, or NaN among the N values) the re-sort is
    `np.argsort`: it is not stable on ties, and no Python sort reproduces
    its order. A new value cannot be NaN: each branch keeps a value only
    after it compared below another.
    """
    N = len(x0)
    x0 = x0.tolist()
    sim = [x0]
    for k in range(N):
        vertex = list(x0)
        vertex[k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
        sim.append(vertex)
    fsim = [func(x, *args) for x in sim]
    # SciPy sorts a second time here; argsort need not be stable, so a
    # second pass may reorder ties and stays for bit-identical results
    for _ in range(2):
        ind = np.array(fsim).argsort().tolist()
        sim = [sim[i] for i in ind]
        fsim = [fsim[i] for i in ind]
    # fsim[:N] strictly increasing: no tie and, for N >= 2, no NaN; a lone
    # NaN first value means every value is NaN, and then every iteration shrinks
    ordered = all(map(lt, fsim[: N - 1], fsim[1:N]))

    iterations = 1
    while iterations < maxiter:
        best = sim[0]
        # fsim is sorted, NaN last, so fsim[-1] - fsim[0] is the largest
        # |fsim[0] - fsim[j]|, and NaN fails the test as numpy's max does
        if (fsim[-1] - fsim[0] <= 1e-8
                and all(abs(v - b) <= 1e-4 for x in sim[1:] for v, b in zip(x, best))):
            break
        xbar = best
        for x in sim[1:-1]:
            xbar = list(map(add, xbar, x))
        xbar = [v / N for v in xbar]
        worst = sim[-1]
        xr = [2.0 * b - v for b, v in zip(xbar, worst)]
        fxr = func(xr, *args)
        if fxr < fsim[0]:
            xe = [3.0 * b - 2.0 * v for b, v in zip(xbar, worst)]
            fxe = func(xe, *args)
            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        else:
            if fxr < fsim[-1]:
                # outside contraction
                xc = [1.5 * b - 0.5 * v for b, v in zip(xbar, worst)]
                fxc = func(xc, *args)
                doshrink = not fxc <= fxr
                if not doshrink:
                    sim[-1] = xc
                    fsim[-1] = fxc
            else:
                # inside contraction
                xcc = [0.5 * b + 0.5 * v for b, v in zip(xbar, worst)]
                fxcc = func(xcc, *args)
                doshrink = not fxcc < fsim[-1]
                if not doshrink:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
            if doshrink:
                for j in range(1, N + 1):
                    sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                    fsim[j] = func(sim[j], *args)
                ordered = False
        iterations += 1
        if ordered:
            j = bisect_left(fsim, fsim[-1], 0, N)
            ordered = j == N or fsim[j] != fsim[-1]
            if ordered and j < N:
                sim.insert(j, sim.pop())
                fsim.insert(j, fsim.pop())
        if not ordered:
            ind = np.array(fsim).argsort().tolist()
            sim = [sim[i] for i in ind]
            fsim = [fsim[i] for i in ind]
            ordered = all(map(lt, fsim[: N - 1], fsim[1:N]))
    return np.array(sim[0]), np.min(fsim), iterations < maxiter


def _estimate(w: np.ndarray, p: int, q: int, use_intercept: bool, n_cond: int):
    nparams = int(use_intercept) + p + q
    if nparams == 0:
        return np.empty(0), np.empty(0), 0.0

    if np.ptp(w) == 0.0 and (use_intercept or w[0] == 0.0):
        intercept = float(w[0]) if use_intercept else 0.0
        return np.zeros(p), np.zeros(q), intercept

    args = _objective_for(w, p, q, n_cond)
    budget = 150 + 100 * nparams
    # probe points far outside the stationary region overflow the residual
    # recursion; the objective is meant to be inf or nan there
    with np.errstate(over="ignore", invalid="ignore"):
        x, fun, converged = _nelder_mead(_objective, np.zeros(nparams), args, budget)
        for delta in (0.1, -0.1):
            x_r, fun_r, success = _nelder_mead(_objective, x + delta, args, budget)
            converged = converged or success
            if fun_r < fun:
                x, fun = x_r, fun_r
        if not converged:
            x_r, fun_r, converged = _nelder_mead(_objective, x, args, budget * 4)
            if fun_r <= fun:
                x = x_r
            if not converged:
                raise ConvergenceError(
                    f"simplex failed to converge for p={p}, q={q} after restart budget"
                )
    idx = 0
    intercept = 0.0
    if use_intercept:
        intercept = float(x[0])
        idx = 1
    phi = np.asarray(x[idx : idx + p], dtype=float)
    theta = np.asarray(x[idx + p : idx + p + q], dtype=float)
    return phi, theta, intercept


def fit_arima(
    s,
    order: ArimaOrder,
    transform: TransformSpec = NO_TRANSFORM,
    *,
    n_condition: int | None = None,
) -> ArimaFit:
    """Estimate an ARIMA(p,d,q) on the transformed, differenced series.

    The conditional likelihood skips the first `n_condition` residuals
    (default p). Order selection passes a common value so that criteria stay
    comparable across grid cells.
    """
    values = values_of(s)
    p, d, q = order
    n_cond = p if n_condition is None else max(n_condition, p)
    if len(values) - d <= max(p + q, n_cond) + 2:
        raise ValueError(
            f"series of length {len(values)} too short for ARIMA({p},{d},{q}) estimation"
        )
    z = transform.forward(values)
    phi, theta, intercept = _estimate(diff_values(z, d), p, q, d == 0, n_cond)
    return ArimaFit(order, phi, theta, intercept, n_cond, transform, z)


def select_order(
    s,
    transform: TransformSpec = NO_TRANSFORM,
    *,
    max_p: int = MAX_P,
    max_q: int = MAX_Q,
    force_d: int | None = None,
    reject_near_unit_roots: bool = True,
) -> ArimaOrder:
    """Pick d by unit-root testing and (p,q) by an exhaustive AIC grid.

    Ties on AIC break toward fewer coefficients (smaller p+q), then the
    smaller BIC, then smaller p; the ordering is total so the selection is
    independent of grid evaluation order.

    Candidates whose fitted roots crowd the unit circle are discarded by
    default; callers fitting near-periodic components (where boundary AR is
    the honest model) can disable the gate.
    """
    best = _select([_order_grid(s, transform, max_p, max_q, force_d)], reject_near_unit_roots)[0]
    if isinstance(best, ConvergenceError):
        raise best
    return best.order


def _order_grid(s, transform: TransformSpec, max_p: int, max_q: int, force_d: int | None) -> list:
    """The `fit_arima` jobs of `select_order`'s (p,q) grid, p-major."""
    values = values_of(s)
    if len(values) < 20:
        raise ValueError(f"order selection needs at least 20 observations, got {len(values)}")
    z = transform.forward(values)
    d = force_d if force_d is not None else _select_d(z)
    return [(values, ArimaOrder(p, d, q), transform, max_p)
            for p in range(max_p + 1) for q in range(max_q + 1)]


def _select(grids: list, reject_near_unit_roots: bool) -> list:
    """The fit each grid of `fit_arima` jobs picks, every grid fitted in one
    `_fit_cells` batch: the least (aic, p + q, bic, p, q) among the cells
    that fitted and, if `reject_near_unit_roots`, keep their roots off the
    unit circle. A grid with no such cell gets a ConvergenceError instead.
    A one-cell grid without the gate is a plain refit of its job."""
    results = iter(_fit_cells([job for grid in grids for job in grid]))
    chosen = []
    for grid in grids:
        cells = [next(results) for _ in grid]
        fits = [(r, job) for r, job in zip(cells, grid) if not isinstance(r, Exception)]
        if reject_near_unit_roots:
            fits = [(r, job) for r, job in fits if not r.min_root_modulus < _SELECTION_MIN_ROOT]
        if fits:
            r, (values, _, transform, _) = min(
                fits, key=lambda f: (f[0].aic, f[0].order.p + f[0].order.q, f[0].bic,
                                     f[0].order.p, f[0].order.q))
            # arrays built here share one dtype object, as `fit_arima`'s do, and pickle the same
            chosen.append(ArimaFit(r.order, np.array(r.phi, dtype=float),
                                   np.array(r.theta, dtype=float), r.intercept, r.n_cond,
                                   transform, transform.forward(values_of(values))))
        else:
            failure = next(r for r in cells if isinstance(r, Exception))
            chosen.append(ConvergenceError(f"every (p,q) grid cell failed; first failure: {failure}"))
    return chosen


# (pid, executor) of the grid-cell pool, made on first use
_pool = None


# what a worker sends back of a grid cell's fit: a few numbers, where the whole
# fit holds the transformed series; `_select` builds the chosen fit from them
_Verdict = namedtuple("_Verdict", "order aic bic min_root_modulus phi theta intercept n_cond")


def _fit_cell(job):
    """`fit_arima` on one (values, order, transform, n_condition) job, as a
    `_Verdict`; the errors of a cell that cannot be fitted come back as values."""
    values, order, transform, n_condition = job
    try:
        fit = fit_arima(values, order, transform, n_condition=n_condition)
    except (ValueError, ConvergenceError) as exc:
        return exc
    return _Verdict(order, fit.aic, fit.bic, fit.min_root_modulus, fit.phi.tolist(),
                    fit.theta.tolist(), fit.intercept, fit.n_cond)


@atexit.register
def _shutdown_pool():
    """Shut down the pool this process forked, before interpreter teardown
    would collect the executor after its module is gone and print an error."""
    if _pool is not None and _pool[0] == os.getpid():
        _pool[1].shutdown()


def _cell_pool():
    """The grid-cell executor, one worker per usable CPU, or None where the
    main process must fit every cell itself: one usable CPU, no `fork` start
    method, or a daemonic process, which may not have children."""
    global _pool
    import multiprocessing

    # the CPUs this process may run on; macOS has no affinity call
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    if (workers < 2 or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return None
    # a forked child inherits the parent's executor but none of its threads
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ProcessPoolExecutor

        # fork: workers start at once, with the package already imported;
        # at the lowest priority, so that they never delay the main process
        _pool = (os.getpid(),
                 ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=os.nice, initargs=(19,)))
    return _pool[1]


def _fit_cells(jobs: list) -> list:
    """`_fit_cell` on every job, spread over the usable CPUs; results in input order.

    The pool takes every job at once, heaviest first by coefficient count
    p + q, then q, and the main process only collects the results. If a
    worker dies, say killed for memory, the pool is dropped and the main
    process fits the whole batch again; the next batch forks a new pool.
    """
    global _pool
    executor = _cell_pool() if len(jobs) > 1 else None
    if executor is None:
        return [_fit_cell(job) for job in jobs]
    from concurrent.futures.process import BrokenProcessPool

    heaviest_first = sorted(range(len(jobs)), reverse=True,
                            key=lambda i: (jobs[i][1].p + jobs[i][1].q, jobs[i][1].q))
    try:
        futures = {i: executor.submit(_fit_cell, jobs[i]) for i in heaviest_first}
        return [futures[i].result() for i in range(len(jobs))]
    except BrokenProcessPool:
        executor.shutdown()
        _pool = None
    # a cell comes out the same wherever it is fitted: refit the whole batch here
    return [_fit_cell(job) for job in jobs]


def _select_d(z: np.ndarray) -> int:
    for d in range(MAX_D + 1):
        w = diff_values(z, d)
        try:
            result = adf_test(w)
        except ValueError:
            # too short to keep testing; stop differencing here
            return d
        if result.reject_unit_root:
            return d
    return MAX_D


def _forecast_diffed(fit: ArimaFit, h: int) -> np.ndarray:
    """h-step recursion on the differenced scale with future shocks set to zero."""
    p, _, q = fit.order
    w = fit._diffed()
    eps = fit.residuals
    hist_w = list(w[-p:]) if p else []
    hist_e = list(eps[-q:]) if q else []
    out = np.empty(h)
    for step in range(h):
        pred = fit.intercept
        for i in range(1, p + 1):
            pred += fit.phi[i - 1] * hist_w[-i]
        for j in range(1, q + 1):
            pred -= fit.theta[j - 1] * hist_e[-j]
        out[step] = pred
        if p:
            hist_w.append(pred)
        if q:
            hist_e.append(0.0)
    return out


def forecast_transformed(fit: ArimaFit, h: int) -> np.ndarray:
    """Forecasts on the transformed (pre-differencing) scale, sign-unconstrained."""
    if h < 1:
        raise ValueError(f"forecast horizon must be positive, got {h}")
    d = fit.order.d
    wf = _forecast_diffed(fit, h)
    if d == 0:
        return wf
    return undiff_values(wf, fit.transformed[-d:], d)[d:]


def forecast_arima(fit: ArimaFit, h: int) -> np.ndarray:
    """h point forecasts on the original level scale, clipped at zero."""
    zf = forecast_transformed(fit, h)
    return np.maximum(fit.transform.inverse(zf), 0.0)
