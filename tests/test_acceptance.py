"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import filecmp
import time

import numpy as np

from epiforecast import arima, cli, hybrid, metrics, tree, wavelet
from epiforecast.arima import ArimaOrder
from epiforecast.series import LOG_TRANSFORM, TransformSpec, diff_values, undiff_values, acf

from conftest import make_series
from test_tree import (
    enumerate_pruned_subtrees,
    oracle_best_split,
    oracle_optimal_subtree,
    tree_at_alpha,
)

TABLE2_ARIMA_RMSE = {
    "india": (ArimaOrder(1, 2, 1), 50.83),
    "canada": (ArimaOrder(1, 1, 2), 150.05),
    "france": (ArimaOrder(0, 1, 1), 710.46),
    "south_korea": (ArimaOrder(2, 1, 0), 81.81),
    "uk": (ArimaOrder(2, 2, 2), 209.36),
}

TOP7_VARIABLES = {
    "total_cases_thousands",
    "pct_over_65",
    "population_millions",
    "doctors_per_1000",
    "lockdown_days",
    "outbreak_days",
    "hospital_beds_per_1000",
}


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_modwt_perfect_reconstruction():
    start = time.time()
    rng = np.random.default_rng(20200404)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 513))
        x = rng.normal(size=n) * rng.uniform(0.5, 100)
        levels = min(wavelet.decomposition_level(n), int(np.log2(n)))
        rec = wavelet.imodwt(wavelet.modwt(x, levels))
        worst = max(worst, float(np.max(np.abs(rec - x))))
    elapsed = time.time() - start
    report(
        1,
        worst <= 1e-8 and elapsed < 5.0,
        f"max reconstruction error {worst:.2e} over 100 series in {elapsed:.2f}s",
    )


def test_criterion_2_parameter_recovery():
    start = time.time()
    ar_hits = ma_hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=500)
        y = np.zeros(500)
        for t in range(1, 500):
            y[t] = 0.7 * y[t - 1] + e[t]
        ar_hits += abs(arima.fit_arima(y, ArimaOrder(1, 0, 0)).phi[0] - 0.7) <= 0.1

        eps = np.random.default_rng(1000 + seed).normal(size=501)
        w = eps[1:] - 0.8 * eps[:-1]
        ma_hits += abs(arima.fit_arima(w, ArimaOrder(0, 0, 1)).theta[0] - 0.8) <= 0.1
    elapsed = time.time() - start
    report(
        2,
        ar_hits >= 18 and ma_hits >= 18 and elapsed < 30.0,
        f"AR(1) {ar_hits}/20, MA(1) {ma_hits}/20 within ±0.1 in {elapsed:.1f}s",
    )


def test_criterion_3_hybrid_additivity(country_hybrids, country_series):
    ok = True
    for name, fit in country_hybrids.items():
        s = country_series[name]
        parts = hybrid.forecast_components(fit, 10)
        ok &= np.array_equal(parts.combined, parts.base + parts.residual)
        ok &= np.array_equal(parts.final, np.maximum(parts.combined, 0.0))
        ok &= np.array_equal(fit.residual_level, s.values - fit.base_fitted)
        ok &= np.array_equal(fit.fitted_values, fit.base_fitted + fit.residual_fitted)
    report(3, ok, "forecast additivity and residual bookkeeping exact on all 5 series")


def test_criterion_4_table2_rmse_bands(country_series):
    results = []
    ok = True
    for name, (order, target) in TABLE2_ARIMA_RMSE.items():
        s = country_series[name]
        fit = arima.fit_arima(s, order, LOG_TRANSFORM)
        rmse = metrics.rmse(s.values, fit.fitted_level())
        inside = 0.75 * target <= rmse <= 1.25 * target
        ok &= inside
        results.append(f"{name}={rmse:.1f} (target {target}, {'ok' if inside else 'OUT'})")
    report(4, ok, "; ".join(results))


def test_criterion_5_hybrid_ordering(country_hybrids, country_series):
    flips = []
    for name in ("canada", "france", "uk"):
        s = country_series[name]
        fit = country_hybrids[name]
        hybrid_rmse = metrics.rmse(s.values, fit.fitted_values)
        arima_rmse = metrics.rmse(s.values, fit.base_fitted)
        if hybrid_rmse >= arima_rmse:
            flips.append(f"{name} ({hybrid_rmse:.2f} >= {arima_rmse:.2f})")
    report(
        5,
        len(flips) <= 1,
        "hybrid < arima on canada/france/uk" if not flips else f"flipped: {', '.join(flips)}",
    )


def test_criterion_6_cart_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(7)
    split_ok = prune_ok = 0
    trials = 200
    for _ in range(trials):
        n = int(rng.integers(10, 51))
        n_vars = int(rng.integers(1, 5))
        tbl = tree.table_from_arrays(rng.normal(size=(n, n_vars)), rng.normal(size=n))
        minbucket = int(rng.integers(1, 3))

        got = tree.best_split(tbl, np.arange(n), minbucket)
        expected = oracle_best_split(tbl, np.arange(n), minbucket)
        split_ok += (got is None and expected is None) or (
            got is not None and got[0] == expected
        )

        fitted = tree.grow(tbl, minsplit=8, minbucket=2)
        sequence = tree.prune_sequence(fitted)
        candidates = enumerate_pruned_subtrees(fitted)
        alphas = [a for a, _ in sequence]
        probes = [0.0]
        probes += [(a + b) / 2 for a, b in zip(alphas, alphas[1:])]
        probes.append(alphas[-1] * 2 + 1)
        match = all(
            tree_at_alpha(sequence, alpha).leaf_signature()
            == oracle_optimal_subtree(candidates, alpha)[0]
            for alpha in probes
        )
        prune_ok += match
    elapsed = time.time() - start
    report(
        6,
        split_ok == trials and prune_ok == trials and elapsed < 60.0,
        f"split {split_ok}/200, pruning {prune_ok}/200 match brute force in {elapsed:.1f}s",
    )


def test_criterion_7_cfr_model_quality(cfr_table):
    cv = tree.cross_validate(cfr_table, minsplit=5, minbucket=1, folds=10, seed=0)
    preds = cv.tree.predict(cfr_table.x)
    r2 = metrics.r2(cfr_table.y, preds)
    rmse = metrics.rmse(cfr_table.y, preds)
    root_rule, _ = tree.best_split(cfr_table, np.arange(cfr_table.n), 1)
    root_var = cfr_table.names[root_rule.var]
    importance = tree.variable_importance(cv.tree)
    top7 = set(list(importance)[:7])
    ok = (
        r2 >= 0.85
        and rmse <= 0.017
        and root_var == "total_cases_thousands"
        and top7 == TOP7_VARIABLES
    )
    report(
        7,
        ok,
        f"R2={r2:.3f} (>=0.85), RMSE={rmse:.4f} (<=0.017), root={root_var}, "
        f"top7 {'matches' if top7 == TOP7_VARIABLES else top7}",
    )


def test_criterion_8_cli_determinism(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["fetch", "all", "--out", str(data)]) == 0

    def run_twice(label, argv_builder):
        out_a, out_b = tmp_path / f"{label}_a", tmp_path / f"{label}_b"
        assert cli.main(argv_builder(out_a)) == 0
        assert cli.main(argv_builder(out_b)) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        return all(
            filecmp.cmp(out_a / name, out_b / name, shallow=False) for name in files_a
        )

    ok = run_twice("fetch", lambda out: ["fetch", "all", "--out", str(out)])
    ok &= run_twice(
        "fc",
        lambda out: ["forecast", str(data / "india.csv"), "--out", str(out)],
    )
    ok &= run_twice(
        "rt",
        lambda out: [
            "risktree", str(data / "cfr_countries.csv"),
            "--minsplit", "5", "--seed", "0", "--out", str(out),
        ],
    )
    # eval prints to stdout and writes when --out is set
    out_a, out_b = tmp_path / "ev_a", tmp_path / "ev_b"
    for out in (out_a, out_b):
        assert cli.main([
            "eval", str(data / "india.csv"), str(data / "india.csv"),
            "--column", "cases", "--out", str(out),
        ]) == 0
    ok &= filecmp.cmp(out_a / "eval.json", out_b / "eval.json", shallow=False)
    report(8, ok, "fetch/forecast/risktree/eval outputs byte-identical across reruns")


def test_criterion_9_invariant_suite():
    start = time.time()
    rng = np.random.default_rng(99)
    cases = 0
    failures = []

    # transform round trips (250)
    for _ in range(250):
        values = rng.integers(0, 10**6, size=int(rng.integers(8, 80))).astype(float)
        spec = LOG_TRANSFORM if rng.random() < 0.7 else TransformSpec("none")
        back = spec.inverse(spec.forward(values))
        if not (np.allclose(back, values, rtol=1e-10, atol=1e-10) and np.all(back >= 0)):
            failures.append("transform round trip")
        cases += 1

    # differencing round trips (250)
    for _ in range(250):
        values = rng.integers(0, 10**6, size=int(rng.integers(8, 80))).astype(float)
        d = int(rng.integers(0, 3))
        if not np.array_equal(undiff_values(diff_values(values, d), values[:d], d), values):
            failures.append("difference round trip")
        cases += 1

    # acf bounds (100)
    for _ in range(100):
        values = rng.normal(size=int(rng.integers(9, 120)))
        if np.any(np.abs(acf(values, min(8, len(values) - 1))) > 1 + 1e-9):
            failures.append("acf bounds")
        cases += 1

    # modwt round trips (100)
    for _ in range(100):
        n = int(rng.integers(8, 129))
        x = rng.normal(size=n)
        levels = min(wavelet.decomposition_level(n), int(np.log2(n)))
        if np.max(np.abs(wavelet.imodwt(wavelet.modwt(x, levels)) - x)) > 1e-8:
            failures.append("modwt round trip")
        cases += 1

    # mae <= rmse (200)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        a, p = rng.normal(size=n) * 100, rng.normal(size=n) * 100
        if metrics.mae(a, p) > metrics.rmse(a, p) + 1e-12:
            failures.append("mae <= rmse")
        cases += 1

    # pruning sequences nested, alphas increasing, training SSE monotone (50)
    for _ in range(50):
        n = int(rng.integers(10, 40))
        tbl = tree.table_from_arrays(rng.normal(size=(n, 3)), rng.normal(size=n))
        sequence = tree.prune_sequence(tree.grow(tbl, minsplit=5, minbucket=1))
        alphas = [a for a, _ in sequence]
        sses = [t.training_sse() for _, t in sequence]
        if not all(b > a for a, b in zip(alphas, alphas[1:])):
            failures.append("alphas increasing")
        if not all(b >= a - 1e-9 for a, b in zip(sses, sses[1:])):
            failures.append("training sse monotone")
        for (_, big), (_, small) in zip(sequence, sequence[1:]):
            big_leaves = [frozenset(big.rows[i].tolist()) for i in big.leaves()]
            for i in small.leaves():
                rows = frozenset(small.rows[i].tolist())
                if not all(b <= rows or not (b & rows) for b in big_leaves):
                    failures.append("nested subtrees")
        cases += 1

    # level-scale forecasts never negative (50)
    for _ in range(50):
        n = int(rng.integers(25, 60))
        values = np.maximum(
            rng.integers(0, 50, size=n).astype(float) + np.arange(n) * rng.uniform(0, 3), 0.0
        )
        s = make_series(values)
        order = ArimaOrder(int(rng.integers(0, 2)), int(rng.integers(0, 3)), int(rng.integers(0, 2)))
        fit = arima.fit_arima(s, order, LOG_TRANSFORM)
        if np.any(arima.forecast_arima(fit, 10) < 0):
            failures.append("non-negative forecasts")
        cases += 1

    elapsed = time.time() - start
    report(
        9,
        cases == 1000 and not failures and elapsed < 120.0,
        f"{cases} random invariant cases, failures={sorted(set(failures))} in {elapsed:.1f}s",
    )
