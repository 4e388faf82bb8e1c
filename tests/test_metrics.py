import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epiforecast import metrics

pairs = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
    )
)


def test_perfect_prediction():
    a = np.array([1.0, 2.0, 3.0])
    assert metrics.rmse(a, a) == 0.0
    assert metrics.mae(a, a) == 0.0
    assert metrics.r2(a, a) == 1.0


def test_constant_offset():
    assert metrics.rmse([0, 0, 0, 0], [1, 1, 1, 1]) == 1.0
    assert metrics.mae([0, 0, 0, 0], [1, 1, 1, 1]) == 1.0


def test_hand_computed_values():
    actual = [1.0, 2.0, 3.0]
    predicted = [2.0, 2.0, 2.0]
    assert metrics.rmse(actual, predicted) == pytest.approx(np.sqrt(2.0 / 3.0))
    assert metrics.mae(actual, predicted) == pytest.approx(2.0 / 3.0)
    assert metrics.r2(actual, predicted) == pytest.approx(0.0)


def test_adj_r2_formula():
    actual = [1.0, 2.0, 3.0, 5.0, 4.0, 6.0]
    predicted = [1.1, 2.2, 2.7, 4.6, 4.4, 5.8]
    plain = metrics.r2(actual, predicted)
    adjusted = metrics.adj_r2(actual, predicted, k=2)
    assert adjusted == pytest.approx(1 - (1 - plain) * 5 / 3)
    assert adjusted <= plain
    for k in (0, 5):  # no predictor to adjust for, and n <= k + 1
        with pytest.raises(ValueError, match="1 <= k < n-1"):
            metrics.adj_r2(actual, predicted, k=k)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        metrics.rmse([1, 2], [1, 2, 3])


def test_constant_actual_r2_undefined():
    with pytest.raises(ValueError, match="constant"):
        metrics.r2([2, 2, 2], [1, 2, 3])


def test_r2_bit_identical_under_power_of_two_scaling():
    # squared deviations of the unscaled values over- or underflow at the ends
    rng = np.random.default_rng(0)
    actual = rng.uniform(1.0, 100.0, 50)
    predicted = actual * rng.uniform(0.8, 1.2, 50)
    expected = metrics.r2(actual, predicted).hex()
    for j in range(-1000, 1001, 25):
        scaled = metrics.r2(np.ldexp(actual, j), np.ldexp(predicted, j))
        assert scaled.hex() == expected, j


def test_report_handles_undefined_r2():
    report = metrics.report([2, 2, 2], [1, 2, 3])
    assert report["r2"] is None
    assert report["rmse"] > 0


def hexed(value):
    return None if value is None else value.hex()


def undefined_as_none(score, *args):
    try:
        return score(*args)
    except ValueError:
        return None


@given(pairs, st.sampled_from(["zero", "one", "n-1"]))
@settings(max_examples=200, deadline=None)
@example(([0.0, 482185.02837372245, 0.0], [482185.02837372245, 0.0, 482185.02837372245]), "one")
@example(([0.0, 0.0], [1e6, 999999.9999999999]), "one")
@example(([3.0, 3.0, 3.0, 3.0], [1.0, 2.0, 4.0, 8.0]), "one")
def test_report_matches_each_score(pair, which):
    # the one-pass report gives, bit for bit, what each score gives alone
    actual, predicted = pair
    n = len(actual)
    k = {"zero": 0, "one": 1, "n-1": n - 1}[which]
    adj = undefined_as_none(metrics.adj_r2, actual, predicted, k) if 1 <= k < n - 1 else None
    expected = {"rmse": metrics.rmse(actual, predicted), "mae": metrics.mae(actual, predicted),
                "r2": undefined_as_none(metrics.r2, actual, predicted), "adj_r2": adj}
    report = metrics.report(actual, predicted, k)
    assert {name: hexed(report[name]) for name in expected} == \
        {name: hexed(value) for name, value in expected.items()}
    assert (report["n"], report["k"]) == (n, k)


@given(pairs)
@settings(max_examples=200, deadline=None)
# equal errors, where the unscaled formulas put rmse one ulp below mae
@example(([0.0, 482185.02837372245, 0.0], [482185.02837372245, 0.0, 482185.02837372245]))
# errors one ulp apart, where scaling alone still puts rmse one ulp below mae
@example(([0.0, 0.0], [1e6, 999999.9999999999]))
def test_mae_never_exceeds_rmse(pair):
    actual, predicted = pair
    assert metrics.mae(actual, predicted) <= metrics.rmse(actual, predicted) + 1e-12


@given(pairs, st.randoms())
@settings(max_examples=100, deadline=None)
def test_permutation_invariance(pair, rand):
    actual, predicted = pair
    idx = list(range(len(actual)))
    rand.shuffle(idx)
    a2 = [actual[i] for i in idx]
    p2 = [predicted[i] for i in idx]
    assert metrics.rmse(a2, p2) == pytest.approx(metrics.rmse(actual, predicted), rel=1e-12)
    assert metrics.mae(a2, p2) == pytest.approx(metrics.mae(actual, predicted), rel=1e-12)
