"""Time two checkouts' ARIMA estimator on the same cells, in one process.

    python3 tools/ab_cells.py CHECKOUT_A CHECKOUT_B SERIES.csv

Records the `arima._estimate` calls of `epiforecast forecast SERIES.csv` with
CHECKOUT_A's package and replays them twice in both checkouts, grid-cell pool
off, the side that goes first alternating by call. Fails if a result differs
in one byte; prints each side's total per round, where host drift mostly cancels,
overall and by cell class: pure AR (q = 0, with (0, 0)), pure MA (p = 0) and ARMA.
"""

import contextlib
import importlib
import io
import sys
import tempfile
import time
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path


def load(checkout: Path, name: str):
    """The `arima` and `cli` modules of `checkout`'s package, imported as `name`."""
    package_dir = checkout / "src" / "epiforecast"
    spec = spec_from_file_location(name, package_dir / "__init__.py",
                                   submodule_search_locations=[str(package_dir)])
    sys.modules[name] = module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    arima = importlib.import_module(f"{name}.arima")
    arima._cell_pool = lambda: None
    return arima, importlib.import_module(f"{name}.cli")


def record(arima, cli, series: Path) -> list:
    """The args (w, p, q, use_intercept, n_cond) of each `_estimate` call."""
    calls = []
    estimate = arima._estimate

    def recording(w, *rest):
        calls.append((w.copy(), *rest))
        return estimate(w, *rest)

    arima._estimate = recording
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["forecast", str(series), "--out", out]):
            sys.exit(f"forecast {series} failed")
    arima._estimate = estimate
    return calls


def timed(arima, call) -> tuple[float, object]:
    """(seconds, byte fingerprint) of one `_estimate` call."""
    start = time.perf_counter()
    try:
        phi, theta, intercept = arima._estimate(*call)
        bits = (phi.tobytes(), theta.tobytes(), float(intercept).hex())
    except arima.ConvergenceError as exc:
        bits = str(exc)
    return time.perf_counter() - start, bits


CLASSES = ("pure AR", "pure MA", "ARMA")


def cell_class(p: int, q: int) -> int:
    """The index in CLASSES of a (p, q) cell."""
    return 0 if q == 0 else 1 if p == 0 else 2


def line(label: str, a: float, b: float) -> str:
    return f"{label}: A {a:.3f} s, B {b:.3f} s, B/A {b / a:.3f}"


def main() -> None:
    if len(sys.argv) != 4:
        sys.exit("usage: " + __doc__.splitlines()[2].strip())
    a, b, series = map(Path, sys.argv[1:])
    arima_a, cli_a = load(a, "_ab_side_a")
    calls = record(arima_a, cli_a, series)
    sides = (arima_a, load(b, "_ab_side_b")[0])
    print(f"{series}: {len(calls)} _estimate calls")
    counts = [0] * len(CLASSES)
    for call in calls:
        counts[cell_class(call[1], call[2])] += 1
    for r in range(2):
        # per class, each side's total
        totals = [[0.0, 0.0] for _ in CLASSES]
        for i, call in enumerate(calls):
            bits = [None, None]
            for side in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
                seconds, bits[side] = timed(sides[side], call)
                totals[cell_class(call[1], call[2])][side] += seconds
            if bits[0] != bits[1]:
                sys.exit(f"call {i} (p={call[1]}, q={call[2]}, n={len(call[0])}) differs")
        print(line(f"round {r + 1}", *map(sum, zip(*totals))) + "; every call byte-identical")
        for name, count, (a, b) in zip(CLASSES, counts, totals):
            if count:
                print("  " + line(f"{name} ({count} calls)", a, b))


if __name__ == "__main__":
    main()
