"""Write every artifact that a byte-identity check compares into one directory.

    python3 tools/artifacts.py OUT

Run it in two checkouts, then compare them with `diff -r OUT_A OUT_B`. It
runs the `epiforecast` CLI of the checkout it lives in, in one process, and
writes:

- `series/`: the bundled datasets, `long_full.csv`, the benchmark's seed-0
  long series of 1000 days (`bench/inputs.long_series`), and `long.csv`,
  its first 990 days, and `a&b<c>.csv`, a copy of `india.csv` whose stem
  holds every character that the SVG text escapes;
- `forecast/<name>/`: `forecast` on each series but `long_full`;
- `eval/eval.json`: `eval` of the `long` forecast against `long_full.csv`;
- `risktree/seed<S>/` and `risktree/seed<S>_minsplit9/`: `risktree` on the
  bundled CFR table for fold seeds 0-34, with the default minsplit (5 for its
  50 rows) and with `--minsplit 9`;
- `risktree/seed<S>_folds5/`: the same with `--folds 5`, for fold seeds 0-9.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
from epiforecast import cli, datasets  # noqa: E402
from inputs import HORIZON, LONG_DAYS, LONG_START, long_series  # noqa: E402

FOLD_SEEDS = range(35)
FIVE_FOLD_SEEDS = range(10)
ESCAPED = "a&b<c>"


def run(*argv) -> None:
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status:
        sys.exit(f"epiforecast {' '.join(argv)} exited with {status}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write (created)")
    out = parser.parse_args().out
    series = out / "series"
    run("fetch", "all", "--out", series)
    counts = long_series(np.random.default_rng(0), LONG_DAYS)
    rows = [f"{LONG_START + dt.timedelta(days=i)},{int(c)}" for i, c in enumerate(counts)]
    (series / "long_full.csv").write_text("date,cases\n" + "\n".join(rows) + "\n")
    (series / "long.csv").write_text("date,cases\n" + "\n".join(rows[:-HORIZON]) + "\n")
    (series / f"{ESCAPED}.csv").write_bytes((series / "india.csv").read_bytes())
    for name in [*datasets.BUNDLED_SERIES, "long", ESCAPED]:
        run("forecast", series / f"{name}.csv", "--out", out / "forecast" / name)
    run("eval", series / "long_full.csv", out / "forecast" / "long" / "long_forecast.csv",
        "--out", out / "eval")
    table = series / f"{datasets.CFR_TABLE}.csv"
    for seed in FOLD_SEEDS:
        run("risktree", table, "--seed", seed, "--out", out / "risktree" / f"seed{seed}")
        run("risktree", table, "--seed", seed, "--minsplit", 9,
            "--out", out / "risktree" / f"seed{seed}_minsplit9")
    for seed in FIVE_FOLD_SEEDS:
        run("risktree", table, "--seed", seed, "--folds", 5,
            "--out", out / "risktree" / f"seed{seed}_folds5")


if __name__ == "__main__":
    main()
