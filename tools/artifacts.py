"""Write every artifact that a byte-identity check compares into one directory.

    python3 tools/artifacts.py OUT

Run it in two checkouts, then compare them with `diff -r OUT_A OUT_B`. OUT
must be a new or an empty directory, so that no file of an earlier run
enters the comparison. The tool runs the `epiforecast` CLI of the checkout
it lives in, in one process, and writes:

- `series/`: the bundled datasets, `long_full.csv`, the benchmark's seed-0
  long series of 1000 days (`bench/inputs.long_series`), and `long.csv`,
  its first 990 days, and `a&b<c>.csv`, a copy of `india.csv` whose stem
  holds every character that the SVG text escapes;
- `forecast/<name>/`: `forecast` on each series but `long_full`;
- `eval/eval.json`: `eval` of the `long` forecast against `long_full.csv`;
- `risktree/seed<S>/` and `risktree/seed<S>_minsplit9/`: `risktree` on the
  bundled CFR table for fold seeds 0-34, with the default minsplit (5 for its
  50 rows) and with `--minsplit 9`;
- `risktree/seed<S>_folds5/` and `risktree/seed<S>_minsplit2/`: the same
  with `--folds 5` and with `--minsplit 2` (a deep tree: 46 leaves and 41
  pruning steps at seed 0), for fold seeds 0-9;
- `errors/<name>.csv` and `errors/<name>.txt`: for each case of `ERRORS`, a
  copy of a file written above with one line changed, and the one-line
  stderr of the command that refuses it; the `eval_*_column` cases hold
  only the stderr of `eval --column` with a blank name,
  `fetch_unknown_dataset` that of `fetch atlantis`, and
  `eval_disjoint_dates` that of `eval` of the `long` forecast against
  `india.csv`, whose 2020 dates it does not reach;
- `errors/eval_overflowing_errors_actual.csv`,
  `errors/eval_overflowing_errors.csv` and `.txt`: three dates whose
  errors pass the largest double, and the stderr of `eval` refusing the
  rmse and mae that are then Infinity;
- `errors/forecast_horizon_not_finite.csv` and `.txt`: 30 days of counts
  2^t, and the stderr of `forecast --horizon 1000` refusing the forecast
  that passes the largest double; its `--out` must stay unwritten.

These commands run in OUT and are given paths relative to it, so that the
messages, which name the file, compare across checkouts.
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
SHORT_SEEDS = range(10)
ESCAPED = "a&b<c>"

# the files that the malformed copies change, relative to OUT
SERIES = "series/india.csv"
TABLE = f"series/{datasets.CFR_TABLE}.csv"
FORECAST = "forecast/long/long_forecast.csv"
# name: (source, line, field, text); the command that the name starts with
# refuses a copy of the source whose field on that line (counted from 1 and
# from 0) is set to text. "\udce9" writes the byte 0xe9, not UTF-8 alone.
ERRORS = {
    "forecast_bad_cell": (SERIES, 3, 1, "x"),
    "forecast_nan_cell": (SERIES, 3, 1, "nan"),
    "forecast_bad_date": (SERIES, 3, 0, "banana"),
    "forecast_ragged_row": (SERIES, 3, 1, "1,7"),
    "forecast_repeated_column": (SERIES, 1, 1, "cases,cases"),
    "forecast_not_utf8": (SERIES, 3, 1, "1\udce9"),
    "risktree_bad_cell": (TABLE, 3, 1, "many"),
    "risktree_nan_cell": (TABLE, 3, 11, "nan"),
    "risktree_ragged_row": (TABLE, 3, 11, "0.05,7"),
    "risktree_repeated_column": (TABLE, 1, 11, "cfr,cfr"),
    "risktree_not_utf8": (TABLE, 3, 0, "spain\udce9"),
    "eval_bad_cell": (FORECAST, 3, 3, "x"),
    "eval_nan_cell": (FORECAST, 3, 3, "nan"),
    "eval_bad_date": (FORECAST, 3, 0, "banana"),
    "eval_ragged_row": (FORECAST, 3, 3, "1,7"),
    "eval_repeated_column": (FORECAST, 1, 3, "hybrid,hybrid"),
    "eval_not_utf8": (FORECAST, 3, 3, "1\udce9"),
}

def run(*argv) -> None:
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status:
        sys.exit(f"epiforecast {' '.join(argv)} exited with {status}")


def refused(name, *argv) -> None:
    """Run a command that must fail; write its stderr to errors/<name>.txt."""
    argv = [str(a) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 1:
        sys.exit(f"epiforecast {' '.join(argv)} exited with {status}, not 1")
    Path("errors", f"{name}.txt").write_text(err.getvalue())


def malformed_inputs(out: Path) -> None:
    """The `errors/` set, run in `out` on paths relative to it."""
    with contextlib.chdir(out):
        Path("errors").mkdir()
        for name, (source, line, field, text) in ERRORS.items():
            lines = Path(source).read_text().splitlines()
            fields = lines[line - 1].split(",")
            fields[field] = text
            lines[line - 1] = ",".join(fields)
            path = Path("errors", f"{name}.csv")
            path.write_bytes("\n".join(lines).encode(errors="surrogateescape") + b"\n")
            command = name.split("_")[0]
            refused(name, command, *(["series/long_full.csv"] if command == "eval" else []), path)
        for name, column in (("eval_empty_column", ""), ("eval_blank_column", "  ")):
            refused(name, "eval", "series/long_full.csv", FORECAST, "--column", column)
        refused("fetch_unknown_dataset", "fetch", "atlantis")
        refused("eval_disjoint_dates", "eval", SERIES, FORECAST)
        actual = Path("errors/eval_overflowing_errors_actual.csv")
        forecast = Path("errors/eval_overflowing_errors.csv")
        actual.write_text("date,cases\n2020-03-01,1.7e308\n2020-03-02,1e308\n2020-03-03,0\n")
        forecast.write_text("date,hybrid\n2020-03-01,-1.7e308\n2020-03-02,1e308\n2020-03-03,5\n")
        refused("eval_overflowing_errors", "eval", actual, forecast)
        doubling = Path("errors/forecast_horizon_not_finite.csv")
        doubling.write_text("date,cases\n" + "".join(
            f"{dt.date(2020, 1, 1) + dt.timedelta(days=t)},{2 ** t}\n" for t in range(30)))
        unwritten = Path("errors/forecast_horizon_not_finite")
        refused("forecast_horizon_not_finite", "forecast", doubling, "--horizon", 1000,
                "--out", unwritten)
        if unwritten.exists():
            sys.exit(f"the refused forecast wrote {unwritten}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="new or empty directory to write")
    out = parser.parse_args().out
    if out.exists() and not (out.is_dir() and not any(out.iterdir())):
        sys.exit(f"artifacts.py: {out} exists and is not an empty directory")
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
    for seed in SHORT_SEEDS:
        run("risktree", table, "--seed", seed, "--folds", 5,
            "--out", out / "risktree" / f"seed{seed}_folds5")
        run("risktree", table, "--seed", seed, "--minsplit", 2,
            "--out", out / "risktree" / f"seed{seed}_minsplit2")
    malformed_inputs(out)


if __name__ == "__main__":
    main()
