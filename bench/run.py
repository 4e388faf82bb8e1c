"""Benchmark of the epiforecast CLI: one workload per run, closed loop, one client.

Run from the root of a checkout:

    python3 bench/run.py --workload forecast_bundled --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`. The lines before it print every metric
by name and unit, the environment, and any failed op. See bench/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("forecast_bundled", "forecast_long", "risktree")
# name -> unit; the end-to-end metrics of BENCHMARK.json, measured with tracing off
END_TO_END = {"op_s": "s", "error_rel": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
# The quality behind error_rel. On forecast_long the 10-day holdout error of
# the run's one series swings with the seed far beyond any bound (0.10-0.35),
# because the selected ARIMA order flips, so the gated error there is the
# in-sample error over about 990 days; the holdout error is still printed.
ERROR_KEY = {"forecast_bundled": "holdout_rmse_rel", "forecast_long": "fit_rmse_rel",
             "risktree": "risktree_cv_error_rel"}
QUALITY_UNITS = {"holdout_rmse_rel": "ratio", "fit_rmse_rel": "ratio",
                 "risktree_cv_error": "cfr^2", "risktree_cv_error_rel": "ratio"}
# every end-to-end quantity, in the order the report prints them
REPORTED = ("forecast_s", "risktree_s", "holdout_rmse_rel", "fit_rmse_rel", "risktree_cv_error",
            "risktree_cv_error_rel", "failed_ratio", "peak_rss_mb", "setup_s")
SETUP_SAMPLES = 3
# Runs in a fresh process, which times itself with a sampler of its own and
# prints [seconds at the nominal host speed, wall seconds].
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import hostspeed
with hostspeed.Sampler(period=0.05) as sampler:
    start = time.perf_counter()
    from epiforecast import datasets, series
    load = {"series": series.load_series_csv, "table": datasets.load_cfr_csv}
    for arg in sys.argv[3:]:
        kind, _, path = arg.partition("=")
        load[kind](path)
    seconds = time.perf_counter() - start
print([sampler.scaled(start, seconds), seconds])
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # before numpy first loads, so that BLAS and OpenMP stay single-threaded;
    # the set-up processes inherit it
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

    root = Path.cwd()
    src = root / "src"
    if not (src / "epiforecast" / "__init__.py").is_file():
        print(f"bench: no src/epiforecast under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import epiforecast
    from epiforecast import arima

    import hostspeed
    import inputs

    work = root / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    items = inputs.make_inputs(args.workload, args.seed,
                               Path(epiforecast.__file__).parent / "data", work / "inputs")
    env = environment(root, arima.HAVE_NUMBA)
    setup = [setup_once(src, items) for _ in range(SETUP_SAMPLES)]

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        try:
            results, metrics, lines = tracing.traced_run(tracer, items, args.seconds, out_dir)
        finally:
            tracer.write(work / "trace.json", {"workload": args.workload, "seed": args.seed,
                                               "env": env})
        lines.append(f"spans written to {work / 'trace.json'}")
    else:
        with hostspeed.Sampler() as sampler:
            results = timed_run(items, args.seconds, out_dir)
        scaled = [sampler.scaled(r.start, r.seconds) for r in results]
        metrics, lines = end_to_end(args.workload, items, results, scaled, setup)

    failed = [r for r in results if not r.ok]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(results)}  failed {len(failed)}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print("  " + line)
    for r in failed:
        print(f"  FAILED {r.label}: {r.error}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def timed_run(items, seconds: float, out_dir: Path) -> list:
    """Closed loop over the inputs, in order, until one more op would overrun
    `seconds`; the first pass over the inputs always completes."""
    import ops

    results = []
    start = time.perf_counter()
    while True:
        i = len(results)
        result = ops.run_op(items[i % len(items)], out_dir)
        if result.ok and i >= len(items) and result.fingerprint != results[i % len(items)].fingerprint:
            result.error = "output differs from the first run on the same input"
        results.append(result)
        elapsed = time.perf_counter() - start
        if len(results) >= len(items) and elapsed + statistics.median(
                r.seconds for r in results) > seconds:
            return results


def end_to_end(workload: str, items, results, scaled: list[float], setup: list[tuple]):
    """`scaled` holds each op's seconds at the nominal host speed, `setup`
    (scaled, wall) seconds of each set-up sample."""
    # whole passes only, so that every run weighs each input the same
    n_whole = len(results) // len(items) * len(items)
    op_times = sorted(scaled[:n_whole])
    op_s = statistics.median(op_times)
    wall_s = statistics.median(r.seconds for r in results[:n_whole])
    setup_s = statistics.median(s for s, _ in setup)
    setup_wall_s = statistics.median(w for _, w in setup)
    first = [r for r in results[: len(items)] if r.ok]
    quality = {key: statistics.fmean(r.quality[key] for r in first)
               for key in (first[0].quality if first else ())}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"op_s": op_s, "error_rel": quality.get(ERROR_KEY[workload], math.nan),
              "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    timed = "forecast_s" if workload.startswith("forecast") else "risktree_s"
    n_failed = sum(not r.ok for r in results)
    shown = {timed: f"{op_s:.4f} s  median of {len(op_times)} ops{_tail(op_times)}, "
                    f"at nominal host speed; wall {wall_s:.4f} s"}
    shown.update({key: f"{value:.6g} {QUALITY_UNITS[key]}  mean over {len(first)} inputs"
                  for key, value in quality.items()})
    shown.update({
        "failed_ratio": f"{n_failed / len(results):.4f} ratio  {n_failed} of {len(results)} ops",
        "peak_rss_mb": f"{peak_rss_mb:.1f} MB",
        "setup_s": f"{setup_s:.4f} s  median of {SETUP_SAMPLES} fresh processes, "
                   f"at nominal host speed; wall {setup_wall_s:.4f} s",
    })
    lines = [f"{name:24s}{shown.get(name, 'n/a on this workload')}" for name in REPORTED]
    lines.append(f"(in the JSON line: op_s is {timed}, error_rel is {ERROR_KEY[workload]})")
    return metrics, lines


def _tail(sorted_times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(sorted_times)
    if n < 20:
        return ""
    pct = 100 * (n - 10) // n
    return f", p{pct} {sorted_times[math.ceil(pct / 100 * n) - 1]:.4f} s"


def setup_once(src: Path, items) -> tuple[float, float]:
    """Seconds for a fresh process to import epiforecast and load the inputs:
    at the nominal host speed, and wall."""
    files = sorted({f"{kind}={path}" for item in items for kind, path in item.loaded_files()})
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src), str(Path(__file__).parent),
                           *files], check=True, capture_output=True, text=True)
    scaled, wall = json.loads(proc.stdout)
    return scaled, wall


def environment(root: Path, have_numba: bool) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "arima.HAVE_NUMBA": have_numba,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _git_sha(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
