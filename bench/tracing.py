"""Spans around the package's public calls, recorded from the benchmark's own
code in traced runs only, plus the two ARIMA sweeps and the per-layer metrics
derived from both.

A span is (name, start, end, parent, op). The name is `<layer>.<function>`
where the layer is the `epiforecast` module; the op's root span is
`cli.<command>`, so the CLI's own glue (argument parsing, CSV and JSON
writing, `eval`) shows as the `cli` layer's self time.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from epiforecast import arima, cli, datasets, hybrid, metrics, svgplot, tree, wavelet
from epiforecast.series import LOG_TRANSFORM, NO_TRANSFORM

LAYERS = ("cli", "series", "datasets", "arima", "wavelet", "hybrid", "tree", "svgplot", "metrics")

# (owner, attribute, span name). Patching the module attribute also catches
# the calls the package makes to it internally, because those are looked up
# in the module's namespace at call time.
TARGETS = (
    (cli, "load_series_csv", "series.load_series_csv"),
    (arima, "adf_test", "series.adf_test"),
    (datasets, "load_cfr_csv", "datasets.load_cfr_csv"),
    (arima, "select_order", "arima.select_order"),
    (arima, "fit_arima", "arima.fit_arima"),
    (arima, "forecast_arima", "arima.forecast_arima"),
    (arima, "forecast_transformed", "arima.forecast_transformed"),
    (wavelet, "modwt", "wavelet.modwt"),
    (wavelet, "wbf_fit", "wavelet.wbf_fit"),
    (wavelet, "wbf_forecast", "wavelet.wbf_forecast"),
    (hybrid, "fit_hybrid", "hybrid.fit_hybrid"),
    (hybrid, "forecast_components", "hybrid.forecast_components"),
    (metrics, "report", "metrics.report"),
    (svgplot, "line_chart", "svgplot.line_chart"),
    (svgplot, "tree_diagram", "svgplot.tree_diagram"),
    (tree, "cross_validate", "tree.cross_validate"),
    (tree, "grow", "tree.grow"),
    (tree, "best_split", "tree.best_split"),
    (tree, "prune_sequence", "tree.prune_sequence"),
    (tree, "variable_importance", "tree.variable_importance"),
    (tree.RegressionTree, "predict", "tree.predict"),
)
CAPTURED = {"hybrid.fit_hybrid", "wavelet.wbf_fit", "tree.cross_validate"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans in memory for the whole run; written once, at exit."""

    def __init__(self):
        self.spans: list[Span] = []
        # span index -> (first argument, return value), for CAPTURED names
        self.results: dict[int, tuple] = {}
        self.op = -1
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter() - self._t0, math.nan, parent, self.op))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter() - self._t0

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if name in CAPTURED:
                self.results[idx] = (args[0] if args else None, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route the package's public calls through spans; undone on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
        try:
            for (owner, attr, name), (_, _, fn) in zip(TARGETS, saved):
                setattr(owner, attr, self._wrap(fn, name))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def captured(self, op_id: int, name: str) -> list[tuple]:
        return [value for idx, value in self.results.items()
                if self.spans[idx].op == op_id and self.spans[idx].name == name]

    def write(self, path: Path, header: dict) -> None:
        rows = [[s.name, round(s.start, 6), round(s.end, 6), s.parent, s.op] for s in self.spans]
        path.write_text(json.dumps({**header, "span_fields": ["name", "start", "end", "parent", "op"],
                                    "spans": rows}) + "\n")


def traced_op(tracer: Tracer, op_id: int, command: str, run):
    """Run `run()` as op `op_id` under spans; returns (result, RuntimeWarnings)."""
    tracer.op = op_id
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with tracer.installed(), tracer.span(f"cli.{command}"):
            result = run()
    return result, sum(issubclass(w.category, RuntimeWarning) for w in caught)


def sweeps(tracer: Tracer, op_id: int) -> dict:
    """Both ARIMA sweeps for a forecast op, outside its op span.

    Stage 1: every (p,q) cell of the log-scale grid through `fit_arima`, as
    `select_order` fits them. Stage 2: `select_order` on each MODWT sub-series
    of the op's ARIMA residuals, as `wbf_fit` calls it.
    """
    tracer.op = op_id
    [(s, fit)] = tracer.captured(op_id, "hybrid.fit_hybrid")
    d = fit.base.order.d
    gate = getattr(arima, "_SELECTION_MIN_ROOT", 1.01)
    cells = {"fitted": 0, "rejected": 0, "failed": 0}
    times = {"ar": [], "arma": []}
    with tracer.span("sweep.stage1_grid"):
        for p in range(arima.MAX_P + 1):
            for q in range(arima.MAX_Q + 1):
                with tracer.span("arima.fit_arima") as idx:
                    try:
                        cell = arima.fit_arima(s.values, arima.ArimaOrder(p, d, q),
                                               LOG_TRANSFORM, n_condition=arima.MAX_P)
                        status = "rejected" if cell.min_root_modulus < gate else "fitted"
                    except (ValueError, arima.ConvergenceError):
                        status = "failed"
                cells[status] += 1
                times["arma" if q else "ar"].append(tracer.spans[idx].seconds)

    residual = fit.residual_level
    dec = wavelet.modwt(residual, wavelet.decomposition_level(len(residual)))
    select_s = []
    with tracer.span("sweep.subseries_select"):
        for sub in [*dec.details, dec.smooth]:
            with tracer.span("arima.select_order") as idx:
                try:
                    arima.select_order(sub, NO_TRANSFORM, max_p=wavelet.SUBSERIES_MAX_ORDER,
                                       max_q=wavelet.SUBSERIES_MAX_ORDER, force_d=0,
                                       reject_near_unit_roots=False)
                except (ValueError, arima.ConvergenceError):
                    pass
            select_s.append(tracer.spans[idx].seconds)

    attempted = sum(cells.values())
    return {
        "arima.fit_arima.cell_ar_s": statistics.median(times["ar"]),
        "arima.fit_arima.cell_arma_s": statistics.median(times["arma"]),
        "arima.cells.attempted": attempted,
        "arima.cells.fitted": cells["fitted"],
        "arima.cells.rejected": cells["rejected"],
        "arima.cells.failed": cells["failed"],
        "arima.cells.useful_ratio": cells["fitted"] / attempted,
        "wavelet.subseries_select_s": statistics.median(select_s),
    }


def op_metrics(tracer: Tracer, op_id: int, runtime_warnings: int) -> dict:
    """Per-layer metrics of one traced op, from the spans inside its root."""
    [root] = [i for i, s in enumerate(tracer.spans)
              if s.op == op_id and s.parent is None and s.name.startswith("cli.")]
    inside = [i for i, s in enumerate(tracer.spans)
              if s.op == op_id and s.start >= tracer.spans[root].start
              and s.end <= tracer.spans[root].end]
    spans = tracer.spans
    children: dict[int, list[int]] = {i: [] for i in inside}
    for i in inside:
        if spans[i].parent is not None:
            children[spans[i].parent].append(i)

    def busy(name, parent_name=None):
        return sum(spans[i].seconds for i in inside if spans[i].name == name and (
            parent_name is None or spans[spans[i].parent].name == parent_name))

    stage1 = [i for i in inside if spans[i].name == "arima.select_order"
              and spans[spans[i].parent].name == "hybrid.fit_hybrid"]
    root_splits = []  # the first best_split of each grow is its root split
    for i in inside:
        if spans[i].name == "tree.grow":
            splits = [k for k in children[i] if spans[k].name == "tree.best_split"]
            root_splits += splits[:1]
    out = {
        "arima.select_order.busy_s": sum(spans[i].seconds for i in stage1),
        "arima.select_order.calls": len(stage1),
        "arima.overflow_warnings": runtime_warnings,
        "wavelet.modwt.busy_s": busy("wavelet.modwt"),
        "wavelet.wbf_fit.direct_s": busy("wavelet.wbf_fit", spans[root].name),
        "hybrid.fit_hybrid.busy_s": busy("hybrid.fit_hybrid") - sum(spans[i].seconds for i in stage1),
        "hybrid.forecast_components.busy_s": busy("hybrid.forecast_components"),
        "tree.cross_validate.busy_s": busy("tree.cross_validate"),
        "tree.grow.busy_s": busy("tree.grow"),
        "tree.best_split.busy_s": sum(spans[i].seconds for i in root_splits),
        "tree.prune_sequence.busy_s": busy("tree.prune_sequence"),
        "tree.variable_importance.busy_s": busy("tree.variable_importance"),
        "tree.predict.busy_s": busy("tree.predict"),
        "svgplot.line_chart.busy_s": busy("svgplot.line_chart"),
        "svgplot.tree_diagram.busy_s": busy("svgplot.tree_diagram"),
        "metrics.report.busy_s": busy("metrics.report"),
        "series.load_series_csv.busy_s": busy("series.load_series_csv"),
        "datasets.load_cfr_csv.busy_s": busy("datasets.load_cfr_csv"),
    }
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i in inside:
        own = spans[i].seconds - sum(spans[k].seconds for k in children[i])
        self_s[spans[i].name.split(".")[0]] += own
    out.update({f"{layer}.self_s": value for layer, value in self_s.items()})

    fits = [fit for _, fit in tracer.captured(op_id, "hybrid.fit_hybrid")]
    stage2 = [fit.residual_model for fit in fits if fit.residual_model is not None]
    sub_fits = [sub for model in stage2 for sub in model.sub_fits]
    out.update({
        "arima.base.log_sigma2": _mean([math.log(fit.base.sigma2) for fit in fits]),
        "wavelet.sub_series": sum(model.levels + 1 for model in stage2),
        "wavelet.fallbacks": sum(len(model.fallbacks)
                                 for _, model in tracer.captured(op_id, "wavelet.wbf_fit")),
        "wavelet.sub.log_sigma2": _mean([math.log(sub.sigma2) for sub in sub_fits]),
        "hybrid.stage2_degraded": sum(bool(fit.diagnostics["stage2_degraded"]) for fit in fits),
    })
    cvs = [cv for _, cv in tracer.captured(op_id, "tree.cross_validate")]
    out["tree.n_leaves"] = sum(cv.tree.n_leaves() for cv in cvs)
    out["tree.prune_steps"] = sum(len(cv.table) - 1 for cv in cvs)
    return out


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# name -> unit of every per-layer metric, as BENCHMARK.json lists them
PER_LAYER = {
    "arima.select_order.busy_s": "s",
    "arima.select_order.calls": "count",
    "arima.fit_arima.cell_ar_s": "s",
    "arima.fit_arima.cell_arma_s": "s",
    "arima.cells.attempted": "count",
    "arima.cells.fitted": "count",
    "arima.cells.rejected": "count",
    "arima.cells.failed": "count",
    "arima.cells.useful_ratio": "ratio",
    "arima.overflow_warnings": "count",
    "arima.base.log_sigma2": "ln",
    "wavelet.modwt.busy_s": "s",
    "wavelet.wbf_fit.direct_s": "s",
    "wavelet.subseries_select_s": "s",
    "wavelet.sub_series": "count",
    "wavelet.fallbacks": "count",
    "wavelet.sub.log_sigma2": "ln",
    "hybrid.fit_hybrid.busy_s": "s",
    "hybrid.forecast_components.busy_s": "s",
    "hybrid.stage2_degraded": "count",
    "tree.cross_validate.busy_s": "s",
    "tree.grow.busy_s": "s",
    "tree.best_split.busy_s": "s",
    "tree.prune_sequence.busy_s": "s",
    "tree.variable_importance.busy_s": "s",
    "tree.predict.busy_s": "s",
    "tree.n_leaves": "count",
    "tree.prune_steps": "count",
    "svgplot.line_chart.busy_s": "s",
    "svgplot.tree_diagram.busy_s": "s",
    "metrics.report.busy_s": "s",
    "series.load_series_csv.busy_s": "s",
    "datasets.load_cfr_csv.busy_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.op_traced_s": "s",
    "trace.op_untraced_s": "s",
    "trace.overhead_ratio": "ratio",
}


def traced_run(tracer: Tracer, items, seconds: float, out_dir: Path):
    """Closed loop of (untraced op, traced op, sweeps) on the same input until
    one more round would overrun `seconds`; at least one round runs.

    Each metric is the median over the traced ops of its per-op value; the
    tracing overhead compares each traced op with the untraced op just before.
    """
    import ops

    results, per_op, rounds = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        op_id = len(per_op)
        item = items[op_id % len(items)]
        plain = ops.run_op(item, out_dir)
        traced, runtime_warnings = traced_op(
            tracer, op_id, item.command, lambda: ops.run_op(item, out_dir))
        results += [plain, traced]
        values = op_metrics(tracer, op_id, runtime_warnings)
        if item.command == "forecast" and traced.ok:
            values.update(sweeps(tracer, op_id))
        values["trace.op_traced_s"] = traced.seconds
        values["trace.op_untraced_s"] = plain.seconds
        values["trace.overhead_ratio"] = traced.seconds / plain.seconds
        per_op.append(values)
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    # a metric of a layer the workload does not use reads 0
    metrics = {name: (statistics.median(v.get(name, 0) for v in per_op), unit)
               for name, unit in PER_LAYER.items()}
    lines = [f"{name:36s}{value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"(each a median over {len(per_op)} traced ops)")
    return results, metrics, lines
