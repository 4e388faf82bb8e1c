"""Bundled data snapshots and the risk-table CSV schema."""

from __future__ import annotations

import csv
from importlib import resources

import numpy as np

from . import tree
from .series import TimeSeries, load_series_csv

BUNDLED_SERIES = ("canada", "france", "india", "south_korea", "uk")
CFR_TABLE = "cfr_countries"

CFR_COLUMNS = [
    ("total_cases_thousands", tree.NUMERIC),
    ("population_millions", tree.NUMERIC),
    ("pop_density_per_km2", tree.NUMERIC),
    ("pct_over_65", tree.NUMERIC),
    ("lockdown_days", tree.NUMERIC),
    ("outbreak_days", tree.NUMERIC),
    ("doctors_per_1000", tree.NUMERIC),
    ("hospital_beds_per_1000", tree.NUMERIC),
    ("income_level", tree.CATEGORICAL),
    ("climate_zone", tree.CATEGORICAL),
]
CFR_RESPONSE = "cfr"
_CATEGORY_LEVELS = {"income_level": {0.0, 1.0}, "climate_zone": {-1.0, 0.0, 1.0}}


def bundled_path(name: str):
    """Filesystem path of a bundled snapshot CSV."""
    fname = f"{name}.csv"
    ref = resources.files("epiforecast") / "data" / fname
    if not ref.is_file():
        raise KeyError(
            f"no bundled dataset {name!r}; available: {', '.join(BUNDLED_SERIES)} or {CFR_TABLE}"
        )
    return ref


def load_series(name: str) -> TimeSeries:
    if name not in BUNDLED_SERIES:
        raise KeyError(
            f"no bundled series {name!r}; available: {', '.join(BUNDLED_SERIES)}"
        )
    with resources.as_file(bundled_path(name)) as path:
        return load_series_csv(path)


def load_cfr_table() -> tree.Table:
    with resources.as_file(bundled_path(CFR_TABLE)) as path:
        return load_cfr_csv(path)


def load_cfr_csv(path) -> tree.Table:
    """Read a risk-factor CSV into a Table, reporting schema problems per column."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        missing = [name for name, _ in CFR_COLUMNS if name not in reader.fieldnames]
        if CFR_RESPONSE not in reader.fieldnames:
            missing.append(CFR_RESPONSE)
        if missing:
            raise ValueError(f"{path}: missing required columns: {', '.join(missing)}")
        rows = []
        responses = []
        for record in reader:
            lineno = reader.line_num  # counts the blank lines DictReader skips
            row = []
            for name, kind in CFR_COLUMNS:
                try:
                    value = float(record[name])
                except (TypeError, ValueError):
                    raise ValueError(f"{path}:{lineno}: column {name}: not a number: {record[name]!r}")
                if not np.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: column {name}: must be finite")
                if kind == tree.NUMERIC and value < 0:
                    raise ValueError(f"{path}:{lineno}: column {name}: must be non-negative")
                if kind == tree.CATEGORICAL and value not in _CATEGORY_LEVELS[name]:
                    allowed = sorted(int(v) for v in _CATEGORY_LEVELS[name])
                    raise ValueError(
                        f"{path}:{lineno}: column {name}: level {record[name]!r} not in {allowed}"
                    )
                row.append(value)
            try:
                y = float(record[CFR_RESPONSE])
            except (TypeError, ValueError):
                raise ValueError(
                    f"{path}:{lineno}: column {CFR_RESPONSE}: not a number: {record[CFR_RESPONSE]!r}"
                )
            if not 0.0 <= y <= 0.2:
                raise ValueError(
                    f"{path}:{lineno}: column {CFR_RESPONSE}: {y} outside the plausible range [0, 0.2]"
                )
            rows.append(row)
            responses.append(y)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    names = tuple(name for name, _ in CFR_COLUMNS)
    kinds = tuple(kind for _, kind in CFR_COLUMNS)
    return tree.Table(names=names, kinds=kinds, x=np.asarray(rows), y=np.asarray(responses))
