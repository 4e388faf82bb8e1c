"""Bundled data snapshots and the risk-table CSV schema."""

from __future__ import annotations

from importlib import resources

import numpy as np

from . import tree
from .series import TimeSeries, load_series_csv, read_csv

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
    """Read a risk-factor CSV into a Table, reporting a bad value with its
    column and line (see `series.read_csv` for the header, row and cell checks)."""
    names, kinds = zip(*CFR_COLUMNS)
    rows = []
    responses = []
    for lineno, (*row, y) in read_csv(path, (*names, CFR_RESPONSE)):
        where = f"{path}:{lineno}"
        for name, kind, value in zip(names, kinds, row):
            if kind == tree.NUMERIC and value < 0:
                raise ValueError(f"{where}: column {name}: must be non-negative")
            if kind == tree.CATEGORICAL and value not in _CATEGORY_LEVELS[name]:
                allowed = sorted(int(v) for v in _CATEGORY_LEVELS[name])
                raise ValueError(f"{where}: column {name}: level {value:g} not in {allowed}")
        if not 0.0 <= y <= 0.2:
            raise ValueError(f"{where}: column {CFR_RESPONSE}: {y} outside the plausible range [0, 0.2]")
        rows.append(row)
        responses.append(y)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return tree.Table(names=names, kinds=kinds, x=np.asarray(rows), y=np.asarray(responses))
