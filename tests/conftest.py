"""Shared fixtures; expensive model fits are cached for the whole session."""

from __future__ import annotations

import datetime as dt
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epiforecast import datasets, hybrid
from epiforecast.series import TimeSeries

COUNTRIES = ("canada", "france", "india", "south_korea", "uk")


def make_series(values, start=dt.date(2020, 3, 1)) -> TimeSeries:
    values = np.asarray(values, dtype=float)
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(values)))
    return TimeSeries(dates=dates, values=values)


def run_fresh(code, *args, env=None):
    """Run `code` in a fresh interpreter that imports this package, with the
    variables of `env` added to the environment; its stdout."""
    src = str(Path(datasets.__file__).parents[1])
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="session")
def country_series():
    return {name: datasets.load_series(name) for name in COUNTRIES}


@pytest.fixture(scope="session")
def country_hybrids(country_series):
    """Hybrid fits for every bundled country (slow: order search + wavelet stage)."""
    return {name: hybrid.fit_hybrid(s) for name, s in country_series.items()}


@pytest.fixture(scope="session")
def cfr_table():
    return datasets.load_cfr_table()
