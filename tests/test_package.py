"""The package's public names, and the modules that an import or a command
loads in a fresh interpreter."""

import ast
import importlib

import pytest

import epiforecast

from conftest import run_fresh

PUBLIC = {
    "ArimaFit", "ArimaOrder", "HybridFit", "ModwtDecomposition", "RegressionTree", "Table",
    "TimeSeries", "TransformSpec", "WbfFit", "acf", "adf_test", "adj_r2", "best_split",
    "cross_validate", "decomposition_level", "fit_arima", "fit_hybrid", "forecast_arima",
    "forecast_components", "forecast_hybrid", "grow", "imodwt", "mae", "modwt",
    "prune_sequence", "r2", "rmse", "select_order", "wbf_fit", "wbf_forecast",
}
FORECASTER = {"epiforecast.arima", "epiforecast.hybrid", "epiforecast.wavelet"}
# what the standard library's XML escape pulled in
NETWORK = {"xml.sax.saxutils", "urllib.request", "http.client", "ssl", "email"}

# prints the modules that `body` loads beyond those of a bare interpreter
_LOADED = """
import sys
bare = set(sys.modules)
{body}
print(sorted(set(sys.modules) - bare))
"""


def loaded_by(body: str, *args) -> set:
    return set(ast.literal_eval(run_fresh(_LOADED.format(body=body), *args).splitlines()[-1]))


class TestPublicNames:
    def test_every_public_name_is_the_object_its_module_defines(self):
        assert set(epiforecast.__all__) == PUBLIC
        for name in PUBLIC:
            value = getattr(epiforecast, name)
            assert value is getattr(importlib.import_module(value.__module__), name), name

    def test_dir_lists_every_public_name(self):
        assert PUBLIC <= set(dir(epiforecast))

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from epiforecast import *", namespace)
        assert PUBLIC <= namespace.keys()
        assert all(namespace[name] is getattr(epiforecast, name) for name in PUBLIC)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            epiforecast.no_such_name
        with pytest.raises(ImportError):
            exec("from epiforecast import no_such_name", {})


class TestModulesLoaded:
    def test_data_modules_load_no_forecaster(self):
        loaded = loaded_by("from epiforecast import datasets, series")
        assert {"epiforecast.datasets", "epiforecast.series", "epiforecast.tree"} <= loaded
        assert not loaded & (FORECASTER | {"epiforecast.metrics"})

    def test_public_name_loads_its_module(self):
        loaded = loaded_by("from epiforecast import fit_hybrid")
        assert FORECASTER <= loaded

    @pytest.mark.parametrize("command", ["risktree", "fetch", "eval"])
    def test_command_loads_no_forecaster_and_no_network_modules(self, tmp_path, command):
        table = "resources.files('epiforecast') / 'data' / 'cfr_countries.csv'"
        series = "resources.files('epiforecast') / 'data' / 'india.csv'"
        argv = {"risktree": f"['risktree', str({table}), '--out', sys.argv[1]]",
                "fetch": "['fetch', 'all', '--out', sys.argv[1]]",
                "eval": f"['eval', str({series}), str({series}), '--column', 'cases']"}[command]
        loaded = loaded_by("from importlib import resources\n"
                           "from epiforecast import cli\n"
                           f"assert cli.main({argv}) == 0", tmp_path)
        assert "epiforecast.cli" in loaded
        assert not loaded & (FORECASTER | NETWORK)
