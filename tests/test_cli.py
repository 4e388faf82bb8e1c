"""Command-line driver contract tests (all offline, bundled data only)."""

import codecs
import csv
import datetime as dt
import gc
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from epiforecast import arima, cli, hybrid, svgplot, tree, wavelet

from conftest import run_fresh


# the UTF-8 byte-order mark
BOM = b"\xef\xbb\xbf"


def run_cli(*argv):
    return cli.main(list(argv))


def write_series(path, counts, start=dt.date(2020, 3, 1)):
    """A `date,cases` CSV of daily counts from `start`."""
    path.write_text("date,cases\n" + "".join(
        f"{start + dt.timedelta(days=i)},{c}\n" for i, c in enumerate(counts)))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _must_not_fit(*args, **kwargs):
    raise AssertionError("fitted before the options were checked")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run_cli("fetch", "all", "--out", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def india_run(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("india_run")
    assert run_cli("forecast", str(data_dir / "india.csv"), "--out", str(out)) == 0
    return out


class TestFetch:
    def test_bundled_india_row_count(self, data_dir):
        rows = read_csv(data_dir / "india.csv")
        assert len(rows) == 64
        assert rows[-1]["date"] == "2020-04-04"

    def test_bundled_south_korea_row_count(self, data_dir):
        rows = read_csv(data_dir / "south_korea.csv")
        assert len(rows) == 76

    def test_unknown_name_lists_available(self, tmp_path, capsys):
        assert run_cli("fetch", "atlantis", "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "atlantis" in err and "india" in err and "canada" in err

    def test_offline_url_refused(self, tmp_path, capsys):
        # there is no network code: a URL is just a name no dataset has
        url = "https://example.org/x.csv"
        assert run_cli("fetch", url, "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (f"fetch: unknown dataset {url!r}; available: canada, "
                                           "france, india, south_korea, uk, cfr_countries\n")
        assert not (tmp_path / "o").exists()


class TestForecast:
    def test_forecast_csv_contract(self, india_run):
        rows = read_csv(india_run / "india_forecast.csv")
        assert len(rows) == 10
        assert list(rows[0]) == ["date", "arima", "wbf_residual", "hybrid"]
        for row in rows:
            assert float(row["hybrid"]) >= 0.0
            assert np.isfinite(float(row["arima"]))

    def test_three_model_comparison(self, india_run):
        rows = read_csv(india_run / "india_models.csv")
        assert list(rows[0]) == ["date", "arima", "wbf", "hybrid"]
        for row in rows:
            for column in ("arima", "wbf", "hybrid"):
                assert float(row[column]) >= 0.0

    def test_fit_json_and_plot(self, india_run):
        payload = json.loads((india_run / "india_fit.json").read_text())
        assert payload["horizon"] == 10
        assert {"arima", "wbf", "hybrid"} <= set(payload["training_metrics"])
        # plot must be well-formed XML
        ET.fromstring((india_run / "india_plot.svg").read_text())

    def test_fit_json_holds_series_length_once(self, india_run, data_dir):
        def n_obs_paths(node, path=()):
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else ())
            for key, value in items:
                if key == "n_obs":
                    yield path + (key,)
                yield from n_obs_paths(value, path + (key,))

        payload = json.loads((india_run / "india_fit.json").read_text())
        assert list(n_obs_paths(payload)) == [("n_obs",)]
        assert payload["n_obs"] == len(read_csv(data_dir / "india.csv"))

    def test_constant_series(self, tmp_path):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"2020-03-{i + 1:02d},7" for i in range(25))
        path.write_text("date,cases\n" + rows + "\n")
        out = tmp_path / "out"
        assert run_cli("forecast", str(path), "--out", str(out)) == 0
        for row in read_csv(out / "flat_models.csv"):
            for column in ("arima", "wbf", "hybrid"):
                assert float(row[column]) == pytest.approx(7.0, abs=1e-6)

    def test_canada_training_report_ordering(self, tmp_path_factory, data_dir):
        out = tmp_path_factory.mktemp("canada_run")
        assert run_cli("forecast", str(data_dir / "canada.csv"), "--out", str(out)) == 0
        payload = json.loads((out / "canada_fit.json").read_text())
        train = payload["training_metrics"]
        assert train["hybrid"]["rmse"] < train["arima"]["rmse"]

    def test_byte_order_mark_changes_no_artifact(self, tmp_path, data_dir, india_run):
        # spreadsheet programs save "CSV UTF-8" with a leading byte-order mark
        path = tmp_path / "india.csv"
        path.write_bytes(BOM + (data_dir / "india.csv").read_bytes())
        out = tmp_path / "out"
        assert run_cli("forecast", str(path), "--out", str(out)) == 0
        names = sorted(p.name for p in india_run.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (india_run / name).read_bytes()

    def test_files_are_utf8_under_an_ascii_locale(self, tmp_path):
        path = write_series(tmp_path / "Côte.csv", [3 + i + 5 * (i % 4) for i in range(30)])
        code = ("import locale, sys\nfrom epiforecast import cli\n"
                "print(locale.getpreferredencoding(False))\nsys.exit(cli.main(sys.argv[1:]))")
        ascii_env = {"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0"}
        outs = {}
        for label, env in (("default", None), ("ascii", ascii_env)):
            outs[label] = tmp_path / label
            # the first line is the child's preferred encoding; the C-locale run's is kept
            encoding = run_fresh(code, "forecast", path, "--out", outs[label], env=env).splitlines()[0]
        names = sorted(p.name for p in outs["default"].iterdir())
        assert names == sorted(f"Côte_{kind}" for kind in
                               ("fit.json", "forecast.csv", "models.csv", "plot.svg"))
        assert sorted(p.name for p in outs["ascii"].iterdir()) == names
        for name in names:
            assert (outs["ascii"] / name).read_bytes() == (outs["default"] / name).read_bytes()
        assert json.loads((outs["default"] / "Côte_fit.json").read_text("utf-8"))["series"] == "Côte"
        if codecs.lookup(encoding).name == "utf-8":
            pytest.skip("the C locale's preferred encoding is UTF-8 here")

    def test_horizon_flag(self, tmp_path, data_dir):
        out = tmp_path / "h5"
        assert run_cli(
            "forecast", str(data_dir / "india.csv"), "--horizon", "5", "--out", str(out)
        ) == 0
        assert len(read_csv(out / "india_forecast.csv")) == 5

    def test_config_file_with_flag_override(self, tmp_path, data_dir):
        config = tmp_path / "run.cfg"
        config.write_text("horizon = 4\nout = %s\n" % (tmp_path / "cfgout"))
        out = tmp_path / "flagout"
        # flag overrides the config's out; horizon comes from the config
        assert run_cli(
            "forecast", str(data_dir / "india.csv"),
            "--config", str(config), "--out", str(out),
        ) == 0
        assert len(read_csv(out / "india_forecast.csv")) == 4

    def test_zero_horizon_flag_rejected_before_fitting(self, tmp_path, data_dir, monkeypatch, capsys):
        monkeypatch.setattr(hybrid, "fit_hybrid", _must_not_fit)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli("forecast", str(data_dir / "india.csv"), "--horizon", "0", "--out", str(out))
        assert exc.value.code == 2
        assert "argument --horizon: invalid positive_int value: '0'" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_horizon_config_rejected_before_fitting(self, tmp_path, data_dir, monkeypatch, capsys):
        monkeypatch.setattr(hybrid, "fit_hybrid", _must_not_fit)
        config = tmp_path / "run.cfg"
        config.write_text("# no empty forecasts\nhorizon = 0\n")
        out = tmp_path / "o"
        assert run_cli("forecast", str(data_dir / "india.csv"), "--config", str(config),
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == f"forecast: {config}:2: bad horizon value '0'\n"
        assert not out.exists()

    def test_bad_config_key_rejected(self, tmp_path, data_dir, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("horizons = 4\n")
        assert run_cli(
            "forecast", str(data_dir / "india.csv"), "--config", str(config)
        ) == 1
        assert "unknown option" in capsys.readouterr().err

    def test_repeated_config_key_rejected(self, tmp_path, data_dir, monkeypatch, capsys):
        # the first value would be read and then silently replaced
        monkeypatch.setattr(hybrid, "fit_hybrid", _must_not_fit)
        config = tmp_path / "run.cfg"
        config.write_text("horizon = 5\nhorizon = 7\n")
        out = tmp_path / "o"
        assert run_cli("forecast", str(data_dir / "india.csv"), "--config", str(config),
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == f"forecast: {config}:2: duplicate option 'horizon'\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", ["transform = none", "max_p = 2", "max_q = 2"])
    def test_removed_config_keys_rejected(self, tmp_path, data_dir, monkeypatch, capsys, line):
        # these keys were once accepted and then ignored
        monkeypatch.setattr(hybrid, "fit_hybrid", _must_not_fit)
        config = tmp_path / "old.cfg"
        config.write_text("horizon = 4\n" + line + "\n")
        key = line.split(" ")[0]
        assert run_cli("forecast", str(data_dir / "india.csv"), "--config", str(config)) == 1
        assert capsys.readouterr().err == f"forecast: {config}:2: unknown option '{key}'\n"

    @pytest.mark.parametrize("last, flags", [(dt.date.max, []),
                                             (dt.date.max - dt.timedelta(days=10), ["--horizon", "11"])])
    def test_horizon_past_the_last_date_rejected_before_fitting(
            self, tmp_path, monkeypatch, capsys, last, flags):
        monkeypatch.setattr(hybrid, "fit_hybrid", _must_not_fit)
        path = write_series(tmp_path / "late.csv", [5 + 3 * i for i in range(30)],
                            start=last - dt.timedelta(days=29))
        out = tmp_path / "o"
        assert run_cli("forecast", str(path), *flags, "--out", str(out)) == 1
        horizon = flags[1] if flags else "10"
        assert capsys.readouterr().err == f"forecast: {path}: --horizon {horizon} runs past 9999-12-31\n"
        assert not out.exists()

    def test_horizon_up_to_the_last_date(self, tmp_path):
        last = dt.date.max - dt.timedelta(days=3)
        path = write_series(tmp_path / "late.csv", [5 + 3 * i for i in range(30)],
                            start=last - dt.timedelta(days=29))
        out = tmp_path / "o"
        assert run_cli("forecast", str(path), "--horizon", "3", "--out", str(out)) == 0
        rows = read_csv(out / "late_forecast.csv")
        assert [row["date"] for row in rows] == ["9999-12-29", "9999-12-30", "9999-12-31"]

    def test_malformed_input_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("date,cases\n2020-03-01,xyz\n")
        assert run_cli("forecast", str(path), "--out", str(tmp_path / "o")) == 1
        assert not (tmp_path / "o").exists()

    def test_failed_fit_leaves_no_output_directory(self, tmp_path, capsys):
        # 12 rows load (the minimum is 8) but are too few for the hybrid fit
        path = tmp_path / "short.csv"
        start = dt.date(2020, 3, 1)
        path.write_text("date,cases\n" + "".join(
            f"{start + dt.timedelta(days=i)},{5 + 3 * i}\n" for i in range(12)))
        assert run_cli("forecast", str(path), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            f"forecast: {path}: hybrid fitting needs at least 20 observations, got 12\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("header, rows, message", [
        ("date,cases", ["2020-03-01,4", "2020-03-02,nan"], "3: non-finite cases value 'nan'"),
        ("date,cases", ["2020-03-01,inf"], "2: non-finite cases value 'inf'"),
        ("date,cases", ["2020-03-01,4", "2020-03-02,5", "2020-03-02,6"],
         "4: date 2020-03-02 is not the day after 2020-03-02"),
        ("date,cases", ["2020-03-01,4", "2020-03-03,5"],
         "3: date 2020-03-03 is not the day after 2020-03-01"),
        # a quoted cell that spans lines 2 and 3
        ("date,cases", ['2020-03-01,"4', '"', "2020-03-02,x"], "4: bad cases value 'x'"),
        # a repeated name is refused, whichever copy a reader would take
        ("date,cases,cases", ["2020-03-01,9,1"], "1: column cases appears twice"),
        ("date,cases", ["2020-03-01,4", "2020-03-02,5,999"], "3: expected 2 fields, got 3"),
    ], ids=["nan", "inf", "repeated-date", "gap", "after-two-line-cell", "repeated-column",
            "third-field"])
    def test_bad_series_row_names_file_and_line(self, tmp_path, capsys, header, rows, message):
        # 20 good days follow, so that the row under test is the only fault
        last = dt.date.fromisoformat(rows[-1].split(",")[0])
        pad = [f"{last + dt.timedelta(days=i)},7" for i in range(1, 21)]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([header, *rows, *pad]) + "\n")
        assert run_cli("forecast", str(path), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"forecast: {path}:{message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "byte-order-mark"])
    def test_non_utf8_series_names_file_and_line(self, tmp_path, data_dir, capsys, bom):
        lines = (data_dir / "india.csv").read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"\n", b"\xe9\n")  # Latin-1 for U+00E9
        path = tmp_path / "latin.csv"
        path.write_bytes(bom + b"".join(lines))
        assert run_cli("forecast", str(path), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"forecast: {path}:3: not UTF-8 text\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("error", [
        arima.ConvergenceError("simplex failed to converge for p=0, q=0 after restart budget"),
        ValueError("no usable sub-series"),
    ], ids=["convergence", "value"])
    def test_direct_wbf_failure_names_the_file(self, tmp_path, monkeypatch, capsys, error):
        # stage 2 degrades on the same failure; the direct fit has no fallback
        def fail(values):
            raise error

        monkeypatch.setattr(wavelet, "wbf_fit", fail)
        path = write_series(tmp_path / "flat.csv", [42] * 30)
        assert run_cli("forecast", str(path), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"forecast: {path}: {error}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("counts", [
        # the log-scale forecast runs past exp's range, so its level is inf
        np.geomspace(1.0, 1e300, 30),
        # so does the fitted level, which leaves stage 2 an infinite residual
        np.arange(30) % 2 * 1e300,
    ], ids=["growth", "alternating"])
    def test_level_overflow_warns_nothing_before_the_refusal(self, tmp_path, capsys, counts):
        path = write_series(tmp_path / "huge.csv", counts.tolist())
        assert run_cli("forecast", str(path), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"forecast: {path}: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    def test_horizon_whose_forecast_is_not_finite_refused(self, tmp_path, capsys):
        # the direct WBF's detail models of doubling counts have roots inside
        # the unit circle, so its forecast passes the largest double on day 997
        path = write_series(tmp_path / "dbl.csv", [2 ** t for t in range(30)],
                            start=dt.date(2020, 1, 1))
        out = tmp_path / "o"
        assert run_cli("forecast", str(path), "--horizon", "1000", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"forecast: {path}: --horizon 1000: "
                                "the wbf forecast is not finite from 2022-10-23\n")
        assert not out.exists()

    def test_seed_flag_rejected(self, data_dir, monkeypatch, capsys):
        # the forecast draws nothing at random, so it has no seed to take
        monkeypatch.setattr(hybrid, "fit_hybrid", _must_not_fit)
        with pytest.raises(SystemExit) as exc:
            run_cli("forecast", str(data_dir / "india.csv"), "--seed", "0")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["fetch", "india"], "horizon"),
    (["forecast", "india.csv"], "folds"),
    (["risktree", "cfr_countries.csv"], "horizon"),
    (["eval", "india.csv", "india.csv"], "minsplit"),
    (["fetch", "india"], "seed"),
    (["forecast", "india.csv"], "seed"),
    (["eval", "india.csv", "india.csv"], "seed"),
], ids=["fetch", "forecast", "risktree", "eval", "fetch-seed", "forecast-seed", "eval-seed"])
def test_config_key_of_another_command_rejected(tmp_path, data_dir, capsys, argv, key):
    # a key the command has no flag for would be read by nothing
    config = tmp_path / "run.cfg"
    config.write_text(f"out = {tmp_path / 'o'}\n{key} = 5\n")
    command, *inputs = argv
    paths = inputs if command == "fetch" else [str(data_dir / name) for name in inputs]
    assert run_cli(command, *paths, "--config", str(config), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (
        f"{command}: {config}:2: option '{key}' does not apply to {command}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["fetch", "india"], ["forecast", "india.csv"],
                                  ["risktree", "cfr_countries.csv"], ["eval", "india.csv", "india.csv"]],
                         ids=["fetch", "forecast", "risktree", "eval"])
def test_empty_out_rejected(tmp_path, data_dir, monkeypatch, capsys, argv):
    # an empty directory name would write into the current directory
    monkeypatch.setattr(hybrid, "fit_hybrid", _must_not_fit)
    command, *inputs = argv
    paths = inputs if command == "fetch" else [str(data_dir / name) for name in inputs]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *paths, "--out", "")
    assert exc.value.code == 2
    assert "argument --out: invalid directory value: ''" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text("# where to write\nout =\n")
    assert run_cli(command, *paths, "--config", str(config)) == 1
    assert capsys.readouterr().err == f"{command}: {config}:2: bad out value ''\n"
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("command, line", [
    ("forecast", "horizon = abc"),
    ("risktree", "minsplit = five"),
    ("risktree", "folds ="),
    ("risktree", "seed = 0x10"),
    ("risktree", "seed = -1"),
])
def test_non_integer_config_value_names_file_and_line(tmp_path, data_dir, monkeypatch, capsys, command, line):
    monkeypatch.setattr(hybrid, "fit_hybrid", _must_not_fit)
    config = tmp_path / "run.cfg"
    config.write_text(f"out = {tmp_path / 'o'}\n{line}\n")
    key, _, text = (part.strip() for part in line.partition("="))
    table = "india.csv" if command == "forecast" else "cfr_countries.csv"
    assert run_cli(command, str(data_dir / table), "--config", str(config)) == 1
    assert capsys.readouterr().err == f"{command}: {config}:2: bad {key} value {text!r}\n"
    assert not (tmp_path / "o").exists()


def test_config_file_with_byte_order_mark(tmp_path):
    config = tmp_path / "c.cfg"
    config.write_bytes(BOM + f"out = {tmp_path / 'data'}\n".encode())
    assert run_cli("fetch", "india", "--config", str(config)) == 0
    assert (tmp_path / "data" / "india.csv").is_file()


def test_non_utf8_config_names_file_and_line(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_bytes(b"# output\r\nout = " + bytes(tmp_path / "data") + b"\xe9\r\n")
    assert run_cli("fetch", "india", "--config", str(config)) == 1
    assert capsys.readouterr().err == f"fetch: {config}:2: not UTF-8 text\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("command, column, text, fault", [
    ("forecast", "cases", "x", "bad"),
    ("forecast", "cases", "nan", "non-finite"),
    ("forecast", "date", "2020-13-01", "bad"),
    ("risktree", "pct_over_65", "x", "bad"),
    ("risktree", "cfr", "-inf", "non-finite"),
    ("eval", "hybrid", "x", "bad"),
    ("eval", "hybrid", "NaN", "non-finite"),
    ("eval", "date", "banana", "bad"),
])
def test_bad_cell_wording_is_one_for_every_input(tmp_path, data_dir, capsys, command, column, text, fault):
    # series.read_csv parses the cells of the series, the risk table and the
    # eval forecast file, so every command words a bad cell alike
    series = write_series(tmp_path / "s.csv", range(30))
    source = {"forecast": series.read_text(),
              "risktree": (data_dir / "cfr_countries.csv").read_text(),
              "eval": series.read_text().replace("cases", "hybrid")}[command]
    header, *rows = source.splitlines()
    fields = rows[3].split(",")
    fields[header.split(",").index(column)] = text
    rows[3] = ",".join(fields)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    inputs = [series, path] if command == "eval" else [path]
    assert run_cli(command, *map(str, inputs), "--out", str(tmp_path / "o")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command}: {path}:5: {fault} {column} value {text!r}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, renderer",
                         [("forecast", "line_chart"), ("risktree", "tree_diagram")])
def test_failed_render_writes_nothing(tmp_path, data_dir, monkeypatch, capsys, command, renderer):
    # every file is rendered before the first is written
    def fail(*args, **kwargs):
        raise ValueError("cannot render")

    monkeypatch.setattr(svgplot, renderer, fail)
    source = (write_series(tmp_path / "flat.csv", [42] * 30) if command == "forecast"
              else data_dir / "cfr_countries.csv")
    out = tmp_path / "o"
    assert run_cli(command, str(source), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"{command}: cannot render\n"
    assert not out.exists()


# Series at the edges of what `forecast` accepts, each with the base order
# (p, d, q) it selects. The AIC rule picks these as they are: ARIMA(4,0,2)
# spends 7 coefficients on the 15 residuals of the length-20 quadratic.
DEGENERATE = {
    "zeros": ([0] * 30, (0, 0, 0)),
    "constant": ([42] * 30, (0, 0, 0)),
    "spike": ([0] * 20 + [500] + [0] * 9, (2, 1, 0)),
    "length_20": ([i * i for i in range(20)], (4, 0, 2)),
    "about_1e9": ([1_000_000_000 + 37_000 * (i * 7919 % 101) for i in range(30)], (0, 0, 1)),
    # the plot's value span, 5e-324, once underflowed to a zero tick step
    "subnormal": (["0", "5e-324"] * 15, (0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_series_sweep(tmp_path, capsys, name):
    counts, order = DEGENERATE[name]
    path = write_series(tmp_path / f"{name}.csv", counts)
    files = [f"{name}_forecast.csv", f"{name}_models.csv", f"{name}_fit.json", f"{name}_plot.svg"]
    runs = []
    for rerun in ("first", "second"):
        out = tmp_path / rerun
        assert run_cli("forecast", str(path), "--out", str(out)) == 0, capsys.readouterr().err
        # every file, each path printed in this order
        assert capsys.readouterr().out == "".join(f"{out / file}\n" for file in files)
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(runs[0]) == sorted(files)
    assert runs[0] == runs[1]
    for stem, columns in (("forecast", ("arima", "hybrid")), ("models", ("arima", "wbf", "hybrid"))):
        for row in read_csv(tmp_path / "first" / f"{name}_{stem}.csv"):
            assert math.isfinite(float(row.get("wbf_residual", 0.0))), row
            assert all(math.isfinite(float(row[c])) and float(row[c]) >= 0.0 for c in columns), row
    base = json.loads(runs[0][f"{name}_fit.json"])["model"]["base"]["order"]
    assert (base["p"], base["d"], base["q"]) == order


class TestRisktree:
    def test_bundled_table_quality(self, tmp_path, data_dir):
        out = tmp_path / "rt"
        assert run_cli(
            "risktree", str(data_dir / "cfr_countries.csv"),
            "--minsplit", "5", "--out", str(out),
        ) == 0
        report = json.loads((out / "risktree_report.json").read_text())
        assert report["metrics"]["r2"] >= 0.85
        importance = read_csv(out / "importance.csv")
        assert len(importance) == 10
        ET.fromstring((out / "risktree.svg").read_text())

    def test_run_leaves_no_tree_node_in_reference_cycles(self, tmp_path, data_dir):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds in gc.garbage
        try:
            assert run_cli("risktree", str(data_dir / "cfr_countries.csv"), "--out", str(tmp_path)) == 0
            gc.collect()
            # any object of a type that the tree module defines
            cyclic = sum(type(obj).__module__ == tree.__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert cyclic == 0

    # the mean of fifty 0.05s is 0.04999999999999999, not 0.05
    @pytest.mark.parametrize("cfr", ["0.02", "0.05"])
    def test_constant_response_flagged(self, tmp_path, data_dir, cfr):
        rows = read_csv(data_dir / "cfr_countries.csv")
        path = tmp_path / "flat.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            for row in rows:
                row["cfr"] = cfr
                writer.writerow(row)
        out = tmp_path / "rt"
        assert run_cli("risktree", str(path), "--minsplit", "5", "--out", str(out)) == 0
        payload = json.loads((out / "risktree.json").read_text())
        assert payload["n_leaves"] == 1
        assert payload["metrics"]["r2"] is None
        assert payload["metrics"]["note"] == "r2 undefined: constant response"

    def test_tiny_table_yields_root_only(self, tmp_path, data_dir):
        rows = read_csv(data_dir / "cfr_countries.csv")[:3]
        path = tmp_path / "tiny.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "rt"
        assert run_cli("risktree", str(path), "--minsplit", "5", "--folds", "2",
                       "--out", str(out)) == 0
        payload = json.loads((out / "risktree.json").read_text())
        assert payload["n_leaves"] == 1

    @pytest.mark.parametrize("key, where", [
        ("minsplit", ("minsplit",)), ("folds", ("cv", "folds")), ("seed", ("cv", "seed")),
    ])
    def test_config_key_then_flag_override(self, tmp_path, data_dir, key, where):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = 7\n")
        table = str(data_dir / "cfr_countries.csv")
        for extra, expected in (([], 7), ([f"--{key}", "4"], 4)):
            out = tmp_path / f"rt{expected}"
            assert run_cli("risktree", table, "--config", str(config), *extra, "--out", str(out)) == 0
            value = json.loads((out / "risktree.json").read_text())
            for part in where:
                value = value[part]
            assert value == expected

    def test_config_run_equals_flag_run(self, tmp_path, data_dir):
        config = tmp_path / "run.cfg"
        config.write_text(f"minsplit = 6\nfolds = 5\nseed = 3\nout = {tmp_path / 'cfg'}\n")
        table = str(data_dir / "cfr_countries.csv")
        assert run_cli("risktree", table, "--config", str(config)) == 0
        assert run_cli("risktree", table, "--minsplit", "6", "--folds", "5", "--seed", "3",
                       "--out", str(tmp_path / "flags")) == 0
        runs = [{p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
                for name in ("cfg", "flags")]
        assert len(runs[0]) == 4 and runs[0] == runs[1]

    def test_schema_mismatch_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("country,total_cases_thousands,cfr\nx,1.0,0.02\n")
        assert run_cli("risktree", str(path), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "missing required columns" in err
        assert "population_millions" in err
        assert not (tmp_path / "o").exists()

    def test_repeated_column_name_refused(self, tmp_path, data_dir, capsys):
        # a second cfr column: the first, all 0.9, lies outside [0, 0.2]
        header, *lines = (data_dir / "cfr_countries.csv").read_text().splitlines()
        rows = [line.rsplit(",", 1) for line in lines]
        path = tmp_path / "twice.csv"
        path.write_text("\n".join([header + ",cfr", *(f"{head},0.9,{cfr}" for head, cfr in rows)]) + "\n")
        assert run_cli("risktree", str(path), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"risktree: {path}:1: column cfr appears twice\n"
        assert not (tmp_path / "o").exists()

    def test_row_of_wrong_width_refused(self, tmp_path, data_dir, capsys):
        lines = (data_dir / "cfr_countries.csv").read_text().splitlines()
        width = len(lines[0].split(","))
        lines[3] += ",7"
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("risktree", str(path), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == \
            f"risktree: {path}:4: expected {width} fields, got {width + 1}\n"
        lines[3] = lines[3].rsplit(",", 2)[0]
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("risktree", str(path), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == \
            f"risktree: {path}:4: expected {width} fields, got {width - 1}\n"
        assert not (tmp_path / "o").exists()

    def test_bad_value_names_its_line_after_a_blank_line(self, tmp_path, data_dir, capsys):
        lines = (data_dir / "cfr_countries.csv").read_text().splitlines()[:6]
        # a blank line after data row 3 moves data rows 4 and 5 to lines 6 and 7
        lines.insert(4, "")
        fields = lines[6].split(",")
        fields[1] = "many"
        lines[6] = ",".join(fields)
        path = tmp_path / "gap.csv"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("risktree", str(path), "--out", str(tmp_path / "o")) == 1
        assert f"{path}:7: bad total_cases_thousands value 'many'" in capsys.readouterr().err

    def test_negative_seed_flag_rejected_before_fitting(self, tmp_path, data_dir, monkeypatch, capsys):
        monkeypatch.setattr(tree, "cross_validate", _must_not_fit)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli("risktree", str(data_dir / "cfr_countries.csv"), "--seed", "-1", "--out", str(out))
        assert exc.value.code == 2
        assert "argument --seed: invalid non_negative_int value: '-1'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--folds", "1", "folds must be at least 2, got 1"),
        ("--minsplit", "0", "minsplit (0) must be at least twice minbucket (1)"),
    ])
    def test_bad_tree_option_writes_nothing(self, tmp_path, data_dir, capsys, flag, value, message):
        out = tmp_path / "o"
        assert run_cli("risktree", str(data_dir / "cfr_countries.csv"), flag, value,
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == f"risktree: {message}\n"
        assert not out.exists()


    def test_one_row_table_with_one_fold_refused(self, tmp_path, data_dir, capsys):
        path = tmp_path / "one.csv"
        path.write_text("\n".join((data_dir / "cfr_countries.csv").read_text().splitlines()[:2]) + "\n")
        out = tmp_path / "o"
        assert run_cli("risktree", str(path), "--folds", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err == "risktree: folds must be at least 2, got 1\n"
        assert not out.exists()

    def test_table_smaller_than_folds_names_the_file(self, tmp_path, data_dir, capsys):
        path = tmp_path / "three.csv"
        path.write_text("\n".join((data_dir / "cfr_countries.csv").read_text().splitlines()[:4]) + "\n")
        out = tmp_path / "o"
        assert run_cli("risktree", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"risktree: {path}: --folds 10 needs at least 10 rows, got 3\n"
        assert not out.exists()

    def test_cut_midpoints_past_the_largest_double_warn_nothing(self, tmp_path, data_dir, capsys):
        with open(data_dir / "cfr_countries.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("total_cases_thousands")
        for i, row in enumerate(rows[1:]):
            row[col] = repr(8.5e307 if i % 2 else 1.7e308)
        path = tmp_path / "huge.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run_cli("risktree", str(path), "--out", str(tmp_path / "o")) == 0
        assert capsys.readouterr().err == ""


class TestEval:
    def test_identical_files_score_zero(self, tmp_path, data_dir, capsys):
        path = data_dir / "india.csv"
        assert run_cli("eval", str(path), str(path), "--column", "cases") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["rmse"] == 0.0

    def test_byte_order_mark_in_actual_file(self, tmp_path, data_dir, capsys):
        path = data_dir / "india.csv"
        assert run_cli("eval", str(path), str(path), "--column", "cases") == 0
        plain = capsys.readouterr().out
        bom = tmp_path / "bom.csv"
        bom.write_bytes(BOM + path.read_bytes())
        assert run_cli("eval", str(bom), str(path), "--column", "cases") == 0
        assert capsys.readouterr().out == plain

    def test_disjoint_dates_error(self, tmp_path, data_dir, capsys):
        other = tmp_path / "later.csv"
        rows = "\n".join(f"2021-01-{i + 1:02d},{i}" for i in range(9))
        other.write_text("date,cases\n" + rows + "\n")
        out = tmp_path / "o"
        assert run_cli("eval", str(data_dir / "india.csv"), str(other), "--column", "cases",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == f"eval: {data_dir / 'india.csv'} and {other} share no date\n"
        assert not out.exists()

    def test_hand_built_pair(self, tmp_path, capsys):
        actual = tmp_path / "a.csv"
        actual.write_text("date,cases\n2020-03-01,1\n2020-03-02,2\n2020-03-03,3\n")
        forecast = tmp_path / "f.csv"
        forecast.write_text("date,hybrid\n2020-03-01,2\n2020-03-02,2\n2020-03-03,2\n")
        assert run_cli("eval", str(actual), str(forecast)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["rmse"] == pytest.approx(np.sqrt(2.0 / 3.0))
        assert payload["metrics"]["mae"] == pytest.approx(2.0 / 3.0)

    def test_huge_counts_score_as_strict_json(self, tmp_path, capsys):
        # unscaled, the squared deviations overflow and r2 is NaN
        actual = tmp_path / "a.csv"
        actual.write_text("date,cases\n2020-03-01,1e200\n2020-03-02,3e200\n2020-03-03,2e200\n")
        forecast = tmp_path / "f.csv"
        forecast.write_text("date,hybrid\n2020-03-01,2e200\n2020-03-02,1e200\n2020-03-03,2e200\n")
        assert run_cli("eval", str(actual), str(forecast)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(captured.out, parse_constant=refuse)
        assert payload["metrics"]["r2"] == -1.5

    def test_overflowing_errors_refused(self, tmp_path, capsys):
        # |a - p| passes the largest double, so rmse and mae are Infinity: not JSON
        actual = tmp_path / "a.csv"
        actual.write_text("date,cases\n2020-03-01,1.7e308\n2020-03-02,1e308\n2020-03-03,0\n")
        forecast = tmp_path / "f.csv"
        forecast.write_text("date,hybrid\n2020-03-01,-1.7e308\n2020-03-02,1e308\n2020-03-03,5\n")
        out = tmp_path / "o"
        assert run_cli("eval", str(actual), str(forecast), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"eval: {forecast}: a value is not finite, "
                                "and JSON has no NaN or Infinity\n")
        assert not out.exists()

    @pytest.mark.parametrize("column", [" hybrid ", "Hybrid ", "HYBRID"])
    def test_column_name_ignores_case_and_surrounding_spaces(self, tmp_path, capsys, column):
        actual = tmp_path / "a.csv"
        actual.write_text("date,cases\n2020-03-01,1\n2020-03-02,2\n2020-03-03,3\n")
        forecast = tmp_path / "f.csv"
        forecast.write_text("date,hybrid\n2020-03-01,2\n2020-03-02,2\n2020-03-03,2\n")
        assert run_cli("eval", str(actual), str(forecast), "--column", "hybrid") == 0
        plain = capsys.readouterr().out
        assert run_cli("eval", str(actual), str(forecast), "--column", column) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (plain, "")

    @pytest.mark.parametrize("header, row, message", [
        ("date,hybrid", "2020-03-02,nan", "3: non-finite hybrid value 'nan'"),
        ("date,hybrid", "2020-03-02,inf", "3: non-finite hybrid value 'inf'"),
        ("date,hybrid", "2020-03-02,abc", "3: bad hybrid value 'abc'"),
        ("date,hybrid", "2020-03-02,", "3: bad hybrid value ''"),
        # a repeated name is refused, whichever copy a reader would take
        ("date,hybrid,hybrid", "2020-03-02,2,7", "1: column hybrid appears twice"),
        ("date,hybrid", "2020-03-02,2,7", "3: expected 2 fields, got 3"),
        ("date,hybrid", "banana,2", "3: bad date value 'banana'"),
    ], ids=["nan-non-finite hybrid value 'nan'", "inf-non-finite hybrid value 'inf'",
            "abc-bad hybrid value 'abc'", "-bad hybrid value ''",  # cell and message
            "repeated-column", "third-field", "bad-date"])
    def test_bad_forecast_cell_names_file_and_line(self, tmp_path, capsys, header, row, message):
        actual = tmp_path / "a.csv"
        actual.write_text("date,cases\n2020-03-01,1\n2020-03-02,2\n")
        forecast = tmp_path / "f.csv"
        forecast.write_text(f"{header}\n2020-03-01,2\n{row}\n")
        assert run_cli("eval", str(actual), str(forecast), "--out", str(tmp_path / "o")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"eval: {forecast}:{message}\n"
        assert not (tmp_path / "o").exists()

    def test_non_utf8_actual_file_names_file_and_line(self, tmp_path, data_dir, capsys):
        actual = tmp_path / "a.csv"
        # a UTF-8 é on line 2; a lone continuation byte on line 4
        actual.write_bytes("date,cases\n2020-03-01,1 \u00e9\n".encode() + b"\n2020-03-02,\x812\n")
        assert run_cli("eval", str(actual), str(data_dir / "india.csv"), "--column", "cases") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"eval: {actual}:4: not UTF-8 text\n"

    @pytest.mark.parametrize("column", ["date", " Date "])
    def test_date_column_is_not_a_forecast_column(self, tmp_path, data_dir, capsys, column):
        path = data_dir / "india.csv"
        assert run_cli("eval", str(path), str(path), "--column", column) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "eval: --column date: the date column holds no values to score\n"

    @pytest.mark.parametrize("column", ["", "  "], ids=["empty", "spaces"])
    @pytest.mark.parametrize("end", ["", ","], ids=["plain", "blank-header-cell"])
    def test_blank_column_names_the_option(self, tmp_path, capsys, column, end):
        # a header with a trailing comma has a blank column for the blank name to find
        path = tmp_path / "f.csv"
        path.write_text("".join(f"{line}{end}\n" for line in ("date,cases", "2020-03-01,1")))
        assert run_cli("eval", str(path), str(path), "--column", column) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"eval: --column {column!r}: names no column\n"

    def test_duplicate_date_rejected(self, tmp_path, capsys):
        actual = tmp_path / "a.csv"
        actual.write_text("date,cases\n2020-03-01,1\n2020-03-02,2\n2020-03-01,5\n")
        forecast = tmp_path / "f.csv"
        forecast.write_text("date,hybrid\n2020-03-01,2\n2020-03-02,2\n")
        assert run_cli("eval", str(actual), str(forecast)) == 1
        assert capsys.readouterr().err == f"eval: {actual}:4: duplicate date '2020-03-01'\n"

    def test_eval_json_written_only_for_a_flag_or_config_out(self, tmp_path, data_dir, monkeypatch, capsys):
        path = str(data_dir / "india.csv")
        config = tmp_path / "e.cfg"
        config.write_text(f"out = {tmp_path / 'cfgout'}\n")
        monkeypatch.chdir(tmp_path)
        printed = []
        for extra in ([], ["--config", str(config)], ["--out", "flagout"]):
            assert run_cli("eval", path, path, "--column", "cases", *extra) == 0
            printed.append(json.loads(capsys.readouterr().out))
        # without an out directory nothing is written, not even ./out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfgout", "e.cfg", "flagout"]
        for name in ("cfgout", "flagout"):
            assert json.loads((tmp_path / name / "eval.json").read_text()) == printed[0]
