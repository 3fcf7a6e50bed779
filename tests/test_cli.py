import json
import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ftsmooth import __version__
from ftsmooth.bandwidth import CvConfig
from ftsmooth.cli import main
from ftsmooth.estimators import ESTIMATORS
from ftsmooth.io import (MalformedInput, provenance, read_series_csv,
                         write_csv, write_json_atomic, write_series_csv)
from ftsmooth.simulation import RESULT_FIELDS, SimSpec, monte_carlo, mu1


@pytest.fixture
def runner():
    return CliRunner()


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def write_input(path, values, times=None):
    values = np.atleast_2d(values)
    n = values.shape[0]
    t = np.arange(n) / n if times is None else times
    with open(path, "w") as f:
        f.write("t," + ",".join(f"x{j}" for j in range(values.shape[1]))
                + "\n")
        for i in range(n):
            f.write(",".join(f"{v:.17g}" for v in [t[i], *values[i]]) + "\n")


class TestSimulate:
    def test_zero_noise_debug_run(self, runner, tmp_path):
        out = str(tmp_path / "run")
        res = runner.invoke(main, ["simulate", "--mean", "flat",
                                   "--errors", "none", "--n", "40",
                                   "--m", "10", "--reps", "1",
                                   "--grid-size", "6", "--seed", "7",
                                   "--estimators", "ll", "--out", out])
        assert res.exit_code == 0, res.output
        lines = Path(out + "_results.csv").read_text().splitlines()
        assert lines[0].startswith("#")  # provenance
        header = lines[1].split(",")
        mu_row = [l for l in lines[2:] if l.startswith("ll,mu")][0].split(",")
        assert float(mu_row[header.index("mean_mse")]) <= 1e-10
        summary = json.loads(Path(out + "_summary.json").read_text())
        assert summary["failed_replications"] == {"ll": 0}

    def test_byte_identical_reruns_any_thread_count(self, runner, tmp_path):
        args = ["simulate", "--mean", "mu1", "--errors", "bb", "--n", "40",
                "--m", "10", "--reps", "4", "--grid-size", "5",
                "--seed", "3", "--estimators", "ll,nw"]
        blobs = []
        for threads, tag in (("1", "a"), ("4", "b")):
            out = str(tmp_path / tag)
            env = dict(os.environ, FTS_THREADS=threads)
            res = runner.invoke(main, args + ["--out", out], env=env)
            assert res.exit_code == 0, res.output
            blobs.append(Path(out + "_results.csv").read_bytes()
                         + Path(out + "_summary.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_one_estimators_failed_cv_is_counted_not_fatal(self, runner,
                                                            tmp_path):
        # at n=12 the jackknife finds no valid bandwidth in either
        # replication; ll and nw still report theirs
        out = str(tmp_path / "run")
        res = runner.invoke(main, ["simulate", "--n", "12", "--k", "2",
                                   "--reps", "2", "--out", out])
        assert res.exit_code == 0, res.output
        failed = json.loads(Path(out + "_summary.json").read_text())[
            "failed_replications"]
        assert failed == {"ll": 0, "jackknife": 2, "nw": 0}
        rows = Path(out + "_results.csv").read_text().splitlines()[2:]
        assert {r.split(",")[0] for r in rows} == {"ll", "nw"}

    def test_no_estimator_succeeding_exits_4(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--n", "12", "--k", "2",
                                   "--reps", "2", "--estimators", "jackknife",
                                   "--out", str(tmp_path / "run")])
        assert res.exit_code == 4, res.output
        assert "error: AllBandwidthsInvalid:" in res.output

    def test_results_csv_reads_back_as_the_table(self, runner, tmp_path):
        # The header is RESULT_FIELDS; each cell parses back, as its
        # field's type, to the library's value (17 digits round-trip).
        out = str(tmp_path / "run")
        res = runner.invoke(main, ["simulate", "--n", "40", "--m", "5",
                                   "--reps", "2", "--grid-size", "5",
                                   "--estimators", "nw,ll", "--out", out])
        assert res.exit_code == 0, res.output
        assert res.output == f"wrote {out}_results.csv\n"
        table = monte_carlo(SimSpec(mu1(), "bm", 40, 5, 2, 0), ("nw", "ll"),
                            CvConfig(grid_size=5))
        lines = Path(out + "_results.csv").read_text().splitlines()
        assert lines[1].split(",") == list(RESULT_FIELDS)
        assert len(lines) - 2 == len(table.rows)
        for line, row in zip(lines[2:], table.rows):
            for field, cell in zip(RESULT_FIELDS, line.split(",")):
                value = getattr(row, field)
                assert type(value)(cell) == value, field

    @pytest.mark.parametrize("value", ["csv", "json"])
    def test_format_flag_is_withdrawn(self, runner, tmp_path, value):
        out = str(tmp_path / "run")
        res = runner.invoke(main, ["simulate", "--n", "20", "--m", "5",
                                   "--reps", "1", "--format", value,
                                   "--out", out])
        assert res.exit_code == 2
        assert "No such option" in res.output and "--format" in res.output
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("selection", ["ll,ll", ","])
    def test_bad_estimator_selection_exits_2(self, runner, tmp_path,
                                             selection):
        out = str(tmp_path / "run")
        res = runner.invoke(main, ["simulate", "--n", "20", "--m", "5",
                                   "--reps", "2", "--estimators", selection,
                                   "--out", out])
        assert res.exit_code == 2
        assert "error: ValueError:" in res.output
        assert not os.path.exists(out + "_results.csv")

    def test_fts_threads_is_ignored(self, runner, tmp_path):
        # Replications run serially: FTS_THREADS is not read, so even a
        # value that is not a count changes nothing.
        args = ["simulate", "--n", "20", "--m", "5", "--reps", "2",
                "--grid-size", "4", "--estimators", "ll,nw"]
        blobs = []
        for threads, tag in (("two", "a"), (None, "b")):
            out = str(tmp_path / tag)
            res = runner.invoke(main, args + ["--out", out],
                                env={"FTS_THREADS": threads})
            assert res.exit_code == 0, res.output
            blobs.append(Path(out + "_results.csv").read_bytes()
                         + Path(out + "_summary.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_bad_flag_exits_2(self, runner):
        res = runner.invoke(main, ["simulate", "--mean", "mu3"])
        assert res.exit_code == 2

    def test_bad_numeric_config_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "--mean", "flat",
                                   "--errors", "none", "--n", "4",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2


_TWO_ROWS = "t,x0\n0.0,1.0\n0.5,2.0\n"


class TestSmooth:
    def test_constant_passthrough(self, runner, tmp_path):
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.full((30, 2), 2.5))
        out = str(tmp_path / "sm")
        res = runner.invoke(main, ["smooth", "--input", inp,
                                   "--estimator", "nw",
                                   "--bandwidth", "0.3", "--out", out])
        assert res.exit_code == 0, res.output
        got = read_series_csv(out + "_mu.csv")
        assert np.allclose(got.values, 2.5, atol=1e-12)
        header = Path(out + "_mu.csv").read_text().splitlines()[1]
        assert header.endswith("interior_mask")

    def test_bandwidth_frames_equals_fraction(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        inp = str(tmp_path / "in.csv")
        write_input(inp, rng.normal(size=(50, 1)))
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out, flags in ((out_a, ["--bandwidth-frames", "5"]),
                           (out_b, ["--bandwidth", "0.1"])):
            res = runner.invoke(main, ["smooth", "--input", inp,
                                       "--estimator", "jackknife",
                                       "--out", out] + flags)
            assert res.exit_code == 0, res.output
        assert (Path(out_a + "_mu.csv").read_text()
                == Path(out_b + "_mu.csv").read_text())

    def test_nw_derivative_flag(self, runner, tmp_path):
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.sin(np.arange(40) / 6.0)[:, None])
        out = str(tmp_path / "sm")
        res = runner.invoke(main, ["smooth", "--input", inp,
                                   "--estimator", "nw", "--derivative",
                                   "--bandwidth", "0.2", "--out", out])
        assert res.exit_code == 0, res.output
        assert os.path.exists(out + "_dmu.csv")

    @pytest.mark.parametrize("flags", [["--estimator", "ll"],
                                       ["--estimator", "jackknife"],
                                       ["--estimator", "nw", "--derivative"]],
                             ids=["ll", "jackknife", "nw-derivative"])
    def test_constant_column_near_the_float_limit(self, runner, tmp_path,
                                                   flags):
        x = np.random.default_rng(1).normal(size=(60, 1))
        inp, out = str(tmp_path / "limit.csv"), str(tmp_path / "sm")
        write_input(inp, np.c_[np.full(60, 1.7e308), x])
        res = runner.invoke(main, ["smooth", "--input", inp, "--bandwidth",
                                   "0.2", "--out", out] + flags)
        assert res.exit_code == 0, res.output
        for suffix in ("_mu.csv", "_dmu.csv"):
            assert np.all(np.isfinite(read_series_csv(out + suffix).values))

    @pytest.mark.parametrize("command, code", [
        (["smooth", "--estimator", "ll"], 4),
        (["smooth", "--estimator", "jackknife"], 4),
        (["smooth", "--estimator", "nw", "--derivative"], 4),
        (["analyze"], 4),
        (["smooth", "--estimator", "nw"], 0)],
        ids=["ll", "jackknife", "nw-derivative", "analyze", "nw"])
    def test_fit_past_the_float_range_exits_4(self, runner, tmp_path,
                                              command, code):
        # Slopes of 1.7e308 cos(6 pi t) exceed the floats; nw's mean does not.
        t = np.arange(60) / 60
        inp, out = str(tmp_path / "overflow.csv"), str(tmp_path / "ovf")
        write_input(inp, 1.7e308 * np.cos(6.0 * np.pi * t)[:, None])
        res = runner.invoke(main, [*command, "--input", inp,
                                   "--bandwidth", "0.2", "--out", out])
        assert res.exit_code == code, res.output
        written = sorted(os.listdir(tmp_path))
        if code == 0:
            assert written == ["overflow.csv", "ovf_mu.csv"]
            return
        assert res.output == ("error: FloatingPointError: fit leaves the "
                              "float range at t=0\n")
        assert written == ["overflow.csv"]

    def test_nw_derivative_on_uneven_stamps_exits_4(self, runner, tmp_path):
        inp, out = str(tmp_path / "in.csv"), str(tmp_path / "sm")
        times = np.sort(np.random.default_rng(4).uniform(size=40))
        write_input(inp, np.arange(40.0)[:, None], times)
        res = runner.invoke(main, ["smooth", "--input", inp, "--estimator",
                                   "nw", "--derivative", "--bandwidth", "0.3",
                                   "--out", out])
        assert res.exit_code == 4, res.output
        assert res.output == ("error: NonEquidistant: time stamps are not "
                              "equidistant\n")
        assert os.listdir(tmp_path) == ["in.csv"]

    @pytest.mark.parametrize("estimator", ["ll", "jackknife"])
    def test_ll_writes_derivative(self, runner, tmp_path, estimator):
        inp = str(tmp_path / "in.csv")
        write_input(inp, (1.0 + 3.0 * np.arange(30) / 30)[:, None])
        out = str(tmp_path / "sm")
        res = runner.invoke(main, ["smooth", "--input", inp,
                                   "--estimator", estimator,
                                   "--bandwidth", "0.3", "--out", out])
        assert res.exit_code == 0, res.output
        d = read_series_csv(out + "_dmu.csv")
        assert np.allclose(d.values, 3.0, atol=1e-9)

    @pytest.mark.parametrize("estimator", ["ll", "jackknife"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_derivative_is_nw_only(self, runner, tmp_path, monkeypatch,
                                   estimator, source):
        monkeypatch.chdir(tmp_path)
        write_input("in.csv", np.random.default_rng(3).normal(size=(60, 1)))
        Path("cfg.json").write_text(json.dumps({"derivative": True}))
        flag = {"flag": ["--derivative"], "config": ["--config", "cfg.json"]}
        res = runner.invoke(main, ["smooth", "--input", "in.csv",
                                   "--estimator", estimator,
                                   "--bandwidth", "0.2", "--out", "sm",
                                   *flag[source]])
        assert res.exit_code == 2, res.output
        assert "--derivative applies to --estimator nw only" in res.output
        assert not any(f.startswith("sm") for f in os.listdir())

    @pytest.mark.parametrize("text, line", [
        ("# c\n\nt,x0\n0,1\n0.5,\n", 5),
        ("t,x0\n0,1\n0.5,1,2\n", 3),
        ("# c\r\n\r\nt,x0\r\n0,1\r\n0.5,\r\n", 5),
        ("t,x0\n0,1\n# mid\n\n0.2,1\n0.4,x\n", 6),
        ("abc,1\n0,1\n", 1),
    ], ids=["empty-cell", "width-change", "crlf", "comment-between",
            "first-row"])
    def test_bad_row_names_file_line(self, runner, tmp_path, text, line):
        inp = tmp_path / "in.csv"
        inp.write_bytes(text.encode())
        res = runner.invoke(main, ["smooth", "--input", str(inp),
                                   "--bandwidth", "0.3",
                                   "--out", str(tmp_path / "sm")])
        assert res.exit_code == 3, res.output
        assert f"error: MalformedInput: {inp}:{line}: " in res.output

    @pytest.mark.parametrize("text, line", [
        ("t,x0,x1\n0,1\n0.5,2\n", 1),
        ("# c\n\nt,x0,x1\n0,1\n0.5,2\n", 3),
    ], ids=["first-line", "after-comment"])
    def test_header_width_names_line_and_widths(self, runner, tmp_path,
                                                text, line):
        inp = tmp_path / "hw.csv"
        inp.write_text(text)
        res = runner.invoke(main, ["smooth", "--input", str(inp),
                                   "--bandwidth", "0.3",
                                   "--out", str(tmp_path / "sm")])
        assert res.exit_code == 3, res.output
        assert (f"error: MalformedInput: {inp}:{line}: header has 3 "
                "columns, the rows have 2") in res.output

    def test_malformed_input_exits_3(self, runner, tmp_path):
        inp = str(tmp_path / "bad.csv")
        with open(inp, "w") as f:
            f.write("t,x0\n0.0,1.0\n0.5,abc\n")
        res = runner.invoke(main, ["smooth", "--input", inp,
                                   "--bandwidth", "0.3"])
        assert res.exit_code == 3
        assert "error: MalformedInput:" in res.output

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:10] + ["t,x0,foo"] + rows[10:],
        lambda rows: [rows[1], rows[0]] + rows[2:],
        lambda rows: rows[:5] + ["0.2,1_0,2"] + rows[6:],
        lambda rows: rows + ["1,2,3 # note"],
        lambda rows: rows[:5] + ["0.2,1,2,3"] + rows[6:],
        lambda rows: rows[:5] + ["0.2,,2"] + rows[6:],
    ], ids=["repeated-header", "late-header", "underscore-literal",
            "comment-after-data", "ragged-row", "empty-cell"])
    def test_malformed_rows_exit_3(self, runner, tmp_path, edit):
        # rows[0] is the header; every case is otherwise a valid input.
        rows = ["t,x0,x1"] + [f"{i / 20},{i % 3},{i % 5}" for i in range(20)]
        inp = str(tmp_path / "in.csv")
        with open(inp, "w") as f:
            f.write("\n".join(edit(rows)) + "\n")
        out = str(tmp_path / "sm")
        res = runner.invoke(main, ["smooth", "--input", inp,
                                   "--bandwidth", "0.3", "--out", out])
        assert res.exit_code == 3, res.output
        assert "error: MalformedInput:" in res.output
        assert not os.path.exists(out + "_mu.csv")

    @pytest.mark.parametrize("row", ["nan,1,2", "0.25,inf,2", "0.25,1,1e400"],
                             ids=["nan-stamp", "inf-value", "overflow"])
    def test_non_finite_cells_exit_3(self, runner, tmp_path, row):
        rows = ["t,x0,x1"] + [f"{i / 20},{i % 3},{i % 5}" for i in range(20)]
        rows[6] = row
        inp = str(tmp_path / "in.csv")
        with open(inp, "w") as f:
            f.write("\n".join(rows) + "\n")
        out = str(tmp_path / "sm")
        res = runner.invoke(main, ["smooth", "--input", inp,
                                   "--bandwidth", "0.3", "--out", out])
        assert res.exit_code == 3, res.output
        assert "error: MalformedInput:" in res.output
        assert os.listdir(tmp_path) == ["in.csv"]

    @pytest.mark.parametrize("meta", [{"d": "x"}, {"d": None}, {"d": 2.7},
                                      {"d": True}, 5, {"d": 1, "q": 2}])
    def test_bad_sidecar_exits_3(self, runner, tmp_path, meta):
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.zeros((20, 2)))
        Path(inp + ".meta.json").write_text(json.dumps(meta))
        out = str(tmp_path / "sm")
        res = runner.invoke(main, ["smooth", "--input", inp,
                                   "--bandwidth", "0.3", "--out", out])
        assert res.exit_code == 3
        assert "error: MalformedInput:" in res.output
        assert not os.path.exists(out + "_mu.csv")

    @pytest.mark.parametrize("files, meta, message", [
        ({"in.csv": "t,x0\n0.0,1.0\n"}, None,
         "in.csv: need at least 2 data rows"),
        ({"in.csv": "0.0\n0.5\n"}, None,
         "in.csv: rows need at least 2 columns"),
        ({}, None, "cannot read in.csv: "),
        ({"in.csv": _TWO_ROWS}, "m.json", "cannot read sidecar m.json: "),
        ({"in.csv": _TWO_ROWS, "m.json": "{"}, "m.json",
         "cannot read sidecar m.json: "),
    ], ids=["one-row", "one-column", "no-input", "no-meta", "bad-meta-json"])
    def test_unreadable_input_exits_3(self, runner, tmp_path, monkeypatch,
                                      files, meta, message):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            Path(name).write_text(text)
        args = ["smooth", "--input", "in.csv", "--bandwidth", "0.5"]
        res = runner.invoke(main, [*args, *(["--meta", meta] if meta else []),
                                   "--out", "sm"])
        assert res.exit_code == 3
        assert res.output.startswith(f"error: MalformedInput: {message}")
        assert sorted(os.listdir()) == sorted(files)

    def test_zero_bandwidth_frames_exits_2(self, runner, tmp_path):
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.zeros((20, 1)))
        res = runner.invoke(main, ["smooth", "--input", inp,
                                   "--bandwidth-frames", "0",
                                   "--out", str(tmp_path / "sm")])
        assert res.exit_code == 2
        assert "error: ValueError: bandwidth must be in (0, 1]" in res.output
        assert os.listdir(tmp_path) == ["in.csv"]

    def test_header_without_value_columns_exits_3(self, runner, tmp_path):
        inp = str(tmp_path / "named.csv")
        with open(inp, "w") as f:
            f.write("t,a,b\n0.0,1.0,2.0\n0.5,3.0,4.0\n")
        res = runner.invoke(main, ["smooth", "--input", inp,
                                   "--bandwidth", "0.3",
                                   "--out", str(tmp_path / "sm")])
        assert res.exit_code == 3

    def test_degenerate_fit_exits_4(self, runner, tmp_path):
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.arange(30.0)[:, None])
        res = runner.invoke(main, ["smooth", "--input", inp,
                                   "--bandwidth", "0.001",
                                   "--out", str(tmp_path / "sm")])
        assert res.exit_code == 4
        assert "error: BandwidthTooSmall:" in res.output

    def test_both_bandwidth_flags_rejected(self, runner, tmp_path):
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.zeros((20, 1)))
        res = runner.invoke(main, ["smooth", "--input", inp,
                                   "--bandwidth", "0.2",
                                   "--bandwidth-frames", "5"])
        assert res.exit_code == 2


class TestCv:
    def test_affine_best_h_smallest_valid(self, runner, tmp_path):
        inp = str(tmp_path / "in.csv")
        write_input(inp, (2.0 - np.arange(100) / 100)[:, None])
        out = str(tmp_path / "cv")
        res = runner.invoke(main, ["cv", "--input", inp, "--out", out])
        assert res.exit_code == 0, res.output
        report = json.loads(Path(out + "_cv.json").read_text())
        assert len(report["grid"]) == 20  # default grid size
        finite = [h for h, s in zip(report["grid"], report["scores"])
                  if s is not None]
        assert report["best_h"] == finite[0]

    def test_failed_scores_are_null_in_strict_json(self, runner, tmp_path):
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.random.default_rng(1).normal(size=(60, 1)))
        out = str(tmp_path / "cv")
        res = runner.invoke(main, ["cv", "--input", inp, "--out", out])
        assert res.exit_code == 0, res.output
        report = json.loads(Path(out + "_cv.json").read_text(),
                            parse_constant=reject_constant)
        scores = np.loadtxt(out + "_cv.csv", delimiter=",", skiprows=2)[:, 1]
        assert np.any(np.isinf(scores))
        assert [s is None for s in report["scores"]] == \
            np.isinf(scores).tolist()

    @pytest.mark.filterwarnings("error")
    def test_pick_survives_scores_beyond_float_range(self, runner, tmp_path):
        # At 1e200 the scores in data units (about 1e400) read inf and null,
        # and best_h is still the pick of the unscaled data.
        values = np.random.default_rng(1).normal(size=(60, 2))
        best_h = []
        for scale in (1.0, 1e200):
            inp, out = str(tmp_path / "in.csv"), str(tmp_path / "cv")
            write_input(inp, values * scale)
            res = runner.invoke(main, ["cv", "--input", inp, "--out", out])
            assert res.exit_code == 0, res.output
            report = json.loads(Path(out + "_cv.json").read_text(),
                                parse_constant=reject_constant)
            best_h.append(report["best_h"])
        assert best_h[0] == best_h[1]
        assert report["scores"] == [None] * 20
        scores = np.loadtxt(out + "_cv.csv", delimiter=",", skiprows=2)[:, 1]
        assert np.all(np.isposinf(scores))

    def test_config_file_with_flag_override(self, runner, tmp_path):
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.random.default_rng(1).normal(size=(60, 1)))
        cfgfile = str(tmp_path / "cfg.json")
        Path(cfgfile).write_text(json.dumps({"grid_size": 6, "k": 3}))
        out = str(tmp_path / "cv")
        res = runner.invoke(main, ["cv", "--input", inp, "--config", cfgfile,
                                   "--grid-size", "4", "--out", out])
        assert res.exit_code == 0, res.output
        report = json.loads(Path(out + "_cv.json").read_text())
        assert len(report["grid"]) == 4  # flag wins over config file

    @pytest.mark.parametrize("text", [None, "{"], ids=["missing", "invalid"])
    def test_unreadable_config_exits_2(self, runner, tmp_path, monkeypatch,
                                       text):
        monkeypatch.chdir(tmp_path)
        write_input("in.csv", np.zeros((40, 1)))
        if text is not None:
            Path("cfg.json").write_text(text)
        res = runner.invoke(main, ["cv", "--input", "in.csv",
                                   "--config", "cfg.json", "--out", "cv"])
        assert res.exit_code == 2
        assert "cannot read config cfg.json: " in res.output
        assert not os.path.exists("cv_cv.json")

    def test_unknown_config_key_exits_2(self, runner, tmp_path):
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.zeros((40, 1)))
        cfgfile = str(tmp_path / "cfg.json")
        Path(cfgfile).write_text(json.dumps({"bandwidth": 0.1}))
        res = runner.invoke(main, ["cv", "--input", inp,
                                   "--config", cfgfile])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args, config", [
        (["--fold-scheme", "blocks"], {}),
        (["--fold-scheme", "interleaved"], {}),
        (["--config", "cfg.json"], {"fold_scheme": "interleaved"}),
    ], ids=["flag-blocks", "flag-interleaved", "config-key"])
    def test_fold_scheme_removed_exits_2(self, runner, tmp_path, monkeypatch,
                                         args, config):
        monkeypatch.chdir(tmp_path)
        write_input("in.csv", np.random.default_rng(4).normal(size=(60, 1)))
        Path("cfg.json").write_text(json.dumps(config))
        res = runner.invoke(main, ["cv", "--input", "in.csv", *args,
                                   "--out", "cv"])
        assert res.exit_code == 2
        unknown_key = "unknown config keys: ['fold_scheme']" in res.output
        assert unknown_key == bool(config)
        assert not os.path.exists("cv_cv.json")


class TestOutputFiles:
    _SIMULATE = ["simulate", "--n", "20", "--m", "5", "--reps", "2",
                 "--grid-size", "4", "--estimators", "ll"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["022", "077"])
    def test_modes_follow_the_umask(self, runner, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            res = runner.invoke(main, [*self._SIMULATE,
                                       "--out", str(tmp_path / "run")])
        finally:
            os.umask(old)
        assert res.exit_code == 0, res.output
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(
            ["run_results.csv", "run_timings.csv", "run_summary.json"], mode)

    @pytest.mark.parametrize("command", [
        _SIMULATE, ["smooth", "--input", "in.csv", "--bandwidth", "0.3"]],
        ids=["simulate", "smooth"])
    def test_unwritable_out_exits_2(self, runner, tmp_path, monkeypatch,
                                    command):
        monkeypatch.chdir(tmp_path)
        write_input("in.csv", np.arange(20.0)[:, None])
        Path("afile").write_text("")
        res = runner.invoke(main, [*command, "--out", "afile/x"])
        assert res.exit_code == 2
        assert res.output.startswith("error: FileExistsError: ")
        assert Path("afile").read_text() == ""


_SIM = {"m": 5, "grid_size": 4, "estimators": "ll"}


@pytest.mark.parametrize("args, config, code, written", [
    (["simulate"], {**_SIM, "mean": "mu9", "n": 20, "reps": 1}, 2, []),
    (["simulate"], {**_SIM, "n": "abc", "reps": 1}, 2, []),
    (["simulate"], {**_SIM, "n": 25.5, "reps": 1}, 2, []),
    (["simulate"], {**_SIM, "n": [20], "reps": 1}, 2, []),
    (["simulate"], {**_SIM, "reps": True, "n": 20}, 2, []),
    (["simulate"], {**_SIM, "reps": "2", "n": 20}, 0,
     ["run_results.csv", "run_summary.json", "run_timings.csv"]),
    (["simulate"], {**_SIM, "format": "json", "n": 20, "reps": 1}, 2, []),
    (["smooth", "--input", "in.csv"],
     {"estimator": "nw", "bandwidth": 0.2, "derivative": "no"}, 0,
     ["run_mu.csv"]),
    (["smooth", "--input", "in.csv"], {"estimator": "zz", "bandwidth": 0.2},
     2, []),
    (["smooth"], {"input": "in.csv", "bandwidth": 0.2}, 0,
     ["run_dmu.csv", "run_mu.csv"]),
    (["simulate"], 5, 2, []),
    (["simulate"], None, 2, []),
    (["simulate"], {**_SIM, "reps": None, "n": 20}, 2, []),
    (["simulate"], {**_SIM, "k": None, "n": 20, "reps": 1}, 2, []),
    (["simulate"], {**_SIM, "seed": None, "n": 20, "reps": 1}, 2, []),
    (["simulate"], {**_SIM, "estimators": None, "n": 20, "reps": 1}, 2, []),
    (["analyze", "--input", "in.csv"],
     {"bandwidth": 0.2, "threshold_multiplier": None}, 2, []),
])
def test_config_values_checked_like_flags(runner, tmp_path, monkeypatch,
                                          args, config, code, written):
    monkeypatch.chdir(tmp_path)
    write_input("in.csv", np.random.default_rng(2).normal(size=(40, 2)))
    Path("cfg.json").write_text(json.dumps(config))
    res = runner.invoke(main, [*args, "--config", "cfg.json", "--out", "run"])
    assert res.exit_code == code, res.output
    assert sorted(f for f in os.listdir() if f.startswith("run")) == written
    if isinstance(config, dict) and None in config.values():
        assert "config cfg.json: values must be scalars" in res.output
    if code == 0 and args == ["simulate"]:
        command_line = json.loads(
            Path("run_summary.json").read_text())["command"]
        assert f" --reps {config['reps']} " in command_line


@pytest.mark.parametrize("command, config, outputs", [
    ("simulate", {"mean": "mu2", "errors": "farbb", "n": 40, "m": 8,
                  "reps": 3, "seed": 5, "k": 3, "grid_size": 5,
                  "estimators": "nw,ll"}, ["_results.csv", "_summary.json"]),
    ("cv", {"input": "in.csv", "estimator": "nw", "k": 3, "grid_size": 6},
     ["_cv.csv", "_cv.json"]),
])
def test_config_run_equals_flag_run(runner, tmp_path, monkeypatch, command,
                                    config, outputs):
    # Each config key is its flag's name without "--", with "-" as "_".
    monkeypatch.chdir(tmp_path)
    write_input("in.csv", np.random.default_rng(3).normal(size=(60, 2)))
    Path("cfg.json").write_text(json.dumps(config))
    flags = [a for key, value in config.items()
             for a in ("--" + key.replace("_", "-"), str(value))]
    for args, out in ((["--config", "cfg.json"], "a"), (flags, "b")):
        res = runner.invoke(main, [command, *args, "--out", out])
        assert res.exit_code == 0, res.output
    for suffix in outputs:
        with open("a" + suffix, "rb") as a, open("b" + suffix, "rb") as b:
            assert a.read() == b.read()


class TestAnalyze:
    def test_step_break_localized(self, runner, tmp_path):
        rng = np.random.default_rng(5)
        n = 100
        values = 0.2 * np.abs(rng.normal(size=(n, 3)))
        values[60:] += 2.0
        inp = str(tmp_path / "in.csv")
        write_input(inp, values)
        smoothed = str(tmp_path / "smooth.csv")
        write_input(smoothed, np.zeros((n, 3)))
        out = str(tmp_path / "an")
        res = runner.invoke(main, ["analyze", "--input", inp,
                                   "--smoothed", smoothed, "--out", out])
        assert res.exit_code == 0, res.output
        peaks = json.loads(Path(out + "_peaks.json").read_text())
        assert abs(peaks["cusum_argmax_index"] - 59) <= 2

    def test_zero_residuals(self, runner, tmp_path):
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.random.default_rng(6).normal(size=(30, 2)))
        out = str(tmp_path / "an")
        res = runner.invoke(main, ["analyze", "--input", inp,
                                   "--smoothed", inp, "--out", out])
        assert res.exit_code == 0, res.output
        peaks = json.loads(Path(out + "_peaks.json").read_text())
        assert peaks["peaks"] == []
        cus = [float(l.split(",")[1]) for l in
               Path(out + "_cusum.csv").read_text().splitlines()[2:]]
        assert max(abs(c) for c in cus) <= 1e-12

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_l2_residuals_at_extreme_scales(self, runner, tmp_path, scale):
        inp = str(tmp_path / "in.csv")
        write_input(inp, scale * np.random.default_rng(8).normal(
            size=(40, 2)))
        out = str(tmp_path / "an")
        res = runner.invoke(main, ["analyze", "--input", inp,
                                   "--bandwidth", "0.2", "--out", out])
        assert res.exit_code == 0, res.output
        json.loads(Path(out + "_peaks.json").read_text(),
                   parse_constant=reject_constant)
        z = np.array([float(l.split(",")[1]) for l in
                      Path(out + "_residuals.csv").read_text()
                      .splitlines()[2:]])
        assert np.all(np.isfinite(z)) and np.all(z > 0.0)
        assert 0.1 < np.median(z) / scale < 10.0

    @pytest.mark.parametrize("norm", ["l1", "l2", "sup"])
    def test_residuals_near_the_float_limit(self, runner, tmp_path, norm):
        # Rows of 1e307 sum past the float range in l1 and in the CUSUM.
        x = np.random.default_rng(9).normal(size=(60, 20))
        picks = []
        for scale in (1.0, 1e307):
            inp, out = str(tmp_path / "in.csv"), str(tmp_path / "an")
            write_input(inp, x * scale)
            res = runner.invoke(main, ["analyze", "--input", inp, "--norm",
                                       norm, "--bandwidth", "0.2",
                                       "--out", out])
            assert res.exit_code == 0, res.output
            peaks = json.loads(Path(out + "_peaks.json").read_text(),
                               parse_constant=reject_constant)
            picks.append(peaks["cusum_argmax_index"])
        assert picks[0] == picks[1]

    def test_sup_norm_is_row_max(self, runner, tmp_path):
        values = np.zeros((20, 3))
        values[7, 1] = -4.0
        inp = str(tmp_path / "in.csv")
        write_input(inp, values)
        smoothed = str(tmp_path / "sm.csv")
        write_input(smoothed, np.zeros((20, 3)))
        out = str(tmp_path / "an")
        res = runner.invoke(main, ["analyze", "--input", inp,
                                   "--smoothed", smoothed,
                                   "--norm", "sup", "--out", out])
        assert res.exit_code == 0, res.output
        rows = Path(out + "_residuals.csv").read_text().splitlines()[2:]
        assert float(rows[7].split(",")[1]) == 4.0

    def test_one_pass_smoothing(self, runner, tmp_path):
        rng = np.random.default_rng(7)
        inp = str(tmp_path / "in.csv")
        write_input(inp, rng.normal(size=(50, 2)))
        out = str(tmp_path / "an")
        res = runner.invoke(main, ["analyze", "--input", inp,
                                   "--estimator", "nw",
                                   "--bandwidth-frames", "10",
                                   "--out", out])
        assert res.exit_code == 0, res.output
        assert os.path.exists(out + "_residuals.csv")

    @pytest.mark.parametrize("flags, command", [
        (["--estimator", "ll", "--bandwidth", "0.05",
          "--threshold-multiplier", "3"],
         "fts analyze --estimator ll --bandwidth 0.050000000000000003"
         " --norm l2 --threshold-multiplier 3"),
        (["--bandwidth", "0.05", "--threshold-multiplier", "3"],
         "fts analyze --estimator ll --bandwidth 0.050000000000000003"
         " --norm l2 --threshold-multiplier 3"),
        (["--estimator", "nw", "--bandwidth-frames", "10", "--norm", "sup"],
         "fts analyze --estimator nw --bandwidth 0.20000000000000001"
         " --norm sup --threshold-multiplier 5"),
        (["--smoothed", "sm.csv", "--threshold-multiplier", "2.5"],
         "fts analyze --norm l2 --threshold-multiplier 2.5"),
    ], ids=["ll", "ll-by-default", "nw-frames", "smoothed"])
    def test_provenance_names_the_run(self, runner, tmp_path, monkeypatch,
                                      flags, command):
        monkeypatch.chdir(tmp_path)
        write_input("in.csv", np.random.default_rng(10).normal(size=(50, 2)))
        write_input("sm.csv", np.zeros((50, 2)))
        res = runner.invoke(main, ["analyze", "--input", "in.csv", *flags,
                                   "--out", "an"])
        assert res.exit_code == 0, res.output
        peaks = json.loads(Path("an_peaks.json").read_text())
        assert peaks["command"] == command
        for name in ("an_residuals.csv", "an_cusum.csv"):
            first = Path(name).read_text().splitlines(True)[0]
            assert first == provenance(command)

    @pytest.mark.parametrize("flags, config", [
        (["--estimator", "ll"], {}),
        (["--bandwidth", "0.3"], {}),
        (["--bandwidth-frames", "7"], {}),
        ([], {"estimator": "nw"}),
        ([], {"bandwidth": 0.3}),
        ([], {"bandwidth_frames": 7}),
    ], ids=["estimator", "bandwidth", "bandwidth-frames", "config-estimator",
            "config-bandwidth", "config-bandwidth-frames"])
    def test_smoothed_refuses_one_pass_flags(self, runner, tmp_path,
                                             monkeypatch, flags, config):
        monkeypatch.chdir(tmp_path)
        write_input("in.csv", np.random.default_rng(11).normal(size=(30, 2)))
        write_input("sm.csv", np.zeros((30, 2)))
        Path("cfg.json").write_text(json.dumps(config))
        res = runner.invoke(main, ["analyze", "--input", "in.csv",
                                   "--smoothed", "sm.csv", *flags,
                                   "--config", "cfg.json", "--out", "an"])
        assert res.exit_code == 2, res.output
        assert "--smoothed takes no" in res.output
        assert not [f for f in os.listdir() if f.startswith("an")]

    @pytest.mark.parametrize("multiplier", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_multiplier_exits_2(self, runner, tmp_path,
                                                     multiplier):
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.random.default_rng(12).normal(size=(60, 2)))
        out = str(tmp_path / "an")
        res = runner.invoke(main, ["analyze", "--input", inp,
                                   "--bandwidth", "0.2",
                                   "--threshold-multiplier", multiplier,
                                   "--out", out])
        assert res.exit_code == 2, res.output
        assert "error: ValueError: threshold multiplier" in res.output
        assert not [f for f in os.listdir(tmp_path) if f.startswith("an")]

    def test_shape_mismatch_exits_3(self, runner, tmp_path):
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.zeros((20, 2)))
        smoothed = str(tmp_path / "sm.csv")
        write_input(smoothed, np.zeros((20, 3)))
        res = runner.invoke(main, ["analyze", "--input", inp,
                                   "--smoothed", smoothed,
                                   "--out", str(tmp_path / "an")])
        assert res.exit_code == 3
        assert "error: ShapeMismatch:" in res.output

    def test_smoothed_stamps_must_match_exits_3(self, runner, tmp_path):
        # Same shape, but the smoothed curves sit on other time stamps.
        inp = str(tmp_path / "in.csv")
        write_input(inp, np.random.default_rng(9).normal(size=(20, 2)))
        smoothed = str(tmp_path / "sm.csv")
        write_input(smoothed, np.zeros((20, 2)),
                    times=np.linspace(0.5, 0.99, 20))
        res = runner.invoke(main, ["analyze", "--input", inp,
                                   "--smoothed", smoothed,
                                   "--out", str(tmp_path / "an")])
        assert res.exit_code == 3
        assert "time stamps" in res.output


@pytest.mark.parametrize("command", ["smooth", "cv", "analyze"])
def test_estimator_choices_follow_registry(command):
    option = next(p for p in main.commands[command].params
                  if p.name == "estimator")
    assert list(option.type.choices) == sorted(ESTIMATORS)


class TestRoundTrip:
    def test_full_precision(self, tmp_path):
        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0, 1, 25))
        values = rng.normal(size=(25, 4)) * 1e-7
        path = str(tmp_path / "series.csv")
        write_series_csv(path, times, values, command="test")
        back = read_series_csv(path)
        assert np.array_equal(back.times, times)
        assert np.array_equal(back.values, values)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.integers(2, 40), p=st.integers(1, 6))
    def test_round_trip_property(self, tmp_path, data, n, p):
        times = np.sort(data.draw(arrays(
            float, n, elements=st.floats(0, 1), unique=True)))
        values = data.draw(arrays(float, (n, p), elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([5e-324, -2.5e-310, 1e300, -1e300, -0.0]))))
        mask = data.draw(arrays(bool, n))
        path = str(tmp_path / "series.csv")
        write_series_csv(path, times, values, command="test",
                         extra_cols={"interior_mask": mask})
        # Comment and blank lines anywhere, and CRLF line ends.
        lines = Path(path).read_text().splitlines()
        for _ in range(data.draw(st.integers(0, 6))):
            lines.insert(data.draw(st.integers(0, len(lines))),
                         data.draw(st.sampled_from(["# note", "", "  ",
                                                    "#t,x0", "#1,2"])))
        with open(path, "w", newline="") as f:
            f.write("\r\n".join(lines) + "\r\n")
        back = read_series_csv(path)
        assert back.times.tobytes() == times.tobytes()
        assert back.values.tobytes() == values.tobytes()

    def test_1d_values_are_one_column(self, tmp_path):
        times = np.arange(5) / 5
        x = np.random.default_rng(3).normal(size=5)
        path = str(tmp_path / "series.csv")
        write_series_csv(path, times, x)
        back = read_series_csv(path)
        assert np.array_equal(back.values, x[:, None])

    def test_sidecar_metadata(self, tmp_path):
        path = str(tmp_path / "series.csv")
        write_series_csv(path, np.array([0.0, 0.5]), np.zeros((2, 6)))
        Path(path + ".meta.json").write_text(
            json.dumps({"d": 2, "m": 3, "norm": "sup"}))
        s = read_series_csv(path)
        assert s.value_grid.d == 2 and s.value_grid.m == 3
        assert s.norm == "sup"

    def test_header_dropping_every_value_column_rejected(self, tmp_path):
        path = str(tmp_path / "named.csv")
        with open(path, "w") as f:
            f.write("t,a,b\n0.0,1.0,2.0\n0.5,3.0,4.0\n")
        with pytest.raises(MalformedInput):
            read_series_csv(path)


def old_csv(header, rows, command=None, seed=None):
    # The row formula of the former per-table writers: floats at 17
    # significant digits, everything else through str().
    out = [provenance(command, seed), ",".join(header) + "\n"]
    for row in rows:
        out.append(",".join(f"{c:.17g}" if isinstance(c, float) else str(c)
                            for c in row) + "\n")
    return "".join(out)


class TestWriteCsv:
    floats = np.array([0.1, -0.0, 5e-324, np.inf, -np.inf, 1 / 3])

    def test_matches_former_row_formula(self, tmp_path):
        flags = np.array([True, False, False, True, True, False])
        counts = np.array([0, 7, -3, 10 ** 12, 5, 1])
        names = ["ll", "jackknife", "nw", "mu", "dmu", "x"]
        path = str(tmp_path / "t.csv")
        write_csv(path, {"v": self.floats, "flag": flags, "count": counts,
                         "name": names}, "cmd", 7)
        rows = [[float(v), int(f), int(c), s] for v, f, c, s
                in zip(self.floats, flags, counts, names)]
        want = old_csv(["v", "flag", "count", "name"], rows, "cmd", 7)
        assert Path(path).read_text() == want

    def test_series_matches_former_row_formula(self, tmp_path):
        times = np.arange(6) / 6
        values = np.column_stack([self.floats, -self.floats[::-1]])
        mask = np.array([False, True, True, True, True, False])
        path = str(tmp_path / "s.csv")
        write_series_csv(path, times, values, "cmd",
                         extra_cols={"interior_mask": mask})
        rows = [[float(t), *map(float, v), int(b)]
                for t, v, b in zip(times, values, mask)]
        want = old_csv(["t", "x0", "x1", "interior_mask"], rows, "cmd")
        assert Path(path).read_text() == want

    def test_unequal_columns_rejected(self, tmp_path):
        path = str(tmp_path / "u.csv")
        with pytest.raises(ValueError):
            write_csv(path, {"a": [1.0, 2.0], "b": [1.0]})
        assert not os.path.exists(path)


class TestWriteJson:
    @pytest.mark.parametrize("seed", [None, 7])
    def test_adds_the_provenance_of_write_csv(self, tmp_path, seed):
        path = tmp_path / "r.json"
        write_json_atomic(str(path), {"best_h": 0.5}, "cmd", seed)
        want = {"best_h": 0.5, "command": "cmd", "version": __version__}
        if seed is not None:
            want["seed"] = seed
        assert json.loads(path.read_text()) == want
