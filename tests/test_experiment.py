"""Experiment front-end tests: config parsing with defaults and errors,
preset fidelity against the hard-coded parameter table, CSV round trips,
SVG determinism, sweeps, and the CLI surface.
"""

import concurrent.futures
import hashlib
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import fastfronts as ff
from fastfronts import experiment
from fastfronts.cli import main
from fastfronts.experiment import preset_config, sweep_values

SRC = str(Path(__file__).resolve().parents[1] / "src")

MINIMAL = """
# minimal document
dispersal.variant = standard_laplacian
grid.L = 400
grid.N = 8192
time.t_end = 20
"""


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = ff.parse_config_text(MINIMAL)[0]
        assert cfg.dispersal == ff.StandardLaplacian()
        assert cfg.L == 400.0 and cfg.N == 8192 and cfg.t_end == 20.0
        assert cfg.dt == 0.01
        assert cfg.guard_threshold == 1e-4
        assert cfg.lambdas == (0.4, 0.5, 0.6)
        assert isinstance(cfg.initial, ff.GaussianBump) and cfg.initial.width == 100.0
        assert isinstance(cfg.reaction, ff.KppLogistic)

    def test_full_document(self):
        text = """
        grid.L = 1000
        grid.N = 16384
        grid.guard = 1e-5
        dispersal.variant = convolution
        dispersal.kernel = stretched_exponential
        dispersal.kernel_a = 0.5
        dispersal.kernel_b = 1.0
        reaction.variant = none
        time.dt = 0.005
        time.t_end = 10
        time.snapshots = 0, 2.5, 10
        initial.kind = indicator
        initial.position = -3.0
        diagnostics.lambdas = 0.3, 0.5, 0.7
        diagnostics.stretch = 0.3, 0.7
        diagnostics.flat_level = 0.4
        diagnostics.flat_radius = 8
        """
        cfg = ff.parse_config_text(text)[0]
        assert isinstance(cfg.dispersal, ff.Convolution)
        assert cfg.reaction is None
        assert cfg.snapshot_times == (0.0, 2.5, 10.0)
        assert cfg.initial == ff.Indicator(-3.0)
        assert cfg.lambdas == (0.3, 0.5, 0.7)
        assert cfg.stretch_pair == (0.3, 0.7)
        assert cfg.flat_level == 0.4 and cfg.flat_radius == 8.0

    def test_alpha_out_of_range(self):
        text = MINIMAL.replace("standard_laplacian", "fractional_laplacian")
        text += "dispersal.alpha = 1.5\n"
        with pytest.raises(ff.ParameterOutOfRange):
            ff.parse_config_text(text)[0]

    def test_missing_variant(self):
        with pytest.raises(ff.MissingRequired):
            ff.parse_config_text("grid.L = 10\ngrid.N = 64\ntime.t_end = 1\n")[0]

    def test_missing_grid(self):
        with pytest.raises(ff.MissingRequired):
            ff.parse_config_text("dispersal.variant = standard_laplacian\ntime.t_end = 1\n")[0]

    def test_unknown_key_and_section(self):
        with pytest.raises(ff.UnknownKey):
            ff.parse_config_text(MINIMAL + "grid.bogus = 3\n")[0]
        with pytest.raises(ff.UnknownKey):
            ff.parse_config_text(MINIMAL + "nonsense.key = 3\n")[0]

    def test_comments_and_blanks_ignored(self):
        cfg = ff.parse_config_text(MINIMAL + "\n   \n# trailing comment\n")[0]
        assert cfg.N == 8192

    def test_bad_number(self):
        with pytest.raises(ff.ValidationFailed):
            ff.parse_config_text(MINIMAL.replace("400", "four hundred"))[0]

    @pytest.mark.parametrize("text, n", [("64", 64), ("64.0", 64), ("1e3", 1000)])
    def test_integral_node_count_accepted(self, text, n):
        assert ff.parse_config_text(MINIMAL.replace("8192", text))[0].N == n

    @pytest.mark.parametrize("text", ["64.9", "64.5", "1e-3"])
    def test_nonintegral_node_count_rejected(self, text):
        # read as int(float(text)), 64.9 ran on 64 nodes
        with pytest.raises(ff.ValidationFailed):
            ff.parse_config_text(MINIMAL.replace("8192", text))

    def test_output_dir_extra(self):
        cfg, extras = ff.parse_config_text(MINIMAL + "output.dir = results\n")
        assert extras == {"out_dir": "results"}
        assert cfg.N == 8192

    def test_seam_margin_key(self):
        cfg = ff.parse_config_text(MINIMAL + "diagnostics.seam_margin = 0.4\n")[0]
        assert cfg.seam_margin_frac == 0.4

    def test_algebraic_kernel_config(self):
        text = MINIMAL.replace("standard_laplacian", "convolution")
        text += "dispersal.kernel = algebraic\ndispersal.kernel_p = 3.5\n"
        cfg = ff.parse_config_text(text)[0]
        assert cfg.dispersal.kernel == ff.AlgebraicTail(3.5)
        with pytest.raises(ff.MissingRequired):
            ff.parse_config_text(text.replace("dispersal.kernel_p = 3.5\n", ""))[0]

    def test_tabulated_kernel_config(self, tmp_path):
        xs = np.linspace(-6, 6, 49)
        np.savetxt(tmp_path / "k.txt", np.column_stack([xs, np.exp(-np.abs(xs))]))
        text = MINIMAL.replace("standard_laplacian", "convolution")
        text += f"dispersal.kernel = tabulated\ndispersal.kernel_file = {tmp_path / 'k.txt'}\n"
        cfg = ff.parse_config_text(text)[0]
        assert isinstance(cfg.dispersal.kernel, ff.TabulatedKernel)

    def test_tabulated_initial_config(self, tmp_path):
        n = 8192
        g = ff.make_grid(400.0, n)
        u = np.exp(-g.x**2 / 50.0)
        np.savetxt(tmp_path / "u0.txt", np.column_stack([g.x, u]))
        cfg = ff.parse_config_text(MINIMAL + f"initial.kind = tabulated\ninitial.file = {tmp_path / 'u0.txt'}\n")[0]
        vals = ff.build_initial(cfg.initial, g).values
        assert np.allclose(vals, u)

    def test_malformed_initial_file_is_a_validation_failure(self, tmp_path):
        (tmp_path / "u0.txt").write_text("0.0 0.5\n1.0 foo\n")
        text = MINIMAL + f"initial.kind = tabulated\ninitial.file = {tmp_path / 'u0.txt'}\n"
        with pytest.raises(ff.ValidationFailed):
            ff.parse_config_text(text)

    def test_empty_initial_file_is_a_validation_failure(self, tmp_path):
        (tmp_path / "u0.txt").write_text("")
        text = MINIMAL + f"initial.kind = tabulated\ninitial.file = {tmp_path / 'u0.txt'}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ff.ValidationFailed):
                ff.parse_config_text(text)


_BASE = dict(L=50.0, N=64, dispersal=ff.StandardLaplacian(), t_end=1.0)
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "case, error",
    [
        (dict(t_end=_NAN), ff.ValidationFailed),
        (dict(t_end=_INF), ff.ValidationFailed),
        (dict(dt=_INF), ff.ValidationFailed),
        (dict(L=_INF), ff.NonPositiveLength),
        (dict(flat_radius=-1.0), ff.ValidationFailed),
        (dict(eps_reg=0.0), ff.ValidationFailed),
        (dict(eps_reg=-1e-8), ff.ValidationFailed),
        (dict(stretch_pair=(0.6, 0.4)), ff.ValidationFailed),
        (dict(stretch_pair=(0.0, 0.5)), ff.ValidationFailed),
        (dict(stretch_pair=(0.5, 1.0)), ff.ValidationFailed),
        (dict(flat_level=1.5), ff.ValidationFailed),
        (dict(flat_level=_NAN), ff.ValidationFailed),
        (dict(snapshot_times=(_NAN,)), ff.ValidationFailed),
        ("grid.N = 1e400", ff.ValidationFailed),
        ("grid.N = 8192\ntime.snapshots = nan", ff.ValidationFailed),
        ("grid.N = 8192\ndiagnostics.flat_level = 1.5", ff.ValidationFailed),
    ],
    ids=["t_end-nan", "t_end-inf", "dt-inf", "L-inf", "flat_radius-negative",
         "eps_reg-zero", "eps_reg-negative", "stretch-reversed", "stretch-at-zero",
         "stretch-at-one", "flat_level-above-one", "flat_level-nan", "snapshot-nan",
         "N-overflow", "snapshots-nan-document", "flat_level-document"],
)
def test_invalid_input_ends_in_library_error(case, error):
    """A dict overrides RunConfig fields; a string replaces a document line."""
    with pytest.raises(error):
        if isinstance(case, str):
            ff.parse_config_text(MINIMAL.replace("grid.N = 8192", case))[0]
        else:
            ff.run(ff.RunConfig(**{**_BASE, **case}))


@pytest.mark.parametrize(
    "make, lines, error",
    [
        (lambda: ff.Indicator(_NAN), "initial.kind = indicator\ninitial.position = nan",
         ff.ValidationFailed),
        (lambda: ff.Indicator(-_INF), "initial.kind = indicator\ninitial.position = -inf",
         ff.ValidationFailed),
        (lambda: ff.StretchedExponential(0.5, b=_INF),
         "dispersal.variant = convolution\ndispersal.kernel_b = inf", ff.ParameterOutOfRange),
        (lambda: ff.RunConfig(**_BASE, flat_radius=_INF), "diagnostics.flat_radius = inf",
         ff.ValidationFailed),
    ],
    ids=["indicator-nan", "indicator-minus-inf", "kernel_b-inf", "flat_radius-inf"],
)
def test_nonfinite_parameter_fails_before_the_run(make, lines, error, tmp_path, capsys):
    """Unchecked, each of these runs clean: an all-zero run, a run without
    dispersal, or NaN flatness columns. The dataclass, the document and the
    CLI must all end in the same error category."""
    with pytest.raises(error):
        make()
    text = MINIMAL.replace("grid.N = 8192", f"grid.N = 256\n{lines}")
    with pytest.raises(error):
        ff.parse_config_text(text)
    (tmp_path / "doc.cfg").write_text(text)
    assert main(["run", str(tmp_path / "doc.cfg"), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error {error.__name__}: ")
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def fig1d_bundle(tmp_path_factory):
    """The fig1d preset run once into a fresh directory, with the dump helper
    pinned (two CPUs whatever the host has): (result, directory)."""
    out = tmp_path_factory.mktemp("fig1d")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return ff.run_preset("fig1d", out), out


class TestPresets:
    # mirror of the figure-caption parameters the presets must match
    CAPTION = {
        "fig1a": ("fractional", 0.9),
        "fig1b": ("convolution", (0.5, 1.0, 0.25)),
        "fig1c": ("fast_diffusion", 0.5),
        "fig1d": ("standard", None),
    }

    def test_preset_fidelity(self):
        for name, (kind, param) in self.CAPTION.items():
            cfg = preset_config(name)
            assert isinstance(cfg.initial, ff.GaussianBump)
            assert cfg.initial.width == 100.0
            assert isinstance(cfg.reaction, ff.KppLogistic)
            assert cfg.lambdas == (0.4, 0.5, 0.6)
            assert cfg.stretch_pair == (0.4, 0.6)
            if kind == "fractional":
                assert cfg.dispersal == ff.FractionalLaplacian(param)
            elif kind == "fast_diffusion":
                assert cfg.dispersal == ff.FastDiffusion(param)
            elif kind == "standard":
                assert cfg.dispersal == ff.StandardLaplacian()
            else:
                a, b, amp = param
                kernel = cfg.dispersal.kernel
                assert (kernel.a, kernel.b) == (a, b)
                assert kernel.amplitude == pytest.approx(amp, abs=1e-15)
                # the sampled kernel is exp(-sqrt|x|)/4 at the nodes
                xs = np.array([0.0, 1.0, -4.0])
                assert np.allclose(kernel.evaluate(xs), np.exp(-np.sqrt(np.abs(xs))) / 4.0)

    def test_fig1a_reduced_horizon(self):
        assert preset_config("fig1a").t_end == 12.0
        for name in ("fig1b", "fig1c", "fig1d"):
            assert preset_config(name).t_end == 20.0

    def test_unknown_preset(self):
        with pytest.raises(ff.UnknownKey):
            preset_config("fig9z")

    def test_unknown_preset_creates_no_directory(self, tmp_path):
        with pytest.raises(ff.UnknownKey):
            ff.run_preset("fig9z", tmp_path / "new")
        assert not (tmp_path / "new").exists()

    def test_run_preset_bundle(self, fig1d_bundle):
        # the classical preset is cheap enough to exercise end to end
        result, tmp_path = fig1d_bundle
        traj = result["trajectories"]["fig1d"]
        assert not traj.breached
        assert len(traj.times) == 21  # profiles at t = 0, 1, ..., 20
        svg = (tmp_path / "fig1d_profiles.svg").read_text()
        assert svg.count("<polyline") == 21
        assert (tmp_path / "fig1d_diagnostics.csv").exists()
        assert (tmp_path / "fig1d_snapshots.txt").exists()
        assert (tmp_path / "fig1d_stretching.svg").exists()
        # the level separation plateaus: late values close to each other
        rep = result["reports"]["fig1d"]
        stretch = {row.t: row.stretch for row in rep.rows}
        assert abs(stretch[20.0] - stretch[15.0]) / stretch[15.0] < 0.10


class TestCsv:
    def _report(self, t_end=2.0):
        cfg = ff.RunConfig(L=200.0, N=2**10, dispersal=ff.StandardLaplacian(), t_end=t_end)
        return ff.build_report(ff.run(cfg))

    def test_empty_report_header_only(self, tmp_path):
        rep = ff.DiagnosticsReport()
        path = tmp_path / "empty.csv"
        ff.emit_csv(rep, path)
        lines = path.read_text().strip().splitlines()
        assert lines == ["t,m,M,x_0.4,x_0.5,x_0.6,stretch_0.4_0.6,width,flat_left,flat_right"]

    def test_rows_and_roundtrip(self, tmp_path):
        rep = self._report()
        path = tmp_path / "report.csv"
        ff.emit_csv(rep, path)
        header, rows = ff.read_csv(path)
        assert len(header) == 10
        assert len(rows) == len(rep.rows)
        for row, rec in zip(rows, rep.rows):
            assert row[0] == rec.t  # full 17-digit round trip
            assert row[1] == rec.m and row[2] == rec.M
            assert row[4] == rec.levels[0.5]

    def test_sentinel_written_as_inf_tokens(self, tmp_path):
        # a field everywhere below 0.6 puts x_0.6 at -inf
        n = 2**9
        cfg = ff.RunConfig(
            L=100.0, N=n, dispersal=ff.StandardLaplacian(), t_end=0.0,
            initial=ff.TabulatedInitial(np.full(n, 0.5)),
        )
        rep = ff.build_report(ff.run(cfg))
        path = tmp_path / "sent.csv"
        ff.emit_csv(rep, path)
        row = path.read_text().strip().splitlines()[1].split(",")
        assert row[5] == "-inf"   # x_0.6 column
        assert row[3] == "+inf"   # x_0.4 column (field everywhere >= 0.4)
        header, rows = ff.read_csv(path)
        assert rows[0][5] == float("-inf")

    @pytest.mark.parametrize("text", ["", "t,m\n0,0.5\n1,half\n"], ids=["empty", "non-numeric"])
    def test_malformed_file_is_a_validation_failure(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ff.ValidationFailed):
            ff.read_csv(path)

    def test_missing_file_is_an_io_failure(self, tmp_path):
        with pytest.raises(ff.IoFailure):
            ff.read_csv(tmp_path / "missing.csv")


# sha256 of the chart that test_chart_bytes_pinned draws, as the per-point
# formatter (one f-string per coordinate pair) wrote it
_PINNED_CHART_SHA256 = "bec8032528df390a7bd6cd0bac8a00a1f2647e6f9bff716c167773277a922cd1"


class TestCharts:
    def test_deterministic_bytes(self, tmp_path):
        series = [("a", [0.0, 1.0, 2.0], [0.0, 1.0, 4.0]), ("b", [0.0, 2.0], [1.0, 0.0])]
        p1, p2 = tmp_path / "c1.svg", tmp_path / "c2.svg"
        ff.emit_chart(series, p1, title="demo")
        ff.emit_chart(series, p2, title="demo")
        assert p1.read_bytes() == p2.read_bytes()

    def test_valid_svg_with_polylines_and_legend(self, tmp_path):
        series = [(f"s{i}", np.linspace(0, 1, 5), np.linspace(0, i + 1, 5)) for i in range(4)]
        path = tmp_path / "four.svg"
        ff.emit_chart(series, path, styles=[{}, {"dash": "8,4"}, {"dash": "2,3"}, {"markers": True}])
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert root.get("viewBox") == "0 0 800 500"
        body = path.read_text()
        assert body.count("<polyline") == 3  # fourth series drawn as markers
        assert body.count("<circle") >= 5
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        for name in ("s0", "s1", "s2", "s3"):
            assert name in texts

    def test_markup_characters_escaped_as_saxutils_does(self, tmp_path, monkeypatch):
        from xml.sax.saxutils import escape

        labels = {"title": "a & b < c > d \"q\" 'p'", "x_label": "x<0 & 'y'",
                  "y_label": "u > \"1/2\" &amp;"}
        series = [("s<1> & \"t\"", [0.0, 1.0], [0.0, 1.0]), ("'r' > 0", [0.0, 1.0], [1.0, 0.0])]
        ours = tmp_path / "ours.svg"
        ff.emit_chart(series, ours, **labels)
        monkeypatch.setattr(experiment, "_xml_escape", escape)
        reference = tmp_path / "saxutils.svg"
        ff.emit_chart(series, reference, **labels)
        assert ours.read_bytes() == reference.read_bytes()
        texts = [el.text for el in ET.parse(ours).getroot().iter() if el.tag.endswith("text")]
        for text in [*labels.values(), *(name for name, _, _ in series)]:
            assert text in texts

    def test_two_point_series(self, tmp_path):
        path = tmp_path / "two.svg"
        ff.emit_chart([("seg", [0.0, 1.0], [0.0, 1.0])], path)
        assert path.read_text().count("<polyline") == 1

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ff.EmptySeries):
            ff.emit_chart([], tmp_path / "no.svg")
        with pytest.raises(ff.EmptySeries):
            ff.emit_chart([("one", [0.0], [1.0])], tmp_path / "one.svg")

    def test_chart_bytes_pinned(self, tmp_path):
        # x spans [0, 580], the plot width, so px(x) = 70 + x up to roundoff;
        # 116 of the 246 x coordinates land exactly on a halfway case .xx5
        xs = np.append(np.arange(0.0, 580.0, 2.375), 580.0)
        # only correctly rounded operations, so the bytes do not hang on a libm
        solid = (xs - 290.0) * (xs - 290.0) / 84100.0 - 3.0
        solid[[5, 40]] = np.nan, np.inf
        dashed = -1.0 - 0.25 * np.mod(xs, 23.0) / 23.0
        dashed[77] = -np.inf
        marks_x = np.arange(0.0, 580.0, 14.5)
        series = [("solid", xs, solid), ("dashed", xs, dashed),
                  ("marks", marks_x, -2.0 + marks_x / 580.0)]
        path = tmp_path / "pinned.svg"
        dropped = ff.emit_chart(series, path, title="pinned", x_label="x", y_label="u",
                                styles=[{}, {"dash": "4,2"}, {"markers": True}])
        assert dropped == 3
        body = path.read_text()
        assert body.count("<polyline") == 2 and 'stroke-dasharray="4,2"' in body
        # halfway cases round to even: 72.375 up, 77.125 down
        assert "72.38," in body and "77.12," in body
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_CHART_SHA256

    def test_sentinels_dropped_with_warning_count(self, tmp_path):
        xs = [0.0, 1.0, 2.0, 3.0]
        ys = [0.0, float("inf"), 2.0, float("nan")]
        dropped = ff.emit_chart([("s", xs, ys)], tmp_path / "warn.svg")
        assert dropped == 2
        with pytest.raises(ff.EmptySeries):
            ff.emit_chart([("s", [0.0, 1.0], [float("nan"), float("inf")])], tmp_path / "all.svg")


class TestSweep:
    def test_expansion_and_validation(self):
        jobs = sweep_values(MINIMAL, "time.t_end=1,2")
        assert [label for label, _ in jobs] == ["time_t_end_1", "time_t_end_2"]
        assert [cfg.t_end for _, cfg in jobs] == [1.0, 2.0]
        with pytest.raises(ff.ValidationFailed):
            sweep_values(MINIMAL, "time.t_end")
        with pytest.raises(ff.UnknownKey):
            sweep_values(MINIMAL, "bogus.key=1")

    @pytest.mark.parametrize("vary", ["time.t_end=", "time.t_end= , ,"])
    def test_key_without_values_rejected(self, vary):
        with pytest.raises(ff.ValidationFailed):
            sweep_values(MINIMAL, vary)

    @pytest.mark.parametrize("workers", [0, -3, True, 2.0])
    def test_bad_worker_count_fails_before_any_directory(self, tmp_path, workers):
        with pytest.raises(ff.ValidationFailed):
            experiment.run_sweep(TINY_CFG, "time.t_end=0.05", tmp_path / "out", workers=workers)
        assert not (tmp_path / "out").exists()

    def test_repeated_value_rejected(self):
        # both runs would write the same two files, at once under a pool
        with pytest.raises(ff.ValidationFailed):
            sweep_values(MINIMAL, "time.dt=0.01,0.01")

    @pytest.mark.parametrize("vary", ["grid.L=50#x,60", "grid.L=50\ntime.t_end = 3",
                                      "grid.N=64,64.5"])
    def test_value_is_read_whole(self, vary):
        # spliced into the document text, `50#x` ran L=50 (the `#` began a
        # comment), a newline added a line, and 64.5 ran on 64 nodes
        with pytest.raises(ff.ValidationFailed):
            sweep_values(MINIMAL, vary)

    def test_path_separator_in_a_value_becomes_underscore(self, tmp_path, monkeypatch):
        # a `/` kept in a label would name a directory under the output one
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        for name, level in (("a", 0.5), ("b", 0.25)):
            (tmp_path / "data" / f"{name}.txt").write_text(f"{level}\n" * 64)
        text = TINY_CFG + "initial.kind = tabulated\ninitial.file = data/a.txt\n"
        vary = "initial.file=data/a.txt,data/b.txt"
        labels = [label for label, _ in sweep_values(text, vary)]
        assert labels == ["initial_file_data_a.txt", "initial_file_data_b.txt"]
        experiment.run_sweep(text, vary, tmp_path / "out", workers=1)
        for label in labels:
            assert (tmp_path / "out" / f"{label}_diagnostics.csv").is_file()

    def test_values_with_one_label_are_rejected_before_any_read(self, tmp_path, monkeypatch):
        # neither file exists: reading one would raise IoFailure
        monkeypatch.chdir(tmp_path)
        text = TINY_CFG + "initial.kind = tabulated\ninitial.file = a_b\n"
        with pytest.raises(ff.ValidationFailed):
            sweep_values(text, "initial.file=a/b,a_b")

    def test_pool_is_capped_at_the_value_count(self, tmp_path, monkeypatch):
        # under fork a pool starts all max_workers processes at once; this
        # stand-in records the request and starts none
        created = []

        class RecordingPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        results = experiment.run_sweep(TINY_CFG, "time.t_end=0.05,0.1", tmp_path, workers=5000)
        assert created == [2]
        assert [label for label, _, _ in results] == ["time_t_end_0.05", "time_t_end_0.1"]
        experiment.run_sweep(TINY_CFG, "time.t_end=0.05", tmp_path, workers=5000)
        assert created == [2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_breached_member_writes_its_truncated_run(self, tmp_path, monkeypatch, workers):
        # one worker runs both members here, with the helper; two pool
        # workers are child processes and write in-process on any CPU count
        started = _use_backend(monkeypatch, "helper")
        if workers == 2:
            monkeypatch.setattr(experiment, "_start_helper", _refuse_helper)
        out = tmp_path / "out"
        results = experiment.run_sweep(BREACHING_CFG, "grid.L=4,32", out, workers=workers)
        expected = []
        for label, config in sweep_values(BREACHING_CFG, "grid.L=4,32"):
            traj = ff.run(config)
            expected.append((label, traj.guard_breach_time, len(traj.times)))
            ff.save_snapshots(traj, tmp_path / "snapshots.txt")
            ff.emit_csv(ff.build_report(traj), tmp_path / "diagnostics.csv")
            for kind in ("snapshots.txt", "diagnostics.csv"):
                assert (out / f"{label}_{kind}").read_bytes() == (tmp_path / kind).read_bytes()
        assert results == expected
        assert results[0][1] is not None and results[1][1] is None
        assert len(started) == (2 if workers == 1 else 0)
        assert len(list(out.iterdir())) == 4
        _no_partial_dump(out)

    def test_two_worker_sweep_writes_the_bytes_of_a_serial_one(self, tmp_path):
        outputs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            results = experiment.run_sweep(TINY_CFG, "time.t_end=0.05,0.1", out,
                                           workers=workers)
            outputs[workers] = (results, {p.name: p.read_bytes() for p in out.iterdir()})
        assert len(outputs[1][1]) == 4
        assert outputs[2] == outputs[1]


# a run of a few milliseconds: 64 nodes, a clean guard up to t = 0.1
TINY_CFG = """
dispersal.variant = standard_laplacian
grid.L = 50
grid.N = 64
time.t_end = 0.1
"""

SMALL_CFG = """
dispersal.variant = standard_laplacian
grid.L = 200
grid.N = 4096
time.t_end = 2
"""


# a preset member that breaches the guard at t = 0.16, after the writer got
# three snapshots
BREACHING_MEMBER = dict(
    L=4.0, N=2**7, dispersal=ff.StandardLaplacian(), t_end=1.0,
    initial=ff.GaussianBump(1.0), snapshot_times=(0.0, 0.01, 0.02, 0.5, 1.0),
)
SMALL_MEMBER = dict(L=50.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=1.0)

# BREACHING_MEMBER as a config document; with grid.L = 32 the guard stays clean
BREACHING_CFG = """
dispersal.variant = standard_laplacian
grid.L = 4
grid.N = 128
time.t_end = 1
initial.width = 1
time.snapshots = 0, 0.01, 0.02, 0.5, 1
"""


def _no_partial_dump(out):
    """No `.part` file under `out` and no helper process left running."""
    assert not list(out.rglob("*.part"))
    assert multiprocessing.active_children() == []


def _refuse_helper(*args):
    raise AssertionError("the dump must be written in this process")


def _use_backend(monkeypatch, backend) -> list:
    """Make the rule pick `backend` whatever CPUs the host has; returns the
    list of the helpers started, one dump path each."""
    cpus = {"helper": {0, 1}, "in-process": {0}}[backend]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    started = []
    start = experiment._start_helper

    def record(x, path):
        started.append(path)
        return start(x, path)

    monkeypatch.setattr(experiment, "_start_helper",
                        record if backend == "helper" else _refuse_helper)
    return started


def _run_verb_without_helper(cfg, out):
    """Body of a child process: the run verb with helper start-up refused."""
    experiment._start_helper = _refuse_helper
    sys.exit(main(["run", str(cfg), "--out", str(out)]))


class TestDumpProcess:
    """The one dump writer: a helper process where the rule allows it,
    this process otherwise."""

    def test_preset_dump_is_the_bytes_of_save_snapshots(self, fig1d_bundle, tmp_path):
        result, out = fig1d_bundle
        ff.save_snapshots(result["trajectories"]["fig1d"], tmp_path / "serial.txt")
        assert (out / "fig1d_snapshots.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()
        _no_partial_dump(out)

    @pytest.mark.parametrize("writer", ["helper", "no fork", "daemon", "one cpu"])
    def test_run_verb_dump_is_the_bytes_of_save_snapshots(self, tmp_path, capsys, monkeypatch,
                                                          writer):
        # without fork, in a child process (a daemon, a pool worker) or on
        # one CPU, the dump is written in this process as the run marches
        started = _use_backend(monkeypatch, "in-process" if writer == "one cpu" else "helper")
        if writer == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        if writer == "daemon":
            monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        if writer != "helper":
            monkeypatch.setattr(experiment, "_start_helper", _refuse_helper)
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert len(started) == (writer == "helper")
        ff.save_snapshots(ff.run(experiment.parse_config_text(SMALL_CFG)[0]), tmp_path / "serial.txt")
        assert (out / "small_snapshots.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()
        _no_partial_dump(out)

    @pytest.mark.parametrize("child", ["one cpu", "daemon"])
    def test_child_process_writes_in_process(self, tmp_path, child):
        # real processes: one that may use a single CPU, and a daemon, which
        # is a child process; each runs the run verb with helper start-up refused
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "out"
        if child == "one cpu":
            if not hasattr(os, "sched_setaffinity"):
                pytest.skip("no CPU affinity on this platform")
            code = (
                f"import os, sys; sys.path.insert(0, {SRC!r})\n"
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "from fastfronts import experiment\n"
                "from fastfronts.cli import main\n"
                "def refuse(*args): raise AssertionError('the helper was started')\n"
                "experiment._start_helper = refuse\n"
                f"sys.exit(main(['run', {str(cfg)!r}, '--out', {str(out)!r}]))\n"
            )
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
        else:
            ctx = multiprocessing.get_context("fork")
            proc = ctx.Process(target=_run_verb_without_helper, args=(cfg, out), daemon=True)
            proc.start()
            proc.join(120)
            assert proc.exitcode == 0
        ff.save_snapshots(ff.run(experiment.parse_config_text(SMALL_CFG)[0]), tmp_path / "serial.txt")
        assert (out / "small_snapshots.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()
        _no_partial_dump(out)

    def test_breaching_preset_member_leaves_no_file(self, tmp_path, monkeypatch):
        _use_backend(monkeypatch, "helper")
        monkeypatch.setitem(experiment._PRESET_TABLE, "fig1d", BREACHING_MEMBER)
        with pytest.raises(ff.GuardBreached):
            ff.run_preset("fig1d", tmp_path)
        assert list(tmp_path.iterdir()) == []
        _no_partial_dump(tmp_path)

    @pytest.mark.parametrize("backend", ["helper", "in-process"])
    @pytest.mark.parametrize("outcome", ["clean", "breach", "directory"])
    def test_every_exit_leaves_no_partial_file(self, tmp_path, monkeypatch, backend, outcome):
        started = _use_backend(monkeypatch, backend)
        member = BREACHING_MEMBER if outcome == "breach" else SMALL_MEMBER
        config = ff.RunConfig(**member)
        if outcome == "directory":
            (tmp_path / "m_snapshots.txt").mkdir()
        if outcome == "clean":
            experiment.run_to_files("m", config, tmp_path)
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "m_diagnostics.csv", "m_snapshots.txt"]
        else:
            error = ff.GuardBreached if outcome == "breach" else ff.IoFailure
            with pytest.raises(error):
                experiment.run_to_files("m", config, tmp_path)
            left = [] if outcome == "breach" else ["m_snapshots.txt"]
            assert [p.name for p in tmp_path.iterdir()] == left
        assert len(started) == (backend == "helper")
        _no_partial_dump(tmp_path)

    def test_save_snapshots_to_a_directory_is_an_io_failure(self, tmp_path):
        traj = ff.run(ff.RunConfig(**SMALL_MEMBER))
        (tmp_path / "dump.txt").mkdir()
        with pytest.raises(ff.IoFailure, match="cannot write snapshots"):
            ff.save_snapshots(traj, tmp_path / "dump.txt")
        assert [p.name for p in tmp_path.iterdir()] == ["dump.txt"]
        _no_partial_dump(tmp_path)

    @pytest.mark.parametrize("verb", ["run", "preset"])
    def test_dump_path_that_is_a_directory_is_an_io_failure(self, tmp_path, capsys, monkeypatch,
                                                            verb):
        _use_backend(monkeypatch, "helper")
        monkeypatch.setitem(experiment._PRESET_TABLE, "fig1d", SMALL_MEMBER)
        cfg = tmp_path / "small.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "out"
        stem, argv = {"run": ("small", ["run", str(cfg)]), "preset": ("fig1d", ["preset", "fig1d"])}[verb]
        (out / f"{stem}_snapshots.txt").mkdir(parents=True)
        assert main(argv + ["--out", str(out)]) == 1
        assert "error IoFailure" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [f"{stem}_snapshots.txt"]
        assert not any((out / f"{stem}_snapshots.txt").iterdir())
        _no_partial_dump(out)

    def test_writer_that_dies_is_an_io_failure(self, tmp_path, monkeypatch):
        _use_backend(monkeypatch, "helper")
        monkeypatch.setattr(experiment, "_dump_helper", lambda conn, x, path: os._exit(3))
        config = experiment.parse_config_text(SMALL_CFG)[0]
        with pytest.raises(ff.IoFailure, match="writer process"):
            experiment.run_to_files("small", config, tmp_path)
        assert list(tmp_path.iterdir()) == []
        _no_partial_dump(tmp_path)

    @pytest.mark.parametrize("backend", ["helper", "in-process"])
    def test_write_error_in_the_writer_is_an_io_failure(self, tmp_path, monkeypatch, backend):
        # the writer stops after the first snapshot; the helper reads on to the end
        _use_backend(monkeypatch, backend)
        write = experiment._write_dump
        written = []

        def full_disk(fh, templates, t, values):
            if written:
                raise OSError(28, "No space left on device")
            written.append(t)
            write(fh, templates, t, values)

        monkeypatch.setattr(experiment, "_write_dump", full_disk)
        config = experiment.parse_config_text(SMALL_CFG)[0]
        with pytest.raises(ff.IoFailure, match="No space left on device"):
            experiment.run_to_files("small", config, tmp_path)
        assert list(tmp_path.iterdir()) == []
        _no_partial_dump(tmp_path)


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "small_snapshots.txt").exists()
        assert (tmp_path / "out" / "small_diagnostics.csv").exists()

    def test_run_writes_a_column_per_configured_level(self, tmp_path, capsys):
        text = SMALL_CFG + "diagnostics.lambdas = 0.1, 0.9\n"
        cfg = tmp_path / "levels.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = ff.read_csv(tmp_path / "levels_diagnostics.csv")
        assert header == ["t", "m", "M", "x_0.1", "x_0.4", "x_0.5", "x_0.6", "x_0.9",
                          "stretch_0.4_0.6", "width", "flat_left", "flat_right"]
        report = ff.build_report(ff.run(ff.parse_config_text(text)[0]))
        expected = [
            [r.t, r.m, r.M, *(r.levels[lam] for lam in (0.1, 0.4, 0.5, 0.6, 0.9)),
             r.stretch, r.width, r.flat_left, r.flat_right]
            for r in report.rows
        ]
        assert np.asarray(rows).tobytes() == np.asarray(expected).tobytes()

    def test_properties_command(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        code = main(["properties", str(cfg), "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "comparison pass" in out
        assert "monotone_preservation pass" in out
        assert "mass_neutrality pass" in out

    def test_properties_negative_seed_reports_validation_category(self, tmp_path, capsys):
        # numpy's generator would reject it with a bare ValueError
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        assert main(["properties", str(cfg), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "error ValidationFailed" in captured.err
        assert "pass" not in captured.out

    def test_sweep_command(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        code = main(["sweep", str(cfg), "--vary", "time.t_end=1,2",
                     "--out", str(tmp_path / "sw"), "--workers", "1"])
        assert code == 0
        assert (tmp_path / "sw" / "time_t_end_1_diagnostics.csv").exists()
        assert (tmp_path / "sw" / "time_t_end_2_diagnostics.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_sweep_workers_below_one_reports_validation_category(self, tmp_path, capsys,
                                                                 workers):
        # both ran serially and exited 0
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        code = main(["sweep", str(cfg), "--vary", "time.t_end=1,2",
                     "--out", str(tmp_path / "sw"), "--workers", workers])
        assert code == 1
        assert "error ValidationFailed" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_unknown_preset_reports_category(self, capsys):
        code = main(["preset", "fig9z"])
        assert code == 1
        assert "UnknownKey" in capsys.readouterr().err

    def test_guard_breach_reports_category(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SMALL_CFG.replace("200", "40").replace("time.t_end = 2", "time.t_end = 20"))
        code = main(["run", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "GuardBreached" in err and "grid.L" in err

    def test_properties_breach_reports_guard_category(self, tmp_path, capsys):
        # on this box the comparison pair reaches the guard band; no verdict
        # may be read off the truncated runs
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(SMALL_CFG.replace("grid.L = 200", "grid.L = 40").replace("4096", "512"))
        code = main(["properties", str(cfg), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error GuardBreached" in captured.err
        assert " pass " not in captured.out and " fail " not in captured.out

    def test_overflowing_node_count_reports_validation_category(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(SMALL_CFG.replace("grid.N = 4096", "grid.N = 1e400"))
        code = main(["run", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "error ValidationFailed" in capsys.readouterr().err

    def test_nan_snapshot_time_reports_validation_category(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(SMALL_CFG + "time.snapshots = nan\n")
        code = main(["run", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "error ValidationFailed" in capsys.readouterr().err

    def test_huge_node_count_reports_validation_category(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the node bound must fire before the grid allocates")

        monkeypatch.setattr(np, "arange", refuse)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(SMALL_CFG.replace("grid.N = 4096", f"grid.N = {2**40}"))
        code = main(["run", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "error ValidationFailed" in capsys.readouterr().err

    def test_properties_skips_mass_check_for_nonlinear_variant(self, tmp_path, capsys):
        cfg = tmp_path / "fd.cfg"
        cfg.write_text("dispersal.variant = fast_diffusion\ndispersal.gamma = 0.5\n"
                       "grid.L = 100\ngrid.N = 512\ntime.t_end = 0.1\n")
        code = main(["properties", str(cfg), "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mass_neutrality skipped" in out
        assert "comparison pass" in out

    @pytest.mark.parametrize("speed", ["nan", "-2"])
    def test_properties_passes_a_nonzero_speed_to_the_spreading_check(
            self, tmp_path, capsys, speed):
        # only the documented 0 skips the check; before, any speed that is
        # not > 0 skipped it silently
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("dispersal.variant = standard_laplacian\n"
                       "grid.L = 100\ngrid.N = 512\ntime.t_end = 0.1\n")
        assert main(["properties", str(cfg), "--speed", speed]) == 1
        captured = capsys.readouterr()
        assert "error PreconditionViolated" in captured.err
        assert "spreading" not in captured.out

    def test_missing_config_reports_io_category(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.cfg")])
        assert code == 1
        assert "IoFailure" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "preset", "sweep", "properties"])
    def test_unusable_output_directory_reports_io_category(self, tmp_path, capsys, verb):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        (tmp_path / "afile").write_text("a regular file, not a directory\n")
        out = ["--out", str(tmp_path / "afile" / "sub")]
        argv = {
            "run": ["run", str(cfg)],
            "preset": ["preset", "fig1d"],
            "sweep": ["sweep", str(cfg), "--vary", "time.t_end=1", "--workers", "1"],
            "properties": ["properties", str(cfg)],
        }[verb]
        assert main(argv + out) == 1
        captured = capsys.readouterr()
        assert "error IoFailure" in captured.err
        # the directory is resolved before any work: no property verdict is printed
        assert not re.search(r"^\w+ (pass|fail) ", captured.out, re.M)
