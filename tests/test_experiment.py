"""Experiment front-end tests: config parsing with defaults and errors,
preset fidelity against the hard-coded parameter table, CSV round trips,
SVG determinism, sweeps, and the CLI surface.
"""

import concurrent.futures
import hashlib
import multiprocessing
import os
import re
import signal
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

    def test_line_without_an_equals_sign_rejected(self):
        with pytest.raises(ff.ValidationFailed, match=r"^line 7: .*'grid.dx 0.5'"):
            ff.parse_config_text(MINIMAL + "grid.dx 0.5\n")

    def test_comments_and_blanks_ignored(self):
        cfg = ff.parse_config_text(MINIMAL + "\n   \n# trailing comment\n")[0]
        assert cfg.N == 8192

    def test_bad_number(self):
        with pytest.raises(ff.ValidationFailed):
            ff.parse_config_text(MINIMAL.replace("400", "four hundred"))[0]

    @pytest.mark.parametrize("text, n", [("64", 64), ("64.0", 64), ("1.024e3", 1024)])
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
        ("grid.N = 1e3", ff.NotPowerOfTwo),
    ],
    ids=["t_end-nan", "t_end-inf", "dt-inf", "L-inf", "flat_radius-negative",
         "eps_reg-zero", "eps_reg-negative", "stretch-reversed", "stretch-at-zero",
         "stretch-at-one", "flat_level-above-one", "flat_level-nan", "snapshot-nan",
         "N-overflow", "snapshots-nan-document", "flat_level-document", "N-1e3-document"],
)
def test_invalid_input_ends_in_library_error(case, error):
    """A dict overrides RunConfig fields; a string replaces a document line."""
    with pytest.raises(error):
        if isinstance(case, str):
            ff.parse_config_text(MINIMAL.replace("grid.N = 8192", case))[0]
        else:
            ff.run(ff.RunConfig(**{**_BASE, **case}))


# The table of rejected documents, one input each: a document's first line
# names the error class it ends in (`# error ValidationFailed`), and a data
# file that it names sits beside it. The CI step "Reject every document of
# tests/rejected" runs the same files through the console script.
REJECTED = Path(__file__).resolve().parent / "rejected"
REJECTED_DOCS = sorted(REJECTED.glob("*.cfg"))


@pytest.mark.parametrize("doc", REJECTED_DOCS, ids=[doc.stem for doc in REJECTED_DOCS])
def test_nonfinite_parameter_fails_before_the_run(doc, tmp_path, capsys, monkeypatch):
    """Each of these inputs once ran clean to a wrong answer, or failed only
    after `--out` was made; the comment under each document's first line
    says how. The document and the CLI's run and properties verbs must all
    end in the named error class, before any directory is made."""
    text = doc.read_text()
    header = re.fullmatch(r"# error (\w+)", text.splitlines()[0])
    assert header, f"{doc.name} must open with `# error <Category>`"
    error = getattr(ff, header.group(1))
    assert issubclass(error, ff.FastFrontsError)
    monkeypatch.chdir(REJECTED)  # a document names its data files by their bare names
    with pytest.raises(error):
        ff.parse_config_text(text)
    for verb in ("run", "properties"):
        assert main([verb, str(doc), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error {error.__name__}: ")
        assert not (tmp_path / "out").exists()


def _record_writers(mp) -> list:
    """Wrap the `_start_helper` seam through `mp`; returns the list of the
    writer processes it starts."""
    started = []
    start = experiment._start_helper

    def record(part, n):
        started.append(start(part, n))
        return started[-1]

    mp.setattr(experiment, "_start_helper", record)
    return started


@pytest.fixture(autouse=True)
def writers(monkeypatch) -> list:
    """The writer processes that a test starts through the `_start_helper` seam."""
    return _record_writers(monkeypatch)


@pytest.fixture(scope="module")
def fig1d_bundle(tmp_path_factory):
    """The fig1d preset run once into a fresh directory: (result, directory,
    the writer processes started)."""
    out = tmp_path_factory.mktemp("fig1d")
    with pytest.MonkeyPatch.context() as mp:
        started = _record_writers(mp)
        return ff.run_preset("fig1d", out), out, started


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
        result, tmp_path, _ = fig1d_bundle
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


class TestFig2:
    """fig2 on four tiny members: the configs are built in this process, so
    the patched table reaches the spawned pool workers."""

    @pytest.fixture
    def tiny_table(self, monkeypatch):
        monkeypatch.setattr(experiment, "_PRESET_TABLE", {
            name: dict(L=200.0, N=2**10, dispersal=dispersal, t_end=2.0,
                       initial=ff.GaussianBump(4.0))
            for name, dispersal in (
                ("fig1a", ff.FractionalLaplacian(0.9)),
                ("fig1b", ff.Convolution(ff.StretchedExponential(a=0.5, b=1.0))),
                ("fig1c", ff.FastDiffusion(0.5)),
                ("fig1d", ff.StandardLaplacian()),
            )
        })
        return experiment._PRESET_TABLE

    def test_bundle_is_the_bytes_of_each_members_own(self, tmp_path, tiny_table, writers):
        result = ff.run_preset("fig2", tmp_path / "fig2")
        names = sorted(p.name for p in (tmp_path / "fig2").iterdir())
        kinds = ("diagnostics.csv", "profiles.svg", "snapshots.txt", "stretching.svg")
        assert names == sorted([f"{m}_{k}" for m in tiny_table for k in kinds]
                               + ["fig2_stretching.svg"])
        assert list(result["trajectories"]) == list(tiny_table)
        for member in tiny_table:
            ff.run_preset(member, tmp_path / member)
            for kind in kinds:
                name = f"{member}_{kind}"
                assert (tmp_path / "fig2" / name).read_bytes() == \
                    (tmp_path / member / name).read_bytes()
        _no_partial_dump(tmp_path, writers)

    def test_members_start_longest_first_and_chart_in_table_order(self, tmp_path, tiny_table,
                                                                   monkeypatch):
        # the jobs run in this process, in the order they are handed over;
        # the combined chart is the bytes of one whose jobs ran in table order
        started = []

        def run_many(fn, jobs, workers=None):
            started.extend(job[0] for job in jobs)
            return [fn(*job) for job in jobs]

        monkeypatch.setattr(experiment, "_run_many", run_many)
        result = ff.run_preset("fig2", tmp_path / "longest")
        assert started == ["fig1c", "fig1a", "fig1b", "fig1d"]
        assert list(result["trajectories"]) == list(result["reports"]) == list(tiny_table)
        monkeypatch.setattr(experiment, "_LONGEST_FIRST", tuple(tiny_table))
        ff.run_preset("fig2", tmp_path / "table")
        assert started[4:] == list(tiny_table)
        for name in [p.name for p in (tmp_path / "table").iterdir()]:
            assert (tmp_path / "longest" / name).read_bytes() == \
                (tmp_path / "table" / name).read_bytes(), name

    def test_breaching_member_leaves_no_file(self, tmp_path, tiny_table, writers):
        tiny_table["fig1b"] = BREACHING_MEMBER
        with pytest.raises(ff.GuardBreached):
            ff.run_preset("fig2", tmp_path)
        assert not list(tmp_path.glob("fig1b_*"))
        assert not (tmp_path / "fig2_stretching.svg").exists()
        _no_partial_dump(tmp_path, writers)


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

    @pytest.mark.parametrize("xs, ys, error", [
        ([1e17, 1e17 + 16], [0.0, 1.0], None),
        ([1e17, 1e17], [0.0, 1.0], ff.ValidationFailed),
        ([0.0, 1.0], [1.7e308, -1.7e308], ff.ValidationFailed),
    ], ids=["tick-step-below-float-spacing", "constant-past-2-53", "span-overflows"])
    def test_finite_extremes_end_in_a_chart_or_a_category(self, tmp_path, xs, ys, error):
        # the first never returned: a tick step of 5 cannot move 1e17, so the
        # tick list grew without bound (the alarm stops it after 2 s). The
        # second raised a bare ValueError and the third an OverflowError
        def stop(*_):
            raise AssertionError("emit_chart did not return within 2 s")

        path = tmp_path / "extreme.svg"
        handler = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            if error is None:
                ff.emit_chart([("a", xs, ys)], path)
            else:
                with pytest.raises(error):
                    ff.emit_chart([("a", xs, ys)], path)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, handler)
        if error is None:
            body = path.read_text()
            assert body.count("<polyline") == 1 and "nan" not in body and "inf" not in body
            assert experiment._nice_ticks(1e17, 1e17 + 16) == [1e17]
        else:
            assert not path.exists()

    def test_mismatched_coordinate_lengths_rejected(self, tmp_path):
        with pytest.raises(ff.EmptySeries, match="mismatched coordinate lengths"):
            ff.emit_chart([("a", [0.0, 1.0, 2.0], [0.0, 1.0])], tmp_path / "bad.svg")
        assert not (tmp_path / "bad.svg").exists()

    def test_constant_series_renders_on_a_widened_axis(self, tmp_path):
        # y in [0.5, 0.5] is widened to [0.5, 1.5], then padded by 5% each way
        path = tmp_path / "flat.svg"
        ff.emit_chart([("flat", [0.0, 1.0], [0.5, 0.5])], path)
        root = ET.parse(path).getroot()
        labels = [el.text for el in root.iter() if el.tag.endswith("text")
                  and el.get("text-anchor") == "end"]
        assert labels == ["0.5", "1", "1.5"]
        assert '<polyline points="70.00,426.59 650.00,426.59"' in path.read_text()

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
        # a pool may start all max_workers processes at once; this stand-in
        # records the request, checks that the pool would spawn its
        # processes, and starts none
        created = []

        class RecordingPool:
            def __init__(self, max_workers, mp_context):
                assert mp_context.get_start_method() == "spawn"
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        results = experiment.run_sweep(TINY_CFG, "time.t_end=0.05,0.1", tmp_path, workers=5000)
        assert created == [2]
        assert [label for label, _, _ in results] == ["time_t_end_0.05", "time_t_end_0.1"]
        experiment.run_sweep(TINY_CFG, "time.t_end=0.05", tmp_path, workers=5000)
        assert created == [2]

    def test_one_usable_cpu_builds_no_pool(self, tmp_path, monkeypatch):
        # the default worker count is the CPUs this process may use, not
        # the host's CPU count: pinned to one CPU, a sweep runs here
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was built")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        results = experiment.run_sweep(TINY_CFG, "time.t_end=0.05,0.1", tmp_path)
        assert [label for label, _, _ in results] == ["time_t_end_0.05", "time_t_end_0.1"]
        assert len(list(tmp_path.iterdir())) == 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_breached_member_writes_its_truncated_run(self, tmp_path, monkeypatch, writers,
                                                      workers):
        # each member starts a writer process, in this process with one
        # worker and in a pool worker with two, and each save_snapshots below
        # starts one in this process; every start leaves a marker file. A
        # spawned pool worker takes its seam from the sitecustomize module
        # on its PYTHONPATH; the writer process runs with -I -S, so neither
        # the seam nor the variable reaches it
        marks = tmp_path / "started"
        marks.mkdir()
        start = experiment._start_helper

        def mark(part, n):
            (marks / Path(part).name).touch()
            return start(part, n)

        monkeypatch.setattr(experiment, "_start_helper", mark)
        seam = tmp_path / "seam"
        seam.mkdir()
        (seam / "sitecustomize.py").write_text(_MARK_SEAM.format(marks=str(marks)))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (str(seam), SRC, os.environ.get("PYTHONPATH")))))
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
        assert sorted(p.name for p in marks.iterdir()) == [
            "grid_L_32_snapshots.txt.part", "grid_L_4_snapshots.txt.part", "snapshots.txt.part"]
        assert len(writers) == (4 if workers == 1 else 2)
        assert len(list(out.iterdir())) == 4
        _no_partial_dump(out, writers)

    def test_two_worker_sweep_writes_the_bytes_of_a_serial_one(self, tmp_path):
        outputs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            results = experiment.run_sweep(TINY_CFG, "time.t_end=0.05,0.1", out,
                                           workers=workers)
            outputs[workers] = (results, {p.name: p.read_bytes() for p in out.iterdir()})
        assert len(outputs[1][1]) == 4
        assert outputs[2] == outputs[1]


# the `_start_helper` seam of a spawned pool worker: each writer start
# leaves a marker file named after its `.part` file in {marks}
_MARK_SEAM = """
from pathlib import Path

from fastfronts import experiment

start = experiment._start_helper


def mark(part, n):
    (Path({marks!r}) / Path(part).name).touch()
    return start(part, n)


experiment._start_helper = mark
"""

# a run of a few milliseconds: 64 nodes, a clean guard up to t = 0.1
TINY_CFG = """
dispersal.variant = standard_laplacian
grid.L = 50
grid.N = 64
time.t_end = 0.1
"""

# documents that fail a gate of RunConfig on its grid: the fractional fast
# diffusion needs 2,182,588 sub-steps per step at dt = 0.01, and the
# tabulated kernel `{table}` is zero on every node (spacing 2)
GRID_GATE_CFGS = {
    "substeps": ("""
dispersal.variant = fractional_fast_diffusion
dispersal.alpha = 0.9
dispersal.gamma = 0.5
grid.L = 200
grid.N = 32768
time.t_end = 1
""", ff.ParameterOutOfRange, "2182588 sub-steps"),
    "kernel_mass": ("""
dispersal.variant = convolution
dispersal.kernel = tabulated
dispersal.kernel_file = {table}
grid.L = 256
grid.N = 256
time.t_end = 1
""", ff.ValidationFailed, "zero discrete mass"),
}

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
# a kernel that is zero on every node of this grid (spacing 2): no discrete mass
ZERO_MASS_MEMBER = dict(
    L=256.0, N=2**8, t_end=1.0,
    dispersal=ff.Convolution(ff.TabulatedKernel((-1, -0.5, 0, 0.5, 1), (0, 1, 0, 1, 0))),
)
# 32,614,423 sub-steps per step, above the sub-cycled step's bound
SUBSTEP_BOUND_MEMBER = dict(
    L=20.0, N=2**12, dispersal=ff.FractionalFastDiffusion(0.9, 0.5), t_end=1.0, dt=0.1,
    initial=ff.GaussianBump(1.0),
)

# BREACHING_MEMBER as a config document; with grid.L = 32 the guard stays clean
BREACHING_CFG = """
dispersal.variant = standard_laplacian
grid.L = 4
grid.N = 128
time.t_end = 1
initial.width = 1
time.snapshots = 0, 0.01, 0.02, 0.5, 1
"""


def _no_partial_dump(out, writers):
    """No `.part` file under `out`, and every writer process in `writers` reaped."""
    assert not list(out.rglob("*.part"))
    assert all(proc.returncode is not None for proc in writers)


def _run_verb_in_daemon(cfg, out):
    """Body of a daemon process: the run verb; exits with its code, or with 2
    unless it started exactly one writer process."""
    started = _record_writers(pytest.MonkeyPatch())
    code = main(["run", str(cfg), "--out", str(out)])
    sys.exit(code or (0 if len(started) == 1 else 2))


def _start_python(writers, code):
    """A seam in place of `_start_helper`: start `python -c code` with the
    writer's pipes, recorded in `writers`."""

    def start(part, n):
        writers.append(subprocess.Popen([sys.executable, "-c", code],
                                        stdin=subprocess.PIPE, stderr=subprocess.PIPE))
        return writers[-1]

    return start


class TestDumpProcess:
    """The one dump writer: a writer process for every dump, whatever CPUs
    the calling process may use."""

    def test_preset_dump_is_the_bytes_of_save_snapshots(self, fig1d_bundle, tmp_path):
        result, out, started = fig1d_bundle
        ff.save_snapshots(result["trajectories"]["fig1d"], tmp_path / "serial.txt")
        assert (out / "fig1d_snapshots.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()
        assert len(started) == 1
        _no_partial_dump(out, started)

    def test_run_verb_dump_is_the_bytes_of_save_snapshots(self, tmp_path, capsys, writers):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert len(writers) == 1
        ff.save_snapshots(ff.run(experiment.parse_config_text(SMALL_CFG)[0]), tmp_path / "serial.txt")
        assert len(writers) == 2
        assert (out / "small_snapshots.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()
        _no_partial_dump(out, writers)

    def test_daemon_starts_one_writer(self, tmp_path, writers):
        # a daemon may not have multiprocessing children, but it starts a
        # writer process all the same
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "out"
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_run_verb_in_daemon, args=(cfg, out), daemon=True)
        proc.start()
        proc.join(120)
        assert proc.exitcode == 0
        ff.save_snapshots(ff.run(experiment.parse_config_text(SMALL_CFG)[0]), tmp_path / "serial.txt")
        assert (out / "small_snapshots.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()
        _no_partial_dump(out, writers)

    def test_run_verb_forks_nothing_and_loads_no_multiprocessing(self, tmp_path, writers):
        # a fresh interpreter pinned to one CPU where the platform allows
        # it, with an os.fork that raises: one writer process all the same
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "out"
        code = (
            f"import os, sys; sys.path.insert(0, {SRC!r})\n"
            "if hasattr(os, 'sched_setaffinity'):\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "    assert len(os.sched_getaffinity(0)) == 1\n"
            "def no_fork(): raise AssertionError('os.fork was called')\n"
            "os.fork = no_fork\n"
            "from fastfronts import experiment\n"
            "from fastfronts.cli import main\n"
            "started = []\n"
            "start = experiment._start_helper\n"
            "experiment._start_helper = lambda *a: started.append(start(*a)) or started[-1]\n"
            f"assert main(['run', {str(cfg)!r}, '--out', {str(out)!r}]) == 0\n"
            "assert len(started) == 1, started\n"
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing was imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        ff.save_snapshots(ff.run(experiment.parse_config_text(SMALL_CFG)[0]), tmp_path / "serial.txt")
        assert (out / "small_snapshots.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()
        _no_partial_dump(out, writers)

    def test_one_member_preset_runs_in_the_caller(self, fig1d_bundle, tmp_path, writers):
        # `fastfronts preset fig1d` in a fresh interpreter on every CPU this
        # host allows, with an os.fork that raises: its one member runs in
        # the caller, with one writer process and no pool module loaded
        out = tmp_path / "out"
        code = (
            f"import os, sys; sys.path.insert(0, {SRC!r})\n"
            "def no_fork(): raise AssertionError('os.fork was called')\n"
            "os.fork = no_fork\n"
            "from fastfronts import experiment\n"
            "from fastfronts.cli import main\n"
            "started = []\n"
            "start = experiment._start_helper\n"
            "experiment._start_helper = lambda *a: started.append(start(*a)) or started[-1]\n"
            f"assert main(['preset', 'fig1d', '--out', {str(out)!r}]) == 0\n"
            "assert len(started) == 1, started\n"
            "for name in ('multiprocessing', 'concurrent.futures'):\n"
            "    assert name not in sys.modules, f'{name} was imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        _, bundle, _ = fig1d_bundle
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in bundle.iterdir())
        for path in bundle.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes()
        _no_partial_dump(out, writers)

    def test_breaching_preset_member_leaves_no_file(self, tmp_path, monkeypatch, writers):
        monkeypatch.setitem(experiment._PRESET_TABLE, "fig1d", BREACHING_MEMBER)
        with pytest.raises(ff.GuardBreached):
            ff.run_preset("fig1d", tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert len(writers) == 1
        _no_partial_dump(tmp_path, writers)

    @pytest.mark.parametrize("outcome", ["clean", "breach", "directory", "kernel_mass",
                                         "substeps"])
    def test_every_exit_leaves_no_partial_file(self, tmp_path, writers, outcome):
        # kernel_mass and substeps fail RunConfig's gates on the grid: the
        # kernel has zero mass on the grid's nodes, and dt asks for more
        # sub-steps than the bound; so no run, and no writer process, starts
        member = {"breach": BREACHING_MEMBER, "kernel_mass": ZERO_MASS_MEMBER,
                  "substeps": SUBSTEP_BOUND_MEMBER}.get(outcome, SMALL_MEMBER)
        error, match = {"breach": (ff.GuardBreached, None),
                        "directory": (ff.IoFailure, None),
                        "kernel_mass": (ff.ValidationFailed, "zero discrete mass"),
                        "substeps": (ff.ParameterOutOfRange, "32614423 sub-steps"),
                        }.get(outcome, (None, None))
        if outcome in ("kernel_mass", "substeps"):
            with pytest.raises(error, match=match):
                ff.RunConfig(**member)
            assert writers == []
            return
        config = ff.RunConfig(**member)
        if outcome == "directory":
            (tmp_path / "m_snapshots.txt").mkdir()
        if outcome == "clean":
            experiment.run_to_files("m", config, tmp_path)
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "m_diagnostics.csv", "m_snapshots.txt"]
        else:
            with pytest.raises(error, match=match):
                experiment.run_to_files("m", config, tmp_path)
            left = ["m_snapshots.txt"] if outcome == "directory" else []
            assert [p.name for p in tmp_path.iterdir()] == left
        assert len(writers) == 1
        _no_partial_dump(tmp_path, writers)

    def test_save_snapshots_to_a_directory_is_an_io_failure(self, tmp_path, writers):
        traj = ff.run(ff.RunConfig(**SMALL_MEMBER))
        (tmp_path / "dump.txt").mkdir()
        with pytest.raises(ff.IoFailure, match="cannot write snapshots"):
            ff.save_snapshots(traj, tmp_path / "dump.txt")
        assert [p.name for p in tmp_path.iterdir()] == ["dump.txt"]
        assert len(writers) == 1
        _no_partial_dump(tmp_path, writers)

    @pytest.mark.parametrize("verb", ["run", "preset"])
    def test_dump_path_that_is_a_directory_is_an_io_failure(self, tmp_path, capsys, monkeypatch,
                                                            writers, verb):
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
        _no_partial_dump(out, writers)

    def test_helper_that_cannot_start_is_an_io_failure(self, tmp_path, capsys, monkeypatch,
                                                       writers):
        # a start-up OSError (EAGAIN, say) must not end the run verb bare

        def cannot_start(part, n):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(experiment, "_start_helper", cannot_start)
        cfg = tmp_path / "small.cfg"
        cfg.write_text(TINY_CFG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert "error IoFailure" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        _no_partial_dump(out, writers)

    def test_writer_that_dies_is_an_io_failure(self, tmp_path, monkeypatch, writers):
        monkeypatch.setattr(experiment, "_start_helper",
                            _start_python(writers, "import sys; sys.exit(3)"))
        config = experiment.parse_config_text(SMALL_CFG)[0]
        with pytest.raises(ff.IoFailure, match="writer process exited with code 3"):
            experiment.run_to_files("small", config, tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert len(writers) == 1
        _no_partial_dump(tmp_path, writers)

    def test_failure_while_the_writer_takes_x_is_an_io_failure(self, tmp_path, monkeypatch,
                                                               writers):
        # a writer that closes its stdin and lives on: the x column, 128 kB
        # and more than a pipe holds, meets a broken pipe in the first send,
        # and leaving the `with` block must kill and reap the writer
        monkeypatch.setattr(experiment, "_start_helper",
                            _start_python(writers, "import os, time; os.close(0); time.sleep(60)"))
        x = ff.make_grid(50.0, 2**14).x
        with pytest.raises(ff.IoFailure, match="cannot write snapshots"):
            with experiment._DumpWriter(tmp_path / "m_snapshots.txt", x) as dump:
                dump.send(0.0, np.zeros_like(x))
        assert list(tmp_path.iterdir()) == []
        assert len(writers) == 1 and writers[0].returncode == -9
        _no_partial_dump(tmp_path, writers)

    def test_writer_that_fails_after_the_whole_dump_is_an_io_failure(self, tmp_path, monkeypatch,
                                                                     writers):
        # the writer reads the dump to its end, then fails: the clean exit of
        # the `with` block must not publish it, nor the CSV after it
        code = ("import sys; sys.stdin.buffer.read(); "
                "sys.stderr.write('first line\\nno room for the dump\\n'); sys.exit(5)")
        monkeypatch.setattr(experiment, "_start_helper", _start_python(writers, code))
        config = experiment.parse_config_text(SMALL_CFG)[0]
        with pytest.raises(ff.IoFailure,
                           match="writer process exited with code 5: no room for the dump$"):
            experiment.run_to_files("small", config, tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert len(writers) == 1
        _no_partial_dump(tmp_path, writers)

    def test_write_error_in_the_writer_is_an_io_failure(self, tmp_path, writers):
        # a real ENOSPC: `.part` is a symbolic link to /dev/full
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        (tmp_path / "small_snapshots.txt.part").symlink_to("/dev/full")
        config = experiment.parse_config_text(SMALL_CFG)[0]
        with pytest.raises(ff.IoFailure, match="No space left on device"):
            experiment.run_to_files("small", config, tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert len(writers) == 1
        _no_partial_dump(tmp_path, writers)


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

    def test_properties_failing_check_exits_3_and_writes_the_verdicts(self, tmp_path, capsys):
        # the classical step on 512 nodes over L = 100 breaks monotonicity
        # by 7.6e-7 (the grid condition in check_monotone_preservation)
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text("dispersal.variant = standard_laplacian\n"
                       "grid.L = 100\ngrid.N = 512\ntime.t_end = 0.1\n")
        out = tmp_path / "out"
        assert main(["properties", str(cfg), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        verdicts = (out / "properties.txt").read_text()
        assert captured.out == f"{verdicts}wrote {out / 'properties.txt'}\n"
        assert [line.split()[:2] for line in verdicts.splitlines()] == [
            ["comparison", "pass"], ["monotone_preservation", "fail"],
            ["mass_neutrality", "pass"]]
        assert "monotone_preservation fail 7.575830e-07 1.000000e-09\n" in verdicts
        assert captured.err == "error PropertyCheckFailed: at least one check failed\n"

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

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize("case", ["substeps", "kernel_mass"])
    def test_grid_gate_fails_before_any_directory(self, tmp_path, capsys, writers, case, verb):
        # each document passed the gates of a RunConfig without the grid
        # gates and failed only in its run: after `--out` was made and, for
        # the sub-step bound, after the dump's writer process had started
        text, error, match = GRID_GATE_CFGS[case]
        (tmp_path / "k.txt").write_text("-1 0\n-0.5 1\n0 0\n0.5 1\n1 0\n")
        cfg = tmp_path / f"{case}.cfg"
        cfg.write_text(text.format(table=tmp_path / "k.txt"))
        out = tmp_path / "out"
        argv = {"run": ["run", str(cfg)],
                "sweep": ["sweep", str(cfg), "--vary", "time.t_end=0.5,1", "--workers", "2"]}
        assert main(argv[verb] + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error {error.__name__}: ") and match in err
        assert not out.exists()
        assert writers == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_value_that_cannot_run_creates_nothing(self, tmp_path, capsys, workers):
        # grid.N = 100 failed in its member's run, after the directory was
        # made; one worker had written both grid_N_128 files by then
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        code = main(["sweep", str(cfg), "--vary", "grid.N=128,100",
                     "--out", str(tmp_path / "sw"), "--workers", workers])
        assert code == 1
        assert "error NotPowerOfTwo" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("base", ["no_node_count", "node_count_100"])
    def test_sweep_base_that_fails_alone_runs_every_value(self, tmp_path, capsys, base,
                                                          workers):
        # the verb parsed the base on its own first, and exited 1 with
        # MissingRequired or NotPowerOfTwo before any value ran
        text, error = {
            "no_node_count": (TINY_CFG.replace("grid.N = 64\n", ""), ff.MissingRequired),
            "node_count_100": (TINY_CFG.replace("grid.N = 64", "grid.N = 100"), ff.NotPowerOfTwo),
        }[base]
        with pytest.raises(error):
            ff.parse_config_text(text)
        cfg = tmp_path / "base.cfg"
        cfg.write_text(text)
        code = main(["sweep", str(cfg), "--vary", "grid.N=64,128",
                     "--out", str(tmp_path / "sw"), "--workers", workers])
        assert code == 0
        assert capsys.readouterr().err == ""
        experiment.run_sweep(TINY_CFG, "grid.N=64,128", tmp_path / "ref", workers=1)
        files = {p.name: p.read_bytes() for p in (tmp_path / "sw").iterdir()}
        assert sorted(files) == [f"grid_N_{n}_{kind}" for n in (128, 64)
                                 for kind in ("diagnostics.csv", "snapshots.txt")]
        assert files == {p.name: p.read_bytes() for p in (tmp_path / "ref").iterdir()}

    def test_sweep_without_out_writes_into_the_documents_output_dir(self, tmp_path,
                                                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG + "output.dir = from_doc\n")
        assert main(["sweep", str(cfg), "--vary", "time.t_end=0.05", "--workers", "1"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["from_doc", "tiny.cfg"]
        assert sorted(p.name for p in (tmp_path / "from_doc").iterdir()) == [
            "time_t_end_0.05_diagnostics.csv", "time_t_end_0.05_snapshots.txt"]

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
