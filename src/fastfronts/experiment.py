"""Experiment front end: config documents, figure presets, the snapshot dump,
CSV and SVG emitters, parameter sweeps, and `_run_many`, the one executor
that runs several configs: in the calling process with one worker, else on a
pool of `spawn`ed processes. Sweeps, fig2 and the acceptance tests' preset
runs go through it.

Config documents are flat `section.key = value` lines with `#` comments.
Sections: grid, dispersal, reaction, time, initial, diagnostics, output.
Required keys: dispersal.variant, grid.L, grid.N, time.t_end, and the
parameters the chosen operator, kernel or initial data cannot do without. A
key a document leaves out takes the default of the dataclass field it fills.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .dispersal import (
    AlgebraicTail,
    Convolution,
    FastDiffusion,
    FractionalFastDiffusion,
    FractionalLaplacian,
    StandardLaplacian,
    StretchedExponential,
    load_kernel_table,
    read_table,
)
from .diagnostics import DiagnosticsReport, build_report
from .errors import (
    EmptySeries,
    IoFailure,
    MissingRequired,
    UnknownKey,
    ValidationFailed,
    _io,
)
from .integrator import (
    GaussianBump,
    Indicator,
    RunConfig,
    TabulatedInitial,
    Trajectory,
    run,
)
from .reaction import KppLogistic

__all__ = [
    "parse_config_text",
    "PRESET_NAMES",
    "preset_config",
    "run_preset",
    "emit_csv",
    "read_csv",
    "save_snapshots",
    "emit_chart",
    "sweep_values",
    "run_sweep",
]


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

def _integer(text: str) -> int:
    """An integral number such as 64, 64.0 or 1e3; 64.5 raises ValueError."""
    value = float(text)
    if not value.is_integer():
        raise ValueError("not an integral value")
    return int(value)


def _numbers(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _choice(options: dict):
    """Reader that looks a case-insensitive token up in `options`."""

    def read(text: str):
        if text.lower() not in options:
            raise ValueError(f"not one of {', '.join(options)}")
        return options[text.lower()]

    return read


_flag = _choice(dict.fromkeys(("true", "yes", "1", "on"), True)
                | dict.fromkeys(("false", "no", "0", "off"), False))


def _snapshot_times(text: str):
    return None if text.lower() == "auto" else _numbers(text)


def _load_initial(path: str) -> TabulatedInitial:
    """Initial data from the last column of a whitespace-separated table."""
    return TabulatedInitial(read_table(path, "initial data")[:, -1])


# Document key -> (keyword, reader), one table per constructor. Only the keys
# a document sets are passed, so every default is the dataclass's own.
_RUN_KEYS = {
    "reaction.variant": ("reaction", _choice({"kpp_logistic": KppLogistic(), "none": None})),
    "time.snapshots": ("snapshot_times", _snapshot_times),
    "grid.l": ("L", float),
    "grid.n": ("N", _integer),
    "time.t_end": ("t_end", float),
    "time.dt": ("dt", float),
    "grid.guard": ("guard_threshold", float),
    "diagnostics.lambdas": ("lambdas", _numbers),
    "diagnostics.stretch": ("stretch_pair", _numbers),
    "diagnostics.flat_level": ("flat_level", float),
    "diagnostics.flat_radius": ("flat_radius", float),
    "diagnostics.seam_margin": ("seam_margin_frac", float),
}
_ALPHA = {"dispersal.alpha": ("alpha", float)}
_GAMMA = {"dispersal.gamma": ("gamma", float)}
_NORMALIZE = {"dispersal.kernel_normalize": ("normalize", _flag)}

# A selector key's value -> (constructor, the table of keys it reads). A
# convolution reads its kernel through dispersal.kernel instead.
_VARIANTS = {
    "fractional_laplacian": (FractionalLaplacian, _ALPHA),
    "convolution": (Convolution, {}),
    "standard_laplacian": (StandardLaplacian, {}),
    "fast_diffusion": (FastDiffusion, _GAMMA),
    "fractional_fast_diffusion": (FractionalFastDiffusion, {**_ALPHA, **_GAMMA}),
}
_KERNELS = {
    # StretchedExponential has no default for a; a document's is 0.5
    "stretched_exponential": (
        partial(StretchedExponential, a=0.5),
        {"dispersal.kernel_a": ("a", float), "dispersal.kernel_b": ("b", float), **_NORMALIZE},
    ),
    "algebraic": (AlgebraicTail, {"dispersal.kernel_p": ("p", float), **_NORMALIZE}),
    "tabulated": (load_kernel_table, {"dispersal.kernel_file": ("path", str), **_NORMALIZE}),
}
_INITIALS = {
    "gaussian": (GaussianBump, {"initial.width": ("width", float)}),
    "indicator": (Indicator, {"initial.position": ("position", float)}),
    "tabulated": (_load_initial, {"initial.file": ("path", str)}),
}

# Keys a document must set wherever they apply
_REQUIRED = frozenset({
    "grid.l", "grid.n", "time.t_end", "dispersal.variant", "dispersal.alpha",
    "dispersal.gamma", "dispersal.kernel_p", "dispersal.kernel_file", "initial.file",
})
_KEYS = frozenset().union(
    _RUN_KEYS, ("dispersal.variant", "dispersal.kernel", "initial.kind", "output.dir"),
    *(table for kinds in (_VARIANTS, _KERNELS, _INITIALS) for _, table in kinds.values()),
)


def _parse_lines(text: str) -> dict:
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationFailed(f"line {lineno}: expected `section.key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.lower() not in _KEYS:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        entries[key.lower()] = value
    return entries


def _require(entries: dict, keys) -> None:
    for key in keys:
        if key in _REQUIRED and key not in entries:
            raise MissingRequired(f"{key} is required")


def _read(entries: dict, key: str, reader, default=None):
    text = entries.get(key, default)
    try:
        return reader(text)
    except (ValueError, OverflowError) as exc:
        raise ValidationFailed(f"{key} = {text!r}: {exc}") from exc


def _keywords(entries: dict, table: dict) -> dict:
    """Keyword arguments for the keys of `table` that the document sets."""
    return {kw: _read(entries, key, read) for key, (kw, read) in table.items() if key in entries}


def _select(entries: dict, selector: str, kinds: dict, default=None) -> tuple:
    """The (constructor, key table) that the selector key's value names; raises
    MissingRequired unless the document sets the table's required keys."""
    make, table = _read(entries, selector, _choice(kinds), default)
    _require(entries, table)
    return make, table


def parse_config_text(text: str) -> tuple:
    """Parse a config document; returns (RunConfig, extras dict).

    Extras carry `out_dir`: output.dir, else ".". Raises UnknownKey,
    MissingRequired, IoFailure for an unreadable table file, or the error of
    the first spec or RunConfig gate that the document fails.
    """
    return _build_config(_parse_lines(text))


def _build_config(entries: dict) -> tuple:
    """(RunConfig, extras) from a document's key -> value-text entries."""
    _require(entries, (*_RUN_KEYS, "dispersal.variant"))
    spec, table = _select(entries, "dispersal.variant", _VARIANTS)
    if spec is Convolution:
        kernel, table = _select(entries, "dispersal.kernel", _KERNELS, "stretched_exponential")
        dispersal = Convolution(kernel(**_keywords(entries, table)))
    else:
        dispersal = spec(**_keywords(entries, table))
    kwargs = _keywords(entries, _RUN_KEYS)
    make, table = _select(entries, "initial.kind", _INITIALS, "gaussian")
    initial = make(**_keywords(entries, table))
    # the readers return numbers, tuples and specs: RunConfig's gates see every bad value
    config = RunConfig(dispersal=dispersal, initial=initial, **kwargs)
    return config, {"out_dir": _out_dir(entries)}


def _out_dir(entries: dict) -> str:
    return entries.get("output.dir", ".")


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

# Domain sizes and horizons are pilot-calibrated so every preset finishes with
# a clean boundary guard at desk scale. The accelerating fractional case needs
# the reduced horizon: its level sets grow exponentially in time.
_PRESET_TABLE = {
    "fig1a": dict(L=5000.0, N=2**17, dispersal=FractionalLaplacian(0.9), t_end=12.0),
    "fig1b": dict(
        L=2000.0, N=2**15,
        dispersal=Convolution(StretchedExponential(a=0.5, b=1.0)), t_end=20.0,
    ),
    "fig1c": dict(L=4000.0, N=2**16, dispersal=FastDiffusion(0.5), t_end=20.0),
    "fig1d": dict(L=400.0, N=2**13, dispersal=StandardLaplacian(), t_end=20.0),
}
# fig2 runs every table preset and adds the combined separation chart
PRESET_NAMES = (*_PRESET_TABLE, "fig2")


def preset_config(name: str) -> RunConfig:
    """Expand a figure preset name into its full RunConfig."""
    if name not in _PRESET_TABLE:
        raise UnknownKey(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        )
    return RunConfig(**_PRESET_TABLE[name])


def _downsample(xs: np.ndarray, ys: np.ndarray, max_points: int = 1024) -> tuple:
    stride = max(1, int(math.ceil(len(xs) / max_points)))
    return xs[::stride], ys[::stride]


def make_out_dir(path) -> Path:
    """Create an output directory and its parents; OSError becomes IoFailure."""
    out = Path(path)
    with _io(f"cannot create output directory {out}"):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _start_helper(part: Path, n: int):
    """Start the writer process of a dump of `n` nodes into `part`; returns its Popen."""
    import subprocess

    # a 256 kB pipe (Linux only) holds x and fig1d's first snapshots while it starts
    return subprocess.Popen(
        [sys.executable, "-I", "-S", Path(__file__).with_name("_dumpfile.py"), part, str(n)],
        stdin=subprocess.PIPE, stderr=subprocess.PIPE, pipesize=1 << 18,
    )


class _DumpWriter(contextlib.AbstractContextManager):
    """Writes the snapshot dump at `path` through the `_dumpfile` writer
    process, which formats each snapshot that `send` (the run's
    on_snapshot) hands it into `<path>.part`; x goes out ahead of the first
    snapshot. The `with` block is the dump's one transaction: leaving it
    cleanly waits for the writer process and renames `.part` to `path`, and
    leaving it in any other way kills and reaps the writer process and
    removes `.part`. The block holds only the run and the writer's own calls,
    so an OSError raised in it ends in IoFailure, as does a writer process
    that exits nonzero, with its exit code and the last line of its stderr."""

    def __init__(self, path, x: np.ndarray):
        self.path = Path(path)
        self.part = self.path.with_name(self.path.name + ".part")
        self.x = np.ascontiguousarray(x, dtype=np.float64)
        with _io(f"cannot write snapshots to {self.path}"):  # a writer that cannot start too
            self.proc = _start_helper(self.part, x.size)

    def send(self, t: float, values: np.ndarray) -> None:
        self.proc.stdin.write(np.concatenate((self.x, (t,), values)))
        self.x = self.x[:0]  # x leads the first record only

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc is None:
                self.proc.communicate()  # closes stdin, which ends the dump
                if not self.proc.returncode:
                    return os.replace(self.part, self.path)
        except OSError as rename_error:
            exc = rename_error
        finally:  # the one teardown, also after an interrupt in the wait above
            self.proc.kill()  # harmless once the writer has exited
            _, err = self.proc.communicate()  # reaps it; stderr as the first call read it
            self.part.unlink(missing_ok=True)  # gone once renamed
        if exc is None or isinstance(exc, OSError):
            failure = ": ".join([f"the writer process exited with code {self.proc.returncode}",
                                 *err.decode(errors="replace").splitlines()[-1:]])
            raise IoFailure(f"cannot write snapshots to {self.path}: "
                            f"{failure if self.proc.returncode else exc}") from exc


def save_snapshots(traj: Trajectory, path) -> None:
    """Dump a trajectory: `# t=<value>` header then one `x u` line per node.

    Values carry 17 significant digits. The trajectory goes to the writer
    process of every dump, which writes `<path>.part`; that file is renamed
    to `path` once it is whole and removed on an error. `run_to_files`
    writes the same bytes while its run marches.
    """
    with _DumpWriter(path, traj.grid.x) as dump:
        for t, fld in traj.snapshots():
            dump.send(t, fld.values)


def run_to_files(stem: str, config: RunConfig, out: Path, *,
                 raise_on_breach: bool = True) -> tuple:
    """Run `config` and write `<stem>_snapshots.txt` and
    `<stem>_diagnostics.csv` into `out`; returns (trajectory, report,
    snapshot path, CSV path). The `run` verb, each preset member and each
    sweep member run here.

    A breach raises GuardBreached unless `raise_on_breach` is False, as for a
    sweep member, which keeps its truncated run. Each snapshot goes to the
    dump's writer process as the run records it, and is formatted into
    `<stem>_snapshots.txt.part` there while this process marches and builds
    the report. On any exception the writer process is killed and the
    `.part` file removed, so a dump appears only after a run that did not
    raise, and the CSV only after the dump.
    """
    snap_path = out / f"{stem}_snapshots.txt"
    with _DumpWriter(snap_path, config.grid().x) as dump:
        traj = run(config, raise_on_breach=raise_on_breach, on_snapshot=dump.send)
        report = build_report(traj)
    # the CSV comes after the dump, so that a failed dump leaves no CSV behind
    csv_path = out / f"{stem}_diagnostics.csv"
    emit_csv(report, csv_path)
    return traj, report, snap_path, csv_path


def run_preset(name: str, out_dir) -> dict:
    """Run a figure preset and write its output bundle.

    Each single-operator preset emits a snapshot dump, the diagnostics CSV,
    a profile chart and a level-separation chart; fig2 runs all four
    operators and adds the combined separation chart. Each member goes
    through `run_to_files` on `_run_many`: a one-member preset runs in the
    calling process, and fig2's members run on a pool of spawned processes,
    one per CPU this process may use, in table order. Each member's dump is
    written by a writer process while it marches and appears only once the
    member ran clean; the charts are drawn here. Returns a dict of
    trajectories, reports and written paths; a breach raises GuardBreached
    (on a pool, the members already running still write their files).
    """
    members = tuple(_PRESET_TABLE) if name == "fig2" else (name,)
    configs = {member: preset_config(member) for member in members}
    out = make_out_dir(out_dir)
    result = {"paths": {}, "trajectories": {}, "reports": {}}
    paths = result["paths"]
    series = []
    runs = _run_many(run_to_files, [(member, config, out) for member, config in configs.items()])
    for member, (traj, report, paths[f"{member}:snapshots"], paths[f"{member}:csv"]) in zip(
        members, runs
    ):
        result["trajectories"][member] = traj
        result["reports"][member] = report
        profiles = [
            (f"t={t:g}", *_downsample(traj.grid.x, fld.values)) for t, fld in traj.snapshots()
        ]
        paths[f"{member}:profiles"] = out / f"{member}_profiles.svg"
        emit_chart(
            profiles, paths[f"{member}:profiles"],
            title=f"{member}: density profiles", x_label="x", y_label="u", legend_max=6,
        )
        a, b = report.stretch_pair
        ss = np.asarray([row.stretch for row in report.rows])
        paths[f"{member}:stretching"] = out / f"{member}_stretching.svg"
        emit_chart(
            [(f"x_{a:g} - x_{b:g}", report.times, ss)], paths[f"{member}:stretching"],
            title=f"{member}: level-set separation", x_label="t", y_label="distance",
        )
        series.append((member, report.times, ss))
    if name == "fig2":
        paths["fig2:stretching"] = out / "fig2_stretching.svg"
        emit_chart(
            series, paths["fig2:stretching"],
            title=f"level-set separation x_{a:g} - x_{b:g}", x_label="t", y_label="distance",
            styles=[{}, {"dash": "8,4"}, {"dash": "2,3"}, {"markers": True}],
        )
    return result


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    """17 significant digits; format writes nan and -inf itself, not +inf."""
    return "+inf" if value == math.inf else format(value, ".17g")


def emit_csv(report: DiagnosticsReport, path) -> None:
    """Write the per-snapshot diagnostics table.

    Header: t,m,M, one x_<level> column per report level in ascending order
    (x_0.4,x_0.5,x_0.6 unless the config adds lambdas), then
    stretch_a_b,width,flat_left,flat_right, with one row per snapshot in
    time order. Each level is labelled with its shortest repr, so distinct
    levels never share a label. Level sentinels are written as -inf/+inf;
    undefined diagnostics as nan. Values carry 17 significant digits so
    parsing the file recovers them exactly.
    """
    a, b = report.stretch_pair
    levels = sorted(report.levels)
    header = ",".join([
        "t,m,M", *(f"x_{float(lam)!r}" for lam in levels),
        f"stretch_{a:g}_{b:g},width,flat_left,flat_right",
    ])
    lines = [header]
    for row in report.rows:
        cells = (row.t, row.m, row.M, *(row.levels[lam] for lam in levels),
                 row.stretch, row.width, row.flat_left, row.flat_right)
        lines.append(",".join(map(_fmt, cells)))
    with _io(f"cannot write CSV to {path}"):
        Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> tuple:
    """Read back an emitted CSV; returns (column names, rows of floats)."""
    with _io(f"cannot read CSV {path}"):
        text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationFailed(f"CSV {path} is empty")
    try:
        rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise ValidationFailed(f"malformed CSV {path}: {exc}") from exc
    return lines[0].split(","), rows


# ---------------------------------------------------------------------------
# SVG charts
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#555555", "#9467bd", "#8c564b",
            "#e377c2", "#17becf", "#bcbd22", "#ff7f0e")

_VIEW_W, _VIEW_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 150, 40, 55


def _xml_escape(text: str) -> str:
    """Escape &, < and > for SVG text content; quotes stay as they are."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def emit_chart(series, path, *, title: str = "", x_label: str = "", y_label: str = "",
               styles=None, legend_max: int | None = None) -> int:
    """Render line series into a standalone SVG 1.1 document (800x500 viewbox).

    `series` is a sequence of (name, xs, ys); `styles[i]` may set "dash" (an
    SVG dash array) and "markers" (points, no line). Nonfinite points are
    dropped with a warning count returned; a series left with fewer than two
    points raises EmptySeries. Identical inputs give byte-identical files.
    """
    series = list(series)
    if not series:
        raise EmptySeries("chart needs at least one series")
    cleaned = []
    dropped = 0
    for name, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape:
            raise EmptySeries(f"series {name!r} has mismatched coordinate lengths")
        keep = np.isfinite(xs) & np.isfinite(ys)
        dropped += int(keep.size - keep.sum())
        xs, ys = xs[keep], ys[keep]
        if xs.size < 2:
            raise EmptySeries(f"series {name!r} has fewer than 2 finite points")
        cleaned.append((str(name), xs, ys))

    x_lo = min(float(xs.min()) for _, xs, _ in cleaned)
    x_hi = max(float(xs.max()) for _, xs, _ in cleaned)
    y_lo = min(float(ys.min()) for _, _, ys in cleaned)
    y_hi = max(float(ys.max()) for _, _, ys in cleaned)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y

    plot_w = _VIEW_W - _MARGIN_L - _MARGIN_R
    plot_h = _VIEW_H - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_VIEW_W} {_VIEW_H}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#222222" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_VIEW_W // 2}" y="24" text-anchor="middle" font-size="15">'
            f"{_xml_escape(title)}</text>"
        )
    for tx in _nice_ticks(x_lo, x_hi):
        X = px(tx)
        parts.append(
            f'<line x1="{X:.2f}" y1="{_MARGIN_T + plot_h}" x2="{X:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#222222"/>'
        )
        parts.append(
            f'<text x="{X:.2f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle">'
            f"{tx:g}</text>"
        )
    for ty in _nice_ticks(y_lo, y_hi):
        Y = py(ty)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{Y:.2f}" x2="{_MARGIN_L}" y2="{Y:.2f}" '
            'stroke="#222222"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{Y + 4:.2f}" text-anchor="end">{ty:g}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w // 2}" y="{_VIEW_H - 12}" '
            f'text-anchor="middle">{_xml_escape(x_label)}</text>'
        )
    if y_label:
        mid_y = _MARGIN_T + plot_h // 2
        parts.append(
            f'<text x="18" y="{mid_y}" text-anchor="middle" '
            f'transform="rotate(-90 18 {mid_y})">{_xml_escape(y_label)}</text>'
        )

    # (markers?, colour, dash attribute) per series, for the plot and the legend
    looks = []
    for i in range(len(cleaned)):
        style = dict(styles[i]) if styles is not None and i < len(styles) else {}
        dash = f' stroke-dasharray="{style["dash"]}"' if "dash" in style else ""
        looks.append((style.get("markers"), _PALETTE[i % len(_PALETTE)], dash))

    # px and py map a whole series in one pass, in the same operation order
    # as on a scalar; one `%` then formats all its points
    for (name, xs, ys), (markers, color, dash) in zip(cleaned, looks):
        flat = tuple(np.column_stack((px(xs), py(ys))).ravel().tolist())
        if markers:
            point = f'<circle cx="%.2f" cy="%.2f" r="2.5" fill="{color}"/>'
            parts.append(f"<g>{(point * xs.size) % flat}</g>")
        else:
            coords = " ".join(["%.2f,%.2f"] * xs.size) % flat
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"{dash}/>'
            )

    legend_x = _MARGIN_L + plot_w + 12
    shown = cleaned if legend_max is None else cleaned[:legend_max]
    for i, ((name, _, _), (markers, color, dash)) in enumerate(zip(shown, looks)):
        y0 = _MARGIN_T + 10 + 18 * i
        if markers:
            parts.append(f'<circle cx="{legend_x + 11}" cy="{y0}" r="2.5" fill="{color}"/>')
        else:
            parts.append(
                f'<line x1="{legend_x}" y1="{y0}" x2="{legend_x + 22}" y2="{y0}" '
                f'stroke="{color}" stroke-width="1.5"{dash}/>'
            )
        parts.append(
            f'<text x="{legend_x + 28}" y="{y0 + 4}">{_xml_escape(name)}</text>'
        )
    if legend_max is not None and len(cleaned) > legend_max:
        y0 = _MARGIN_T + 10 + 18 * legend_max
        parts.append(
            f'<text x="{legend_x}" y="{y0 + 4}">(+{len(cleaned) - legend_max} more)</text>'
        )
    parts.append("</svg>")
    with _io(f"cannot write chart to {path}"):
        Path(path).write_text("\n".join(parts) + "\n")
    return dropped


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep_values(text: str, vary: str) -> list:
    """Expand `section.key=v1,v2,...` over a base config document.

    Returns a list of (label, RunConfig). The base document is parsed once;
    each value then replaces the varied key's entry as its whole value text
    (a `#` in it is not a comment) and passes the same readers and
    validation as any config. A label is the key and the value, with `_`
    for the dot and for each path separator. An unknown key raises
    UnknownKey; two values with one label raise ValidationFailed before any
    run: both runs would write one file.
    """
    return _sweep_jobs(text, vary)[1]


def _sweep_jobs(text: str, vary: str) -> tuple:
    if "=" not in vary:
        raise ValidationFailed("--vary expects section.key=v1,v2,...")
    key, _, values = vary.partition("=")
    key = key.strip()
    tokens = [tok.strip() for tok in values.split(",") if tok.strip()]
    if not tokens:
        raise ValidationFailed("--vary needs at least one value")
    labels = [f"{key.replace('.', '_')}_{tok}".replace("/", "_").replace(os.sep, "_")
              for tok in tokens]
    if len(set(labels)) < len(labels):
        raise ValidationFailed(f"--vary values {values.strip()!r} repeat a run label")
    entries = _parse_lines(text)
    if key.lower() not in _KEYS:
        raise UnknownKey(f"--vary names an unknown key {key!r}")
    return _out_dir(entries), [(label, _build_config({**entries, key.lower(): tok})[0])
                               for label, tok in zip(labels, tokens)]


def _sweep_member(label: str, config: RunConfig, out: Path) -> tuple:
    # a member runs as `run_to_files` runs its stem
    traj, *_ = run_to_files(label, config, out, raise_on_breach=False)
    return label, traj.guard_breach_time, len(traj.times)


def run_sweep(text: str, vary: str, out_dir=None, *, workers: int | None = None) -> list:
    """Run a sweep; one CSV and snapshot dump per value.

    Parses `text` once, as `sweep_values` does. The files go to `out_dir`,
    else to the base document's output.dir, else to ".". Any other
    `workers` than None or an integer >= 1 raises ValidationFailed first;
    the labels and every value's RunConfig are checked next, all before the
    directory is made. Returns [(label, guard_breach_time_or_None,
    n_snapshots)] in input order. A member that breaches the guard is not an
    error: its truncated dump and CSV are written and its breach time
    returned. Each member runs through `run_to_files` with its own dump
    writer process, on `_run_many`: in the calling process with one worker,
    else on a pool of spawned processes, at most one per value; `workers`
    defaults to the CPUs this process may use.
    """
    if workers is not None and (type(workers) is not int or workers < 1):  # type() rules out bool
        raise ValidationFailed(f"workers must be an integer >= 1, got {workers!r}")
    base_out, jobs = _sweep_jobs(text, vary)
    out = make_out_dir(out_dir or base_out)
    return _run_many(_sweep_member, [(label, config, out) for label, config in jobs], workers)


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------

def _run_many(fn, jobs: list, workers: int | None = None) -> list:
    """[fn(*job) for job in jobs], in input order. With one worker the jobs
    run in this process, which then imports neither `concurrent.futures` nor
    `multiprocessing`; otherwise on a pool of `spawn`ed processes, at most
    one per job, so `fn` and each job must pickle, and the first exception
    in input order is raised here. `workers` defaults to the CPUs this
    process may use. The caller's list is the order the pool takes the jobs
    in, so a caller lists its longest job first."""
    if workers is None:  # sched_getaffinity is Linux-only
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        return list(pool.map(fn, *zip(*jobs)))
