"""Experiment front end: config documents, figure presets, CSV and SVG
emitters, and concurrent parameter sweeps.

Config documents are flat `section.key = value` lines with `#` comments.
Sections: grid, dispersal, reaction, time, initial, diagnostics, output.
Required keys: dispersal.variant, grid.L, grid.N, time.t_end; everything else
has documented defaults (dt=0.01, guard 1e-4, lambdas 0.4/0.5/0.6, Gaussian
initial data of width 100, logistic reaction).
"""

from __future__ import annotations

import math
import os
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
)
from .diagnostics import DiagnosticsReport, build_report
from .errors import (
    EmptySeries,
    FastFrontsError,
    IoFailure,
    MissingRequired,
    UnknownKey,
    ValidationFailed,
)
from .integrator import (
    GaussianBump,
    Indicator,
    RunConfig,
    TabulatedInitial,
    Trajectory,
    run,
    save_snapshots,
)
from .reaction import KppLogistic

__all__ = [
    "parse_config_text",
    "PRESET_NAMES",
    "preset_config",
    "run_preset",
    "emit_csv",
    "read_csv",
    "emit_chart",
    "sweep_values",
    "run_sweep",
]


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

_SECTIONS = {
    "grid": {"l", "n", "guard"},
    "dispersal": {
        "variant", "alpha", "gamma", "kernel", "kernel_a", "kernel_b",
        "kernel_p", "kernel_file", "kernel_normalize",
    },
    "reaction": {"variant"},
    "time": {"dt", "t_end", "snapshots"},
    "initial": {"kind", "width", "position", "file"},
    "diagnostics": {"lambdas", "stretch", "flat_level", "flat_radius", "seam_margin"},
    "output": {"dir"},
}

_VARIANTS = (
    "fractional_laplacian", "convolution", "standard_laplacian",
    "fast_diffusion", "fractional_fast_diffusion",
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
        if key.count(".") != 1:
            raise UnknownKey(f"line {lineno}: key {key!r} is not of the form section.key")
        section, name = key.lower().split(".")
        if section not in _SECTIONS:
            raise UnknownKey(f"line {lineno}: unknown section {section!r}")
        if name not in _SECTIONS[section]:
            raise UnknownKey(f"line {lineno}: unknown key {name!r} in section {section!r}")
        entries[f"{section}.{name}"] = value
    return entries


def _as_float(entries, key):
    try:
        return float(entries[key])
    except ValueError as exc:
        raise ValidationFailed(f"{key} = {entries[key]!r} is not a number") from exc


def _as_int(entries, key):
    try:
        return int(float(entries[key]))
    except (ValueError, OverflowError) as exc:
        raise ValidationFailed(f"{key} = {entries[key]!r} is not an integer") from exc


def _as_bool(entries, key, default=True):
    if key not in entries:
        return default
    token = entries[key].lower()
    if token in ("true", "yes", "1", "on"):
        return True
    if token in ("false", "no", "0", "off"):
        return False
    raise ValidationFailed(f"{key} = {entries[key]!r} is not a boolean")


def _float_list(entries, key):
    try:
        return tuple(float(tok) for tok in entries[key].split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationFailed(f"{key} = {entries[key]!r} is not a comma-separated list") from exc


def _build_dispersal(entries):
    if "dispersal.variant" not in entries:
        raise MissingRequired("dispersal.variant is required")
    variant = entries["dispersal.variant"].lower()
    if variant not in _VARIANTS:
        raise ValidationFailed(
            f"dispersal.variant {variant!r} is not one of {', '.join(_VARIANTS)}"
        )
    if variant == "standard_laplacian":
        return StandardLaplacian()
    if variant == "fractional_laplacian":
        if "dispersal.alpha" not in entries:
            raise MissingRequired("dispersal.alpha is required for the fractional variant")
        return FractionalLaplacian(_as_float(entries, "dispersal.alpha"))
    if variant == "fast_diffusion":
        if "dispersal.gamma" not in entries:
            raise MissingRequired("dispersal.gamma is required for fast diffusion")
        return FastDiffusion(_as_float(entries, "dispersal.gamma"))
    if variant == "fractional_fast_diffusion":
        for need in ("dispersal.alpha", "dispersal.gamma"):
            if need not in entries:
                raise MissingRequired(f"{need} is required for fractional fast diffusion")
        return FractionalFastDiffusion(
            _as_float(entries, "dispersal.alpha"), _as_float(entries, "dispersal.gamma")
        )
    kind = entries.get("dispersal.kernel", "stretched_exponential").lower()
    normalize = _as_bool(entries, "dispersal.kernel_normalize", True)
    if kind == "stretched_exponential":
        kernel = StretchedExponential(
            a=_as_float(entries, "dispersal.kernel_a") if "dispersal.kernel_a" in entries else 0.5,
            b=_as_float(entries, "dispersal.kernel_b") if "dispersal.kernel_b" in entries else 1.0,
            normalize=normalize,
        )
    elif kind == "algebraic":
        if "dispersal.kernel_p" not in entries:
            raise MissingRequired("dispersal.kernel_p is required for the algebraic kernel")
        kernel = AlgebraicTail(_as_float(entries, "dispersal.kernel_p"), normalize=normalize)
    elif kind == "tabulated":
        if "dispersal.kernel_file" not in entries:
            raise MissingRequired("dispersal.kernel_file is required for a tabulated kernel")
        kernel = load_kernel_table(entries["dispersal.kernel_file"], normalize=normalize)
    else:
        raise ValidationFailed(f"unknown kernel kind {kind!r}")
    return Convolution(kernel)


def _build_initial(entries):
    kind = entries.get("initial.kind", "gaussian").lower()
    if kind == "gaussian":
        width = _as_float(entries, "initial.width") if "initial.width" in entries else 100.0
        return GaussianBump(width)
    if kind == "indicator":
        pos = _as_float(entries, "initial.position") if "initial.position" in entries else 0.0
        return Indicator(pos)
    if kind == "tabulated":
        if "initial.file" not in entries:
            raise MissingRequired("initial.file is required for tabulated initial data")
        try:
            data = np.loadtxt(entries["initial.file"], dtype=float, ndmin=2)
        except OSError as exc:
            raise IoFailure(f"cannot read initial data: {exc}") from exc
        except ValueError as exc:
            raise ValidationFailed(f"malformed initial data: {exc}") from exc
        return TabulatedInitial.from_array(data[:, -1])
    raise ValidationFailed(f"unknown initial kind {kind!r}")


def parse_config_text(text: str) -> tuple:
    """Parse a config document; returns (RunConfig, extras dict).

    Extras currently carry output.dir when present. Raises UnknownKey,
    MissingRequired, or ValidationFailed.
    """
    entries = _parse_lines(text)
    for need in ("grid.l", "grid.n", "time.t_end"):
        if need not in entries:
            raise MissingRequired(f"{need.replace('.l', '.L').replace('.n', '.N')} is required")
    dispersal = _build_dispersal(entries)
    reaction_kind = entries.get("reaction.variant", "kpp_logistic").lower()
    if reaction_kind == "kpp_logistic":
        reaction = KppLogistic()
    elif reaction_kind == "none":
        reaction = None
    else:
        raise ValidationFailed(
            f"reaction.variant {reaction_kind!r} must be kpp_logistic or none"
        )
    snapshots = None
    if "time.snapshots" in entries and entries["time.snapshots"].lower() != "auto":
        snapshots = _float_list(entries, "time.snapshots")
    kwargs = dict(
        L=_as_float(entries, "grid.l"),
        N=_as_int(entries, "grid.n"),
        dispersal=dispersal,
        t_end=_as_float(entries, "time.t_end"),
        reaction=reaction,
        dt=_as_float(entries, "time.dt") if "time.dt" in entries else 0.01,
        snapshot_times=snapshots,
        initial=_build_initial(entries),
    )
    if "grid.guard" in entries:
        kwargs["guard_threshold"] = _as_float(entries, "grid.guard")
    if "diagnostics.lambdas" in entries:
        kwargs["lambdas"] = _float_list(entries, "diagnostics.lambdas")
    if "diagnostics.stretch" in entries:
        pair = _float_list(entries, "diagnostics.stretch")
        if len(pair) != 2:
            raise ValidationFailed("diagnostics.stretch needs exactly two levels")
        kwargs["stretch_pair"] = pair
    if "diagnostics.flat_level" in entries:
        kwargs["flat_level"] = _as_float(entries, "diagnostics.flat_level")
    if "diagnostics.flat_radius" in entries:
        kwargs["flat_radius"] = _as_float(entries, "diagnostics.flat_radius")
    if "diagnostics.seam_margin" in entries:
        kwargs["seam_margin_frac"] = _as_float(entries, "diagnostics.seam_margin")
    try:
        config = RunConfig(**kwargs)
    except FastFrontsError:
        raise
    except Exception as exc:  # defensive: dataclass construction surprises
        raise ValidationFailed(str(exc)) from exc
    extras = {}
    if "output.dir" in entries:
        extras["out_dir"] = entries["output.dir"]
    return config, extras


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

PRESET_NAMES = ("fig1a", "fig1b", "fig1c", "fig1d", "fig2")

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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory {out}: {exc}") from exc
    return out


def write_run_files(stem: str, traj: Trajectory, report: DiagnosticsReport, out: Path) -> tuple:
    """Write `<stem>_snapshots.txt` and `<stem>_diagnostics.csv` into `out`;
    returns their paths. Every verb names a run's files here."""
    snap_path = out / f"{stem}_snapshots.txt"
    save_snapshots(traj, snap_path)
    csv_path = out / f"{stem}_diagnostics.csv"
    emit_csv(report, csv_path)
    return snap_path, csv_path


def _bundle(name: str, traj: Trajectory, report: DiagnosticsReport, out: Path) -> dict:
    paths = {}
    paths["snapshots"], paths["csv"] = write_run_files(name, traj, report, out)
    grid = traj.grid
    profiles = []
    for t, fld in traj.snapshots():
        xs, ys = _downsample(grid.x, fld.values)
        profiles.append((f"t={t:g}", xs, ys))
    prof_path = out / f"{name}_profiles.svg"
    emit_chart(
        profiles, prof_path,
        title=f"{name}: density profiles", x_label="x", y_label="u",
        legend_max=6,
    )
    paths["profiles"] = prof_path
    a, b = report.stretch_pair
    ts = report.times
    ss = np.asarray([row.stretch for row in report.rows])
    stretch_path = out / f"{name}_stretching.svg"
    emit_chart(
        [(f"x_{a:g} - x_{b:g}", ts, ss)], stretch_path,
        title=f"{name}: level-set separation", x_label="t", y_label="distance",
    )
    paths["stretching"] = stretch_path
    return paths


def run_preset(name: str, out_dir, *, raise_on_breach: bool = True) -> dict:
    """Run a figure preset and write its output bundle.

    Each single-operator preset emits a snapshot dump, the diagnostics CSV,
    a profile chart, and a level-separation chart. fig2 runs all four
    operators and adds the combined separation chart. Returns a dict with
    trajectories, reports, and written paths.
    """
    if name not in PRESET_NAMES:
        raise UnknownKey(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    out = make_out_dir(out_dir)
    result = {"paths": {}, "trajectories": {}, "reports": {}}
    members = ("fig1a", "fig1b", "fig1c", "fig1d") if name == "fig2" else (name,)
    series = []
    for member in members:
        config = preset_config(member)
        traj = run(config, raise_on_breach=raise_on_breach)
        report = build_report(traj)
        result["trajectories"][member] = traj
        result["reports"][member] = report
        result["paths"].update(
            {f"{member}:{k}": v for k, v in _bundle(member, traj, report, out).items()}
        )
        ss = np.asarray([row.stretch for row in report.rows])
        series.append((member, report.times, ss))
    if name == "fig2":
        combined = out / "fig2_stretching.svg"
        emit_chart(
            series, combined,
            title="level-set separation x_0.4 - x_0.6", x_label="t", y_label="distance",
            styles=[{}, {"dash": "8,4"}, {"dash": "2,3"}, {"markers": True}],
        )
        result["paths"]["fig2:stretching"] = combined
    return result


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "+inf" if value > 0 else "-inf"
    return format(value, ".17g")


def emit_csv(report: DiagnosticsReport, path) -> None:
    """Write the per-snapshot diagnostics table.

    Header: t,m,M,x_0.4,x_0.5,x_0.6,stretch_a_b,width,flat_left,flat_right
    with one row per snapshot in time order. Level sentinels are written as
    -inf/+inf; undefined diagnostics as nan. Values carry 17 significant
    digits so parsing the file recovers them exactly.
    """
    a, b = report.stretch_pair
    header = (
        f"t,m,M,x_0.4,x_0.5,x_0.6,stretch_{a:g}_{b:g},width,flat_left,flat_right"
    )
    lines = [header]
    for row in report.rows:
        cells = [
            _fmt(row.t), _fmt(row.m), _fmt(row.M),
            _fmt(row.levels[0.4]), _fmt(row.levels[0.5]), _fmt(row.levels[0.6]),
            _fmt(row.stretch), _fmt(row.width),
            _fmt(row.flat_left), _fmt(row.flat_right),
        ]
        lines.append(",".join(cells))
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path) -> tuple:
    """Read back an emitted CSV; returns (column names, rows of floats)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read CSV {path}: {exc}") from exc
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

    `series` is a sequence of (name, xs, ys). Nonfinite points are dropped
    with a warning count returned; a series left with fewer than two points
    raises EmptySeries. Identical inputs produce byte-identical files.
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
        color = style.get("color", _PALETTE[i % len(_PALETTE)])
        looks.append((style.get("markers"), color, dash))

    for (name, xs, ys), (markers, color, dash) in zip(cleaned, looks):
        if markers:
            pts = "".join(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>'
                for x, y in zip(xs, ys)
            )
            parts.append(f"<g>{pts}</g>")
        else:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
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
    try:
        Path(path).write_text("\n".join(parts) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write chart to {path}: {exc}") from exc
    return dropped


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep_values(text: str, vary: str) -> list:
    """Expand `section.key=v1,v2,...` over a base config document.

    Returns a list of (label, RunConfig); the varied key is injected into the
    document before parsing so it passes the same validation as any config.
    """
    if "=" not in vary:
        raise ValidationFailed("--vary expects section.key=v1,v2,...")
    key, _, values = vary.partition("=")
    key = key.strip()
    tokens = [tok.strip() for tok in values.split(",") if tok.strip()]
    if not tokens:
        raise ValidationFailed("--vary needs at least one value")
    jobs = []
    for tok in tokens:
        doc = text + f"\n{key} = {tok}\n"
        config, _ = parse_config_text(doc)
        jobs.append((f"{key.replace('.', '_')}_{tok}", config))
    return jobs


def _sweep_worker(args):
    label, config, out_dir = args
    traj = run(config)
    write_run_files(label, traj, build_report(traj), Path(out_dir))
    return label, traj.guard_breach_time, len(traj.times)


def run_sweep(text: str, vary: str, out_dir, *, workers: int | None = None) -> list:
    """Run a sweep concurrently; one CSV and snapshot dump per value.

    Returns [(label, guard_breach_time_or_None, n_snapshots)] in input order.
    """
    jobs = sweep_values(text, vary)
    out = make_out_dir(out_dir)
    args = [(label, config, str(out)) for label, config in jobs]
    if workers is None:
        workers = min(len(args), os.cpu_count() or 1)
    if workers <= 1 or len(args) == 1:
        return [_sweep_worker(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_worker, args))
