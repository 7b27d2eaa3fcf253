"""Scalar observables of a snapshot or a trajectory: range bounds, level
positions, stretching between levels, interface width, windowed flatness,
and fitted front speeds.

Essential inf/sup over half-lines are realized as running extrema over grid
nodes, with linear interpolation between the straddling node pair for
sub-grid positions. The level position x_lambda is the discrete analog of

    inf { x : sup over (x, +inf) of u < lambda }

scanned from the right end, so for bump-like data it tracks the right-moving
interface. It is +inf when lambda <= min(u) and -inf when lambda > max(u).
Each scan runs on a node slice `window`; build_report passes the window the
run's guard chose, which leaves out the seam zone of front-like data.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    InfinitePosition,
    InsufficientPoints,
    LambdaOutOfRange,
    ThresholdsNotSpanned,
    ValidationFailed,
    WindowOutOfDomain,
)
from .grid import Field

__all__ = [
    "range_bounds",
    "level_position",
    "stretching",
    "interface_width",
    "flatness",
    "LevelTrace",
    "speed_fit",
    "SnapshotDiagnostics",
    "DiagnosticsReport",
    "build_report",
]


# default occupancy levels bounding the interface width
_WIDTH_HI, _WIDTH_LO = 2.0 / 3.0, 1.0 / 3.0


def range_bounds(field: Field) -> tuple:
    """(min, max) over the nodes; discrete stand-ins for ess inf / ess sup."""
    vals = field.values
    return float(vals.min()), float(vals.max())


def _windowed(field: Field, window: slice) -> tuple:
    """(values, positions) of the nodes in `window`; fewer than two raise."""
    vals = field.values[window]
    if vals.size < 2:
        raise WindowOutOfDomain(f"window {window!r} holds {vals.size} nodes; need >= 2")
    return vals, field.grid.x[window]


def _falling_crossing(xs: np.ndarray, profile: np.ndarray, level: float) -> float:
    """Interpolated abscissa where a nonincreasing profile drops below level.

    The rightmost straddling pair is used; the caller guarantees the profile
    starts at or above level and ends below it.
    """
    above = np.nonzero(profile >= level)[0]
    i = above[-1]
    if i == len(profile) - 1:
        return float(xs[i])
    p0, p1 = profile[i], profile[i + 1]
    frac = (p0 - level) / (p0 - p1)
    return float(xs[i] + frac * (xs[i + 1] - xs[i]))


def _suffix_max(vals: np.ndarray) -> np.ndarray:
    """Running maximum from the right: entry i is max(vals[i:])."""
    return np.maximum.accumulate(vals[::-1])[::-1]


def _position(xs: np.ndarray, rmax: np.ndarray, lam: float) -> float:
    """x_lam from the running maximum from the right of the scanned values."""
    if lam <= rmax[-1]:
        return float("inf")
    if lam > rmax[0]:
        return float("-inf")
    return _falling_crossing(xs, rmax, lam)


def level_position(field: Field, lam: float, *, window: slice = slice(None)) -> float:
    """Rightmost position where the running maximum from the right crosses lam.

    Returns +inf when lam <= u at the scan's right end (so when lam <= min(u))
    and -inf when lam > max(u). Only the nodes in the slice `window` are
    scanned; a window of fewer than two nodes raises WindowOutOfDomain.
    """
    if not (0.0 < lam < 1.0):
        raise LambdaOutOfRange(f"level must lie in (0, 1), got {lam!r}")
    vals, xs = _windowed(field, window)
    if lam <= vals[-1]:
        return float("inf")
    return _position(xs, _suffix_max(vals), lam)


def stretching(field: Field, a: float, b: float, *, window: slice = slice(None)) -> float:
    """Distance x_a - x_b between a lower and a higher level, a < b.

    Nonnegative up to one interpolation cell for profiles monotone from the
    right; its growth in time is the stretching signature of accelerating
    fronts. Raises InfinitePosition when either position is a sentinel.
    """
    if not (0.0 < a < b < 1.0):
        raise LambdaOutOfRange(f"need 0 < a < b < 1, got a={a!r}, b={b!r}")
    xa = level_position(field, a, window=window)
    xb = level_position(field, b, window=window)
    if not (np.isfinite(xa) and np.isfinite(xb)):
        raise InfinitePosition(f"x_{a:g}={xa!r}, x_{b:g}={xb!r}")
    return xa - xb


def interface_width(
    field: Field,
    *,
    hi: float = _WIDTH_HI,
    lo: float = _WIDTH_LO,
    window: slice = slice(None),
) -> float:
    """Width of the transition zone between the hi and lo occupancy levels.

    The left edge is where the running minimum (taken rightward from the
    profile's peak) falls below hi; the right edge is where the running
    maximum from the right falls below lo. Starting the minimum scan at the
    peak makes the same definition cover both monotone fronts (peak at the
    left end) and bump-shaped profiles, where it measures the right-moving
    interface. Only the nodes in `window` are scanned. Raises
    LambdaOutOfRange unless 0 < lo < hi < 1 and ThresholdsNotSpanned when
    the profile does not reach both levels; the result is clipped at 0
    against interpolation slack.
    """
    if not (0.0 < lo < hi < 1.0):
        raise LambdaOutOfRange(f"need 0 < lo < hi < 1, got lo={lo!r}, hi={hi!r}")
    vals, xs = _windowed(field, window)
    return _width(vals, xs, _suffix_max(vals), hi, lo)


def _width(vals: np.ndarray, xs: np.ndarray, rmax: np.ndarray, hi: float, lo: float) -> float:
    """interface_width on scanned values whose running maximum from the right
    is `rmax`; its tail from the peak is the tail's own running maximum."""
    if float(vals.max()) < hi or float(vals.min()) > lo:
        raise ThresholdsNotSpanned(
            f"field range [{vals.min():g}, {vals.max():g}] does not span [{lo:g}, {hi:g}]"
        )
    i0 = int(np.argmax(vals))
    tail_x = xs[i0:]
    run_min = np.minimum.accumulate(vals[i0:])
    run_max = rmax[i0:]
    if run_min[-1] >= hi or run_max[-1] >= lo:
        raise ThresholdsNotSpanned(
            "profile right of its peak does not descend through both thresholds"
        )
    xi_minus = _falling_crossing(tail_x, run_min, hi)
    xi_plus = _falling_crossing(tail_x, run_max, lo)
    return max(xi_plus - xi_minus, 0.0)


def flatness(field: Field, lam: float, radius: float, *, window: slice = slice(None)) -> tuple:
    """Deviation from lam over windows of the given radius beside x_lambda.

    Returns (left_dev, right_dev): the largest |u - lam| over nodes in
    [x_lam - radius, x_lam] and [x_lam, x_lam + radius], where x_lam is
    scanned on `window`. Raises ValidationFailed unless the radius is finite
    and >= 0, InfinitePosition for sentinel positions and WindowOutOfDomain
    when a radius window extends past the grid.
    """
    if not 0 <= radius < np.inf:
        raise ValidationFailed(f"flatness radius must be finite and >= 0, got {radius!r}")
    return _deviations(field, lam, radius, level_position(field, lam, window=window))


def _deviations(field: Field, lam: float, radius: float, pos: float) -> tuple:
    """flatness beside the level position `pos` already found for lam."""
    if not np.isfinite(pos):
        raise InfinitePosition(f"x_{lam:g} = {pos!r}")
    xs = field.grid.x
    if pos - radius < xs[0] or pos + radius > xs[-1]:
        raise WindowOutOfDomain(
            f"window [{pos - radius:g}, {pos + radius:g}] exceeds [{xs[0]:g}, {xs[-1]:g}]"
        )
    vals = field.values
    left = (xs >= pos - radius) & (xs <= pos)
    right = (xs >= pos) & (xs <= pos + radius)
    left_dev = float(np.max(np.abs(vals[left] - lam))) if left.any() else 0.0
    right_dev = float(np.max(np.abs(vals[right] - lam))) if right.any() else 0.0
    return left_dev, right_dev


# ---------------------------------------------------------------------------
# time series
# ---------------------------------------------------------------------------

@dataclass
class LevelTrace:
    """Time series of one level position; sentinels +-inf are kept in place."""

    lam: float
    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        if self.times.shape != self.positions.shape:
            raise LambdaOutOfRange("trace times and positions must align")
        if np.any(np.diff(self.times) <= 0):
            raise InsufficientPoints("trace times must be strictly increasing")


def speed_fit(trace: LevelTrace, t_min: float, t_max: float) -> float:
    """Least-squares slope of position vs time over [t_min, t_max].

    Sentinel (infinite) positions are excluded; at least three finite points
    are required.
    """
    mask = (trace.times >= t_min) & (trace.times <= t_max) & np.isfinite(trace.positions)
    if int(mask.sum()) < 3:
        raise InsufficientPoints(
            f"{int(mask.sum())} finite points in [{t_min:g}, {t_max:g}]; need >= 3"
        )
    t = trace.times[mask]
    x = trace.positions[mask]
    tc = t - t.mean()
    return float(np.dot(tc, x) / np.dot(tc, tc))


# ---------------------------------------------------------------------------
# per-trajectory report
# ---------------------------------------------------------------------------

_CANONICAL_LEVELS = (0.4, 0.5, 0.6)


@dataclass
class SnapshotDiagnostics:
    t: float
    m: float
    M: float
    levels: dict
    stretch: float
    width: float
    flat_left: float
    flat_right: float


@dataclass
class DiagnosticsReport:
    """Per-snapshot observables plus level traces and fitted speeds;
    `levels` are the tracked levels in ascending order, the keys of every
    row's `levels`."""

    rows: list = dc_field(default_factory=list)
    traces: dict = dc_field(default_factory=dict)
    speeds: dict = dc_field(default_factory=dict)
    stretch_pair: tuple = (0.4, 0.6)
    levels: tuple = _CANONICAL_LEVELS

    @property
    def times(self) -> np.ndarray:
        return np.asarray([r.t for r in self.rows])


def build_report(traj) -> DiagnosticsReport:
    """Evaluate the full diagnostic set on every snapshot of a trajectory.

    Levels are 0.4/0.5/0.6 plus the run's config.lambdas; every other
    setting comes from the run's config, and every scan runs on the
    trajectory's window (`traj.window`). Quantities that are undefined on a
    given snapshot (sentinel positions, thresholds not spanned, windows
    leaving the domain) are recorded as nan rather than aborting the report.
    Each snapshot takes one running maximum, shared by every level position
    (the stretch pair's and the flatness level's too) and the interface
    width, so each row equals the standalone functions bitwise.
    """
    cfg = traj.config
    levels = tuple(sorted(set(_CANONICAL_LEVELS).union(cfg.lambdas)))
    pair = tuple(cfg.stretch_pair)
    scanned = set(levels).union(pair, (cfg.flat_level,))

    report = DiagnosticsReport(stretch_pair=pair, levels=levels)
    positions = {lam: [] for lam in levels}
    for t, fld in traj.snapshots():
        lo, hi = range_bounds(fld)
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValidationFailed(f"snapshot at t={t:g} left [0, 1]: range [{lo:g}, {hi:g}]")
        vals, xs = _windowed(fld, traj.window)
        rmax = _suffix_max(vals)
        at = {lam: _position(xs, rmax, lam) for lam in scanned}
        row_levels = {lam: at[lam] for lam in levels}
        for lam in levels:
            positions[lam].append(at[lam])
        xa, xb = at[pair[0]], at[pair[1]]
        s = xa - xb if np.isfinite(xa) and np.isfinite(xb) else float("nan")
        try:
            w = _width(vals, xs, rmax, _WIDTH_HI, _WIDTH_LO)
        except ThresholdsNotSpanned:
            w = float("nan")
        try:
            fl, fr = _deviations(fld, cfg.flat_level, cfg.flat_radius, at[cfg.flat_level])
        except (InfinitePosition, WindowOutOfDomain):
            fl, fr = float("nan"), float("nan")
        report.rows.append(
            SnapshotDiagnostics(t, lo, hi, row_levels, s, w, fl, fr)
        )

    times = [t for t, _ in traj.snapshots()]
    for lam in levels:
        if len(times) >= 2:
            report.traces[lam] = LevelTrace(lam, times, positions[lam])
    if len(times) >= 3:
        # trailing quarter, widened so it always holds >= 4 snapshot times
        start = min(0.75 * times[-1], times[max(0, len(times) - 4)])
        for lam, trace in report.traces.items():
            try:
                report.speeds[lam] = speed_fit(trace, start, times[-1])
            except InsufficientPoints:
                pass
    return report
