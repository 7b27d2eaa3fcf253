"""Strang-split time stepping, snapshot scheduling, range clamping, and the
boundary guard that polices the periodic truncation of the line.

One full step advances the solution by dt as R(dt/2) o D(dt) o R(dt/2):
reaction substeps wrap a dispersal substep. The reaction substep is the exact
logistic flow (or an RK4 update for custom terms); the dispersal substep is
the exact transform-space semigroup for linear operators and the implicit or
sub-cycled schemes for the fast diffusions. The result of each full step is
clamped to [0, 1]; the largest pre-clamp overshoot is tracked per run.

Because the box is periodic, any front-like (nonincreasing) initial profile
carries a hidden jump across the seam at +-L, which the dispersal immediately
turns into a spurious invading front near the right edge. Runs with such data
therefore keep a seam margin: observables are meaningful on the window
[-L + margin, L - margin] and the guard watches the window edge instead of
the outermost nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Union

import numpy as np

from .dispersal import (
    EPS_REG,
    DispersalSpec,
    FastDiffusion,
    LINEAR_VARIANTS,
    Symbol,
    build_symbol,
    fast_diffusion_step,
    fractional_fast_diffusion_step,
)
from .errors import GuardBreached, IoFailure, ParameterOutOfRange, ValidationFailed
from .grid import Field, Grid, make_grid
from .reaction import (
    KppLogistic,
    ReactionSpec,
    logistic_exact_step,
    rk4_reaction_step,
    validate_reaction,
)

__all__ = [
    "GaussianBump",
    "Indicator",
    "TabulatedInitial",
    "InitialSpec",
    "build_initial",
    "RunConfig",
    "Trajectory",
    "DispersalStepper",
    "strang_step",
    "run",
    "save_snapshots",
]

# Relative slack used when deciding whether a residual step is a genuine step
# or floating-point dust from the segment arithmetic.
_TIME_DUST = 1e-9


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianBump:
    """u0(x) = exp(-x^2 / width); width 100 matches the figure presets."""

    width: float = 100.0

    def __post_init__(self):
        if not self.width > 0:
            raise ValidationFailed(f"gaussian width must be > 0, got {self.width!r}")

    def build(self, grid: Grid) -> np.ndarray:
        return np.exp(-grid.x**2 / self.width)


@dataclass(frozen=True)
class Indicator:
    """u0 = 1 where x < position, 0 elsewhere."""

    position: float = 0.0

    def build(self, grid: Grid) -> np.ndarray:
        return (grid.x < self.position).astype(float)


@dataclass(frozen=True)
class TabulatedInitial:
    """Explicit per-node samples (tuple so configs stay hashable/picklable)."""

    values: tuple = dc_field(repr=False)

    def __repr__(self) -> str:
        return f"TabulatedInitial(<{len(self.values)} samples>)"

    @classmethod
    def from_array(cls, values) -> "TabulatedInitial":
        return cls(tuple(np.asarray(values, dtype=float).tolist()))

    def build(self, grid: Grid) -> np.ndarray:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (grid.n,):
            raise ValidationFailed(
                f"tabulated initial condition has {vals.size} samples, grid has {grid.n}"
            )
        return vals


InitialSpec = Union[GaussianBump, Indicator, TabulatedInitial]


def build_initial(spec: InitialSpec, grid: Grid) -> Field:
    vals = spec.build(grid)
    if np.any(vals < 0.0) or np.any(vals > 1.0):
        raise ValidationFailed("initial condition must take values in [0, 1]")
    return Field(grid, vals)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Complete description of one experiment.

    snapshot_times=None records integer times 0, 1, ..., plus t_end when it is
    not an integer. guard_threshold is the density level watched near the
    domain edges; seam_margin_frac sets the front-mode observation window as a
    fraction of the half-length.
    """

    L: float
    N: int
    dispersal: DispersalSpec
    t_end: float
    reaction: Optional[ReactionSpec] = KppLogistic()
    dt: float = 0.01
    snapshot_times: Optional[tuple] = None
    initial: InitialSpec = GaussianBump()
    guard_threshold: float = 1e-4
    lambdas: tuple = (0.4, 0.5, 0.6)
    eps_reg: float = EPS_REG
    seam_margin_frac: float = 0.25
    stretch_pair: tuple = (0.4, 0.6)
    flat_level: float = 0.5
    flat_radius: float = 5.0

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValidationFailed(f"dt must be finite and > 0, got {self.dt!r}")
        if not 0 <= self.t_end < math.inf:
            raise ValidationFailed(f"t_end must be finite and >= 0, got {self.t_end!r}")
        if not 0 < self.eps_reg < math.inf:
            raise ValidationFailed(f"eps_reg must be finite and > 0, got {self.eps_reg!r}")
        if not self.flat_radius >= 0:
            raise ValidationFailed(f"flat radius must be >= 0, got {self.flat_radius!r}")
        pair = tuple(self.stretch_pair)
        if not (len(pair) == 2 and 0 < pair[0] < pair[1] < 1):
            raise ValidationFailed(f"stretch pair must satisfy 0 < a < b < 1, got {pair!r}")
        if not (0.0 < self.guard_threshold < 0.5):
            raise ValidationFailed(
                f"guard threshold must lie in (0, 0.5), got {self.guard_threshold!r}"
            )
        if not (0.0 < self.seam_margin_frac < 1.0):
            raise ValidationFailed("seam margin fraction must lie in (0, 1)")
        for lam in self.lambdas:
            if not (0.0 < lam < 1.0):
                raise ValidationFailed(f"diagnostic level {lam!r} not in (0, 1)")
        if self.snapshot_times is not None:
            times = tuple(float(t) for t in self.snapshot_times)
            if any(t < 0 or t > self.t_end for t in times):
                raise ValidationFailed("snapshot times must lie in [0, t_end]")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValidationFailed("snapshot times must be strictly increasing")
            object.__setattr__(self, "snapshot_times", times)

    def grid(self) -> Grid:
        return make_grid(self.L, self.N)

    def resolved_snapshots(self) -> tuple:
        if self.snapshot_times is not None:
            return self.snapshot_times
        whole = [float(t) for t in range(int(math.floor(self.t_end)) + 1)]
        if not whole or whole[-1] < self.t_end:
            whole.append(float(self.t_end))
        return tuple(whole)


# ---------------------------------------------------------------------------
# dispersal substep dispatcher
# ---------------------------------------------------------------------------

class DispersalStepper:
    """Per-run dispersal substep with cached transform-space factors.

    Linear operators get their semigroup factor exp(m dt) cached per distinct
    dt (the fixed step plus the occasional shortened landing step).
    """

    def __init__(self, spec: DispersalSpec, grid: Grid, eps_reg: float = EPS_REG):
        self.spec = spec
        self.grid = grid
        self.eps_reg = eps_reg
        self.symbol: Optional[Symbol] = None
        self._factors: dict = {}
        if isinstance(spec, LINEAR_VARIANTS):
            self.symbol = build_symbol(spec, grid)

    def step_values(self, values: np.ndarray, dt: float) -> np.ndarray:
        if self.symbol is not None:
            factor = self._factors.get(dt)
            if factor is None:
                factor = np.exp(self.symbol.m_half * dt)
                self._factors[dt] = factor
            return np.fft.irfft(np.fft.rfft(values) * factor)
        spec = self.spec
        if isinstance(spec, FastDiffusion):
            out = fast_diffusion_step(
                Field(self.grid, values), spec.gamma, dt, self.grid, eps_reg=self.eps_reg
            )
            return out.values
        out = fractional_fast_diffusion_step(
            Field(self.grid, values), spec.alpha, spec.gamma, dt, self.grid,
            eps_reg=self.eps_reg,
        )
        return out.values


def _reaction_update(values: np.ndarray, spec: Optional[ReactionSpec], dt: float) -> np.ndarray:
    if spec is None:
        return values
    if isinstance(spec, KppLogistic):
        return logistic_exact_step(values, dt)
    return rk4_reaction_step(values, spec.f, dt)


def strang_step(
    values: np.ndarray, stepper: DispersalStepper, reaction: Optional[ReactionSpec], dt: float
) -> tuple:
    """R(dt/2) o D(dt) o R(dt/2), unclamped; returns (new values, pre-clamp overshoot)."""
    if not dt > 0:
        raise ParameterOutOfRange(f"strang step needs dt > 0, got {dt!r}")
    half = 0.5 * dt
    v = _reaction_update(values, reaction, half)
    v = stepper.step_values(v, dt)
    v = _reaction_update(v, reaction, half)
    overshoot = max(float(np.max(v)) - 1.0, -float(np.min(v)), 0.0)
    return v, overshoot


# ---------------------------------------------------------------------------
# trajectories and the boundary guard
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Trajectory:
    """Timestamped snapshots of one run plus guard and clamp bookkeeping."""

    config: RunConfig
    times: list
    fields: list
    guard_breach_time: Optional[float] = None
    max_overshoot: float = 0.0
    guard_mode: str = "both_ends"

    @property
    def grid(self) -> Grid:
        return self.fields[0].grid if self.fields else self.config.grid()

    @property
    def breached(self) -> bool:
        return self.guard_breach_time is not None

    def snapshots(self):
        return zip(self.times, self.fields)

    def field_at(self, t: float) -> Field:
        for tk, fk in zip(self.times, self.fields):
            if abs(tk - t) <= 1e-12 * max(1.0, abs(t)):
                return fk
        raise KeyError(f"no snapshot at t={t!r}")

    def __repr__(self) -> str:
        guard = "clean" if not self.breached else f"breached at t={self.guard_breach_time:g}"
        return (
            f"Trajectory({len(self.times)} snapshots on {self.grid!r}, "
            f"guard {guard}, max overshoot {self.max_overshoot:.2e})"
        )


class _Guard:
    """Watches density near the domain (or window) edge after every step."""

    def __init__(self, config: RunConfig, grid: Grid, u0: np.ndarray):
        self.threshold = config.guard_threshold
        n = grid.n
        band = max(1, n // 100)
        diffs = np.diff(u0)
        front_like = bool(np.all(diffs <= 0.0) and u0[0] > u0[-1])
        if front_like:
            self.mode = "front"
            margin_nodes = int(round(config.seam_margin_frac * (n // 2)))
            hi = max(band + 1, n - margin_nodes)
            self._slices = (slice(hi - band, hi),)
        else:
            self.mode = "both_ends"
            self._slices = (slice(0, band), slice(n - band, n))

    def breached(self, values: np.ndarray) -> bool:
        return any(float(values[s].max()) > self.threshold for s in self._slices)


def _segment_steps(span: float, dt: float):
    """Step sizes covering `span`: full dt steps plus one shortened landing step."""
    n_full = int(math.floor(span / dt + _TIME_DUST))
    residual = span - n_full * dt
    steps = [dt] * n_full
    if residual > _TIME_DUST * max(dt, 1.0):
        steps.append(residual)
    return steps


def run(config: RunConfig, *, raise_on_breach: bool = False) -> Trajectory:
    """March the Cauchy problem from 0 to t_end, recording requested snapshots.

    Each segment between snapshot times is covered by fixed dt steps with one
    shortened step to land exactly on the target, so restarting from a
    snapshot replays the identical step sequence. The guard is evaluated
    after every step; on a breach the march stops, the current state is
    appended as a final snapshot, and the trajectory reports the breach time
    (or GuardBreached is raised when raise_on_breach is set). Identical
    configs produce bitwise-identical trajectories on one platform.
    """
    if config.reaction is not None:
        validate_reaction(config.reaction)
    grid = config.grid()
    u = build_initial(config.initial, grid).values.copy()
    stepper = DispersalStepper(config.dispersal, grid, eps_reg=config.eps_reg)
    guard = _Guard(config, grid, u)
    snaps = config.resolved_snapshots()

    traj = Trajectory(config, [], [], guard_mode=guard.mode)
    breach_time = None
    max_overshoot = 0.0

    if guard.breached(u):
        breach_time = 0.0
    if snaps and snaps[0] == 0.0:
        traj.times.append(0.0)
        traj.fields.append(Field(grid, u.copy()))

    if breach_time is None:
        t_prev = 0.0
        for target in snaps:
            if target <= 0.0:
                continue
            t_local = 0.0
            for dt_step in _segment_steps(target - t_prev, config.dt):
                u, over = strang_step(u, stepper, config.reaction, dt_step)
                np.clip(u, 0.0, 1.0, out=u)
                t_local += dt_step
                max_overshoot = max(max_overshoot, over)
                if guard.breached(u):
                    breach_time = t_prev + t_local
                    break
            if breach_time is not None:
                traj.times.append(breach_time)
                traj.fields.append(Field(grid, u.copy()))
                break
            traj.times.append(target)
            traj.fields.append(Field(grid, u.copy()))
            t_prev = target

    traj.max_overshoot = max_overshoot
    traj.guard_breach_time = breach_time
    if breach_time is not None and raise_on_breach:
        raise GuardBreached(breach_time)
    return traj


def save_snapshots(traj: Trajectory, path) -> None:
    """Dump a trajectory: `# t=<value>` header then one `x u` line per node."""
    grid = traj.grid
    try:
        with open(path, "w") as fh:
            for t, fld in traj.snapshots():
                fh.write(f"# t={t:.17g}\n")
                for xv, uv in zip(grid.x, fld.values):
                    fh.write(f"{xv:.17g} {uv:.17g}\n")
    except OSError as exc:
        raise IoFailure(f"cannot write snapshots to {path}: {exc}") from exc
