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
import numbers
from dataclasses import dataclass, field as dc_field
from typing import Optional, Union

import numpy as np

from .dispersal import (
    EPS_REG,
    DispersalSpec,
    FastDiffusion,
    FractionalFastDiffusion,
    NewtonWork,
    build_symbol,
    check_step,
    fast_diffusion_step,
    fractional_fast_diffusion_step,
    _lapack,
    _pocketfft,
)
from .errors import GuardBreached, ValidationFailed
from .grid import Field, Grid
from .reaction import (
    KppLogistic,
    ReactionSpec,
    logistic_exact_step,
    rk4_reaction_step,
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
]

# Relative slack used when deciding whether a residual step is a genuine step
# or floating-point dust from the segment arithmetic.
_TIME_DUST = 1e-9
# Largest snapshot schedule, in the bytes its snapshots take: a Trajectory
# keeps count * N float64 samples in memory, 8 * count * N bytes.
MAX_SNAPSHOT_BYTES = 2**34


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianBump:
    """u0(x) = exp(-x^2 / width); width 100 matches the figure presets."""

    width: float = 100.0

    def __post_init__(self):
        if not 0 < self.width < math.inf:
            raise ValidationFailed(f"gaussian width must be finite and > 0, got {self.width!r}")

    def check(self, grid: Grid) -> None:
        """Fits every grid."""

    def build(self, grid: Grid) -> np.ndarray:
        """exp(-x^2 / width); an x^2 that overflows gives exp(-inf) = 0, the
        exact limit, and leaves every finite sample as it is."""
        with np.errstate(over="ignore"):
            return np.exp(-grid.x**2 / self.width)


@dataclass(frozen=True)
class Indicator:
    """u0 = 1 where x < position, 0 elsewhere; the position must be finite."""

    position: float = 0.0

    def __post_init__(self):
        if not abs(self.position) < math.inf:
            raise ValidationFailed(f"indicator position must be finite, got {self.position!r}")

    def check(self, grid: Grid) -> None:
        """Fits every grid."""

    def build(self, grid: Grid) -> np.ndarray:
        return (grid.x < self.position).astype(float)


@dataclass(frozen=True)
class TabulatedInitial:
    """Explicit per-node samples, stored as a tuple of floats so configs stay
    hashable and picklable. ValidationFailed unless they are a nonempty 1D
    sequence of numbers in [0, 1]; a NaN fails."""

    values: tuple = dc_field(repr=False)

    def __post_init__(self):
        try:
            vals = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationFailed(f"tabulated initial samples must be numbers: {exc}") from exc
        # min and max propagate NaN, so NaN and +-inf samples fail the test too
        if vals.ndim != 1 or vals.size == 0 or not (vals.min() >= 0.0 and vals.max() <= 1.0):
            raise ValidationFailed("tabulated initial samples must be a 1D sequence in [0, 1]")
        object.__setattr__(self, "values", tuple(vals.tolist()))

    def __repr__(self) -> str:
        return f"TabulatedInitial(<{len(self.values)} samples>)"

    def check(self, grid: Grid) -> None:
        """ValidationFailed unless there is one sample per node of grid."""
        if len(self.values) != grid.n:
            raise ValidationFailed(
                f"tabulated initial condition has {len(self.values)} samples, grid has {grid.n}"
            )

    def build(self, grid: Grid) -> np.ndarray:
        self.check(grid)
        return np.asarray(self.values, dtype=float)


# Each spec's check(grid) raises ValidationFailed where build(grid) would,
# without making the samples; RunConfig runs it, and march builds them.
InitialSpec = Union[GaussianBump, Indicator, TabulatedInitial]


def build_initial(spec: InitialSpec, grid: Grid) -> Field:
    """The spec's samples on grid; every spec's values lie in [0, 1]."""
    return Field(grid, spec.build(grid))


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

# RunConfig's scalar fields that must be real numbers (the node count N is
# the grid's own gate)
_REAL_FIELDS = ("L", "t_end", "dt", "guard_threshold", "eps_reg", "seam_margin_frac",
                "flat_level", "flat_radius")


def _real(name: str, value) -> float:
    """value as a Python float; ValidationFailed unless it is a real number
    (a numpy scalar is one)."""
    if not isinstance(value, numbers.Real):
        raise ValidationFailed(f"{name} must be a real number, got {value!r}")
    return float(value)


def _reals(name: str, values) -> tuple:
    """values as a tuple of Python floats; ValidationFailed unless it is a
    sequence of real numbers."""
    try:
        return tuple(_real(f"each of {name}", value) for value in values)
    except TypeError:
        raise ValidationFailed(f"{name} must be a sequence of numbers, got {values!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one experiment. Construction runs every static
    gate of a run and keeps the run's grid, which `grid()` returns. The
    operator's gates on that grid are the dispersal spec's own: the last
    gate runs `dispersal.check(grid, dt, eps_reg)`, whose docstring on each
    spec states what it rejects. A reaction spec gates dt the same way,
    through `reaction.check(dt)`: the logistic's half step e^(dt/2), a
    custom term's sampled contract. A t_end of more than 2**53 steps of dt
    raises ValidationFailed, and so does a snapshot schedule whose
    snapshots would take more than MAX_SNAPSHOT_BYTES (16 GiB), counted
    without listing the schedule.

    snapshot_times=None records integer times 0, 1, ..., plus t_end when it is
    not an integer; given times must be nonempty. guard_threshold is the
    density level watched near the domain edges; seam_margin_frac sets the
    front-mode observation window as a fraction of the half-length.
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
        # every gate below, and every spec's check, reads Python floats: a
        # numpy scalar would overflow with a warning where a float gives inf
        for name in _REAL_FIELDS:
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        for name in ("lambdas", "stretch_pair"):
            object.__setattr__(self, name, _reals(name, getattr(self, name)))
        if not isinstance(self.dispersal, DispersalSpec):
            raise ValidationFailed(f"dispersal {self.dispersal!r} is not a fastfronts spec")
        if not isinstance(self.reaction, Optional[ReactionSpec]):
            raise ValidationFailed(f"reaction {self.reaction!r} is not a fastfronts spec")
        if not isinstance(self.initial, InitialSpec):
            raise ValidationFailed(f"initial {self.initial!r} is not a fastfronts spec")
        if not 0 < self.dt < math.inf:
            raise ValidationFailed(f"dt must be finite and > 0, got {self.dt!r}")
        if not 0 <= self.t_end < math.inf:
            raise ValidationFailed(f"t_end must be finite and >= 0, got {self.t_end!r}")
        # past 2**53 steps, float64 no longer counts them one by one
        if self.t_end / self.dt > 2**53:
            raise ValidationFailed(
                f"t_end={self.t_end!r} takes more than 2**53 steps of dt={self.dt!r}"
            )
        if not 0 < self.eps_reg < math.inf:
            raise ValidationFailed(f"eps_reg must be finite and > 0, got {self.eps_reg!r}")
        if not 0.0 < self.flat_level < 1.0:
            raise ValidationFailed(f"flat level must lie in (0, 1), got {self.flat_level!r}")
        if not 0 <= self.flat_radius < math.inf:
            raise ValidationFailed(
                f"flat radius must be finite and >= 0, got {self.flat_radius!r}"
            )
        pair = self.stretch_pair
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
            times = _reals("snapshot_times", self.snapshot_times)
            if not times:
                raise ValidationFailed("snapshot times must not be empty")
            # written so that a NaN time fails the test too
            if not all(0 <= t <= self.t_end for t in times):
                raise ValidationFailed("snapshot times must lie in [0, t_end]")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValidationFailed("snapshot times must be strictly increasing")
            object.__setattr__(self, "snapshot_times", times)
        object.__setattr__(self, "_grid", Grid(self.L, self.N))
        # the default schedule's length, 0, 1, ..., floor(t_end) and t_end
        count = (len(self.snapshot_times) if self.snapshot_times is not None
                 else math.floor(self.t_end) + 1 + (self.t_end % 1 > 0))
        size = 8 * count * self._grid.n
        if size > MAX_SNAPSHOT_BYTES:
            raise ValidationFailed(
                f"{count} snapshots of {self._grid.n} nodes would take {size} bytes, "
                f"above the bound of {MAX_SNAPSHOT_BYTES}"
            )
        self.initial.check(self._grid)
        if self.reaction is not None:
            self.reaction.check(self.dt)
        # the operator's gates on the grid, before a run makes any file
        self.dispersal.check(self._grid, self.dt, self.eps_reg)

    def grid(self) -> Grid:
        return self._grid

    def resolved_snapshots(self) -> tuple:
        """The snapshot times, listed here for a schedule that construction
        has counted and bounded."""
        if self.snapshot_times is not None:
            return self.snapshot_times
        whole = [float(t) for t in range(int(math.floor(self.t_end)) + 1)]
        if not whole or whole[-1] < self.t_end:
            whole.append(self.t_end)
        return tuple(whole)


# ---------------------------------------------------------------------------
# dispersal substep dispatcher
# ---------------------------------------------------------------------------

class DispersalStepper:
    """Per-run dispersal substep. The constructor is the one place that tells
    the operator families apart: FastDiffusion binds the Newton step and
    FractionalFastDiffusion the sub-cycled step, each looked up in this module
    at call time, and any other spec goes to build_symbol (NonlinearVariant if
    it has no symbol). Linear operators keep exp(m dt) for the last dt only,
    recomputed when dt changes: a run takes its fixed step throughout, and a
    landing step comes only from a snapshot time off the dt grid. They reuse
    one buffer for the real-transform bins. FastDiffusion allocates one
    dispersal.NewtonWork and passes it to every step, so its Newton iterates
    allocate nothing, and loads scipy's LAPACK wrapper (dispersal._lapack,
    not the scipy.linalg package) here. The linear operators and
    FractionalFastDiffusion load scipy's pocketfft extension
    (dispersal._pocketfft, not the scipy.fft package) here, so no step
    imports anything.

    A linear step is one r2c into the bin buffer, the product with
    exp(m dt), and one c2r with the 1/n scaling into `out`: bitwise
    np.fft.rfft and irfft(n=n), with the plans built once per process
    rather than at every call.
    """

    def __init__(self, spec: DispersalSpec, grid: Grid, eps_reg: float = EPS_REG):
        self.grid = grid
        # multipliers on the real-transform bins 0..n/2; None for the fast diffusions
        self.m: Optional[np.ndarray] = None
        if isinstance(spec, FastDiffusion):
            # the Newton solves need scipy's LAPACK wrapper: load it here,
            # as set-up, not inside the first step
            _lapack()
            work = NewtonWork(grid.n)
            self._nonlinear = lambda values, dt: fast_diffusion_step(
                values, spec.gamma, dt, grid, eps_reg=eps_reg, work=work)
        elif isinstance(spec, FractionalFastDiffusion):
            _pocketfft()
            self._nonlinear = lambda values, dt: fractional_fast_diffusion_step(
                values, spec.alpha, spec.gamma, dt, grid, eps_reg=eps_reg)
        else:
            self._fft = _pocketfft()
            self.m = build_symbol(spec, grid)
            self._bins = np.empty(self.m.size, dtype=complex)
            self._dt, self._factor = None, None

    def step_values(self, values: np.ndarray, dt: float, out=None) -> np.ndarray:
        """Advance `values` by dt; never changes `values` unless it is `out`.

        Linear operators read `values` as float64 (a list or an integer
        array too), write the result into `out` when given (a float64 array
        of n samples; it may be `values` itself) and otherwise return a new
        array; the fast diffusions always return a new array.
        dispersal.check_step gates every operator: ParameterOutOfRange
        unless dt is finite and > 0, LengthMismatch unless `values` holds
        one sample per node.
        """
        check_step(values, self.grid, dt)
        if self.m is None:
            return self._nonlinear(values, dt)
        if dt != self._dt:
            self._dt, self._factor = dt, np.exp(self.m * dt)
        bins = self._fft.r2c(np.asarray(values, dtype=np.float64), None, True, 0, self._bins, 1)
        bins *= self._factor
        return self._fft.c2r(bins, None, self.grid.n, False, 2, out, 1)


def _reaction_update(
    values: np.ndarray, spec: Optional[ReactionSpec], dt: float, out
) -> np.ndarray:
    if spec is None:
        return values
    if isinstance(spec, KppLogistic):
        return logistic_exact_step(values, dt, out=out)
    return rk4_reaction_step(values, spec.f, dt)


def strang_step(
    values: np.ndarray,
    stepper: DispersalStepper,
    reaction: Optional[ReactionSpec],
    dt: float,
    out=None,
) -> tuple:
    """R(dt/2) o D(dt) o R(dt/2), unclamped; returns (new values, pre-clamp overshoot).

    Without `out` the result is a new array and `values` is left unchanged.
    With `out` (which may be `values` itself) the logistic and linear
    substeps write into it; the RK4 and fast-diffusion substeps return a new
    state array (the Newton step's work arrays belong to the stepper), so
    callers must use the returned array, not `out`. dispersal.check_step
    (0 < dt < inf, one sample per node) runs before any substep writes;
    a step that leaves a NaN or an infinite value raises ValidationFailed.
    """
    check_step(values, stepper.grid, dt)
    half = 0.5 * dt
    v = _reaction_update(values, reaction, half, out)
    v = stepper.step_values(v, dt, out=out)
    v = _reaction_update(v, reaction, half, out)
    hi, lo = float(v.max()), float(v.min())
    # max and min propagate NaN, and hi - lo is finite only when both are
    if not math.isfinite(hi - lo):
        raise ValidationFailed(f"step of dt={dt:g} left a non-finite range [{lo:g}, {hi:g}]")
    return v, max(hi - 1.0, -lo, 0.0)


# ---------------------------------------------------------------------------
# trajectories and the boundary guard
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Trajectory:
    """Timestamped snapshots of one run plus guard and clamp bookkeeping;
    `window` is the guard's observation window (every node unless front mode)."""

    config: RunConfig
    times: list
    fields: list
    guard_breach_time: Optional[float] = None
    max_overshoot: float = 0.0
    window: slice = dc_field(default_factory=lambda: slice(None))

    @property
    def grid(self) -> Grid:
        return self.fields[0].grid

    @property
    def breached(self) -> bool:
        return self.guard_breach_time is not None

    def snapshots(self):
        return zip(self.times, self.fields)

    def field_at(self, t: float) -> Field:
        """The snapshot at time t, to 1e-12 relative; ValidationFailed if none is."""
        for tk, fk in zip(self.times, self.fields):
            if abs(tk - t) <= 1e-12 * max(1.0, abs(t)):
                return fk
        raise ValidationFailed(f"no snapshot at t={t!r}")

    def __repr__(self) -> str:
        guard = "clean" if not self.breached else f"breached at t={self.guard_breach_time:g}"
        return (
            f"Trajectory({len(self.times)} snapshots on {self.grid!r}, "
            f"guard {guard}, max overshoot {self.max_overshoot:.2e})"
        )


class _Guard:
    """Watches density near the domain (or window) edge after every step;
    `bands` holds the watched node slices, the right-hand band last."""

    def __init__(self, config: RunConfig, grid: Grid, u0: np.ndarray):
        self.threshold = config.guard_threshold
        n = grid.n
        band = max(1, n // 100)
        if np.all(np.diff(u0) <= 0.0) and u0[0] > u0[-1]:  # front-like data
            margin_nodes = int(round(config.seam_margin_frac * (n // 2)))
            self.window = slice(margin_nodes, n - margin_nodes)
            hi = max(band + 1, n - margin_nodes)
            self.bands = (slice(hi - band, hi),)
        else:
            self.window = slice(None)
            self.bands = (slice(0, band), slice(n - band, n))

    def breached(self, values: np.ndarray) -> bool:
        return any(float(values[s].max()) > self.threshold for s in self.bands)


def _segment_steps(span: float, dt: float) -> tuple:
    """(count, last): `count` steps cover `span`, each of length dt except
    the last, of length `last`, which is dt or a shortened landing step."""
    n_full = int(math.floor(span / dt + _TIME_DUST))
    residual = span - n_full * dt
    if residual > _TIME_DUST * max(dt, 1.0):
        return n_full + 1, residual
    return n_full, dt


def march(config: RunConfig) -> tuple:
    """Set up `config` and return (stepper, u0, steps), the one march loop.

    `steps` yields (t, u, overshoot, landed) for the initial state and after
    every step up to t_end, where `landed` is the snapshot time reached or
    None. Fixed dt steps and one shortened landing step cover each segment
    between snapshot times (and on to t_end, landing on no snapshot), so
    restarting from a snapshot replays the identical step sequence. u is
    advanced in place where the substeps allow (logistic and linear
    dispersal), so a consumer copies what it keeps. The march knows no guard.
    `stepper` is the run's DispersalStepper, on the run's grid `stepper.grid`.
    """
    u0 = build_initial(config.initial, config.grid()).values.copy()
    stepper = DispersalStepper(config.dispersal, config.grid(), eps_reg=config.eps_reg)
    snaps = config.resolved_snapshots()

    def steps(u):
        yield 0.0, u, 0.0, 0.0 if snaps[:1] == (0.0,) else None
        t_prev = 0.0
        for target, label in [*zip(snaps, snaps), (config.t_end, None)]:
            if target <= t_prev:
                continue
            count, last = _segment_steps(target - t_prev, config.dt)
            if not count:
                yield t_prev, u, 0.0, label
            t_local = 0.0
            for k in range(1, count + 1):
                dt_step = last if k == count else config.dt
                u, over = strang_step(u, stepper, config.reaction, dt_step, out=u)
                # over == 0 puts every value in [0, 1] already (a non-finite
                # step raised), so the clamp would change no bit
                if over > 0:
                    np.clip(u, 0.0, 1.0, out=u)
                t_local += dt_step
                yield t_prev + t_local, u, over, label if k == count else None
            t_prev = target

    return stepper, u0, steps(u0)


def run(config: RunConfig, *, raise_on_breach: bool = False, on_snapshot=None) -> Trajectory:
    """March the Cauchy problem from 0 to t_end, recording requested snapshots.

    The guard is evaluated on the initial data and after every step, also
    past the last snapshot time; on a breach the march stops, the current
    state is appended as a final snapshot, and the trajectory reports the
    breach time (or GuardBreached is raised when raise_on_breach is set). Identical configs produce
    bitwise-identical trajectories on one platform. `on_snapshot(t, values)`,
    if given, is called with each snapshot's array as soon as it is
    recorded (the breach snapshot too), while the march goes on; it must not
    modify the array. The experiment's dump writers are such callbacks; one
    that raises (a failed write) stops the march.
    """
    stepper, u0, steps = march(config)
    guard = _Guard(config, stepper.grid, u0)
    traj = Trajectory(config, [], [], window=guard.window)
    for t, u, over, landed in steps:
        traj.max_overshoot = max(traj.max_overshoot, over)
        if guard.breached(u):
            traj.guard_breach_time = landed = t
        if landed is not None:
            traj.times.append(landed)
            traj.fields.append(Field(stepper.grid, u.copy()))
            if on_snapshot is not None:
                on_snapshot(landed, traj.fields[-1].values)
        if traj.breached:
            break
    if traj.breached and raise_on_breach:
        raise GuardBreached(traj.guard_breach_time)
    return traj

