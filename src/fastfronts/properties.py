"""Executable checks of the solver's structural behavior: ordered data stay
ordered, nonincreasing data stay nonincreasing, nontrivial data spread over
linearly growing regions, and linear dispersal alone conserves the mean.

The continuum equations satisfy all four properties exactly; on the grid
each becomes a runnable check with a fixed gate (1e-9, or for spreading a
0.9 target within 1e-3), and a scheme that fails one cannot be trusted to
reproduce front behavior. Each check owns its runs and is reproducible: the
same inputs give bitwise-identical verdicts on one platform.

The whole-line checks evolve through `_evolve`: a run that the boundary
guard stops ends in GuardBreached, never in a verdict. The mass check
marches to t_end whatever the guard sees and measures every step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DomainTooSmall, NonlinearVariant, PreconditionViolated, ZeroInitialCondition
from .grid import Field
from .integrator import RunConfig, TabulatedInitial, Trajectory, _Guard, march, run

__all__ = [
    "PropertyVerdict",
    "check_comparison",
    "check_monotone_preservation",
    "check_spreading",
    "check_mass_neutral",
    "verdict_report",
    "ordered_gaussian_pair",
    "smoothed_step",
]

# comparison, monotonicity and mass hold exactly, so only roundoff may break them
_TOLERANCE = 1e-9
# the spreading window's minimum must reach the target by t_end, within its slack
_SPREADING_TARGET = 0.9
_SPREADING_TOLERANCE = 1e-3


@dataclass
class PropertyVerdict:
    """Outcome of one check: worst violation, where it happened, and the gate."""

    name: str
    passed: bool
    violation: float
    tolerance: float
    worst_time: Optional[float] = None
    worst_position: Optional[float] = None
    detail: str = ""

    def line(self) -> str:
        word = "pass" if self.passed else "fail"
        return f"{self.name} {word} {self.violation:.6e} {self.tolerance:.6e}"


def verdict_report(verdicts) -> str:
    """One line per check: `name pass|fail violation tolerance`."""
    return "\n".join(v.line() for v in verdicts) + "\n"


def _evolve(config: RunConfig, values: np.ndarray) -> Trajectory:
    """Run `config` from `values`; a run the guard stops raises GuardBreached."""
    return run(replace(config, initial=TabulatedInitial(values)), raise_on_breach=True)


def _require_run_grid(config: RunConfig, *fields: Field) -> None:
    """The checks read windows and positions off the data's grid, so it must
    be the grid the run steps on."""
    grid = config.grid()
    for fld in fields:
        if fld.grid != grid:
            raise PreconditionViolated(f"initial data on {fld.grid!r}, but the run is on {grid!r}")


def _worst(name: str, excesses) -> PropertyVerdict:
    """Verdict on the largest positive excess over (t, xs, excess) triples,
    where xs holds the positions of the excess entries; the first maximum wins."""
    worst = 0.0
    w_time = w_pos = None
    for t, xs, excess in excesses:
        if excess.size == 0:
            continue
        i = int(np.argmax(excess))
        if excess[i] > worst:
            worst = float(excess[i])
            w_time, w_pos = t, float(xs[i])
    return PropertyVerdict(name, worst <= _TOLERANCE, worst, _TOLERANCE, w_time, w_pos)


def ordered_gaussian_pair(grid, rng: np.random.Generator) -> tuple:
    """Random smooth pair (u0, v0) with 0 <= u0 <= v0 <= 1 componentwise.

    v0 = u0 + bump * (1 - u0) keeps the pair ordered and inside [0, 1] while
    staying smooth, so single steps resolve it on any reasonable grid. Bump
    centers sit within the middle quarter of the box.
    """
    span = grid.L / 8.0
    width = float(rng.uniform(30.0, 150.0))
    center = float(rng.uniform(-span, span))
    amp = float(rng.uniform(0.2, 0.8))
    u0 = amp * np.exp(-((grid.x - center) ** 2) / width)
    width2 = float(rng.uniform(30.0, 150.0))
    center2 = float(rng.uniform(-span, span))
    lift = float(rng.uniform(0.1, 0.8))
    v0 = u0 + lift * np.exp(-((grid.x - center2) ** 2) / width2) * (1.0 - u0)
    return Field(grid, u0), Field(grid, v0)


def smoothed_step(grid) -> Field:
    """Nonincreasing logistic-in-x profile 1 / (1 + exp(x))."""
    z = grid.x
    vals = np.empty_like(z)
    pos = z >= 0
    vals[pos] = np.exp(-z[pos]) / (1.0 + np.exp(-z[pos]))
    vals[~pos] = 1.0 / (1.0 + np.exp(z[~pos]))
    return Field(grid, vals)


def check_comparison(u0: Field, v0: Field, config: RunConfig) -> PropertyVerdict:
    """Ordered initial data must stay ordered: u(t) <= v(t) for all snapshots.

    Both fields are evolved under the same config; the violation is the worst
    of max(u - v) over every snapshot and node. Both must lie on
    config.grid() (PreconditionViolated otherwise).
    """
    _require_run_grid(config, u0, v0)
    a, b = u0.values, v0.values
    if not (np.all(a >= 0.0) and np.all(a <= b) and np.all(b <= 1.0)):
        raise PreconditionViolated("need 0 <= u0 <= v0 <= 1 componentwise")
    tu, tv = _evolve(config, a), _evolve(config, b)
    x = tu.grid.x
    pairs = zip(tu.snapshots(), tv.snapshots())
    gaps = ((t, x, fu.values - fv.values) for (t, fu), (_, fv) in pairs)
    return _worst("comparison", gaps)


def check_monotone_preservation(u0: Field, config: RunConfig) -> PropertyVerdict:
    """Nonincreasing data must stay nonincreasing on the observation window.

    The violation is the largest positive forward difference u[i+1] - u[i]
    over all snapshots. The periodic seam (and, for nonlocal operators, the
    zone its spurious wrap front contaminates) is excluded via the run's
    seam-margin window; the wrap pair itself never enters the differences.
    u0 must lie on config.grid() (PreconditionViolated otherwise).

    Grid condition: the seam jump rings at the Nyquist mode, m_Nyquist =
    -(pi N / (2 L))^2 for the classical operator, and the 1e-9 gate holds
    only where that ringing is damped at every snapshot after t = 0. Two
    terms add up (measured with L=100 and `smoothed_step`): the jump's own
    tail, damped by exp(m_Nyquist t) over the run (5.1e-7 at N=512, t=0.1
    from the linear flow alone), and the kinks that the clamp and the
    reaction put at the seam every step, damped by one step's
    exp(m_Nyquist dt) only: about 0.014/N * dt * exp(m_Nyquist dt) (1.0e-8
    at N=1024, dt=0.01). A coarse grid needs more nodes, a larger dt or a
    later first snapshot; README.md has the measured table.
    """
    _require_run_grid(config, u0)
    vals = u0.values
    if np.any(np.diff(vals) > 0.0):
        raise PreconditionViolated("initial data must be nonincreasing componentwise")
    traj = _evolve(config, vals)
    x = traj.grid.x[traj.window]
    slopes = ((t, x, np.diff(fld.values[traj.window])) for t, fld in traj.snapshots())
    return _worst("monotone_preservation", slopes)


def check_spreading(u0: Field, config: RunConfig, c: float) -> PropertyVerdict:
    """The solution must fill (0, c * t_end) up to the level 0.9 by t_end.

    The window (0, c*t_end) is fixed; its minimum on the final snapshot must
    reach 0.9 and the sequence of window minima over snapshots must be
    nondecreasing, both up to 1e-3 (the density in the window only builds
    up). Distinguishes accelerating dispersal from finite-speed classical
    diffusion, which fails for c above its front speed. A window reaching the
    guard's right-hand band raises DomainTooSmall, and u0 off config.grid()
    raises PreconditionViolated.
    """
    _require_run_grid(config, u0)
    vals = u0.values
    if not np.any(vals > 0.0):
        raise ZeroInitialCondition("spreading check needs u0 not identically 0")
    if not c > 0:
        raise PreconditionViolated(f"speed must be positive, got {c!r}")
    grid_x = u0.grid.x
    band_start = grid_x[_Guard(config, u0.grid, vals).bands[-1].start]
    if c * config.t_end >= band_start:
        raise DomainTooSmall(
            f"window (0, {c * config.t_end:g}) overlaps the guard band from x={band_start:g}"
        )
    traj = _evolve(config, vals)
    mask = (grid_x > 0.0) & (grid_x < c * config.t_end)
    if not mask.any():
        raise DomainTooSmall("the window (0, c*t_end) contains no nodes")
    minima = [(t, float(fld.values[mask].min())) for t, fld in traj.snapshots()]
    final_min = minima[-1][1]
    backslide = 0.0
    for (_, lo0), (_, lo1) in zip(minima, minima[1:]):
        backslide = max(backslide, lo0 - lo1)
    violation = max(_SPREADING_TARGET - final_min, backslide, 0.0)
    detail = f"final_min={final_min:.6g} target={_SPREADING_TARGET:g} backslide={backslide:.3g}"
    return PropertyVerdict(
        "spreading", violation <= _SPREADING_TOLERANCE, violation, _SPREADING_TOLERANCE,
        minima[-1][0], None, detail,
    )


def check_mass_neutral(config: RunConfig) -> PropertyVerdict:
    """With reaction off, linear dispersal must conserve the mean.

    The drift from the initial mean is taken on the initial state and after
    every step up to t_end, timed by the snapshot label where a step lands on
    one. The guard does not stop this run, since truncating the line leaves
    the mass balance on the periodic box intact. A run whose stepper holds no
    symbol (a fast diffusion) raises NonlinearVariant before the first step.
    """
    stepper, u0, steps = march(replace(config, reaction=None))
    if stepper.m is None:
        raise NonlinearVariant(f"{type(config.dispersal).__name__} has no transform-space symbol")
    mean0 = float(u0.mean())
    drifts = ((t if at is None else at, abs(float(u.mean()) - mean0)) for t, u, _, at in steps)
    w_time, worst = max(drifts, key=lambda drift: drift[1], default=(0.0, 0.0))
    return PropertyVerdict(
        "mass_neutrality", worst <= _TOLERANCE, worst, _TOLERANCE, w_time, None
    )
