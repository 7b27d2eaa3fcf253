"""Local reaction terms and their substep integrators.

The canonical term is the logistic f(u) = u(1-u), whose flow has a closed
form and is used exactly. Arbitrary monostable terms (f(0)=f(1)=0, f>0 in
between, f'(0)>0) are accepted as black-box callables, validated by dense
sampling, and integrated pointwise with one classical RK4 update per substep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (DegenerateAtZero, EndpointNotZero, NotMonostable, ParameterOutOfRange,
                     ValidationFailed)

__all__ = [
    "KppLogistic",
    "CustomMonostable",
    "ReactionSpec",
    "validate_reaction",
    "logistic_exact_step",
    "rk4_reaction_step",
]


# np.exp(dt) is finite up to log(largest float) and overflows at the next float
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class KppLogistic:
    """The logistic reaction u(1-u); its flow is applied in closed form."""

    def f(self, u):
        return u * (1.0 - u)

    def check(self, dt: float) -> None:
        """ValidationFailed when a Strang half step's e^(dt/2) is above
        1/e of the largest float: below that, a state as large as 2 in
        magnitude (a post-dispersal overshoot above 1) keeps u e^(dt/2) and
        the flow's denominator finite."""
        if 0.5 * dt > _LOG_MAX - 1.0:
            raise ValidationFailed(f"the logistic half step's e^(dt/2) at dt={dt!r} leaves no "
                                   f"headroom; dt must be at most {2.0 * (_LOG_MAX - 1.0)!r}")


@dataclass(frozen=True)
class CustomMonostable:
    """User-supplied scalar reaction term on [0, 1]."""

    f: Callable

    def check(self, dt: float) -> None:
        """validate_reaction's sampled contract; the RK4 update takes any dt."""
        validate_reaction(self)


ReactionSpec = Union[KppLogistic, CustomMonostable]

_ENDPOINT_TOL = 1e-12
_INTERIOR_SAMPLES = np.arange(1, 100) / 100.0
_SLOPE_STEP = 1e-6


def validate_reaction(spec: ReactionSpec) -> ReactionSpec:
    """Check the monostability contract by dense sampling.

    Requires f(0) = f(1) = 0 within 1e-12, f > 0 at u = 0.01, ..., 0.99, and a
    positive forward-difference slope at 0. Returns the spec unchanged when it
    passes; raises EndpointNotZero, NotMonostable, or DegenerateAtZero. Each
    test states what passes, so a NaN value fails it.
    """
    f = spec.f
    f0, f1 = float(f(0.0)), float(f(1.0))
    if not (abs(f0) <= _ENDPOINT_TOL and abs(f1) <= _ENDPOINT_TOL):
        raise EndpointNotZero(f"f(0)={f0:g}, f(1)={f1:g}; both must vanish")
    interior = np.asarray([float(f(u)) for u in _INTERIOR_SAMPLES])
    if not np.all(interior > 0.0):
        # argmin finds the first NaN, else the smallest value
        bad = np.argmin(interior)
        raise NotMonostable(f"f({_INTERIOR_SAMPLES[bad]:g}) = {interior[bad]:g} is not positive")
    slope = (float(f(_SLOPE_STEP)) - f0) / _SLOPE_STEP
    if not slope > 0.0:
        raise DegenerateAtZero(f"forward-difference f'(0) = {slope:g} is not positive")
    return spec


def logistic_exact_step(u, dt: float, out=None):
    """Exact logistic flow u -> u e^dt / (1 - u + u e^dt), applied pointwise.

    Fixed points 0 and 1 are preserved and the map is increasing in u, so
    values stay in [0, 1] for dt >= 0. Accepts scalars or arrays. Without
    `out` a new value is returned and `u` is left unchanged; with `out` (an
    array, which may be `u` itself) the result is written there. Both forms
    use one scratch array and the order (u*e) / ((1-u) + u*e), so they agree
    bitwise. A dt whose e^dt overflows (dt above log of the largest float,
    709.78...) raises ParameterOutOfRange, tested on the scalar before any
    array work.
    """
    if dt > _LOG_MAX:
        raise ParameterOutOfRange(f"logistic step e^dt overflows at dt={dt!r} > {_LOG_MAX!r}")
    e = np.exp(dt)
    den = np.subtract(1.0, u)
    out = np.multiply(u, e, out=out)
    den += out
    out /= den
    return out


def rk4_reaction_step(values, f, dt: float):
    """One classical 4th-order update of u_t = f(u) per node (not clamped)."""
    k1 = f(values)
    k2 = f(values + 0.5 * dt * k1)
    k3 = f(values + 0.5 * dt * k2)
    k4 = f(values + dt * k3)
    return values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
