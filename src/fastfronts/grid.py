"""Periodic spatial mesh and sampled fields.

The computational domain is the periodic box [-L, L) with N equispaced nodes,
N a power of two. Spectral quantities live on the N/2 + 1 bins of the real
transform (numpy's rfft): bin k, 0 <= k <= N/2, has the continuous frequency
xi_k = pi * k / L, so xi_0 = 0 and the last bin is Nyquist. The dispersal
symbols are built on these frequencies.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonPositiveLength, NotPowerOfTwo, ValidationFailed

__all__ = ["Grid", "Field", "make_grid"]

# Largest node count: the grid's two arrays (x, xi) then take 12 GiB in all.
MAX_NODES = 2**30


class Grid:
    """Uniform periodic mesh on [-L, L) with a power-of-two node count.

    The node count, 8 <= n <= 2**30, and the half-length, finite and > 0
    with a spacing dx and a largest frequency pi*(n/2)/L that are finite
    normal floats, are checked before anything is allocated.

    Attributes:
        L: half-length of the box (the domain is [-L, L)).
        n: number of nodes.
        dx: node spacing 2L/n.
        x: node coordinates, x[i] = -L + i*dx.
        xi: continuous frequency pi*k/L of real-transform bin k, 0 <= k <= n/2.
    """

    __slots__ = ("L", "n", "dx", "x", "xi")

    def __init__(self, L: float, n: int):
        if not (isinstance(n, (int, np.integer)) and n >= 8 and (n & (n - 1)) == 0):
            raise NotPowerOfTwo(f"n_points must be a power of two >= 8, got {n!r}")
        if n > MAX_NODES:
            raise ValidationFailed(f"n_points must be at most 2**30, got {n!r}")
        n, L = int(n), float(L)
        if not 0.0 < L < math.inf:
            raise NonPositiveLength(f"half_length must be finite and > 0, got {L!r}")
        dx, top = 2.0 * L / n, math.pi * (n // 2) / L
        # x is built from dx and xi from pi k / L: a subnormal or infinite
        # step (2L overflowing, or L near 0) leaves them inf or NaN
        if not all(sys.float_info.min <= v < math.inf for v in (dx, top)):
            raise ValidationFailed(
                f"half_length {L!r} on {n} nodes gives dx={dx!r} and a largest frequency "
                f"pi*(n/2)/L={top!r}; both must be finite normal floats"
            )
        self.L, self.n, self.dx = L, n, dx
        x = -L + self.dx * np.arange(n)
        xi = np.pi * np.arange(n // 2 + 1.0) / L
        for arr in (x, xi):
            arr.setflags(write=False)
        self.x = x
        self.xi = xi

    def __repr__(self) -> str:
        return f"Grid(L={self.L:g}, n={self.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and self.n == other.n and self.L == other.L

    def __hash__(self) -> int:
        return hash((self.L, self.n))

    def __reduce__(self):
        return Grid, (self.L, self.n)


def make_grid(L: float, N: int) -> Grid:
    """Build the periodic grid on [-L, L) with N nodes.

    Raises NotPowerOfTwo, ValidationFailed (N > 2**30, or a spacing 2L/N or
    largest frequency pi*(N/2)/L that is not a finite normal float) or
    NonPositiveLength on bad parameters.
    """
    return Grid(L, N)


@dataclass(eq=False)
class Field:
    """Solution samples on a grid. Values live in [0, 1] after each clamp pass."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n,):
            raise LengthMismatch(
                f"field has {vals.shape} values for a grid of {self.grid.n} nodes"
            )
        self.values = vals

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        return cls(grid, np.asarray(fn(grid.x), dtype=np.float64))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.n, float(value)))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())
