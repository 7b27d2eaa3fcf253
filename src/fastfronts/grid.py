"""Periodic spatial mesh and sampled fields.

The computational domain is the periodic box [-L, L) with N equispaced nodes,
N a power of two. Each FFT bin carries the signed integer frequency index in
(-N/2, N/2] (Nyquist carried with positive sign), so the continuous frequency
of bin k is xi_k = pi * k / L and xi_0 = 0; the dispersal symbols are built
on these frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonPositiveLength, NotPowerOfTwo, ValidationFailed

__all__ = ["Grid", "Field", "make_grid"]

# Largest node count: each of the grid's three arrays then takes 8 GiB.
MAX_NODES = 2**30


class Grid:
    """Uniform periodic mesh on [-L, L) with a power-of-two node count.

    The node count is checked, 8 <= n <= 2**30, before anything is allocated.

    Attributes:
        L: half-length of the box (the domain is [-L, L)).
        n: number of nodes.
        dx: node spacing 2L/n.
        x: node coordinates, x[i] = -L + i*dx.
        freq_index: signed integer frequency per FFT bin, in (-n/2, n/2].
        xi: continuous frequency per FFT bin, pi*freq_index/L.
    """

    __slots__ = ("L", "n", "dx", "x", "freq_index", "xi")

    def __init__(self, L: float, n: int):
        if not (isinstance(n, (int, np.integer)) and n >= 8 and (n & (n - 1)) == 0):
            raise NotPowerOfTwo(f"n_points must be a power of two >= 8, got {n!r}")
        if n > MAX_NODES:
            raise ValidationFailed(f"n_points must be at most 2**30, got {n!r}")
        L = float(L)
        if not 0.0 < L < math.inf:
            raise NonPositiveLength(f"half_length must be finite and > 0, got {L!r}")
        self.L = L
        self.n = int(n)
        self.dx = 2.0 * L / n
        x = -L + self.dx * np.arange(n)
        k = np.fft.fftfreq(n, d=1.0 / n)
        k[n // 2] = n // 2  # Nyquist carried with positive sign
        xi = np.pi * k / L
        for arr in (x, k, xi):
            arr.setflags(write=False)
        self.x = x
        self.freq_index = k
        self.xi = xi

    @property
    def xi_half(self) -> np.ndarray:
        """Frequencies of the real-transform bins 0..n/2 (ascending)."""
        return self.xi[: self.n // 2 + 1]

    def compatible(self, other: "Grid") -> bool:
        return self.n == other.n and self.L == other.L

    def __repr__(self) -> str:
        return f"Grid(L={self.L:g}, n={self.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and self.compatible(other)

    def __hash__(self) -> int:
        return hash((self.L, self.n))


def make_grid(L: float, N: int) -> Grid:
    """Build the periodic grid on [-L, L) with N nodes.

    Raises NotPowerOfTwo, ValidationFailed (N > 2**30) or NonPositiveLength
    on bad parameters.
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
