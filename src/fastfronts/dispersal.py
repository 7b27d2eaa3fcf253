"""Dispersal operators: transform-space symbols for the linear operators,
implicit and sub-cycled schemes for the nonlinear fast diffusions, and slow
direct-quadrature oracles used by the tests. The exact semigroup step of a
linear operator lives in integrator.DispersalStepper.

Every step takes a state array with one sample per node of its grid and
returns a new array. check_step is the one gate of that contract, shared
with integrator's step_values and strang_step.

Linear operators are represented by a real multiplier per real-transform bin:

    fractional power of the Laplacian   m(xi) = -|xi|^(2 alpha)
    kernel smoothing minus identity     m(xi) = Jhat(xi) - 1

where Jhat is the transform of the kernel's grid samples: exact cell averages
for the stretched exponential, node values for the other kernels. The
classical Laplacian is the fractional power alpha = 1, with multiplier -xi^2.
Every symbol vanishes at frequency zero (mass neutrality) and is nonpositive
(dissipativity).

Importing this module loads numpy only. scipy is loaded where it is used,
and two of its compiled extensions alone, without any scipy package
__init__ (_scipy_extension below): the pocketfft extension
scipy.fft._pocketfft.pypocketfft, which makes every transform of the
package (_pocketfft, loaded when integrator.DispersalStepper is built for a
linear operator or the fractional fast diffusion), and the LAPACK wrapper
scipy.linalg._flapack for the fast-diffusion tridiagonal solves (_lapack,
loaded when it is built for FastDiffusion). scipy.special, the one scipy
package the module imports, is imported for the stretched-exponential cell
averages; the other operators and kernels never run a scipy __init__.

Every Newton solve is one call, solve_banded(ab, b, floor), which solves in
place with LAPACK's dgtsv from that wrapper directly. The floor system of a
step, one _FloorLU per (gamma, eps_reg, dt, dx), built once per key, is the
one computation of r = dt / dx^2 and of the floor slope and its gate; it
holds r, the constant band column below the floor, the window margin and the
LU factors of the floor matrix. A global solve whose Jacobian is that matrix
outside the above-floor span reuses the factors: dgttrf on a block around
the span and one dgttrs, bitwise dgtsv's result. On the fig1c body to t=1,
99 of the 100 global solves take that path.

Each operator spec owns its gates on a run's grid, check(grid, dt,
eps_reg), which RunConfig runs at construction: a normalized kernel's
discrete mass, a fractional symbol's largest |m| * dt (_largest_m, which
build_symbol runs too), the fractional fast diffusion's sub-cycle count,
which fractional_fast_diffusion_step counts with the same call, and the
fast diffusion's floor system (r = dt / dx^2 and the floor band 2 r F),
which fast_diffusion_step builds the same way at a new key and reuses,
unchecked, at the key it holds. eps_reg is gated (0 < eps_reg < inf) where
it is used, in the floor system and in substep_count.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    LengthMismatch,
    NonlinearVariant,
    ParameterOutOfRange,
    SolverNotConverged,
    SolverSingular,
    ValidationFailed,
    _io,
)
from .grid import Field, Grid

__all__ = [
    "EPS_REG",
    "StretchedExponential",
    "AlgebraicTail",
    "TabulatedKernel",
    "KernelSpec",
    "load_kernel_table",
    "read_table",
    "sample_kernel",
    "kernel_discrete_mass",
    "FractionalLaplacian",
    "Convolution",
    "StandardLaplacian",
    "FastDiffusion",
    "FractionalFastDiffusion",
    "DispersalSpec",
    "build_symbol",
    "apply_symbol",
    "convolve_direct",
    "fast_diffusion_step",
    "fractional_fast_diffusion_step",
]

# Regularization floor for the degenerate coefficient u^(gamma-1) at u = 0.
EPS_REG = 1e-8
# Max-norm residual at which a fast-diffusion Newton iteration has converged.
_NEWTON_TOL = 1e-13


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StretchedExponential:
    """Kernel c * exp(-b |x|^a) with 0 < a < 1 and finite b > 0.

    The amplitude c is the closed-form unit-mass constant
    b^(1/a) / (2 Gamma(1 + 1/a)); with a=1/2, b=1 this is exp(-sqrt|x|)/4.
    On a grid it is sampled as exact cell averages, because the |x|^a kink
    at the origin spoils point samples.
    """

    a: float
    b: float = 1.0
    normalize: bool = True

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ParameterOutOfRange(f"stretched-exponential exponent a={self.a!r} not in (0,1)")
        if not 0.0 < self.b < math.inf:
            raise ParameterOutOfRange(
                f"stretched-exponential rate b={self.b!r} must be finite and > 0"
            )

    @property
    def amplitude(self) -> float:
        """b^(1/a) / (2 Gamma(1 + 1/a)) where that is finite; elsewhere (b^(1/a)
        or the Gamma function above the float range) exp of its logarithm,
        which takes the IEEE limit 0 or inf when c is outside the range."""
        try:
            c = self.b ** (1.0 / self.a) / (2.0 * math.gamma(1.0 + 1.0 / self.a))
        except OverflowError:
            c = math.nan
        with np.errstate(over="ignore"):  # exp(log c) above the float range is inf
            return c if math.isfinite(c) else float(np.exp(self._log_amplitude()))

    def _log_amplitude(self) -> float:
        """log c = s ln b - lgamma(1 + s) - ln 2 with s = 1/a. Where lgamma
        would overflow, Stirling's lgamma(1 + s) ~ s (ln s - 1) leaves log c
        = +-inf by the sign of ln b + 1 - ln s."""
        s = 1.0 / self.a  # inf for a subnormal a, with no error
        if s < 1e305:
            return s * math.log(self.b) - math.lgamma(1.0 + s) - math.log(2.0)
        return math.copysign(math.inf, math.log(self.b) + 1.0 - math.log(s))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """c * exp(-b |x|^a) where c is finite, and exp(log c - b |x|^a)
        where it is not, so only a peak above the float range is inf; a
        b |x|^a that overflows gives exp(-inf) = 0, the exact limit."""
        c = self.amplitude
        with np.errstate(over="ignore"):
            decay = self.b * np.abs(x) ** self.a
            return c * np.exp(-decay) if c < math.inf else np.exp(self._log_amplitude() - decay)

    def grid_samples(self, grid: Grid) -> np.ndarray:
        """Averages (1/dx) * integral of J over each cell [x_i - dx/2, x_i + dx/2].

        With s = 1/a the unit-mass tail is c * int_y^inf exp(-b t^a) dt =
        gammaincc(s, b y^a) / 2. A cell that holds the origin adds two lower
        functions; any other cell takes a difference of upper ones, which
        keeps the far tail accurate. dx * sum is then the exact mass of
        [-L - dx/2, L - dx/2).
        """
        # local import: scipy.special is slow to load and only kernels need it
        from scipy.special import gammainc, gammaincc

        s = 1.0 / self.a
        half = 0.5 * grid.dx
        r = np.abs(grid.x)
        with np.errstate(over="ignore"):  # b y^a = inf takes the exact limits 1 and 0
            near = self.b * np.abs(r - half) ** self.a
            far = self.b * (r + half) ** self.a
        mass = np.where(
            r < half,
            0.5 * (gammainc(s, near) + gammainc(s, far)),
            0.5 * (gammaincc(s, near) - gammaincc(s, far)),
        )
        return np.maximum(mass, 0.0) / grid.dx


@dataclass(frozen=True)
class AlgebraicTail:
    """Kernel c / (1 + |x|^p) with finite p > 2, unit analytic mass."""

    p: float
    normalize: bool = True

    def __post_init__(self):
        if not 2.0 < self.p < math.inf:
            raise ParameterOutOfRange(
                f"algebraic-tail exponent p={self.p!r} must be finite and > 2"
            )

    @property
    def amplitude(self) -> float:
        # integral of 1/(1+|x|^p) over the line is (2 pi / p) / sin(pi / p)
        return self.p * math.sin(math.pi / self.p) / (2.0 * math.pi)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """c / (1 + |x|^p); a power that overflows gives c / inf = 0, the
        exact limit, and leaves every finite value as it is."""
        with np.errstate(over="ignore"):
            return self.amplitude / (1.0 + np.abs(x) ** self.p)

    def grid_samples(self, grid: Grid) -> np.ndarray:
        """Node values J(x_i); the kernel is smooth at the origin for p > 2."""
        return self.evaluate(grid.x)


@dataclass(frozen=True)
class TabulatedKernel:
    """Kernel given by (x, J(x)) samples; linear interpolation, zero outside.

    The constructor stores x and j as tuples of floats and raises
    ValidationFailed unless they are equal-length finite 1D columns of at
    least 2 samples, x strictly increasing and J nonnegative and even."""

    x: tuple = field(repr=False)
    j: tuple = field(repr=False)
    normalize: bool = True

    def __post_init__(self):
        try:
            x = np.asarray(self.x, dtype=float)
            j = np.asarray(self.j, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationFailed(f"tabulated kernel samples must be numbers: {exc}") from exc
        if x.ndim != 1 or x.shape != j.shape or x.size < 2:
            raise ValidationFailed("tabulated kernel needs two equal-length 1D columns")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(j))):
            raise ValidationFailed("tabulated kernel samples must be finite")
        if not np.all(np.diff(x) > 0):
            raise ValidationFailed("tabulated kernel abscissae must be strictly increasing")
        if np.any(j < 0):
            raise ValidationFailed("tabulated kernel must be nonnegative")
        mirrored = np.interp(-x, x, j, left=0.0, right=0.0)
        scale = max(j.max(), 1.0)
        if np.max(np.abs(mirrored - j)) > 1e-9 * scale:
            raise ValidationFailed("tabulated kernel must be even: J(x) = J(-x)")
        object.__setattr__(self, "x", tuple(x.tolist()))
        object.__setattr__(self, "j", tuple(j.tolist()))

    def __repr__(self) -> str:
        return f"TabulatedKernel(<{len(self.x)} samples>, normalize={self.normalize})"

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, np.asarray(self.x), np.asarray(self.j), left=0.0, right=0.0)

    def grid_samples(self, grid: Grid) -> np.ndarray:
        """Node values J(x_i); on a table aligned with the grid, dx * sum is
        the exact mass of the piecewise-linear interpolant."""
        return self.evaluate(grid.x)


KernelSpec = Union[StretchedExponential, AlgebraicTail, TabulatedKernel]


def read_table(path, what: str) -> np.ndarray:
    """Rows of a whitespace-separated numeric table, as a 2D array. An unreadable
    file raises IoFailure; a malformed or empty one, ValidationFailed."""
    with _io(f"cannot read {what} {path}"), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on an empty file
        try:
            data = np.loadtxt(path, dtype=float, ndmin=2)
        except ValueError as exc:
            raise ValidationFailed(f"malformed {what} {path}: {exc}") from exc
    if data.size == 0:
        raise ValidationFailed(f"{what} {path} holds no samples")
    return data


def load_kernel_table(path, normalize: bool = True) -> TabulatedKernel:
    """Load a kernel from two-column whitespace-separated text (x, J(x))."""
    data = read_table(path, "kernel table")
    if data.shape[1] != 2:
        raise ValidationFailed(f"kernel table {path} must have exactly two columns")
    return TabulatedKernel(data[:, 0], data[:, 1], normalize)


def sample_kernel(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """Sample a kernel on the grid, rescaled to unit discrete mass dx * sum(J).

    The samples are the kernel's grid_samples: exact cell averages for the
    stretched exponential, node values for the other kernels. When the
    kernel's normalize flag is unset the raw samples are returned, exposing
    the mass they miss against the analytic normalization.
    """
    vals = kernel.grid_samples(grid)
    if kernel.normalize:
        mass = grid.dx * vals.sum()
        if mass <= 0.0:
            raise ValidationFailed("kernel has zero discrete mass on this grid")
        vals = vals / mass
    return vals


def kernel_discrete_mass(kernel: KernelSpec, grid: Grid) -> float:
    """Discrete mass dx * sum(J) of the raw (unrescaled) grid samples.

    These are the samples build_symbol transforms, so for an unnormalized
    kernel the symbol's m(0) equals this mass minus one.
    """
    return float(grid.dx * kernel.grid_samples(grid).sum())


# ---------------------------------------------------------------------------
# operator specifications
# ---------------------------------------------------------------------------

def _largest_m(alpha: float, grid: Grid, dt: float = 1.0) -> float:
    """The largest |m| of the fractional symbol -|xi|^(2 alpha) on grid: the
    Nyquist bin's (xi[-1]^2)^alpha, in Python floats, which overflow to inf
    without a warning. ValidationFailed unless |m| * dt is finite."""
    top = float(grid.xi[-1])
    largest = (top * top) ** alpha
    if not math.isfinite(largest * dt):
        raise ValidationFailed(f"the symbol's largest |m| * dt, {largest!r} * {dt!r}, is not "
                               f"finite (half-length {grid.L!r}, {grid.n} nodes)")
    return largest


@dataclass(frozen=True)
class FractionalLaplacian:
    """Fractional power of the Laplacian, multiplier -|xi|^(2 alpha), 0 < alpha <= 1."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterOutOfRange(f"fractional exponent alpha={self.alpha!r} not in (0,1]")

    def check(self, grid: Grid, dt: float, eps_reg: float) -> None:
        """ValidationFailed unless the symbol's largest |m| * dt on grid is
        finite (_largest_m, which builds no symbol)."""
        _largest_m(self.alpha, grid, dt)


@dataclass(frozen=True)
class Convolution:
    """Kernel smoothing minus identity: J*u - u with an even unit-mass kernel."""

    kernel: KernelSpec

    def __post_init__(self):
        if not isinstance(self.kernel, KernelSpec):
            raise ValidationFailed(f"kernel {self.kernel!r} is not a fastfronts kernel spec")

    def check(self, grid: Grid, dt: float, eps_reg: float) -> None:
        """ValidationFailed when a normalized kernel has zero discrete mass
        on grid (sample_kernel's gate)."""
        if self.kernel.normalize:
            sample_kernel(self.kernel, grid)


def StandardLaplacian() -> FractionalLaplacian:
    """Classical second derivative, multiplier -xi^2: the fractional power alpha = 1."""
    return FractionalLaplacian(1.0)


@dataclass(frozen=True)
class FastDiffusion:
    """Nonlinear diffusion (u^gamma)_xx with 0 < gamma <= 1."""

    gamma: float

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ParameterOutOfRange(f"fast-diffusion exponent gamma={self.gamma!r} not in (0,1]")

    def check(self, grid: Grid, dt: float, eps_reg: float) -> None:
        """Builds the Newton step's floor system on grid, _FloorLU(gamma,
        eps_reg, dt, grid), which is its gate: ParameterOutOfRange unless
        0 < eps_reg < inf, ValidationFailed unless r = dt / dx^2 is finite
        and > 0 and the floor band 2 r F is finite. On a grid that passes
        its own gates, dx^2 can still underflow to 0 or overflow, and 2 r F
        can overflow. fast_diffusion_step builds the same system before any
        work, once per key."""
        _FloorLU(self.gamma, eps_reg, dt, grid)


@dataclass(frozen=True)
class FractionalFastDiffusion:
    """Fractional diffusion of u^gamma; requires max(1-2*alpha, 0) < gamma <= 1."""

    alpha: float
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ParameterOutOfRange(f"fractional exponent alpha={self.alpha!r} not in (0,1)")
        gate = max(1.0 - 2.0 * self.alpha, 0.0)
        if not (gate < self.gamma <= 1.0):
            raise ParameterOutOfRange(
                f"gamma={self.gamma!r} violates max(1-2*alpha,0)={gate:g} < gamma <= 1"
            )

    def check(self, grid: Grid, dt: float, eps_reg: float) -> None:
        """The fractional Laplacian's gate (ValidationFailed), then
        substep_count at that largest |m|: ParameterOutOfRange when dt needs
        more than 10^6 sub-cycles or the sub-cycle stiffness is not finite."""
        substep_count(_largest_m(self.alpha, grid, dt), self.gamma, dt, eps_reg)


DispersalSpec = Union[FractionalLaplacian, Convolution, FastDiffusion, FractionalFastDiffusion]


# ---------------------------------------------------------------------------
# symbols and linear steps
# ---------------------------------------------------------------------------

def build_symbol(spec: DispersalSpec, grid: Grid) -> np.ndarray:
    """Transform-space multiplier of a linear dispersal operator: a real array
    of length n//2 + 1 whose entry k multiplies real-transform bin k, at the
    frequency grid.xi[k].

    Raises NonlinearVariant for the fast-diffusion operators, which have no
    symbol. For kernels left unnormalized the zero-frequency value reports the
    raw discrete-mass defect instead of being pinned to zero.
    """
    if isinstance(spec, FractionalLaplacian):
        _largest_m(spec.alpha, grid)  # xi * xi would overflow with a warning
        return -np.power(grid.xi * grid.xi, spec.alpha)
    if isinstance(spec, Convolution):
        samples = sample_kernel(spec.kernel, grid)
        # ifftshift reorders the node samples into offsets J(0), J(dx), ...;
        # a complex fft cut to the real-transform bins (rfft differs in the
        # last ulp)
        offsets = np.fft.ifftshift(samples).astype(complex)
        jhat = grid.dx * _pocketfft().c2c(offsets, None, True, 0, None, 1)[: grid.xi.size].real
        m = jhat - 1.0
        if spec.kernel.normalize:
            # mass neutrality and dissipativity hold analytically; pin away
            # the last-ulp roundoff so downstream invariants are exact
            m[0] = 0.0
            np.minimum(m, 0.0, out=m)
        return m
    raise NonlinearVariant(f"{type(spec).__name__} has no transform-space symbol")


def apply_symbol(field: Field, m: np.ndarray) -> Field:
    """Evaluate the linear operator with multiplier m (from build_symbol) on a
    field; the operator itself, not its semigroup."""
    n = field.grid.n
    m = np.asarray(m)
    if m.shape != (n // 2 + 1,):
        raise LengthMismatch(f"multiplier of shape {m.shape} for a grid of {n} nodes")
    fft = _pocketfft()
    bins = fft.r2c(field.values, None, True, 0, None, 1) * m
    return Field(field.grid, fft.c2r(bins, None, n, False, 2, None, 1))


def convolve_direct(field: Field, kernel: KernelSpec, grid: Grid) -> Field:
    """O(N^2) direct sum dx * sum_j J_(i-j) u_j - u_i with periodic wrap.

    Test oracle for the transform path: it sums the same samples that
    build_symbol transforms (sample_kernel), so it checks the transform, not
    the sampling. Memory grows as N^2, so keep N small.
    """
    if field.grid != grid:
        raise LengthMismatch(f"field on {field.grid!r} does not match {grid!r}")
    n = grid.n
    offsets = np.fft.ifftshift(sample_kernel(kernel, grid))
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    smooth = grid.dx * (offsets[idx] @ field.values)
    return Field(grid, smooth - field.values)


# ---------------------------------------------------------------------------
# nonlinear fast diffusion
# ---------------------------------------------------------------------------

@functools.lru_cache
def _scipy_extension(subpackage: str, name: str, fallback: str):
    """The compiled scipy module scipy.<subpackage>.<name>, loaded once per
    process without running any scipy __init__.

    A module that is already loaded (its scipy package imports it) is taken
    as it is. Otherwise the extension file is found in scipy's directory,
    which importlib.util.find_spec locates without importing scipy, and
    loaded under its own name, skipping the package __init__ files (0.16 s
    to 0.25 s for scipy.fft or scipy.linalg); a later import of the package
    finds the module in sys.modules and uses it. Where no such file loads, the module `fallback`
    is imported, which holds the same routines (and a missing scipy raises
    ModuleNotFoundError there).
    """
    import importlib.machinery
    import importlib.util
    import os
    import sys

    full = f"scipy.{subpackage}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec("scipy")
    for folder in (spec.submodule_search_locations if spec else None) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, *subpackage.split("."), name + suffix)
            loader = importlib.machinery.ExtensionFileLoader(full, path)
            try:
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(full, loader))
                loader.exec_module(module)
            except ImportError:  # no such file, or it does not load
                continue
            sys.modules[full] = module
            return module
    return importlib.import_module(fallback)


def _lapack():
    """scipy's LAPACK wrapper scipy.linalg._flapack, whose dgtsv, dgttrf and
    dgttrs make the fast-diffusion solves; scipy.linalg.lapack where the
    file does not load."""
    return _scipy_extension("linalg", "_flapack", "scipy.linalg.lapack")


def _pocketfft():
    """scipy's pocketfft extension scipy.fft._pocketfft.pypocketfft, whose
    r2c, c2r and c2c make every transform of the package. Unlike np.fft,
    which builds its plan at every call, it keeps the plans it has built.
    Each call passes (a, axes, [lastsize,] forward, inorm, out, nthreads)
    by position, with axes None (the one axis), inorm 0 (no scaling) or 2
    (divide by n) and nthreads 1; on a power-of-two length each call is
    bitwise the np.fft call it replaces (rfft, irfft(n=n), fft and
    ifft(norm="forward"))."""
    return _scipy_extension("fft._pocketfft", "pypocketfft", "scipy.fft._pocketfft.pypocketfft")


class _FloorLU:
    """The floor system of the Newton steps at one key (gamma, eps, dt, dx)
    on a grid, and the LU factors of its Jacobian, reused by the global
    solves whose Jacobian is that one outside the above-floor span. The one
    computation of that system, and its gate, which FastDiffusion.check and
    fast_diffusion_step both run by building it.

    Built once per key: r = dt / dx^2, the floor slope F =
    _floor_slope(gamma, eps), `scale` = (-r, 2r, -r) as a column, the band
    `column` = F * scale plus 1 on the diagonal, which every column below
    the floor holds, the diagonal `ends` = 1 + r F of the two Neumann end
    rows, and the window `margin` M = _window_margin(r F, n) (a solve takes
    it as at least 2). ParameterOutOfRange unless 0 < eps < inf,
    ValidationFailed unless r is finite and > 0 and the floor band 2 r F is
    finite, before any array is made. The floor band bounds every Jacobian
    entry, since a node's slope d is at most F for gamma <= 1, so no band of
    a step overflows. The factors are LAPACK dgttrf's of the floor Jacobian,
    the diagonal of U in `d` and the multipliers in `dl`. They are built at
    the second solve that asks for them, so a step that solves globally once
    builds nothing. The Jacobian is column-diagonally dominant, so no row is
    interchanged: U's superdiagonal is the matrix's own, and `du2` (zeros)
    and `ipiv` (1, ..., n) record the trivial pivots.

    `solve_d` and `solve_dl` hold the factors that a solve passes to dgttrs.
    `held` = (top, bottom, tail) says what they hold now: the floor factors
    above row top, and from row bottom on the tail settled at the value
    tail (None: no tail), so a solve rewrites only the rows that change."""

    __slots__ = ("key", "r", "scale", "column", "ends", "margin", "asked", "d", "dl", "du2",
                 "ipiv", "solve_d", "solve_dl", "held")

    def __init__(self, gamma: float, eps: float, dt: float, grid: Grid):
        if not 0 < eps < math.inf:
            raise ParameterOutOfRange(f"eps_reg must be finite and > 0, got {eps!r}")
        try:
            r = float(dt) / grid.dx**2  # a numpy dt would warn, not raise
        except (ZeroDivisionError, OverflowError):  # dx^2 underflows to 0 or overflows
            r = math.nan
        slope = _floor_slope(gamma, eps)
        band = 2.0 * r * slope  # Python floats: an overflow is inf, with no warning
        if not (0 < r < math.inf and math.isfinite(band)):
            raise ValidationFailed(f"Newton step needs a finite r = dt / dx^2 > 0 and floor band "
                                   f"2 r F: r = {r!r} (dt={dt!r}, dx={grid.dx!r}), 2 r F={band!r}")
        self.key, self.r = (gamma, eps, dt, grid.dx), r
        self.scale = np.array([[-r], [2.0 * r], [-r]])
        self.column = self.scale * slope
        self.column[1] += 1.0
        self.ends = 1.0 + r * slope
        self.margin = _window_margin(r * slope, grid.n)
        self.asked, self.d = 0, None

    def _factor(self, n: int) -> bool:
        """Factor the floor Jacobian; False, keeping nothing, if it pivots."""
        dgttrf = _lapack().dgttrf
        sup, diag, sub = self.column[:, 0]
        d = np.full(n, diag)
        d[0] = d[-1] = self.ends
        dl, d, _, _, ipiv, info = dgttrf(np.full(n - 1, sub), d, np.full(n - 1, sup), 1, 1, 1)
        self.ipiv = np.arange(1, n + 1, dtype=np.int32)
        if info or not np.array_equal(ipiv, self.ipiv):
            return False
        self.d, self.dl, self.du2 = d, dl, np.zeros(n - 2)
        self.solve_d, self.solve_dl = np.empty(n), np.empty(n - 1)
        self.held = (0, n, None)
        return True

    def solve(self, ab, b, first: int, end: int):
        """The solution of the banded system (ab, b) whose columns outside
        [first, end) are the floor Jacobian's, bitwise as dgtsv computes it,
        written into b; None where the factors do not fit, and the caller
        runs dgtsv. ab is read and left as it is.

        Without row interchanges, dgttrf and then dgttrs make dgtsv's
        operations in its order, row by row. Above row first - 1 the
        system's factors are the cached ones. The block [first - 1, end + M)
        is factored by dgttrf, started from the cached diagonal at row
        first - 1. Below the span the factor recurrence runs on floor
        columns; once two of its diagonals agree bitwise, it repeats that
        value down to the last interior row. The Neumann row is factored
        from it, and one dgttrs solves on the whole grid. None (dgtsv) for
        the first solve, an empty span or one at a box end, a block of n/4
        rows or more (it would cost about as much as factoring everything),
        a pivot or a zero diagonal, or a recurrence that has not settled by
        the block's last row.
        """
        lapack = _lapack()
        dgttrf, dgttrs = lapack.dgttrf, lapack.dgttrs
        n = b.size
        start, stop = first - 1, min(end + max(self.margin, 2), n)
        self.asked += 1
        if self.asked < 2 or not 0 < first < end < n or 4 * (stop - start) >= n:
            return None
        if self.d is None and not self._factor(n):
            return None
        d, dl = self.solve_d, self.solve_dl
        top, bottom, tail = self.held
        d[top:start], dl[top:start] = self.d[top:start], self.dl[top:start]
        # the block's rows are overwritten, and so is the Neumann row if
        # the block reaches it
        self.held = min(top, start), max(bottom, stop), tail if stop < n else None
        d[start:stop], dl[start:stop - 1] = ab[1, start:stop], ab[2, start:stop - 1]
        d[start] = self.d[start]
        *_, ipiv, info = dgttrf(dl[start:stop - 1], d[start:stop], ab[0, start + 1:stop], 1, 1)
        if info or not np.array_equal(ipiv, self.ipiv[:stop - start]):
            return None
        settled = None  # a block that reaches the Neumann row leaves no tail
        if stop < n:
            settled = d[stop - 1]
            if d[stop - 2] != settled:
                return None
            fill = bottom if settled == tail else n
            d[stop:fill], dl[stop - 1:fill - 1] = settled, dl[stop - 2]
            if fill == n:
                # the last three rows, from the settled value (scipy's
                # dgttrf wrapper takes no 2-row system)
                d[-1] = dgttrf(ab[2, -3:-1], np.array([settled, *ab[1, -2:]]), ab[0, -2:])[1][2]
        self.held = start, stop, settled
        return dgttrs(dl, d, ab[0, 1:], self.du2, self.ipiv, b, overwrite_b=True)[0]


class NewtonWork:
    """Work arrays of the fast-diffusion Newton step on n nodes, passed to
    fast_diffusion_step as `work`: the Jacobian bands `ab` (3, n), the
    right-hand side `rhs`, the power `p`, the potential `w`, its slope `d`
    and the mask `above` of nodes at or above the floor, a bool view of the
    bytearray `mask`. `rhs` holds minus
    the Newton residual; a solve on [lo, hi) overwrites rhs[lo:hi], and
    outside the last window the rest still holds the last residual. Each
    solve fills the band columns it solves on; a tridiagonal solve on
    columns [lo, hi) reads neither ab[0, lo] nor ab[2, hi - 1]. `floor` is
    the _FloorLU of the last step made with this work (None before any):
    the floor system's r, band column, margin and LU factors at that
    step's key (gamma, eps_reg, dt, dx), which the next step at the same
    key reuses."""

    __slots__ = ("ab", "rhs", "p", "w", "d", "mask", "above", "floor")

    def __init__(self, n: int):
        self.ab = np.empty((3, n))
        self.rhs, self.p, self.w, self.d = (np.empty(n) for _ in range(4))
        self.mask = bytearray(n)
        self.above = np.frombuffer(self.mask, dtype=bool)
        self.floor = None


@functools.lru_cache
def _floor_slope(gamma: float, eps: float) -> float:
    """The slope gamma * eps^gamma / eps of the potential below the floor,
    made by the ufuncs that make the slope above it, on one element; made
    once per (gamma, eps) and then read from the cache."""
    floor = np.full(1, eps)
    with np.errstate(over="ignore"):  # an infinite slope fails the floor system's gate
        np.divide(np.power(floor, gamma), floor, out=floor)
    floor *= gamma
    return float(floor[0])


def _kirchhoff(u: np.ndarray, gamma: float, eps: float, work: NewtonWork,
               lo: int, hi: int) -> tuple:
    """Monotone potential w and its slope d = gamma * max(u, eps)^(gamma - 1)
    on the nodes [lo, hi), written into work.w, work.d and the mask
    work.above there; returns (w, d, first, end), where [first, end) is the
    above-floor span of the whole mask. The global call is (0, n).

    w equals u^gamma above the floor and continues linearly below it, so it is
    defined and increasing on the whole line (Newton iterates may leave [0,1]).
    With m = max(u, eps) and p = m^gamma, d = gamma * p / m.

    The span runs from the first node with u >= eps to the last one, read
    off the whole mask by bytearray.find and rfind on its bytes (memchr and
    memrchr, under a microsecond at 2^16 nodes, where an argmax on the
    reversed bool view takes about 25 us); when every node is below the
    floor it is empty (first == end == 0). Outside [lo, hi) the mask is the
    last call's, as u is. The power is taken only on the
    span's part of [lo, hi): w is the line everywhere and the power branch
    is copied in where u >= eps; elsewhere d is _floor_slope, which is
    bitwise the power formula at u = eps. Elementwise ufuncs do not depend
    on an element's position, so w and d on [lo, hi) are bitwise the slice
    of the full-array formula.
    """
    p, w, d, above = work.p, work.w, work.d, work.above
    np.greater_equal(u[lo:hi], eps, out=above[lo:hi])
    first = work.mask.find(1)
    first, end = (first, work.mask.rfind(1) + 1) if first >= 0 else (0, 0)
    np.subtract(u[lo:hi], eps, out=w[lo:hi])
    w[lo:hi] *= gamma * eps ** (gamma - 1.0)
    w[lo:hi] += eps ** gamma
    a, b = (min(max(k, lo), hi) for k in (first, end))  # the span within [lo, hi)
    d[lo:a] = d[b:hi] = _floor_slope(gamma, eps)
    ds, ps = d[a:b], p[a:b]
    np.maximum(u[a:b], eps, out=ds)
    np.power(ds, gamma, out=ps)
    np.divide(ps, ds, out=ds)
    ds *= gamma
    np.copyto(w[a:b], ps, where=above[a:b])
    return w, d, first, end


def _window_margin(c: float, n: int) -> int:
    """Nodes that a windowed Newton correction keeps on each side of the
    above-floor span: M = ceil(53 ln 2 / -ln rho) + 1, or n when rho rounds
    to 1.

    rho < 1 is the small root of c rho^2 - (1 + 2c) rho + c = 0, the decay
    per node of the inverse of the floor Jacobian tridiag(-c, 1 + 2c, -c)
    (Demko, Moss and Smith, Math. Comp. 43, 1984); rho + 1/rho = 2 + 1/c
    gives -ln rho = 2 asinh(1 / (2 sqrt(c))), which keeps its digits when c
    is large. M nodes away, the correction has fallen below 2^-53 (float64's
    precision) of its size.
    """
    decay = 2.0 * math.asinh(0.5 / math.sqrt(c)) if c > 0 else math.inf
    return math.ceil(53 * math.log(2.0) / decay) + 1 if decay > 0 else n


def _newton_rhs(u: np.ndarray, u0: np.ndarray, w: np.ndarray, r: float,
                rhs: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Minus the Newton residual, ((r * Lap(w)) - u) + u0, on the rows
    [lo, hi), into rhs, with r = dt / dx^2, the scale the floor system
    computes and gates. Lap is the zero-flux second difference
    (w[i-1] - 2 w[i]) + w[i+1], with w[1] - w[0] and w[-2] - w[-1] on the
    end rows; the rows are scaled by r in one pass, so no 1 / dx^2 is
    formed. Every row takes the same operations in the same order, so a
    range is bitwise the slice of the global call (0, n)."""
    a, b = max(lo, 1), min(hi, w.size - 1)
    inner = rhs[a:b]
    np.multiply(w[a:b], 2.0, out=inner)
    np.subtract(w[a - 1:b - 1], inner, out=inner)
    inner += w[a + 1:b + 1]
    if lo == 0:
        rhs[0] = w[1] - w[0]
    if hi == w.size:
        rhs[-1] = w[-2] - w[-1]
    rows = rhs[lo:hi]
    rows *= r
    rows -= u[lo:hi]
    rows += u0[lo:hi]
    return rhs


def solve_banded(ab, b, floor=None) -> np.ndarray:
    """Solve a tridiagonal system in place: ab[0, 1:] is the superdiagonal,
    ab[1] the diagonal and ab[2, :-1] the subdiagonal of a float64 system on
    b.shape[0] >= 2 rows (scipy.linalg.solve_banded's layout for (1, 1)
    bands). Returns the solution, written into b, and leaves ab overwritten,
    where they are contiguous float64 rows (as the Newton step's views are).

    The rows go straight to LAPACK's dgtsv (Gaussian elimination with
    partial pivoting), the call scipy.linalg.solve_banded makes for (1, 1)
    bands, so the result is bitwise scipy's with overwrite_ab, overwrite_b
    and check_finite=False; the direct call skips scipy's argument checks,
    its finiteness scan (fast_diffusion_step checks every update instead),
    its batching decorator and its LAPACK lookup. A zero pivot raises
    SolverSingular. The LAPACK wrapper comes from _lapack at the call, so
    that operators without a banded solve never load it; fast_diffusion_step
    looks this name up at call time.

    floor = (lu, first, end), from fast_diffusion_step's global solves,
    says that outside the columns [first, end) the bands are those of the
    floor Jacobian of lu (a _FloorLU). The solve then reuses its factors:
    dgttrf on a block around the span and one dgttrs on all rows, into b,
    bitwise dgtsv's result (see _FloorLU.solve); that path leaves ab as it
    is. Where the factors do not fit, dgtsv solves as without `floor`.
    """
    if floor is not None:
        lu, first, end = floor
        x = lu.solve(ab, b, first, end)
        if x is not None:
            return x
    *_, x, info = _lapack().dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b, 1, 1, 1, 1)
    if info > 0:
        raise SolverSingular(f"tridiagonal solve has a zero pivot in row {info}")
    return x


def _require_count(name: str, value) -> None:
    """ParameterOutOfRange unless value is an integer >= 1 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ParameterOutOfRange(f"{name} must be an integer >= 1, got {value!r}")


def check_step(values, grid: Grid, dt: float) -> None:
    """ParameterOutOfRange unless 0 < dt < inf (a NaN fails), LengthMismatch
    unless `values` holds one sample per node of grid (a Field has no shape)."""
    if not 0 < dt < math.inf:
        raise ParameterOutOfRange(f"step needs a finite dt > 0, got {dt!r}")
    if np.shape(values) != (grid.n,):
        raise LengthMismatch(f"{np.shape(values)} values for a grid of {grid.n} nodes")


def _fast_state(values, grid: Grid, dt: float) -> np.ndarray:
    """check_step and a finiteness gate (ValidationFailed); returns the
    values as float64, the input itself when it already is."""
    check_step(values, grid, dt)
    u0 = np.asarray(values, dtype=np.float64)
    if not np.isfinite(u0).all():
        raise ValidationFailed("state holds a NaN or an infinite value")
    return u0


def fast_diffusion_step(
    values,
    gamma: float,
    dt: float,
    grid: Grid,
    *,
    eps_reg: float = EPS_REG,
    max_iter: int = 40,
    work: NewtonWork | None = None,
) -> np.ndarray:
    """One backward-Euler step of u_t = d/dx( D(u) du/dx ), D = gamma*max(u,eps)^(gamma-1).

    Homogeneous Neumann ends. The step solves u - r * Lap(w(u)) = u0 for the
    Kirchhoff potential w by Newton's method, with Lap the second difference
    of w and r = dt / dx^2, read from the step's floor system (_FloorLU, the
    one place that computes it): the residual and the bands are scaled by r,
    and no 1 / dx^2 is formed on its own (_newton_rhs). Each iterate
    evaluates w and its slope, taking a power only on the span [first, end)
    from the first node at or above eps_reg to the last one (a line and the
    constant floor slope F = gamma * eps_reg^(gamma - 1) outside it; early
    in a run that span is a small part of the box), then makes one
    tridiagonal direct solve with the Jacobian at the current iterate. The
    iteration is driven until the residual's max norm is at most 1e-13,
    which makes the step order-preserving; if the iterate after max_iter
    solves is still above it, the step raises SolverNotConverged instead of
    returning it, whatever max_iter is. Discrete mass dx * sum(u) is
    conserved up to the iteration residual.

    The first solve of a step runs on the whole grid. Below the floor the
    system is linear, so that solve settles it there, and each later solve
    runs only on the window [first - M, end + M) clipped to the grid, as
    views of the bands and the right-hand side; the iterate outside the
    window is left as it is. With c = F dt / dx^2, M = ceil(53 ln 2 /
    -ln rho) + 1, where rho < 1 is the small root of
    c rho^2 - (1 + 2c) rho + c = 0: the inverse of the Jacobian decays like
    rho^|i - j| away from the span, and d <= F for gamma <= 1, so the
    correction dropped outside the window is below 2^-53 of its size. The
    residual test stays global, and an iterate whose largest residual lies
    outside the window solves on the whole grid, so a window too narrow can
    only cost iterations. Where the window covers the grid (n up to about
    2M, every small grid) every solve is global.

    A windowed solve on [lo, hi) changes u there only, so the next iterate
    recomputes the mask, w and d on [lo, hi) and the residual on
    [lo - 1, hi + 1); outside, d is already the floor slope and rhs still
    holds the last residual, bitwise. Iterate 0 and every iterate after a
    global solve are global passes; the span's two scans of the mask and
    the residual's max and min read the whole grid at every iterate. On the fig1c
    preset's 2^16 nodes to t=1, 100 of the 259 solves are global and the
    other 159 solve on 6,635 nodes on average; 200 of the 359 residuals
    are global.

    `values` (one sample per node, read as float64) is never written; the
    step returns a new array. gamma must lie in (0, 1], dt and eps_reg must
    be finite and > 0 and max_iter an integer >= 1 (ParameterOutOfRange
    otherwise). A NaN or infinite input raises ValidationFailed, and so does
    a grid whose floor system fails its gate (r = dt / dx^2 or the floor
    band 2 r F not finite), which the step builds before it makes any
    NewtonWork, the check that FastDiffusion.check runs once for a run;
    every gate runs before any work, and every update is checked to be
    finite, so the solve scans nothing itself (a NaN or infinite update
    raises SolverSingular, with `values` untouched). Each solve is one
    solve_banded call on views of the bands and the right-hand side, which
    it solves in place: LAPACK's dgtsv, where a zero pivot raises
    SolverSingular, or the floor factors below.

    Outside the span, the Jacobian of a global solve is the same floor
    matrix, tridiag(-c, 1 + 2c, -c) with Neumann ends, at every step of one
    dt. work.floor, a _FloorLU keyed by (gamma, eps_reg, dt, dx), owns that
    floor system: r, its band column, the scale (-r, 2r, -r) of the other
    columns, its end diagonal, M, and the LU factors of the matrix, built by
    dgttrf at the key's second global solve. Each later global solve
    refactors only the rows [first - 1, end + M) and solves with dgttrs:
    without row interchanges, which this column-diagonally dominant matrix
    never needs, those two routines make dgtsv's operations in its order, so
    the trajectory stays bitwise. A solve falls back to dgtsv for an empty
    span or one at a box end, a block of n/4 rows or more, a pivot, or a
    factor recurrence that has not settled inside the block; a step at
    another dt (a landing step) builds and gates a new floor system, and a
    step at the key of work.floor reuses it and re-checks nothing. So a call
    that solves globally once factors nothing. On the fig1c body to t=1, 99
    of the 100 global solves reuse the factors; on the full preset to t=20,
    628 of the 2,000 do, until the span outgrows a quarter of the grid.

    Apart from the returned state, the step allocates nothing per Newton
    iterate: every pass writes into `work`, a NewtonWork(grid.n).
    DispersalStepper owns one for its run; without `work` the call builds
    its own and uses it in the same way. Work that is not a NewtonWork
    raises ValidationFailed, and one for another node count LengthMismatch.
    """
    FastDiffusion(gamma)  # validates gamma's range
    u0 = _fast_state(values, grid, dt)
    _require_count("max_iter", max_iter)
    if work is not None and not isinstance(work, NewtonWork):
        raise ValidationFailed(f"Newton work must be a NewtonWork, got {type(work).__name__}")
    if work is not None and work.w.size != grid.n:
        raise LengthMismatch(f"Newton work for {work.w.size} nodes on a grid of {grid.n}")
    floor = None if work is None else work.floor
    if floor is None or floor.key != (gamma, eps_reg, dt, grid.dx):
        # a new key's floor system, which is its gate, before any work is made
        floor = _FloorLU(gamma, eps_reg, dt, grid)
    if work is None:
        work = NewtonWork(grid.n)
    work.floor = floor
    u = u0.copy()
    n, r = grid.n, floor.r
    ab, rhs = work.ab, work.rhs
    # band column j is d[j] * floor.scale plus 1 on the diagonal, so every
    # column below the floor is the floor system's constant floor.column
    lo, hi = 0, n  # iterate 0 and the first solve of a step are global
    # one residual more than solves, so the last iterate is always tested
    for solves in range(max_iter + 1):
        # the last solve changed u on [lo, hi) only, so w and d are redone
        # there and the residual one row further out
        w, d, first, end = _kirchhoff(u, gamma, eps_reg, work, lo, hi)
        _newton_rhs(u, u0, w, r, rhs, max(lo - 1, 0), min(hi + 1, n))
        # max|rhs| and where it lies, without an abs temporary
        top, bottom = int(rhs.argmax()), int(rhs.argmin())
        residual = max(rhs[top], -rhs[bottom])
        if residual <= _NEWTON_TOL:
            break
        if solves == max_iter:
            raise SolverNotConverged(
                f"fast-diffusion Newton residual {residual:.3g} > tol={_NEWTON_TOL:g} "
                f"after max_iter={max_iter} solves (gamma={gamma:g}, dt={dt:g})"
            )
        if solves:
            lo, hi = max(first - floor.margin, 0), min(end + floor.margin, n)
            worst = top if rhs[top] >= -rhs[bottom] else bottom
            if not lo <= worst < hi:
                lo, hi = 0, n
        # the solve overwrites the bands, so every solve refills its columns
        ab[:, lo:first] = floor.column
        np.multiply(d[first:end], floor.scale, out=ab[:, first:end])
        ab[1, first:end] += 1.0
        ab[:, end:hi] = floor.column
        if lo == 0:
            ab[1, 0] = 1.0 + r * d[0]
        if hi == n:
            ab[1, -1] = 1.0 + r * d[-1]
        du = solve_banded(ab[:, lo:hi], rhs[lo:hi],
                          floor=(floor, first, end) if hi - lo == n else None)
        # max and min propagate NaN, and max - min is finite only when both are
        if not math.isfinite(float(du.max()) - float(du.min())):
            raise SolverSingular("non-finite update in fast-diffusion solve")
        u[lo:hi] += du
    return u


def _packed_multiplier(f: np.ndarray) -> tuple:
    """Coefficients (a, b) that apply a real multiplier through a half-length
    complex transform.

    f holds one real value per real-transform bin of an n-node grid (n//2 + 1
    values, n a power of two). With N = n/2, view a real array x as the N
    complex samples x[2j] + i x[2j+1] and let z = fft of that view; then

        ifft(a * z + b * conj(z[(N - k) mod N]), norm="forward"), viewed as n reals,

    equals irfft(f * rfft(x)) in exact arithmetic (the real-to-complex
    packing identity). With theta_k = 2 pi k / n, g_k = f[N - k] (g_0 = f[N],
    the Nyquist bin), p = (f[k] + g_k)/2 and q = (f[k] - g_k)/2:

        a_k = (p - q sin theta_k) / N   (real)
        b_k = i q cos theta_k / N       (imaginary)

    N is a power of two, so folding 1/N into a and b is exact.
    """
    half = f.size - 1
    theta = np.pi * np.arange(half) / half
    g = f[half:0:-1]
    p = 0.5 * (f[:half] + g)
    q = 0.5 * (f[:half] - g)
    return (p - q * np.sin(theta)) / half, 1j * (q * np.cos(theta) / half)


def substep_count(largest_m: float, gamma: float, dt: float, eps_reg: float) -> int:
    """Sub-cycles of one fractional-fast-diffusion step of length dt, from
    the symbol's largest |m| (_largest_m, a float): the least count n_sub
    that keeps the stiffest linearized mode at
    (dt/n_sub) * largest_m * gamma * eps_reg^(gamma-1) <= 1/2. A count above
    10^6, or a stiffness dt * largest_m * gamma * eps_reg^(gamma-1) that is
    not finite (an infinite largest_m, or a power of eps_reg above the float
    range), raises ParameterOutOfRange. FractionalFastDiffusion.check and
    fractional_fast_diffusion_step make the same call,
    substep_count(_largest_m(alpha, grid, dt), gamma, dt, eps_reg), so a
    step counts exactly what the run's gate counted. The count grows with
    dt, so the gate at the run's dt bounds every step of the run.
    ParameterOutOfRange unless 0 < eps_reg < inf, tested first."""
    if not 0 < eps_reg < math.inf:
        raise ParameterOutOfRange(f"eps_reg must be finite and > 0, got {eps_reg!r}")
    try:
        stiffness = largest_m * gamma * eps_reg ** (gamma - 1.0)
    except OverflowError:  # eps_reg ** (gamma - 1) above the float range
        stiffness = math.inf
    needed = dt * stiffness / 0.5
    if not math.isfinite(needed):
        raise ParameterOutOfRange(
            f"sub-cycle stiffness dt * max|m| * gamma * eps_reg^(gamma-1) = {dt * stiffness!r} "
            "is not finite; reduce dt, coarsen the grid, or raise eps_reg"
        )
    n_sub = max(1, int(math.ceil(needed)))
    if n_sub > 1_000_000:
        raise ParameterOutOfRange(
            f"stability bound requires {n_sub} sub-steps for this dt/grid; "
            "reduce dt, coarsen the grid, or raise eps_reg"
        )
    return n_sub


def fractional_fast_diffusion_step(
    values,
    alpha: float,
    gamma: float,
    dt: float,
    grid: Grid,
    *,
    eps_reg: float = EPS_REG,
) -> np.ndarray:
    """Explicit sub-cycled step of u_t = -(-Lap)^alpha (u^gamma).

    Repeats n_sub times: w = max(u, eps)^gamma, then u += (dt/n_sub) * D_alpha w,
    with n_sub = substep_count(_largest_m(alpha, grid, dt), gamma, dt,
    eps_reg), the call FractionalFastDiffusion.check makes: the least count
    that keeps the stiffest linearized mode at
    (dt/n_sub) * |m|_max * gamma * eps^(gamma-1) <= 1/2. Values and result as
    in fast_diffusion_step. dt and eps_reg must be finite and > 0 and the
    count at most 10^6 (ParameterOutOfRange otherwise), and the symbol's
    largest |m| * dt finite (ValidationFailed), all before any sub-cycle.

    Each sub-cycle applies the multiplier f = (dt/n_sub) * m through one pair
    of half-length complex transforms (see _packed_multiplier): w is viewed
    as n/2 complex samples, fft, one unpack pass with the coefficients a and
    b, ifft with norm="forward". a and b are built once per call, with the
    substep length tau = dt/n_sub and the 1/(n/2) scaling folded in, so no
    pass scales by tau. Each sub-cycle equals the real-transform form
    u += tau * irfft(m * rfft(w)) up to roundoff: a few ulp, which stays
    below 1e-13 over a call (the two forms are not bitwise equal).

    The two transforms are scipy's pocketfft extension (_pocketfft): a
    forward c2c and a backward c2c without scaling, bitwise np.fft's fft
    and its ifft with norm="forward", but with the plan built once for the
    process instead of at each call: a 4,096-point c2c with `out` took
    30.9 us against np.fft.fft's 40.7 us (timeit minima, 2-core Xeon), and
    the ffd-subcycle benchmark makes about 117 pairs a step. The extension
    loads without scipy's package __init__ files; DispersalStepper loads it
    at set-up.
    """
    spec = FractionalFastDiffusion(alpha, gamma)  # validates the parameter gate
    u0 = _fast_state(values, grid, dt)
    n_sub = substep_count(_largest_m(spec.alpha, grid, dt), gamma, dt, eps_reg)
    m = build_symbol(FractionalLaplacian(spec.alpha), grid)
    a, b = _packed_multiplier((dt / n_sub) * m)
    c2c = _pocketfft().c2c
    u = u0.copy()
    w = np.empty_like(u)
    du = np.empty_like(u)
    z = np.empty(a.size, dtype=complex)
    t = np.empty_like(z)
    w_packed, du_packed = w.view(complex), du.view(complex)
    for _ in range(n_sub):
        np.maximum(u, eps_reg, out=w)
        np.power(w, gamma, out=w)
        c2c(w_packed, None, True, 0, z, 1)
        # t = conj(z[(N - k) mod N])
        np.conjugate(z[:0:-1], out=t[1:])
        t[0] = z[0].conjugate()
        t *= b
        np.multiply(z, a, out=z)
        z += t
        c2c(z, None, False, 0, du_packed, 1)
        u += du
    return u
