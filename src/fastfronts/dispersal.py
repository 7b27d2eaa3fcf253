"""Dispersal operators: transform-space symbols for the linear operators,
implicit and sub-cycled schemes for the nonlinear fast diffusions, and slow
direct-quadrature oracles used by the tests. The exact semigroup step of a
linear operator lives in integrator.DispersalStepper.

Linear operators are represented by a real multiplier per frequency:

    fractional power of the Laplacian   m(xi) = -|xi|^(2 alpha)
    kernel smoothing minus identity     m(xi) = Jhat(xi) - 1

where Jhat is the transform of the kernel's grid samples: exact cell averages
for the stretched exponential, node values for the other kernels. The
classical Laplacian is the fractional power alpha = 1, with multiplier -xi^2.
Every symbol vanishes at frequency zero (mass neutrality) and is nonpositive
(dissipativity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    IoFailure,
    LengthMismatch,
    NonlinearVariant,
    ParameterOutOfRange,
    SolverSingular,
    ValidationFailed,
)
from .grid import Field, Grid

__all__ = [
    "EPS_REG",
    "StretchedExponential",
    "AlgebraicTail",
    "TabulatedKernel",
    "KernelSpec",
    "load_kernel_table",
    "sample_kernel",
    "kernel_discrete_mass",
    "FractionalLaplacian",
    "Convolution",
    "StandardLaplacian",
    "FastDiffusion",
    "FractionalFastDiffusion",
    "DispersalSpec",
    "LINEAR_VARIANTS",
    "Symbol",
    "build_symbol",
    "apply_symbol",
    "convolve_direct",
    "fast_diffusion_step",
    "fractional_fast_diffusion_step",
]

# Regularization floor for the degenerate coefficient u^(gamma-1) at u = 0.
EPS_REG = 1e-8


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StretchedExponential:
    """Kernel c * exp(-b |x|^a) with 0 < a < 1, b > 0.

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
        if not self.b > 0.0:
            raise ParameterOutOfRange(f"stretched-exponential rate b={self.b!r} must be > 0")

    @property
    def amplitude(self) -> float:
        return self.b ** (1.0 / self.a) / (2.0 * math.gamma(1.0 + 1.0 / self.a))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-self.b * np.abs(x) ** self.a)

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
    """Kernel c / (1 + |x|^p) with p > 2, unit analytic mass."""

    p: float
    normalize: bool = True

    def __post_init__(self):
        if not self.p > 2.0:
            raise ParameterOutOfRange(f"algebraic-tail exponent p={self.p!r} must be > 2")

    @property
    def amplitude(self) -> float:
        # integral of 1/(1+|x|^p) over the line is (2 pi / p) / sin(pi / p)
        return self.p * math.sin(math.pi / self.p) / (2.0 * math.pi)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude / (1.0 + np.abs(x) ** self.p)

    def grid_samples(self, grid: Grid) -> np.ndarray:
        """Node values J(x_i); the kernel is smooth at the origin for p > 2."""
        return self.evaluate(grid.x)


@dataclass(frozen=True)
class TabulatedKernel:
    """Kernel given by (x, J(x)) samples; linear interpolation, zero outside."""

    x: tuple = field(repr=False)
    j: tuple = field(repr=False)
    normalize: bool = True

    def __repr__(self) -> str:
        return f"TabulatedKernel(<{len(self.x)} samples>, normalize={self.normalize})"

    @classmethod
    def from_arrays(cls, x, j, normalize: bool = True) -> "TabulatedKernel":
        x = np.asarray(x, dtype=float)
        j = np.asarray(j, dtype=float)
        if x.ndim != 1 or x.shape != j.shape or x.size < 2:
            raise ValidationFailed("tabulated kernel needs two equal-length 1D columns")
        if not np.all(np.diff(x) > 0):
            raise ValidationFailed("tabulated kernel abscissae must be strictly increasing")
        if np.any(j < 0):
            raise ValidationFailed("tabulated kernel must be nonnegative")
        mirrored = np.interp(-x, x, j, left=0.0, right=0.0)
        scale = max(j.max(), 1.0)
        if np.max(np.abs(mirrored - j)) > 1e-9 * scale:
            raise ValidationFailed("tabulated kernel must be even: J(x) = J(-x)")
        return cls(tuple(x.tolist()), tuple(j.tolist()), normalize)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, np.asarray(self.x), np.asarray(self.j), left=0.0, right=0.0)

    def grid_samples(self, grid: Grid) -> np.ndarray:
        """Node values J(x_i); on a table aligned with the grid, dx * sum is
        the exact mass of the piecewise-linear interpolant."""
        return self.evaluate(grid.x)


KernelSpec = Union[StretchedExponential, AlgebraicTail, TabulatedKernel]


def load_kernel_table(path, normalize: bool = True) -> TabulatedKernel:
    """Load a kernel from two-column whitespace-separated text (x, J(x))."""
    try:
        data = np.loadtxt(path, dtype=float, ndmin=2)
    except OSError as exc:
        raise IoFailure(f"cannot read kernel table {path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationFailed(f"malformed kernel table {path}: {exc}") from exc
    if data.shape[1] != 2:
        raise ValidationFailed(f"kernel table {path} must have exactly two columns")
    return TabulatedKernel.from_arrays(data[:, 0], data[:, 1], normalize)


def _raw_samples(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """The kernel's own grid samples, before any rescaling."""
    vals = np.asarray(kernel.grid_samples(grid), dtype=float)
    if np.any(vals < 0):
        raise ValidationFailed("kernel samples must be nonnegative")
    return vals


def sample_kernel(kernel: KernelSpec, grid: Grid) -> np.ndarray:
    """Sample a kernel on the grid, rescaled to unit discrete mass dx * sum(J).

    The samples are the kernel's grid_samples: exact cell averages for the
    stretched exponential, node values for the other kernels. When the
    kernel's normalize flag is unset the raw samples are returned, exposing
    the mass they miss against the analytic normalization.
    """
    vals = _raw_samples(kernel, grid)
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
    return float(grid.dx * _raw_samples(kernel, grid).sum())


def _offset_layout(node_values: np.ndarray) -> np.ndarray:
    """Reorder node samples J(x_i) into periodic-offset order J(0), J(dx), ..."""
    return np.fft.ifftshift(node_values)


# ---------------------------------------------------------------------------
# operator specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionalLaplacian:
    """Fractional power of the Laplacian, multiplier -|xi|^(2 alpha), 0 < alpha <= 1."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterOutOfRange(f"fractional exponent alpha={self.alpha!r} not in (0,1]")


@dataclass(frozen=True)
class Convolution:
    """Kernel smoothing minus identity: J*u - u with an even unit-mass kernel."""

    kernel: KernelSpec


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


DispersalSpec = Union[FractionalLaplacian, Convolution, FastDiffusion, FractionalFastDiffusion]

LINEAR_VARIANTS = (FractionalLaplacian, Convolution)


# ---------------------------------------------------------------------------
# symbols and linear steps
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Symbol:
    """Real multiplier per frequency bin (FFT layout) for a linear operator."""

    grid: Grid
    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (self.grid.n,):
            raise LengthMismatch("symbol length does not match grid")
        self.m = m

    @property
    def m_half(self) -> np.ndarray:
        """Multipliers on the real-transform bins 0..n/2."""
        return self.m[: self.grid.n // 2 + 1]


def build_symbol(spec: DispersalSpec, grid: Grid) -> Symbol:
    """Transform-space multiplier of a linear dispersal operator.

    Raises NonlinearVariant for the fast-diffusion operators, which have no
    symbol. For kernels left unnormalized the zero-frequency value reports the
    raw discrete-mass defect instead of being pinned to zero.
    """
    if isinstance(spec, FractionalLaplacian):
        if spec.alpha == 1.0:
            m = -(grid.xi * grid.xi)
        else:
            m = -np.power(grid.xi * grid.xi, spec.alpha)
        return Symbol(grid, m)
    if isinstance(spec, Convolution):
        samples = sample_kernel(spec.kernel, grid)
        jhat = grid.dx * np.fft.fft(_offset_layout(samples)).real
        m = jhat - 1.0
        if spec.kernel.normalize:
            # mass neutrality and dissipativity hold analytically; pin away
            # the last-ulp roundoff so downstream invariants are exact
            m[0] = 0.0
            np.minimum(m, 0.0, out=m)
        return Symbol(grid, m)
    raise NonlinearVariant(f"{type(spec).__name__} has no transform-space symbol")


def apply_symbol(field: Field, symbol: Symbol) -> Field:
    """Evaluate the linear operator itself (not its semigroup) on a field."""
    if field.grid.n != symbol.grid.n:
        raise LengthMismatch("field and symbol live on different grids")
    out = np.fft.irfft(np.fft.rfft(field.values) * symbol.m_half)
    return Field(field.grid, out)


def convolve_direct(field: Field, kernel: KernelSpec, grid: Grid) -> Field:
    """O(N^2) direct sum dx * sum_j J_(i-j) u_j - u_i with periodic wrap.

    Test oracle for the transform path: it sums the same samples that
    build_symbol transforms (sample_kernel), so it checks the transform, not
    the sampling. Memory grows as N^2, so keep N small.
    """
    if field.grid.n != grid.n:
        raise LengthMismatch("field does not match grid")
    n = grid.n
    offsets = _offset_layout(sample_kernel(kernel, grid))
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    smooth = grid.dx * (offsets[idx] @ field.values)
    return Field(grid, smooth - field.values)


# ---------------------------------------------------------------------------
# nonlinear fast diffusion
# ---------------------------------------------------------------------------

def _kirchhoff(u: np.ndarray, gamma: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Monotone potential w and its slope d = gamma * max(u, eps)^(gamma - 1).

    w equals u^gamma above the floor and continues linearly below it, so it is
    defined and increasing on the whole line (Newton iterates may leave [0,1]).
    One power per call: with m = max(u, eps) and p = m^gamma, d = gamma * p / m.
    """
    d = np.maximum(u, eps)
    w = d ** gamma
    np.divide(w, d, out=d)
    d *= gamma
    lo = np.subtract(u, eps)
    lo *= gamma * eps ** (gamma - 1.0)
    lo += eps ** gamma
    np.copyto(w, lo, where=u < eps)
    return w, d


def _lap_neumann(w: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """Zero-flux second difference ((w[i-1] - 2 w[i]) + w[i+1]) / dx^2, into out."""
    inner = out[1:-1]
    np.multiply(w[1:-1], 2.0, out=inner)
    np.subtract(w[:-2], inner, out=inner)
    inner += w[2:]
    out[0] = w[1] - w[0]
    out[-1] = w[-2] - w[-1]
    out /= dx**2
    return out


def _require_finite(field: Field) -> None:
    if not np.isfinite(field.values).all():
        raise ValidationFailed("field holds a NaN or an infinite value")


def fast_diffusion_step(
    field: Field,
    gamma: float,
    dt: float,
    grid: Grid,
    *,
    eps_reg: float = EPS_REG,
    max_iter: int = 40,
    tol: float = 1e-13,
) -> Field:
    """One backward-Euler step of u_t = d/dx( D(u) du/dx ), D = gamma*max(u,eps)^(gamma-1).

    Homogeneous Neumann ends. The step solves u - dt * Lap(w(u)) = u0 for the
    Kirchhoff potential w by Newton's method: each iterate evaluates w and its
    slope with one power, then makes one tridiagonal direct solve with the
    Jacobian at the current iterate. By default the iteration is driven to
    convergence, which makes the step order-preserving; max_iter=1 reproduces
    the plain single lagged solve. Discrete mass dx * sum(u) is conserved up to
    the iteration residual.

    A NaN or infinite input raises ValidationFailed before any work, and every
    update is checked to be finite, so the solve skips scipy's own finiteness
    scan of its inputs.
    """
    if field.grid.n != grid.n:
        raise LengthMismatch("field does not match grid")
    if not (0.0 < gamma <= 1.0):
        raise ParameterOutOfRange(f"gamma={gamma!r} not in (0,1]")
    if not dt > 0:
        raise ParameterOutOfRange(f"fast-diffusion step needs dt > 0, got {dt!r}")
    _require_finite(field)
    u0 = field.values
    u = u0.copy()
    r = dt / grid.dx**2
    # the solve overwrites the bands, so every iterate refills all of them;
    # the two corners are never read by the tridiagonal solver
    ab = np.empty((3, grid.n))
    ab[0, 0] = ab[2, -1] = 0.0
    rhs = np.empty(grid.n)
    for _ in range(max_iter):
        w, d = _kirchhoff(u, gamma, eps_reg)
        # rhs is minus the Newton residual u - dt * Lap(w) - u0
        _lap_neumann(w, grid.dx, out=rhs)
        rhs *= dt
        rhs -= u
        rhs += u0
        if np.max(np.abs(rhs)) <= tol:
            break
        np.multiply(d[1:], -r, out=ab[0, 1:])
        np.multiply(d, 2.0 * r, out=ab[1])
        ab[1] += 1.0
        ab[1, 0] = 1.0 + r * d[0]
        ab[1, -1] = 1.0 + r * d[-1]
        np.multiply(d[:-1], -r, out=ab[2, :-1])
        try:
            du = solve_banded(
                (1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True, check_finite=False
            )
        except np.linalg.LinAlgError as exc:  # pragma: no cover - D >= 0 keeps this away
            raise SolverSingular(str(exc)) from exc
        if not np.all(np.isfinite(du)):
            raise SolverSingular("non-finite update in fast-diffusion solve")
        u += du
    return Field(grid, u)


def fractional_fast_diffusion_step(
    field: Field,
    alpha: float,
    gamma: float,
    dt: float,
    grid: Grid,
    *,
    eps_reg: float = EPS_REG,
    n_sub: int | None = None,
) -> Field:
    """Explicit sub-cycled step of u_t = -(-Lap)^alpha (u^gamma).

    Repeats n_sub times: w = max(u, eps)^gamma, then u += (dt/n_sub) * D_alpha w,
    with the substep count chosen so the stiffest linearized mode satisfies
    (dt/n_sub) * |m|_max * gamma * eps^(gamma-1) <= 1/2.
    """
    spec = FractionalFastDiffusion(alpha, gamma)  # validates the parameter gate
    if field.grid.n != grid.n:
        raise LengthMismatch("field does not match grid")
    if not dt > 0:
        raise ParameterOutOfRange(f"sub-cycled step needs dt > 0, got {dt!r}")
    _require_finite(field)
    symbol = build_symbol(FractionalLaplacian(spec.alpha), grid)
    if n_sub is None:
        stiffness = float(np.max(np.abs(symbol.m))) * gamma * eps_reg ** (gamma - 1.0)
        n_sub = max(1, int(math.ceil(dt * stiffness / 0.5)))
        if n_sub > 1_000_000:
            raise ParameterOutOfRange(
                f"stability bound requires {n_sub} sub-steps for this dt/grid; "
                "reduce dt, coarsen the grid, or raise eps_reg"
            )
    elif n_sub < 1:
        raise ParameterOutOfRange(f"n_sub must be >= 1, got {n_sub!r}")
    tau = dt / n_sub
    m_half = symbol.m_half
    u = field.values.copy()
    for _ in range(n_sub):
        w = np.maximum(u, eps_reg) ** gamma
        u = u + tau * np.fft.irfft(np.fft.rfft(w) * m_half)
    return Field(grid, u)
