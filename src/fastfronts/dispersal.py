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

Importing this module loads numpy only. scipy is imported where it is used:
scipy.linalg for the fast-diffusion tridiagonal solves (solve_banded below,
loaded when integrator.DispersalStepper is built for FastDiffusion) and
scipy.special for the stretched-exponential cell averages. The other
operators and kernels never load it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    IoFailure,
    LengthMismatch,
    NonlinearVariant,
    ParameterOutOfRange,
    SolverNotConverged,
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
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on an empty file
            data = np.loadtxt(path, dtype=float, ndmin=2)
    except OSError as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc
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

    def __post_init__(self):
        if not isinstance(self.kernel, KernelSpec):
            raise ValidationFailed(f"kernel {self.kernel!r} is not a fastfronts kernel spec")


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
        return -np.power(grid.xi * grid.xi, spec.alpha)
    if isinstance(spec, Convolution):
        samples = sample_kernel(spec.kernel, grid)
        # ifftshift reorders the node samples into offsets J(0), J(dx), ...;
        # fft cut to the real-transform bins (rfft differs in the last ulp)
        jhat = grid.dx * np.fft.fft(np.fft.ifftshift(samples))[: grid.xi.size].real
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
    out = np.fft.irfft(np.fft.rfft(field.values) * m, n=n)
    return Field(field.grid, out)


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

class NewtonWork:
    """Work arrays of the fast-diffusion Newton step on n nodes, passed to
    fast_diffusion_step as `work`: the Jacobian bands `ab` (3, n), the
    right-hand side `rhs` (which holds the power p while _kirchhoff runs),
    the potential `w`, its slope `d` and the mask `above` of nodes at or
    above the floor. The two band corners that the tridiagonal solve never
    reads are zeroed here; every iterate overwrites the rest."""

    __slots__ = ("ab", "rhs", "w", "d", "above")

    def __init__(self, n: int):
        self.ab = np.empty((3, n))
        self.ab[0, 0] = self.ab[2, -1] = 0.0
        self.rhs, self.w, self.d = np.empty(n), np.empty(n), np.empty(n)
        self.above = np.empty(n, dtype=bool)


def _kirchhoff(u: np.ndarray, gamma: float, eps: float, work: NewtonWork) -> tuple:
    """Monotone potential w and its slope d = gamma * max(u, eps)^(gamma - 1),
    written into work.w and work.d.

    w equals u^gamma above the floor and continues linearly below it, so it is
    defined and increasing on the whole line (Newton iterates may leave [0,1]).
    With m = max(u, eps) and p = m^gamma, d = gamma * p / m.

    The power is taken only on the span from the first node with u >= eps to
    the last one, read off the mask with one argmax from each end; when every
    node is below the floor the span is empty and its ufuncs do nothing. w is
    the line everywhere and the power branch is copied in where u >= eps;
    outside the span d is the floor slope, made by the same ufuncs on one
    element.
    Elementwise ufuncs do not depend on an element's position, so w and d are
    bitwise what the full-array formula gives.
    """
    p, w, d, above = work.rhs, work.w, work.d, work.above
    np.greater_equal(u, eps, out=above)
    first = int(above.argmax())
    end = u.size - int(above[::-1].argmax()) if above[first] else first
    np.subtract(u, eps, out=w)
    w *= gamma * eps ** (gamma - 1.0)
    w += eps ** gamma
    floor = np.full(1, eps)
    np.divide(np.power(floor, gamma), floor, out=floor)
    floor *= gamma
    d[:first] = d[end:] = floor[0]
    span = slice(first, end)
    ds, ps = d[span], p[span]
    np.maximum(u[span], eps, out=ds)
    np.power(ds, gamma, out=ps)
    np.divide(ps, ds, out=ds)
    ds *= gamma
    np.copyto(w[span], ps, where=above[span])
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


def solve_banded(l_and_u, ab, b, **kwargs) -> np.ndarray:
    """scipy.linalg.solve_banded, imported at the first call rather than with
    this module, so that operators without a banded solve never load
    scipy.linalg. fast_diffusion_step looks this name up at call time."""
    from scipy.linalg import solve_banded as banded

    return banded(l_and_u, ab, b, **kwargs)


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


def _fast_state(values, grid: Grid, dt: float, eps_reg: float) -> np.ndarray:
    """check_step, the eps_reg gate and a finiteness gate (ValidationFailed);
    returns the values as float64, the input itself when it already is."""
    check_step(values, grid, dt)
    if not 0 < eps_reg < math.inf:
        raise ParameterOutOfRange(f"eps_reg must be finite and > 0, got {eps_reg!r}")
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

    Homogeneous Neumann ends. The step solves u - dt * Lap(w(u)) = u0 for the
    Kirchhoff potential w by Newton's method: each iterate evaluates w and its
    slope, taking a power only on the span from the first node at or above
    eps_reg to the last one (a line and a constant slope outside it; early
    in a run that span is a small part of the box), then makes one
    tridiagonal direct solve with the Jacobian at the current iterate. The
    iteration is driven until the residual's max norm is at most 1e-13, which
    makes the step order-preserving; if the iterate after max_iter solves is
    still above it, the step raises SolverNotConverged instead of returning
    it, whatever max_iter is. Discrete mass dx * sum(u) is conserved up to
    the iteration residual.

    `values` (one sample per node, read as float64) is never written; the
    step returns a new array. gamma must lie in (0, 1], dt and eps_reg must
    be finite and > 0 and max_iter an integer >= 1 (ParameterOutOfRange
    otherwise). A NaN or infinite input raises ValidationFailed; every gate
    runs before any work, and every update is checked to be finite, so the
    solve skips scipy's own finiteness scan of its inputs.

    Apart from the returned state, the step allocates nothing per Newton
    iterate: every pass writes into `work`, a NewtonWork(grid.n).
    DispersalStepper owns one for its run; without `work` the call builds
    its own. Work that is not a NewtonWork raises ValidationFailed, and one
    for another node count LengthMismatch.
    """
    FastDiffusion(gamma)  # validates gamma's range
    u0 = _fast_state(values, grid, dt, eps_reg)
    _require_count("max_iter", max_iter)
    if work is None:
        work = NewtonWork(grid.n)
    elif not isinstance(work, NewtonWork):
        raise ValidationFailed(f"Newton work must be a NewtonWork, got {type(work).__name__}")
    elif work.w.size != grid.n:
        raise LengthMismatch(f"Newton work for {work.w.size} nodes on a grid of {grid.n}")
    u = u0.copy()
    r = dt / grid.dx**2
    ab, rhs = work.ab, work.rhs
    # one residual more than solves, so the last iterate is always tested
    for solves in range(max_iter + 1):
        w, d = _kirchhoff(u, gamma, eps_reg, work)
        # rhs is minus the Newton residual u - dt * Lap(w) - u0
        _lap_neumann(w, grid.dx, out=rhs)
        rhs *= dt
        rhs -= u
        rhs += u0
        # max|rhs| without an abs temporary
        residual = max(rhs.max(), -rhs.min())
        if residual <= _NEWTON_TOL:
            break
        if solves == max_iter:
            raise SolverNotConverged(
                f"fast-diffusion Newton residual {residual:.3g} > tol={_NEWTON_TOL:g} "
                f"after max_iter={max_iter} solves (gamma={gamma:g}, dt={dt:g})"
            )
        # the solve overwrites the bands, so every iterate refills all of them
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
        # max and min propagate NaN, and hi - lo is finite only when both are
        if not math.isfinite(float(du.max()) - float(du.min())):
            raise SolverSingular("non-finite update in fast-diffusion solve")
        u += du
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


def fractional_fast_diffusion_step(
    values,
    alpha: float,
    gamma: float,
    dt: float,
    grid: Grid,
    *,
    eps_reg: float = EPS_REG,
    n_sub: int | None = None,
) -> np.ndarray:
    """Explicit sub-cycled step of u_t = -(-Lap)^alpha (u^gamma).

    Repeats n_sub times: w = max(u, eps)^gamma, then u += (dt/n_sub) * D_alpha w,
    with the substep count chosen so the stiffest linearized mode satisfies
    (dt/n_sub) * |m|_max * gamma * eps^(gamma-1) <= 1/2; values and result as
    in fast_diffusion_step. dt and eps_reg must be finite and > 0, a given
    n_sub an integer >= 1 and a computed one at most 10^6
    (ParameterOutOfRange otherwise, before any sub-cycle).

    Each sub-cycle applies the multiplier f = (dt/n_sub) * m through one pair
    of half-length complex transforms (see _packed_multiplier): w is viewed
    as n/2 complex samples, fft, one unpack pass with the coefficients a and
    b, ifft with norm="forward". a and b are built once per call, with the
    substep length tau = dt/n_sub and the 1/(n/2) scaling folded in, so no
    pass scales by tau. Each sub-cycle equals the real-transform form
    u += tau * irfft(m * rfft(w)) up to roundoff: a few ulp, which stays
    below 1e-13 over a call (the two forms are not bitwise equal).
    """
    spec = FractionalFastDiffusion(alpha, gamma)  # validates the parameter gate
    u0 = _fast_state(values, grid, dt, eps_reg)
    if n_sub is not None:
        _require_count("n_sub", n_sub)
    m = build_symbol(FractionalLaplacian(spec.alpha), grid)
    if n_sub is None:
        stiffness = float(np.max(np.abs(m))) * gamma * eps_reg ** (gamma - 1.0)
        n_sub = max(1, int(math.ceil(dt * stiffness / 0.5)))
        if n_sub > 1_000_000:
            raise ParameterOutOfRange(
                f"stability bound requires {n_sub} sub-steps for this dt/grid; "
                "reduce dt, coarsen the grid, or raise eps_reg"
            )
    a, b = _packed_multiplier((dt / n_sub) * m)
    u = u0.copy()
    w = np.empty_like(u)
    du = np.empty_like(u)
    z = np.empty(a.size, dtype=complex)
    t = np.empty_like(z)
    w_packed, du_packed = w.view(complex), du.view(complex)
    for _ in range(n_sub):
        np.maximum(u, eps_reg, out=w)
        np.power(w, gamma, out=w)
        np.fft.fft(w_packed, out=z)
        # t = conj(z[(N - k) mod N])
        np.conjugate(z[:0:-1], out=t[1:])
        t[0] = z[0].conjugate()
        t *= b
        np.multiply(z, a, out=z)
        z += t
        np.fft.ifft(z, norm="forward", out=du_packed)
        u += du
    return u
