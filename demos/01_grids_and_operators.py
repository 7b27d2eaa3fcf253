"""Tour of the spatial discretization and the dispersal operators.

Builds a periodic grid, inspects transform-space symbols for the linear
operators, and verifies two consistency facts numerically: the spectral
convolution agrees with a direct quadrature, and cosine modes decay at
exactly the rate the symbol prescribes.

Run:  python demos/01_grids_and_operators.py
"""

import numpy as np

import fastfronts as ff

# A grid is the periodic box [-L, L) with a power-of-two node count.
grid = ff.make_grid(L=50.0, N=1024)
print(f"grid: {grid}, spacing dx = {grid.dx:.4f}")
print(f"frequencies run from 0 to {grid.xi[grid.n // 2]:.2f} in steps of {grid.xi[1]:.4f}")

# Every linear operator is a real nonpositive multiplier per frequency that
# vanishes at frequency zero (so the spatial mean is conserved exactly).
operators = {
    "half Laplacian (alpha=0.5)": ff.FractionalLaplacian(0.5),
    "nearly classical (alpha=0.9)": ff.FractionalLaplacian(0.9),
    "classical Laplacian": ff.StandardLaplacian(),
    "fat-tailed smoothing": ff.Convolution(ff.StretchedExponential(a=0.5, b=1.0)),
}
print("\nsymbol values at a few frequencies:")
print(f"{'operator':32s}  m(xi_1)      m(xi_8)      m(xi_64)")
for name, spec in operators.items():
    sym = ff.build_symbol(spec, grid)
    print(f"{name:32s}  {sym[1]:+.4e}  {sym[8]:+.4e}  {sym[64]:+.4e}")

# The fat-tailed kernel of the figure presets is exp(-sqrt|x|)/4; its
# analytic mass is exactly 1. It is sampled as exact cell averages, so the
# discrete mass misses only the tail beyond the box.
kernel = ff.StretchedExponential(a=0.5, b=1.0)
print(f"\nkernel amplitude (unit-mass constant): {kernel.amplitude}")
print(f"discrete mass on this grid before rescaling: {ff.kernel_discrete_mass(kernel, grid):.6f}")

# Spectral application of the smoothing operator vs direct summation.
rng = np.random.default_rng(0)
field = ff.Field(grid, rng.random(grid.n))
sym = ff.build_symbol(ff.Convolution(kernel), grid)
direct = ff.convolve_direct(field, kernel, grid).values
spectral = ff.apply_symbol(field, sym).values
print(f"\nspectral vs direct convolution sup-difference: {np.max(np.abs(direct - spectral)):.2e}")

# Cosine modes are eigenfunctions of the linear semigroup step.
mode = 8
xi = grid.xi[mode]
wave = ff.Field(grid, 0.5 + 0.4 * np.cos(xi * grid.x))
alpha, dt = 0.9, 0.1
stepped = ff.DispersalStepper(ff.FractionalLaplacian(alpha), grid).step_values(wave.values, dt)
predicted = 0.5 + 0.4 * np.exp(-abs(xi) ** (2 * alpha) * dt) * np.cos(xi * grid.x)
print(f"eigenfunction decay error at mode {mode}: "
      f"{np.max(np.abs(stepped - predicted)):.2e}")
