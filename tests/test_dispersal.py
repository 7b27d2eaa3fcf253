"""Dispersal operator tests: symbol values and invariants, semigroup
eigenfunction relations of the integrator's linear stepper, direct-quadrature
convolution oracles, and the nonlinear fast-diffusion steps against
independent dense solves.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import fastfronts as ff
from fastfronts.dispersal import _kirchhoff, sample_kernel


def semigroup(spec, field, dt):
    """Exact linear dispersal step over dt, through the integrator's stepper."""
    return ff.DispersalStepper(spec, field.grid).step_values(field.values, dt)


@pytest.fixture
def unit_grid():
    # L = pi makes xi_k = k, so symbol values sit at integer frequencies
    return ff.make_grid(np.pi, 16)


class TestSymbols:
    def test_fractional_value(self, unit_grid):
        sym = ff.build_symbol(ff.FractionalLaplacian(0.5), unit_grid)
        assert sym.m[2] == -2.0  # -|2|^(2*0.5)

    def test_standard_value(self, unit_grid):
        sym = ff.build_symbol(ff.StandardLaplacian(), unit_grid)
        assert sym.m[3] == -9.0

    def test_alpha_one_matches_standard_exactly(self):
        g = ff.make_grid(37.0, 256)
        frac = ff.build_symbol(ff.FractionalLaplacian(1.0), g)
        std = ff.build_symbol(ff.StandardLaplacian(), g)
        assert np.array_equal(frac.m, std.m)

    @pytest.mark.parametrize(
        "spec",
        [
            ff.FractionalLaplacian(0.25),
            ff.FractionalLaplacian(0.9),
            ff.StandardLaplacian(),
            ff.Convolution(ff.StretchedExponential(0.5, 1.0)),
            ff.Convolution(ff.AlgebraicTail(3.0)),
        ],
    )
    def test_symbol_invariants(self, spec):
        g = ff.make_grid(150.0, 2**10)
        sym = ff.build_symbol(spec, g)
        assert sym.m[0] == 0.0
        assert np.all(sym.m <= 0.0)

    def test_nonlinear_variant_rejected(self, unit_grid):
        with pytest.raises(ff.NonlinearVariant):
            ff.build_symbol(ff.FastDiffusion(0.5), unit_grid)
        with pytest.raises(ff.NonlinearVariant):
            ff.build_symbol(ff.FractionalFastDiffusion(0.6, 0.5), unit_grid)

    def test_fig1b_kernel_mass_near_unity(self):
        # exp(-sqrt|x|)/4 has unit analytic mass: closed form, checked by
        # quadrature, so the raw discrete mass measures pure grid error
        val, _ = quad(lambda t: np.exp(-np.sqrt(t)), 0, np.inf, limit=200)
        assert val == pytest.approx(2.0, abs=1e-7)
        kernel = ff.StretchedExponential(0.5, 1.0)
        assert kernel.amplitude == pytest.approx(0.25, abs=1e-15)
        g = ff.make_grid(200.0, 2**14)
        assert abs(ff.kernel_discrete_mass(kernel, g) - 1.0) < 1e-3

    def test_unnormalized_symbol_reports_raw_mass(self):
        kernel = ff.StretchedExponential(0.5, 1.0, normalize=False)
        g = ff.make_grid(200.0, 2**13)
        sym = ff.build_symbol(ff.Convolution(kernel), g)
        raw = ff.kernel_discrete_mass(kernel, g)
        assert sym.m[0] == pytest.approx(raw - 1.0, abs=1e-12)


class TestKernels:
    def test_parameter_gates(self):
        with pytest.raises(ff.ParameterOutOfRange):
            ff.StretchedExponential(1.2, 1.0)
        with pytest.raises(ff.ParameterOutOfRange):
            ff.StretchedExponential(0.5, -1.0)
        with pytest.raises(ff.ParameterOutOfRange):
            ff.AlgebraicTail(2.0)

    def test_algebraic_analytic_mass(self):
        kernel = ff.AlgebraicTail(4.0)
        val, _ = quad(lambda x: kernel.amplitude / (1 + abs(x) ** 4.0), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_normalized_sampling_has_unit_mass(self):
        g = ff.make_grid(100.0, 2**10)
        for kernel in (ff.StretchedExponential(0.7, 2.0), ff.AlgebraicTail(2.5)):
            vals = sample_kernel(kernel, g)
            assert g.dx * vals.sum() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("a, b", [(0.5, 1.0), (0.7, 2.0), (0.3, 1.0)])
    def test_stretched_samples_are_exact_cell_averages(self, a, b):
        kernel = ff.StretchedExponential(a, b, normalize=False)
        g = ff.make_grid(60.0, 2**9)
        vals = kernel.grid_samples(g)
        half = 0.5 * g.dx

        def cell_integral(lo, hi):
            val, _ = quad(kernel.evaluate, lo, hi, points=[0.0] if lo < 0 < hi else None,
                          epsabs=0.0, epsrel=1e-13, limit=200)
            return val

        centre = g.n // 2
        assert g.x[centre] == 0.0
        for i in (centre, centre + 3, g.n - 2):  # origin, nearby, far tail
            exact = cell_integral(g.x[i] - half, g.x[i] + half) / g.dx
            assert vals[i] == pytest.approx(exact, rel=1e-9)
        assert np.all(vals >= 0.0)
        # x[n-i] = -x[i] for i >= 1
        assert np.max(np.abs(vals[1:] - vals[1:][::-1])) < 1e-12
        left, _ = quad(kernel.evaluate, -g.L - half, 0.0, epsabs=0.0, epsrel=1e-13, limit=200)
        right, _ = quad(kernel.evaluate, 0.0, g.L - half, epsabs=0.0, epsrel=1e-13, limit=200)
        assert ff.kernel_discrete_mass(kernel, g) == pytest.approx(left + right, rel=1e-10)

    def test_tabulated_validation(self):
        xs = np.linspace(-5, 5, 41)
        good = ff.TabulatedKernel.from_arrays(xs, np.exp(-np.abs(xs)))
        assert good.evaluate(np.array([0.0]))[0] == 1.0
        with pytest.raises(ff.ValidationFailed):
            ff.TabulatedKernel.from_arrays(xs, np.exp(-xs))  # uneven
        with pytest.raises(ff.ValidationFailed):
            ff.TabulatedKernel.from_arrays(xs, -np.exp(-np.abs(xs)))  # negative
        with pytest.raises(ff.ValidationFailed):
            ff.TabulatedKernel.from_arrays(xs[::-1], np.exp(-np.abs(xs)))  # not increasing

    def test_table_loader(self, tmp_path):
        xs = np.linspace(-4, 4, 33)
        js = 1.0 / (1.0 + xs**4)
        path = tmp_path / "kernel.txt"
        np.savetxt(path, np.column_stack([xs, js]))
        kernel = ff.load_kernel_table(path)
        assert kernel.evaluate(np.array([1.0]))[0] == pytest.approx(0.5)
        with pytest.raises(ff.IoFailure):
            ff.load_kernel_table(tmp_path / "missing.txt")


class TestSemigroup:
    def test_constant_field_unchanged(self):
        g = ff.make_grid(20.0, 128)
        f = ff.Field.constant(g, 0.42)
        out = semigroup(ff.StandardLaplacian(), f, 0.7)
        assert np.max(np.abs(out - 0.42)) < 1e-14

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("mode", [1, 3, 11])
    def test_cosine_eigenfunction(self, alpha, mode):
        g = ff.make_grid(10.0, 256)
        xi = g.xi[mode]
        f = ff.Field.from_function(g, lambda x: 0.5 * np.cos(xi * x) + 0.5)
        dt = 0.05
        out = semigroup(ff.FractionalLaplacian(alpha), f, dt)
        decay = np.exp(-np.abs(xi) ** (2 * alpha) * dt)
        expected = 0.5 * decay * np.cos(xi * g.x) + 0.5
        scale = max(abs(0.5 * decay), 1e-30)
        assert np.max(np.abs(out - expected)) / scale < 1e-10

    def test_eigenfunction_vs_subcycled_euler_oracle(self):
        # independent route: many explicit-Euler substeps of u' = D u
        g = ff.make_grid(10.0, 128)
        alpha, dt = 0.6, 0.1
        sym = ff.build_symbol(ff.FractionalLaplacian(alpha), g)
        f = ff.Field.from_function(g, lambda x: 0.5 + 0.4 * np.cos(g.xi[2] * x))
        exact = semigroup(ff.FractionalLaplacian(alpha), f, dt)
        n_sub = 20000
        u = f.values.copy()
        for _ in range(n_sub):
            u = u + (dt / n_sub) * ff.apply_symbol(ff.Field(g, u), sym).values
        assert np.max(np.abs(u - exact)) < 1e-4  # O(dt/n_sub) route agrees

    def test_order_preserving_on_smooth_pairs(self):
        g = ff.make_grid(100.0, 2**9)
        rng = np.random.default_rng(21)
        spec = ff.FractionalLaplacian(0.9)
        for _ in range(10):
            u, v = ff.ordered_gaussian_pair(g, rng)
            su = semigroup(spec, u, 0.01)
            sv = semigroup(spec, v, 0.01)
            assert np.max(su - sv) <= 1e-12

    def test_order_preserving_on_rough_pairs_with_resolved_dt(self):
        # rough data excites the Nyquist band, where the discrete kernel can
        # ring; once the step damps that band the ordering is clean
        g = ff.make_grid(10.0, 64)
        rng = np.random.default_rng(22)
        spec = ff.FractionalLaplacian(0.5)
        dt = 5.0  # exp(-|xi_max| * dt) ~ 1e-22
        for _ in range(10):
            a = rng.random(64)
            b = np.minimum(a + rng.random(64) * (1 - a), 1.0)
            su = semigroup(spec, ff.Field(g, a), dt)
            sv = semigroup(spec, ff.Field(g, b), dt)
            assert np.max(su - sv) <= 1e-12


class TestConvolveDirect:
    def test_discrete_delta_kernel_is_identity(self):
        g = ff.make_grid(8.0, 64)
        # all kernel mass at x = 0: J * u == u so the operator vanishes
        xs = g.x
        js = np.zeros_like(xs)
        js[g.n // 2] = 1.0 / g.dx
        kernel = ff.TabulatedKernel.from_arrays(xs, js)
        rng = np.random.default_rng(1)
        f = ff.Field(g, rng.random(64))
        out = ff.convolve_direct(f, kernel, g)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_even_field_even_kernel_gives_even_output(self):
        g = ff.make_grid(30.0, 128)
        kernel = ff.StretchedExponential(0.5, 1.0)
        f = ff.Field.from_function(g, lambda x: np.exp(-x**2 / 17.0))
        out = ff.convolve_direct(f, kernel, g).values
        # node 0 (x = -L) is its own mirror; check the rest
        assert np.max(np.abs(out[1:] - out[1:][::-1])) < 1e-12

    def test_spectral_matches_direct(self):
        g = ff.make_grid(60.0, 512)
        kernel = ff.StretchedExponential(0.5, 1.0)
        sym = ff.build_symbol(ff.Convolution(kernel), g)
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(5):
            f = ff.Field(g, rng.random(512))
            direct = ff.convolve_direct(f, kernel, g).values
            spectral = ff.apply_symbol(f, sym).values
            worst = max(worst, float(np.max(np.abs(direct - spectral))))
        assert worst < 1e-8


class TestFastDiffusion:
    def test_constant_field_unchanged(self):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.3)
        out = ff.fast_diffusion_step(f, 0.5, 0.05, g)
        assert np.max(np.abs(out.values - 0.3)) < 1e-13

    def test_gamma_one_matches_dense_heat_oracle(self):
        g = ff.make_grid(20.0, 128)
        f = ff.Field.from_function(g, lambda x: np.exp(-x**2 / 4.0))
        dt = 0.02
        out = ff.fast_diffusion_step(f, 1.0, dt, g)
        # independent dense backward-Euler heat step with Neumann ends
        n, r = g.n, dt / g.dx**2
        A = np.diag(np.full(n, 1.0 + 2.0 * r))
        A[0, 0] = A[-1, -1] = 1.0 + r
        A += np.diag(np.full(n - 1, -r), 1) + np.diag(np.full(n - 1, -r), -1)
        oracle = np.linalg.solve(A, f.values)
        assert np.max(np.abs(out.values - oracle)) < 1e-10

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
    def test_mass_conserved_per_step(self, gamma):
        g = ff.make_grid(50.0, 256)
        f = ff.Field.from_function(g, lambda x: np.exp(-x**2 / 30.0))
        out = ff.fast_diffusion_step(f, gamma, 0.01, g)
        drift = abs(g.dx * out.values.sum() - g.dx * f.values.sum())
        assert drift < 1e-8

    def test_single_iteration_matches_lagged_solve(self):
        # max_iter=1 is the plain lagged-coefficient backward Euler
        g = ff.make_grid(30.0, 128)
        f = ff.Field.from_function(g, lambda x: (x < 0).astype(float))
        one = ff.fast_diffusion_step(f, 0.5, 0.01, g, max_iter=1)
        full = ff.fast_diffusion_step(f, 0.5, 0.01, g)
        gap = np.max(np.abs(one.values - full.values))
        assert 1e-12 < gap < 0.1  # differs measurably, same O(dt) ballpark

    def test_parameter_gates(self):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.5)
        with pytest.raises(ff.ParameterOutOfRange):
            ff.fast_diffusion_step(f, 1.5, 0.01, g)
        with pytest.raises(ff.ParameterOutOfRange):
            ff.fast_diffusion_step(f, 0.5, 0.0, g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_fails_loudly(self, bad):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.5)
        f.values[7] = bad
        with pytest.raises(ff.ValidationFailed):
            ff.fast_diffusion_step(f, 0.5, 0.01, g)

    @pytest.mark.parametrize("gamma", [0.3, 0.5])
    def test_matches_dense_newton_oracle(self, gamma):
        # a compact bump: its tails are exactly 0, so the first Newton iterate
        # sits below the eps floor there
        g = ff.make_grid(20.0, 128)
        f = ff.Field.from_function(g, lambda x: np.clip(1.0 - (x / 6.0) ** 2, 0.0, None))
        dt, eps = 0.05, ff.EPS_REG
        out = ff.fast_diffusion_step(f, gamma, dt, g)

        def phi(u):
            above = np.maximum(u, eps) ** gamma
            below = eps**gamma + gamma * eps ** (gamma - 1.0) * (u - eps)
            return np.where(u >= eps, above, below)

        # independent dense Newton solve of u - dt * Lap(phi(u)) = u0, Neumann ends
        n = g.n
        lap = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
               + np.diag(np.ones(n - 1), -1))
        lap[0, 0] = lap[-1, -1] = -1.0
        lap /= g.dx**2
        u0 = f.values
        u = u0.copy()
        for _ in range(100):
            residual = u - dt * lap @ phi(u) - u0
            if np.max(np.abs(residual)) <= 1e-13:
                break
            slope = gamma * np.maximum(u, eps) ** (gamma - 1.0)
            jac = np.eye(n) - dt * lap * slope[None, :]
            u = u - np.linalg.solve(jac, residual)
        else:
            pytest.fail("dense Newton oracle did not converge")
        assert np.max(np.abs(out.values - u)) < 1e-12


@pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
def test_kirchhoff_branches_and_slope(gamma):
    eps = 1e-4
    above = np.array([eps, 2 * eps, 0.3, 1.0, 1.7])
    below = np.array([-0.5, -eps, 0.0, 0.5 * eps, eps * (1 - 1e-9)])
    w, d = _kirchhoff(above, gamma, eps)
    np.testing.assert_allclose(w, above**gamma, rtol=1e-15)
    np.testing.assert_allclose(d, gamma * above ** (gamma - 1.0), rtol=1e-15)
    w, d = _kirchhoff(below, gamma, eps)
    line = eps**gamma + gamma * eps ** (gamma - 1.0) * (below - eps)
    np.testing.assert_allclose(w, line, rtol=1e-15)
    np.testing.assert_allclose(d, gamma * eps ** (gamma - 1.0), rtol=1e-15)
    # continuous at the floor: the two branches meet at eps
    left, _ = _kirchhoff(np.array([eps * (1 - 1e-12)]), gamma, eps)
    right, _ = _kirchhoff(np.array([eps * (1 + 1e-12)]), gamma, eps)
    assert abs(left[0] - eps**gamma) < 1e-11 * eps**gamma
    assert abs(right[0] - eps**gamma) < 1e-11 * eps**gamma


class TestFractionalFastDiffusion:
    def test_constant_field_unchanged(self):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.6)
        out = ff.fractional_fast_diffusion_step(f, 0.6, 0.5, 0.001, g)
        assert np.max(np.abs(out.values - 0.6)) < 1e-12

    def test_parameter_gate(self):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.5)
        with pytest.raises(ff.ParameterOutOfRange):
            # max(1 - 2*0.4, 0) = 0.2 > gamma = 0.1
            ff.fractional_fast_diffusion_step(f, 0.4, 0.1, 0.01, g)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nonfinite_input_fails_loudly(self, bad):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.5)
        f.values[7] = bad
        with pytest.raises(ff.ValidationFailed):
            ff.fractional_fast_diffusion_step(f, 0.6, 0.5, 0.001, g)

    def test_gamma_one_converges_to_semigroup_first_order(self):
        g = ff.make_grid(10.0, 128)
        f = ff.Field.from_function(g, lambda x: 0.5 + 0.3 * np.cos(g.xi[1] * x))
        alpha, dt = 0.75, 0.05
        exact = semigroup(ff.FractionalLaplacian(alpha), f, dt)
        errs = []
        for n_sub in (40, 80, 160):
            out = ff.fractional_fast_diffusion_step(f, alpha, 1.0, dt, g, n_sub=n_sub)
            errs.append(np.max(np.abs(out.values - exact)))
        rate1 = errs[0] / errs[1]
        rate2 = errs[1] / errs[2]
        assert 1.7 < rate1 < 2.3 and 1.7 < rate2 < 2.3  # O(dt/n_sub)
