"""Dispersal operator tests: symbol values and invariants, semigroup
eigenfunction relations of the integrator's linear stepper, direct-quadrature
convolution oracles, and the nonlinear fast-diffusion steps against
independent dense solves.
"""

import inspect
import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import fastfronts as ff
from fastfronts.dispersal import (
    NewtonWork,
    _FloorLU,
    _kirchhoff,
    _newton_rhs,
    _packed_multiplier,
    _window_margin,
    sample_kernel,
    substep_count,
)


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
        assert sym[2] == -2.0  # -|2|^(2*0.5)

    def test_standard_value(self, unit_grid):
        sym = ff.build_symbol(ff.StandardLaplacian(), unit_grid)
        assert sym[3] == -9.0

    def test_alpha_one_matches_standard_exactly(self):
        g = ff.make_grid(37.0, 256)
        frac = ff.build_symbol(ff.FractionalLaplacian(1.0), g)
        std = ff.build_symbol(ff.StandardLaplacian(), g)
        assert np.array_equal(frac, std)

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
        assert sym.shape == g.xi.shape == (g.n // 2 + 1,)
        assert sym[0] == 0.0
        assert np.all(sym <= 0.0)

    def test_apply_symbol_checks_multiplier_length(self, unit_grid):
        field = ff.Field(unit_grid, np.zeros(unit_grid.n))
        m = ff.build_symbol(ff.StandardLaplacian(), ff.make_grid(np.pi, 32))
        with pytest.raises(ff.LengthMismatch):
            ff.apply_symbol(field, m)
        with pytest.raises(ff.LengthMismatch):
            ff.apply_symbol(field, np.zeros(unit_grid.n))  # one value per node, not per bin
        # a list is read as an array: one of the right length works, one of
        # the wrong length is a LengthMismatch
        wave = ff.Field(unit_grid, np.cos(unit_grid.x))
        m = ff.build_symbol(ff.StandardLaplacian(), unit_grid)
        assert np.array_equal(ff.apply_symbol(wave, list(m)).values, ff.apply_symbol(wave, m).values)
        with pytest.raises(ff.LengthMismatch):
            ff.apply_symbol(wave, [0.0] * (m.size + 1))

    def test_nonlinear_variant_rejected(self, unit_grid):
        with pytest.raises(ff.NonlinearVariant):
            ff.build_symbol(ff.FastDiffusion(0.5), unit_grid)
        with pytest.raises(ff.NonlinearVariant):
            ff.build_symbol(ff.FractionalFastDiffusion(0.6, 0.5), unit_grid)

    @pytest.mark.parametrize("call", [
        lambda g: ff.build_symbol(ff.FractionalLaplacian(0.5), g),
        lambda g: ff.DispersalStepper(ff.FractionalLaplacian(0.5), g),
        lambda g: ff.fractional_fast_diffusion_step(np.full(g.n, 0.5), 0.75, 0.8, 0.01, g),
    ], ids=["build_symbol", "DispersalStepper", "fractional_fast_diffusion_step"])
    def test_symbol_whose_largest_m_overflows_is_validation_failed(self, call):
        # xi * xi overflows on this grid: each call warned there (a bare
        # RuntimeWarning under -W error) and went on to an infinite symbol
        with pytest.raises(ff.ValidationFailed, match="largest"):
            call(ff.make_grid(1e-160, 8))

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
        assert sym[0] == pytest.approx(raw - 1.0, abs=1e-12)


class TestKernels:
    def test_parameter_gates(self):
        with pytest.raises(ff.ParameterOutOfRange):
            ff.StretchedExponential(1.2, 1.0)
        with pytest.raises(ff.ParameterOutOfRange):
            ff.StretchedExponential(0.5, -1.0)
        with pytest.raises(ff.ParameterOutOfRange):
            ff.AlgebraicTail(2.0)
        with pytest.raises(ff.ParameterOutOfRange):
            ff.AlgebraicTail(float("inf"))  # amplitude inf * sin(0) would be NaN

    @pytest.mark.parametrize("a, b", [(0.001, 1.0), (0.5, 1e300), (0.005, 1000.0)])
    def test_amplitude_beyond_the_float_range_of_its_factors(self, a, b):
        # math.gamma(1001) and 1e300 ** 2 raised a bare OverflowError; c is
        # now 0, inf or (for 1000^200 / (2 * 200!), whose factors overflow)
        # finite, from its logarithm, and evaluate is 0 wherever c exp(-b
        # |x|^a) underflows
        kernel = ff.StretchedExponential(a, b)
        s = round(1.0 / a)
        exact = Fraction(round(b) ** s, 2 * math.factorial(s))
        c = math.inf if exact > sys.float_info.max else float(exact)
        assert kernel.amplitude == pytest.approx(c, rel=1e-12)
        assert kernel.evaluate(np.array([0.0, 1.0, 1e300])).tolist() == [kernel.amplitude, 0.0, 0.0]

    def test_finite_amplitude_keeps_the_closed_form_bitwise(self):
        x = ff.make_grid(50.0, 64).x
        kernel = ff.StretchedExponential(0.5)
        assert kernel.amplitude == 0.25
        assert kernel.evaluate(x).tobytes() == (0.25 * np.exp(-1.0 * np.abs(x) ** 0.5)).tobytes()

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
        good = ff.TabulatedKernel(xs, np.exp(-np.abs(xs)))
        assert good.evaluate(np.array([0.0]))[0] == 1.0
        with pytest.raises(ff.ValidationFailed):
            ff.TabulatedKernel(xs, np.exp(-xs))  # uneven
        with pytest.raises(ff.ValidationFailed):
            ff.TabulatedKernel(xs, -np.exp(-np.abs(xs)))  # negative
        with pytest.raises(ff.ValidationFailed):
            ff.TabulatedKernel(xs[::-1], np.exp(-np.abs(xs)))  # not increasing
        with pytest.raises(ff.ValidationFailed):
            ff.TabulatedKernel(xs, np.where(xs == 0, np.nan, np.exp(-np.abs(xs))))
        with pytest.raises(ff.ValidationFailed):
            ff.TabulatedKernel(np.append(xs[:-1], np.inf), np.exp(-np.abs(xs)))

    @pytest.mark.parametrize("x, j", [
        ((-2.0, 0.0, 2.0), (0.0, 5.0, 3.0)),
        ((-1.0, 0.0, 1.0), (0.5, np.nan, 0.5)),
        ((-1.0, 0.0, 1.0), (0.5, 1.0)),
        ("abc", (0.5, 1.0, 0.5)),
    ], ids=["uneven", "nan_sample", "unequal_columns", "not_numbers"])
    def test_constructor_runs_the_table_checks(self, x, j):
        # the checks lived in a classmethod, so the plain constructor built
        # an uneven kernel's symbol and a NaN symbol from a NaN sample
        with pytest.raises(ff.ValidationFailed):
            ff.TabulatedKernel(x, j)

    def test_constructor_stores_tuples_of_floats(self):
        kernel = ff.TabulatedKernel(np.array([-1, 0, 1]), [0.5, 1, 0.5])
        assert kernel.x == (-1.0, 0.0, 1.0) and kernel.j == (0.5, 1.0, 0.5)
        assert kernel == ff.TabulatedKernel((-1.0, 0.0, 1.0), (0.5, 1.0, 0.5))
        assert hash(kernel) == hash(ff.TabulatedKernel((-1.0, 0.0, 1.0), (0.5, 1.0, 0.5)))

    def test_kernel_that_misses_every_node_has_zero_discrete_mass(self):
        # the table is nonzero only between the nodes of a spacing-2 grid,
        # so the samples are all zero and cannot be rescaled to unit mass
        kernel = ff.TabulatedKernel((-1, -0.5, 0, 0.5, 1), (0, 1, 0, 1, 0))
        with pytest.raises(ff.ValidationFailed, match="zero discrete mass"):
            ff.build_symbol(ff.Convolution(kernel), ff.Grid(256, 256))

    @pytest.mark.parametrize("kernel", ["abc", None, ff.FractionalLaplacian(0.5)],
                             ids=["string", "none", "operator_spec"])
    def test_convolution_rejects_a_non_kernel(self, kernel):
        # 'abc' passed RunConfig's spec gate and ended in an AttributeError
        # when the run sampled it
        with pytest.raises(ff.ValidationFailed):
            ff.Convolution(kernel)

    def test_table_loader(self, tmp_path):
        xs = np.linspace(-4, 4, 33)
        js = 1.0 / (1.0 + xs**4)
        path = tmp_path / "kernel.txt"
        np.savetxt(path, np.column_stack([xs, js]))
        kernel = ff.load_kernel_table(path)
        assert kernel.evaluate(np.array([1.0]))[0] == pytest.approx(0.5)
        with pytest.raises(ff.IoFailure):
            ff.load_kernel_table(tmp_path / "missing.txt")

    def test_three_column_table_rejected(self, tmp_path):
        path = tmp_path / "kernel.txt"
        np.savetxt(path, np.column_stack([np.linspace(-1, 1, 5)] * 3))
        with pytest.raises(ff.ValidationFailed):
            ff.load_kernel_table(path)


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
        kernel = ff.TabulatedKernel(xs, js)
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


    def test_grid_with_another_length_is_a_length_mismatch(self):
        # same node count, another box: the sum used the wrong dx and
        # relabelled the result onto the other grid
        g = ff.make_grid(8.0, 64)
        f = ff.Field.from_function(ff.make_grid(16.0, 64), lambda x: np.exp(-x**2))
        with pytest.raises(ff.LengthMismatch, match="L=16"):
            ff.convolve_direct(f, ff.AlgebraicTail(4.0), g)


class TestFastDiffusion:
    def test_constant_field_unchanged(self):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.3)
        out = ff.fast_diffusion_step(f.values, 0.5, 0.05, g)
        assert np.max(np.abs(out - 0.3)) < 1e-13

    def test_gamma_one_matches_dense_heat_oracle(self):
        g = ff.make_grid(20.0, 128)
        f = ff.Field.from_function(g, lambda x: np.exp(-x**2 / 4.0))
        dt = 0.02
        out = ff.fast_diffusion_step(f.values, 1.0, dt, g)
        # independent dense backward-Euler heat step with Neumann ends
        n, r = g.n, dt / g.dx**2
        A = np.diag(np.full(n, 1.0 + 2.0 * r))
        A[0, 0] = A[-1, -1] = 1.0 + r
        A += np.diag(np.full(n - 1, -r), 1) + np.diag(np.full(n - 1, -r), -1)
        oracle = np.linalg.solve(A, f.values)
        assert np.max(np.abs(out - oracle)) < 1e-10

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
    def test_mass_conserved_per_step(self, gamma):
        g = ff.make_grid(50.0, 256)
        f = ff.Field.from_function(g, lambda x: np.exp(-x**2 / 30.0))
        out = ff.fast_diffusion_step(f.values, gamma, 0.01, g)
        drift = abs(g.dx * out.sum() - g.dx * f.values.sum())
        assert drift < 1e-8

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_newton_cap_raises_when_not_converged(self, max_iter):
        # this step needs 6 iterates; a smaller cap must not return an iterate
        g = ff.make_grid(30.0, 128)
        f = ff.Field.from_function(g, lambda x: (x < 0).astype(float))
        with pytest.raises(ff.SolverNotConverged):
            ff.fast_diffusion_step(f.values, 0.5, 0.01, g, max_iter=max_iter)
        six = ff.fast_diffusion_step(f.values, 0.5, 0.01, g, max_iter=6)
        full = ff.fast_diffusion_step(f.values, 0.5, 0.01, g)
        assert six.tobytes() == full.tobytes()

    def test_parameter_gates(self):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.5)
        with pytest.raises(ff.ParameterOutOfRange):
            ff.fast_diffusion_step(f.values, 1.5, 0.01, g)
        with pytest.raises(ff.ParameterOutOfRange):
            ff.fast_diffusion_step(f.values, 0.5, 0.0, g)
        with pytest.raises(ff.ParameterOutOfRange):
            ff.fast_diffusion_step(f.values, 0.5, 0.01, g, max_iter=0)
        for eps in (0.0, -1e-8, np.nan, np.inf):
            with pytest.raises(ff.ParameterOutOfRange):
                ff.fast_diffusion_step(f.values, 0.5, 0.01, g, eps_reg=eps)

    def test_work_for_another_grid_is_a_length_mismatch(self):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.5)
        with pytest.raises(ff.LengthMismatch):
            ff.fast_diffusion_step(f.values, 0.5, 0.01, g, work=NewtonWork(128))

    @pytest.mark.parametrize("malform", [
        lambda work: work,
        lambda work: work[:4],
        lambda work: (work[0][:2],) + work[1:],
        lambda work: work[:4] + (work[4].astype(float),),
        lambda work: (work[0], work[1].astype(int)) + work[2:],
    ], ids=["five_arrays", "four_arrays", "two_band_rows", "float_mask", "int_rhs"])
    def test_malformed_work_fails_before_any_work(self, malform, monkeypatch):
        # the old positional layout (ab, rhs, w, d, mask), whole or malformed,
        # is not a NewtonWork
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.5)
        arrays = NewtonWork(g.n)
        work = malform((arrays.ab, arrays.rhs, arrays.w, arrays.d, arrays.above))

        def no_work(*args, **kwargs):
            raise AssertionError("Newton work started before the work gate ran")

        monkeypatch.setattr(ff.dispersal, "_kirchhoff", no_work)
        with pytest.raises(ff.ValidationFailed):
            ff.fast_diffusion_step(f.values, 0.5, 0.01, g, work=work)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_fails_loudly(self, bad):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.5)
        f.values[7] = bad
        with pytest.raises(ff.ValidationFailed):
            ff.fast_diffusion_step(f.values, 0.5, 0.01, g)

    @pytest.mark.parametrize("gamma", [0.3, 0.5])
    def test_matches_dense_newton_oracle(self, gamma):
        # a compact bump: its tails are exactly 0, so the first Newton iterate
        # sits below the eps floor there
        g = ff.make_grid(20.0, 128)
        f = ff.Field.from_function(g, lambda x: np.clip(1.0 - (x / 6.0) ** 2, 0.0, None))
        dt, eps = 0.05, ff.EPS_REG
        out = ff.fast_diffusion_step(f.values, gamma, dt, g)

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
        assert np.max(np.abs(out - u)) < 1e-12


@pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
def test_kirchhoff_branches_and_slope(gamma):
    eps = 1e-4
    above = np.array([eps, 2 * eps, 0.3, 1.0, 1.7])
    below = np.array([-0.5, -eps, 0.0, 0.5 * eps, eps * (1 - 1e-9)])
    w, d, _, _ = _kirchhoff(above, gamma, eps, NewtonWork(above.size), 0, above.size)
    np.testing.assert_allclose(w, above**gamma, rtol=1e-15)
    np.testing.assert_allclose(d, gamma * above ** (gamma - 1.0), rtol=1e-15)
    w, d, _, _ = _kirchhoff(below, gamma, eps, NewtonWork(below.size), 0, below.size)
    line = eps**gamma + gamma * eps ** (gamma - 1.0) * (below - eps)
    np.testing.assert_allclose(w, line, rtol=1e-15)
    np.testing.assert_allclose(d, gamma * eps ** (gamma - 1.0), rtol=1e-15)
    # continuous at the floor: the two branches meet at eps
    left = _kirchhoff(np.array([eps * (1 - 1e-12)]), gamma, eps, NewtonWork(1), 0, 1)[0]
    right = _kirchhoff(np.array([eps * (1 + 1e-12)]), gamma, eps, NewtonWork(1), 0, 1)[0]
    assert abs(left[0] - eps**gamma) < 1e-11 * eps**gamma
    assert abs(right[0] - eps**gamma) < 1e-11 * eps**gamma


def _kirchhoff_full_array(u, gamma, eps):
    """The full-array potential and slope: one power on every node, then the
    below-floor line copied in where u < eps."""
    lo, w, d, below = np.empty_like(u), np.empty_like(u), np.empty_like(u), u < eps
    np.maximum(u, eps, out=d)
    np.power(d, gamma, out=w)
    np.divide(w, d, out=d)
    d *= gamma
    np.subtract(u, eps, out=lo)
    lo *= gamma * eps ** (gamma - 1.0)
    lo += eps ** gamma
    np.copyto(w, lo, where=below)
    return w, d


def _kirchhoff_states(n, eps):
    """States by span shape: none, the whole box, exactly eps, touching
    either end, with below-floor holes, and negative Newton iterates."""
    rng = np.random.default_rng(n)
    mixed = rng.uniform(0.0, 2.0 * eps, n) * 10.0 ** rng.uniform(-4.0, 4.0, n)
    holes = np.where(rng.random(n) < 0.3, 0.25 * eps, rng.uniform(eps, 1.0, n))
    holes[0] = holes[-1] = 0.0
    left = np.linspace(1.0, -eps, n)
    return {
        "all_below": np.full(n, 0.5 * eps) - rng.random(n) * eps,
        "all_above": eps + rng.random(n),
        "exactly_eps": np.full(n, eps),
        "touches_left": left,
        "touches_right": left[::-1].copy(),
        "holes": holes,
        "mixed": mixed,
        "negative": rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-12.0, 0.0, n),
    }


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
@pytest.mark.parametrize("eps", [1e-8, 1e-4])
@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8, 1.0])
def test_kirchhoff_span_is_bitwise_the_full_array_formula(gamma, eps, n):
    for name, u in _kirchhoff_states(n, eps).items():
        w, d, first, end = _kirchhoff(u, gamma, eps, NewtonWork(n), 0, n)
        expected_w, expected_d = _kirchhoff_full_array(u, gamma, eps)
        assert w.tobytes() == expected_w.tobytes(), name
        assert d.tobytes() == expected_d.tobytes(), name
        # the span handed back runs from the first node at or above eps to
        # the last one, and is empty when there is none
        at = np.flatnonzero(u >= eps)
        assert (first, end) == ((at[0], at[-1] + 1) if at.size else (first, first)), name


def _ranges(n):
    """Node ranges [a, b) of an n-node grid: the whole grid, ranges that
    touch node 0 or node n - 1, an inner one, and each end node alone."""
    third = max(n // 3, 1)
    cases = {(0, n), (0, third), (n - third, n), (n // 4, n - n // 4), (0, 1), (n - 1, n)}
    return sorted((a, b) for a, b in cases if a < b)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
@pytest.mark.parametrize("eps", [1e-8, 1e-4])
@pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
def test_kirchhoff_on_a_range_is_bitwise_the_full_call(gamma, eps, n):
    # the work is first filled for a state that differs from u only on
    # [a, b), as after a solve there; the call on [a, b) must then leave
    # the work as the full call on u does, and read the same span
    states = _kirchhoff_states(n, eps)
    names = list(states)
    for i, name in enumerate(names):
        u = states[name]
        full = NewtonWork(n)
        _, _, first, end = _kirchhoff(u, gamma, eps, full, 0, n)
        for a, b in _ranges(n):
            before = u.copy()
            before[a:b] = states[names[i - 1]][a:b]
            work = NewtonWork(n)
            _kirchhoff(before, gamma, eps, work, 0, n)
            work.p[:] = np.nan
            w, d, *span = _kirchhoff(u, gamma, eps, work, a, b)
            assert w.tobytes() == full.w.tobytes(), (name, a, b)
            assert d.tobytes() == full.d.tobytes(), (name, a, b)
            assert work.above.tobytes() == full.above.tobytes(), (name, a, b)
            assert span == [first, end], (name, a, b)


@pytest.mark.parametrize("n", [2, 3, 7, 64, 1000])
def test_newton_rhs_on_a_range_is_bitwise_the_full_call(n):
    rng = np.random.default_rng(n)
    u, u0, w = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-8.0, 0.0, (3, n))
    r = 0.01 / 0.061**2
    # the full call in the zero-flux Laplacian's order of operations, the
    # second differences scaled by r = dt / dx^2 in one pass
    lap = np.empty(n)
    lap[1:-1] = (w[:-2] - 2.0 * w[1:-1]) + w[2:]
    lap[0], lap[-1] = w[1] - w[0], w[-2] - w[-1]
    expected = (lap * r - u) + u0
    full = _newton_rhs(u, u0, w, r, np.empty(n), 0, n)
    assert full.tobytes() == expected.tobytes()
    for a, b in _ranges(n):
        rhs = expected.copy()
        rhs[a:b] = np.nan
        _newton_rhs(u, u0, w, r, rhs, a, b)
        assert rhs.tobytes() == expected.tobytes(), (a, b)


@pytest.mark.parametrize("n", [2, 3, 7, 500, 2**16])
def test_solve_banded_is_bitwise_scipys(n):
    # column-diagonally-dominant bands and a right-hand side, solved as views
    # of one (3, n + 2) array and one (n + 2,) array, as the windowed step
    # solves; both solvers work in place, scipy's with the overwrite flags
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(n)
    bands = rng.uniform(-1.0, 1.0, (3, n + 2))
    bands[1] = rng.choice([-1.0, 1.0], n + 2) * (
        np.abs(bands[0]) + np.abs(bands[2]) + rng.uniform(0.1, 1.0, n + 2))
    rhs = rng.standard_normal(n + 2)
    flags = dict(overwrite_ab=True, overwrite_b=True, check_finite=False)
    ours, theirs = (bands.copy(), rhs.copy()), (bands.copy(), rhs.copy())
    x = ff.dispersal.solve_banded(ours[0][:, 1:-1], ours[1][1:-1])
    y = solve_banded((1, 1), theirs[0][:, 1:-1], theirs[1][1:-1], **flags)
    assert x.tobytes() == y.tobytes()
    assert np.shares_memory(x, ours[1])
    for a, b in zip(ours, theirs):
        assert a.tobytes() == b.tobytes()


def test_solve_banded_gates():
    # one call shape, the one the Newton step makes; a zero pivot is the
    # solve's one failure (the step checks every update for NaN itself)
    signature = inspect.signature(ff.dispersal.solve_banded)
    assert str(signature.replace(return_annotation=signature.empty)) == "(ab, b, floor=None)"
    with pytest.raises(ff.SolverSingular):
        ff.dispersal.solve_banded(np.zeros((3, 2)), np.ones(2))


def _global_newton(u0, gamma, dt, grid, max_iter=40):
    """The fast-diffusion Newton step with every solve on the whole grid and
    every band column made from the slope: the step before windowed
    corrections, in its order of operations. Returns (state, solves)."""
    from scipy.linalg import solve_banded

    n, r = grid.n, dt / grid.dx**2
    work = NewtonWork(n)
    ab, rhs = work.ab, work.rhs
    u = u0.copy()
    for solves in range(max_iter + 1):
        w, d, _, _ = _kirchhoff(u, gamma, ff.EPS_REG, work, 0, n)
        _newton_rhs(u, u0, w, r, rhs, 0, n)
        if max(rhs.max(), -rhs.min()) <= 1e-13:
            return u, solves
        np.multiply(d[1:], -r, out=ab[0, 1:])
        np.multiply(d, 2.0 * r, out=ab[1])
        ab[1] += 1.0
        ab[1, 0] = 1.0 + r * d[0]
        ab[1, -1] = 1.0 + r * d[-1]
        np.multiply(d[:-1], -r, out=ab[2, :-1])
        u += solve_banded((1, 1), ab, rhs)
    pytest.fail("global Newton oracle did not converge")


def _spy_solves(monkeypatch, work):
    """Record the length of every dispersal.solve_banded call, checking that
    each one solves on views of `work`'s bands and right-hand side."""
    sizes = []
    solve = ff.dispersal.solve_banded

    def spy(ab, b, **kwargs):
        assert np.shares_memory(ab, work.ab) and np.shares_memory(b, work.rhs)
        sizes.append(b.size)
        return solve(ab, b, **kwargs)

    monkeypatch.setattr(ff.dispersal, "solve_banded", spy)
    return sizes


def _windowed_oracle(u0, gamma, dt, grid, work, max_iter=40):
    """The windowed Newton step with w, d and the residual of every iterate
    recomputed on the whole grid from the full-array formulas, in the
    step's order of operations, and each band column made from the slope.
    Solves go through dispersal.solve_banded on views of `work`."""
    n, r, eps = grid.n, dt / grid.dx**2, ff.EPS_REG
    ab, rhs = work.ab, work.rhs
    slope = _kirchhoff_full_array(np.full(1, eps), gamma, eps)[1][0]
    margin = ff.dispersal._window_margin(r * slope, n)
    scale = np.array([[-r], [2.0 * r], [-r]])
    u, lo, hi = u0.copy(), 0, n
    for solves in range(max_iter + 1):
        w, d = _kirchhoff_full_array(u, gamma, eps)
        at = np.flatnonzero(u >= eps)
        first, end = (at[0], at[-1] + 1) if at.size else (0, 0)
        rhs[1:-1] = (w[:-2] - 2.0 * w[1:-1]) + w[2:]
        rhs[0], rhs[-1] = w[1] - w[0], w[-2] - w[-1]
        rhs[:] = (rhs * r - u) + u0
        top, bottom = int(rhs.argmax()), int(rhs.argmin())
        if max(rhs[top], -rhs[bottom]) <= 1e-13:
            return u
        if solves:
            lo, hi = max(first - margin, 0), min(end + margin, n)
            worst = top if rhs[top] >= -rhs[bottom] else bottom
            if not lo <= worst < hi:
                lo, hi = 0, n
        np.multiply(d[lo:hi], scale, out=ab[:, lo:hi])
        ab[1, lo:hi] += 1.0
        if lo == 0:
            ab[1, 0] = 1.0 + r * d[0]
        if hi == n:
            ab[1, -1] = 1.0 + r * d[-1]
        u[lo:hi] += ff.dispersal.solve_banded(ab[:, lo:hi], rhs[lo:hi])
    pytest.fail("windowed Newton oracle did not converge")


def _residual(u, u0, gamma, dt, grid):
    """max|u - r * Lap(w(u)) - u0|, r = dt / dx^2, the step's convergence
    measure."""
    n = grid.n
    w, _, _, _ = _kirchhoff(u, gamma, ff.EPS_REG, NewtonWork(n), 0, n)
    return np.max(np.abs(_newton_rhs(u, u0, w, dt / grid.dx**2, np.empty(n), 0, n)))


class TestWindowedNewton:
    """After a step's global first solve, each Newton solve covers only the
    above-floor span widened by the margin M of _window_margin."""

    # 2^14 nodes on L=400 at dt=0.01: M = 5,322 < n/2, and the width-100
    # Gaussian's span holds about 1,800 nodes
    WIDE = (400.0, 2**14)

    @staticmethod
    def _start(grid):
        return np.exp(-grid.x**2 / 100.0)

    @pytest.mark.parametrize("c", [1e-3, 0.5, 20.0, 3355.0, 1e9])
    def test_margin_is_the_float64_decay_length_of_the_floor_operator(self, c):
        # rho from the quadratic's small root, as the product of the roots is 1
        big = ((1 + 2 * c) + np.sqrt((1 + 2 * c) ** 2 - 4 * c * c)) / (2 * c)
        rho = 1.0 / big
        margin = _window_margin(c, 2**30)
        assert margin == np.ceil(53 * np.log(2.0) / np.log(big)) + 1
        assert rho ** (margin - 1) <= 2.0**-53 < rho ** (margin - 2)

    def test_margin_at_decoupled_and_unbounded_rows(self):
        assert _window_margin(0.0, 64) == 1
        assert _window_margin(np.inf, 64) == 64

    def test_wide_box_matches_global_oracle(self, monkeypatch):
        g = ff.make_grid(*self.WIDE)
        dt = 0.01
        assert _window_margin(dt / g.dx**2 * 0.5 * ff.EPS_REG**-0.5, g.n) < g.n // 2
        work = NewtonWork(g.n)
        sizes = _spy_solves(monkeypatch, work)
        u = v = self._start(g)
        for _ in range(3):
            del sizes[:]
            u = ff.fast_diffusion_step(u, 0.5, dt, g, work=work)
            v, solves = _global_newton(v, 0.5, dt, g)
            assert len(sizes) == solves
            assert np.max(np.abs(u - v)) <= 1e-15
            # the first solve is global and every later one is windowed
            assert sizes[0] == g.n and len(sizes) > 1
            assert all(size < g.n for size in sizes[1:])

    def test_every_solve_on_a_covered_grid_is_global_and_bitwise(self, monkeypatch):
        # on 128 nodes the window covers the grid, so the step is the oracle's
        g = ff.make_grid(20.0, 128)
        work = NewtonWork(g.n)
        sizes = _spy_solves(monkeypatch, work)
        u = v = np.clip(1.0 - (g.x / 6.0) ** 2, 0.0, None)
        for dt in (0.05, 0.05, 0.013):
            u = ff.fast_diffusion_step(u, 0.5, dt, g, work=work)
            v, solves = _global_newton(v, 0.5, dt, g)
            assert u.tobytes() == v.tobytes()
        assert len(sizes) > 3 and set(sizes) == {g.n}

    def test_too_narrow_window_costs_only_iterations(self, monkeypatch):
        # with a 1-node margin the windowed corrections miss part of the
        # update: the largest residual then lies outside the window, that
        # iterate solves globally, and the step still converges
        g = ff.make_grid(*self.WIDE)
        u0 = self._start(g)
        expected, solves = _global_newton(u0, 0.5, 0.01, g)
        monkeypatch.setattr(ff.dispersal, "_window_margin", lambda c, n: 1)
        work = NewtonWork(g.n)
        sizes = _spy_solves(monkeypatch, work)
        u = ff.fast_diffusion_step(u0, 0.5, 0.01, g, work=work)
        assert len(sizes) > solves
        assert any(size < g.n for size in sizes) and g.n in sizes[1:]
        assert _residual(u, u0, 0.5, 0.01, g) <= 1e-12
        assert np.max(np.abs(u - expected)) <= 1e-13

    @pytest.mark.parametrize("narrow", [False, True], ids=["margin", "one_node_margin"])
    def test_local_iterates_match_the_global_residual_oracle(self, narrow, monkeypatch):
        # after a windowed solve the step recomputes w, d and the residual
        # only around the window; the oracle recomputes them everywhere. A
        # 1-node margin forces fallback global solves after windowed ones.
        if narrow:
            monkeypatch.setattr(ff.dispersal, "_window_margin", lambda c, n: 1)
        g = ff.make_grid(*self.WIDE)
        work = NewtonWork(g.n)
        sizes = _spy_solves(monkeypatch, work)
        u = v = self._start(g)
        for _ in range(3):
            u = ff.fast_diffusion_step(u, 0.5, 0.01, g, work=work)
            step = sizes[:]
            del sizes[:]
            v = _windowed_oracle(v, 0.5, 0.01, g, work)
            assert u.tobytes() == v.tobytes()
            assert step == sizes and step[0] == g.n and min(step) < g.n
            assert (g.n in step[1:]) == narrow
            del sizes[:]

    def test_fig1c_body_solve_count(self, monkeypatch):
        # the fig1c preset to t=1: 100 steps, each with one global first
        # solve, and 159 windowed solves
        config = replace(ff.experiment.preset_config("fig1c"), t_end=1.0)
        sizes = []
        solve = ff.dispersal.solve_banded

        def spy(ab, b, **kwargs):
            sizes.append(b.size)
            return solve(ab, b, **kwargs)

        monkeypatch.setattr(ff.dispersal, "solve_banded", spy)
        ff.run(config)
        assert len(sizes) == 259
        assert sizes.count(config.N) == 100

    def test_cap_below_the_needed_count_raises_on_wide_box(self, monkeypatch):
        g = ff.make_grid(*self.WIDE)
        u0 = self._start(g)
        work = NewtonWork(g.n)
        sizes = _spy_solves(monkeypatch, work)
        full = ff.fast_diffusion_step(u0, 0.5, 0.01, g, work=work)
        needed = len(sizes)
        assert needed >= 3 and min(sizes) < g.n
        with pytest.raises(ff.SolverNotConverged):
            ff.fast_diffusion_step(u0, 0.5, 0.01, g, max_iter=needed - 1, work=work)
        capped = ff.fast_diffusion_step(u0, 0.5, 0.01, g, max_iter=needed, work=work)
        assert capped.tobytes() == full.tobytes()


def _newton_bands(n, c, first, end, rng, slopes=(0.05, 1.0)):
    """Bands of a Newton Jacobian with floor slope 1 and dt / dx^2 = c, and
    its floor system, a new _FloorLU at dt = c on a grid of n nodes with
    dx = 1 (gamma = 1 makes the floor slope 1):
    slope 1 outside the span [first, end), slopes drawn from `slopes` on
    it, and the Neumann end diagonals."""
    d = np.ones(n)
    d[first:end] = rng.uniform(*slopes, end - first)
    scale = np.array([[-c], [2.0 * c], [-c]])
    ab = d * scale
    ab[1] += 1.0
    ab[1, 0], ab[1, -1] = 1.0 + c * d[0], 1.0 + c * d[-1]
    column = scale.copy()
    column[1] += 1.0
    lu = _FloorLU(1.0, ff.EPS_REG, c, ff.make_grid(n / 2, n))
    assert lu.column.tobytes() == column.tobytes() and lu.scale.tobytes() == scale.tobytes()
    assert (lu.ends, lu.margin) == (1.0 + c, _window_margin(c, n))
    return ab, lu


def _floor_lu(lu, ab):
    """lu asked once, so its next fitting solve builds the factors and uses
    them."""
    assert lu.solve(ab, np.ones(ab.shape[1]), 1, 2) is None
    return lu


class TestFloorFactors:
    """Global Newton solves reuse the LU factors of the floor Jacobian."""

    N = 2**16

    @staticmethod
    def _spans(n, margin):
        width = 1000
        right = n - 1 - width
        return {"left": (1, 1 + width), "centre": (n // 2 - width, n // 2 + width),
                "right_edge": (right, n - 1), "short_tail": (right - margin, n - 1 - margin)}

    @pytest.mark.parametrize("c", [0.5, 20.0, 3355.0])
    def test_floor_path_is_bitwise_scipys(self, c):
        # the span at the left, in the centre, ending at row n - 2 (the
        # block reaches the Neumann row) and one that leaves a 1-row tail
        from scipy.linalg import solve_banded

        n, rng = self.N, np.random.default_rng(int(c))
        for name, (first, end) in self._spans(n, _window_margin(c, n)).items():
            ab, lu = _newton_bands(n, c, first, end, rng)
            b = rng.standard_normal(n)
            expected = solve_banded((1, 1), ab, b)
            x = _floor_lu(lu, ab).solve(ab, b, first, end)
            assert x is not None and np.shares_memory(x, b), name
            assert x.tobytes() == expected.tobytes(), name
            assert lu.held[:2] == (first - 1, min(end + lu.margin, n)), name

    def test_lapack_fallback_solves_bitwise(self, monkeypatch):
        # no extension file name matches, so _lapack falls back to importing
        # scipy.linalg.lapack; dgtsv and the floor path still give scipy's bits
        import importlib.machinery
        import sys

        from scipy.linalg import solve_banded

        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        ff.dispersal._scipy_extension.cache_clear()
        try:
            assert ff.dispersal._lapack().__name__ == "scipy.linalg.lapack"
            n, rng = self.N, np.random.default_rng(11)
            for c in (0.5, 20.0, 3355.0):
                for name, (first, end) in self._spans(n, _window_margin(c, n)).items():
                    ab, lu = _newton_bands(n, c, first, end, rng)
                    b = rng.standard_normal(n)
                    expected = solve_banded((1, 1), ab, b).tobytes()
                    _floor_lu(lu, ab)
                    for floor in (None, (lu, first, end)):
                        x = ff.dispersal.solve_banded(ab.copy(), b.copy(), floor=floor)
                        assert x.tobytes() == expected, (c, name, floor)
                    assert lu.d is not None, (c, name)  # the floor factors served
        finally:
            ff.dispersal._scipy_extension.cache_clear()

    def test_reused_factors_track_the_rows_they_rewrite(self):
        # spans that move both ways, a solve that fails after its block
        # factor, and slopes above the floor's, after which the recurrence
        # settles on another value: each solve is still bitwise scipy's
        from scipy.linalg import solve_banded

        n, c, rng = self.N, 3355.0, np.random.default_rng(7)
        spans = [(30000, 31000), (29000, 31500), (32000, 33000), (100, 900),
                 (40000, 45000), (31000, 31001), (25000, 26000, "pivot"),
                 (20000, 20100, "steep"), (21000, 21100)]
        lu, tails = None, set()
        for first, end, *kind in spans + spans[::-1]:
            steep = kind == ["steep"]
            ab, new = _newton_bands(n, c, first, end, rng, (1.5, 2.0) if steep else (0.05, 1.0))
            lu = lu or _floor_lu(new, ab)
            if kind == ["pivot"]:
                ab[1, first] = 0.0
            b = rng.standard_normal(n)
            expected = solve_banded((1, 1), ab, b)
            x = ff.dispersal.solve_banded(ab, b, floor=(lu, first, end))
            assert x.tobytes() == expected.tobytes(), (first, end)
            tails.add(lu.held[2])
        assert lu.asked == 2 * len(spans) + 1 and len(tails) == 2

    @pytest.mark.parametrize("case", ["first_solve", "empty", "left_end", "right_end",
                                      "quarter", "unsettled", "pivot"])
    def test_fallbacks_solve_with_dgtsv(self, case, monkeypatch):
        from scipy.linalg import solve_banded

        n, c, rng = self.N, 3355.0, np.random.default_rng(3)
        first, end = {"empty": (0, 0), "left_end": (0, 500), "right_end": (n - 500, n),
                      "quarter": (1000, 1000 + n // 4)}.get(case, (20000, 21000))
        ab, lu = _newton_bands(n, c, first, end, rng)
        if case == "unsettled":
            lu.margin = 2  # two rows below the span are too few to settle
        if case == "pivot":
            # a zero diagonal: row first's factored diagonal is then rho < 1
            # times its subdiagonal, and dgttrf interchanges the two rows
            ab[1, first] = 0.0
        if case != "first_solve":
            _floor_lu(lu, ab)
        b = rng.standard_normal(n)
        expected = solve_banded((1, 1), ab, b)
        calls = []
        solve = _FloorLU.solve
        monkeypatch.setattr(_FloorLU, "solve",
                            lambda *args: calls.append(solve(*args)) or calls[-1])
        x = ff.dispersal.solve_banded(ab, b, floor=(lu, first, end))
        assert calls == [None]
        assert x.tobytes() == expected.tobytes()

    def test_zero_pivot_in_the_block_raises(self):
        # a block row whose factored diagonal is exactly 0, with a zero
        # subdiagonal below it: dgttrf reports it and dgtsv raises
        n, c, rng = self.N, 3355.0, np.random.default_rng(5)
        first, end = 20000, 21000
        ab, lu = _newton_bands(n, c, first, end, rng)
        assert _floor_lu(lu, ab).solve(ab, np.ones(n), first, end) is not None
        ab[2, first] = 0.0
        ab[1, first] = ab[2, first - 1] / lu.solve_d[first - 1] * ab[0, first]
        assert lu.solve(ab, np.ones(n), first, end) is None
        with pytest.raises(ff.SolverSingular):
            ff.dispersal.solve_banded(ab, np.ones(n), floor=(lu, first, end))

    def test_fig1c_steps_take_the_floor_path_and_match_the_oracle(self, monkeypatch):
        # the fig1c grid at its dt: from the second step on, every global
        # solve goes through the floor factors
        g, dt = ff.make_grid(4000.0, self.N), 0.01
        taken = []
        solve = _FloorLU.solve

        def spy(self, *args):
            x = solve(self, *args)
            taken.append(x is not None)
            return x

        monkeypatch.setattr(_FloorLU, "solve", spy)
        work, oracle_work = NewtonWork(g.n), NewtonWork(g.n)
        u = v = np.exp(-g.x**2 / 100.0)
        for _ in range(4):
            u = ff.fast_diffusion_step(u, 0.5, dt, g, work=work)
            v = _windowed_oracle(v, 0.5, dt, g, oracle_work)
            assert u.tobytes() == v.tobytes()
        assert taken == [False, True, True, True]
        assert work.floor.d is not None and oracle_work.floor is None

    def test_factors_are_built_at_the_second_global_solve_at_one_dt(self, monkeypatch):
        # a run at dt with one landing step at another dt: the factors are
        # built at the second global solve of a key, and every step is
        # still bitwise the windowed oracle's
        g = ff.make_grid(4000.0, self.N)
        built = []
        factor = _FloorLU._factor
        monkeypatch.setattr(_FloorLU, "_factor",
                            lambda self, n: built.append(self.key) or factor(self, n))
        u0 = np.exp(-g.x**2 / 100.0)
        # a call without work has its own, with one global solve: no factors
        ff.fast_diffusion_step(u0, 0.5, 0.01, g)
        assert built == []
        work, oracle_work = NewtonWork(g.n), NewtonWork(g.n)
        u = v = u0
        for dt, count in [(0.01, 0), (0.01, 1), (0.004, 1), (0.01, 1), (0.01, 2)]:
            lu = work.floor
            u = ff.fast_diffusion_step(u, 0.5, dt, g, work=work)
            v = _windowed_oracle(v, 0.5, dt, g, oracle_work)
            assert u.tobytes() == v.tobytes() and len(built) == count, dt
            if dt != 0.01:
                # a new key, whose first solve fell back to dgtsv
                assert work.floor is not lu and work.floor.d is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("call", [0, 1], ids=["global", "windowed"])
    def test_non_finite_update_raises_and_leaves_values(self, call, bad, monkeypatch):
        g = ff.make_grid(*TestWindowedNewton.WIDE)
        values = TestWindowedNewton._start(g)
        before = values.copy()
        sizes = []
        solve = ff.dispersal.solve_banded

        def poisoned(ab, b, **kwargs):
            x = solve(ab, b, **kwargs)
            if len(sizes) == call:
                x[x.size // 2] = bad
            sizes.append(x.size)
            return x

        monkeypatch.setattr(ff.dispersal, "solve_banded", poisoned)
        with pytest.raises(ff.SolverSingular, match="non-finite update"):
            ff.fast_diffusion_step(values, 0.5, 0.01, g, work=NewtonWork(g.n))
        assert values.tobytes() == before.tobytes()
        assert len(sizes) == call + 1 and (sizes[-1] < g.n) == (call == 1)


class TestFractionalFastDiffusion:
    def test_constant_field_unchanged(self):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.6)
        out = ff.fractional_fast_diffusion_step(f.values, 0.6, 0.5, 0.001, g)
        assert np.max(np.abs(out - 0.6)) < 1e-12

    def test_parameter_gate(self):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.5)
        with pytest.raises(ff.ParameterOutOfRange):
            # max(1 - 2*0.4, 0) = 0.2 > gamma = 0.1
            ff.fractional_fast_diffusion_step(f.values, 0.4, 0.1, 0.01, g)
        # an infinite floor would otherwise return an all-NaN field
        for eps in (0.0, -1e-8, np.nan, np.inf):
            with pytest.raises(ff.ParameterOutOfRange):
                ff.fractional_fast_diffusion_step(f.values, 0.6, 0.5, 0.001, g, eps_reg=eps)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nonfinite_input_fails_loudly(self, bad):
        g = ff.make_grid(10.0, 64)
        f = ff.Field.constant(g, 0.5)
        f.values[7] = bad
        with pytest.raises(ff.ValidationFailed):
            ff.fractional_fast_diffusion_step(f.values, 0.6, 0.5, 0.001, g)

    def test_bound_above_a_million_substeps_fails_before_any(self, monkeypatch):
        # max|m| * gamma * eps^(gamma-1) is about 1.6e5 on this grid, so
        # dt = 10 asks for about 3.2e6 sub-steps
        g = ff.make_grid(10.0, 64)

        def no_work(*args, **kwargs):
            raise AssertionError("sub-cycling started before the bound was checked")

        monkeypatch.setattr(ff.dispersal, "_packed_multiplier", no_work)
        with pytest.raises(ff.ParameterOutOfRange, match="sub-steps"):
            ff.fractional_fast_diffusion_step(np.full(g.n, 0.5), 0.75, 0.5, 10.0, g)

    def test_step_counts_with_the_call_its_gate_makes(self, monkeypatch):
        # on this grid the symbol array's max|m| lies one ulp above
        # _largest_m, and dt sits where that ulp tips the count: the config
        # counted 10^6 sub-cycles and passed, then the first step counted
        # from the array, 10^6 + 1, and raised ParameterOutOfRange
        L, dt = 155.43472326612778, 471.5984112074067
        calls, count = [], ff.dispersal.substep_count

        def spy(*args):
            calls.append(args)
            return count(*args)

        class Cycling(Exception):
            pass

        def cycling(*args):
            raise Cycling  # no 10^6 sub-cycles run

        monkeypatch.setattr(ff.dispersal, "substep_count", spy)
        config = ff.RunConfig(L=L, N=1024, dispersal=ff.FractionalFastDiffusion(0.75, 0.8),
                              t_end=dt, dt=dt, snapshot_times=(0.0, dt), reaction=None)
        monkeypatch.setattr(ff.dispersal, "_packed_multiplier", cycling)
        with pytest.raises(Cycling):
            ff.run(config)
        gate, step = calls
        assert all(type(a) is float for a in step) and step == gate
        assert count(*step) == 1_000_000

    @pytest.mark.parametrize("largest_m, gamma, dt, eps", [
        (np.inf, 0.8, 0.01, ff.EPS_REG),
        (1e300, 1.0, 1e10, 1.0),
        (1.0, 0.02, 0.01, 5e-324),
    ], ids=["infinite-symbol", "stiffness-times-dt", "eps-power"])
    def test_stiffness_that_is_not_finite_is_out_of_range(self, largest_m, gamma, dt, eps):
        # each raised a bare OverflowError: int(ceil(inf)), or
        # eps ** (gamma - 1) above the float range
        with pytest.raises(ff.ParameterOutOfRange, match="not finite"):
            substep_count(largest_m, gamma, dt, eps)

    def test_eps_power_overflow_fails_before_any_substep(self, monkeypatch):
        g = ff.make_grid(10.0, 64)

        def no_work(*args, **kwargs):
            raise AssertionError("sub-cycling started before the bound was checked")

        monkeypatch.setattr(ff.dispersal, "_packed_multiplier", no_work)
        with pytest.raises(ff.ParameterOutOfRange, match="not finite"):
            ff.fractional_fast_diffusion_step(np.full(g.n, 0.5), 0.99, 0.02, 0.01, g,
                                              eps_reg=5e-324)

    @pytest.mark.parametrize("gamma", [0.5, 0.8])
    def test_subcycles_match_plain_expression_bitwise(self, gamma, monkeypatch):
        # the buffered loop against the packed sub-cycle written out plainly:
        # u = u + ifft(a * z + b * conj(z[-k]), norm="forward") with z the fft
        # of max(u, eps)**gamma viewed as n/2 complex samples
        g = ff.make_grid(20.0, 128)
        f = ff.Field.from_function(g, lambda x: np.exp(-x**2 / 8.0))
        alpha, dt, n_sub, eps = 0.75, 0.01, 7, ff.EPS_REG
        monkeypatch.setattr(ff.dispersal, "substep_count", lambda *args: n_sub)
        m = ff.build_symbol(ff.FractionalLaplacian(alpha), g)
        a, b = _packed_multiplier((dt / n_sub) * m)
        reverse = -np.arange(g.n // 2) % (g.n // 2)
        u = f.values.copy()
        for _ in range(n_sub):
            z = np.fft.fft((np.maximum(u, eps) ** gamma).view(complex))
            u = u + np.fft.ifft(a * z + b * np.conj(z[reverse]), norm="forward").view(float)
        out = ff.fractional_fast_diffusion_step(f.values, alpha, gamma, dt, g)
        assert out.tobytes() == u.tobytes()
        # and within roundoff of the real-transform loop
        v = f.values.copy()
        for _ in range(n_sub):
            v = v + (dt / n_sub) * np.fft.irfft(np.fft.rfft(np.maximum(v, eps) ** gamma) * m)
        assert np.max(np.abs(out - v)) < 1e-13

    def test_gamma_one_converges_to_semigroup_first_order(self, monkeypatch):
        g = ff.make_grid(10.0, 128)
        f = ff.Field.from_function(g, lambda x: 0.5 + 0.3 * np.cos(g.xi[1] * x))
        alpha, dt = 0.75, 0.05
        exact = semigroup(ff.FractionalLaplacian(alpha), f, dt)
        errs = []
        for n_sub in (40, 80, 160):
            monkeypatch.setattr(ff.dispersal, "substep_count", lambda *args: n_sub)
            out = ff.fractional_fast_diffusion_step(f.values, alpha, 1.0, dt, g)
            errs.append(np.max(np.abs(out - exact)))
        rate1 = errs[0] / errs[1]
        rate2 = errs[1] / errs[2]
        assert 1.7 < rate1 < 2.3 and 1.7 < rate2 < 2.3  # O(dt/n_sub)


def packed_apply(x, f):
    """irfft(f * rfft(x)) through the half-length complex transform pair."""
    a, b = _packed_multiplier(f)
    z = np.fft.fft(x.view(complex))
    reverse = -np.arange(z.size) % z.size
    return np.fft.ifft(a * z + b * np.conj(z[reverse]), norm="forward").view(float)


@pytest.mark.parametrize("n", [2**k for k in range(3, 13)])
def test_packed_multiplier_matches_real_transform_pair(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    f = rng.standard_normal(n // 2 + 1)
    f[0], f[-1] = 1.5, -2.0  # nonzero zero-frequency and Nyquist bins
    ref = np.fft.irfft(f * np.fft.rfft(x), n=n)
    scale = np.finfo(float).eps * np.log2(n) * np.max(np.abs(ref))
    assert np.max(np.abs(packed_apply(x, f) - ref)) < 8 * scale
    # a multiplier that vanishes at frequency zero adds no mass
    f[0] = 0.0
    du = packed_apply(x, f)
    assert abs(du.sum()) < 8 * np.finfo(float).eps * np.log2(n) * np.abs(du).sum()


def _wide(rng, size):
    """Normal samples scaled by powers of ten spread over 1e-300 .. 1e300."""
    return rng.standard_normal(size) * 10.0 ** rng.uniform(-300, 300, size)


# each call the package makes through scipy's pocketfft extension: (the call
# on `fft` with an `out` array, the np.fft call it replaces, its input kind)
POCKETFFT_CALLS = {
    "rfft": (lambda fft, x, n, out: fft.r2c(x, None, True, 0, out, 1),
             lambda x, n: np.fft.rfft(x), "real"),
    "irfft": (lambda fft, x, n, out: fft.c2r(x, None, n, False, 2, out, 1),
              lambda x, n: np.fft.irfft(x, n=n), "bins"),
    "fft": (lambda fft, x, n, out: fft.c2c(x, None, True, 0, out, 1),
            lambda x, n: np.fft.fft(x), "complex"),
    "ifft-forward": (lambda fft, x, n, out: fft.c2c(x, None, False, 0, out, 1),
                     lambda x, n: np.fft.ifft(x, norm="forward"), "complex"),
}


@pytest.mark.parametrize("call", POCKETFFT_CALLS)
def test_pocketfft_calls_are_bitwise_numpys(call):
    # at every power of two from 2^3 to 2^17, on data spanning 1e-300 to
    # 1e300; the bins of irfft hold nonzero imaginary parts at frequency
    # zero and Nyquist too
    ours, numpys, kind = POCKETFFT_CALLS[call]
    fft, rng = ff.dispersal._pocketfft(), np.random.default_rng(len(call))
    for n in (2**k for k in range(3, 18)):
        size = n // 2 + 1 if kind == "bins" else n
        x = _wide(rng, size) if kind == "real" else _wide(rng, size) + 1j * _wide(rng, size)
        expected = numpys(x, n)
        out = np.empty_like(expected)
        assert ours(fft, x, n, out) is out
        assert out.tobytes() == expected.tobytes(), n


def linear_stepper(field):
    return ff.DispersalStepper(ff.FractionalLaplacian(0.5), field.grid)


GATED_STEPS = {
    "step_values": lambda f, dt: linear_stepper(f).step_values(f.values, dt),
    "strang_step": lambda f, dt: ff.strang_step(f.values, linear_stepper(f), ff.KppLogistic(), dt),
    "fast_diffusion_step": lambda f, dt, **kw: ff.fast_diffusion_step(
        f.values, 0.5, dt, f.grid, **kw),
    "fractional_fast_diffusion_step": lambda f, dt, **kw: ff.fractional_fast_diffusion_step(
        f.values, 0.75, 0.8, dt, f.grid, **kw),
}
BAD_STEPS = (
    [(name, dt, {}) for name in GATED_STEPS for dt in (0.0, -0.01, np.nan, np.inf)]
    + [("fast_diffusion_step", 0.01, {"max_iter": v}) for v in (0, 2.5, np.nan, True)]
)


@pytest.mark.parametrize("name, dt, counts", BAD_STEPS)
def test_step_gates_reject_bad_dt_and_counts(name, dt, counts, monkeypatch):
    # without the gates dt=inf gave a silent NaN state, an OverflowError or
    # SolverSingular, and a fractional count a TypeError, by operator
    field = ff.Field.constant(ff.make_grid(10.0, 64), 0.5)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the step's gates ran")

    # the linear stepper builds its symbol through integrator's own binding,
    # so only the work inside the dispersal step functions is forbidden
    monkeypatch.setattr(ff.dispersal, "build_symbol", no_work)
    monkeypatch.setattr(ff.dispersal, "NewtonWork", no_work)
    with pytest.raises(ff.ParameterOutOfRange):
        GATED_STEPS[name](field, dt, **counts)
    assert np.all(field.values == 0.5)


FAST_STEPS = {
    "fast_diffusion_step": lambda values, grid: ff.fast_diffusion_step(values, 0.5, 0.01, grid),
    "fractional_fast_diffusion_step": lambda values, grid: ff.fractional_fast_diffusion_step(
        values, 0.75, 0.8, 0.01, grid),
}


@pytest.mark.parametrize("bad", ["field", "field_on_another_box", "short", "two_d"])
@pytest.mark.parametrize("name", list(FAST_STEPS))
def test_fast_steps_take_one_sample_per_node(name, bad, monkeypatch):
    # a Field was the old argument: with only the node counts compared, one
    # on L=10 was stepped with the spacing of the L=40 grid and relabelled
    grid, small = ff.make_grid(40.0, 256), ff.make_grid(10.0, 256)
    u = np.exp(-small.x**2)
    values = {"field": ff.Field(grid, u), "field_on_another_box": ff.Field(small, u),
              "short": u[:-1], "two_d": u[None, :]}[bad]

    def no_work(*args, **kwargs):
        raise AssertionError("the step started before its gates ran")

    monkeypatch.setattr(ff.dispersal, "_kirchhoff", no_work)
    monkeypatch.setattr(ff.dispersal, "build_symbol", no_work)
    with pytest.raises(ff.LengthMismatch):
        FAST_STEPS[name](values, grid)


@pytest.mark.parametrize("L", [1e-300, 1e-153, 1e200],
                         ids=["dx2-underflow", "floor-diagonal-overflow", "dx2-overflow"])
def test_fast_diffusion_step_gates_its_grid_before_any_work(L, monkeypatch):
    # r = dt / dx^2 raised a bare ZeroDivisionError (dx^2 underflows to 0)
    # or OverflowError, or the floor diagonal 1 + 2 F r overflowed with a
    # RuntimeWarning; FastDiffusion.check now runs before any work
    values = np.full(8, 0.5)

    def no_work(*args, **kwargs):
        raise AssertionError("the step started before its grid gate ran")

    monkeypatch.setattr(ff.dispersal, "_kirchhoff", no_work)
    with pytest.raises(ff.ValidationFailed, match="dx"):
        ff.fast_diffusion_step(values, 0.5, 0.01, ff.make_grid(L, 8))
    assert np.all(values == 0.5)


def test_floor_band_that_overflows_fails_before_any_work(monkeypatch):
    # r = dt / dx^2 = 1e308 and 1 + 2 F r = 2e306 passed the gate on the
    # floor diagonal, while the band's 2 r overflowed to inf: the step made
    # its NewtonWork and raised SolverNotConverged after 40 solves. The
    # floor system is the gate and is built before any NewtonWork
    def no_work(*args, **kwargs):
        raise AssertionError("the step started before its floor system's gate ran")

    monkeypatch.setattr(ff.dispersal, "_kirchhoff", no_work)
    monkeypatch.setattr(ff.dispersal, "NewtonWork", no_work)
    with pytest.raises(ff.ValidationFailed, match=r"dt / dx\^2"):
        ff.fast_diffusion_step(np.full(8, 0.5), 1e-10, 1.0, ff.make_grid(4e-154, 8))


def test_run_checks_once_and_builds_one_floor_system_per_dt(monkeypatch):
    # the step ran FastDiffusion.check at every call; RunConfig now runs it
    # once, and a step builds the floor system only for a new dt
    checks, built = [], []
    check, init = ff.FastDiffusion.check, _FloorLU.__init__
    monkeypatch.setattr(ff.FastDiffusion, "check",
                        lambda self, *args: checks.append(args) or check(self, *args))
    monkeypatch.setattr(_FloorLU, "__init__",
                        lambda self, *args: built.append(args[2]) or init(self, *args))
    # ten steps of 0.1 to t = 1, then a landing step of 0.05
    config = ff.RunConfig(L=100.0, N=256, dispersal=ff.FastDiffusion(0.5), dt=0.1, t_end=1.05)
    assert len(checks) == 1 and built == [0.1]
    ff.run(config)
    assert len(checks) == 1
    assert [round(dt, 12) for dt in built] == [0.1, 0.1, 0.05]


@pytest.mark.parametrize("eps", [0.0, -1e-8])
@pytest.mark.parametrize("spec", [ff.FastDiffusion(0.5), ff.FractionalFastDiffusion(0.75, 0.8)],
                         ids=["fast", "fractional-fast"])
def test_spec_check_gates_eps_reg(spec, eps):
    # FastDiffusion.check stopped at a bare RuntimeWarning (divide at 0,
    # power at -1e-8), FractionalFastDiffusion.check at a bare
    # ZeroDivisionError or TypeError (a complex power)
    with pytest.raises(ff.ParameterOutOfRange, match="eps_reg"):
        spec.check(ff.make_grid(50.0, 64), 0.01, eps)


@pytest.mark.parametrize("name", list(FAST_STEPS))
def test_fast_steps_read_float64_and_return_a_new_array(name):
    grid = ff.make_grid(20.0, 128)
    u = np.exp(-grid.x**2 / 8.0)
    before = u.tobytes()
    out = FAST_STEPS[name](u, grid)
    assert type(out) is np.ndarray and out.dtype == np.float64 and out is not u
    assert u.tobytes() == before
    # a list of the same floats is coerced to the same float64 state
    assert FAST_STEPS[name](u.tolist(), grid).tobytes() == out.tobytes()
