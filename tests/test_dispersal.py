"""Dispersal operator tests: symbol values and invariants, semigroup
eigenfunction relations of the integrator's linear stepper, direct-quadrature
convolution oracles, and the nonlinear fast-diffusion steps against
independent dense solves.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import fastfronts as ff
from fastfronts.dispersal import NewtonWork, _kirchhoff, _packed_multiplier, sample_kernel


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
    w, d = _kirchhoff(above, gamma, eps, NewtonWork(above.size))
    np.testing.assert_allclose(w, above**gamma, rtol=1e-15)
    np.testing.assert_allclose(d, gamma * above ** (gamma - 1.0), rtol=1e-15)
    w, d = _kirchhoff(below, gamma, eps, NewtonWork(below.size))
    line = eps**gamma + gamma * eps ** (gamma - 1.0) * (below - eps)
    np.testing.assert_allclose(w, line, rtol=1e-15)
    np.testing.assert_allclose(d, gamma * eps ** (gamma - 1.0), rtol=1e-15)
    # continuous at the floor: the two branches meet at eps
    left, _ = _kirchhoff(np.array([eps * (1 - 1e-12)]), gamma, eps, NewtonWork(1))
    right, _ = _kirchhoff(np.array([eps * (1 + 1e-12)]), gamma, eps, NewtonWork(1))
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
        w, d = _kirchhoff(u, gamma, eps, NewtonWork(n))
        expected_w, expected_d = _kirchhoff_full_array(u, gamma, eps)
        assert w.tobytes() == expected_w.tobytes(), name
        assert d.tobytes() == expected_d.tobytes(), name


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

    @pytest.mark.parametrize("gamma", [0.5, 0.8])
    def test_subcycles_match_plain_expression_bitwise(self, gamma):
        # the buffered loop against the packed sub-cycle written out plainly:
        # u = u + ifft(a * z + b * conj(z[-k]), norm="forward") with z the fft
        # of max(u, eps)**gamma viewed as n/2 complex samples
        g = ff.make_grid(20.0, 128)
        f = ff.Field.from_function(g, lambda x: np.exp(-x**2 / 8.0))
        alpha, dt, n_sub, eps = 0.75, 0.01, 7, ff.EPS_REG
        m = ff.build_symbol(ff.FractionalLaplacian(alpha), g)
        a, b = _packed_multiplier((dt / n_sub) * m)
        reverse = -np.arange(g.n // 2) % (g.n // 2)
        u = f.values.copy()
        for _ in range(n_sub):
            z = np.fft.fft((np.maximum(u, eps) ** gamma).view(complex))
            u = u + np.fft.ifft(a * z + b * np.conj(z[reverse]), norm="forward").view(float)
        out = ff.fractional_fast_diffusion_step(f.values, alpha, gamma, dt, g, n_sub=n_sub)
        assert out.tobytes() == u.tobytes()
        # and within roundoff of the real-transform loop
        v = f.values.copy()
        for _ in range(n_sub):
            v = v + (dt / n_sub) * np.fft.irfft(np.fft.rfft(np.maximum(v, eps) ** gamma) * m)
        assert np.max(np.abs(out - v)) < 1e-13

    def test_gamma_one_converges_to_semigroup_first_order(self):
        g = ff.make_grid(10.0, 128)
        f = ff.Field.from_function(g, lambda x: 0.5 + 0.3 * np.cos(g.xi[1] * x))
        alpha, dt = 0.75, 0.05
        exact = semigroup(ff.FractionalLaplacian(alpha), f, dt)
        errs = []
        for n_sub in (40, 80, 160):
            out = ff.fractional_fast_diffusion_step(f.values, alpha, 1.0, dt, g, n_sub=n_sub)
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
    + [("fractional_fast_diffusion_step", 0.01, {"n_sub": v}) for v in (0, 2.5, np.nan, True)]
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
