"""Time-stepping tests: splitting degeneracies, snapshot scheduling, the
boundary guard, determinism, restart consistency, and translation
equivariance (bitwise for half-box shifts, roundoff-tight in general).
"""

import numpy as np
import pytest

import fastfronts as ff
from fastfronts.integrator import DispersalStepper


def delta_kernel(grid):
    """Kernel with all mass at x=0: its symbol is exactly zero."""
    js = np.zeros(grid.n)
    js[grid.n // 2] = 1.0 / grid.dx
    return ff.TabulatedKernel.from_arrays(grid.x, js)


@pytest.fixture
def small_grid():
    return ff.make_grid(200.0, 2**11)


class TestStrangStep:
    def test_no_reaction_equals_dispersal_substep(self, small_grid):
        g = small_grid
        spec = ff.FractionalLaplacian(0.7)
        stepper = DispersalStepper(spec, g)
        f = ff.Field.from_function(g, lambda x: np.exp(-x**2 / 30.0))
        out, _ = ff.strang_step(f.values, stepper, None, 0.05)
        direct = DispersalStepper(spec, g).step_values(f.values, 0.05)
        assert np.max(np.abs(np.clip(out, 0, 1) - np.clip(direct, 0, 1))) < 1e-15

    def test_zero_symbol_reduces_to_exact_logistic(self, small_grid):
        g = small_grid
        stepper = DispersalStepper(ff.Convolution(delta_kernel(g)), g)
        assert np.all(stepper.symbol.m == 0.0)
        f = ff.Field.from_function(g, lambda x: np.exp(-x**2 / 30.0))
        out, _ = ff.strang_step(f.values, stepper, ff.KppLogistic(), 0.2)
        # R(dt/2) o I o R(dt/2) composes exactly to the dt flow
        expected = ff.logistic_exact_step(f.values, 0.2)
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_requires_positive_dt(self, small_grid):
        stepper = DispersalStepper(ff.StandardLaplacian(), small_grid)
        f = ff.Field.constant(small_grid, 0.5)
        with pytest.raises(ff.ParameterOutOfRange):
            ff.strang_step(f.values, stepper, ff.KppLogistic(), 0.0)


class TestRun:
    def test_t_end_zero_records_only_initial(self):
        cfg = ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=0.0)
        traj = ff.run(cfg)
        assert traj.times == [0.0]
        u0 = ff.GaussianBump().build(cfg.grid())
        assert np.array_equal(traj.fields[0].values, u0)

    def test_zero_initial_stays_zero(self):
        cfg = ff.RunConfig(
            L=100.0, N=2**9, dispersal=ff.FractionalLaplacian(0.5), t_end=3.0,
            initial=ff.TabulatedInitial.from_array(np.zeros(2**9)),
        )
        traj = ff.run(cfg)
        for _, fld in traj.snapshots():
            assert np.all(fld.values == 0.0)

    def test_snapshot_schedule_default_and_custom(self):
        cfg = ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=2.5)
        assert cfg.resolved_snapshots() == (0.0, 1.0, 2.0, 2.5)
        cfg2 = ff.RunConfig(
            L=100.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=2.0,
            snapshot_times=(0.0, 0.5, 2.0),
        )
        traj = ff.run(cfg2)
        assert traj.times == [0.0, 0.5, 2.0]

    def test_snapshot_validation(self):
        with pytest.raises(ff.ValidationFailed):
            ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(),
                         t_end=2.0, snapshot_times=(0.0, 3.0))
        with pytest.raises(ff.ValidationFailed):
            ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(),
                         t_end=2.0, snapshot_times=(1.0, 1.0))

    def test_determinism_bitwise(self):
        cfg = ff.RunConfig(L=200.0, N=2**11, dispersal=ff.FractionalLaplacian(0.9), t_end=3.0)
        t1, t2 = ff.run(cfg), ff.run(cfg)
        assert t1.times == t2.times
        for a, b in zip(t1.fields, t2.fields):
            assert np.array_equal(a.values, b.values)

    def test_clamp_overshoot_small_for_linear_logistic(self):
        cfg = ff.RunConfig(L=200.0, N=2**11, dispersal=ff.FractionalLaplacian(0.9), t_end=3.0)
        traj = ff.run(cfg)
        assert traj.max_overshoot < 1e-9

    def test_time_shift_restart(self):
        cfg = ff.RunConfig(L=400.0, N=2**12, dispersal=ff.Convolution(
            ff.StretchedExponential(0.5, 1.0)), t_end=4.0)
        traj = ff.run(cfg)
        assert not traj.breached
        mid = traj.field_at(2.0)
        cfg2 = ff.RunConfig(L=400.0, N=2**12, dispersal=ff.Convolution(
            ff.StretchedExponential(0.5, 1.0)), t_end=2.0,
            initial=ff.TabulatedInitial.from_array(mid.values))
        tail = ff.run(cfg2)
        gap = np.max(np.abs(tail.field_at(2.0).values - traj.field_at(4.0).values))
        assert gap < 1e-10

    def test_translation_equivariance_half_box_exact(self):
        # rolling by N/2 commutes bitwise with the whole split pipeline
        base = dict(L=200.0, N=2**11, t_end=2.0)
        for spec in (ff.StandardLaplacian(), ff.FractionalLaplacian(0.9),
                     ff.Convolution(ff.StretchedExponential(0.5, 1.0))):
            g = ff.make_grid(base["L"], base["N"])
            u0 = np.exp(-g.x**2 / 100.0)
            s = g.n // 2
            ref = ff.run(ff.RunConfig(dispersal=spec, **base))
            rolled = ff.run(ff.RunConfig(
                dispersal=spec, **base,
                initial=ff.TabulatedInitial.from_array(np.roll(u0, s))))
            for a, b in zip(rolled.fields, ref.fields):
                assert np.array_equal(a.values, np.roll(b.values, s))

    def test_translation_equivariance_general_shift_roundoff(self):
        g = ff.make_grid(200.0, 2**11)
        u0 = np.exp(-g.x**2 / 100.0)
        shift = 37
        base = dict(L=200.0, N=2**11, t_end=2.0,
                    dispersal=ff.FractionalLaplacian(0.9))
        ref = ff.run(ff.RunConfig(**base))
        rolled = ff.run(ff.RunConfig(
            **base, initial=ff.TabulatedInitial.from_array(np.roll(u0, shift))))
        worst = max(
            float(np.max(np.abs(a.values - np.roll(b.values, shift))))
            for a, b in zip(rolled.fields, ref.fields)
        )
        assert worst < 1e-12

    def test_fast_diffusion_equivariance_interior(self):
        # Neumann ends are not translation invariant, but far from the
        # boundary a shifted bump evolves as the shifted solution
        base = dict(L=2000.0, N=2**13, t_end=1.0, dispersal=ff.FastDiffusion(0.5))
        g = ff.make_grid(base["L"], base["N"])
        u0 = np.exp(-g.x**2 / 100.0)
        shift = 16
        ref = ff.run(ff.RunConfig(**base))
        rolled = ff.run(ff.RunConfig(
            **base, initial=ff.TabulatedInitial.from_array(np.roll(u0, shift))))
        worst = max(
            float(np.max(np.abs(a.values - np.roll(b.values, shift))))
            for a, b in zip(rolled.fields, ref.fields)
        )
        assert worst < 1e-10


class TestGuard:
    def test_gaussian_guard_watches_both_ends(self):
        cfg = ff.RunConfig(L=60.0, N=2**10, dispersal=ff.StandardLaplacian(), t_end=20.0)
        traj = ff.run(cfg)
        assert traj.guard_mode == "both_ends"
        assert traj.breached
        assert 0.0 < traj.guard_breach_time <= 20.0
        # the final recorded state is the breaching one
        assert traj.times[-1] == traj.guard_breach_time

    def test_breach_raises_when_requested(self):
        cfg = ff.RunConfig(L=60.0, N=2**10, dispersal=ff.StandardLaplacian(), t_end=20.0)
        with pytest.raises(ff.GuardBreached) as err:
            ff.run(cfg, raise_on_breach=True)
        assert err.value.time > 0.0
        assert "grid.L" in str(err.value)

    def test_front_mode_detected_and_clean(self):
        cfg = ff.RunConfig(L=400.0, N=2**12, dispersal=ff.StandardLaplacian(), t_end=2.0,
                           initial=ff.Indicator(0.0))
        traj = ff.run(cfg)
        assert traj.guard_mode == "front"
        assert not traj.breached

    def test_clean_small_run(self):
        cfg = ff.RunConfig(L=200.0, N=2**11, dispersal=ff.StandardLaplacian(), t_end=5.0)
        traj = ff.run(cfg)
        assert not traj.breached
        assert traj.times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


class TestSnapshotDump:
    def test_format_roundtrip(self, tmp_path):
        cfg = ff.RunConfig(L=50.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=1.0)
        traj = ff.run(cfg)
        path = tmp_path / "snaps.txt"
        ff.save_snapshots(traj, path)
        text = path.read_text().splitlines()
        headers = [ln for ln in text if ln.startswith("# t=")]
        assert len(headers) == len(traj.times)
        assert headers[0] == "# t=0"
        # each block has one x u line per node, parseable back to floats
        block = text[1 : 1 + cfg.N]
        xs, us = zip(*(map(float, ln.split()) for ln in block))
        assert np.array_equal(np.asarray(xs), traj.grid.x)
        assert np.array_equal(np.asarray(us), traj.fields[0].values)


class TestInitialConditions:
    def test_indicator(self):
        g = ff.make_grid(10.0, 16)
        vals = ff.build_initial(ff.Indicator(0.0), g).values
        assert np.array_equal(vals, (g.x < 0).astype(float))

    def test_tabulated_length_checked(self):
        g = ff.make_grid(10.0, 16)
        with pytest.raises(ff.ValidationFailed):
            ff.build_initial(ff.TabulatedInitial.from_array(np.zeros(8)), g)

    def test_range_checked(self):
        g = ff.make_grid(10.0, 16)
        with pytest.raises(ff.ValidationFailed):
            ff.build_initial(ff.TabulatedInitial.from_array(np.full(16, 1.5)), g)

    def test_config_validation(self):
        with pytest.raises(ff.ValidationFailed):
            ff.RunConfig(L=10.0, N=16, dispersal=ff.StandardLaplacian(), t_end=1.0, dt=0.0)
        with pytest.raises(ff.ValidationFailed):
            ff.RunConfig(L=10.0, N=16, dispersal=ff.StandardLaplacian(), t_end=1.0,
                         guard_threshold=0.9)
