"""Property-harness tests: preconditions, verdict bookkeeping, and solver
runs exercising the ordering, monotonicity, spreading, and mass checks at
small scale (the full acceptance-scale runs live in test_acceptance).
"""

from dataclasses import replace

import numpy as np
import pytest

import fastfronts as ff
from fastfronts import dispersal, integrator, properties


@pytest.fixture
def frac_cfg():
    return ff.RunConfig(L=500.0, N=2**12, dispersal=ff.FractionalLaplacian(0.9), t_end=5.0)


class TestComparison:
    def test_equal_inputs_zero_violation(self, frac_cfg):
        g = frac_cfg.grid()
        u0 = ff.Field(g, 0.5 * np.exp(-g.x**2 / 100.0))
        v = ff.check_comparison(u0, u0.copy(), frac_cfg)
        assert v.passed and v.violation == 0.0

    def test_ordered_gaussians_stay_ordered(self, frac_cfg):
        g = frac_cfg.grid()
        u0 = ff.Field(g, 0.5 * np.exp(-g.x**2 / 100.0))
        v0 = ff.Field(g, np.exp(-g.x**2 / 100.0))
        verdict = ff.check_comparison(u0, v0, frac_cfg)
        assert verdict.passed
        assert verdict.violation <= 1e-9

    def test_unordered_rejected(self, frac_cfg):
        g = frac_cfg.grid()
        a = 0.1 * np.ones(g.n)
        b = 0.1 * np.ones(g.n)
        a[g.n // 2] = 0.9
        with pytest.raises(ff.PreconditionViolated):
            ff.check_comparison(ff.Field(g, a), ff.Field(g, b), frac_cfg)

    def test_data_off_the_run_grid_rejected(self, frac_cfg):
        g = ff.make_grid(250.0, frac_cfg.N)
        u0 = ff.Field(g, 0.5 * np.exp(-g.x**2 / 100.0))
        with pytest.raises(ff.PreconditionViolated):
            ff.check_comparison(u0, u0.copy(), frac_cfg)
        with pytest.raises(ff.PreconditionViolated):
            ff.check_comparison(ff.Field(frac_cfg.grid(), u0.values), u0, frac_cfg)

    def test_reproducible_bitwise(self, frac_cfg):
        g = frac_cfg.grid()
        rng = np.random.default_rng(5)
        u0, v0 = ff.ordered_gaussian_pair(g, rng)
        v1 = ff.check_comparison(u0, v0, frac_cfg)
        v2 = ff.check_comparison(u0, v0, frac_cfg)
        assert v1.violation == v2.violation

    def test_breaching_run_raises(self):
        # v0 breaches at t=2.17 and u0 at t=4.12; a verdict read off the two
        # truncated runs compared u(3) with v(2.17) and reported a fail
        cfg = ff.RunConfig(L=16.0, N=256, dispersal=ff.StandardLaplacian(), t_end=10.0)
        g = cfg.grid()
        u0 = 0.5 * np.exp(-g.x**2 / 4.0)
        v0 = u0 + 0.05 * np.exp(-g.x**2 / 20.0) * (1.0 - u0)
        with pytest.raises(ff.GuardBreached):
            ff.check_comparison(ff.Field(g, u0), ff.Field(g, v0), cfg)

    def test_pair_builder_contract(self):
        g = ff.make_grid(300.0, 2**10)
        rng = np.random.default_rng(17)
        for _ in range(25):
            u0, v0 = ff.ordered_gaussian_pair(g, rng)
            assert np.all(u0.values >= 0.0)
            assert np.all(u0.values <= v0.values)
            assert np.all(v0.values <= 1.0)


class TestMonotone:
    def test_indicator_standard(self):
        # dx must resolve the front: its spectral tail rings at the Nyquist
        # band and a coarse grid leaves that ringing above the tolerance
        cfg = ff.RunConfig(L=400.0, N=2**13, dispersal=ff.StandardLaplacian(), t_end=5.0)
        u0 = ff.Field(cfg.grid(), (cfg.grid().x < 0).astype(float))
        v = ff.check_monotone_preservation(u0, cfg)
        assert v.passed, v.line()

    def test_smoothed_step_convolution(self):
        cfg = ff.RunConfig(
            L=2000.0, N=2**14, seam_margin_frac=0.35,
            dispersal=ff.Convolution(ff.StretchedExponential(0.5, 1.0)), t_end=5.0,
        )
        v = ff.check_monotone_preservation(ff.smoothed_step(cfg.grid()), cfg)
        assert v.passed, v.line()

    def test_breaching_run_raises(self, frac_cfg):
        # the fat tail reaches the window edge at t=1.95; the slope there
        # is the guard's breach, not a fault of the scheme
        with pytest.raises(ff.GuardBreached) as err:
            ff.check_monotone_preservation(ff.smoothed_step(frac_cfg.grid()), frac_cfg)
        assert err.value.time == pytest.approx(1.95)

    def test_data_off_the_run_grid_rejected(self, frac_cfg):
        with pytest.raises(ff.PreconditionViolated):
            ff.check_monotone_preservation(ff.smoothed_step(ff.make_grid(100.0, 2**12)), frac_cfg)

    def test_increasing_data_rejected(self):
        cfg = ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=1.0)
        g = cfg.grid()
        with pytest.raises(ff.PreconditionViolated):
            ff.check_monotone_preservation(ff.Field(g, (g.x > 0).astype(float)), cfg)


class TestSpreading:
    def test_zero_initial_rejected(self):
        cfg = ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=1.0)
        with pytest.raises(ff.ZeroInitialCondition):
            ff.check_spreading(ff.Field.constant(cfg.grid(), 0.0), cfg, 1.0)

    def test_window_overlapping_guard_rejected(self):
        cfg = ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=50.0)
        g = cfg.grid()
        u0 = ff.Field(g, np.exp(-g.x**2 / 100.0))
        with pytest.raises(ff.DomainTooSmall):
            ff.check_spreading(u0, cfg, 3.0)

    def test_front_window_reaching_the_seam_band_rejected(self):
        # front-like data: the guard watches the band [292, 300) at the
        # seam-window edge, which the window (0, 300) reaches
        cfg = ff.RunConfig(L=400.0, N=2**12, dispersal=ff.StandardLaplacian(), t_end=2.0)
        with pytest.raises(ff.DomainTooSmall, match="from x=292"):
            ff.check_spreading(ff.smoothed_step(cfg.grid()), cfg, 150.0)

    def test_breaching_run_raises(self):
        cfg = ff.RunConfig(L=16.0, N=256, dispersal=ff.StandardLaplacian(), t_end=10.0)
        g = cfg.grid()
        with pytest.raises(ff.GuardBreached):
            ff.check_spreading(ff.Field(g, np.exp(-g.x**2 / 4.0)), cfg, 0.5)

    def test_data_off_the_run_grid_rejected(self):
        # same N on a quarter of the box: the window and guard band were read
        # off the data's grid while the run stepped on the config's
        cfg = ff.RunConfig(L=400.0, N=2**10, dispersal=ff.StandardLaplacian(), t_end=5.0)
        g = ff.make_grid(100.0, 2**10)
        with pytest.raises(ff.PreconditionViolated, match="L=100"):
            ff.check_spreading(ff.Field(g, np.exp(-g.x**2 / 100.0)), cfg, 3.0)

    def test_standard_passes_below_front_speed(self):
        cfg = ff.RunConfig(L=400.0, N=2**12, dispersal=ff.StandardLaplacian(), t_end=12.0)
        g = cfg.grid()
        u0 = ff.Field(g, np.exp(-g.x**2 / 100.0))
        v = ff.check_spreading(u0, cfg, 1.5)
        assert v.passed, v.line()

    def test_standard_fails_above_front_speed(self):
        # classical minimal speed is 2 for the logistic term; a window
        # expanding at c=3 outruns the front and the check must fail
        cfg = ff.RunConfig(L=400.0, N=2**12, dispersal=ff.StandardLaplacian(), t_end=12.0)
        g = cfg.grid()
        u0 = ff.Field(g, np.exp(-g.x**2 / 100.0))
        v = ff.check_spreading(u0, cfg, 3.0)
        assert not v.passed
        assert v.violation > 1e-2  # window minimum falls short of the target

    def test_pass_is_monotone_in_window_speed(self):
        # a pass at speed c implies a pass at any smaller c (smaller window)
        cfg = ff.RunConfig(L=400.0, N=2**12, dispersal=ff.StandardLaplacian(), t_end=12.0)
        g = cfg.grid()
        u0 = ff.Field(g, np.exp(-g.x**2 / 100.0))
        verdicts = [ff.check_spreading(u0, cfg, c) for c in (1.5, 1.0, 0.5)]
        assert verdicts[0].passed
        assert all(v.passed for v in verdicts)
        minima = [v.violation for v in verdicts]
        assert minima == sorted(minima, reverse=True)

    def test_fractional_outruns_any_classical_window(self):
        # the accelerating operator fills a window expanding at c=4, twice
        # the classical front speed, on the same horizon where the classical
        # operator fails at c=3 (full-scale twin of the small cases above)
        cfg = ff.RunConfig(L=5000.0, N=2**17, dispersal=ff.FractionalLaplacian(0.9),
                           t_end=12.0)
        g = cfg.grid()
        u0 = ff.Field(g, np.exp(-g.x**2 / 100.0))
        v = ff.check_spreading(u0, cfg, 4.0)
        assert v.passed, v.line()


class TestMassNeutral:
    def test_fractional_random_data(self):
        n = 2**10
        rng = np.random.default_rng(2)
        cfg = ff.RunConfig(
            L=100.0, N=n, dispersal=ff.FractionalLaplacian(0.5), t_end=10.0,
            initial=ff.TabulatedInitial(rng.random(n)),
        )
        v = ff.check_mass_neutral(cfg)
        assert v.passed and v.violation <= 1e-9

    def test_convolution_gaussian(self):
        cfg = ff.RunConfig(
            L=100.0, N=2**10,
            dispersal=ff.Convolution(ff.StretchedExponential(0.5, 1.0)), t_end=10.0,
        )
        v = ff.check_mass_neutral(cfg)
        assert v.passed and v.violation <= 1e-9

    def test_symbol_is_built_once(self, monkeypatch):
        calls = []
        original = dispersal.build_symbol

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for module in (dispersal, integrator, properties):
            if hasattr(module, "build_symbol"):
                monkeypatch.setattr(module, "build_symbol", counting)
        cfg = ff.RunConfig(
            L=100.0, N=2**10,
            dispersal=ff.Convolution(ff.StretchedExponential(0.5, 1.0)), t_end=0.1,
        )
        assert ff.check_mass_neutral(cfg).passed
        assert len(calls) == 1

    def test_nonlinear_variant_rejected(self):
        cfg = ff.RunConfig(L=100.0, N=2**10, dispersal=ff.FastDiffusion(0.5), t_end=1.0)
        with pytest.raises(ff.NonlinearVariant):
            ff.check_mass_neutral(cfg)

    def test_unnormalised_kernel_drifts_over_the_whole_horizon(self):
        # random data breach the guard at t=0; the mass check must still
        # march to t_end, where a kernel of mass != 1 has moved the mean
        n = 2**10
        cfg = ff.RunConfig(
            L=100.0, N=n, dispersal=ff.Convolution(ff.AlgebraicTail(3.0, normalize=False)),
            t_end=10.0, initial=ff.TabulatedInitial(np.random.default_rng(7).random(n)),
        )
        assert ff.run(cfg).guard_breach_time == 0.0
        v = ff.check_mass_neutral(cfg)
        assert not v.passed
        assert v.violation > 1e-4
        assert v.worst_time == 10.0

    def test_drift_after_the_last_snapshot_time_is_measured(self):
        # the snapshots end at t=1, but the march and the drift go on to t_end
        n = 2**10
        cfg = ff.RunConfig(
            L=100.0, N=n, dispersal=ff.Convolution(ff.AlgebraicTail(3.0, normalize=False)),
            t_end=10.0, snapshot_times=(0.0, 1.0),
            initial=ff.TabulatedInitial(np.random.default_rng(7).random(n)),
        )
        v = ff.check_mass_neutral(cfg)
        auto = ff.check_mass_neutral(replace(cfg, snapshot_times=None))
        assert v.violation > 1e-4
        assert v.violation == pytest.approx(auto.violation, rel=1e-12)
        assert v.worst_time == pytest.approx(10.0, rel=1e-12)


class TestVerdicts:
    def test_gates_are_fixed(self):
        cfg = ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=1.0)
        g = cfg.grid()
        bump = ff.Field(g, np.exp(-g.x**2 / 100.0))
        half = ff.Field(g, 0.5 * bump.values)
        verdicts = [
            ff.check_comparison(half, bump, cfg),
            ff.check_monotone_preservation(ff.smoothed_step(g), cfg),
            ff.check_spreading(bump, cfg, 1.0),
            ff.check_mass_neutral(cfg),
        ]
        assert [v.tolerance for v in verdicts] == [1e-9, 1e-9, 1e-3, 1e-9]
        assert "target=0.9 " in verdicts[2].detail

    def test_line_format(self):
        v = ff.PropertyVerdict("comparison", True, 1.25e-12, 1e-9)
        fields = v.line().split()
        assert fields[0] == "comparison"
        assert fields[1] == "pass"
        assert float(fields[2]) == pytest.approx(1.25e-12)
        assert float(fields[3]) == pytest.approx(1e-9)

    def test_report_one_line_per_check(self):
        vs = [
            ff.PropertyVerdict("a", True, 0.0, 1e-9),
            ff.PropertyVerdict("b", False, 2.0, 1e-3),
        ]
        text = ff.verdict_report(vs)
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split()[1] == "fail"

    def test_pass_iff_violation_within_tolerance(self):
        v = ff.PropertyVerdict("x", True, 5e-10, 1e-9)
        assert v.passed == (v.violation <= v.tolerance)
