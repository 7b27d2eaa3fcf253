"""Diagnostics tests: level positions with sentinels, stretching, interface
width, windowed flatness, and least-squares speed fits, each against simple
closed-form profiles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fastfronts as ff
from fastfronts.diagnostics import LevelTrace, build_report


@pytest.fixture
def grid():
    return ff.make_grid(20.0, 2**9)


def ramp_field(grid, x0, x1):
    """1 left of x0, 0 right of x1, linear in between."""
    vals = np.clip((x1 - grid.x) / (x1 - x0), 0.0, 1.0)
    return ff.Field(grid, vals)


class TestRangeBounds:
    def test_constant(self, grid):
        assert ff.range_bounds(ff.Field.constant(grid, 0.3)) == (0.3, 0.3)

    def test_indicator(self, grid):
        f = ff.Field(grid, (grid.x < 0).astype(float))
        assert ff.range_bounds(f) == (0.0, 1.0)

    def test_gaussian_tail(self):
        g = ff.make_grid(200.0, 2**12)
        f = ff.Field.from_function(g, lambda x: np.exp(-x**2 / 100.0))
        lo, hi = ff.range_bounds(f)
        assert lo < 1e-15 and hi == 1.0


class TestLevelPosition:
    def test_indicator_half_level(self, grid):
        f = ff.Field(grid, (grid.x < 0).astype(float))
        pos = ff.level_position(f, 0.5)
        assert abs(pos) <= grid.dx

    def test_all_below_gives_minus_inf(self, grid):
        f = ff.Field.constant(grid, 0.2)
        assert ff.level_position(f, 0.5) == float("-inf")

    def test_all_above_gives_plus_inf(self, grid):
        f = ff.Field.constant(grid, 0.8)
        assert ff.level_position(f, 0.5) == float("inf")

    def test_lambda_out_of_range(self, grid):
        f = ff.Field.constant(grid, 0.5)
        for lam in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(ff.LambdaOutOfRange):
                ff.level_position(f, lam)

    def test_nonincreasing_in_lambda(self, grid):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = ff.Field(grid, rng.random(grid.n))
            lams = np.linspace(0.05, 0.95, 19)
            poss = [ff.level_position(f, lam) for lam in lams]
            for a, b in zip(poss, poss[1:]):
                assert b <= a or np.isclose(a, b)

    @given(
        vals=arrays(np.float64, 32, elements=st.floats(0.0, 1.0)),
        lo=st.floats(0.05, 0.45),
        hi=st.floats(0.55, 0.95),
    )
    @settings(max_examples=150, deadline=None)
    def test_sentinel_ordering_property(self, vals, lo, hi):
        # -inf <= x_hi <= x_lo <= +inf for any field and any ordered levels
        f = ff.Field(ff.make_grid(8.0, 32), vals)
        p_lo = ff.level_position(f, lo)
        p_hi = ff.level_position(f, hi)
        assert p_hi <= p_lo or np.isclose(p_lo, p_hi)

    def test_interpolates_linear_ramp(self, grid):
        f = ramp_field(grid, 0.0, 10.0)
        # level lam sits at x = 10 * (1 - lam) on the ramp
        for lam in (0.25, 0.5, 0.75):
            pos = ff.level_position(f, lam)
            assert pos == pytest.approx(10.0 * (1.0 - lam), abs=grid.dx)

    def test_gaussian_tracks_right_interface(self):
        g = ff.make_grid(100.0, 2**11)
        f = ff.Field.from_function(g, lambda x: np.exp(-x**2 / 100.0))
        pos = ff.level_position(f, 0.5)
        assert pos == pytest.approx(np.sqrt(100.0 * np.log(2.0)), abs=g.dx)
        assert pos > 0  # right interface, not the mirror-image left one


class TestStretching:
    def test_sharp_step(self, grid):
        f = ff.Field(grid, (grid.x < 0).astype(float))
        assert ff.stretching(f, 0.4, 0.6) <= grid.dx

    def test_linear_ramp_value(self, grid):
        f = ramp_field(grid, 0.0, 10.0)
        # levels 0.4 and 0.6 are 0.2 * 10 apart on the ramp
        assert ff.stretching(f, 0.4, 0.6) == pytest.approx(2.0, abs=grid.dx)

    def test_requires_ordered_levels(self, grid):
        f = ramp_field(grid, 0.0, 10.0)
        with pytest.raises(ff.LambdaOutOfRange):
            ff.stretching(f, 0.6, 0.4)

    def test_sentinel_raises(self, grid):
        f = ff.Field.constant(grid, 0.2)
        with pytest.raises(ff.InfinitePosition):
            ff.stretching(f, 0.4, 0.6)

    def test_level_ordering_on_monotone_run(self):
        cfg = ff.RunConfig(L=200.0, N=2**11, dispersal=ff.StandardLaplacian(), t_end=3.0,
                           initial=ff.Indicator(0.0))
        traj = ff.run(cfg)
        x_win = traj.grid.L * (1 - cfg.seam_margin_frac)
        for _, fld in traj.snapshots():
            x4 = ff.level_position(fld, 0.4, x_max=x_win)
            x6 = ff.level_position(fld, 0.6, x_max=x_win)
            assert x6 <= x4 + traj.grid.dx


class TestInterfaceWidth:
    def test_sharp_step(self, grid):
        f = ff.Field(grid, (grid.x < 0).astype(float))
        assert ff.interface_width(f) <= grid.dx

    def test_ramp_over_three_units(self, grid):
        f = ramp_field(grid, 0.0, 3.0)
        # thresholds 2/3 and 1/3 are one unit apart on this ramp
        assert ff.interface_width(f) == pytest.approx(1.0, abs=grid.dx)

    def test_thresholds_not_spanned(self, grid):
        with pytest.raises(ff.ThresholdsNotSpanned):
            ff.interface_width(ff.Field.constant(grid, 0.5))

    def test_nonnegative_on_monotone_snapshots(self):
        cfg = ff.RunConfig(L=200.0, N=2**11, dispersal=ff.StandardLaplacian(), t_end=3.0,
                           initial=ff.Indicator(0.0))
        traj = ff.run(cfg)
        x_win = traj.grid.L * (1 - cfg.seam_margin_frac)
        for _, fld in traj.snapshots():
            assert ff.interface_width(fld, x_max=x_win) >= 0.0

    def test_relates_to_stretching_on_monotone_profile(self, grid):
        f = ramp_field(grid, -3.0, 6.0)
        w = ff.interface_width(f)
        s = ff.stretching(f, 1.0 / 3.0, 2.0 / 3.0)
        assert w >= s - 2 * grid.dx

    def test_bump_profile_measures_right_interface(self):
        g = ff.make_grid(40.0, 2**10)
        f = ff.Field.from_function(g, lambda x: np.exp(-x**2 / 40.0))
        w = ff.interface_width(f)
        # closed-form: gaussian crosses 2/3 and 1/3 on the right flank
        x_hi = np.sqrt(-40.0 * np.log(2.0 / 3.0))
        x_lo = np.sqrt(-40.0 * np.log(1.0 / 3.0))
        assert w == pytest.approx(x_lo - x_hi, abs=2 * g.dx)

    def test_custom_thresholds(self, grid):
        f = ramp_field(grid, 0.0, 10.0)
        # levels 0.8 and 0.2 sit 6 units apart on this ramp
        w = ff.interface_width(f, hi=0.8, lo=0.2)
        assert w == pytest.approx(6.0, abs=grid.dx)


class TestFlatness:
    def test_sentinel_position_raises(self, grid):
        f = ff.Field.constant(grid, 0.5)
        with pytest.raises(ff.InfinitePosition):
            ff.flatness(f, 0.5, 2.0)  # position is +inf for a constant field

    def test_plateau_zeroes_the_left_deviation(self):
        # 0.5 plateau ending in a cliff at x=10: the level position sits at
        # the plateau edge, so the left window is exactly flat while the
        # right window sees the full drop
        g = ff.make_grid(20.0, 2**9)
        vals = np.where(g.x <= 10.0, 0.5, 0.0)
        left, right = ff.flatness(ff.Field(g, vals), 0.5, 2.0)
        assert left == 0.0
        assert right == 0.5

    def test_linear_ramp_deviation(self):
        g = ff.make_grid(20.0, 2**10)
        slope = 0.04
        vals = np.clip(0.5 - slope * g.x, 0.0, 1.0)
        f = ff.Field(g, vals)
        radius = 3.0
        left, right = ff.flatness(f, 0.5, radius)
        assert left == pytest.approx(slope * radius, abs=slope * g.dx * 2)
        assert right == pytest.approx(slope * radius, abs=slope * g.dx * 2)

    def test_deviation_shrinks_with_radius(self):
        g = ff.make_grid(20.0, 2**10)
        f = ff.Field(g, np.clip(0.5 - 0.04 * g.x, 0.0, 1.0))
        l1, r1 = ff.flatness(f, 0.5, 1.0)
        l3, r3 = ff.flatness(f, 0.5, 3.0)
        assert l1 <= l3 and r1 <= r3

    def test_window_out_of_domain(self):
        g = ff.make_grid(5.0, 2**9)
        f = ff.Field(g, np.clip(0.5 - 0.2 * g.x, 0.0, 1.0))
        with pytest.raises(ff.WindowOutOfDomain):
            ff.flatness(f, 0.5, 100.0)


class TestSpeedFit:
    def test_exact_linear_trace(self):
        t = np.linspace(0, 10, 21)
        trace = LevelTrace(0.5, t, 3.25 * t + 1.0)
        assert ff.speed_fit(trace, 0.0, 10.0) == pytest.approx(3.25, abs=1e-12)

    def test_constant_trace(self):
        t = np.linspace(0, 10, 11)
        trace = LevelTrace(0.5, t, np.full(11, 2.0))
        assert ff.speed_fit(trace, 0.0, 10.0) == 0.0

    def test_quadratic_midpoint_derivative(self):
        # least-squares slope of t^2 over an evenly sampled symmetric window
        # equals the derivative at the window midpoint: 2 * 5 = 10
        t = np.linspace(0, 8, 33)
        t = np.concatenate([t, [9.0, 10.0]])  # irrelevant outside points
        t = np.unique(t)
        trace = LevelTrace(0.5, t, t**2)
        assert ff.speed_fit(trace, 4.0, 6.0) == pytest.approx(10.0, abs=1e-9)

    def test_insufficient_points(self):
        trace = LevelTrace(0.5, [0.0, 1.0, 2.0], [0.0, float("inf"), 2.0])
        with pytest.raises(ff.InsufficientPoints):
            ff.speed_fit(trace, 0.0, 2.0)

    def test_sentinels_excluded(self):
        t = np.arange(6.0)
        x = np.array([-np.inf, 1.0, 2.0, 3.0, 4.0, np.inf])
        trace = LevelTrace(0.5, t, x)
        assert ff.speed_fit(trace, 0.0, 5.0) == pytest.approx(1.0, abs=1e-12)


class TestReport:
    def test_report_invariants_and_columns(self):
        cfg = ff.RunConfig(L=200.0, N=2**11, dispersal=ff.StandardLaplacian(), t_end=4.0)
        traj = ff.run(cfg)
        rep = build_report(traj)
        assert len(rep.rows) == len(traj.times)
        for row in rep.rows:
            assert 0.0 <= row.m <= row.M <= 1.0
            assert set(row.levels) >= {0.4, 0.5, 0.6}
        assert 0.5 in rep.traces
        assert rep.speeds  # fitted on the trailing window

    def test_snapshot_outside_unit_range_fails_loudly(self):
        # a plain assert here would vanish under python -O
        cfg = ff.RunConfig(L=20.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=0.0)
        field = ff.Field.constant(cfg.grid(), 1.5)
        traj = ff.Trajectory(cfg, [0.0], [field])
        with pytest.raises(ff.ValidationFailed):
            build_report(traj)
