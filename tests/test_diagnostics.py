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

    @pytest.mark.parametrize("window", [slice(5, 5), slice(5, 6), slice(600, None)])
    def test_window_below_two_nodes_raises(self, grid, window):
        f = ff.Field(grid, (grid.x < 0).astype(float))
        with pytest.raises(ff.WindowOutOfDomain):
            ff.level_position(f, 0.5, window=window)

    def test_window_hides_nodes_outside_it(self, grid):
        # a spike at node 400 moves x_0.5 there unless the window stops before it
        vals = (grid.x < 0).astype(float)
        vals[400] = 0.7
        f = ff.Field(grid, vals)
        assert ff.level_position(f, 0.5) > grid.x[400]
        assert abs(ff.level_position(f, 0.5, window=slice(0, 400))) <= grid.dx

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
        for _, fld in traj.snapshots():
            x4 = ff.level_position(fld, 0.4, window=traj.window)
            x6 = ff.level_position(fld, 0.6, window=traj.window)
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
        for _, fld in traj.snapshots():
            assert ff.interface_width(fld, window=traj.window) >= 0.0

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

    @pytest.mark.parametrize("hi, lo", [
        (float("nan"), 1.0 / 3.0), (0.3, 0.7), (0.5, 0.5), (1.0, 0.2), (0.8, 0.0),
        (0.8, float("nan")),
    ])
    def test_thresholds_must_be_ordered_in_unit_interval(self, grid, hi, lo):
        f = ramp_field(grid, 0.0, 10.0)
        with pytest.raises(ff.LambdaOutOfRange):
            ff.interface_width(f, hi=hi, lo=lo)


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

    @pytest.mark.parametrize("radius", [float("nan"), -3.0, float("inf")])
    def test_radius_must_be_finite_and_nonnegative(self, radius):
        # a NaN or negative radius would otherwise read as perfectly flat
        g = ff.make_grid(20.0, 2**10)
        f = ff.Field(g, np.clip(0.5 - 0.04 * g.x, 0.0, 1.0))
        with pytest.raises(ff.ValidationFailed):
            ff.flatness(f, 0.5, radius)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "diagnostic",
    [lambda f: ff.level_position(f, 0.5), lambda f: ff.stretching(f, 0.4, 0.6),
     lambda f: ff.interface_width(f), lambda f: ff.flatness(f, 0.5, 1.0)],
    ids=["level_position", "stretching", "interface_width", "flatness"],
)
def test_nonfinite_value_is_rejected(grid, diagnostic, bad):
    # the running maximum from the right would skip a NaN left of the crossing
    f = ramp_field(grid, -2.0, 2.0)
    f.values[5] = bad
    with pytest.raises(ff.ValidationFailed):
        diagnostic(f)


class TestLevelTrace:
    def test_misaligned_times_and_positions_are_a_length_mismatch(self):
        with pytest.raises(ff.LengthMismatch):
            LevelTrace(0.5, [0.0, 1.0, 2.0], [0.0, 1.0])

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]],
                             ids=["repeated", "decreasing"])
    def test_times_must_increase(self, times):
        with pytest.raises(ff.InsufficientPoints):
            LevelTrace(0.5, times, [0.0, 1.0, 2.0])


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

    @pytest.mark.parametrize(
        "initial, settings",
        [
            (ff.Indicator(0.0), {}),
            # levels, stretch pair and flatness level that share no value
            (ff.GaussianBump(100.0), dict(lambdas=(0.3,), stretch_pair=(0.25, 0.7),
                                          flat_level=0.45, flat_radius=3.0)),
        ],
        ids=["front", "bump"],
    )
    def test_rows_equal_standalone_functions_bitwise(self, initial, settings):
        cfg = ff.RunConfig(L=100.0, N=2**10, dispersal=ff.StandardLaplacian(), t_end=3.0,
                           initial=initial, **settings)
        traj = ff.run(cfg)
        assert (traj.window == slice(None)) == isinstance(initial, ff.GaussianBump)
        window = traj.window
        # a flat snapshot puts sentinels in every level and nan in the rest
        traj.times.append(cfg.t_end + 1.0)
        traj.fields.append(ff.Field.constant(traj.grid, 0.5))
        nan = float("nan")
        rows = build_report(traj).rows
        for (t, fld), row in zip(traj.snapshots(), rows, strict=True):
            levels = {lam: ff.level_position(fld, lam, window=window) for lam in row.levels}
            try:
                stretch = ff.stretching(fld, *cfg.stretch_pair, window=window)
            except ff.InfinitePosition:
                stretch = nan
            try:
                width = ff.interface_width(fld, window=window)
            except ff.ThresholdsNotSpanned:
                width = nan
            try:
                devs = ff.flatness(fld, cfg.flat_level, cfg.flat_radius, window=window)
            except (ff.InfinitePosition, ff.WindowOutOfDomain):
                devs = (nan, nan)
            expected = [t, *ff.range_bounds(fld), *levels.values(), stretch, width, *devs]
            got = [row.t, row.m, row.M, *row.levels.values(), row.stretch, row.width,
                   row.flat_left, row.flat_right]
            assert set(levels) == {0.4, 0.5, 0.6, *cfg.lambdas}
            assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert np.isinf(list(rows[-1].levels.values())).all() and np.isnan(rows[-1].stretch)

    def test_front_report_scans_the_guard_window_only(self):
        # the window stops at node 7168 (x = 300 = 0.75 L); a spike on that
        # node lies outside it, so no level position may move to x = 300
        cfg = ff.RunConfig(L=400.0, N=2**13, dispersal=ff.StandardLaplacian(), t_end=0.0,
                           initial=ff.Indicator(0.0))
        g = cfg.grid()
        assert g.x[7168] == 300.0
        clean = ff.smoothed_step(g).values
        spiked = clean.copy()
        spiked[7168] = 0.7

        def report(vals):
            traj = ff.Trajectory(cfg, [0.0], [ff.Field(g, vals)], window=slice(1024, 7168))
            return build_report(traj).rows[0]

        row, ref = report(spiked), report(clean)
        assert row.levels == ref.levels
        assert all(abs(x) < 1.0 for x in row.levels.values())
        assert (row.stretch, row.width) == (ref.stretch, ref.width)
        assert (row.flat_left, row.flat_right) == (ref.flat_left, ref.flat_right)
