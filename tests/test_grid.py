"""Grid construction tests: node placement, spacing, parameter gates, the
signed frequency layout the dispersal symbols are built on, and the field
length check.
"""

import sys

import numpy as np
import pytest

import fastfronts as ff


class TestMakeGrid:
    def test_small_grid_nodes(self):
        g = ff.make_grid(10, 8)
        assert g.dx == 2.5
        assert np.allclose(g.x, [-10, -7.5, -5, -2.5, 0, 2.5, 5, 7.5])

    def test_large_grid_spacing_exact(self):
        g = ff.make_grid(2000, 2**15)
        assert g.dx == 0.1220703125

    def test_not_power_of_two(self):
        with pytest.raises(ff.NotPowerOfTwo):
            ff.make_grid(10, 7)

    def test_too_few_nodes(self):
        with pytest.raises(ff.NotPowerOfTwo):
            ff.make_grid(10, 4)

    @pytest.mark.parametrize("n", [2**31, 2**40])
    def test_node_count_bound_checked_before_allocation(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the node bound must fire before the grid allocates")

        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(ff.ValidationFailed):
            ff.make_grid(10, n)

    def test_width_above_float64_range_checked_before_allocation(self, monkeypatch):
        # 2L overflowed: dx was inf and x[0] NaN, with numpy's warning
        widest = ff.make_grid(np.finfo(float).max / 2, 8)
        assert np.isfinite(widest.dx) and np.isfinite(widest.x).all()

        def refuse(*args, **kwargs):
            raise AssertionError("the width gate must fire before the grid allocates")

        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(ff.ValidationFailed):
            ff.make_grid(1e308, 8)

    def test_subnormal_spacing_checked_before_allocation(self, monkeypatch):
        # xi = pi k / L overflowed with numpy's warning (a bare RuntimeWarning
        # under -W error), and a classical run on the grid breached at t = 0
        smallest = ff.make_grid(4 * sys.float_info.min, 8)
        assert smallest.dx == sys.float_info.min
        assert np.isfinite(smallest.x).all() and np.isfinite(smallest.xi).all()

        def refuse(*args, **kwargs):
            raise AssertionError("the spacing gate must fire before the grid allocates")

        monkeypatch.setattr(np, "arange", refuse)
        for L in (1e-310, 2 * sys.float_info.min):
            with pytest.raises(ff.ValidationFailed, match="finite normal floats"):
                ff.make_grid(L, 8)

    def test_nonpositive_length(self):
        with pytest.raises(ff.NonPositiveLength):
            ff.make_grid(0.0, 16)
        with pytest.raises(ff.NonPositiveLength):
            ff.make_grid(-3.0, 16)

    def test_node_endpoints(self):
        g = ff.make_grid(7.5, 64)
        assert g.x[0] == -7.5
        assert g.x[-1] == pytest.approx(7.5 - g.dx, abs=0)

    def test_frequency_layout(self):
        # one frequency per real-transform bin k = 0..N/2, exactly pi * k / L
        g = ff.make_grid(5.0, 16)
        assert g.xi.shape == (9,)
        assert np.array_equal(g.xi, np.pi * np.arange(16 // 2 + 1) / 5.0)


class TestTransforms:
    def test_length_mismatch(self):
        g8 = ff.make_grid(10, 8)
        with pytest.raises(ff.LengthMismatch):
            ff.Field(g8, np.zeros(16))
