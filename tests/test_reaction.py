"""Reaction term tests: the exact logistic flow against a finely substepped
RK4 oracle, flow composition and monotonicity, and the monostability
validator's acceptance and rejection behavior.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fastfronts as ff


def rk4_oracle(u, dt, n_sub=1000):
    """Independent reference flow of u' = u(1-u): many small RK4 substeps."""
    f = lambda w: w * (1.0 - w)
    v = np.asarray(u, dtype=float)
    for _ in range(n_sub):
        v = ff.rk4_reaction_step(v, f, dt / n_sub)
    return v


U_GRID = np.arange(0.01, 1.0, 0.01)


class TestLogisticExact:
    def test_fixed_points(self):
        assert ff.logistic_exact_step(0.0, 3.7) == 0.0
        assert ff.logistic_exact_step(1.0, 3.7) == 1.0

    def test_step_whose_exponential_overflows_is_out_of_range(self):
        # e^1000 overflowed to inf, and the step returned [nan nan nan] with
        # overflow warnings where the exact flow gives 0, 1, 1
        with pytest.raises(ff.ParameterOutOfRange, match="overflows"):
            ff.logistic_exact_step(np.array([0.0, 0.5, 1.0]), 1000.0)
        # np.exp is finite up to log(largest float) and overflows at the next float
        top = math.log(sys.float_info.max)
        assert ff.logistic_exact_step(np.array([0.0, 0.5, 1.0]), top).tolist() == [0.0, 1.0, 1.0]
        with pytest.raises(ff.ParameterOutOfRange, match="overflows"):
            ff.logistic_exact_step(0.5, math.nextafter(top, math.inf))

    def test_half_life_value(self):
        # closed form at dt = ln 2: 0.5*2 / (0.5 + 0.5*2) = 2/3
        got = ff.logistic_exact_step(0.5, np.log(2.0))
        assert got == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert got == pytest.approx(rk4_oracle(0.5, np.log(2.0)), abs=1e-10)

    def test_matches_substepped_rk4_oracle(self):
        exact = ff.logistic_exact_step(U_GRID, 0.1)
        assert np.max(np.abs(exact - rk4_oracle(U_GRID, 0.1))) < 1e-10

    def test_composition_on_lattice(self):
        for s in (0.05, 0.4, 1.3):
            for t in (0.02, 0.7):
                two = ff.logistic_exact_step(ff.logistic_exact_step(U_GRID, s), t)
                one = ff.logistic_exact_step(U_GRID, s + t)
                assert np.max(np.abs(two - one)) < 1e-12

    @given(
        u=st.floats(0.0, 1.0),
        s=st.floats(0.0, 2.0),
        t=st.floats(0.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_composition_property(self, u, s, t):
        two = ff.logistic_exact_step(ff.logistic_exact_step(u, s), t)
        one = ff.logistic_exact_step(u, s + t)
        assert abs(two - one) <= 1e-12

    def test_monotone_in_initial_data_lattice(self):
        # 100 x 100 (u, dt) lattice; compare each u to its right neighbor
        us = np.linspace(0.0, 1.0, 100)
        for dt in np.linspace(0.0, 3.0, 100):
            out = ff.logistic_exact_step(us, dt)
            assert np.all(np.diff(out) >= -1e-15)

    def test_range_preserved(self):
        for dt in (0.0, 0.1, 5.0):
            out = ff.logistic_exact_step(U_GRID, dt)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestRk4Step:
    def test_zero_reaction_is_identity(self):
        g = ff.make_grid(10.0, 64)
        rng = np.random.default_rng(0)
        f = ff.Field(g, rng.random(64))
        # f == 0 fails validation; the substep itself runs any callable
        spec = ff.CustomMonostable(lambda u: 0.0 * u)
        out = ff.rk4_reaction_step(f.values, spec.f, 0.3)
        assert np.array_equal(out, f.values)

    def test_kpp_single_step_close_to_exact_flow(self):
        # one classical RK4 step at dt=0.1 carries a ~5e-9 local error, so
        # the gate here is 1e-8; the 1e-10 oracle agreement above uses the
        # substepped reference instead
        g = ff.make_grid(10.0, 128)
        vals = np.linspace(0.01, 0.99, 128)
        out = ff.rk4_reaction_step(vals, ff.KppLogistic().f, 0.1)
        exact = ff.logistic_exact_step(vals, 0.1)
        assert np.max(np.abs(out - exact)) < 1e-8

    def test_endpoints_fixed_for_validated_f(self):
        g = ff.make_grid(10.0, 8)
        spec = ff.validate_reaction(ff.CustomMonostable(lambda u: u * (1.0 - u) * (1.0 + 0.5 * u)))
        f = ff.Field(g, np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]))
        out = ff.rk4_reaction_step(f.values, spec.f, 0.25)
        assert np.array_equal(out, f.values)


class TestValidateReaction:
    def test_logistic_passes(self):
        spec = ff.KppLogistic()
        assert ff.validate_reaction(spec) is spec

    def test_custom_logistic_like_passes(self):
        spec = ff.CustomMonostable(lambda u: 2.0 * u * (1.0 - u))
        assert ff.validate_reaction(spec) is spec

    def test_bistable_rejected(self):
        with pytest.raises(ff.NotMonostable):
            ff.validate_reaction(ff.CustomMonostable(lambda u: u * (1.0 - u) * (u - 0.3)))

    def test_nonzero_endpoint_rejected(self):
        with pytest.raises(ff.EndpointNotZero):
            ff.validate_reaction(ff.CustomMonostable(lambda u: u * (1.1 - u)))

    @pytest.mark.parametrize(
        "f, error",
        [
            (lambda u: np.nan * u, ff.EndpointNotZero),
            (lambda u: u * (1.0 - u) * np.inf, ff.EndpointNotZero),
            (lambda u: np.nan if u == 0.5 else u * (1.0 - u), ff.NotMonostable),
            (lambda u: np.nan if 0.0 < u < 0.01 else u * (1.0 - u), ff.DegenerateAtZero),
        ],
        ids=["nan_everywhere", "times_inf", "nan_interior", "nan_slope"],
    )
    def test_nan_values_rejected(self, f, error):
        # NaN compares false, so each gate must fail it rather than pass it
        with pytest.raises(error):
            ff.validate_reaction(ff.CustomMonostable(f))

    def test_degenerate_slope_rejected(self):
        # negative just above 0 but positive at every interior sample point,
        # so only the forward-difference slope gate can reject it
        with pytest.raises(ff.DegenerateAtZero):
            ff.validate_reaction(
                ff.CustomMonostable(lambda u: u * (1.0 - u) * (u - 1e-4))
            )
