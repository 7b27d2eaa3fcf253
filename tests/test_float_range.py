"""Float-range property test of RunConfig and the run.

Every real field of RunConfig and every spec parameter is drawn with a
log-uniform magnitude over 10^(-320 ... 308), as a Python float or, in about
one draw in five, as an np.float64. A spec parameter, eps_reg and the
initial datum keep a typical value half the time, and at most one of the
diagnostics' fields takes a magnitude, so that most draws get past the
gates of the fields they do not vary. The draws cover the six operator
setups, Gaussian and indicator data, with and without the logistic, on N <=
64 nodes with t_end at most 3 steps of dt and the snapshots (0, t_end), so
that no draw allocates more than a few arrays of 64 nodes. Under the
suite's `-W error` each draw must end in one of three ways:

- a FastFrontsError while the specs and RunConfig are built;
- a run whose snapshots are all finite and that reports, or a run that
  breaches the guard (GuardBreached);
- one of LATE_ERRORS, the errors a run may still end in after RunConfig
  has passed: the fast diffusion's Newton step reports a singular or
  unconverged solve on grids where r = dt / dx^2 passes its gate.

A bare warning, a bare exception or a non-finite snapshot fails the test.
Adding a class to LATE_ERRORS moves a failure past `--out`, so it is a
change to be stated, not a way to make a draw pass.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

import fastfronts as ff
from fastfronts.dispersal import _largest_m, substep_count

LATE_ERRORS = (ff.SolverSingular, ff.SolverNotConverged)

# a drawn sub-cycle count above this is gated and then not run: at up to
# 10^6 explicit sub-cycles per step, three steps would take seconds
MAX_RUN_SUBCYCLES = 1000


@st.composite
def reals(draw, default=None):
    """A log-uniform magnitude over 10^(-320 ... 308), as a float or, one
    time in five, an np.float64; with a default, the default half the time."""
    if default is not None and draw(st.booleans()):
        return default
    value = 10.0 ** draw(st.floats(-320.0, 308.0))
    return np.float64(value) if draw(st.integers(0, 4)) == 0 else value


# the six operator setups: (spec builder, typical parameters)
DISPERSALS = {
    "standard": (ff.StandardLaplacian, ()),
    "fractional": (ff.FractionalLaplacian, (0.5,)),
    "stretched": (lambda a, b: ff.Convolution(ff.StretchedExponential(a, b)), (0.5, 1.0)),
    "algebraic": (lambda p: ff.Convolution(ff.AlgebraicTail(p)), (3.0,)),
    "fast": (ff.FastDiffusion, (0.5,)),
    "fractional_fast": (ff.FractionalFastDiffusion, (0.75, 0.8)),
}
INITIALS = {"gaussian": ff.GaussianBump, "indicator": ff.Indicator}
OTHER_FIELDS = ("guard_threshold", "seam_margin_frac", "flat_level", "flat_radius", "lambdas",
                "stretch_pair")


@st.composite
def configs(draw):
    """(operator, its parameters, data kind, its parameter, RunConfig's
    other keywords); the test builds the specs, so that a spec's own gate
    is part of the outcome."""
    operator = draw(st.sampled_from(sorted(DISPERSALS)))
    params = tuple(draw(reals(typical)) for typical in DISPERSALS[operator][1])
    data = draw(st.sampled_from(sorted(INITIALS)))
    datum = (draw(reals(100.0)) if data == "gaussian"
             else draw(st.sampled_from([1.0, -1.0])) * draw(reals(0.0)))
    dt = draw(reals())
    t_end = float(dt) * draw(st.sampled_from([1, 2, 3]))  # inf, with no warning, past the range
    if draw(st.integers(0, 4)) == 0:
        t_end = np.float64(t_end)
    fields = dict(
        L=draw(reals()), N=draw(st.sampled_from([8, 16, 64])), t_end=t_end, dt=dt,
        snapshot_times=(0.0, t_end), reaction=draw(st.sampled_from([ff.KppLogistic(), None])),
        eps_reg=draw(reals(ff.EPS_REG)),
    )
    other = draw(st.sampled_from([None, None, *OTHER_FIELDS]))
    if other is not None:
        value = draw(reals())
        fields[other] = {"lambdas": (value,), "stretch_pair": tuple(sorted((value, 0.5)))
                         }.get(other, value)
    return operator, params, data, datum, fields


def _subcycles(config) -> int:
    """The gated sub-cycle count of a fractional fast diffusion's step; 0 otherwise."""
    spec = config.dispersal
    if not isinstance(spec, ff.FractionalFastDiffusion):
        return 0
    largest = _largest_m(spec.alpha, config.grid(), config.dt)
    return substep_count(largest, spec.gamma, config.dt, config.eps_reg)


@example(("stretched", (0.999, 5.3e299), "gaussian", 100.0,
          dict(L=1.2e112, N=64, t_end=1.0, dt=1.0, snapshot_times=(0.0, 1.0), reaction=None)))
@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(draw=configs())
def test_every_draw_fails_at_the_config_or_runs_finite(draw):
    operator, params, data, datum, fields = draw
    try:
        config = ff.RunConfig(dispersal=DISPERSALS[operator][0](*params),
                              initial=INITIALS[data](datum), **fields)
    except ff.FastFrontsError:
        return
    if _subcycles(config) > MAX_RUN_SUBCYCLES:
        return
    try:
        trajectory = ff.run(config, raise_on_breach=True)
    except ff.GuardBreached:
        return
    except LATE_ERRORS:
        assert operator == "fast"
        return
    for t, field in trajectory.snapshots():
        assert math.isfinite(t) and np.isfinite(field.values).all(), f"non-finite at t={t}"
    ff.build_report(trajectory)
