"""Time-stepping tests: splitting degeneracies, snapshot scheduling, the
boundary guard, determinism, restart consistency, and translation
equivariance (bitwise for half-box shifts, roundoff-tight in general).
"""

import array
import hashlib
import io
import pickle
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fastfronts as ff
from fastfronts import _dumpfile, experiment, integrator
from fastfronts.dispersal import build_symbol
from fastfronts.integrator import DispersalStepper, _segment_steps


def delta_kernel(grid):
    """Kernel with all mass at x=0: its symbol is exactly zero."""
    js = np.zeros(grid.n)
    js[grid.n // 2] = 1.0 / grid.dx
    return ff.TabulatedKernel(grid.x, js)


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
        assert np.all(stepper.m == 0.0)
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

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_state_ends_the_run(self, bad):
        # bad values only strictly between the sampled points 0.99 and 1, so
        # the reaction passes validation; the bump's peak nodes reach them
        f = lambda u: np.where((u > 0.995) & (u < 1.0), bad, u * (1.0 - u))
        cfg = ff.RunConfig(L=50.0, N=256, dispersal=ff.StandardLaplacian(), t_end=1.0,
                           reaction=ff.CustomMonostable(f))
        with pytest.raises(ff.ValidationFailed, match="non-finite"):
            ff.run(cfg)

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize(
        "spec",
        [ff.FractionalLaplacian(0.5), ff.Convolution(ff.AlgebraicTail(3.0)),
         ff.FastDiffusion(0.5), ff.FractionalFastDiffusion(0.75, 0.8)],
        ids=["fractional", "convolution", "fast_diffusion", "fractional_fast_diffusion"],
    )
    def test_dispersal_substep_requires_positive_dt(self, spec, dt):
        # a linear step with dt = -1 would run the backward semigroup, and
        # dt = nan would return an all-NaN array
        g = ff.make_grid(50.0, 2**8)
        stepper = DispersalStepper(spec, g)
        with pytest.raises(ff.ParameterOutOfRange):
            stepper.step_values(np.exp(-g.x**2 / 40.0), dt)


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
            initial=ff.TabulatedInitial(np.zeros(2**9)),
        )
        traj = ff.run(cfg)
        for _, fld in traj.snapshots():
            assert np.all(fld.values == 0.0)

    def test_segment_steps_are_counted_not_listed(self):
        # each segment was a [dt] * n list built before its first step, so
        # 10^12 steps raised MemoryError
        count, last = _segment_steps(1.0, 1e-12)
        assert last == 1e-12 and abs(count - 10**12) <= 1
        assert _segment_steps(1.0, 0.3) == (4, 1.0 - 3 * 0.3)
        assert _segment_steps(0.9, 0.3) == (3, 0.3)

    def test_snapshot_schedule_default_and_custom(self):
        cfg = ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=2.5)
        assert cfg.resolved_snapshots() == (0.0, 1.0, 2.0, 2.5)
        cfg2 = ff.RunConfig(
            L=100.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=2.0,
            snapshot_times=(0.0, 0.5, 2.0),
        )
        traj = ff.run(cfg2)
        assert traj.times == [0.0, 0.5, 2.0]

    def test_snapshot_schedule_is_counted_and_bounded_before_it_is_listed(self, monkeypatch):
        # 2**14 default snapshots of 2**17 nodes take the 16 GiB bound exactly
        at_bound = ff.RunConfig(L=100.0, N=2**17, dispersal=ff.StandardLaplacian(),
                                t_end=16383.0)
        assert len(at_bound.resolved_snapshots()) == 2**14
        assert 8 * 2**14 * 2**17 == integrator.MAX_SNAPSHOT_BYTES
        with pytest.raises(ff.ValidationFailed, match="16385 snapshots of 131072 nodes"):
            replace(at_bound, t_end=16383.5)
        with pytest.raises(ff.ValidationFailed, match="16385 snapshots of 131072 nodes"):
            replace(at_bound, snapshot_times=tuple(np.linspace(0.0, 16383.0, 2**14 + 1)))

        # 10^12 + 1 integer times of 64 nodes: resolved_snapshots listed them
        # after every gate had passed, until memory ran out
        def refuse(*args):
            raise AssertionError("the schedule must be counted, not listed")

        monkeypatch.setattr(integrator, "range", refuse, raising=False)
        with pytest.raises(ff.ValidationFailed,
                           match=r"^1000000000001 snapshots of 64 nodes would take "
                                 r"512000000000512 bytes"):
            ff.RunConfig(L=50.0, N=64, dispersal=ff.StandardLaplacian(), t_end=1e12, dt=1e-3)

    def test_field_at_a_time_without_a_snapshot_is_a_library_error(self):
        traj = ff.run(ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(),
                                   t_end=1.0))
        assert traj.field_at(1.0) is traj.fields[-1]
        # a bare KeyError, outside the FastFrontsError contract
        with pytest.raises(ff.ValidationFailed, match=r"^no snapshot at t=0\.5$"):
            traj.field_at(0.5)

    def test_snapshot_validation(self):
        with pytest.raises(ff.ValidationFailed):
            ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(),
                         t_end=2.0, snapshot_times=(0.0, 3.0))
        with pytest.raises(ff.ValidationFailed):
            ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(),
                         t_end=2.0, snapshot_times=(1.0, 1.0))
        with pytest.raises(ff.ValidationFailed):
            ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(),
                         t_end=2.0, snapshot_times=(float("nan"),))

    def test_snapshot_within_the_time_dust_repeats_the_state(self):
        # 1e-12 after 0.5 is below the time dust: the march takes no step
        # and records the state it already holds
        cfg = ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(), t_end=1.0,
                           snapshot_times=(0.5, 0.5 + 1e-12, 1.0))
        traj = ff.run(cfg)
        assert traj.times == [0.5, 0.5 + 1e-12, 1.0]
        assert traj.fields[0].values.tobytes() == traj.fields[1].values.tobytes()

    def test_empty_snapshot_times_rejected(self):
        # a run with no snapshot would report a clean guard and write nothing
        with pytest.raises(ff.ValidationFailed):
            ff.RunConfig(L=100.0, N=2**9, dispersal=ff.StandardLaplacian(),
                         t_end=2.0, snapshot_times=())

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
            initial=ff.TabulatedInitial(mid.values))
        tail = ff.run(cfg2)
        gap = np.max(np.abs(tail.field_at(2.0).values - traj.field_at(4.0).values))
        assert gap < 1e-10

    def test_translation_equivariance_half_box_exact(self):
        # rolling by N/2 commutes bitwise with the whole split pipeline
        base = dict(L=200.0, N=2**11, t_end=2.0)
        for spec in (ff.StandardLaplacian(), ff.FractionalLaplacian(0.9),
                     ff.Convolution(ff.StretchedExponential(0.5, 1.0)),
                     ff.FractionalFastDiffusion(0.75, 0.8)):
            g = ff.make_grid(base["L"], base["N"])
            u0 = np.exp(-g.x**2 / 100.0)
            s = g.n // 2
            ref = ff.run(ff.RunConfig(dispersal=spec, **base))
            rolled = ff.run(ff.RunConfig(
                dispersal=spec, **base,
                initial=ff.TabulatedInitial(np.roll(u0, s))))
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
            **base, initial=ff.TabulatedInitial(np.roll(u0, shift))))
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
            **base, initial=ff.TabulatedInitial(np.roll(u0, shift))))
        worst = max(
            float(np.max(np.abs(a.values - np.roll(b.values, shift))))
            for a, b in zip(rolled.fields, ref.fields)
        )
        assert worst < 1e-10


@pytest.mark.parametrize(
    "spec",
    [ff.FractionalLaplacian(0.5), ff.Convolution(ff.AlgebraicTail(3.0)),
     ff.FastDiffusion(0.5), ff.FractionalFastDiffusion(0.75, 0.8)],
    ids=["fractional", "convolution", "fast_diffusion", "fractional_fast_diffusion"],
)
def test_wrong_length_is_a_length_mismatch(spec):
    # the strang step gates the length before its first substep writes into out
    g = ff.make_grid(50.0, 2**8)
    stepper = DispersalStepper(spec, g)
    short = np.exp(-g.x[::2] ** 2 / 40.0)
    before = short.copy()
    with pytest.raises(ff.LengthMismatch):
        stepper.step_values(short, 0.01)
    with pytest.raises(ff.LengthMismatch):
        ff.strang_step(short, stepper, ff.KppLogistic(), 0.01, out=short)
    assert np.array_equal(short, before)


def test_stepper_rejects_a_spec_with_no_step(small_grid):
    # the constructor is the one dispatch point: anything that is neither
    # fast diffusion goes to build_symbol, which knows only the linear specs
    with pytest.raises(ff.NonlinearVariant):
        DispersalStepper(ff.AlgebraicTail(3.0), small_grid)


class TestGuard:
    def test_gaussian_guard_watches_both_ends(self):
        cfg = ff.RunConfig(L=60.0, N=2**10, dispersal=ff.StandardLaplacian(), t_end=20.0)
        traj = ff.run(cfg)
        assert traj.window == slice(None)
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

    def test_breach_survives_a_pickle_round_trip(self):
        # a pool worker's error crosses a process boundary by pickle
        err = pickle.loads(pickle.dumps(ff.GuardBreached(1.5)))
        assert err.time == 1.5
        assert str(err) == str(ff.GuardBreached(1.5))
        assert "t=1.5" in str(err) and "grid.L" in str(err)

    def test_front_mode_detected_and_clean(self):
        cfg = ff.RunConfig(L=400.0, N=2**12, dispersal=ff.StandardLaplacian(), t_end=2.0,
                           initial=ff.Indicator(0.0))
        traj = ff.run(cfg)
        assert traj.window == slice(512, 3584)
        assert not traj.breached

    def test_breach_at_start_records_the_initial_state(self):
        # 0 is not a snapshot time, so the breach state is the only snapshot
        values = np.full(64, 0.5)
        cfg = ff.RunConfig(L=20.0, N=64, dispersal=ff.StandardLaplacian(), t_end=1.0,
                           snapshot_times=(0.5, 1.0),
                           initial=ff.TabulatedInitial(values))
        traj = ff.run(cfg)
        assert traj.guard_breach_time == 0.0
        assert traj.times == [0.0]
        assert np.array_equal(traj.fields[0].values, values)

    def test_breach_after_the_last_snapshot_time_is_seen(self):
        # snapshots stop at t=1, the guard breaches at t=13.4 < t_end
        cfg = ff.RunConfig(L=60.0, N=512, dispersal=ff.StandardLaplacian(), t_end=20.0,
                           snapshot_times=(0.0, 1.0))
        traj = ff.run(cfg)
        assert traj.breached
        assert 1.0 < traj.guard_breach_time < 20.0
        assert traj.times == [0.0, 1.0, traj.guard_breach_time]
        with pytest.raises(ff.GuardBreached) as err:
            ff.run(cfg, raise_on_breach=True)
        assert err.value.time == traj.guard_breach_time

    def test_clean_march_past_the_last_snapshot_adds_none(self):
        cfg = ff.RunConfig(L=200.0, N=2**11, dispersal=ff.StandardLaplacian(), t_end=3.0,
                           snapshot_times=(0.0, 1.0))
        traj = ff.run(cfg)
        assert not traj.breached
        assert traj.times == [0.0, 1.0]
        full = ff.run(replace(cfg, snapshot_times=(0.0, 1.0, 3.0)))
        assert traj.fields[1].values.tobytes() == full.fields[1].values.tobytes()
        _, _, steps = integrator.march(cfg)
        assert max(t for t, _, _, _ in steps) == pytest.approx(3.0)

    def test_window_is_the_guard_observation_window(self):
        front = ff.run(ff.RunConfig(L=400.0, N=2**12, dispersal=ff.StandardLaplacian(),
                                    t_end=0.1, initial=ff.Indicator(0.0)))
        assert front.window == slice(512, 2**12 - 512)
        bump = ff.run(ff.RunConfig(L=200.0, N=2**11, dispersal=ff.StandardLaplacian(), t_end=0.1))
        assert bump.window == slice(None)

    def test_clean_small_run(self):
        cfg = ff.RunConfig(L=200.0, N=2**11, dispersal=ff.StandardLaplacian(), t_end=5.0)
        traj = ff.run(cfg)
        assert not traj.breached
        assert traj.times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_on_snapshot_gets_each_recorded_array(self):
        # the breach snapshot included; the very array recorded, not a copy
        cfg = ff.RunConfig(L=4.0, N=2**7, dispersal=ff.StandardLaplacian(), t_end=1.0,
                           initial=ff.GaussianBump(1.0), snapshot_times=(0.0, 0.01, 0.5, 1.0))
        seen = []
        traj = ff.run(cfg, on_snapshot=lambda t, values: seen.append((t, values)))
        assert traj.breached and [t for t, _ in seen] == traj.times
        assert all(values is fld.values for (_, values), fld in zip(seen, traj.fields))


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

    @pytest.mark.parametrize("block", [None, 1, 3, 8, "writer process"])
    def test_dump_bytes_pinned(self, tmp_path, monkeypatch, block):
        # 0, 1, the smallest subnormal and 1 - 2^-53 in the value column,
        # negative and zero x, and a snapshot time that is not an integer;
        # the formatter runs in this process, where small block sizes split
        # the 8 lines into full and partial blocks (a patched `_DUMP_ROWS`
        # cannot reach a writer process); save_snapshots hands the values to
        # the writer process as raw float64, which must format the same bytes
        cfg = ff.RunConfig(L=3.0, N=8, dispersal=ff.StandardLaplacian(), t_end=1.0)
        grid = cfg.grid()
        rows = [
            [0.0, 1.0, 0.5, 0.1, 1.0 / 3.0, 2.0 / 3.0, 5e-324, 1.0 - 2.0**-53],
            np.exp(-grid.x**2),
        ]
        traj = ff.Trajectory(
            cfg, [0.0, 1.0 / 3.0], [ff.Field(grid, np.asarray(r, dtype=float)) for r in rows]
        )
        path = tmp_path / "snaps.txt"
        if block == "writer process":
            ff.save_snapshots(traj, path)
        else:
            if block is not None:
                monkeypatch.setattr(_dumpfile, "_DUMP_ROWS", block)
            templates = _dumpfile._templates(array.array("d", grid.x))
            assert len(templates) == -(-cfg.N // _dumpfile._DUMP_ROWS)
            fh = io.StringIO()
            for t, fld in traj.snapshots():
                _dumpfile._write_dump(fh, templates, t, array.array("d", fld.values))
            path.write_text(fh.getvalue())
        data = path.read_bytes()
        assert data.startswith(b"# t=0\n-3 0\n-2.25 1\n")
        assert b"# t=0.33333333333333331\n" in data
        assert hashlib.sha256(data).hexdigest() == (
            "1b2434e91c7b9286e2a5fa7a6a08a30d3a307aa756ca5b0faa88c549c10a505b"
        )


def _allocating_run(cfg):
    """The run loop written with allocating steps: strang_step without `out`
    followed by a clip into a new array."""
    grid = cfg.grid()
    u = ff.build_initial(cfg.initial, grid).values
    stepper = DispersalStepper(cfg.dispersal, grid, eps_reg=cfg.eps_reg)
    times, fields, worst = [0.0], [u], 0.0
    t_prev = 0.0
    for target in cfg.resolved_snapshots()[1:]:
        count, last = _segment_steps(target - t_prev, cfg.dt)
        for k in range(count):
            u, over = ff.strang_step(u, stepper, cfg.reaction, last if k == count - 1 else cfg.dt)
            u = np.clip(u, 0.0, 1.0)
            worst = max(worst, over)
        times.append(target)
        fields.append(u)
        t_prev = target
    return times, fields, worst


_CUBIC = ff.CustomMonostable(lambda u: u * (1.0 - u) * (1.0 + 0.5 * u))

IN_PLACE_CASES = {
    "classical": (ff.StandardLaplacian(), ff.KppLogistic()),
    "fractional": (ff.FractionalLaplacian(0.7), ff.KppLogistic()),
    "kernel": (ff.Convolution(ff.StretchedExponential(0.5, 1.0)), ff.KppLogistic()),
    "fast_diffusion": (ff.FastDiffusion(0.5), ff.KppLogistic()),
    "fractional_fast_diffusion": (ff.FractionalFastDiffusion(0.75, 0.8), ff.KppLogistic()),
    "rk4": (ff.FractionalLaplacian(0.7), _CUBIC),
    "no_reaction": (ff.FractionalLaplacian(0.5), None),
}
# The cases whose run overshoots [0, 1] before a clamp: the march clamps only
# after such a step, so both branches of the march run below. The classical
# run overshoots by about 2e-12; the others stay in [0, 1]
OVERSHOOTING_CASES = {"classical"}


class TestInPlaceStepping:
    @pytest.mark.parametrize("case", sorted(IN_PLACE_CASES))
    def test_run_matches_allocating_steps_bitwise(self, case):
        spec, reaction = IN_PLACE_CASES[case]
        # t_end = 1.537 ends each run with a shortened landing step
        cfg = ff.RunConfig(L=1000.0, N=2**10, dispersal=spec, reaction=reaction, t_end=1.537)
        assert _segment_steps(cfg.t_end - 1.0, cfg.dt)[-1] < cfg.dt
        traj = ff.run(cfg)
        times, fields, worst = _allocating_run(cfg)
        assert not traj.breached
        assert traj.times == times
        for fld, ref in zip(traj.fields, fields, strict=True):
            assert fld.values.tobytes() == ref.tobytes()
        assert traj.max_overshoot == worst
        assert (worst > 0) == (case in OVERSHOOTING_CASES)
        assert 0 < len(OVERSHOOTING_CASES) < len(IN_PLACE_CASES)

    @pytest.mark.parametrize("case", sorted(IN_PLACE_CASES))
    def test_calls_without_out_leave_input_unchanged(self, case):
        spec, reaction = IN_PLACE_CASES[case]
        g = ff.make_grid(50.0, 2**8)
        u = np.exp(-g.x**2 / 40.0)
        before = u.tobytes()
        stepper = DispersalStepper(spec, g)
        v, _ = ff.strang_step(u, stepper, reaction, 0.02)
        w = stepper.step_values(u, 0.02)
        assert v is not u and w is not u
        assert u.tobytes() == before
        ff.logistic_exact_step(u, 0.01)
        ff.fractional_fast_diffusion_step(u, 0.75, 0.8, 0.01, g)
        assert u.tobytes() == before

    def test_fft_path_steps_in_place(self):
        g = ff.make_grid(50.0, 2**8)
        stepper = DispersalStepper(ff.FractionalLaplacian(0.9), g)
        u = np.exp(-g.x**2 / 40.0)
        expected, over = ff.strang_step(u.copy(), stepper, ff.KppLogistic(), 0.02)
        v, over_in_place = ff.strang_step(u, stepper, ff.KppLogistic(), 0.02, out=u)
        assert v is u
        assert u.tobytes() == expected.tobytes()
        assert over_in_place == over

    @staticmethod
    def _check_cached_steps(spec):
        """Each step is bitwise irfft(rfft(u) * exp(m dt)) with the symbol's
        N/2 + 1 bins, and the stepper holds the one factor of the last dt."""
        g = ff.make_grid(50.0, 2**8)
        stepper = DispersalStepper(spec, g)
        u = np.exp(-g.x**2 / 40.0)
        m = build_symbol(spec, g)
        for k in range(50):
            # the fixed step between landing steps of 50 distinct sizes
            for dt in (0.01, 0.01 * (k + 1) / 51):
                v = stepper.step_values(u, dt)
                factor = np.exp(m * dt)
                expected = np.fft.irfft(np.fft.rfft(u) * factor, n=g.n)
                assert v.tobytes() == expected.tobytes()
                assert stepper._dt == dt
                assert stepper._factor.tobytes() == factor.tobytes()

    def test_factor_cache_holds_the_last_step_size(self):
        self._check_cached_steps(ff.FractionalLaplacian(0.5))

    def test_convolution_factor_cache_holds_the_last_step_size(self):
        self._check_cached_steps(ff.Convolution(ff.StretchedExponential(0.5, 1.0)))

    def test_linear_step_reads_a_list_and_an_integer_array_as_numpy_did(self):
        # np.fft.rfft read both as float64; the step still does
        g = ff.make_grid(50.0, 2**6)
        stepper = DispersalStepper(ff.FractionalLaplacian(0.5), g)
        factor = np.exp(build_symbol(ff.FractionalLaplacian(0.5), g) * 0.01)
        for values in ([float(k % 3) for k in range(g.n)], np.arange(g.n) % 3):
            expected = np.fft.irfft(np.fft.rfft(values) * factor, n=g.n)
            assert stepper.step_values(values, 0.01).tobytes() == expected.tobytes()

    def test_logistic_out_matches_allocating_form(self):
        u = np.concatenate([[0.0, 1.0, 5e-324, 1.0 - 2.0**-53], np.linspace(0.0, 1.0, 101)])
        for dt in (0.005, 0.5, 3.7):
            expected = ff.logistic_exact_step(u, dt)
            into = np.empty_like(u)
            assert ff.logistic_exact_step(u, dt, out=into) is into
            assert into.tobytes() == expected.tobytes()
            same = u.copy()
            assert ff.logistic_exact_step(same, dt, out=same) is same
            assert same.tobytes() == expected.tobytes()
            assert same[0] == 0.0 and same[1] == 1.0


class TestNewtonWork:
    """The fast-diffusion stepper owns its Newton work arrays for the run."""

    @staticmethod
    def _check_one_state_array_per_step(g, u):
        # each step returns one fresh state; the Newton iterates write into
        # the stepper's arrays, so the traced peak above the start stays near
        # one state array (an allocating loop peaks near ten)
        stepper = DispersalStepper(ff.FastDiffusion(0.5), g)
        u = stepper.step_values(u, 0.01)
        tracemalloc.start()
        try:
            for _ in range(3):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                u = stepper.step_values(u, 0.01)
                peak = tracemalloc.get_traced_memory()[1]
                assert peak - start <= 1.5 * 8 * g.n
        finally:
            tracemalloc.stop()

    def test_step_allocates_one_state_array(self):
        g = ff.make_grid(400.0, 2**14)
        self._check_one_state_array_per_step(g, np.exp(-g.x**2 / 100.0))

    @pytest.mark.parametrize("floor_span", ["empty", "whole_box"])
    def test_step_allocates_one_state_array_at_span_extremes(self, floor_span):
        # the power span is found without an index array: a search such as
        # flatnonzero over the whole-box span would add one more state array
        g = ff.make_grid(400.0, 2**14)
        bump = np.exp(-g.x**2 / 100.0)
        u = 1e-9 * bump if floor_span == "empty" else 0.5 + 0.4 * bump
        self._check_one_state_array_per_step(g, u)

    def test_reused_work_matches_fresh_calls_bitwise(self):
        g = ff.make_grid(300.0, 2**10)
        stepper = DispersalStepper(ff.FastDiffusion(0.5), g)
        u = v = np.exp(-g.x**2 / 100.0)
        # fixed steps and a shorter landing step
        for dt in (0.01, 0.01, 0.01, 0.0037, 0.01):
            u = stepper.step_values(u, dt)
            v = ff.fast_diffusion_step(v, 0.5, dt, g)
            assert u.tobytes() == v.tobytes()

    def test_interleaved_steppers_match_sequential_runs(self):
        specs = [(ff.FastDiffusion(0.5), ff.make_grid(300.0, 2**10)),
                 (ff.FastDiffusion(0.3), ff.make_grid(100.0, 2**9))]
        dts = (0.01, 0.01, 0.0037, 0.01)

        def start(grid):
            return np.exp(-grid.x**2 / 50.0)

        sequential = []
        for spec, g in specs:
            stepper, u = DispersalStepper(spec, g), start(g)
            for dt in dts:
                u = stepper.step_values(u, dt)
            sequential.append(u)
        steppers = [DispersalStepper(spec, g) for spec, g in specs]
        states = [start(g) for _, g in specs]
        for dt in dts:
            states = [st.step_values(u, dt) for st, u in zip(steppers, states)]
        for u, ref in zip(states, sequential, strict=True):
            assert u.tobytes() == ref.tobytes()


@pytest.mark.parametrize("spec", [ff.FastDiffusion(0.5), ff.FractionalFastDiffusion(0.75, 0.8)],
                         ids=["fast", "fractional_fast"])
def test_fast_diffusion_stepper_builds_no_field(spec, monkeypatch):
    # the steps take and return state arrays, so a step wraps nothing
    g = ff.make_grid(50.0, 2**8)
    u = np.exp(-g.x**2 / 40.0)
    stepper = DispersalStepper(spec, g)

    def no_field(*args, **kwargs):
        raise AssertionError("a Field was built")

    for module in (integrator, ff.dispersal):
        monkeypatch.setattr(module, "Field", no_field)
    assert stepper.step_values(u, 0.01).shape == u.shape


class TestInitialConditions:
    def test_indicator(self):
        g = ff.make_grid(10.0, 16)
        vals = ff.build_initial(ff.Indicator(0.0), g).values
        assert np.array_equal(vals, (g.x < 0).astype(float))

    def test_tabulated_length_checked(self):
        g = ff.make_grid(10.0, 16)
        with pytest.raises(ff.ValidationFailed):
            ff.build_initial(ff.TabulatedInitial(np.zeros(8)), g)
        with pytest.raises(ff.ValidationFailed, match="8 samples, grid has 16"):
            ff.TabulatedInitial(np.zeros(8)).check(g)

    @pytest.mark.parametrize("initial", [ff.GaussianBump(), ff.Indicator(0.0),
                                         ff.TabulatedInitial(np.zeros(64))],
                             ids=["gaussian", "indicator", "tabulated"])
    def test_configs_check_initial_data_and_runs_build_it_once(self, initial, monkeypatch):
        built = []
        build = type(initial).build
        monkeypatch.setattr(type(initial), "build",
                            lambda self, grid: built.append(grid) or build(self, grid))
        cfg = ff.RunConfig(L=10.0, N=64, dispersal=ff.StandardLaplacian(), t_end=0.02,
                           initial=initial)
        cfg = replace(cfg, t_end=0.03)
        assert built == []
        ff.run(cfg)
        assert built == [cfg.grid()]

    def test_range_checked(self):
        g = ff.make_grid(10.0, 16)
        with pytest.raises(ff.ValidationFailed):
            ff.build_initial(ff.TabulatedInitial(np.full(16, 1.5)), g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_sample_rejected(self, bad):
        g = ff.make_grid(10.0, 16)
        vals = np.full(16, 0.5)
        vals[3] = bad
        with pytest.raises(ff.ValidationFailed):
            ff.build_initial(ff.TabulatedInitial(vals), g)

    @pytest.mark.parametrize(
        "values",
        [("a",) * 16, [[0.5] * 4] * 4, (), (0.5, np.nan), (0.5, 1.5), (0.5, -0.1)],
        ids=["strings", "two_d", "empty", "nan", "above_one", "below_zero"],
    )
    def test_tabulated_constructor_checks_samples(self, values):
        # checked at construction, so a bad table never reaches a run
        with pytest.raises(ff.ValidationFailed):
            ff.TabulatedInitial(values)

    def test_tabulated_constructor_stores_a_tuple_of_floats(self):
        spec = ff.TabulatedInitial(np.array([0, 0.5, 1]))
        assert type(spec.values) is tuple
        assert spec.values == (0.0, 0.5, 1.0)
        assert all(type(v) is float for v in spec.values)
        assert hash(spec) == hash(ff.TabulatedInitial((0.0, 0.5, 1.0)))

    def test_config_validation(self):
        with pytest.raises(ff.ValidationFailed):
            ff.RunConfig(L=10.0, N=16, dispersal=ff.StandardLaplacian(), t_end=1.0, dt=0.0)
        with pytest.raises(ff.ValidationFailed):
            ff.RunConfig(L=10.0, N=16, dispersal=ff.StandardLaplacian(), t_end=1.0,
                         guard_threshold=0.9)

    @pytest.mark.parametrize(
        "case, error",
        [(dict(L=-5.0, N=100), ff.NotPowerOfTwo), (dict(L=-5.0), ff.NonPositiveLength),
         (dict(reaction=ff.CustomMonostable(lambda u: u * (1.0 - u) * (u - 0.3))),
          ff.NotMonostable),
         (dict(L=50.0, N=64, t_end=1e300, dt=np.float64(1e-10), snapshot_times=(0.0,)),
          ff.ValidationFailed),
         (dict(L=1e-300, N=8, t_end=0.02), ff.ValidationFailed),
         (dict(L=1e-100, N=8, t_end=1e120, dt=1e120, snapshot_times=(0.0,)),
          ff.ValidationFailed),
         (dict(L=1e-100, N=8, dispersal=ff.FractionalFastDiffusion(0.75, 0.8), dt=np.float64(1e160),
               t_end=1e160, snapshot_times=(0.0, 1e160), initial=ff.Indicator(0.0), reaction=None),
          ff.ValidationFailed),
         (dict(dispersal=ff.FractionalFastDiffusion(0.99, 0.02), eps_reg=5e-324),
          ff.ParameterOutOfRange),
         (dict(L=1e200, N=8, t_end=0.02, dispersal=ff.FastDiffusion(0.5),
               initial=ff.Indicator(0.0)), ff.ValidationFailed),
         (dict(t_end=0.02, dispersal=ff.FastDiffusion(0.02), eps_reg=5e-324,
               initial=ff.Indicator(0.0)), ff.ValidationFailed)],
        ids=["L-and-N", "L-negative", "reaction-not-monostable", "steps-above-2-53-numpy-dt",
             "classical-symbol-overflow", "symbol-times-dt-overflow",
             "fractional-fast-symbol-times-numpy-dt-overflow", "subcycle-eps-power-overflow",
             "fast-diffusion-dx2-overflow", "fast-diffusion-floor-slope-overflow"],
    )
    def test_config_runs_every_static_gate_at_construction(self, case, error):
        # each of these configs was built and failed only once a run began;
        # the two numpy-scalar dt cases stopped at a bare RuntimeWarning
        # (numpy's overflow in t_end / dt and in |m| * dt) where their Python
        # float forms, documents of tests/rejected, end in ValidationFailed.
        # A config that a document of that table restates is tested there only
        with pytest.raises(error):
            ff.RunConfig(**{**dict(L=10.0, N=16, dispersal=ff.StandardLaplacian(), t_end=1.0),
                            **case})

    @pytest.mark.parametrize("L, error", [(1e-150, ff.SolverSingular),
                                          (1e-4, ff.SolverNotConverged)])
    def test_fast_diffusion_grid_gate_passes_what_the_solver_reports(self, L, error):
        # r = dt / dx^2 and the floor diagonal are finite here, so the config
        # passes and the solver's own library error ends the run
        config = ff.RunConfig(L=L, N=8, dispersal=ff.FastDiffusion(0.5), t_end=0.02,
                              initial=ff.Indicator(0.0))
        with pytest.raises(error):
            ff.run(config)

    def test_tiny_dx_and_dt_end_in_a_library_error(self):
        # r = dt / dx^2 = 1.6e11 passes the grid gate, but the residual's
        # rows divided by dx^2 = 6.25e-312 alone overflowed (a bare
        # RuntimeWarning); scaled by r, the solver reports its own error
        config = ff.RunConfig(L=1e-155, N=8, dispersal=ff.FastDiffusion(0.5), t_end=1e-299,
                              dt=1e-300, initial=ff.Indicator(0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ff.FastFrontsError):
                ff.run(config)

    @pytest.mark.parametrize("L", [1e200, 1e300])
    @pytest.mark.parametrize("initial", [ff.GaussianBump(), ff.Indicator(0.0)],
                             ids=["gaussian", "indicator"])
    @pytest.mark.parametrize("dispersal, error", [
        (ff.StandardLaplacian(), None),
        (ff.FractionalLaplacian(0.5), None),
        (ff.Convolution(ff.StretchedExponential(0.5)), None),
        (ff.Convolution(ff.StretchedExponential(0.999, 5.3e299)), None),
        (ff.Convolution(ff.AlgebraicTail(3.0)), None),
        (ff.FastDiffusion(0.5), ff.ValidationFailed),  # dx^2 overflows
        (ff.FractionalFastDiffusion(0.75, 0.8), None),
    ], ids=["standard", "fractional", "stretched", "stretched-huge-rate", "algebraic", "fast",
            "fractional-fast"])
    def test_huge_box_runs_clean(self, dispersal, error, initial, L):
        # the Gaussian's x^2, the algebraic tail's |x|^p and the stretched
        # kernel's cell bounds b y^a overflowed with a bare RuntimeWarning;
        # the limits they take now, exp(-inf) = 0, c / inf = 0 and
        # gammainc(s, inf) = 1, gammaincc(s, inf) = 0, are exact
        config = dict(L=L, N=8, dispersal=dispersal, t_end=0.02, initial=initial)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if error is not None:
                with pytest.raises(error):
                    ff.RunConfig(**config)
                return
            trajectory = ff.run(ff.RunConfig(**config))
        assert all(np.isfinite(f.values).all() for f in trajectory.fields)

    @pytest.mark.parametrize("width", [float("inf"), 0.0, float("nan")])
    def test_gaussian_width_must_be_finite_and_positive(self, width):
        # an infinite width passed the gate `width > 0`: at L = 1e200 the
        # run stopped at a bare RuntimeWarning (x^2 / width = inf / inf)
        with pytest.raises(ff.ValidationFailed, match="width"):
            ff.run(ff.RunConfig(L=1e200, N=8, dispersal=ff.StandardLaplacian(), t_end=0.02,
                                initial=ff.GaussianBump(width)))

    def test_config_holds_one_grid_and_pickles_without_it(self):
        # a sweep worker receives its config by pickle: the grid's arrays
        # stay behind and the copy rebuilds them, read-only
        config = experiment.preset_config("fig1a")
        data = pickle.dumps(config)
        copy = pickle.loads(data)
        assert len(data) < 1024
        assert copy == config and copy.grid() == config.grid()
        assert copy.grid() is copy.grid() and config.grid() is config.grid()
        assert not (copy.grid().x.flags.writeable or copy.grid().xi.flags.writeable)

    @pytest.mark.parametrize(
        "case",
        [dict(dispersal="fractional"), dict(dispersal=ff.AlgebraicTail(3.0)),
         dict(reaction="kpp"), dict(initial="gaussian"), dict(initial=None)],
        ids=["dispersal-str", "dispersal-kernel", "reaction-str", "initial-str", "initial-none"],
    )
    def test_config_rejects_a_foreign_spec(self, case):
        # unchecked, a foreign object fails at the first step on a missing attribute
        with pytest.raises(ff.ValidationFailed):
            ff.RunConfig(**{**dict(L=10.0, N=16, dispersal=ff.StandardLaplacian(), t_end=1.0),
                            **case})
