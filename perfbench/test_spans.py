"""Checks of the benchmark's own machinery; run with `python3 -m pytest perfbench`.

Tracing must leave fastfronts unchanged: trajectories are bitwise identical
with and without it, and every wrapped name is restored, also after a raise.
"""

import json

import pytest

import run
import spans

ff = run.import_fastfronts()


def small_configs():
    base = dict(L=50.0, N=256, t_end=0.1)
    return [
        ff.RunConfig(dispersal=ff.FractionalLaplacian(0.9), **base),
        ff.RunConfig(dispersal=ff.StandardLaplacian(), **base),
        ff.RunConfig(dispersal=ff.FastDiffusion(0.5), **base),
        ff.RunConfig(dispersal=ff.FractionalFastDiffusion(0.75, 0.8), **base),
    ]


def bound_targets():
    tracer = spans.Tracer(ff, spans.LAYER_TARGETS)
    return {(m, c, a): vars(tracer._owner(m, c))[a] for m, c, a, _ in spans.LAYER_TARGETS}


@pytest.mark.parametrize("config", small_configs(), ids=lambda c: type(c.dispersal).__name__)
def test_traced_run_is_bitwise_identical(config):
    plain = ff.integrator.run(config)
    tracer = spans.Tracer(ff, spans.LAYER_TARGETS)
    with tracer.installed():
        traced = ff.integrator.run(config)
    assert [f.values.tobytes() for f in traced.fields] == [f.values.tobytes() for f in plain.fields]
    assert traced.max_overshoot == plain.max_overshoot
    names = {s[0] for s in tracer.spans}
    assert {"integrator.run", "dispersal.setup", "dispersal.step"} <= names
    assert sum(s[0] == "dispersal.step" for s in tracer.spans) == run.step_count(config)
    assert not tracer.missing


def test_wrapped_names_restored_after_a_raise():
    before = bound_targets()
    grid = ff.make_grid(50.0, 256)
    field = ff.Field(grid, ff.GaussianBump().build(grid))
    tracer = spans.Tracer(ff, spans.LAYER_TARGETS)
    with pytest.raises(ff.ParameterOutOfRange):
        with tracer.installed():
            assert ff.integrator.fast_diffusion_step is not before[("integrator", None, "fast_diffusion_step")]
            ff.integrator.fast_diffusion_step(field, 2.0, 0.01, grid)
    after = bound_targets()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.spans[-1][0] == "dispersal.fast_diffusion_step" and tracer.spans[-1][2] > 0.0


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["outer", 0.0, 10.0, -1],
        ["mid", 1.0, 6.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["mid", 7.0, 8.0, 0],
    ]
    assert spans.self_times(recorded) == {"outer": 4.0, "mid": 5.0, "leaf": 1.0}


def test_newton_solves_are_counted_per_step():
    config = small_configs()[2]
    tracer = spans.Tracer(ff, spans.LAYER_TARGETS)
    with tracer.installed():
        ff.integrator.run(config)
    metrics = spans.layer_metrics(tracer.spans, config.N, newton_max_iter=40)
    solves = sum(s[0] == "dispersal.solve_banded" for s in tracer.spans)
    assert metrics["dispersal.newton_solves_per_step"] == solves / run.step_count(config)
    assert 1 <= metrics["dispersal.newton_solves_max"] < 40
    assert metrics["dispersal.newton_capped_steps"] == 0


def test_reference_check_flags_a_moved_front():
    ref = {"rows": [[1.0, 12.5, 11.5, 10.1, 2.4]], "final_mass": 23.3, "max_overshoot": 0.0,
           "guard_breach_time": None}
    close = json.loads(json.dumps(ref))
    close["rows"][0][2] += 1e-12
    assert run.compare(close, ref) == []
    moved = json.loads(json.dumps(ref))
    moved["rows"][0][2] += 1e-6
    assert run.compare(moved, ref) == ["row 0 x_0.5: 11.500001 != 11.5"]
    breached = dict(ref, guard_breach_time=0.5)
    assert len(run.compare(breached, ref)) == 1


def test_benchmark_json_matches_the_runner():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    refs = json.loads(run.REFERENCES.read_text())["workloads"]
    assert set(refs) == set(run.WORKLOADS)


def test_calibration_kernels_cover_every_workload(tmp_path):
    import calibrate

    assert set(calibrate.KERNELS) == set(calibrate.REFERENCE_S) == set(run.WORKLOADS)
    for name in run.WORKLOADS:
        assert calibrate.calibrate(name, tmp_path) > 0.0
