#!/usr/bin/env python3
"""Benchmark of fastfronts: three stepping workloads and one output bundle.

Run from the root of a source checkout; the package is imported from ./src
and never from an installed copy:

    python3 perfbench/run.py --workload fig1a-spectral --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22

--trace 0 measures the end-to-end metrics in fresh processes and rescales
times to the machine's reference speed (see calibrate.py). --trace 1
alternates plain and traced bodies in one process, reports the per-layer
metrics and the tracing overhead, and checks that both give bitwise the same
trajectory. Every body is checked against references.json. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. README.md in this
directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import spans

# calibrate is imported inside the functions that use it: it loads numpy, and
# the setup probe must time numpy's import as part of importing fastfronts.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

WORKLOADS = {
    "fig1a-spectral": "fractional alpha=0.9 at 2^17 nodes: FFT pair plus logistic on a "
                      "working set above L2; the Newton path is bypassed",
    "fig1c-newton": "fast diffusion gamma=1/2 at 2^16 nodes: Newton residual plus "
                    "tridiagonal solves, the only solve_banded user; no FFT",
    "fig1d-bundle": "run_preset fig1d: classical stepping in L2, build_report, a 6 MB "
                    "snapshot dump, the CSV and two SVGs; output next to compute",
    "ffd-subcycle": "fractional fast diffusion (0.75, 0.8), L=400, 2^13 nodes: about 117 "
                    "explicit sub-cycle FFT pairs per step and a symbol per call",
}

END_TO_END = {"wall_s": "s", "node_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "dispersal.step_s": "s", "dispersal.ns_per_node_step": "ns", "dispersal.setup_s": "s",
    "dispersal.newton_solves_per_step": "count", "dispersal.newton_solves_max": "count",
    "dispersal.newton_capped_steps": "count", "dispersal.solve_s": "s",
    "dispersal.residual_s": "s", "dispersal.symbol_builds": "count", "dispersal.symbol_s": "s",
    "dispersal.subcycles_per_step_computed": "count", "dispersal.bytes_per_step_computed": "B",
    "reaction.s": "s", "reaction.ns_per_node": "ns",
    "integrator.steps": "count", "integrator.self_s": "s", "integrator.ms_per_step": "ms",
    "integrator.save_snapshots_s": "s", "integrator.snapshot_bytes": "B",
    "diagnostics.report_s": "s",
    "experiment.emit_csv_s": "s", "experiment.emit_chart_s": "s", "experiment.self_s": "s",
    "share.dispersal_step_pct": "%", "share.dispersal_solve_pct": "%",
    "share.reaction_pct": "%", "share.integrator_self_pct": "%",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
}

# Workloads whose dispersal substep is one FFT pair (a linear operator).
FFT_PATH_WORKLOADS = ("fig1a-spectral", "fig1d-bundle")

SETUP_PROBES = 3
WORKERS = 3
MIN_ROUNDS = 3

# Roundoff-level tolerances against references.json. Level positions and the
# stretch may move by POSITION_TOL * max(1, |reference|); the final discrete
# mass by MASS_RTOL relative; the overshoot by OVERSHOOT_ATOL absolute. The
# guard status and the line count of the snapshot dump must match exactly.
POSITION_TOL = 1e-9
MASS_RTOL = 1e-10
OVERSHOOT_ATOL = 1e-12
ROW_FIELDS = ("t", "x_0.4", "x_0.5", "x_0.6", "stretch")


def import_fastfronts():
    """Import the package from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "fastfronts" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fastfronts package under {src}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(src))
    import fastfronts

    if Path(fastfronts.__file__).resolve().parent != (src / "fastfronts").resolve():
        raise SystemExit(f"perfbench: imported fastfronts from {fastfronts.__file__}, not {src}")
    return fastfronts


def workload_config(ff, name):
    """The RunConfig a workload steps. Presets keep their pinned box, nodes, dt
    and initial data; only the horizon is shortened, to keep a body near 1 s."""
    if name == "fig1a-spectral":
        return replace(ff.preset_config("fig1a"), t_end=1.0)
    if name == "fig1c-newton":
        return replace(ff.preset_config("fig1c"), t_end=1.0)
    if name == "fig1d-bundle":
        return ff.preset_config("fig1d")
    return ff.RunConfig(
        L=400.0, N=2**13, dispersal=ff.FractionalFastDiffusion(0.75, 0.8),
        t_end=0.5, initial=ff.GaussianBump(100.0),
    )


def step_count(config) -> int:
    """Strang steps of one run; every workload horizon is a whole number of dt."""
    return round(config.t_end / config.dt)


def subcycles_computed(config) -> int:
    """Sub-cycles per step from fractional_fast_diffusion_step's documented bound
    (dt/n_sub) * max|m| * gamma * eps^(gamma-1) <= 1/2, with max|m| at Nyquist."""
    spec = config.dispersal
    m_max = (math.pi * (config.N // 2) / config.L) ** (2.0 * spec.alpha)
    stiffness = m_max * spec.gamma * config.eps_reg ** (spec.gamma - 1.0)
    return max(1, math.ceil(config.dt * stiffness / 0.5))


def bytes_per_step_computed(n: int) -> int:
    """Array bytes one FFT-path Strang step reads and writes, from array sizes.

    Each logistic half step evaluates u*e/(1-u+u*e) in five elementwise passes
    (11 float64 array reads or writes); rfft reads N reals and writes N/2+1
    complex bins; the spectral multiply reads the bins and the real factor and
    writes the bins; irfft reads the bins and writes N reals; the overshoot
    check reads twice; the in-place clip reads and writes once. Cache misses
    are ignored, so this is not a bandwidth measurement.
    """
    bins = n // 2 + 1
    reaction = 2 * 11 * 8 * n
    fft = (8 * n + 16 * bins) + (16 * bins + 8 * bins + 16 * bins) + (16 * bins + 8 * n)
    range_checks = 2 * 8 * n + 2 * 8 * n
    guard = 2 * 8 * max(1, n // 100)
    return reaction + fft + range_checks + guard


# ---------------------------------------------------------------------------
# one workload body and its checks
# ---------------------------------------------------------------------------

def execute(ff, name, config, tracer, scratch):
    """Run one body under `tracer`; returns what the checks and metrics need."""
    with tracer.installed():
        start = time.perf_counter()
        if name == "fig1d-bundle":
            result = ff.experiment.run_preset("fig1d", scratch)
            traj, report = result["trajectories"]["fig1d"], result["reports"]["fig1d"]
            paths = result["paths"]
        else:
            traj, report, paths = ff.integrator.run(config), None, {}
        wall = time.perf_counter() - start
    return {"wall_s": wall, "run_s": spans.total(tracer.spans, "integrator.run"),
            "spans": tracer.spans, "traj": traj, "report": report, "paths": paths}


def observe(ff, body) -> dict:
    traj = body["traj"]
    report = body["report"] if body["report"] is not None else ff.build_report(traj)
    obs = {
        "rows": [[r.t, r.levels[0.4], r.levels[0.5], r.levels[0.6], r.stretch]
                 for r in report.rows],
        "max_overshoot": traj.max_overshoot,
        "final_mass": traj.grid.dx * float(traj.fields[-1].values.sum()),
        "guard_breach_time": traj.guard_breach_time,
    }
    if body["paths"]:
        header, rows = ff.read_csv(body["paths"]["fig1d:csv"])
        cols = [header.index(c) for c in ROW_FIELDS[:4]] + [header.index("stretch_0.4_0.6")]
        obs["csv_rows"] = [[row[c] for c in cols] for row in rows]
        with open(body["paths"]["fig1d:snapshots"], "rb") as fh:
            obs["snapshot_lines"] = sum(chunk.count(b"\n")
                                        for chunk in iter(lambda: fh.read(1 << 20), b""))
    return obs


def _close(got, want, tol) -> bool:
    if got == want or (math.isnan(got) and math.isnan(want)):
        return True
    return abs(got - want) <= tol


def compare(obs, ref) -> list:
    """Differences between an observation and its reference beyond tolerance."""
    problems = []
    if obs["guard_breach_time"] != ref["guard_breach_time"]:
        problems.append(f"guard breach time {obs['guard_breach_time']} != {ref['guard_breach_time']}")
    tables = [("row", obs["rows"])]
    if "csv_rows" in obs:
        tables.append(("csv row", obs["csv_rows"]))
        if obs["snapshot_lines"] != ref["snapshot_lines"]:
            problems.append(f"snapshot dump has {obs['snapshot_lines']} lines, "
                            f"expected {ref['snapshot_lines']}")
    for label, rows in tables:
        if len(rows) != len(ref["rows"]):
            problems.append(f"{len(rows)} {label}s, expected {len(ref['rows'])}")
            continue
        for i, (got_row, want_row) in enumerate(zip(rows, ref["rows"])):
            for field, got, want in zip(ROW_FIELDS, got_row, want_row):
                if not _close(got, want, POSITION_TOL * max(1.0, abs(want))):
                    problems.append(f"{label} {i} {field}: {got!r} != {want!r}")
    if not _close(obs["final_mass"], ref["final_mass"], MASS_RTOL * abs(ref["final_mass"])):
        problems.append(f"final mass {obs['final_mass']!r} != {ref['final_mass']!r}")
    if not _close(obs["max_overshoot"], ref["max_overshoot"], OVERSHOOT_ATOL):
        problems.append(f"max overshoot {obs['max_overshoot']!r} != {ref['max_overshoot']!r}")
    return problems


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def checked_body(ff, name, config, tracer, reference, first):
    """Run and check one body between two calibrations. Returns (body or
    None if it raised, problems)."""
    import calibrate

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        cal_before = calibrate.calibrate(name, scratch)
        try:
            body = execute(ff, name, config, tracer, scratch)
            body["cal_s"] = 0.5 * (cal_before + calibrate.calibrate(name, scratch))
            problems = compare(observe(ff, body), reference)
        except Exception as exc:  # a raising body is a failed operation
            return None, [f"{type(exc).__name__}: {exc}"]
        body["snapshot_bytes"] = (os.path.getsize(body["paths"]["fig1d:snapshots"])
                                  if body["paths"] else 0)
    arrays = [fld.values.tobytes() for fld in body["traj"].fields]
    if not first:
        first.append(arrays)
    elif arrays != first[0]:
        problems.append("trajectory differs bitwise from the warm-up body")
    del body["traj"], body["report"]  # so that peak_rss_mb holds one body's arrays
    return body, problems


def measure(ff, name, config, reference, seconds, tracers, rng, failures):
    """One warm-up body, then rounds of one body per tracer, in seed-shuffled
    order, until `seconds` have passed since the warm-up began. Every body is
    checked against the reference and bitwise against the warm-up trajectory,
    and each failing body is appended to `failures`. Returns (bodies per
    tracer, bodies run)."""
    OUT_DIR.mkdir(exist_ok=True)
    first: list = []
    samples = [[] for _ in tracers]
    attempted = 0

    def once(k):
        nonlocal attempted
        attempted += 1
        body, problems = checked_body(ff, name, config, tracers[k], reference, first)
        if problems:
            failures.append("; ".join(problems[:5]))
        return body

    deadline = time.perf_counter() + seconds
    once(0)
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for k in rng.sample(range(len(tracers)), len(tracers)):
            body = once(k)
            if body is not None:
                samples[k].append(body)
        rounds += 1
    return samples, attempted


def setup_probe(name) -> tuple:
    """Seconds from importing fastfronts in this fresh process to the first
    step, then the calibration time taken right after."""
    start = time.perf_counter()
    ff = import_fastfronts()
    config = workload_config(ff, name)
    grid = config.grid()
    ff.build_initial(config.initial, grid)
    ff.DispersalStepper(config.dispersal, grid, eps_reg=config.eps_reg)
    setup = time.perf_counter() - start
    import calibrate

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        return setup, calibrate.calibrate(name, scratch)


def probe_setup(name) -> list:
    """(setup seconds, calibration seconds) from SETUP_PROBES fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name]
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probes.append(tuple(float(v) for v in proc.stdout.split()[-2:]))
    return probes


def load_reference(name) -> dict:
    return json.loads(REFERENCES.read_text())["workloads"][name]


def worker(args) -> dict:
    """Plain bodies for --seconds in this process, for end_to_end."""
    ff = import_fastfronts()
    config = workload_config(ff, args.workload)
    failures: list = []
    samples, attempted = measure(ff, args.workload, config, load_reference(args.workload),
                                 args.seconds,
                                 [spans.Tracer(ff, spans.RUN_TARGETS)],
                                 random.Random(args.seed), failures)
    bodies = [{k: b[k] for k in ("wall_s", "run_s", "cal_s")} for b in samples[0]]
    return {"bodies": bodies, "attempted": attempted, "failures": failures}


def end_to_end(name, config, args, failures):
    """Plain bodies in WORKERS fresh processes, one after another.

    A process keeps the memory layout it got for its arrays, and at 2^16 and
    2^17 nodes that alone moves a body's time by up to a quarter from one
    process to the next; the median over several processes evens it out.
    Times are rescaled to the reference speed of the machine: each one is
    multiplied by REFERENCE_S / the calibration time taken beside it.
    """
    import calibrate

    ref = calibrate.REFERENCE_S[name]
    probes = probe_setup(name)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", name,
           "--seconds", str(args.seconds / WORKERS)]
    bodies, attempted = [], 0
    for _ in range(WORKERS):
        proc = subprocess.run(cmd + ["--seed", str(args.seed)], capture_output=True,
                              text=True, timeout=args.seconds + 120, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        bodies += result["bodies"]
        attempted += result["attempted"]
        failures += result["failures"]
    node_steps = config.N * step_count(config)
    metrics = {
        "wall_s": statistics.median(b["wall_s"] * ref / b["cal_s"] for b in bodies),
        "node_steps_per_s": statistics.median(node_steps * b["cal_s"] / (b["run_s"] * ref)
                                              for b in bodies),
        "setup_s": statistics.median(setup * ref / cal for setup, cal in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6,
    }
    counts = {"wall_s": len(bodies), "node_steps_per_s": len(bodies), "setup_s": len(probes),
              "peak_rss_mb": WORKERS}
    raw = {"raw_wall_s": [b["wall_s"] for b in bodies], "raw_run_s": [b["run_s"] for b in bodies],
           "calibration_s": [b["cal_s"] for b in bodies], "setup_probes": probes}
    for key in ("raw_wall_s", "calibration_s"):
        print(f"{name} {key} = {statistics.median(raw[key]):.6g} s (n={len(bodies)}, not rescaled)")
    return metrics, counts, attempted, raw


def per_layer(ff, name, config, args, failures):
    """Plain and traced bodies, alternating in seed order, in this process."""
    plain = spans.Tracer(ff, spans.RUN_TARGETS)
    traced = spans.Tracer(ff, spans.LAYER_TARGETS)
    (plain_bodies, traced_bodies), attempted = measure(
        ff, name, config, load_reference(name), args.seconds, [plain, traced],
        random.Random(args.seed), failures)
    params = inspect.signature(ff.dispersal.fast_diffusion_step).parameters
    newton_max = params["max_iter"].default if "max_iter" in params else math.inf
    rows = []
    for body in traced_bodies:
        row = spans.layer_metrics(body["spans"], config.N, newton_max)
        row["integrator.snapshot_bytes"] = body["snapshot_bytes"]
        rows.append(row)
    metrics = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    metrics["dispersal.subcycles_per_step_computed"] = (
        subcycles_computed(config) if name == "ffd-subcycle" else 0)
    metrics["dispersal.bytes_per_step_computed"] = (
        bytes_per_step_computed(config.N) if name in FFT_PATH_WORKLOADS else 0)
    plain_wall = statistics.median(b["wall_s"] for b in plain_bodies)
    traced_wall = statistics.median(b["wall_s"] for b in traced_bodies)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    metrics = {key: metrics[key] for key in PER_LAYER}
    counts = dict.fromkeys(metrics, len(traced_bodies))
    extra = {"missing_targets": traced.missing, "plain_wall_s": [b["wall_s"] for b in plain_bodies],
             "traced_wall_s": [b["wall_s"] for b in traced_bodies],
             "spans": [[[s[0], s[1] - b["spans"][0][1], s[2] - b["spans"][0][1], s[3]]
                        for s in b["spans"]] for b in traced_bodies]}
    return metrics, counts, attempted, extra


# ---------------------------------------------------------------------------
# provenance and entry points
# ---------------------------------------------------------------------------

def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance() -> dict:
    """The machine and software a run measured."""
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        caches[f"L{level} {kind}"] = _read(index / "size").strip()
    return {
        "cpu_model": model, "caches": caches, "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
    }


def run_workload(args) -> int:
    ff = import_fastfronts()
    prov = {**provenance(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    print("provenance " + json.dumps(prov), flush=True)
    config = workload_config(ff, args.workload)
    failures: list = []
    if args.trace:
        metrics, counts, attempted, extra = per_layer(ff, args.workload, config, args, failures)
    else:
        metrics, counts, attempted, extra = end_to_end(args.workload, config, args, failures)
    units = {**END_TO_END, **PER_LAYER}
    for metric, value in metrics.items():
        print(f"{args.workload} {metric} = {value:.6g} {units[metric]} (n={counts[metric]})")
    print(f"{args.workload} error_rate = {len(failures)}/{attempted}")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}_trace{args.trace}.json"
    out.write_text(json.dumps({"provenance": prov, "result": result, "failures": failures,
                               **extra}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced, in seed order."""
    order = list(WORKLOADS)
    random.Random(args.seed).shuffle(order)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in order:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"all_seed{args.seed}.json").write_text(json.dumps(combined, indent=1))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads, here and in every child process
    if args.setup_probe:
        print(*setup_probe(args.workload))
        return 0
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
