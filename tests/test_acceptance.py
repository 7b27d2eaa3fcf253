"""Acceptance gate: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The four figure presets are executed once per session and shared across the
criteria that consume them. Every tolerance is pinned here; the measured
values feeding each gate are printed so a red criterion carries its own
diagnosis.
"""

import math
import time
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

import fastfronts as ff
from fastfronts.diagnostics import build_report, speed_fit
from fastfronts.experiment import _run_many, preset_config


def record(num, desc, passed, detail=""):
    word = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{word} criterion {num:2d}: {desc}{suffix}")


@pytest.fixture(scope="session")
def preset_runs():
    """All four figure presets, run once on the package's executor, longest
    first, with the reports built here: {name: (trajectory, report)}, and
    "elapsed", the wall time of the whole. No file is written."""
    names = ("fig1c", "fig1a", "fig1b", "fig1d")
    t0 = time.perf_counter()
    runs = _run_many(partial(ff.run, raise_on_breach=True),
                     [(preset_config(name),) for name in names])
    out = {name: (traj, build_report(traj)) for name, traj in zip(names, runs)}
    out["elapsed"] = time.perf_counter() - t0
    return out


def _series(report, column):
    return {row.t: getattr(row, column) for row in report.rows}


def _levels(report, lam):
    return {row.t: row.levels[lam] for row in report.rows}


# --------------------------------------------------------------------------


def test_c01_convolution_oracle_equivalence():
    """Spectral convolution matches the direct O(N^2) quadrature."""
    grid = ff.make_grid(60.0, 512)
    kernel = ff.StretchedExponential(0.5, 1.0)
    symbol = ff.build_symbol(ff.Convolution(kernel), grid)
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        f = ff.Field(grid, rng.random(512))
        direct = ff.convolve_direct(f, kernel, grid).values
        spectral = ff.apply_symbol(f, symbol).values
        worst = max(worst, float(np.max(np.abs(direct - spectral))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    record(1, "spectral vs direct convolution, 20 random fields",
           ok, f"sup={worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_c02_fractional_eigenfunction_relation():
    """Cosine modes decay by exp(-|xi|^(2 alpha) dt) to 1e-10 relative."""
    grid = ff.make_grid(10.0, 256)
    dt = 0.05
    worst = 0.0
    for alpha in (0.25, 0.5, 0.9):
        stepper = ff.DispersalStepper(ff.FractionalLaplacian(alpha), grid)
        for mode in (1, 2, 5, 8):
            xi = grid.xi[mode]
            out = stepper.step_values(0.5 + 0.4 * np.cos(xi * grid.x), dt)
            amp = 0.4 * np.exp(-np.abs(xi) ** (2 * alpha) * dt)
            expected = 0.5 + amp * np.cos(xi * grid.x)
            worst = max(worst, float(np.max(np.abs(out - expected)) / amp))
    record(2, "fractional semigroup eigenfunction decay", worst < 1e-10,
           f"worst rel err={worst:.2e}")
    assert worst < 1e-10


def test_c03_kernel_discrete_mass():
    """Raw discrete mass of exp(-sqrt|x|)/4 vs its exact unit integral.

    The kernel is sampled as exact cell averages, so dx * sum(J) is the
    exact mass of [-L - dx/2, L - dx/2). At the pinned grid (half-length
    200, 2^13 nodes, dx=0.0488) this measures 1.092e-5, the tail beyond
    L=200, about (sqrt(200) + 1) * exp(-sqrt(200)). (Point samples measured
    1.062e-3 here: the |x|^(1/2) kink at the origin gives the trapezoid rule
    an O(dx^1.5) error.) The normalized symbol the solver actually uses pins
    m(0) = 0 exactly either way.
    """
    val, _ = quad(lambda t: np.exp(-np.sqrt(t)), 0, np.inf, limit=200)
    assert val == pytest.approx(2.0, abs=1e-7)  # closed-form check
    grid = ff.make_grid(200.0, 2**13)
    raw_kernel = ff.StretchedExponential(0.5, 1.0, normalize=False)
    symbol = ff.build_symbol(ff.Convolution(raw_kernel), grid)
    deviation = abs(float(symbol[0]))
    record(3, "raw kernel mass defect at the pinned grid", deviation < 1e-3,
           f"|m(0)|={deviation:.4e} vs 1e-3")
    assert deviation < 1e-3


def test_c04_strang_self_convergence_order():
    """Error-ratio order 2.0 +- 0.2 against a fine-dt reference."""
    def final_state(dt):
        cfg = ff.RunConfig(
            L=200.0, N=2**12, dispersal=ff.FractionalLaplacian(0.9),
            t_end=1.0, dt=dt, snapshot_times=(1.0,),
        )
        return ff.run(cfg).fields[-1].values

    ref = final_state(0.00125)
    errs = [float(np.max(np.abs(final_state(dt) - ref))) for dt in (0.04, 0.02, 0.01)]
    orders = [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]
    ok = all(1.8 <= p <= 2.2 for p in orders)
    record(4, "strang splitting self-convergence order", ok,
           f"orders={orders[0]:.3f},{orders[1]:.3f}")
    assert ok, f"orders {orders} outside 2.0 +- 0.2"


@pytest.mark.slow
def test_c05_comparison_principle_all_families():
    """20 random ordered pairs stay ordered under all four operators."""
    rng = np.random.default_rng(20250807)
    families = {
        "fractional": ff.RunConfig(
            L=1000.0, N=2**13, dispersal=ff.FractionalLaplacian(0.9),
            t_end=5.0, dt=0.02),
        "convolution": ff.RunConfig(
            L=1000.0, N=2**13,
            dispersal=ff.Convolution(ff.StretchedExponential(0.5, 1.0)),
            t_end=5.0, dt=0.02),
        "fast_diffusion": ff.RunConfig(
            L=800.0, N=2**13, dispersal=ff.FastDiffusion(0.5),
            t_end=5.0, dt=0.02),
        "standard": ff.RunConfig(
            L=400.0, N=2**12, dispersal=ff.StandardLaplacian(),
            t_end=5.0, dt=0.02),
    }
    pairs = [ff.ordered_gaussian_pair(families["standard"].grid(), rng) for _ in range(20)]
    worst = 0.0
    worst_family = ""
    for name, cfg in families.items():
        grid = cfg.grid()
        for u0, v0 in pairs:
            # resample the pair shapes onto this family's grid
            ua = np.interp(grid.x, u0.grid.x, u0.values)
            va = np.interp(grid.x, v0.grid.x, v0.values)
            verdict = ff.check_comparison(ff.Field(grid, ua), ff.Field(grid, va), cfg)
            if verdict.violation > worst:
                worst, worst_family = verdict.violation, name
    record(5, "comparison principle, 20 ordered pairs x 4 operator families",
           worst <= 1e-9, f"worst={worst:.2e} ({worst_family or 'none'})")
    assert worst <= 1e-9


def test_c06_monotone_profiles_stay_monotone():
    """Nonincreasing data keeps a nonpositive slope for all four operators."""
    cases = {
        "standard": (
            ff.RunConfig(L=400.0, N=2**13, dispersal=ff.StandardLaplacian(), t_end=5.0),
            "indicator"),
        "fractional": (
            ff.RunConfig(L=10000.0, N=2**16, dispersal=ff.FractionalLaplacian(0.9),
                         t_end=5.0, seam_margin_frac=0.4),
            "smooth"),
        "convolution": (
            ff.RunConfig(L=2000.0, N=2**14, seam_margin_frac=0.35,
                         dispersal=ff.Convolution(ff.StretchedExponential(0.5, 1.0)),
                         t_end=5.0),
            "smooth"),
        "fast_diffusion": (
            ff.RunConfig(L=400.0, N=2**12, dispersal=ff.FastDiffusion(0.5), t_end=5.0),
            "indicator"),
    }
    worst = 0.0
    worst_name = ""
    for name, (cfg, kind) in cases.items():
        grid = cfg.grid()
        if kind == "indicator":
            u0 = ff.Field(grid, (grid.x < 0.0).astype(float))
        else:
            u0 = ff.smoothed_step(grid)
        verdict = ff.check_monotone_preservation(u0, cfg)
        if verdict.violation > worst:
            worst, worst_name = verdict.violation, name
    record(6, "monotone preservation across the four operators",
           worst <= 1e-9, f"worst slope={worst:.2e} ({worst_name})")
    assert worst <= 1e-9


def test_c07_mass_neutrality_reaction_off():
    """Linear dispersal alone conserves the mean to 1e-9 over t_end=10."""
    n = 2**10
    rng = np.random.default_rng(7)
    configs = [
        ff.RunConfig(L=100.0, N=n, dispersal=ff.FractionalLaplacian(0.5), t_end=10.0,
                     initial=ff.TabulatedInitial(rng.random(n))),
        ff.RunConfig(L=100.0, N=n,
                     dispersal=ff.Convolution(ff.StretchedExponential(0.5, 1.0)),
                     t_end=10.0),
        ff.RunConfig(L=100.0, N=n, dispersal=ff.StandardLaplacian(), t_end=10.0),
    ]
    worst = max(ff.check_mass_neutral(cfg).violation for cfg in configs)
    record(7, "mean conservation with reaction off", worst <= 1e-9,
           f"worst drift={worst:.2e}")
    assert worst <= 1e-9


def test_c08_classical_front_speed(preset_runs):
    """Half-level speed of the classical run over t in [15, 20].

    Known red: the gate is [1.6, 2.1] around the classical minimal speed 2,
    but the pinned wide Gaussian (exp(-x^2/100)) decays slower than the
    critical exponential out to x = 50, so the front is still mildly
    supercritical in this window and measures 2.151 (stable under dt and dx
    refinement). A narrow bump (width 1) measures 1.907, inside the gate.
    """
    _, report = preset_runs["fig1d"]
    slope = speed_fit(report.traces[0.5], 15.0, 20.0)
    ok = 1.6 <= slope <= 2.1
    record(8, "classical front speed in [1.6, 2.1]", ok, f"slope={slope:.4f}")
    assert ok, f"measured slope {slope:.4f}"


def test_c09_level_separation_trends(preset_runs):
    """Separation x_0.4 - x_0.6: plateau for classical, growth otherwise."""
    elapsed = preset_runs["elapsed"]
    _, rep_d = preset_runs["fig1d"]
    s_d = _series(rep_d, "stretch")
    plateau = abs(s_d[20.0] - s_d[10.0]) / s_d[10.0]
    ok_d = plateau < 0.10

    ok_growth = True
    details = [f"fig1d plateau={plateau:.3f}"]
    for name in ("fig1b", "fig1c"):
        _, rep = preset_runs[name]
        s = _series(rep, "stretch")
        window = [s[float(t)] for t in range(5, 21)]
        increasing = all(b > a for a, b in zip(window, window[1:]))
        ratio = s[20.0] / s[10.0]
        ok_growth &= increasing and ratio > 1.5
        details.append(f"{name} ratio={ratio:.2f} incr={increasing}")
    _, rep_a = preset_runs["fig1a"]
    s_a = _series(rep_a, "stretch")
    window_a = [s_a[float(t)] for t in range(4, 13)]
    ok_a = all(b > a for a, b in zip(window_a, window_a[1:]))
    details.append(f"fig1a incr={ok_a}")
    ok_time = elapsed < 600.0  # the fixture's wall time, its presets run in parallel
    details.append(f"runtime={elapsed:.0f}s")

    ok = ok_d and ok_growth and ok_a and ok_time
    record(9, "level-separation plateau vs growth", ok, "; ".join(details))
    assert ok_d, f"fig1d plateau {plateau:.3f} >= 0.10"
    assert ok_growth
    assert ok_a
    assert ok_time


def test_c10_acceleration_ratio(preset_runs):
    """x_0.5(12)/12 vs x_0.5(6)/6 separates accelerating from classical.

    Known red on the classical half: the gate [0.9, 1.1] expects x/t to be
    near-steady between t=6 and t=12, but with the pinned wide Gaussian the
    classical run measures 0.773 (the early data-driven transient makes
    x/t fall). The fractional half passes with a wide margin.
    """
    _, rep_a = preset_runs["fig1a"]
    xa = _levels(rep_a, 0.5)
    ratio_a = (xa[12.0] / 12.0) / (xa[6.0] / 6.0)
    _, rep_d = preset_runs["fig1d"]
    xd = _levels(rep_d, 0.5)
    ratio_d = (xd[12.0] / 12.0) / (xd[6.0] / 6.0)
    ok_a = ratio_a >= 1.3
    ok_d = 0.9 <= ratio_d <= 1.1
    record(10, "acceleration ratio: fractional >= 1.3x, classical in [0.9, 1.1]",
           ok_a and ok_d, f"fractional={ratio_a:.3f}, classical={ratio_d:.3f}")
    assert ok_a, f"fractional ratio {ratio_a:.3f}"
    assert ok_d, f"classical ratio {ratio_d:.3f}"


def test_c11_flattening_around_the_half_level(preset_runs):
    """Window deviations around x_0.5 shrink between t=2 and late times."""
    _, rep = preset_runs["fig1b"]
    left = _series(rep, "flat_left")
    right = _series(rep, "flat_right")
    late = [float(t) for t in range(15, 21)]
    ok_left = min(left[t] for t in late) < left[2.0]
    ok_right = min(right[t] for t in late) < right[2.0]
    record(11, "flattening of the profile beside its half level",
           ok_left and ok_right,
           f"left {left[2.0]:.3f}->{min(left[t] for t in late):.3f}, "
           f"right {right[2.0]:.3f}->{min(right[t] for t in late):.3f}")
    assert ok_left and ok_right


def test_c12_logistic_exact_step_vs_oracle():
    """Closed-form logistic flow vs a finely substepped RK4 oracle."""
    us = np.arange(0.01, 1.0, 0.01)
    exact = ff.logistic_exact_step(us, 0.1)
    oracle = us.copy()
    f = lambda w: w * (1.0 - w)
    for _ in range(1000):
        oracle = ff.rk4_reaction_step(oracle, f, 0.1 / 1000)
    gap = float(np.max(np.abs(exact - oracle)))

    comp = 0.0
    for s in (0.03, 0.4, 1.1):
        for t in (0.07, 0.9):
            two = ff.logistic_exact_step(ff.logistic_exact_step(us, s), t)
            one = ff.logistic_exact_step(us, s + t)
            comp = max(comp, float(np.max(np.abs(two - one))))
    ok = gap <= 1e-10 and comp <= 1e-12
    record(12, "exact logistic flow vs RK4 oracle and composition", ok,
           f"oracle gap={gap:.2e}, composition={comp:.2e}")
    assert gap <= 1e-10
    assert comp <= 1e-12


def test_c13_equivariance_and_restart(preset_runs):
    """Half-box translation is bitwise exact; snapshot restarts agree.

    The shifted pair puts the bump at -L/2 and +L/2; a 10-unit horizon
    keeps both fat-tailed runs clear of the guard bands (at the full
    20-unit horizon the off-center tails reach the watched nodes).
    """
    from dataclasses import replace
    base = replace(preset_config("fig1b"), t_end=10.0)
    grid = base.grid()
    u_left = np.exp(-((grid.x + grid.L / 2.0) ** 2) / 100.0)
    shift = grid.n // 2
    u_right = np.roll(u_left, shift)
    run_left = ff.run(replace(base, initial=ff.TabulatedInitial(u_left)))
    run_right = ff.run(replace(base, initial=ff.TabulatedInitial(u_right)))
    assert not run_left.breached and not run_right.breached
    exact = all(
        np.array_equal(b.values, np.roll(a.values, shift))
        for a, b in zip(run_left.fields, run_right.fields)
    )

    traj, _ = preset_runs["fig1b"]
    mid = traj.field_at(10.0)
    restart = ff.run(replace(base, t_end=10.0,
                             initial=ff.TabulatedInitial(mid.values)))
    gap = float(np.max(np.abs(restart.field_at(10.0).values - traj.field_at(20.0).values)))
    ok = exact and gap <= 1e-10
    record(13, "translation equivariance (bitwise) and restart (1e-10)", ok,
           f"bitwise={exact}, restart gap={gap:.2e}")
    assert exact
    assert gap <= 1e-10
