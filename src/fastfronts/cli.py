"""Command-line front end.

Verbs:
    fastfronts run <config> [--out DIR]
    fastfronts preset <name> [--out DIR]
    fastfronts properties <config> [--out DIR] [--seed INT] [--speed C]
    fastfronts sweep <config> --vary section.key=v1,v2,... [--out DIR]

Exit code 0 on success; on failure the error category name is printed to
stderr and the exit code is nonzero (1 for library errors, 3 when a property
check reports a failing verdict).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import FastFrontsError, IoFailure, NonlinearVariant, ValidationFailed
from .experiment import (
    PRESET_NAMES,
    make_out_dir,
    parse_config_text,
    run_preset,
    run_sweep,
    run_to_files,
)
from .properties import (
    check_comparison,
    check_mass_neutral,
    check_monotone_preservation,
    check_spreading,
    ordered_gaussian_pair,
    smoothed_step,
    verdict_report,
)

__all__ = ["main"]


def _read_config(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text), text


def _resolve_out(arg_out, extras) -> Path:
    return make_out_dir(arg_out if arg_out else extras.get("out_dir", "."))


def _cmd_run(args) -> int:
    (config, extras), _ = _read_config(args.config)
    out = _resolve_out(args.out, extras)
    stem = Path(args.config).stem or "run"
    traj, _, *paths = run_to_files(stem, config, out)
    print(f"{stem}: {len(traj.times)} snapshots, guard clean, "
          f"max overshoot {traj.max_overshoot:.3e}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_preset(args) -> int:
    out = Path(args.out or ".")
    result = run_preset(args.name, out)
    for key in sorted(result["paths"]):
        print(f"wrote {result['paths'][key]}")
    return 0


def _cmd_properties(args) -> int:
    if args.seed < 0:
        raise ValidationFailed(f"--seed must be >= 0, got {args.seed}")
    (config, extras), _ = _read_config(args.config)
    out = _resolve_out(args.out, extras) if args.out else None
    rng = np.random.default_rng(args.seed)
    grid = config.grid()
    verdicts = []

    u0, v0 = ordered_gaussian_pair(grid, rng)
    verdicts.append(check_comparison(u0, v0, config))
    verdicts.append(check_monotone_preservation(smoothed_step(grid), config))
    if args.speed != 0:
        verdicts.append(check_spreading(u0, config, args.speed))
    try:
        verdicts.append(check_mass_neutral(config))
    except NonlinearVariant:
        print("# mass_neutrality skipped: nonlinear dispersal variant")

    text = verdict_report(verdicts)
    sys.stdout.write(text)
    if out is not None:
        path = out / "properties.txt"
        try:
            path.write_text(text)
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        print(f"wrote {path}")
    if all(v.passed for v in verdicts):
        return 0
    print("error PropertyCheckFailed: at least one check failed", file=sys.stderr)
    return 3


def _cmd_sweep(args) -> int:
    (_, extras), text = _read_config(args.config)
    # run_sweep makes the directory after its own gates
    results = run_sweep(text, args.vary, args.out or extras.get("out_dir", "."),
                        workers=args.workers)
    for label, breach, n_snaps in results:
        status = "guard clean" if breach is None else f"guard breached at t={breach:g}"
        print(f"{label}: {n_snaps} snapshots, {status}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fastfronts",
        description="1D reaction-dispersion runs, figure presets, and scheme checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one config document")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_preset = sub.add_parser("preset", help=f"run a preset: {', '.join(PRESET_NAMES)}")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", default=None)
    p_preset.set_defaults(fn=_cmd_preset)

    p_prop = sub.add_parser("properties", help="run scheme property checks on a config")
    p_prop.add_argument("config")
    p_prop.add_argument("--out", default=None)
    p_prop.add_argument("--seed", type=int, default=0, help="seed (>= 0) for randomized inputs")
    p_prop.add_argument("--speed", type=float, default=0.0,
                        help="window speed for the spreading check (0 skips it)")
    p_prop.set_defaults(fn=_cmd_properties)

    p_sweep = sub.add_parser("sweep", help="run a config across several parameter values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--vary", required=True, help="section.key=v1,v2,...")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FastFrontsError as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
