"""The config-document surface: parse, run, emit, and sweep.

Everything the command line does is a thin wrapper over these calls, so the
same flat `section.key = value` documents work from scripts.

Run:  python demos/05_config_documents_and_sweeps.py
Outputs land in demo_output/sweep/.
"""

from pathlib import Path

import fastfronts as ff
from fastfronts.diagnostics import build_report
from fastfronts.experiment import run_sweep

DOCUMENT = """
# kernel-smoothing run, short horizon
dispersal.variant = convolution
dispersal.kernel = stretched_exponential
dispersal.kernel_a = 0.5
dispersal.kernel_b = 1.0

grid.L = 600
grid.N = 8192

time.dt = 0.01
time.t_end = 6

initial.kind = gaussian
initial.width = 100

diagnostics.lambdas = 0.3, 0.5, 0.7
"""

# A sweep pool started by `spawn` or `forkserver` (the default on macOS and
# Windows, and on Linux from Python 3.14) imports this script again in each
# worker, so the script's work runs only under this guard.
if __name__ == "__main__":
    config = ff.parse_config_text(DOCUMENT)[0]
    print(f"parsed: {type(config.dispersal).__name__} on [-{config.L:g}, {config.L:g}) "
          f"with {config.N} nodes, dt={config.dt}, horizon {config.t_end}")

    trajectory = ff.run(config, raise_on_breach=True)
    report = build_report(trajectory)
    out = Path("demo_output")
    out.mkdir(exist_ok=True)
    ff.emit_csv(report, out / "document_run.csv")
    header, rows = ff.read_csv(out / "document_run.csv")
    print(f"CSV columns: {header}")
    print(f"final row:   t={rows[-1][0]:g}, x_0.5={rows[-1][4]:.3f}, width={rows[-1][7]:.3f}")

    # A sweep injects values for one key and runs the variants concurrently.
    results = run_sweep(DOCUMENT, "dispersal.kernel_a = 0.4, 0.5, 0.6", out / "sweep")
    for label, breach, n_snaps in results:
        status = "clean" if breach is None else f"breached at t={breach:g}"
        print(f"  {label}: {n_snaps} snapshots, guard {status}")
    print(f"per-variant CSVs and dumps are in {out / 'sweep'}")
