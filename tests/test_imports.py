"""Import guard: `import fastfronts` loads numpy and no scipy, and each scipy
submodule loads only when an operator that needs it is built.

Every check runs in a fresh interpreter, so modules that other tests loaded
do not count, and checks membership in sys.modules only, never a time.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# scipy costs about 0.2 s per process; the others come with the standard
# library's process pool and XML helpers, which only sweeps and charts need
NOT_AT_IMPORT = ("scipy", "concurrent.futures", "xml", "http", "ssl")


def loaded_after(statements: str) -> set:
    """Top-level and dotted module names in sys.modules after `statements`."""
    code = (
        f"import sys; sys.path.insert(0, {SRC!r})\n"
        f"{statements}\n"
        "print(' '.join(sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return set(proc.stdout.split())


def test_bare_import_loads_none_of_the_deferred_modules():
    loaded = loaded_after("import fastfronts")
    assert "fastfronts" in loaded and "numpy" in loaded
    assert loaded.isdisjoint(NOT_AT_IMPORT)


@pytest.mark.parametrize("spec, module", [
    ("ff.FastDiffusion(0.5)", "scipy.linalg"),
    ("ff.Convolution(ff.StretchedExponential(0.5))", "scipy.special"),
])
def test_stepper_set_up_loads_its_scipy_module(spec, module):
    loaded = loaded_after(
        "import fastfronts as ff\n"
        f"ff.DispersalStepper({spec}, ff.make_grid(50.0, 2**8))"
    )
    assert module in loaded
