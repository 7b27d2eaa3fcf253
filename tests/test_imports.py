"""Import guard: `import fastfronts` loads numpy and no scipy, and each scipy
module loads only when an operator that needs it is built: a fast-diffusion
stepper loads scipy's LAPACK wrapper `scipy.linalg._flapack` and not the
`scipy.linalg` package, and a linear or fractional-fast-diffusion stepper
loads scipy's pocketfft extension `scipy.fft._pocketfft.pypocketfft` and not
the `scipy.fft` package; each package later shares that module; no module of the
package imports a name it never uses; and the package namespace is exactly
the union of the names its modules declare public.

Every load check runs in a fresh interpreter, so modules that other tests
loaded do not count, and checks membership in sys.modules only, never a time.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# scipy costs about 0.2 s per process; the others come with the standard
# library's process pool (concurrent.futures and multiprocessing) and XML
# helpers, which only sweeps and charts need, and with subprocess, which
# only starts the dump's writer process; fastfronts._dumpfile is that
# process's own module, which the package runs but never imports
NOT_AT_IMPORT = ("scipy", "concurrent.futures", "xml", "http", "ssl", "multiprocessing",
                 "subprocess", "fastfronts._dumpfile")


def fresh_output(statements: str) -> str:
    """What `statements` print in a fresh interpreter that imports from SRC
    and has `sys` bound."""
    code = f"import sys; sys.path.insert(0, {SRC!r})\n{statements}\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout


def loaded_after(statements: str) -> set:
    """Top-level and dotted module names in sys.modules after `statements`."""
    return set(fresh_output(f"{statements}\nprint(' '.join(sys.modules))").split())


def test_bare_import_loads_none_of_the_deferred_modules():
    loaded = loaded_after("import fastfronts")
    assert "fastfronts" in loaded and "numpy" in loaded
    assert loaded.isdisjoint(NOT_AT_IMPORT)


@pytest.mark.parametrize("spec, module", [
    ("ff.FastDiffusion(0.5)", "scipy.linalg._flapack"),
    ("ff.Convolution(ff.StretchedExponential(0.5))", "scipy.special"),
    ("ff.StandardLaplacian()", "scipy.fft._pocketfft.pypocketfft"),
])
def test_stepper_set_up_loads_its_scipy_module(spec, module):
    loaded = loaded_after(
        "import fastfronts as ff\n"
        f"ff.DispersalStepper({spec}, ff.make_grid(50.0, 2**8))"
    )
    assert module in loaded
    if module != "scipy.special":
        # the extension alone: no scipy package's __init__ ran
        assert {name for name in loaded if name.split(".")[0] == "scipy"} == {module}


LAPACK_NAMES = ("dgtsv", "dgttrf", "dgttrs")


def test_lapack_wrapper_is_the_one_scipy_linalg_imports_later():
    # a fast-diffusion step, then scipy.linalg: its lapack module re-exports
    # the very routine objects the step used, and its own solver still works
    out = fresh_output(
        "import numpy as np\n"
        "import fastfronts as ff\n"
        "g = ff.make_grid(50.0, 2**8)\n"
        "s = ff.DispersalStepper(ff.FastDiffusion(0.5), g)\n"
        "s.step_values(np.exp(-g.x**2 / 100.0), 0.01)\n"
        "lapack = ff.dispersal._lapack()\n"
        "print('scipy.linalg' in sys.modules)\n"
        "import scipy.linalg.lapack\n"
        "print(all(getattr(scipy.linalg.lapack, n) is getattr(lapack, n)\n"
        f"          for n in {LAPACK_NAMES}))\n"
        "ab = np.array([[0.0, 1.0, 2.0], [4.0, 5.0, 6.0], [3.0, 1.0, 0.0]])\n"
        "x = scipy.linalg.solve_banded((1, 1), ab, np.ones(3))\n"
        "dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)\n"
        "print(np.allclose(dense @ x, 1.0))\n"
        "print(x.tobytes() == ff.dispersal.solve_banded(ab, np.ones(3)).tobytes())"
    )
    assert out.split() == ["False", "True", "True", "True"]


def test_lapack_loader_reuses_a_loaded_scipy_linalg():
    # with the extension loader gone, only the module scipy.linalg loaded
    # can be returned
    out = fresh_output(
        "import importlib.machinery\n"
        "import scipy.linalg\n"
        "import fastfronts as ff\n"
        "importlib.machinery.ExtensionFileLoader = None\n"
        "print(ff.dispersal._lapack() is scipy.linalg.lapack._flapack)"
    )
    assert out.split() == ["True"]


POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def test_fractional_fast_diffusion_step_loads_no_scipy():
    # the sub-cycle runs on scipy's pocketfft extension alone, so the import
    # cost of the scipy and scipy.fft packages stays out of a
    # fractional-fast-diffusion run's start-up
    loaded = loaded_after(
        "import numpy as np\n"
        "import fastfronts as ff\n"
        "g = ff.make_grid(50.0, 2**8)\n"
        "s = ff.DispersalStepper(ff.FractionalFastDiffusion(0.75, 0.8), g)\n"
        "s.step_values(np.exp(-g.x**2 / 100.0), 0.01)"
    )
    assert "fastfronts.dispersal" in loaded
    assert {name for name in loaded if name.split(".")[0] == "scipy"} == {POCKETFFT}


@pytest.mark.parametrize("spec", ["ff.FractionalLaplacian(0.5)",
                                  "ff.FractionalFastDiffusion(0.75, 0.8)"])
def test_spectral_stepper_loads_the_pocketfft_extension_at_set_up(spec):
    # the extension without scipy's or scipy.fft's __init__, loaded by the
    # constructor: the step itself imports nothing
    out = fresh_output(
        "import numpy as np\n"
        "import fastfronts as ff\n"
        "g = ff.make_grid(50.0, 2**8)\n"
        f"s = ff.DispersalStepper({spec}, g)\n"
        "before = set(sys.modules)\n"
        "s.step_values(np.exp(-g.x**2 / 100.0), 0.01)\n"
        "print(set(sys.modules) == before)\n"
        "print(' '.join(sorted(n for n in before if n.split('.')[0] == 'scipy')))"
    )
    assert out.split() == ["True", POCKETFFT]


def test_pocketfft_extension_is_the_one_scipy_fft_imports_later():
    # a linear step, then scipy.fft: its pocketfft backend is the very
    # module the step used, and its rfft still gives np.fft's bits
    out = fresh_output(
        "import numpy as np\n"
        "import fastfronts as ff\n"
        "g = ff.make_grid(50.0, 2**8)\n"
        "u = np.exp(-g.x**2 / 100.0)\n"
        "ff.DispersalStepper(ff.FractionalLaplacian(0.5), g).step_values(u, 0.01)\n"
        "fft = ff.dispersal._pocketfft()\n"
        "print('scipy.fft' in sys.modules)\n"
        "import scipy.fft\n"
        "from scipy.fft._pocketfft import basic\n"
        f"print(basic.pfft is fft and sys.modules[{POCKETFFT!r}] is fft)\n"
        "print(scipy.fft.rfft(u).tobytes() == np.fft.rfft(u).tobytes())"
    )
    assert out.split() == ["False", "True", "True"]


def test_pocketfft_fallback_steps_bitwise():
    # no extension file name matches, so the loader imports the module
    # through scipy.fft; a linear step and a fractional-fast-diffusion step
    # still give np.fft's bits
    out = fresh_output(
        "import importlib.machinery\n"
        "import numpy as np\n"
        "import fastfronts as ff\n"
        "importlib.machinery.EXTENSION_SUFFIXES = []\n"
        "g = ff.make_grid(50.0, 2**8)\n"
        "u, dt, eps = np.exp(-g.x**2 / 100.0), 0.01, ff.EPS_REG\n"
        "m = ff.build_symbol(ff.FractionalLaplacian(0.5), g)\n"
        "v = ff.DispersalStepper(ff.FractionalLaplacian(0.5), g).step_values(u, dt)\n"
        "print('scipy.fft' in sys.modules)\n"
        "print(v.tobytes() == np.fft.irfft(np.fft.rfft(u) * np.exp(m * dt), n=g.n).tobytes())\n"
        "m = ff.build_symbol(ff.FractionalLaplacian(0.75), g)\n"
        "n_sub = ff.dispersal.substep_count(ff.dispersal._largest_m(0.75, g, dt), 0.8, dt, eps)\n"
        "a, b = ff.dispersal._packed_multiplier((dt / n_sub) * m)\n"
        "reverse = -np.arange(g.n // 2) % (g.n // 2)\n"
        "w = ff.DispersalStepper(ff.FractionalFastDiffusion(0.75, 0.8), g).step_values(u, dt)\n"
        "for _ in range(n_sub):\n"
        "    z = np.fft.fft((np.maximum(u, eps) ** 0.8).view(complex))\n"
        "    u = u + np.fft.ifft(a * z + b * np.conj(z[reverse]), norm='forward').view(float)\n"
        "print(n_sub > 1, w.tobytes() == u.tobytes())"
    )
    assert out.split() == ["True", "True", "True", "True"]


def unused_imports(source: str) -> list:
    """Names bound by the imports of `source` that it never reads.

    A name counts as used when it is read anywhere in the module or listed
    in its __all__. `from __future__` imports and lines marked
    `# noqa: F401` (imports made for their side effect) are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
            continue
        bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


# __init__.py is left out: its imports are the package's public namespace
MODULES = sorted(
    p.name for p in (Path(SRC) / "fastfronts").glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    source = (Path(SRC) / "fastfronts" / module).read_text()
    assert unused_imports(source) == []


def test_unused_import_finder_flags_an_unread_name():
    source = (
        "from __future__ import annotations\nimport os\nimport sys\n"
        "import numpy.linalg  # noqa: F401\nfrom math import pi\nprint(sys)\n"
    )
    assert unused_imports(source) == ["os", "pi"]


# the modules `fastfronts/__init__.py` re-exports, in its order
PUBLIC_MODULES = ("errors", "grid", "dispersal", "reaction", "integrator", "diagnostics",
                  "properties", "experiment")


def test_package_namespace_is_the_union_of_module_declarations():
    # a module's declaration is its __all__; without one (errors), every name
    # without a leading underscore, which is what `import *` takes
    import fastfronts as ff

    declared = {}
    for name in PUBLIC_MODULES:
        module = importlib.import_module(f"fastfronts.{name}")
        names = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        declared.update((n, module) for n in names)
    public = {
        n for n, value in vars(ff).items()
        if not n.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(declared)
    for n, module in declared.items():
        assert getattr(ff, n) is getattr(module, n), n
