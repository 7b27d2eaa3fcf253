"""Import guard: `import fastfronts` loads numpy and no scipy, and each scipy
submodule loads only when an operator that needs it is built; no module of
the package imports a name it never uses; and the package namespace is
exactly the union of the names its modules declare public.

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
# library's process pool and XML helpers, which only sweeps and charts need,
# and with multiprocessing, which only the dump writer needs
NOT_AT_IMPORT = ("scipy", "concurrent.futures", "xml", "http", "ssl", "multiprocessing")


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


def test_fractional_fast_diffusion_step_loads_no_scipy():
    # the sub-cycle runs on numpy's own transforms, so scipy's import cost
    # stays out of a fractional-fast-diffusion run's start-up
    loaded = loaded_after(
        "import numpy as np\n"
        "import fastfronts as ff\n"
        "g = ff.make_grid(50.0, 2**8)\n"
        "s = ff.DispersalStepper(ff.FractionalFastDiffusion(0.75, 0.8), g)\n"
        "s.step_values(np.exp(-g.x**2 / 100.0), 0.01)"
    )
    assert "fastfronts.dispersal" in loaded
    assert not any(name == "scipy" or name.startswith("scipy.") for name in loaded)


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
