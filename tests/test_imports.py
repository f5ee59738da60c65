"""Every name a module under src/plaplab imports is used in that module, no
module imports a private name of another, and every name the package exports
is used somewhere in the laboratory.

A standard-library stand-in for a linter's unused-import check (F401): a
module's imported names must each appear as a name in its own code, unless
the import line carries ``# noqa: F401``. The package ``__init__`` is exempt,
because it imports names to re-export them. A name in ``plaplab.__all__``
must be read by a module under src/plaplab (outside ``__init__``) or
perfbench/, or appear in the README's code, unless ``UNUSED_EXPORTS`` names
it with its reason. A name with a leading underscore (a dunder such as
``__version__`` aside) belongs to its module: one that another module needs
is made public where it is defined.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import plaplab

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "plaplab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# exported names nothing in the laboratory reads, each kept for a test that
# checks the paper's claims against it
UNUSED_EXPORTS = {
    "diffusion_matrix": "criterion 05 checks sqrt_matrix(xi)^2 = diffusion_matrix(xi)",
    "sqrt_matrix": "criterion 05 checks sqrt_matrix(xi)^2 = diffusion_matrix(xi)",
    "sup_diff_closed_form": "criterion 03's oracle for the normalized sweep's gaps",
}


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:  # an alias has its own line since Python 3.10
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, (alias.asname or alias.name).split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_checker_sees_unused_and_marked_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from .grid import (\n"
              "    Stencil,\n"
              "    gradient_arrays,  # noqa: F401\n"
              "    interior_mask,\n"
              ")\n"
              "x = np.zeros(3)\n"
              "def f(s: Stencil):\n"
              "    return s\n")
    assert unused_imports(source) == [(2, "os"), (7, "interior_mask")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list:
    """(line, name) of each private name ``source`` imports from plaplab's
    own modules, by a relative or an absolute import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "plaplab"):
            found += [(alias.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_private_import_checker_sees_relative_and_absolute_imports():
    source = ("from . import __version__\n"
              "from .grid import FLOAT_FMT, _frame\n"
              "from plaplab.operators import (\n"
              "    _BIASED,\n"
              "    OperatorSpec,\n"
              ")\n"
              "from numpy import _core\n")
    assert private_imports(source) == [(2, "_frame"), (4, "_BIASED")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


def names_read(source: str) -> set:
    """Every name, attribute and imported name in ``source``'s code."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def readme_code_names(text: str) -> set:
    """The words inside the README's code spans and fenced blocks."""
    code = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
    return set(re.findall(r"\w+", " ".join(code)))


def test_export_checker_reads_code_not_prose():
    assert names_read("import numpy as np\nfrom .grid import Stencil\nnp.sqrt(x)\n") == {
        "numpy", "Stencil", "np", "sqrt", "x"}
    assert readme_code_names("run `plaplab solve` then\n```\nstep(f)\n```\nsolve it") == {
        "plaplab", "solve", "step", "f"}


def test_every_export_is_used_or_named_with_its_reason():
    read = set()
    for path in MODULES + sorted((REPO / "perfbench").glob("*.py")):
        read |= names_read(path.read_text())
    read |= readme_code_names((REPO / "README.md").read_text())
    unused = sorted(name for name in plaplab.__all__ if name not in read)
    assert unused == sorted(UNUSED_EXPORTS)


def test_every_perfbench_hook_target_resolves():
    # the benchmark records an unbound target as missing and goes on: an
    # unbound harness.solve would read node_steps_per_s as 0 on a sweep
    spec = importlib.util.spec_from_file_location("perfbench_hooks",
                                                  REPO / "perfbench" / "hooks.py")
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    targets = [(module, attr) for module, attr, *_ in hooks.OUTER_HOOKS + hooks.INNER_HOOKS]
    assert targets and [t for t in targets if hooks._resolve(*t) is None] == []


def test_holder_estimate_and_sweep_import_no_numpy_random_or_ma():
    # importing numpy.random added 7.8 MB to a sweep's peak RSS, numpy.ma
    # (through np.unique) 1.9 MB; a fresh interpreter sees what they import
    code = """
import math, sys
import numpy as np
from plaplab import (Boundary, GridSpec, OperatorSpec, PerturbationAxis, Problem,
                     ScalarField, SweepPlan, estimate_holder, run_sweep)
plane = GridSpec.box(((0, 1), (0, 1)), (33, 33), Boundary.DIRICHLET)
assert not estimate_holder(ScalarField.from_function(plane, lambda x, y: x * y)).flat
grid = GridSpec.line(0.0, 2.0 * math.pi, 64, Boundary.PERIODIC)
base = Problem(spec=OperatorSpec.normalized(3.0), grid=grid, initial=np.sin, T=0.05)
fit = run_sweep(SweepPlan(base=base, axis=PerturbationAxis.P,
                          values=(0.5, 0.25, 0.125, 0.0625)))
assert fit.holder_theta is not None
print(sorted(m for m in ("numpy.random", "numpy.ma") if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
