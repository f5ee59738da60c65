"""Every name a module under src/plaplab imports is used in that module.

A standard-library stand-in for a linter's unused-import check (F401): a
module's imported names must each appear as a name in its own code, unless
the import line carries ``# noqa: F401``. The package ``__init__`` is exempt,
because it imports names to re-export them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plaplab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
