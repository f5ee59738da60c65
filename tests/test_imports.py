"""Every name a module under src/plaplab imports is used in that module.

A standard-library stand-in for a linter's unused-import check (F401): a
module's imported names must each appear as a name in its own code, unless
the import line carries ``# noqa: F401``. The package ``__init__`` is exempt,
because it imports names to re-export them.
"""

import ast
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
