"""No unused top-level imports in the package (no lint tool is installed)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "biortho"


def unused_imports(source):
    """Names bound by top-level imports and never read, in source order.
    Names listed in __all__ count as read; an import statement with
    "# noqa: F401" on any of its lines is skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


def test_checker_finds_unused_and_honours_noqa():
    source = ("import os\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "from .m import (a,  # noqa: F401\n"
              "                b)\n"
              "import numpy as np\n"
              "__all__ = ['c']\n"
              "from .n import c\n"
              "x = np.pi\n")
    assert unused_imports(source) == ["os", "ThreadPoolExecutor"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
