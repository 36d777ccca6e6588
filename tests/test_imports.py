"""No unused top-level imports, and no public name, private top-level
function or module-level assignment that only its own definition or the
tests use, in the package (no lint tool is installed)."""

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


# kept public without a package caller: TestKkt and TestMinimize use it as
# the independent KKT reference for the solver's own residual
UNCALLED_ALLOWED = {"kkt_residual"}


def public_definitions(source):
    """Qualified names of public top-level functions and classes and of the
    public methods of public top-level classes, in source order."""
    names = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


def private_functions(source):
    """Names of private (single-underscore) top-level functions, in source
    order."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")]


def module_assignments(source):
    """Names bound by top-level assignments, dunders excepted, in source
    order."""
    return [target.id for node in ast.parse(source).body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in ast.walk(node)
            if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
            and not (target.id.startswith("__") and target.id.endswith("__"))]


def used_names(source):
    """(top, any): names used anywhere in the source, except inside the
    definition that binds the same name.  `top` holds what can reach a
    top-level definition: a bare name read (not stored), a name imported, or
    an attribute read on a module bound by an import (function-local imports
    included).  `any` adds every attribute, which is all a method call
    shows."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               or isinstance(node, ast.ImportFrom) and node.module is None
               for alias in node.names}
    top, attrs = set(), set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and node.id not in enclosing):
            top.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                top.add(node.attr)
        elif isinstance(node, ast.alias):
            top.add(node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return top, top | attrs


def uncalled(sources, definitions):
    """Names that definitions(source) lists for some package source and
    that no package source uses outside their own definition: a top-level
    name by the `top` rule of used_names, a method by any attribute read."""
    top, anywhere = (set().union(*names) for names in zip(*map(used_names, sources)))
    return [name for src in sources for name in definitions(src)
            if name.rsplit(".", 1)[-1] not in (anywhere if "." in name else top)]


def test_uncalled_checker():
    lib = ("def used():\n    return _helper()\n"
           "def orphan():\n    return orphan()\n"
           "def _helper():\n    return 1\n"
           "def _private():\n    return _private()\n"
           "def __getattr__(name):\n    pass\n"
           "class Box:\n"
           "    def get(self):\n        return self.get\n"
           "    def put(self):\n        pass\n"
           "    def _hidden(self):\n        pass\n")
    caller = "from .lib import used, Box\nBox().put(used())\n"
    assert uncalled([lib, caller], public_definitions) == ["orphan", "Box.get"]
    # a stored name or an attribute of a non-module reaches no top-level
    # function of the same name; an attribute read on a module bound by an
    # import, even inside a function, does
    lib += ("def shadowed():\n    pass\n"
            "def via_module():\n    pass\n"
            "def via_local_import():\n    pass\n")
    caller += ("from . import lib\nlib.via_module()\nBox().shadowed\nshadowed = 0\n"
               "def run():\n    from . import lib as other\n"
               "    return other.via_local_import()\nrun()\n")
    assert uncalled([lib, caller], public_definitions) == ["orphan", "Box.get", "shadowed"]
    assert uncalled([lib, caller], private_functions) == ["_private"]
    consts = ("__all__ = ['read']\nread, _kept = 1, 2\nunread: int = 3\n"
              "_orphan = 4\n_LIMIT = 5\ndef f():\n    return _kept + _LIMIT\n")
    assert module_assignments(consts) == ["read", "_kept", "unread", "_orphan", "_LIMIT"]
    assert uncalled([consts, "from .consts import read\n"],
                    module_assignments) == ["unread", "_orphan"]


@pytest.fixture(scope="module")
def sources():
    texts = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert texts
    return texts


def test_no_public_name_only_tests_call(sources):
    assert set(uncalled(sources, public_definitions)) - UNCALLED_ALLOWED == set()


def test_no_private_function_only_tests_call(sources):
    assert uncalled(sources, private_functions) == []


def test_no_module_constant_only_tests_read(sources):
    assert uncalled(sources, module_assignments) == []


# the package's argument contract: special.elementwise is the one scalar/array
# rule and special.check_count the one count rule
CONTRACT = {"special.py": {"elementwise", "check_count"}}


def contract_breaches(source, allowed=()):
    """(top-level definition, line) of every scalar/array or count rule
    outside the definitions named in `allowed`: an atleast_1d or ndmin=
    promotion, an ndim compared with 0, or a numbers.Integral check."""
    found = []

    def is_ndim(node):
        if isinstance(node, ast.Call):
            node = node.func
        return (isinstance(node, ast.Attribute) and node.attr == "ndim"
                or isinstance(node, ast.Name) and node.id == "ndim")

    def visit(node, top):
        if isinstance(node, ast.Attribute):
            hit = node.attr in ("atleast_1d", "Integral")
        elif isinstance(node, ast.Name):
            hit = node.id in ("atleast_1d", "Integral")
        elif isinstance(node, ast.alias):
            hit = node.name in ("atleast_1d", "Integral")
        elif isinstance(node, ast.keyword):
            hit = node.arg == "ndmin"
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            hit = any(map(is_ndim, sides)) and any(
                isinstance(s, ast.Constant) and s.value == 0 for s in sides)
        else:
            hit = False
        if hit and top not in allowed:
            found.append((top, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, top)

    for node in ast.parse(source).body:
        visit(node, getattr(node, "name", None))
    return found


def test_contract_checker():
    source = ("import numbers\n"
              "from numpy import atleast_1d\n"
              "def elementwise(x):\n"
              "    a = np.array(x, ndmin=1)\n"
              "    return a, np.ndim(x) == 0\n"
              "def rogue(x, k):\n"
              "    a = np.atleast_1d(x)\n"
              "    if a.ndim == 0 or 0 != np.ndim(x):\n"
              "        pass\n"
              "    return isinstance(k, numbers.Integral), a.ndim == 1\n"
              "class Box:\n"
              "    def get(self, x):\n"
              "        return np.array(x, ndmin=1)\n")
    assert contract_breaches(source, {"elementwise"}) == [
        (None, 2), ("rogue", 7), ("rogue", 8), ("rogue", 8), ("rogue", 10), ("Box", 13)]
    assert len(contract_breaches(source)) == 8


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_argument_contract(path):
    assert contract_breaches(path.read_text(), CONTRACT.get(path.name, ())) == []
