"""Package modules use only each other's public names: a ``_``-prefixed
name is private to its module (dunders such as ``__version__`` are not)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "nyqmirror"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list[str]:
    """Each private name that ``source`` imports from the package, or reads
    as an attribute of a name (a module, say) it imported from the package,
    as ``line: name``."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "nyqmirror"):
            for alias in node.names:
                modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append(f"{node.lineno}: {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "nyqmirror":
                    modules.add(alias.asname or parts[0])
                    if any(map(_private, parts)):
                        found.append(f"{node.lineno}: {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_scan_finds_each_kind_of_private_use():
    source = ("from . import __version__, tf_analysis\n"
              "from .spline_interp import check_memory, _physical_memory\n"
              "from nyqmirror.cli import _Leaf\n"
              "import nyqmirror._hidden\n"
              "from numpy import _core\n"
              "def f():\n"
              "    from .sampling import _BYTES_PER_CELL as cells\n"
              "    return tf_analysis._frame_plan, tf_analysis.stft\n")
    assert private_uses(source) == [
        "2: _physical_memory", "3: _Leaf", "4: nyqmirror._hidden",
        "7: _BYTES_PER_CELL", "8: tf_analysis._frame_plan"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


def callers(source: str, name: str) -> list[str]:
    """The enclosing ``Class.function`` of each call to ``name`` (bare or as
    an attribute) in ``source``, in source order; ``""`` at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = [*scope, child.name]
            elif isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse(source), [])
    return found


def test_only_the_output_sink_opens_artifact_files():
    # every artifact is opened and committed by cli._Outputs.write; the
    # writers only encode bytes, so none may open a file of its own
    calls = [f"{path.name}: {caller}" for path in sorted(PACKAGE.glob("*.py"))
             for caller in callers(path.read_text(encoding="utf-8"), "_atomic_write")]
    assert calls == ["cli.py: _Outputs.write"]


def test_containers_freeze_arrays_only_through_frozen():
    # spline_interp.frozen is the one read-only-array rule: no container
    # copies or freezes its arrays itself
    containers = {f"{path.name}: {caller}" for path in PACKAGE.glob("*.py")
                  for name in ("copy", "setflags")
                  for caller in callers(path.read_text(encoding="utf-8"), name)
                  if caller.endswith(".__post_init__")}
    assert sorted(containers) == []


def test_sharpened_transforms_reduce_through_one_scatter_add():
    # SST and RM sum each block into their output with the one np.add.at in
    # _sharpened: tf_analysis keeps no second reduction path
    source = (PACKAGE / "tf_analysis.py").read_text(encoding="utf-8")
    assert callers(source, "bincount") == []
    assert callers(source, "at") == ["_sharpened"]
    assert {ast.unparse(node.func) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "at"
            } == {"np.add.at"}
