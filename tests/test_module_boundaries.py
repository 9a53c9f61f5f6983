"""Package modules use only each other's public names: a ``_``-prefixed
name is private to its module (dunders such as ``__version__`` are not).
Each import points one way, and each public name has a caller."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "nyqmirror"


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


def scoped(source: str):
    """Each node of ``source`` with its enclosing ``Class.function``, in
    source order; ``""`` at module level."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield ".".join(scope), child
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = [*scope, child.name]
            yield from visit(child, inner)

    yield from visit(ast.parse(source), [])


def callers(source: str, name: str) -> list[str]:
    """The enclosing ``Class.function`` of each call to ``name`` (bare or as
    an attribute) in ``source``, in source order; ``""`` at module level."""
    return [scope for scope, node in scoped(source) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


# each costs 0.2 to 1 s of start-up, which every run would pay at module level
HEAVY_SCIPY = ("scipy.linalg", "scipy.signal", "scipy.interpolate")


def heavy_imports(source: str) -> list[str]:
    """``scope: package`` for each import statement in ``source`` that loads
    a ``HEAVY_SCIPY`` package, in source order; scope as in ``scoped``."""
    found = []
    for scope, node in scoped(source):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"{scope}: {package}" for package in HEAVY_SCIPY
                  if any(f"{name}.".startswith(f"{package}.") for name in names)]
    return found


def test_scan_finds_each_heavy_import():
    source = ("import scipy, scipy.fft\n"
              "from scipy import linalg, special\n"
              "import scipy.signal.windows as w\n"
              "from scipy.interpolate import PchipInterpolator\n"
              "from scipy.linalgx import y\n"
              "class C:\n"
              "    def f(self):\n"
              "        from scipy.linalg import lapack\n")
    assert heavy_imports(source) == [
        ": scipy.linalg", ": scipy.signal", ": scipy.interpolate",
        "C.f: scipy.linalg"]


def test_heavy_scipy_packages_load_only_where_used():
    # none at module level: the low-pass filter imports scipy.signal on first
    # use, scipy.linalg is only the loader's fallback for the LAPACK wrappers,
    # and PCHIP is built by the package's own spline code
    found = [f"{path.name}: {where}" for path in sorted(PACKAGE.glob("*.py"))
             for where in heavy_imports(path.read_text(encoding="utf-8"))]
    assert found == ["mitigation.py: lowpass_prefilter: scipy.signal",
                     "spline_interp.py: _load_lapack: scipy.linalg"]


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


# the curves of SamplingScheme and IMTSignal, and the INF derived from them
CURVES = ("psi", "psi_prime", "am", "phase", "iff", "inf")


def curve_conversions(source: str) -> list[str]:
    """``scope: call`` for each ``np.asarray`` call in ``source`` whose first
    argument calls a container curve (an attribute named in ``CURVES``), in
    source order; scope as in ``scoped``."""
    found = []
    for scope, node in scoped(source):
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.asarray"
                and node.args and any(
                    isinstance(inner, ast.Call) and getattr(inner.func, "attr", None) in CURVES
                    for inner in ast.walk(node.args[0]))):
            found.append(f"{scope}: {ast.unparse(node)}")
    return found


def test_scan_finds_each_curve_conversion():
    source = ("def f(scheme, signal, t, curve):\n"
              "    a = np.asarray(scheme.psi_prime(t), dtype=float)\n"
              "    b = np.asarray(2.0 * signal.iff(t))\n"
              "    c = np.asarray(t, dtype=float), np.asarray(curve(t))\n"
              "    d = np.asarray(signal.evaluate(t)), scheme.inf(np.asarray(t))\n")
    assert curve_conversions(source) == [
        "f: np.asarray(scheme.psi_prime(t), dtype=float)",
        "f: np.asarray(2.0 * signal.iff(t))"]


def test_container_curves_are_converted_only_by_the_curve_rule():
    # SamplingScheme and IMTSignal hold psi, psi_prime, am, phase and iff
    # through spline_interp.curve, which returns float arrays: no caller
    # converts a container curve's values again
    found = [f"{path.name}: {where}" for path in sorted(PACKAGE.glob("*.py"))
             for where in curve_conversions(path.read_text(encoding="utf-8"))]
    assert found == []


def test_cli_import_builds_no_csv_table():
    # _write_csv's tables are built on first use: start-up (the benchmark's
    # setup_s) never pays for them
    code = ("import nyqmirror.cli\n"
            "from nyqmirror import formats\n"
            "print(formats._csv_pow10.cache_info().currsize,"
            " formats._csv_layouts.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["0", "0"]


def test_cli_import_runs_no_scipy_package_code():
    # spline_interp finds scipy's LAPACK extension without importing the
    # scipy package, and only the truncated-power oracle needs fractions
    code = ("import sys, nyqmirror.cli\n"
            "from nyqmirror import spline_interp\n"
            "print('scipy' in sys.modules, 'fractions' in sys.modules,"
            " callable(spline_interp._lapack.dgbtrf))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False", "False", "True"]


def test_csv_writer_has_no_percent_template():
    # the numbers' text comes from _csv_numbers: no "%" operator in
    # _write_csv can bring back the per-cell "%.17g" template
    tree = ast.parse((PACKAGE / "formats.py").read_text(encoding="utf-8"))
    writer = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_write_csv")
    assert not [ast.unparse(node) for node in ast.walk(writer)
                if isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Mod)]


def imports(source: str) -> set[str]:
    """``module.name`` for each name ``source`` imports from the package
    (``.name`` from the package itself), and each module it imports from
    outside the package and the standard library."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module])
            found |= {name for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names}
    return found


def test_scan_finds_each_import():
    source = ("from __future__ import annotations\n"
              "import json, numpy as np\n"
              "from scipy.fft import rfft\n"
              "from . import __version__\n"
              "def f():\n"
              "    from .rowblocks import row_blocks as blocks\n")
    assert imports(source) == {"numpy", "scipy.fft", ".__version__", "rowblocks.row_blocks"}


def test_config_and_formats_import_neither_cli_nor_each_other():
    # the config table and the artifact encoders sit below the commands:
    # formats needs only numpy, the version, the row blocks and the signal
    # it reads back; config only the modules whose names its table checks
    read = {name: imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
            for name in ("config", "formats")}
    assert read["formats"] == {"numpy", ".__version__", "rowblocks.row_blocks",
                               "spline_interp.UniformSignal"}
    assert {name.split(".")[0] for name in read["config"]} == {
        "sampling", "signal_model", "tf_analysis"}


def top_level_reads(source: str):
    """Each top-level statement of ``source`` as (the function or class it
    defines, else "", every identifier it reads: a bare name or an
    attribute's name)."""
    for node in ast.parse(source).body:
        defines = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else ""
        yield defines, {sub.id if isinstance(sub, ast.Name) else sub.attr
                        for sub in ast.walk(node)
                        if isinstance(sub, (ast.Name, ast.Attribute))}


def uncalled_public_names(package: dict[str, str], others: list[str]) -> list[str]:
    """``module.name`` of each public top-level function or class in the
    ``package`` sources (file name to text) that neither another top-level
    statement of the package nor any source in ``others`` reads; imports
    and ``__all__`` do not read a name."""
    readers, public = {}, []
    for file, source in package.items():
        for defines, names in top_level_reads(source):
            if defines and not defines.startswith("_"):
                public.append((file, defines))
            for name in names:
                readers.setdefault(name, set()).add((file, defines))
    outside = {name for source in others for _, names in top_level_reads(source)
               for name in names}
    return [f"{file.removesuffix('.py')}.{name}" for file, name in public
            if name not in outside and not readers.get(name, set()) - {(file, name)}]


def test_scan_finds_each_uncalled_public_name():
    package = {"a.py": ("__all__ = ['lonely', 'used']\n"
                        "def lonely(n):\n    return lonely(n - 1)\n"
                        "def used():\n    pass\n"
                        "class _Private:\n    pass\n"),
               "b.py": ("from .a import lonely\n"
                        "class Model:\n    x = used()\n"
                        "def unread():\n    pass\n")}
    assert uncalled_public_names(package, ["print(b.Model)"]) == ["a.lonely", "b.unread"]


# public names whose only callers are unit tests, and why each stays
UNCALLED = {
    "sampling.check_inr": "the INR run diagnostic of ROADMAP item 4 will call it",
    "formats.read_tfr_binary": "the package's TFR1 reader, which the README names",
    "tf_analysis.log_display": "the benchmark tracer names it only as a string in LAYERS",
}


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    # a caller in the package, the benchmark, the tools or the acceptance
    # suite: a public name that only unit tests use is dead code or belongs
    # on UNCALLED with its reason
    package = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    others = [path.read_text(encoding="utf-8") for path in [
        *sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "tools").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py"]]
    assert sorted(uncalled_public_names(package, others)) == sorted(UNCALLED)


def display_formula_uses(source: str) -> list[str]:
    """``scope: node`` for each name ``log1p`` (bare or as an attribute) and
    each float literal equal to the display's floor, 1e-2, in ``source``, in
    source order; scope as in ``scoped``."""
    return [f"{scope}: {ast.unparse(node)}" for scope, node in scoped(source)
            if "log1p" in (getattr(node, "id", None), getattr(node, "attr", None))
            or isinstance(node, ast.Constant) and type(node.value) is float
            and node.value == 1e-2]


def test_scan_finds_each_display_formula_use():
    source = ("import numpy as np\n"
              "from numpy import log1p\n"
              "FLOOR = 1e-2\n"
              "def f(q, x):\n"
              "    return np.maximum(0.01, np.log1p(q)), log1p(x), 1e-3, 1\n")
    assert display_formula_uses(source) == [
        ": 0.01", "f: 0.01", "f: np.log1p", "f: log1p"]


def test_only_tf_analysis_holds_the_display_formula():
    # display_rows names the display's floor and top: the writers and the
    # commands take them from it and never redo log1p or the floor
    found = [f"{path.name}: {where}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "tf_analysis.py"
             for where in display_formula_uses(path.read_text(encoding="utf-8"))]
    assert found == []


def kernel_uses(source: str) -> list[str]:
    """``scope: node`` for each use of the name ``sinc`` or
    ``fundamental_spline_spectrum`` (bare or as an attribute; an import is
    not a use) in ``source``, in source order; scope as in ``scoped``."""
    return [f"{scope}: {ast.unparse(node)}" for scope, node in scoped(source)
            if {getattr(node, "id", None), getattr(node, "attr", None)}
            & {"sinc", "fundamental_spline_spectrum"}]


def test_scan_finds_each_kernel_use():
    source = ("import numpy as np\n"
              "from .spline_interp import fundamental_spline_spectrum, image_kernel\n"
              "def f(n, x, sinc):\n"
              "    return np.sinc(x), fundamental_spline_spectrum(n, x), sinc, image_kernel\n")
    assert kernel_uses(source) == [
        "f: np.sinc", "f: fundamental_spline_spectrum", "f: sinc"]


def test_only_spline_interp_evaluates_the_kernel():
    # eta_hat_n is written once, in spline_interp.image_kernel: the other
    # modules take it from there, made once per beta array for every k, and
    # never call the per-point spectrum or a sinc of their own
    found = [f"{path.name}: {where}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "spline_interp.py"
             for where in kernel_uses(path.read_text(encoding="utf-8"))]
    assert found == []
