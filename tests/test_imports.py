"""Every import in the library modules is used, only the CLI reads LXLT
files, no module has its own JSON reader or calls libm's trigonometry, and
the package exposes ``lxlt`` on import.

``__init__.py`` is left out: its imports are the package's public names.
An import marked ``# noqa: F401`` is kept on purpose, for a name that
``bench/tracing.py`` wraps in the importing module; once the bench stops
wrapping it, the import is flagged. Likewise a name whose docstring says it
is kept because ``bench/workloads.py`` uses it is flagged once the bench
stops using it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "radarcam"
TRACING = SOURCE.parent.parent / "bench" / "tracing.py"
WORKLOADS = SOURCE.parent.parent / "bench" / "workloads.py"
MODULES = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")


def unused_imports(text: str) -> list[str]:
    """The names that ``text`` imports and never loads, with their lines,
    leaving out ``__future__`` imports and lines marked ``# noqa: F401``."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_modules_are_found():
    assert {"cli.py", "depth_supervision.py", "geometry.py", "sim.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    text = "from __future__ import annotations\nimport os, sys\nfrom math import pi  # noqa: F401\nprint(sys)\n"
    assert unused_imports(text) == ["line 2: os"]


def traced_names(text: str) -> set[tuple[str, str]]:
    """The (module, attribute) pairs that the ``SPANS`` and ``COUNTERS``
    tuples of ``text``, the source of ``bench/tracing.py``, wrap."""
    pairs = set()
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in ("SPANS", "COUNTERS") for t in node.targets):
            pairs |= {(module, attribute) for module, attribute, _ in ast.literal_eval(node.value)}
    return pairs


def untraced_kept_imports(module: str, text: str, traced: set[tuple[str, str]]) -> list[str]:
    """The names that ``text``, the source of ``module``, imports on a line
    marked ``# noqa: F401`` and that no pair of ``traced`` wraps there."""
    lines = text.splitlines()
    return [
        f"line {alias.lineno}: {alias.asname or alias.name}"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1] and (module, alias.asname or alias.name) not in traced
    ]


def test_every_kept_import_is_wrapped_by_the_bench_tracer():
    traced = traced_names(TRACING.read_text())
    assert traced  # the tracer's tables were found
    stray = {path.name: untraced_kept_imports(f"radarcam.{path.stem}", path.read_text(), traced) for path in MODULES}
    assert {name: found for name, found in stray.items() if found} == {}


def test_a_kept_import_the_tracer_does_not_wrap_is_found():
    tracing = 'SPANS = (("radarcam.sim", "run", "sim.run"),)\nCOUNTERS = (("radarcam.m", "f", "m.f.calls"),)\nOTHER = 1\n'
    traced = traced_names(tracing)
    assert traced == {("radarcam.sim", "run"), ("radarcam.m", "f")}
    text = "from .a import (\n    f,  # noqa: F401\n    g,  # noqa: F401\n)\nfrom .b import h\n"
    assert untraced_kept_imports("radarcam.m", text, traced) == ["line 3: g"]
    assert untraced_kept_imports("radarcam.n", text, traced) == ["line 2: f", "line 3: g"]


BENCH_HELD = "kept because ``bench/workloads.py``"


def bench_held_names(text: str) -> list[str]:
    """The functions and classes of ``text``, and the methods and properties
    of its classes, whose docstring says they are kept because
    ``bench/workloads.py`` uses them, as ``name`` or ``Class.name``."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if BENCH_HELD in (ast.get_docstring(node) or ""):
                    found.append(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(text).body, "")
    return found


def unused_held(held: list[str], bench: str) -> list[str]:
    """The names of ``held`` that ``bench``, the source of
    ``bench/workloads.py``, neither loads nor reads as an attribute. A name
    is matched by its last part: the bench reads ``conv.stride`` from an
    object whose type its source does not show."""
    tree = ast.parse(bench)
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in held if name.rsplit(".", 1)[-1] not in used]


def test_every_bench_held_name_is_still_used_by_the_bench():
    """The library keeps these names only for the bench, so each one goes
    once the bench stops using it, and a new one is added here on purpose."""
    held = sorted(name for path in MODULES for name in bench_held_names(path.read_text()))
    assert held == ["AngularResolution.from_degrees", "Conv2DParams.same", "Conv2DParams.stride"]
    assert unused_held(held, WORKLOADS.read_text()) == []


def test_a_bench_held_name_the_bench_no_longer_uses_is_found():
    text = (
        'class A:\n    """Not held."""\n\n    @property\n    def s(self):\n'
        '        """Always 1, kept because ``bench/workloads.py`` reads it."""\n\n'
        '    def t(self):\n        """Kept, but not because of the bench."""\n\n\n'
        'def f():\n    """The constructor, kept because ``bench/workloads.py`` calls it."""\n'
    )
    held = bench_held_names(text)
    assert held == ["A.s", "f"]
    assert unused_held(held, "x = rc.f()\n") == ["A.s"]
    assert unused_held(held, "x = f(conv.s)\n") == []


def imports_lxlt(text: str) -> bool:
    """Whether ``text`` imports the ``lxlt`` module or a name from it."""
    for node in ast.walk(ast.parse(text)):
        modules = [alias.name for alias in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
        if isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
        if any(module.split(".")[-1] == "lxlt" for module in modules):
            return True
    return False


def test_only_the_cli_imports_lxlt():
    assert [path.name for path in MODULES if imports_lxlt(path.read_text())] == ["cli.py"]


def test_an_lxlt_import_is_found():
    assert imports_lxlt("from . import lxlt\n")
    assert imports_lxlt("from .lxlt import read_params\n")
    assert imports_lxlt("import radarcam.lxlt as io\n")
    assert not imports_lxlt("from .geometry import json_list\nlxlt = 1\n")


def from_dict_owners(text: str) -> list[str]:
    """The names of the classes in ``text`` that define a ``from_dict``,
    and ``<module>`` for one defined at the top level."""
    return [
        getattr(node, "name", "<module>")
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Module, ast.ClassDef))
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "from_dict"
    ]


def test_no_module_defines_from_dict():
    """Every JSON input is read from its dataclass fields by ``geometry.read_json``."""
    assert [name for path in MODULES for name in from_dict_owners(path.read_text())] == []


def test_a_from_dict_is_found():
    text = "class A:\n    @classmethod\n    def from_dict(cls, data):\n        pass\n\n\ndef from_dict(data):\n    pass\n"
    assert sorted(from_dict_owners(text)) == ["<module>", "A"]
    assert from_dict_owners("class B:\n    def to_dict(self):\n        pass\n") == []


LIBM_ONLY = ("sin", "cos", "tan", "asin", "atan2", "log10")


def libm_calls(text: str) -> list[str]:
    """The :mod:`math` functions of ``LIBM_ONLY`` that ``text`` names, by
    attribute (``math.sin``) or by import (``from math import sin``), with
    their lines."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math" and node.attr in LIBM_ONLY:
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: math.{alias.name}" for alias in node.names if alias.name in LIBM_ONLY]
    return found


def test_no_module_calls_libm_trigonometry():
    """The geometry and the experiment use NumPy's ``sin``, ``cos``, ``tan``,
    ``arcsin``, ``arctan2`` and ``log10``, on arrays and on Python floats
    alike: one numeric policy. ``math.radians`` and ``math.isfinite`` stay."""
    assert {path.name: found for path in MODULES if (found := libm_calls(path.read_text()))} == {}


def test_a_libm_call_is_found():
    text = "import math\nfrom math import atan2, hypot\nx = math.sin(1.0) + math.radians(2.0) + math.isfinite(3.0)\n"
    assert libm_calls(text) == ["line 2: math.atan2", "line 3: math.sin"]
    assert libm_calls("import numpy as np\nnp.sin(1.0)\n") == []


def test_the_package_exposes_lxlt_in_a_fresh_interpreter():
    """``bench/`` reaches the file format as ``radarcam.lxlt`` after a plain
    ``import radarcam``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))}
    code = "import radarcam; radarcam.lxlt.read_tensor, radarcam.lxlt.read_params"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
