"""Every import in the library modules is used.

``__init__.py`` is left out: its imports are the package's public names.
An import marked ``# noqa: F401`` is kept on purpose, for a name that
``bench/tracing.py`` wraps in the importing module.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "radarcam"
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
