"""The package modules themselves."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dynheight"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and neither uses nor lists in __all__."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    # __init__ imports to re-export: its imports are the package namespace.
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    unused = [f"{path.name}: {name}" for path in modules for name in unused_imports(path.read_text())]
    assert unused == []


def test_unused_import_check_catches_leftovers():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .exactnum import Place, log_norm, ord_p as valuation\n"
        '__all__ = ["Place"]\n'
        "def weil_height(point) -> float:\n"
        "    return log_norm(point.coords, None)\n"
    )
    assert unused_imports(source) == ["math", "os", "valuation"]
