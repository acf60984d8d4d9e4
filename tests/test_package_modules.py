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


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that no module of sources references.

    sources maps module file names to their text; a name counts as
    referenced when any module reads it, as a name, an attribute or an
    imported name.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and node.name not in referenced
    ]


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


def test_every_private_function_and_class_is_referenced():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_unreferenced_private_check_catches_leftovers():
    sources = {
        "canonical.py": (
            "def _class_table(system):\n"
            "    return _unit_canonical(system)\n"
            "def _unit_canonical(coords):\n"
            "    return coords\n"
            "def _close_classes(system, start):\n"
            "    return None\n"
            "class _Table:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
        ),
        "family.py": (
            "from . import canonical\n"
            "from .canonical import _class_table as table\n"
            "def _fibers(system):\n"
            "    return table(system)\n"
            "def sweep(system):\n"
            "    return _fibers(system), canonical._Table\n"
        ),
    }
    assert unreferenced_privates(sources) == ["canonical.py: _close_classes"]
