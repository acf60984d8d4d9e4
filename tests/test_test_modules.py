"""The test modules themselves."""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_no_module_defines_a_top_level_name_twice():
    # A second def or class of a name replaces the first, so a shadowed test
    # never runs and nothing reports it.
    twice = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        counts = Counter(node.name for node in tree.body if isinstance(node, defs))
        twice += [f"{path.name}: {name}" for name, n in counts.items() if n > 1]
    assert twice == []
