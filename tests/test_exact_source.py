"""The library source uses no floating point: no `float`, no float or
complex literal, and from `math` only the integer functions."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "slopekit").glob("*.py"))
INTEGER_MATH = {"gcd", "lcm", "prod"}


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, f"the literal {node.value!r}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "math" or alias.name.startswith("math."):
                    yield node.lineno, "import math"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield node.lineno, f"from math import {alias.name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_violations(tree)) == []


def test_checker_sees_floating_point():
    assert {path.name for path in SOURCES} >= {"density.py", "group_core.py", "jumping_loci.py"}
    source = "import math\nfrom math import gcd, sqrt\nx = float(1) + 0.5 + 2j\n"
    assert [line for line, _ in _violations(ast.parse(source))] == [1, 2, 3, 3, 3]
