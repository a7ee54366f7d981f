"""The README's library sketch runs as written and prints what it says."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch_values():
    """Run the python block under "Library sketch" statement by statement,
    returning the value of each bare expression in order."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", text, re.M | re.S).group(1)
    namespace = {}
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    return values


def test_library_sketch_runs_and_matches_its_comments():
    hironaka, schreier, slope_value, max_gap, first = _sketch_values()
    assert hironaka == schreier == 12
    assert slope_value == Fraction(315, 37)
    assert max_gap <= Fraction(1, 20) and max_gap == Fraction(1, 74)
    assert first == (19, 20, 161, 20)
