"""The library is exact: its source uses no floating point (no `float`, no
float or complex literal, and from `math` only the integer functions), and
its integer constructors refuse a float, or a bool for a count, rather than
truncate it."""

import ast
from pathlib import Path

import pytest

from slopekit.density import TargetSlope
from slopekit.group_core import (
    AbelianGroupStructure, GroupPresentation, IntegerMatrix, LaurentPolynomial, MalformedWordError,
)
from slopekit.surface_invariants import FamilyParams, FibrationProfile

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


@pytest.mark.parametrize("cls, args, error", [
    # a float count would fail late, in abelianization; True would equal 1
    (GroupPresentation, (2.5, [(1, 2)]), MalformedWordError),
    (GroupPresentation, (True, [(1, 1)]), MalformedWordError),
    # truncation would read these as free rank 2, torsion (2,), entry 2, {(1,): 2}
    (AbelianGroupStructure, (2.5,), TypeError),
    (AbelianGroupStructure, (True,), TypeError),
    (AbelianGroupStructure, (1, (2.5,)), TypeError),
    (IntegerMatrix, ([[2.7]],), TypeError),
    (LaurentPolynomial, (1, {(1.9,): 2}), TypeError),
    (LaurentPolynomial, (1, {(1,): 2.5}), TypeError),
    # a float would fail late, in family_invariants; a bool would read as 1
    (FamilyParams, (2.5, 1), TypeError),
    (FamilyParams, (1, 2.5), TypeError),
    (FamilyParams, (True, 1), TypeError),
    (FamilyParams, (1, True), TypeError),
    (FamilyParams, (3, 1, 2.5), TypeError),
    (FamilyParams, (3, 1, True), TypeError),
    (FibrationProfile, (19.5, 1), TypeError),
    (FibrationProfile, (True, 1), TypeError),
    (FibrationProfile, (19, 2.5), TypeError),
    (FibrationProfile, (19, True), TypeError),
    # True would read as the target 9 - 1/2
    (TargetSlope, (True, 2), TypeError),
    (TargetSlope, (2.5, 3), TypeError),
    (TargetSlope, (1, 2.5), TypeError),
], ids=lambda value: value.__name__ if isinstance(value, type) else repr(value))
def test_integer_constructors_refuse_floats_and_bools(cls, args, error):
    with pytest.raises(Exception) as info:
        cls(*args)
    assert info.type is error
