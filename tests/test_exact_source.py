"""The library is exact: its source uses no floating point (no `float`, no
float or complex literal, and from `math` only the integer functions), and
its integer constructors refuse a float, or a bool for a count, rather than
truncate it."""

import ast
from pathlib import Path

import pytest

from slopekit.covers import AbelianEpimorphism
from slopekit.density import (
    DensityCertificate, TargetSlope, certificate_rows, convergence_report, density_certificate,
)
from slopekit.errors import SlopekitError
from slopekit.group_core import (
    AbelianGroupStructure, GroupPresentation, IntegerMatrix, LaurentPolynomial, MalformedWordError,
    surface_group,
)
from slopekit.jumping_loci import (
    JumpEntry, JumpingLocusReport, TorsionCharacter, scan_jumping_loci,
)
from slopekit.surface_invariants import FamilyParams, FibrationProfile, SurfaceInvariants

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


XI = TorsionCharacter(2, (1, 0))
HALF = TargetSlope(1, 2)
# Each integer field is read once, by its constructor, so a bool (or a float)
# given by a caller is refused as it would be from JSON.
REFUSALS = [
    ("character modulus True", lambda: TorsionCharacter(True, (1,)), TypeError),
    ("character exponent True", lambda: TorsionCharacter(2, (True, 0)), TypeError),
    ("entry depth True", lambda: JumpEntry(XI, True), TypeError),
    ("entry depth 1.5", lambda: JumpEntry(XI, 1.5), TypeError),
    ("report entry depth 1.5", lambda: JumpingLocusReport(None, 2, (JumpEntry(XI, 1.5),)), TypeError),
    ("report scan bound True", lambda: JumpingLocusReport(True, 0, ()), TypeError),
    ("report b1 True", lambda: JumpingLocusReport(None, True, ()), TypeError),
    ("scan max order True", lambda: scan_jumping_loci(surface_group(1), True), TypeError),
    ("invariants K2 True", lambda: SurfaceInvariants(True, 1, 1, 1), TypeError),
    ("epimorphism source rank True", lambda: AbelianEpimorphism(True, (2,), ((1,),)), TypeError),
    # epsilon is a Fraction, an int or a str: the float 0.1 is not 1/10
    ("density_certificate epsilon 0.1", lambda: density_certificate(0.1, 1, 19, 20), TypeError),
    ("density_certificate epsilon True", lambda: density_certificate(True, 1, 19, 20), TypeError),
    ("DensityCertificate epsilon 0.1", lambda: DensityCertificate(0.1, 1, 19, 20), TypeError),
    ("certificate_rows epsilon 0.1", lambda: certificate_rows(0.1, 1, 19, 20), TypeError),
    ("certificate_rows max denominator True", lambda: certificate_rows("1/10", 1, 19, True), TypeError),
    ("convergence_report epsilon 0.1", lambda: convergence_report(HALF, 1, 19, 0.1), TypeError),
    ("convergence_report exponent True", lambda: convergence_report(HALF, True, 19, "1/10"), TypeError),
    # a cover exponent below 1 divides nothing
    ("family cover exponent 0", lambda: FamilyParams(3, 1, 0), SlopekitError),
    ("family cover exponent -2", lambda: FamilyParams(3, 1, -2), SlopekitError),
    ("matrix entry True", lambda: IntegerMatrix([[True, 2]]), TypeError),
    ("laurent exponent True", lambda: LaurentPolynomial(1, {(True,): 1}), TypeError),
    ("laurent coefficient True", lambda: LaurentPolynomial(1, {(1,): True}), TypeError),
]


@pytest.mark.parametrize("build, error", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_each_integer_field_is_checked_by_its_constructor(build, error):
    with pytest.raises(Exception) as info:
        build()
    assert info.type is error
