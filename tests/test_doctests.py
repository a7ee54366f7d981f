"""Run the doctests embedded in the library modules."""

import doctest

import pytest

import slopekit.density
import slopekit.group_core
import slopekit.jumping_loci
import slopekit.surface_invariants


@pytest.mark.parametrize(
    "module",
    [slopekit.group_core, slopekit.density, slopekit.jumping_loci, slopekit.surface_invariants],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module)
    assert results.failed == 0
    assert results.attempted > 0
