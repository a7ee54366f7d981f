"""Invariant calculus for cyclic covers and branched double covers."""

import random
from fractions import Fraction

import pytest

from slopekit.surface_invariants import (
    FamilyParams,
    FibrationProfile,
    InconsistentIrregularityError,
    NoetherViolationError,
    SlopeDomainError,
    SurfaceInvariants,
    branched_double_cover_invariants,
    cartwright_steger_profile,
    check_geography,
    cyclic_cover_invariants,
    family_invariants,
    slope,
)


def test_cartwright_steger_profile():
    surface, fibration = cartwright_steger_profile()
    assert (surface.K2, surface.chi) == (9, 1)
    assert surface.q == 1
    assert surface.pg == 1  # forced by chi = 1 - q + p_g
    assert fibration.fiber_genus == 19
    assert fibration.base_genus == 1


def test_noether_is_enforced():
    with pytest.raises(NoetherViolationError):
        SurfaceInvariants(9, 1, 2, 1)
    with pytest.raises(NoetherViolationError):
        SurfaceInvariants(9, 1, -1, -1)
    assert SurfaceInvariants.from_json_dict({"K2": 9, "chi": 1, "q": 1, "pg": 1}) == \
        cartwright_steger_profile()[0]


def test_invariants_take_ints_only():
    # truncation would read the first as (9, 1, 1, 1)
    with pytest.raises(TypeError):
        SurfaceInvariants.from_json_dict({"K2": 9.9, "chi": 1.5, "q": 1, "pg": 1.2})
    with pytest.raises(TypeError):
        SurfaceInvariants(9.5, 1, 1, 1)
    with pytest.raises(TypeError):
        SurfaceInvariants.from_json_dict({"K2": "9", "chi": 1, "q": 1, "pg": 1})
    # JSON true is not the integer 1, as for the report and epimorphism readers
    with pytest.raises(TypeError):
        SurfaceInvariants.from_json_dict({"K2": 9, "chi": True, "q": True, "pg": True})
    surface = SurfaceInvariants(True, 1, 1, 1)
    assert type(surface.K2) is int and slope(surface) == 1


def test_cyclic_cover_examples():
    base, _ = cartwright_steger_profile()
    assert cyclic_cover_invariants(base, 1, 1) == SurfaceInvariants(9, 1, 1, 1)
    assert cyclic_cover_invariants(base, 7, 1) == SurfaceInvariants(63, 7, 1, 7)
    assert cyclic_cover_invariants(base, 2, 1) == SurfaceInvariants(18, 2, 1, 2)


def test_cyclic_cover_rejects_bad_irregularity():
    flat = SurfaceInvariants(0, 0, 2, 1)  # chi = 0 is Noether-consistent
    with pytest.raises(InconsistentIrregularityError):
        cyclic_cover_invariants(flat, 1, 0)
    with pytest.raises(InconsistentIrregularityError):
        cyclic_cover_invariants(cartwright_steger_profile()[0], 1, -1)


def test_branched_double_cover_examples():
    base, fibration = cartwright_steger_profile()
    x1 = cyclic_cover_invariants(base, 1, 1)
    s11 = branched_double_cover_invariants(x1, 1, fibration)
    assert s11 == SurfaceInvariants(162, 20, 2, 21)
    assert s11.chi == 1 - s11.q + s11.pg

    x2 = cyclic_cover_invariants(base, 2, 1)
    assert branched_double_cover_invariants(x2, 1, fibration) == SurfaceInvariants(180, 22, 2, 23)

    # q(S) = q + k + b - 1, with q = b = 1
    s13 = branched_double_cover_invariants(x1, 3, fibration)
    assert s13.q == 4


def _product(b, g):
    """(K^2, chi, q, p_g) of B x C, g(B) = b and g(C) = g."""
    chi = (b - 1) * (g - 1)
    return SurfaceInvariants(8 * chi, chi, b + g, b * g)


def test_branched_double_cover_of_a_product():
    # B x C fibred over B, branched along 2k fibres {t} x C: the cover is
    # B' x C with g(B') = 2b - 1 + k by Riemann-Hurwitz, and q = b + g(C)
    # differs from b; E x C with g(C) = 2, (0, 0, 3, 2), covers to
    # (8k, k, k + 3, 2k + 2)
    for b in range(4):
        for g in range(2, 5):
            for k in range(1, 4):
                cover = branched_double_cover_invariants(
                    _product(b, g), k, FibrationProfile(g, b)
                )
                assert cover == _product(2 * b - 1 + k, g), (b, g, k)


def test_slope_examples():
    assert slope(SurfaceInvariants(162, 20, 2, 21)) == Fraction(81, 10)
    assert slope(cartwright_steger_profile()[0]) == 9
    assert slope(SurfaceInvariants(2, 1, 1, 1)) == 2
    with pytest.raises(SlopeDomainError):
        slope(SurfaceInvariants(0, 0, 2, 1))


def test_check_geography_examples():
    assert check_geography(SurfaceInvariants(9, 1, 1, 1))
    assert not check_geography(SurfaceInvariants(19, 2, 0, 1))
    assert check_geography(SurfaceInvariants(162, 20, 2, 21))
    assert check_geography(SurfaceInvariants(2, 1, 1, 1))  # Noether line
    assert not check_geography(SurfaceInvariants(1, 1, 1, 1))


def test_fibration_profile_needs_hyperbolic_fiber():
    from slopekit.errors import SlopekitError

    with pytest.raises(SlopekitError):
        FibrationProfile(1, 1)
    with pytest.raises(SlopekitError, match="base genus must be >= 0"):
        FibrationProfile(2, -1)


def test_family_params_validation():
    from slopekit.errors import SlopekitError

    FamilyParams(7, 2, cover_exponent=6)
    with pytest.raises(SlopekitError):
        FamilyParams(0, 1)
    with pytest.raises(SlopekitError):
        FamilyParams(1, 0)
    with pytest.raises(SlopekitError):
        FamilyParams(8, 2, cover_exponent=6)  # 8 != 1 mod 6


def test_noether_holds_for_random_families():
    rng = random.Random(808)
    for _ in range(1000):
        d, k = rng.randint(1, 1000), rng.randint(1, 1000)
        surface = family_invariants(FamilyParams(d, k))
        assert surface.chi == 1 - surface.q + surface.pg
        assert surface.chi == 2 * d + 18 * k


def test_slope_identity_matches_displayed_formula():
    base, fibration = cartwright_steger_profile()
    for d in (1, 2, 7, 19, 109):
        cover = cyclic_cover_invariants(base, d, 1)
        for k in (1, 2, 5, 12):
            surface = branched_double_cover_invariants(cover, k, fibration)
            assert slope(surface) == 9 - Fraction(18 * k, 2 * d + 18 * k)


def test_two_route_chi_identity():
    # chi from the additive formula vs Noether from the q and p_g formulas
    base, fibration = cartwright_steger_profile()
    for d in range(1, 30):
        cover = cyclic_cover_invariants(base, d, 1)
        for k in range(1, 30):
            chi_direct = 2 * cover.chi + k * 18
            q_s = cover.q + k + 1 - 1
            pg_s = 2 * cover.pg - cover.q + k * 19 + 1
            assert chi_direct == 1 - q_s + pg_s
            surface = branched_double_cover_invariants(cover, k, fibration)
            assert surface.chi == chi_direct


def test_family_slopes_stay_in_open_interval():
    for d in (1, 3, 10, 50):
        for k in (1, 4, 25, 100):
            value = slope(family_invariants(FamilyParams(d, k)))
            assert 8 < value < 9
            assert check_geography(family_invariants(FamilyParams(d, k)))


def test_invariants_json_roundtrip():
    surface = family_invariants(FamilyParams(3, 2))
    assert SurfaceInvariants.from_json_dict(surface.to_json_dict()) == surface
