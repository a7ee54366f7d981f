"""Exact numerical invariants (K^2, chi, q, p_g) of the surface families.

Two constructions are composed: an unramified cyclic cover of degree d, which
multiplies K^2 and chi and takes its irregularity from the group-theoretic
layer, and a double cover branched along 2k fibers of the induced genus-g_F
fibration.  Noether's identity chi = 1 - q + p_g is a constructor invariant,
so every value that exists is internally consistent.  Only integers and
exact rationals appear.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import SlopekitError


class NoetherViolationError(SlopekitError):
    """chi != 1 - q + p_g: the invariants do not describe a surface."""


class InconsistentIrregularityError(SlopekitError):
    """The supplied cover irregularity makes p_g negative."""


class SlopeDomainError(SlopekitError):
    """Slope requested for chi <= 0."""


@dataclass(frozen=True)
class SurfaceInvariants:
    """(K^2, chi, q, p_g) with Noether consistency enforced."""

    K2: int
    chi: int
    q: int
    pg: int

    def __post_init__(self) -> None:
        for name in ("K2", "chi", "q", "pg"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.q < 0 or self.pg < 0:
            raise NoetherViolationError(f"q and p_g must be nonnegative, got q={self.q}, pg={self.pg}")
        if self.chi != 1 - self.q + self.pg:
            raise NoetherViolationError(
                f"chi = {self.chi} but 1 - q + p_g = {1 - self.q + self.pg}"
            )

    def to_json_dict(self) -> dict:
        return {"K2": self.K2, "chi": self.chi, "q": self.q, "pg": self.pg}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SurfaceInvariants":
        return cls(data["K2"], data["chi"], data["q"], data["pg"])


@dataclass(frozen=True)
class FibrationProfile:
    """The fibration carrying the branch fibers; fiber genus >= 2."""

    fiber_genus: int
    base_genus: int

    def __post_init__(self) -> None:
        if self.fiber_genus < 2:
            raise SlopekitError("fiber genus must be >= 2")


@dataclass(frozen=True, slots=True)
class FamilyParams:
    """Indices (d, k): cyclic cover order and half the branch fiber count.

    ``cover_exponent`` optionally records the congruence d = 1 mod e that the
    coprime cover construction guarantees; it is validated when present.
    """

    d: int
    k: int
    cover_exponent: int | None = None

    def __post_init__(self) -> None:
        if self.d < 1 or self.k < 1:
            raise SlopekitError("family parameters require d >= 1 and k >= 1")
        if self.cover_exponent is not None and (self.d - 1) % self.cover_exponent:
            raise SlopekitError(
                f"d = {self.d} is not congruent to 1 mod {self.cover_exponent}"
            )


def cartwright_steger_profile() -> tuple[SurfaceInvariants, FibrationProfile]:
    """Invariants of the Cartwright-Steger surface and its Albanese fibration.

    The surface is minimal of general type with K^2 = 9, chi = 1, q = 1
    (hence p_g = 1), sitting on the Bogomolov-Miyaoka-Yau line; its Albanese
    fibration over the torus has fiber genus 19 and no multiple fibers.
    """
    return (
        SurfaceInvariants(K2=9, chi=1, q=1, pg=1),
        FibrationProfile(fiber_genus=19, base_genus=1),
    )


def cyclic_cover_invariants(base: SurfaceInvariants, d: int, q_cover: int) -> SurfaceInvariants:
    """Invariants of an unramified degree-d cyclic cover.

    K^2 and chi are multiplicative; the cover irregularity is an input from
    the group-theoretic layer (jumping loci or Reidemeister-Schreier), and
    p_g follows from Noether.
    """
    if d < 1:
        raise SlopekitError("cover degree must be >= 1")
    if q_cover < 0:
        raise InconsistentIrregularityError("irregularity must be nonnegative")
    pg = d * base.chi - 1 + q_cover
    if pg < 0:
        raise InconsistentIrregularityError(
            f"q = {q_cover} forces p_g = {pg} < 0 for chi = {d * base.chi}"
        )
    return SurfaceInvariants(K2=d * base.K2, chi=d * base.chi, q=q_cover, pg=pg)


def branched_double_cover_invariants(
    cover: SurfaceInvariants, k: int, fiber_genus: int
) -> SurfaceInvariants:
    """Invariants of the double cover branched along 2k smooth fibers.

    With branch divisor B = 2kF, F^2 = 0 and K.F = 2g_F - 2 by adjunction:

        chi' = 2 chi + k (g_F - 1)
        p_g' = 2 p_g + k g_F
        q'   = 2 q + k - 1
        K'^2 = 2 K^2 + 4k (2 g_F - 2)

    Noether consistency of the output is re-verified as a hard postcondition.
    """
    if k < 1:
        raise SlopekitError("branch parameter k must be >= 1")
    if fiber_genus < 2:
        raise SlopekitError("fiber genus must be >= 2")
    chi = 2 * cover.chi + k * (fiber_genus - 1)
    pg = 2 * cover.pg + k * fiber_genus
    q = 2 * cover.q + k - 1
    k2 = 2 * cover.K2 + 4 * k * (2 * fiber_genus - 2)
    try:
        return SurfaceInvariants(K2=k2, chi=chi, q=q, pg=pg)
    except NoetherViolationError as exc:
        raise NoetherViolationError(f"inconsistent input invariants: {exc}") from exc


def slope(surface: SurfaceInvariants) -> Fraction:
    """The slope K^2 / chi as an exact reduced rational.

    >>> slope(SurfaceInvariants(K2=162, chi=20, q=2, pg=21))
    Fraction(81, 10)
    """
    if surface.chi <= 0:
        raise SlopeDomainError(f"slope undefined for chi = {surface.chi}")
    return Fraction(surface.K2, surface.chi)


def check_geography(surface: SurfaceInvariants) -> bool:
    """Noether/BMY window: 2 chi <= K^2 <= 9 chi."""
    return 2 * surface.chi <= surface.K2 <= 9 * surface.chi


def family_invariants(params: FamilyParams) -> SurfaceInvariants:
    """Invariants of the branched double cover family over the
    Cartwright-Steger surface: degree-d cyclic cover (irregularity 1, as for
    every abelian cover of this surface), then the double cover branched
    along 2k fibers of genus 19."""
    base, fibration = cartwright_steger_profile()
    cover = cyclic_cover_invariants(base, params.d, 1)
    return branched_double_cover_invariants(cover, params.k, fibration.fiber_genus)
