"""Slope-dense families: sequences, convergence, and epsilon-net certificates.

For a reduced target fraction p/q in (0,1) the parameter sequences

    d_n = n * e * (q - p) * (g_F - 1) + 1,      k_n = 2 * n * e * p

produce branched double covers whose slopes converge to 9 - p/q from above;
d_n = 1 mod e by construction, so the cyclic covers keep irregularity 1 and
the family stays of Albanese dimension one.  The achieved slope is

    9 - k (g_F - 1) / (2 d + k (g_F - 1)),

and the convergence gap collapses to p / (q * (n e q (g_F - 1) + 1)), which
is O(1/n), so the first n within epsilon is solved in closed form and checked
exactly at n and n - 1.  A density certificate instantiates one convergent
family per Farey target of bounded denominator and checks, by integer
cross-multiplication of numerators and denominators, that the achieved slopes
leave no point of [8, 9] farther than epsilon away.  No floating point enters
any comparison.  An entry is the row of 12 integers that every output format
prints; its TargetSlope, FamilyParams and Fractions are built only when a
library caller reads the properties that name them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import IO, Callable, Iterator, NamedTuple, Sequence

from .errors import SlopekitError
from .surface_invariants import FamilyParams


class InvalidTargetError(SlopekitError):
    """The target fraction is not a reduced p/q with 0 < p < q."""


class NetInfeasibleError(SlopekitError):
    """The Farey targets of the requested order cannot form the needed net."""


@dataclass(frozen=True, slots=True)
class TargetSlope:
    """A rational target 9 - p/q in (8, 9); stored reduced."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1 or not 0 < self.p < self.q:
            raise InvalidTargetError(f"need 0 < p < q, got p={self.p}, q={self.q}")
        g = gcd(self.p, self.q)
        object.__setattr__(self, "p", self.p // g)
        object.__setattr__(self, "q", self.q // g)

    @property
    def value_pair(self) -> tuple[int, int]:
        """The value as (9q - p, q), already reduced: gcd(9q - p, q) = gcd(p, q) = 1."""
        return 9 * self.q - self.p, self.q

    @property
    def value(self) -> Fraction:
        return Fraction(*self.value_pair)


def _farey_pairs(max_denominator: int) -> Iterator[tuple[int, int]]:
    """The (numerator, denominator) pairs that farey_fractions yields, in order."""
    if max_denominator < 1:
        raise ValueError("max denominator must be >= 1")
    a, b, c, d = 0, 1, 1, max_denominator
    while (c, d) != (1, 1):
        yield c, d
        k = (max_denominator + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def farey_fractions(max_denominator: int) -> Iterator[Fraction]:
    """Reduced fractions in (0, 1) with denominator <= max_denominator,
    ascending (the interior of the Farey sequence of that order).

    >>> [str(f) for f in farey_fractions(4)]
    ['1/4', '1/3', '1/2', '2/3', '3/4']
    """
    return (Fraction(c, d) for c, d in _farey_pairs(max_denominator))


def _check_family(exponent: int, fiber_genus: int) -> None:
    if exponent < 1:
        raise SlopekitError("exponent must be >= 1")
    if fiber_genus < 2:
        raise SlopekitError("fiber genus must be >= 2")


def sequence_params(
    target: TargetSlope, exponent: int, fiber_genus: int, n: int
) -> FamilyParams:
    """Parameters (d_n, k_n) of the n-th surface aiming at 9 - p/q.

    >>> sequence_params(TargetSlope(1, 2), 1, 19, 1)
    FamilyParams(d=19, k=2, cover_exponent=1)
    """
    _check_family(exponent, fiber_genus)
    if n < 1:
        raise SlopekitError("sequence index must be >= 1")
    d, k = _member_indices(target.p, target.q, exponent, fiber_genus - 1, n)
    return FamilyParams(d=d, k=k, cover_exponent=exponent)


def _member_indices(p: int, q: int, exponent: int, genus_less_one: int, n: int) -> tuple[int, int]:
    """(d_n, k_n) of the n-th member aiming at 9 - p/q."""
    return n * exponent * (q - p) * genus_less_one + 1, 2 * n * exponent * p


def _family_slope_pair(d: int, k: int, genus_less_one: int) -> tuple[int, int]:
    """The slope 9 - k (g_F - 1) / (2 d + k (g_F - 1)) as an unreduced (num, den)."""
    weight = k * genus_less_one
    return 18 * d + 8 * weight, 2 * d + weight


def family_slope(params: FamilyParams, fiber_genus: int) -> Fraction:
    """Slope of the branched double cover family, closed form.

    Equals slope(branched double cover of the degree-d cyclic cover with 2k
    branch fibers); the two routes agree exactly and are cross-checked in
    the test suite.
    """
    if fiber_genus < 2:
        raise SlopekitError("fiber genus must be >= 2")
    return Fraction(*_family_slope_pair(params.d, params.k, fiber_genus - 1))


class ConvergenceReport(NamedTuple):
    """First family member within epsilon of its target, with the exact gap.

    The fields are the 12 integers of CSV_HEADER, in that order: the target
    p/q and its value 9 - p/q, the exponent e, the index n with its (d, k),
    and the achieved slope and its gap to the target, both reduced.
    """

    p: int
    q: int
    target_num: int
    target_den: int
    e: int
    n: int
    d: int
    k: int
    slope_num: int
    slope_den: int
    gap_num: int
    gap_den: int

    @property
    def target(self) -> TargetSlope:
        return TargetSlope(self.p, self.q)

    @property
    def params(self) -> FamilyParams:
        return FamilyParams(self.d, self.k, self.e)

    @property
    def achieved(self) -> Fraction:
        return Fraction(self.slope_num, self.slope_den)

    @property
    def gap(self) -> Fraction:
        return Fraction(self.gap_num, self.gap_den)


def _first_member(
    p: int, q: int, exponent: int, genus_less_one: int, a: int, b: int
) -> ConvergenceReport:
    """convergence_report for epsilon = a/b, on arguments the caller has checked:
    p/q reduced with 0 < p < q, a, b > 0, exponent >= 1 and g_F - 1 >= 1."""
    n = -((a * q - p * b) // (a * q * q * exponent * genus_less_one))
    if n < 1:
        n = 1
    value_num = 9 * q - p
    for m in (n - 1, n) if n > 1 else (n,):
        d, k = _member_indices(p, q, exponent, genus_less_one, m)
        num, den = _family_slope_pair(d, k, genus_less_one)
        gap_num = abs(num * q - value_num * den)
        if (gap_num * b <= a * den * q) != (m == n):
            raise SlopekitError(
                f"closed form n={n} is not the first n with gap <= {Fraction(a, b)}"
            )
    common, gap_den = gcd(num, den), den * q
    gap_common = gcd(gap_num, gap_den)
    return ConvergenceReport(
        p, q, value_num, q, exponent, n, d, k, num // common, den // common,
        gap_num // gap_common, gap_den // gap_common,
    )


def convergence_report(
    target: TargetSlope, exponent: int, fiber_genus: int, epsilon: Fraction | int | str
) -> ConvergenceReport:
    """First family member within epsilon = a/b of 9 - p/q, in closed form.

    The gap p / (q (n e q (g_F - 1) + 1)) is at most epsilon exactly when
    n >= (p b - a q) / (a q e q (g_F - 1)), so n* is an integer ceiling (at
    least 1).  It is verified through the slope itself: with N/D the achieved
    slope and v/q the target, gap <= a/b reads |N q - v D| b <= a D q, which
    must hold at n* and fail at n* - 1, else SlopekitError.
    """
    if not isinstance(epsilon, Fraction):
        epsilon = Fraction(epsilon)
    if epsilon.numerator <= 0:
        raise SlopekitError("epsilon must be positive")
    _check_family(exponent, fiber_genus)
    return _first_member(
        target.p, target.q, exponent, fiber_genus - 1, epsilon.numerator, epsilon.denominator
    )


def _exceeds(x: Fraction, bound: Fraction) -> bool:
    """x > bound, by cross-multiplication (denominators are positive)."""
    return x.numerator * bound.denominator > bound.numerator * x.denominator


def _exact_key(pairs: Sequence[tuple[int, int]]) -> Callable[[tuple[int, int]], int]:
    """An integer sort key for values num/den (den >= 1) that orders them exactly.

    The key is floor(num L / den) with L = (max den)^2.  It is monotone, and
    two distinct values a/b != c/d differ by at least 1/(bd) >= 1/L, so
    their keys differ by at least 1: the key never merges distinct values.
    """
    scale = max(den for _, den in pairs) ** 2
    return lambda pair: pair[0] * scale // pair[1]


@dataclass(frozen=True)
class DensityCertificate:
    """Achieved slopes forming an epsilon-net of [8, 9], exactly.

    Entries are sorted by target value.  Construction re-verifies that every
    entry gap is the distance |slope - target| of its own row and at most
    epsilon, and that the covering radius of the achieved slopes over
    [8, 9] is at most epsilon.  Every check compares
    the integer numerators and denominators of the entry rows.
    """

    epsilon: Fraction
    entries: tuple[ConvergenceReport, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        entries = tuple(self.entries)
        if not entries:
            raise NetInfeasibleError("a certificate needs at least one entry")
        # One pass over the rows checks each gap and notes whether the
        # targets already ascend.
        a, b = self.epsilon.numerator, self.epsilon.denominator
        ascending = True
        last_num, last_den = entries[0].target_num, entries[0].target_den
        for entry in entries:
            _, _, t_num, t_den, _, _, _, _, s_num, s_den, gap_num, gap_den = entry
            if gap_num * s_den * t_den != gap_den * abs(s_num * t_den - t_num * s_den):
                raise SlopekitError(
                    f"entry for target 9 - {entry.p}/{entry.q} states gap {entry.gap}, "
                    f"not |{entry.achieved} - {t_num}/{t_den}|"
                )
            if gap_num * b > a * gap_den:
                raise SlopekitError(f"entry gap {entry.gap} exceeds epsilon {self.epsilon}")
            if last_num * t_den > t_num * last_den:
                ascending = False
            last_num, last_den = t_num, t_den
        if not ascending:
            targets = [(entry.target_num, entry.target_den) for entry in entries]
            key = _exact_key(targets)
            entries = tuple(e for _, e in sorted(zip(targets, entries), key=lambda te: key(te[0])))
        object.__setattr__(self, "entries", entries)
        radius = covering_radius(self)
        if _exceeds(radius, self.epsilon):
            raise SlopekitError(
                f"achieved slopes cover [8, 9] only to radius {radius} > epsilon"
            )


def _widest_gap(
    values: Sequence[tuple[int, int]],
) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """Covering radius of sorted points num/den (den >= 1) over [8, 9] and the
    first gap reaching it.

    The 8-end is checked first, then the 9-end, then the interior gaps; a
    later gap replaces the widest only when strictly wider.  The radius is
    kept as an integer pair; Fractions are built for the result only.
    """
    count = len(values)
    (first_num, first_den), (last_num, last_den) = values[0], values[-1]
    # The widest gap so far runs from point `best` to point `best + 1`, where
    # point -1 is 8 and point `count` is 9; its half width is r_num / r_den.
    r_num, r_den, best = first_num - 8 * first_den, first_den, -1
    if (9 * last_den - last_num) * r_den > r_num * last_den:
        r_num, r_den, best = 9 * last_den - last_num, last_den, count - 1
    for i, ((left_num, left_den), (right_num, right_den)) in enumerate(zip(values, values[1:])):
        width_num = right_num * left_den - left_num * right_den
        width_den = 2 * left_den * right_den
        if width_num * r_den > r_num * width_den:
            r_num, r_den, best = width_num, width_den, i

    def point(j: int) -> Fraction:
        return Fraction(8) if j < 0 else Fraction(9) if j == count else Fraction(*values[j])

    return Fraction(r_num, r_den), (point(best), point(best + 1))


def covering_radius(certificate: DensityCertificate) -> Fraction:
    """Exact sup over [8, 9] of the distance to the achieved slopes."""
    slopes = [(e.slope_num, e.slope_den) for e in certificate.entries]
    slopes.sort(key=_exact_key(slopes))
    return _widest_gap(slopes)[0]


def density_certificate(
    epsilon: Fraction | int | str,
    exponent: int,
    fiber_genus: int,
    max_denominator: int,
) -> DensityCertificate:
    """Certify the epsilon-density of the achieved slopes in [8, 9].

    Targets are the points 9 - p/q over the Farey fractions p/q of order at
    most max_denominator.  They must form an epsilon/2-net of (8, 9) - this
    is checked first, and failure raises NetInfeasibleError naming the
    largest uncovered gap.  Each target then receives a family member with
    gap at most epsilon/2, so every point of [8, 9] ends up within epsilon
    of an achieved slope.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise SlopekitError("epsilon must be positive")
    if max_denominator < 1:
        raise SlopekitError("max denominator must be >= 1")
    half = epsilon / 2
    # Reduced pairs with 0 < p < q, as TargetSlope would store them.
    pairs = list(_farey_pairs(max_denominator))
    pairs.reverse()  # 9 - p/q ascends as p/q descends: now in value order
    if not pairs:
        raise NetInfeasibleError(
            f"no reduced p/q with 0 < p < q <= {max_denominator}; "
            "largest uncovered gap is all of (8, 9), radius 1/2"
        )
    worst_radius, worst_gap = _widest_gap([(9 * q - p, q) for p, q in pairs])
    if _exceeds(worst_radius, half):
        raise NetInfeasibleError(
            f"targets with q <= {max_denominator} are not an epsilon/2-net: "
            f"largest uncovered gap is ({worst_gap[0]}, {worst_gap[1]}) "
            f"with covering radius {worst_radius} > {half}"
        )
    _check_family(exponent, fiber_genus)
    a, b, genus_less_one = half.numerator, half.denominator, fiber_genus - 1
    entries = tuple(
        _first_member(p, q, exponent, genus_less_one, a, b) for p, q in pairs
    )
    return DensityCertificate(epsilon, entries)


# ---------------------------------------------------------------------------
# Emission

CSV_HEADER = [
    "p", "q", "target_num", "target_den", "e", "n", "d", "k",
    "slope_num", "slope_den", "gap_num", "gap_den",
]

# An entry is itself the row that csv, json and text output read.
_CSV_ROW = ",".join(["%d"] * len(CSV_HEADER)) + "\n"


def write_certificate_csv(
    entries: "DensityCertificate | Sequence[ConvergenceReport]", stream: IO[str]
) -> None:
    if isinstance(entries, DensityCertificate):
        entries = entries.entries
    stream.write(",".join(CSV_HEADER) + "\n")
    # streamed, one row at a time
    stream.writelines(map(_CSV_ROW.__mod__, entries))


def _two_decimals(value: Fraction) -> str:
    """A nonnegative exact value to two decimals, rounded half to even."""
    return "%d.%02d" % divmod(round(value * 100), 100)


def write_slope_svg(entries: Sequence[ConvergenceReport], stream: IO[str]) -> None:
    """Scatter plot (n, achieved slope) as a self-contained SVG.

    Hand-rolled so identical inputs yield byte-identical files.  Each
    coordinate is an exact Fraction, printed to two decimals rounded half
    to even.
    """
    width, height, margin = 640, 400, 50
    max_n = max(entry.n for entry in entries)

    def x_pos(n: int) -> str:
        return _two_decimals(margin + Fraction((width - 2 * margin) * n, max_n + 1))

    def y_pos(slope_value: Fraction) -> str:
        # slopes live in (8, 9)
        return _two_decimals(height - margin - (height - 2 * margin) * (slope_value - 8))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">n</text>',
        f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height // 2})">slope</text>',
        f'<text x="{margin - 6}" y="{height - margin + 4}" font-size="10" '
        f'text-anchor="end">8</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" font-size="10" text-anchor="end">9</text>',
    ]
    for entry in entries:
        cx = x_pos(entry.n)
        cy = y_pos(entry.achieved)
        lines.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="steelblue"/>')
    lines.append("</svg>")
    stream.write("\n".join(lines) + "\n")
