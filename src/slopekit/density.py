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
family per Farey target of denominator at most Q and checks, by integer
cross-multiplication of numerators and denominators, that the achieved slopes
leave no point of [8, 9] farther than epsilon away.  The targets can form the
needed epsilon/2-net only when Q >= 2/epsilon: their covering radius is 1/Q
in closed form, checked before any target is built.  Each row is computed
and proven in one place, `_first_member`: its gap |slope - target| is at
most epsilon/2 at n and more than epsilon/2 at n - 1.  `certificate_rows`
then checks only what the stream alone knows: each target lies above the
one before and within epsilon of it (epsilon/2 at the two ends), so the
targets' net is computed from the rows themselves and the slopes' radius
follows by the triangle inequality, with no sort and no row held.  That
stream is the only source of certificate rows: `DensityCertificate` is
built from the stream's four arguments and holds the rows it yields, so no
caller can hand rows in, and nothing checks them twice.  No floating point
enters any comparison.
An entry is the row of 12 integers that every output format prints; its
TargetSlope, FamilyParams and Fractions are built only when a library
caller reads the properties that name them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import SlopekitError, _json_int
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
        p, q = _json_int(self.p), _json_int(self.q)
        if q < 1 or not 0 < p < q:
            raise InvalidTargetError(f"need 0 < p < q, got p={p}, q={q}")
        g = gcd(p, q)
        object.__setattr__(self, "p", p // g)
        object.__setattr__(self, "q", q // g)

    @property
    def value_pair(self) -> tuple[int, int]:
        """The value as (9q - p, q), already reduced: gcd(9q - p, q) = gcd(p, q) = 1."""
        return 9 * self.q - self.p, self.q

    @property
    def value(self) -> Fraction:
        return Fraction(*self.value_pair)


def _farey_pairs(max_denominator: int) -> Iterator[tuple[int, int]]:
    """The reduced fractions c/d in (0, 1) with d <= max_denominator, as
    (c, d) pairs in ascending order: the interior of the Farey sequence of
    that order.

    >>> list(_farey_pairs(4))
    [(1, 4), (1, 3), (1, 2), (2, 3), (3, 4)]
    """
    if max_denominator < 1:
        raise ValueError("max denominator must be >= 1")
    a, b, c, d = 0, 1, 1, max_denominator
    while (c, d) != (1, 1):
        yield c, d
        k = (max_denominator + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def _check_family(exponent: int, fiber_genus: int) -> None:
    if _json_int(exponent) < 1:
        raise SlopekitError("exponent must be >= 1")
    if _json_int(fiber_genus) < 2:
        raise SlopekitError("fiber genus must be >= 2")


def _epsilon(epsilon: Fraction | int | str) -> Fraction:
    """The one reading of epsilon: exact, positive, never a bool."""
    if not isinstance(epsilon, Fraction):
        if isinstance(epsilon, bool) or not isinstance(epsilon, (int, str)):
            raise TypeError(f"epsilon must be a Fraction, an int or a str, not {type(epsilon).__name__}")
        epsilon = Fraction(epsilon)
    if epsilon.numerator <= 0:
        raise SlopekitError("epsilon must be positive")
    return epsilon


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
    p/q reduced with 0 < p < q, a, b > 0, exponent >= 1 and g_F - 1 >= 1.
    The one place a row's gap |slope - target| meets a bound: it must exceed
    a/b at n - 1 (when n > 1) and be at most a/b at n, else SlopekitError."""
    n = -((a * q - p * b) // (a * q * q * exponent * genus_less_one))
    if n < 1:
        n = 1
    value_num = 9 * q - p
    earlier_fits = False
    if n > 1:
        d, k = _member_indices(p, q, exponent, genus_less_one, n - 1)
        num, den = _family_slope_pair(d, k, genus_less_one)
        earlier_fits = abs(num * q - value_num * den) * b <= a * den * q
    d, k = _member_indices(p, q, exponent, genus_less_one, n)
    num, den = _family_slope_pair(d, k, genus_less_one)
    gap_num = abs(num * q - value_num * den)
    if earlier_fits or gap_num * b > a * den * q:
        raise SlopekitError(
            f"closed form n={n} is not the first n with gap <= {Fraction(a, b)}"
        )
    common, gap_den = gcd(num, den), den * q
    gap_common = gcd(gap_num, gap_den)
    # tuple.__new__ skips the named tuple's Python-level __new__ frame.
    return tuple.__new__(ConvergenceReport, (
        p, q, value_num, q, exponent, n, d, k, num // common, den // common,
        gap_num // gap_common, gap_den // gap_common,
    ))


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
    epsilon = _epsilon(epsilon)
    _check_family(exponent, fiber_genus)
    return _first_member(
        target.p, target.q, exponent, fiber_genus - 1, epsilon.numerator, epsilon.denominator
    )


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

    Built from the arguments of certificate_rows, whose refusals and
    checks it inherits; `entries` holds the rows that stream
    yields, in target order, and is never taken from the caller.  Each row
    comes from its family by construction, so the certificate checks
    nothing again.  covering_radius computes the slopes' exact radius on
    request.
    """

    epsilon: Fraction
    exponent: int
    fiber_genus: int
    max_denominator: int
    entries: tuple[ConvergenceReport, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _epsilon(self.epsilon))
        object.__setattr__(self, "entries", tuple(certificate_rows(
            self.epsilon, self.exponent, self.fiber_genus, self.max_denominator)))


def _widest_gap(values: Sequence[tuple[int, int]]) -> Fraction:
    """Covering radius of sorted points num/den (den >= 1) over [8, 9], kept
    as an integer pair until the result."""
    (first_num, first_den), (last_num, last_den) = values[0], values[-1]
    # The widest half gap so far is r_num / r_den; the end gaps count whole.
    r_num, r_den = first_num - 8 * first_den, first_den
    if (9 * last_den - last_num) * r_den > r_num * last_den:
        r_num, r_den = 9 * last_den - last_num, last_den
    for (left_num, left_den), (right_num, right_den) in zip(values, values[1:]):
        width_num = right_num * left_den - left_num * right_den
        width_den = 2 * left_den * right_den
        if width_num * r_den > r_num * width_den:
            r_num, r_den = width_num, width_den
    return Fraction(r_num, r_den)


def covering_radius(certificate: DensityCertificate) -> Fraction:
    """Exact sup over [8, 9] of the distance to the achieved slopes, computed
    on request: one sort of the slopes by an exact integer key, then one pass."""
    slopes = [(e.slope_num, e.slope_den) for e in certificate.entries]
    slopes.sort(key=_exact_key(slopes))
    return _widest_gap(slopes)


def certificate_rows(
    epsilon: Fraction | int | str,
    exponent: int,
    fiber_genus: int,
    max_denominator: int,
) -> Iterator[ConvergenceReport]:
    """The rows of the epsilon-density certificate, in target order, each
    checked as it passes.

    Targets are the points 9 - p/q over the Farey fractions p/q of order at
    most Q = max_denominator.  Every refusal that needs no row is made when
    this is called, before a row is built: epsilon > 0, Q >= 1, the family,
    Q = 1, and then the net.  The targets' covering radius is 1/Q in closed
    form, so the net needs Q >= 2/epsilon, and a smaller Q raises
    NetInfeasibleError naming the gap (8, 8 + 1/Q).

    Each target then receives its first family member with gap at most
    epsilon/2, computed and proven by _first_member: the gap is at most
    epsilon/2 at n and more than epsilon/2 at n - 1.  The stream checks
    only the order and the net: as the row passes, its target must lie
    above the one before, within epsilon of it; the first target must lie
    within epsilon/2 of 8 and the last within epsilon/2 of 9.  So every
    point of [8, 9] is within epsilon/2 of a target, and by the triangle
    inequality within epsilon of an achieved slope, once the rows are
    exhausted.  A row that fails raises SlopekitError (NetInfeasibleError
    for an uncovered gap) when it is reached, so a caller that must emit
    nothing on failure emits only after the last row.
    """
    epsilon = _epsilon(epsilon)
    if _json_int(max_denominator) < 1:
        raise SlopekitError("max denominator must be >= 1")
    _check_family(exponent, fiber_genus)
    half = epsilon / 2
    if max_denominator == 1:
        raise NetInfeasibleError(
            "no reduced p/q with 0 < p < q <= 1; "
            "largest uncovered gap is all of (8, 9), radius 1/2"
        )
    # For Q >= 2 the targets run from 8 + 1/Q to 9 - 1/Q, so both end gaps
    # have radius 1/Q.  Farey neighbours a/b < c/d of order Q satisfy
    # bc - ad = 1 and b + d > Q (Hardy & Wright, ch. III); inside (0, 1)
    # both b, d >= 2, so bd >= 2(Q - 1) and no interior half gap
    # 1/(2bd) exceeds 1/(4(Q - 1)) < 1/Q.  The radius is 1/Q, and on the
    # tie the 8-end is the gap named.
    radius = Fraction(1, max_denominator)
    if radius > half:
        raise NetInfeasibleError(
            f"targets with q <= {max_denominator} are not an epsilon/2-net: "
            f"largest uncovered gap is (8, {8 + radius}) "
            f"with covering radius {radius} > {half}"
        )
    return _checked_rows(half, exponent, fiber_genus - 1, max_denominator)


def _checked_rows(
    half: Fraction, exponent: int, genus_less_one: int, max_denominator: int
) -> Iterator[ConvergenceReport]:
    """The rows of certificate_rows, on arguments it has checked."""
    a, b = half.numerator, half.denominator
    # The last target passed, from 8 on, and how far the next may lie above
    # it: epsilon/2 from 8, then epsilon, so no point between two targets is
    # farther than epsilon/2 from both.
    last_num, last_den, reach = 8, 1, a
    # c/q -> (q - c)/q maps the Farey fractions onto themselves, so the
    # reduced p = q - c descend as c/q ascends: 9 - p/q comes in value order.
    for c, q in _farey_pairs(max_denominator):
        row = _first_member(q - c, q, exponent, genus_less_one, a, b)
        t_num, t_den = row[2], row[3]
        width = t_num * last_den - last_num * t_den
        if width <= 0:
            raise SlopekitError(
                f"target {t_num}/{t_den} does not lie above {Fraction(last_num, last_den)}"
            )
        if width * b > reach * t_den * last_den:
            raise _uncovered_gap(max_denominator, half, Fraction(last_num, last_den),
                                 Fraction(t_num, t_den))
        last_num, last_den, reach = t_num, t_den, 2 * a
        yield row
    if (9 * last_den - last_num) * b > a * last_den:
        raise _uncovered_gap(max_denominator, half, Fraction(last_num, last_den), Fraction(9))


def _uncovered_gap(
    max_denominator: int, half: Fraction, left: Fraction, right: Fraction
) -> NetInfeasibleError:
    """The refusal naming the gap (left, right) between targets; a gap at 8
    or 9 has radius its whole width, any other half of it."""
    radius = right - left if left == 8 or right == 9 else (right - left) / 2
    return NetInfeasibleError(
        f"targets with q <= {max_denominator} are not an epsilon/2-net: "
        f"uncovered gap ({left}, {right}) with covering radius {radius} > {half}"
    )


def density_certificate(
    epsilon: Fraction | int | str,
    exponent: int,
    fiber_genus: int,
    max_denominator: int,
) -> DensityCertificate:
    """Certify the epsilon-density of the achieved slopes in [8, 9], holding
    the rows: the rows of certificate_rows, with its refusals and checks."""
    return DensityCertificate(epsilon, exponent, fiber_genus, max_denominator)


# ---------------------------------------------------------------------------
# Emission

CSV_HEADER = [
    "p", "q", "target_num", "target_den", "e", "n", "d", "k",
    "slope_num", "slope_den", "gap_num", "gap_den",
]

# An entry is itself the row that csv, json and text output read.
_CSV_ROW = ",".join(["%d"] * len(CSV_HEADER)) + "\n"


def write_certificate_csv(
    entries: "DensityCertificate | Iterable[ConvergenceReport]", stream: IO[str]
) -> None:
    """The header, then one line per row as the rows pass."""
    if isinstance(entries, DensityCertificate):
        entries = entries.entries
    stream.write(",".join(CSV_HEADER) + "\n")
    stream.writelines(map(_CSV_ROW.__mod__, entries))


def _two_decimals(value: Fraction) -> str:
    """A nonnegative exact value to two decimals, rounded half to even."""
    return "%d.%02d" % divmod(round(value * 100), 100)


def write_slope_svg(entries: Iterable[ConvergenceReport], stream: IO[str]) -> None:
    """Scatter plot (n, achieved slope) as a self-contained SVG.

    Hand-rolled so identical inputs yield byte-identical files.  Each
    coordinate is an exact Fraction, printed to two decimals rounded half
    to even.
    """
    entries = tuple(entries)  # read twice: for the scale, then for the points
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
