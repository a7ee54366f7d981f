"""Slope sequences, convergence, and density certificates."""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import pickle
import random
import re
from fractions import Fraction

import pytest

from slopekit.cli import _density_json, _density_text, main
from slopekit.density import (
    CSV_HEADER,
    ConvergenceReport,
    DensityCertificate,
    InvalidTargetError,
    NetInfeasibleError,
    TargetSlope,
    certificate_rows,
    convergence_report,
    covering_radius,
    density_certificate,
    family_slope,
    sequence_params,
    write_certificate_csv,
    write_slope_svg,
)
from slopekit.errors import SlopekitError
from slopekit.surface_invariants import (
    FamilyParams,
    branched_double_cover_invariants,
    cartwright_steger_profile,
    cyclic_cover_invariants,
    slope,
)

from _oracles import farey_fractions


def test_target_slope_validation():
    t = TargetSlope(2, 4)
    assert (t.p, t.q) == (1, 2)  # stored reduced
    assert t.value == Fraction(17, 2)
    with pytest.raises(InvalidTargetError):
        TargetSlope(3, 2)
    with pytest.raises(InvalidTargetError):
        TargetSlope(0, 5)
    with pytest.raises(InvalidTargetError):
        TargetSlope(2, 2)


def test_farey_enumeration():
    assert list(farey_fractions(1)) == []
    assert list(farey_fractions(5)) == [
        Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5),
        Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4),
        Fraction(4, 5),
    ]
    # complete: matches brute-force enumeration for a larger order
    brute = sorted({Fraction(p, q) for q in range(2, 21) for p in range(1, q)})
    assert list(farey_fractions(20)) == brute


def test_sequence_params_examples():
    assert sequence_params(TargetSlope(1, 2), 1, 19, 1) == FamilyParams(19, 2, 1)
    assert sequence_params(TargetSlope(1, 2), 6, 19, 1) == FamilyParams(109, 12, 6)
    rng = random.Random(909)
    for _ in range(100):
        p = rng.randint(1, 9)
        q = rng.randint(p + 1, 12)
        e = rng.randint(1, 8)
        n = rng.randint(1, 10)
        params = sequence_params(TargetSlope(p, q), e, 19, n)
        assert (params.d - 1) % e == 0
        assert params.k % 2 == 0


def test_family_slope_examples():
    assert family_slope(FamilyParams(1, 1), 19) == Fraction(81, 10)
    assert family_slope(FamilyParams(19, 2), 19) == Fraction(315, 37)
    # d fixed, k large: approaches 8 from above
    assert 8 < family_slope(FamilyParams(1, 10**6), 19) < Fraction(801, 100)


def test_family_slope_matches_surface_composition():
    base, fibration = cartwright_steger_profile()
    rng = random.Random(111)
    for _ in range(1000):
        d, k = rng.randint(1, 500), rng.randint(1, 500)
        surface = branched_double_cover_invariants(
            cyclic_cover_invariants(base, d, 1), k, fibration
        )
        assert family_slope(FamilyParams(d, k), fibration.fiber_genus) == slope(surface)


def test_convergence_report_examples():
    report = convergence_report(TargetSlope(1, 2), 1, 19, Fraction(1, 1000))
    assert report.n == 14
    assert report.gap == Fraction(1, 72 * 14 + 2)
    report = convergence_report(TargetSlope(1, 2), 1, 19, 1)
    assert report.n == 1
    assert report.gap == Fraction(1, 74)
    report = convergence_report(TargetSlope(3, 7), 2, 19, Fraction(1, 2))
    assert report.n == 1


def test_gap_closed_form():
    # gap_n = p / (q (n e q (g_F - 1) + 1)); for p/q = 1/2, e = 1: 1/(72n + 2)
    for n in range(1, 101):
        params = sequence_params(TargetSlope(1, 2), 1, 19, n)
        gap = abs(family_slope(params, 19) - TargetSlope(1, 2).value)
        assert gap == Fraction(1, 72 * n + 2)


def test_gap_closed_form_general():
    rng = random.Random(222)
    for _ in range(200):
        p = rng.randint(1, 9)
        q = rng.randint(p + 1, 12)
        t = TargetSlope(p, q)
        e = rng.randint(1, 6)
        n = rng.randint(1, 50)
        g_f = rng.randint(2, 30)
        gap = abs(family_slope(sequence_params(t, e, g_f, n), g_f) - t.value)
        assert gap == Fraction(t.p, t.q * (n * e * t.q * (g_f - 1) + 1))


def _gap(target, exponent, fiber_genus, n):
    params = sequence_params(target, exponent, fiber_genus, n)
    return abs(family_slope(params, fiber_genus) - target.value)


def _first_n_by_walk(target, exponent, fiber_genus, epsilon):
    n = 1
    while _gap(target, exponent, fiber_genus, n) > epsilon:
        n += 1
    return n


def test_closed_form_matches_walk():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def case(draw):
        q = draw(st.integers(2, 40))
        target = TargetSlope(draw(st.integers(1, q - 1)), q)
        e, g_f = draw(st.integers(1, 6)), draw(st.integers(2, 30))
        n = draw(st.integers(1, 200))
        gap_n = _gap(target, e, g_f, n)
        kind = draw(st.sampled_from(("exact", "between", "above_gap_1", "any")))
        if kind == "exact":  # the comparison is <=, so n itself is the answer
            return target, e, g_f, gap_n, n
        if kind == "between":  # strictly between gap_n and gap_{n-1}
            upper = _gap(target, e, g_f, n - 1) if n > 1 else 2 * gap_n
            share = Fraction(draw(st.integers(1, 999)), 1000)
            return target, e, g_f, gap_n + share * (upper - gap_n), n
        if kind == "above_gap_1":
            return target, e, g_f, _gap(target, e, g_f, 1) * draw(st.integers(1, 10**6)), 1
        epsilon = draw(st.fractions(Fraction(1, 5000), 2, max_denominator=10**6))
        return target, e, g_f, epsilon, None

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(case())
    def check(args):
        target, e, g_f, epsilon, expected_n = args
        report = convergence_report(target, e, g_f, epsilon)
        assert report.n == _first_n_by_walk(target, e, g_f, epsilon)
        assert expected_n is None or report.n == expected_n
        assert report.gap == _gap(target, e, g_f, report.n) <= epsilon
        assert report.params == sequence_params(target, e, g_f, report.n)

    check()


def _reference_row(target, exponent, fiber_genus, epsilon):
    """The row of the least n with gap <= epsilon, by the Fraction route.

    The gap falls strictly with n, so n is found by doubling and bisection
    over sequence_params + family_slope, without the closed form for n.
    """
    low, high = 0, 1  # gap(low) > epsilon unless low = 0; gap(high) <= epsilon
    while _gap(target, exponent, fiber_genus, high) > epsilon:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if _gap(target, exponent, fiber_genus, mid) <= epsilon:
            high = mid
        else:
            low = mid
    params = sequence_params(target, exponent, fiber_genus, high)
    slope = family_slope(params, fiber_genus)
    gap = abs(slope - target.value)
    return (target.p, target.q, *target.value_pair, exponent, high, params.d, params.k,
            slope.numerator, slope.denominator, gap.numerator, gap.denominator)


def test_integer_rows_match_the_fraction_route():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    target = st.integers(2, 10**4).flatmap(
        lambda q: st.builds(TargetSlope, st.integers(1, q - 1), st.just(q)))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(target, st.integers(1, 6), st.integers(2, 40),
                      st.fractions(Fraction(1, 10**9), 2, max_denominator=10**10))
    def check_report(target, e, g_f, epsilon):
        report = convergence_report(target, e, g_f, epsilon)
        assert tuple(report) == _reference_row(target, e, g_f, epsilon)
        assert report.target == target
        assert report.params == sequence_params(target, e, g_f, report.n)
        assert report.achieved == family_slope(report.params, g_f)
        assert report.gap == abs(report.achieved - target.value)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(2, 40), st.integers(1, 6), st.integers(2, 40),
                      st.fractions(0, 2, max_denominator=1000))
    def check_certificate(q_max, e, g_f, slack):
        epsilon = Fraction(2, q_max) + slack  # the Farey end gaps have radius 1/Q
        cert = density_certificate(epsilon, e, g_f, q_max)
        assert [(entry.p, entry.q) for entry in cert.entries] == [
            (f.numerator, f.denominator) for f in reversed(list(farey_fractions(q_max)))]
        for entry in cert.entries:
            assert entry == convergence_report(TargetSlope(entry.p, entry.q), e, g_f, epsilon / 2)
        assert max(entry.gap for entry in cert.entries) <= epsilon / 2
        radius = _reference_widest_gap(sorted(entry.achieved for entry in cert.entries))[0]
        assert covering_radius(cert) == radius <= epsilon

    check_report()
    check_certificate()


def test_closed_form_at_one_billionth(capsys):
    # The walk would take 13,888,889 steps here.
    epsilon = Fraction(1, 10**9)
    report = convergence_report(TargetSlope(1, 2), 1, 19, epsilon)
    assert report.n == 13_888_889
    assert report.gap == Fraction(1, 72 * report.n + 2) <= epsilon
    assert _gap(TargetSlope(1, 2), 1, 19, report.n - 1) > epsilon
    code = main(["density", "--epsilon", "1/1000000000", "--target", "1/2", "--format", "json"])
    entry = json.loads(capsys.readouterr().out)["entries"][0]
    assert code == 0
    assert entry["n"] == 13_888_889 and entry["gap"] == f"1/{72 * 13_888_889 + 2}"


def test_closed_form_validates_before_dividing():
    for exponent, fiber_genus, epsilon, fragment in (
        (0, 19, Fraction(1, 10), "exponent"),
        (-1, 19, Fraction(1, 10), "exponent"),
        (1, 1, Fraction(1, 10), "fiber genus"),
        (1, 19, 0, "epsilon"),
        (1, 19, Fraction(-1, 10), "epsilon"),
    ):
        with pytest.raises(SlopekitError, match=fragment):
            convergence_report(TargetSlope(1, 2), exponent, fiber_genus, epsilon)


@pytest.mark.parametrize("exponent", ["0", "-1"])
@pytest.mark.parametrize("goal", [["--target", "1/2"], ["--max-denominator", "8"]])
def test_bad_exponent_is_one_json_error(capsys, exponent, goal):
    code = main(["density", "--epsilon", "1/4", *goal, "--exponent", exponent])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "exponent must be >= 1", "module": "density", "type": "SlopekitError"
    }


def test_family_is_checked_before_the_farey_walk(monkeypatch, capsys):
    from slopekit import density

    def no_walk(max_denominator):
        raise AssertionError("the Farey walk ran before the family check")

    monkeypatch.setattr(density, "_farey_pairs", no_walk)
    with pytest.raises(SlopekitError, match="^exponent must be >= 1$"):
        density_certificate(Fraction(1, 1500), 0, 19, 3000)
    # a net that is also infeasible: the family error is the one named
    with pytest.raises(SlopekitError, match="^fiber genus must be >= 2$"):
        density_certificate(Fraction(1, 100), 1, 1, 3)
    code = main(["density", "--epsilon", "1/1500", "--max-denominator", "3000",
                 "--exponent", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err)["error"] == "exponent must be >= 1"


@pytest.mark.parametrize("fake_gap", [
    lambda d: Fraction(1, d),  # gap at n* exceeds epsilon
    lambda d: Fraction(0),  # gap at n* - 1 is already within epsilon
])
def test_closed_form_check_rejects_a_wrong_slope(monkeypatch, fake_gap):
    monkeypatch.setattr(
        "slopekit.density._family_slope_pair",
        lambda d, k, g1: (Fraction(17, 2) + fake_gap(d)).as_integer_ratio(),
    )
    with pytest.raises(SlopekitError, match="closed form n=14"):
        convergence_report(TargetSlope(1, 2), 1, 19, Fraction(1, 1000))


@pytest.mark.parametrize("fake", [
    # one more than the family slope: the gap at n* exceeds epsilon
    lambda slope_pair, d, k, g1: (lambda num, den: (num + den, den))(*slope_pair(d, k, g1)),
    # d - 1 in place of d gives 9 - p/q itself: n* - 1 is already within epsilon
    lambda slope_pair, d, k, g1: slope_pair(d - 1, k, g1),
])
def test_certificate_rejects_a_wrong_slope(monkeypatch, fake):
    from slopekit import density

    slope_pair = density._family_slope_pair
    monkeypatch.setattr(density, "_family_slope_pair",
                        lambda d, k, g1: fake(slope_pair, d, k, g1))
    # with g_F = 2 the target 1/2 needs n* = 2 at epsilon/2 = 1/8
    message = r"^closed form n=\d+ is not the first n with gap <= 1/8$"
    with pytest.raises(SlopekitError, match=message):
        density_certificate(Fraction(1, 4), 1, 2, 8)


def test_certificate_quarter_eighth():
    cert = density_certificate(Fraction(1, 4), 1, 19, 8)
    # Farey targets with q <= 8 are a 1/8-net and every entry gap is <= 1/8
    assert all(entry.gap <= Fraction(1, 8) for entry in cert.entries)
    assert covering_radius(cert) <= Fraction(1, 4)
    assert len(cert.entries) == sum(1 for _ in farey_fractions(8))


def test_certificate_infeasible():
    with pytest.raises(NetInfeasibleError) as err:
        density_certificate(2, 1, 19, 1)
    assert "(8, 9)" in str(err.value)
    with pytest.raises(NetInfeasibleError) as err:
        density_certificate(Fraction(1, 100), 1, 19, 3)
    # both end gaps have radius 1/3; the 8-end is named
    assert str(err.value) == (
        "targets with q <= 3 are not an epsilon/2-net: largest uncovered gap is "
        "(8, 25/3) with covering radius 1/3 > 1/200"
    )


@pytest.mark.parametrize("q_max", [*range(2, 81), 240])
def test_farey_targets_have_radius_one_over_q(q_max):
    from slopekit.density import _farey_pairs

    # the radius that density_certificate takes in closed form
    targets = [9 - Fraction(q - c, q) for c, q in _farey_pairs(q_max)]
    assert targets == sorted(targets)
    assert _reference_widest_gap(targets) == (
        Fraction(1, q_max), (Fraction(8), 8 + Fraction(1, q_max)))


def test_farey_pairs_are_symmetric():
    from slopekit.density import _farey_pairs

    for q_max in range(1, 61):
        pairs = list(_farey_pairs(q_max))
        assert [(q - c, q) for c, q in _farey_pairs(q_max)] == pairs[::-1]


def test_net_is_refused_before_the_farey_walk(monkeypatch, capsys):
    from slopekit import density

    def no_walk(max_denominator):
        raise AssertionError("the Farey walk ran before the net check")

    monkeypatch.setattr(density, "_farey_pairs", no_walk)
    with pytest.raises(NetInfeasibleError) as err:
        density_certificate(Fraction(1, 2000), 1, 19, 3999)
    assert str(err.value).endswith("(8, 31993/3999) with covering radius 1/3999 > 1/4000")
    code = main(["density", "--epsilon", "1/2000", "--max-denominator", "3999"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": str(err.value), "module": "density", "type": "NetInfeasibleError"
    }


@pytest.mark.parametrize("epsilon", [Fraction(1, 2), Fraction(1, 4), Fraction(2, 7), Fraction(1, 60)])
def test_net_needs_q_at_least_two_over_epsilon(epsilon):
    q_max = int(2 / epsilon) - 1  # one below the smallest accepted Q
    with pytest.raises(NetInfeasibleError) as err:
        density_certificate(epsilon, 1, 19, q_max)
    assert str(err.value) == (
        f"targets with q <= {q_max} are not an epsilon/2-net: largest uncovered gap is "
        f"(8, {8 + Fraction(1, q_max)}) with covering radius 1/{q_max} > {epsilon / 2}"
    )
    assert density_certificate(epsilon, 1, 19, q_max + 1).epsilon == epsilon


def _reference_widest_gap(values):
    """Radius and first widest gap of sorted Fraction points, in Fraction arithmetic."""
    radius, gap = values[0] - 8, (Fraction(8), values[0])
    if 9 - values[-1] > radius:
        radius, gap = 9 - values[-1], (values[-1], Fraction(9))
    for left, right in zip(values, values[1:]):
        if (right - left) / 2 > radius:
            radius, gap = (right - left) / 2, (left, right)
    return radius, gap


def test_convergence_gap_matches_closed_form_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def case(draw):
        q = draw(st.integers(2, 60))
        target = TargetSlope(draw(st.integers(1, q - 1)), q)
        e, g_f = draw(st.integers(1, 6)), draw(st.integers(2, 30))
        if draw(st.booleans()):  # epsilon equal to the gap at some n: that n is accepted
            n = draw(st.integers(1, 500))
            return target, e, g_f, Fraction(target.p, target.q * (n * e * target.q * (g_f - 1) + 1)), n
        return target, e, g_f, draw(st.fractions(Fraction(1, 10**6), 2, max_denominator=10**7)), None

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(case())
    def check(args):
        target, e, g_f, epsilon, exact_n = args
        report = convergence_report(target, e, g_f, epsilon)
        p, q, n = target.p, target.q, report.n
        assert report.gap == Fraction(p, q * (n * e * q * (g_f - 1) + 1)) <= epsilon
        assert report.gap == abs(report.achieved - target.value)
        assert exact_n is None or (n == exact_n and report.gap == epsilon)

    check()


def test_widest_gap_and_covering_radius_match_fractions():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from slopekit.density import _widest_gap

    @st.composite
    def points(draw):
        m = draw(st.integers(1, 24))
        grid = [8 + Fraction(j, m) for j in range(m + 1)]  # has 8 and 9; equal gaps tie
        point = st.builds(lambda n, d: 8 + Fraction(n % (d + 1), d), st.integers(0, 60), st.integers(1, 60))
        loose = draw(st.lists(point, min_size=1, max_size=12))
        pool = draw(st.sampled_from((grid, loose, grid + loose)))
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25))  # duplicates
        return draw(st.permutations(values)), draw(st.integers(1, 3))

    @hypothesis.settings(max_examples=250, deadline=None, derandomize=True)
    @hypothesis.given(points())
    def check(args):
        values, scale = args
        expected = _reference_widest_gap(sorted(values))
        # unreduced pairs name the same points
        pairs = [(v.numerator * scale, v.denominator * scale) for v in sorted(values)]
        assert _widest_gap(pairs) == expected[0]

    check()


def test_certificate_takes_no_rows():
    # slope 17/2 claimed for (d, k) = (1, 1), whose family slope is 81/10
    forged = ConvergenceReport(1, 2, 17, 2, 1, 1, 1, 1, 17, 2, 0, 1)
    assert family_slope(FamilyParams(1, 1), 19) == Fraction(81, 10)
    for build in (
        lambda: DensityCertificate(Fraction(1), (forged,)),
        lambda: DensityCertificate(Fraction(1), 1, 19, 2, (forged,)),
        lambda: DensityCertificate(Fraction(1), 1, 19, 2, entries=(forged,)),
    ):
        with pytest.raises(TypeError):
            build()
    cert = DensityCertificate(Fraction(1, 4), 1, 19, 8)
    assert cert == density_certificate(Fraction(1, 4), 1, 19, 8)
    assert cert.entries == tuple(certificate_rows(Fraction(1, 4), 1, 19, 8))
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(cert, entries=(forged,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.entries = (forged,)
    # a replaced argument streams its own rows
    wider = dataclasses.replace(cert, max_denominator=9)
    assert wider.entries == tuple(certificate_rows(Fraction(1, 4), 1, 19, 9))
    for twin in (copy.copy(cert), pickle.loads(pickle.dumps(cert))):
        assert twin == cert and twin.entries == cert.entries


def test_certificate_tenth_twentieth():
    cert = density_certificate(Fraction(1, 10), 1, 19, 20)
    assert all(entry.gap <= Fraction(1, 20) for entry in cert.entries)
    spot = [e for e in cert.entries if (e.target.p, e.target.q) == (1, 2)]
    assert len(spot) == 1
    assert abs(spot[0].achieved - Fraction(17, 2)) <= Fraction(1, 20)


def test_certificate_slopes_in_open_interval():
    cert = density_certificate(Fraction(1, 4), 2, 19, 8)
    for entry in cert.entries:
        assert 8 < entry.achieved < 9
        assert (entry.params.d - 1) % 2 == 0


def test_csv_emission():
    cert = density_certificate(Fraction(1, 4), 1, 19, 8)
    buffer = io.StringIO()
    write_certificate_csv(cert, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == len(cert.entries) + 1
    first = cert.entries[0]
    # row fields are integers, exact numerators and denominators
    assert all(isinstance(x, int) for x in first)
    p, q, tn, td, e, n, d, k, sn, sd, gn, gd = first
    assert Fraction(tn, td) == 9 - Fraction(p, q)
    assert abs(Fraction(sn, sd) - Fraction(tn, td)) == Fraction(gn, gd)


def test_svg_emission_is_deterministic():
    cert = density_certificate(Fraction(1, 4), 1, 19, 8)
    one, two = io.StringIO(), io.StringIO()
    write_slope_svg(cert.entries, one)
    write_slope_svg(cert.entries, two)
    assert one.getvalue() == two.getvalue()
    assert one.getvalue().startswith("<svg ")
    assert one.getvalue().count("<circle") == len(cert.entries)


def test_svg_from_a_row_stream_equals_the_certificate_svg():
    cert = density_certificate(Fraction(1, 10), 1, 19, 20)
    held, streamed, iterated = io.StringIO(), io.StringIO(), io.StringIO()
    write_slope_svg(cert.entries, held)
    write_slope_svg(certificate_rows(Fraction(1, 10), 1, 19, 20), streamed)
    write_slope_svg(iter(cert.entries), iterated)
    assert streamed.getvalue() == iterated.getvalue() == held.getvalue()
    assert held.getvalue().count("<circle") == len(cert.entries) == 127


def test_certificate_rows_refuse_when_called_before_any_row(monkeypatch):
    from slopekit import density

    def no_walk(max_denominator):
        raise AssertionError("the Farey walk ran before a refusal")

    monkeypatch.setattr(density, "_farey_pairs", no_walk)
    # each call breaks every later rule too: the earliest rule is the one named
    for args, kind, message in [
        ((0, 0, 1, 0), SlopekitError, "^epsilon must be positive$"),
        ((Fraction(1, 100), 0, 1, 0), SlopekitError, "^max denominator must be >= 1$"),
        ((Fraction(1, 100), 0, 1, 1), SlopekitError, "^exponent must be >= 1$"),
        ((Fraction(1, 100), 1, 1, 1), SlopekitError, "^fiber genus must be >= 2$"),
        ((Fraction(1, 100), 1, 19, 1), NetInfeasibleError, r"^no reduced p/q .* all of \(8, 9\)"),
        ((Fraction(1, 100), 1, 19, 3), NetInfeasibleError, r"largest uncovered gap is \(8, 25/3\)"),
    ]:
        with pytest.raises(kind, match=message):
            certificate_rows(*args)


def test_a_late_wrong_slope_leaves_stdout_empty(monkeypatch, capsys):
    from slopekit import density

    slope_pair = density._family_slope_pair
    for fmt in ("csv", "json", "text"):
        calls = itertools.count(1)

        def late_fault(d, k, g1):
            num, den = slope_pair(d, k, g1)
            # slope + 1: the 2,000th call, at row 1,996 (n = 1), is no longer within epsilon/2
            return (num + den, den) if next(calls) == 2000 else (num, den)

        monkeypatch.setattr(density, "_family_slope_pair", late_fault)
        code = main(["density", "--epsilon", "1/120", "--max-denominator", "240", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        error = json.loads(captured.err)
        assert error["type"] == "SlopekitError" and "closed form n=" in error["error"]


@pytest.mark.parametrize("q_max", [4, 20, 240])
def test_row_stream_computes_the_target_net(monkeypatch, capsys, q_max):
    from slopekit import density

    epsilon = Fraction(2, q_max)
    cert = density_certificate(epsilon, 1, 19, q_max)
    walk = density._farey_pairs

    def skip_first(max_denominator):
        pairs = walk(max_denominator)
        next(pairs)  # the target 8 + 1/Q
        return pairs

    monkeypatch.setattr(density, "_farey_pairs", skip_first)
    message = (
        f"targets with q <= {q_max} are not an epsilon/2-net: uncovered gap "
        f"(8, {8 + Fraction(1, q_max - 1)}) with covering radius 1/{q_max - 1} > 1/{q_max}"
    )
    rows = certificate_rows(epsilon, 1, 19, q_max)  # the closed-form radius 1/Q passes
    with pytest.raises(NetInfeasibleError) as err:
        list(rows)
    assert str(err.value) == message
    code = main(["density", "--epsilon", str(epsilon), "--max-denominator", str(q_max)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": message, "module": "density", "type": "NetInfeasibleError"
    }
    # The slopes alone still cover [8, 9] to epsilon; the stream refuses the
    # net of targets it computes.
    assert _reference_widest_gap(sorted(e.achieved for e in cert.entries[1:]))[0] <= epsilon


@pytest.mark.parametrize("change, message", [
    # the target 9 - 1/Q dropped: the last gap is (9 - 1/(Q - 1), 9)
    (lambda pairs: pairs[:-1], "uncovered gap (332/37, 9) with covering radius 1/37 > 1/38"),
    # a target repeated, or two swapped: the targets must ascend
    (lambda pairs: pairs[:3] + pairs[2:], "target 289/36 does not lie above 289/36"),
    (lambda pairs: pairs[:3] + pairs[4:2:-1] + pairs[5:], "target 281/35 does not lie above 273/34"),
])
def test_row_stream_refuses_targets_out_of_order_or_short_of_nine(monkeypatch, change, message):
    from slopekit import density

    walk = density._farey_pairs
    monkeypatch.setattr(density, "_farey_pairs", lambda q_max: iter(change(list(walk(q_max)))))
    with pytest.raises(SlopekitError, match=re.escape(message) + "$"):
        list(certificate_rows(Fraction(1, 19), 1, 19, 38))


@pytest.mark.parametrize("forge, message", [
    # each member solved for epsilon, not epsilon/2
    (lambda first, p, q, e, g1, a, b: first(p, q, e, g1, 2 * a, b),
     r"^entry gap \S+ exceeds epsilon/2 1/38$"),
    # a row that states a gap other than its own |slope - target|
    (lambda first, p, q, e, g1, a, b: first(p, q, e, g1, a, b)._replace(gap_num=0, gap_den=1),
     r"^entry for target 9 - 37/38 states gap 0, not \|"),
])
def test_row_stream_checks_each_gap(monkeypatch, forge, message):
    from slopekit import density

    first = density._first_member
    monkeypatch.setattr(density, "_first_member", lambda *args: forge(first, *args))
    # with g_F = 2 the target 1/2 needs n = 9 at epsilon/2 = 1/38, so the gaps are not all small
    with pytest.raises(SlopekitError, match=message):
        list(certificate_rows(Fraction(1, 19), 1, 2, 38))


def test_row_stream_matches_the_certificate_and_its_renderings():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(2, 60), st.integers(1, 3), st.booleans())
    def check(q_max, exponent, tight):
        epsilon = Fraction(2, q_max) if tight else Fraction(1, q_max // 2)
        entries = density_certificate(epsilon, exponent, 19, q_max).entries
        assert tuple(certificate_rows(epsilon, exponent, 19, q_max)) == entries
        csv_text = io.StringIO()
        write_certificate_csv(entries, csv_text)
        for fmt, expected in [
            ("csv", csv_text.getvalue()),
            ("json", _density_json(epsilon, entries)),
            ("text", _density_text(epsilon, entries)),
        ]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["density", "--epsilon", str(epsilon), "--max-denominator",
                             str(q_max), "--exponent", str(exponent), "--format", fmt])
            assert code == 0 and out.getvalue() == expected

    check()
