"""Acceptance suite: one test per criterion, exact values, timed budgets.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Every numeric comparison is exact (integers or rationals); the
time budgets are wall-clock bounds for the whole criterion body.
"""

import random
import time
from fractions import Fraction
from math import gcd

from slopekit.covers import AbelianEpimorphism, subgroup_b1
from slopekit.density import (
    TargetSlope,
    convergence_report,
    density_certificate,
    family_slope,
    sequence_params,
)
from slopekit.group_core import (
    LaurentPolynomial,
    alexander_matrix,
    fox_derivative,
    free_abelianization,
    free_group,
    surface_group,
    torus_group,
    trefoil_group,
)
from slopekit.jumping_loci import (
    JumpEntry,
    JumpingLocusReport,
    TorsionCharacter,
    cartwright_steger_report,
    coprime_cover_b1,
    evaluate_alexander_matrix,
    hironaka_b1,
    scan_jumping_loci,
)
from slopekit.surface_invariants import (
    FamilyParams,
    branched_double_cover_invariants,
    cartwright_steger_profile,
    check_geography,
    cyclic_cover_invariants,
    family_invariants,
    slope,
)

from _oracles import laurent_add, laurent_mul, word_monomial


def run_criterion(number, description, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed <= budget_seconds
    print(
        f"ACCEPTANCE {number} {'PASS' if within else 'FAIL'}: {description} "
        f"[{elapsed * 1000:.2f} ms, budget {budget_seconds * 1000:.0f} ms]"
    )
    assert within, f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.3f}s)"


def test_criterion_1_slope_formula_exact():
    base, fibration = cartwright_steger_profile()

    def body():
        for d, k, expected in ((1, 1, Fraction(81, 10)), (2, 1, Fraction(90, 11))):
            via_formula = family_slope(FamilyParams(d, k), fibration.fiber_genus)
            cover = cyclic_cover_invariants(base, d, 1)
            via_surfaces = slope(
                branched_double_cover_invariants(cover, k, fibration)
            )
            assert via_formula == via_surfaces == expected

    run_criterion(1, "slope of S_{1,1} = 81/10 and S_{2,1} = 90/11, both routes", 0.001, body)


def test_criterion_2_chi_two_route_identity():
    def body():
        rng = random.Random(20260810)
        base, fibration = cartwright_steger_profile()
        for _ in range(10_000):
            d = rng.randint(1, 1000)
            k = rng.randint(1, 1000)
            # route one: the additive chi formula, written out by hand
            chi_direct = 2 * d + k * (fibration.fiber_genus - 1)
            # route two: Noether from the q and p_g formulas, by hand
            q_s = 2 * 1 + k - 1
            pg_s = 2 * d + k * fibration.fiber_genus
            assert chi_direct == 1 - q_s + pg_s
            surface = family_invariants(FamilyParams(d, k))
            assert surface.chi == chi_direct
            assert (surface.q, surface.pg) == (q_s, pg_s)

    run_criterion(2, "chi two-route identity on 10^4 random (d, k) in [1, 10^3]^2", 1.0, body)


def test_criterion_3_density_certificate():
    def body():
        cert = density_certificate(Fraction(1, 10), 1, 19, 20)
        assert all(entry.gap <= Fraction(1, 20) for entry in cert.entries)
        report = convergence_report(TargetSlope(1, 2), 1, 19, Fraction(1, 1000))
        assert report.n == 14
        assert report.gap == Fraction(1, 72 * 14 + 2)
        for n in (1, 5, 13, 14):
            params = sequence_params(TargetSlope(1, 2), 1, 19, n)
            gap = abs(family_slope(params, 19) - TargetSlope(1, 2).value)
            assert gap == Fraction(1, 72 * n + 2)

    run_criterion(3, "eps=1/10 Q=20 certificate complete; n*=14 for eps=10^-3", 1.0, body)


def test_criterion_4_hironaka_vs_reidemeister_schreier():
    def body():
        fixtures = (
            (torus_group(), lambda d: 2),
            (free_group(2), lambda d: d + 1),
            (surface_group(2), lambda d: 2 * d + 2),
        )
        for presentation, expected in fixtures:
            rank = free_abelianization(presentation).rank
            report = scan_jumping_loci(presentation, 8)
            for d in range(2, 9):
                alpha = AbelianEpimorphism.cyclic(d, tuple([1] + [0] * (rank - 1)))
                via_loci = hironaka_b1(report, alpha)
                via_rewriting = subgroup_b1(presentation, alpha)
                assert via_loci.b1 == via_rewriting == expected(d)

    run_criterion(
        4, "Hironaka = Reidemeister-Schreier on torus/free/genus-2, d in 2..8", 10.0, body
    )


def test_criterion_5_jumping_locus_fixtures():
    def body():
        torus_report = scan_jumping_loci(torus_group(), 6)
        assert torus_report.entries == ()
        assert torus_report.exponent == 1

        genus2_report = scan_jumping_loci(surface_group(2), 2)
        assert len(genus2_report.entries) == 15
        assert all(entry.depth == 2 for entry in genus2_report.entries)

        rows = evaluate_alexander_matrix(trefoil_group(), TorsionCharacter(6, (1,)))
        assert rows[0][0].is_zero()  # zeta_6^2 - zeta_6 + 1 = 0

    run_criterion(5, "torus N=6 silent; genus-2 N=2 has 15 depth-2 entries; trefoil zero", 5.0, body)


def test_criterion_6_coprime_cover_selection():
    def body():
        synthetic = {
            2: (JumpEntry(TorsionCharacter(2, (1, 0)), 1),),
            3: (JumpEntry(TorsionCharacter(3, (1, 0)), 2),),
            6: (
                JumpEntry(TorsionCharacter(2, (1, 0)), 1),
                JumpEntry(TorsionCharacter(3, (0, 1)), 2),
            ),
            12: (
                JumpEntry(TorsionCharacter(4, (1, 0)), 1),
                JumpEntry(TorsionCharacter(6, (1, 1)), 1),
            ),
        }
        for exponent, entries in synthetic.items():
            report = JumpingLocusReport(None, 2, entries)
            assert report.exponent == exponent
            for lam in range(0, 11):
                d = lam * exponent + 1
                result = coprime_cover_b1(report, d, (1, 0))
                assert result.b1 == 2
                assert result.certificate is not None
                assert result.certificate.exponent == exponent
        # non-coprime d with a factoring character: contribution = its depth
        for exponent in (2, 3, 6, 12):
            depth = 2
            entries = (
                JumpEntry(TorsionCharacter(exponent, (1, 0)), depth),  # factors
                JumpEntry(TorsionCharacter(exponent, (1, 1)), 1),  # does not factor
            )
            report = JumpingLocusReport(None, 2, entries)
            result = coprime_cover_b1(report, exponent, (1, 0))
            assert result.certificate is None
            assert result.b1 == 2 + depth

    run_criterion(6, "d = lambda e + 1 keeps b1 with certificate; factoring char adds depth", 1.0, body)


def test_criterion_7_trivial_loci_fixture():
    def body():
        report = cartwright_steger_report()
        count = 0
        for n1 in range(1, 11):
            for n2 in range(n1, 101):
                if n2 % n1 or n1 * n2 > 100:
                    continue
                for matrix in (((1, 0), (0, 1)), ((1, 1), (0, 1))):
                    alpha = AbelianEpimorphism(2, (n1, n2), matrix)
                    result = hironaka_b1(report, alpha)
                    assert result.b1 == 2
                    assert result.b1 // 2 == 1  # q of the cover
                    count += 1
        assert count > 100  # the enumeration is not vacuous

    run_criterion(7, "trivial loci: every abelian cover of order <= 100 has b1 = 2, q = 1", 1.0, body)


def test_criterion_8_fox_product_rule():
    def body():
        rng = random.Random(88)
        groups = (torus_group(), free_group(3))
        for _ in range(1000):
            presentation = groups[rng.randrange(2)]
            g = presentation.generator_count
            u = tuple(rng.choice([1, -1]) * rng.randint(1, g) for _ in range(rng.randrange(9)))
            v = tuple(rng.choice([1, -1]) * rng.randint(1, g) for _ in range(rng.randrange(9)))
            index = rng.randint(1, g)
            lhs = fox_derivative(presentation, u + v, index)
            rhs = laurent_add(
                fox_derivative(presentation, u, index),
                laurent_mul(word_monomial(presentation, u), fox_derivative(presentation, v, index)),
            )
            assert lhs == rhs
        trefoil_row = alexander_matrix(trefoil_group())[0]
        assert trefoil_row[0] == LaurentPolynomial(1, {(0,): 1, (1,): -1, (2,): 1})

    run_criterion(8, "Fox product rule on 10^3 random pairs; trefoil entry 1 - t + t^2", 1.0, body)


def test_criterion_9_geography_containment():
    def body():
        for d in range(1, 101):
            for k in range(1, 101):
                value = family_slope(FamilyParams(d, k), 19)
                assert 8 < value < 9
        # spot-check the surface route agrees and passes the geography window
        for d in (1, 7, 50, 100):
            for k in (1, 9, 60, 100):
                surface = family_invariants(FamilyParams(d, k))
                assert check_geography(surface)
                assert slope(surface) == family_slope(FamilyParams(d, k), 19)

    run_criterion(9, "slopes of S_{d,k} for (d, k) in [1,100]^2 lie strictly in (8, 9)", 1.0, body)
