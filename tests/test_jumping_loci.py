"""Cyclotomic arithmetic, twisted h^1, scans, Hironaka, coprime covers."""

import copy
import dataclasses
import gc
import itertools
import json
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import pytest

from slopekit import jumping_loci
from slopekit.cli import _json_text, _scan_json
from slopekit.covers import AbelianEpimorphism, subgroup_b1
from slopekit.errors import SlopekitError
from slopekit.group_core import (
    GroupPresentation,
    abelianization,
    alexander_matrix,
    cyclic_group,
    free_abelianization,
    free_group,
    surface_group,
    torus_group,
    trefoil_group,
)
from slopekit.jumping_loci import (
    CharacterDomainError,
    CyclotomicNumber,
    JumpEntry,
    JumpingLocusReport,
    TorsionCharacter,
    cartwright_steger_report,
    coprime_cover_b1,
    cyclotomic_polynomial,
    cyclotomic_rank,
    evaluate_alexander_matrix,
    hironaka_b1,
    scan_jumping_loci,
    twisted_h1,
    _fp_root_powers,
    _is_prime,
    _rank_mod_p,
)

from _oracles import (
    enumerate_characters,
    evaluate_laurent,
    kernel_lattice_hironaka_b1,
    pairing,
    random_unimodular,
    rank_mod_p,
    root_powers,
)

# ---------------------------------------------------------------------------
# Cyclotomic field arithmetic


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_relations():
    # zeta_6 is a root of Phi_6 = z^2 - z + 1
    assert root_powers(6, {0: 1, 1: -1, 2: 1}).is_zero()
    assert root_powers(6, {6: 1}).coeffs == (1, 0)
    assert root_powers(6, {3: 1}).coeffs == (-1, 0)
    # sum of all 5-th roots of unity vanishes
    assert root_powers(5, {k: 1 for k in range(5)}).is_zero()


def test_cyclotomic_arithmetic_is_exact():
    # 3 - 2 z + z^3 at m = 5, with powers given out of range and repeated
    w = root_powers(5, {0: 3, 6: -2, -2: 1})
    assert w.coeffs == (3, -2, 0, 1)
    assert w == CyclotomicNumber(5, [3, -2, 0, 1])
    assert w == CyclotomicNumber(5, [3, -2, 0, 1, 0])
    assert w != CyclotomicNumber(10, [3, -2, 0, 1])
    # equality holds only between two CyclotomicNumbers
    assert CyclotomicNumber(5, [1]) != 1
    assert CyclotomicNumber(1, [0]) != 0
    # z^4 = -(1 + z + z^2 + z^3) mod Phi_5
    assert CyclotomicNumber(5, [0, 0, 0, 0, 1]).coeffs == (-1, -1, -1, -1)
    assert str(w) == "3 - 2*z + z^3"
    assert w.to_json() == {"modulus": 5, "coefficients": ["3", "-2", "0", "1"]}
    with pytest.raises(ValueError):
        cyclotomic_rank([[CyclotomicNumber(4, [0, 1]), CyclotomicNumber(3, [0, 1])]])


def test_constructor_takes_ints_only():
    with pytest.raises(TypeError):
        CyclotomicNumber(5, [Fraction(1, 2)])
    with pytest.raises(TypeError):
        CyclotomicNumber(5, [1.0])
    with pytest.raises(TypeError):
        CyclotomicNumber(5, [Fraction(3)])


def test_non_integral_coefficient_arithmetic_and_rank():
    # Q(zeta_5) coefficients are refused; scaled by 4 into Z[zeta_5], the
    # former cases keep their ranks
    with pytest.raises(TypeError):
        CyclotomicNumber(5, [Fraction(1, 2), 0, Fraction(-3, 4)])
    w = CyclotomicNumber(5, [2, 0, -3])
    z = CyclotomicNumber(5, [0, 1])
    wz = CyclotomicNumber(5, [0, 2, 0, -3])
    zero = CyclotomicNumber(5, [])
    # the second row is 4 times the first
    four = [CyclotomicNumber(5, [4 * c for c in x.coeffs]) for x in (w, wz)]
    assert cyclotomic_rank([[w, wz], four]) == 1
    # determinant (w - z)(w + z) is nonzero, and 1 for the unimodular pair
    assert cyclotomic_rank([[w, z], [z, w]]) == 2
    one, one_plus_z2 = CyclotomicNumber(5, [1]), CyclotomicNumber(5, [1, 0, 1])
    assert cyclotomic_rank([[one, z], [z, one_plus_z2]]) == 2
    assert cyclotomic_rank([[zero, zero], [zero, zero]]) == 0
    assert cyclotomic_rank([]) == 0


def test_alexander_matrix_entries_are_ints():
    genus2 = surface_group(2)
    for xi in (TorsionCharacter(5, (1, 2, 3, 4)), TorsionCharacter(12, (1, 0, 7, 6)),
               TorsionCharacter(1, (0,) * 4)):
        rows = evaluate_alexander_matrix(genus2, xi)
        assert all(type(c) is int for row in rows for x in row for c in x.coeffs)


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in expected)


# ---------------------------------------------------------------------------
# Torsion characters


def test_character_canonicalization():
    assert TorsionCharacter(4, (2, 0)) == TorsionCharacter(2, (1, 0))
    assert TorsionCharacter(6, (2,)) == TorsionCharacter(3, (1,))
    assert TorsionCharacter(6, (8, 2)) == TorsionCharacter(3, (1, 1))
    trivial = TorsionCharacter(7, (0, 0))
    assert trivial.modulus == 1 and trivial.exponents == (0, 0)
    assert TorsionCharacter(1, (0,) * 2) == trivial


def test_character_takes_ints_only():
    # truncation would read each of these as TorsionCharacter(2, (1, 0))
    with pytest.raises(TypeError):
        TorsionCharacter(2.5, (1, 0))
    with pytest.raises(TypeError):
        TorsionCharacter(2, (1.7, 0))
    with pytest.raises(TypeError):
        TorsionCharacter.from_json_dict({"modulus": 2.5, "exponents": [1, 0]})
    assert TorsionCharacter.from_json_dict({"modulus": 2, "exponents": [1, 0]}) == (
        TorsionCharacter(2, (1, 0)))


def test_jump_entry_json_takes_ints_only():
    # truncation would load the first as order 6, depth 1
    for bad in ({"modulus": 6.9, "exponents": [1, 0], "depth": 1.9},
                {"modulus": 6, "exponents": [1, 0], "depth": 1.9},
                {"modulus": 6, "exponents": [1.0, 0], "depth": 1}):
        with pytest.raises(TypeError):
            JumpEntry.from_json_dict(bad)
    entry = JumpEntry.from_json_dict({"modulus": 6, "exponents": [1, 0], "depth": 1})
    assert entry == JumpEntry(TorsionCharacter(6, (1, 0)), 1)


def test_character_order_and_conjugate():
    xi = TorsionCharacter(6, (1,))
    assert xi.order == 6
    # the conjugate's exponents are the negatives, canonicalized mod the order
    assert TorsionCharacter(6, (-1,)) == TorsionCharacter(6, (5,))
    assert TorsionCharacter(6, (-5,)) == xi
    assert pairing(xi, (2,)) == 2
    assert pairing(TorsionCharacter(2, (1, 0)), (3, 5)) == 1


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluate_examples():
    torus = torus_group()
    rows = evaluate_alexander_matrix(torus, TorsionCharacter(2, (1, 0)))
    assert rows[0][0].is_zero()
    assert rows[0][1].coeffs == (-2,)

    # trivial character gives the integer exponent matrix (relators as rows)
    rows = evaluate_alexander_matrix(trefoil_group(), TorsionCharacter(1, (0,) * 1))
    assert [x.coeffs[0] for x in rows[0]] == [1, -1]

    rows = evaluate_alexander_matrix(trefoil_group(), TorsionCharacter(6, (1,)))
    assert rows[0][0].is_zero()  # 1 - zeta_6 + zeta_6^2 = 0


def test_evaluation_matches_symbolic_substitution():
    # dual route: specialize the symbolic Alexander matrix and compare
    import itertools

    from slopekit.group_core import free_abelianization

    for presentation in (torus_group(), trefoil_group(), surface_group(2), free_group(2)):
        symbolic = alexander_matrix(presentation)
        b = free_abelianization(presentation).rank
        for m in range(1, 5):
            for exps in itertools.product(range(m), repeat=b):
                xi = TorsionCharacter(m, exps)
                direct = evaluate_alexander_matrix(presentation, xi)
                for row_d, row_s in zip(direct, symbolic):
                    for entry_d, entry_s in zip(row_d, row_s):
                        substituted = evaluate_laurent(entry_s, xi)
                        assert entry_d.modulus == substituted.modulus
                        assert entry_d == substituted


def test_character_rank_mismatch_rejected():
    with pytest.raises(CharacterDomainError):
        evaluate_alexander_matrix(torus_group(), TorsionCharacter(2, (1,)))
    with pytest.raises(CharacterDomainError):
        twisted_h1(torus_group(), TorsionCharacter(3, (1, 1, 1)))
    with pytest.raises(CharacterDomainError, match="character has rank 3"):
        twisted_h1(torus_group(), TorsionCharacter(1, (0,) * 3))


# ---------------------------------------------------------------------------
# Twisted h^1


def test_twisted_h1_examples():
    torus = torus_group()
    assert twisted_h1(torus, TorsionCharacter(2, (1, 0))) == 0
    assert twisted_h1(torus, TorsionCharacter(1, (0,) * 2)) == 2
    genus2 = surface_group(2)
    assert twisted_h1(genus2, TorsionCharacter(2, (1, 1, 0, 1))) == 2
    assert twisted_h1(genus2, TorsionCharacter(5, (1, 2, 3, 4))) == 2
    assert twisted_h1(free_group(2), TorsionCharacter(3, (1, 2))) == 1
    # groups with torsion route through evaluation: Z/5 has h^1 = 0 at 1
    assert twisted_h1(cyclic_group(5), TorsionCharacter(1, (0,) * 0)) == 0


def test_twisted_h1_trivial_character_is_free_rank():
    for presentation, rank in (
        (torus_group(), 2),
        (trefoil_group(), 1),
        (surface_group(2), 4),
        (free_group(3), 3),
        (cyclic_group(4), 0),
    ):
        assert twisted_h1(presentation, TorsionCharacter(1, (0,) * rank)) == rank


def test_twisted_h1_is_galois_invariant():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from slopekit.group_core import GroupPresentation, free_abelianization

    @st.composite
    def group_and_character(draw):
        gens = draw(st.integers(2, 3))
        letters = st.integers(1, gens).flatmap(lambda i: st.sampled_from((i, -i)))
        relator = draw(st.lists(letters, min_size=1, max_size=10))
        presentation = GroupPresentation(gens, (relator,))
        rank = free_abelianization(presentation).rank
        m = draw(st.integers(2, 9))
        exponents = tuple(draw(st.lists(st.integers(0, m - 1), min_size=rank, max_size=rank)))
        return presentation, m, exponents

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(group_and_character())
    def check(case):
        presentation, m, exponents = case
        h1 = twisted_h1(presentation, TorsionCharacter(m, exponents))
        for u in range(2, m):
            if gcd(u, m) == 1:
                conjugate = TorsionCharacter(m, tuple(u * e for e in exponents))
                assert twisted_h1(presentation, conjugate) == h1

    check()


def test_twisted_h1_matches_exact_elimination():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from slopekit.group_core import free_abelianization

    @st.composite
    def group_and_character(draw):
        gens = draw(st.integers(1, 4))
        letters = st.integers(1, gens).flatmap(lambda i: st.sampled_from((i, -i)))
        words = draw(st.lists(st.lists(letters, min_size=1, max_size=12), max_size=3))
        relators = []
        for word in words:
            # balancing the last generator keeps a free part in H1; the
            # other generators may leave torsion
            e = sum(1 if x > 0 else -1 for x in word if abs(x) == gens)
            relators.append(word + [-gens if e > 0 else gens] * abs(e))
        presentation = GroupPresentation(gens, tuple(relators))
        rank = free_abelianization(presentation).rank
        m = draw(st.integers(2, 12))
        rest = draw(st.lists(st.integers(0, m - 1), min_size=rank - 1, max_size=rank - 1))
        return presentation, TorsionCharacter(m, (draw(st.integers(1, m - 1)), *rest))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(group_and_character())
    def check(case):
        presentation, xi = case
        exact = cyclotomic_rank(evaluate_alexander_matrix(presentation, xi))
        assert twisted_h1(presentation, xi) == presentation.generator_count - 1 - exact

    check()


def test_one_relator_h1_matches_exact_elimination():
    # One relator and g >= 2 stop the F_p walk at the first column that is
    # complete and nonzero mod p; every class of one-relator group below must
    # still give g - 1 - the exact rank.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    seen = set()

    @st.composite
    def group_and_character(draw):
        gens = draw(st.integers(1, 4))
        used = draw(st.lists(st.integers(1, gens), min_size=1, max_size=gens, unique=True))
        letters = st.sampled_from(used).flatmap(lambda i: st.sampled_from((i, -i)))
        relator = draw(st.lists(letters, max_size=12))
        if draw(st.booleans()):
            # exponent sums 0: every generator image is a standard basis vector
            relator += [-x for x in draw(st.permutations(relator))]
        presentation = GroupPresentation(gens, (relator,))
        rank = free_abelianization(presentation).rank
        m = draw(st.integers(1, 12))
        exponents = draw(st.lists(st.integers(0, m - 1), min_size=rank, max_size=rank))
        return presentation, TorsionCharacter(m, tuple(exponents))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(group_and_character())
    @hypothesis.example((GroupPresentation(1, ((1, 1, 1),)), TorsionCharacter(1, ())))
    @hypothesis.example((GroupPresentation(1, ((),)), TorsionCharacter(4, (1,))))
    @hypothesis.example((GroupPresentation(3, ((1, 2, -1, -2),)), TorsionCharacter(5, (1, 2, 3))))
    @hypothesis.example((GroupPresentation(2, ((1, 1, 2, -1, -1, -2),)), TorsionCharacter(6, (3, 1))))
    def check(case):
        presentation, xi = case
        g = presentation.generator_count
        evaluator = jumping_loci._evaluator(presentation)
        seen.add("g = 1" if g == 1 else "basis" if evaluator.pick is not None else "other")
        used = {abs(x) for x in presentation.relators[0]}
        if len(used) < g:
            seen.add("omitted generator")
        if xi.modulus == 1:
            assert twisted_h1(presentation, xi) == evaluator.rank
            return
        seen.add("nontrivial")
        exact = cyclotomic_rank(evaluate_alexander_matrix(presentation, xi))
        assert twisted_h1(presentation, xi) == g - 1 - exact

    check()
    assert seen == {"g = 1", "basis", "other", "omitted generator", "nontrivial"}


def test_a_vanishing_one_relator_row_reaches_the_exact_fallback(monkeypatch):
    # <x, y | x^2 y x^-2 y^-1>: the Fox row (1 + x - x^2 y x^-1 - x^2 y x^-2,
    # x^2 - 1) vanishes exactly when chi(x) = -1, and nowhere else.  No column
    # can certify those characters, so each Galois orbit of them must reach
    # the Z[zeta_m] rank once, at its first member; the scan's table of
    # pending conjugates answers the others.
    group = GroupPresentation(2, ((1, 1, 2, -1, -1, -2),))
    original = jumping_loci.evaluate_alexander_matrix
    exact = []

    def counted(presentation, xi):
        exact.append(xi)
        return original(presentation, xi)

    monkeypatch.setattr(jumping_loci, "evaluate_alexander_matrix", counted)
    report = scan_jumping_loci(group, 8)
    assert report.b1 == 2 and report.exponent == 24
    assert [e.depth for e in report.entries] == [1] * 12
    orders = [e.character.modulus for e in report.entries]
    assert [orders.count(m) for m in (2, 4, 6, 8)] == [2, 2, 4, 4]
    assert exact == [
        TorsionCharacter(m, exps)
        for m, exps in [(2, (1, 0)), (2, (1, 1)), (4, (2, 1)), (6, (3, 1)), (6, (3, 2)), (8, (4, 1))]
    ]


def test_fp_root_table():
    for n in (2047, 1373653, 3215031751, 3825123056546413051):  # strong pseudoprimes
        assert not _is_prime(n)
    assert [n for n in range(200) if _is_prime(n)] == [
        n for n in range(2, 200) if all(n % d for d in range(2, n))
    ]
    for m in range(2, 65):
        p, powers = _fp_root_powers(m)
        omega = powers[1]
        assert p > 2**30 and p % m == 1
        assert all(p % d for d in range(3, isqrt(p) + 1, 2))
        assert powers == tuple(pow(omega, k, p) for k in range(m))
        assert len(set(powers)) == m and pow(omega, m, p) == 1  # exact order m
        phi_at_omega = sum(c * pow(omega, k, p) for k, c in enumerate(cyclotomic_polynomial(m)))
        assert phi_at_omega % p == 0


def test_fp_root_table_is_bounded():
    assert _fp_root_powers.cache_info().maxsize is not None


def test_twisted_h1_falls_back_when_p_divides_a_minor(monkeypatch):
    # <a, b | a^7 b a^-7 b^-1> at a -> 1, b -> zeta_3: the Fox row is
    # (7 (1 - zeta_3), 0), of rank 1 over Q(zeta_3) but 0 mod 7.
    group = GroupPresentation(2, ((1,) * 7 + (2,) + (-1,) * 7 + (-2,),))
    xi = TorsionCharacter(3, (0, 1))
    exact_calls = []

    def counted_rank(rows):
        exact_calls.append(rows)
        return cyclotomic_rank(rows)

    monkeypatch.setattr(jumping_loci, "cyclotomic_rank", counted_rank)
    assert twisted_h1(group, xi) == 0
    assert not exact_calls  # the F_p rank reached its bound
    table = jumping_loci._fp_root_powers
    monkeypatch.setattr(
        jumping_loci, "_fp_root_powers", lambda m: (7, (1, 2, 4)) if m == 3 else table(m)
    )
    assert twisted_h1(group, xi) == 0
    assert len(exact_calls) == 1


@pytest.mark.parametrize("p", [7, 13, 31])
def test_fraction_free_rank_mod_p_matches_the_inverse_oracle(p):
    # small primes and rows that are combinations of a few others, so that
    # entries cancel and ranks fall short; zero rows and every bound, also
    # bounds below the rank
    rng = random.Random(p)
    for _ in range(400):
        cols = rng.randint(1, 6)
        base = [[rng.randrange(p) for _ in range(cols)] for _ in range(rng.randint(1, 4))]
        rows = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.randrange(4)
            if kind == 0:
                rows.append([0] * cols)
            else:
                coeffs = [rng.randrange(p) for _ in base]
                rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) % p for j in range(cols)])
        full = rank_mod_p([r[:] for r in rows], p, cols + 1)
        for bound in range(0, cols + 2):
            expected = rank_mod_p([r[:] for r in rows], p, bound)
            assert expected == min(full, bound)
            assert _rank_mod_p([r[:] for r in rows], p, bound) == expected


def _scanned_characters(monkeypatch, presentation, bound):
    """The characters a scan passes to twisted_h1, in call order."""
    original = jumping_loci.twisted_h1
    seen = []

    def recorded(group, xi):
        seen.append(xi)
        return original(group, xi)

    with monkeypatch.context() as patch:
        patch.setattr(jumping_loci, "twisted_h1", recorded)
        scan_jumping_loci(presentation, bound)
    return seen


def test_scanned_characters_and_entries_are_constructor_built_values(monkeypatch):
    report = scan_jumping_loci(trefoil_group(), 12)
    scanned = _scanned_characters(monkeypatch, free_group(2), 4) + [
        e.character for e in report.entries
    ]
    for xi in scanned:
        built = TorsionCharacter(xi.modulus, xi.exponents)
        assert xi == built and hash(xi) == hash(built)
        assert type(xi) is TorsionCharacter and type(xi.exponents) is tuple
        for name in ("modulus", "exponents"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(xi, name, getattr(xi, name))
    for entry in scan_jumping_loci(surface_group(2), 3).entries + report.entries:
        built = JumpEntry(TorsionCharacter(entry.character.modulus, entry.character.exponents),
                          entry.depth)
        assert entry == built and hash(entry) == hash(built)
        for name in ("character", "depth"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(entry, name, getattr(entry, name))


def test_enumeration_is_canonical_and_ordered(monkeypatch):
    expected = sorted(
        {TorsionCharacter(m, e) for m in range(2, 7) for e in itertools.product(range(m), repeat=3)}
        - {TorsionCharacter(1, (0,) * 3)},
        key=lambda xi: (xi.modulus, xi.exponents),
    )
    assert list(enumerate_characters(3, 6)) == expected
    # the scan's own walk over the moduli, prime (no gcd taken) or not
    assert _scanned_characters(monkeypatch, free_group(3), 6) == expected


def test_conjugation_symmetry():
    def conjugate(xi):
        return TorsionCharacter(xi.modulus, tuple(-e for e in xi.exponents))

    fixtures = [
        (torus_group(), 5),
        (surface_group(2), 3),
        (free_group(2), 4),
        (trefoil_group(), 6),
    ]
    for presentation, bound in fixtures:
        report = scan_jumping_loci(presentation, bound)
        from slopekit.group_core import free_abelianization

        rank = free_abelianization(presentation).rank
        for xi in enumerate_characters(rank, bound):
            assert twisted_h1(presentation, xi) == twisted_h1(presentation, conjugate(xi))
        # entry set is closed under conjugation with matching depths
        depths = {e.character: e.depth for e in report.entries}
        for xi, depth in depths.items():
            assert depths.get(conjugate(xi)) == depth


# ---------------------------------------------------------------------------
# Scans


def test_scan_torus_is_silent():
    report = scan_jumping_loci(torus_group(), 6)
    assert report.entries == ()
    assert report.exponent == 1
    assert report.b1 == 2
    assert report.scan_bound == 6


def test_scan_genus2_order2():
    report = scan_jumping_loci(surface_group(2), 2)
    assert len(report.entries) == 15  # all nontrivial order-2 characters of (Z2)^4
    assert all(e.depth == 2 for e in report.entries)
    assert report.exponent == 2


def test_scan_free_group_order2():
    report = scan_jumping_loci(free_group(2), 2)
    assert len(report.entries) == 3
    assert all(e.depth == 1 for e in report.entries)


def test_scan_requires_positive_bound():
    with pytest.raises(ValueError):
        scan_jumping_loci(torus_group(), 0)


def test_scan_is_deterministic():
    first = scan_jumping_loci(surface_group(2), 3)
    second = scan_jumping_loci(surface_group(2), 3)
    assert first == second
    assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())


def test_scan_deduplicates_characters():
    report = scan_jumping_loci(free_group(2), 4)
    seen = set()
    for entry in report.entries:
        assert entry.character not in seen
        seen.add(entry.character)
        assert entry.character.modulus == entry.character.order  # canonical


def _jordan_totient(rank, m):
    """J_rank(m) = m^rank prod_{p | m} (1 - p^-rank), the number of characters
    of Z^rank of exact order m."""
    result, n, p = m**rank, m, 2
    while n > 1:
        if n % p == 0:
            result = result // p**rank * (p**rank - 1)
            while n % p == 0:
                n //= p
        p += 1
    return result


@pytest.mark.parametrize(
    ("presentation", "rank", "bound", "expected"),
    [(surface_group(2), 4, 2, 15), (surface_group(2), 4, 8, 8399), (torus_group(), 2, 6, 71)],
)
def test_scan_calls_twisted_h1_once_per_canonical_character(
    monkeypatch, presentation, rank, bound, expected
):
    assert sum(_jordan_totient(rank, m) for m in range(2, bound + 1)) == expected
    original = jumping_loci.twisted_h1
    seen = []

    def counted(group, xi):
        seen.append((xi.modulus, xi.exponents))
        return original(group, xi)

    monkeypatch.setattr(jumping_loci, "twisted_h1", counted)
    scan_jumping_loci(presentation, bound)
    assert len(seen) == len(set(seen)) == expected
    assert seen == sorted(seen)
    assert all(gcd(m, *exps) == 1 and max(exps) < m for m, exps in seen)


def test_scan_report_matches_public_constructor_and_exact_ranks():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def presentation_and_bound(draw):
        gens = draw(st.integers(1, 4))
        letters = st.integers(1, gens).flatmap(lambda i: st.sampled_from((i, -i)))
        words = draw(st.lists(st.lists(letters, min_size=1, max_size=10), min_size=1, max_size=3))
        return GroupPresentation(gens, tuple(tuple(w) for w in words)), draw(st.integers(2, 4))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(presentation_and_bound())
    def check(case):
        presentation, bound = case
        report = scan_jumping_loci(presentation, bound)
        public = JumpingLocusReport(bound, report.b1, report.entries)
        assert report == public
        assert report.entries == public.entries and report.exponent == public.exponent
        depths = {e.character: e.depth for e in report.entries}
        g = presentation.generator_count
        for xi in enumerate_characters(report.b1, bound):
            exact = g - 1 - cyclotomic_rank(evaluate_alexander_matrix(presentation, xi))
            assert depths.get(xi, 0) == twisted_h1(presentation, xi) == exact

    check()


def test_scan_passes_its_own_presentation_to_twisted_h1(monkeypatch):
    jumping_loci._evaluator.cache_clear()
    genus2 = surface_group(2)
    twin = GroupPresentation(4, ((1, 2, -1, -2, 3, 4, -3, -4),))
    assert twin == genus2 and twin is not genus2
    original, evaluate = jumping_loci.twisted_h1, jumping_loci._Evaluator.h1
    received, evaluated = [], []

    def counted(presentation, xi):
        received.append(presentation)
        return original(presentation, xi)

    def counted_h1(evaluator, xi):
        evaluated.append(xi)
        return evaluate(evaluator, xi)

    monkeypatch.setattr(jumping_loci, "twisted_h1", counted)
    monkeypatch.setattr(jumping_loci._Evaluator, "h1", counted_h1)
    reports = []
    for group in (genus2, twin):
        received.clear()
        evaluated.clear()
        reports.append(scan_jumping_loci(group, 3))
        assert len(received) == 95  # J_4(2) + J_4(3) characters
        assert all(presentation is group for presentation in received)
        assert len(evaluated) == 55  # one per Galois orbit: 15 + 80 / 2
    assert reports[0] == reports[1]


def _one_or_three_relator_groups(st):
    """Random groups with one or three relators on 1-3 generators, and a
    scan bound up to 11, so that phi(m) runs from 1 to 10."""

    @st.composite
    def groups(draw):
        gens = draw(st.integers(1, 3))
        letters = st.integers(1, gens).flatmap(lambda i: st.sampled_from((i, -i)))
        count = draw(st.sampled_from((1, 3)))
        words = draw(st.lists(st.lists(letters, min_size=1, max_size=10),
                              min_size=count, max_size=count))
        if draw(st.booleans()):
            # exponent sums 0: a free part of rank gens, and jumps to find
            words = [w + [-x for x in draw(st.permutations(w))] for w in words]
        presentation = GroupPresentation(gens, tuple(tuple(w) for w in words))
        return presentation, draw(st.integers(2, 11))

    return groups()


def test_scan_report_equals_per_character_twisted_h1_outside_a_scan():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(_one_or_three_relator_groups(st))
    def check(case):
        presentation, bound = case
        report = scan_jumping_loci(presentation, bound)
        assert jumping_loci._scanning is None
        entries = []
        for xi in enumerate_characters(report.b1, bound):
            depth = twisted_h1(presentation, xi)
            if depth >= 1:
                entries.append(JumpEntry(xi, depth))
        assert report == JumpingLocusReport(bound, report.b1, tuple(entries))

    check()


def test_conjugate_table_drains_per_modulus_and_is_dropped_after_an_aborted_scan(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    original = jumping_loci.twisted_h1

    class Abort(Exception):
        pass

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(_one_or_three_relator_groups(st), st.integers(0, 400))
    def check(case, abort_at):
        presentation, bound = case
        pending = []  # (modulus, table size after the call)

        def recorded(group, xi):
            depth = original(group, xi)
            pending.append((xi.modulus, len(jumping_loci._scanning.pending)))
            return depth

        with monkeypatch.context() as patch:
            patch.setattr(jumping_loci, "twisted_h1", recorded)
            expected = scan_jumping_loci(presentation, bound)
        assert jumping_loci._scanning is None
        # the last character of each modulus leaves the table empty
        for (m, size), (after, _) in zip(pending, pending[1:] + [(None, None)]):
            if after != m:
                assert size == 0, (m, size)

        calls = []

        def aborting(group, xi):
            if len(calls) == abort_at:
                raise Abort
            calls.append(xi)
            return original(group, xi)

        with monkeypatch.context() as patch:
            patch.setattr(jumping_loci, "twisted_h1", aborting)
            try:
                scan_jumping_loci(presentation, bound)
            except Abort:
                pass
        assert jumping_loci._scanning is None
        # nothing stale answers a later scan or a direct call
        assert scan_jumping_loci(presentation, bound) == expected
        for xi in calls:
            assert twisted_h1(presentation, xi) == jumping_loci._Evaluator(presentation).h1(xi)

    check()


def _evaluator_slots(evaluator):
    return [getattr(evaluator, name) for name in jumping_loci._Evaluator.__slots__]


def _same_objects(before, after):
    return len(before) == len(after) and all(x is y for x, y in zip(before, after))


def test_a_direct_twisted_h1_call_stores_no_conjugates():
    group = surface_group(2)
    evaluator = jumping_loci._evaluator(group)
    slots = _evaluator_slots(evaluator)
    xi = TorsionCharacter(10007, (1, 2, 3, 4))
    assert _is_prime(10007)
    assert twisted_h1(group, xi) == 2
    assert jumping_loci._scanning is None
    assert _same_objects(slots, _evaluator_slots(evaluator))


def _groups_of_free_rank_up_to_four(st):
    """Random groups with one to three relators on 1-4 generators: free
    ranks 0-4, some with torsion in H1, and a scan bound up to 8 (up to 5
    and 4 at ranks 3 and 4, which keeps the exact eliminations few)."""

    @st.composite
    def groups(draw):
        gens = draw(st.integers(1, 4))
        letters = st.integers(1, gens).flatmap(lambda i: st.sampled_from((i, -i)))
        words = []
        for _ in range(draw(st.integers(1, 3))):
            word = draw(st.lists(letters, min_size=1, max_size=8))
            kind = draw(st.sampled_from(("random", "balanced", "torsion")))
            if kind != "random":
                # exponent sums 0: the relator leaves the free rank alone
                word += [-x for x in draw(st.permutations(word))]
            if kind == "torsion":
                word = [draw(st.integers(1, gens))] * draw(st.integers(2, 3)) + word
            words.append(word)
        presentation = GroupPresentation(gens, tuple(tuple(w) for w in words))
        rank = free_abelianization(presentation).rank
        return presentation, draw(st.integers(2, (8, 8, 8, 5, 4)[rank]))

    return groups()


def test_scan_table_matches_per_character_calls_and_renders_like_its_dict():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ranks, torsion = set(), []

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(_groups_of_free_rank_up_to_four(st))
    def check(case):
        presentation, bound = case
        report = scan_jumping_loci(presentation, bound)
        b1 = report.b1
        ranks.add(b1)
        torsion.append(bool(abelianization(presentation).torsion_coefficients))
        # every check of the constructor holds on the table
        assert list(report.depths) == sorted(report.depths)
        for m, row in report.depths.items():
            assert 2 <= m <= bound and row and list(row) == sorted(row)
            assert all(len(e) == b1 and max(e) < m and gcd(m, *e) == 1 for e in row)
            assert min(row.values()) >= 1
        # the same report from twisted_h1 calls outside a scan
        entries = []
        for xi in enumerate_characters(b1, bound):
            depth = twisted_h1(presentation, xi)
            if depth >= 1:
                entries.append(JumpEntry(xi, depth))
        public = JumpingLocusReport(bound, b1, tuple(entries))
        assert report == public and report.exponent == public.exponent
        # the entries view: canonical values, equal to the constructor's
        assert report.entries == public.entries
        for entry in report.entries:
            assert type(entry) is JumpEntry and type(entry.character) is TorsionCharacter
            xi = entry.character
            built = JumpEntry(TorsionCharacter(xi.modulus, xi.exponents), entry.depth)
            assert entry == built and hash(entry) == hash(built)
        assert _scan_json(report) == _json_text(report.to_json_dict())

    check()
    assert ranks == {0, 1, 2, 3, 4} and any(torsion) and not all(torsion)


def test_scan_report_memory():
    # A TorsionCharacter and a JumpEntry per jump held 1.41 MiB here; the
    # table holds the exponent tuples and one dict per order.
    group = surface_group(2)
    scan_jumping_loci(group, 8)  # the evaluator and the F_p root tables, warm
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        report = scan_jumping_loci(group, 8)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, report.depths.values())) == 8399
    assert held - before < 1.1 * 2**20, held - before


def test_a_foreign_twisted_h1_call_inside_a_scan_evaluates_in_full(monkeypatch):
    genus2 = surface_group(2)
    twin = GroupPresentation(4, ((1, 2, -1, -2, 3, 4, -3, -4),))
    trefoil = trefoil_group()
    # an equal twin shares the scanned group's evaluator, but not the identity check
    assert jumping_loci._evaluator(twin) is jumping_loci._evaluator(genus2)
    # at the modulus being scanned: an order-6 character of genus 2 that is
    # pending when the call is made, one not reached yet, and one of the trefoil
    calls = [
        (twin, TorsionCharacter(6, (5, 0, 0, 0))),
        (twin, TorsionCharacter(6, (1, 5, 5, 5))),
        (trefoil, TorsionCharacter(6, (1,))),
        (trefoil, TorsionCharacter(5, (2,))),
    ]
    expected = [jumping_loci._Evaluator(p).h1(xi) for p, xi in calls]
    assert expected == [2, 2, 1, 0]
    original = jumping_loci.twisted_h1
    answered = []

    def wrapped(group, xi):
        depth = original(group, xi)
        if xi.modulus == 6 and xi.exponents == (1, 2, 0, 0):
            scan = jumping_loci._scanning
            assert scan.presentation is genus2 and scan.modulus == 6
            assert scan.pending.get((5, 0, 0, 0)) == 2
            pending = dict(scan.pending)
            answered.extend(original(p, character) for p, character in calls)
            assert jumping_loci._scanning is scan and scan.pending == pending
        return depth

    monkeypatch.setattr(jumping_loci, "twisted_h1", wrapped)
    report = scan_jumping_loci(genus2, 6)
    monkeypatch.undo()
    assert answered == expected
    assert report == scan_jumping_loci(genus2, 6)
    assert jumping_loci._scanning is None


def test_a_scan_nested_in_a_scan_keeps_the_outer_table_and_the_evaluator_unchanged(monkeypatch):
    genus2 = surface_group(2)
    plain, inner_plain = scan_jumping_loci(genus2, 5), scan_jumping_loci(genus2, 3)
    evaluator = jumping_loci._evaluator(genus2)
    slots = _evaluator_slots(evaluator)
    original, evaluate = jumping_loci.twisted_h1, jumping_loci._Evaluator.h1
    nested, inner, evaluations = [], [], []  # evaluations: True inside the nested scan

    def counted_h1(self, xi):
        evaluations.append(bool(nested))
        return evaluate(self, xi)

    def nesting(group, xi):
        depth = original(group, xi)
        if not nested and xi.modulus == 4 and xi.exponents == (0, 0, 0, 1):
            nested.append(xi)
            inner.append(scan_jumping_loci(genus2, 3))
            nested.clear()
        return depth

    monkeypatch.setattr(jumping_loci._Evaluator, "h1", counted_h1)
    monkeypatch.setattr(jumping_loci, "twisted_h1", nesting)
    report = scan_jumping_loci(genus2, 5)
    # one evaluation per Galois orbit of the outer scan: 15 + 80/2 + 240/2 + 624/4;
    # the outer table dropped by the nested scan would make it 451
    assert evaluations.count(False) == 331
    assert evaluations.count(True) == 55
    assert report == plain and inner == [inner_plain]
    assert jumping_loci._scanning is None
    assert _same_objects(slots, _evaluator_slots(evaluator))

    class Abort(Exception):
        pass

    def aborting(group, xi):
        if xi.modulus == 5:
            raise Abort
        return original(group, xi)

    monkeypatch.setattr(jumping_loci, "twisted_h1", aborting)
    with pytest.raises(Abort):
        scan_jumping_loci(genus2, 5)
    assert jumping_loci._scanning is None
    assert _same_objects(slots, _evaluator_slots(evaluator))


def test_twisted_h1_alternating_presentations_matches_fresh_evaluation():
    genus2 = surface_group(2)
    twin = GroupPresentation(4, ((1, 2, -1, -2, 3, 4, -3, -4),))
    assert twin == genus2 and twin is not genus2
    # (presentation, scan bound): the trefoil jumps at order 6, and the last
    # group has generator images other than the standard basis
    presentations = [
        (genus2, 3),
        (twin, 3),
        (torus_group(), 6),
        (trefoil_group(), 6),
        (GroupPresentation(3, ((1, 1, 2, -1, -2), (3, 1, -3, -1))), 6),
    ]
    cases = []
    for presentation, bound in presentations:
        rank = free_abelianization(presentation).rank
        cases += [(presentation, xi) for xi in enumerate_characters(rank, bound)]
    fresh = [jumping_loci._Evaluator(presentation).h1(xi) for presentation, xi in cases]
    order = list(range(len(cases))) * 2
    random.Random(0).shuffle(order)
    for i in order:
        assert twisted_h1(*cases[i]) == fresh[i]
        # a character of another presentation's rank is refused, whatever ran before
        with pytest.raises(CharacterDomainError, match="free abelianization has rank 2"):
            twisted_h1(torus_group(), TorsionCharacter(2, (1, 0, 0, 0)))


def test_evaluator_h1_matches_the_exact_rank_for_every_class_of_generator_image():
    # (presentation, generator images, whether the shifts are a basis lookup)
    cases = [
        (surface_group(2), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), True),
        # a shared unit: <a, b | a B>
        (GroupPresentation(2, ((1, -2),)), ((1,), (1,)), True),
        # a negative unit: <a, b | a b>
        (GroupPresentation(2, ((1, 2),)), ((1,), (-1,)), False),
        # a zero image: <a, b, c | a a b c B C>
        (GroupPresentation(3, ((1, 1, 2, 3, -2, -3),)), ((0, 0), (1, 0), (0, 1)), False),
        # one generator: an itemgetter of one index would return a scalar
        (GroupPresentation(1, ()), ((1,),), False),
    ]
    for presentation, images, lookup in cases:
        evaluator = jumping_loci._Evaluator(presentation)
        assert evaluator.images == images
        assert (evaluator.pick is not None) == lookup
        g, rank = presentation.generator_count, len(images[0])
        assert evaluator.h1(TorsionCharacter(1, (0,) * rank)) == rank
        for xi in enumerate_characters(rank, 6):
            assert list(evaluator.shifts(xi)) == [pairing(xi, image) for image in images]
            exact = g - 1 - cyclotomic_rank(evaluate_alexander_matrix(presentation, xi))
            assert evaluator.h1(xi) == exact
    # the rank check runs before the lookup, which alone would read the first
    # four exponents of a rank-5 character
    genus2 = jumping_loci._Evaluator(surface_group(2))
    assert genus2.pick is not None
    with pytest.raises(CharacterDomainError, match="rank 5, free abelianization has rank 4"):
        genus2.h1(TorsionCharacter(2, (1, 0, 0, 0, 1)))


def test_report_sorts_only_entries_that_do_not_ascend():
    report = scan_jumping_loci(free_group(2), 4)
    entries = report.entries
    assert len(entries) == 23  # every nontrivial character, depth 1
    # a scan's entries already ascend, and read back as they are
    assert JumpingLocusReport(4, 2, entries).entries == entries
    # out of order across orders, and within one order
    first, second = entries[0], entries[1]
    assert first.character.modulus == second.character.modulus
    for shuffled in (entries[::-1], (second, first) + entries[2:]):
        again = JumpingLocusReport(4, 2, shuffled)
        assert again.entries == entries and again == report and again.exponent == 12


def test_report_from_entries_in_any_order_is_the_scan_report(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def relator(rank):
        return st.lists(
            st.integers(1, rank).flatmap(lambda i: st.sampled_from((i, -i))),
            min_size=1, max_size=8)

    @st.composite
    def scans(draw):
        rank = draw(st.integers(2, 3))
        relators = draw(st.lists(relator(rank), min_size=1, max_size=2))
        group = GroupPresentation(rank, tuple(map(tuple, relators)))
        return group, draw(st.integers(2, 5)), draw(st.randoms(use_true_random=False))

    def table(report):
        # the order of both levels, which dict equality ignores
        return [(order, list(row.items())) for order, row in report.depths.items()]

    def refuse(*args):
        raise AssertionError("a JumpEntry was built")

    seen = set()

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(scans())
    def check(case):
        group, bound, rng = case
        report = scan_jumping_loci(group, bound)
        hypothesis.assume(report.depths)
        seen.add(group.relator_count)
        entries = [
            JumpEntry(TorsionCharacter(order, exponents), depth)
            for order, row in report.depths.items() for exponents, depth in row.items()
        ]
        data = report.to_json_dict()
        rng.shuffle(entries)
        rng.shuffle(data["entries"])
        with monkeypatch.context() as patch:
            # neither construction nor hashing reads ``entries``
            patch.setattr(jumping_loci, "_jump_entry", refuse)
            digest = hash(report)
            rebuilt = (
                JumpingLocusReport(bound, report.b1, entries),
                JumpingLocusReport.from_json_dict(data),
            )
            for again in rebuilt:
                assert again == report and hash(again) == digest
                assert table(again) == table(report) and again.exponent == report.exponent
        for again in rebuilt:
            assert again.entries == report.entries
        copy_at = rng.randrange(len(entries) + 1)
        twice = entries[:copy_at] + [rng.choice(entries)] + entries[copy_at:]
        with pytest.raises(SlopekitError, match="listed twice"):
            JumpingLocusReport(bound, report.b1, twice)

    check()
    assert seen == {1, 2}


def test_report_json_roundtrip():
    report = scan_jumping_loci(surface_group(2), 2)
    data = report.to_json_dict()
    assert data["scan_bound"] == 2 and data["b1"] == 4 and data["exponent"] == 2
    assert JumpingLocusReport.from_json_dict(data) == report


def test_report_validation():
    with pytest.raises(SlopekitError):
        JumpingLocusReport(None, 2, (JumpEntry(TorsionCharacter(1, (0,) * 2), 1),))
    with pytest.raises(SlopekitError):
        JumpingLocusReport(None, 2, (JumpEntry(TorsionCharacter(2, (1, 0)), 0),))
    # the exponent is derived; a stated one must agree with it
    data = JumpingLocusReport(None, 2, (JumpEntry(TorsionCharacter(2, (1, 0)), 1),)).to_json_dict()
    data["exponent"] = 4
    with pytest.raises(SlopekitError, match="stated exponent 4 != lcm of entry orders 2"):
        JumpingLocusReport.from_json_dict(data)


def test_report_refuses_a_character_listed_twice():
    entry = JumpEntry(TorsionCharacter(2, (1, 0)), 1)
    other = JumpEntry(TorsionCharacter(3, (1, 0)), 1)
    # adjacent in ascending order, and apart in an order the report sorts
    for entries in ((entry, entry), (entry, other, entry), (other, entry, JumpEntry(entry.character, 2))):
        with pytest.raises(SlopekitError, match=r"order 2 exponents \(1, 0\) listed twice"):
            JumpingLocusReport(None, 2, entries)
    data = JumpingLocusReport(None, 2, (entry,)).to_json_dict()
    data["entries"] *= 2
    with pytest.raises(SlopekitError, match="listed twice"):
        JumpingLocusReport.from_json_dict(data)
    # once, the character is counted once: b1 3 for the Z/2 cover, not 4
    report = JumpingLocusReport(None, 2, (entry,))
    assert hironaka_b1(report, AbelianEpimorphism.cyclic(2, (1, 0))).b1 == 3


def test_report_from_json_needs_every_galois_conjugate():
    def data(*entries):
        return JumpingLocusReport(None, 2, tuple(
            JumpEntry(TorsionCharacter(m, exps), depth) for m, exps, depth in entries
        )).to_json_dict()

    alpha = AbelianEpimorphism.cyclic(3, (1, 0))
    # (3; 1, 0) without (3; 2, 0) would read b1 3; the Z/3 cover has 4
    with pytest.raises(SlopekitError, match=r"needs its Galois conjugate \(2, 0\)"):
        JumpingLocusReport.from_json_dict(data((3, (1, 0), 1)))
    with pytest.raises(SlopekitError, match="at the same depth"):
        JumpingLocusReport.from_json_dict(data((3, (1, 0), 1), (3, (2, 0), 2)))
    closed = JumpingLocusReport.from_json_dict(data((3, (1, 0), 1), (3, (2, 0), 1)))
    assert hironaka_b1(closed, alpha).b1 == 4
    # (5; 1, 2) has the orbit (5; 2, 4), (5; 3, 1), (5; 4, 3); order 2 has no other member
    orbit = [(5, (1, 2), 1), (5, (2, 4), 1), (5, (3, 1), 1), (5, (4, 3), 1), (2, (0, 1), 3)]
    assert len(JumpingLocusReport.from_json_dict(data(*orbit)).entries) == 5
    with pytest.raises(SlopekitError, match=r"order 5 exponents \(1, 2\)"):
        JumpingLocusReport.from_json_dict(data(*orbit[:1], *orbit[2:]))
    # every scan is closed, and the constructor alone does not check
    for presentation, bound in ((surface_group(2), 5), (trefoil_group(), 12)):
        report = scan_jumping_loci(presentation, bound)
        assert JumpingLocusReport.from_json_dict(report.to_json_dict()) == report
    assert JumpingLocusReport(None, 2, (JumpEntry(TorsionCharacter(3, (1, 0)), 1),)).b1 == 2


def test_report_checks_its_scan_bound():
    for bad in ("9", 2.5):
        with pytest.raises(TypeError):
            JumpingLocusReport(bad, 2, ())
    for bad in (-3, 0):
        with pytest.raises(SlopekitError, match=f"scan bound must be None or >= 1, got {bad}"):
            JumpingLocusReport(bad, 2, ())
    # the JSON reader goes through the same constructor
    data = scan_jumping_loci(torus_group(), 4).to_json_dict()
    for bad, error in (("9", TypeError), (2.5, TypeError), (-3, SlopekitError), (0, SlopekitError)):
        with pytest.raises(error):
            JumpingLocusReport.from_json_dict({**data, "scan_bound": bad})
    assert JumpingLocusReport(1, 2, ()).scan_bound == 1


def test_report_checks_its_b1():
    for bad in ("2", 2.5, None):
        with pytest.raises(TypeError):
            JumpingLocusReport(None, bad, ())
    with pytest.raises(SlopekitError, match="b1 must be >= 0, got -1"):
        JumpingLocusReport(None, -1, ())
    # the JSON reader goes through the same constructor
    data = {"scan_bound": None, "b1": -1, "entries": [], "exponent": 1}
    with pytest.raises(SlopekitError, match="b1 must be >= 0, got -1"):
        JumpingLocusReport.from_json_dict(data)
    for bad in ("2", 2.5):
        with pytest.raises(TypeError):
            JumpingLocusReport.from_json_dict({**data, "b1": bad})
    assert JumpingLocusReport.from_json_dict({**data, "b1": 0}).b1 == 0


def test_report_refuses_entries_above_its_scan_bound():
    entry = JumpEntry(TorsionCharacter(5, (1, 0)), 1)
    with pytest.raises(SlopekitError, match="entry of order 5 exceeds the scan bound 3"):
        JumpingLocusReport(3, 2, (entry,))
    data = JumpingLocusReport(5, 2, (entry,)).to_json_dict()
    data["scan_bound"] = 4
    with pytest.raises(SlopekitError, match="entry of order 5 exceeds the scan bound 4"):
        JumpingLocusReport.from_json_dict(data)
    # the order is the canonical one: (10, (2, 0)) is the order-5 character above
    assert JumpingLocusReport(5, 2, (JumpEntry(TorsionCharacter(10, (2, 0)), 1),)).exponent == 5


def test_report_rejects_entries_of_another_rank():
    mixed = (JumpEntry(TorsionCharacter(2, (1, 0, 1)), 1), JumpEntry(TorsionCharacter(2, (1, 0)), 1))
    with pytest.raises(CharacterDomainError, match="entry character rank 3 does not match b1 2"):
        JumpingLocusReport(None, 2, mixed)
    data = JumpingLocusReport(None, 3, mixed[:1]).to_json_dict()
    data["b1"] = 2
    with pytest.raises(CharacterDomainError, match="rank 3 does not match b1 2"):
        JumpingLocusReport.from_json_dict(data)


def test_report_from_json_refuses_booleans():
    # operator.index reads true and false as 1 and 0; JSON booleans are not numbers
    empty = {"scan_bound": 1, "b1": 0, "entries": [], "exponent": 1}
    assert JumpingLocusReport.from_json_dict(empty) == JumpingLocusReport(1, 0, ())
    entry = {"modulus": 2, "exponents": [1, 0], "depth": 1}
    data = {"scan_bound": 2, "b1": 2, "entries": [entry], "exponent": 2}
    report = JumpingLocusReport.from_json_dict(data)
    assert report.entries == (JumpEntry(TorsionCharacter(2, (1, 0)), 1),)
    refused = [
        {**empty, "scan_bound": True},
        {**empty, "b1": False},
        {**empty, "exponent": True},
        {**data, "entries": [{"modulus": 2, "exponents": [True, False], "depth": True}]},
        {**data, "entries": [{**entry, "modulus": True}]},
        {**data, "entries": [{**entry, "exponents": [1, False]}]},
        {**data, "entries": [{**entry, "depth": True}]},
    ]
    for bad in refused:
        with pytest.raises(TypeError, match="'bool' object cannot be interpreted as an integer"):
            JumpingLocusReport.from_json_dict(bad)
    with pytest.raises(TypeError, match="'bool'"):
        JumpEntry.from_json_dict({**entry, "depth": True})
    with pytest.raises(TypeError, match="'bool'"):
        TorsionCharacter.from_json_dict({**entry, "exponents": [True, 0]})


def test_report_table_is_read_only_and_entries_are_built_once(monkeypatch):
    report = scan_jumping_loci(trefoil_group(), 12)
    assert dict(report.depths) == {6: {(1,): 1, (5,): 1}}
    for name, value in (("b1", 3), ("depths", {}), ("exponent", 1), ("entries", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(report, name)
    with pytest.raises(TypeError):
        report.depths[7] = {(1,): 1}
    with pytest.raises(TypeError):
        report.depths[6][(1,)] = 2
    assert report.entries is report.entries
    public = JumpingLocusReport(12, 1, report.entries)
    assert public == report and hash(public) == hash(report)
    assert report != JumpingLocusReport(12, 1, report.entries[:1])
    assert report != JumpingLocusReport(13, 1, report.entries)
    # copy and pickle carry the table, building no entry on either side
    reports = (report, scan_jumping_loci(surface_group(2), 8), cartwright_steger_report())

    def no_entries(*args):
        raise AssertionError("a JumpEntry was built")

    with monkeypatch.context() as patch:
        patch.setattr(jumping_loci, "_jump_entry", no_entries)
        copies = [
            (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original)))
            for original in reports
        ]
        for original, again in zip(reports, copies):
            assert all(twin == original and twin.exponent == original.exponent for twin in again)
    for original, again in zip(reports, copies):
        assert all(twin.entries == original.entries for twin in again)


# ---------------------------------------------------------------------------
# Exponent


def test_report_exponent_examples():
    assert JumpingLocusReport(None, 2, ()).exponent == 1
    entries = (
        JumpEntry(TorsionCharacter(2, (1, 0)), 1),
        JumpEntry(TorsionCharacter(3, (0, 1)), 1),
        JumpEntry(TorsionCharacter(6, (2, 4)), 2),  # order 3: canonically (3, (1, 2))
    )
    assert JumpingLocusReport(None, 2, entries).exponent == 6
    assert JumpingLocusReport(3, 2, entries).exponent == 6
    assert JumpingLocusReport(None, 2, entries[2:]).exponent == 3
    assert cartwright_steger_report().exponent == 1
    assert cartwright_steger_report().b1 == 2
    assert cartwright_steger_report().entries == ()


# ---------------------------------------------------------------------------
# Hironaka's formula


def test_hironaka_genus2_cyclic3():
    report = scan_jumping_loci(surface_group(2), 3)
    result = hironaka_b1(report, AbelianEpimorphism.cyclic(3, (1, 0, 0, 0)))
    assert result.b1 == 8  # matches Riemann-Hurwitz 2(d+1)
    assert sum(e.depth for e in result.contributions) == 4


def test_hironaka_trivial_loci():
    report = cartwright_steger_report()
    for alpha in (
        AbelianEpimorphism.cyclic(7, (1, 0)),
        AbelianEpimorphism.cyclic(12, (1, 5)),
        AbelianEpimorphism(2, (10, 10), ((1, 0), (0, 1))),
    ):
        assert hironaka_b1(report, alpha).b1 == 2


def test_hironaka_torus_empty_loci():
    report = scan_jumping_loci(torus_group(), 6)
    assert hironaka_b1(report, AbelianEpimorphism.cyclic(5, (1, 3))).b1 == 2


def test_hironaka_refuses_incomplete_scan():
    report = scan_jumping_loci(surface_group(2), 2)
    with pytest.raises(SlopekitError, match="scan bound 2 is below the deck group exponent 3"):
        hironaka_b1(report, AbelianEpimorphism.cyclic(3, (1, 0, 0, 0)))
    # the deck group's exponent, not its order: Z/2 x Z/2 needs a scan to 2 only
    klein = AbelianEpimorphism(4, (2, 2), ((1, 0, 0, 0), (0, 1, 0, 0)))
    assert hironaka_b1(report, klein).b1 == subgroup_b1(surface_group(2), klein) == 10
    z2z4 = AbelianEpimorphism(4, (2, 4), ((1, 0, 0, 0), (0, 1, 0, 0)))
    with pytest.raises(SlopekitError, match="exponent 4"):
        hironaka_b1(report, z2z4)
    # complete-knowledge reports are never refused
    assert hironaka_b1(cartwright_steger_report(), AbelianEpimorphism.cyclic(3, (1, 0))).b1 == 2


def test_coprime_refuses_incomplete_scan():
    # scanned to 3, the report misses the order-5 characters; coprimality with its
    # exponent alone would certify b1 = 4, where the cover has b1 = 12
    report = scan_jumping_loci(surface_group(2), 3)
    alpha = AbelianEpimorphism.cyclic(5, (1, 0, 0, 0))
    with pytest.raises(SlopekitError, match="scan bound 3 is below the deck group exponent 5"):
        coprime_cover_b1(report, 5, (1, 0, 0, 0))
    assert subgroup_b1(surface_group(2), alpha) == 12
    result = coprime_cover_b1(scan_jumping_loci(surface_group(2), 5), 5, (1, 0, 0, 0))
    assert result.b1 == 12 and result.certificate is None


def test_cover_b1_is_exact_or_absent():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def cover_cases(draw):
        gens = draw(st.integers(1, 3))
        letters = st.integers(1, gens).flatmap(lambda i: st.sampled_from((i, -i)))
        words = draw(st.lists(st.lists(letters, min_size=1, max_size=8), min_size=1, max_size=2))
        presentation = GroupPresentation(gens, tuple(tuple(w) for w in words))
        rank = free_abelianization(presentation).rank
        hypothesis.assume(rank >= 1)
        d = draw(st.integers(2, 6))
        weights = draw(st.lists(st.integers(0, d - 1), min_size=rank, max_size=rank))
        weights[draw(st.integers(0, rank - 1))] = 1
        return presentation, d, tuple(weights), draw(st.integers(1, 6))

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(cover_cases())
    def check(case):
        presentation, d, weights, bound = case
        report = scan_jumping_loci(presentation, bound)
        alpha = AbelianEpimorphism.cyclic(d, weights)
        if bound < d:
            with pytest.raises(SlopekitError, match="below the deck group exponent"):
                hironaka_b1(report, alpha)
            with pytest.raises(SlopekitError, match="below the deck group exponent"):
                coprime_cover_b1(report, d, weights)
            return
        exact = subgroup_b1(presentation, alpha)
        assert hironaka_b1(report, alpha).b1 == exact
        result = coprime_cover_b1(report, d, weights)
        assert result.b1 == exact
        if result.certificate is not None:
            assert result.b1 == report.b1

    check()


def test_hironaka_over_the_dual_group_matches_the_kernel_lattice_and_rewriting():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    deck_groups = st.sampled_from([
        (), (1,), (2,), (3,), (4,), (5,), (6,), (8,),
        (2, 2), (2, 2, 2), (2, 4), (4, 2), (1, 4), (2, 1, 2), (1, 2, 4),
    ])

    @st.composite
    def cover_cases(draw):
        rng = draw(st.randoms(use_true_random=False))
        factors = draw(deck_groups)
        if draw(st.integers(0, 9)) == 9:
            # the trivial-loci fixture, of rank 2 and scan bound None
            presentation, rank = None, 2
        else:
            gens = draw(st.integers(1, 3))
            letters = st.integers(1, gens).flatmap(lambda i: st.sampled_from((i, -i)))
            # no relator at all: a free group, where every character jumps
            words = draw(st.lists(st.lists(letters, min_size=1, max_size=8), max_size=3))
            relators = []
            for word in words:
                # balance the last generator, keeping a free part in H1
                e = sum(1 if x > 0 else -1 for x in word if abs(x) == gens)
                relators.append(tuple(word) + (-gens if e > 0 else gens,) * abs(e))
            presentation = GroupPresentation(gens, tuple(relators))
            rank = free_abelianization(presentation).rank
        # a factor of 1 needs no row of its own; the others take independent
        # rows of a random unimodular matrix, so alpha is onto
        hypothesis.assume(sum(n > 1 for n in factors) <= rank)
        unimodular = iter(random_unimodular(rng, rank, draw(st.integers(1, 10))))
        matrix = tuple(
            tuple(next(unimodular)) if n > 1 else tuple(rng.randrange(-3, 4) for _ in range(rank))
            for n in factors
        )
        return presentation, AbelianEpimorphism(rank, factors, matrix), draw(st.integers(0, 2))

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(cover_cases())
    @hypothesis.example((surface_group(2), AbelianEpimorphism(4, (2, 4, 4, 4), (
        (1, 2, 0, 3), (0, 1, 2, 0), (0, 0, 1, 2), (0, 0, 0, 1))), 0))
    @hypothesis.example((None, AbelianEpimorphism(2, (2, 4), ((1, 1), (1, 2))), 0))
    def check(case):
        presentation, alpha, extra = case
        if presentation is None:
            report, exact = cartwright_steger_report(), 2
        else:
            report = scan_jumping_loci(presentation, alpha.exponent + extra)
            exact = subgroup_b1(presentation, alpha)
        result = hironaka_b1(report, alpha)
        assert result == kernel_lattice_hironaka_b1(report, alpha)
        assert result.b1 == exact

    check()


def test_hironaka_rejects_epimorphism_of_another_rank():
    report = cartwright_steger_report()  # no entries: the check is on b1 itself
    with pytest.raises(CharacterDomainError, match="report has b1 2, epimorphism source rank 3"):
        hironaka_b1(report, AbelianEpimorphism.cyclic(3, (1, 0, 0)))
    with pytest.raises(CharacterDomainError, match="epimorphism source rank 1"):
        coprime_cover_b1(report, 7, (1,))
    genus2 = scan_jumping_loci(surface_group(2), 2)
    with pytest.raises(CharacterDomainError, match="report has b1 4, epimorphism source rank 2"):
        hironaka_b1(genus2, AbelianEpimorphism.cyclic(2, (1, 0)))


def test_hironaka_factorization_test():
    # order-2 character at (1, 0) factors through Z2 x (1,0) but not Z3 x (1,0)
    entry = JumpEntry(TorsionCharacter(2, (1, 0)), 1)
    report = JumpingLocusReport(None, 2, (entry,))
    assert hironaka_b1(report, AbelianEpimorphism.cyclic(2, (1, 0))).b1 == 3
    assert hironaka_b1(report, AbelianEpimorphism.cyclic(3, (1, 0))).b1 == 2
    # the same character also factors through Z4 x (1, 0): order 2 divides 4
    assert hironaka_b1(report, AbelianEpimorphism.cyclic(4, (1, 0))).b1 == 3
    # but not through Z2 x (0, 1), whose kernel contains (1, 0)
    assert hironaka_b1(report, AbelianEpimorphism.cyclic(2, (0, 1))).b1 == 2


def test_hironaka_agrees_with_rewriting_on_fixtures():
    for presentation in (torus_group(), free_group(2), surface_group(2)):
        rank = free_abelianization(presentation).rank
        report = scan_jumping_loci(presentation, 8)
        for d in range(2, 9):
            weights = tuple([1] + [0] * (rank - 1))
            alpha = AbelianEpimorphism.cyclic(d, weights)
            assert hironaka_b1(report, alpha).b1 == subgroup_b1(presentation, alpha)


# ---------------------------------------------------------------------------
# Coprime covers


def test_coprime_examples():
    # exponent 6, d = 7: certificate, no rescan needed
    entries = (
        JumpEntry(TorsionCharacter(2, (1, 0)), 1),
        JumpEntry(TorsionCharacter(3, (0, 1)), 2),
    )
    report = JumpingLocusReport(None, 2, entries)
    assert report.exponent == 6
    result = coprime_cover_b1(report, 7, (1, 0))
    assert result.b1 == 2
    assert result.certificate is not None
    assert result.certificate.exponent == 6
    assert result.certificate.entry_orders == (2, 3)
    assert result.fallback is None


def test_coprime_synthetic_order2():
    report = JumpingLocusReport(
        None, 2, (JumpEntry(TorsionCharacter(2, (1, 0)), 1),)
    )
    # d = 3 coprime to the exponent 2: no factorization possible
    result = coprime_cover_b1(report, 3, (1, 0))
    assert result.b1 == 2 and result.certificate is not None
    # d = 2 shares the factor: falls back to Hironaka, character contributes
    result = coprime_cover_b1(report, 2, (1, 0))
    assert result.b1 == 3 and result.certificate is None
    assert result.fallback is not None
    assert [e.depth for e in result.fallback.contributions] == [1]


@pytest.mark.parametrize("order, certified", [(7, True), (2, False), (6, False)])
def test_coprime_runs_hironaka_once(monkeypatch, order, certified):
    entries = (
        JumpEntry(TorsionCharacter(2, (1, 0)), 1),
        JumpEntry(TorsionCharacter(3, (0, 1)), 2),
    )
    report = JumpingLocusReport(None, 2, entries)
    calls = []

    def counted(*args):
        calls.append(args)
        return hironaka_b1(*args)

    monkeypatch.setattr(jumping_loci, "hironaka_b1", counted)
    result = coprime_cover_b1(report, order, (1, 0))
    assert len(calls) == 1
    assert (result.certificate is not None) == certified == (result.fallback is None)


def random_synthetic_report(rng):
    """A report of b1 in 1..3 whose entries all have rank b1, as a scan's do."""
    b1 = rng.randint(1, 3)
    entries = {}
    for _ in range(rng.randint(0, 4)):
        m = rng.choice([2, 3, 4, 5, 6, 8, 12])
        exps = [rng.randrange(m) for _ in range(b1)]
        if gcd(m, *exps) != 1:
            continue
        xi = TorsionCharacter(m, tuple(exps))
        entries[xi] = JumpEntry(xi, rng.randint(1, 3))
    return JumpingLocusReport(None, b1, tuple(entries.values()))


def test_coprime_certificate_randomized():
    rng = random.Random(606)
    for _ in range(500):
        report = random_synthetic_report(rng)
        lam = rng.randint(0, 6)
        d = lam * report.exponent + 1
        weights = [rng.randrange(d) for _ in range(report.b1)]
        weights[rng.randrange(report.b1)] = 1
        result = coprime_cover_b1(report, d, tuple(weights))
        assert gcd(d, report.exponent) == 1
        assert result.b1 == report.b1
        assert result.certificate is not None
        assert all(gcd(o, d) == 1 for o in result.certificate.entry_orders)


def test_coprime_fallback_agrees_with_hironaka():
    rng = random.Random(707)
    for _ in range(200):
        report = random_synthetic_report(rng)
        d = rng.randint(2, 12)
        weights = [rng.randrange(d) for _ in range(report.b1)]
        weights[rng.randrange(report.b1)] = 1
        alpha = AbelianEpimorphism.cyclic(d, tuple(weights))
        result = coprime_cover_b1(report, d, tuple(weights))
        assert result.b1 == hironaka_b1(report, alpha).b1
        if gcd(d, report.exponent) == 1:
            assert result.certificate is not None
        else:
            assert result.fallback is not None
