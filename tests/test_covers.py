"""Coset actions, Reidemeister-Schreier rewriting, and cover Betti numbers."""

import itertools
import random
import tracemalloc

import pytest

from slopekit.covers import (
    AbelianEpimorphism,
    NotAnEpimorphismError,
    coset_action,
    reidemeister_schreier,
    subgroup_b1,
)
from slopekit import group_core
from slopekit.group_core import (
    GroupPresentation,
    abelianization,
    free_abelianization,
    free_group,
    free_reduce,
    smith_normal_form,
    surface_group,
    torus_group,
)
from slopekit.jumping_loci import (
    JumpEntry,
    JumpingLocusReport,
    TorsionCharacter,
    hironaka_b1,
    twisted_h1,
)

from _oracles import (
    coset_permutation,
    dense_abelianization,
    kernel_lattice_basis,
    random_unimodular,
    rational_det,
    reference_reidemeister_schreier,
)


def test_epimorphism_validation():
    AbelianEpimorphism.cyclic(3, (1, 0))  # fine
    with pytest.raises(NotAnEpimorphismError):
        AbelianEpimorphism.cyclic(4, (2, 0))  # image is 2Z/4Z
    with pytest.raises(NotAnEpimorphismError):
        AbelianEpimorphism(2, (2, 2), ((1, 0), (1, 0)))  # second factor missed
    with pytest.raises(NotAnEpimorphismError):
        AbelianEpimorphism(2, (2,), ((1, 0, 0),))  # shape mismatch


def test_epimorphism_entries_are_reduced():
    alpha = AbelianEpimorphism.cyclic(3, (4, -1))
    assert alpha.matrix == ((1, 2),)
    assert alpha.order == 3
    assert alpha.exponent == 3


def test_epimorphism_json_roundtrip():
    alpha = AbelianEpimorphism(2, (2, 4), ((1, 0), (0, 1)))
    data = alpha.to_json_dict()
    assert data == {"factors": [2, 4], "matrix": [[1, 0], [0, 1]]}
    assert AbelianEpimorphism.from_json_dict(data) == alpha


def test_kernel_lattice_index_equals_order():
    # ker(alpha) has index |S| in Z^b; the basis determinant witnesses it.
    for alpha in (
        AbelianEpimorphism.cyclic(2, (1, 0)),
        AbelianEpimorphism.cyclic(5, (2, 3)),
        AbelianEpimorphism(2, (2, 4), ((1, 0), (0, 1))),
        AbelianEpimorphism(3, (6,), ((1, 2, 3),)),
    ):
        basis = kernel_lattice_basis(alpha)
        assert len(basis) == alpha.source_rank
        assert abs(rational_det([list(v) for v in basis])) == alpha.order
        for vector in basis:
            assert all(x == 0 for x in alpha.apply(vector))


def test_coset_action_examples():
    # torus, Z2 via (1,0): a swaps the two cosets, b fixes them
    perms = coset_action(torus_group(), AbelianEpimorphism.cyclic(2, (1, 0)))
    assert perms == [[1, 0], [0, 1]]
    # free F2, Z3 via (1,1): both generators act as the same 3-cycle
    perms = coset_action(free_group(2), AbelianEpimorphism.cyclic(3, (1, 1)))
    assert perms == [[1, 2, 0], [1, 2, 0]]
    # genus-2, Z2 via (1,0,0,0): a swaps, b, c, d fix
    perms = coset_action(surface_group(2), AbelianEpimorphism.cyclic(2, (1, 0, 0, 0)))
    assert perms == [[1, 0], [0, 1], [0, 1], [0, 1]]


def test_coset_action_matches_the_element_by_element_table():
    # digit tables against translating each element and ranking it; the
    # factor tuples include 1s, single factors and the empty tuple
    rng = random.Random(2024)
    cases = [(), (1,), (7,), (1, 1), (2, 1, 3), (1, 4, 1), (2, 2, 2, 2), (3, 5), (2, 4, 4, 4)]
    cases += [tuple(rng.choice((1, 2, 3, 4, 6)) for _ in range(rng.randint(1, 4))) for _ in range(30)]
    for factors in cases:
        b = max(len(factors), rng.randint(1, 4))
        presentation = free_group(b)
        unimodular = random_unimodular(rng, b)
        alpha = AbelianEpimorphism(b, factors, tuple(tuple(r) for r in unimodular[:len(factors)]))
        perms = coset_action(presentation, alpha)
        assert len(perms) == b
        for i, perm in enumerate(perms):
            shift = alpha.apply([1 if j == i else 0 for j in range(b)])
            assert perm == coset_permutation(alpha.factors, shift)
            assert sorted(perm) == list(range(alpha.order))


def test_coset_action_rejects_rank_mismatch():
    # a source rank above the free rank, and one below it, which Hironaka's
    # formula refuses too: no projection onto the first coordinates
    for group, alpha in (
        (torus_group(), AbelianEpimorphism.cyclic(2, (1, 0, 0))),
        (surface_group(2), AbelianEpimorphism.cyclic(3, (1, 0))),
    ):
        with pytest.raises(NotAnEpimorphismError, match="needs free rank"):
            coset_action(group, alpha)
        with pytest.raises(NotAnEpimorphismError):
            subgroup_b1(group, alpha)


def test_reidemeister_schreier_free_group():
    # Nielsen-Schreier: index-2 subgroup of F2 is free of rank 1 + 2(2-1) = 3
    sub = reidemeister_schreier(free_group(2), AbelianEpimorphism.cyclic(2, (1, 0)))
    assert sub.presentation.generator_count == 3
    assert sub.presentation.relator_count == 0
    assert sub.index == 2


def test_reidemeister_schreier_torus():
    # an unramified cover of a torus is a torus
    sub = reidemeister_schreier(torus_group(), AbelianEpimorphism.cyclic(3, (1, 0)))
    assert abelianization(sub.presentation).free_rank == 2


def test_reidemeister_schreier_genus2():
    # Riemann-Hurwitz: a degree-2 cover of a genus-2 surface has genus 3
    sub = reidemeister_schreier(
        surface_group(2), AbelianEpimorphism.cyclic(2, (1, 0, 0, 0))
    )
    assert abelianization(sub.presentation).free_rank == 6


def test_subgroup_b1_examples():
    assert subgroup_b1(surface_group(2), AbelianEpimorphism.cyclic(3, (1, 0, 0, 0))) == 8
    for d in range(2, 7):
        assert subgroup_b1(torus_group(), AbelianEpimorphism.cyclic(d, (1, 0))) == 2
        assert subgroup_b1(free_group(2), AbelianEpimorphism.cyclic(d, (1, 0))) == d + 1


def test_index_one_cover_is_the_group_itself():
    for presentation in (torus_group(), surface_group(2), free_group(2)):
        rank = abelianization(presentation).free_rank
        alpha = AbelianEpimorphism.cyclic(1, tuple([0] * rank))
        sub = reidemeister_schreier(presentation, alpha)
        assert abelianization(sub.presentation) == abelianization(presentation)


def test_euler_relation_on_random_covers():
    rng = random.Random(505)
    groups = [torus_group(), surface_group(2), free_group(2), free_group(3)]
    for _ in range(40):
        presentation = rng.choice(groups)
        rank = abelianization(presentation).free_rank
        d = rng.randint(1, 6)
        weights = [rng.randrange(d) for _ in range(rank)]
        weights[rng.randrange(rank)] = 1  # force surjectivity
        sub = reidemeister_schreier(presentation, AbelianEpimorphism.cyclic(d, weights))
        g, r = presentation.generator_count, presentation.relator_count
        gp, rp = sub.presentation.generator_count, sub.presentation.relator_count
        assert 1 - gp + rp == d * (1 - g + r)
        assert gp == d * g - (d - 1)
        assert rp == d * r


def test_noncyclic_deck_group():
    # (Z2)^2 cover of the genus-2 group: b1 = 4 + 3 * 2 by Hironaka, but here
    # computed purely by rewriting
    alpha = AbelianEpimorphism(
        4, (2, 2), ((1, 0, 0, 0), (0, 1, 0, 0))
    )
    assert subgroup_b1(surface_group(2), alpha) == 10


@pytest.mark.parametrize(
    "alpha, b1",
    [
        (AbelianEpimorphism.cyclic(1024, (1, 0, 0, 0)), 2050),
        (AbelianEpimorphism(4, (4, 4, 4, 4), tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(4))), 514),
    ],
    ids=["z1024", "z4^4"],
)
def test_large_index_matches_closed_form(alpha, b1, monkeypatch):
    # b1 = 2(|S|(g-1)+1) on genus 2.  The rewritten exponent matrices are
    # 3073 x 1024 and 769 x 256, out of reach of the dense Smith form alone;
    # unit elimination leaves it nothing.
    shapes = []

    def recording_smith_form(m):
        shapes.append((m.rows, m.cols))
        return smith_normal_form(m)

    monkeypatch.setattr(group_core, "smith_normal_form", recording_smith_form)
    assert b1 == 2 * (alpha.order + 1)
    assert subgroup_b1(surface_group(2), alpha) == b1
    assert shapes[-1] == (0, 0)


def test_rewriting_memory_grows_linearly_in_the_index():
    # A positive word per coset would hold d(d-1)/2 letters on this cover,
    # about 70 MiB at d = 4096; the rewrite needs only its d*g-entry edge
    # table and its 4d-letter relators, about 5 MiB.
    alpha = AbelianEpimorphism.cyclic(4096, (1, 0, 0, 0))
    tracemalloc.start()
    try:
        b1 = subgroup_b1(surface_group(2), alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b1 == 2 * alpha.order + 2
    assert peak < 16 * 2**20, peak


def dual_group_report(presentation, alpha):
    """The report of the characters that factor through alpha, one twisted_h1
    each: the only entries Hironaka's formula for alpha looks up."""
    exponent = alpha.exponent
    entries = {}
    for c in itertools.product(*(range(n) for n in alpha.factors)):
        exps = [
            sum(cj * row[i] * (exponent // n) for cj, row, n in zip(c, alpha.matrix, alpha.factors))
            for i in range(alpha.source_rank)
        ]
        xi = TorsionCharacter(exponent, tuple(exps))
        depth = twisted_h1(presentation, xi) if xi.modulus > 1 else 0
        if depth:
            entries[xi] = JumpEntry(xi, depth)
    return JumpingLocusReport(None, alpha.source_rank, tuple(entries.values()))


# H1 = Z^2 + Z/2
TORSION = GroupPresentation(3, ((1, 1, 2, 3, -2, -3),))


def test_flat_rewriting_matches_the_reference_and_both_b1_routes():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def letters(rank, length):
        return st.lists(
            st.integers(1, rank).flatmap(lambda i: st.sampled_from((i, -i))),
            min_size=length, max_size=length)

    @st.composite
    def commutator(draw, rank):
        u, v = draw(letters(rank, draw(st.integers(1, 3)))), draw(letters(rank, draw(st.integers(1, 3))))
        return u + v + [-x for x in reversed(u)] + [-x for x in reversed(v)]

    @st.composite
    def groups(draw):
        kind = draw(st.sampled_from(("one", "three", "torsion", "surface")))
        if kind == "torsion":
            return TORSION
        if kind == "surface":
            return surface_group(draw(st.integers(1, 2)))
        rank = draw(st.integers(2, 4))
        # a commutator keeps the free rank, so that a deck group of rank > 1 fits
        relators = [
            draw(commutator(rank) if draw(st.sampled_from((True, True, False)))
                 else letters(rank, draw(st.integers(1, 8))))
            for _ in range(1 if kind == "one" else 3)
        ]
        hypothesis.assume(all(free_reduce(r) for r in relators))
        return GroupPresentation(rank, tuple(tuple(r) for r in relators))

    @st.composite
    def covers(draw):
        presentation = draw(groups())
        b = free_abelianization(presentation).rank
        hypothesis.assume(b >= 1)
        if draw(st.booleans()):
            factors = (draw(st.integers(2, 64)),)
        else:
            twos = draw(st.integers(0, min(b, 6)))
            fours = draw(st.integers(0, min(b - twos, (6 - twos) // 2)))
            hypothesis.assume(twos + fours)
            factors = (2,) * twos + (4,) * fours
        unimodular = random_unimodular(random.Random(draw(st.integers(0, 2**32))), b)
        if unimodular == [[int(i == j) for j in range(b)] for i in range(b)]:
            unimodular[0] = [-x for x in unimodular[0]]
        return presentation, AbelianEpimorphism(b, factors, tuple(map(tuple, unimodular[:len(factors)])))

    seen = set()

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(covers())
    @hypothesis.example((TORSION, AbelianEpimorphism.cyclic(4, (1, 2))))
    @hypothesis.example((surface_group(2), AbelianEpimorphism(
        4, (4, 4, 4), ((1, 2, 0, 3), (0, 1, 2, 0), (0, 0, 1, 2)))))
    def check(case):
        presentation, alpha = case
        sub = reidemeister_schreier(presentation, alpha)
        reference = reference_reidemeister_schreier(presentation, alpha)
        assert sub == reference
        assert sub.presentation.relators == reference.presentation.relators
        b1 = subgroup_b1(presentation, alpha)
        assert b1 == dense_abelianization(sub.presentation).free_rank
        assert b1 == hironaka_b1(dual_group_report(presentation, alpha), alpha).b1
        seen.add((presentation.relator_count, len(alpha.factors) > 1, alpha.order > 16))

    check()
    # one- and three-relator groups, cyclic and (Z/2)^a x (Z/4)^c deck groups
    assert {(1, False), (1, True), (3, False), (3, True)} <= {key[:2] for key in seen}
