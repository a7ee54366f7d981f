"""Coset actions, Reidemeister-Schreier rewriting, and cover Betti numbers."""

import random

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
    Word,
    abelianization,
    free_group,
    smith_normal_form,
    surface_group,
    torus_group,
)

from _oracles import coset_permutation, kernel_lattice_basis, random_unimodular, rational_det


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
    with pytest.raises(NotAnEpimorphismError):
        coset_action(torus_group(), AbelianEpimorphism.cyclic(2, (1, 0, 0)))


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


def test_transversal_is_schreier():
    sub = reidemeister_schreier(torus_group(), AbelianEpimorphism.cyclic(4, (1, 2)))
    assert len(sub.transversal) == 4
    assert sub.transversal[0].letters == ()
    # prefix-closed: every proper prefix is some other representative
    reps = {w.letters for w in sub.transversal}
    for word in sub.transversal:
        for cut in range(len(word.letters)):
            assert word.letters[:cut] in reps


def test_transversal_matches_word_built_one():
    # BFS in generator order: coset 1 by a, coset 2 by b, coset 3 = 1 + 2 by ab
    sub = reidemeister_schreier(torus_group(), AbelianEpimorphism.cyclic(4, (1, 2)))
    assert sub.transversal == (Word(()), Word((1,)), Word((2,)), Word((1, 2)))
    for group, alpha in (
        (surface_group(2), AbelianEpimorphism.cyclic(6, (1, 2, 0, 3))),
        (surface_group(2), AbelianEpimorphism(4, (2, 4), ((1, 0, 1, 0), (0, 1, 0, 3)))),
    ):
        transversal = reidemeister_schreier(group, alpha).transversal
        assert transversal == tuple(Word(w.letters) for w in transversal)
        assert all(type(w) is Word for w in transversal)


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
