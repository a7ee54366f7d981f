"""Words, Smith normal form, abelianization, and Fox calculus."""

import random
from fractions import Fraction

import pytest

from slopekit import group_core
from slopekit.group_core import (
    AbelianGroupStructure,
    GroupPresentation,
    IntegerMatrix,
    LaurentPolynomial,
    MalformedWordError,
    TorsionInAbelianizationError,
    Word,
    abelianization,
    abelianized_exponents,
    alexander_matrix,
    cyclic_group,
    fox_derivative,
    free_abelianization,
    free_group,
    free_reduce,
    smith_normal_form,
    surface_group,
    torus_group,
    trefoil_group,
)

from _oracles import laurent_add, laurent_mul, matmul, word_monomial

# ---------------------------------------------------------------------------
# Independent oracles, used only by this test module.


def naive_reduce(letters):
    """One cancellation at a time until nothing changes."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i:i + 2]
                changed = True
                break
    return tuple(out)


def rational_rank(rows):
    """Rank over Q by plain Gaussian elimination on Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [inv * x for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def rational_det(rows):
    """Determinant over Q by Gaussian elimination on Fractions."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for i in range(col + 1, n):
            if work[i][col]:
                f = work[i][col] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return det


def random_word(rng, generator_count, max_len=12):
    length = rng.randrange(max_len + 1)
    return tuple(
        rng.choice([1, -1]) * rng.randint(1, generator_count) for _ in range(length)
    )


# ---------------------------------------------------------------------------
# free_reduce / words


def test_free_reduce_examples():
    assert free_reduce([1, -1, 2]) == (2,)
    assert free_reduce([]) == ()
    assert free_reduce([1, 2, -2, -1, 3]) == (3,)


def test_free_reduce_rejects_bad_letters():
    with pytest.raises(MalformedWordError):
        free_reduce([0])
    with pytest.raises(MalformedWordError):
        free_reduce([3], generator_count=2)
    with pytest.raises(MalformedWordError):
        free_reduce(["a"])


def test_free_reduce_idempotent_and_never_longer():
    rng = random.Random(101)
    for _ in range(1000):
        raw = random_word(rng, 3)
        once = free_reduce(raw)
        assert free_reduce(once) == once
        assert len(once) <= len(raw)
        assert once == naive_reduce(raw)


def test_word_is_stored_reduced():
    w = Word((1, -1, 2))
    assert w.letters == (2,)
    assert Word((1, 2, -2, -1)) == Word(())


def test_abelianized_exponents_examples():
    assert abelianized_exponents([1, 2, 1, -2], 2) == (2, 0)
    assert abelianized_exponents([1, 2, -1, -2], 2) == (0, 0)
    # trefoil relator x y x y^-1 x^-1 y^-1: counts to (1, -1)
    assert abelianized_exponents([1, 2, 1, -2, -1, -2], 2) == (1, -1)


def test_abelianized_exponents_invariant_under_reduction():
    rng = random.Random(202)
    for _ in range(300):
        raw = random_word(rng, 4)
        assert abelianized_exponents(raw, 4) == abelianized_exponents(free_reduce(raw), 4)


# ---------------------------------------------------------------------------
# Smith normal form


def assert_snf_contract(m):
    d, u, v = smith_normal_form(m)
    assert matmul(matmul(u, m), v) == d
    # diagonal, nonnegative, divisibility chain
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    diag = d.diagonal()
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert abs(rational_det(u.entries)) == 1
    assert abs(rational_det(v.entries)) == 1
    assert sum(1 for x in diag if x) == rational_rank(m.entries)
    return d


def test_snf_diag_2_3():
    # gcd of the entries is 1 and |det| = 6, so the invariant factors are 1, 6
    d = assert_snf_contract(IntegerMatrix([[2, 0], [0, 3]]))
    assert d.diagonal() == (1, 6)


def test_snf_zero_matrix():
    d = assert_snf_contract(IntegerMatrix([[0, 0], [0, 0]]))
    assert d.diagonal() == (0, 0)


def test_snf_diag_1_0():
    d = assert_snf_contract(IntegerMatrix([[1, 0], [0, 0]]))
    assert d.diagonal() == (1, 0)


def test_snf_empty_shapes():
    assert_snf_contract(IntegerMatrix([], rows=0, cols=3))
    assert_snf_contract(IntegerMatrix([[], []], rows=2, cols=0))


def test_snf_random_matrices():
    rng = random.Random(303)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = IntegerMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        assert_snf_contract(m)


# ---------------------------------------------------------------------------
# Abelianization


def test_abelianization_fixtures():
    assert abelianization(torus_group()) == AbelianGroupStructure(2, ())
    assert abelianization(trefoil_group()) == AbelianGroupStructure(1, ())
    assert abelianization(cyclic_group(5)) == AbelianGroupStructure(0, (5,))
    assert abelianization(free_group(2)) == AbelianGroupStructure(2, ())
    assert abelianization(surface_group(2)) == AbelianGroupStructure(4, ())


def presentation_with_exponents(rows, generator_count):
    """One relator per row, x_j^rows[i][j] in turn: its exponent matrix is
    the transpose of ``rows``."""
    return GroupPresentation(generator_count, tuple(
        tuple(letter for j, x in enumerate(row) for letter in [(j + 1) * (1 if x > 0 else -1)] * abs(x))
        for row in rows
    ))


def dense_abelianization(presentation):
    """H1 from the dense Smith form of the whole exponent matrix."""
    diag = smith_normal_form(presentation.exponent_matrix())[0].diagonal()
    rank = sum(1 for x in diag if x)
    return AbelianGroupStructure(
        presentation.generator_count - rank, tuple(x for x in diag if x > 1))


def test_unit_elimination_matches_dense_smith_form(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    @st.composite
    def sparse_matrix(draw):
        rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        values = [0, 0, 0, 2, -2, 3, 4, -6]
        if draw(st.booleans()):  # otherwise no unit entry at all
            values += [1, -1, 1, -1]
        entries = [[draw(st.sampled_from(values)) for _ in range(cols)] for _ in range(rows)]
        if rows and cols and draw(st.booleans()):  # an all-zero row and column
            zero_row, zero_col = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            entries[zero_row] = [0] * cols
            for row in entries:
                row[zero_col] = 0
        return entries, cols

    remainders = []

    def recording_smith_form(m):
        remainders.append(m)
        return smith_normal_form(m)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(sparse_matrix())
    def check(case):
        entries, cols = case
        presentation = presentation_with_exponents(entries, cols)
        with monkeypatch.context() as patch:
            patch.setattr(group_core, "smith_normal_form", recording_smith_form)
            structure = abelianization(presentation)
        # every unit entry, including those the elimination creates, is used
        assert all(abs(x) != 1 for row in remainders[-1].entries for x in row)
        assert structure == dense_abelianization(presentation)
        m = presentation.exponent_matrix()
        assert_snf_contract(m)
        rank = cols - structure.free_rank
        assert rank == rational_rank(m.entries)
        rows = [list(row) for row in m.entries]
        expected = [int(x) for x in invariant_factors(sympy.Matrix(rows)) if x]
        assert [1] * (rank - len(structure.torsion_coefficients)) + list(
            structure.torsion_coefficients) == expected

    check()


def random_commutator_relator(rng, rank):
    def word():
        return [rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(3)]

    def inverse(w):
        return [-x for x in reversed(w)]

    letters = []
    for _ in range(2):
        u, v = word(), word()
        letters += u + v + inverse(u) + inverse(v)
    return letters


def test_unit_elimination_on_covers_with_torsion():
    # Z/6 and Z/12 covers of 3-relator rank-4 groups: after the unit pivots
    # a remainder is left and the cover's H1 has torsion
    from slopekit.covers import AbelianEpimorphism, reidemeister_schreier

    rng = random.Random(707)
    torsion_seen = 0
    for _ in range(8):
        presentation = GroupPresentation(4, tuple(random_commutator_relator(rng, 4) for _ in range(3)))
        for order in (6, 12):
            weights = (1,) + tuple(rng.randrange(order) for _ in range(3))
            sub = reidemeister_schreier(presentation, AbelianEpimorphism.cyclic(order, weights))
            structure = abelianization(sub.presentation)
            assert structure == dense_abelianization(sub.presentation)
            torsion_seen += bool(structure.torsion_coefficients)
    assert torsion_seen >= 8


def test_free_abelianization_images():
    fa = free_abelianization(torus_group())
    assert fa.rank == 2
    assert fa.generator_images == ((1, 0), (0, 1))
    fa_t = free_abelianization(trefoil_group())
    # both trefoil generators map to the same variable t
    assert fa_t.rank == 1
    assert fa_t.generator_images == ((1,), (1,))


def test_free_abelianization_cache_is_bounded():
    maxsize = free_abelianization.cache_info().maxsize
    assert maxsize is not None
    for n in range(1, maxsize + 10):
        free_abelianization(GroupPresentation(1, (Word((1,) * n),)))
    assert free_abelianization.cache_info().currsize == maxsize


# ---------------------------------------------------------------------------
# Fox calculus


def test_fox_derivative_examples():
    torus = torus_group()
    commutator = Word((1, 2, -1, -2))
    d_a = fox_derivative(torus, commutator, 1)
    assert d_a == LaurentPolynomial(2, {(0, 0): 1, (0, 1): -1})  # 1 - t2

    free1 = free_group(1)
    assert fox_derivative(free1, Word((1,)), 1) == LaurentPolynomial(1, {(0,): 1})

    trefoil = trefoil_group()
    d_x = fox_derivative(trefoil, trefoil.relators[0], 1)
    assert d_x == LaurentPolynomial(1, {(0,): 1, (1,): -1, (2,): 1})  # 1 - t + t^2


def test_fox_derivative_inverse_rule():
    free1 = free_group(1)
    # d(x^-1)/dx = -x^-1
    assert fox_derivative(free1, (-1,), 1) == LaurentPolynomial(1, {(-1,): -1})


def test_fox_rejects_torsion():
    with pytest.raises(TorsionInAbelianizationError):
        fox_derivative(cyclic_group(5), Word((1,)), 1)


@pytest.mark.parametrize("presentation", [torus_group(), free_group(3)])
def test_fox_product_rule(presentation):
    rng = random.Random(404)
    g = presentation.generator_count
    for _ in range(300):
        u = random_word(rng, g, 8)
        v = random_word(rng, g, 8)
        uv = u + v
        for i in range(1, g + 1):
            lhs = fox_derivative(presentation, uv, i)
            rhs = laurent_add(
                fox_derivative(presentation, u, i),
                laurent_mul(word_monomial(presentation, u), fox_derivative(presentation, v, i)),
            )
            assert lhs == rhs


def test_alexander_matrix_fixtures():
    torus = alexander_matrix(torus_group())
    assert len(torus) == 1 and len(torus[0]) == 2
    assert torus[0][0] == LaurentPolynomial(2, {(0, 0): 1, (0, 1): -1})
    assert torus[0][1] == LaurentPolynomial(2, {(1, 0): 1, (0, 0): -1})

    assert alexander_matrix(free_group(2)) == []

    trefoil = alexander_matrix(trefoil_group())
    assert trefoil[0][0] == LaurentPolynomial(1, {(0,): 1, (1,): -1, (2,): 1})


def test_alexander_matrix_at_one_is_exponent_matrix():
    for presentation in (torus_group(), trefoil_group(), surface_group(2)):
        matrix = alexander_matrix(presentation)
        exponents = presentation.exponent_matrix()
        for j, row in enumerate(matrix):
            for i, poly in enumerate(row):
                assert sum(poly.terms.values()) == exponents.entries[i][j]


def test_presentation_validates_relators():
    with pytest.raises(MalformedWordError):
        GroupPresentation(1, (Word((2,)),))


def test_laurent_polynomial_arithmetic():
    one, minus_one = LaurentPolynomial(1, {(0,): 1}), LaurentPolynomial(1, {(0,): -1})
    t = LaurentPolynomial(1, {(1,): 1})
    p = laurent_add(laurent_add(one, laurent_mul(minus_one, t)), laurent_mul(t, t))
    assert p == LaurentPolynomial(1, {(0,): 1, (1,): -1, (2,): 1})
    assert laurent_add(p, laurent_mul(minus_one, p)).is_zero()
    assert str(p) == "1 - t + t^2"
    assert p != 1 and LaurentPolynomial(1, {}) != 0
