"""Reference arithmetic that the tests check the library against.

Plain functions over the library's own value types, written for clarity
rather than speed; nothing in the library calls them.
"""

from fractions import Fraction

from slopekit.group_core import (
    IntegerMatrix,
    LaurentPolynomial,
    abelianized_exponents,
    free_abelianization,
)
from slopekit.jumping_loci import CyclotomicNumber


def laurent_add(a, b):
    """Sum of two Laurent polynomials in the same variables."""
    if a.variables != b.variables:
        raise ValueError("variable count mismatch")
    terms = dict(a.terms)
    for exps, coeff in b.terms.items():
        terms[exps] = terms.get(exps, 0) + coeff
    return LaurentPolynomial(a.variables, terms)


def laurent_mul(a, b):
    """Product of two Laurent polynomials in the same variables."""
    if a.variables != b.variables:
        raise ValueError("variable count mismatch")
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            terms[key] = terms.get(key, 0) + c1 * c2
    return LaurentPolynomial(a.variables, terms)


def word_monomial(presentation, word):
    """Image of a word in the group ring of the free abelianization."""
    fa = free_abelianization(presentation)
    exps = abelianized_exponents(word, presentation.generator_count)
    image = [0] * fa.rank
    for gen, power in enumerate(exps):
        for k in range(fa.rank):
            image[k] += power * fa.generator_images[gen][k]
    return LaurentPolynomial(fa.rank, {tuple(image): 1})


def root_powers(modulus, powers):
    """The cyclotomic integer sum(coeff * zeta_modulus**power)."""
    vec = [0] * modulus
    for power, coeff in powers.items():
        vec[power % modulus] += coeff
    return CyclotomicNumber(modulus, vec)


def evaluate_laurent(poly, character):
    """Specialize a Laurent polynomial at the character's root of unity."""
    if poly.variables != len(character.exponents):
        raise ValueError("polynomial variables do not match character rank")
    powers = {}
    for exps, coeff in poly.terms.items():
        p = character.pairing(exps)
        powers[p] = powers.get(p, 0) + coeff
    return root_powers(character.modulus, powers)


def matmul(a, b):
    """Product of two integer matrices."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in matrix product")
    product = [
        [sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols)) for j in range(b.cols)]
        for i in range(a.rows)
    ]
    return IntegerMatrix(product, rows=a.rows, cols=b.cols)


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
