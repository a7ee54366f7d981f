"""Reference arithmetic that the tests check the library against.

Plain functions over the library's own value types, written for clarity
rather than speed; nothing in the library calls them.
"""

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
    if poly.variables != character.rank:
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
