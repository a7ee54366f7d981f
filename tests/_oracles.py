"""Reference arithmetic that the tests check the library against.

Plain functions over the library's own value types, written for clarity
rather than speed; nothing in the library calls them.  Also the random
unimodular matrices that the cover tests build epimorphisms from,
Reidemeister-Schreier rewriting with (coset, generator) edge keys and a
re-reduction of each rewritten relator, and the Farey fractions that the
density tests enumerate.
"""

import itertools
from collections import deque
from fractions import Fraction
from math import gcd

from slopekit.covers import SubgroupPresentation, coset_action
from slopekit.density import _farey_pairs
from slopekit.errors import SlopekitError
from slopekit.group_core import (
    AbelianGroupStructure,
    GroupPresentation,
    IntegerMatrix,
    LaurentPolynomial,
    abelianized_exponents,
    free_abelianization,
    free_reduce,
    smith_normal_form,
)
from slopekit.jumping_loci import (
    CharacterDomainError,
    CoverB1Result,
    CyclotomicNumber,
    TorsionCharacter,
)


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


def enumerate_characters(rank, max_order):
    """Every character of rank ``rank`` and order 2..max_order, each in
    canonical form (exponents in range(m), gcd with m equal to 1), in
    ascending (order, exponents) order: the characters a scan visits."""
    for m in range(2, max_order + 1):
        for exps in itertools.product(range(m), repeat=rank):
            if exps and gcd(m, *exps) == 1:
                yield TorsionCharacter(m, exps)


def root_powers(modulus, powers):
    """The cyclotomic integer sum(coeff * zeta_modulus**power)."""
    vec = [0] * modulus
    for power, coeff in powers.items():
        vec[power % modulus] += coeff
    return CyclotomicNumber(modulus, vec)


def pairing(character, vector):
    """Exponent (mod its modulus) of the character's value on a lattice vector."""
    if len(vector) != len(character.exponents):
        raise CharacterDomainError("vector length does not match character rank")
    return sum(e * v for e, v in zip(character.exponents, vector)) % character.modulus


def evaluate_laurent(poly, character):
    """Specialize a Laurent polynomial at the character's root of unity."""
    if poly.variables != len(character.exponents):
        raise ValueError("polynomial variables do not match character rank")
    powers = {}
    for exps, coeff in poly.terms.items():
        p = pairing(character, exps)
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


def dense_abelianization(presentation):
    """H1 from the dense Smith form of the whole exponent matrix."""
    diag = smith_normal_form(presentation.exponent_matrix())[0].diagonal()
    rank = sum(1 for x in diag if x)
    return AbelianGroupStructure(
        presentation.generator_count - rank, tuple(x for x in diag if x > 1))


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


def invariant_factors(m):
    """Invariant factors of an integer matrix from its determinantal
    divisors: with D_k the gcd of the k x k minors (D_0 = 1), the k-th factor
    is D_k / D_(k-1), and every factor past the rank is 0.  One per diagonal
    position, min(rows, cols) in all."""
    size = min(m.rows, m.cols)
    factors = []
    previous = 1
    for k in range(1, size + 1):
        divisor = 0
        for rows in itertools.combinations(m.entries, k):
            for cols in itertools.combinations(range(m.cols), k):
                minor = rational_det([[row[j] for j in cols] for row in rows])
                divisor = gcd(divisor, int(minor))
        if not divisor:
            break
        factors.append(divisor // previous)
        previous = divisor
    return tuple(factors) + (0,) * (size - len(factors))


def rank_mod_p(rows, p, bound):
    """Rank over F_p of rows with entries in range(p), counted up to bound,
    by elimination with the pivot's inverse; the rows are consumed."""
    rank = 0
    while rows and rank < bound:
        prow = rows.pop()
        if not any(prow):
            continue
        rank += 1
        if rank == bound:
            break
        col = next(j for j, x in enumerate(prow) if x)
        inverse = pow(prow[col], -1, p)
        for i, row in enumerate(rows):
            if row[col]:
                f = row[col] * inverse % p
                rows[i] = [(x - f * y) % p for x, y in zip(row, prow)]
    return rank


def kernel_lattice_basis(alpha):
    """Generators of the full-rank sublattice ker(alpha) of Z^source_rank.

    Solves A x = -N y over Z for N = diag(factors): the kernel of the block
    matrix B = [A | N] projected to the x coordinates.  In the Smith form
    U * B^T * V = D, each row u of U past the rank has u * B^T = 0; U is
    unimodular, so these rows are a basis of ker B.
    """
    k, b = len(alpha.factors), alpha.source_rank
    if k == 0:
        return tuple(tuple(1 if i == j else 0 for j in range(b)) for i in range(b))
    block = [
        list(alpha.matrix[j]) + [alpha.factors[j] if i == j else 0 for i in range(k)]
        for j in range(k)
    ]
    transposed = [[row[i] for row in block] for i in range(b + k)]
    d, u = smith_normal_form(IntegerMatrix(transposed, rows=b + k, cols=k))
    rank = sum(1 for x in d.diagonal() if x)
    return tuple(row[:b] for row in u.entries[rank:])


def kernel_lattice_hironaka_b1(report, alpha):
    """Hironaka's formula over the report's entries: an entry contributes its
    depth when its character vanishes on every kernel lattice generator.
    Checks neither the report's rank nor its scan bound."""
    kernel = kernel_lattice_basis(alpha)
    contributions = tuple(
        entry for entry in report.entries
        if all(pairing(entry.character, v) == 0 for v in kernel)
    )
    return CoverB1Result(report.b1 + sum(e.depth for e in contributions), contributions)


def coset_permutation(factors, shift):
    """Translation by shift on the elements of Z/n_1 + ... + Z/n_k, as a table
    of lexicographic ranks, element by element."""
    elements = list(itertools.product(*(range(n) for n in factors)))

    def index(element):
        idx = 0
        for c, n in zip(element, factors):
            idx = idx * n + c % n
        return idx

    return [
        index(tuple((c + s) % n for c, s, n in zip(element, shift, factors)))
        for element in elements
    ]


def random_unimodular(rng, n, steps=8):
    """A random n x n integer matrix of determinant +-1: the identity after
    ``steps`` random row additions, swaps and sign changes."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        move = rng.randrange(3)
        if move == 0:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif move == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return rows


def reference_reidemeister_schreier(presentation, alpha):
    """Presentation of ker(alpha) by Schreier rewriting, edge by edge: a BFS
    spanning tree over the cosets as a set of (coset, generator) pairs, the
    other edges numbered in (coset, generator) order, and each relator lift
    reduced by ``free_reduce``."""
    perms = coset_action(presentation, alpha)
    g = presentation.generator_count
    d = alpha.order
    inverse_perms = [[0] * d for _ in range(g)]
    for i, perm in enumerate(perms):
        for src, dst in enumerate(perm):
            inverse_perms[i][dst] = src

    reached = {0}
    tree = set()
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for i in range(1, g + 1):
            nxt = perms[i - 1][c]
            if nxt not in reached:
                reached.add(nxt)
                tree.add((c, i))
                queue.append(nxt)
    if len(reached) != d:
        raise SlopekitError(f"coset action reached {len(reached)} of {d} cosets")

    new_index = {}
    for c in range(d):
        for i in range(1, g + 1):
            if (c, i) not in tree:
                new_index[(c, i)] = len(new_index) + 1

    sub_relators = []
    for c in range(d):
        for rel in presentation.relators:
            letters = []
            cur = c
            for letter in rel:
                i = abs(letter)
                if letter > 0:
                    edge = (cur, i)
                    cur = perms[i - 1][cur]
                    if edge not in tree:
                        letters.append(new_index[edge])
                else:
                    cur = inverse_perms[i - 1][cur]
                    edge = (cur, i)
                    if edge not in tree:
                        letters.append(-new_index[edge])
            if cur != c:
                raise SlopekitError("relator does not stabilize its coset")
            sub_relators.append(free_reduce(letters))

    return SubgroupPresentation(
        presentation=GroupPresentation(len(new_index), tuple(sub_relators)),
        ambient=presentation,
        index=d,
    )


def farey_fractions(max_denominator):
    """Reduced fractions in (0, 1) with denominator <= max_denominator,
    ascending (the interior of the Farey sequence of that order)."""
    return (Fraction(c, d) for c, d in _farey_pairs(max_denominator))
