"""Finite abelian covers via Reidemeister-Schreier rewriting.

An epimorphism alpha from a group G onto a finite abelian group S (factoring
through the maximal free abelian quotient of G) determines a finite cover
whose fundamental group is ker(alpha).  Because alpha is abelian, the coset
action of G on S is by translations, so no general coset enumeration is
needed: a spanning tree of the coset graph is found by breadth-first search
over S, and each relator is rewritten once per coset, through one flat table
that numbers the edges of the coset graph.  The resulting presentation,
after discarding the spanning-tree generators, gives the cover's first Betti number through
plain abelianization - an independent route against which the jumping-locus
computation can be cross-checked.  Its exponent matrix is sparse with mostly
unit entries.  A generator that occurs once with exponent +1 in one relator
lift and once with -1 in another, and nowhere else, is an edge between the
two; the abelianization first joins the relator rows along such edges by
union-find, then eliminates the remaining unit pivots, taking the shortest
row and, in it, the unit whose generator occurs in the fewest rows.  On
surface-group covers every generator is an edge, the rank is the number of
rows less the number of components, and nothing is left for the dense Smith
form.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from math import lcm, prod
from typing import Mapping, Sequence

from .errors import SlopekitError, _json_int
from .group_core import (
    GroupPresentation,
    IntegerMatrix,
    abelianization,
    free_abelianization,
    smith_normal_form,
)


class NotAnEpimorphismError(SlopekitError):
    """The supplied data does not define a surjection onto the target."""


@dataclass(frozen=True)
class AbelianEpimorphism:
    """A surjection Z^source_rank -> Z_{n_1} + ... + Z_{n_k}.

    ``matrix`` holds one row per cyclic factor; row j applied to a vector and
    reduced mod ``factors[j]`` gives that coordinate of the image.
    Surjectivity is enforced at construction (Smith form of the matrix
    augmented by the factor moduli must have all invariant factors 1).
    """

    source_rank: int
    factors: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.source_rank < 0:
            raise NotAnEpimorphismError("source rank must be nonnegative")
        try:
            factors = tuple(map(_json_int, self.factors))
            rows = tuple(tuple(map(_json_int, row)) for row in self.matrix)
        except TypeError as exc:
            raise NotAnEpimorphismError(f"factors and matrix entries must be integers: {exc}") from exc
        if any(n < 1 for n in factors):
            raise NotAnEpimorphismError("factor moduli must be positive")
        if len(rows) != len(factors) or any(len(row) != self.source_rank for row in rows):
            raise NotAnEpimorphismError(
                f"matrix must be {len(factors)} x {self.source_rank} for the given factors"
            )
        rows = tuple(
            tuple(x % n for x in row) for row, n in zip(rows, factors)
        )
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "matrix", rows)
        if not self._is_surjective():
            raise NotAnEpimorphismError(
                f"matrix {rows} does not map Z^{self.source_rank} onto "
                f"the group with invariant factors {factors}"
            )

    def _is_surjective(self) -> bool:
        """Whether the Smith form of the block matrix [A | N], N =
        diag(factors), has all k leading invariant factors equal to 1."""
        k, b = len(self.factors), self.source_rank
        if k == 0:
            return True
        block = [
            list(self.matrix[j]) + [self.factors[j] if i == j else 0 for i in range(k)]
            for j in range(k)
        ]
        diag = smith_normal_form(IntegerMatrix(block, rows=k, cols=b + k))[0].diagonal()
        return len(diag) >= k and all(x == 1 for x in diag[:k])

    @classmethod
    def cyclic(cls, order: int, weights: Sequence[int]) -> "AbelianEpimorphism":
        """Shorthand for a cyclic quotient Z^b -> Z_order with given weights."""
        weights = tuple(weights)
        return cls(len(weights), (order,), (weights,))

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def exponent(self) -> int:
        """Least common multiple of the factor orders (exponent of S)."""
        return lcm(*self.factors) if self.factors else 1

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.source_rank:
            raise NotAnEpimorphismError("vector length does not match source rank")
        return tuple(
            sum(a * x for a, x in zip(row, vector)) % n
            for row, n in zip(self.matrix, self.factors)
        )

    def to_json_dict(self) -> dict:
        return {"factors": list(self.factors), "matrix": [list(r) for r in self.matrix]}

    @classmethod
    def from_json_dict(cls, data: Mapping, source_rank: int | None = None) -> "AbelianEpimorphism":
        try:
            factors = tuple(data["factors"])
            matrix = tuple(tuple(row) for row in data["matrix"])
        except (KeyError, TypeError) as exc:
            raise NotAnEpimorphismError(
                f"epimorphism JSON needs factors and matrix: {exc}"
            ) from exc
        if source_rank is None:
            if not matrix:
                raise NotAnEpimorphismError("source rank cannot be inferred from an empty matrix")
            source_rank = len(matrix[0])
        return cls(source_rank, factors, matrix)


def _generator_shifts(
    presentation: GroupPresentation, alpha: AbelianEpimorphism
) -> list[tuple[int, ...]]:
    """Image in S of each generator, via the free abelianization, whose
    rank must be alpha's source rank, as for Hironaka's formula."""
    fa = free_abelianization(presentation)
    if fa.rank != alpha.source_rank:
        raise NotAnEpimorphismError(
            f"epimorphism needs free rank {alpha.source_rank}, group has {fa.rank}"
        )
    return [alpha.apply(image) for image in fa.generator_images]


def coset_action(
    presentation: GroupPresentation, alpha: AbelianEpimorphism
) -> list[list[int]]:
    """Permutation of the cosets (= elements of S) induced by each generator.

    Cosets are indexed by the lexicographic rank of their tuples, identity
    coset first; generator i acts by translation by alpha(image of x_i).
    The rank of a tuple is the sum of its digits times their strides, so a
    translate's rank is a sum over per-factor tables of ((x + s_j) mod n_j)
    * stride_j, and itertools.product visits those tables in the same
    lexicographic order as the cosets.
    """
    shifts = _generator_shifts(presentation, alpha)
    factors = alpha.factors
    strides = [prod(factors[j + 1:]) for j in range(len(factors))]
    return [
        list(map(sum, itertools.product(*(
            [(x + s) % n * stride for x in range(n)]
            for s, n, stride in zip(shift, factors, strides)
        ))))
        for shift in shifts
    ]


@dataclass(frozen=True)
class SubgroupPresentation:
    """Presentation of ker(alpha) as a subgroup of index ``index``.

    The Euler characteristic relation 1 - g' + r' = index * (1 - g + r)
    against the ambient presentation is checked at construction.
    """

    presentation: GroupPresentation
    ambient: GroupPresentation
    index: int

    def __post_init__(self) -> None:
        g, r = self.ambient.generator_count, self.ambient.relator_count
        gp, rp = self.presentation.generator_count, self.presentation.relator_count
        if 1 - gp + rp != self.index * (1 - g + r):
            raise SlopekitError(
                f"Euler characteristic violated: 1-{gp}+{rp} != {self.index}*(1-{g}+{r})"
            )


def reidemeister_schreier(
    presentation: GroupPresentation, alpha: AbelianEpimorphism
) -> SubgroupPresentation:
    """Presentation of ker(alpha) by Schreier rewriting.

    The spanning tree comes from breadth-first search over the cosets
    starting at the identity, trying generators in declaration order; only
    which edges it uses is kept.  Spanning-tree generators are eliminated
    eagerly, leaving d*g - (d-1) generators and d*r relators (one rewrite
    of each relator per coset).

    Edge (c, i), generator i leaving coset c, is slot c*g + i - 1 of one
    flat table holding its subgroup generator number, or 0 on the spanning
    tree; the numbers follow the slots.  Each relator lift is freely reduced
    on a stack as its letters are written.
    """
    perms = coset_action(presentation, alpha)
    g = presentation.generator_count
    d = alpha.order
    inverse_perms = [[0] * d for _ in range(g)]
    for inverse, perm in zip(inverse_perms, perms):
        for src, dst in enumerate(perm):
            inverse[dst] = src

    # BFS spanning tree: a tree edge is marked 0 in the table.
    seen = bytearray(d)
    seen[0] = 1
    edges = [1] * (d * g)
    reached = 1
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for i, perm in enumerate(perms):
            nxt = perm[c]
            if not seen[nxt]:
                seen[nxt] = 1
                edges[c * g + i] = 0
                reached += 1
                queue.append(nxt)
    if reached != d:
        raise NotAnEpimorphismError(
            f"coset action is not transitive: reached {reached} of {d} cosets"
        )

    # Non-tree edges become the subgroup generators, numbered slot by slot.
    generators = 0
    for slot, edge in enumerate(edges):
        if edge:
            generators += 1
            edges[slot] = generators

    # Each letter as (its permutation of the cosets, the signed generator it
    # reads at each coset): generator i + 1 reads column i of the table, the
    # edge leaving the coset; its inverse reads the edge by which generator
    # i + 1 enters the coset, negated.
    steps = {}
    for i, (perm, inverse) in enumerate(zip(perms, inverse_perms)):
        labels = edges[i::g]
        steps[i + 1] = (perm, labels)
        steps[-i - 1] = (inverse, [-labels[src] for src in inverse])
    walks = [[steps[letter] for letter in rel] for rel in presentation.relators]

    sub_relators: list[tuple[int, ...]] = []
    for c in range(d):
        for walk in walks:
            stack: list[int] = []
            cur = c
            for perm, labels in walk:
                gen = labels[cur]
                cur = perm[cur]
                if gen:
                    if stack and stack[-1] == -gen:
                        stack.pop()
                    else:
                        stack.append(gen)
            if cur != c:
                raise SlopekitError("relator does not stabilize its coset; action is inconsistent")
            sub_relators.append(tuple(stack))

    sub = GroupPresentation(generators, tuple(sub_relators))
    return SubgroupPresentation(presentation=sub, ambient=presentation, index=d)


def subgroup_b1(presentation: GroupPresentation, alpha: AbelianEpimorphism) -> int:
    """First Betti number of ker(alpha): free rank of the rewritten group's H1."""
    sub = reidemeister_schreier(presentation, alpha)
    return abelianization(sub.presentation).free_rank
