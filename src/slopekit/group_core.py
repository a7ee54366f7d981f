"""Finitely presented groups, abelianization, and Fox calculus.

A word is a tuple of signed generator indices (``+i`` for the i-th
generator, ``-i`` for its inverse, indices starting at 1).  A presentation's
relators are such tuples, checked and freely reduced once, by one
:func:`free_reduce` pass when the :class:`GroupPresentation` is built;
every reader takes them as plain tuples.  Abelianization is computed from
the Smith normal form of the generator/relator exponent matrix, over exact
integers, after eliminating its graph columns by union-find and its other
unit entries sparsely; the row transform of the Smith normal form supplies
the map onto the maximal free abelian quotient Z^b that underlies both the
symbolic Alexander matrix (Fox derivatives with letters sent to
monomials t_1..t_b) and the character evaluations performed elsewhere.

Everything here is pure and immutable; no floating point is used anywhere.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import SlopekitError, _json_int


class MalformedWordError(SlopekitError):
    """A word contains a zero or non-int letter, or an index outside
    1..generator_count."""


class TorsionInAbelianizationError(SlopekitError):
    """Symbolic Fox calculus requested for a group whose H1 has torsion."""


# ---------------------------------------------------------------------------
# Words


def free_reduce(letters: Iterable[int], generator_count: int | None = None) -> tuple[int, ...]:
    """Freely reduce a letter sequence, cancelling adjacent x x^-1 pairs.

    Letters are nonzero signed generator indices; ``True`` and ``False``
    are not letters.  When ``generator_count`` is given, indices out of
    range raise :class:`MalformedWordError`.  The result is the unique
    freely reduced form, so the function is idempotent and never
    lengthens its input.

    >>> free_reduce([1, -1, 2])
    (2,)
    >>> free_reduce([1, 2, -2, -1, 3])
    (3,)
    >>> free_reduce([])
    ()
    """
    stack: list[int] = []
    for letter in letters:
        # A plain int passes on its class alone; True and False are ints to
        # isinstance, but not letters.
        if letter.__class__ is not int and (
            isinstance(letter, bool) or not isinstance(letter, int)
        ) or letter == 0:
            raise MalformedWordError(f"invalid letter {letter!r}: want nonzero signed index")
        if generator_count is not None and abs(letter) > generator_count:
            raise MalformedWordError(
                f"letter {letter} out of range for {generator_count} generators"
            )
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def abelianized_exponents(word: Iterable[int], generator_count: int) -> tuple[int, ...]:
    """Total signed exponent of each generator: the image under G -> H1.

    >>> abelianized_exponents([1, 2, 1, -2], 2)
    (2, 0)
    >>> abelianized_exponents([1, 2, -1, -2], 2)
    (0, 0)
    """
    totals = [0] * generator_count
    for letter in free_reduce(word, generator_count):
        totals[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(totals)


# ---------------------------------------------------------------------------
# Presentations


@dataclass(frozen=True)
class GroupPresentation:
    """Generators 1..g and a tuple of relators, each a freely reduced tuple
    of signed generator indices.  Any iterables of ints are accepted;
    construction checks and reduces each one in one :func:`free_reduce`
    pass, which refuses a zero, a non-int or an out-of-range letter."""

    generator_count: int
    relators: tuple[tuple[int, ...], ...] = ()
    # Presentations key the per-presentation caches.  A scan hashes its
    # presentation once, but every twisted_h1 call outside a scan looks up
    # the evaluator cache, so the hash is taken once, at construction.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        count = self.generator_count
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise MalformedWordError(f"generator count must be a nonnegative int, got {count!r}")
        relators = tuple(free_reduce(r, count) for r in self.relators)
        object.__setattr__(self, "relators", relators)
        object.__setattr__(self, "_hash", hash((count, relators)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def relator_count(self) -> int:
        return len(self.relators)

    def exponent_matrix(self) -> "IntegerMatrix":
        """g x r matrix whose (i, j) entry is the exponent sum of generator
        i+1 in relator j."""
        g, r = self.generator_count, len(self.relators)
        cols = [abelianized_exponents(w, g) for w in self.relators]
        return IntegerMatrix([[cols[j][i] for j in range(r)] for i in range(g)], rows=g, cols=r)


def free_group(rank: int) -> GroupPresentation:
    return GroupPresentation(rank, ())


def surface_group(genus: int) -> GroupPresentation:
    """Orientable surface group of the given genus >= 1, single relator
    [a1,b1]...[ag,bg]."""
    if genus < 1:
        raise ValueError("surface group needs genus >= 1")
    rel: list[int] = []
    for h in range(genus):
        a, b = 2 * h + 1, 2 * h + 2
        rel += [a, b, -a, -b]
    return GroupPresentation(2 * genus, (tuple(rel),))


def torus_group() -> GroupPresentation:
    return surface_group(1)


def trefoil_group() -> GroupPresentation:
    """Trefoil knot group <x, y | xyx = yxy>."""
    return GroupPresentation(2, ((1, 2, 1, -2, -1, -2),))


def cyclic_group(order: int) -> GroupPresentation:
    return GroupPresentation(1, ((1,) * order,))


# ---------------------------------------------------------------------------
# Exact integer matrices and Smith normal form


class IntegerMatrix:
    """Dense matrix over Z with arbitrary-precision entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], rows: int | None = None, cols: int | None = None):
        # one type scan per row: a call per entry would slow the Smith form
        if any(bool in map(type, row) for row in entries):
            raise TypeError("'bool' object cannot be interpreted as an integer")
        data = tuple(tuple(map(operator.index, row)) for row in entries)
        self.rows = len(data) if rows is None else rows
        if cols is None:
            if not data:
                raise ValueError("cols required for a matrix with no rows")
            cols = len(data[0])
        self.cols = cols
        if len(data) != self.rows or any(len(row) != self.cols for row in data):
            raise ValueError("inconsistent matrix dimensions")
        self.entries = data

    def __repr__(self) -> str:
        return f"IntegerMatrix({[list(r) for r in self.entries]!r})"

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def _swap_rows(a: list[list[int]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _swap_cols(a: list[list[int]], i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_row(a: list[list[int]], dst: int, src: int, factor: int) -> None:
    if factor:
        row_s, row_d = a[src], a[dst]
        for j in range(len(row_d)):
            row_d[j] += factor * row_s[j]


def _add_col(a: list[list[int]], dst: int, src: int, factor: int) -> None:
    if factor:
        for row in a:
            row[dst] += factor * row[src]


def smith_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Smith normal form with its row transform: returns (D, U) with
    U*m*V = D for some unimodular V, which is not kept.

    D is diagonal with nonnegative entries, each dividing the next; U is
    unimodular, and the rows of U*m past the rank of D are zero.  Pivots
    are chosen with minimal absolute value to keep intermediate entries
    small; all arithmetic is exact.
    """
    nrows, ncols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]

    def min_pivot(t: int) -> tuple[int, int] | None:
        best: tuple[int, int] | None = None
        best_val = 0
        for i in range(t, nrows):
            for j in range(t, ncols):
                val = abs(a[i][j])
                if val and (best is None or val < best_val):
                    best, best_val = (i, j), val
                    if val == 1:
                        return best
        return best

    t = 0
    while t < min(nrows, ncols):
        pos = min_pivot(t)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                _swap_rows(a, t, i)
                _swap_rows(u, t, i)
            if j != t:
                _swap_cols(a, t, j)
            p = a[t][t]
            reduced = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // p
                    _add_row(a, i, t, -q)
                    _add_row(u, i, t, -q)
                    if a[i][t]:
                        reduced = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // p
                    _add_col(a, j, t, -q)
                    if a[t][j]:
                        reduced = True
            if reduced:
                # some remainder survived: a strictly smaller pivot exists
                pos = min_pivot(t)
                continue
            # row/column t are clean; force the divisibility chain
            offender = next(
                (
                    (i, j)
                    for i in range(t + 1, nrows)
                    for j in range(t + 1, ncols)
                    if a[i][j] % p
                ),
                None,
            )
            if offender is None:
                break
            _add_row(a, t, offender[0], 1)
            _add_row(u, t, offender[0], 1)
            pos = (t, t)
        if a[t][t] < 0:
            for j in range(ncols):
                a[t][j] = -a[t][j]
            for j in range(nrows):
                u[t][j] = -u[t][j]
        t += 1

    d = IntegerMatrix(a, rows=nrows, cols=ncols)
    return d, IntegerMatrix(u, rows=nrows, cols=nrows)


# ---------------------------------------------------------------------------
# Abelianization


@dataclass(frozen=True)
class AbelianGroupStructure:
    """H1 as Z^free_rank + sum of cyclic groups, invariant-factor form."""

    free_rank: int
    torsion_coefficients: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if _json_int(self.free_rank) < 0:
            raise ValueError("free rank must be nonnegative")
        coeffs = tuple(map(operator.index, self.torsion_coefficients))
        for c in coeffs:
            if c <= 1:
                raise ValueError("torsion coefficients must exceed 1")
        for a, b in zip(coeffs, coeffs[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")
        object.__setattr__(self, "torsion_coefficients", coeffs)


def abelianization(presentation: GroupPresentation) -> AbelianGroupStructure:
    """H1 of the presented group from the Smith form of its exponent matrix.

    The matrix is taken sparsely, one row per relator, and reduced in two
    passes before the dense Smith form sees it.  Each step is a Tietze move
    on the abelianized relators, adding one invariant factor 1.

    * Graph columns first: a column whose only nonzero entries are +1 and
      -1, in two rows, is an edge between those rows.  A union-find over the
      rows joins the two groups of each edge, a unit pivot; an edge whose
      rows are already joined is a zero column.  Each group of rows then
      goes on as the sum of its rows, in which the graph columns cancel.
      A graph with c components on r rows has rank r - c.
    * Then the remaining unit pivots, off a heap of rows keyed by their
      length, shortest first; a row pivots on its unit entry whose column
      meets the fewest rows, and every row the elimination changes goes
      back on the heap, the entries it leaves behind being skipped as
      stale.

    The dense Smith form runs only on the remainder.  On surface-group
    covers every column is a graph column and the remainder is empty.
    """
    g = presentation.generator_count
    rows: list[dict[int, int] | None] = []
    for word in presentation.relators:
        row: dict[int, int] = {}
        for letter in word:
            if letter > 0:
                row[letter] = row.get(letter, 0) + 1
            else:
                row[-letter] = row.get(-letter, 0) - 1
        rows.append({j: x for j, x in row.items() if x})

    # The row holding each column's +1 and its -1; a column with any other
    # entry, or a second one of these, is marked as no edge.
    head, tail, other = [-1] * (g + 1), [-1] * (g + 1), bytearray(g + 1)
    for i, row in enumerate(rows):
        for j, x in row.items():
            if x == 1 and head[j] < 0:
                head[j] = i
            elif x == -1 and tail[j] < 0:
                tail[j] = i
            else:
                other[j] = 1
    root = list(range(len(rows)))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = a = root[root[a]]  # path halving
        return a

    units, loose = 0, False
    for j in range(1, g + 1):
        a, b = head[j], tail[j]
        if a >= 0 and b >= 0 and not other[j]:
            a, b = find(a), find(b)
            if a != b:
                root[b] = a
                units += 1
        elif a >= 0 or b >= 0 or other[j]:
            loose = True  # a nonzero column that is no edge
    # Both ends of every edge now lie in one group, so the edge columns
    # cancel in its sum; with no other nonzero column nothing is left.
    if not loose:
        rows = []
    elif units:
        groups: dict[int, dict[int, int]] = {}
        for i, row in enumerate(rows):
            group = groups.setdefault(find(i), {})
            for j, x in row.items():
                group[j] = group.get(j, 0) + x
        rows = [{j: x for j, x in group.items() if x} for group in groups.values()]

    cols: list[set[int]] = [set() for _ in range(g + 1)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    while heap:
        length, i = heapq.heappop(heap)
        pivot_row = rows[i]
        if pivot_row is None or len(pivot_row) != length:
            continue
        j, fewest = 0, 0
        for l, x in pivot_row.items():
            if (x == 1 or x == -1) and (not j or len(cols[l]) < fewest):
                j, fewest = l, len(cols[l])
        if not j:
            continue
        rows[i] = None
        for l in pivot_row:
            cols[l].discard(i)
        # Clear column j with row moves; row i and column j then drop out.
        hits, cols[j] = cols[j], set()
        for k in hits:
            row = rows[k]
            q = row.pop(j) * pivot_row[j]
            for l, x in pivot_row.items():
                if l == j:
                    continue
                y = row.get(l, 0) - q * x
                if not y:
                    del row[l]
                    cols[l].discard(k)
                    continue
                if l not in row:
                    cols[l].add(k)
                row[l] = y
            if row:
                heapq.heappush(heap, (len(row), k))
        units += 1

    live = sorted({j for row in rows if row for j in row})
    dense = [[row.get(j, 0) for j in live] for row in rows if row]
    diag = smith_normal_form(IntegerMatrix(dense, rows=len(dense), cols=len(live)))[0].diagonal()
    rank = units + sum(1 for x in diag if x)
    torsion = tuple(x for x in diag if x > 1)
    return AbelianGroupStructure(presentation.generator_count - rank, torsion)


@dataclass(frozen=True)
class FreeAbelianization:
    """The quotient G -> Z^rank with each generator's image vector."""

    rank: int
    generator_images: tuple[tuple[int, ...], ...]
    torsion_coefficients: tuple[int, ...]


# Bounded: a long-lived process sees many presentations, while one command
# only ever revisits the few it is working on.
@lru_cache(maxsize=32)
def free_abelianization(presentation: GroupPresentation) -> FreeAbelianization:
    """Compute the maximal free abelian quotient Z^b and generator images.

    The images are read off the rows of the unimodular row transform that
    Smith-normalizes the exponent matrix; rows belonging to zero diagonal
    entries descend to a basis of the free quotient.  Row signs are
    normalized (first nonzero entry positive) so the basis is deterministic
    and matches the obvious choice on standard presentations.
    """
    g = presentation.generator_count
    e = presentation.exponent_matrix()
    d, u = smith_normal_form(e)
    diag = d.diagonal()
    free_rows = [i for i in range(g) if i >= len(diag) or diag[i] == 0]
    torsion = tuple(x for x in diag if x > 1)
    basis_rows: list[tuple[int, ...]] = []
    for i in free_rows:
        row = u.entries[i]
        lead = next((x for x in row if x), 0)
        basis_rows.append(tuple(-x for x in row) if lead < 0 else tuple(row))
    images = tuple(tuple(row[j] for row in basis_rows) for j in range(g))
    return FreeAbelianization(len(free_rows), images, torsion)


# ---------------------------------------------------------------------------
# Laurent polynomials and Fox derivatives


class LaurentPolynomial:
    """Integer Laurent polynomial in n variables, dense exponent vectors."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: int, terms: dict[tuple[int, ...], int] | None = None):
        self.variables = variables
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != variables:
                raise ValueError("exponent vector length mismatch")
            coeff = _json_int(coeff)
            if coeff:
                clean[tuple(map(_json_int, exps))] = coeff
        self.terms = clean

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPolynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.variables}, {dict(self.sorted_terms())!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = ["t"] if self.variables == 1 else [f"t{i+1}" for i in range(self.variables)]
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                term = str(abs(coeff))
            elif abs(coeff) == 1:
                term = body
            else:
                term = f"{abs(coeff)}*{body}"
            sign = "-" if coeff < 0 else "+"
            pieces.append(f"{sign} {term}")
        out = " ".join(pieces)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]


def fox_derivative(presentation: GroupPresentation, word: Iterable[int], index: int) -> LaurentPolynomial:
    """Fox free derivative d(word)/d(x_index), abelianized to Z[t_1..t_b].

    Satisfies dx_i/dx_i = 1, dx_j/dx_i = 0 for j != i,
    d(x_i^-1)/dx_i = -x_i^-1, and the product rule
    d(uv) = du + ab(u) * dv.  Only defined symbolically when H1 is
    torsion-free; groups with torsion must go through character evaluation.
    """
    fa = free_abelianization(presentation)
    if fa.torsion_coefficients:
        raise TorsionInAbelianizationError(
            f"H1 has torsion {fa.torsion_coefficients}; symbolic Fox calculus unsupported"
        )
    if not 1 <= index <= presentation.generator_count:
        raise MalformedWordError(f"generator index {index} out of range")
    letters = free_reduce(word, presentation.generator_count)
    b = fa.rank
    prefix = [0] * b
    terms: dict[tuple[int, ...], int] = {}

    def bump(key: tuple[int, ...], delta: int) -> None:
        terms[key] = terms.get(key, 0) + delta

    for letter in letters:
        gen = abs(letter)
        image = fa.generator_images[gen - 1]
        if letter > 0:
            if gen == index:
                bump(tuple(prefix), 1)
            for k in range(b):
                prefix[k] += image[k]
        else:
            for k in range(b):
                prefix[k] -= image[k]
            if gen == index:
                bump(tuple(prefix), -1)
    return LaurentPolynomial(b, terms)


def alexander_matrix(presentation: GroupPresentation) -> list[list[LaurentPolynomial]]:
    """r x g matrix of abelianized Fox derivatives of the relators."""
    return [
        [fox_derivative(presentation, rel, i + 1) for i in range(presentation.generator_count)]
        for rel in presentation.relators
    ]
