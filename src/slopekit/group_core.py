"""Finitely presented groups, abelianization, and Fox calculus.

Words in a finitely presented group are stored as sequences of signed
generator indices (``+i`` for the i-th generator, ``-i`` for its inverse,
indices starting at 1) and are kept freely reduced from the moment they are
built.  Abelianization is computed from the Smith normal form of the
generator/relator exponent matrix, over exact integers, after eliminating
its unit entries sparsely; the Smith normal form with transforms
supplies the map onto the maximal free abelian quotient Z^b that underlies
both the symbolic Alexander matrix (Fox derivatives with letters sent to
monomials t_1..t_b) and the character evaluations performed elsewhere.

Everything here is pure and immutable; no floating point is used anywhere.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import SlopekitError


class MalformedWordError(SlopekitError):
    """A word contains a zero letter or an index outside 1..generator_count."""


class TorsionInAbelianizationError(SlopekitError):
    """Symbolic Fox calculus requested for a group whose H1 has torsion."""


# ---------------------------------------------------------------------------
# Words


def free_reduce(letters: Iterable[int], generator_count: int | None = None) -> tuple[int, ...]:
    """Freely reduce a letter sequence, cancelling adjacent x x^-1 pairs.

    Letters are nonzero signed generator indices.  When ``generator_count``
    is given, indices out of range raise :class:`MalformedWordError`.
    The result is the unique freely reduced form, so the function is
    idempotent and never lengthens its input.

    >>> free_reduce([1, -1, 2])
    (2,)
    >>> free_reduce([1, 2, -2, -1, 3])
    (3,)
    >>> free_reduce([])
    ()
    """
    stack: list[int] = []
    for letter in letters:
        if not isinstance(letter, int) or letter == 0:
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


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the empty word is the identity."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # Reduction happens once, here; equality afterwards is plain
        # tuple comparison.
        object.__setattr__(self, "letters", free_reduce(self.letters))

    @classmethod
    def _from_reduced(cls, letters: tuple[int, ...]) -> "Word":
        """Wrap letters already known to be freely reduced without re-reducing."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def max_index(self) -> int:
        return max((abs(l) for l in self.letters), default=0)


def abelianized_exponents(word: Word | Iterable[int], generator_count: int) -> tuple[int, ...]:
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
    """Generators 1..g and a tuple of freely reduced relator words."""

    generator_count: int
    relators: tuple[Word, ...] = ()
    # Presentations key the per-presentation caches, which are consulted once
    # per character in a scan; the hash is taken once, at construction.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.generator_count < 0:
            raise MalformedWordError("generator count must be nonnegative")
        words = tuple(r if isinstance(r, Word) else Word(tuple(r)) for r in self.relators)
        for w in words:
            if w.max_index() > self.generator_count:
                raise MalformedWordError(
                    f"relator {w.letters} exceeds generator range 1..{self.generator_count}"
                )
        object.__setattr__(self, "relators", words)
        object.__setattr__(self, "_hash", hash((self.generator_count, words)))

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
    return GroupPresentation(2 * genus, (Word(tuple(rel)),))


def torus_group() -> GroupPresentation:
    return surface_group(1)


def trefoil_group() -> GroupPresentation:
    """Trefoil knot group <x, y | xyx = yxy>."""
    return GroupPresentation(2, (Word((1, 2, 1, -2, -1, -2)),))


def cyclic_group(order: int) -> GroupPresentation:
    return GroupPresentation(1, (Word(tuple([1] * order)),))


# ---------------------------------------------------------------------------
# Exact integer matrices and Smith normal form


class IntegerMatrix:
    """Dense matrix over Z with arbitrary-precision entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], rows: int | None = None, cols: int | None = None):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        self.rows = len(data) if rows is None else rows
        if cols is None:
            if not data:
                raise ValueError("cols required for a matrix with no rows")
            cols = len(data[0])
        self.cols = cols
        if len(data) != self.rows or any(len(row) != self.cols for row in data):
            raise ValueError("inconsistent matrix dimensions")
        self.entries = data

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntegerMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

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


def smith_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Smith normal form with transforms: returns (D, U, V) with U*m*V = D.

    D is diagonal with nonnegative entries, each dividing the next; U and V
    are unimodular.  Pivots are chosen with minimal absolute value to keep
    intermediate entries small; all arithmetic is exact.
    """
    nrows, ncols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

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
                _swap_cols(v, t, j)
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
                    _add_col(v, j, t, -q)
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
    return d, IntegerMatrix(u, rows=nrows, cols=nrows), IntegerMatrix(v, rows=ncols, cols=ncols)


# ---------------------------------------------------------------------------
# Abelianization


@dataclass(frozen=True)
class AbelianGroupStructure:
    """H1 as Z^free_rank + sum of cyclic groups, invariant-factor form."""

    free_rank: int
    torsion_coefficients: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        coeffs = tuple(int(c) for c in self.torsion_coefficients)
        for c in coeffs:
            if c <= 1:
                raise ValueError("torsion coefficients must exceed 1")
        for a, b in zip(coeffs, coeffs[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")
        object.__setattr__(self, "torsion_coefficients", coeffs)


def abelianization(presentation: GroupPresentation) -> AbelianGroupStructure:
    """H1 of the presented group from the Smith form of its exponent matrix.

    Unit pivots are eliminated first on a sparse copy, one row per relator:
    each is a Tietze move on the abelianized relators, adding one invariant
    factor 1.  They come off a heap keyed by fill cost (other nonzeros in the
    pivot's row times those in its column), re-keyed lazily when it grew.
    The dense Smith form runs only on the remainder, for surface-group
    covers an empty one.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, word in enumerate(presentation.relators):
        row: dict[int, int] = {}
        for letter in word:
            row[abs(letter)] = row.get(abs(letter), 0) + (1 if letter > 0 else -1)
        rows[i] = row = {j: x for j, x in row.items() if x}
        for j in row:
            cols.setdefault(j, set()).add(i)

    def fill(i: int, j: int) -> int:
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    heap = [(fill(i, j), i, j) for i, row in rows.items() for j, x in row.items() if abs(x) == 1]
    heapq.heapify(heap)
    units = 0
    while heap:
        cost, i, j = heapq.heappop(heap)
        if i not in rows or abs(rows[i].get(j, 0)) != 1:
            continue
        if fill(i, j) > cost:
            heapq.heappush(heap, (fill(i, j), i, j))
            continue
        pivot_row = rows.pop(i)
        for l in pivot_row:
            cols[l].discard(i)
        # Clear column j with row moves; row i and column j then drop out.
        for k in cols.pop(j):
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
                if abs(y) == 1:
                    heapq.heappush(heap, (fill(k, l), k, l))
        units += 1

    live = sorted({j for row in rows.values() for j in row})
    dense = [[row.get(j, 0) for j in live] for row in rows.values() if row]
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
    d, u, _ = smith_normal_form(e)
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
            if coeff:
                clean[tuple(int(e) for e in exps)] = int(coeff)
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPolynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.variables, tuple(sorted(self.terms.items()))))

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


def fox_derivative(presentation: GroupPresentation, word: Word | Iterable[int], index: int) -> LaurentPolynomial:
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
