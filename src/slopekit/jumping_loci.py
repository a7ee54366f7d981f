"""Cohomology jumping loci of finitely presented groups, exactly.

A torsion character xi of the maximal free abelian quotient Z^b sends the
j-th basis element to a fixed power of a primitive m-th root of unity.  The
twisted first cohomology h^1(G; C_xi) is computed from the presentation
2-complex: for nontrivial xi it equals g - 1 - rank A(xi), where A(xi) is the
Alexander matrix of Fox derivatives evaluated at xi.  Every Fox derivative
at xi lies in the ring Z[zeta_m] = Z[z]/(Phi_m(z)), and the rank is taken
over the field Q(zeta_m) in two steps:

* a certificate in F_p, for a fixed prime p = 1 (mod m) and an element
  omega of exact order m mod p.  zeta_m -> omega is a ring map
  Z[zeta_m] -> F_p, so the rank of the Fox rows evaluated straight into F_p
  is a lower bound; the rank is at most min(r, g - 1) (r relators, g
  generators), so an F_p rank at that bound is the rank.  The F_p rank is
  taken fraction-free, without inverses.  With one relator and g >= 2 the
  bound is 1, and the first Fox column found nonzero mod p settles it,
  before the rest of the row is walked.
* the exact route for every other character - those of rank below
  min(r, g - 1), and any whose nonzero minors of that size all vanish mod
  p: each Fox derivative is stored as its integer residue vector mod Phi_m,
  and fraction-free Gaussian elimination stays in Z[zeta_m].

There is no floating point, no rational arithmetic and no tolerance
anywhere.

Scanning all characters of order up to a bound N yields the finite sets

    W_i = { xi | h^1(G; C_xi) >= i },

recorded in one table, order m -> {exponents: depth}, together with the
exponent (lcm of the orders occurring in W_1).  The table is the only
store; (character, depth) entries are a view built from it on first read.
h^1 is constant on Galois orbits, xi ~ xi^u for u a unit mod m, so a scan
evaluates one member of each orbit, the first it reaches, and answers the
other phi(m) - 1 from its own table of pending conjugates for the modulus
being scanned; the evaluator that every caller of a presentation shares
holds no such state.  Two consumers are built on top:

* Hironaka's formula for the first Betti number of the finite abelian cover
  attached to an epimorphism alpha: G -> S, summed over the dual group of S:
  b_1(ker alpha) = b_1(G) + sum over chi in S^ - 1 of h^1(chi o alpha).
  Each chi o alpha is put in canonical form and looked up in the report's
  table; one that is not listed has h^1 = 0.
* the coprime cover selector: when gcd(d, exponent) = 1, no nontrivial
  jumping character can factor through a cyclic quotient of order d, so the
  cover keeps b_1(G) - certified by the report, with no subgroup rewriting.

A report only speaks for characters up to its scan bound, and it refuses an
entry of larger order.  Both consumers refuse a report whose scan bound is
below the deck group's exponent, so every cover b_1 they return is exact.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .covers import AbelianEpimorphism
from .errors import SlopekitError, _json_int
from .group_core import GroupPresentation, free_abelianization


class CharacterDomainError(SlopekitError):
    """Character exponent vector does not match the free abelianization."""


# ---------------------------------------------------------------------------
# Cyclotomic integers


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending degree) of the m-th cyclotomic polynomial.

    Computed by exact division of x^m - 1 by the cyclotomic polynomials of
    the proper divisors of m; monic with integer coefficients.

    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_poly_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _exact_poly_div(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Divide integer polynomials, den monic; the division must be exact."""
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c:
            quot[i - deg_d] = c
            for k, dk in enumerate(den):
                num[i - deg_d + k] -= c * dk
    if any(num):
        raise ValueError("polynomial division was not exact")
    return quot


class CyclotomicNumber:
    """Element of the ring of cyclotomic integers Z[zeta_m] = Z[z]/(Phi_m).

    Stored as the canonical residue mod Phi_m: a tuple of phi(m) = deg Phi_m
    ints, which no method changes.  Every Alexander matrix entry lies in this
    ring and cyclotomic_rank never divides, so the constructor takes ints
    only.  Zero testing is decidable by inspection.
    """

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: Iterable[int]):
        phi = len(cyclotomic_polynomial(modulus)) - 1
        vec = [operator.index(c) for c in coeffs]
        if len(vec) > phi:
            vec = _reduce_mod_cyclotomic(modulus, vec)
        vec += [0] * (phi - len(vec))
        self.modulus = modulus
        self.coeffs = tuple(vec)

    # -- predicates

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.modulus == other.modulus and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self.modulus}, {list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            body = "1" if e == 0 else ("z" if e == 1 else f"z^{e}")
            mag = abs(c)
            term = body if e and mag == 1 else (str(mag) if e == 0 else f"{mag}*{body}")
            pieces.append(("- " if c < 0 else "+ ") + term)
        out = " ".join(pieces)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def to_json(self) -> dict:
        return {"modulus": self.modulus, "coefficients": [str(c) for c in self.coeffs]}


def _product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Unreduced product of two coefficient vectors (ascending powers of z)."""
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _reduce_mod_cyclotomic(modulus: int, vec: list[int]) -> list[int]:
    """Residue of a coefficient vector mod Phi_m (monic), reducing in place."""
    phi_poly = cyclotomic_polynomial(modulus)
    deg = len(phi_poly) - 1
    lower = phi_poly[:deg]
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            for k, a in enumerate(lower, i - deg):
                if a:
                    vec[k] -= c * a
    return vec[:deg]


# ---------------------------------------------------------------------------
# Torsion characters


@dataclass(frozen=True, slots=True)
class TorsionCharacter:
    """A finite-order character of Z^b, in canonical (exact-order) form.

    The j-th basis vector is sent to zeta_modulus ** exponents[j].  The
    canonical form divides out the common factor of the modulus and all
    exponents, so modulus always equals the exact order of the character;
    the trivial character of rank b is (1, (0,...,0)).
    """

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        m = operator.index(self.modulus)
        if m < 1:
            raise CharacterDomainError("character modulus must be positive")
        exps = tuple(operator.index(e) % m for e in self.exponents)
        g = gcd(m, *exps) if exps else m
        m //= g
        exps = tuple((e // g) % m for e in exps)
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "exponents", exps)

    @property
    def order(self) -> int:
        return self.modulus

    def to_json_dict(self) -> dict:
        return {"modulus": self.modulus, "exponents": list(self.exponents)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TorsionCharacter":
        return cls(_json_int(data["modulus"]), tuple(map(_json_int, data["exponents"])))


# ---------------------------------------------------------------------------
# Evaluation of the Alexander matrix at a character


def _fox_row_at_character(
    steps: Sequence[tuple[int, bool]],
    shifts: Sequence[int],
    generator_count: int,
    modulus: int,
) -> list[CyclotomicNumber]:
    """Evaluate all Fox derivatives of one relator at a character.

    The relator comes as its compiled (column, positive) steps, one per
    letter (see _Evaluator).  Letters are processed left to right while
    tracking the character value of the prefix, so this works even when H1
    has torsion (the character only sees the free quotient).  Each
    derivative is an integer combination of powers of zeta_m, accumulated
    and reduced on ints.
    """
    vecs = [[0] * modulus for _ in range(generator_count)]
    s = 0
    for col, positive in steps:
        if positive:
            vecs[col][s] += 1
            s = (s + shifts[col]) % modulus
        else:
            s = (s - shifts[col]) % modulus
            vecs[col][s] -= 1
    return [CyclotomicNumber(modulus, vec) for vec in vecs]


def evaluate_alexander_matrix(
    presentation: GroupPresentation, character: TorsionCharacter
) -> list[list[CyclotomicNumber]]:
    """Alexander matrix with t_j specialized to the character's root of unity.

    Computed letter-by-letter from the relators (never through the symbolic
    Laurent matrix), one row per relator, one column per generator; entries
    live in Z[zeta_m], m the character's order, with int coefficients.  At
    the trivial character this returns the integer exponent matrix,
    relators as rows.
    """
    evaluator = _evaluator(presentation)
    shifts = evaluator.shifts(character)
    return [
        _fox_row_at_character(steps, shifts, evaluator.generator_count, character.modulus)
        for steps in evaluator.steps
    ]


def cyclotomic_rank(rows: Sequence[Sequence[CyclotomicNumber]]) -> int:
    """Rank over the field Q(zeta_m) of a matrix over Z[zeta_m].

    Gaussian elimination runs fraction-free on the coefficient vectors
    themselves: the pivot step replaces row_i by p * row_i - q * row_pivot
    with p, q nonzero, which never divides, so every row stays in Z[zeta_m]
    with int coefficients.
    """
    work = [[x.coeffs for x in row] for row in rows]
    if not work:
        return 0
    moduli = {x.modulus for row in rows for x in row}
    if len(moduli) > 1:
        raise ValueError("cyclotomic moduli differ")
    modulus = moduli.pop() if moduli else 1
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if any(work[i][col])), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        p = prow[col]
        for i in range(rank + 1, len(work)):
            q = work[i][col]
            if any(q):
                work[i] = [
                    _reduce_mod_cyclotomic(
                        modulus, [x - y for x, y in zip(_product(p, a), _product(q, b))]
                    )
                    for a, b in zip(work[i], prow)
                ]
        rank += 1
        if rank == len(work):
            break
    return rank


# ---------------------------------------------------------------------------
# Rank certificates over F_p


# Miller-Rabin with these bases is deterministic for n < 3.3 * 10**24.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (n < 3.3 * 10**24)."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Bounded: a scan asks for the moduli in ascending order, all characters of
# one modulus together, so eviction never forces a recomputation within a
# scan, and a long-lived process does not keep an m-entry tuple for every
# modulus it has seen.
@lru_cache(maxsize=64)
def _fp_root_powers(m: int) -> tuple[int, tuple[int, ...]]:
    """The least prime p > 2**30 with p = 1 (mod m), and the powers
    omega**k mod p (0 <= k < m) of an element omega of exact order m.

    Phi_m(omega) = 0 mod p, so zeta_m -> omega is a ring map Z[zeta_m] -> F_p.
    A prime this large rarely kills a nonzero minor, and the products of two
    residues stay machine-word sized.
    """
    p = m * -(-2**30 // m) + 1
    while not _is_prime(p):
        p += m
    for a in itertools.count(2):
        omega = pow(a, (p - 1) // m, p)
        powers = [1]
        for _ in range(m - 1):
            powers.append(powers[-1] * omega % p)
        if powers.count(1) == 1:  # omega has exact order m
            return p, tuple(powers)


def _rank_mod_p(rows: list[list[int]], p: int, bound: int) -> int:
    """Rank over F_p of rows with entries in range(p), counted up to bound;
    the rows are consumed.

    Elimination is fraction-free, row <- a * row - b * pivot with a the
    pivot entry (a unit mod p), so no inverse is ever taken.
    """
    rank = 0
    while rows and rank < bound:
        prow = rows.pop()
        if not any(prow):
            continue
        rank += 1
        if rank == bound:
            break
        col = next(j for j, x in enumerate(prow) if x)
        a = prow[col]
        for i, row in enumerate(rows):
            b = row[col]
            if b:
                rows[i] = [(a * x - b * y) % p for x, y in zip(row, prow)]
    return rank


def _basis_lookup(images: Sequence[Sequence[int]]) -> operator.itemgetter | None:
    """An itemgetter taking a character's exponents to its shifts, when every
    generator image is a standard basis vector and there are at least two
    (itemgetter of one index returns a scalar, not a tuple); else None."""
    indices = []
    for image in images:
        if image.count(1) != 1 or image.count(0) != len(image) - 1:
            return None
        indices.append(image.index(1))
    return operator.itemgetter(*indices) if len(indices) > 1 else None


def _column_segments(steps: Sequence[tuple[int, bool]]) -> tuple:
    """Cut a relator's steps after each letter that is the last of its
    column: (steps, column) pairs, the column complete at the segment's end."""
    last = {col: i for i, (col, _) in enumerate(steps)}
    segments, start = [], 0
    for i, (col, _) in enumerate(steps):
        if last[col] == i:
            segments.append((steps[start:i + 1], col))
            start = i + 1
    return tuple(segments)


class _Evaluator:
    """Everything h^1 needs from one presentation, computed once.

    Holds the free rank and generator images of the free abelianization,
    g and the rank bound min(r, g - 1); the presentation itself is kept for
    the exact fallback.  Each relator is compiled into its steps, one
    (column, positive) pair per letter: the generator's column in the Fox
    row and the letter's sign, read by both the F_p walk and the exact
    Z[zeta_m] rows.  When every generator image is a standard basis vector
    (surface groups, relators that are products of commutators) the shifts
    are a lookup, ``pick``, an itemgetter over the basis indices; any other
    image keeps the dot product.  Reached through _evaluator, so every caller
    of one presentation, a scan's characters included, shares one evaluator;
    nothing in it changes after __init__.

    The F_p walk reads the steps as ``segments``, one tuple of
    (steps, column) pairs per relator.  With one relator and g >= 2 the
    rank bound is 1, so any Fox entry nonzero mod p is a certificate: the
    relator is cut after each letter that is the last of its column, and
    that column, complete there, is tested before the walk goes on.  Any
    other presentation has one segment per relator, with column None.
    """

    __slots__ = (
        "presentation", "rank", "images", "pick", "steps", "segments", "generator_count", "bound",
    )

    def __init__(self, presentation: GroupPresentation):
        fa = free_abelianization(presentation)
        g = presentation.generator_count
        self.presentation = presentation
        self.rank = fa.rank
        self.images = fa.generator_images
        self.pick = _basis_lookup(self.images)
        self.steps = tuple(
            tuple((abs(letter) - 1, letter > 0) for letter in word)
            for word in presentation.relators
        )
        self.generator_count = g
        self.bound = min(len(self.steps), g - 1)
        if len(self.steps) == 1 and g >= 2:
            self.segments = (_column_segments(self.steps[0]),)
        else:
            self.segments = tuple(((steps, None),) for steps in self.steps)

    def shifts(self, character: TorsionCharacter) -> Sequence[int]:
        """Exponent of the character's value on each generator, after checking
        the character's rank against the free abelianization."""
        exps = character.exponents
        if len(exps) != self.rank:
            raise CharacterDomainError(
                f"character has rank {len(exps)}, free abelianization has rank {self.rank}"
            )
        if self.pick is not None:
            # canonical exponents already lie in range(modulus)
            return self.pick(exps)
        m = character.modulus
        return [sum(map(operator.mul, image, exps)) % m for image in self.images]

    def h1(self, character: TorsionCharacter) -> int:
        """twisted_h1 at the character: the F_p certificate, else Z[zeta_m]."""
        shifts = self.shifts(character)
        m = character.modulus
        if m == 1:
            return self.rank
        g, bound = self.generator_count, self.bound
        p, powers = _fp_root_powers(m)
        rows = []
        for segments in self.segments:
            # the Fox row of one relator, mapped to F_p by zeta_m -> omega
            row = [0] * g
            s = 0
            for steps, done in segments:
                for col, positive in steps:
                    if positive:
                        row[col] += powers[s]
                        s = (s + shifts[col]) % m
                    else:
                        s = (s - shifts[col]) % m
                        row[col] -= powers[s]
                if done is not None and row[done] % p:
                    return g - 2  # one relator: the rank bound 1 is reached
            rows.append([x % p for x in row])
        rank = _rank_mod_p(rows, p, bound)
        if rank < bound:
            rank = cyclotomic_rank(evaluate_alexander_matrix(self.presentation, character))
        return g - 1 - rank


# Bounded like free_abelianization: one command revisits only the few
# presentations it is working on.
@lru_cache(maxsize=32)
def _evaluator(presentation: GroupPresentation) -> _Evaluator:
    return _Evaluator(presentation)


class _PendingConjugates:
    """A scan's table of pending Galois conjugates for one modulus m.

    ``pending`` maps the exponents of each conjugate the scan has not
    reached yet to its h^1; ``units`` are the units u != 1 mod m.  At rank
    >= 2 ``tables`` holds one multiplication table x -> u * x mod m per
    unit, so that a representative writes each conjugate key with one
    itemgetter call; a modulus has at least m * phi(m) characters of such a
    rank, so the tables never cost more than the scan of m itself.  At rank
    1 a modulus has one orbit, and its keys are written from the units.
    """

    __slots__ = ("presentation", "evaluator", "modulus", "units", "tables", "pending")

    def __init__(self, presentation: GroupPresentation, evaluator: _Evaluator, m: int):
        self.presentation = presentation
        self.evaluator = evaluator
        self.modulus = m
        self.units = units = [u for u in range(2, m) if gcd(u, m) == 1]
        self.tables = (
            [tuple([u * x % m for x in range(m)]) for u in units] if evaluator.rank > 1 else ()
        )
        self.pending = {}

    def representative_h1(self, character: TorsionCharacter) -> int:
        """h1 at the first member of a Galois orbit that the scan reaches,
        stored under each of its other members."""
        h1 = self.evaluator.h1(character)
        exps, pending = character.exponents, self.pending
        if len(exps) > 1:
            pick = operator.itemgetter(*exps)
            for table in self.tables:
                pending[pick(table)] = h1
        else:
            m = self.modulus
            for u in self.units:
                pending[(u * exps[0] % m,)] = h1
        return h1


# The table of the scan running, or None: twisted_h1 reaches it by one
# identity check on the presentation, without the _evaluator cache lookup,
# whose GroupPresentation.__hash__ is Python code.
_scanning: _PendingConjugates | None = None


def twisted_h1(presentation: GroupPresentation, character: TorsionCharacter) -> int:
    """Dimension of the first twisted cohomology h^1(G; C_xi).

    For the trivial character this is b_1(G).  For a nontrivial character
    the presentation 2-complex gives h^0 = 0 and

        h^1 = g - 1 - rank A(xi),

    with the rank taken exactly over the cyclotomic field Q(zeta_m).  The
    rank is bounded on both sides without leaving the integers:

    * above by min(r, g - 1): A(xi) has r rows, and the fundamental formula
      sum_j (dr/dx_j)(x_j - 1) = r - 1 puts the nonzero vector
      (xi(x_j) - 1)_j in its kernel;
    * below by the rank over F_p of A(xi) mapped through zeta_m -> omega
      (see _fp_root_powers), since a minor that is nonzero mod p is nonzero.

    When the F_p rank reaches the upper bound it is the rank.  Otherwise -
    a rank-deficient character, or a p that kills every nonzero minor of
    the bound's size - the rank comes from fraction-free elimination of
    A(xi) over Z[zeta_m].

    h^1(xi^u) = h^1(xi) for every unit u mod m, since A(xi^u) is the Galois
    conjugate of A(xi).  While scan_jumping_loci runs, a call on the very
    presentation object it was passed, with a character of the modulus being
    scanned, is first looked up in the scan's table of pending conjugates,
    which answers every member of an orbit after the first.  Any other call
    - outside a scan, on another presentation (also an equal one), or at
    another modulus - evaluates the character itself and stores nothing.
    """
    scan = _scanning
    if scan is not None and presentation is scan.presentation and character.modulus == scan.modulus:
        h1 = scan.pending.pop(character.exponents, None)
        if h1 is None:
            h1 = scan.representative_h1(character)
        return h1
    return _evaluator(presentation).h1(character)


# ---------------------------------------------------------------------------
# Jumping locus reports


@dataclass(frozen=True, slots=True)
class JumpEntry:
    """A nontrivial character together with its depth (h^1 value >= 1)."""

    character: TorsionCharacter
    depth: int

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "JumpEntry":
        return cls(TorsionCharacter.from_json_dict(data), _json_int(data["depth"]))


# The slots of the frozen value classes, written through their member
# descriptors: a scan builds its characters, and a report its entries,
# already canonical, so they skip __post_init__ and the frozen __setattr__.
_set_modulus = TorsionCharacter.modulus.__set__
_set_exponents = TorsionCharacter.exponents.__set__
_set_character = JumpEntry.character.__set__
_set_depth = JumpEntry.depth.__set__


def _jump_entry(order: int, exponents: tuple[int, ...], depth: int) -> JumpEntry:
    """The JumpEntry of a canonical (order, exponents) key and its depth."""
    new = object.__new__
    xi = new(TorsionCharacter)
    _set_modulus(xi, order)
    _set_exponents(xi, exponents)
    entry = new(JumpEntry)
    _set_character(entry, xi)
    _set_depth(entry, depth)
    return entry


class JumpingLocusReport:
    """Finite description of the W_i: nontrivial entries plus b_1.

    The trivial character is not listed among the entries; it sits in W_i
    exactly for i <= b1, an int >= 0.  ``scan_bound`` records the order
    bound of the scan that produced the report, an int >= 1, and no entry
    may exceed it; None marks a report asserted complete on other grounds
    (fixtures), which is never produced by a scan.  ``exponent`` is
    derived: the lcm of the entry orders.  No character may be listed twice.

    The jumps are stored as one table, ``depths``: order m -> {exponents:
    depth}, the orders ascending, the exponents of each order ascending, and
    only orders with a jump listed; both levels are read-only mappings.  A
    scan fills the table itself; the constructor validates each entry into
    it in one pass, then sorts it once.  ``entries`` is a view of the table:
    canonical JumpEntry values in (order, exponents) order, built on first
    read.  Reports are immutable, equal when their scan bounds, b1 and
    tables are, and hashed from the tables alone.
    """

    __slots__ = ("scan_bound", "b1", "exponent", "depths", "_entries")

    def __init__(self, scan_bound: int | None, b1: int, entries: Iterable[JumpEntry]):
        bound = scan_bound
        if bound is not None:
            bound = operator.index(bound)
            if bound < 1:
                raise SlopekitError(f"scan bound must be None or >= 1, got {bound}")
        b1 = operator.index(b1)
        if b1 < 0:
            raise SlopekitError(f"b1 must be >= 0, got {b1}")
        table = {}
        for entry in entries:
            character = entry.character
            order, exponents = character.modulus, character.exponents
            if order == 1:
                raise SlopekitError("the trivial character is tracked by b1, not by entries")
            if bound is not None and order > bound:
                raise SlopekitError(f"entry of order {order} exceeds the scan bound {bound}")
            if entry.depth < 1:
                raise SlopekitError("entries must have depth >= 1")
            if len(exponents) != b1:
                raise CharacterDomainError(
                    f"entry character rank {len(exponents)} does not match b1 {b1}"
                )
            row = table.setdefault(order, {})
            if exponents in row:
                raise SlopekitError(f"order {order} exponents {exponents} listed twice")
            row[exponents] = entry.depth
        self._fill(bound, b1, {
            order: dict(sorted(table[order].items())) for order in sorted(table)
        })

    @classmethod
    def _from_scan(cls, scan_bound: int, b1: int, table: dict) -> "JumpingLocusReport":
        """The report of a scan's table, or of a copied report's, canonical
        by construction: orders from 2 to scan_bound, ascending, each with
        its jumps (rank-b1 canonical exponents, ascending, depth >= 1), and
        no empty row."""
        report = object.__new__(cls)
        report._fill(scan_bound, b1, table)
        return report

    def _fill(self, scan_bound, b1, table) -> None:
        fill = object.__setattr__
        fill(self, "scan_bound", scan_bound)
        fill(self, "b1", b1)
        fill(self, "exponent", lcm(1, *table))
        fill(self, "depths", MappingProxyType(
            {order: MappingProxyType(row) for order, row in table.items()}
        ))
        fill(self, "_entries", None)

    @property
    def entries(self) -> tuple[JumpEntry, ...]:
        """The jumps as JumpEntry values, in (order, exponents) order."""
        entries = self._entries
        if entries is None:
            entries = tuple([
                _jump_entry(order, exponents, depth)
                for order, row in self.depths.items()
                for exponents, depth in row.items()
            ])
            object.__setattr__(self, "_entries", entries)
        return entries

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.scan_bound, self.b1, self.depths) == (
            other.scan_bound, other.b1, other.depths
        )

    def __hash__(self) -> int:
        return hash((self.scan_bound, self.b1, tuple([
            (order, tuple(row.items())) for order, row in self.depths.items()
        ])))

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild from the table as plain dicts, as the slots
        # refuse assignment and the read-only rows do not pickle; the table
        # was validated when this report was built, and unpickling runs code
        # anyway, so a pickle stream is trusted input
        table = {order: dict(row) for order, row in self.depths.items()}
        return JumpingLocusReport._from_scan, (self.scan_bound, self.b1, table)

    def __repr__(self) -> str:
        return (
            f"JumpingLocusReport(scan_bound={self.scan_bound!r}, b1={self.b1!r}, "
            f"entries={self.entries!r}, exponent={self.exponent!r})"
        )

    def to_json_dict(self) -> dict:
        return {
            "scan_bound": self.scan_bound,
            "b1": self.b1,
            "entries": [
                {"modulus": order, "exponents": list(exponents), "depth": depth}
                for order, row in self.depths.items()
                for exponents, depth in row.items()
            ],
            "exponent": self.exponent,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "JumpingLocusReport":
        """The report of ``to_json_dict``; its stated exponent must be the
        derived one, and its entries closed under the Galois action.  Every
        integer must be a JSON number: true and false are refused."""
        bound = data["scan_bound"]
        report = cls(
            None if bound is None else _json_int(bound),
            _json_int(data["b1"]),
            (JumpEntry.from_json_dict(e) for e in data["entries"]),
        )
        if _json_int(data["exponent"]) != report.exponent:
            raise SlopekitError(
                f"stated exponent {data['exponent']} != lcm of entry orders {report.exponent}"
            )
        # h^1 is constant on Galois orbits, and Hironaka's formula reads every
        # member of one; a scan lists them all, a report from elsewhere must
        # too.  The first member of an orbit checks the whole orbit.
        for m, row in report.depths.items():
            units = [u for u in range(2, m) if gcd(u, m) == 1]
            checked = set()
            for exponents, depth in row.items():
                if exponents in checked:
                    continue
                for u in units:
                    conjugate = tuple([u * x % m for x in exponents])
                    if row.get(conjugate) != depth:
                        raise SlopekitError(
                            f"order {m} exponents {exponents} of depth {depth} needs its "
                            f"Galois conjugate {conjugate} at the same depth"
                        )
                    checked.add(conjugate)
        return report


def cartwright_steger_report() -> JumpingLocusReport:
    """Jumping loci of the Cartwright-Steger surface group: all trivial.

    The Green-Lazarsfeld sets of the Cartwright-Steger surface consist of
    the trivial character alone (Stover), so every nontrivial entry set is
    empty, the exponent is 1, and b_1 = 2.  The report carries scan_bound
    None because it is complete knowledge, not the outcome of a bounded scan.
    """
    return JumpingLocusReport(scan_bound=None, b1=2, entries=())


def scan_jumping_loci(presentation: GroupPresentation, max_order: int) -> JumpingLocusReport:
    """Enumerate all torsion characters of order <= max_order and record jumps.

    Characters are visited in canonical form (each exact order once:
    exponents in range(m) with gcd 1 with m), in ascending (order,
    exponents) order, and twisted_h1 is called once for each.  The bound is
    mandatory: nothing in the report speaks about characters of larger
    order.  Each jump goes into the report's table as ``row[exps] =
    depth``, one row per order; no JumpEntry is built until ``entries`` is
    read.

    For each modulus m the scan puts a fresh _PendingConjugates table in
    the module slot ``_scanning``, which twisted_h1 checks first.  The
    first member of an orbit {u * e mod m : u a unit} that the scan reaches
    is its lexicographically smallest; it is evaluated in full, and its h^1
    is stored under its phi(m) - 1 other members, each answered later by
    one dict pop.  So the F_p certificate, and any exact Z[zeta_m]
    elimination, runs once per orbit.  The table drains by the end of each
    modulus.  When the scan ends, also when it raises, the slot gets back
    what it held, so a nested scan leaves the outer table in place; the
    slot is process-wide, so two threads must not scan at once.  At a prime
    m every nonzero exponent vector is canonical, and no gcd is taken.
    """
    global _scanning
    max_order = operator.index(max_order)
    if max_order < 1:
        raise ValueError("scan bound must be >= 1")
    evaluator = _evaluator(presentation)
    rank = evaluator.rank
    table = {}
    new, set_modulus, set_exponents = object.__new__, _set_modulus, _set_exponents
    previous = _scanning
    try:
        for m in range(2, max_order + 1):
            _scanning = _PendingConjugates(presentation, evaluator, m)
            composite = len(_scanning.units) < m - 2
            vectors = itertools.product(range(m), repeat=rank)
            if not composite:
                next(vectors)  # m is prime: only the zero vector is not canonical
            row = {}
            for exps in vectors:
                if composite and gcd(m, *exps) != 1:
                    continue
                xi = new(TorsionCharacter)
                set_modulus(xi, m)
                set_exponents(xi, exps)
                depth = twisted_h1(presentation, xi)
                if depth >= 1:
                    row[exps] = depth
            if row:
                table[m] = row
    finally:
        _scanning = previous
    return JumpingLocusReport._from_scan(max_order, rank, table)


# ---------------------------------------------------------------------------
# Cover Betti numbers


@dataclass(frozen=True)
class CoverB1Result:
    """Outcome of Hironaka's formula for one epimorphism: the exact b_1 of
    the cover and the entries whose characters factor through it."""

    b1: int
    contributions: tuple[JumpEntry, ...]


def hironaka_b1(report: JumpingLocusReport, alpha: AbelianEpimorphism) -> CoverB1Result:
    """First Betti number of the cover ker(alpha) from the jumping loci.

    Hironaka's formula sums over the dual group of S = Z/n_1 + ... + Z/n_k:

        b_1(ker alpha) = b_1(G) + sum over chi in S^ - 1 of h^1(chi o alpha),

    with b_1(G) = report.b1, which must be the source rank of alpha.  The
    characters of S are the chi_c, c in S, with chi_c(s) = zeta_E **
    sum_j c_j s_j E/n_j for E the exponent of S; chi_c o alpha sends the
    i-th basis vector to zeta_E ** sum_j c_j A_ji E/n_j.  Each nontrivial c
    is put in canonical form with one gcd and looked up in the report's
    table, ``depths[m].get(exponents)``; a character that is not there has
    h^1 = 0.  The exponent vectors are running sums over the product of the
    per-factor tables of c_j A_j E/n_j, reduced mod E, one tuple per c.
    Since alpha is onto, distinct c give distinct characters, so every
    entry that factors through alpha is found exactly once.  The
    contributions come back in report order, the only JumpEntry values
    built.  A character factoring through alpha has order dividing E, so a
    report scanned below E may miss one and is refused.
    """
    if report.b1 != alpha.source_rank:
        raise CharacterDomainError(
            f"report has b1 {report.b1}, epimorphism source rank {alpha.source_rank}"
        )
    if report.scan_bound is not None and report.scan_bound < alpha.exponent:
        raise SlopekitError(
            f"scan bound {report.scan_bound} is below the deck group exponent "
            f"{alpha.exponent}; rescan to order {alpha.exponent}"
        )
    depths = report.depths
    found = []
    if depths:  # nothing to look up, as for a trivial-loci fixture
        exponent = alpha.exponent
        # the exponent vector of chi_c o alpha for each c, summed factor by factor
        sums = [(0,) * alpha.source_rank]
        for row, n in zip(alpha.matrix, alpha.factors):
            step = exponent // n
            terms = [[c * a * step % exponent for a in row] for c in range(n)]
            sums = [tuple([(x + y) % exponent for x, y in zip(s, t)]) for s in sums for t in terms]
        for exps in sums:
            g = gcd(exponent, *exps)
            if g == exponent:
                continue  # c = 0, the trivial character
            order = exponent // g
            jumps = depths.get(order)
            if jumps is not None:
                if g > 1:
                    exps = tuple([x // g for x in exps])
                depth = jumps.get(exps)
                if depth is not None:
                    found.append((order, exps, depth))
        found.sort()
    contributions = tuple([_jump_entry(order, exps, depth) for order, exps, depth in found])
    return CoverB1Result(report.b1 + sum(depth for _, _, depth in found), contributions)


@dataclass(frozen=True)
class CoprimeCertificate:
    """Witness that no jumping character factors through a Z_d quotient.

    Records the report exponent and the order of each nontrivial entry (all
    coprime to d); since factoring characters would have order dividing
    both the report exponent and d, coprimality forces the intersection
    with the dual of the deck group to be trivial.
    """

    exponent: int
    entry_orders: tuple[int, ...]


@dataclass(frozen=True)
class CoprimeCoverResult:
    """b_1 of a cyclic cover, with either a coprimality certificate or the
    Hironaka fallback computation."""

    b1: int
    certificate: CoprimeCertificate | None
    fallback: CoverB1Result | None


def coprime_cover_b1(
    report: JumpingLocusReport, order: int, weights: Sequence[int]
) -> CoprimeCoverResult:
    """b_1 of the cyclic cover of the given order defined by the weights.

    Hironaka's formula runs once.  When gcd(order, exponent of the report)
    = 1 the answer is b_1(G) for *every* cyclic cover of that order, and
    the result comes with a certificate: every entry order divides the
    exponent, so none shares a factor with the order and no entry factors.
    Otherwise it is returned as the fallback computation for the specific
    epimorphism.  A report scanned below the order is refused, as by
    hironaka_b1.
    """
    result = hironaka_b1(report, AbelianEpimorphism.cyclic(order, weights))
    if gcd(order, report.exponent) != 1:
        return CoprimeCoverResult(result.b1, None, result)
    orders = tuple([order for order, jumps in report.depths.items() for _ in jumps])
    return CoprimeCoverResult(result.b1, CoprimeCertificate(report.exponent, orders), None)
