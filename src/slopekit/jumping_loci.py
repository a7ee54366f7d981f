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
  generators), so an F_p rank at that bound is the rank.
* the exact route for every other character - those of rank below
  min(r, g - 1), and any whose nonzero minors of that size all vanish mod
  p: each Fox derivative is stored as its integer residue vector mod Phi_m,
  and fraction-free Gaussian elimination stays in Z[zeta_m].

There is no floating point, no rational arithmetic and no tolerance
anywhere.

Scanning all characters of order up to a bound N yields the finite sets

    W_i = { xi | h^1(G; C_xi) >= i },

recorded as (character, depth) pairs, together with the exponent (lcm of the
orders occurring in W_1).  Two consumers are built on top:

* Hironaka's formula for the first Betti number of the finite abelian cover
  attached to an epimorphism alpha: G -> S, where each jumping character
  factoring through alpha contributes its depth:
  b_1(ker alpha) = b_1(G) + sum of depths of factoring characters.
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
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .covers import AbelianEpimorphism
from .errors import SlopekitError
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

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self.modulus == other.modulus and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.modulus, self.coeffs))

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


@dataclass(frozen=True)
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

    @classmethod
    def _canonical(cls, modulus: int, exponents: tuple[int, ...]) -> "TorsionCharacter":
        """Wrap an exact-order character (exponents in range(modulus), gcd with
        the modulus 1) without re-canonicalizing it."""
        character = object.__new__(cls)
        object.__setattr__(character, "modulus", modulus)
        object.__setattr__(character, "exponents", exponents)
        return character

    @classmethod
    def trivial(cls, rank: int) -> "TorsionCharacter":
        return cls(1, tuple([0] * rank))

    @property
    def order(self) -> int:
        return self.modulus

    @property
    def rank(self) -> int:
        return len(self.exponents)

    def is_trivial(self) -> bool:
        return self.modulus == 1

    def pairing(self, vector: Sequence[int]) -> int:
        """Exponent (mod modulus) of the character value on a lattice vector."""
        if len(vector) != len(self.exponents):
            raise CharacterDomainError("vector length does not match character rank")
        return sum(e * v for e, v in zip(self.exponents, vector)) % self.modulus

    def to_json_dict(self) -> dict:
        return {"modulus": self.modulus, "exponents": list(self.exponents)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TorsionCharacter":
        return cls(data["modulus"], tuple(data["exponents"]))


# ---------------------------------------------------------------------------
# Evaluation of the Alexander matrix at a character


def _fox_row_at_character(
    relator: Sequence[int],
    shifts: Sequence[int],
    generator_count: int,
    modulus: int,
) -> list[CyclotomicNumber]:
    """Evaluate all Fox derivatives of one relator at a character.

    Letters are processed left to right while tracking the character value
    of the prefix, so this works even when H1 has torsion (the character
    only sees the free quotient).  Each derivative is an integer combination
    of powers of zeta_m, accumulated and reduced on ints.
    """
    vecs = [[0] * modulus for _ in range(generator_count)]
    s = 0
    for letter in relator:
        if letter > 0:
            vecs[letter - 1][s] += 1
            s = (s + shifts[letter - 1]) % modulus
        else:
            s = (s - shifts[-letter - 1]) % modulus
            vecs[-letter - 1][s] -= 1
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
        _fox_row_at_character(letters, shifts, evaluator.generator_count, character.modulus)
        for letters in evaluator.relators
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
    the rows are consumed."""
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


class _Evaluator:
    """Everything h^1 needs from one presentation, computed once.

    Holds the free rank and generator images of the free abelianization,
    the relator letter tuples, g and the rank bound min(r, g - 1); the
    presentation itself is kept for the exact fallback.  Reached through
    _evaluator, so a scan shares one evaluator across all its characters.
    """

    __slots__ = ("presentation", "rank", "images", "relators", "generator_count", "bound")

    def __init__(self, presentation: GroupPresentation):
        fa = free_abelianization(presentation)
        g = presentation.generator_count
        self.presentation = presentation
        self.rank = fa.rank
        self.images = fa.generator_images
        self.relators = tuple(word.letters for word in presentation.relators)
        self.generator_count = g
        self.bound = min(len(self.relators), g - 1)

    def shifts(self, character: TorsionCharacter) -> Sequence[int]:
        """Exponent of the character's value on each generator, after checking
        the character's rank against the free abelianization."""
        exps = character.exponents
        if len(exps) != self.rank:
            raise CharacterDomainError(
                f"character has rank {len(exps)}, free abelianization has rank {self.rank}"
            )
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
        for relator in self.relators:
            # the Fox row of one relator, mapped to F_p by zeta_m -> omega
            row = [0] * g
            s = 0
            for letter in relator:
                if letter > 0:
                    row[letter - 1] += powers[s]
                    s = (s + shifts[letter - 1]) % m
                else:
                    s = (s - shifts[-letter - 1]) % m
                    row[-letter - 1] -= powers[s]
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
    """
    return _evaluator(presentation).h1(character)


# ---------------------------------------------------------------------------
# Jumping locus reports


@dataclass(frozen=True)
class JumpEntry:
    """A nontrivial character together with its depth (h^1 value >= 1)."""

    character: TorsionCharacter
    depth: int

    def to_json_dict(self) -> dict:
        d = self.character.to_json_dict()
        d["depth"] = self.depth
        return d

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "JumpEntry":
        return cls(TorsionCharacter.from_json_dict(data), operator.index(data["depth"]))


@dataclass(frozen=True)
class JumpingLocusReport:
    """Finite description of the W_i: nontrivial entries plus b_1.

    The trivial character is not listed among the entries; it sits in W_i
    exactly for i <= b1, an int >= 0.  ``scan_bound`` records the order bound of the scan
    that produced the report, an int >= 1, and no entry may exceed it; None
    marks a report asserted complete on other grounds (fixtures), which is
    never produced by a scan.  ``exponent`` is derived: the lcm of the entry
    orders.
    """

    scan_bound: int | None
    b1: int
    entries: tuple[JumpEntry, ...]
    exponent: int = field(init=False)

    def __post_init__(self) -> None:
        bound = self.scan_bound
        if bound is not None:
            bound = operator.index(bound)
            if bound < 1:
                raise SlopekitError(f"scan bound must be None or >= 1, got {bound}")
            object.__setattr__(self, "scan_bound", bound)
        b1 = operator.index(self.b1)
        if b1 < 0:
            raise SlopekitError(f"b1 must be >= 0, got {b1}")
        object.__setattr__(self, "b1", b1)
        entries = tuple(
            sorted(self.entries, key=lambda e: (e.character.modulus, e.character.exponents))
        )
        exponent = 1
        for entry in entries:
            order = entry.character.order
            if entry.character.is_trivial():
                raise SlopekitError("the trivial character is tracked by b1, not by entries")
            if bound is not None and order > bound:
                raise SlopekitError(f"entry of order {order} exceeds the scan bound {bound}")
            if entry.depth < 1:
                raise SlopekitError("entries must have depth >= 1")
            if entry.character.rank != self.b1:
                raise CharacterDomainError(
                    f"entry character rank {entry.character.rank} does not match b1 {self.b1}"
                )
            exponent = lcm(exponent, order)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "exponent", exponent)

    def to_json_dict(self) -> dict:
        return {
            "scan_bound": self.scan_bound,
            "b1": self.b1,
            "entries": [e.to_json_dict() for e in self.entries],
            "exponent": self.exponent,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "JumpingLocusReport":
        report = cls(
            data["scan_bound"],
            data["b1"],
            tuple(JumpEntry.from_json_dict(e) for e in data["entries"]),
        )
        if operator.index(data["exponent"]) != report.exponent:
            raise SlopekitError(
                f"stated exponent {data['exponent']} != lcm of entry orders {report.exponent}"
            )
        return report


def cartwright_steger_report() -> JumpingLocusReport:
    """Jumping loci of the Cartwright-Steger surface group: all trivial.

    The Green-Lazarsfeld sets of the Cartwright-Steger surface consist of
    the trivial character alone (Stover), so every nontrivial entry set is
    empty, the exponent is 1, and b_1 = 2.  The report carries scan_bound
    None because it is complete knowledge, not the outcome of a bounded scan.
    """
    return JumpingLocusReport(scan_bound=None, b1=2, entries=())


def _enumerate_characters(rank: int, max_order: int) -> Iterator[TorsionCharacter]:
    for m in range(2, max_order + 1):
        for exps in itertools.product(range(m), repeat=rank):
            if exps and gcd(m, *exps) == 1:
                yield TorsionCharacter._canonical(m, exps)


def scan_jumping_loci(presentation: GroupPresentation, max_order: int) -> JumpingLocusReport:
    """Enumerate all torsion characters of order <= max_order and record jumps.

    Characters are visited in canonical form (each exact order once), in
    ascending (order, exponents) order.  The bound is mandatory: nothing in
    the report speaks about characters of larger order.
    """
    if max_order < 1:
        raise ValueError("scan bound must be >= 1")
    # The cached evaluator's own presentation, so that every twisted_h1 lookup
    # hits its cache by identity even when the caller passed an equal twin.
    evaluator = _evaluator(presentation)
    entries = []
    for xi in _enumerate_characters(evaluator.rank, max_order):
        depth = twisted_h1(evaluator.presentation, xi)
        if depth >= 1:
            entries.append(JumpEntry(xi, depth))
    return JumpingLocusReport(max_order, evaluator.rank, tuple(entries))


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

    Each nontrivial entry whose character kills ker(alpha) - equivalently,
    factors through alpha - contributes its depth:

        b_1(ker alpha) = b_1(G) + sum of factoring depths,

    with b_1(G) = report.b1, which must be the source rank of alpha.
    Factorization is tested exactly: the character must vanish on every
    basis vector of the kernel lattice of alpha.  A character factoring
    through alpha has order dividing the deck group's exponent, so a report
    scanned below that exponent may miss one and is refused.
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
    kernel = alpha.kernel_lattice_basis()
    contributions = tuple(
        entry for entry in report.entries
        if all(entry.character.pairing(v) == 0 for v in kernel)
    )
    return CoverB1Result(report.b1 + sum(e.depth for e in contributions), contributions)


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
    orders = tuple(e.character.order for e in report.entries)
    return CoprimeCoverResult(result.b1, CoprimeCertificate(report.exponent, orders), None)
