"""Independent closed forms and exact oracles used to check slopekit's output.

Nothing here imports slopekit: every expected value is derived from the
mathematics of the generated input, never from the program's own output.

* Jordan's totient J_k(m) counts the characters of exact order m of Z^k, so
  a scan of order bound N evaluates sum_{2<=m<=N} J_b(m) characters.
* A surface group of genus g has h^1 = 2g - 2 at every nontrivial character,
  and the cover of index |S| has b_1 = 2(|S|(g-1) + 1).
* For a group whose relators lie in the commutator subgroup, the free
  abelianization is the identity on generators and, at a nontrivial
  character xi, h^1(xi) = n - 1 - rank A(xi).  The rank is taken exactly in
  Z[x]/(Phi_m) by testing minors, with the cyclotomic polynomials tabulated
  below (orders up to 8 are all the generator produces).
* Density entries follow gap = p / (q (n e q (g_F - 1) + 1)) with the family
  d_n = n e (q - p)(g_F - 1) + 1, k_n = 2 n e p.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

# Ascending coefficients of the cyclotomic polynomials Phi_2 .. Phi_8.
PHI = {
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
}

FIBER_GENUS = 19


def prime_factors(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def jordan_totient(k: int, m: int) -> int:
    """J_k(m) = m^k prod_{p | m} (1 - p^-k): vectors of Z_m^k of exact order m."""
    result = m ** k
    for p in prime_factors(m):
        result = result // p ** k * (p ** k - 1)
    return result


def euler_phi(m: int) -> int:
    return jordan_totient(1, m)


def characters_up_to(rank: int, bound: int) -> int:
    """Number of nontrivial torsion characters of Z^rank of order <= bound."""
    return sum(jordan_totient(rank, m) for m in range(2, bound + 1))


def farey_interior_count(max_denominator: int) -> int:
    """Reduced p/q with 0 < p < q <= Q."""
    return sum(euler_phi(q) for q in range(2, max_denominator + 1))


def canonical_characters(rank: int, bound: int):
    """Characters of exact order 2..bound as (m, exponents), in scan order."""
    for m in range(2, bound + 1):
        for exps in itertools.product(range(m), repeat=rank):
            if gcd(m, *exps) == 1:
                yield m, exps


def galois_orbit_key(m: int, exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Smallest exponent vector among xi^u, u a unit mod m."""
    return m, min(tuple(u * e % m for e in exps) for u in range(1, m) if gcd(u, m) == 1)


# ---------------------------------------------------------------------------
# Exact arithmetic in Z[x]/(Phi_m)


def _reduce(poly: list[int], m: int) -> tuple[int, ...]:
    phi = PHI[m]
    deg = len(phi) - 1
    poly = list(poly)
    for i in range(len(poly) - 1, deg - 1, -1):
        c = poly[i]
        if c:
            for j in range(deg + 1):
                poly[i - deg + j] -= c * phi[j]
    return tuple(poly[:deg]) + (0,) * max(0, deg - len(poly))


def _mul(a: tuple[int, ...], b: tuple[int, ...], m: int) -> tuple[int, ...]:
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    return _reduce(conv, m)


def _sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _det(matrix: list[list[tuple[int, ...]]], m: int) -> tuple[int, ...]:
    """Determinant of a k x k matrix (k <= 3) over Z[zeta_m], by expansion."""
    k = len(matrix)
    if k == 1:
        return matrix[0][0]
    if k == 2:
        return _sub(_mul(matrix[0][0], matrix[1][1], m), _mul(matrix[0][1], matrix[1][0], m))
    total = (0,) * (len(PHI[m]) - 1)
    for col in range(k):
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        term = _mul(matrix[0][col], _det(minor, m), m)
        total = _add(total, term) if col % 2 == 0 else _sub(total, term)
    return total


def fox_matrix(relators, generator_count: int, m: int, exps) -> list[list[tuple[int, ...]]]:
    """Fox Jacobian at the character x_j -> zeta_m^exps[j], entries in Z[x]/Phi_m.

    Valid when every relator has zero exponent sum in each generator, so the
    character is read directly off the generators.
    """
    rows = []
    for rel in relators:
        cols = [[0] * m for _ in range(generator_count)]
        s = 0
        for letter in rel:
            j = abs(letter) - 1
            if letter > 0:
                cols[j][s] += 1
                s = (s + exps[j]) % m
            else:
                s = (s - exps[j]) % m
                cols[j][s] -= 1
        rows.append([_reduce(c, m) for c in cols])
    return rows


def exact_rank(rows: list[list[tuple[int, ...]]], m: int) -> int:
    """Rank over Q(zeta_m) of a matrix with at most three rows, via minors."""
    if not rows:
        return 0
    ncols = len(rows[0])
    for k in range(min(len(rows), ncols, 3), 0, -1):
        for rsel in itertools.combinations(range(len(rows)), k):
            for csel in itertools.combinations(range(ncols), k):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if any(_det(sub, m)):
                    return k
    return 0


def twisted_h1(relators, generator_count: int, m: int, exps) -> int:
    """h^1 at a nontrivial character for relators in the commutator subgroup."""
    if len(relators) > 3:
        raise ValueError("the minor-based rank handles at most three relators")
    return generator_count - 1 - exact_rank(fox_matrix(relators, generator_count, m, exps), m)


def scan_entries(relators, generator_count: int, bound: int) -> dict:
    """Expected jumping entries {(m, exps): depth} of a scan up to `bound`."""
    out = {}
    for m, exps in canonical_characters(generator_count, bound):
        depth = twisted_h1(relators, generator_count, m, exps)
        if depth >= 1:
            out[(m, exps)] = depth
    return out


def cyclic_cover_b1(relators, generator_count: int, order: int, weights) -> int:
    """Hironaka's sum over the dual of Z/order, evaluated with the oracle rank."""
    total = generator_count
    for j in range(1, order):
        raw = [j * w % order for w in weights]
        g = gcd(order, *raw)
        total += twisted_h1(relators, generator_count, order // g, tuple(x // g for x in raw))
    return total


def surface_cover_b1(genus: int, index: int) -> int:
    return 2 * (index * (genus - 1) + 1)


# ---------------------------------------------------------------------------
# Surface invariants and density closed forms


def family_invariants(d: int, k: int) -> dict:
    """Branched double cover (2k fibers) of the degree-d cyclic cover of the
    Cartwright-Steger surface (K^2=9, chi=1, q=1, g_F=19)."""
    chi = 2 * d + (FIBER_GENUS - 1) * k
    K2 = 18 * d + 8 * (FIBER_GENUS - 1) * k
    q = 2 + k - 1
    pg = 2 * d + FIBER_GENUS * k
    return {"K2": K2, "chi": chi, "q": q, "pg": pg, "slope": Fraction(K2, chi),
            "geography_ok": 2 * chi <= K2 <= 9 * chi}


def minimal_n(p: int, q: int, e: int, bound_num: int, bound_den: int) -> int:
    """Smallest n >= 1 with p / (q D_n) <= bound, D_n = n e q (g_F - 1) + 1."""
    step = e * q * (FIBER_GENUS - 1)
    # p * bound_den <= q * D_n * bound_num  <=>  n * step >= p*bound_den/(q*bound_num) - 1
    excess = p * bound_den - q * bound_num
    return max(1, -(-excess // (q * bound_num * step)))


def check_density_entry(p: int, q: int, e: int, n: int, d: int, k: int,
                        slope: tuple[int, int], gap: tuple[int, int],
                        bound: tuple[int, int]) -> str | None:
    """None when the entry matches every closed form, else the first mismatch.

    ``slope``, ``gap`` and ``bound`` are (numerator, denominator) pairs; all
    comparisons are cross-multiplied integers.
    """
    if not (0 < p < q and gcd(p, q) == 1):
        return f"target {p}/{q} is not reduced in (0, 1)"
    expected_n = minimal_n(p, q, e, *bound)
    if n != expected_n:
        return f"n={n} for {p}/{q} is not the minimal n={expected_n}"
    big_d = n * e * q * (FIBER_GENUS - 1) + 1
    (gnum, gden), (snum, sden), (bnum, bden) = gap, slope, bound
    if gnum * q * big_d != p * gden or gnum * bden > bnum * gden:
        return f"gap {gnum}/{gden} for {p}/{q} is not p/(q D_n) within the bound"
    if d != n * e * (q - p) * (FIBER_GENUS - 1) + 1 or k != 2 * n * e * p:
        return f"(d, k)=({d}, {k}) off the family for {p}/{q}, n={n}"
    if snum * q * big_d != sden * (9 * q * big_d - p * big_d + p):
        return f"slope {snum}/{sden} != target + gap for {p}/{q}"
    inv = family_invariants(d, k)
    if snum * inv["chi"] != sden * inv["K2"]:
        return f"slope {snum}/{sden} != K2/chi of (d, k)=({d}, {k})"
    return None
