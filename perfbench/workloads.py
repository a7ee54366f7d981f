"""Seeded command generators for the three benchmark workloads.

Command i of a run is a pure function of (workload, seed, i): the child
process that measures and the child that replays under tracing regenerate
identical inputs.  Each workload is an endless cycle of one fixed *round* of
slots.  A slot fixes the shape of a command (group, order bound, deck group,
walk length and, where it moves the cost, the output format); the seed
varies what does not change the cost class (generator names, relator
rotation, random words, epimorphism matrices, targets, small outputs' format).  Rounds
are ordered by slot, so the share of each cost class in a run is fixed; the
round lists below are arranged so that the median and the tail percentile of
per-command latency fall inside blocks of equal-cost slots.

Every input is valid by construction: relators are freely reduced and
non-empty, epimorphisms are surjective (rows of a unimodular matrix), and
each density request uses the smallest feasible Farey order Q = 2K.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from math import gcd, lcm, prod

import oracle

WORKLOADS = ("scan", "cover", "density")


@dataclass
class Command:
    """One CLI invocation with its inputs and its expected results."""

    slot: str
    argv: list[str]
    kind: str  # scan | cover | density | invariants
    work: int  # units counted by work_per_s
    expect: dict  # expected values from closed forms and the oracle, read by checks
    files: dict[str, str] = field(default_factory=dict)  # file name -> content
    characters: int | None = None  # closed-form twisted_h1 call count
    useful: int | None = None  # |S| - 1 for cover-b1


# ---------------------------------------------------------------------------
# Words and presentations


def free_reduce(letters: list[int]) -> list[int]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def random_word(rng: random.Random, rank: int, length: int) -> list[int]:
    """A freely reduced word of exactly `length` letters."""
    word: list[int] = []
    while len(word) < length:
        x = rng.choice([1, -1]) * rng.randint(1, rank)
        if not word or word[-1] != -x:
            word.append(x)
    return word


def inverse(word: list[int]) -> list[int]:
    return [-x for x in reversed(word)]


def commutator(u: list[int], v: list[int]) -> list[int]:
    return u + v + inverse(u) + inverse(v)


def random_commutator_relator(rng: random.Random, rank: int, length: int) -> list[int]:
    """Reduced product of two commutators of random 3-letter words, with
    `length` to `length + 2` letters after free reduction.

    Every relator lies in the commutator subgroup, so H1 is free of rank
    `rank` and the oracle's character evaluation applies.
    """
    while True:
        letters: list[int] = []
        for _ in range(2):
            letters += commutator(random_word(rng, rank, 3), random_word(rng, rank, 3))
        word = free_reduce(letters)
        if length <= len(word) <= length + 2:
            return word


def surface_relator(rng: random.Random, genus: int) -> list[int]:
    """[a1,b1]...[ag,bg] over shuffled generator indices, rotated, maybe inverted."""
    order = list(range(1, 2 * genus + 1))
    rng.shuffle(order)
    word: list[int] = []
    for h in range(genus):
        a, b = order[2 * h], order[2 * h + 1]
        word += [a, b, -a, -b]
    shift = rng.randrange(len(word))
    word = word[shift:] + word[:shift]
    if rng.random() < 0.5:
        word = inverse(word)
    return word


def render_presentation(rng: random.Random, rank: int, relators: list[list[int]]) -> str:
    """Text or JSON presentation with seeded single-letter generator names."""
    names = rng.sample(string.ascii_lowercase, rank)

    def token(x: int) -> str:
        name = names[abs(x) - 1]
        return name if x > 0 else name.upper()

    if rng.random() < 0.5:
        lines = ["generators: " + " ".join(names)]
        lines += ["relator: " + " ".join(token(x) for x in rel) for rel in relators]
        return "\n".join(lines) + "\n"
    return json.dumps({"generators": names,
                       "relators": [" ".join(token(x) for x in rel) for rel in relators]})


def unimodular_rows(rng: random.Random, size: int, count: int) -> list[list[int]]:
    """First `count` rows of a random unimodular size x size integer matrix."""
    m = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i, j = rng.sample(range(size), 2)
        c = rng.choice([-2, -1, 1, 2])
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return m[:count]


# ---------------------------------------------------------------------------
# Command shapes


def _fmt(rng: random.Random, fmt: str | None) -> str:
    return fmt or rng.choice(["json", "text"])


def scan_surface(rng, workdir, genus: int, bound: int, fmt: str | None = None) -> Command:
    relator = surface_relator(rng, genus)
    fmt = _fmt(rng, fmt)
    rank = 2 * genus
    chars = oracle.characters_up_to(rank, bound)
    return Command(
        slot=f"scan-surface-g{genus}-n{bound}-{fmt}",
        argv=["scan", "--input", f"{workdir}/group.txt", "--max-order", str(bound), "--format", fmt],
        kind="scan", work=chars, characters=chars,
        expect={"fmt": fmt, "bound": bound, "b1": rank, "entries": chars,
                "depth": 2 * genus - 2, "exponent": lcm(*range(1, bound + 1))},
        files={"group.txt": render_presentation(rng, rank, [relator])},
    )


def scan_random(rng, workdir, rank: int, bound: int, length: int, fmt: str | None = None) -> Command:
    relator = random_commutator_relator(rng, rank, length)
    fmt = _fmt(rng, fmt)
    chars = oracle.characters_up_to(rank, bound)
    return Command(
        slot=f"scan-random-r{rank}-n{bound}-{fmt}",
        argv=["scan", "--input", f"{workdir}/group.txt", "--max-order", str(bound), "--format", fmt],
        kind="scan", work=chars, characters=chars,
        expect={"fmt": fmt, "bound": bound, "b1": rank, "relators": [relator]},
        files={"group.txt": render_presentation(rng, rank, [relator])},
    )


def cover_surface_cyclic(rng, workdir, genus: int, order: int, fmt: str | None = None) -> Command:
    rank = 2 * genus
    relator = surface_relator(rng, genus)
    weights = [rng.randrange(order) for _ in range(rank)]
    weights[rng.randrange(rank)] = rng.choice([u for u in range(1, order) if gcd(u, order) == 1])
    fmt = _fmt(rng, fmt)
    return Command(
        slot=f"cover-surface-g{genus}-z{order}-{fmt}",
        argv=["cover-b1", "--input", f"{workdir}/group.txt", "--cyclic", str(order),
              "--weights", ",".join(map(str, weights)), "--format", fmt],
        kind="cover", work=1, characters=oracle.characters_up_to(rank, order), useful=order - 1,
        expect={"fmt": fmt, "b1": oracle.surface_cover_b1(genus, order)},
        files={"group.txt": render_presentation(rng, rank, [relator])},
    )


def cover_surface_deck(rng, workdir, genus: int, factors: tuple[int, ...],
                       fmt: str | None = None) -> Command:
    rank = 2 * genus
    relator = surface_relator(rng, genus)
    rows = unimodular_rows(rng, rank, len(factors))
    fmt = _fmt(rng, fmt)
    index, exponent = prod(factors), lcm(*factors)
    label = "x".join(map(str, factors))
    return Command(
        slot=f"cover-surface-g{genus}-deck{label}-{fmt}",
        argv=["cover-b1", "--input", f"{workdir}/group.txt", "--epimorphism",
              f"{workdir}/epi.json", "--format", fmt],
        kind="cover", work=1, characters=oracle.characters_up_to(rank, exponent), useful=index - 1,
        expect={"fmt": fmt, "b1": oracle.surface_cover_b1(genus, index)},
        files={"group.txt": render_presentation(rng, rank, [relator]),
               "epi.json": json.dumps({"factors": list(factors),
                                       "matrix": [[x % n for x in row]
                                                  for row, n in zip(rows, factors)]})},
    )


def cover_random(rng, workdir, order: int, length: int, fmt: str | None = None) -> Command:
    rank = 4
    relators = [random_commutator_relator(rng, rank, length) for _ in range(3)]
    weights = [rng.randrange(order) for _ in range(rank)]
    weights[rng.randrange(rank)] = rng.choice([u for u in range(1, order) if gcd(u, order) == 1])
    fmt = _fmt(rng, fmt)
    return Command(
        slot=f"cover-random-r4x3-z{order}-{fmt}",
        argv=["cover-b1", "--input", f"{workdir}/group.txt", "--cyclic", str(order),
              "--weights", ",".join(map(str, weights)), "--format", fmt],
        kind="cover", work=1, characters=oracle.characters_up_to(rank, order), useful=order - 1,
        expect={"fmt": fmt, "relators": relators,
                "b1": oracle.cyclic_cover_b1(relators, rank, order, weights)},
        files={"group.txt": render_presentation(rng, rank, relators)},
    )


def density_certificate(rng, workdir, k_low: int, k_high: int, fmt: str | None = None) -> Command:
    big_k = rng.randint(k_low, k_high)
    exponent = rng.randint(1, 3)
    fmt = fmt or rng.choice(["csv", "json", "text"])
    q_max = 2 * big_k  # smallest Q whose Farey targets form an eps/2-net
    targets = oracle.farey_interior_count(q_max)
    return Command(
        slot=f"density-cert-k{k_low}-{k_high}-{fmt}",
        argv=["density", "--epsilon", f"1/{big_k}", "--max-denominator", str(q_max),
              "--exponent", str(exponent), "--format", fmt],
        kind="density", work=targets,
        expect={"fmt": fmt, "exponent": exponent, "epsilon": (1, big_k), "bound": (1, 2 * big_k),
                "max_denominator": q_max, "targets": targets},
    )


def density_walk(rng, workdir, n_low: int, n_high: int, fmt: str | None = None) -> Command:
    """Single-target walk whose minimal n is drawn from [n_low, n_high].

    epsilon = 1/K with K = floor(q D_n / p): then n is exactly the first
    index whose gap p/(q D_n) is at most epsilon.
    """
    while True:
        q = rng.randint(2, 7)
        p = rng.randint(1, q - 1)
        if gcd(p, q) == 1:
            break
    exponent = rng.randint(1, 2)
    n = rng.randint(n_low, n_high)
    big_k = q * (n * exponent * q * (oracle.FIBER_GENUS - 1) + 1) // p
    fmt = fmt or rng.choice(["csv", "json", "text"])
    return Command(
        slot=f"density-walk-n{n_low}-{n_high}-{fmt}",
        argv=["density", "--epsilon", f"1/{big_k}", "--target", f"{p}/{q}",
              "--exponent", str(exponent), "--format", fmt],
        kind="density", work=1,
        expect={"fmt": fmt, "exponent": exponent, "epsilon": (1, big_k), "bound": (1, big_k),
                "target": (p, q), "n": n, "targets": 1},
    )


def invariants(rng, workdir, fmt: str | None = None) -> Command:
    d, k = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
    fmt = _fmt(rng, fmt)
    return Command(
        slot=f"invariants-{fmt}",
        argv=["invariants", "--d", str(d), "--k", str(k), "--format", fmt],
        kind="invariants", work=0,
        expect={"fmt": fmt, "d": d, "k": k},
    )


# ---------------------------------------------------------------------------
# Rounds

# Each round lists its slots from cheap to expensive.  The comments mark the
# block that holds the median and the tail block, whose slowest slot is the
# tail percentile TAIL_PERCENTILE[workload].  Both percentiles are read after
# each command's latency is replaced by its slot's mean over the run (see
# run.py), so with C slots they pick slot ceil(p/100 * C) in cost order.
# Both blocks hold slots of one cost class, so the statistics do not jump
# between classes from seed to seed.
ROUNDS = {
    "scan": [
        lambda r, w: scan_surface(r, w, 2, 2),  # 15 characters
        lambda r, w: scan_surface(r, w, 2, 2),
        lambda r, w: scan_random(r, w, 2, 4, 16),
        lambda r, w: scan_surface(r, w, 2, 3),
        lambda r, w: scan_surface(r, w, 3, 2),
        lambda r, w: scan_random(r, w, 3, 3, 16),
        lambda r, w: scan_random(r, w, 2, 8, 16),
        lambda r, w: scan_surface(r, w, 2, 4),
        lambda r, w: scan_surface(r, w, 3, 3, "json"),  # median block: 791-959 characters
        lambda r, w: scan_surface(r, w, 2, 5, "text"),
        lambda r, w: scan_surface(r, w, 3, 3, "text"),
        lambda r, w: scan_surface(r, w, 2, 5, "json"),
        lambda r, w: scan_surface(r, w, 3, 3, "json"),
        lambda r, w: scan_random(r, w, 3, 8, 16, "text"),
        lambda r, w: scan_surface(r, w, 2, 6, "json"),
        lambda r, w: scan_surface(r, w, 2, 6, "text"),
        lambda r, w: scan_random(r, w, 4, 6, 16, "json"),
        lambda r, w: scan_surface(r, w, 3, 4, "text"),  # tail block: 4,823 characters
        lambda r, w: scan_surface(r, w, 3, 4, "text"),
        lambda r, w: scan_surface(r, w, 2, 8, "json"),  # 8,399 characters, 1 MB
        lambda r, w: scan_surface(r, w, 2, 8, "json"),
    ],
    "cover": [
        lambda r, w: cover_surface_cyclic(r, w, 2, 2),
        lambda r, w: cover_surface_cyclic(r, w, 3, 2),
        lambda r, w: cover_surface_cyclic(r, w, 2, 3),
        lambda r, w: cover_surface_cyclic(r, w, 2, 4),
        lambda r, w: cover_surface_deck(r, w, 2, (2, 2, 4, 4)),  # median block: order 64
        lambda r, w: cover_surface_deck(r, w, 3, (2, 2, 2, 2, 2, 2)),
        lambda r, w: cover_surface_deck(r, w, 2, (2, 2, 4, 4)),
        lambda r, w: cover_surface_cyclic(r, w, 3, 3),
        lambda r, w: cover_surface_cyclic(r, w, 2, 5),
        lambda r, w: cover_surface_deck(r, w, 3, (2, 2, 2, 2, 2, 2)),
        lambda r, w: cover_surface_deck(r, w, 2, (2, 4, 4, 4)),  # tail block: dense SNF
        lambda r, w: cover_surface_deck(r, w, 2, (2, 4, 4, 4)),
        lambda r, w: cover_surface_deck(r, w, 2, (2, 4, 4, 4)),
        lambda r, w: cover_surface_cyclic(r, w, 2, 8),  # 8,399 characters
        lambda r, w: cover_random(r, w, 5, 16),  # 959 characters, 3 x 4 ranks
    ],
    "density": [
        lambda r, w: invariants(r, w),
        lambda r, w: invariants(r, w),
        lambda r, w: invariants(r, w),
        lambda r, w: density_certificate(r, w, 8, 12, "text"),
        lambda r, w: density_walk(r, w, 4000, 4400),  # median block
        lambda r, w: density_walk(r, w, 4000, 4400),
        lambda r, w: density_walk(r, w, 4000, 4400),
        lambda r, w: density_certificate(r, w, 40, 44, "json"),
        lambda r, w: density_walk(r, w, 20000, 22000),  # tail block
        lambda r, w: density_walk(r, w, 20000, 22000),
        lambda r, w: density_walk(r, w, 20000, 22000),
        lambda r, w: density_certificate(r, w, 120, 120, "csv"),  # 17,543 targets
    ],
}

# Per-command latency percentile reported as op_tail_s.  With C slots it
# picks slot ceil(p/100 * C) in cost order, the top of the tail block (scan:
# slot 19 of 21; cover: 13 of 15; density: 11 of 12), and at least ten
# commands lie beyond it in a run at the seed commit.
TAIL_PERCENTILE = {"scan": 90, "cover": 86.6, "density": 90}

# Whole rounds replayed by the traced run (once untraced, once traced).
TRACE_ROUNDS = {"scan": 2, "cover": 2, "density": 3}


def make_command(workload: str, seed: int, index: int, workdir: str) -> Command:
    """Command `index` of the run: slot index % round length, seeded by all three."""
    slots = ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}:{index}")
    return slots[index % len(slots)](rng, workdir)
