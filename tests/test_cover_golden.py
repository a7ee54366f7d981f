"""Byte identity of `cover-b1` stdout, pinned by SHA-256.

The digests were taken from the implementation that tested every report
entry against a basis of the kernel lattice of alpha and built the coset
permutations element by element; Hironaka's formula summed over the dual
group and the digit-table cosets must print the same bytes.
"""

import hashlib
import json

import pytest

from slopekit.cli import main

GROUPS = {
    "genus2": "generators: a b c d\nrelator: a b A B c d C D\n",
    # H1 = Z^2 + Z/2
    "torsion": "generators: a b c\nrelator: a a b c B C\n",
    # the whole Fox row vanishes at chi(x) = -1
    "vanishing": "generators: x y\nrelator: x x y X X Y\n",
}

# Z/2 + (Z/4)^3 through a unimodular matrix other than the identity
DECK = {"factors": [2, 4, 4, 4], "matrix": [[1, 2, 0, 3], [0, 1, 2, 0], [0, 0, 1, 2], [0, 0, 0, 1]]}

GOLDEN = [
    # b1 18 on both routes, 7 contributions
    ("genus2", ["--cyclic", "8", "--weights", "1,3,0,2"], "json",
     "7fa76708ba021a585e10b1b54c4f0f847b782f6ad566d9fa55c4432c5822c7cb"),
    ("genus2", ["--cyclic", "8", "--weights", "1,3,0,2"], "text",
     "2a84d5a826cf87ae0bcd05b7faba8fec11bc8e08d51baecd9e23ee3c1aff54b0"),
    # b1 258, 127 contributions: every nontrivial character of the deck group
    ("genus2", ["--epimorphism", "deck.json"], "json",
     "d91de8fa44978af154ad28f972ddb93ecf1526fd213407572285e61d4782710b"),
    ("genus2", ["--epimorphism", "deck.json"], "text",
     "ef6dbb34701ee71738f04a98a3ee41335f8bcf2b8ff16ac65182689aa13791de"),
    # b1 5, 3 contributions
    ("torsion", ["--cyclic", "4", "--weights", "1,2"], "json",
     "2b5981e569558d4b2139b4268f2e1cc8f7b25d011df8dadf4888430dddce3318"),
    ("torsion", ["--cyclic", "4", "--weights", "1,2"], "text",
     "b45aa4fa3dc546bbe7cf1bdf7c3d93a3625e55f9518f934a07f956f0458bebb9"),
    # b1 3, 1 contribution, found by the exact fallback
    ("vanishing", ["--cyclic", "4", "--weights", "1,0"], "json",
     "d161eeca9aef41f6ef4a623a52c868f195602fcd34553010c033231d06b53ae1"),
    ("vanishing", ["--cyclic", "4", "--weights", "1,0"], "text",
     "25d8daae87b51a5e1e3b58a1212f482c325589e3db28b4a61313bf375b5b82ca"),
]


@pytest.mark.parametrize(
    "group, deck, fmt, digest", GOLDEN,
    ids=[f"{g}-{'-'.join(d).replace('--', '')}-{f}" for g, d, f, _ in GOLDEN],
)
def test_cover_b1_stdout_is_byte_identical(capsys, tmp_path, group, deck, fmt, digest):
    path = tmp_path / f"{group}.txt"
    path.write_text(GROUPS[group])
    (tmp_path / "deck.json").write_text(json.dumps(DECK))
    deck = [str(tmp_path / a) if a == "deck.json" else a for a in deck]
    code = main(["cover-b1", "--input", str(path), *deck, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
