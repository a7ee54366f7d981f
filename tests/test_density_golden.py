"""Byte identity of `density` stdout, pinned by SHA-256.

The digests were taken from the output of the implementation that compared
`Fraction`s throughout; the integer cross-multiplied checks must print the
same bytes.
"""

import hashlib

import pytest

from slopekit.cli import main

GOLDEN = [
    (["--epsilon", "1/10", "--max-denominator", "20", "--format", "csv"],
     "596ce791c1291f635182438015945ada7311978aac32f849b379e9cfbb69a666"),
    (["--epsilon", "1/10", "--max-denominator", "20", "--format", "json"],
     "b82c4a8c04dcd33f6acf6109ec836893396e00508d1cb6f864b33fa0749f1c7f"),
    (["--epsilon", "1/10", "--max-denominator", "20", "--format", "text"],
     "bff6196f236cdca66a95d18db87209d6c7b2f280f01c5e95d8231cb4423bf34e"),
    # 17,543 targets
    (["--epsilon", "1/120", "--max-denominator", "240", "--exponent", "2", "--format", "csv"],
     "d1e693d8aa5b4d45ccc29a001e2f3844a17dc13a52693104db3654ba93375361"),
    (["--epsilon", "1/1000000000", "--target", "5/7", "--format", "json"],
     "2d6b81b442fcaf4f8e6fa328978b91efa7c4abb1f0a2e1ccef3c0a415ca3abd5"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_density_stdout_is_byte_identical(capsys, argv, digest):
    code = main(["density", *argv])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
