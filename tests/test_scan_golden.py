"""Byte identity of `scan` stdout, pinned by SHA-256.

The digests were taken from the output of the implementation that built the
report's JSON dict and rendered it with `json.dumps(..., sort_keys=True,
indent=2)`, and the text from one f-string per entry; the one-pass
templates must print the same bytes.
"""

import hashlib
import json

import pytest

from slopekit.cli import _json_text, _scan_json, _scan_text, main
from slopekit.jumping_loci import JumpEntry, JumpingLocusReport, TorsionCharacter

GROUPS = {
    "genus2": "generators: a b c d\nrelator: a b A B c d C D\n",
    "genus3": "generators: a b c d e f\nrelator: a b A B c d C D e f E F\n",
    "torus": "generators: a b\nrelator: a b A B\n",
    # H1 = Z^2 + Z/2
    "torsion": "generators: a b c\nrelator: a a b c B C\n",
    # H1 = Z/2 + Z/3, b1 = 0
    "finite": "generators: a b\nrelator: a a\nrelator: b b b\n",
}

GOLDEN = [
    # 8,399 entries, 1,033,148 bytes
    ("genus2", 8, "json", "4feff9e4120bba481693e20df11ff4fcf8983ff296a42f1a0a7c04deda6be3c4"),
    ("genus2", 8, "text", "105f1181e894b62374eaf3cc8094cc2fc2b11d85e6b19bedca3622deb9d82952"),
    # 791 entries of rank 6
    ("genus3", 3, "json", "8591b9c35b615c62d06a959c684ef9f56970d22ebe336f59c88ec7d525572681"),
    # "entries": []
    ("torus", 4, "json", "25ee9653c90dd23f898000b72917f87003102dbca187e967cfea88abbea63278"),
    ("torus", 4, "text", "c0bf288c24cb6bb3ce9415e9f4e9b7f9568d26082f4f7e8385f5aa6c16e9c0aa"),
    # 71 entries of depth 1, exponent 60
    ("torsion", 6, "json", "bb08df780dc63df4922d473df6b058e7d423e24d032b417067b16a3a5d8eccc6"),
    ("torsion", 6, "text", "895a68e4e79e5bdd33a1db394aa030262f0b56be361ab0fcc2b97a90e555c6c0"),
    ("finite", 5, "json", "551e5e5db964dd6a0461261d110c5170ce524834dc76b2466a6a587926eb27ca"),
    ("finite", 5, "text", "68f65cdccacfe0b127aa2de2453a437c811d1bb3487280eb7689be5e13bcc4a3"),
]


@pytest.mark.parametrize(
    "group, max_order, fmt, digest", GOLDEN, ids=[f"{g}-N{n}-{f}" for g, n, f, _ in GOLDEN]
)
def test_scan_stdout_is_byte_identical(capsys, tmp_path, group, max_order, fmt, digest):
    path = tmp_path / f"{group}.txt"
    path.write_text(GROUPS[group])
    code = main(["scan", "--input", str(path), "--max-order", str(max_order), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest


def _old_scan_text(report):
    """The text rendering the templates replaced, kept as their oracle."""
    lines = [
        f"scan bound: {report.scan_bound}",
        f"b1: {report.b1}",
        f"exponent: {report.exponent}",
        f"nontrivial entries: {len(report.entries)}",
    ]
    for entry in report.entries:
        lines.append(
            f"  order {entry.character.order} exponents "
            f"{list(entry.character.exponents)}: depth {entry.depth}"
        )
    return "\n".join(lines) + "\n"


def test_scan_renderers_match_their_oracles():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def reports(draw):
        rank = draw(st.integers(0, 5))
        entries = []
        # rank 0 has only the trivial character, which a report never lists
        for _ in range(draw(st.integers(0, 50)) if rank else 0):
            modulus = draw(st.integers(2, 10**6))
            exponents = draw(st.lists(st.integers(0, modulus - 1), min_size=rank, max_size=rank))
            if not any(exponents):
                exponents[draw(st.integers(0, rank - 1))] = draw(st.integers(1, modulus - 1))
            character = TorsionCharacter(modulus, tuple(exponents))
            entries.append(JumpEntry(character, draw(st.integers(1, 10**4))))
        # a report refuses an entry above its scan bound
        highest = max((e.character.order for e in entries), default=1)
        scan_bound = draw(st.none() | st.integers(highest, 10**6))
        # entries have rank b1; a report without entries may have any b1
        b1 = rank if entries else draw(st.integers(0, 10**3))
        return JumpingLocusReport(scan_bound, b1, entries)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(reports())
    def check(report):
        oracle = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert _scan_json(report) == oracle == _json_text(report.to_json_dict())
        assert _scan_text(report) == _old_scan_text(report)

    check()
