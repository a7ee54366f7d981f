"""Byte identity of `density` stdout and `--plot` files, pinned by SHA-256.

The first digests were taken from the output of the implementation that
compared `Fraction`s throughout; the integer cross-multiplied checks must
print the same bytes.  The later ones were taken from the renderers that
built a dict per entry for `_json_text`, formatted text with f-strings and
wrote CSV with `csv.writer`; those renderers stay below as the oracles of
the one-pass templates, which print every format from the certificate rows.
The SVG digests were taken while entries still held `Fraction` slopes.
"""

import csv
import hashlib
import io
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from slopekit.cli import _density_json, _density_text, _json_text, main
from slopekit.density import (
    CSV_HEADER,
    TargetSlope,
    convergence_report,
    density_certificate,
    write_certificate_csv,
)

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
    # 17,543 targets, 3,254,842 bytes
    (["--epsilon", "1/120", "--max-denominator", "240", "--format", "json"],
     "6c2ec05087872ced479f0ee0b204a0273cb8ef0f44de7d078ff7f751cfd443c4"),
    # 1,360,184 bytes
    (["--epsilon", "1/120", "--max-denominator", "240", "--format", "text"],
     "7a0e315f532134052bbd3897cfad232db7c6bfadeb6370ab2ada31dbe5599ae7"),
    (["--target", "3/7", "--epsilon", "1/99999", "--format", "text"],
     "7557430c544c640d0a777b8b1bdd0bb3f4d460f4e62f6602e2c757f01c0c972f"),
    (["--target", "3/7", "--epsilon", "1/99999", "--format", "csv"],
     "cba5eda04a7b760d369d73074b53e93c6675a87858c713df86d6ee39e694fa07"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_density_stdout_is_byte_identical(capsys, argv, digest):
    code = main(["density", *argv])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest


SVG_GOLDEN = [
    (["--epsilon", "1/10", "--max-denominator", "20", "--exponent", "2"],
     "ae5f7e8671623e395f0d3d496c576fad6e7f44f29eeb77d7e740b782a4b45a74"),
    (["--epsilon", "1/99999", "--target", "3/7"],
     "525a676b6b3c9608d8c7b9d53c39160ed9c721552679f1148c6c7472ffe6ff8c"),
]


@pytest.mark.parametrize("argv, digest", SVG_GOLDEN, ids=[" ".join(a) for a, _ in SVG_GOLDEN])
def test_density_plot_is_byte_identical(capsys, tmp_path, argv, digest):
    plot = tmp_path / "slopes.svg"
    code = main(["density", *argv, "--plot", str(plot), "--format", "csv"])
    assert code == 0 and capsys.readouterr().err == ""
    assert hashlib.sha256(plot.read_bytes()).hexdigest() == digest


def _old_density_json(epsilon, entries):
    """The JSON rendering the templates replaced: a dict per entry."""
    return _json_text({
        "epsilon": f"{epsilon.numerator}/{epsilon.denominator}",
        "entries": [
            {
                "p": entry.target.p,
                "q": entry.target.q,
                "target": "{}/{}".format(*entry.target.value_pair),
                "e": entry.params.cover_exponent or 1,
                "n": entry.n,
                "d": entry.params.d,
                "k": entry.params.k,
                "slope": f"{entry.achieved.numerator}/{entry.achieved.denominator}",
                "gap": f"{entry.gap.numerator}/{entry.gap.denominator}",
            }
            for entry in entries
        ],
    })


def _old_density_text(epsilon, entries):
    """The text rendering the templates replaced: f-strings over Fractions."""
    lines = [f"epsilon: {epsilon}", f"entries: {len(entries)}"]
    for entry in entries:
        value_num, value_den = entry.target.value_pair
        lines.append(
            f"  target {value_num}/{value_den} (p/q={entry.target.p}/{entry.target.q}) "
            f"n={entry.n} d={entry.params.d} k={entry.params.k} "
            f"slope={entry.achieved} gap={entry.gap}"
        )
    return "\n".join(lines) + "\n"


def _old_density_csv(entries):
    """The CSV rendering the template replaced: `csv.writer` over the rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for entry in entries:
        target, params = entry.target, entry.params
        writer.writerow([target.p, target.q, *target.value_pair,
                         params.cover_exponent or 1, entry.n, params.d, params.k,
                         entry.achieved.numerator, entry.achieved.denominator,
                         entry.gap.numerator, entry.gap.denominator])
    return buffer.getvalue()


# No explain phase: it re-runs a failing example with each argument varied,
# which means hundreds of certificates of up to 4,400 entries.
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                     phases=set(hypothesis.Phase) - {hypothesis.Phase.explain})
@hypothesis.given(
    exponent=st.integers(1, 3),
    k=st.integers(2, 60),
    target=st.none() | st.integers(2, 10**4).flatmap(
        lambda q: st.tuples(st.integers(1, q - 1), st.just(q))),
    scale=st.integers(1, 10**7),
)
def test_density_templates_match_the_old_renderings(exponent, k, target, scale):
    """A certificate at epsilon = 1/K with Q = 2K, or one target at epsilon = 1/(K scale)."""
    if target is None:
        epsilon = Fraction(1, k)
        entries = density_certificate(epsilon, exponent, 19, 2 * k).entries
    else:
        epsilon = Fraction(1, k * scale)
        entries = (convergence_report(TargetSlope(*target), exponent, 19, epsilon),)
    buffer = io.StringIO()
    write_certificate_csv(entries, buffer)
    # Compared as lists of lines, so that a failure names the first line that differs.
    for new, old in [
        (_density_json(epsilon, entries), _old_density_json(epsilon, entries)),
        (_density_text(epsilon, entries), _old_density_text(epsilon, entries)),
        (buffer.getvalue(), _old_density_csv(entries)),
    ]:
        assert new.split("\n") == old.split("\n")
