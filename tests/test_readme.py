"""The README's library sketch and command-line examples run as written and
print what they say."""

import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

from slopekit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# The presentation files the command-line examples read.
EXAMPLE_FILES = {
    "torus.txt": "generators: a b\nrelator: a b A B\n",
    "trefoil.txt": "generators: x y\nrelator: x y x Y X Y\n",
    "genus2.txt": "generators: a b c d\nrelator: a b A B c d C D\n",
}


def _sketch_values():
    """Run the python block under "Library sketch" statement by statement,
    returning the value of each bare expression in order."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", text, re.M | re.S).group(1)
    namespace = {}
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    return values


def test_library_sketch_runs_and_matches_its_comments():
    hironaka, schreier, slope_value, max_gap, first = _sketch_values()
    assert hironaka == schreier == 12
    assert slope_value == Fraction(315, 37)
    assert max_gap <= Fraction(1, 20) and max_gap == Fraction(1, 74)
    assert first == (19, 20, 161, 20)


def _command_lines():
    """The `slopekit ...` lines of the sh block under "Command line", each
    split into (argv, trailing comment)."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)^## ", text, re.M | re.S).group(1)
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "slopekit", line
        lines.append((argv[1:], comment.strip()))
    return lines


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    for name, content in EXAMPLE_FILES.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = _command_lines()
    assert len(lines) == 8
    for argv, comment in lines:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == "", argv
        if argv[0] == "invariants":
            assert argv == ["invariants", "--d", "1", "--k", "1"]
            assert comment == "K2=162 chi=20 q=2 pg=21, slope 81/10"
            invariants, slope_value = comment.split(", slope ")
            assert captured.out.splitlines()[:2] == [invariants, f"slope: {slope_value}"]
