"""Presentation parsing and end-to-end runs of every subcommand."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from slopekit import cli
from slopekit import density as density_mod
from slopekit.cli import (
    PresentationParseError,
    build_parser,
    load_presentation,
    main,
    parse_presentation,
    presentation_from_json_dict,
)
from slopekit.errors import SlopekitError
from slopekit.group_core import GroupPresentation, free_reduce, torus_group, trefoil_group

TORUS_TEXT = "generators: a b\nrelator: a b A B\n"
TREFOIL_TEXT = "generators: x y\nrelator: x y x Y X Y\n"
GENUS2_TEXT = "generators: a b c d\nrelator: a b A B c d C D\n"


# ---------------------------------------------------------------------------
# Parsing


def test_parse_presentation_torus():
    assert parse_presentation(TORUS_TEXT) == torus_group()


def test_parse_presentation_trefoil():
    assert parse_presentation(TREFOIL_TEXT) == trefoil_group()


def test_parse_skips_blanks_and_comments():
    text = "# the torus group\n\ngenerators: a b\n\nrelator: a b A B\n"
    assert parse_presentation(text) == torus_group()


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("generators: a\nrelator: a q\n", "line 2: unknown letter 'q'"),
        ("relator: a\n", "line 1: relator before the generators line"),
        ("generators: a b\nrelator: a A\n", "line 2: relator reduces to the empty word"),
        ("generators: a a\n", "line 1: duplicate generator"),
        ("generators: a b\ngenerators: c\n", "line 2: duplicate generators line"),
        ("generators: a\nrelator: ab\n", "line 2: invalid token"),
        ("generators: A\n", "line 1: generator names"),
        ("nonsense\n", "line 1: expected"),
        ("", "missing generators line"),
        # the JSON mirror reads its relators through the same check
        ({"generators": ["a", "b"], "relators": [["a", "A"]]},
         "relator 1: relator reduces to the empty word"),
        ({"generators": ["a", "b"], "relators": ["b", "a A"]},
         "relator 2: relator reduces to the empty word"),
        ({"generators": ["a"], "relators": [["a"], ["a", "q"]]}, "relator 2: unknown letter 'q'"),
        ({"generators": ["a"], "relators": [["ab"]]}, "relator 1: invalid token 'ab'"),
    ],
)
def test_parse_errors_carry_line_numbers(source, fragment):
    """A text error names its line, a JSON error its relator."""
    parse = presentation_from_json_dict if isinstance(source, dict) else parse_presentation
    with pytest.raises(PresentationParseError) as err:
        parse(source)
    assert fragment in str(err.value)


def test_presentation_json_mirror():
    data = {"generators": ["a", "b"], "relators": [["a", "b", "A", "B"]]}
    assert presentation_from_json_dict(data) == torus_group()
    # relators may also be given as strings
    data = {"generators": ["x", "y"], "relators": ["x y x Y X Y"]}
    assert presentation_from_json_dict(data) == trefoil_group()
    with pytest.raises(PresentationParseError):
        presentation_from_json_dict({"generators": ["a"]})


def test_text_and_json_parse_to_one_presentation():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def presentations(draw):
        names = draw(st.permutations("abcdxyz"))[:draw(st.integers(1, 4))]
        letter = st.integers(1, len(names)).flatmap(lambda i: st.sampled_from((i, -i)))
        word = st.lists(letter, min_size=1, max_size=10).filter(free_reduce)
        return names, draw(st.lists(word, max_size=3))

    def token(letter, names):
        name = names[abs(letter) - 1]
        return name if letter > 0 else name.upper()

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(presentations(), st.booleans())
    def check(case, as_strings):
        names, words = case
        relators = [[token(letter, names) for letter in w] for w in words]
        text = "generators: " + " ".join(names) + "\n" + "".join(
            "relator: " + " ".join(tokens) + "\n" for tokens in relators)
        data = {"generators": names,
                "relators": [" ".join(t) for t in relators] if as_strings else relators}
        presentation = parse_presentation(text)
        assert presentation == presentation_from_json_dict(data)
        assert presentation.generator_count == len(names)
        assert presentation.relators == tuple(free_reduce(w) for w in words)

    check()


def test_load_presentation_sniffs_format(tmp_path):
    text_path = tmp_path / "torus.txt"
    text_path.write_text(TORUS_TEXT)
    json_path = tmp_path / "torus.json"
    json_path.write_text(json.dumps({"generators": ["a", "b"], "relators": [["a", "b", "A", "B"]]}))
    assert load_presentation(str(text_path)) == load_presentation(str(json_path)) == torus_group()


# ---------------------------------------------------------------------------
# Subcommands


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.txt"
    path.write_text(TORUS_TEXT)
    return str(path)


@pytest.fixture
def genus2_file(tmp_path):
    path = tmp_path / "genus2.txt"
    path.write_text(GENUS2_TEXT)
    return str(path)


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.txt"
    path.write_text(TREFOIL_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_abelianize_text_and_json(capsys, torus_file):
    code, out, _ = run_cli(capsys, "abelianize", "--input", torus_file)
    assert code == 0
    assert out == "free rank: 2\ntorsion: (none)\n"
    code, out, _ = run_cli(capsys, "abelianize", "--input", torus_file, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"free_rank": 2, "torsion": []}


def test_alexander_symbolic(capsys, torus_file):
    code, out, _ = run_cli(capsys, "alexander", "--input", torus_file)
    assert code == 0
    assert out == "variables: 2\n[1 - t2, -1 + t1]\n"
    code, out, _ = run_cli(capsys, "alexander", "--input", torus_file, "--format", "json")
    data = json.loads(out)
    assert data["rows"] == 1 and data["cols"] == 2 and data["variables"] == 2
    assert data["entries"][0][0] == [
        {"exponents": [0, 0], "coefficient": 1},
        {"exponents": [0, 1], "coefficient": -1},
    ]


def test_alexander_at_character(capsys, trefoil_file):
    code, out, _ = run_cli(capsys, "alexander", "--input", trefoil_file, "--char", "6:1")
    assert code == 0
    assert "[0, 0]" in out
    code, out, _ = run_cli(
        capsys, "alexander", "--input", trefoil_file, "--char", "6:1", "--format", "json"
    )
    data = json.loads(out)
    assert data["character"] == {"modulus": 6, "exponents": [1]}
    assert data["entries"][0][0]["coefficients"] == ["0", "0"]


def test_scan_subcommand(capsys, torus_file):
    code, out, _ = run_cli(capsys, "scan", "--input", torus_file, "--max-order", "4")
    assert code == 0
    assert "nontrivial entries: 0" in out and "exponent: 1" in out
    code, out, _ = run_cli(
        capsys, "scan", "--input", torus_file, "--max-order", "4", "--format", "json"
    )
    data = json.loads(out)
    assert data == {"scan_bound": 4, "b1": 2, "entries": [], "exponent": 1}


def test_cover_b1_agreement(capsys, genus2_file):
    code, out, _ = run_cli(
        capsys, "cover-b1", "--input", genus2_file, "--cyclic", "3", "--weights", "1,0,0,0"
    )
    assert code == 0
    assert "hironaka b1: 8" in out
    assert "reidemeister-schreier b1: 8" in out
    assert "routes agree: yes" in out


def test_cover_b1_mismatch_is_fatal(capsys, genus2_file, monkeypatch):
    monkeypatch.setattr("slopekit.cli.subgroup_b1", lambda presentation, alpha: 9)
    code, out, err = run_cli(
        capsys, "cover-b1", "--input", genus2_file, "--cyclic", "3", "--weights", "1,0,0,0"
    )
    assert code == 1
    assert "hironaka b1: 8" in out and "routes agree: NO" in out
    error = json.loads(err)
    assert error["module"] == "cover-b1"
    assert "routes disagree (8 vs 9)" in error["error"] and "indicates a bug" in error["error"]


def test_cover_b1_epimorphism_file(capsys, genus2_file, tmp_path):
    epi_path = tmp_path / "epi.json"
    epi_path.write_text(json.dumps({"factors": [2, 2], "matrix": [[1, 0, 0, 0], [0, 1, 0, 0]]}))
    code, out, _ = run_cli(
        capsys, "cover-b1", "--input", genus2_file, "--epimorphism", str(epi_path),
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["hironaka_b1"] == data["reidemeister_schreier_b1"] == 10
    assert data["agree"] is True


def test_invariants_subcommand(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--d", "1", "--k", "1")
    assert code == 0
    assert "K2=162 chi=20 q=2 pg=21" in out
    assert "slope: 81/10" in out
    code, out, _ = run_cli(capsys, "invariants", "--d", "2", "--k", "1", "--format", "json")
    data = json.loads(out)
    assert data["slope"] == "90/11" and data["geography_ok"] is True


def test_invariants_rejects_unknown_profile(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["invariants", "--d", "1", "--k", "1", "--input", "other"])
    assert exit_info.value.code == 2
    assert "--input" in capsys.readouterr().err


def test_density_certificate_csv(capsys):
    code, out, _ = run_cli(capsys, "density", "--epsilon", "1/4", "--max-denominator", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,q,target_num,target_den,e,n,d,k,slope_num,slope_den,gap_num,gap_den"
    assert len(lines) == 22  # header + one row per Farey target of order 8


def test_density_single_target(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--epsilon", "1/1000", "--target", "1/2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["entries"]) == 1
    entry = data["entries"][0]
    assert entry["n"] == 14 and entry["d"] == 253 and entry["k"] == 28
    assert entry["gap"] == "1/1010"


def test_density_infeasible_exit(capsys):
    code, _, err = run_cli(capsys, "density", "--epsilon", "2", "--max-denominator", "1")
    assert code == 1
    assert json.loads(err)["type"] == "NetInfeasibleError"


def test_density_plot(capsys, tmp_path):
    plot = tmp_path / "slopes.svg"
    code, _, _ = run_cli(
        capsys, "density", "--epsilon", "1/4", "--max-denominator", "8",
        "--plot", str(plot),
    )
    assert code == 0
    content = plot.read_text()
    assert content.startswith("<svg ") and content.rstrip().endswith("</svg>")


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_density_plot_leaves_the_output_unchanged(capsys, tmp_path, fmt):
    argv = ["density", "--epsilon", "1/10", "--max-denominator", "20", "--format", fmt]
    plain = run_cli(capsys, *argv)
    plot = tmp_path / "slopes.svg"
    assert run_cli(capsys, *argv, "--plot", str(plot)) == plain
    assert plain[0] == 0 and plot.read_text().count("<circle") == 127


def test_output_that_cannot_be_written_removes_the_plot(capsys, tmp_path):
    plot, out = tmp_path / "p.svg", tmp_path / "nodir" / "o.csv"
    code, stdout, err = run_cli(capsys, "density", "--epsilon", "1/4", "--max-denominator", "8",
                                "--out", str(out), "--plot", str(plot))
    assert code == 1 and stdout == ""
    assert_single_json_error(err, "FileNotFoundError", str(out))
    assert not plot.exists() and not out.parent.exists()


def test_out_flag_writes_file(capsys, torus_file, tmp_path):
    out_path = tmp_path / "h1.json"
    code, out, _ = run_cli(
        capsys, "abelianize", "--input", torus_file, "--format", "json",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text()) == {"free_rank": 2, "torsion": []}


def test_byte_identical_outputs(capsys, genus2_file):
    args = ["scan", "--input", genus2_file, "--max-order", "3", "--format", "json"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_cli_import_loads_no_thread_pool():
    code = "import sys, slopekit.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


def test_missing_input_file(capsys, genus2_file):
    for argv in (
        ["abelianize", "--input", "/nonexistent/file.txt"],
        ["cover-b1", "--input", genus2_file, "--epimorphism", ""],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert json.loads(err)["type"] == "FileNotFoundError"


def assert_single_json_error(err, kind, fragment):
    error = json.loads(err)  # exactly one JSON object, no traceback
    assert error["type"] == kind and error["module"] == "cli"
    assert fragment in error["error"]


def test_truncated_json_input_is_an_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"generators": ["a", "b"], "relators": [')
    code, out, err = run_cli(capsys, "scan", "--input", str(path), "--max-order", "2")
    assert code == 1 and out == ""
    assert_single_json_error(err, "InputFileError", "not valid JSON")


BOM = b"\xef\xbb\xbf"
TORUS_JSON = {"generators": ["a", "b"], "relators": [["a", "b", "A", "B"]]}


def nested_json(key, depth=200_000):
    """A JSON object whose ``key`` holds lists nested ``depth`` deep."""
    return '{"%s": %s%s}' % (key, "[" * depth, "]" * depth)


def test_input_files_may_start_with_a_bom(capsys, tmp_path, genus2_file):
    text_path, json_path = tmp_path / "torus.txt", tmp_path / "torus.json"
    text_path.write_bytes(BOM + TORUS_TEXT.encode())
    json_path.write_bytes(BOM + json.dumps(TORUS_JSON).encode())
    for path in (text_path, json_path):
        code, out, err = run_cli(capsys, "abelianize", "--input", str(path), "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out) == {"free_rank": 2, "torsion": []}
    epi_path = tmp_path / "epi.json"
    epi_path.write_bytes(BOM + b'{"factors": [2, 4], "matrix": [[1, 0, 0, 0], [0, 1, 0, 0]]}')
    code, out, err = run_cli(
        capsys, "cover-b1", "--input", genus2_file, "--epimorphism", str(epi_path)
    )
    assert code == 0 and err == ""
    assert "reidemeister-schreier b1: 18" in out and "routes agree: yes" in out


def test_deeply_nested_json_is_an_error(capsys, tmp_path, genus2_file):
    path = tmp_path / "deep.json"
    path.write_text(nested_json("generators"))
    code, out, err = run_cli(capsys, "abelianize", "--input", str(path))
    assert code == 1 and out == ""
    assert_single_json_error(err, "InputFileError", "not valid JSON")
    path.write_text(nested_json("factors"))
    code, out, err = run_cli(
        capsys, "cover-b1", "--input", genus2_file, "--epimorphism", str(path)
    )
    assert code == 1 and out == ""
    assert_single_json_error(err, "InputFileError", "not valid JSON")


def test_directory_input_is_an_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "scan", "--input", str(tmp_path), "--max-order", "2")
    assert code == 1 and out == ""
    assert_single_json_error(err, "InputFileError", "cannot read")


def test_binary_input_is_an_error(capsys, tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"\xff\xfe\x00generators")
    code, out, err = run_cli(capsys, "abelianize", "--input", str(path))
    assert code == 1 and out == ""
    assert_single_json_error(err, "InputFileError", "cannot read")


@pytest.mark.parametrize(
    "presentation, fragment",
    [
        ({"generators": ["a"], "relators": [5]}, "relator 1: not a string or a list"),
        ({"generators": ["a"], "relators": [None]}, "relator 1: not a string or a list"),
        ({"generators": ["a"], "relators": [["a", 5]]}, "relator 1: invalid token 5"),
        ({"generators": [1], "relators": []}, "generators: generator names"),
        ({"generators": [["a"]], "relators": []}, "generators: generator names"),
        ({"generators": ["a"], "relators": [[["a"]]]}, "relator 1: invalid token ['a']"),
        # read letter by letter, "abAB" would be four relators and the trivial group
        ({"generators": ["a", "b"], "relators": "abAB"}, "relators: not a list: 'abAB'"),
        ({"generators": "ab", "relators": [["a", "b", "A", "B"]]}, "generators: not a list: 'ab'"),
    ],
)
@pytest.mark.parametrize("subcommand", [["abelianize"], ["scan", "--max-order", "2"]])
def test_malformed_presentation_json_is_an_error(capsys, tmp_path, presentation, fragment,
                                                 subcommand):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(presentation))
    code, out, err = run_cli(capsys, *subcommand, "--input", str(path))
    assert code == 1 and out == ""
    assert_single_json_error(err, "PresentationParseError", fragment)


def test_epimorphism_without_factors_is_an_error(capsys, genus2_file, tmp_path):
    epi_path = tmp_path / "epi.json"
    epi_path.write_text(json.dumps({"matrix": [[1, 0, 0, 0]]}))
    code, out, err = run_cli(
        capsys, "cover-b1", "--input", genus2_file, "--epimorphism", str(epi_path)
    )
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["type"] == "NotAnEpimorphismError" and error["module"] == "covers"
    assert "factors" in error["error"]


def test_non_integral_epimorphism_is_an_error(capsys, genus2_file, tmp_path):
    # truncated to 2 and 1, the first file would answer b1 = 18 with exit 0,
    # and so would the fourth with true read as 1
    epi_path = tmp_path / "epi.json"
    for data in (
        {"factors": [2.7, 4], "matrix": [[1.9, 0, 0, 0], [0, 1, 0, 0]]},
        {"factors": [2, 4], "matrix": [[1, 0, 0, 0], [0, 1.0, 0, 0]]},
        {"factors": ["2", 4], "matrix": [[1, 0, 0, 0], [0, 1, 0, 0]]},
        {"factors": [2, 4], "matrix": [[True, 0, 0, 0], [0, 1, 0, 0]]},
        {"factors": [True, 4], "matrix": [[1, 0, 0, 0], [0, 1, 0, 0]]},
    ):
        epi_path.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "cover-b1", "--input", genus2_file, "--epimorphism", str(epi_path)
        )
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["type"] == "NotAnEpimorphismError" and error["module"] == "covers"
        assert "integers" in error["error"]
    epi_path.write_text(json.dumps({"factors": [2, 4], "matrix": [[1, 0, 0, 0], [0, 1, 0, 0]]}))
    code, out, _ = run_cli(
        capsys, "cover-b1", "--input", genus2_file, "--epimorphism", str(epi_path)
    )
    assert code == 0
    assert "reidemeister-schreier b1: 18" in out and "routes agree: yes" in out


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["cover-b1", "--input", "x.txt", "--cyclic", "3", "--weights", "1,x"], "bad --weights"),
        (["alexander", "--input", "x.txt", "--char", "x"], "bad --char 'x'"),
        (["alexander", "--input", "x.txt", "--char", "3:1,y"], "bad --char '3:1,y'"),
    ],
)
def test_malformed_flag_values_exit_2(capsys, argv, fragment):
    # flags are converted before the input is read, so x.txt need not exist
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert_single_json_error(err, "SlopekitError", fragment)


def reference_main(argv):
    """main as the top-level parser alone runs it: parse_args over the whole
    argv, the hand checks, the flag converters, then the subcommand."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "scan" and args.max_order < 1:
        parser.error("--max-order must be >= 1")
    if args.subcommand == "cover-b1" and args.epimorphism is not None and args.weights is not None:
        parser.error("argument --weights: not allowed with argument --epimorphism")
    try:
        for name, convert in cli._CONVERTERS.items():
            if getattr(args, name, None) is not None:
                setattr(args, name, convert(getattr(args, name)))
    except SlopekitError as exc:
        cli._fail(cli._provenance(exc), str(exc), type(exc).__name__)
        return 2
    return cli.run(args)


def outcome(entry, argv):
    """(exit status, stdout bytes, stderr bytes) of entry(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def assert_parses_as_reference(argv):
    got = outcome(main, argv)
    assert got == outcome(reference_main, argv), argv
    assert b"Traceback" not in got[2], argv
    return got


def test_usage_errors_exit_2():
    for argv in (
        ["density", "--epsilon", "1/4"],  # neither target nor denominator
        ["cover-b1", "--input", "x.txt"],  # no epimorphism data
        ["cover-b1", "--input", "x.txt", "--cyclic", "3", "--max-order", "3"],
        ["density", "--epsilon", "1/4", "--max-denominator", "8", "--input", "other"],
        ["cover-b1", "--input", "x.txt", "--cyclic", "3", "--epimorphism", "f"],
        ["density", "--epsilon", "1/4", "--target", "1/2", "--max-denominator", "8"],
        ["cover-b1", "--input", "x.txt", "--epimorphism", "f", "--weights", "9,9"],
        ["scan", "--input", "x.txt", "--max-order", "0"],
        [],
        ["frobnicate"],
        ["-h"],  # help exits 0, with the usage on stdout
        ["density", "-h"],
    ):
        code, out, err = assert_parses_as_reference(argv)
        if "-h" in argv:
            assert code == 0 and out.startswith(b"usage: slopekit") and err == b"", argv
        else:
            assert code == 2 and out == b"" and b"usage: slopekit" in err, argv
    _, _, err = assert_parses_as_reference(
        ["density", "--epsilon", "1/4", "--max-denominator", "8", "--input", "other"]
    )
    assert err.endswith(b"slopekit: error: unrecognized arguments: --input other\n")


def test_one_parse_by_the_subcommand_parser(monkeypatch, torus_file):
    def no_top_level_parse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a subcommand")

    commands = (
        ["abelianize", "--input", torus_file],
        ["alexander", "--input", torus_file, "--char", "3:1,2"],
        ["scan", "--input", torus_file, "--max-order", "3", "--format", "json"],
        ["cover-b1", "--input", torus_file, "--cyclic", "3", "--weights", "1,2"],
        ["invariants", "--d", "2", "--k", "3"],
        ["density", "--epsilon", "1/10", "--target", "1/2", "--format", "text"],
    )
    expected = [outcome(reference_main, argv) for argv in commands]
    monkeypatch.setattr(cli._parsers()[0], "parse_args", no_top_level_parse)
    for argv, reference in zip(commands, expected):
        code, out, err = outcome(main, argv)
        assert code == 0 and out and err == b"", argv
        assert (code, out, err) == reference


def test_one_parse_matches_the_top_level_parse(tmp_path):
    """Generated commands, valid and not, exit and print as parse_args did."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    (tmp_path / "torus.txt").write_text(TORUS_TEXT)
    (tmp_path / "garbage.txt").write_text("relator: a\n")
    (tmp_path / "deck.json").write_text('{"factors": [2, 3], "matrix": [[1, 0], [0, 1]]}')
    torus, garbage, deck, missing, directory = (
        str(tmp_path / name) for name in ("torus.txt", "garbage.txt", "deck.json", "nope", "")
    )
    inputs = ([torus], [garbage, missing, directory])
    formats = (["text", "json"], ["yaml"])
    out = ([], [directory])
    # subcommand -> its flag slots: (required, {flag: (valid values, other values)}),
    # one flag of a slot given in a valid command; every value small, so that
    # the largest command scans the torus to order 4
    slots = {
        "abelianize": [(True, {"--input": inputs}), (False, {"--format": formats}),
                       (False, {"--out": out})],
        "alexander": [
            (True, {"--input": inputs}),
            (False, {"--char": (["2:1,0", "3:1,2"], ["4:1", "x", "2:1,0,1"])}),
            (False, {"--format": formats}),
        ],
        "scan": [
            (True, {"--input": inputs}),
            (True, {"--max-order": (["1", "2", "4"], ["-1", "0", "x"])}),
            (False, {"--format": formats}),
            (False, {"--out": out}),
        ],
        "cover-b1": [
            (True, {"--input": inputs}),
            (True, {"--cyclic": (["2", "4"], ["0", "x"]), "--epimorphism": ([deck], [missing])}),
            (False, {"--weights": (["1,0", "1,1"], ["1", "1,x"])}),
            (False, {"--format": formats}),
        ],
        "invariants": [
            (True, {"--d": (["1", "3"], ["-1", "0", "x"])}),
            (True, {"--k": (["1", "4"], ["0", "x"])}),
            (False, {"--format": formats}),
        ],
        "density": [
            (True, {"--epsilon": (["1/4", "1/10", "1/1000000000"], ["0", "-1/2", "x", "1/0"])}),
            (True, {"--max-denominator": (["8", "12"], ["1", "2", "x"]),
                    "--target": (["1/2", "2/3"], ["0/1", "3/2", "x", "1/0"])}),
            (False, {"--exponent": (["1", "2"], ["0", "x"])}),
            (False, {"--format": (["csv", "json", "text"], ["yaml"])}),
            (False, {"--plot": out}),
        ],
    }
    extras = ["--bogus", "-x", "extra", "--", "--inp", "--e", "--max", "-h", "--format"]

    @st.composite
    def commands(draw):
        name = draw(st.sampled_from([*slots, "frobnicate", "-h", None]))
        if name is None:
            return []
        mode = draw(st.sampled_from(["valid", "one bad value", "any"]))
        if mode == "any":  # any flag may be missing or ill-valued, and junk added
            pairs = [
                [flag, draw(st.sampled_from(good + bad))]
                for _, options in slots.get(name, slots["density"])
                for flag, (good, bad) in options.items()
                if draw(st.integers(0, 3))
            ]
            junk = draw(st.lists(st.sampled_from(extras), max_size=2))
        else:
            chosen = []
            for required, options in slots.get(name, ()):
                flag = draw(st.sampled_from(sorted(options)))
                if options[flag][0] and (required or draw(st.booleans())):
                    chosen.append((flag, *options[flag]))
            spoiled = draw(st.integers(0, len(chosen))) if mode == "one bad value" else None
            pairs = [
                [flag, draw(st.sampled_from(bad if i == spoiled and bad else good))]
                for i, (flag, good, bad) in enumerate(chosen)
            ]
            junk = []
        argv = [token for pair in draw(st.permutations(pairs)) for token in pair]
        for extra in junk:
            argv.insert(draw(st.integers(0, len(argv))), extra)
        return [name, *argv]

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(commands())
    def check(argv):
        assert_parses_as_reference(argv)

    check()


@pytest.mark.parametrize(
    "argv, module",
    [
        (["density", "--epsilon", "1/10", "--target", "1/2", "--exponent", "0"], "density"),
        (["invariants", "--d", "0", "--k", "1"], "surface_invariants"),
        (["cover-b1", "--input", "x.txt", "--cyclic", "3", "--weights", "1,x"], "cli"),
    ],
)
def test_error_names_the_raising_module(capsys, argv, module):
    code, out, err = run_cli(capsys, *argv)
    assert code in (1, 2) and out == ""
    error = json.loads(err)
    assert error["type"] == "SlopekitError" and error["module"] == module


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--d", "1", "--k", "1", "--out"],
        ["density", "--epsilon", "1/4", "--max-denominator", "8", "--plot"],
    ],
)
def test_output_path_errors_are_json(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, str(tmp_path))
    assert code == 1 and out == ""
    assert_single_json_error(err, "IsADirectoryError", str(tmp_path))


def test_cli_contract_on_generated_commands(tmp_path):
    """Every generated command either succeeds, with empty stderr and output
    that parses in its format, or fails with empty stdout, no file written,
    and one JSON error object (or, at exit 2, an argparse usage message) on
    stderr."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    presentations = {
        "torus.txt": TORUS_TEXT.encode(),
        "genus2.txt": GENUS2_TEXT.encode(),
        "trefoil.txt": TREFOIL_TEXT.encode(),
        "torsion.txt": b"generators: a b c\nrelator: a a b c B C\n",
        "free.txt": b"generators: a b\n",
        "bom-genus2.txt": BOM + GENUS2_TEXT.encode(),
        "torus.json": json.dumps(TORUS_JSON).encode(),
        "bom-torus.json": BOM + json.dumps(TORUS_JSON).encode(),
        "z2.json": b'{"generators": ["a"], "relators": [["a", "a"]]}',
    }
    epimorphisms = {
        "genus2-deck.json": b'{"factors": [2, 4], "matrix": [[1, 0, 0, 0], [0, 1, 0, 0]]}',
        "torus-deck.json": b'{"factors": [3], "matrix": [[1, 2]]}',
        "bom-torus-deck.json": BOM + b'{"factors": [2], "matrix": [[1, 1]]}',
        "trivial-deck.json": b'{"factors": [], "matrix": []}',
    }
    broken = {
        "deep.json": nested_json("generators").encode(),
        "binary.txt": b"\xff\xfe\x00generators",
        "empty.txt": b"",
        "unknown-letter.txt": b"generators: a\nrelator: b\n",
        "bool-factor.json": b'{"factors": [true, 4], "matrix": [[1, 0], [0, 1]]}',
        "bool-entry.json": b'{"factors": [2], "matrix": [[true, 0, 0, 0]]}',
        "string-entries.json": b'{"factors": ["2"], "matrix": [["1", "0"]]}',
        "short-row.json": b'{"factors": [2], "matrix": [[1, 0, 0]]}',
        "flat-matrix.json": b'{"factors": [2], "matrix": [1]}',
        "scalar-factors.json": b'{"factors": 2, "matrix": []}',
        "list.json": b"[]",
        "no-factors.json": b'{"matrix": [[1, 0]]}',
        "not-onto.json": b'{"factors": [4], "matrix": [[2, 0]]}',
        "zero-map.json": b'{"factors": [2], "matrix": [[0, 0, 0, 0]]}',
        "deep-deck.json": nested_json("factors").encode(),
    }

    def write(group):
        for name, data in group.items():
            (tmp_path / name).write_bytes(data)
        return [str(tmp_path / name) for name in group]

    valid_inputs, valid_decks, junk = map(write, (presentations, epimorphisms, broken))
    pool = valid_inputs + valid_decks + junk + [str(tmp_path), str(tmp_path / "nope")]
    # each file may go to either flag, the fitting ones three more times
    inputs = st.sampled_from(pool + 3 * valid_inputs)
    decks = st.sampled_from(pool + 3 * valid_decks)

    def numbers(low, high):
        return st.sampled_from([*map(str, range(low, high + 1)), "x", ""])

    fraction = st.sampled_from(["1/4", "1/10", "2/3", "1/2", "0", "-1", "x", "1/0", ""])
    # (epsilon, Q) pairs whose certificate exists: epsilon = 1/K, 2K <= Q <= 2K + 3
    feasible = st.integers(1, 12).flatmap(lambda k: st.tuples(
        st.just(f"1/{k}"), st.integers(2 * k, 2 * k + 3).map(str)))
    characters = st.builds(
        lambda m, exps: "%d:%s" % (m, ",".join(map(str, exps))),
        st.integers(-1, 12), st.lists(st.integers(-2, 12), max_size=4),
    ) | st.sampled_from(["x", "3:", ":1", "2:1,y"])
    # onto Z/d for the nonzero free ranks of the pool (1, 2 and 4) and most d
    weights = st.sampled_from(["1", "1,0", "1,3", "1,0,0,0", "2,1,0,3"]) | st.lists(
        st.integers(-1, 8), min_size=1, max_size=5
    ).map(lambda ws: ",".join(map(str, ws))) | st.sampled_from(["x", "", "1,,0"])
    text_formats = st.sampled_from(["text", "json"] * 4 + ["csv"])
    # density writes these two files, or a path that cannot be written
    plot, out_file = tmp_path / "plot.svg", tmp_path / "out.txt"
    unwritable = [str(tmp_path / "nope" / "file"), str(tmp_path)]
    # subcommand -> (required flags, optional flags); one flag of a tuple is drawn
    flags = {
        "abelianize": ([{"--input": inputs}], {"--format": text_formats}),
        "alexander": ([{"--input": inputs}],
                      {"--char": characters, "--format": text_formats}),
        "scan": ([{"--input": inputs}, {"--max-order": numbers(-1, 4)}],
                 {"--format": text_formats}),
        "cover-b1": (
            [{"--input": inputs},
             {"--cyclic": numbers(-1, 8), "--epimorphism": decks}],
            {"--weights": weights, "--format": text_formats},
        ),
        "invariants": ([{"--d": numbers(-1, 50)}, {"--k": numbers(-1, 50)}],
                       {"--format": text_formats}),
        "density": (
            [{"--epsilon": fraction},
             {"--max-denominator": numbers(-1, 16), "--target": fraction}],
            {"--exponent": numbers(-1, 8),
             "--format": st.sampled_from(["csv", "json", "text"] * 3 + ["x"]),
             "--plot": st.sampled_from([str(plot)] * 2 + unwritable),
             "--out": st.sampled_from([str(out_file)] * 2 + unwritable)},
        ),
    }

    @st.composite
    def commands(draw):
        name = draw(st.sampled_from(sorted(flags)))
        required, optional = flags[name]
        pairs = []
        if name == "density" and draw(st.integers(0, 3)):  # the pools' values for the rest
            epsilon, max_denominator = draw(feasible)
            pairs += [["--epsilon", epsilon], ["--max-denominator", max_denominator]]
            required = []
        for options in required:
            flag = draw(st.sampled_from(sorted(options)))
            if draw(st.integers(0, 19)):  # now and then a required flag is left out
                pairs.append([flag, draw(options[flag])])
        for flag in sorted(optional):
            if draw(st.integers(0, 3)):
                pairs.append([flag, draw(optional[flag])])
        return [name] + [token for pair in draw(st.permutations(pairs)) for token in pair]

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(commands())
    # a certificate and its plot are made before the output path fails
    @hypothesis.example(["density", "--epsilon", "1/4", "--max-denominator", "8",
                         "--plot", str(plot), "--out", unwritable[0]])
    @hypothesis.example(["density", "--epsilon", "1/10", "--target", "1/2", "--format", "json",
                         "--out", unwritable[1], "--plot", str(plot)])
    def check(argv):
        plot.unlink(missing_ok=True)
        out_file.unlink(missing_ok=True)
        code, out, err = outcome(main, argv)
        out, err = out.decode(), err.decode()
        if code == 0:
            assert err == "", argv
            if "--out" in argv:
                assert out == "", argv
                out = out_file.read_text()
            if "--plot" in argv:
                assert plot.read_text().startswith("<svg "), argv
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else (
                "csv" if argv[0] == "density" else "text"
            )
            if fmt == "json":
                json.loads(out)
            elif fmt == "csv":
                header, *rows = [line.split(",") for line in out.splitlines()]
                assert header == density_mod.CSV_HEADER, argv
                assert all(len(row) == len(header) for row in rows), argv
                [int(field) for row in rows for field in row]
            else:
                assert out.endswith("\n") and out.strip(), argv
            return
        assert out == "", argv
        assert not plot.exists() and not out_file.exists(), argv
        if code == 2 and err.startswith("usage: slopekit"):
            return
        error = json.loads(err)  # exactly one JSON object, no traceback
        assert sorted(error) == ["error", "module", "type"], argv
        assert code in (1, 2), argv

    check()
