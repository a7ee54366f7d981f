"""Command line driver.

Subcommands: abelianize, alexander, scan, cover-b1, invariants, density.
JSON is the canonical machine format; text is a stable human rendering of
the same data, and the density certificate is also available as CSV.
Output is byte-identical across runs for identical inputs.  Expected errors,
including unwritable output paths, are emitted to stderr as a single JSON
object carrying the originating module, with a nonzero exit status.

The argparse parser is the only declaration of each subcommand's flags:
every subparser names its handler, which reads the parsed namespace.  A
command is parsed once, by its subcommand's parser; anything else (no
arguments, help, an unknown subcommand) goes through the top-level parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from io import StringIO
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from . import density as density_mod
from . import surface_invariants as surfaces
from .covers import AbelianEpimorphism, subgroup_b1
from .errors import SlopekitError
from .group_core import (
    GroupPresentation,
    LaurentPolynomial,
    abelianization,
    alexander_matrix,
    free_abelianization,
    free_reduce,
)
from .jumping_loci import (
    JumpingLocusReport,
    TorsionCharacter,
    evaluate_alexander_matrix,
    hironaka_b1,
    scan_jumping_loci,
)


class PresentationParseError(SlopekitError):
    """A presentation file failed to parse; the message carries the line."""


class InputFileError(SlopekitError):
    """An input file exists but cannot be read as text, or is not valid JSON."""


# ---------------------------------------------------------------------------
# Presentation ingestion


def _relator(
    tokens: Sequence[str], letter_to_index: Mapping[str, int], where: str
) -> tuple[int, ...]:
    """The freely reduced relator a token list spells, uppercase for an
    inverse.  Both presentation formats read every relator here, so they
    share each check and its message."""
    letters = []
    for tok in tokens:
        if not isinstance(tok, str) or len(tok) != 1 or not tok.isalpha():
            raise PresentationParseError(f"{where}: invalid token {tok!r}")
        idx = letter_to_index.get(tok.lower())
        if idx is None:
            raise PresentationParseError(f"{where}: unknown letter {tok!r}")
        letters.append(-idx if tok.isupper() else idx)
    relator = free_reduce(letters)
    if not relator:
        raise PresentationParseError(f"{where}: relator reduces to the empty word")
    return relator


def _generator_table(names: Sequence[str], where: str) -> dict[str, int]:
    table: dict[str, int] = {}
    for name in names:
        if not isinstance(name, str) or len(name) != 1 or not name.isalpha() or not name.islower():
            raise PresentationParseError(
                f"{where}: generator names must be single lowercase letters, got {name!r}"
            )
        if name in table:
            raise PresentationParseError(f"{where}: duplicate generator {name!r}")
        table[name] = len(table) + 1
    return table


def parse_presentation(source: str) -> GroupPresentation:
    """Parse the line-based presentation format.

    One ``generators: a b c`` line followed by ``relator: a b A B`` lines;
    uppercase letters denote inverses, letters map to indices in declaration
    order.  Blank lines and ``#`` comments are skipped.
    """
    table: dict[str, int] | None = None
    relators: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(source.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"line {lineno}"
        if line.startswith("generators:"):
            if table is not None:
                raise PresentationParseError(f"{where}: duplicate generators line")
            table = _generator_table(line[len("generators:"):].split(), where)
        elif line.startswith("relator:"):
            if table is None:
                raise PresentationParseError(f"{where}: relator before the generators line")
            relators.append(_relator(line[len("relator:"):].split(), table, where))
        else:
            raise PresentationParseError(
                f"{where}: expected 'generators:' or 'relator:', got {line!r}"
            )
    if table is None:
        raise PresentationParseError("missing generators line")
    return GroupPresentation(len(table), tuple(relators))


def presentation_from_json_dict(data: Mapping) -> GroupPresentation:
    """JSON mirror of the text format: generator name list + relator token lists."""
    try:
        names, raw_relators = data["generators"], data["relators"]
    except (KeyError, TypeError) as exc:
        raise PresentationParseError(f"presentation JSON needs generators and relators: {exc}")
    for key, value in (("generators", names), ("relators", raw_relators)):
        if not isinstance(value, (list, tuple)):
            raise PresentationParseError(f"{key}: not a list: {value!r}")
    table = _generator_table(names, "generators")
    relators = []
    for i, rel in enumerate(raw_relators):
        where = f"relator {i + 1}"
        if not isinstance(rel, (str, list)):
            raise PresentationParseError(f"{where}: not a string or a list of tokens: {rel!r}")
        relators.append(_relator(rel.split() if isinstance(rel, str) else rel, table, where))
    return GroupPresentation(len(table), tuple(relators))


def _read_input(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except (IsADirectoryError, PermissionError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc


def _parse_json(source: str, path: str):
    try:
        return json.loads(source)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InputFileError(f"{path} is not valid JSON: {exc}") from exc


def load_presentation(path: str) -> GroupPresentation:
    source = _read_input(path)
    if source.lstrip().startswith("{"):
        return presentation_from_json_dict(_parse_json(source, path))
    return parse_presentation(source)


# ---------------------------------------------------------------------------
# Small flag parsers


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise SlopekitError(f"bad --weights {text!r}: {exc}")


def _parse_char(text: str) -> TorsionCharacter:
    try:
        mod_part, _, exp_part = text.partition(":")
        modulus = int(mod_part)
        exponents = tuple(int(tok) for tok in exp_part.split(",")) if exp_part else ()
        return TorsionCharacter(modulus, exponents)
    except ValueError as exc:
        raise SlopekitError(f"bad --char {text!r} (want m:k1,k2,...): {exc}")


def _parse_target(text: str) -> density_mod.TargetSlope:
    try:
        p_part, _, q_part = text.partition("/")
        return density_mod.TargetSlope(int(p_part), int(q_part))
    except ValueError as exc:
        raise SlopekitError(f"bad --target {text!r} (want p/q): {exc}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SlopekitError(f"bad rational {text!r}: {exc}")


# ---------------------------------------------------------------------------
# Rendering


def _emit(args: argparse.Namespace, payload: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# A scan report can run to megabytes, and `json.dumps` with `indent` falls back
# to the pure-Python encoder; these templates print the same bytes as
# `_json_text(report.to_json_dict())` in one pass over the report's table.
# Every entry has rank b1, so one entry template per order, with one %d per
# exponent, prints a whole row.  An entry's character is nontrivial, so a
# report with entries has b1 >= 1.  The header and footer are joined onto the
# first and last entry lines, so the output is built once, by one join.
_SCAN_JSON_HEAD = '{\n  "b1": %d,\n  "entries": '
_SCAN_JSON_TAIL = ',\n  "exponent": %d,\n  "scan_bound": %s\n}\n'
_SCAN_TEXT = "scan bound: %s\nb1: %d\nexponent: %d\nnontrivial entries: %d\n"
# The `cover-b1` result in the bytes of `_json_text`, its contributions
# rendered as scan entries.
_COVER_JSON_HEAD = '{\n  "agree": %s,\n  "contributions": '
_COVER_JSON_TAIL = (
    ',\n  "deck_exponent": %d,\n  "hironaka_b1": %d,\n  "reidemeister_schreier_b1": %d,\n'
    '  "scan_bound": %d,\n  "warning": null\n}\n'
)


def _json_entry(b1: int, modulus: str = "%d") -> str:
    """The template of one rank-b1 entry, filled from (depth, *exponents)
    and then the modulus unless ``modulus`` gives its digits, ending in the
    separator that follows it in the entry list."""
    return (
        '    {\n      "depth": %d,\n      "exponents": [\n'
        + ",\n".join(["        %d"] * b1)
        + '\n      ],\n      "modulus": ' + modulus + '\n    },\n'
    )


def _json_with_entries(head: str, lines: list[str], tail: str) -> str:
    """head, the entry lines as a top-level key's JSON list, then tail;
    ``lines`` is consumed."""
    if not lines:
        return head + "[]" + tail
    lines[0] = head + "[\n" + lines[0]
    lines[-1] = lines[-1][:-2] + "\n  ]" + tail
    return "".join(lines)


# Both scan renderers put the order's digits into its row's template and fill
# it by tuple concatenation, which is cheaper than a starred tuple display.
def _scan_json(report: JumpingLocusReport) -> str:
    lines = []
    for order, row in report.depths.items():
        entry = _json_entry(report.b1, "%d" % order)
        lines += [entry % ((depth,) + exponents) for exponents, depth in row.items()]
    return _json_with_entries(
        _SCAN_JSON_HEAD % report.b1,
        lines,
        _SCAN_JSON_TAIL % (
            report.exponent, "null" if report.scan_bound is None else "%d" % report.scan_bound
        ),
    )


def _scan_text(report: JumpingLocusReport) -> str:
    lines = [""]
    fields = ", ".join(["%d"] * report.b1)
    for order, row in report.depths.items():
        entry = "  order %d exponents [%s]: depth %%d\n" % (order, fields)
        lines += [entry % (exponents + (depth,)) for exponents, depth in row.items()]
    lines[0] = _SCAN_TEXT % (report.scan_bound, report.b1, report.exponent, len(lines) - 1)
    return "".join(lines)


# Density entries are their certificate rows; each template picks the 12 ints
# into its field order, in the bytes of `_json_text`; a certificate is never empty.
# The renderers take the rows as they stream and return the whole output only
# after the last one, so a row refused mid-stream leaves nothing to emit.
_DENSITY_JSON = '{\n  "entries": [\n%s\n  ],\n  "epsilon": "%d/%d"\n}\n'
_DENSITY_JSON_ENTRY = (
    '    {\n      "d": %d,\n      "e": %d,\n      "gap": "%d/%d",\n      "k": %d,\n'
    '      "n": %d,\n      "p": %d,\n      "q": %d,\n      "slope": "%d/%d",\n'
    '      "target": "%d/%d"\n    }'
)
_DENSITY_JSON_FIELDS = itemgetter(6, 4, 10, 11, 7, 5, 0, 1, 8, 9, 2, 3)
_DENSITY_TEXT_ENTRY = "  target %d/%d (p/q=%d/%d) n=%d d=%d k=%d slope=%d/%d gap=%d/%d"
_DENSITY_TEXT_FIELDS = itemgetter(2, 3, 0, 1, 5, 6, 7, 8, 9, 10, 11)


def _density_lines(template: str, fields: itemgetter, entries: Iterable) -> Iterator[str]:
    return map(template.__mod__, map(fields, entries))


def _density_json(epsilon: Fraction, entries: Iterable[density_mod.ConvergenceReport]) -> str:
    body = ",\n".join(_density_lines(_DENSITY_JSON_ENTRY, _DENSITY_JSON_FIELDS, entries))
    return _DENSITY_JSON % (body, epsilon.numerator, epsilon.denominator)


def _density_text(epsilon: Fraction, entries: Iterable[density_mod.ConvergenceReport]) -> str:
    lines = [f"epsilon: {epsilon}", ""]
    lines += _density_lines(_DENSITY_TEXT_ENTRY, _DENSITY_TEXT_FIELDS, entries)
    lines[1] = f"entries: {len(lines) - 2}"
    return "\n".join(lines) + "\n"


def _laurent_json(poly: LaurentPolynomial) -> list[dict]:
    return [
        {"exponents": list(exps), "coefficient": coeff}
        for exps, coeff in poly.sorted_terms()
    ]


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_abelianize(args: argparse.Namespace) -> int:
    structure = abelianization(load_presentation(args.input))
    if args.fmt == "json":
        payload = _json_text(
            {"free_rank": structure.free_rank, "torsion": list(structure.torsion_coefficients)}
        )
    else:
        torsion = " ".join(map(str, structure.torsion_coefficients)) or "(none)"
        payload = f"free rank: {structure.free_rank}\ntorsion: {torsion}\n"
    _emit(args, payload)
    return 0


def _cmd_alexander(args: argparse.Namespace) -> int:
    character = args.char
    presentation = load_presentation(args.input)
    if character is not None:
        rows = evaluate_alexander_matrix(presentation, character)
        if args.fmt == "json":
            payload = _json_text(
                {
                    "rows": len(rows),
                    "cols": presentation.generator_count,
                    "character": character.to_json_dict(),
                    "entries": [[x.to_json() for x in row] for row in rows],
                }
            )
        else:
            body = "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in rows)
            payload = (
                f"character: order {character.order}, exponents {list(character.exponents)}\n"
                + (body + "\n" if rows else "(no relators)\n")
            )
    else:
        matrix = alexander_matrix(presentation)
        variables = free_abelianization(presentation).rank
        if args.fmt == "json":
            payload = _json_text(
                {
                    "rows": len(matrix),
                    "cols": presentation.generator_count,
                    "variables": variables,
                    "entries": [[_laurent_json(p) for p in row] for row in matrix],
                }
            )
        else:
            body = "\n".join("[" + ", ".join(str(p) for p in row) + "]" for row in matrix)
            payload = f"variables: {variables}\n" + (body + "\n" if matrix else "(no relators)\n")
    _emit(args, payload)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    presentation = load_presentation(args.input)
    report = scan_jumping_loci(presentation, args.max_order)
    _emit(args, _scan_json(report) if args.fmt == "json" else _scan_text(report))
    return 0


def _build_epimorphism(args: argparse.Namespace, rank: int) -> AbelianEpimorphism:
    if args.epimorphism is not None:
        data = _parse_json(_read_input(args.epimorphism), args.epimorphism)
        return AbelianEpimorphism.from_json_dict(data, source_rank=rank)
    weights = args.weights
    if weights is None:
        weights = tuple([0] * rank)
    if len(weights) != rank:
        raise SlopekitError(
            f"--weights needs {rank} entries (the free rank of H1), got {len(weights)}"
        )
    return AbelianEpimorphism.cyclic(args.cyclic, weights)


def _cmd_cover_b1(args: argparse.Namespace) -> int:
    presentation = load_presentation(args.input)
    fa = free_abelianization(presentation)
    alpha = _build_epimorphism(args, fa.rank)
    # Scanning to the deck group's exponent makes the jumping-locus route complete.
    report = scan_jumping_loci(presentation, alpha.exponent)
    hironaka = hironaka_b1(report, alpha)
    schreier = subgroup_b1(presentation, alpha)
    agree = hironaka.b1 == schreier
    if args.fmt == "json":
        entry = _json_entry(alpha.source_rank)
        payload = _json_with_entries(
            _COVER_JSON_HEAD % ("true" if agree else "false"),
            [
                entry % ((e.depth,) + e.character.exponents + (e.character.modulus,))
                for e in hironaka.contributions
            ],
            _COVER_JSON_TAIL % (alpha.exponent, hironaka.b1, schreier, alpha.exponent),
        )
    else:
        payload = (
            f"hironaka b1: {hironaka.b1}\n"
            f"reidemeister-schreier b1: {schreier}\n"
            f"routes agree: {'yes' if agree else 'NO'}\n"
        )
    _emit(args, payload)
    if not agree:
        _fail(
            "cover-b1",
            f"routes disagree ({hironaka.b1} vs {schreier}): the scan bound covers the "
            "deck group exponent, so this mismatch indicates a bug",
        )
        return 1
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    params = surfaces.FamilyParams(args.d, args.k)
    surface = surfaces.family_invariants(params)
    value = surfaces.slope(surface)
    ok = surfaces.check_geography(surface)
    if args.fmt == "json":
        data = surface.to_json_dict()
        data.update(
            {"d": params.d, "k": params.k, "slope": f"{value.numerator}/{value.denominator}",
             "geography_ok": ok}
        )
        payload = _json_text(data)
    else:
        payload = (
            f"K2={surface.K2} chi={surface.chi} q={surface.q} pg={surface.pg}\n"
            f"slope: {value.numerator}/{value.denominator}\n"
            f"geography (2chi <= K2 <= 9chi): {'yes' if ok else 'NO'}\n"
        )
    _emit(args, payload)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    genus = surfaces.cartwright_steger_profile()[1].fiber_genus
    if args.target is not None:
        entries = [density_mod.convergence_report(args.target, args.exponent, genus, args.epsilon)]
    else:
        entries = density_mod.certificate_rows(
            args.epsilon, args.exponent, genus, args.max_denominator
        )
        if args.plot:
            entries = tuple(entries)  # the plot reads the rows a second time

    if args.fmt == "csv":
        buffer = StringIO()
        density_mod.write_certificate_csv(entries, buffer)
        payload = buffer.getvalue()
    else:
        render = _density_json if args.fmt == "json" else _density_text
        payload = render(args.epsilon, entries)

    # The plot goes first, so a plot path that cannot be written leaves stdout
    # empty; output that cannot be written then removes the plot, so a failed
    # command leaves no file behind.
    if args.plot:
        with open(args.plot, "w", encoding="utf-8") as handle:
            density_mod.write_slope_svg(entries, handle)
    try:
        _emit(args, payload)
    except OSError:
        if args.plot:
            os.remove(args.plot)
        raise
    return 0


# ---------------------------------------------------------------------------
# Driver


def _fail(module: str, message: str, kind: str = "SlopekitError") -> None:
    sys.stderr.write(_json_text({"error": message, "module": module, "type": kind}))


def _provenance(exc: BaseException) -> str:
    """The module of the innermost traceback frame, where exc was raised."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    module = tb.tb_frame.f_globals.get("__name__", "cli").rsplit(".", 1)[-1]
    return "cli" if module == "__main__" else module


def run(args: argparse.Namespace) -> int:
    """Run the parsed subcommand; returns the process exit status."""
    try:
        return args.handler(args)
    except SlopekitError as exc:
        _fail(_provenance(exc), str(exc), type(exc).__name__)
        return 1
    except OSError as exc:
        _fail("cli", str(exc), type(exc).__name__)
        return 1


def _build_parsers() -> tuple[argparse.ArgumentParser, Mapping[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by name, the one declaration of every flag."""
    parser = argparse.ArgumentParser(
        prog="slopekit",
        description="Exact Betti numbers of abelian covers and slope-dense surface families.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...], default_fmt: str) -> None:
        p.add_argument("--format", choices=formats, default=default_fmt, dest="fmt")
        p.add_argument("--out", default=None)

    p_ab = sub.add_parser("abelianize", help="H1 of a presented group")
    p_ab.set_defaults(handler=_cmd_abelianize)
    p_ab.add_argument("--input", required=True)
    add_common(p_ab, ("text", "json"), "text")

    p_al = sub.add_parser("alexander", help="Alexander matrix, symbolic or at a character")
    p_al.set_defaults(handler=_cmd_alexander)
    p_al.add_argument("--input", required=True)
    p_al.add_argument("--char", default=None, help="torsion character m:k1,k2,...")
    add_common(p_al, ("text", "json"), "text")

    p_sc = sub.add_parser("scan", help="scan the jumping loci up to a character order")
    p_sc.set_defaults(handler=_cmd_scan)
    p_sc.add_argument("--input", required=True)
    p_sc.add_argument("--max-order", type=int, required=True)
    add_common(p_sc, ("text", "json"), "text")

    p_cb = sub.add_parser("cover-b1", help="b1 of an abelian cover, both routes")
    p_cb.set_defaults(handler=_cmd_cover_b1)
    p_cb.add_argument("--input", required=True)
    deck = p_cb.add_mutually_exclusive_group(required=True)
    deck.add_argument("--cyclic", type=int, default=None)
    deck.add_argument("--epimorphism", default=None, help="path to an epimorphism JSON file")
    p_cb.add_argument("--weights", default=None)
    add_common(p_cb, ("text", "json"), "text")

    p_in = sub.add_parser("invariants", help="invariants and slope of one family member")
    p_in.set_defaults(handler=_cmd_invariants)
    p_in.add_argument("--d", type=int, required=True)
    p_in.add_argument("--k", type=int, required=True)
    add_common(p_in, ("text", "json"), "text")

    p_de = sub.add_parser("density", help="density certificate or single-target convergence")
    p_de.set_defaults(handler=_cmd_density)
    p_de.add_argument("--epsilon", required=True)
    goal = p_de.add_mutually_exclusive_group(required=True)
    goal.add_argument("--max-denominator", type=int, default=None)
    goal.add_argument("--target", default=None, help="target fraction p/q")
    p_de.add_argument("--exponent", type=int, default=1,
                      help="exponent e constraining the cover orders (default 1)")
    p_de.add_argument("--plot", default=None, help="write an SVG scatter of (n, slope)")
    add_common(p_de, ("csv", "json", "text"), "csv")

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The ``slopekit`` argument parser, built afresh."""
    return _build_parsers()[0]


# Flag values converted after parsing, so that a bad one is a JSON error (exit 2)
# rather than an argparse usage message.
_CONVERTERS = {
    "weights": _parse_weights,
    "char": _parse_char,
    "epsilon": _parse_fraction,
    "target": _parse_target,
}


# Built on the first main call, not at import, and kept: building them costs
# about a millisecond, as much as a small command itself.
@lru_cache(maxsize=1)
def _parsers() -> tuple[argparse.ArgumentParser, Mapping[str, argparse.ArgumentParser]]:
    return _build_parsers()


def main(argv: Sequence[str] | None = None) -> int:
    """Parse argv once and run its subcommand; returns the exit status.

    A command naming a subcommand is parsed by that subcommand's parser
    alone, and arguments it does not know are refused by the top-level
    parser as ``parse_args`` would refuse them.  Anything else (no
    arguments, ``-h``, an unknown subcommand) goes through the top-level
    parser, so help, usage errors and exit codes are argparse's own.
    """
    parser, subparsers = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    subparser = subparsers.get(argv[0]) if argv else None
    if subparser is None:
        args = parser.parse_args(argv)
    else:
        args, extras = subparser.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
        if extras:
            parser.error("unrecognized arguments: %s" % " ".join(extras))
    if args.subcommand == "scan" and args.max_order < 1:
        parser.error("--max-order must be >= 1")
    if args.subcommand == "cover-b1" and args.epimorphism is not None and args.weights is not None:
        parser.error("argument --weights: not allowed with argument --epimorphism")
    try:
        for name, convert in _CONVERTERS.items():
            if getattr(args, name, None) is not None:
                setattr(args, name, convert(getattr(args, name)))
    except SlopekitError as exc:
        _fail(_provenance(exc), str(exc), type(exc).__name__)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
