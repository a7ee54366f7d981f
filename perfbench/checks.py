"""Check one command's stdout against the closed forms of its generated input.

`check_output` returns None when the output is right and a one-line reason
when it is not.  Parsers read the program's documented JSON, text and CSV
renderings; expected values come only from `oracle` and the generator.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from math import lcm

import oracle
from workloads import Command


def _ratio(text: str) -> tuple[int, int]:
    value = Fraction(text)
    return value.numerator, value.denominator


# ---------------------------------------------------------------------------
# scan


_SCAN_ENTRY = re.compile(r"  order (\d+) exponents \[([\d, ]*)\]: depth (\d+)")


def _scan_entries(expect: dict, out: str) -> tuple[dict, dict]:
    """(header fields, {(m, exps): depth}) from either rendering."""
    if expect["fmt"] == "json":
        data = json.loads(out)
        header = {k: data[k] for k in ("scan_bound", "b1", "exponent")}
        entries = {(e["modulus"], tuple(e["exponents"])): e["depth"] for e in data["entries"]}
        header["count"] = len(data["entries"])
        return header, entries
    lines = out.splitlines()
    header = {}
    for line, key in zip(lines[:4], ("scan_bound", "b1", "exponent", "count")):
        header[key] = int(line.rsplit(":", 1)[1])
    entries = {}
    for line in lines[4:]:
        m = _SCAN_ENTRY.fullmatch(line)
        if m is None:
            raise ValueError(f"unparsed scan line {line!r}")
        exps = tuple(int(x) for x in m.group(2).split(",")) if m.group(2) else ()
        entries[(int(m.group(1)), exps)] = int(m.group(3))
    return header, entries


def check_scan(cmd: Command, out: str) -> str | None:
    expect = cmd.expect
    header, entries = _scan_entries(expect, out)
    if header["count"] != len(entries):
        return f"{header['count']} entries announced, {len(entries)} distinct listed"
    if header["scan_bound"] != expect["bound"] or header["b1"] != expect["b1"]:
        return f"scan bound/b1 {header['scan_bound']}/{header['b1']} != {expect['bound']}/{expect['b1']}"
    if "relators" in expect:
        want = oracle.scan_entries(expect["relators"], expect["b1"], expect["bound"])
        if entries != want:
            differ = set(want.items()) ^ set(entries.items())
            return f"scan entries differ from the Fox-calculus oracle at {sorted(differ)[:3]}"
        exponent = lcm(1, *(m for m, _ in want))
        if header["exponent"] != exponent:
            return f"exponent {header['exponent']} != {exponent}"
        return None
    if len(entries) != expect["entries"]:
        return f"{len(entries)} entries, closed form says {expect['entries']}"
    bad = next((d for d in entries.values() if d != expect["depth"]), None)
    if bad is not None:
        return f"depth {bad} != 2g-2 = {expect['depth']}"
    if header["exponent"] != expect["exponent"]:
        return f"exponent {header['exponent']} != lcm(2..N) = {expect['exponent']}"
    return None


# ---------------------------------------------------------------------------
# cover-b1


def check_cover(cmd: Command, out: str) -> str | None:
    expect = cmd.expect
    if expect["fmt"] == "json":
        data = json.loads(out)
        hironaka, schreier, agree = (data["hironaka_b1"], data["reidemeister_schreier_b1"],
                                     data["agree"])
        if data["warning"] is not None:
            return f"unexpected warning {data['warning']!r}"
    else:
        lines = out.splitlines()
        if len(lines) != 3:
            return f"expected 3 text lines, got {len(lines)}"
        hironaka = int(lines[0].removeprefix("hironaka b1: "))
        schreier = int(lines[1].removeprefix("reidemeister-schreier b1: "))
        agree = lines[2] == "routes agree: yes"
    want = expect["b1"]
    if not agree or hironaka != want or schreier != want:
        return f"b1 routes {hironaka}/{schreier} (agree={agree}), closed form {want}"
    return None


# ---------------------------------------------------------------------------
# density and invariants


def _density_rows(expect: dict, out: str) -> tuple[tuple[int, int], list[tuple]]:
    """(epsilon, rows of (p, q, e, n, d, k, slope, gap)) from any rendering."""
    fmt = expect["fmt"]
    rows = []
    if fmt == "csv":
        reader = csv.reader(io.StringIO(out))
        header = next(reader)
        if header[:6] != ["p", "q", "target_num", "target_den", "e", "n"]:
            raise ValueError(f"unexpected CSV header {header}")
        for r in reader:
            v = [int(x) for x in r]
            if Fraction(v[2], v[3]) != 9 - Fraction(v[0], v[1]):
                raise ValueError(f"target column {v[2]}/{v[3]} != 9 - {v[0]}/{v[1]}")
            rows.append((v[0], v[1], v[4], v[5], v[6], v[7], (v[8], v[9]), (v[10], v[11])))
        return expect["epsilon"], rows  # the CSV carries no epsilon
    if fmt == "json":
        data = json.loads(out)
        for e in data["entries"]:
            if _ratio(e["target"]) != _ratio(str(9 - Fraction(e["p"], e["q"]))):
                raise ValueError(f"target {e['target']} != 9 - {e['p']}/{e['q']}")
            rows.append((e["p"], e["q"], e["e"], e["n"], e["d"], e["k"],
                         _ratio(e["slope"]), _ratio(e["gap"])))
        return _ratio(data["epsilon"]), rows
    lines = out.splitlines()
    epsilon = _ratio(lines[0].removeprefix("epsilon: "))
    count = int(lines[1].removeprefix("entries: "))
    pattern = re.compile(r"  target (\S+) \(p/q=(\d+)/(\d+)\) n=(\d+) d=(\d+) k=(\d+) "
                         r"slope=(\S+) gap=(\S+)")
    for line in lines[2:]:
        m = pattern.fullmatch(line)
        if m is None:
            raise ValueError(f"unparsed density line {line!r}")
        p, q = int(m.group(2)), int(m.group(3))
        if Fraction(m.group(1)) != 9 - Fraction(p, q):
            raise ValueError(f"target {m.group(1)} != 9 - {p}/{q}")
        rows.append((p, q, expect["exponent"], int(m.group(4)), int(m.group(5)),
                     int(m.group(6)), _ratio(m.group(7)), _ratio(m.group(8))))
    if count != len(rows):
        raise ValueError(f"{count} entries announced, {len(rows)} listed")
    return epsilon, rows


def check_density(cmd: Command, out: str) -> str | None:
    expect = cmd.expect
    epsilon, rows = _density_rows(expect, out)
    if epsilon != expect["epsilon"]:
        return f"epsilon {epsilon} != requested {expect['epsilon']}"
    if len(rows) != expect["targets"]:
        return f"{len(rows)} entries, closed form says {expect['targets']}"
    if "target" in expect:
        if rows[0][:2] != expect["target"] or rows[0][3] != expect["n"]:
            return f"walk ended at {rows[0][:2]} n={rows[0][3]}, expected n={expect['n']}"
    else:
        seen = {(r[0], r[1]) for r in rows}
        if len(seen) != len(rows) or any(r[1] > expect["max_denominator"] for r in rows):
            return "certificate targets are not the Farey fractions of order Q"
        values = [Fraction(r[1] - r[0], r[1]) for r in rows]  # 9 - p/q, shifted by 8
        if any(a >= b for a, b in zip(values, values[1:])):
            return "certificate entries are not sorted by target value"
    for p, q, e, n, d, k, slope, gap in rows:
        if e != expect["exponent"]:
            return f"exponent {e} != requested {expect['exponent']}"
        problem = oracle.check_density_entry(p, q, e, n, d, k, slope, gap, expect["bound"])
        if problem:
            return problem
    return None


def check_invariants(cmd: Command, out: str) -> str | None:
    expect = cmd.expect
    want = oracle.family_invariants(expect["d"], expect["k"])
    slope = f"{want['slope'].numerator}/{want['slope'].denominator}"
    if expect["fmt"] == "json":
        got = json.loads(out)
        wanted = {"K2": want["K2"], "chi": want["chi"], "q": want["q"], "pg": want["pg"],
                  "d": expect["d"], "k": expect["k"], "slope": slope,
                  "geography_ok": want["geography_ok"]}
        return None if got == wanted else f"invariants {got} != {wanted}"
    wanted_text = (
        f"K2={want['K2']} chi={want['chi']} q={want['q']} pg={want['pg']}\n"
        f"slope: {slope}\n"
        f"geography (2chi <= K2 <= 9chi): {'yes' if want['geography_ok'] else 'NO'}\n"
    )
    return None if out == wanted_text else f"invariants text {out!r} != {wanted_text!r}"


CHECKS = {"scan": check_scan, "cover": check_cover, "density": check_density,
          "invariants": check_invariants}


def check_output(cmd: Command, out: str) -> str | None:
    try:
        return CHECKS[cmd.kind](cmd, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable {cmd.kind} output: {type(exc).__name__}: {exc}"
