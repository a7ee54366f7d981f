"""Tests of the benchmark itself (not collected by the repository's tier-1 run).

    python3 -m pytest -q perfbench

They check that the generator only produces inputs the CLI accepts and
answers correctly, that the oracles reproduce known counts, that the tracer
counts what the closed forms say, and that BENCHMARK.json names exactly the
metrics run.py prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_oracle_counts_match_known_values():
    assert oracle.characters_up_to(4, 2) == 15
    assert oracle.characters_up_to(4, 8) == 8399
    assert oracle.characters_up_to(4, 12) == 58079
    assert oracle.farey_interior_count(400) == 48677
    orbits = {oracle.galois_orbit_key(m, e) for m, e in oracle.canonical_characters(4, 8)}
    assert len(orbits) == 2291


def test_oracle_h1_on_surface_and_torus_groups():
    g2 = [[1, 2, -1, -2, 3, 4, -3, -4]]
    for m, exps in oracle.canonical_characters(4, 4):
        assert oracle.twisted_h1(g2, 4, m, exps) == 2
    assert oracle.cyclic_cover_b1(g2, 4, 5, (1, 0, 0, 0)) == oracle.surface_cover_b1(2, 5)
    # the torus group: h^1 vanishes at every nontrivial character
    torus = [[1, 2, -1, -2]]
    assert all(oracle.twisted_h1(torus, 2, m, e) == 0 for m, e in oracle.canonical_characters(2, 6))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_inputs_are_valid_by_construction(workload):
    from slopekit.covers import AbelianEpimorphism

    for seed in range(40):
        for index in range(len(workloads.ROUNDS[workload])):
            cmd = workloads.make_command(workload, seed, index, "w")
            for name, content in cmd.files.items():
                if name == "epi.json":
                    data = json.loads(content)
                    AbelianEpimorphism.from_json_dict(data)  # raises unless surjective
            for rel in cmd.expect.get("relators", []):
                assert rel and workloads.free_reduce(rel) == rel
            if "max_denominator" in cmd.expect:
                assert cmd.expect["max_denominator"] == 2 * cmd.expect["epsilon"][1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_command_is_accepted_and_checks(workload, tmp_path):
    import slopekit.cli as cli

    for seed in (0, 1):
        for index in range(len(workloads.ROUNDS[workload])):
            cmd = workloads.make_command(workload, seed, index, str(tmp_path))
            for name, content in cmd.files.items():
                (tmp_path / name).write_text(content, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(cmd.argv)
            assert code == 0, (cmd.argv, err.getvalue())
            assert checks.check_output(cmd, out.getvalue()) is None, cmd.argv


def test_checks_reject_a_wrong_answer():
    cmd = workloads.scan_surface(random.Random(0), "w", 2, 2, "text")
    wrong = "scan bound: 2\nb1: 4\nexponent: 2\nnontrivial entries: 1\n  order 2 exponents [1, 0, 0, 0]: depth 2\n"
    assert checks.check_output(cmd, wrong) is not None


TRACE_SCRIPT = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2])
import slopekit.cli as cli
import oracle, tracer as tracing
t = tracing.Tracer()
sites = tracing.install(t)
out = {}
for label, argv in [
    ("scan2", ["scan", "--input", sys.argv[3], "--max-order", "2"]),
    ("scan8", ["scan", "--input", sys.argv[3], "--max-order", "8", "--format", "json"]),
    ("cover8", ["cover-b1", "--input", sys.argv[3], "--cyclic", "8", "--weights", "1,0,0,0"]),
]:
    t.reset()
    with contextlib.redirect_stdout(io.StringIO()):
        t.call("cli.main", cli.main, argv)
    out[label] = {"calls": t.spans["jumping_loci.twisted_h1"][0],
                  "orbits": len({oracle.galois_orbit_key(m, e) for m, e in t.characters}),
                  "rs": t.spans.get("covers.reidemeister_schreier", [0])[0]}
out["sites"] = sites
print(json.dumps(out))
"""


def test_traced_counts_match_closed_forms(tmp_path):
    group = tmp_path / "g2.txt"
    group.write_text("generators: a b c d\nrelator: a b A B c d C D\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_SCRIPT, os.path.join(ROOT, "src"), HERE, str(group)],
        capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out["scan2"]["calls"] == 15
    assert out["scan8"]["calls"] == 8399 and out["scan8"]["orbits"] == 2291
    # cover-b1 on genus 2 with Z/8: |S| - 1 = 7 useful of 8,399 evaluated
    assert out["cover8"]["calls"] == 8399 and out["cover8"]["rs"] == 1
    assert set(tracing.REQUIRED_SITES) <= {tuple(s) for s in out["sites"]}


def test_benchmark_json_names_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
