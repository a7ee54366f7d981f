"""slopekit benchmark: one run of one workload, printed as a JSON line.

    python3 perfbench/run.py --workload scan|cover|density --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Nothing is built: the child interpreters
import slopekit from ./src.  Every child is a fresh, single-threaded
`python -E -s` with SLOPEKIT_THREADS removed from its environment, started
one at a time and waited for.

--trace 0 measures the end-to-end metrics:
  * setup_s: median over SETUP_PROBES fresh interpreters of the time from
    spawning one until `import slopekit.cli` returns;
  * one child runs whole rounds of the workload's commands until --seconds
    have passed, then reports work_per_s, op_p50_s, op_tail_s, peak_rss_mib
    and ok_ratio.  op_p50_s and op_tail_s are percentiles of the commands'
    latencies after each is replaced by its slot's mean over the run: the
    host alternates between a fast and a slow phase, and a plain percentile
    flips between the two as their shares in a run change, while a slot's
    mean moves only in proportion.
--trace 1 measures the per-layer metrics over a fixed amount of work, so
--seconds does not apply: a child runs TRACE_ROUNDS rounds untraced, a
second child replays the same commands with every traced
function rebound to a timing wrapper (perfbench/tracer.py).  Their stdout
digests must agree, and the traced counts must match closed forms.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Per-command records (argv, seconds, SHA-256 of stdout, problem) and the
environment go to .perfbench_out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from math import ceil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import ROUNDS, TAIL_PERCENTILE, TRACE_ROUNDS, WORKLOADS  # noqa: E402

SETUP_PROBES = 9
TIME_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "units/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "fraction",
}

# Name -> unit for the traced run.  "<span>.self_s" is span time minus the
# time of spans nested in it; "<span>.calls" counts entries into the span.
PER_LAYER = {
    "jumping_loci.evaluate_alexander_matrix.self_s": "s",
    "jumping_loci.cyclotomic_rank.self_s": "s",
    "jumping_loci.rank_cells": "count",
    "jumping_loci.twisted_h1.calls": "count",
    "jumping_loci.twisted_h1.self_s": "s",
    "jumping_loci.orbit_ratio": "ratio",
    "jumping_loci.useful_ratio": "ratio",
    "jumping_loci.scan_jumping_loci.self_s": "s",
    "jumping_loci.hironaka_b1.self_s": "s",
    "jumping_loci.entries": "count",
    "group_core.smith_normal_form.calls": "count",
    "group_core.smith_normal_form.self_s": "s",
    "group_core.snf_cells": "count",
    "group_core.snf_nonzero_ratio": "ratio",
    "group_core.abelianization.self_s": "s",
    "group_core.free_abelianization.hit_ratio": "ratio",
    "covers.reidemeister_schreier.calls": "count",
    "covers.reidemeister_schreier.self_s": "s",
    "covers.rs_relator_letters": "count",
    "covers.subgroup_b1.self_s": "s",
    "density.convergence_report.calls": "count",
    "density.convergence_report.self_s": "s",
    "density.walk_steps": "count",
    "density.walk_yield": "ratio",
    "density.density_certificate.self_s": "s",
    "density.covering_radius.self_s": "s",
    "density.write_certificate_csv.self_s": "s",
    "density.targets": "count",
    "surface_invariants.family_invariants.calls": "count",
    "surface_invariants.family_invariants.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

PROBE = ("import sys, time; sys.path.insert(0, 'src'); import slopekit.cli; "
         "sys.stdout.write(repr(time.monotonic()))")


class BenchError(Exception):
    """The benchmark could not run (not: the program gave a wrong answer)."""


def child_env() -> dict:
    # SLOPEKIT_THREADS switches scans to a thread pool; -E already ignores
    # PYTHON* variables such as PYTHONPATH and PYTHONHASHSEED.
    return {k: v for k, v in os.environ.items() if k != "SLOPEKIT_THREADS"}


def interpreter() -> list[str]:
    return [sys.executable, "-E", "-s"]


def measure_setup(deadline: float) -> list[float]:
    """Seconds from spawn to `import slopekit.cli` done, for each probe.

    The first probe is discarded: it may compile the byte-code cache.
    """
    samples = []
    for _ in range(SETUP_PROBES + 1):
        start = time.monotonic()
        proc = subprocess.run(interpreter() + ["-c", PROBE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout) - start)
    return samples[1:]


def run_child(workload: str, seed: int, deadline: float, *, seconds: float | None = None,
              rounds: int | None = None, traced: bool = False) -> dict:
    argv = interpreter() + [os.path.join(HERE, "child.py"), "--workload", workload,
                            "--seed", str(seed)]
    argv += ["--seconds", str(seconds)] if seconds is not None else ["--rounds", str(rounds)]
    if traced:
        argv.append("--traced")
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly beyond its rank."""
    ordered = sorted(values)
    rank = max(1, ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def slot_means(latencies: list[float], round_length: int) -> list[float]:
    """Mean latency of each slot of the round over the run's whole rounds."""
    return [statistics.fmean(latencies[slot::round_length]) for slot in range(round_length)]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    setup = measure_setup(deadline)
    result = run_child(workload, seed, deadline, seconds=seconds)
    records = result["records"]
    latencies = [r["seconds"] for r in records]
    work = sum(r["work"] for r in records if r["problem"] is None)
    failed = sum(1 for r in records if r["problem"] is not None)
    # Each command's latency is replaced by its slot's mean over the run.
    means = slot_means(latencies, len(ROUNDS[workload]))
    smoothed = [means[i % len(means)] for i in range(len(latencies))]
    p50, _ = percentile(smoothed, 50)
    tail, beyond = percentile(smoothed, TAIL_PERCENTILE[workload])
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": work / sum(latencies),
        "op_p50_s": p50,
        "op_tail_s": tail,
        "peak_rss_mib": result["peak_rss_mib"],
        "ok_ratio": (len(records) - failed) / len(records),
    }
    detail = {"setup_samples_s": setup, "records": records,
              "tail": {"percentile": TAIL_PERCENTILE[workload], "samples": len(latencies),
                       "beyond": beyond}}
    return metrics, detail


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    rounds = TRACE_ROUNDS[workload]
    plain = run_child(workload, seed, deadline, rounds=rounds)
    traced = run_child(workload, seed, deadline, rounds=rounds, traced=True)
    records = traced["records"]
    if len(plain["records"]) != len(records):
        raise BenchError("the traced replay ran a different number of commands")
    for a, b in zip(plain["records"], records):
        if a["sha256"] != b["sha256"] and b["problem"] is None:
            b["problem"] = f"traced stdout digest {b['sha256']} != untraced {a['sha256']}"

    spans: dict[str, list] = {}
    counts: Counter = Counter()
    evaluated = orbits = cover_evaluated = cover_useful = 0
    for r in records:
        trace = r["trace"]
        for name, (calls, total, own) in trace["spans"].items():
            stat = spans.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += own
        counts.update(trace["counts"])
        evaluated += trace["characters"]
        orbits += trace["orbits"]
        if r["kind"] == "cover":
            cover_evaluated += trace["characters"]
            cover_useful += r["useful"]

    def calls(name: str) -> int:
        return spans.get(name, [0])[0]

    def own(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cache = traced["free_abelianization"]
    metrics = {name: own(name[: -len(".self_s")]) for name in PER_LAYER if name.endswith(".self_s")}
    metrics.update({name: calls(name[: -len(".calls")]) for name in PER_LAYER
                    if name.endswith(".calls")})
    metrics.update({
        "jumping_loci.rank_cells": counts["jumping_loci.rank_cells"],
        "jumping_loci.orbit_ratio": ratio(orbits, evaluated),
        "jumping_loci.useful_ratio": ratio(cover_useful, cover_evaluated),
        "jumping_loci.entries": counts["jumping_loci.entries"],
        "group_core.snf_cells": counts["group_core.snf_cells"],
        "group_core.snf_nonzero_ratio": ratio(counts["group_core.snf_nonzero"],
                                              counts["group_core.snf_cells"]),
        "group_core.free_abelianization.hit_ratio": ratio(cache["hits"],
                                                          cache["hits"] + cache["misses"]),
        "covers.rs_relator_letters": counts["covers.rs_relator_letters"],
        "density.walk_steps": counts["density.walk_steps"],
        "density.walk_yield": ratio(calls("density.convergence_report"),
                                    counts["density.walk_steps"]),
        "density.targets": counts["density.targets"],
        "cli.output_bytes": sum(r["stdout_bytes"] for r in records),
        "trace.overhead_s": (sum(r["seconds"] for r in records)
                             - sum(r["seconds"] for r in plain["records"])),
    })
    detail = {"records": records, "untraced_records": plain["records"],
              "rebound_sites": traced["rebound_sites"], "spans": spans}
    return metrics, detail


def environment() -> dict:
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one slopekit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "slopekit", "cli.py")):
        sys.stderr.write("perfbench: no slopekit sources under ./src; run from a checkout\n")
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env_before = environment()
    try:
        if args.trace:
            metrics, detail = per_layer(args.workload, args.seed, deadline)
            units = PER_LAYER
        else:
            metrics, detail = end_to_end(args.workload, args.seed, args.seconds, deadline)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    records = detail["records"]
    failed = sum(1 for r in records if r["problem"] is not None)
    summary = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "environment": env_before,
                   "loadavg_after": os.getloadavg(), "summary": summary,
                   "problems": [(r["argv"], r["problem"]) for r in records if r["problem"]],
                   **detail}, handle, indent=1)
    for r in records:
        if r["problem"]:
            sys.stderr.write(f"perfbench: {' '.join(r['argv'])}: {r['problem']}\n")
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
