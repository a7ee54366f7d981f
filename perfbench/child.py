"""One measured run in a fresh interpreter: generate, execute, check.

Started by run.py as `python -E -s perfbench/child.py ...` from the root of
a checkout.  Commands go through `slopekit.cli.main(argv)` in this process,
one after another (a closed loop with a single client), with stdout and
stderr captured.  Each command's output is checked against closed forms and
its SHA-256 recorded.  Prints one JSON object on the real stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import ROUNDS, make_command  # noqa: E402


def execute(main, argv, tracer):
    """Run one command; returns (exit code or error text, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.call("cli.main", main, argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed command, not a failed run
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def trace_figures(tracer, cmd) -> tuple[dict, str | None]:
    """Per-command layer figures, and a problem if a count misses its closed form."""
    evaluated = len(tracer.characters)
    orbits = len({oracle.galois_orbit_key(m, e) for m, e in tracer.characters})
    figures = {"spans": tracer.spans, "counts": dict(tracer.counts),
               "characters": evaluated, "orbits": orbits}
    expected = cmd.characters or 0
    problem = None
    if evaluated != expected:
        problem = f"twisted_h1 ran {evaluated} times, closed form says {expected}"
    return figures, problem


def run(args) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import slopekit.cli as cli
    from slopekit import group_core

    tracer, sites = None, []
    if args.traced:
        tracer = tracing.Tracer()
        sites = tracing.install(tracer)
    cache_before = group_core.free_abelianization.cache_info()

    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    round_length = len(ROUNDS[args.workload])
    records = []
    start = time.perf_counter()
    try:
        index = 0
        while True:
            cmd = make_command(args.workload, args.seed, index, workdir)
            for name, content in cmd.files.items():
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                    handle.write(content)
            gc.collect()
            if tracer is not None:
                tracer.reset()
            code, out, err, seconds = execute(cli.main, cmd.argv, tracer)
            stdout = out.encode()
            record = {"slot": cmd.slot, "argv": cmd.argv, "seconds": seconds,
                      "work": cmd.work, "useful": cmd.useful, "kind": cmd.kind,
                      "stdout_bytes": len(stdout), "sha256": hashlib.sha256(stdout).hexdigest()}
            check_start = time.perf_counter()
            if code != 0:
                problem = f"exit {code}: {err.strip()[:300]}"
            else:
                problem = checks.check_output(cmd, out)
            record["check_seconds"] = time.perf_counter() - check_start
            if tracer is not None:
                record["trace"], count_problem = trace_figures(tracer, cmd)
                problem = problem or count_problem
            record["problem"] = problem
            records.append(record)
            index += 1
            # Stop only after whole rounds, so every slot keeps its share of the run.
            if index % round_length == 0:
                if args.rounds is not None and index >= args.rounds * round_length:
                    break
                if args.seconds is not None and time.perf_counter() - start >= args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cache_after = group_core.free_abelianization.cache_info()
    return {
        "records": records,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "free_abelianization": {"hits": cache_after.hits - cache_before.hits,
                                "misses": cache_after.misses - cache_before.misses},
        "rebound_sites": sites,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    if (args.seconds is None) == (args.rounds is None):
        parser.error("give exactly one of --seconds and --rounds")
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
