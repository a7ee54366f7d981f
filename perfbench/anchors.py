"""Re-measure the single-call timings quoted in ROADMAP.md "Current state".

    python3 perfbench/anchors.py [--repeats 3]

Each anchor is one library call, timed with time.perf_counter in this
process; the minimum of --repeats runs is printed with every sample, as one
JSON object.  Counts are checked against closed forms so that a timing is
never quoted for a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
from slopekit import (  # noqa: E402
    AbelianEpimorphism,
    density_certificate,
    scan_jumping_loci,
    subgroup_b1,
    surface_group,
)
from slopekit.group_core import free_abelianization  # noqa: E402


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"anchors: wrong answer: {message}")


def timed(fn, repeats: int):
    samples, result = [], None
    for _ in range(repeats):
        free_abelianization.cache_clear()
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return min(samples), samples, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    g2 = surface_group(2)
    anchors = {}

    best, samples, report = timed(lambda: scan_jumping_loci(g2, 8), args.repeats)
    require(len(report.entries) == oracle.characters_up_to(4, 8) == 8399, "genus-2 scan")
    anchors["scan_genus2_n8"] = {"characters": 8399, "roadmap_s": 0.93,
                                 "min_s": best, "samples_s": samples}

    for order, quoted in ((128, 0.31), (256, 2.1)):
        alpha = AbelianEpimorphism.cyclic(order, (1, 0, 0, 0))
        best, samples, b1 = timed(lambda: subgroup_b1(g2, alpha), args.repeats)
        require(b1 == oracle.surface_cover_b1(2, order), f"RS b1 at d={order}")
        anchors[f"rs_subgroup_b1_genus2_d{order}"] = {"b1": b1, "roadmap_s": quoted,
                                                      "min_s": best, "samples_s": samples}

    best, samples, cert = timed(
        lambda: density_certificate(Fraction(1, 200), 1, oracle.FIBER_GENUS, 400), args.repeats)
    require(len(cert.entries) == oracle.farey_interior_count(400) == 48677, "Q=400 targets")
    anchors["density_certificate_q400"] = {"targets": 48677, "roadmap_s": 3.0,
                                           "min_s": best, "samples_s": samples}

    for anchor in anchors.values():
        anchor["ratio_to_roadmap"] = anchor["min_s"] / anchor["roadmap_s"]
    json.dump({"python": sys.version, "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
               "repeats": args.repeats, "anchors": anchors}, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
