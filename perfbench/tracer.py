"""Spans and counters recorded from outside slopekit, by rebinding functions.

`install` replaces each traced public function with a timing wrapper at
every place it is bound: its defining module and every slopekit module that
imported it by name (`from .group_core import smith_normal_form` makes a
second binding that a wrapper on `group_core` alone would miss).  A span's
self time is its duration minus the time of the spans nested in it.
Counters are taken by per-function hooks that read arguments and results;
hook time is left out of every span's self time.

Spans are aggregated in memory per (name): calls, total and self seconds.
The caller resets the tracer between commands to get per-command figures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Functions to trace, by defining module; all of them are part of the
# modules' public surface.
TRACED = {
    "jumping_loci": ("evaluate_alexander_matrix", "cyclotomic_rank", "twisted_h1",
                     "scan_jumping_loci", "hironaka_b1"),
    "group_core": ("smith_normal_form", "abelianization"),
    "covers": ("reidemeister_schreier", "subgroup_b1"),
    "density": ("convergence_report", "density_certificate", "covering_radius",
                "write_certificate_csv"),
    "surface_invariants": ("family_invariants",),
}

# Import sites that must be rebound for the spans to see every call.
REQUIRED_SITES = (
    ("cli", "scan_jumping_loci"),
    ("cli", "hironaka_b1"),
    ("cli", "subgroup_b1"),
    ("covers", "smith_normal_form"),
    ("covers", "abelianization"),
)


def _hook_twisted_h1(tracer, args, result):
    character = args[1]
    tracer.characters.append((character.modulus, character.exponents))


def _hook_cyclotomic_rank(tracer, args, result):
    rows = args[0]
    if rows and rows[0]:
        tracer.counts["jumping_loci.rank_cells"] += (
            len(rows) * len(rows[0]) * len(rows[0][0].coeffs))


def _hook_scan(tracer, args, result):
    tracer.counts["jumping_loci.entries"] += len(result.entries)


def _hook_snf(tracer, args, result):
    matrix = args[0]
    tracer.counts["group_core.snf_cells"] += matrix.rows * matrix.cols
    tracer.counts["group_core.snf_nonzero"] += sum(
        1 for row in matrix.entries for x in row if x)


def _hook_rs(tracer, args, result):
    tracer.counts["covers.rs_relator_letters"] += sum(
        len(w) for w in result.presentation.relators)


def _hook_convergence(tracer, args, result):
    tracer.counts["density.walk_steps"] += result.n


def _hook_certificate(tracer, args, result):
    tracer.counts["density.targets"] += len(result.entries)


HOOKS = {
    "jumping_loci.twisted_h1": _hook_twisted_h1,
    "jumping_loci.cyclotomic_rank": _hook_cyclotomic_rank,
    "jumping_loci.scan_jumping_loci": _hook_scan,
    "group_core.smith_normal_form": _hook_snf,
    "covers.reidemeister_schreier": _hook_rs,
    "density.convergence_report": _hook_convergence,
    "density.density_certificate": _hook_certificate,
}


class Tracer:
    def __init__(self) -> None:
        self._stack: list[float] = []  # child seconds accumulated per open span
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.characters: list[tuple[int, tuple[int, ...]]] = []

    def _record(self, name: str, duration: float, child: float) -> None:
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`, then its counter hook."""
        stack = self._stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._record(name, duration, stack.pop())
            if stack:
                stack[-1] += duration
        hook = HOOKS.get(name)
        if hook is not None:
            hook_start = time.perf_counter()
            hook(self, args, result)
            if stack:
                stack[-1] += time.perf_counter() - hook_start
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> list[tuple[str, str]]:
    """Rebind every traced function at every slopekit import site.

    Returns the (module, attribute) sites rebound; raises if a required
    site was not among them.
    """
    modules = {name.rsplit(".", 1)[-1]: mod for name, mod in list(sys.modules.items())
               if name == "slopekit" or name.startswith("slopekit.")}
    sites = []
    for module_name, functions in TRACED.items():
        for fn_name in functions:
            original = getattr(modules[module_name], fn_name)
            wrapper = tracer.wrap(f"{module_name}.{fn_name}", original)
            for site_name, module in modules.items():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        sites.append((site_name, attr))
    missing = [site for site in REQUIRED_SITES if site not in sites]
    if missing:
        raise RuntimeError(f"import sites not rebound: {missing}")
    return sites
