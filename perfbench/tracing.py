"""Per-layer self time and call counts, recorded from outside the package.

``install`` replaces chosen public functions of ``ekrcross`` modules with
wrappers that open a span; every module that bound the function by name
(``from .setfam import shifts_to``) is patched too, so a call is traced
whichever binding it goes through.  A span's self time is its duration
minus that of its child spans.  Spans are folded into per-key totals as
they close, so memory does not grow with the number of calls.

The private engine functions (``_closure_max``, ``_shifted_max``,
``_dominance_preds``, ``_partner``) are deliberately left unwrapped: a
wrapper around ``_partner`` would cost more than the function, and their
time lands in the public search function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

# span key -> (module, public functions).  Keys name the layer metric.
SPANS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("cli.self", "ekrcross.cli", ("main",)),
    ("report.serialize", "ekrcross.report", ("reports_to_json", "reports_to_csv", "encode_value")),
    ("search.engine", "ekrcross.search", ("max_uniform_product", "max_weight_product")),
    ("search.rows", "ekrcross.search", ("compatibility_rows",)),
    ("search.gen", "ekrcross.search", ("generate_shifted_pairs",)),
    ("seq.search", "ekrcross.seq", ("verify_seq_theorem",)),
    ("setfam.fixpoint", "ekrcross.setfam", ("shift_pair_to_fixpoint",)),
    ("setfam.partner", "ekrcross.setfam", ("maximal_cross_partner",)),
    ("setfam.shifts_to", "ekrcross.setfam", ("shifts_to",)),
    ("intervals.exp", "ekrcross.intervals", ("exp_enclosure", "e_enclosure")),
    ("bounds.suite", "ekrcross.bounds", (
        "run_bounds_suite", "verify_stability", "verify_threshold_floor",
        "finite_sweep_ks", "merge_finite_chunks",
    )),
    ("bounds.finite_sweep", "ekrcross.bounds", ("finite_sweep_chunk",)),
    ("walks.enumerate", "ekrcross.walks", ("enumerate_walks",)),
    ("measure.hit_exact", "ekrcross.measure", ("hit_probability_exact",)),
    ("suites.self", "ekrcross.suites", ("run_walk_oracle", "run_measure_oracle", "run_graphs")),
)
DECIDE_KEY = "intervals.decide"
# ``decide`` calls back into ``build``, which is bounds code.
BUILD_KEY = "bounds.suite"


class Tracer:
    """Accumulates self time and calls per span key."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._children: list[float] = []

    def span(self, key: str, fn: Callable, *args, **kwargs):
        self._children.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            self.self_s[key] += duration - self._children.pop()
            self.calls[key] += 1
            if self._children:
                self._children[-1] += duration

    def wrap(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(key, fn, *args, **kwargs)

        return traced

    def wrap_decide(self, decide: Callable) -> Callable:
        """``decide`` with each order it tries counted through ``build``."""

        @functools.wraps(decide)
        def traced(build, threshold, relation):
            builds = 0

            def counted(order):
                nonlocal builds
                builds += 1
                return self.span(BUILD_KEY, build, order)

            try:
                return self.span(DECIDE_KEY, decide, counted, threshold, relation)
            finally:
                self.calls["intervals.decide_builds"] += builds
                self.calls["intervals.decide_first_order"] += builds == 1

        return traced


def _rebind(original: Callable, replacement: Callable) -> list[tuple[object, str, Callable]]:
    """Point every ``ekrcross`` module binding of ``original`` at
    ``replacement``; returns what to restore."""
    patched = []
    for name, module in list(sys.modules.items()):
        if name != "ekrcross" and not name.startswith("ekrcross."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr, original))
    return patched


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced function; returns a function that undoes it."""
    patched = []
    for key, module_name, names in SPANS:
        module = importlib.import_module(module_name)
        for name in names:
            original = getattr(module, name)
            patched += _rebind(original, tracer.wrap(key, original))
    intervals = importlib.import_module("ekrcross.intervals")
    patched += _rebind(intervals.decide, tracer.wrap_decide(intervals.decide))

    def uninstall() -> None:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

    return uninstall
