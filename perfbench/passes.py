"""Timed passes over a workload's instances, with caps and tracing.

A pass runs every instance once.  Each instance is timed on its own and
checked after its clock stops; a failure is counted and the pass goes
on, so one bad instance can neither stop a run nor hang it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

import tracing
from workloads import Instance


# The host this benchmark was defined on changed speed by up to a factor
# of two within a minute, under other tenants' load, so raw times of one
# run could not be compared with another's.  While an instance runs, a
# fixed pure-Python reference loop is therefore timed every TICK_S from a
# timer signal, and BRACKET times more after each instance; ``ref_s`` is
# the median of those around and during the call.  The end-to-end times
# are speed-corrected: seconds x (REFERENCE_S / ref_s) ** SPEED_EXPONENT.
# Across those load swings the log of every workload's instance times
# rose by 0.5 to 0.75 times the log of the reference loop's time, so the
# exponent is 0.6 rather than 1.  Over ten runs per workload this cut the
# spread (interquartile range over median) of wall_s from 14-24% raw to
# 3-9%.  REFERENCE_S is about the loop's time on that 2-core Intel Xeon
# host at its fastest, so corrected figures read as seconds there.  Raw
# seconds are reported beside them; per-layer times stay raw.
REFERENCE_S = 0.0025
SPEED_EXPONENT = 0.6
TICK_S = 0.2
BRACKET = 5


def reference_seconds() -> float:
    """Wall time of a fixed loop of big-int bit operations, set probes,
    tuple stacks and Fraction sums: the operations the package spends
    its time on, with no call into it."""
    start = time.perf_counter()
    mask = (1 << 90) - 1
    seen: set[int] = set()
    stack = [(0, 0)]
    acc = 0
    for i in range(5000):
        x = (i * 0x9E3779B97F4A7C15) & mask
        acc += (x & (x >> 7)).bit_count()
        if x & 0xFFF not in seen:
            seen.add(x & 0xFFF)
        pos, chosen = stack.pop()
        stack.append((pos + 1, chosen | (1 << (i & 63))))
    q = Fraction(0)
    for i in range(1, 40):
        q += Fraction(1, i * i)
    return time.perf_counter() - start


class InstanceTimeout(BaseException):
    """Raised from the timer signal when an instance overruns its cap.

    A BaseException, so no handler inside the package can swallow it."""


class Sampler:
    """Times the reference loop while calls run and stops a call that
    overruns its cap.  ``clock`` excludes the sampler's own time, so
    neither instance times nor trace spans include it."""

    def __init__(self) -> None:
        self.own_s = 0.0
        self.samples: list[float] = []
        self.deadline = math.inf

    def clock(self) -> float:
        return time.perf_counter() - self.own_s

    def sample(self, count: int = 1) -> None:
        start = time.perf_counter()
        self.samples += [reference_seconds() for _ in range(count)]
        self.own_s += time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self.sample()
        if time.perf_counter() > self.deadline:
            raise InstanceTimeout

    def start(self, cap_s: float) -> None:
        self.deadline = time.perf_counter() + cap_s
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, min(TICK_S, cap_s), TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Outcome:
    seconds: float
    problems: list[str]
    observed: dict = field(default_factory=dict)
    # Median time of the reference loop around and during the call.
    ref_s: float = REFERENCE_S

    @property
    def at_ref_speed(self) -> float:
        return self.seconds * (REFERENCE_S / self.ref_s) ** SPEED_EXPONENT


def run_instance(inst: Instance, cap_s: float, sampler: Sampler) -> Outcome:
    """Time one instance under its cap, then check its output.

    Only the call is timed; the check runs after the clock stops.  A
    raise, an overrun or a differing output is a failure, never fatal."""
    if cap_s <= 0:
        return Outcome(0.0, ["not run: the run's time limit was reached"])
    if len(sampler.samples) < BRACKET:
        sampler.sample(BRACKET)
    first = len(sampler.samples) - BRACKET
    start = sampler.clock()
    problems: list[str] = []
    try:
        sampler.start(cap_s)
        try:
            output = inst.call()
        finally:
            sampler.stop()
    except InstanceTimeout:
        problems = [f"exceeded its {cap_s:.3g} s cap"]
    except Exception as exc:  # noqa: BLE001 - any raise is a counted failure
        problems = [f"raised {type(exc).__name__}: {exc}"]
    seconds = sampler.clock() - start
    sampler.sample(BRACKET)
    outcome = Outcome(seconds, problems, ref_s=statistics.median(sampler.samples[first:]))
    if not problems:
        outcome.problems = inst.check(output)
        outcome.observed = {} if outcome.problems else inst.observe(output)
    return outcome


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome]
    layers: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def at_ref_speed(self) -> float:
        return sum(o.at_ref_speed for o in self.outcomes)


def run_pass(instances: list[Instance], deadline: float, sampler: Sampler, traced: bool) -> Pass:
    tracer = tracing.Tracer(sampler.clock) if traced else None
    uninstall = tracing.install(tracer) if tracer else None
    try:
        outcomes = [run_instance(inst, min(inst.cap_s, deadline - time.perf_counter()), sampler)
                    for inst in instances]
    finally:
        if uninstall:
            uninstall()
    done = Pass(traced, outcomes)
    if tracer:
        done.layers = layer_metrics(tracer, outcomes)
    return done


def run_passes(instances: list[Instance], seconds: float, deadline: float, trace: bool,
               sampler: Sampler) -> list[Pass]:
    """Repeat passes while the next one is expected to end within
    ``seconds``.  With tracing, untraced and traced passes alternate and
    at least one of each runs."""
    start = time.perf_counter()
    passes: list[Pass] = []
    while True:
        passes.append(run_pass(instances, deadline, sampler, trace and len(passes) % 2 == 1))
        expected = statistics.median(p.seconds for p in passes)
        enough = len(passes) >= (2 if trace else 1)
        if time.perf_counter() >= deadline or (
            enough and time.perf_counter() - start + expected > seconds
        ):
            return passes


def layer_metrics(tracer: tracing.Tracer, outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer figures of one traced pass; zero for a layer the pass
    does not reach."""
    s, c = tracer.self_s, tracer.calls

    def observed(key: str) -> int:
        return sum(o.observed.get(key, 0) for o in outcomes)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    nodes, engine_s = observed("nodes"), s["search.engine"]
    pairs = observed("pairs")
    return {
        "search.engine_s": engine_s,
        "search.nodes": nodes,
        "search.nodes_per_s": ratio(nodes, engine_s),
        "search.rows_s": s["search.rows"],
        "search.rows_calls": c["search.rows"],
        "search.witness_count": observed("witness_count"),
        "search.gen_s": s["search.gen"],
        "search.gen_pairs": pairs,
        "search.gen_yield": ratio(pairs, c["setfam.fixpoint"]),
        "seq.search_s": s["seq.search"],
        "seq.closed_sets": observed("seq_closed_sets"),
        "setfam.fixpoint_s": s["setfam.fixpoint"],
        "setfam.fixpoint_calls": c["setfam.fixpoint"],
        "setfam.partner_s": s["setfam.partner"],
        "setfam.partner_calls": c["setfam.partner"],
        "setfam.shifts_to_s": s["setfam.shifts_to"],
        "setfam.shifts_to_calls": c["setfam.shifts_to"],
        "intervals.exp_s": s["intervals.exp"],
        "intervals.exp_calls": c["intervals.exp"],
        "intervals.decide_calls": c[tracing.DECIDE_KEY],
        "intervals.decide_builds": c["intervals.decide_builds"],
        "intervals.decide_first_order_share": ratio(
            c["intervals.decide_first_order"], c[tracing.DECIDE_KEY]),
        "bounds.suite_s": s["bounds.suite"],
        "bounds.finite_sweep_s": s["bounds.finite_sweep"],
        "bounds.finite_cells": observed("finite_cells"),
        "bounds.claims": observed("bounds_claims"),
        "walks.enumerate_s": s["walks.enumerate"],
        "walks.enumerate_calls": c["walks.enumerate"],
        "measure.hit_exact_s": s["measure.hit_exact"],
        "suites.self_s": s["suites.self"],
        "report.serialize_s": s["report.serialize"],
        "cli.self_s": s["cli.self"],
    }


def error_rate(passes: list[Pass]) -> float:
    outcomes = [o for p in passes for o in p.outcomes]
    return sum(1 for o in outcomes if o.problems) / len(outcomes)
