"""Self-test of the benchmark's own arithmetic and gates.

Runs before every measured run and on its own:
``PYTHONPATH=src python3 perfbench/selftest.py`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import ekrcross.bounds
import ekrcross.cli
import ekrcross.search
import tracing
from passes import Pass, Sampler, error_rate, run_instance
from workloads import CliOutput, search_full


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def check_self_time() -> list[str]:
    """outer(A) 10 s = 2 s own, inner(B) 4 s, 1 s own, inner(A) 2 s, 1 s own;
    and a traced ``decide`` that tries two orders."""
    clock = _FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf(seconds):
        clock.advance(seconds)

    def outer():
        clock.advance(2)
        tracer.span("B", leaf, 4)
        clock.advance(1)
        tracer.span("A", leaf, 2)
        clock.advance(1)

    tracer.span("A", outer)

    def decide(build, threshold, relation):
        clock.advance(0.5)
        build(1)
        build(2)
        return True

    tracer.wrap_decide(decide)(leaf, 0, "<")
    want_s = {"A": 6.0, "B": 4.0, tracing.DECIDE_KEY: 0.5, tracing.BUILD_KEY: 3.0}
    want_calls = {"A": 2, "B": 1, tracing.DECIDE_KEY: 1, "intervals.decide_builds": 2,
                  "intervals.decide_first_order": 0}
    problems = [f"self time of {k} is {tracer.self_s[k]}, want {v}"
                for k, v in want_s.items() if tracer.self_s[k] != v]
    problems += [f"calls of {k} is {tracer.calls[k]}, want {v}"
                 for k, v in want_calls.items() if tracer.calls[k] != v]
    return problems


def check_gate() -> list[str]:
    """The pinned (6,3,1) search output passes its gate; the same output
    with ``witness_count`` off by one, and an instance that overruns its
    cap, each count as a failure in the error rate."""
    inst = search_full(0)[0]
    good = {"max_product": "100", "witness_count": 180705,
            "witness_classes": ["F0", "F1", "other"], "exhaustive": True,
            "notes": {"mode": "full", "closed_sets": 1 << 20}}
    bad = dict(good, witness_count=good["witness_count"] + 1)

    def replay(obj):
        return dataclasses.replace(inst, call=lambda: CliOutput(0, json.dumps(obj), ""))

    hang = dataclasses.replace(inst, call=lambda: time.sleep(5))
    sampler = Sampler()
    outcomes = [run_instance(replay(good), 10, sampler), run_instance(replay(bad), 10, sampler),
                run_instance(hang, 0.05, sampler)]
    problems = []
    if outcomes[0].problems:
        problems.append(f"pinned output flagged: {outcomes[0].problems}")
    if outcomes[0].observed.get("nodes") != 1 << 20:
        problems.append(f"nodes not observed: {outcomes[0].observed}")
    if not outcomes[1].problems:
        problems.append("witness_count off by one passed the gate")
    if not outcomes[2].problems or outcomes[2].seconds > 1:
        problems.append("an instance over its cap was not stopped and counted")
    rate = error_rate([Pass(False, outcomes)])
    if rate != 2 / 3:
        problems.append(f"error rate {rate}, want 2/3")
    return problems


def check_install() -> list[str]:
    """Functions bound by name in other modules are traced through those
    bindings too, and uninstalling restores every binding."""
    bindings = [(ekrcross.search, "shifts_to"), (ekrcross.search, "shift_pair_to_fixpoint"),
                (ekrcross.bounds, "exp_enclosure"), (ekrcross.bounds, "decide"),
                (ekrcross.bounds, "e_enclosure"), (ekrcross.cli, "max_uniform_product")]
    before = [getattr(module, name) for module, name in bindings]
    uninstall = tracing.install(tracing.Tracer())
    try:
        problems = [f"{module.__name__}.{name} is not traced"
                    for (module, name), fn in zip(bindings, before) if getattr(module, name) is fn]
    finally:
        uninstall()
    problems += [f"{module.__name__}.{name} was not restored"
                 for (module, name), fn in zip(bindings, before) if getattr(module, name) is not fn]
    return problems


def run_all() -> list[str]:
    return check_self_time() + check_gate() + check_install()


if __name__ == "__main__":
    failures = run_all()
    print("\n".join(failures) if failures else "benchmark self-test passed")
    sys.exit(1 if failures else 0)
