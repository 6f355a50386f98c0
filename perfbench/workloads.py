"""Workload instances and the outputs each one must reproduce.

Every instance is one thing a researcher would run: a CLI invocation
(``ekrcross.cli.main`` with the exact argv typed at a shell) or one call
of the lemma-harness generator.  Each carries a cap on its wall time and
a check against the values the program printed when the benchmark was
defined.  Node counts are recorded but never gated, because an engine
that prunes may legitimately visit fewer nodes.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import ekrcross.cli
import ekrcross.search
from ekrcross.search import WITNESS_CAP
from ekrcross.setfam import is_cross_t_intersecting, is_shifted

# The module a fresh interpreter must import before a workload's first
# instance can run; ``setup_s`` times exactly this import.
CLI_MODULE = "ekrcross.cli"
LEMMA_MODULE = "ekrcross.search"


@dataclass(frozen=True)
class Instance:
    """One unit of work: ``call`` produces raw output, ``check`` returns
    the ways it differs from the pinned output, ``observe`` extracts the
    counts recorded alongside the timings."""

    name: str
    cap_s: float
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    observe: Callable[[Any], dict] = field(default=lambda out: {})


# ---------------------------------------------------------------------------
# CLI instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


def _run_cli(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ekrcross.cli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


def _parse(out: CliOutput) -> tuple[Any, list[str]]:
    if out.code != 0:
        return None, [f"exit code {out.code}: {out.stderr.strip()[:200]}"]
    try:
        return json.loads(out.stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def search_instance(
    command: str, cap_s: float, max_product: str, witness_count: int, classes: tuple[str, ...]
) -> Instance:
    """A ``search`` invocation gated on its maximum, tie count, witness
    classes and exhaustiveness (exit code 0 means exhaustive)."""
    argv = command.split()

    def check(out: CliOutput) -> list[str]:
        obj, problems = _parse(out)
        if problems:
            return problems
        want = {
            "max_product": max_product,
            "witness_count": witness_count,
            "witness_classes": list(classes),
            "exhaustive": True,
        }
        return [f"{key} is {obj.get(key)!r}, pinned {val!r}"
                for key, val in want.items() if obj.get(key) != val]

    def observe(out: CliOutput) -> dict:
        obj, problems = _parse(out)
        if problems:
            return {}
        notes = obj["notes"]
        nodes = notes.get("closed_sets", notes.get("nodes", 0))
        return {
            "seq_closed_sets" if argv[1] == "seq" else "nodes": nodes,
            "witness_count": obj["witness_count"],
            # Above the cap the classes come from the first WITNESS_CAP ties only.
            "witness_count_over_cap": obj["witness_count"] > WITNESS_CAP,
        }

    return Instance(command, cap_s, lambda: _run_cli(argv), check, observe)


# The suites whose rows are claims certified by ``ekrcross.bounds``.
BOUNDS_SUITES = ("bounds-all", "case2-finite", "stability")


def verify_instance(
    command: str, cap_s: float, rows: int, skipped: tuple[str, ...] = ()
) -> Instance:
    """A ``verify`` invocation gated on its row count and on every row
    being verified; a claim pinned as skipped may stay skipped."""
    argv = command.split()

    def check(out: CliOutput) -> list[str]:
        obj, problems = _parse(out)
        if problems:
            return problems
        if len(obj) != rows:
            problems.append(f"{len(obj)} rows, pinned {rows}")
        for row in obj:
            allowed = ("verified", "skipped") if row["claim_id"] in skipped else ("verified",)
            if row["status"] not in allowed:
                problems.append(f"{row['claim_id']} is {row['status']}")
        return problems

    def observe(out: CliOutput) -> dict:
        obj, problems = _parse(out)
        if problems:
            return {}
        cells = sum(row["witness"]["cells"] for row in obj
                    if row["claim_id"].startswith("finite-sweep["))
        return {"rows": len(obj), "finite_cells": cells,
                "bounds_claims": len(obj) if argv[1] in BOUNDS_SUITES else 0}

    return Instance(command, cap_s, lambda: _run_cli(argv), check, observe)


# ---------------------------------------------------------------------------
# lemma-harness instances
# ---------------------------------------------------------------------------


def lemma_instance(n: int, k: int | None, t: int, count: int, seed: int, at_least: int) -> Instance:
    """One ``generate_shifted_pairs`` call, gated on the number of
    distinct pairs and on each pair being shifted and cross
    t-intersecting, checked here rather than trusted from the generator."""

    def call():
        return ekrcross.search.generate_shifted_pairs(n, k, t, count, seed)

    def check(pairs) -> list[str]:
        problems = []
        if not at_least <= len(pairs) <= count:
            problems.append(f"{len(pairs)} pairs, pinned at least {at_least}")
        if len({(a.masks, b.masks) for a, b in pairs}) != len(pairs):
            problems.append("duplicate pairs")
        for a, b in pairs:
            if not (is_shifted(a) and is_shifted(b)):
                problems.append(f"unshifted pair {a.masks} {b.masks}")
            elif not is_cross_t_intersecting(a, b, t):
                problems.append(f"pair not cross {t}-intersecting {a.masks} {b.masks}")
        return problems[:5]

    return Instance(f"lemma n={n} k={k} t={t} seed={seed}", 60.0, call, check,
                    lambda pairs: {"pairs": len(pairs)})


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def search_full(seed: int) -> list[Instance]:
    # Deterministic instances: the seed is not used.
    return [
        search_instance("search uniform --n 6 --k 3 --t 1", 60.0, "100", 180705, ("F0", "F1", "other")),
        search_instance("search weight --n 6 --t 2 --p 1/4", 30.0, "1/256", 15, ("F0",)),
        search_instance("search seq --n 4 --m 2 --t 1", 20.0, "64", 8882, ("H0", "H1", "other")),
    ]


def search_shifted(seed: int) -> list[Instance]:
    return [
        search_instance("search weight --n 7 --t 2 --p 1/4 --shifted", 45.0, "1/256", 1, ("F0",)),
        search_instance("search uniform --n 9 --k 3 --t 1 --shifted", 20.0, "784", 1, ("F0",)),
        search_instance("search uniform --n 8 --k 4 --t 2 --shifted", 20.0, "289", 1, ("F1",)),
    ]


def certify(seed: int) -> list[Instance]:
    return [
        verify_instance("verify bounds-all", 20.0, 44, skipped=("extremal-gap-boundary",)),
        verify_instance("verify case2-finite", 20.0, 10),
        verify_instance("verify walk-oracle", 20.0, 1),
        verify_instance("verify measure-oracle", 20.0, 4),
        verify_instance("verify stability", 20.0, 3),
        verify_instance(f"verify graphs --seed {seed}", 20.0, 3),
    ]


# The configurations of the criterion-7 lemma battery.  The last three
# hold only 64, 48 and 32 distinct pairs, so the generator exhausts them
# and then spends its whole attempt cap on rejections.
LEMMA_CONFIGS = (
    ((5, None, 1), 80), ((5, None, 2), 80), ((6, None, 1), 80), ((6, None, 2), 80),
    ((6, 3, 1), 80), ((6, 3, 2), 64), ((6, 2, 1), 48), ((5, 2, 1), 32),
)


def lemma_gen(seed: int) -> list[Instance]:
    return [lemma_instance(n, k, t, 80, seed + idx, at_least)
            for idx, ((n, k, t), at_least) in enumerate(LEMMA_CONFIGS)]


WORKLOADS: dict[str, tuple[Callable[[int], list[Instance]], str]] = {
    "search-full": (search_full, CLI_MODULE),
    "search-shifted": (search_shifted, CLI_MODULE),
    "certify": (certify, CLI_MODULE),
    "lemma-gen": (lemma_gen, LEMMA_MODULE),
}
