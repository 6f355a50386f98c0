"""Batch entry point: run verification suites and searches, emit
machine-readable reports.

Exit codes: 0 all claims verified / searches exhaustive, 1 on any
refutation, 2 on budget (memory too) or inconclusive outcomes, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from . import bounds, suites
from .report import encode_value, exit_code, reports_to_csv, reports_to_json
from .search import SearchBudget, max_uniform_product, max_weight_product
from .seq import seq_family_to_text, verify_seq_theorem
from .setfam import BudgetExceeded, family_to_text

USAGE_ERROR = 64


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


# Each setting's flag keywords and its default; the flag and the config key
# are the setting's name, with - for _ in the flag.
SETTINGS = {
    "t": ({"type": int}, None),
    "t_max": ({"type": int}, 100),
    "n": ({"type": int}, None),
    "k": ({"type": int}, None),
    "p": ({"type": parse_rational}, None),
    "m": ({"type": int}, None),
    "out": ({}, None),
    "format": ({"dest": "fmt", "choices": ("json", "csv")}, "json"),
    "shifted": ({"action": argparse.BooleanOptionalAction,
                 "help": "restrict the search to shifted families"}, False),
    "seed": ({"type": int}, 0),
}
SHIFTED_FLAGS = {"1": "--shifted", "true": "--shifted", "yes": "--shifted",
                 "0": "--no-shifted", "false": "--no-shifted", "no": "--no-shifted"}


class Suite(NamedTuple):
    reads: tuple[str, ...]  # the settings it reads, beyond out
    requires: tuple[str, ...]
    checks: tuple[Callable, ...]  # each returns a message when the settings fail it
    run: Callable  # the settings (and a search budget) -> reports, or a search result


SUITES = {
    "bounds-all": Suite(("t_max", "fmt"), (), (
        lambda a: a.t_max < bounds.SUITE_T_MAX_MIN and (
            f"suite bounds-all needs t_max >= {bounds.SUITE_T_MAX_MIN}, the least at which "
            f"every sweep checks some t, got {a.t_max}"),
    ), lambda a: bounds.run_bounds_suite(a.t_max)),
    "case2-finite": Suite(("t", "fmt"), (), (
        lambda a: a.t not in (None, *bounds.FINITE_T_RANGE) and (
            f"case2-finite covers t in {list(bounds.FINITE_T_RANGE)}, got {a.t}"),
    ), lambda a: [report for t in ([a.t] if a.t is not None else bounds.FINITE_T_RANGE)
                  for report in (bounds.verify_threshold_floor(t),
                                 bounds.verify_low_side_finite(t))]),
    "walk-oracle": Suite(("fmt",), (), (), lambda a: suites.run_walk_oracle()),
    "measure-oracle": Suite(("fmt",), (), (), lambda a: suites.run_measure_oracle()),
    "stability": Suite(("t", "n", "k", "fmt"), (), (
        lambda a: not 1 <= a.t <= a.k <= a.n and (
            f"suite stability needs 1 <= t <= k <= n, got t={a.t}, k={a.k}, n={a.n}"),
    ), lambda a: bounds.verify_stability(a.t, a.n, a.k)),
    "graphs": Suite(("seed", "fmt"), (), (), lambda a: suites.run_graphs(seed=a.seed)),
    "search-uniform": Suite(("n", "k", "t", "fmt", "shifted"), ("n", "k", "t"), (
        lambda a: not 1 <= a.k <= a.n and (
            f"suite search-uniform needs 1 <= k <= n, got k={a.k}, n={a.n}"),
        lambda a: a.t > a.k and f"suite search-uniform needs t <= k: nothing cross "
                                f"{a.t}-intersects at k={a.k}",
    ), lambda a, budget: max_uniform_product(a.n, a.k, a.t, budget)),
    "search-weight": Suite(("n", "t", "p", "fmt", "shifted"), ("n", "t", "p"), (
        lambda a: not 0 < a.p < 1 and f"suite search-weight needs 0 < p < 1, got p={a.p}",
        lambda a: a.t > a.n and f"suite search-weight needs t <= n: nothing cross "
                                f"{a.t}-intersects at n={a.n}",
    ), lambda a, budget: max_weight_product(a.n, a.t, a.p, budget)),
    "search-seq": Suite(("n", "m", "t", "fmt", "shifted"), ("n", "m", "t"), (
        lambda a: a.m < 2 and f"suite search-seq needs m >= 2, got m={a.m}",
        lambda a: a.t > a.n and f"suite search-seq needs t <= n: nothing cross "
                                f"{a.t}-intersects at n={a.n}",
    ), lambda a, budget: verify_seq_theorem(a.n, a.m, a.t, budget)),
}
VERIFY_SUITES = tuple(suite for suite in SUITES if not suite.startswith("search-"))
SEARCH_KINDS = tuple(suite[len("search-"):] for suite in SUITES if suite.startswith("search-"))
TARGETS = {"verify": VERIFY_SUITES, "search": SEARCH_KINDS}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def load_config_file(path: str) -> dict:
    """Flat key = value (or key: value) lines; a [section] header is a bad line."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        entry = re.fullmatch(r"([^=:\[]*)[=:](.*)", line)
        if not entry:
            raise ValueError(f"bad config line: {raw!r}")
        values[entry[1].strip().replace("-", "_")] = entry[2].strip()
    return values


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="ekrcross", description=__doc__)
    parser.add_argument("command", choices=tuple(TARGETS))
    parser.add_argument("target", help="; ".join(f"{command}: {', '.join(targets)}"
                                                 for command, targets in TARGETS.items()))
    for key, (kw, _) in SETTINGS.items():
        parser.add_argument("--" + key.replace("_", "-"), **kw)
    parser.add_argument("--config", help="flat key=value config file; flags override")
    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The run's settings: each from its flag, else the config file, else
    its default.  Raises ValueError on a usage error."""
    if args.target not in TARGETS[args.command]:
        raise ValueError(f"argument target: invalid choice for {args.command}: {args.target!r} "
                         f"(choose from {', '.join(map(repr, TARGETS[args.command]))})")
    args.suite = args.target if args.command == "verify" else f"search-{args.target}"
    file_values = {}
    if args.config:
        tokens = []
        for key, val in load_config_file(args.config).items():
            if key not in SETTINGS:
                raise ValueError(f"unknown config key {key!r}")
            if key == "shifted" and val.lower() not in SHIFTED_FLAGS:
                raise ValueError(f"shifted must be true, false, yes, no, 1 or 0, got {val!r}")
            flag = "--" + key.replace("_", "-")
            tokens.append(SHIFTED_FLAGS[val.lower()] if key == "shifted" else f"{flag}={val}")
        file_values = vars(build_parser().parse_args([args.command, args.target, *tokens]))
    suite = SUITES[args.suite]
    args.unread = []
    for key, (kw, default) in SETTINGS.items():
        dest = kw.get("dest", key)
        if getattr(args, dest) is None:
            setattr(args, dest, file_values.get(dest))
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif dest not in ("out", *suite.reads):
            args.unread.append("--" + key.replace("_", "-"))
    if args.suite == "stability":  # t defaults to 14, n to (t+1)^2 and k to t+1
        args.t = 14 if args.t is None else args.t
        args.n = (args.t + 1) ** 2 if args.n is None else args.n
        args.k = args.t + 1 if args.k is None else args.k
    if args.command == "search" and args.fmt != "json":
        raise ValueError(f"suite {args.suite} writes JSON only, got format {args.fmt!r}")
    if args.suite == "search-seq" and args.shifted:
        raise ValueError("search-seq has no shifted mode (got --shifted or shifted = true)")
    missing = [name for name in suite.requires if getattr(args, name) is None]
    if missing:
        raise ValueError(f"suite {args.suite} requires {', '.join('--' + m for m in missing)}")
    if args.command == "search" and args.t < 1:
        raise ValueError(f"suite {args.suite} needs t >= 1, got t={args.t}")
    for check in suite.checks:
        if problem := check(args):
            raise ValueError(problem)
    return args


def run_verify(args: argparse.Namespace) -> tuple[int, str]:
    reports = SUITES[args.suite].run(args)
    payload = reports_to_json(reports) if args.fmt == "json" else reports_to_csv(reports)
    return exit_code(reports), payload


def run_search(args: argparse.Namespace) -> tuple[int, str]:
    result = SUITES[args.suite].run(args, SearchBudget(restrict_shifted=args.shifted))
    text = seq_family_to_text if args.suite == "search-seq" else family_to_text
    params = {"suite": args.suite, "n": args.n, "k": args.k, "t": args.t,
              "p": encode_value(args.p), "m": args.m, "shifted": args.shifted}
    obj = {
        "params": {k: v for k, v in params.items() if v is not None},
        "max_product": str(result.max_product),
        "witness_families": [[text(a), text(b)] for a, b in result.witnesses[:8]],
        "witness_count": result.witness_count,
        "witness_classes": list(result.witness_classes),
        "matched_construction": result.matched_construction,
        "exhaustive": result.exhaustive,
        "elapsed_ms": round(result.elapsed_ms, 3),
        "notes": encode_value(result.notes),
    }
    return (0 if result.exhaustive else 2), json.dumps(obj, indent=2)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = config_from_args(parser.parse_args(argv))
        if args.unread:
            raise ValueError(f"suite {args.suite} does not read {', '.join(sorted(args.unread))}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        code, payload = (run_search if args.command == "search" else run_verify)(args)
    except (BudgetExceeded, MemoryError) as exc:  # a MemoryError carries no message
        print(f"budget exceeded: {'out of memory' if isinstance(exc, MemoryError) else exc}",
              file=sys.stderr)
        return 2
    if not args.out:
        print(payload)
        return code
    try:
        Path(args.out).write_text(payload + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
