"""Batch entry point: run verification suites and searches, emit
machine-readable reports.

Exit codes: 0 all claims verified / searches exhaustive, 1 on any
refutation, 2 on budget or inconclusive outcomes, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import bounds, suites
from .report import encode_value, exit_code, reports_to_csv, reports_to_json
from .search import SearchBudget, SearchResult, max_uniform_product, max_weight_product
from .seq import verify_seq_theorem
from .setfam import BudgetExceeded, family_to_text

USAGE_ERROR = 64

VERIFY_SUITES = (
    "bounds-all",
    "case2-finite",
    "walk-oracle",
    "measure-oracle",
    "stability",
    "graphs",
    "search-uniform",
    "search-weight",
    "search-seq",
)
SEARCH_KINDS = ("uniform", "weight", "seq")
# The settings each suite reads, beyond --out, which every suite reads.
SUITE_READS = {
    "bounds-all": ("t_max", "fmt"),
    "case2-finite": ("t", "fmt"),
    "walk-oracle": ("fmt",),
    "measure-oracle": ("fmt",),
    "stability": ("t", "n", "k", "fmt"),
    "graphs": ("seed", "fmt"),
    "search-uniform": ("n", "k", "t", "fmt", "shifted"),
    "search-weight": ("n", "t", "p", "fmt", "shifted"),
    "search-seq": ("n", "m", "t", "fmt", "shifted"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


@dataclass
class RunConfig:
    suite: str
    t: Optional[int] = None
    t_max: int = 100
    n: Optional[int] = None
    k: Optional[int] = None
    p: Optional[Fraction] = None
    m: Optional[int] = None
    out: Optional[str] = None
    fmt: str = "json"
    shifted: bool = False
    seed: int = 0
    given: frozenset = frozenset()  # the settings named by a flag or the config file

    def stability_sizes(self) -> tuple[int, int, int]:
        """(t, n, k) for the stability suite: t defaults to 14, n to
        (t+1)^2 and k to t+1."""
        t = self.t if self.t is not None else 14
        n = self.n if self.n is not None else (t + 1) * (t + 1)
        k = self.k if self.k is not None else t + 1
        return t, n, k

    def unread(self) -> list[str]:
        """The given settings that the suite does not read, as flags."""
        extra = self.given - {"suite", "out", *SUITE_READS[self.suite]}
        return sorted("--" + ("format" if key == "fmt" else key.replace("_", "-")) for key in extra)

    def validate(self) -> None:
        if self.suite not in VERIFY_SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {VERIFY_SUITES}")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.fmt!r}")
        if self.suite == "bounds-all" and self.t_max < bounds.SUITE_T_MAX_MIN:
            raise ValueError(f"suite bounds-all needs t_max >= {bounds.SUITE_T_MAX_MIN}, the "
                             f"least at which every sweep checks some t, got {self.t_max}")
        if self.suite == "stability":
            t, n, k = self.stability_sizes()
            if not 1 <= t <= k <= n:
                raise ValueError(f"suite stability needs 1 <= t <= k <= n, "
                                 f"got t={t}, k={k}, n={n}")
        if (self.suite == "case2-finite" and self.t is not None
                and self.t not in bounds.FINITE_T_RANGE):
            raise ValueError(f"case2-finite covers t in {list(bounds.FINITE_T_RANGE)}, "
                             f"got {self.t}")
        if self.suite.startswith("search-") and self.fmt != "json":
            raise ValueError(f"suite {self.suite} writes JSON only, got format {self.fmt!r}")
        if self.suite == "search-seq" and self.shifted:
            raise ValueError("search-seq has no shifted mode (got --shifted or shifted = true)")
        required = {
            "case2-finite": (),
            "search-uniform": ("n", "k", "t"),
            "search-weight": ("n", "t", "p"),
            "search-seq": ("n", "m", "t"),
        }.get(self.suite, ())
        missing = [name for name in required if getattr(self, name) is None]
        if missing:
            raise ValueError(f"suite {self.suite} requires {', '.join('--' + m for m in missing)}")
        if self.suite.startswith("search-") and self.t < 1:
            raise ValueError(f"suite {self.suite} needs t >= 1, got t={self.t}")
        if self.suite == "search-uniform" and not 1 <= self.k <= self.n:
            raise ValueError(f"suite search-uniform needs 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.suite == "search-seq" and self.m < 1:
            raise ValueError(f"suite search-seq needs m >= 1, got m={self.m}")
        if self.suite == "search-weight" and not 0 < self.p < 1:
            raise ValueError(f"suite search-weight needs 0 < p < 1, got p={self.p}")
        size = {"search-uniform": "k", "search-weight": "n", "search-seq": "n"}.get(self.suite)
        if size and self.t > getattr(self, size):
            raise ValueError(f"suite {self.suite} needs t <= {size}: nothing cross "
                             f"{self.t}-intersects at {size}={getattr(self, size)}")


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def load_config_file(path: str) -> dict:
    """Flat key = value lines; [section] headers are allowed and ignored."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, val = line.split(sep, 1)
                values[key.strip().replace("-", "_")] = val.strip()
                break
        else:
            raise ValueError(f"bad config line: {raw!r}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="ekrcross", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--t", type=int)
        p.add_argument("--t-max", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--p", type=parse_rational)
        p.add_argument("--m", type=int)
        p.add_argument("--out")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"))
        p.add_argument("--shifted", action=argparse.BooleanOptionalAction,
                       help="restrict the search to shifted families")
        p.add_argument("--seed", type=int)
        p.add_argument("--config", help="flat key=value config file; flags override")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=VERIFY_SUITES)
    add_common(pv)

    ps = sub.add_parser("search", help="run an extremal search")
    ps.add_argument("kind", choices=SEARCH_KINDS)
    add_common(ps)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    suite = args.suite if args.command == "verify" else f"search-{args.kind}"
    cfg = RunConfig(suite=suite)
    file_values = load_config_file(args.config) if args.config else {}
    for key, val in file_values.items():
        if key == "suite":
            cfg.suite = val
        elif key in ("t", "t_max", "n", "k", "m", "seed"):
            setattr(cfg, key, int(val))
        elif key == "p":
            cfg.p = Fraction(val)
        elif key in ("out",):
            cfg.out = val
        elif key == "format":
            cfg.fmt = val
        elif key == "shifted":
            cfg.shifted = val.lower() in ("1", "true", "yes")
        else:
            raise ValueError(f"unknown config key {key!r}")
    given = {"fmt" if key == "format" else key for key in file_values}
    for key in ("t", "t_max", "n", "k", "p", "m", "out", "fmt", "shifted", "seed"):
        val = getattr(args, key)
        if val is not None:
            setattr(cfg, key, val)
            given.add(key)
    cfg.given = frozenset(given)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def run_verify(cfg: RunConfig) -> tuple[int, str]:
    if cfg.suite.startswith("search-"):
        return run_search(cfg)
    if cfg.suite == "bounds-all":
        reports = bounds.run_bounds_suite(cfg.t_max)
    elif cfg.suite == "case2-finite":
        reports = []
        for t in [cfg.t] if cfg.t is not None else bounds.FINITE_T_RANGE:
            reports += [bounds.verify_threshold_floor(t), bounds.verify_low_side_finite(t)]
    elif cfg.suite == "walk-oracle":
        reports = suites.run_walk_oracle()
    elif cfg.suite == "measure-oracle":
        reports = suites.run_measure_oracle()
    elif cfg.suite == "stability":
        reports = bounds.verify_stability(*cfg.stability_sizes())
    elif cfg.suite == "graphs":
        reports = suites.run_graphs(seed=cfg.seed)
    else:  # pragma: no cover - guarded by validate()
        raise ValueError(cfg.suite)
    payload = reports_to_json(reports) if cfg.fmt == "json" else reports_to_csv(reports)
    return exit_code(reports), payload


def search_result_to_obj(cfg: RunConfig, result: SearchResult) -> dict:
    params = {
        "suite": cfg.suite,
        "n": cfg.n,
        "k": cfg.k,
        "t": cfg.t,
        "p": encode_value(cfg.p),
        "m": cfg.m,
        "shifted": cfg.shifted,
    }
    if cfg.suite == "search-seq":
        from .seq import seq_family_to_text

        families = [
            [seq_family_to_text(a), seq_family_to_text(b)] for a, b in result.witnesses[:8]
        ]
    else:
        families = [
            [family_to_text(a), family_to_text(b)] for a, b in result.witnesses[:8]
        ]
    return {
        "params": {k: v for k, v in params.items() if v is not None},
        "max_product": str(result.max_product),
        "witness_families": families,
        "witness_count": result.witness_count,
        "witness_classes": list(result.witness_classes),
        "matched_construction": result.matched_construction,
        "exhaustive": result.exhaustive,
        "elapsed_ms": round(result.elapsed_ms, 3),
        "notes": encode_value(result.notes),
    }


def run_search(cfg: RunConfig) -> tuple[int, str]:
    budget = SearchBudget(restrict_shifted=cfg.shifted)
    if cfg.suite == "search-uniform":
        result = max_uniform_product(cfg.n, cfg.k, cfg.t, budget)
    elif cfg.suite == "search-weight":
        result = max_weight_product(cfg.n, cfg.t, cfg.p, budget)
    else:
        result = verify_seq_theorem(cfg.n, cfg.m, cfg.t, budget)
    payload = json.dumps(search_result_to_obj(cfg, result), indent=2)
    return (0 if result.exhaustive else 2), payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        cfg = config_from_args(args)
        if cfg.unread():
            raise ValueError(f"suite {cfg.suite} does not read {', '.join(cfg.unread())}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        code, payload = run_verify(cfg)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    if cfg.out:
        Path(cfg.out).write_text(payload + "\n")
    else:
        print(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
