#!/usr/bin/env python3
"""Run every verification suite and the desk-scale searches, writing
JSON reports into reports/.

Usage: python scripts/run_all_suites.py [--t-max N]
"""

import argparse
import sys
import time
from pathlib import Path

from ekrcross.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]

RUNS = [
    ("bounds-all.json", ["verify", "bounds-all"]),
    ("case2-finite.json", ["verify", "case2-finite"]),
    ("walk-oracle.json", ["verify", "walk-oracle"]),
    ("measure-oracle.json", ["verify", "measure-oracle"]),
    ("stability.json", ["verify", "stability", "--t", "14", "--n", "225", "--k", "15"]),
    ("graphs.json", ["verify", "graphs"]),
    ("search-uniform-5-2-1.json", ["search", "uniform", "--n", "5", "--k", "2", "--t", "1"]),
    ("search-uniform-6-3-1.json", ["search", "uniform", "--n", "6", "--k", "3", "--t", "1"]),
    ("search-weight-4-2.json", ["search", "weight", "--n", "4", "--t", "2", "--p", "1/4"]),
    ("search-seq-3-2-1.json", ["search", "seq", "--n", "3", "--m", "2", "--t", "1"]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-max", type=int, default=100)
    parser.add_argument("--out-dir", default=str(ROOT / "reports"))
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(exist_ok=True)
    worst = 0
    for name, argv in RUNS:
        extra = ["--out", str(out_dir / name)]
        if argv[1] == "bounds-all":
            extra += ["--t-max", str(args.t_max)]
        t0 = time.time()
        code = cli_main(argv + extra)
        print(f"{name:32s} exit={code} {time.time() - t0:6.1f}s")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
