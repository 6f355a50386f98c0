#!/usr/bin/env python3
"""Write BENCH_<label>.json, the before/after numbers a speed claim cites.

Run from anywhere; it works on the repository that holds it:

    python3 scripts/bench.py --label 16

The file records:

- for each workload in BENCHMARK.json, the median of each end-to-end
  metric over RUNS runs of ``perfbench/run.py`` (seeds 1 to RUNS, each
  as long as BENCHMARK.json's ``run_seconds``, one run at a time), every
  run's values, and the provenance perfbench records (revision, source
  digest, machine);
- ``scripts/reach.py``'s row for each rung of its ladder;
- the line count of src/ekrcross, in all and per module;
- the wall time and summary line of one tier-1 run.

It only records: the tests and perfbench's pinned outputs do the checking.

Each workload's runs come in one block, so two BENCH files compare two
separate sessions, and a slow phase of the machine shows up as a gap
between them. Take the two files of a pair back to back on one machine,
and back a speed claim with alternating parent/change runs at one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
RUNS = 5


def run(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, check=check)


def workload(name: str, seconds: float) -> dict:
    rows, provenance = [], None
    for seed in range(1, RUNS + 1):
        out = run("perfbench/run.py", "--workload", name, "--seed", str(seed),
                  "--seconds", str(seconds)).stdout.splitlines()
        detail, summary = json.loads(out[-2]), json.loads(out[-1])
        provenance = provenance or {k: v for k, v in detail["provenance"].items() if k != "seed"}
        rows.append({"seed": seed, "correct": summary["correct"],
                     **{m: v["value"] for m, v in summary["metrics"].items()}})
    metrics = [m for m in rows[0] if m not in ("seed", "correct")]
    return {"median": {m: statistics.median(r[m] for r in rows) for m in metrics},
            "runs": rows, "provenance": provenance}


def tier1() -> dict:
    started = time.perf_counter()
    proc = run("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
               check=False)
    return {"wall_s": round(time.perf_counter() - started, 2), "returncode": proc.returncode,
            "summary": proc.stdout.strip().splitlines()[-1]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    lines = {p.name: len(p.read_text().splitlines())
             for p in sorted((ROOT / "src" / "ekrcross").glob("*.py"))}
    bench = {
        "label": args.label,
        "runs": RUNS,
        "seconds": seconds,
        "workloads": {w["name"]: workload(w["name"], seconds) for w in spec["workloads"]},
        "reach": [json.loads(line) for line in run("scripts/reach.py").stdout.splitlines()],
        "src_lines": sum(lines.values()),
        "src_lines_by_module": lines,
        "tier1": tier1(),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
