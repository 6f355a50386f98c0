"""Benchmark of the ekrcross workbench, driven from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload search-full --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for the instances and pinned outputs):

- ``search-full``: full-mode closure searches, (6,3,1), weight (6,2,1/4)
  and seq (4,2,1).  The closure engine does nearly all of the work.
- ``search-shifted``: shifted-mode searches, weight (7,2,1/4), (9,3,1)
  and (8,4,2).  Same engine, through dominance predecessors.
- ``certify``: the six ``verify`` suites; exact Fraction arithmetic in
  bounds, intervals, walks and measure, and no search.
- ``lemma-gen``: the lemma-harness generator over the eight criterion-7
  configurations; the setfam compressions do nearly all of the work.

The workload runs single-threaded in a fresh interpreter with
``PYTHONHASHSEED`` fixed and ``EKR_WORKERS`` unset.  Passes over its
instances repeat for ``--seconds``; every output is checked against the
values pinned in ``workloads.py``.  With ``--trace 0`` the last line of
output holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of traced passes.  The line before it holds the run's details:
provenance, raw and corrected times with their sample counts,
per-instance times, node counts and any failures.

End-to-end metrics: ``wall_s``, the median time of one pass, and
``setup_s``, the median time for a fresh interpreter to import what the
workload uses, are both speed-corrected against a reference loop (see
``passes.py``); ``peak_rss_mb`` is the workload process's peak resident
memory; ``success_rate`` is 1 minus the share of instances that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A run may take 180 s; the worker stops starting instances well before.
WORKER_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "ekrcross" / "__init__.py").is_file():
        print("error: run from the repository root; src/ekrcross not found", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items()
           if k not in ("EKR_WORKERS", "PYTHONPATH")}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    # A process group of its own, so a timeout stops the worker and any set-up probe it started.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
         str(args.seconds), str(args.trace)],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: workload did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    report = json.loads(stdout.strip().splitlines()[-1])
    print(json.dumps(report["detail"]))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in report["metrics"].items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name == "success_rate" or name.endswith(("_share", "_yield")):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
