"""Run one workload in this interpreter and print its figures as one JSON
line.  ``run.py`` starts it in a fresh interpreter with a pinned
environment; it is not meant to be started by hand.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ekrcross
import selftest
from passes import Outcome, Sampler, error_rate, run_instance, run_passes
from workloads import WORKLOADS, Instance

SETUP_PROBES = 9
# Instances still pending when this much time has passed since the
# worker started are not run and count as failed, so a run that meets a
# hang still ends well inside the time a run may take.
HARD_LIMIT_S = 140.0


def setup_samples(module: str, sampler: Sampler) -> list[Outcome]:
    """Fresh interpreters that import ``module`` and exit, each timed and
    speed-corrected like an instance."""
    probe = Instance(f"import {module}", 60.0, lambda: subprocess.run(
        [sys.executable, "-c", f"import {module}"], check=True, stdin=subprocess.DEVNULL),
        check=lambda out: [])
    return [run_instance(probe, probe.cap_s, sampler) for _ in range(SETUP_PROBES)]


def _git_rev(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int) -> dict:
    root = Path.cwd()
    sources = sorted((root / "src" / "ekrcross").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": _git_rev(root),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def timing_summary(samples: list[float]) -> dict:
    """Median and sample count, plus the highest percentile that has at
    least ten samples beyond it when there are enough samples for one."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "samples": len(ordered),
           "min": ordered[0], "max": ordered[-1]}
    if len(ordered) >= 20:
        pct = 100 * (len(ordered) - 10) // len(ordered)
        out[f"p{pct}"] = ordered[len(ordered) - 11]
    return out


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    started = time.perf_counter()
    expected_src = (Path.cwd() / "src" / "ekrcross").resolve()
    if Path(ekrcross.__file__).resolve().parent != expected_src:
        print(f"error: ekrcross imported from {ekrcross.__file__}, not {expected_src}", file=sys.stderr)
        return 2
    if workload not in WORKLOADS:
        print(f"error: unknown workload {workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 64
    failures = selftest.run_all()
    if failures:
        print("error: benchmark self-test failed: " + "; ".join(failures), file=sys.stderr)
        return 3

    factory, module = WORKLOADS[workload]
    instances = factory(seed)
    sampler = Sampler()
    setup = [] if trace else setup_samples(module, sampler)
    if any(o.problems for o in setup):
        print(f"error: a fresh interpreter failed to import {module}: {next(o.problems for o in setup if o.problems)}", file=sys.stderr)
        return 1
    passes = run_passes(instances, seconds, started + HARD_LIMIT_S, trace, sampler)

    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if o.problems]
    untraced = [p for p in passes if not p.traced]
    per_instance = {
        inst.name: {**timing_summary([p.outcomes[i].seconds for p in untraced]),
                    **passes[0].outcomes[i].observed}
        for i, inst in enumerate(instances)
    }
    detail = {
        "provenance": provenance(workload, seed),
        "wall_s_raw": timing_summary([p.seconds for p in untraced]),
        "wall_s": timing_summary([p.at_ref_speed for p in untraced]),
        "reference_s": timing_summary([o.ref_s for o in outcomes]),
        "setup_s_raw": timing_summary([o.seconds for o in setup]) if setup else None,
        "setup_s": timing_summary([o.at_ref_speed for o in setup]) if setup else None,
        "error_rate": error_rate(passes),
        "problems": sorted({f"{inst.name}: {msg}" for p in passes
                            for inst, o in zip(instances, p.outcomes) for msg in o.problems})[:10],
        "instances": per_instance,
    }
    if trace:
        traced = [p for p in passes if p.traced]
        metrics = {key: statistics.median_low(p.layers[key] for p in traced) for key in traced[0].layers}
        metrics["trace.wall_s"] = statistics.median(p.at_ref_speed for p in traced)
        metrics["trace.untraced_wall_s"] = statistics.median(p.at_ref_speed for p in untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    else:
        metrics = {
            "wall_s": statistics.median(p.at_ref_speed for p in untraced),
            "setup_s": statistics.median(o.at_ref_speed for o in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1 - detail["error_rate"],
        }
    print(json.dumps({"detail": detail, "attempted": len(outcomes), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
