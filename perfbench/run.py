"""Benchmark of prbm's three cross-checks; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in fresh interpreters
with BLAS/OpenMP pools and PRBM_THREADS pinned to 1: SETUP_SAMPLES that only
set up, then one that sets up and measures. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Every run also writes a record with the 1-minute load average and the CPU
steal over the run to .perfbench_out/, so that a drifting run can be
recognised. Exits non-zero without a result when the workload cannot run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# the keys of workloads.WORKLOADS, listed here so this file never loads numpy
WORKLOADS = ("annulus-lattice", "koch-coarse-grain", "canonical-ensembles")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
PINNED = {
    "PRBM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def machine_state() -> dict:
    """1-minute load average and cumulative CPU steal, from /proc only."""
    load1 = float(Path("/proc/loadavg").read_text().split()[0])
    cpu = Path("/proc/stat").read_text().splitlines()[0].split()
    # cpu user nice system idle iowait irq softirq steal ...
    steal_s = int(cpu[8]) / os.sysconf("SC_CLK_TCK") if len(cpu) > 8 else 0.0
    return {"load1": load1, "steal_s": steal_s}


def worker(args, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    env = {**os.environ, **PINNED}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**63 or args.seconds < 1:
        ap.error("--seed must be in [0, 2**63) and --seconds at least 1")
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "prbm" / "__init__.py").is_file():
        print(f"no prbm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the build: byte-compile once so no measured import pays for it
    if not compileall.compile_dir(ROOT / "src", quiet=1) or not compileall.compile_dir(HERE, quiet=1):
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2

    before = machine_state()
    try:
        setups = [worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
        run = worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    after = machine_state()
    setups.append(run["setup_s"])

    correct = not run["problems"] and not run["selftests_missed"]
    if args.trace:
        metrics = run["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "route_s": {"value": statistics.median(run["route_s"]), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "load1_before": before["load1"], "load1_after": after["load1"],
        "steal_s": after["steal_s"] - before["steal_s"],
        "setup_samples_s": setups, **{k: v for k, v in run.items() if k != "per_layer"},
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for p in run["problems"]:
        print(f"check failed: {p}")
    for m in run["selftests_missed"]:
        print(f"self-test not caught: {m}")
    for e in run["errors"]:
        print(f"failed operation: {e.strip().splitlines()[-1]}")
    print(f"rounds {run['rounds']}, route_s per round {[round(t, 3) for t in run['route_s']]}, "
          f"load1 {before['load1']:.2f}->{after['load1']:.2f}, steal {record['steal_s']:.2f} s")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
