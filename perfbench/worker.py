"""One workload in one fresh interpreter; prints a JSON summary as its last line.

run.py starts this file with thread pools pinned by the environment:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up runs from before ``import prbm`` to the start of the first timed
route: imports, inputs made from the seed, and lazy caches the route would
otherwise fill. Then whole rounds of the route run, at least two and then
as long as the next round is expected to end within ``--seconds``. Only the
route is timed; the operations a workload keeps untimed, the checks and the
self-tests run between rounds. Round k of a walker workload draws from
streams keyed by the seed and k, so the rounds do not all rest on one draw.
With ``--trace 1`` every second round runs with the layer wrappers of
spans.py installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import prbm

    if Path(prbm.__file__).resolve().parent != ROOT / "src" / "prbm":
        print(f"prbm imported from {prbm.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    work = workloads.WORKLOADS[args.workload]
    inp = work.setup(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        import spans

    route_s, traced_route_s, layer_rounds, span_log = [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    errors: list[str] = []
    missed = None
    started = time.perf_counter()
    # the traced run needs a plain and a traced round, and a median needs two
    min_rounds = 2
    rounds = 0
    while True:
        round_start = time.perf_counter()
        traced = bool(args.trace) and rounds % 2 == 1
        if traced:
            tracer = spans.Tracer()
            restore = tracer.install()
        attempted += work.ops_per_round
        t = time.perf_counter()
        try:
            out = work.route(inp, rounds)
        except Exception:  # a failed round is counted, reported, and the run goes on
            out = None
            errors.append(traceback.format_exc())
        elapsed = time.perf_counter() - t
        if traced:
            restore()
        if out is None:
            failed += work.ops_per_round - len(work.untimed)
        else:
            (traced_route_s if traced else route_s).append(elapsed)
            if traced:
                layer_rounds.append(spans.round_layers(tracer.spans, tracer.counts))
                span_log.append(tracer.records())
            problems += work.check(inp, out)
            if missed is None:
                missed = work.selftest(inp, out)
        # no output outlives its round, so every round starts from the same memory
        out = None
        for name in work.untimed:
            try:
                problems += getattr(work, name)()
            except Exception as exc:
                failed += 1
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now - started + (now - round_start) > args.seconds:
            break

    if missed is None or not route_s:
        print("no round of the route completed:\n" + "\n".join(errors), file=sys.stderr)
        return 1
    summary = {
        "setup_s": setup_s,
        "route_s": route_s,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "selftests_missed": missed,
        "errors": sorted(set(errors)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        if not layer_rounds:
            print("no traced round completed:\n" + "\n".join(errors), file=sys.stderr)
            return 1
        layers = spans.summarize(layer_rounds, traced_route_s, route_s)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        if {m["name"] for m in declared} != set(layers):
            print(f"per-layer metrics {sorted(layers)} differ from BENCHMARK.json", file=sys.stderr)
            return 1
        summary["per_layer"] = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in declared}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(span_log))
        summary["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
