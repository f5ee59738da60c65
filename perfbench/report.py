"""Every workload, untraced then traced, in one command.

    python3 perfbench/report.py [--seed N] [--seconds S] [--label L]

Prints, for each workload (the ones ``BENCHMARK.json`` gates and the
ungated ``sweep-p-normalized-1d``), the six end-to-end metrics with their
units and sample counts (the five of ``BENCHMARK.json`` plus
``failed_share``), then the per-layer metrics of the traced run and the
tracing overhead: the traced call's wall time minus the untraced median
``wall_s``. Writes everything, with the machine facts, to
``perfbench/results/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):d}"
    return f"{value:.6g}"


def main(argv=None) -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--label", default="report")
    args = ap.parse_args(argv)

    report = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
              "facts": run.machine_facts(), "workloads": {}}
    gated = {w["name"] for w in bench["workloads"]}
    for wl in workloads.WORKLOADS:
        plain = run.run_workload(wl, args.seed, args.seconds, trace=False)
        traced = run.run_workload(wl, args.seed, args.seconds, trace=True)
        e2e = dict(plain["metrics"])
        e2e["failed_share"] = {"value": plain["failed_share"], "unit": "ratio",
                               "samples": plain["attempted"]}
        wall = e2e["wall_s"]["value"]
        traced_wall = traced["metrics"]["trace.wall_s"]["value"]
        overhead = None if wall is None or traced_wall is None else traced_wall - wall
        print(f"== {wl} (seed {args.seed}, gated = {wl in gated}, "
              f"correct = {plain['correct'] and traced['correct']})")
        for name, m in e2e.items():
            print(f"  {name:<28} {_fmt(m['value']):>14} {m['unit']:<6} n = {m['samples']}")
        print(f"  {'tracing overhead':<28} {_fmt(overhead):>14} s")
        for name, m in traced["metrics"].items():
            print(f"    {name:<30} {_fmt(m['value']):>14} {m['unit']}")
        report["workloads"][wl] = {
            "why": plain["why"], "gated": wl in gated,
            "end_to_end": e2e, "per_layer": traced["metrics"],
            "tracing_overhead_s": overhead, "facts": plain["facts"],
            "layer_map": traced["layer_map"],
            "correct": plain["correct"] and traced["correct"],
        }
    run.RESULTS.mkdir(exist_ok=True)
    out = run.RESULTS / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
