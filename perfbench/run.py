"""plaplab's benchmark: one workload, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every workload call runs in a fresh child
process (``child.py``), one process at a time, through plaplab's public entry
points. A run keeps starting calls while the next one is expected to end
within ``--seconds`` (at least one call), then tops set-up samples up to
``SETUP_SAMPLES`` with set-up-only children, and reports medians over them.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` every call is traced and it holds the per-layer
metrics; a per-layer metric whose hook target no longer exists in plaplab is
printed with the value null (absent). The failure share is
``failed / attempted`` in that line: the operations are the solves attempted
plus one output check per call.

Every run also writes ``perfbench/results/<workload>-seed<N>-trace<T>.json``
with every sample, the failure share, the machine and workload facts and, for
traced runs, the spans and per-step aggregates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "_work"

SETUP_SAMPLES = 11    # set-up is measured at least this often per run
RUN_LIMIT_S = 170.0   # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "node_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ref_err": "abs",
}


def machine_facts() -> dict:
    import numpy

    caches = {}
    # glibc sysconf names: _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    for level, code in (("l1d_bytes", 188), ("l2_bytes", 191), ("l3_bytes", 194)):
        try:
            caches[level] = os.sysconf(code)
        except (ValueError, OSError):
            caches[level] = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": (sorted(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity") else None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "caches": caches,
    }


def _child(spec: dict, timeout: float) -> dict | None:
    """Run one child to completion; its result, or None if it produced none."""
    workdir = Path(spec["workdir"])
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    # plaplab's bytecode is cached in the checkout, as it is for a user
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and waits for the child
        return None
    result_path = workdir / spec["result"]
    if proc.returncode != 0 or not result_path.is_file():
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(result_path.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", hide_hooks=(), setup_samples=SETUP_SAMPLES) -> dict:
    """Measure one workload; returns the full result record."""
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; one of {sorted(workloads.WORKLOADS)}")
    began = time.monotonic()
    phase = workloads.phase_for(seed)
    workdir = WORK / f"{workload}-{os.getpid()}"

    def spec(index: int, setup_only: bool) -> dict:
        return {"workload": workload, "phase": phase, "scale": scale, "trace": trace,
                "setup_only": setup_only, "run_id": f"{workload}/{seed}/{index}",
                "workdir": str(workdir), "result": "result.json",
                "hide_hooks": list(hide_hooks)}

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - began)

    # warm-up: compiles the package's bytecode so that set-up times repeat
    _child(spec(-1, True), remaining())
    calls, setups, lost = [], [], 0
    loop_start = time.monotonic()
    while True:
        result = _child(spec(len(calls), False), remaining())
        if result is None:
            lost += 1
        else:
            calls.append(result)
            if result["setup_s"] is not None:
                setups.append(result["setup_s"])
        elapsed = time.monotonic() - loop_start
        per_call = elapsed / (len(calls) + lost)
        if result is None or elapsed + per_call > min(seconds, remaining() - 10.0):
            break
    while len(setups) < setup_samples and remaining() > 5.0:
        result = _child(spec(-1, True), remaining())
        if result is None or result["setup_s"] is None:
            break
        setups.append(result["setup_s"])
    shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c["attempted"] for c in calls) + lost
    failed = sum(c["failed"] for c in calls) + lost
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "why": workloads.WHY[workload],
        "phase": phase,
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "correct": bool(calls) and failed == 0,
        "calls": len(calls), "lost_calls": lost, "setup_samples_s": setups,
        "facts": machine_facts(),
        "samples": calls,
    }
    if calls:
        largest = max(c["largest_array_bytes"] for c in calls)
        record["facts"].update({
            "seed": seed,
            "jobs": calls[0]["jobs"],
            "array_bytes": calls[0]["array_bytes"],
            "working_set": (
                f"largest field array {largest} bytes against an L2 of "
                f"{record['facts']['caches']['l2_bytes']} bytes: every working set fits in "
                "L2, so no bandwidth metric is reported"),
        })
    if trace:
        import hooks

        layers = {}
        for name, (unit, _) in hooks.LAYER_METRICS.items():
            vals = [c["layers"][name] for c in calls]
            value = None if not vals or None in vals else statistics.median(vals)
            layers[name] = {"value": value, "unit": unit}
        record["metrics"] = layers
        record["layer_map"] = workloads.LAYER_MAP
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            vals = setups if name == "setup_s" else [c[name] for c in calls]
            metrics[name] = {"value": statistics.median(vals) if vals else None, "unit": unit,
                             "samples": len(vals)}
        record["metrics"] = metrics
    return record


def summary_line(record: dict) -> str:
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in record["metrics"].items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "plaplab" / "__init__.py").is_file():
        print(f"error: no plaplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(summary_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
