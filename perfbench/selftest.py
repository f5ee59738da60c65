"""Fast self-test of the benchmark's own code.

    python3 perfbench/selftest.py

Runs every workload shrunk (``scale="tiny"``) untraced and traced, through
the same child processes and aggregation as a real run, and checks that:

- ``BENCHMARK.json`` names workloads the code knows, with the reasons given in
  ``workloads.WHY``, and exactly the metrics and units the code reports;
- every metric is printed by name with its unit and a numeric value;
- the output checks pass (nothing failed);
- hooks whose target is gone make their metrics absent instead of an error;
- without plaplab's sources the benchmark exits non-zero and prints nothing.

Exits 0 when all hold; prints each problem found otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import hooks
import run
import workloads

GONE = ("plaplab.evolve:gradient_arrays", "plaplab.evolve:hessian_arrays",
        "plaplab.evolve:rank_one_coeff_arrays")
ABSENT = {"grid.stencil_us_per_step", "grid.stencil_calls", "evolve.self_us_per_step",
          "operators.coeff_us_per_step", "operators.coeff_calls"}


def _check_line(line: str, expected: dict, absent=frozenset()) -> list:
    problems = []
    out = json.loads(line)
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(out)}")
    if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
        problems.append(f"correct = {out['correct']}, failed = {out['failed']} "
                        f"of {out['attempted']}")
    if set(out["metrics"]) != set(expected):
        problems.append(f"metrics {sorted(set(out['metrics']) ^ set(expected))} differ")
    for name, unit in expected.items():
        m = out["metrics"].get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        value = m.get("value")
        if name in absent:
            if value is not None:
                problems.append(f"{name}: {value} although its hook is gone")
        elif not isinstance(value, (int, float)):
            problems.append(f"{name}: value {value!r} is not a number")
    return problems


def main() -> int:
    problems = []
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        if workloads.WHY.get(w["name"]) != w["why"]:
            problems.append(f"BENCHMARK.json workload {w['name']}: why differs from workloads.WHY")
    if {m["name"]: m["unit"] for m in bench["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    per_layer = {name: unit for name, (unit, _) in hooks.LAYER_METRICS.items()}
    if {m["name"]: m["unit"] for m in bench["per_layer"]} != per_layer:
        problems.append("BENCHMARK.json per_layer differs from hooks.LAYER_METRICS")

    for wl in workloads.WORKLOADS:
        for trace, expected in ((False, run.END_TO_END), (True, per_layer)):
            record = run.run_workload(wl, 1, 0.1, trace, scale="tiny", setup_samples=2)
            problems += [f"{wl} trace={int(trace)}: {p}"
                         for p in _check_line(run.summary_line(record), expected)]
    record = run.run_workload("sweep-eps-curvature-1d", 1, 0.1, True, scale="tiny",
                              hide_hooks=GONE, setup_samples=2)
    problems += [f"hooks gone: {p}"
                 for p in _check_line(run.summary_line(record), per_layer, ABSENT)]

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                           "solve-barenblatt-2d", "--seed", "0", "--seconds", "1"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout:
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
