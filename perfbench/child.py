"""One workload call in a fresh process: ``python3 child.py <spec.json>``.

numpy is imported before the set-up clock starts; ``import plaplab`` and the
config load and problem/plan build up to the first ``run_sweep``/``solve``
entry are set-up. The timed call runs from that entry to the return of
``cli.main`` or ``run_sweep``. The output checks run after it, with every hook
removed, and count toward the failures. The result is written as JSON to the
spec's ``result`` path.
"""

import resource
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (set-up is measured with numpy already imported)


def _peak_rss_mb() -> float:
    """This process's own peak resident set size.

    Linux carries ``ru_maxrss`` across ``exec``: a child started by a larger
    process reports the parent's size. ``VmHWM`` belongs to the child's own
    address space, so it is read first.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    spec_path = Path(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = time.perf_counter()
    import plaplab
    import plaplab.cli
    import_s = time.perf_counter() - t0

    import json
    import traceback

    import hooks
    import workloads

    spec = json.loads(spec_path.read_text())
    wl = workloads.WORKLOADS[spec["workload"]]
    workdir = Path(spec["workdir"])
    inputs = wl["inputs"](spec["phase"], spec["scale"], workdir)

    tracer = hooks.Tracer(spec["run_id"])
    tracer.stop_at_entry = spec["setup_only"]
    if "useful_nodes" in wl:
        tracer.useful_nodes = wl["useful_nodes"](inputs)
    hidden = set(spec.get("hide_hooks", ()))
    chosen = hooks.OUTER_HOOKS + (hooks.INNER_HOOKS if spec["trace"] else [])
    tracer.install([(m, a + "_removed" if f"{m}:{a}" in hidden else a, s, c)
                    for m, a, s, c in chosen])

    errors = []
    outcome = None
    start = time.perf_counter()
    try:
        if wl["cli"]:
            outcome = plaplab.cli.main(inputs["argv"])
        else:
            outcome = wl["call"](inputs)
    except hooks.StopAtEntry:
        pass
    except plaplab.PlapError as err:
        errors.append(f"{type(err).__name__}: {err}")
    end = time.perf_counter()
    peak_rss_mb = _peak_rss_mb()
    tracer.uninstall()

    result = {"setup_s": None, "errors": errors}
    if tracer.first_entry is not None:
        result["setup_s"] = import_s + (tracer.first_entry - start)
    if spec["setup_only"]:
        spec_path.with_name(spec["result"]).write_text(json.dumps(result))
        return 0

    call_failed = bool(errors) or (wl["cli"] and outcome != 0) or tracer.first_entry is None
    try:
        failures, ref_err = wl["check"](inputs, outcome, tracer.fit)
    except Exception:  # a check that crashes is a failed check, reported in full
        failures, ref_err = [traceback.format_exc()], float("nan")
    out = inputs.get("out")
    output_bytes = sum(f.stat().st_size for f in out.iterdir()) if out and out.is_dir() else 0
    wall_s = end - (tracer.first_entry or start)
    steps = sum(s["steps"] for s in tracer.solves)
    node_steps = sum(s["steps"] * s["nodes"] for s in tracer.solves)
    result.update({
        "attempted": tracer.solve_calls + 1,
        "failed": int(call_failed) + int(call_failed or bool(failures)),
        "failures": failures,
        "wall_s": wall_s,
        "steps": steps,
        "node_steps": node_steps,
        "node_steps_per_s": node_steps / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ref_err": ref_err,
        "jobs": tracer.jobs,
        "largest_array_bytes": 8 * max((s["nodes"] for s in tracer.solves), default=0),
        "array_bytes": sorted({8 * s["nodes"] for s in tracer.solves}),
        "missing_hooks": tracer.missing,
    })
    if spec["trace"]:
        result["layers"] = hooks.layer_metrics(tracer, wall_s, output_bytes)
        result["trace"] = tracer.dump()
    spec_path.with_name(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
