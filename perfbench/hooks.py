"""Run-time hooks around the public names plaplab's modules call into.

A hook replaces a name *as bound in the calling module* (for example
``plaplab.evolve.gradient_arrays``, not ``plaplab.grid.gradient_arrays``), so
it sees exactly the calls that module makes. Coarse boundaries (``main``,
``run_sweep``, ``solve``, ``fit_loglog``, the writers) keep a full span each:
name, start, end, parent span and run id. Calls made on every step are folded
into ``(name, parent name) -> count, total, self`` aggregates, because a sweep
makes about 265k steps and one span per call would hold over a million
records. Parents are tracked per thread; a pool thread whose own stack is
empty takes the innermost span open on the main thread as its parent. Nothing
is written until the run ends.

A hook whose target no longer exists is recorded as missing; the metrics that
depend on it are then reported as absent, and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time


class StopAtEntry(Exception):
    """Raised by the entry hook in set-up-only runs, before any solve starts."""


# Layer hooks: (module, attribute or Class.method, span name, coarse?).
# "outer" hooks fire a handful of times per call and stay on with tracing
# off (they give the step counts and the set-up/wall boundary); "inner"
# hooks fire on every step and run only in the traced run.
OUTER_HOOKS = [
    ("plaplab.cli", "run_sweep", "run_sweep", True),
    ("plaplab", "run_sweep", "run_sweep", True),
    ("plaplab.cli", "solve", "solve", True),
    ("plaplab.harness", "solve", "solve", True),
]
INNER_HOOKS = [
    ("plaplab.cli", "main", "main", True),
    ("plaplab.harness", "fit_loglog", "fit_loglog", True),
    ("plaplab.cli", "save_field", "save_field", True),
    ("plaplab.cli", "write_rate_table", "write_rate_table", True),
    ("plaplab.cli", "write_fit_summary", "write_fit_summary", True),
    ("plaplab.evolve", "gradient_arrays", "gradient_arrays", False),
    ("plaplab.evolve", "hessian_arrays", "hessian_arrays", False),
    ("plaplab.evolve", "interior_mask", "interior_mask", False),
    ("plaplab.grid", "ScalarField.__post_init__", "field_build", False),
    ("plaplab.evolve", "rank_one_coeff_arrays", "rank_one_coeff_arrays", False),
    ("plaplab.evolve", "rank_one_coeffs", "rank_one_coeffs", False),
    ("plaplab.exact", "ExactSolution.eval_radial", "eval_radial", False),
    ("plaplab.harness", "sup_diff", "sup_diff", False),
    ("plaplab.harness", "restrict_to", "restrict_to", False),
    ("plaplab.harness", "cfl_dt", "cfl_dt", False),
]
# ``rates`` has no hook: it runs once per sweep and takes microseconds.

def _resolve(module_name: str, attr: str):
    """(owner object, final attribute name) or None when the target is gone."""
    owner = importlib.import_module(module_name)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, last, None)):
        return None
    return owner, last


class Tracer:
    """Spans, aggregates and counters of one child process's workload call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # (id, name, start, end, parent id, run id, thread)
        self.solves = []         # per solve call: dict(start, end, steps, nodes, lockstep)
        self.writes = []         # (span name, bytes)
        self.evaluated = 0       # nodes evaluated by eval_radial
        self.useful = 0          # of those, nodes whose value the solver keeps
        self.missing = []        # "module:attr" of hooks whose target is gone
        self.missing_spans = set()
        self.first_entry = None  # perf_counter at the first run_sweep/solve entry
        self.solve_calls = 0
        self.fit = None          # what run_sweep returned
        self.jobs = 0
        self.stop_at_entry = False
        self.useful_nodes = None  # callable(nodes, t) -> useful nodes, per workload
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_aggregates = []  # one dict per thread, merged when read
        self._main_stack = self._stack()
        self._restore = []

    # -- per-thread state -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            # per-thread aggregates keep the lock off the every-step path
            self._local.aggregates = {}
            with self._lock:
                self._thread_aggregates.append(self._local.aggregates)
        return stack

    @property
    def aggregates(self) -> dict:
        """(name, parent name) -> [count, total_s, self_s], over all threads."""
        merged = {}
        for per_thread in self._thread_aggregates:
            for key, (c, t, s) in per_thread.items():
                agg = merged.setdefault(key, [0, 0.0, 0.0])
                agg[0] += c
                agg[1] += t
                agg[2] += s
        return merged

    def _parent(self, stack):
        """(parent name, parent span id) for a frame about to be pushed."""
        if stack:
            top = stack[-1]
            return top[0], top[1] if top[1] is not None else top[4]
        if stack is not self._main_stack:
            for frame in reversed(self._main_stack):
                if frame[1] is not None:
                    return frame[0], frame[1]
        return None, None

    # -- installation -----------------------------------------------------------

    def install(self, hooks) -> None:
        for module_name, attr, span, coarse in hooks:
            target = _resolve(module_name, attr)
            if target is None:
                self.missing.append(f"{module_name}:{attr}")
                self.missing_spans.add(span)
                continue
            owner, name = target
            original = getattr(owner, name)
            setattr(owner, name, self._wrap(original, span, coarse))
            self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, fn, span: str, coarse: bool):
        tracer = self
        on_enter = getattr(self, f"_enter_{span}", None)
        on_return = getattr(self, f"_return_{span}", None)
        if span in _WRITERS:
            def on_return(args, kwargs, result, start, end):
                self._record_write(span, args, kwargs)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent_name, parent_id = tracer._parent(stack)
            # frame: name, span id, start, child seconds, inherited span id
            frame = [span, next(tracer._ids) if coarse else None, 0.0, 0.0, parent_id]
            if on_enter is not None:
                on_enter(args, kwargs)
            stack.append(frame)
            start = frame[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, parent_name, end, stack)
            if on_return is not None:
                on_return(args, kwargs, result, start, end)
            return result

        return wrapper

    def _close(self, frame, parent_name, end, stack) -> None:
        name, span_id, start, child_s, parent_id = frame
        dur = end - start
        if stack:
            stack[-1][3] += dur
        aggregates = self._local.aggregates
        agg = aggregates.get((name, parent_name))
        if agg is None:
            agg = aggregates[(name, parent_name)] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child_s
        if span_id is not None:
            with self._lock:
                self.spans.append((span_id, name, start, end, parent_id, self.run_id,
                                   threading.current_thread().name))

    # -- per-hook bookkeeping ---------------------------------------------------

    def _entry(self) -> None:
        if self.first_entry is None:
            self.first_entry = time.perf_counter()
            if self.stop_at_entry:
                raise StopAtEntry

    def _enter_run_sweep(self, args, kwargs) -> None:
        self.jobs = int(kwargs.get("jobs", args[1] if len(args) > 1 else 1))
        self._entry()

    def _return_run_sweep(self, args, kwargs, result, start, end) -> None:
        self.fit = result

    def _enter_solve(self, args, kwargs) -> None:
        self._entry()
        with self._lock:
            self.solve_calls += 1

    def _return_solve(self, args, kwargs, result, start, end) -> None:
        problem = args[0] if args else kwargs["problem"]
        lockstep = (args[1] if len(args) > 1 else kwargs.get("dt_override")) is not None
        nodes = 1
        for n in problem.grid.shape:
            nodes *= n
        with self._lock:
            self.solves.append({"start": start, "end": end, "steps": result.stats.steps,
                                "nodes": nodes, "lockstep": lockstep})

    def _return_eval_radial(self, args, kwargs, result, start, end) -> None:
        t = args[2] if len(args) > 2 else kwargs.get("t", 0.0)
        nodes = int(result.size)
        useful = nodes if self.useful_nodes is None else self.useful_nodes(result.shape, t)
        with self._lock:
            self.evaluated += nodes
            self.useful += useful

    def _record_write(self, span, args, kwargs) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        with self._lock:
            self.writes.append((span, os.path.getsize(path)))

    # -- output ---------------------------------------------------------------------

    def total(self, name: str, parent=...) -> tuple[int, float]:
        """(calls, seconds) of every aggregate named ``name`` (under ``parent``)."""
        calls, secs = 0, 0.0
        for (n, p), (c, t, _) in self.aggregates.items():
            if n == name and (parent is ... or p == parent):
                calls += c
                secs += t
        return calls, secs

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [dict(zip(("id", "name", "start", "end", "parent", "run_id", "thread"), s))
                      for s in sorted(self.spans)],
            "aggregates": [{"name": n, "parent": p, "count": c, "total_s": t, "self_s": s}
                           for (n, p), (c, t, s) in sorted(self.aggregates.items(),
                                                           key=lambda kv: str(kv[0]))],
            "missing_hooks": self.missing,
        }


# -- per-layer metrics ------------------------------------------------------------

_FINE_UNDER_SOLVE = ("gradient_arrays", "hessian_arrays", "interior_mask", "field_build",
                     "rank_one_coeff_arrays", "rank_one_coeffs", "eval_radial")
_WRITERS = ("save_field", "write_rate_table", "write_fit_summary")

# metric name -> (unit, spans whose hooks it needs)
LAYER_METRICS = {
    "evolve.steps": ("count", ("solve",)),
    "evolve.node_steps": ("count", ("solve",)),
    "evolve.us_per_step": ("us", ("solve",)),
    "evolve.self_us_per_step": ("us", ("solve",) + _FINE_UNDER_SOLVE),
    "grid.stencil_us_per_step": ("us", ("solve", "gradient_arrays", "hessian_arrays")),
    "grid.stencil_calls": ("count", ("gradient_arrays", "hessian_arrays")),
    "grid.field_builds": ("count", ("field_build",)),
    "grid.field_us_per_step": ("us", ("solve", "field_build")),
    "grid.mask_builds": ("count", ("interior_mask",)),
    "grid.write_s": ("s", ("save_field",)),
    "grid.write_bytes": ("bytes", ("save_field",)),
    "operators.coeff_us_per_step": ("us", ("solve", "rank_one_coeff_arrays", "rank_one_coeffs")),
    "operators.coeff_calls": ("count", ("rank_one_coeff_arrays", "rank_one_coeffs")),
    "exact.eval_us_per_step": ("us", ("solve", "eval_radial")),
    "exact.useful_node_ratio": ("ratio", ("eval_radial",)),
    "harness.member_s": ("s", ("solve",)),
    "harness.member_us_per_step": ("us", ("solve",)),
    "harness.pool_overlap": ("ratio", ("solve",)),
    "harness.floor_s": ("s", ("solve",)),
    "harness.floor_step_share": ("ratio", ("solve",)),
    "harness.floor_time_share": ("ratio", ("solve", "run_sweep")),
    "harness.gap_s": ("s", ("sup_diff", "restrict_to")),
    "harness.fit_s": ("s", ("fit_loglog",)),
    "harness.cfl_probe_s": ("s", ("cfl_dt",)),
    "harness.useful_member_ratio": ("ratio", ("run_sweep",)),
    "cli.config_s": ("s", ("main", "run_sweep", "solve")),
    "cli.write_s": ("s", _WRITERS),
    "cli.output_bytes": ("bytes", ()),
    "cli.jobs": ("count", ("run_sweep",)),
    "trace.wall_s": ("s", ()),
}


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 where the layer never ran (den = 0)."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, output_bytes: int) -> dict:
    """Per-layer values of one traced call; None marks a metric whose hook is gone.

    Times per step divide by every step of the call, the floor solve included.
    """
    solves = tracer.solves
    steps = sum(s["steps"] for s in solves)
    members = [s for s in solves if s["lockstep"]]
    swept = tracer.jobs > 0  # run_sweep ran; a solve outside it is not a floor solve
    floors = [s for s in solves if not s["lockstep"]] if swept else []
    member_s = sum(s["end"] - s["start"] for s in members)
    member_wall = (max(s["end"] for s in members) - min(s["start"] for s in members)
                   if members else 0.0)
    floor_s = sum(s["end"] - s["start"] for s in floors)
    solve_s = sum(s["end"] - s["start"] for s in solves)
    fine_in_solve = sum(tracer.total(n, "solve")[1] for n in _FINE_UNDER_SOLVE)
    stencil_calls = sum(tracer.total(n)[0] for n in ("gradient_arrays", "hessian_arrays"))
    stencil_s = sum(tracer.total(n)[1] for n in ("gradient_arrays", "hessian_arrays"))
    coeff_calls = sum(tracer.total(n)[0] for n in ("rank_one_coeff_arrays", "rank_one_coeffs"))
    coeff_s = sum(tracer.total(n)[1] for n in ("rank_one_coeff_arrays", "rank_one_coeffs"))
    field_calls, field_s = tracer.total("field_build")
    _, sweep_s = tracer.total("run_sweep")
    main_start = min((s[2] for s in tracer.spans if s[1] == "main"), default=None)
    fit = tracer.fit
    us = 1e6
    values = {
        "evolve.steps": steps,
        "evolve.node_steps": sum(s["steps"] * s["nodes"] for s in solves),
        "evolve.us_per_step": us * _ratio(solve_s, steps),
        "evolve.self_us_per_step": us * _ratio(solve_s - fine_in_solve, steps),
        "grid.stencil_us_per_step": us * _ratio(stencil_s, steps),
        "grid.stencil_calls": stencil_calls,
        "grid.field_builds": field_calls,
        "grid.field_us_per_step": us * _ratio(field_s, steps),
        "grid.mask_builds": tracer.total("interior_mask")[0],
        "grid.write_s": tracer.total("save_field")[1],
        "grid.write_bytes": sum(b for n, b in tracer.writes if n == "save_field"),
        "operators.coeff_us_per_step": us * _ratio(coeff_s, steps),
        "operators.coeff_calls": coeff_calls,
        "exact.eval_us_per_step": us * _ratio(tracer.total("eval_radial")[1], steps),
        "exact.useful_node_ratio": _ratio(tracer.useful, tracer.evaluated),
        "harness.member_s": member_s,
        "harness.member_us_per_step": us * _ratio(member_s, sum(s["steps"] for s in members)),
        "harness.pool_overlap": _ratio(member_s, member_wall),
        "harness.floor_s": floor_s,
        "harness.floor_step_share": _ratio(sum(s["steps"] for s in floors), steps),
        "harness.floor_time_share": _ratio(floor_s, sweep_s),
        "harness.gap_s": tracer.total("sup_diff")[1] + tracer.total("restrict_to")[1],
        "harness.fit_s": tracer.total("fit_loglog")[1],
        "harness.cfl_probe_s": tracer.total("cfl_dt")[1],
        "harness.useful_member_ratio": (_ratio(sum(not e for e in fit.excluded), len(fit.excluded))
                                        if fit is not None else 0.0),
        "cli.config_s": (tracer.first_entry - main_start
                         if main_start is not None and tracer.first_entry else 0.0),
        "cli.write_s": sum(tracer.total(n)[1] for n in _WRITERS),
        "cli.output_bytes": output_bytes,
        "cli.jobs": tracer.jobs,
        "trace.wall_s": wall_s,
    }
    for name, (_, needs) in LAYER_METRICS.items():
        if tracer.missing_spans.intersection(needs):
            values[name] = None
    return values
