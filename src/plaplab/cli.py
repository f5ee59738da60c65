"""Command-line front end.

Commands: ``solve``, ``rate-sweep``, ``verify-exact``, ``rate-table``,
``check-c1``. Experiment configuration is a versioned JSON document that is
validated in full (unknown keys rejected) before any computation; a section
that builds a dataclass takes that dataclass's fields as its keys. Each config
value and each flag goes to its owner, the dataclass, enumeration or function
that checks it. Exit codes: 0 success, 1 numerical failure, 2 configuration
or validation error (any ``ValueError``), a verify-exact radius outside the
closed form's domain among them. ``main`` alone reports a raised error, as
one ``error:`` line (exit 2) or one ``numerical failure:`` line (exit 1) on
stderr; a failed check (verify-exact, check-c1) prints its result and exits
1. The ``PLAP_LOG`` environment variable sets the log level: DEBUG, INFO,
WARNING (the default), ERROR or CRITICAL, in any case; another value is a
configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import PlapError
from .evolve import Problem, SolverControls, solve
from .exact import ExactSolution, SolutionId, residual
from .grid import Boundary, GridSpec, save_field, save_json, whole_number
from .harness import (
    SweepPlan,
    compare_theory,
    run_sweep,
    write_fit_summary,
    write_rate_table,
)
from .operators import (
    C1Params,
    Family,
    OperatorSpec,
    PerturbationAxis,
    c1_certify,
)
from .rates import FamilyCase, family_rate

SCHEMA_VERSION = 1
_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


class ConfigError(ValueError):
    pass


# -- config validation ---------------------------------------------------------


def _check_keys(node: dict, allowed, where: str, required: tuple = ()):
    """Reject a ``node`` that is no object, has a key not in ``allowed`` or
    lacks one in ``required``. A section that builds a dataclass allows its
    fields (``_field_names``): the dataclass owns the key list."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(node).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = [k for k in required if k not in node]
    if missing:
        raise ConfigError(f"{where} needs {missing}")


def _field_names(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


def _number(value, where: str) -> float:
    """A JSON int or float as a float; a string, a bool or anything else is a
    ``ConfigError``, not a coercion. An int beyond the largest float reads as
    +-inf, as JSON's 1e400 does, for the owner's finite check to reject."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if abs(value) > sys.float_info.max:  # float() raises OverflowError on such an int
        return math.inf if value > 0 else -math.inf
    return float(value)


def _list(value, where: str) -> list:
    if isinstance(value, list):
        return value
    raise ConfigError(f"{where} must be a list, got {value!r}")


def _numbers(value, where: str) -> tuple:
    return tuple(_number(v, where) for v in _list(value, where))


def _member(table: dict, value, what: str):
    """The entry of ``table`` that the JSON string ``value`` names."""
    if isinstance(value, str) and value in table:
        return table[value]
    raise ConfigError(f"unknown {what} {value!r}")


def _load_config(path: Path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    _check_keys(cfg, {"schema_version", "problem", "sweep"}, "config root",
                required=("problem",))
    if isinstance(version := cfg.get("schema_version"), bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    return cfg


_FAMILIES = {f.value: f for f in Family}
_BOUNDARIES = {b.value: b for b in Boundary}


def _build_operator(node: dict) -> OperatorSpec:
    _check_keys(node, _field_names(OperatorSpec), "problem.operator", required=("family",))
    kwargs = {k: _number(v, f"problem.operator.{k}") for k, v in node.items() if k != "family"}
    return OperatorSpec(_member(_FAMILIES, node["family"], "operator family"), **kwargs)


def _build_grid(node: dict) -> GridSpec:
    keys = _field_names(GridSpec)
    _check_keys(node, keys, "problem.grid", required=keys)
    where = "problem.grid.extent"
    extent = tuple(_numbers(e, where) for e in _list(node["extent"], where))
    return GridSpec(node["dim"], extent, _numbers(node["resolution"], "problem.grid.resolution"),
                    _member(_BOUNDARIES, node["boundary"], "boundary"))


def _build_data(node: dict, grid: GridSpec):
    """Return data(spec) -> (initial, dirichlet) for a member's operator spec.

    Each kind defines one space-time trace u(x..., t): the Dirichlet data
    (None on periodic grids), and at t = 0 the initial data. Only
    ``barenblatt`` reads the spec, for its exponent p.
    """
    if not isinstance(node, dict):
        raise ConfigError("problem.data must be an object")
    kind = node.get("kind")
    if kind == "constant":
        _check_keys(node, {"kind", "value"}, "problem.data", required=("value",))
        v = _number(node["value"], "problem.data.value")

        def trace_for(spec):
            return lambda *coords_t: np.full_like(np.asarray(coords_t[0], float), v)

    elif kind == "sinusoid":
        _check_keys(node, {"kind", "amplitude", "wavenumber", "phase", "offset"},
                    "problem.data")
        amp, phase, off = (_number(node.get(k, d), f"problem.data.{k}")
                           for k, d in (("amplitude", 1.0), ("phase", 0.0), ("offset", 0.0)))
        wn = node.get("wavenumber", 1.0)
        ks = [_number(w, "problem.data.wavenumber")
              for w in (wn if isinstance(wn, list) else [wn] * grid.dim)]
        if len(ks) != grid.dim:
            raise ConfigError(f"problem.data.wavenumber needs one entry per axis "
                              f"({grid.dim}), got {wn}")

        def trace(*coords_t):
            out = amp * np.sin(ks[0] * np.asarray(coords_t[0], float) + phase)
            for k, c in zip(ks[1:], coords_t[1:-1]):
                out = out * np.sin(k * np.asarray(c, float))
            return off + out

        def trace_for(spec):
            return trace

    elif kind == "barenblatt":
        _check_keys(node, {"kind", "A", "time_offset"}, "problem.data")
        A = _number(node.get("A", 1.0), "problem.data.A")
        t0 = _number(node.get("time_offset", 1.0), "problem.data.time_offset")

        def trace_for(spec):
            sol = ExactSolution(SolutionId.BARENBLATT, p=spec.p, n=grid.dim, A=A)
            return lambda *coords_t: sol.eval_radial(_radius(coords_t[:-1]), t0 + coords_t[-1])

    else:
        raise ConfigError(f"unknown data kind {kind!r}")

    def data(spec: OperatorSpec):
        trace = trace_for(spec)
        dirichlet = trace if grid.boundary is Boundary.DIRICHLET else None
        return (lambda *coords: trace(*coords, 0.0)), dirichlet

    return data


def _radius(coords) -> np.ndarray:
    r2 = np.asarray(coords[0], float) ** 2
    for c in coords[1:]:
        r2 = r2 + np.asarray(c, float) ** 2
    return np.sqrt(r2)


def _build_controls(node: dict) -> SolverControls:
    _check_keys(node, _field_names(SolverControls), "problem.controls")
    kwargs = {}
    if "snapshot_times" in node:
        kwargs["snapshot_times"] = _numbers(node["snapshot_times"],
                                            "problem.controls.snapshot_times")
    if node.get("eps_num") is not None:
        kwargs["eps_num"] = _number(node["eps_num"], "problem.controls.eps_num")
    if "max_steps" in node:  # SolverControls checks >= 1
        kwargs["max_steps"] = whole_number(node["max_steps"], "problem.controls.max_steps")
    return SolverControls(**kwargs)


def _build_problem(node: dict):
    _check_keys(node, {"operator", "grid", "data", "horizon", "controls"}, "problem",
                required=("operator", "grid", "data", "horizon"))
    spec = _build_operator(node["operator"])
    grid = _build_grid(node["grid"])
    data = _build_data(node["data"], grid)
    initial, dirichlet = data(spec)
    controls = _build_controls(node.get("controls", {}))
    problem = Problem(spec=spec, grid=grid, initial=initial,
                      T=_number(node["horizon"], "problem.horizon"),
                      controls=controls, dirichlet=dirichlet)
    return problem, data


_AXES = {a.value: a for a in PerturbationAxis}
_CASES = {c.value.replace("_", "-"): c for c in FamilyCase}
# family_rate's optional keyword parameters: rate-table's flags, and with the
# case and theta sweep.theory's keys
_RATE_PARAMS = tuple(family_rate.__kwdefaults__)
_THEORY_KEYS = ("case", "theta", *_RATE_PARAMS)


def _build_sweep(cfg: dict, problem: Problem, data):
    node = cfg.get("sweep")
    if node is None:
        raise ConfigError("config needs a 'sweep' section for rate-sweep")
    _check_keys(node, {"axis", "values", "gap_times", "theory", "margin"}, "sweep")
    theory = None
    if "theory" in node:
        tnode = node["theory"]
        _check_keys(tnode, _THEORY_KEYS, "sweep.theory", required=("case", "theta"))
        given = {k: _number(v, f"sweep.theory.{k}") for k, v in tnode.items() if k != "case"}
        theory = family_rate(_member(_CASES, tnode["case"], "theory case"), **given)
    margin = _number(node.get("margin", 0.1), "sweep.margin")
    if not (math.isfinite(margin) and margin > 0):
        raise ConfigError(f"sweep.margin must be finite and > 0, got {margin}")
    plan = SweepPlan(
        base=problem,
        axis=_member(_AXES, node.get("axis"), "sweep axis"),
        values=_numbers(node.get("values", []), "sweep.values"),
        gap_times=_numbers(node.get("gap_times", []), "sweep.gap_times"),
        theory=theory,
        data_for_spec=data,
    )
    return plan, margin


# -- commands -------------------------------------------------------------------


def _out_dir(args) -> Path:
    """The ``--out`` directory, made when a command has its results to write:
    a run that fails leaves none behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_snapshot_names(problem: Problem) -> None:
    """Each capture is written to ``<stem>_t{time:g}.csv``, and ``:g`` keeps six
    significant digits: two capture times with one name are a ``ConfigError``,
    not a snapshot overwritten."""
    seen = {}
    for t in problem.captures:
        name = f"{t:g}"
        if name in seen:
            raise ConfigError(f"snapshot times {seen[name]!r} and {t!r} would share the "
                              f"file name _t{name}.csv")
        seen[name] = t


def cmd_solve(args) -> int:
    cfg = _load_config(Path(args.config))
    problem, _ = _build_problem(cfg["problem"])
    _check_snapshot_names(problem)
    result = solve(problem)
    out, run_id = _out_dir(args), Path(args.config).stem
    for snap in result.snapshots:
        save_field(snap, out / f"{run_id}_t{snap.time:g}.csv")
    save_json(asdict(result.stats) | {"snapshots": [snap.time for snap in result.snapshots]},
              out / f"{run_id}_stats.json")
    print(f"wrote {len(result.snapshots)} snapshot(s) to {out}")
    return 0


def cmd_rate_sweep(args) -> int:
    cfg = _load_config(Path(args.config))
    problem, data = _build_problem(cfg["problem"])
    plan, margin = _build_sweep(cfg, problem, data)
    fit = run_sweep(plan)
    consistent = None
    if fit.theory_nu is not None:
        consistent = compare_theory(fit, margin).consistent
    out, run_id = _out_dir(args), Path(args.config).stem
    write_rate_table(fit, out / f"{run_id}_rates.csv")
    write_fit_summary(fit, out / f"{run_id}_fit.json", consistent=consistent)
    print(f"slope = {fit.slope:.6g}  r^2 = {fit.r_squared:.6g}  "
          f"floor = {fit.error_floor:.3g}  consistent = {consistent}")
    return 0


_SOLUTIONS = {s.value.replace("_", "-"): s for s in SolutionId}


def cmd_verify_exact(args) -> int:
    # ExactSolution checks its fields: p, and n, A and c where their flags are given
    for flag in ("t", "r_min", "r_max", "clearance", "tol"):
        if not math.isfinite(value := getattr(args, flag)):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite, got {value}")
    if args.radii < 1:
        raise ValueError(f"--radii must be >= 1, got {args.radii}")
    given = {k: v for k, v in vars(args).items() if k in _field_names(ExactSolution)}
    sol = ExactSolution(_SOLUTIONS[args.solution], **given)
    clearance = min(args.clearance, args.r_min / 2) if args.r_min > 0 else args.clearance
    # np.max keeps a NaN residual, which then fails the check
    worst = float(np.max(np.abs([residual(sol, r, t=args.t, mode="analytic", clearance=clearance)
                                 for r in np.linspace(args.r_min, args.r_max, args.radii)])))
    print(f"max |residual| over {args.radii} radii in [{args.r_min:g}, {args.r_max:g}]: "
          f"{worst:.3e}")
    if args.out:
        save_json({"solution": args.solution, "p": args.p, "n": sol.n,
                   "max_residual": worst, "tol": args.tol},
                  _out_dir(args) / f"verify_{args.solution}.json")
    return 0 if worst <= args.tol else 1


def cmd_rate_table(args) -> int:
    case = _CASES[args.case]
    given = {k: getattr(args, k) for k in _RATE_PARAMS}
    rows = []
    for theta in args.theta:
        for pp in args.p_prime or [None]:
            rows.append((theta, pp, family_rate(case, theta=theta, **given | {"p_prime": pp})))
    print(f"{'theta':>8} {'p_prime':>8} {'nu':>12} {'kind':>9}")
    for theta, pp, pred in rows:
        kind = "attained" if pred.attained else "open sup"
        pp_s = f"{pp:g}" if pp is not None else "-"
        print(f"{theta:8g} {pp_s:>8} {pred.nu_sup:12.9g} {kind:>9}")
    return 0


# check-c1's --family names, and the OperatorSpec field that each of --q,
# --q-prime and --a sets; a field whose flag is not given keeps its default
_C1_FAMILIES = {"normalized": Family.NORMALIZED, "variational": Family.VARIATIONAL,
                "general_pq": Family.GENERAL_PQ, "regularized_pq": Family.REGULARIZED_PQ,
                "biased": Family.BIASED_INFINITY_REGULARIZED}
_C1_FIELDS = {"q": "p", "q_prime": "p_prime", "a": "a"}


def cmd_check_c1(args) -> int:
    given = {_C1_FIELDS[k]: v for k, v in vars(args).items() if k in _C1_FIELDS}
    base = OperatorSpec(_C1_FAMILIES[args.family], **given)
    axis = _AXES[args.axis]
    mags = np.geomspace(args.xi_min, args.xi_max, args.xi_count)
    candidate = C1Params(alpha=args.alpha, beta=args.beta, c_A=args.c_A, k=args.k)
    report = c1_certify(base, axis, args.eps, mags, candidate, dim=args.dim)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict}: max ratio {report.max_ratio:.6g} (c_A = {candidate.c_A:g}) "
          f"at |xi| = {np.linalg.norm(report.worst_xi):.3g}, eps = {report.worst_eps:g}")
    return 0 if report.passed else 1


# -- entry point ------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="plaplab",
                                  description="p-Laplace stability laboratory")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    for name, fn, text in (("solve", cmd_solve, "integrate one problem, write snapshots"),
                           ("rate-sweep", cmd_rate_sweep,
                            "run a perturbation sweep and fit the exponent")):
        pf = sub.add_parser(name, help=text)
        pf.add_argument("--config", required=True)
        pf.add_argument("--out", default="out")
        pf.set_defaults(fn=fn)

    pv = sub.add_parser("verify-exact", help="residual check of a closed-form solution")
    pv.add_argument("--solution", required=True, choices=sorted(_SOLUTIONS))
    pv.add_argument("--p", type=float, required=True)
    pv.add_argument("--n", type=int, default=argparse.SUPPRESS)
    pv.add_argument("--A", type=float, default=argparse.SUPPRESS)
    pv.add_argument("--c", type=float, default=argparse.SUPPRESS)
    pv.add_argument("--t", type=float, default=1.0)
    pv.add_argument("--radii", type=int, default=100)
    pv.add_argument("--r-min", type=float, default=0.01)
    pv.add_argument("--r-max", type=float, default=1.0)
    pv.add_argument("--clearance", type=float, default=1e-3)
    pv.add_argument("--tol", type=float, default=1e-10)
    pv.add_argument("--out", default=None)
    pv.set_defaults(fn=cmd_verify_exact)

    pt = sub.add_parser("rate-table", help="print theoretical exponents for a case")
    pt.add_argument("--case", required=True, choices=sorted(_CASES))
    pt.add_argument("--theta", type=float, nargs="+", required=True)
    for key in _RATE_PARAMS:  # --p-prime takes several values, one row each
        pt.add_argument("--" + key.replace("_", "-"), type=float,
                        nargs="*" if key == "p_prime" else None)
    pt.set_defaults(fn=cmd_rate_table)

    pc = sub.add_parser("check-c1", help="certify a closeness envelope over a xi grid")
    pc.add_argument("--family", required=True, choices=list(_C1_FAMILIES))
    for flag in _C1_FIELDS:
        pc.add_argument("--" + flag.replace("_", "-"), type=float, default=argparse.SUPPRESS)
    pc.add_argument("--axis", required=True, choices=sorted(_AXES))
    pc.add_argument("--eps", type=float, nargs="+", required=True)
    pc.add_argument("--xi-min", type=float, default=1e-3)
    pc.add_argument("--xi-max", type=float, default=1e3)
    pc.add_argument("--xi-count", type=int, default=25)
    pc.add_argument("--alpha", type=float, required=True)
    pc.add_argument("--beta", type=float, required=True)
    pc.add_argument("--c-A", dest="c_A", type=float, required=True)
    pc.add_argument("--k", type=float, default=4.0)
    pc.add_argument("--dim", type=int, default=2)
    pc.set_defaults(fn=cmd_check_c1)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        level = os.environ.get("PLAP_LOG", "WARNING")
        if level.upper() not in _LOG_LEVELS:  # before any work
            raise ConfigError(f"PLAP_LOG must be one of {', '.join(_LOG_LEVELS)}, got {level!r}")
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
        return args.fn(args)
    # ConfigError included, and a radius outside a closed form's domain (verify-exact)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except PlapError as err:  # HarnessError included
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
