"""Command-line front end.

Commands: ``solve``, ``rate-sweep``, ``verify-exact``, ``rate-table``,
``check-c1``. Experiment configuration is a versioned JSON document that is
validated in full (unknown keys rejected) before any computation. Exit codes:
0 success, 1 numerical failure, 2 configuration or validation error. The
``PLAP_LOG`` environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import PlapError
from .evolve import Problem, SolverControls, solve
from .exact import ExactSolution, SolutionId, residual
from .grid import Boundary, GridSpec, save_field
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

logger = logging.getLogger("plaplab")

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


# -- config validation ---------------------------------------------------------


def _check_keys(node: dict, allowed: set, where: str, required: tuple = ()):
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = [k for k in required if k not in node]
    if missing:
        raise ConfigError(f"{where} needs {missing}")


def _from_config(build, *args):
    """``build(*args)``, with a config value of the wrong JSON type (a number
    where a list belongs, say) reported as a ``ConfigError``."""
    try:
        return build(*args)
    except TypeError as err:
        raise ConfigError(f"config value of the wrong type: {err}") from err


def _number(value, where: str) -> float:
    """A JSON int or float as a float; a string, a bool or anything else is a
    ``ConfigError``, not a coercion."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{where} must be a number, got {value!r}")


def _load_config(path: Path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    _check_keys(cfg, {"schema_version", "problem", "sweep"}, "config root",
                required=("problem",))
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    return cfg


_FAMILIES = {f.value: f for f in Family}


def _build_operator(node: dict) -> OperatorSpec:
    _check_keys(node, {"family", "p", "p_prime", "eps", "eps1", "eps2", "a"},
                "problem.operator", required=("family",))
    fam = node.get("family")
    if fam not in _FAMILIES:
        raise ConfigError(f"unknown operator family {fam!r}")
    kwargs = {k: _number(v, f"problem.operator.{k}") for k, v in node.items() if k != "family"}
    return OperatorSpec(_FAMILIES[fam], **kwargs)


def _build_grid(node: dict) -> GridSpec:
    keys = ("dim", "extent", "resolution", "boundary")
    _check_keys(node, set(keys), "problem.grid", required=keys)
    try:
        boundary = Boundary(node["boundary"])
    except ValueError as err:
        raise ConfigError(f"bad boundary: {err}") from err
    extent = tuple(tuple(_number(x, "problem.grid.extent") for x in e) for e in node["extent"])
    return GridSpec(node["dim"], extent, tuple(node["resolution"]), boundary)


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
    _check_keys(node, {"snapshot_times", "eps_num", "max_steps"}, "problem.controls")
    kwargs = {}
    if "snapshot_times" in node:
        kwargs["snapshot_times"] = tuple(_number(t, "problem.controls.snapshot_times")
                                         for t in node["snapshot_times"])
    if node.get("eps_num") is not None:
        kwargs["eps_num"] = _number(node["eps_num"], "problem.controls.eps_num")
    if "max_steps" in node:
        steps = node["max_steps"]  # a whole number; SolverControls checks >= 1
        if not (type(steps) is int or (type(steps) is float and steps.is_integer())):
            raise ConfigError(f"problem.controls.max_steps must be a whole number, got {steps!r}")
        kwargs["max_steps"] = int(steps)
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


def _build_sweep(cfg: dict, problem: Problem, data):
    node = cfg.get("sweep")
    if node is None:
        raise ConfigError("config needs a 'sweep' section for rate-sweep")
    _check_keys(node, {"axis", "values", "gap_times", "theory", "margin"}, "sweep")
    axis = _AXES.get(node.get("axis"))
    if axis is None:
        raise ConfigError(f"unknown sweep axis {node.get('axis')!r}")
    values = tuple(_number(v, "sweep.values") for v in node.get("values", ()))
    theory = None
    if "theory" in node:
        tnode = node["theory"]
        _check_keys(tnode, {"case", "theta", "p", "q", "p_prime", "q_prime", "m"},
                    "sweep.theory", required=("case", "theta"))
        case = _CASES.get(tnode.get("case"))
        if case is None:
            raise ConfigError(f"unknown theory case {tnode.get('case')!r}")
        given = {k: _number(v, f"sweep.theory.{k}") for k, v in tnode.items()
                 if k != "case" and v is not None}
        theory = family_rate(case, **given)
    margin = _number(node.get("margin", 0.1), "sweep.margin")
    if margin <= 0:
        raise ConfigError(f"sweep.margin must be > 0, got {margin}")
    plan = SweepPlan(
        base=problem,
        axis=axis,
        values=values,
        gap_times=tuple(_number(t, "sweep.gap_times") for t in node.get("gap_times", ())),
        theory=theory,
        data_for_spec=data,
    )
    return plan, margin


# -- commands -------------------------------------------------------------------


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_snapshot_names(problem: Problem) -> None:
    """Each capture is written to ``<stem>_t{time:g}.csv``, and ``:g`` keeps six
    significant digits: two capture times with one name are a ``ConfigError``,
    not a snapshot overwritten."""
    seen = {}
    for t in sorted(set(problem.controls.snapshot_times or (problem.T,))):
        name = f"{t:g}"
        if name in seen:
            raise ConfigError(f"snapshot times {seen[name]!r} and {t!r} would share the "
                              f"file name _t{name}.csv")
        seen[name] = t


def cmd_solve(args) -> int:
    cfg = _load_config(Path(args.config))
    problem, _ = _from_config(_build_problem, cfg["problem"])
    _check_snapshot_names(problem)
    out = _out_dir(args)
    run_id = Path(args.config).stem
    result = solve(problem)
    for snap in result.snapshots:
        save_field(snap, out / f"{run_id}_t{snap.time:g}.csv")
    stats = asdict(result.stats) | {"snapshots": [snap.time for snap in result.snapshots]}
    with open(out / f"{run_id}_stats.json", "w") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(result.snapshots)} snapshot(s) to {out}")
    return 0


def cmd_rate_sweep(args) -> int:
    cfg = _load_config(Path(args.config))
    problem, data = _from_config(_build_problem, cfg["problem"])
    plan, margin = _from_config(_build_sweep, cfg, problem, data)
    out = _out_dir(args)
    run_id = Path(args.config).stem
    fit = run_sweep(plan)
    consistent = None
    if fit.theory_nu is not None:
        consistent = compare_theory(fit, margin).consistent
    write_rate_table(fit, out / f"{run_id}_rates.csv")
    write_fit_summary(fit, out / f"{run_id}_fit.json", consistent=consistent)
    print(f"slope = {fit.slope:.6g}  r^2 = {fit.r_squared:.6g}  "
          f"floor = {fit.error_floor:.3g}  consistent = {consistent}")
    return 0


_SOLUTIONS = {
    "heat-mode": SolutionId.HEAT_MODE,
    "barenblatt": SolutionId.BARENBLATT,
    "radial-elliptic": SolutionId.RADIAL_ELLIPTIC,
    "torsion": SolutionId.TORSION_RADIAL,
    "fundamental": SolutionId.FUNDAMENTAL,
}


def cmd_verify_exact(args) -> int:
    for flag in ("p", "A", "c", "t", "r_min", "r_max", "clearance", "tol"):
        if not math.isfinite(value := getattr(args, flag)):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite, got {value}")
    if args.radii < 1:
        raise ValueError(f"--radii must be >= 1, got {args.radii}")
    sid = _SOLUTIONS[args.solution]
    try:
        sol = ExactSolution(sid, p=args.p, n=args.n, A=args.A, c=args.c)
    except ValueError as err:
        print(f"parameter outside validity: {err}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    radii = args.r_min + (args.r_max - args.r_min) * rng.random(args.radii)
    clearance = min(args.clearance, args.r_min / 2)
    # np.max keeps a NaN residual, which then fails the check
    worst = float(np.max(np.abs([residual(sol, r, t=args.t, mode="analytic",
                                          clearance=clearance) for r in radii])))
    print(f"max |residual| over {args.radii} radii in ({args.r_min:g}, {args.r_max:g}): "
          f"{worst:.3e}")
    if args.out:
        out = _out_dir(args)
        with open(out / f"verify_{args.solution}.json", "w") as fh:
            json.dump({"solution": args.solution, "p": args.p, "n": args.n,
                       "max_residual": worst, "tol": args.tol}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if worst <= args.tol else 1


def cmd_rate_table(args) -> int:
    case = _CASES[args.case]
    rows = []
    for theta in args.theta:
        for pp in args.p_prime or [None]:
            try:
                pred = family_rate(case, theta=theta, p=args.p, q=args.q,
                                   p_prime=pp, q_prime=args.q_prime, m=args.m)
            except PlapError as err:
                print(f"case not applicable: {err}", file=sys.stderr)
                return 2
            rows.append((theta, pp, pred))
    print(f"{'theta':>8} {'p_prime':>8} {'nu':>12} {'kind':>9}")
    for theta, pp, pred in rows:
        kind = "attained" if pred.attained else "open sup"
        pp_s = f"{pp:g}" if pp is not None else "-"
        print(f"{theta:8g} {pp_s:>8} {pred.nu_sup:12.9g} {kind:>9}")
    return 0


# check-c1 base member per --family, built from --q, --q-prime and --a
_C1_FAMILIES = {
    "normalized": lambda args: OperatorSpec.normalized(args.q),
    "variational": lambda args: OperatorSpec.variational(args.q),
    "general_pq": lambda args: OperatorSpec.general_pq(args.q, args.q_prime),
    "regularized_pq": lambda args: OperatorSpec.regularized_pq(args.q, args.q_prime, 0.0),
    "biased": lambda args: OperatorSpec.biased_infinity_regularized(args.a, 0.0, 0.0),
}


def cmd_check_c1(args) -> int:
    base = _C1_FAMILIES[args.family](args)
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

    ps = sub.add_parser("solve", help="integrate one problem, write snapshots")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default="out")
    ps.set_defaults(fn=cmd_solve)

    pr = sub.add_parser("rate-sweep", help="run a perturbation sweep and fit the exponent")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", default="out")
    pr.set_defaults(fn=cmd_rate_sweep)

    pv = sub.add_parser("verify-exact", help="residual check of a closed-form solution")
    pv.add_argument("--solution", required=True, choices=sorted(_SOLUTIONS))
    pv.add_argument("--p", type=float, required=True)
    pv.add_argument("--n", type=int, default=1)
    pv.add_argument("--A", type=float, default=1.0)
    pv.add_argument("--c", type=float, default=1.0)
    pv.add_argument("--t", type=float, default=1.0)
    pv.add_argument("--radii", type=int, default=100)
    pv.add_argument("--r-min", type=float, default=0.01)
    pv.add_argument("--r-max", type=float, default=1.0)
    pv.add_argument("--clearance", type=float, default=1e-3)
    pv.add_argument("--tol", type=float, default=1e-10)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default=None)
    pv.set_defaults(fn=cmd_verify_exact)

    pt = sub.add_parser("rate-table", help="print theoretical exponents for a case")
    pt.add_argument("--case", required=True, choices=sorted(_CASES))
    pt.add_argument("--theta", type=float, nargs="+", required=True)
    pt.add_argument("--p", type=float, default=None)
    pt.add_argument("--q", type=float, default=None)
    pt.add_argument("--p-prime", dest="p_prime", type=float, nargs="*", default=None)
    pt.add_argument("--q-prime", dest="q_prime", type=float, default=None)
    pt.add_argument("--m", type=float, default=None)
    pt.set_defaults(fn=cmd_rate_table)

    pc = sub.add_parser("check-c1", help="certify a closeness envelope over a xi grid")
    pc.add_argument("--family", required=True, choices=list(_C1_FAMILIES))
    pc.add_argument("--q", type=float, default=2.0)
    pc.add_argument("--q-prime", dest="q_prime", type=float, default=2.0)
    pc.add_argument("--a", type=float, default=0.0)
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
    logging.basicConfig(level=os.environ.get("PLAP_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as err:  # ConfigError included
        print(f"error: {err}", file=sys.stderr)
        return 2
    except PlapError as err:  # HarnessError included
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
