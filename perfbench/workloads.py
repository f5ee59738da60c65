"""The benchmark's three workloads: inputs from a seed, the timed call, the checks.

Each workload is one closed-loop call through plaplab's public entry points
(``plaplab.cli.main(argv)`` or ``plaplab.run_sweep``). Seed 0 gives exactly
the acceptance shapes; any other seed sets a data phase phi = 2 pi U[0, 1) in
the two sinusoid workloads, which moves no step count because the CFL bound
does not depend on phi there. The Barenblatt data of the 2D solve is fixed.

``BENCHMARK.json`` gates two of them, ``solve-barenblatt-2d`` and
``sweep-eps-curvature-1d``. ``sweep-p-normalized-1d`` runs the default
two-thread pool; on a shared 2-vCPU host its wall time moved by up to 60%
within minutes (ten-run spreads 0.07 to 0.27 against a largest allowed bound
of 0.25), so it is measured by ``report.py`` and ``run.py`` but not gated.

``scale="tiny"`` shrinks every workload for the self-test: 13 x 13 nodes and
a short horizon for the 2D solve, 32 nodes for the sweeps. Below 32 nodes the
sweeps fail their own acceptance checks (the eps-sweep slope drops to 0.22 at
16 nodes, and the p-sweep's oracle error exceeds its refinement floor).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Why each workload is here (also the "why" of BENCHMARK.json, which the
# self-test compares), and what end-to-end metric each layer metric should
# move on which workload (copied into every traced result file).
WHY = {
    "sweep-p-normalized-1d":
        "The README/CLI sweep path at its default thread pool: overhead-bound at 256 "
        "nodes, so batching, the pool and per-step overhead show here first.",
    "sweep-eps-curvature-1d":
        "Criterion 08, the longest acceptance test: no pool, the regularized coefficient "
        "path, and a refinement-floor solve with 40% of the steps.",
    "solve-barenblatt-2d":
        "One 2D CLI solve: the cross stencil, the every-step Dirichlet refresh through "
        "eval_radial, the proxy coefficients and two 16,641-line CSV writes; no harness.",
}

LAYER_MAP = {
    "evolve.steps": "node_steps_per_s vs wall_s on both sweeps (a dt-policy change moves it)",
    "evolve.node_steps": "node_steps_per_s vs wall_s on both sweeps",
    "evolve.us_per_step": "wall_s on all three workloads",
    "evolve.self_us_per_step": "wall_s on all three workloads",
    "grid.stencil_us_per_step": "wall_s, most on solve-barenblatt-2d, also on both sweeps",
    "grid.stencil_calls": "wall_s, most on solve-barenblatt-2d, also on both sweeps",
    "grid.field_builds": "wall_s, most on the sweeps (most steps)",
    "grid.field_us_per_step": "wall_s, most on the sweeps (most steps)",
    "grid.mask_builds": "wall_s on all three workloads",
    "grid.write_s": "wall_s on solve-barenblatt-2d only",
    "grid.write_bytes": "wall_s on solve-barenblatt-2d only",
    "operators.coeff_us_per_step": "wall_s on sweep-eps-curvature-1d and solve-barenblatt-2d",
    "operators.coeff_calls": "wall_s on sweep-eps-curvature-1d and solve-barenblatt-2d",
    "exact.eval_us_per_step": "wall_s on solve-barenblatt-2d; no change on both sweeps",
    "exact.useful_node_ratio": "wall_s on solve-barenblatt-2d; no change on both sweeps",
    "harness.member_s": "wall_s on both sweeps",
    "harness.member_us_per_step": "wall_s on both sweeps",
    "harness.pool_overlap": "wall_s on sweep-p-normalized-1d only; no change on the others",
    "harness.floor_s": "wall_s on both sweeps, not on solve-barenblatt-2d",
    "harness.floor_step_share": "wall_s on both sweeps, not on solve-barenblatt-2d",
    "harness.floor_time_share": "wall_s on both sweeps, not on solve-barenblatt-2d",
    "harness.gap_s": "wall_s on both sweeps",
    "harness.fit_s": "wall_s on both sweeps",
    "harness.cfl_probe_s": "wall_s on both sweeps",
    "harness.useful_member_ratio": "the fit on both sweeps (wasted member solves)",
    "cli.config_s": "setup_s on both CLI workloads",
    "cli.write_s": "wall_s on both CLI workloads",
    "cli.output_bytes": "wall_s on both CLI workloads",
    "cli.jobs": "a fact: the resolved --jobs of the sweep (0 where no sweep runs)",
    "trace.wall_s": "the traced call's wall time; minus the untraced wall_s it is the "
                    "tracing overhead",
}


def phase_for(seed: int) -> float:
    """Seed 0 is the acceptance shape; other seeds draw a data phase.

    Drawn in the parent process, so that the child's peak RSS does not
    include numpy's random generator."""
    if seed == 0:
        return 0.0
    return 2.0 * math.pi * float(np.random.default_rng(seed).random())


def _write_config(cfg: dict, path: Path) -> Path:
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
        fh.write("\n")
    return path


# -- sweep-p-normalized-1d -------------------------------------------------------


def _p_sweep_config(phase: float, scale: str) -> dict:
    with open(CONFIG_DIR / "sweep-p-normalized-1d.json") as fh:
        cfg = json.load(fh)
    cfg["problem"]["data"]["phase"] = phase
    if scale == "tiny":
        cfg["problem"]["grid"]["resolution"] = [32]
        cfg["sweep"]["values"] = [2.0 ** -k for k in range(2, 6)]
    return cfg


def p_sweep_inputs(phase: float, scale: str, workdir: Path) -> dict:
    cfg = _p_sweep_config(phase, scale)
    stem = "sweep-p-normalized-1d"
    path = _write_config(cfg, workdir / f"{stem}.json")
    out = workdir / "out"
    return {"argv": ["rate-sweep", "--config", str(path), "--out", str(out)],
            "cfg": cfg, "out": out, "stem": stem}


def p_sweep_check(inputs: dict, outcome, fit) -> tuple[list, float]:
    """Criterion 02 and 03 tolerances plus the written files read back."""
    import plaplab

    failures = []
    if outcome != 0:
        failures.append(f"exit code {outcome}")
    if fit is None:
        return failures + ["no fit returned"], math.nan
    cfg = inputs["cfg"]
    verdict = plaplab.compare_theory(fit, margin=cfg["sweep"]["margin"])
    if not 0.9 <= fit.slope <= 1.1:
        failures.append(f"slope {fit.slope:.4f} outside [0.9, 1.1]")
    if not verdict.consistent:
        failures.append(f"inconsistent with theory: {verdict.detail}")
    # criterion 03's oracle: the closed-form heat-mode gap at the same nodes
    grid = cfg["problem"]["grid"]
    n = grid["resolution"][0]
    a, b = grid["extent"][0]
    pts = a + (b - a) / n * np.arange(n) + cfg["problem"]["data"]["phase"]
    p = cfg["problem"]["operator"]["p"]
    ref = plaplab.ExactSolution(plaplab.SolutionId.HEAT_MODE, p=p)
    worst = 0.0
    for eps, gap, excluded in zip(fit.eps_list, fit.gap_list, fit.excluded):
        if excluded:
            continue
        pert = plaplab.ExactSolution(plaplab.SolutionId.HEAT_MODE, p=p + eps)
        oracle = max(float(np.max(np.abs(pert.eval_radial(pts, t) - ref.eval_radial(pts, t))))
                     for t in cfg["sweep"]["gap_times"])
        worst = max(worst, abs(gap - oracle))
    if not worst <= fit.error_floor <= 1e-3:
        failures.append(f"oracle error {worst:.2e} vs floor {fit.error_floor:.2e} (<= 1e-3)")
    failures += _check_sweep_files(inputs, fit)
    return failures, worst


def _check_sweep_files(inputs: dict, fit) -> list:
    out, stem = inputs["out"], inputs["stem"]
    failures = []
    try:
        with open(out / f"{stem}_rates.csv") as fh:
            rows = [line.strip().split(",") for line in fh][1:]
        with open(out / f"{stem}_fit.json") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as err:
        return [f"cannot read sweep outputs: {err}"]
    gaps = tuple(float(r[1]) for r in rows)
    excluded = tuple(r[2] == "true" for r in rows)
    if gaps != fit.gap_list or excluded != fit.excluded:
        failures.append("rate table does not match the fit")
    if summary.get("slope") != fit.slope or summary.get("consistent") is not True:
        failures.append("fit summary does not match the fit")
    return failures


# -- sweep-eps-curvature-1d ------------------------------------------------------


def eps_sweep_inputs(phase: float, scale: str, workdir: Path) -> dict:
    return {"phase": phase, "n": 32 if scale == "tiny" else 1024}


def eps_sweep_call(inputs: dict):
    """Criterion 08's plan, built and run through the library entry point."""
    import plaplab

    n, phase = inputs["n"], inputs["phase"]
    grid = plaplab.GridSpec.line(0.0, 2.0 * math.pi, n, plaplab.Boundary.PERIODIC)
    h = grid.spacing[0]
    initial = np.sin if phase == 0.0 else (lambda x: np.sin(x + phase))
    base = plaplab.Problem(
        spec=plaplab.OperatorSpec.regularized_pq(1.0, 2.0, 0.0), grid=grid, initial=initial,
        T=0.25, controls=plaplab.SolverControls(eps_num=h),
    )
    plan = plaplab.SweepPlan(
        base=base,
        axis=plaplab.PerturbationAxis.EPS,
        values=tuple(2.0 ** (-k) for k in range(2, 7)),
        gap_times=tuple(np.linspace(0.05, 0.25, 5)),
        theory=plaplab.family_rate(plaplab.FamilyCase.REGULARIZED, theta=1.0, p_prime=2.0),
    )
    return plaplab.run_sweep(plan)


def eps_sweep_check(inputs: dict, outcome, fit) -> tuple[list, float]:
    """Criterion 08: slope >= 0.4 and one-sided consistency with the open sup 0.5."""
    import plaplab

    if fit is None:
        return ["no fit returned"], math.nan
    failures = []
    if fit.slope < 0.4:
        failures.append(f"slope {fit.slope:.3f} < 0.4")
    verdict = plaplab.compare_theory(fit, margin=0.1)
    if not verdict.consistent:
        failures.append(f"inconsistent with theory: {verdict.detail}")
    return failures, abs(fit.slope - 0.5)


# -- solve-barenblatt-2d ---------------------------------------------------------


def barenblatt_inputs(phase: float, scale: str, workdir: Path) -> dict:
    with open(CONFIG_DIR / "solve-barenblatt-2d.json") as fh:
        cfg = json.load(fh)
    if scale == "tiny":
        cfg["problem"]["grid"]["resolution"] = [13, 13]
        cfg["problem"]["horizon"] = 0.05
        cfg["problem"]["controls"]["snapshot_times"] = [0.025, 0.05]
    stem = "solve-barenblatt-2d"
    path = _write_config(cfg, workdir / f"{stem}.json")
    out = workdir / "out"
    return {"argv": ["solve", "--config", str(path), "--out", str(out)],
            "cfg": cfg, "out": out, "stem": stem}


def _barenblatt(cfg: dict):
    import plaplab

    prob = cfg["problem"]
    data = prob["data"]
    sol = plaplab.ExactSolution(plaplab.SolutionId.BARENBLATT, p=prob["operator"]["p"],
                                n=prob["grid"]["dim"], A=data["A"])
    return sol, data["time_offset"]


def barenblatt_useful_nodes(cfg: dict):
    """Nodes of one eval_radial call that the solver keeps.

    The initial data (evaluated at t = time_offset) keeps every node; the
    every-step Dirichlet refresh keeps only the boundary ring.
    """
    nx, ny = cfg["problem"]["grid"]["resolution"]
    t0 = cfg["problem"]["data"]["time_offset"]
    ring = 2 * (nx + ny) - 4

    def useful(shape, t) -> int:
        size = int(np.prod(shape))
        return size if t <= t0 or tuple(shape) != (nx, ny) else ring

    return useful


def barenblatt_check(inputs: dict, outcome, fit) -> tuple[list, float]:
    """Snapshots parse back; criterion 04's tolerance against the exact solution."""
    import plaplab
    from plaplab.grid import gradient_arrays, interior_mask

    failures = []
    if outcome != 0:
        failures.append(f"exit code {outcome}")
    cfg, out, stem = inputs["cfg"], inputs["out"], inputs["stem"]
    sol, t0 = _barenblatt(cfg)
    times = cfg["problem"]["controls"]["snapshot_times"]
    try:
        snaps = [plaplab.load_field(out / f"{stem}_t{t:g}.csv") for t in times]
    except (OSError, ValueError) as err:
        return failures + [f"cannot read snapshots: {err}"], math.nan
    for t, snap in zip(times, snaps):
        if snap.time != t or snap.grid.shape != tuple(cfg["problem"]["grid"]["resolution"]):
            failures.append(f"snapshot at t = {t} read back as t = {snap.time}, {snap.grid.shape}")
    final = snaps[-1]
    r = np.sqrt(sum(m * m for m in final.grid.meshes()))
    err = float(np.max(np.abs(final.values - sol.eval_radial(r, t0 + cfg["problem"]["horizon"]))))
    # criterion 04's scale: twice the largest interior gradient of the data
    f0 = plaplab.ScalarField(final.grid, sol.eval_radial(r, t0))
    r2 = sum(g * g for g in gradient_arrays(f0))[interior_mask(final.grid)]
    tol = 10.0 * 5e-3 * max(1.0, 2.0 * math.sqrt(float(np.max(r2))))
    if not err <= tol:
        failures.append(f"sup error {err:.3e} > {tol:.3e}")
    return failures, err


WORKLOADS = {
    "sweep-p-normalized-1d": {
        "inputs": p_sweep_inputs, "cli": True, "check": p_sweep_check,
    },
    "sweep-eps-curvature-1d": {
        "inputs": eps_sweep_inputs, "call": eps_sweep_call, "cli": False,
        "check": eps_sweep_check,
    },
    "solve-barenblatt-2d": {
        "inputs": barenblatt_inputs, "cli": True, "check": barenblatt_check,
        "useful_nodes": lambda inputs: barenblatt_useful_nodes(inputs["cfg"]),
    },
}
