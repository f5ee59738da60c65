"""SHA-256 hashes of the package's outputs, bit for bit: the record a
refactor that means to keep every output is checked against.

    python3 tests/closed_form_hashes.py theory
    python3 tests/closed_form_hashes.py solve OUT

Run from a checkout's root with PYTHONPATH=src; the script may come from
another checkout, so two commits are compared with one script.

``theory`` prints one line per closed form, its key, the number of values
hashed and the hash, over float.hex of each value (an error by its type and
message): family_rate over a grid of cases and parameters, the exact
solutions' radial and point values and residuals, the operators' square
roots, perturbed specs and c1 gaps.

``solve`` prints the hash of 16 single 2D solves and 2 lockstep batches of 3
(every snapshot's values and time, the step count, the smallest step and the
overshoot), the hash of the CLI outputs of the solve-barenblatt-2d and
sweep-p-normalized-1d benchmark configs (written under OUT, which it empties
first), and float.hex of the gaps, slope and floor of criteria 02 and 08.

pytest does not collect this file; it is no test.
"""

import hashlib
import itertools
import math
import shutil
import sys
from pathlib import Path

import numpy as np


def fx(v) -> str:
    return float(v).hex()


def theory_hashes() -> None:
    from plaplab.exact import ExactSolution, SolutionId, residual
    from plaplab.operators import (OperatorSpec, PerturbationAxis, c1_gap, perturb_spec,
                                   sqrt_matrix)
    from plaplab.rates import FamilyCase, family_rate

    keys = ("rates", "rates_detail", "exact_radial", "exact_residual", "exact_point", "sqrt",
            "perturb", "perturb_msg", "c1")
    hashes, counts = {k: hashlib.sha256() for k in keys}, dict.fromkeys(keys, 0)

    def put(key, text):
        hashes[key].update((text + "\n").encode())
        counts[key] += 1

    def put_call(key, fn):  # fn's value, or the error it raises
        try:
            put(key, fn())
        except Exception as err:
            put(key, f"{type(err).__name__}: {err}")

    # family_rate
    vals = [None, 0.5, 1.0, 1.2, 1.5, 1.9, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 6.0]
    ms = [None, 0.0, 0.1, 0.3, 0.5, 0.9, 1.0]
    for case in FamilyCase:
        for theta in (0.25, 0.5, 0.9, 1.0):
            for p, q, pp, qp, m in itertools.product(vals, vals[::2], vals, vals[::2], ms):
                try:
                    r = family_rate(case, theta=theta, p=p, q=q, p_prime=pp, q_prime=qp, m=m)
                    put("rates", f"{fx(r.nu_sup)} {r.attained} {r.case.value}")
                    put("rates_detail", r.detail)
                except Exception as err:
                    put("rates", f"{type(err).__name__}: {err}")

    # exact solutions
    sols = []
    for p in (1.0, 1.3, 1.5, 1.7, 2.5, 3.0, 4.0, 5.5):
        for n in (1, 2, 3):
            for sid in SolutionId:
                try:
                    sols.append(ExactSolution(sid, p=p, n=n, A=1.3, c=2.0))
                except ValueError:
                    pass
    radii = np.linspace(0.0, 3.0, 61)
    for sol in sols:
        for t in (0.0, 0.3, 1.0, 1.7):
            put_call("exact_radial", lambda: " ".join(fx(v) for v in sol.eval_radial(radii, t)))
            for x in (-1.3, 0.05, 0.4, 0.9, 1.6, 2.8):
                pt = [x] + [0.3 * k for k in range(1, sol.n)]
                put_call("exact_point", lambda: fx(sol.eval(pt if sol.n > 1 else x, t)))
                t_res = t if t > 0 or sol.id is SolutionId.HEAT_MODE else None
                for mode, h in (("analytic", None), ("discrete", 2e-3), ("discrete", 5e-4)):
                    put_call("exact_residual", lambda: fx(residual(
                        sol, pt, t=t_res, mode=mode, h=h, clearance=0.01)))

    # operators
    specs = [OperatorSpec.normalized(3.0), OperatorSpec.normalized(1.5),
             OperatorSpec.variational(3.0), OperatorSpec.variational(1.5),
             OperatorSpec.general_pq(3.0, 2.5), OperatorSpec.general_pq(1.5, 1.7),
             OperatorSpec.regularized_pq(3.0, 2.5, 0.0),
             OperatorSpec.regularized_pq(1.0, 4.0, 0.3),
             OperatorSpec.biased_infinity(0.5),
             OperatorSpec.biased_infinity_regularized(0.5, 0.0, 0.0),
             OperatorSpec.biased_infinity_regularized(0.5, 0.2, 0.1)]
    xis = [[0.3], [2.0], 1.5, [0.3, -0.7], [1e-3, 2.0], [0.5, 0.5, -1.0], [4.0, 1.0, 0.0]]
    fields = ("p", "p_prime", "eps", "eps1", "eps2", "a")
    for spec in specs:
        for xi in xis:
            put_call("sqrt", lambda: " ".join(fx(v) for v in np.ravel(sqrt_matrix(spec, xi))))
        for axis in PerturbationAxis:
            for value in (0.25, 0.01, 0.0, -0.1):
                try:
                    s = perturb_spec(spec, axis, value)
                    put("perturb", repr(s) + " " + " ".join(fx(getattr(s, f)) for f in fields))
                    for xi in xis:
                        put("c1", fx(c1_gap(s, spec, xi)))
                except ValueError as err:
                    put("perturb", "ValueError")
                    put("perturb_msg", str(err))
    for a, b in itertools.product(specs, repeat=2):
        for xi in xis:
            put_call("c1", lambda: fx(c1_gap(a, b, xi)))

    for k in keys:
        print(f"{k:15s} {counts[k]:6d} {hashes[k].hexdigest()}")


def solve_hashes(out: Path) -> None:
    sys.path.insert(0, ".")  # the checkout's tests package
    from plaplab import Boundary, GridSpec, OperatorSpec
    from plaplab.cli import main as cli_main
    from plaplab.evolve import Problem, SolverControls, solve, solve_lockstep
    from plaplab.harness import run_sweep
    from tests.test_acceptance import normalized_plan, regularization_plan

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    def flat_top(x, y):
        return np.maximum(np.sin(x) * np.sin(y), 0.0)

    def saddle(x, y, t=0.0):
        return (x - 0.5) ** 2 - (y - 0.5) ** 2 + np.maximum(0.0, 0.1 - (x - 0.3) ** 2)

    specs = [OperatorSpec.variational(1.5), OperatorSpec.general_pq(3.0, 1.5),
             OperatorSpec.general_pq(1.5, 1.7), OperatorSpec.normalized(3.0),
             OperatorSpec.variational(3.0), OperatorSpec.regularized_pq(3.0, 2.5, 0.2),
             OperatorSpec.biased_infinity(0.5),
             OperatorSpec.biased_infinity_regularized(0.5, 0.1, 0.1)]
    per = GridSpec.box(((0.0, 2 * math.pi), (0.0, 2 * math.pi)), (16, 16), Boundary.PERIODIC)
    dr = GridSpec.box(((0.0, 1.0), (0.0, 1.0)), (17, 17), Boundary.DIRICHLET)

    def problems(spec):
        ctl = SolverControls(snapshot_times=(0.01, 0.02))
        return [Problem(spec=spec, grid=per, initial=flat_top, T=0.02, controls=ctl),
                Problem(spec=spec, grid=dr, initial=saddle, T=0.02, controls=ctl,
                        dirichlet=lambda x, y, t: saddle(x, y))]

    h = hashlib.sha256()

    def put_result(res):
        for snap in res.snapshots:
            h.update(np.ascontiguousarray(snap.values).tobytes())
            h.update(fx(snap.time).encode())
        h.update(f"{res.stats.steps} {fx(res.stats.min_dt)} {fx(res.stats.overshoot)}".encode())

    for spec in specs:
        for prob in problems(spec):
            put_result(solve(prob))
    for family in ([OperatorSpec.variational(p) for p in (1.5, 1.6, 1.7)],
                   [OperatorSpec.general_pq(3.0, pp) for pp in (1.5, 1.6, 1.7)]):
        for k in range(2):
            for res in solve_lockstep([problems(s)[k] for s in family]):
                put_result(res)
    print("solves2d", h.hexdigest())

    for cmd, cfg in (("solve", "perfbench/configs/solve-barenblatt-2d.json"),
                     ("rate-sweep", "perfbench/configs/sweep-p-normalized-1d.json")):
        d = out / cmd
        assert cli_main([cmd, "--config", cfg, "--out", str(d)]) == 0
        hh = hashlib.sha256()
        for f in sorted(d.iterdir()):
            hh.update(f.name.encode())
            hh.update(f.read_bytes())
        print(cmd, hh.hexdigest())

    for name, plan in (("c02", normalized_plan()), ("c08", regularization_plan())):
        fit = run_sweep(plan)
        print(name, [g.hex() for g in fit.gap_list], fit.slope.hex(), fx(fit.error_floor))


def main(argv: list) -> int:
    if argv == ["theory"]:
        theory_hashes()
    elif len(argv) == 2 and argv[0] == "solve":
        solve_hashes(Path(argv[1]))
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
