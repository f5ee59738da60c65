"""A fingerprint of the scheme: recorded values of 48 solves and two public calls.

Every family is solved on four grids (1D periodic, 1D Dirichlet with a
source, 2D periodic with a source, 2D Dirichlet with a source), with captures
at 0, 0.03 and 0.1; for each solve the steps, min dt and overshoot and, per
snapshot, its sum, min, max and three node values (a corner node among them)
are compared at 1e-12 relative with ``fingerprint.json``. One ``cfl_dt`` and
one ``step`` on the 2D Dirichlet grid are
checked the same way. The file stores values, not hashes, so a change shows
which numbers moved and by how much.

A change to the scheme that moves entries re-records them, and only them, with

    PYTHONPATH=src python tests/test_fingerprint.py KEY...

(a key as the test ids print it, ``"variational(3) @ 1d-periodic-64"`` or
``calls``), and names the moved entries, and why they moved, in CHANGES.md.
Every run also records the entries the file lacks, so with no key it records
a new grid's or member's entries alone; every other entry is written back as
it was read, byte for byte.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from plaplab import (
    Boundary,
    Family,
    GridSpec,
    OperatorSpec,
    Problem,
    SolverControls,
    cfl_dt,
    solve,
    step,
)

RECORD = Path(__file__).with_name("fingerprint.json")
CAPTURES = (0.0, 0.03, 0.1)

SPECS = {
    "normalized(3)": OperatorSpec.normalized(3.0),
    "variational(3)": OperatorSpec.variational(3.0),
    "variational(1.5)": OperatorSpec.variational(1.5),  # the singular proxy
    "general_pq(2,3)": OperatorSpec.general_pq(2.0, 3.0),
    "general_pq(3,1.5)": OperatorSpec.general_pq(3.0, 1.5),
    "regularized_pq(1,2,0.1)": OperatorSpec.regularized_pq(1.0, 2.0, 0.1),
    "regularized_pq(2,3,0.1)": OperatorSpec.regularized_pq(2.0, 3.0, 0.1),
    "regularized_pq(3,4,0)": OperatorSpec.regularized_pq(3.0, 4.0, 0.0),
    "biased_infinity(0.5)": OperatorSpec.biased_infinity(0.5),
    "biased_infinity_regularized(0.5,0.1,0.1)":
        OperatorSpec.biased_infinity_regularized(0.5, 0.1, 0.1),
    # kappa = 0 in 1D; in 2D the constant coefficients (s, c) = (1, -1)
    "normalized(1)": OperatorSpec.normalized(1.0),
    # one s and c <= 0 at every gradient, so Lambda = s, at p != 1
    "regularized_pq(1.5,2,0.1)": OperatorSpec.regularized_pq(1.5, 2.0, 0.1),
}


def _dirichlet_line(x):
    # an exact zero of the discrete gradient at the centre node 32, x = 0
    return x * x + 0.3 * np.cos(3.0 * x)


def _dirichlet_initial(x, y):
    # an exact zero of the discrete gradient at the centre node (0, 0)
    return x * x + 0.5 * y * y + 0.3 * np.sin(3.0 * x) * y


# name: (grid, initial, source, dirichlet, the three recorded nodes)
GRIDS = {
    # exact zero gradients from the start: on a flat top, and at node 32,
    # a local maximum
    "1d-periodic-64": (
        GridSpec.line(0.0, 2 * math.pi, 64, Boundary.PERIODIC),
        lambda x: np.minimum(np.cos(x) + 0.3 * np.cos(2.0 * x), 0.9),
        None, None,
        ([0, 21, 32],)),
    "1d-dirichlet-65": (
        GridSpec.line(-1.0, 1.0, 65, Boundary.DIRICHLET),
        _dirichlet_line,
        lambda x, t: 0.5 * np.sin(2.0 * x + 0.4) * (1.0 + t),
        lambda x, t: _dirichlet_line(x) + t * x,
        ([0, 32, 47],)),
    "2d-periodic-24x17": (
        GridSpec.box(((0.0, 2 * math.pi), (0.0, 2 * math.pi)), (24, 17), Boundary.PERIODIC),
        lambda x, y: np.sin(x) * np.cos(y) + 0.2 * np.sin(2.0 * y + 0.3),
        lambda x, y, t: (1.0 + t) * np.cos(x - 2.0 * y),
        None,
        ([23, 7, 15], [16, 3, 10])),
    "2d-dirichlet-25x21": (
        GridSpec.box(((-1.0, 1.0), (-1.0, 1.0)), (25, 21), Boundary.DIRICHLET),
        _dirichlet_initial,
        lambda x, y, t: 0.5 * np.cos(x + y) * (1.0 + t),
        lambda x, y, t: _dirichlet_initial(x, y) + t * (x - y),
        ([24, 12, 17], [0, 10, 4])),
}


def problem(spec_name: str, grid_name: str) -> Problem:
    grid, initial, source, dirichlet, _ = GRIDS[grid_name]
    return Problem(spec=SPECS[spec_name], grid=grid, initial=initial, T=CAPTURES[-1],
                   source=source, dirichlet=dirichlet,
                   controls=SolverControls(snapshot_times=CAPTURES))


def summary(values: np.ndarray, nodes) -> dict:
    return {"sum": float(values.sum()), "min": float(values.min()),
            "max": float(values.max()), "nodes": values[nodes].tolist()}


def solve_entry(spec_name: str, grid_name: str) -> dict:
    res = solve(problem(spec_name, grid_name))
    nodes = GRIDS[grid_name][4]
    return {"steps": res.stats.steps, "min_dt": res.stats.min_dt,
            "overshoot": res.stats.overshoot,
            "snapshots": [dict(time=s.time, **summary(s.values, nodes))
                          for s in res.snapshots]}


CALLS_SPEC, CALLS_GRID = "general_pq(3,1.5)", "2d-dirichlet-25x21"


def calls_entry() -> dict:
    """``cfl_dt`` at t = 0, then one ``step`` of half that dt."""
    prob = problem(CALLS_SPEC, CALLS_GRID)
    u0 = prob.initial_field()
    dt = cfl_dt(prob, u0)
    u1 = step(u0, prob, 0.5 * dt)
    return {"cfl_dt": dt, "step": dict(time=u1.time, **summary(u1.values, GRIDS[CALLS_GRID][4]))}


SOLVES = [f"{s} @ {g}" for s in SPECS for g in GRIDS]


def record(keys, entries: dict) -> dict:
    """``entries`` with the named keys, and every key it lacks, recorded anew."""
    unknown = set(keys) - set(SOLVES) - {"calls"}
    if unknown:
        raise SystemExit(f"unknown fingerprint key(s): {sorted(unknown)}")
    fresh = set(keys) | (set(SOLVES) | {"calls"}) - set(entries)
    return {key: (calls_entry() if key == "calls" else solve_entry(*key.split(" @ ")))
            if key in fresh else entries[key] for key in SOLVES + ["calls"]}


@pytest.fixture(scope="module")
def recorded() -> dict:
    with open(RECORD) as fh:
        return json.load(fh)


def assert_same(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, value in want.items():
        if key == "steps":
            assert got[key] == value
        elif key == "snapshots":
            assert len(got[key]) == len(value)
            for g, w in zip(got[key], value):
                assert_same(g, w)
        elif isinstance(value, dict):
            assert_same(got[key], value)
        else:
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key


def test_cases_cover_every_family(recorded):
    assert {s.family for s in SPECS.values()} == set(Family)
    assert set(recorded) == set(SOLVES) | {"calls"}


@pytest.mark.parametrize("key", SOLVES)
def test_solve(key, recorded):
    assert_same(solve_entry(*key.split(" @ ")), recorded[key])


def test_public_calls(recorded):
    assert_same(calls_entry(), recorded["calls"])


def test_record_rewrites_only_named_and_missing_entries(recorded):
    assert record([], recorded) == recorded
    key = SOLVES[0]
    partial = {k: v for k, v in recorded.items() if k != key}
    partial["calls"] = {"stale": True}
    entries = record(["calls"], partial)
    assert list(entries) == list(recorded)
    assert entries[key] == solve_entry(*key.split(" @ "))
    assert entries["calls"] == calls_entry()
    assert all(entries[k] is recorded[k] for k in SOLVES[1:])
    with pytest.raises(SystemExit, match="unknown"):
        record(["no such key"], recorded)


if __name__ == "__main__":
    import sys

    with open(RECORD) as fh:
        old = json.load(fh)
    entries = record(sys.argv[1:], old)
    with open(RECORD, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    moved = [key for key in entries if entries[key] != old.get(key)]
    print(f"recorded {len(moved)} changed or new entries in {RECORD}: {moved}")
