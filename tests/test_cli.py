import inspect
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from plaplab import GridSpec, OperatorSpec, SolverControls, cli, family_rate, load_field
from plaplab.cli import _build_problem, _build_sweep, main
from tests.closed_form_hashes import readme_commands

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config():
    return json.loads(re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1))


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def heat_config(T=0.1, n=64, snapshot_times=None, extra=None):
    cfg = {
        "schema_version": 1,
        "problem": {
            "operator": {"family": "normalized", "p": 3.0},
            "grid": {
                "dim": 1,
                "extent": [[0.0, 2.0 * math.pi]],
                "resolution": [n],
                "boundary": "periodic",
            },
            "data": {"kind": "sinusoid"},
            "horizon": T,
        },
    }
    if snapshot_times is not None:
        cfg["problem"]["controls"] = {"snapshot_times": snapshot_times}
    if extra:
        cfg.update(extra)
    return cfg


class TestSolveCommand:
    def test_heat_mode_writes_snapshots_and_stats(self, tmp_path):
        cfg = write_config(tmp_path / "heat.json",
                           heat_config(snapshot_times=[0.05, 0.1]))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        snaps = sorted(out.glob("heat_t*.csv"))
        assert [p.name for p in snaps] == ["heat_t0.05.csv", "heat_t0.1.csv"]
        stats = json.loads((out / "heat_stats.json").read_text())
        assert stats["steps"] > 0 and stats["final_time"] == 0.1
        fld = load_field(snaps[-1])
        x = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        assert np.max(np.abs(fld.values - math.exp(-0.2) * np.sin(x))) < 1e-3

    def test_snapshot_times_sharing_a_file_name_exit_2_without_output(self, tmp_path, capsys):
        # ":g" keeps six significant digits: both of the first two would be _t0.1.csv
        cfg = write_config(tmp_path / "heat.json",
                           heat_config(T=0.2, snapshot_times=[0.1000001, 0.1000002, 0.2]))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "_t0.1.csv" in capsys.readouterr().err

    def test_malformed_config_exits_2_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: cannot read config")
        # a missing required key or a value of the wrong type is a config error
        no_dim = heat_config()
        del no_dim["problem"]["grid"]["dim"]
        scalar_resolution = heat_config()
        scalar_resolution["problem"]["grid"]["resolution"] = 64
        data_list = heat_config()
        data_list["problem"]["data"] = [{"kind": "sinusoid"}]
        no_theta = heat_config()
        no_theta["sweep"] = {"axis": "p", "values": [0.4, 0.2, 0.1, 0.05],
                             "theory": {"case": "normalized", "q": 3.0}}
        negative_margin = heat_config()
        negative_margin["sweep"] = {"axis": "p", "values": [0.4, 0.2, 0.1, 0.05],
                                    "theory": {"case": "normalized", "theta": 1.0,
                                               "q": 3.0},
                                    "margin": -0.1}
        cases = [("no_dim", no_dim, "solve"),
                 ("resolution", scalar_resolution, "solve"),
                 ("data_list", data_list, "solve"),
                 ("no_theta", no_theta, "rate-sweep"),
                 ("margin", negative_margin, "rate-sweep")]
        # gap times given twice: sweep.gap_times silently replaced the
        # problem's snapshot times
        twice = heat_config(snapshot_times=[0.05], extra={"sweep": {
            "axis": "p", "values": [0.4, 0.2, 0.1, 0.05], "gap_times": [0.1]}})
        cases.append(("gap_times_twice", twice, "rate-sweep"))
        # max_steps must be a whole number >= 1: -5 exited 1 as a numerical
        # failure, and 2.7 ran with 2
        for i, steps in enumerate((-5, 0, 2.7, "5", True)):
            cfg_data = heat_config()
            cfg_data["problem"]["controls"] = {"max_steps": steps}
            cases.append((f"max_steps{i}", cfg_data, "solve"))
        # one wavenumber per axis: [] raised an IndexError after --out was
        # made, and extra entries on a 1D grid were ignored
        for i, wavenumber in enumerate(([], [1.0, 2.0, 3.0])):
            cfg_data = heat_config()
            cfg_data["problem"]["data"]["wavenumber"] = wavenumber
            cases.append((f"wavenumber{i}", cfg_data, "solve"))
        plane = heat_config(n=16)
        plane["problem"]["grid"].update(dim=2, extent=[[0.0, 1.0], [0.0, 1.0]],
                                        resolution=[16, 16])
        plane["problem"]["data"]["wavenumber"] = [1.0]
        cases.append(("wavenumber_2d", plane, "solve"))
        # dim and resolution must be whole numbers: 1.7 and 64.9 ran as a
        # 64-node 1D grid
        for key, value in (("dim", 1.7), ("resolution", [64.9])):
            cfg_data = heat_config()
            cfg_data["problem"]["grid"][key] = value
            cases.append((f"fractional_{key}", cfg_data, "solve"))
        # a number must be a JSON number: float() and int() coerced a string or
        # a bool, so "horizon": "0.5", "A": true and "time_offset": "1" ran
        barenblatt = {"schema_version": 1, "problem": {
            "operator": {"family": "variational", "p": 3.0},
            "grid": {"dim": 1, "extent": [[0.5, 2.0]], "resolution": [33],
                     "boundary": "dirichlet"},
            "data": {"kind": "barenblatt", "A": 1.0, "time_offset": 1.0},
            "horizon": 0.1}}
        sweep = {"sweep": {"axis": "p", "values": [0.4, 0.2, 0.1, 0.05], "gap_times": [0.1],
                           "theory": {"case": "normalized", "theta": 1.0, "q": 3.0},
                           "margin": 0.1}}
        numbers = [
            (heat_config(), ("problem", "horizon"), "0.5"),
            (heat_config(), ("problem", "operator", "p"), "3"),
            (heat_config(), ("problem", "operator", "p"), True),
            (heat_config(), ("problem", "grid", "extent"), [["0", 6.0]]),
            (heat_config(), ("problem", "data", "amplitude"), "1"),
            (heat_config(), ("problem", "data", "phase"), False),
            (heat_config(), ("problem", "data", "wavenumber"), "1"),
            (heat_config(), ("problem", "data"), {"kind": "constant", "value": "1"}),
            (heat_config(), ("problem", "controls"), {"snapshot_times": [True]}),
            (heat_config(), ("problem", "controls"), {"eps_num": "0.1"}),
            (barenblatt, ("problem", "data", "A"), True),
            (barenblatt, ("problem", "data", "time_offset"), "1"),
            (heat_config(extra=sweep), ("sweep", "values"), ["0.4", 0.2, 0.1, 0.05]),
            (heat_config(extra=sweep), ("sweep", "gap_times"), [True]),
            (heat_config(extra=sweep), ("sweep", "margin"), "0.1"),
            (heat_config(extra=sweep), ("sweep", "theory", "theta"), "1"),
            (heat_config(extra=sweep), ("sweep", "theory", "q"), True),
            # null read as "not given": no theta raised a TypeError, no q passed
            (heat_config(extra=sweep), ("sweep", "theory", "theta"), None),
        ]
        for i, (number_cfg, path, value) in enumerate(numbers):
            number_cfg = json.loads(json.dumps(number_cfg))
            node = number_cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            command = "rate-sweep" if "sweep" in number_cfg else "solve"
            cases.append((f"number{i}", number_cfg, command))
        # a list must be a JSON list: capture times "05" became (0.0, 5.0)
        capture_string = heat_config()
        capture_string["problem"]["controls"] = {"snapshot_times": "05"}
        cases.append(("list_snapshot_times", capture_string, "solve"))
        # a section must be a JSON object: a list raised an AttributeError (exit
        # 1), "x" read as the unknown key 'x' and ["case"] as a missing theta
        sections = [
            (heat_config(), ("problem", "controls"), [], "solve"),
            (heat_config(extra=sweep), ("problem", "controls"), [], "rate-sweep"),
            (heat_config(), ("problem", "operator"), [], "solve"),
            (heat_config(extra=sweep), ("problem", "operator"), [], "rate-sweep"),
            (heat_config(extra=sweep), ("sweep",), [], "rate-sweep"),
            (heat_config(), ("problem", "controls"), "x", "solve"),
            (heat_config(extra=sweep), ("sweep", "theory"), ["case"], "rate-sweep"),
        ]
        for i, (section_cfg, path, value, command) in enumerate(sections):
            section_cfg = json.loads(json.dumps(section_cfg))
            node = section_cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            cases.append((f"object{i}", section_cfg, command))
        for name, cfg_data, command in cases:
            cfg = write_config(tmp_path / f"{name}.json", cfg_data)
            out = tmp_path / f"{name}_out"
            assert main([command, "--config", cfg, "--out", str(out)]) == 2, name
            assert not out.exists(), name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
            assert not name.startswith("number") or "must be a number" in err, (name, err)
            assert not name.startswith("object") or "must be an object" in err, (name, err)
            assert not name.startswith("list") or "must be a list" in err, (name, err)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_exit_2_without_output(self, tmp_path, bad):
        # JSON's NaN and Infinity: the horizon, a capture time, eps_num, an
        # operator field, a grid extent (with data that a NaN coordinate does
        # not make non-finite), a sweep value and the margin (Infinity wrote
        # "consistent": true and exited 0)
        horizon = heat_config(T=bad)
        capture = heat_config(snapshot_times=[bad, 0.1])
        floor = heat_config()
        floor["problem"]["controls"] = {"eps_num": bad}
        exponent = heat_config()
        exponent["problem"]["operator"]["p"] = bad
        reg = heat_config()
        reg["problem"]["operator"] = {"family": "regularized_pq", "p": 1.0, "p_prime": 2.0,
                                      "eps": bad}
        drift = heat_config()
        drift["problem"]["operator"] = {"family": "biased_infinity", "a": bad}
        extent = heat_config()
        extent["problem"]["grid"]["extent"] = [[0.0, bad]]
        extent["problem"]["data"] = {"kind": "constant", "value": 1.0}
        member = heat_config()
        member["sweep"] = {"axis": "p", "values": [bad, 0.2, 0.1, 0.05]}
        margin = heat_config()
        margin["sweep"] = {"axis": "p", "values": [0.4, 0.2, 0.1, 0.05], "margin": bad,
                           "theory": {"case": "normalized", "theta": 1.0, "q": 3.0}}
        for name, cfg_data, command in (("horizon", horizon, "solve"),
                                        ("capture", capture, "solve"),
                                        ("floor", floor, "solve"),
                                        ("exponent", exponent, "solve"),
                                        ("reg", reg, "solve"),
                                        ("drift", drift, "solve"),
                                        ("extent", extent, "solve"),
                                        ("member", member, "rate-sweep"),
                                        ("margin", margin, "rate-sweep")):
            cfg = write_config(tmp_path / f"{name}.json", cfg_data)
            out = tmp_path / f"{name}_out"
            assert main([command, "--config", cfg, "--out", str(out)]) == 2, name
            assert not out.exists(), name

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_data = heat_config()
        cfg_data["problem"]["grid"]["typo_key"] = 1
        cfg = write_config(tmp_path / "typo.json", cfg_data)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        # removed knobs: the CFL factor, the gradient clamp, the singular floor,
        # and barenblatt data that would not track the operator's p
        removed = (("controls", "cfl_sigma", 0.4), ("controls", "grad_clamp", 3.0),
                   ("operator", "grad_floor", 0.1),
                   ("data", "track_parameter", False), ("data", "p", 3.0))
        for section, key, value in removed:
            cfg_data = heat_config()
            if section == "data":
                cfg_data["problem"]["data"] = {"kind": "barenblatt"}
            cfg_data["problem"].setdefault(section, {})[key] = value
            cfg = write_config(tmp_path / f"{key}.json", cfg_data)
            out = tmp_path / f"{key}_out"
            capsys.readouterr()
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 2, key
            assert f"unknown key(s) ['{key}']" in capsys.readouterr().err
            assert not out.exists(), key

    def test_each_section_takes_the_fields_of_its_dataclass(self, tmp_path, capsys):
        cfg_data = heat_config(T=0.02, snapshot_times=[0.01, 0.02])
        problem = cfg_data["problem"]
        problem["operator"].update(p_prime=2.0, eps=0.0, eps1=0.0, eps2=0.0, a=0.0)
        problem["controls"].update(eps_num=0.05, max_steps=10_000)
        sections = (("operator", OperatorSpec), ("grid", GridSpec), ("controls", SolverControls))
        for section, cls in sections:
            assert sorted(problem[section]) == sorted(f.name for f in fields(cls)), section
        cfg = write_config(tmp_path / "all.json", cfg_data)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "all_out")]) == 0
        for section, _ in sections:
            bad = json.loads(json.dumps(cfg_data))
            bad["problem"][section]["typo_key"] = 1
            cfg = write_config(tmp_path / f"{section}.json", bad)
            out = tmp_path / f"{section}_out"
            capsys.readouterr()
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 2, section
            assert (capsys.readouterr().err
                    == f"error: unknown key(s) ['typo_key'] in problem.{section}\n"), section
            assert not out.exists(), section

    @pytest.mark.parametrize("path, value, message", [
        (("schema_version",), 2, "schema_version must be 1"),
        # true == 1 in Python: the config ran and exited 0
        (("schema_version",), True, "schema_version must be 1"),
        (("problem", "operator", "family"), "laplace", "unknown operator family 'laplace'"),
        (("problem", "grid", "boundary"), "neumann", "unknown boundary 'neumann'"),
        (("problem", "data", "kind"), "gaussian", "unknown data kind 'gaussian'"),
        (("sweep", "axis"), "q", "unknown sweep axis 'q'"),
        (("sweep", "theory", "case"), "quadratic", "unknown theory case 'quadratic'"),
        (("sweep",), None, "config needs a 'sweep' section for rate-sweep"),
    ], ids=["schema", "schema_bool", "family", "boundary", "data", "axis", "case", "no_sweep"])
    def test_unknown_name_exits_2_without_output(self, tmp_path, capsys, path, value, message):
        cfg_data = heat_config(extra={"sweep": {
            "axis": "p", "values": [0.4, 0.2, 0.1, 0.05],
            "theory": {"case": "normalized", "theta": 1.0}}})
        node = cfg_data
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        cfg = write_config(tmp_path / "bad.json", cfg_data)
        commands = ["rate-sweep"] if path[0] == "sweep" else ["solve", "rate-sweep"]
        for command in commands:
            out = tmp_path / f"{command}_out"
            assert main([command, "--config", cfg, "--out", str(out)]) == 2, command
            assert not out.exists(), command
            assert message in capsys.readouterr().err, command

    @pytest.mark.parametrize("shared", [True, False])
    def test_removed_shared_dt_exits_2_without_output(self, tmp_path, capsys, shared):
        # every step of a sweep is the smallest CFL bound of that step over
        # the base and the members
        cfg_data = heat_config()
        cfg_data["sweep"] = {"axis": "p", "values": [0.4, 0.2, 0.1, 0.05], "shared_dt": shared}
        cfg = write_config(tmp_path / "sweep.json", cfg_data)
        out = tmp_path / "out"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown key(s) ['shared_dt']" in capsys.readouterr().err
        assert not out.exists()

    def test_field_the_family_does_not_read_exits_2_without_output(self, tmp_path, capsys):
        # both used to solve as if the extra field were absent
        for name, operator, field in (
                ("variational", {"family": "variational", "p": 3.0, "p_prime": 5.0}, "p_prime"),
                ("normalized", {"family": "normalized", "p": 3.0, "eps": 0.5}, "eps")):
            cfg_data = heat_config()
            cfg_data["problem"]["operator"] = operator
            cfg = write_config(tmp_path / f"{name}.json", cfg_data)
            out = tmp_path / f"{name}_out"
            capsys.readouterr()
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 2, name
            assert f"{name} does not read {field}" in capsys.readouterr().err
            assert not out.exists(), name

    def test_whole_float_max_steps_is_accepted(self, tmp_path):
        cfg_data = heat_config()
        cfg_data["problem"]["controls"] = {"max_steps": 1e5}
        cfg = write_config(tmp_path / "steps.json", cfg_data)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_hamiltonian_section_rejected(self, tmp_path):
        # the first-order term comes from the operator's a and eps2
        cfg_data = heat_config()
        cfg_data["problem"]["hamiltonian"] = {"a": 0.0}
        cfg = write_config(tmp_path / "ham.json", cfg_data)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        # and only the biased families have one
        cfg_data = heat_config()
        cfg_data["problem"]["operator"]["a"] = 1.0
        cfg = write_config(tmp_path / "drift.json", cfg_data)
        out = tmp_path / "drift_out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_readme_config_is_valid(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg_data = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        cfg = write_config(tmp_path / "readme.json", cfg_data)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "readme_stats.json", "readme_t0.25.csv", "readme_t0.5.csv"]
        problem, data = _build_problem(cfg_data["problem"])
        plan, margin = _build_sweep(cfg_data, problem, data)
        assert len(plan.values) == 4 and plan.theory is not None and margin > 0.0
        # no sweep.gap_times: the sweep measures at the problem's snapshot times
        assert plan.gap_times == (0.25, 0.5)

    def test_zero_horizon_single_snapshot(self, tmp_path):
        cfg = write_config(tmp_path / "t0.json", heat_config(T=0.0))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        snaps = list(out.glob("t0_t*.csv"))
        assert len(snaps) == 1
        fld = load_field(snaps[0])
        x = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        np.testing.assert_allclose(fld.values, np.sin(x), atol=1e-15)

    def test_budget_failure_exits_1(self, tmp_path, capsys):
        cfg_data = heat_config()
        cfg_data["problem"]["controls"] = {"max_steps": 1}
        cfg = write_config(tmp_path / "short.json", cfg_data)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_unregularizable_solve_exits_2_without_output(self, tmp_path, capsys):
        # constant data: every node is singular, and eps_num = 0 cannot
        # regularize them; the error comes from the first step, after the
        # config checks, and still leaves no --out directory
        cfg_data = heat_config()
        cfg_data["problem"]["operator"] = {"family": "variational", "p": 1.5}
        cfg_data["problem"]["data"] = {"kind": "constant", "value": 1.0}
        cfg_data["problem"]["controls"] = {"eps_num": 0.0}
        cfg = write_config(tmp_path / "flat.json", cfg_data)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert "eps_num = 0 cannot regularize" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_gap_sweep_exits_1_without_output(self, tmp_path, capsys):
        # constant data: every gap and the floor are 0, so no gap is above
        # 10x the floor (a zero gap reached the fit and exited 2)
        cfg_data = heat_config()
        cfg_data["problem"]["data"] = {"kind": "constant", "value": 1.0}
        cfg_data["sweep"] = {"axis": "p", "values": [0.4, 0.2, 0.1, 0.05]}
        cfg = write_config(tmp_path / "flat.json", cfg_data)
        out = tmp_path / "out"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 1
        assert "only 0 gaps above 10x the error floor" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_data_keeps_its_value(self, tmp_path):
        cfg_data = heat_config()
        cfg_data["problem"]["data"] = {"kind": "constant", "value": 2.5}
        cfg = write_config(tmp_path / "flat.json", cfg_data)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        np.testing.assert_array_equal(load_field(out / "flat_t0.1.csv").values, 2.5)

    @pytest.mark.parametrize("kind", ["sinusoid", "barenblatt"])
    def test_2d_dirichlet_data_captured_at_t0(self, tmp_path, kind):
        # the capture at t = 0 is the trace at t = 0 on both axes
        from plaplab import ExactSolution, SolutionId
        cfg_data = heat_config(T=0.01, snapshot_times=[0.0, 0.01])
        cfg_data["problem"]["grid"] = {"dim": 2, "extent": [[0.5, 1.5], [0.25, 1.25]],
                                       "resolution": [17, 17], "boundary": "dirichlet"}
        if kind == "sinusoid":
            cfg_data["problem"]["data"] = {"kind": "sinusoid", "wavenumber": [1.0, 2.0]}
        else:
            cfg_data["problem"]["data"] = {"kind": "barenblatt", "time_offset": 0.5}
        cfg = write_config(tmp_path / "plane.json", cfg_data)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        x, y = np.meshgrid(np.linspace(0.5, 1.5, 17), np.linspace(0.25, 1.25, 17),
                           indexing="ij")
        if kind == "sinusoid":
            expected = np.sin(x) * np.sin(2.0 * y)
        else:
            sol = ExactSolution(SolutionId.BARENBLATT, p=3.0, n=2, A=1.0)
            expected = sol.eval_radial(np.sqrt(x ** 2 + y ** 2), 0.5)
        fld = load_field(out / "plane_t0.csv")
        np.testing.assert_allclose(fld.values, expected, rtol=0.0, atol=1e-12)

    def test_idempotent(self, tmp_path):
        cfg = write_config(tmp_path / "heat.json", heat_config())
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


# one value of each JSON type, small enough that no case would build a large
# grid or run a long horizon were it accepted
JSON_VALUES = {"null": None, "boolean": True, "number": 1, "string": "1", "array": [1],
               "object": {}}


def json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    return {type(None): "null", int: "number", float: "number", str: "string",
            list: "array", dict: "object"}[type(value)]


def leaves(node, path=()):
    """(path, value) of every value below ``node``: sections, lists and their
    entries included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from leaves(value, path + (key,))


class TestConfigValueTypes:
    # beside the README config's leaves: keys it leaves at their defaults
    EXTRA = {("problem", "data"): {"wavenumber": 1.0, "amplitude": 1.0},
             ("problem", "controls"): {"eps_num": 0.1, "max_steps": 100_000},
             ("sweep",): {"gap_times": []}}
    # types a key takes besides its own: a wavenumber list, eps_num's null default
    ALSO = {"wavenumber": {"array"}, "eps_num": {"null"}}

    def config(self):
        cfg_data = readme_config()
        for path, extra in self.EXTRA.items():
            node = cfg_data
            for key in path:
                node = node[key]
            node.update(extra)
        return cfg_data

    def test_every_wrong_type_exits_2_naming_its_key(self, tmp_path, capsys):
        # "snapshot_times": null exited 2 with "'NoneType' object is not
        # iterable", naming no key; "schema_version": true ran the sweep
        valid = self.config()
        problem, data = _build_problem(valid["problem"])
        _build_sweep(valid, problem, data)
        cases = 0
        for path, value in leaves(self.config()):
            key = next(k for k in reversed(path) if isinstance(k, str))
            good = {json_type(value)} | self.ALSO.get(path[-1], set())
            for kind, bad in JSON_VALUES.items():
                if kind in good:
                    continue
                cfg_data = self.config()
                node = cfg_data
                for step in path[:-1]:
                    node = node[step]
                node[path[-1]] = bad
                name = f"{'.'.join(map(str, path))}={kind}"
                cfg = write_config(tmp_path / "typed.json", cfg_data)
                out = tmp_path / "out"
                assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 2, name
                assert not out.exists(), name
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
                assert key in err, (name, err)
                cases += 1
        assert cases > 100

    def test_oversized_integers_exit_2(self, tmp_path, capsys):
        # a 401-digit horizon or resolution entry raised an OverflowError
        # traceback (exit 1)
        huge = 10 ** 400
        for name, path, value in (("horizon", ("problem", "horizon"), huge),
                                  ("negative", ("problem", "horizon"), -huge),
                                  ("resolution", ("problem", "grid", "resolution"), [huge]),
                                  ("dim", ("problem", "grid", "dim"), huge),
                                  ("max_steps", ("problem", "controls", "max_steps"), huge)):
            cfg_data = heat_config()
            cfg_data["problem"].setdefault("controls", {})
            node = cfg_data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            cfg = write_config(tmp_path / f"{name}.json", cfg_data)
            out = tmp_path / f"{name}_out"
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 2, name
            assert not out.exists(), name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
        # read as JSON's 1e400 is: infinite, and the owner's finite check rejects it
        problem = heat_config(T=huge)["problem"]
        with pytest.raises(ValueError, match="T must be finite and >= 0, got inf"):
            _build_problem(problem)

    @pytest.mark.parametrize("section", ["problem", "operator"])
    def test_repeated_key_exits_2_naming_it(self, tmp_path, capsys, section):
        # json.load kept the last value: "horizon": 0.01, "horizon": 0.02 solved
        # to T = 0.02 and exited 0
        text = json.dumps(heat_config(T=0.01), indent=2)
        key, repeat = (('"horizon": 0.01', '"horizon": 0.01, "horizon": 0.02')
                       if section == "problem" else ('"p": 3.0', '"p": 3.0, "p": 4.0'))
        assert text.count(key) == 1
        cfg = tmp_path / "repeated.json"
        cfg.write_text(text.replace(key, repeat))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        name = key.split(":")[0].strip('"')
        assert capsys.readouterr().err == f"error: repeated key {name!r} in a config object\n"

    @pytest.mark.parametrize("extent", [[[0.0, 1.0, 2.0]], [[0.0]]])
    def test_extent_entry_that_is_no_pair_exits_2(self, tmp_path, capsys, extent):
        # [[0, 1, 2]] exited with "too many values to unpack (expected 2)"
        cfg_data = heat_config()
        cfg_data["problem"]["grid"]["extent"] = extent
        cfg = write_config(tmp_path / "extent.json", cfg_data)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: each extent entry must be a pair [a, b]"), err


@pytest.mark.parametrize("argv", readme_commands(README), ids=lambda argv: argv[0])
def test_readme_checking_command_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


class TestRateSweepCommand:
    def test_normalized_sweep(self, tmp_path):
        cfg_data = heat_config(T=0.25, n=64)
        cfg_data["sweep"] = {
            "axis": "p",
            "values": [2.0 ** (-k) for k in range(3, 7)],
            "gap_times": [0.05, 0.1, 0.15, 0.2, 0.25],
            "theory": {"case": "normalized", "theta": 1.0, "q": 3.0},
            "margin": 0.15,
        }
        cfg = write_config(tmp_path / "sweep.json", cfg_data)
        out = tmp_path / "out"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep_rates.csv").read_text().splitlines()
        assert len(rows) == 5
        fit = json.loads((out / "sweep_fit.json").read_text())
        assert fit["consistent"] is True
        assert 0.85 <= fit["slope"] <= 1.15

    @pytest.mark.parametrize("case, key, bad", [
        ("variational-degenerate", "q", math.inf),
        ("normalized", "q", math.inf),
        ("regularized", "p_prime", math.nan),
    ])
    def test_non_finite_theory_exits_2_without_output(self, tmp_path, capsys, case, key, bad):
        # "q": Infinity wrote "theory_nu": NaN (not JSON) and exited 0
        cfg_data = heat_config(T=0.1)
        theory = {"case": case, "theta": 1.0, "p": 3.0, "q": 3.0, "p_prime": 3.0} | {key: bad}
        cfg_data["sweep"] = {"axis": "p", "values": [0.4, 0.2, 0.1, 0.05], "gap_times": [0.1],
                             "theory": theory}
        cfg = write_config(tmp_path / "theory.json", cfg_data)
        out = tmp_path / "o"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "finite" in capsys.readouterr().err

    def test_unread_theory_parameter_exits_2_without_output(self, tmp_path, capsys):
        # a stray p_prime was accepted and ignored
        cfg_data = heat_config(T=0.1)
        cfg_data["sweep"] = {"axis": "p", "values": [0.4, 0.2, 0.1, 0.05], "gap_times": [0.1],
                             "theory": {"case": "normalized", "theta": 1.0, "q": 3.0,
                                        "p_prime": 5.0}}
        cfg = write_config(tmp_path / "theory.json", cfg_data)
        out = tmp_path / "o"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: normalized does not read p_prime\n"

    def test_theory_keys_are_the_case_and_family_rates_keywords(self):
        keywords = [name for name, param in inspect.signature(family_rate).parameters.items()
                    if param.kind is param.KEYWORD_ONLY]
        assert cli._THEORY_KEYS == ("case", *keywords)

    def test_too_few_values_exit_2(self, tmp_path):
        cfg_data = heat_config(T=0.1)
        cfg_data["sweep"] = {"axis": "p", "values": [0.1, 0.05]}
        cfg = write_config(tmp_path / "few.json", cfg_data)
        out = tmp_path / "o"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_member_data_that_cannot_be_built_exit_2_without_output(self, tmp_path, capsys):
        # the p = 2 member of a variational(1.5) sweep has no Barenblatt data;
        # the plan builds every member before the output directory is made
        cfg_data = {"schema_version": 1, "problem": {
            "operator": {"family": "variational", "p": 1.5},
            "grid": {"dim": 1, "extent": [[0.5, 2.0]], "resolution": [33],
                     "boundary": "dirichlet"},
            "data": {"kind": "barenblatt", "A": 1.0, "time_offset": 1.0},
            "horizon": 0.1},
            "sweep": {"axis": "p", "values": [0.5, 0.25, 0.125, 0.0625]}}
        cfg = write_config(tmp_path / "gaussian.json", cfg_data)
        out = tmp_path / "out"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "p != 2" in capsys.readouterr().err

    def test_axis_without_members_exit_2(self, tmp_path):
        # the biased families have no p: the sweep is refused before any output
        cfg_data = heat_config(T=0.1)
        cfg_data["problem"]["operator"] = {"family": "biased_infinity"}
        cfg_data["sweep"] = {"axis": "p", "values": [0.4, 0.2, 0.1, 0.05]}
        cfg = write_config(tmp_path / "biased.json", cfg_data)
        out = tmp_path / "o"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_regularization_sweep_reports_attained_theory(self, tmp_path):
        cfg_data = {
            "schema_version": 1,
            "problem": {
                "operator": {"family": "regularized_pq", "p": 2.0,
                             "p_prime": 2.5, "eps": 0.0},
                "grid": {"dim": 1, "extent": [[0.0, 2.0 * math.pi]],
                         "resolution": [512], "boundary": "periodic"},
                "data": {"kind": "sinusoid"},
                "horizon": 0.05,
            },
            "sweep": {
                "axis": "eps",
                "values": [0.2, 0.1, 0.05, 0.025],
                "theory": {"case": "regularized", "theta": 1.0, "p_prime": 2.5},
            },
        }
        cfg = write_config(tmp_path / "reg.json", cfg_data)
        out = tmp_path / "out"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 0
        fit = json.loads((out / "reg_fit.json").read_text())
        assert fit["theory_nu"] == 0.5
        assert fit["theory_attained"] is True

    def test_barenblatt_data_kind_solves(self, tmp_path):
        cfg_data = {
            "schema_version": 1,
            "problem": {
                "operator": {"family": "variational", "p": 3.0},
                "grid": {"dim": 1, "extent": [[0.5, 2.0]],
                         "resolution": [33], "boundary": "dirichlet"},
                "data": {"kind": "barenblatt", "A": 1.0, "time_offset": 1.0},
                "horizon": 0.1,
            },
        }
        cfg = write_config(tmp_path / "bb.json", cfg_data)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        from plaplab import ExactSolution, SolutionId
        sol = ExactSolution(SolutionId.BARENBLATT, p=3.0, n=1, A=1.0)
        fld = load_field(out / "bb_t0.1.csv")
        x = np.linspace(0.5, 2.0, 33)
        assert np.max(np.abs(fld.values - sol.eval_radial(x, 1.1))) < 1e-3

    def test_barenblatt_p_sweep_matches_library(self, tmp_path):
        # each member's barenblatt data is taken at the member's own p; the CLI
        # gap table and fit equal run_sweep with the same data built in Python
        from plaplab import (Boundary, ExactSolution, GridSpec, OperatorSpec,
                             PerturbationAxis, Problem, SolutionId, SweepPlan, run_sweep)
        values = [0.125, 0.0625, 0.03125, 0.015625]
        cfg_data = {
            "schema_version": 1,
            "problem": {
                "operator": {"family": "variational", "p": 3.0},
                "grid": {"dim": 1, "extent": [[0.5, 2.0]],
                         "resolution": [33], "boundary": "dirichlet"},
                "data": {"kind": "barenblatt", "A": 1.0, "time_offset": 1.0},
                "horizon": 0.1,
            },
            "sweep": {"axis": "p", "values": values, "gap_times": [0.05, 0.1]},
        }
        cfg = write_config(tmp_path / "bb.json", cfg_data)
        out = tmp_path / "out"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "bb_rates.csv").read_text().splitlines()[1:]
        gaps = [float(row.split(",")[1]) for row in rows]
        summary = json.loads((out / "bb_fit.json").read_text())

        def data_for(p):
            sol = ExactSolution(SolutionId.BARENBLATT, p=p, n=1, A=1.0)
            return (lambda x: sol.eval_radial(np.abs(x), 1.0),
                    lambda x, t: sol.eval_radial(np.abs(x), 1.0 + t))

        initial, dirichlet = data_for(3.0)
        base = Problem(spec=OperatorSpec.variational(3.0),
                       grid=GridSpec.line(0.5, 2.0, 33, Boundary.DIRICHLET),
                       initial=initial, T=0.1, dirichlet=dirichlet)
        fit = run_sweep(SweepPlan(base=base, axis=PerturbationAxis.P, values=tuple(values),
                                  gap_times=(0.05, 0.1),
                                  data_for_spec=lambda spec: data_for(spec.p)))
        assert not any(fit.excluded)
        np.testing.assert_allclose(gaps, fit.gap_list, rtol=1e-12, atol=0.0)
        assert summary["slope"] == pytest.approx(fit.slope, rel=1e-12, abs=0)
        assert summary["error_floor"] == pytest.approx(fit.error_floor, rel=1e-12, abs=0)


class TestVerifyExactCommand:
    def test_radial_elliptic_passes(self, capsys):
        assert main(["verify-exact", "--solution", "radial-elliptic",
                     "--p", "3", "--n", "1"]) == 0
        assert "max |residual|" in capsys.readouterr().out

    def test_invalid_barenblatt_exit_2(self, capsys):
        assert main(["verify-exact", "--solution", "barenblatt",
                     "--p", "1.2", "--n", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: requires p > 2n/(n+1)") and err.count("\n") == 1

    def test_fundamental_needs_p_above_n(self):
        assert main(["verify-exact", "--solution", "fundamental",
                     "--p", "2", "--n", "3"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--solution", "radial-elliptic", "--p", "nan"],
        ["--solution", "radial-elliptic", "--p", "inf"],
        ["--solution", "barenblatt", "--p", "nan"],
        ["--solution", "heat-mode", "--p", "3", "--t", "nan"],
        ["--solution", "torsion", "--p", "3", "--c", "nan"],
        ["--solution", "radial-elliptic", "--p", "3", "--tol", "inf"],
        ["--solution", "radial-elliptic", "--p", "3", "--radii", "0"],
    ], ids=lambda argv: " ".join(argv[1:]))
    def test_bad_flag_exits_2_without_output(self, tmp_path, capsys, argv):
        # each read "max |residual| ... 0.000e+00" and exited 0
        out = tmp_path / "out"
        assert main(["verify-exact", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "max |residual|" not in captured.out and "error:" in captured.err
        assert not out.exists()

    def test_heat_mode_from_the_origin_passes(self, capsys):
        # --r-min 0 set the clearance to 0, and the run exited 2 naming --clearance
        assert main(["verify-exact", "--solution", "heat-mode", "--p", "3",
                     "--r-min", "0", "--r-max", "6"]) == 0
        assert "max |residual| over 100 radii in [0, 6]" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["--solution", "barenblatt", "--p", "3", "--r-max", "5"],
         "point outside the support: |x| = 3.33667, support radius 3.30193"),
        (["--solution", "barenblatt", "--p", "3", "--r-max", "3.3019272488946263"],
         "point inside clearance 0.001 of the free boundary: |x| = 3.30193, "
         "support radius 3.30193"),
        (["--solution", "torsion", "--p", "3", "--r-min", "0"],
         "|x| = 0 inside clearance 0.001 of the origin"),
    ], ids=["support", "free boundary", "origin"])
    def test_radius_outside_the_domain_exits_2_without_output(self, tmp_path, capsys, argv,
                                                             message):
        # the Barenblatt calls exited 1 as a numerical failure
        out = tmp_path / "out"
        assert main(["verify-exact", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_nan_residual_fails(self, monkeypatch):
        # one NaN among finite residuals: max(worst, nan) kept the finite worst
        calls, residual = [], cli.residual

        def nan_once(*args, **kwargs):
            calls.append(1)
            return math.nan if len(calls) == 3 else residual(*args, **kwargs)

        monkeypatch.setattr(cli, "residual", nan_once)
        assert main(["verify-exact", "--solution", "radial-elliptic", "--p", "3"]) == 1
        assert len(calls) == 100

    def test_radii_are_evenly_spaced(self, monkeypatch):
        radii, residual = [], cli.residual

        def record(sol, r, **kwargs):
            radii.append(r)
            return residual(sol, r, **kwargs)

        monkeypatch.setattr(cli, "residual", record)
        assert main(["verify-exact", "--solution", "torsion", "--p", "3", "--radii", "7",
                     "--r-min", "0.2", "--r-max", "0.8"]) == 0
        assert radii == list(np.linspace(0.2, 0.8, 7))

    def test_seed_is_no_flag(self, capsys):
        # the radii are evenly spaced, so there is no generator to seed
        with pytest.raises(SystemExit) as exit_:
            main(["verify-exact", "--solution", "radial-elliptic", "--p", "3", "--seed", "1"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_flag_the_solution_does_not_read_exits_2(self, tmp_path, capsys):
        # each was ignored: the run checked the solution at A = 1, c = 1, as if
        # no --t were given, or heat mode as sin x (writing "n": 3), and exited 0
        for argv, message in (
                (["--solution", "torsion", "--p", "3", "--A", "7"], "torsion does not read A"),
                (["--solution", "radial-elliptic", "--p", "3", "--c", "2"],
                 "radial_elliptic does not read c"),
                (["--solution", "barenblatt", "--p", "3", "--c", "2"],
                 "barenblatt does not read c"),
                (["--solution", "torsion", "--p", "3", "--t", "5"], "torsion does not read t"),
                (["--solution", "fundamental", "--p", "3", "--t", "1"],
                 "fundamental does not read t"),
                (["--solution", "heat-mode", "--p", "3", "--n", "3"],
                 "heat_mode does not read n")):
            out = tmp_path / "out"
            assert main(["verify-exact", *argv, "--out", str(out)]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"error: {message}"), argv
            assert captured.err.count("\n") == 1, argv
            assert not out.exists(), argv
        # the flag a solution reads reaches it
        assert main(["verify-exact", "--solution", "torsion", "--p", "3", "--c", "2"]) == 0
        assert main(["verify-exact", "--solution", "barenblatt", "--p", "3", "--n", "2",
                     "--A", "2", "--r-max", "0.5"]) == 0

    @pytest.mark.parametrize("argv, t", [
        (["--solution", "heat-mode", "--p", "3"], 1.0),
        (["--solution", "heat-mode", "--p", "3", "--t", "0.5"], 0.5),
        (["--solution", "barenblatt", "--p", "3", "--r-max", "0.5"], 1.0),
        (["--solution", "barenblatt", "--p", "3", "--r-max", "0.5", "--t", "2"], 2.0),
        (["--solution", "torsion", "--p", "3"], None),
    ], ids=["heat-mode", "heat-mode t", "barenblatt", "barenblatt t", "torsion"])
    def test_time_reaches_the_solutions_that_read_it(self, monkeypatch, argv, t):
        times, residual = set(), cli.residual

        def record(sol, r, t=None, **kwargs):
            times.add(t)
            return residual(sol, r, t=t, **kwargs)

        monkeypatch.setattr(cli, "residual", record)
        assert main(["verify-exact", *argv]) == 0
        assert times == {t}

    def test_out_writes_the_record(self, tmp_path, capsys):
        assert main(["verify-exact", "--solution", "torsion", "--p", "3", "--n", "2",
                     "--radii", "20", "--out", str(tmp_path)]) == 0
        printed = float(capsys.readouterr().out.split()[-1])
        record = json.loads((tmp_path / "verify_torsion.json").read_text())
        assert record == {"solution": "torsion", "p": 3.0, "n": 2,
                          "max_residual": pytest.approx(printed, rel=1e-3, abs=1e-300),
                          "tol": 1e-10}
        assert record["max_residual"] <= 1e-10


class TestLogLevel:
    @pytest.mark.parametrize("level", ["LOUD", "10", "warn", ""])
    def test_unknown_level_exits_2_before_any_work(self, monkeypatch, capsys, level):
        # "LOUD" and "10" raised logging's ValueError traceback and exited 1
        monkeypatch.setenv("PLAP_LOG", level)
        assert main(["rate-table", "--case", "normalized", "--theta", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: PLAP_LOG must be one of")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("level", ["debug", "Info", "WARNING", "error", "critical"])
    def test_known_level_in_any_case_runs(self, monkeypatch, capsys, level):
        monkeypatch.setenv("PLAP_LOG", level)
        assert main(["rate-table", "--case", "normalized", "--theta", "1"]) == 0
        assert "attained" in capsys.readouterr().out


class TestRateTableCommand:
    def test_regularization_table(self, capsys):
        assert main(["rate-table", "--case", "regularized", "--theta", "1",
                     "--p-prime", "2", "2.5", "3.5", "5"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith(" " * 3)]
        assert "open sup" in out and "attained" in out

    def test_matched_general_value(self, capsys):
        assert main(["rate-table", "--case", "general-pq-matched",
                     "--theta", "0.5", "--q-prime", "4"]) == 0
        assert "0.333333333" in capsys.readouterr().out

    def test_invalid_theta_exit_2(self):
        assert main(["rate-table", "--case", "normalized", "--theta", "1.5"]) == 2

    def test_case_outside_its_window_prints_one_error_line(self, capsys):
        assert main(["rate-table", "--case", "variational-degenerate", "--theta", "1",
                     "--p", "1.5", "--q", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: requires p > 2\n"

    def test_unread_parameter_exits_2(self, capsys):
        # printed a row labelled p_prime 7 and exited 0
        assert main(["rate-table", "--case", "normalized", "--theta", "1",
                     "--p-prime", "7", "--m", "0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: normalized does not read p_prime, m\n"

    @pytest.mark.parametrize("flag, bad", [("--q", "inf"), ("--p", "nan"), ("--theta", "nan"),
                                           ("--m", "inf")])
    def test_non_finite_parameter_exits_2(self, capsys, flag, bad):
        # --q inf printed nu = nan and exited 0
        flags = {"--theta": "1", "--p": "3", "--q": "3"} | {flag: bad}
        argv = ["rate-table", "--case", "variational-degenerate"]
        assert main(argv + [x for kv in flags.items() for x in kv]) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and captured.out == ""


class TestCheckC1Command:
    def test_variational_pass_and_fail(self):
        common = ["check-c1", "--family", "variational", "--q", "3",
                  "--axis", "p", "--eps", "0.1", "0.01", "0.001", "0.0001",
                  "--alpha", "1", "--c-A", "10"]
        assert main(common + ["--beta", "0.5"]) == 0
        assert main(common + ["--beta", "0.0"]) == 1

    def test_flag_the_family_does_not_read_exits_2(self, monkeypatch, capsys):
        # each certified the family's member without the flag and exited 0
        envelope = ["--eps", "0.1", "0.01", "--alpha", "1", "--beta", "0.5", "--c-A", "10"]
        for argv, field in ((["--family", "normalized", "--q-prime", "7"], "p_prime"),
                            (["--family", "normalized", "--q", "3", "--q-prime", "7",
                              "--a", "5"], "p_prime"),
                            (["--family", "variational", "--q", "3", "--a", "5"], "a"),
                            (["--family", "biased", "--q", "3"], "p")):
            assert main(["check-c1", *argv, "--axis", "p", *envelope]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and f"does not read {field};" in captured.err, argv
        # a flag that is not given leaves its field at the spec's default
        bases, certify = [], cli.c1_certify

        def record(base, *args, **kwargs):
            bases.append(base)
            return certify(base, *args, **kwargs)

        monkeypatch.setattr(cli, "c1_certify", record)
        for argv in (["--family", "general_pq", "--q", "3", "--axis", "p"],
                     ["--family", "regularized_pq", "--q", "3", "--axis", "p"],
                     ["--family", "biased", "--a", "0.5", "--axis", "eps1_eps2"]):
            assert main(["check-c1", *argv, *envelope]) in (0, 1), argv
        assert bases == [OperatorSpec.general_pq(3.0, 2.0),
                         OperatorSpec.regularized_pq(3.0, 2.0, 0.0),
                         OperatorSpec.biased_infinity_regularized(0.5, 0.0, 0.0)]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_perturbation_names_the_perturbation(self, capsys, bad):
        # --eps nan was reported against p ("p must be finite, got nan"),
        # a field no flag set
        argv = ["check-c1", "--family", "variational", "--q", "3", "--axis", "p",
                "--eps", "0.1", bad, "--alpha", "1", "--beta", "0.5", "--c-A", "10"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: perturbation value must be finite, got {bad}\n"

    @pytest.mark.parametrize("flag, bad", [("--beta", "nan"), ("--c-A", "inf"), ("--alpha", "nan"),
                                           ("--k", "inf"), ("--xi-min", "nan")])
    def test_non_finite_flag_exits_2(self, capsys, flag, bad):
        # --beta nan read PASS, --c-A inf passed anything, and --alpha nan and
        # --xi-min nan raised a TypeError traceback
        flags = {"--alpha": "1", "--beta": "0.5", "--c-A": "10"} | {flag: bad}
        argv = ["check-c1", "--family", "variational", "--q", "3", "--axis", "p",
                "--eps", "0.1", "0.01"] + [x for kv in flags.items() for x in kv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and "PASS" not in captured.out
