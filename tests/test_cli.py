import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from plaplab import load_field
from plaplab.cli import _build_problem, _build_sweep, main


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

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
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
        for name, cfg_data, command in (("no_dim", no_dim, "solve"),
                                        ("resolution", scalar_resolution, "solve"),
                                        ("data_list", data_list, "solve"),
                                        ("no_theta", no_theta, "rate-sweep"),
                                        ("margin", negative_margin, "rate-sweep")):
            cfg = write_config(tmp_path / f"{name}.json", cfg_data)
            out = tmp_path / f"{name}_out"
            assert main([command, "--config", cfg, "--out", str(out)]) == 2, name
            assert not out.exists(), name

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_exit_2_without_output(self, tmp_path, bad):
        # JSON's NaN and Infinity: the horizon, a capture time, eps_num, an
        # operator field and a sweep value
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
        member = heat_config()
        member["sweep"] = {"axis": "p", "values": [bad, 0.2, 0.1, 0.05]}
        for name, cfg_data, command in (("horizon", horizon, "solve"),
                                        ("capture", capture, "solve"),
                                        ("floor", floor, "solve"),
                                        ("exponent", exponent, "solve"),
                                        ("reg", reg, "solve"),
                                        ("drift", drift, "solve"),
                                        ("member", member, "rate-sweep")):
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

    @pytest.mark.parametrize("shared", [True, False])
    def test_removed_shared_dt_exits_2_without_output(self, tmp_path, capsys, shared):
        # sweeps always share one step, capped at each member's CFL bound
        cfg_data = heat_config()
        cfg_data["sweep"] = {"axis": "p", "values": [0.4, 0.2, 0.1, 0.05], "shared_dt": shared}
        cfg = write_config(tmp_path / "sweep.json", cfg_data)
        out = tmp_path / "out"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown key(s) ['shared_dt']" in capsys.readouterr().err
        assert not out.exists()

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
        problem, rebuild = _build_problem(cfg_data["problem"])
        plan, margin = _build_sweep(cfg_data, problem, rebuild)
        assert len(plan.values) == 4 and plan.theory is not None and margin > 0.0

    def test_zero_horizon_single_snapshot(self, tmp_path):
        cfg = write_config(tmp_path / "t0.json", heat_config(T=0.0))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        snaps = list(out.glob("t0_t*.csv"))
        assert len(snaps) == 1
        fld = load_field(snaps[0])
        x = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        np.testing.assert_allclose(fld.values, np.sin(x), atol=1e-15)

    def test_idempotent(self, tmp_path):
        cfg = write_config(tmp_path / "heat.json", heat_config())
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


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

    def test_too_few_values_exit_2(self, tmp_path):
        cfg_data = heat_config(T=0.1)
        cfg_data["sweep"] = {"axis": "p", "values": [0.1, 0.05]}
        cfg = write_config(tmp_path / "few.json", cfg_data)
        out = tmp_path / "o"
        assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

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


class TestVerifyExactCommand:
    def test_radial_elliptic_passes(self, capsys):
        assert main(["verify-exact", "--solution", "radial-elliptic",
                     "--p", "3", "--n", "1"]) == 0
        assert "max |residual|" in capsys.readouterr().out

    def test_invalid_barenblatt_exit_2(self, capsys):
        assert main(["verify-exact", "--solution", "barenblatt",
                     "--p", "1.2", "--n", "2"]) == 2
        assert "validity" in capsys.readouterr().err

    def test_fundamental_needs_p_above_n(self):
        assert main(["verify-exact", "--solution", "fundamental",
                     "--p", "2", "--n", "3"]) == 2


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


class TestCheckC1Command:
    def test_variational_pass_and_fail(self):
        common = ["check-c1", "--family", "variational", "--q", "3",
                  "--axis", "p", "--eps", "0.1", "0.01", "0.001", "0.0001",
                  "--alpha", "1", "--c-A", "10"]
        assert main(common + ["--beta", "0.5"]) == 0
        assert main(common + ["--beta", "0.0"]) == 1
