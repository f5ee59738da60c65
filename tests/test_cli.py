import json
import math

import numpy as np

from plaplab import load_field
from plaplab.cli import main


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

    def test_unknown_key_rejected(self, tmp_path):
        cfg_data = heat_config()
        cfg_data["problem"]["grid"]["typo_key"] = 1
        cfg = write_config(tmp_path / "typo.json", cfg_data)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

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
        assert main(["rate-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

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
