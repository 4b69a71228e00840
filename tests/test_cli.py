import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hivbrn
from hivbrn import cli, evaluate_brn, parse_scenario
from hivbrn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture()
def corner_config(tmp_path):
    path = tmp_path / "corner.ini"
    path.write_text("[female]\ndelta = 208\n\n[male]\ndelta = 26\n")
    return str(path)


class TestEval:
    def test_baseline_json(self, capsys, population):
        code, out, err = run(capsys, "eval")
        assert code == 0
        payload = json.loads(out)
        result = payload["result"]
        # machine output round-trips the in-memory numbers bit-exactly
        reference = evaluate_brn(population)
        assert result["i0"] == reference.i0
        assert result["r0"] == reference.r0
        assert result["integral_f"] == reference.integral_f
        assert result["verdict"] == "epidemic"
        assert result["i0"] == pytest.approx(81.60, rel=0.01)
        assert payload["metadata"]["tool"] == "hivbrn"
        assert payload["metadata"]["version"]
        assert len(payload["metadata"]["config_hash"]) == 64

    def test_corner_subcritical(self, capsys, corner_config):
        code, out, _ = run(capsys, "eval", "--config", corner_config)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["verdict"] == "subcritical"
        assert result["r0"] == pytest.approx(0.90, abs=0.01)
        assert result["r_fm"] == pytest.approx(2.47, rel=0.01)
        assert result["r_mf"] == pytest.approx(0.33, abs=0.01)

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "eval", "--format", "table")
        assert code == 0
        assert "I0       81.57" in out
        assert "verdict  epidemic" in out

    def test_csv_format_round_trips(self, capsys, population):
        code, out, _ = run(capsys, "eval", "--format", "csv")
        assert code == 0
        table = {row["key"]: row["value"] for row in rows_of(out)}
        assert float(table["i0"]) == evaluate_brn(population).i0

    def test_malformed_key_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[female]\nalpha9 = 3\n")
        code, out, err = run(capsys, "eval", "--config", str(bad))
        assert code == 2
        assert "alpha9" in err
        assert out == ""

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--config", "/no/such/file.ini")
        assert code == 2

    def test_saturated_probability_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "hot.ini"
        cfg.write_text("[female]\nM2 = 6\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2
        assert "configuration error" in err
        assert "scaled" not in err
        assert out == ""

    def test_steep_early_peak(self, capsys, tmp_path):
        cfg = tmp_path / "steep.ini"
        cfg.write_text("[female]\nalpha1 = 1000\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 0, err
        assert json.loads(out)["result"]["r0"] == pytest.approx(0.906, abs=1e-3)

    def test_quadrature_failure_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "hard.ini"
        cfg.write_text("[quadrature]\norder = 4\ntol = 1e-16\nmax_refine = 1\n")
        code, _, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 3
        assert "numerical failure" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "eval", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["result"]["verdict"] == "epidemic"

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "eval")
        _, second, _ = run(capsys, "eval")
        assert first == second


class TestTrajectory:
    def test_terminal_peak_row(self, capsys):
        code, out, _ = run(capsys, "trajectory", "--iad", "7", "--step", "0.5")
        assert code == 0
        rows = rows_of(out)
        at6 = next(r for r in rows if float(r["ia"]) == 6.0)
        assert float(at6["LVl"]) == 4.8

    def test_start_row(self, capsys):
        _, out, _ = run(capsys, "trajectory", "--iad", "7", "--step", "0.5")
        first = rows_of(out)[0]
        assert float(first["ia"]) == 0.0
        assert float(first["G"]) == 1.0
        assert float(first["NCA"]) == 82.0

    def test_first_peak_probability(self, capsys):
        _, out, _ = run(capsys, "trajectory", "--iad", "7", "--step", "0.1")
        rows = rows_of(out)
        best = max(rows, key=lambda r: float(r["ptr_x1000"]))
        assert float(best["ptr_x1000"]) == pytest.approx(8.0, rel=1e-3)
        assert float(best["ia"]) == pytest.approx(0.4, abs=0.1)

    def test_covers_whole_course(self, capsys):
        _, out, _ = run(capsys, "trajectory", "--iad", "7", "--step", "0.5")
        rows = rows_of(out)
        assert float(rows[-1]["ia"]) == 7.0
        assert float(rows[-1]["G"]) == 0.0

    def test_validation(self, capsys):
        assert run(capsys, "trajectory", "--step", "0")[0] == 2
        assert run(capsys, "trajectory", "--iad", "99")[0] == 2
        for flags in (("--iad", "nan"), ("--step", "nan"), ("--step", "inf")):
            code, out, err = run(capsys, "trajectory", *flags)
            assert code == 2
            assert "configuration error" in err
            assert out == ""

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "trajectory", "--iad", "7", "--step", "1", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["series"][0]["G"] == 1.0

    def test_row_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ROWS", 100)
        code, out, err = run(capsys, "trajectory", "--iad", "7", "--step", "0.07")
        assert code == 2
        assert "100 rows" in err
        assert out == ""
        code, out, _ = run(capsys, "trajectory", "--iad", "7", "--step", "0.0707")
        assert code == 0
        assert len(rows_of(out)) == 100


class TestPhase:
    def test_corners(self, capsys):
        code, out, _ = run(capsys, "phase")
        assert code == 0
        rows = rows_of(out)
        corners = {
            (float(r["delta_m"]), float(r["delta_f"])): r
            for r in rows
            if r["series"] == "corner"
        }
        assert len(corners) == 4
        low = corners[(26.0, 208.0)]
        assert float(low["r0"]) == pytest.approx(0.90, abs=0.01)
        high = corners[(104.0, 468.0)]
        assert float(high["r0"]) == pytest.approx(2.70, abs=0.02)
        assert float(high["r_fm"]) == pytest.approx(5.55, rel=0.01)
        assert float(high["r_mf"]) == pytest.approx(1.32, abs=0.02)

    def test_fixed_point(self, capsys):
        _, out, _ = run(capsys, "phase")
        fixed = next(r for r in rows_of(out) if r["series"] == "fixed_point")
        assert float(fixed["delta_m"]) == float(fixed["delta_f"])
        assert float(fixed["delta_m"]) == pytest.approx(81.60, rel=0.01)

    def test_hyperbola_crossing(self, capsys):
        _, out, _ = run(capsys, "phase")
        rows = rows_of(out)
        at26 = next(
            r
            for r in rows
            if r["series"] == "hyperbola"
            and float(r["factor"]) == 1.0
            and float(r["delta_m"]) == 26.0
        )
        assert float(at26["delta_f"]) == pytest.approx(256.1, rel=0.01)

    def test_sensitivity_hyperbolae_present(self, capsys):
        _, out, _ = run(capsys, "phase")
        factors = {float(r["factor"]) for r in rows_of(out) if r["series"] == "hyperbola"}
        assert factors == {1.0, 0.5, 2.0}

    def test_bad_grid(self, capsys):
        assert run(capsys, "phase", "--grid", "0:100:3")[0] == 2
        assert run(capsys, "phase", "--grid", "banana")[0] == 2
        assert run(capsys, "phase", "--grid", "nan:100:3")[0] == 2
        assert run(capsys, "phase", "--grid", "10:inf:3")[0] == 2

    def test_grid_count_limit(self, capsys, monkeypatch):
        with pytest.raises(hivbrn.ScenarioError):
            cli._parse_grid(f"1:2:{cli.MAX_ROWS + 1}")
        monkeypatch.setattr(cli, "MAX_ROWS", 100)
        assert run(capsys, "phase", "--grid", "10:150:101")[0] == 2
        assert run(capsys, "phase", "--grid", "10:150:100")[0] == 0

    def test_nonpositive_factor_exits_2(self, capsys):
        code, out, err = run(capsys, "phase", "--factors", "0")
        assert code == 2
        assert "configuration error" in err
        assert out == ""


class TestSweep:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "sweep", "--factors", "0.5,1,2")
        assert code == 0
        got = {float(r["factor"]): float(r["i0"]) for r in rows_of(out)}
        assert got[0.5] == pytest.approx(163.2, rel=0.01)
        assert got[1.0] == pytest.approx(81.60, rel=0.01)
        assert got[2.0] == pytest.approx(40.8, rel=0.01)

    def test_empty_factor_list(self, capsys):
        code, out, _ = run(capsys, "sweep", "--factors", "")
        assert code == 0
        assert rows_of(out) == []

    def test_endpoint_mode(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--factors", "0.5", "--mode", "scale_endpoints"
        )
        assert code == 0
        (row,) = rows_of(out)
        assert row["mode"] == "scale_endpoints"
        assert float(row["i0"]) == pytest.approx(163.2, rel=0.025)

    def test_excessive_factor_exits_3(self, capsys):
        code, _, err = run(capsys, "sweep", "--factors", "200")
        assert code == 3
        assert "numerical failure" in err

    def test_bad_factor_list_exits_2(self, capsys):
        assert run(capsys, "sweep", "--factors", "1,zebra")[0] == 2
        assert run(capsys, "sweep", "--factors", "nan")[0] == 2


class TestSimulate:
    def test_deterministic_bytes(self, capsys):
        args = ("simulate", "--samples", "20000", "--seed", "31", "--sex", "male")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second != ""

    def test_worker_count_invariance(self, capsys):
        base = ("simulate", "--samples", "20000", "--seed", "31", "--sex", "male")
        _, one, _ = run(capsys, *base, "--workers", "1")
        _, three, _ = run(capsys, *base, "--workers", "3")
        assert one == three

    def test_close_to_quadrature(self, capsys):
        code, out, _ = run(capsys, "simulate", "--samples", "50000")
        assert code == 0
        result = json.loads(out)["result"]
        assert set(result) == {"female", "male"}
        for sex in ("female", "male"):
            assert result[sex]["abs_diff_over_se"] < 4.0
            assert result[sex]["samples"] == 50000

    def test_seed_echoed(self, capsys):
        _, out, _ = run(capsys, "simulate", "--samples", "4096", "--seed", "77")
        payload = json.loads(out)
        assert payload["metadata"]["seed"] == 77
        assert payload["result"]["female"]["seed"] == 77

    def test_zero_samples_exits_2(self, capsys):
        assert run(capsys, "simulate", "--samples", "0")[0] == 2

    def test_bad_workers_exits_2(self, capsys):
        assert run(capsys, "simulate", "--samples", "10", "--workers", "0")[0] == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--samples", "4096", "--format", "csv"
        )
        assert code == 0
        rows = rows_of(out)
        assert [r["sex"] for r in rows] == ["female", "male"]
        assert float(rows[0]["mean"]) > 0


class TestScenarioEquivalence:
    def test_config_hash_matches_library(self, capsys, tmp_path):
        cfg = tmp_path / "s.ini"
        cfg.write_text("[female]\ndelta = 208\n")
        _, out, _ = run(capsys, "eval", "--config", str(cfg))
        payload = json.loads(out)
        assert (
            payload["metadata"]["config_hash"]
            == parse_scenario(cfg.read_text()).config_hash()
        )


def test_runtime_loads_no_scipy():
    # a fresh interpreter: the tests themselves import scipy as an oracle
    script = (
        "import sys, hivbrn, hivbrn.cli\n"
        "assert hivbrn.cli.main(['eval']) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hivbrn.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["verdict"] == "epidemic"
