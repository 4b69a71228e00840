import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hivbrn
from hivbrn import cli, evaluate_brn, mc_oracle, parse_scenario, reproduction
from hivbrn.cli import main
from hivbrn.mc_oracle import MAX_SAMPLES
from hivbrn.reproduction import MAX_REFINE

from conftest import HUGE, LONG, UNREACHED

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


def table_of(text):
    """Header names and rows of a table, each row a dict of its cells cut
    at the header's column starts, so a blank cell reads ''."""
    header, *lines = text.splitlines()
    columns = [(m.group(), m.start()) for m in re.finditer(r"\S+", header)]
    ends = [start for _, start in columns[1:]] + [None]
    rows = [
        {name: line[start:end].strip() for (name, start), end in zip(columns, ends)}
        for line in lines
    ]
    return [name for name, _ in columns], rows


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

    def test_table_cells_keep_their_digits(self, capsys, tmp_path):
        # 2 or 3 decimals at ordinary magnitudes, 6 significant digits where
        # those would show 0.00 or an integer of more than 6 digits
        cfg = tmp_path / "long.ini"
        cfg.write_text(LONG.replace("phi = 0.99\n", "phi = 0.99\ndelta = 1e4\n"))
        code, out, err = run(capsys, "eval", "--format", "table", "--config", str(cfg))
        assert (code, err) == (0, "")
        result = evaluate_brn(parse_scenario(cfg.read_text()).population)
        assert result.i0 < 0.005 and result.r0 >= 1e6
        cells = dict(line.split(maxsplit=1) for line in out.splitlines())
        assert cells["I0"] == f"{result.i0:.6g}" and float(cells["I0"]) > 0
        assert cells["R0"] == f"{result.r0:.6g}" and "e+06" in cells["R0"]
        assert cells["ISA"] == "10000.00"

    def test_table_of_deltas_past_the_box_exits_2(self, capsys, tmp_path):
        # both deltas at 1e200 wrote R0 as a 199-digit integer; now refused
        cfg = tmp_path / "big.ini"
        cfg.write_text(LONG.replace("phi = 0.99\n", "phi = 0.99\ndelta = 1e200\n"))
        code, out, err = run(capsys, "eval", "--format", "table", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == (
            "hivbrn: configuration error: line 6: [female] delta must be in [0, 10000]\n"
        )

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

    def test_non_utf8_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "utf16.ini"
        cfg.write_bytes(b"\xff\xfe[female]\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2
        assert f"cannot read scenario file {cfg}" in err
        assert out == ""

    def test_saturated_probability_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "hot.ini"
        cfg.write_text("[female]\nM2 = 6\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2
        assert "configuration error" in err
        assert "scaled" not in err
        assert out == ""

    @pytest.mark.parametrize("alpha2", ["-40", "-800"])
    def test_steep_negative_age_warp(self, capsys, tmp_path, alpha2):
        # the age warp has no cancellation for a negative alpha2: at -40 it
        # once gave R0 0.7049, subcritical.  -800, which made exp(alpha2) 0
        # exactly, is refused, and the box's edge is evaluated in its place
        cfg = tmp_path / "warp.ini"
        if float(alpha2) < -50:
            cfg.write_text(f"[female]\nalpha2 = {alpha2}\n")
            code, out, err = run(capsys, "eval", "--config", str(cfg))
            assert (code, out) == (2, "")
            assert err.endswith("line 2: [female] alpha2 must be in [-50, 50]\n")
            alpha2 = "-50"
        cfg.write_text(f"[female]\nalpha2 = {alpha2}\n[male]\nalpha2 = {alpha2}\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result["r0"] == pytest.approx(1.0953794, rel=1e-6)
        assert result["verdict"] == "epidemic"

    def test_steep_early_peak(self, capsys, tmp_path):
        cfg = tmp_path / "steep.ini"
        cfg.write_text("[female]\nalpha1 = 1000\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 0, err
        assert json.loads(out)["result"]["r0"] == pytest.approx(0.906, abs=1e-3)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[quadrature]\norder = 24\n", "line 2: unknown key 'order' in [quadrature]"),
            (f"[quadrature]\nmax_refine = {MAX_REFINE + 1}\n", "max_refine must be in"),
            ("[quadrature]\ntol = 1e-16\nmax_refine = 0\n", "max_refine must be in [1, "),
            (f"[simulation]\nsamples = {MAX_SAMPLES + 1}\n", "samples must be in"),
            # each value past its key's range is refused on its own line; these
            # once overflowed the survival scale, the tail mass, the plateau
            # point or the linear load (a flat link times an infinite load is nan)
            ("[population]\nomega = 1e300\n", "line 2: [population] omega must be in [0.001, 1000]"),
            ("[female]\nmedian = 1e-300\n", "line 2: [female] median must be in [0.001, 1000]"),
            ("[female]\nmedian = 1e-310\n", "line 2: [female] median must be in [0.001, 1000]"),
            (
                "".join(
                    f"[{sex}]\nmedian = 4e-311\nbeta = 2.85\ntau1 = 1e-250\n"
                    for sex in ("female", "male")
                ) + "[population]\nomega = 1e-210\n",
                "line 2: [female] median must be in [0.001, 1000]",
            ),
            ("[female]\nia1 = 1e307\nalpha1 = 1.000000001\n", "line 2: [female] ia1 must be in [0.001, 1000]"),
            ("[female]\nM1 = 400\nM2 = 400\n", "line 2: [female] M1 must be in [0.001, 10]"),
            ("[female]\nM2 = 400\nptr_lo = 0.008\n", "line 2: [female] M2 must be in [0.001, 10]"),
            ("[DEFAULT]\ndelta = 500\n", "line 1: unknown section [DEFAULT]"),
            ("[female]\nphi = 0.5\n[DEFAULT]\ndelta = 500\n", "line 3: unknown section"),
            ("[female]\nM1 = 0.0010000000000000002\nm = 0.001\n", "10**peak_log_vl (M1)"),
            ("[population]\npop_female = 1\npop_male = 8\n", "act balance"),
            ("[male]\nalpha2 = 800\n", "line 2: [male] alpha2 must be in [-50, 50]"),
            # inside the box, the survival density's power still overflows
            ("[female]\nbeta = 470\n", "female beta=470 overflows (omega/scale)**beta at omega=40"),
        ],
        ids=["order", "max_refine", "max_refine_zero", "samples", "omega", "median",
             "median_subnormal", "beta_over_subnormal_scale", "plateau_point", "M1",
             "flat_link", "default", "default_beside_female", "M1_equals_m_linear",
             "unbalanced", "alpha2", "tail_power"],
    )
    def test_out_of_range_scenario_exits_2(self, capsys, tmp_path, text, message):
        # limit + 1 is refused while the scenario is parsed, before any
        # quadrature rule or sample array is built
        cfg = tmp_path / "big.ini"
        cfg.write_text(text)
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2
        assert message in err
        assert "nan" not in err
        assert out == ""

    def test_quadrature_failure_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "hard.ini"
        cfg.write_text("[quadrature]\ntol = 1e-16\nmax_refine = 1\n")
        code, _, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 3
        assert "numerical failure" in err

    def test_critical_band_edge_exits_0(self, capsys, tmp_path):
        # ISA/I0 and R0 = 1.000000001 round to opposite sides of the critical
        # band's edge here; the verdict is computed once, from ISA/I0
        cfg = tmp_path / "edge.ini"
        cfg.write_text("[female]\ndelta = 81.13396768850455\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result["r0"] == pytest.approx(1.0 + 1e-9, rel=1e-15)
        assert result["verdict"] in ("epidemic", "critical")
        assert result["epidemic"] is (result["verdict"] == "epidemic")

    def test_unreached_survival_mass_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "far.ini"
        cfg.write_text(UNREACHED)
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.endswith(": no course outlives tau1 5, so none carries activity\n")

    @pytest.mark.parametrize(
        "argv", [["eval"], ["simulate", "--sex", "female", "--samples", "4096"]],
        ids=["eval", "simulate"],
    )
    def test_steep_survival_shape_exits_3(self, capsys, tmp_path, argv):
        # at beta 400, x**(b-1) alone overflows where exp(-(x/a)**b) is 0;
        # the density stays finite and the quadrature reports its own failure;
        # simulate still prints its estimate, with the quadrature null
        cfg = tmp_path / "steep.ini"
        cfg.write_text("[female]\nbeta = 400\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 3
        if argv[0] == "simulate":
            female = json.loads(out)["result"]["female"]
            assert female["mean"] >= 0 and female["quadrature"] is None
        else:
            assert out == ""
        assert err.count("\n") == 1
        assert "relative error" in err and "above target 1e-06" in err

    def test_text_after_a_header_exits_2(self, capsys, tmp_path):
        # the value on the header's line is refused, not dropped
        cfg = tmp_path / "header.ini"
        cfg.write_text("[female] delta = 500\n")
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("hivbrn: configuration error: line 1: ")
        assert err.count("\n") == 1

    def test_seed_is_a_simulate_flag(self, capsys):
        # nothing eval computes depends on the seed, so it takes no --seed
        with pytest.raises(SystemExit) as exit_:
            main(["eval", "--seed", "5"])
        assert exit_.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, "eval", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["result"]["verdict"] == "epidemic"

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        target = tmp_path / "no" / "such" / "x.json" if where == "missing_dir" else tmp_path
        code, out, err = run(capsys, "eval", "--out", str(target))
        assert code == 2
        assert err.startswith(f"hivbrn: configuration error: cannot write {target}: ")
        assert err.count("\n") == 1
        assert out == ""

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

    @pytest.mark.parametrize(
        "flags",
        [
            ("--iad", "0.3"),
            ("--iad", "2.3"),
            ("--sex", "male", "--iad", "1.2", "--step", "0.2"),
        ],
        ids=["0.3", "2.3", "male-1.2"],
    )
    def test_last_row_at_death(self, capsys, flags):
        # the last grid age can round past --iad; that row is at --iad
        code, out, err = run(capsys, "trajectory", *flags)
        assert code == 0, err
        last = rows_of(out)[-1]
        assert float(last["ia"]) == float(flags[flags.index("--iad") + 1])
        assert float(last["G"]) == 0.0

    def test_every_iad_on_the_step_grid(self, capsys):
        for k in range(1, 101):
            code, out, err = run(capsys, "trajectory", "--iad", repr(k / 10))
            assert code == 0, (k, err)
            assert len(rows_of(out)) == k + 1

    def test_table(self, capsys):
        code, out, _ = run(
            capsys, "trajectory", "--iad", "3", "--step", "0.5", "--format", "table"
        )
        assert code == 0
        names, rows = table_of(out)
        assert names == ["ia", "LVl", "ptr", "ptr_x1000", "G", "NCA"]
        assert len(rows) == 7
        assert rows[-1]["ia"] == "3" and rows[-1]["G"] == "0"


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

    def test_hyperbola_is_the_r0_locus(self, capsys):
        # delta_m * delta_f = (I0 / factor)**2 on every hyperbola row
        _, out, _ = run(capsys, "phase")
        rows = rows_of(out)
        i0 = float(next(r for r in rows if r["series"] == "fixed_point")["delta_m"])
        hyperbola = [r for r in rows if r["series"] == "hyperbola"]
        assert len(hyperbola) == 3 * 71
        for r in hyperbola:
            want = (i0 / float(r["factor"])) ** 2 / float(r["delta_m"])
            assert float(r["delta_f"]) == pytest.approx(want, rel=1e-12)

    def test_table(self, capsys):
        code, out, _ = run(
            capsys, "phase", "--format", "table", "--factors", "0.5", "--grid", "10:150:5"
        )
        assert code == 0
        names, rows = table_of(out)
        assert names == ["series", "factor", "delta_m", "delta_f", "r_fm", "r_mf", "r0"]
        # two hyperbolae of 5 points, the fixed point and 4 corners
        assert [r["series"] for r in rows] == (
            ["hyperbola"] * 10 + ["fixed_point"] + ["corner"] * 4
        )
        assert rows[0]["r0"] == "" and rows[-1]["r0"] == "2.70478"

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
        assert run(capsys, "phase", "--factors", "", "--grid", "10:150:100")[0] == 0
        assert run(capsys, "phase", "--factors", "2", "--grid", "10:150:50")[0] == 0
        assert run(capsys, "phase", "--factors", "2", "--grid", "10:150:51")[0] == 2

    def test_hyperbola_row_limit(self, capsys, monkeypatch):
        # three hyperbolae of 333,334 points are MAX_ROWS + 2 rows: refused
        # before either sex integral is computed
        def no_integral(*args):
            raise AssertionError("integral computed for a refused grid")

        monkeypatch.setattr(reproduction, "link_integrals", no_integral)
        count = cli.MAX_ROWS // 3 + 1
        code, out, err = run(
            capsys, "phase", "--factors", "0.5,2", "--grid", f"10:150:{count}"
        )
        assert code == 2
        assert f"more than {cli.MAX_ROWS} rows" in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags, row",
        [
            (("--grid", "1e-320:1:2", "--factors", ""), "hyperbola, 1.0, 1e-320"),
            (("--factors", "1e-320"), "hyperbola, 1e-320, 10.0"),
        ],
        ids=["grid", "factor"],
    )
    def test_overflowing_hyperbola_exits_2(self, capsys, flags, row):
        # i0**2 / delta_m beyond double range: refused, not written as inf,
        # in the row its series, factor and delta_m name
        code, out, err = run(capsys, "phase", *flags)
        assert code == 2
        assert f"phase: delta_f in row {row} is beyond double range\n" in err
        assert out == ""

    def test_hyperbola_rows_stay_normal(self, capsys, tmp_path):
        # median 1e170 with omega 1e171 gave an I0 near 1e-167, whose
        # hyperbola rows underflowed to 0.0: refused with the scenario, and so
        # is a grid past the delta range; the box's least I0 at its largest
        # delta_m still gives a normal delta_f
        cfg = tmp_path / "far.ini"
        cfg.write_text(HUGE.replace("1e160", "1e170").replace("1e161", "1e171"))
        code, out, err = run(capsys, "phase", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.endswith("line 2: [female] median must be in [0.001, 1000]\n")
        code, out, err = run(capsys, "phase", "--grid", "10:1e5:3")
        assert (code, out) == (2, "")
        assert "grid needs ends in (0, 10000]" in err
        cfg.write_text(LONG)
        code, out, err = run(capsys, "phase", "--factors", "", "--grid", "1:1e4:2", "--config", str(cfg))
        assert (code, err) == (0, "")
        i0 = evaluate_brn(parse_scenario(LONG).population).i0
        delta_f = [float(r["delta_f"]) for r in rows_of(out) if r["series"] == "hyperbola"]
        assert delta_f == [i0 * i0 / 1.0, i0 * i0 / 1e4]
        assert delta_f[-1] > 1e-9

    def test_nonpositive_factor_exits_2(self, capsys):
        code, out, err = run(capsys, "phase", "--factors", "0")
        assert code == 2
        assert "configuration error" in err
        assert out == ""


class TestFactorGate:
    # sweep in both modes and phase check every factor by one rule, before
    # any integral: a quadrature that cannot converge never runs
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--mode", "scale_function"),
            ("sweep", "--mode", "scale_endpoints"),
            ("phase",),
        ],
        ids=["scale_function", "scale_endpoints", "phase"],
    )
    def test_refused_before_any_integral(self, capsys, monkeypatch, tmp_path, argv):
        path = tmp_path / "hard.ini"
        path.write_text("[quadrature]\ntol = 1e-16\nmax_refine = 1\n")

        def no_integral(*args):
            raise AssertionError("integral computed for a refused factor")

        monkeypatch.setattr(reproduction, "link_integrals", no_integral)
        code, out, err = run(capsys, *argv, "--factors", "200", "--config", str(path))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "female transmission probability scaled by 200 reaches" in err

    @pytest.mark.parametrize("mode", ["scale_function", "scale_endpoints"])
    def test_one_message_names_sex_and_factor(self, capsys, tmp_path, mode):
        # at M2 5.4 the scaled endpoint anchors stay below 1 while the
        # re-derived link's terminal peak reaches it
        path = tmp_path / "peak.ini"
        path.write_text("[female]\nM2 = 5.4\n")
        code, out, err = run(
            capsys, "sweep", "--mode", mode, "--factors", "0.5,100",
            "--config", str(path),
        )
        assert code == 3
        assert out == ""
        assert re.fullmatch(
            r"hivbrn: numerical failure: female transmission probability scaled "
            r"by 100 reaches \S+ >= 1\n",
            err,
        )


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

    @pytest.mark.parametrize("mode", ["scale_function", "scale_endpoints"])
    def test_empty_factor_list_integrates_nothing(self, capsys, monkeypatch, mode):
        # no factor needs an I0, so a quadrature that would fail never runs
        def no_integral(*args):
            raise AssertionError("integral computed for an empty factor list")

        monkeypatch.setattr(reproduction, "link_integrals", no_integral)
        code, out, err = run(capsys, "sweep", "--factors", "", "--mode", mode)
        assert (code, err) == (0, "")
        assert out == "factor,i0,mode\n"

    def test_endpoint_mode(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--factors", "0.5", "--mode", "scale_endpoints"
        )
        assert code == 0
        (row,) = rows_of(out)
        assert row["mode"] == "scale_endpoints"
        assert float(row["i0"]) == pytest.approx(163.2, rel=0.025)

    @pytest.mark.parametrize(
        "loads",
        [{}, {"female": {"M1": 5.5, "m": 2.8}, "male": {"M1": 4.6, "m": 3.3}}],
        ids=["baseline", "anchor_loads"],
    )
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_endpoint_factor_is_the_scaled_scenario(self, capsys, tmp_path, loads, factor):
        # the paper halves and doubles both anchors: scaling a double by 0.5
        # or 2 is exact, so an endpoint row is the I0 of the scenario whose
        # ptr_hi and ptr_lo are scaled in both sexes, to the last bit
        def scenario(name, scale):
            text = ""
            for sex in ("female", "male"):
                keys = {**loads.get(sex, {}), "ptr_hi": scale * 0.008, "ptr_lo": scale * 0.001}
                text += f"[{sex}]\n" + "".join(f"{key} = {value!r}\n" for key, value in keys.items())
            path = tmp_path / name
            path.write_text(text)
            return str(path)

        code, out, _ = run(
            capsys, "sweep", "--mode", "scale_endpoints", "--factors", repr(factor),
            "--config", scenario("base.ini", 1.0),
        )
        assert code == 0
        (row,) = rows_of(out)
        code, out, _ = run(capsys, "eval", "--format", "csv", "--config", scenario("scaled.ini", factor))
        assert code == 0
        cells = {r["key"]: r["value"] for r in rows_of(out)}
        assert row["i0"] == cells["i0"]
        if not loads:
            golden = {0.5: 163.15676711977636, 2.0: 40.770277997352295}[factor]
            assert float(row["i0"]) == pytest.approx(golden, rel=1e-9)

    def test_excessive_factor_exits_3(self, capsys):
        code, _, err = run(capsys, "sweep", "--factors", "200")
        assert code == 3
        assert "numerical failure" in err

    def test_excessive_endpoint_factor_names_sex_and_factor(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "sweep", "--mode", "scale_endpoints", "--factors", "200"
        )
        assert code == 3
        assert "female transmission probability scaled by 200 reaches 1.6 >= 1" in err
        assert out == ""
        path = tmp_path / "male.ini"
        path.write_text("[male]\nptr_hi = 0.02\n")
        code, out, err = run(
            capsys, "sweep", "--mode", "scale_endpoints", "--factors", "60",
            "--config", str(path),
        )
        assert code == 3
        assert "male transmission probability scaled by 60 reaches 1.2 >= 1" in err
        assert out == ""

    def test_table(self, capsys):
        code, out, _ = run(capsys, "sweep", "--format", "table")
        assert code == 0
        names, rows = table_of(out)
        assert names == ["factor", "i0", "mode"]
        assert [r["factor"] for r in rows] == ["0.5", "1", "2"]
        assert {r["mode"] for r in rows} == {"scale_function"}

    def test_overflowing_i0_exits_2(self, capsys):
        # i0 / 1e-320 is inf, which JSON cannot carry
        code, out, err = run(capsys, "sweep", "--factors", "1e-320", "--format", "json")
        assert code == 2
        assert "sweep: i0 in row 1e-320 is beyond double range" in err
        assert out == ""

    def test_underflowing_endpoint_integrals_exit_3(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--factors", "1e-300", "--mode", "scale_endpoints"
        )
        assert code == 3
        assert (
            "female and male transmission probability scaled by 1e-300: "
            "the product of the sex integrals underflows" in err
        )
        assert out == ""

    @pytest.mark.parametrize(
        "factors, failure",
        [
            ("0.5,1e-300,2", "female and male transmission probability scaled by "
             "1e-300: the product of the sex integrals underflows to 0"),
            ("0.5,1e-320,2", "female transmission probability scaled by 9.99989e-321: "
             "no level's total was positive: the integrand underflows"),
            ("5e-324", "female transmission probability scaled by 4.94066e-324: "
             "prob_at_peak (ptr_hi) must be in (0, 1)"),
        ],
        ids=["product", "integrand", "anchor"],
    )
    def test_endpoint_failures_name_the_factor(self, capsys, factors, failure):
        # the factor is printed to 6 digits, so a subnormal one shows its
        # nearest double
        code, out, err = run(
            capsys, "sweep", "--factors", factors, "--mode", "scale_endpoints"
        )
        assert code == 3
        assert err.startswith(f"hivbrn: numerical failure: {failure}")
        assert err.count("\n") == 1
        assert out == ""

    def test_factor_count_limit(self, capsys, monkeypatch):
        # limit + 1 factors are refused before any integral is computed
        def no_integral(*args):
            raise AssertionError("integral computed for a refused factor list")

        monkeypatch.setattr(cli, "MAX_FACTORS", 3)
        code, out, _ = run(capsys, "sweep", "--factors", "0.5,1,2")
        assert code == 0
        assert len(rows_of(out)) == 3
        monkeypatch.setattr(reproduction, "link_integrals", no_integral)
        monkeypatch.setattr(cli, "sensitivity_sweep", no_integral)
        for command in ("phase", "sweep"):
            code, out, err = run(capsys, command, "--factors", "0.5,1,2,4")
            assert code == 2
            assert "more than 3 factors" in err
            assert out == ""

    def test_bad_factor_list_exits_2(self, capsys):
        assert run(capsys, "sweep", "--factors", "1,zebra")[0] == 2
        assert run(capsys, "sweep", "--factors", "nan")[0] == 2


class TestSimulate:
    def test_deterministic_bytes(self, capsys):
        args = ("simulate", "--samples", "20000", "--seed", "31", "--sex", "male")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second != ""

    def test_worker_count_invariance(self, capsys, monkeypatch):
        # the block and CPU caps are lifted so that 3 workers start a pool
        monkeypatch.setattr(mc_oracle, "_pool_size", lambda workers, n_chunks: min(workers, n_chunks))
        base = ("simulate", "--samples", "20000", "--seed", "31", "--sex", "male")
        _, one, _ = run(capsys, *base, "--workers", "1")
        _, three, _ = run(capsys, *base, "--workers", "3")
        assert one == three

    def test_one_pool_for_both_sexes(self, capsys, monkeypatch):
        # --workers 2 sends both sexes' blocks through one process pool and
        # prints the bytes of --workers 1; the block and CPU caps are lifted
        # so that the pool starts on any host
        import concurrent.futures

        started = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, **kwargs):
                started.append(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(mc_oracle, "_pool_size", lambda workers, n_chunks: min(workers, n_chunks))
        base = ("simulate", "--samples", "20000", "--seed", "31")
        _, one, _ = run(capsys, *base, "--workers", "1")
        assert started == []
        _, two, _ = run(capsys, *base, "--workers", "2")
        assert started == [{"max_workers": 2}]
        assert one == two != ""

    @pytest.mark.parametrize(
        "argv, started",
        [
            (("--sex", "male", "--samples", "262144"), []),
            (("--samples", "262144"), [{"max_workers": 2}]),
            (("--sex", "female", "--samples", "524288"), [{"max_workers": 2}]),
        ],
        ids=["male-64", "both-128", "female-128"],
    )
    def test_pool_counts_every_sex_blocks(self, capsys, monkeypatch, argv, started):
        # at 2 workers a pool is sized from the blocks of every sex it
        # serves: one sex's 64 start none, both sexes' 128 start 2, as do one
        # sex's 128; four CPUs are offered so that the CPU cap never binds
        import concurrent.futures

        opened = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, **kwargs):
                opened.append(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(mc_oracle.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert run(capsys, "simulate", *argv, "--workers", "2")[0] == 0
        assert opened == started

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

    def test_sample_limit_exits_2(self, capsys):
        code, out, err = run(capsys, "simulate", "--samples", str(MAX_SAMPLES + 1))
        assert code == 2
        assert "samples must be in" in err
        assert out == ""

    def test_bad_workers_exits_2(self, capsys):
        assert run(capsys, "simulate", "--samples", "10", "--workers", "0")[0] == 2

    def test_sample_error_reported_before_workers(self, capsys):
        # --seed and --samples are applied before --workers is checked
        code, out, err = run(capsys, "simulate", "--samples", "0", "--workers", "0")
        assert code == 2
        assert "samples must be in" in err
        assert out == ""

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--samples", "4096", "--format", "csv"
        )
        assert code == 0
        rows = rows_of(out)
        assert [r["sex"] for r in rows] == ["female", "male"]
        assert float(rows[0]["mean"]) > 0

    @pytest.mark.parametrize("samples", [4096, 1])
    def test_table(self, capsys, samples):
        code, out, _ = run(
            capsys, "simulate", "--samples", str(samples), "--format", "table"
        )
        assert code == 0
        names, rows = table_of(out)
        assert names == ["sex", "mean", "std_error", "quadrature", "abs_diff_over_se"]
        assert [r["sex"] for r in rows] == ["female", "male"]
        for row in rows:
            assert float(row["mean"]) > 0 and float(row["quadrature"]) > 0
            # one sample has no standard error and so no ratio
            blank = samples == 1
            assert (row["std_error"] == "") is blank
            assert (row["abs_diff_over_se"] == "") is blank

    @pytest.mark.parametrize("sex", ["male", "both"])
    def test_failing_quadrature_still_prints_the_estimate(self, capsys, tmp_path, sex):
        # a quadrature column that cannot converge is left null: the Monte
        # Carlo estimate, which does not depend on it, is still printed, and
        # the failure is named on one stderr line with exit 3
        path = tmp_path / "hard.ini"
        path.write_text("[quadrature]\ntol = 1e-16\nmax_refine = 1\n")
        base = ("simulate", "--sex", sex, "--samples", "4096")
        code, out, err = run(capsys, *base, "--config", str(path))
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("hivbrn: numerical failure: ")
        sexes = ["female", "male"] if sex == "both" else [sex]
        assert err.count(" quadrature: relative error ") == len(sexes)
        result = json.loads(out)["result"]
        _, converged, _ = run(capsys, *base)
        expected = json.loads(converged)["result"]
        assert list(result) == sexes
        for label in sexes:
            assert f"{label} quadrature: " in err
            assert result[label]["quadrature"] is None
            assert result[label]["abs_diff_over_se"] is None
            for key in ("mean", "std_error", "samples", "seed", "act_process"):
                assert result[label][key] == expected[label][key]
        # --out gets the same output before the failure
        target = tmp_path / "out.json"
        code, written, err = run(capsys, *base, "--config", str(path), "--out", str(target))
        assert (code, written, err.count("\n")) == (3, "", 1)
        assert target.read_text() == out

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_failing_column_is_blank(self, capsys, tmp_path, fmt):
        # alpha3 = 200, M2 = 5.4 in the female profile fails its quadrature
        # at the default max_refine; the male column still converges
        path = tmp_path / "peak.ini"
        path.write_text("[female]\nalpha3 = 200\nM2 = 5.4\n")
        code, out, err = run(
            capsys, "simulate", "--samples", "4096", "--format", fmt, "--config", str(path)
        )
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("hivbrn: numerical failure: female quadrature: relative error ")
        female, male = rows_of(out) if fmt == "csv" else table_of(out)[1]
        assert float(female["mean"]) > 0 and float(male["mean"]) > 0
        assert female["quadrature"] == female["abs_diff_over_se"] == ""
        assert float(male["quadrature"]) > 0 and float(male["abs_diff_over_se"]) >= 0

    def test_long_horizon_matches_quadrature(self, capsys, tmp_path):
        # omega 2e7, where the coarse outer panels missed the survival mass,
        # is refused; the box's longest horizon matches the quadrature
        path = tmp_path / "long.ini"
        text = "[population]\nomega = 2e7\n\n[simulation]\nact_process = expected_value\n"
        path.write_text(text)
        code, out, err = run(capsys, "simulate", "--config", str(path), "--samples", "8192")
        assert (code, out) == (2, "")
        assert "line 2: [population] omega must be in [0.001, 1000]" in err
        path.write_text(text.replace("2e7", "1e3"))
        code, out, _ = run(
            capsys, "simulate", "--config", str(path), "--samples", "8192"
        )
        assert code == 0
        result = json.loads(out)["result"]
        for sex in ("female", "male"):
            assert result[sex]["quadrature"] > 0
            assert result[sex]["abs_diff_over_se"] <= 5.0


class TestOutputRange:
    """Every command's output passes one range check, in every format."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("eval", "--config", "{big}"), 2),
            (("phase", "--grid", "1e-320:1:2", "--factors", ""), 2),
            (("phase", "--factors", "1e-320"), 2),
            (("sweep", "--factors", "1e-320"), 2),
        ],
        ids=["eval-deltas", "phase-grid", "phase-factor", "sweep-factor"],
    )
    def test_beyond_double_range_refused(self, capsys, tmp_path, argv, expected, fmt):
        # both deltas at 1e200 times integrals near 1e157 overflowed R0, and
        # are refused with the scenario; the flags overflow a row
        big = tmp_path / "big.ini"
        big.write_text(HUGE.replace("1e160\n", "1e160\ndelta = 1e200\n"))
        argv = [a.format(big=big) for a in argv]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == expected
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("hivbrn: ")
        assert not re.search(r"traceback|\binf|\bnan\b", err, re.I)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv", [("eval",), ("phase",), ("sweep",), ("sweep", "--mode", "scale_endpoints")]
    )
    def test_overflowing_products_stay_in_range(self, capsys, tmp_path, argv):
        # I_f * I_m and each corner's r_fm * r_mf overflowed at integrals
        # near 1e157, whose median is refused; at the box's largest
        # integrals every product and root is in range
        path = tmp_path / "huge.ini"
        path.write_text(HUGE)
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert (code, out) == (2, "")
        assert err.endswith("line 2: [female] median must be in [0.001, 1000]\n")
        path.write_text(LONG)
        # a factor of 2 would lift ptr_hi 0.99 to 1 or more
        factors = () if argv[0] == "eval" else ("--factors", "0.5,1")
        code, out, err = run(capsys, *argv, *factors, "--config", str(path))
        assert (code, err) == (0, "")
        expected = evaluate_brn(parse_scenario(LONG).population)
        assert 0.003 < expected.i0 < 0.004
        if argv[0] == "eval":
            result = json.loads(out)["result"]
            assert result["i0"] == expected.i0
            assert result["r0"] == expected.r0 == pytest.approx(82.0 / expected.i0, rel=1e-15)
        elif argv[0] == "phase":
            corners = [row for row in rows_of(out) if row["series"] == "corner"]
            assert len(corners) == 4
            assert all(0 < float(row["r0"]) < math.inf for row in corners)
        else:
            i0 = {float(row["factor"]): float(row["i0"]) for row in rows_of(out)}
            assert i0[1.0] == pytest.approx(expected.i0, rel=0.02)
            assert all(value > 0 for value in i0.values())


class TestScenarioEquivalence:
    @pytest.mark.parametrize(
        "source", ["README.md", *sorted(p.name for p in ROOT.glob("scenarios/*.ini"))]
    )
    def test_shipped_scenario_evaluates(self, capsys, tmp_path, source):
        # the README's scenario block and every file in scenarios/ run as given
        if source == "README.md":
            block = re.search(r"```ini\n(.*?)```", (ROOT / source).read_text(), re.S)
            cfg = tmp_path / "readme.ini"
            cfg.write_text(block.group(1))
        else:
            cfg = ROOT / "scenarios" / source
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 0, err

    def test_readme_library_example_runs(self):
        # the README's Library block runs as given, its assert included
        block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
        exec(compile(block.group(1), "README.md", "exec"), {})

    def test_config_hash_matches_library(self, capsys, tmp_path):
        cfg = tmp_path / "s.ini"
        cfg.write_text("[female]\ndelta = 208\n")
        # simulate's flags hash as the scenario keys they override
        for argv, section in [
            (["eval"], ""),
            (
                ["simulate", "--seed", "7", "--samples", "4096"],
                "[simulation]\nseed = 7\nsamples = 4096\n",
            ),
        ]:
            _, out, _ = run(capsys, *argv, "--config", str(cfg))
            payload = json.loads(out)
            assert (
                payload["metadata"]["config_hash"]
                == parse_scenario(cfg.read_text() + section).config_hash()
            )


# the baseline's integrals converge at level 1
FEMALE_BLOCKS = [("female", 0), ("female", 1)]
BOTH_BLOCKS = FEMALE_BLOCKS + [("male", 0), ("male", 1)]


@pytest.mark.parametrize(
    "argv, calls, blocks",
    [
        (("eval",), ["female", "male"], BOTH_BLOCKS),
        (("phase",), ["female", "male"], BOTH_BLOCKS),
        (("sweep",), ["female", "male"], BOTH_BLOCKS),
        (
            ("sweep", "--mode", "scale_endpoints", "--factors", "0.5,1,2"),
            ["female"] * 3 + ["male"] * 3,
            BOTH_BLOCKS,
        ),
        (("simulate", "--samples", "4096", "--sex", "female"), ["female"], FEMALE_BLOCKS),
    ],
    ids=["eval", "phase", "sweep", "scale_endpoints", "simulate_female"],
)
def test_sex_integral_calls_per_command(capsys, monkeypatch, argv, calls, blocks):
    # every threshold number comes from one (I_f, I_m) pair per population;
    # the endpoint sweep integrates each sex once per factor, yet builds each
    # sex's blocks once per level, as eval does, so its cost stays flat in
    # the factor count; simulate integrates only the sexes it simulates.
    # The last block build before an integral's level-0 pass is of its sex
    seen, builds = [], []
    build, integrate = reproduction.inner_blocks, reproduction.inner_integrals

    def built(iad, profile, level):
        builds.append((profile.label, level))
        return build(iad, profile, level)

    def passed(iad, blocks, link, level):
        if level == 0:
            seen.append(builds[-1][0])
        return integrate(iad, blocks, link, level)

    monkeypatch.setattr(reproduction, "inner_blocks", built)
    monkeypatch.setattr(reproduction, "inner_integrals", passed)
    assert run(capsys, *argv)[0] == 0
    assert seen == calls
    assert builds == blocks


def test_import_loads_no_process_pool():
    # the pool machinery is imported only when a run starts a pool
    script = "import sys, hivbrn; assert 'concurrent.futures' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(Path(hivbrn.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


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
