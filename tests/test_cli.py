"""Command line interface: subcommands, units at the boundary, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from vinebuckle import (
    ApertureShape,
    BodySpec,
    DeviceSpec,
    Scenario,
    SweepRequest,
    Verdict,
    cli,
    crushing_force,
    diagrams_agree,
    max_device_force,
    mechanics,
    sweep,
)

DATA = """pressure_kpa,tension_n
0.0,3.4
2.0,9.2
10.0,31.9
"""

DEVICE_INFO = ("device", "info")
PREDICT = ("predict", "--pressure-kpa", "2", "--length-cm", "100")

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, lang):
    """The first ``lang`` code block after the README line ``heading``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n")
    return re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(text, start).group(1)


SCENARIOS = {
    "scenario.json": json.loads(readme_block("### Scenario document", "json")),
    "grow.json": {"mode": "grow", "initial_length_cm": 0, "target_length_cm": 300,
                  "pressure_schedule": [[0, 1.5], [300, 3.0]]},
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReadme:
    def test_the_library_example_prints_its_commented_figures(self):
        code = readme_block("## Library", "python")
        printed = []
        exec(compile(code, str(README), "exec"), {"print": printed.append})
        prediction, force, ceiling = printed
        assert "# INVERT, crush-limited, 2.17 N margin" in code
        assert prediction.verdict is Verdict.INVERT
        assert prediction.limiting_force == crushing_force(BodySpec(), 2e3)
        assert round(prediction.margin, 2) == 2.17
        assert "# 40.83 N" in code and round(force, 2) == 40.83
        assert "# ~5962 Pa" in code and round(ceiling) == 5962

    def test_the_config_document_builds(self):
        doc = json.loads(readme_block("### Config document", "json"))
        body, device, efficiency, defaults = cli.load_config_from_doc(doc)
        assert body == BodySpec() and efficiency == 1.0
        assert max_device_force(device) == max_device_force(DeviceSpec())
        assert device.routing_aperture_area == pytest.approx(8.04e-4)
        assert defaults == {"units": "kPa/cm/N at the boundary, SI inside"}

    def test_the_scenario_document_builds(self):
        scenario, mode = cli.scenario_from_json(SCENARIOS["scenario.json"])
        assert mode == "retract" and scenario.body == BodySpec()
        assert (scenario.initial_length, scenario.pressure, scenario.curvature) == (3.0, 2e3, 0.0)
        assert scenario.step == 0.01 and scenario.device is not None
        assert scenario.efficiency == 1.0 and scenario.base_takeup is True
        assert scenario.motor_speed == DeviceSpec().motor_speed_max


class TestPredict:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_pressure_exits_2(self, capsys, value):
        # nan used to exit 0 with verdict buckle and a NaN in the JSON
        code, out, err = run(
            capsys, "predict", "--pressure-kpa", value, "--length-cm", "100", "--json"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("value", ["nan", "5", "-0.5"])
    @pytest.mark.parametrize("device", [(), ("--device",)], ids=["bare", "device"])
    def test_bad_efficiency_exits_2_with_or_without_device(self, capsys, value, device):
        # without --device it used to exit 0; sweep has always exited 2
        code, out, err = run(capsys, *PREDICT, *device, "--efficiency", value, "--json")
        assert code == 2 and out == ""
        assert err.startswith("error: efficiency")
        code, out, err = run(
            capsys, "sweep", "--p", "0:10:4", "--l", "0:300:4", *device, "--efficiency", value
        )
        assert code == 2 and err.startswith("error: efficiency")

    def test_non_finite_transition_pressure_exits_2(self, capsys):
        # nan used to exit 3, the cross-check failure code
        code, out, _ = run(capsys, "transition", "--pressure-kpa", "nan", "--kappa-per-m", "0.444")
        assert code == 2 and out == ""

    def test_invert_case(self, capsys):
        code, out, err = run(capsys, "predict", "--pressure-kpa", "2", "--length-cm", "100")
        assert code == 0 and err == ""
        assert "invert" in out

    def test_json_is_a_single_document(self, capsys):
        code, out, _ = run(
            capsys, "predict", "--pressure-kpa", "2", "--length-cm", "100", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "invert"
        assert doc["model"] == "straight"
        assert doc["limit_n"] == pytest.approx(11.349003461093131, rel=1e-12)

    def test_unit_round_trip(self, capsys):
        _, out, _ = run(
            capsys,
            "predict",
            "--pressure-kpa", "3.7",
            "--length-cm", "123.4",
            "--kappa-per-m", "0.31",
            "--json",
        )
        echo = json.loads(out)["input"]
        assert echo["pressure_kpa"] == pytest.approx(3.7, rel=1e-12)
        assert echo["length_cm"] == pytest.approx(123.4, rel=1e-12)
        assert echo["kappa_per_m"] == 0.31

    def test_device_flag_uses_infinite_limit_inside_envelope(self, capsys):
        _, out, _ = run(
            capsys,
            "predict", "--pressure-kpa", "1.4", "--length-cm", "300", "--device", "--json",
        )
        doc = json.loads(out)
        assert doc["verdict"] == "invert"
        assert doc["required_n"] == 0.0
        assert doc["limit_n"] is None  # infinite limit maps to null

    def test_curved_buckle_case(self, capsys):
        _, out, _ = run(
            capsys,
            "predict", "--pressure-kpa", "2", "--length-cm", "50",
            "--kappa-per-m", str(1 / 2.25), "--json",
        )
        doc = json.loads(out)
        assert doc["verdict"] == "buckle"
        assert doc["mode"] == "transverse_buckle"

    def test_validation_error_exits_2(self, capsys):
        code, _, err = run(capsys, "predict", "--pressure-kpa", "-2", "--length-cm", "10")
        assert code == 2
        assert err.startswith("error:")

    def test_usage_error_exits_1(self, capsys):
        code, _, err = run(capsys, "predict", "--length-cm", "10")
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, err = run(capsys, "prediction")
        assert code == 1
        assert err.startswith("error:")


def text_of(doc):
    """The text rendering of a JSON document, written out apart from the CLI:
    one ``key  value`` line per field, keys padded to the longest, the
    ``input`` fields first."""

    def word(value):
        if value is True or value is False:
            return str(value).lower()
        if value is None:
            return "none"
        if isinstance(value, float):
            return format(value, ".6g")
        if isinstance(value, list):
            return ", ".join(word(v) for v in value) if value else "none"
        return str(value)

    pairs = list(doc.pop("input", {}).items()) + list(doc.items())
    width = max(len(key) for key, _ in pairs)
    return "".join(key.ljust(width) + "  " + word(value) + "\n" for key, value in pairs)


class TestRendering:
    @pytest.mark.parametrize(
        "argv",
        [
            # the README's CLI examples
            PREDICT,
            ("predict", "--pressure-kpa", "2", "--length-cm", "50", "--kappa-per-m", "0.444"),
            ("transition", "--pressure-kpa", "2", "--kappa-per-m", "0.444"),
            ("sweep", "--kappa-per-m", "0.22", "--p", "0:10:50", "--l", "0:300:50",
             "--out-csv", "grid.csv", "--out-svg", "grid.svg",
             "--out-transition-csv", "transition.csv", "--oracle-check"),
            DEVICE_INFO,
            ("fit", "inversion", "--csv", "{data}/tension_sweep.csv"),
            pytest.param(
                ("fit", "aperture", "--csv", "{data}/aperture_force.csv", "--shape", "circle"),
                marks=pytest.mark.needs_numpy,
            ),
            ("simulate", "--scenario", "scenario.json", "--out-csv", "episode.csv"),
            # a grounded device row: limit and margin are null
            ("predict", "--pressure-kpa", "1.4", "--length-cm", "300", "--device"),
            # below the minimum inversion pressure: no critical length
            ("transition", "--pressure-kpa", "1"),
            ("sweep", "--p", "0:10:10", "--l", "0:300:10", "--device", "--efficiency", "0.5"),
            ("simulate", "--scenario", "grow.json"),
        ],
        ids=lambda argv: "-".join(a for a in argv[:4] if "/" not in a),
    )
    def test_text_is_the_json_document(self, capsys, tmp_path, monkeypatch, data_dir, argv):
        monkeypatch.chdir(tmp_path)
        for name, doc in SCENARIOS.items():
            (tmp_path / name).write_text(json.dumps(doc))
        argv = [a.format(data=data_dir) for a in argv]
        code, out_json, _ = run(capsys, *argv, "--json")
        assert code == 0
        code, out_text, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out_text == text_of(json.loads(out_json))

    def test_predict_text(self, capsys):
        code, out, _ = run(capsys, *PREDICT)
        assert code == 0
        assert out == (
            "pressure_kpa  2\n"
            "length_cm     100\n"
            "kappa_per_m   0\n"
            "device        false\n"
            "efficiency    none\n"
            "verdict       invert\n"
            "mode          none\n"
            "required_n    9.1745\n"
            "limit_n       11.349\n"
            "margin_n      2.1745\n"
            "model         straight\n"
            "extrapolated  false\n"
        )


class TestTransition:
    def test_straight_value(self, capsys):
        _, out, _ = run(capsys, "transition", "--pressure-kpa", "2", "--json")
        doc = json.loads(out)
        assert doc["critical_length_cm"] == pytest.approx(239.46188550377653, rel=1e-9)

    def test_below_minimum_pressure(self, capsys):
        code, out, _ = run(capsys, "transition", "--pressure-kpa", "1", "--json")
        assert code == 0
        assert json.loads(out)["critical_length_cm"] is None


class TestDeviceInfo:
    def test_headline_numbers(self, capsys):
        _, out, _ = run(capsys, "device", "info", "--json")
        doc = json.loads(out)
        assert doc["max_device_force_n"] == pytest.approx(41.0, rel=0.01)
        assert doc["max_zero_tension_kpa"] == pytest.approx(6.2, rel=0.10)
        assert doc["tip_speed_cm_s"] == pytest.approx(2.1, rel=0.05)

    def test_human_output_lists_the_same_keys(self, capsys):
        _, out, _ = run(capsys, "device", "info")
        for key in ("max_device_force_n", "max_zero_tension_kpa", "tip_speed_cm_s"):
            assert key in out


class TestSweep:
    def test_writes_deterministic_files(self, capsys, tmp_path):
        args = (
            "sweep", "--p", "0:10:6", "--l", "0:300:6",
            "--out-csv", str(tmp_path / "grid.csv"),
            "--out-svg", str(tmp_path / "grid.svg"),
            "--out-transition-csv", str(tmp_path / "transition.csv"),
        )
        code, _, _ = run(capsys, *args)
        assert code == 0
        first = (tmp_path / "grid.csv").read_bytes()
        svg_first = (tmp_path / "grid.svg").read_bytes()
        code, _, _ = run(capsys, *args)
        assert code == 0
        assert (tmp_path / "grid.csv").read_bytes() == first
        assert (tmp_path / "grid.svg").read_bytes() == svg_first
        header = first.decode().split("\n", 1)[0]
        assert header == (
            "pressure_kpa,length_cm,verdict,mode,required_n,limit_n,margin_n,model,extrapolated"
        )
        transition = (tmp_path / "transition.csv").read_text()
        assert transition.startswith("pressure_kpa,critical_length_cm")

    def test_oracle_check_passes_on_healthy_build(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--p", "0:10:5", "--l", "0:300:5",
            "--kappa-per-m", "0.44", "--oracle-check", "--json",
        )
        assert code == 0
        assert json.loads(out)["oracle_check"] == "ok"

    def test_injected_transition_bug_trips_oracle_check(self, capsys, monkeypatch):
        # corrupt the closed-form dispatch; the direct-comparison oracle disagrees
        monkeypatch.setattr(
            mechanics, "_straight_transition_for", lambda body, p, t: 0.05
        )
        code, _, err = run(
            capsys, "sweep", "--p", "1.5:10:5", "--l", "5:300:5",
            "--kappa-per-m", "0.44", "--oracle-check",
        )
        assert code == 3
        assert err.startswith("error:")

    def test_model_disagreement_trips_oracle_check(self, capsys, monkeypatch):
        # verdicts all agree; one oracle cell names the other model
        scan, diagrams = sweep.oracle_scan, []

        def flipped(request):
            diagram = scan(request)
            cell = diagram.grid[2][3]
            other = (mechanics.ModelUsed.STRAIGHT if cell.model_used is mechanics.ModelUsed.CURVED
                     else mechanics.ModelUsed.CURVED)
            diagram.grid[2][3] = cell._replace(model_used=other)
            diagrams.append(diagram)
            return diagram

        monkeypatch.setattr(sweep, "oracle_scan", flipped)
        code, out, err = run(
            capsys, "sweep", "--p", "0:10:5", "--l", "0:300:5",
            "--kappa-per-m", "0.44", "--oracle-check", "--json",
        )
        assert code == 3 and out == "" and err.startswith("error:")
        request = SweepRequest(BodySpec(), 0.44, sweep.AxisRange(0.0, 10e3, 5),
                               sweep.AxisRange(0.0, 3.0, 5))
        classified = sweep.classify_grid(request)
        (diagram,) = diagrams
        assert [[c.verdict for c in row] for row in diagram.grid] == [
            [c.verdict for c in row] for row in classified.grid
        ]
        assert diagrams_agree(classified, scan(request))
        assert not diagrams_agree(classified, diagram)

    def test_closed_stdout_exits_1_without_a_traceback(self):
        # the reader is gone before the document is written, as with `| true`
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "vinebuckle.cli", "sweep", "--p", "0:10:40",
                 "--l", "0:300:400", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == b""

    @pytest.mark.parametrize(
        "axis,message",
        [("0:10", "expects MIN:MAX:STEPS"), ("0:ten:5", "expects numbers MIN:MAX:STEPS")],
    )
    def test_malformed_range_exits_1(self, capsys, axis, message):
        code, out, err = run(capsys, "sweep", "--p", axis, "--l", "0:300:5")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    def test_bad_range_values_exit_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--p", "10:0:5", "--l", "0:300:5")
        assert code == 2

    def test_grid_above_the_cell_ceiling_exits_2(self, capsys):
        # refused before any cell center is built
        code, out, err = run(
            capsys, "sweep", "--p", "0:10:1000000000000000000", "--l", "0:300:5", "--json"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestFit:
    def test_inversion_fit_from_csv(self, capsys, tmp_path):
        path = tmp_path / "tension.csv"
        path.write_text(DATA)
        code, out, _ = run(capsys, "fit", "inversion", "--csv", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 3
        assert doc["f_i_n"] == pytest.approx(3.5, abs=0.25)

    def test_inversion_fit_on_bench_fixture(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "fit", "inversion", "--csv", str(data_dir / "tension_sweep.csv"), "--json"
        )
        assert code == 0
        assert json.loads(out)["f_i_n"] == pytest.approx(3.5, abs=0.1)

    @pytest.mark.needs_numpy
    def test_aperture_fit_on_bench_fixture(self, capsys, data_dir):
        code, out, _ = run(
            capsys,
            "fit", "aperture", "--csv", str(data_dir / "aperture_force.csv"),
            "--shape", "circle", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["c1_ncm2"] == pytest.approx(6.1, rel=0.10)
        assert doc["c2_n"] == pytest.approx(3.3, rel=0.10)

    def test_aperture_help_lists_the_shape_tags(self, capsys):
        code, out, _ = run(capsys, "fit", "aperture", "--help")
        assert code == 0
        # in the usage line and in the option's entry
        listed = re.findall(r"--shape \{(.*?)\}", out)
        assert [choices.split(",") for choices in listed] == [
            [shape.value for shape in ApertureShape]
        ] * 2

    def test_unknown_aperture_shape_is_a_usage_error(self, capsys, data_dir):
        code, out, err = run(
            capsys, "fit", "aperture", "--csv", str(data_dir / "aperture_force.csv"),
            "--shape", "bogus",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: argument --shape: invalid choice: 'bogus'")

    def test_empty_csv_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run(capsys, "fit", "inversion", "--csv", str(path))
        assert code == 2
        assert "empty" in err

    def test_malformed_row_exits_2_and_names_row(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pressure_kpa,tension_n\n1.0,2.0\nnope,3.0\n")
        code, _, err = run(capsys, "fit", "inversion", "--csv", str(path))
        assert code == 2
        assert "row 2" in err

    def test_non_finite_row_exits_2_and_names_row(self, capsys, tmp_path):
        # it used to exit 0 with "f_i_n": NaN
        path = tmp_path / "nan.csv"
        path.write_text("pressure_kpa,tension_n\nnan,3\n")
        code, out, err = run(capsys, "fit", "inversion", "--csv", str(path), "--json")
        assert code == 2 and out == ""
        assert err.startswith("error: row 1:")

    def test_shape_with_no_samples_exits_2(self, capsys, tmp_path):
        path = tmp_path / "circles.csv"
        path.write_text("area_cm2,force_n,shape\n5.0,9.0,circle\n8.0,8.0,circle\n")
        code, out, err = run(capsys, "fit", "aperture", "--csv", str(path), "--shape", "rect")
        assert code == 2 and out == ""
        assert err.startswith("error: no samples with shape 'rect'") and err.count("\n") == 1

    def test_aperture_below_the_box_exits_2(self, capsys, tmp_path, recwarn):
        # 1/area squared overflowed inside polyfit, which warned and exited 0
        # with c1 0 and c2 5.125; the area is now below the box's 1e-18 m^2
        path = tmp_path / "tiny.csv"
        path.write_text("area_cm2,force_n,shape\n1e-300,10,circle\n2e-300,10.5,circle\n")
        code, out, err = run(capsys, "fit", "aperture", "--csv", str(path), "--json")
        assert code == 2 and out == ""
        assert err == (
            "error: row 1: aperture_area must be finite and in [1e-18, 1e+13], got 1e-304\n"
        )
        assert not recwarn.list

    @pytest.mark.needs_numpy
    def test_rank_deficient_aperture_fit_exits_2(self, capsys, tmp_path, recwarn):
        # areas one ulp apart: polyfit warned and exited 0 with c1 12.8125
        # and residual 0.125, where a line through two points has residual 0
        path = tmp_path / "ulp.csv"
        path.write_text("area_cm2,force_n,shape\n5.0,10,circle\n5.000000000000001,10.5,circle\n")
        code, out, err = run(capsys, "fit", "aperture", "--csv", str(path), "--json")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "rank-deficient" in err
        assert not recwarn.list

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", "inversion", "--csv", str(tmp_path / "nope.csv"))
        assert code == 2


class TestSimulate:
    def scenario_path(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_retraction_episode(self, capsys, tmp_path):
        path = self.scenario_path(
            tmp_path, {"initial_length_cm": 100, "pressure_kpa": 2.0}
        )
        out_csv = tmp_path / "episode.csv"
        code, out, _ = run(
            capsys, "simulate", "--scenario", path, "--out-csv", str(out_csv), "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["terminal"] == "fully_retracted"
        assert doc["steps"] == 100
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "step,tip_cm,pressure_kpa,required_n,device_n,verdict,time_s"
        assert len(lines) == 101

    def test_device_episode_with_schedule(self, capsys, tmp_path):
        path = self.scenario_path(
            tmp_path,
            {
                "initial_length_cm": 150,
                "pressure_schedule": [[0, 1.0], [150, 2.0]],
                "device": True,
                "motor_rpm": 16.5,
                "step_cm": 5.0,
            },
        )
        code, out, _ = run(capsys, "simulate", "--scenario", path, "--json")
        assert code == 0
        assert json.loads(out)["terminal"] == "fully_retracted"

    def test_growth_episode(self, capsys, tmp_path):
        path = self.scenario_path(
            tmp_path,
            {"mode": "grow", "initial_length_cm": 0, "target_length_cm": 300,
             "pressure_kpa": 2.0},
        )
        code, out, _ = run(capsys, "simulate", "--scenario", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["terminal"] == "buckled"
        assert doc["terminal_length_cm"] == pytest.approx(240.0, abs=1.1)

    @pytest.mark.parametrize("target_cm", [300, 100])
    def test_growth_target_not_beyond_start_exits_2(self, capsys, tmp_path, target_cm):
        # used to exit 0 with no step and fully_retracted
        path = self.scenario_path(
            tmp_path,
            {"mode": "grow", "initial_length_cm": 300, "target_length_cm": target_cm,
             "pressure_kpa": 2.0},
        )
        code, out, err = run(capsys, "simulate", "--scenario", path, "--json")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "nothing to grow" in err

    @pytest.mark.parametrize(
        "fields",
        [
            {"pressure_kpa": "2"},  # used to escape as a TypeError traceback
            {"pressure_kpa": 2.0, "base_takeup": "no"},  # used to count as true
            {"pressure_kpa": 2.0, "efficiency": None},
            {"pressure_schedule": [[0, "1"], [100, 2]]},
            {"pressure_kpa": 2.0, "initial_length_cm": 1e8, "step_cm": 1e-7},  # 10^15 steps
            {"pressure_kpa": 2.0, "mode": "walk"},
            {"pressure_kpa": 2.0, "device": 1},
        ],
    )
    def test_bad_field_exits_2(self, capsys, tmp_path, fields):
        path = self.scenario_path(tmp_path, {"initial_length_cm": 100, **fields})
        code, out, err = run(capsys, "simulate", "--scenario", path, "--json")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([{"initial_length_cm": 100}], "scenario must be a JSON object"),
            ({"pressure_kpa": 2.0}, "scenario needs initial_length_cm"),
        ],
    )
    def test_bad_document_exits_2(self, capsys, tmp_path, doc, message):
        path = self.scenario_path(tmp_path, doc)
        code, out, err = run(capsys, "simulate", "--scenario", path, "--json")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_absent_fields_take_the_scenario_defaults(self):
        scenario, mode = cli.scenario_from_json({"initial_length_cm": 100, "pressure_kpa": 2})
        assert scenario == Scenario(BodySpec(), 1.0, pressure=2e3)
        assert mode == "retract"

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        path = self.scenario_path(tmp_path, {"initial_length_cm": 10, "psi": 3})
        code, _, err = run(capsys, "simulate", "--scenario", path)
        assert code == 2
        assert "unknown scenario keys" in err


class TestConfig:
    def test_no_config_takes_the_library_defaults(self):
        body, device, efficiency, defaults = cli.load_config(None)
        assert body == BodySpec()
        # the CLI's 3.2 cm tip ring is 1 ulp off DeviceSpec's; the routing aperture follows it
        assert device.tip_ring_area == pytest.approx(DeviceSpec().tip_ring_area, rel=1e-15)
        assert device.routing_aperture_area == device.tip_ring_area
        rings = {"tip_ring_area": 1.0, "routing_aperture_area": 1.0}
        assert replace(device, **rings) == replace(DeviceSpec(), **rings)
        assert efficiency == SweepRequest.efficiency == 1.0 and defaults == {}

    def test_efficiency_zero_is_accepted(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"device": {"efficiency": 0}}))
        code, out, _ = run(capsys, "device", "info", "--config", str(config), "--json")
        assert code == 0
        assert json.loads(out)["max_zero_tension_aperture_kpa"] == 0.0

    def test_overrides_flow_through(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"body": {"radius_cm": 2.0, "f_i_n": 1.0}}))
        _, out, _ = run(
            capsys,
            "predict", "--pressure-kpa", "2", "--length-cm", "100",
            "--config", str(config), "--json",
        )
        doc = json.loads(out)
        area = math.pi * 0.02**2
        assert doc["required_n"] == pytest.approx(0.5 * 2e3 * area + 1.0, rel=1e-12)

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"body": {"radius_m": 0.02}}))
        code, _, err = run(
            capsys, "predict", "--pressure-kpa", "2", "--length-cm", "100",
            "--config", str(config),
        )
        assert code == 2
        assert "unknown keys" in err

    def test_nonpositive_value_exits_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"device": {"torque_ncm": -1.0}}))
        code, _, _ = run(capsys, "device", "info", "--config", str(config))
        assert code == 2

    @pytest.mark.parametrize(
        "text,argv,message",
        [
            # used to print "max_device_force_n": NaN
            ('{"device": {"torque_ncm": NaN}}', DEVICE_INFO, "device.torque_ncm must be finite"),
            # used to give an infinite radius and verdict buckle
            ('{"body": {"radius_cm": 1e400}}', PREDICT, "body.radius_cm must be finite"),
            ('{"body": {"e_mpa": "300"}}', PREDICT, "body.e_mpa must be a number"),
            ('{"device": {"efficiency": 1.5}}', DEVICE_INFO, "device.efficiency must be finite"),
            # R**4 overflowed, pi*R*R underflowed to a division by zero: tracebacks;
            # pi*R^2 was 0 and predict exited 0 with limit_n 0. Each radius is
            # now outside the box, in SI
            ('{"body": {"radius_cm": 1e100}}', PREDICT, "radius must be finite and in [1e-09, 1e+06]"),
            ('{"body": {"radius_cm": 1e-201}}', DEVICE_INFO, "radius must be finite and in [1e-09"),
            ('{"body": {"radius_cm": 1e-168}}', PREDICT, "radius must be finite and in [1e-09"),
            ("[]", PREDICT, "config document must be a JSON object"),
            ('{"motor": {}}', PREDICT, "unknown config sections: ['motor']"),
            ('{"body": 1}', DEVICE_INFO, "config section 'body' must be a JSON object"),
            ('{"defaults": 5}', PREDICT, "config section 'defaults' must be a JSON object"),
        ],
    )
    def test_bad_value_exits_2(self, capsys, tmp_path, text, argv, message):
        config = tmp_path / "config.json"
        config.write_text(text)
        code, out, err = run(capsys, *argv, "--config", str(config), "--json")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("rendering", [["--json"], []], ids=["json", "text"])
    def test_non_finite_result_exits_2_in_both_renderings(self, capsys, tmp_path, rendering):
        # the force overflowed to inf: text printed "inf" and exited 0, --json
        # exited 2; the torque is now outside the box in both
        config = tmp_path / "config.json"
        overflow = {"device": {"torque_ncm": 1e300, "roller_radius_cm": 1e-300}}
        config.write_text(json.dumps(overflow))
        code, out, err = run(capsys, *DEVICE_INFO, "--config", str(config), *rendering)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("rendering", [["--json"], []], ids=["json", "text"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("predict", "--pressure-kpa", "2", "--length-cm", "100"),
            ("sweep", "--p", "0:10:4", "--l", "0:300:4"),
        ],
        ids=["predict", "sweep"],
    )
    def test_overflowing_device_at_zero_efficiency_exits_2(
        self, capsys, tmp_path, argv, rendering
    ):
        # efficiency 0 times an infinite device force was NaN, which the
        # saturated path's device_force check named; the torque is now outside
        # the box, in both renderings
        config = tmp_path / "config.json"
        overflow = {"device": {"torque_ncm": 1e300, "roller_radius_cm": 1e-300}}
        config.write_text(json.dumps(overflow))
        code, out, err = run(
            capsys, *argv, "--device", "--efficiency", "0", "--config", str(config), *rendering
        )
        assert code == 2 and out == ""
        assert err.startswith("error: max_motor_torque must be finite and in [1e-09, 1e+09], got")
        assert err.count("\n") == 1

    def test_device_config_changes_info(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"device": {"torque_ncm": 12.25}}))
        _, out, _ = run(capsys, "device", "info", "--config", str(config), "--json")
        assert json.loads(out)["max_device_force_n"] == pytest.approx(
            20.416666666666664, rel=1e-12
        )

    def test_aperture_constant_is_read_in_n_cm2(self, capsys, tmp_path):
        # 6.1 N*cm^2 is the default 6.1e-4 N*m^2
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"device": {"c1_ncm2": 6.1}}))
        _, out, _ = run(capsys, "device", "info", "--config", str(config), "--json")
        _, default, _ = run(capsys, "device", "info", "--json")
        assert json.loads(out)["aperture_inversion_n"] == pytest.approx(
            json.loads(default)["aperture_inversion_n"], rel=1e-12
        )
