import ast
import contextlib
import filecmp
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import spskit
from spskit import cli
from spskit.cli import CSV_BLOCK_ROWS, main
from spskit.config import (
    SCHEMA,
    ConfigError,
    apply_overrides,
    default_scenario,
    load_scenario,
    provenance_table,
)
from spskit.reproduce import ReproductionReport, check_coating, check_qkd
from spskit.specfit import (
    MeasurementSeries,
    convolve_decay,
    cos2_model,
    g2_model,
    lorentzian,
)
from test_specfit import write_series_csv


class TestConfig:
    def test_defaults_resolve(self):
        scenario = default_scenario()
        assert scenario["mirror"]["n_high"] == 2.135
        assert scenario["qkd"]["attenuation_db_per_km"] == 0.21

    def test_ini_round_trip(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[mirror]\npairs = 11\n\n[qkd]\nchannel = freespace\n")
        scenario = load_scenario(path)
        assert scenario["mirror"]["pairs"] == 11
        assert scenario["qkd"]["channel"] == "freespace"
        # untouched sections keep defaults
        assert scenario["cavity"]["longitudinal_order"] == 8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[mirror]\nrefractive = 2.0\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_scenario(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[laser]\npower = 2.0\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_scenario(path)

    def test_type_coercion_failure(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[mirror]\npairs = many\n")
        with pytest.raises(ConfigError, match="expected int"):
            load_scenario(path)

    @pytest.mark.parametrize("text", ["[mirror]\npairs = 11\n"], ids=["ini"])
    def test_a_byte_order_mark_is_no_part_of_the_config(self, tmp_path, text):
        path = tmp_path / "scenario.ini"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_scenario(path)["mirror"]["pairs"] == 11

    @pytest.mark.parametrize("text, match", [
        ("[mirror]\npairs = 12\n[mirror]\npairs = 6\n", "section 'mirror' already exists"),
        ("[mirror]\npairs = 12\npairs = 6\n",
         "option 'pairs' in section 'mirror' already exists"),
    ], ids=["section", "key"])
    def test_a_config_that_repeats_a_key_is_rejected(self, tmp_path, capsys, text, match):
        path = tmp_path / "scenario.ini"
        path.write_text(text, encoding="utf-8")
        _assert_validation_error(["--outdir", str(tmp_path), "--config", str(path), "mirror"],
                                 capsys, match)
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.ini"]

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario("/nonexistent/scenario.ini")

    def test_overrides(self):
        scenario = default_scenario()
        apply_overrides(scenario, ["cavity.longitudinal_order=5", "mirror.pairs=7"])
        assert scenario["cavity"]["longitudinal_order"] == 5
        assert scenario["mirror"]["pairs"] == 7
        with pytest.raises(ConfigError, match="section.key=value"):
            apply_overrides(scenario, ["pairs=7"])

    def test_digest_tracks_content(self):
        a, b = default_scenario(), default_scenario()
        assert a.digest() == b.digest()
        apply_overrides(b, ["mirror.pairs=10"])
        assert a.digest() != b.digest()

    @pytest.mark.parametrize("overrides", [
        [], ["mirror.pairs=10"],
        ["qkd.channel=freespace", "fab.calibration_nm_per_unit=0.5", "emitter.map_points=500"],
    ], ids=["defaults", "pairs", "three-sections"])
    def test_digest_is_hashlib_sha256_with_or_without_the_builtin_module(self, overrides):
        # the digest comes from the interpreter's _sha2 or _sha256; a child
        # that has neither (an import of a None entry raises ImportError)
        # falls back to hashlib, and all three give hashlib's bytes
        scenario = default_scenario()
        apply_overrides(scenario, overrides)
        payload = json.dumps(scenario.sections, sort_keys=True, default=str).encode()
        expected = hashlib.sha256(payload).hexdigest()[:16]
        assert scenario.digest() == expected
        script = ("import hashlib, sys\n"
                  "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                  "from spskit import config\n"
                  "assert config.sha256 is hashlib.sha256\n"
                  "scenario = config.default_scenario()\n"
                  f"config.apply_overrides(scenario, {overrides!r})\n"
                  "print(scenario.digest())\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                check=False, env=_child_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == expected

    def test_required_value_without_default(self):
        scenario = default_scenario()
        with pytest.raises(ConfigError, match="required"):
            scenario.require("fab", "calibration_nm_per_unit")

    def test_provenance_covers_every_key(self):
        table = provenance_table()
        for section, keys in table.items():
            for key, text in keys.items():
                assert text, f"[{section}] {key} lacks provenance"


class TestCli:
    def test_mirror_outputs(self, tmp_path):
        code = main(["--outdir", str(tmp_path), "mirror"])
        assert code == 0
        assert (tmp_path / "mirror_reflectance.csv").exists()
        report = json.loads((tmp_path / "mirror_report.json").read_text())
        assert report["reflectance_at_design_wavelength"] == pytest.approx(0.9942, abs=1e-3)
        assert report["bare_interface_reflectance"] == pytest.approx(0.0433, abs=2e-4)
        assert report["ar_coated_reflectance_at_design"] == pytest.approx(0.0138, abs=2e-4)
        first = (tmp_path / "mirror_reflectance.csv").read_text().splitlines()
        assert first[0].startswith("# spskit")
        assert first[1] == "wavelength_nm,reflectance"

    def test_missing_config_exits_1_without_outputs(self, tmp_path):
        outdir = tmp_path / "fresh"
        code = main(["--config", str(tmp_path / "nope.ini"),
                     "--outdir", str(outdir), "mirror"])
        assert code == 1
        assert not outdir.exists()

    def test_error_json_mode(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.ini"), "--error-json",
                     "--outdir", str(tmp_path), "mirror"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["exit_code"] == 1
        assert "not found" in payload["message"]

    def test_zero_wavelength_step_is_a_validation_error(self, tmp_path, capsys):
        code = main(["--set", "mirror.wl_step_nm=0", "--error-json",
                     "--outdir", str(tmp_path), "mirror"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["exit_code"] == 1
        assert "wl_step_nm" in payload["message"]

    def test_nan_cavity_wavelength_names_the_wavelength(self, tmp_path, capsys):
        code = main(["--set", "cavity.wavelength_nm=nan", "--error-json",
                     "--outdir", str(tmp_path), "cavity"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["exit_code"] == 1
        assert payload["message"].startswith("[cavity] wavelength_nm must be in")

    def test_cavity_outputs(self, tmp_path):
        code = main(["--outdir", str(tmp_path), "cavity"])
        assert code == 0
        report = json.loads((tmp_path / "cavity_report.json").read_text())
        assert report["resonance"]["quality_factor"] == pytest.approx(3345, rel=0.1)
        assert report["penetration_depth_nm"] == pytest.approx(140.3, abs=1.0)
        assert report["antinode_count"] == 8
        assert (tmp_path / "cavity_spectrum.csv").exists()
        assert (tmp_path / "cavity_field.csv").exists()

    # a scenario file is INI alone, whatever its name: a JSON object has no
    # section header, and a JSON list reads as an unknown one that sets no key
    @pytest.mark.parametrize("name, text, match", [
        ("scenario.json", '{\n  "mirror": {"pairs": 11}\n}\n', "malformed INI config"),
        ("scenario.json", "[1, 2]", "unknown config section [1, 2]"),
        ("scenario.json", '{"mirror": 9}', "malformed INI config"),
        ("scenario.ini", "pairs = 9\n", "malformed INI config"),
    ], ids=["json-scenario", "json-list", "json-section-not-an-object", "ini-without-section"])
    def test_malformed_config_exits_1(self, tmp_path, capsys, name, text, match):
        config = tmp_path / name
        config.write_text(text)
        _assert_validation_error(
            ["--config", str(config), "--outdir", str(tmp_path / "out"), "mirror"], capsys, match)
        assert not (tmp_path / "out").exists()

    def test_emitter_outputs(self, tmp_path):
        code = main(["--set", "emitter.map_points=16", "--outdir", str(tmp_path),
                     "emitter"])
        assert code == 0
        report = json.loads((tmp_path / "emitter_report.json").read_text())
        assert report["effective_purcell_factor"] == pytest.approx(4.09, abs=0.02)
        assert report["quantum_efficiency"] == pytest.approx(0.513, abs=0.01)
        lines = (tmp_path / "indistinguishability_map.csv").read_text().splitlines()
        assert lines[1] == "g_Hz,kappa_Hz,indistinguishability"
        assert len(lines) == 2 + 16 * 16

    def test_emitter_ignores_the_cavity_keys_it_does_not_read(self, tmp_path):
        # the emitter's mode volume reads only the cavity's radius and order
        bodies = {}
        for name, sets in (("default", []), ("set", ["--set", "cavity.mirror_reflectivity=0.95"])):
            assert main([*sets, "--set", "emitter.map_points=16", "--outdir",
                         str(tmp_path / name), "emitter"]) == 0
            bodies[name] = json.loads((tmp_path / name / "emitter_report.json").read_text())
            del bodies[name]["config_digest"]
        assert bodies["set"] == bodies["default"]

    def test_fit_spectrum(self, tmp_path):
        x = np.linspace(545, 585, 401)
        y = lorentzian(x, 565.85, 5.76, 1200.0, 12.0)
        csv = tmp_path / "line.csv"
        write_series_csv(csv, MeasurementSeries(tuple(x), tuple(y), "spectrum"),
                         "wavelength_nm", "counts")
        code = main(["--outdir", str(tmp_path), "fit", "--input", str(csv)])
        assert code == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert report["fit"]["parameters"]["fwhm_nm"] == pytest.approx(5.76, rel=1e-3)
        assert 0 <= report["zpl_fraction"] <= 1

    def test_fit_correlation_reports_diagnostics(self, tmp_path):
        _write_fit_inputs(tmp_path)
        code = main(["--outdir", str(tmp_path), "fit", "--input",
                     str(tmp_path / "correlation.csv")])
        assert code == 0
        fit = json.loads((tmp_path / "fit_report.json").read_text())["fit"]
        assert fit["model"] == "with_bunching"
        assert set(fit["residual_norms"]) == {"with_bunching", "plain"}
        assert fit["residual_norm"] == fit["residual_norms"]["with_bunching"]
        assert fit["iterations"] > 0 and fit["converged"] is True

    @pytest.mark.parametrize("kind", ["spectrum", "decay", "correlation", "polarization"])
    def test_every_fit_report_has_one_shape(self, tmp_path, kind):
        _write_fit_inputs(tmp_path)
        irf = ["--irf", str(tmp_path / "irf.csv")] if kind == "decay" else []
        assert main(["--outdir", str(tmp_path), "fit", "--input",
                     str(tmp_path / f"{kind}.csv"), *irf]) == 0
        fit = json.loads((tmp_path / "fit_report.json").read_text())["fit"]
        assert {"parameters", "uncertainties", "formatted", "residual_norm", "iterations",
                "converged", "warnings"} <= set(fit)
        assert set(fit["uncertainties"]) <= set(fit["parameters"])

    def test_fit_decay_read_back_from_its_own_csv(self, tmp_path):
        # 10 significant digits of 0..12288 in 8192 bins jitter the spacing
        t = np.linspace(0.0, 12288.0, 8192)
        irf = np.exp(-0.5 * ((t - 400.0) / 40.0) ** 2)
        y = np.random.default_rng(8).poisson(8000.0 * convolve_decay(t, 900.0, irf)) + 0.0
        write_series_csv(tmp_path / "decay.csv", MeasurementSeries(t, y, "decay"))
        write_series_csv(tmp_path / "irf.csv", MeasurementSeries(t, irf, "decay"))
        assert main(["--outdir", str(tmp_path), "fit", "--input", str(tmp_path / "decay.csv"),
                     "--irf", str(tmp_path / "irf.csv")]) == 0
        fit = json.loads((tmp_path / "fit_report.json").read_text())["fit"]
        assert fit["parameters"]["lifetime_ps"] == pytest.approx(900.0, rel=0.03)

    def test_fit_spectrum_with_scan_range_read_back_from_its_own_csv(self, tmp_path):
        x = np.linspace(560.1234567, 571.9876543, 4001)
        y = lorentzian(x, 566.0, 0.8, 1000.0, 5.0)
        write_series_csv(tmp_path / "line.csv", MeasurementSeries(x, y, "spectrum"))
        assert main(["--outdir", str(tmp_path), "fit", "--input", str(tmp_path / "line.csv"),
                     "--scan-range", "2.0"]) == 0

    def test_zero_scan_range_is_no_instrument(self, tmp_path):
        # --scan-range 0 writes the fit of a run without the flag
        _write_fit_inputs(tmp_path)
        for name, flags in (("none", []), ("zero", ["--scan-range", "0"])):
            assert main(["--outdir", str(tmp_path / name), "fit", "--input",
                         str(tmp_path / "spectrum.csv"), *flags]) == 0
        assert filecmp.cmp(tmp_path / "none" / "fit_report.json",
                           tmp_path / "zero" / "fit_report.json", shallow=False)

    def test_fit_decay_requires_irf(self, tmp_path):
        t = np.arange(0.0, 4000.0, 8.0)
        y = 900 * np.exp(-t / 500.0) + 1
        csv = tmp_path / "decay.csv"
        write_series_csv(csv, MeasurementSeries(tuple(t), tuple(y), "decay"),
                         "time_ps", "counts")
        assert main(["--outdir", str(tmp_path), "fit", "--input", str(csv)]) == 1

    def test_qkd_sweep_row_count(self, tmp_path):
        code = main(["--outdir", str(tmp_path), "qkd"])
        assert code == 0
        lines = (tmp_path / "qkd_rates.csv").read_text().splitlines()
        # stamp + header + 201 sweep rows
        assert len(lines) == 2 + 201
        assert lines[1].split(",")[:2] == ["distance_km", "loss_db"]
        crossings = json.loads((tmp_path / "qkd_crossings.json").read_text())
        assert "sps_vs_decoy" in crossings["crossings"]

    def test_fab_requires_calibration(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "fab"]) == 1
        assert not (tmp_path / "dose_map.bmp").exists()

    def test_fab_dose_map(self, tmp_path):
        code = main(["--set", "fab.calibration_nm_per_unit=0.5",
                     "--set", "fab.pitch_nm=30.0",
                     "--outdir", str(tmp_path), "fab"])
        assert code == 0
        assert (tmp_path / "dose_map.bmp").exists()
        sidecar = json.loads((tmp_path / "dose_map.bmp.json").read_text())
        assert sidecar["calibration_nm_per_unit"] == 0.5

    def test_fab_profile_fit(self, tmp_path):
        from spskit.fab import synthetic_hemisphere_profile
        profile = synthetic_hemisphere_profile(2.7, 2.4, 101, 0.0)
        csv = tmp_path / "profile.csv"
        with open(csv, "w") as fh:
            fh.write("x_um,z_nm\n")
            for x, z in zip(profile.x, profile.y):
                fh.write(f"{x:.12g},{z:.12g}\n")
        code = main(["--outdir", str(tmp_path), "fab", "--profile", str(csv)])
        assert code == 0
        report = json.loads((tmp_path / "hemisphere_fit.json").read_text())
        assert report["radius_um"] == pytest.approx(2.7, rel=1e-6)
        assert report["classified_ideal_hemisphere"] is True

    def test_outputs_embed_version_and_digest(self, tmp_path):
        main(["--outdir", str(tmp_path), "mirror"])
        report = json.loads((tmp_path / "mirror_report.json").read_text())
        assert report["toolkit_version"]
        assert len(report["config_digest"]) == 16


def _child_env() -> dict:
    """Environment for a child that imports the same spskit sources."""
    env = dict(os.environ)
    src = str(Path(spskit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _assert_validation_error(argv, capsys, match: str) -> None:
    """Exit 1 with a message, in plain and in --error-json mode."""
    assert main(argv) == 1
    assert match in capsys.readouterr().err
    assert main(["--error-json", *argv]) == 1
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["exit_code"] == 1
    assert match in payload["message"]


class TestTypedErrors:
    @pytest.mark.parametrize("argv, match", [
        (["--set", "qkd.sweep_step_km=0", "qkd"], "[qkd] sweep_step_km"),
        (["--set", "qkd.sweep_step_km=-1", "qkd"], "[qkd] sweep_step_km"),
    ], ids=["set-zero", "negative"])
    def test_sweep_step_must_be_positive(self, tmp_path, capsys, argv, match):
        _assert_validation_error(["--outdir", str(tmp_path), *argv], capsys, match)
        assert not (tmp_path / "qkd_rates.csv").exists()

    @pytest.mark.parametrize("argv, match", [
        (["--set", "qkd.sweep_start_km=5", "--set", "qkd.sweep_stop_km=5", "qkd"],
         "[qkd] sweep_stop_km leaves no crossing search interval: it must exceed "
         "sweep_start_km or lie below 1 km, got 5 from 5"),
    ], ids=["one-point-set"])
    def test_sweep_is_rejected_before_any_file(self, tmp_path, capsys, argv, match):
        _assert_validation_error(["--outdir", str(tmp_path), *argv], capsys, match)
        assert not (tmp_path / "qkd_rates.csv").exists()

    def test_overflowing_mirror_index(self, tmp_path, capsys):
        _assert_validation_error(
            ["--outdir", str(tmp_path), "--set", "mirror.n_high=1e300", "mirror"], capsys,
            "[mirror] n_high")

    def test_nan_sweep_step(self, tmp_path, capsys):
        _assert_validation_error(
            ["--outdir", str(tmp_path), "--set", "qkd.sweep_step_km=nan", "qkd"], capsys,
            "[qkd] sweep_step_km")

    # the cavity computes the penetration depth from the coating; the others
    # changed no output
    @pytest.mark.parametrize("key", [
        "cavity.penetration_depth_nm", "cavity.tuning_slope_nm_per_v", "cavity.max_voltage_v",
        "emitter.zpl_fraction", "emitter.dop"])
    def test_unread_key_is_not_a_setting(self, tmp_path, capsys, key):
        _assert_validation_error(
            ["--outdir", str(tmp_path), "--set", f"{key}=50", "emitter"], capsys, "unknown key")

    @pytest.mark.parametrize("setting, match", [
        ("emitter.free_lifetime_ps=-5", "[emitter] free_lifetime_ps must be in [1, 1e6], got -5.0"),
        ("emitter.free_linewidth_nm=0", "[emitter] free_linewidth_nm must be in (0, 100], got 0.0"),
        ("emitter.zpl_wavelength_nm=-1",
         "[emitter] zpl_wavelength_nm must be in [200, 2000], got -1.0"),
    ], ids=["lifetime", "linewidth", "wavelength"])
    def test_non_positive_emitter_input(self, tmp_path, capsys, setting, match):
        _assert_validation_error(
            ["--outdir", str(tmp_path), "--set", setting, "emitter"], capsys, match)
        assert not (tmp_path / "emitter_report.json").exists()

    def test_unphysical_quantum_efficiency(self, tmp_path, capsys):
        _assert_validation_error(
            ["--outdir", str(tmp_path), "--set", "emitter.lifetime_ratio=0.5", "emitter"],
            capsys, "unphysical quantum efficiency -0.1333")
        assert not (tmp_path / "emitter_report.json").exists()

    @pytest.mark.parametrize("argv, match", [
        (["--scan-range", "nan"], "scan range must be positive and finite, got nan"),
        (["--scan-range", "inf"], "scan range must be positive and finite, got inf"),
        (["--scan-range", "-1"], "scan range must be positive and finite, got -1.0"),
    ], ids=["nan", "inf", "negative"])
    def test_bad_scan_range(self, tmp_path, capsys, argv, match):
        # bad input, rejected before the fit starts: exit 1, not a failed fit
        x = np.linspace(560.0, 572.0, 301)
        line = tmp_path / "line.csv"
        write_series_csv(line, MeasurementSeries(x, lorentzian(x, 566.0, 0.5, 900.0, 10.0),
                                                 "spectrum"))
        _assert_validation_error(
            ["--outdir", str(tmp_path), "fit", "--input", str(line), *argv], capsys, match)
        assert not (tmp_path / "fit_report.json").exists()

    def test_unknown_channel(self, tmp_path, capsys):
        _assert_validation_error(
            ["--outdir", str(tmp_path), "--set", "qkd.channel=foo", "qkd"], capsys,
            "[qkd] channel must be in ('fiber', 'freespace'), got 'foo'")

    @pytest.mark.parametrize("draws", [0, -3])
    def test_reproduce_needs_a_draw(self, tmp_path, capsys, draws):
        outdir = tmp_path / "out"
        _assert_validation_error(
            ["--outdir", str(outdir), "reproduce", "--draws", str(draws)], capsys,
            f"got --draws {draws}")
        assert not outdir.exists()

    def test_reproduce_draws_fit_the_generators_layout(self, tmp_path, capsys):
        # a draw index of 2^31 or more would reach check_fab's counters
        outdir = tmp_path / "out"
        _assert_validation_error(
            ["--outdir", str(outdir), "reproduce", "--draws", str(2 ** 31 + 1)], capsys,
            f"at most {2 ** 31} fits, got --draws {2 ** 31 + 1}")
        assert not outdir.exists()

    @pytest.mark.parametrize("points", [0, 1])
    def test_map_needs_two_points(self, tmp_path, capsys, points):
        _assert_validation_error(
            ["--outdir", str(tmp_path), "--set", f"emitter.map_points={points}", "emitter"],
            capsys, "[emitter] map_points")
        assert not (tmp_path / "indistinguishability_map.csv").exists()

    def test_one_column_row_names_the_line(self, tmp_path, capsys):
        csv = tmp_path / "line.csv"
        csv.write_text("# kind=spectrum\nwavelength_nm,counts\n560,10\n561\n562,12\n")
        _assert_validation_error(["--outdir", str(tmp_path), "fit", "--input", str(csv)],
                                 capsys, "line 4")

    @pytest.mark.parametrize("row", ["561,abc", "561,"])
    def test_non_numeric_second_column_names_the_line(self, tmp_path, capsys, row):
        csv = tmp_path / "line.csv"
        csv.write_text(f"# kind=spectrum\nwavelength_nm,counts\n560,10\n{row}\n562,12\n")
        _assert_validation_error(["--outdir", str(tmp_path), "fit", "--input", str(csv)],
                                 capsys, "line 4")

    @pytest.mark.parametrize("row", ["0.5,abc", "0.5"])
    def test_bad_profile_row_names_the_line(self, tmp_path, capsys, row):
        csv = tmp_path / "profile.csv"
        csv.write_text(f"x_um,z_nm\n0.0,2400\n{row}\n1.0,2000\n1.5,1500\n")
        _assert_validation_error(["--outdir", str(tmp_path), "fab", "--profile", str(csv)],
                                 capsys, "line 3")
        assert not (tmp_path / "hemisphere_fit.json").exists()

    def test_missing_input_file(self, tmp_path, capsys):
        _assert_validation_error(
            ["--outdir", str(tmp_path), "fit", "--input", str(tmp_path / "nope.csv")],
            capsys, "nope.csv")

    def test_missing_irf_file(self, tmp_path, capsys):
        t = np.arange(0.0, 4000.0, 8.0)
        csv = tmp_path / "decay.csv"
        write_series_csv(csv, MeasurementSeries(tuple(t), tuple(900 * np.exp(-t / 500.0) + 1),
                                                "decay"), "time_ps", "counts")
        _assert_validation_error(
            ["--outdir", str(tmp_path), "fit", "--input", str(csv),
             "--irf", str(tmp_path / "no_irf.csv")], capsys, "no_irf.csv")

    @pytest.mark.parametrize("case, match", [
        ("correlation-without-baseline", "tail baseline must be positive"),
        ("negative-snr", "snr must be non-negative, got -1.0"),
        ("irf-off-the-decay-grid", "instrument response has no weight on the data grid"),
        ("one-sample-below-cutoff", "integration band contains fewer than two samples"),
        ("no-emission-below-cutoff", "no emission inside the integration band"),
        ("edge-exclusion-leaves-two-points", "edge exclusion left fewer than 10 points"),
    ])
    def test_input_the_fit_cannot_use(self, tmp_path, capsys, case, match):
        _assert_validation_error(["--outdir", str(tmp_path), *_unusable_input(case, tmp_path)],
                                 capsys, match)

    @pytest.mark.parametrize("kind, snr, match", [
        ("correlation", "-1", "snr must be non-negative, got -1.0"),
        ("correlation", "0", "snr = 0: correction undefined"),
        ("correlation", "nan", "snr must be non-negative, got nan"),
        ("spectrum", "40", "--snr applies to a correlation only, not a spectrum"),
        ("polarization", "40", "--snr applies to a correlation only, not a polarization"),
    ])
    def test_snr_is_checked_before_any_fit(self, tmp_path, capsys, monkeypatch, kind, snr, match):
        _assert_rejected_before_any_fit(tmp_path, capsys, monkeypatch, kind, ["--snr", snr],
                                        match)

    @pytest.mark.parametrize("kind, flag, value", [
        ("correlation", "--scan-range", "-3"),
        ("decay", "--scan-range", "5"),
        ("polarization", "--scan-range", "0"),
        ("spectrum", "--irf", "no_irf.csv"),
        ("correlation", "--irf", "no_irf.csv"),
        ("polarization", "--irf", "no_irf.csv"),
    ])
    def test_a_flag_on_another_kind_exits_before_the_irf_is_read(self, tmp_path, capsys,
                                                                 monkeypatch, kind, flag, value):
        # the --irf file does not exist: the flag is rejected before it is read
        own = {"--scan-range": "spectrum", "--irf": "decay"}[flag]
        value = str(tmp_path / value) if flag == "--irf" else value
        _assert_rejected_before_any_fit(tmp_path, capsys, monkeypatch, kind, [flag, value],
                                        f"{flag} applies to a {own} only, not a {kind}")


def _assert_rejected_before_any_fit(tmp_path, capsys, monkeypatch, kind: str,
                                    flags: list[str], match: str) -> None:
    """``fit`` of a ``kind`` series with ``flags`` exits 1 with ``match`` in
    both error modes, runs no fit and writes no output folder."""
    from spskit import g2fit, specfit
    calls = []

    def counted(function):
        def call(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)
        return call
    monkeypatch.setattr(g2fit, "fit_g2_batch", counted(g2fit.fit_g2_batch))
    monkeypatch.setattr(specfit, "_run_fit_batch", counted(specfit._run_fit_batch))
    x = {"correlation": np.linspace(-100.0, 100.0, 401),
         "decay": np.arange(0.0, 4000.0, 8.0),
         "spectrum": np.linspace(560.0, 572.0, 301),
         "polarization": np.linspace(0.0, 360.0, 73)}[kind]
    y = {"correlation": g2_model(x, 0.95, 0.0, 5.0, 50.0),
         "decay": 900.0 * np.exp(-x / 500.0) + 1.0,
         "spectrum": lorentzian(x, 566.0, 0.5, 900.0, 10.0),
         "polarization": cos2_model(x, 500.0, 30.0, 50.0)}[kind]
    write_series_csv(tmp_path / "input.csv", MeasurementSeries(x, y, kind))
    _assert_validation_error(["--outdir", str(tmp_path / "out"), "fit",
                              "--input", str(tmp_path / "input.csv"), *flags], capsys, match)
    assert calls == []
    assert not (tmp_path / "out").exists()


def _unusable_input(case: str, folder: Path) -> list[str]:
    """The arguments after ``--outdir`` of a run on input that ``case``
    names, with its files written into ``folder``."""
    def csv(kind, x, y, name="input.csv") -> str:
        write_series_csv(folder / name, MeasurementSeries(x, y, kind))
        return str(folder / name)

    tau = np.linspace(-100.0, 100.0, 401)
    g2 = g2_model(tau, 0.95, 0.0, 5.0, 50.0)
    if case == "correlation-without-baseline":
        return ["fit", "--input", csv("correlation", tau, g2 - 1.0)]
    if case == "negative-snr":
        return ["fit", "--input", csv("correlation", tau, g2), "--snr", "-1"]
    if case == "irf-off-the-decay-grid":
        t = np.arange(0.0, 4000.0, 8.0)
        irf = csv("decay", t + 10000.0, np.exp(-0.5 * ((t - 400.0) / 40.0) ** 2), "irf.csv")
        return ["fit", "--input", csv("decay", t, 900.0 * np.exp(-t / 500.0) + 1.0),
                "--irf", irf]
    if case == "one-sample-below-cutoff":
        x = np.linspace(579.8, 600.3, 42)  # 0.5 nm apart, one sample below 580 nm
        return ["fit", "--input", csv("spectrum", x, lorentzian(x, 590.0, 2.0, 900.0, 10.0))]
    if case == "no-emission-below-cutoff":
        x = np.linspace(560.0, 600.0, 401)
        return ["fit", "--input", csv("spectrum", x, lorentzian(x, 590.0, 1.0, 900.0, -10.0))]
    x_um = np.linspace(-1.0, 1.0, 12)
    profile = folder / "profile.csv"
    profile.write_text("x_um,z_nm\n" + "".join(
        f"{x:.12g},{1000.0 * math.sqrt(2.7 ** 2 - x ** 2):.12g}\n" for x in x_um))
    return ["--set", "fab.edge_exclusion_fraction=0.45", "fab", "--profile", str(profile)]


class TestReproduceReadsTheSubcommands:
    """The coating, cavity and emitter checks of ``reproduce`` are the
    values the subcommands write under the same ``--set``s, bit for bit."""

    CHECKED = {
        "1a": ("mirror", lambda r: r["reflectance_at_design_wavelength"]),
        "1b": ("mirror", lambda r: abs(r["reflectance_at_design_wavelength"]
                                       - r["closed_form_reflectance"])),
        "2a": ("cavity", lambda r: r["resonance"]["fwhm_nm"]),
        "2b": ("cavity", lambda r: r["resonance"]["quality_factor"]),
        "3a": ("cavity", lambda r: r["penetration_depth_nm"]),
        "4": ("cavity", lambda r: r["mode_volume_lambda3"]),
        "5a": ("emitter", lambda r: r["effective_purcell_factor"]),
        "6a": ("emitter", lambda r: r["free_space_indistinguishability"]),
        "6b": ("emitter", lambda r: r["kappa_for_90pct_indistinguishability_hz"]),
        "6d": ("emitter", lambda r: r["cavity_indistinguishability"]),
    }

    @pytest.mark.parametrize("overrides", [
        [],
        ["mirror.pairs=10", "cavity.wavelength_nm=565.0", "emitter.cavity_fwhm_nm=0.3"],
    ], ids=["defaults", "overrides"])
    def test_checks_equal_the_subcommand_reports(self, tmp_path, overrides):
        sets = [arg for item in overrides for arg in ("--set", item)]
        reports = {}
        for command in ("mirror", "cavity", "emitter", "reproduce"):
            extra = ["--draws", "1"] if command == "reproduce" else []
            assert main([*sets, "--outdir", str(tmp_path), command, *extra]) == 0
            reports[command] = json.loads(
                (tmp_path / f"{command}_report.json").read_text())
        digests = {r["config_digest"] for r in reports.values()}
        assert len(digests) == 1
        computed = {c["id"]: c["computed"] for c in reports["reproduce"]["checks"]}
        for cid, (command, value) in self.CHECKED.items():
            assert computed[cid] == value(reports[command]), cid
        # 3b compares the depth at the scenario's order with cavity's at order 5
        assert main([*sets, "--set", "cavity.longitudinal_order=5",
                     "--outdir", str(tmp_path), "cavity"]) == 0
        xi5 = json.loads((tmp_path / "cavity_report.json").read_text())["penetration_depth_nm"]
        xi = reports["cavity"]["penetration_depth_nm"]
        assert computed["3b"] == abs(xi5 - xi) / xi


class TestChecksReadTheWrittenFiles:
    """1a, 1b, 1c and 8a, each check run on its own, are the values that
    ``mirror`` and ``qkd`` write under the same ``--set``s, bit for bit."""

    @pytest.mark.parametrize("overrides", [
        [], ["mirror.pairs=8"], ["qkd.attenuation_db_per_km=0.25"],
    ], ids=["defaults", "mirror-pairs", "qkd-attenuation"])
    def test_coating_and_fiber_crossing(self, tmp_path, overrides):
        sets = [arg for item in overrides for arg in ("--set", item)]
        for command in ("mirror", "qkd"):
            assert main([*sets, "--outdir", str(tmp_path), command]) == 0
        mirror = json.loads((tmp_path / "mirror_report.json").read_text())
        crossings = json.loads((tmp_path / "qkd_crossings.json").read_text())["crossings"]
        scenario = default_scenario()
        apply_overrides(scenario, overrides)
        report = ReproductionReport()
        check_coating(report, scenario)
        check_qkd(report, scenario)
        computed = {c.cid: c.computed for c in report.checks}
        reflectance = mirror["reflectance_at_design_wavelength"]
        assert computed["1a"] == reflectance
        assert computed["1b"] == abs(reflectance - mirror["closed_form_reflectance"])
        assert computed["1c"] == mirror["stopband_nm"][0]
        assert computed["8a"] == crossings["sps_vs_decoy"]["loss_db"]


class TestCliOnlyReadsAndWrites:
    """Every ``cmd_*`` reaches spskit only through ``pipeline`` and these
    readers and writers, so each value it writes is computed there."""

    IO = {"specfit.read_series_csv", "fab.write_bmp", "reproduce.run_all"}

    def test_commands_call_only_pipeline_and_io(self):
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        top = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
        commands = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
        assert {f.name for f in commands} == {f.__name__ for f in cli.COMMANDS.values()}
        reached = []
        for command in commands:
            body = [node for stmt in command.body for node in ast.walk(stmt)]
            # local name -> what it names in spskit; a name of a module has no dot
            names = {alias.asname or alias.name:
                     alias.name if node.module is None else f"{node.module}.{alias.name}"
                     for node in top + body if isinstance(node, ast.ImportFrom)
                     and node.level == 1 for alias in node.names}
            for node in body:
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and "." not in names.get(node.value.id, ".")):
                    reached.append((command.name, f"{names[node.value.id]}.{node.attr}"))
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in names):
                    reached.append((command.name, names[node.func.id]))
        assert reached
        assert [(name, target) for name, target in reached
                if not target.startswith("pipeline.") and target not in self.IO] == []


class TestEveryOptionHasACaller:
    """One rule for each default of a public spskit function or record
    field: some call inside spskit sets it and another relies on it. The
    first makes it an option the CLI or ``reproduce`` can reach; a value
    only tests need is a module constant they patch. The second keeps it
    from copying a value that every caller passes, such as a
    ``config.SCHEMA`` default."""

    # run(), the process entry of python -m spskit.cli and of the spskit
    # script, calls main with no argv, so main reads sys.argv
    ENTRY_POINTS = {"cli.main(argv)"}
    TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(spskit.__file__).parent.glob("*.py"))}
    CALLS = [node for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    # a record is a class that inherits NamedTuple
    RECORDS = {cls.name for tree in TREES.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)
               and any(ast.unparse(b) == "NamedTuple" for b in cls.bases)}

    @classmethod
    def defaults(cls) -> list[tuple]:
        """(module, function or record, parameter or field, index) of each
        default; the index is its position in a call, None for a keyword-only
        parameter."""
        found = []
        for module, tree in cls.TREES.items():
            methods = {id(node) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                       for node in c.body if isinstance(node, ast.FunctionDef)
                       and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in node.decorator_list)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name in cls.RECORDS:
                    annotated = [n for n in node.body if isinstance(n, ast.AnnAssign)]
                    found += [(module, node.name, field.target.id, i)
                              for i, field in enumerate(annotated) if field.value is not None]
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                bound = 1 if id(node) in methods else 0  # self, cls
                first = len(positional) - len(args.defaults)
                found += [(module, node.name, arg.arg, i - bound)
                          for i, arg in enumerate(positional[first:], first)]
                found += [(module, node.name, arg.arg, None)
                          for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
        assert found
        return found

    @classmethod
    def calls(cls, name: str) -> list:
        """The calls inside spskit of a function, method or record ``name``."""
        return [call for call in cls.CALLS
                if (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) == name]

    @staticmethod
    def sets(call, parameter, index) -> bool:
        """Whether ``call`` passes ``parameter``, by keyword or at its
        positional ``index`` (None: keyword only)."""
        if any(k.arg in (parameter, None) for k in call.keywords):  # by keyword, **
            return True
        if index is None:
            return False
        return (any(isinstance(a, ast.Starred) for a in call.args)  # *
                or len(call.args) > index)

    def test_every_defaulted_parameter_is_set_by_a_call(self):
        unset = {f"{module}.{function}({parameter})"
                 for module, function, parameter, index in self.defaults()
                 if function not in self.RECORDS
                 and not any(self.sets(call, parameter, index) for call in self.calls(function))}
        assert sorted(unset) == sorted(self.ENTRY_POINTS)

    def test_every_record_field_with_a_default_is_set_by_a_call(self):
        unset = {f"{module}.{cls}.{field}" for module, cls, field, index in self.defaults()
                 if cls in self.RECORDS
                 and not any(self.sets(call, field, index) for call in self.calls(cls))
                 and not any(self.sets(call, field, None) for call in self.calls("_replace"))}
        assert sorted(unset) == []

    def test_every_default_is_relied_on_by_a_call(self):
        # a call that omits the value; a record's _replace keeps what it holds
        copies = {f"{module}.{name}({parameter})"
                  for module, name, parameter, index in self.defaults()
                  if all(self.sets(call, parameter, index) for call in self.calls(name))}
        assert sorted(copies) == []


class TestEveryGeneratorIsSeeded:
    """spskit's only randomness is ``reproduce``'s counter-based generator,
    started from ``RNG_SEED``: no module reaches ``numpy.random`` or the
    ``random`` module, so no output depends on entropy drawn from the
    operating system or on a numpy release's sampling algorithms."""

    def test_no_module_reaches_a_library_generator(self):
        uses = []
        for path in sorted(Path(spskit.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = ([node.attr] if isinstance(node, ast.Attribute)
                         else [a.name for a in node.names] + [node.module or ""]
                         if isinstance(node, ast.ImportFrom)
                         else [a.name for a in node.names] if isinstance(node, ast.Import)
                         else [])
                if any("random" in name.split(".") for name in names):
                    uses.append(f"{path.name}:{node.lineno}")
        assert uses == []


class TestGlobalOptionsAfterSubcommand:
    def test_readme_fab_example_matches_the_leading_form(self, tmp_path):
        before, after = tmp_path / "before", tmp_path / "after"
        assert main(["--set", "fab.calibration_nm_per_unit=0.5", "--outdir", str(before),
                     "fab"]) == 0
        assert main(["fab", "--set", "fab.calibration_nm_per_unit=0.5",
                     "--outdir", str(after)]) == 0
        names = sorted(p.name for p in before.iterdir())
        assert names == sorted(p.name for p in after.iterdir()) and names
        for name in names:
            assert filecmp.cmp(before / name, after / name, shallow=False), name

    def test_overrides_on_both_sides_all_apply(self, tmp_path):
        assert main(["--set", "fab.calibration_nm_per_unit=0.5", "fab",
                     "--set", "fab.pitch_nm=30.0", "--outdir", str(tmp_path)]) == 0
        sidecar = json.loads((tmp_path / "dose_map.bmp.json").read_text())
        assert sidecar["calibration_nm_per_unit"] == 0.5
        assert sidecar["pitch_nm"] == 30.0

    def test_error_json_and_config_after_subcommand(self, tmp_path, capsys):
        code = main(["mirror", "--config", str(tmp_path / "nope.ini"), "--error-json",
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "not found" in payload["message"]


def _write_fit_inputs(folder: Path) -> None:
    """One small CSV of each series kind, plus an IRF for the decay and a
    hemisphere profile for ``fab --profile``."""
    from spskit.fab import synthetic_hemisphere_profile
    t = np.arange(0.0, 4000.0, 8.0)
    irf = np.exp(-0.5 * ((t - 400.0) / 40.0) ** 2)
    decay = 5000.0 * convolve_decay(t, 600.0, irf) + 1.0
    tau = np.linspace(-20000.0, 20000.0, 801)
    theta = np.linspace(0.0, 360.0, 73)
    x = np.linspace(560.0, 572.0, 301)
    for name, xs, ys, kind in [
            ("decay", t, decay, "decay"), ("irf", t, irf, "decay"),
            ("correlation", tau, 140.0 * g2_model(tau, 0.9, 0.05, 600.0, 5000.0),
             "correlation"),
            ("spectrum", x, lorentzian(x, 566.0, 0.5, 900.0, 10.0), "spectrum"),
            ("polarization", theta, cos2_model(theta, 800.0, 30.0, 40.0), "polarization"),
            ("profile", *synthetic_hemisphere_profile(2.7, 2.4, 101, 0.0).as_arrays(),
             "spectrum")]:
        write_series_csv(folder / f"{name}.csv", MeasurementSeries(tuple(xs), tuple(ys), kind))


def _cli_code(folder: Path, argv: list[str]) -> str:
    """Python code that runs the CLI on argv as ``python -m spskit.cli`` does,
    with the fit inputs written to folder and the outputs put there."""
    _write_fit_inputs(folder)
    argv = [str(folder / a) if a.endswith(".csv") else a for a in argv]
    return ("import runpy\n"
            f"sys.argv = ['spskit', '--outdir', {str(folder)!r}, *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('spskit.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n")


def _modules_after(code: str) -> set[str]:
    """The names in sys.modules of a fresh interpreter after it runs code."""
    script = f"import sys\n{code}\nprint(*sorted(sys.modules))"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, check=False, env=_child_env())
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def _submodules(modules: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("spskit.")}


class TestLazyScipy:
    @pytest.mark.parametrize("argv", [
        None,
        ["mirror"],
        ["fit", "--input", "decay.csv", "--irf", "irf.csv"],
        ["fit", "--input", "correlation.csv"],
        ["fit", "--input", "spectrum.csv", "--scan-range", "3.0"],
        ["fit", "--input", "polarization.csv"],
    ], ids=["import", "cli-mirror", "fit-decay", "fit-correlation", "fit-spectrum",
            "fit-polarization"])
    def test_scipy_optimize_not_loaded(self, tmp_path, argv):
        modules = _modules_after("import spskit\n" if argv is None
                                 else _cli_code(tmp_path, argv))
        assert "scipy" not in modules
        assert "spskit" in modules
        if argv is not None and argv[0] == "fit":
            assert json.loads((tmp_path / "fit_report.json").read_text())["fit"]["converged"]


# numpy names whose float64 work goes to BLAS or LAPACK, whose kernels move
# the last bits of a result with the CPU they are chosen for (ROADMAP item 12)
BLAS_NAMES = {"linalg", "vecdot", "dot", "matmul", "inner", "tensordot", "convolve"}


def test_no_source_calls_blas_or_lapack():
    # any such name read as an attribute (np.dot, x.dot) or imported, an
    # einsum that may hand its work to tensordot, or the @ operator
    found = []
    for path in sorted(Path(spskit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {part for a in node.names for part in a.name.split(".")}
                names |= set((getattr(node, "module", None) or "").split("."))
            else:
                names = set()
            if (names & BLAS_NAMES or isinstance(getattr(node, "op", None), ast.MatMult)
                    or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum"
                        and any(k.arg == "optimize" for k in node.keywords))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_imported_name_is_used():
    # no linter is assumed: a name an import binds (the first part of a
    # dotted "import a.b") is read somewhere else in its module
    unused = []
    for path in sorted(Path(spskit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                unused += [f"{path.name}:{node.lineno} {name}" for name in
                           (alias.asname or alias.name.split(".")[0] for alias in node.names)
                           if name not in read]
    assert unused == []


class TestImportsPerCommand:
    """Which modules a call loads; never how long it takes."""

    def test_import_spskit_loads_no_submodule_and_no_numpy(self):
        modules = _modules_after("import spskit\n")
        assert "numpy" not in modules
        assert _submodules(modules) == set()

    @pytest.mark.parametrize("argv", [["reproduce", "--draws", "1"],
                                      ["fit", "--input", "spectrum.csv"]],
                             ids=["reproduce", "fit-spectrum"])
    def test_numpy_ma_not_loaded(self, tmp_path, argv):
        assert "numpy.ma" not in _modules_after(_cli_code(tmp_path, argv))

    def test_submodules_load_on_first_use(self):
        modules = _modules_after("import spskit\nassert spskit.qkd.sweep and spskit.errors\n")
        assert _submodules(modules) == {"constants", "errors", "qkd", "search"}
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            spskit.nope  # noqa: B018

    def test_every_module_is_reachable_as_an_attribute(self):
        files = {p.stem for p in Path(spskit.__file__).parent.glob("*.py")} - {"__init__"}
        assert set(spskit._SUBMODULES) == files

    @pytest.mark.parametrize("argv, unused", [
        (["mirror"], {"specfit", "g2fit", "lsq", "qkd", "fab", "emitter", "reproduce"}),
        (["fit", "--input", "polarization.csv"],
         {"g2fit", "optics", "qkd", "fab", "emitter", "reproduce", "search"}),
        (["fit", "--input", "decay.csv", "--irf", "irf.csv"],
         {"g2fit", "optics", "qkd", "fab", "emitter", "reproduce", "search"}),
        (["cavity"], {"specfit", "g2fit", "lsq", "qkd", "fab", "emitter", "reproduce"}),
        (["emitter"], {"optics", "specfit", "g2fit", "lsq", "qkd", "fab", "reproduce"}),
        (["qkd"], {"optics", "specfit", "g2fit", "lsq", "fab", "emitter", "reproduce"}),
        (["--set", "fab.calibration_nm_per_unit=0.5", "fab"],
         {"optics", "specfit", "g2fit", "lsq", "qkd", "emitter", "reproduce", "search"}),
        (["fab", "--profile", "profile.csv"],
         {"g2fit", "optics", "qkd", "emitter", "reproduce", "search"}),
        (["provenance"],
         {"optics", "specfit", "g2fit", "lsq", "qkd", "fab", "emitter", "reproduce", "search"}),
        (["reproduce", "--draws", "1"], set()),
    ], ids=["mirror", "fit-polarization", "fit-decay", "cavity", "emitter", "qkd", "fab",
            "fab-profile", "provenance", "reproduce"])
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, unused):
        modules = _modules_after(_cli_code(tmp_path, argv))
        loaded = _submodules(modules)
        assert loaded & unused == set()
        assert loaded
        # only reading an INI file needs configparser
        assert "configparser" not in modules
        # the config digest takes no OpenSSL, and reproduce draws from its
        # own generator: no numpy.random, whose use of secrets loads it
        assert "_hashlib" not in modules
        assert "numpy.random" not in modules
        # every record is a NamedTuple
        assert "dataclasses" not in modules

    @pytest.mark.parametrize("argv, g2fit", [
        (["fit", "--input", "spectrum.csv", "--scan-range", "3.0"], False),
        (["fit", "--input", "decay.csv", "--irf", "irf.csv"], False),
        (["fit", "--input", "polarization.csv"], False),
        (["fit", "--input", "correlation.csv", "--snr", "9"], True),
    ], ids=["spectrum", "decay", "polarization", "correlation"])
    def test_fit_builds_no_dataclass_and_only_a_correlation_loads_g2fit(self, tmp_path, argv,
                                                                        g2fit):
        modules = _modules_after(_cli_code(tmp_path, argv))
        assert "dataclasses" not in modules
        assert ("spskit.g2fit" in modules) == g2fit
        assert "_hashlib" not in modules

    def test_ini_config_loads_configparser(self, tmp_path):
        ini = tmp_path / "scenario.ini"
        ini.write_text("[mirror]\npairs = 8\n", encoding="utf-8")
        assert "configparser" in _modules_after(
            _cli_code(tmp_path, ["--config", str(ini), "mirror"]))

    def test_reproduce_loads_every_module(self, tmp_path):
        loaded = _submodules(_modules_after(_cli_code(tmp_path, ["reproduce", "--draws", "2"])))
        # cli itself runs as __main__
        assert loaded == set(spskit._SUBMODULES) - {"cli"}


class TestProcessEntry:
    """``cli.run``, the entry of a ``python -m spskit.cli`` process and of the
    ``spskit`` script, freezes the objects left when ``main`` returns; an
    in-process ``main`` does not."""

    @pytest.mark.parametrize("argv", [["mirror"], ["--set", "cavity.wavelength_nm=-1", "cavity"]],
                             ids=["success", "validation-error"])
    def test_only_the_process_entry_freezes(self, tmp_path, argv):
        status = main(["--outdir", str(tmp_path / "in-process"), *argv])
        assert gc.get_freeze_count() == 0
        script = ("import gc, runpy, sys\n"
                  f"sys.argv = ['spskit', '--outdir', {str(tmp_path / 'child')!r}, *{argv!r}]\n"
                  "try:\n"
                  "    runpy.run_module('spskit.cli', run_name='__main__')\n"
                  "except SystemExit as exc:\n"
                  "    print(exc.code, gc.get_freeze_count())\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, check=False, env=_child_env())
        assert result.returncode == 0, result.stderr
        code, frozen = map(int, result.stdout.split()[-2:])
        assert code == status
        assert frozen > 0

    @pytest.mark.parametrize("argv", [
        ["mirror"], ["cavity"], ["emitter"], ["qkd"], ["provenance"],
        ["--set", "fab.calibration_nm_per_unit=0.5", "fab"],
        ["fab", "--profile", "profile.csv"],
        ["fit", "--input", "decay.csv", "--irf", "irf.csv"],
        ["fit", "--input", "correlation.csv", "--snr", "9"],
        ["fit", "--input", "spectrum.csv", "--scan-range", "3.0"],
        ["fit", "--input", "polarization.csv"],
        ["fit", "--input", "bad.csv"],
        ["--config", "scenario.ini", "reproduce", "--draws", "2"],
    ], ids=["mirror", "cavity", "emitter", "qkd", "provenance", "fab", "fab-profile",
            "fit-decay", "fit-correlation", "fit-spectrum", "fit-polarization",
            "fit-bad-row", "reproduce-ini"])
    def test_main_leaves_no_file_for_a_finalizer(self, tmp_path, argv):
        # the exit freeze would keep an unclosed file from ever being finalized
        _write_fit_inputs(tmp_path)
        (tmp_path / "bad.csv").write_text("# kind=spectrum\nx,y\n560,10\n561,abc\n")
        (tmp_path / "scenario.ini").write_text("[mirror]\npairs = 8\n", encoding="utf-8")
        argv = [str(tmp_path / a) if a.endswith((".csv", ".ini")) else a for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(["--outdir", str(tmp_path / "out"), *argv])
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_the_installed_script_is_the_main_block_entry(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        script = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        block = next(node for node in tree.body if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "__name__ == '__main__'")
        exits = [node for node in ast.walk(block) if isinstance(node, ast.Call)
                 and ast.unparse(node.func) == "sys.exit"]
        assert len(exits) == 1 and isinstance(exits[0].args[0], ast.Call)
        entry = exits[0].args[0].func.id
        assert script["project"]["scripts"]["spskit"] == f"spskit.cli:{entry}"


class TestTracedNames:
    def test_every_traced_name_exists(self):
        # the benchmark's traced pass patches these by attribute; read them
        # from its own file, which imports only the standard library
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        names = [(module, attr) for module, attr, _ in [*tracing.SPANS, *tracing.COUNTED]]
        assert names
        missing = [f"{module}.{attr}" for module, attr in names
                   if not callable(getattr(importlib.import_module(f"spskit.{module}"), attr,
                                           None))]
        assert missing == []


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310,
                  2.2250738585072014e-308, 1e300, -1e300, 1.0, 123456789012.5]


class TestCsvWriter:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                           min_size=1, max_size=64),
           n_rows=st.sampled_from([0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                   CSV_BLOCK_ROWS + 1]),
           n_cols=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    @example(values=SPECIAL_FLOATS, n_rows=CSV_BLOCK_ROWS + 1, n_cols=3, seed=0)
    def test_every_cell_is_its_own_format(self, tmp_path, values, n_rows, n_cols, seed):
        rows = np.random.default_rng(seed).choice(np.array(values), size=(n_rows, n_cols))
        path = tmp_path / "table.csv"
        columns = [f"c{i}" for i in range(n_cols)]
        cli.write_csv(path, default_scenario(), columns, rows)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0].startswith("# spskit ")
        assert lines[1] == ",".join(columns) + "\n"
        assert lines[2:] == [",".join(f"{v:.10g}" for v in row) + "\n"
                             for row in rows.tolist()]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                           min_size=1, max_size=64),
           shape=st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 2)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_grid_is_written_as_its_rows(self, tmp_path, values, shape, seed):
        nx, ny, n_cols = shape
        rng = np.random.default_rng(seed)
        xs, ys = (rng.choice(np.array(values), size=n) for n in (nx, ny))
        rows = rng.choice(np.array(values), size=(nx * ny, n_cols))
        x_col, y_col = np.meshgrid(xs, ys, indexing="ij")
        columns = [f"c{i}" for i in range(n_cols + 2)]
        cli.write_csv(tmp_path / "rows.csv", default_scenario(), columns,
                      np.column_stack([x_col.ravel(), y_col.ravel(), rows]))
        cli.write_csv(tmp_path / "grid.csv", default_scenario(), columns, rows, axes=(xs, ys))
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


NUMERICAL_ERRORS = [("specfit", "FitError"), ("qkd", "NoCrossingError"),
                    ("qkd", "NoPositiveRateError"), ("optics", "ResonanceSearchError")]
VALIDATION_ERRORS = [("config", "ConfigError"), ("optics", "OpticsError"),
                     ("cavitymode", "CavityError"), ("emitter", "PhotophysicsError"),
                     ("specfit", "SeriesError"), ("qkd", "QkdError"), ("fab", "FabError")]


class TestExitCodes:
    @pytest.mark.parametrize("error_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("module, name, code", [
        *(pytest.param(module, name, 2, id=name) for module, name in NUMERICAL_ERRORS),
        *(pytest.param(module, name, 1, id=name) for module, name in VALIDATION_ERRORS),
    ])
    def test_error_class_sets_the_exit_code(self, tmp_path, capsys, monkeypatch,
                                            module, name, code, error_json):
        error = getattr(importlib.import_module(f"spskit.{module}"), name)

        def fail(args, scenario):
            raise error("injected failure")

        monkeypatch.setitem(cli.COMMANDS, "mirror", fail)
        argv = ["--outdir", str(tmp_path), "mirror", *(["--error-json"] if error_json else [])]
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        if error_json:
            assert json.loads(out) == {"error": name, "message": "injected failure",
                                       "exit_code": code}
        else:
            assert (out, err) == ("", "error: injected failure\n")


KEYS = [f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys]


def _workloads(monkeypatch):
    """The benchmark's workload module, read from its file, not edited."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestSchema:
    @pytest.mark.parametrize("key", KEYS)
    def test_every_key_states_its_domain(self, key):
        section, name = key.split(".")
        setting = SCHEMA[section][name]
        if setting.kind is str:
            assert isinstance(setting.domain, tuple) and setting.domain
            assert all(isinstance(choice, str) for choice in setting.domain)
        else:
            domain = setting.domain
            assert domain[0] in "[(" and domain[-1] in "])", domain
            low, high = (float(end) for end in domain[1:-1].split(","))
            assert math.isfinite(low) and math.isfinite(high) and low < high, domain

    def test_every_key_is_read_outside_config(self):
        # a key is read by its name as a string constant, cfg["n_high"] or
        # scenario.require("fab", "calibration_nm_per_unit"); one that no
        # other module names is a key that no model reads
        named = set()
        for path in Path(spskit.__file__).parent.glob("*.py"):
            if path.name != "config.py":
                named |= {node.value for node in ast.walk(ast.parse(path.read_text("utf-8")))
                          if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert [key for key in KEYS if key.split(".")[1] not in named] == []

    def test_defaults_and_benchmark_values_lie_in_their_domains(self, monkeypatch):
        workloads = _workloads(monkeypatch)
        sets = [f"{section}.{key}={setting.default}" for section, keys in SCHEMA.items()
                for key, setting in keys.items() if setting.default is not None]
        sets += [f"{key}={value}" for space in workloads.DESIGN_VARIANTS.values()
                 for key, values in space.items() for value in values]
        sets += [item for items in workloads.FIXED_SETS.values() for item in items]
        for item in sets:
            apply_overrides(default_scenario(), [item])


def _assert_rejected_at_load(argv, capsys, key: str) -> None:
    """Exit 1 in both error modes with a message that starts with
    ``[section] key``, no RuntimeWarning, and no output written."""
    section, name = key.split(".")
    outdir = Path(argv[argv.index("--outdir") + 1])
    for mode in ([], ["--error-json"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*mode, *argv]) == 1
        out, err = capsys.readouterr()
        message = json.loads(out)["message"] if mode else err.removeprefix("error: ")
        assert message.startswith(f"[{section}] {name}"), message
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not outdir.exists()


class TestBoundsAtLoad:
    # each of these exited 0, or exited 1 with a message naming no key,
    # while the bounds were checked only where a key was read
    @pytest.mark.parametrize("setting, command", [
        ("qkd.attenuation_db_per_km=nan", ["qkd"]),
        ("qkd.mu_fixed=nan", ["qkd"]),
        ("cavity.radius_of_curvature_um=nan", ["cavity"]),
        ("emitter.map_rate_min_hz=nan", ["emitter"]),
        ("emitter.free_lifetime_ps=-5", ["mirror"]),
        ("fab.pitch_nm=nan", ["--set", "fab.calibration_nm_per_unit=0.5", "fab"]),
        ("emitter.cavity_fwhm_nm=inf", ["emitter"]),
        ("fab.edge_exclusion_fraction=nan", ["fab", "--profile", "profile.csv"]),
        ("mirror.n_high=1e300", ["mirror"]),
    ])
    def test_unchecked_inputs_are_rejected(self, tmp_path, capsys, setting, command):
        _write_fit_inputs(tmp_path)
        command = [str(tmp_path / a) if a.endswith(".csv") else a for a in command]
        _assert_rejected_at_load(["--outdir", str(tmp_path / "out"), "--set", setting,
                                  *command], capsys, setting.split("=")[0])

    @pytest.mark.parametrize("key", KEYS)
    def test_non_finite_and_huge_values_are_rejected(self, tmp_path, capsys, key):
        for value in ("nan", "inf", "-inf", "1e300"):
            _assert_rejected_at_load(["--outdir", str(tmp_path / "out"), "--set",
                                      f"{key}={value}", "mirror"], capsys, key)

    # what an interval cannot express stays with the models
    @pytest.mark.parametrize("sets, command, match", [
        (["mirror.n_high=1.5"], "mirror", "need n_high > n_low"),
        (["fab.calibration_nm_per_unit=0.5", "fab.aperture_um=6"], "fab",
         "exceeds sphere diameter"),
        (["cavity.longitudinal_order=10"], "cavity", "unstable geometry"),
        (["qkd.sweep_start_km=50", "qkd.sweep_stop_km=10"], "qkd",
         "[qkd] sweep_stop_km must not be below sweep_start_km, got 10 < 50"),
        (["mirror.wl_min_nm=800"], "mirror",
         "[mirror] wl_max_nm must not be below wl_min_nm, got 760 < 800"),
    ], ids=["n_high-below-n_low", "aperture-above-diameter", "unstable-order",
            "sweep-stop-below-start", "wl-max-below-wl-min"])
    def test_cross_key_checks(self, tmp_path, capsys, sets, command, match):
        argv = [arg for item in sets for arg in ("--set", item)]
        _assert_validation_error(["--outdir", str(tmp_path), *argv, command], capsys, match)


# the subcommands that read each section's keys
READERS = {
    "mirror": [["mirror"], ["cavity"]],
    "cavity": [["cavity"], ["emitter"]],
    "emitter": [["emitter"], ["--set", "qkd.channel=freespace", "qkd"]],
    "qkd": [["qkd"], ["--set", "qkd.channel=freespace", "qkd"],
            ["--set", "qkd.channel=freespace", "--set", "qkd.divergence_model=calibrated",
             "qkd"]],
    "fit": [["fit", "--input", "spectrum.csv"]],
    "fab": [["--set", "fab.calibration_nm_per_unit=0.5", "fab"],
            ["fab", "--profile", "profile.csv"]],
}
FUZZ_STRINGS = sorted({choice for keys in SCHEMA.values() for s in keys.values()
                       if s.kind is str for choice in s.domain} | {"", "abc", "true"})


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    _write_fit_inputs(folder)
    return folder


class TestSetFuzz:
    @pytest.mark.parametrize("key", KEYS)
    @settings(max_examples=4, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=st.one_of(st.sampled_from(SPECIAL_FLOATS), st.integers(-2, 60),
                           st.sampled_from(FUZZ_STRINGS)),
           error_json=st.booleans())
    # the edges of every domain that starts at zero, whether open or closed
    @example(value=5e-324, error_json=False)
    @example(value=-0.0, error_json=True)
    def test_every_value_exits_cleanly(self, fuzz_inputs, capsys, key, value, error_json):
        setting = f"{key}={value}"
        try:
            apply_overrides(default_scenario(), [setting])
        except ConfigError:
            _assert_rejected_at_load(["--outdir", str(fuzz_inputs / "rejected"), "--set",
                                      setting, "mirror"], capsys, key)
            return
        for reader in READERS[key.split(".")[0]]:
            reader = [str(fuzz_inputs / a) if a.endswith(".csv") else a for a in reader]
            argv = [*(["--error-json"] if error_json else []),
                    "--outdir", str(fuzz_inputs / "out"), *reader, "--set", setting]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), argv
            assert "Traceback" not in out + err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
