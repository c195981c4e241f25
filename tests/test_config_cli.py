import json

import numpy as np
import pytest

from spskit.cli import main
from spskit.config import (
    ConfigError,
    apply_overrides,
    default_scenario,
    load_scenario,
    provenance_table,
)
from spskit.specfit import MeasurementSeries, lorentzian, write_series_csv


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

    def test_json_alternative(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"emitter": {"free_lifetime_ps": 900.0}}))
        scenario = load_scenario(path)
        assert scenario["emitter"]["free_lifetime_ps"] == 900.0

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
        assert payload["message"].startswith("wavelength must be positive and finite")

    def test_cavity_outputs(self, tmp_path):
        code = main(["--outdir", str(tmp_path), "cavity"])
        assert code == 0
        report = json.loads((tmp_path / "cavity_report.json").read_text())
        assert report["resonance"]["quality_factor"] == pytest.approx(3345, rel=0.1)
        assert report["penetration_depth_nm"] == pytest.approx(140.3, abs=1.0)
        assert report["antinode_count"] == 8
        assert (tmp_path / "cavity_spectrum.csv").exists()
        assert (tmp_path / "cavity_field.csv").exists()

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

    def test_fit_decay_requires_irf(self, tmp_path):
        t = np.arange(0.0, 4000.0, 8.0)
        y = 900 * np.exp(-t / 500.0) + 1
        csv = tmp_path / "decay.csv"
        write_series_csv(csv, MeasurementSeries(tuple(t), tuple(y), "decay"),
                         "time_ps", "counts")
        assert main(["--outdir", str(tmp_path), "fit", "--input", str(csv)]) == 1

    def test_qkd_sweep_row_count(self, tmp_path):
        code = main(["--outdir", str(tmp_path), "qkd", "--sweep", "0:100:0.5"])
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
        profile = synthetic_hemisphere_profile(2.7, 2.4, 101)
        csv = tmp_path / "profile.csv"
        with open(csv, "w") as fh:
            fh.write("x_um,z_nm\n")
            for x, z in zip(profile.x_um, profile.z_nm):
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
