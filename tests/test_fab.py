import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from spskit import specfit
from spskit.cli import main
from spskit.fab import (
    FabError,
    encode_depth_units,
    fit_hemisphere_profile,
    hemisphere_depth_nm,
    hemisphere_dose_map,
    synthetic_hemisphere_profile,
    write_bmp,
)


def read_bmp(path) -> np.ndarray:
    """Read back a 24-bit BMP written by ``write_bmp`` as (h, w, 3) RGB."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, _size, _r1, _r2, offset = struct.unpack_from("<2sIHHI", data, 0)
    assert magic == b"BM"
    hdr_size, w, h, _planes, bpp = struct.unpack_from("<IiiHH", data, 14)[:5]
    assert bpp == 24 and hdr_size == 40
    row_bytes = w * 3
    pad = (4 - row_bytes % 4) % 4
    rows = []
    pos = offset
    for _ in range(abs(h)):
        row = np.frombuffer(data, dtype=np.uint8, count=row_bytes, offset=pos).reshape(w, 3)
        rows.append(row[:, ::-1])  # BGR -> RGB
        pos += row_bytes + pad
    return np.stack(rows[::-1] if h > 0 else rows)


class TestDepthProfile:
    def test_center_depth_exact(self):
        # d(0) = R - sqrt(R^2 - (a/2)^2) = 2700 - 1350 sqrt(3)
        depth = hemisphere_depth_nm(np.array([0.0]), 2700.0, 2700.0)[0]
        assert depth == pytest.approx(2700.0 - 1350.0 * math.sqrt(3.0), abs=1e-9)
        assert depth == pytest.approx(361.73, abs=0.01)

    def test_zero_at_rim_and_outside(self):
        depth = hemisphere_depth_nm(np.array([1350.0, 1500.0]), 2700.0, 2700.0)
        assert depth[0] == pytest.approx(0.0, abs=1e-9)
        assert depth[1] == 0.0

    def test_monotone_in_radius(self):
        r = np.linspace(0.0, 1350.0, 200)
        depth = hemisphere_depth_nm(r, 2700.0, 2700.0)
        assert np.all(np.diff(depth) <= 1e-12)

    def test_flat_limit(self):
        # huge radius of curvature means a flat surface
        depth = hemisphere_depth_nm(np.linspace(0, 1350, 50), 1e9, 2700.0)
        assert np.max(depth) < 1e-3


class TestEncoding:
    @pytest.mark.parametrize("units,rgb", [
        (0, (0, 0, 0)),
        (200, (0, 0, 200)),
        (255, (0, 0, 255)),
        (300, (0, 45, 255)),
        (510, (0, 255, 255)),
        (600, (90, 255, 255)),
        (765, (255, 255, 255)),
    ])
    def test_overflow_order_blue_green_red(self, units, rgb):
        encoded = encode_depth_units(np.array([units]))
        assert tuple(encoded[0]) == rgb

    def test_out_of_range_rejected(self):
        with pytest.raises(FabError):
            encode_depth_units(np.array([766]))


class TestDoseMap:
    def test_round_trip_within_one_quantum(self):
        calibration = 0.5
        dose = hemisphere_dose_map(2.7, 2.7, 20.0, calibration)
        coords = (np.arange(dose.width) - dose.width // 2) * dose.pitch_nm
        xx, yy = np.meshgrid(coords, coords)
        target = hemisphere_depth_nm(np.hypot(xx, yy), 2700.0, 2700.0)
        assert np.max(np.abs(dose.depth_nm() - target)) <= calibration / 2 + 1e-12

    def test_radially_symmetric(self):
        dose = hemisphere_dose_map(2.7, 2.7, 20.0, 0.5)
        px = dose.pixels
        assert np.array_equal(px, np.rot90(px))
        assert np.array_equal(px, px.transpose(1, 0, 2))

    def test_dose_maximal_at_center(self):
        dose = hemisphere_dose_map(2.7, 2.7, 20.0, 0.5)
        depth = dose.depth_nm()
        cy, cx = depth.shape[0] // 2, depth.shape[1] // 2
        assert depth[cy, cx] == depth.max()

    def test_flat_limit_is_zero_map(self):
        dose = hemisphere_dose_map(5e4, 2.7, 20.0, 0.5)
        assert dose.depth_nm().max() == 0.0

    def test_aperture_larger_than_sphere_rejected(self):
        with pytest.raises(FabError, match="exceeds"):
            hemisphere_dose_map(1.0, 2.7, 20.0, 0.5)

    def test_coarse_pitch_rejected(self):
        with pytest.raises(FabError, match="px"):
            hemisphere_dose_map(2.7, 2.7, 100.0, 0.5)

    def test_depth_overflow_names_required_calibration(self):
        with pytest.raises(FabError, match="calibration must be >="):
            hemisphere_dose_map(2.7, 2.7, 20.0, 0.1)


class TestBmp:
    def test_write_read_round_trip(self, tmp_path):
        dose = hemisphere_dose_map(2.7, 2.7, 25.0, 0.5)
        path = tmp_path / "map.bmp"
        write_bmp(path, dose, {})
        back = read_bmp(path)
        assert np.array_equal(back, dose.pixels)

    def test_header_and_sidecar(self, tmp_path):
        dose = hemisphere_dose_map(2.7, 2.7, 25.0, 0.5)
        path = tmp_path / "map.bmp"
        write_bmp(path, dose, {})
        raw = path.read_bytes()
        assert raw[:2] == b"BM"
        assert len(raw) == int.from_bytes(raw[2:6], "little")
        sidecar = (tmp_path / "map.bmp.json").read_text()
        assert "calibration_nm_per_unit" in sidecar
        assert "blue,green,red" in sidecar


class TestProfileFit:
    def test_noiseless_identity(self):
        profile = synthetic_hemisphere_profile(2.7, 2.4, 201, 0.0)
        fit = fit_hemisphere_profile(profile, edge_exclusion_fraction=0.10)
        assert fit["radius_um"] == pytest.approx(2.7, rel=1e-6)
        assert fit["center_offset_um"] == pytest.approx(0.0, abs=1e-6)
        assert fit["rms_nm"] == pytest.approx(0.0, abs=1e-6)

    def test_offset_recovered(self):
        x_um, z_nm = synthetic_hemisphere_profile(2.7, 2.4, 201, 0.0).as_arrays()
        fit = fit_hemisphere_profile(specfit.MeasurementSeries(x_um + 0.35, z_nm),
                                     edge_exclusion_fraction=0.10)
        assert fit["center_offset_um"] == pytest.approx(0.35, abs=1e-6)

    def test_rough_surface_statistics(self):
        rng = np.random.default_rng(123)
        profile = synthetic_hemisphere_profile(2.7, 2.4, 301, rng.normal(0.0, 0.5, 301))
        fit = fit_hemisphere_profile(profile, edge_exclusion_fraction=0.10)
        assert fit["radius_um"] == pytest.approx(2.7, rel=0.01)
        assert fit["rms_nm"] == pytest.approx(0.5, abs=0.15)
        assert fit["rms_nm"] < 1.0  # classifies as ideal

    def test_collinear_points_rejected(self):
        profile = specfit.MeasurementSeries(np.linspace(-1.0, 1.0, 20), np.zeros(20))
        with pytest.raises(FabError, match="degenerate|collinear"):
            fit_hemisphere_profile(profile, edge_exclusion_fraction=0.10)

    def test_too_few_points_rejected(self):
        profile = synthetic_hemisphere_profile(2.7, 2.4, 8, 0.0)
        with pytest.raises(FabError, match="10"):
            fit_hemisphere_profile(profile, edge_exclusion_fraction=0.10)

    def test_csv_round_trip(self, tmp_path):
        profile = synthetic_hemisphere_profile(2.7, 2.4, 51, 0.0)
        path = tmp_path / "profile.csv"
        with open(path, "w") as fh:
            fh.write("x_um,z_nm\n")
            for x, z in zip(profile.x.tolist(), profile.y.tolist()):
                fh.write(f"{x!r},{z!r}\n")
        back = specfit.read_series_csv(path)
        assert np.allclose(back.x, profile.x)
        assert np.allclose(back.y, profile.y)

    def test_cli_fit_of_rough_profile_matches_golden(self, tmp_path):
        # recorded from the CSV reader and fitter that profiles had before
        # they became measurement series
        gold = json.loads((Path(__file__).parent / "golden_optics.json").read_text())
        profile = synthetic_hemisphere_profile(
            2.7, 2.4, 301, np.random.default_rng(20261018).normal(0.0, 0.5, 301))
        path = tmp_path / "profile.csv"
        path.write_text("x_um,z_nm\n" + "".join(
            f"{x!r},{z!r}\n" for x, z in zip(profile.x.tolist(), profile.y.tolist())))
        assert main(["--outdir", str(tmp_path), "fab", "--profile", str(path)]) == 0
        report = json.loads((tmp_path / "hemisphere_fit.json").read_text())
        for key, value in gold["hemisphere_fit"].items():
            if isinstance(value, float):
                assert report[key] == pytest.approx(value, rel=1e-12), key
            else:
                assert report[key] == value, key
