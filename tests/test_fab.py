import json
import math
import struct
import subprocess
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spskit import reproduce, specfit
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


def exact_circle(x: np.ndarray, z: np.ndarray) -> tuple:
    """(x0, z0, R^2) of the least-squares solution of [2x, 2z, 1] (x0, z0, c)
    = x^2 + z^2, R^2 = c + x0^2 + z0^2, in rational arithmetic: Gaussian
    elimination on the normal equations."""
    xs, zs = ([Fraction(t) for t in a.tolist()] for a in (x, z))
    cols = [[2 * t for t in xs], [2 * t for t in zs], [Fraction(1)] * len(xs)]
    y = [a * a + b * b for a, b in zip(xs, zs)]
    m = [[sum(map(mul, ci, cj)) for cj in cols] + [sum(map(mul, ci, y))] for ci in cols]
    for i in range(3):
        for j in range(i + 1, 3):
            m[j] = [a - m[j][i] / m[i][i] * b for a, b in zip(m[j], m[i])]
    coef = [Fraction(0)] * 3
    for i in reversed(range(3)):
        coef[i] = (m[i][3] - sum(m[i][k] * coef[k] for k in range(i + 1, 3))) / m[i][i]
    x0, z0, c = coef
    return x0, z0, c + x0 * x0 + z0 * z0


def exact_sqrt(value: Fraction) -> Fraction:
    """sqrt(value) to within 2^-100."""
    return Fraction(math.isqrt(math.floor(value * 4 ** 100)), 2 ** 100)


class TestProfileFit:
    def test_noiseless_identity(self):
        profile = synthetic_hemisphere_profile(2.7, 2.4, 201, 0.0)
        fit = fit_hemisphere_profile(profile, edge_exclusion_fraction=0.10)
        assert {type(value) for value in fit.values()} <= {float, int, bool}
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
                assert report[key] == pytest.approx(value, rel=1e-12, abs=0), key
            else:
                assert report[key] == value, key

    @pytest.mark.parametrize("radius_um, n_points, noise", [
        (2.7, 301, "check_fab"), (2.7, 201, "none"), (2.7, 301, "golden"),
        (50.0, 301, "check_fab")])
    def test_fit_is_the_exact_solution_to_rounding(self, radius_um, n_points, noise):
        # check_fab's profile, a noiseless arc, the rough profile of
        # golden_optics.json and a shallow arc, within the points the 10 %
        # edge exclusion keeps: x0 within 1e-13 max(|x0|, 1 nm), z0 and R
        # within 1e-15 relative (measured worst 4.9e-15, 2.2e-16, 2.3e-16)
        w = 0.5 * math.sqrt(3.0)  # check_fab's 0.5 nm rms of uniform roughness
        roughness = {"check_fab": reproduce._ranged(reproduce.MAX_DRAWS, 0, -w, w, n_points),
                     "none": 0.0,
                     "golden": np.random.default_rng(20261018).normal(0.0, 0.5, n_points)}
        x_um, z = synthetic_hemisphere_profile(radius_um, 2.4, n_points,
                                               roughness[noise]).as_arrays()
        kept = slice(n_points // 10, n_points - n_points // 10)
        fit = fit_hemisphere_profile(specfit.MeasurementSeries(x_um[kept], z[kept]),
                                     edge_exclusion_fraction=0.0)
        x0, z0, r_sq = exact_circle(x_um[kept] * 1e3, z[kept])
        r = exact_sqrt(r_sq)
        assert abs(Fraction(fit["center_offset_um"]) * 1000 - x0) <= 1e-13 * max(abs(x0), 1)
        assert abs(Fraction(fit["center_height_nm"]) - z0) <= 1e-15 * abs(z0)
        assert abs(Fraction(fit["radius_um"]) * 1000 - r) <= 1e-15 * r

    @settings(max_examples=60, deadline=None)
    @given(radius_um=st.floats(1.0, 100.0), share=st.floats(0.05, 0.95),
           n_points=st.integers(10, 400), offset_um=st.floats(-1.0, 1.0),
           height_nm=st.floats(-1e3, 1e3), noise_nm=st.floats(0.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fit_is_lstsq_of_the_kasa_columns(self, radius_um, share, n_points, offset_um,
                                              height_nm, noise_nm, seed):
        # an arc across ``share`` of the diameter: x0, z0 and R within
        # 1e-13 cond(A) of the largest of them, A = [2x, 2z, 1] (measured
        # worst 3.7e-15 cond over 3,000 arcs)
        noise = np.random.default_rng(seed).normal(0.0, noise_nm, n_points)
        x_um, z = synthetic_hemisphere_profile(radius_um, share * 2.0 * radius_um, n_points,
                                               height_nm + noise).as_arrays()
        x_um = x_um + offset_um
        fit = fit_hemisphere_profile(specfit.MeasurementSeries(x_um, z),
                                     edge_exclusion_fraction=0.0)
        x = x_um * 1e3
        (x0, z0, c), _, _, sv = np.linalg.lstsq(np.stack([2.0 * x, 2.0 * z, np.ones_like(x)], 1),
                                                x * x + z * z, rcond=None)
        ref = (x0, z0, math.sqrt(c + x0 * x0 + z0 * z0))
        got = (fit["center_offset_um"] * 1e3, fit["center_height_nm"], fit["radius_um"] * 1e3)
        tolerance = 1e-13 * sv[0] / sv[-1] * max(map(abs, ref))
        for one, other in zip(got, ref):
            assert abs(one - other) <= tolerance

    @settings(max_examples=60, deadline=None)
    @given(n_points=st.integers(10, 300), angle=st.floats(1e-3, 1.5),
           log_share=st.floats(-6.0, 3.0), offset_um=st.floats(-5.0, 5.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n_points=10, angle=0.3, log_share=0.0, offset_um=0.0, seed=1)
    def test_nearly_collinear_points_are_rejected_by_the_stated_rule(
            self, n_points, angle, log_share, offset_um, seed):
        # points off a line at ``angle`` to x by 10^log_share of eps N in sin^2
        # of the angle between the centred u and v. The fit raises exactly
        # where det <= eps N sum(uu) sum(vv) holds of the correctly rounded
        # sums, and agrees with that rule in exact arithmetic a factor of 2
        # from the threshold: the rounding of the sums moves det by a few
        # eps sum(uu) sum(vv), a few N-th of it
        eps = np.finfo(float).eps
        t = np.linspace(-2e3, 2e3, n_points)
        w = np.random.default_rng(seed).normal(size=n_points)
        w -= w.mean()
        w -= (w @ t) / (t @ t) * t
        # det is (t.t) off^2 (w.w) at every angle, sum(uu) sum(vv) about
        # (t.t)^2 cos^2 sin^2
        off = math.sqrt(10.0 ** log_share * eps * n_points * (t @ t) / (w @ w)) * abs(
            math.sin(angle) * math.cos(angle))
        x_nm = t * math.cos(angle) - off * w * math.sin(angle)
        z = t * math.sin(angle) + off * w * math.cos(angle)
        x_um = x_nm / 1e3 + offset_um
        try:
            fit_hemisphere_profile(specfit.MeasurementSeries(x_um, z), edge_exclusion_fraction=0.0)
            raised = False
        except FabError as err:
            assert "collinear" in str(err)
            raised = True
        x = x_um * 1e3
        u, v = x - math.fsum(x.tolist()) / n_points, z - math.fsum(z.tolist()) / n_points
        suu, svv, suv = (math.fsum(p.tolist()) for p in (u * u, v * v, u * v))
        assert raised == (not suu * svv - suv * suv > eps * n_points * suu * svv)
        xs, zs = ([Fraction(a) for a in b.tolist()] for b in (x, z))
        x_mean, z_mean = sum(xs) / n_points, sum(zs) / n_points
        us, vs = [a - x_mean for a in xs], [b - z_mean for b in zs]
        suu, svv, suv = (sum(map(mul, a, b)) for a, b in ((us, us), (vs, vs), (us, vs)))
        share = (suu * svv - suv * suv) / (suu * svv) / (Fraction(eps) * n_points)
        if share <= 0.5 or share >= 2.0:
            assert raised == (share <= 0.5)

    def test_fits_have_the_same_bits_with_avx512_loops_off(self):
        # check_fab's profile and the rough profile of golden_optics.json,
        # each fitted in a child with numpy's AVX-512 loops on and off
        from test_config_cli import _child_env
        code = ("import hashlib, math\n"
                "import numpy as np\n"
                "from spskit import fab, reproduce\n"
                "h = 0.5 * math.sqrt(3.0)\n"
                "fits = [fab.fit_hemisphere_profile(fab.synthetic_hemisphere_profile(\n"
                "    2.7, 2.4, 301, noise), edge_exclusion_fraction=0.1) for noise in (\n"
                "    reproduce._ranged(reproduce.MAX_DRAWS, 0, -h, h, 301),\n"
                "    np.random.default_rng(20261018).normal(0.0, 0.5, 301))]\n"
                "print(hashlib.sha256(repr(fits).encode()).hexdigest())\n")
        digests = set()
        for features in (None, "X86_V4 AVX512_ICL AVX512_SPR"):
            env = _child_env()
            env.pop("NPY_DISABLE_CPU_FEATURES", None)
            if features is not None:
                env["NPY_DISABLE_CPU_FEATURES"] = features
            digests.add(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                       text=True, check=True, env=env).stdout)
        assert len(digests) == 1 and len(digests.pop()) == 65
