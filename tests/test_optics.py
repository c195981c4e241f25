import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spskit.optics import (
    LayerStack,
    OpticsError,
    ResonanceSearchError,
    analytic_stopband_fractional_width,
    calibrated_lossy_stack,
    cavity_spectrum,
    intracavity_field,
    make_quarter_wave_stack,
    peak_intracavity_intensity,
    penetration_depth,
    quarter_wave_peak_reflectance,
    reflectance,
    reflectance_at,
    resonant_gap,
    stopband,
    transmittance,
    transmittance_at,
)
from spskit.cli import main

N_H, N_L, N_SUB = 2.135, 1.521, 1.5255
LAM0 = 565.0


def admittance_oracle(layer_indices, n_substrate, n_ambient=1.0):
    """Independent closed form: each quarter-wave layer maps Y -> n^2/Y,
    applied from the substrate outwards."""
    y = n_substrate
    for n in reversed(layer_indices):
        y = n * n / y
    return ((n_ambient - y) / (n_ambient + y)) ** 2


@pytest.fixture(scope="module")
def high_terminated():
    return make_quarter_wave_stack(N_H, N_L, 9, LAM0, "high", substrate_index=N_SUB)


@pytest.fixture(scope="module")
def low_terminated():
    return make_quarter_wave_stack(N_H, N_L, 9, LAM0, "low", substrate_index=N_SUB)


class TestQuarterWaveStack:
    def test_layer_thicknesses(self, low_terminated):
        # lam0/(4 n): 565/(4*2.135) and 565/(4*1.521)
        thick = {round(n.real, 3): d for n, d in low_terminated.layers}
        assert thick[2.135] == pytest.approx(66.16, abs=0.01)
        assert thick[1.521] == pytest.approx(92.87, abs=0.01)

    def test_layer_count_and_order(self, high_terminated, low_terminated):
        assert len(high_terminated.layers) == 18
        assert high_terminated.layers[0][0].real == N_H
        assert low_terminated.layers[0][0].real == N_L

    def test_minimal_pair_count(self):
        stack = make_quarter_wave_stack(N_H, N_L, 1, LAM0)
        assert len(stack.layers) == 2

    def test_degenerate_contrast_rejected(self):
        with pytest.raises(OpticsError, match="n_high > n_low"):
            make_quarter_wave_stack(1.7, 1.7, 1, LAM0)

    def test_zero_pairs_rejected(self):
        with pytest.raises(OpticsError, match="pairs"):
            make_quarter_wave_stack(N_H, N_L, 0, LAM0)

    def test_unphysical_index_rejected(self):
        with pytest.raises(OpticsError):
            make_quarter_wave_stack(N_H, 0.9, 9, LAM0)
        with pytest.raises(OpticsError):
            LayerStack(1.0, ((float("nan"), 100.0),), 1.5)


class TestReflectance:
    def test_bare_interface(self):
        # ((n0 - ns)/(n0 + ns))^2 with ns = 1.5255 gives the 4.33% value
        bare = LayerStack(1.0, (), N_SUB)
        expected = ((1.0 - N_SUB) / (1.0 + N_SUB)) ** 2
        assert reflectance_at(bare, LAM0) == pytest.approx(expected, rel=1e-12)
        assert reflectance_at(bare, LAM0) == pytest.approx(0.0433, abs=2e-4)

    def test_nine_pair_high_terminated_matches_admittance_oracle(self, high_terminated):
        indices = [n for n, _ in high_terminated.layers]
        oracle = admittance_oracle(indices, N_SUB)
        assert reflectance_at(high_terminated, LAM0) == pytest.approx(oracle, abs=1e-10)
        assert quarter_wave_peak_reflectance(N_H, N_L, 9, "high", n_substrate=N_SUB) == \
            pytest.approx(oracle, rel=1e-12)

    def test_nine_pair_low_terminated_matches_admittance_oracle(self, low_terminated):
        indices = [n for n, _ in low_terminated.layers]
        oracle = admittance_oracle(indices, N_SUB)
        assert reflectance_at(low_terminated, LAM0) == pytest.approx(oracle, abs=1e-10)

    def test_high_capped_structure_hits_headline_reflectance(self):
        # H(LH)^9 on the substrate: rho = (nL/nH)^(2N) * ns / nH^2
        d_h, d_l = LAM0 / (4 * N_H), LAM0 / (4 * N_L)
        layers = ((N_H, d_h),) + ((N_L, d_l), (N_H, d_h)) * 9
        stack = LayerStack(1.0, layers, N_SUB)
        rho = (N_L / N_H) ** 18 * N_SUB / N_H ** 2
        closed = ((1 - rho) / (1 + rho)) ** 2
        r = reflectance_at(stack, LAM0)
        assert r == pytest.approx(closed, abs=1e-10)
        assert r == pytest.approx(0.9970, abs=5e-4)

    def test_empty_stack_matched_media(self):
        stack = LayerStack(1.5, (), 1.5)
        curve = reflectance(stack, [400.0, 565.0, 700.0])
        assert all(v == pytest.approx(0.0, abs=1e-14) for v in curve.values)

    def test_empty_wavelengths_rejected(self, high_terminated):
        with pytest.raises(OpticsError, match="empty"):
            reflectance(high_terminated, [])

    def test_energy_conservation(self, high_terminated):
        for lam in np.linspace(420, 760, 40):
            r = reflectance_at(high_terminated, lam)
            t = transmittance_at(high_terminated, lam)
            assert abs(r + t - 1.0) < 1e-10

    def test_adding_pairs_never_decreases_design_reflectance(self):
        previous = 0.0
        for pairs in range(1, 13):
            stack = make_quarter_wave_stack(N_H, N_L, pairs, LAM0, "high",
                                            substrate_index=N_SUB)
            r = reflectance_at(stack, LAM0)
            assert r >= previous - 1e-12
            previous = r


@st.composite
def random_stacks(draw, lossy=False):
    n_layers = draw(st.integers(min_value=0, max_value=8))
    extinction = st.floats(min_value=0.0, max_value=0.05) if lossy else st.just(0.0)
    layers = tuple(
        (complex(draw(st.floats(min_value=1.0, max_value=3.5)), -draw(extinction)),
         draw(st.floats(min_value=10.0, max_value=400.0)))
        for _ in range(n_layers))
    ambient = draw(st.floats(min_value=1.0, max_value=2.0))
    substrate = draw(st.floats(min_value=1.0, max_value=2.5))
    return LayerStack(ambient, layers, substrate)


wavelength_arrays = st.lists(st.floats(min_value=300.0, max_value=900.0),
                             min_size=1, max_size=25).map(np.unique)


def reference_power(stack, lam):
    """(R, T) from an explicit 2x2 matrix product at one wavelength: the
    per-wavelength formulation the array kernel replaced."""
    m = np.eye(2, dtype=complex)
    for n, d in stack.layers:
        delta = 2.0 * np.pi * n * d / lam
        m = m @ np.array([[np.cos(delta), 1j * np.sin(delta) / n],
                          [1j * n * np.sin(delta), np.cos(delta)]])
    n0, ns = stack.ambient_index, stack.substrate_index
    b, c = m @ np.array([1.0, ns])
    r = (n0 * b - c) / (n0 * b + c)
    t = 2.0 * n0 / (n0 * b + c)
    return abs(r) ** 2, abs(t) ** 2 * ns.real / n0.real


class TestArrayKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.booleans().flatmap(lambda lossy: random_stacks(lossy=lossy)), wavelength_arrays)
    def test_array_spectra_match_scalar_and_reference(self, stack, wls):
        refl = reflectance(stack, wls).values
        trans = transmittance(stack, wls).values
        for lam, r, t in zip(wls, refl, trans):
            assert abs(r - reflectance_at(stack, lam)) <= 1e-12
            assert abs(t - transmittance_at(stack, lam)) <= 1e-12
            r_ref, t_ref = reference_power(stack, lam)
            assert abs(r - r_ref) <= 1e-12
            assert abs(t - t_ref) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(random_stacks(), wavelength_arrays)
    def test_lossless_array_energy_conservation(self, stack, wls):
        total = (np.array(reflectance(stack, wls).values)
                 + np.array(transmittance(stack, wls).values))
        assert np.max(np.abs(total - 1.0)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(random_stacks(), wavelength_arrays)
    def test_lossless_array_reflects_alike_from_both_sides(self, stack, wls):
        front = np.array(reflectance(stack, wls).values)
        back = np.array(reflectance(stack.reversed(), wls).values)
        assert np.max(np.abs(front - back)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.booleans().flatmap(lambda lossy: random_stacks(lossy=lossy)),
           st.booleans().flatmap(lambda lossy: random_stacks(lossy=lossy)),
           st.floats(min_value=300.0, max_value=900.0),
           st.lists(st.floats(min_value=20.0, max_value=3000.0), min_size=1, max_size=25))
    def test_array_gap_scan_matches_single_gaps(self, mirror_a, mirror_b, lam, gaps):
        scan = peak_intracavity_intensity(mirror_a, np.array(gaps), mirror_b, lam)
        assert scan.shape == (len(gaps),)
        for gap, value in zip(gaps, scan):
            single = peak_intracavity_intensity(mirror_a, gap, mirror_b, lam)
            assert value == pytest.approx(single, rel=1e-12)

    def test_bad_gap_rejected(self, low_terminated):
        with pytest.raises(OpticsError, match="gap"):
            peak_intracavity_intensity(low_terminated, np.array([100.0, np.nan]),
                                       low_terminated, LAM0)


class TestStackProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_stacks(), st.floats(min_value=300.0, max_value=900.0))
    def test_lossless_energy_conservation(self, stack, lam):
        assert abs(reflectance_at(stack, lam) + transmittance_at(stack, lam) - 1.0) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(random_stacks(), st.floats(min_value=300.0, max_value=900.0))
    def test_reciprocity(self, stack, lam):
        assert reflectance_at(stack, lam) == pytest.approx(
            reflectance_at(stack.reversed(), lam), abs=1e-10)

    def test_text_round_trip(self, high_terminated):
        text = high_terminated.to_text()
        back = LayerStack.from_text(text)
        assert back == high_terminated


class TestAntireflection:
    def test_quarter_wave_mgf2_reduces_reflection(self):
        bare = LayerStack(1.0, (), N_SUB)
        n_f = 1.390
        coated = LayerStack(1.0, ((n_f, LAM0 / (4 * n_f)),), N_SUB)
        r_bare = reflectance_at(bare, LAM0)
        r_coated = reflectance_at(coated, LAM0)
        assert r_coated < r_bare
        # ideal single-layer value ((ns - nf^2)/(ns + nf^2))^2
        expected = ((N_SUB - n_f ** 2) / (N_SUB + n_f ** 2)) ** 2
        assert r_coated == pytest.approx(expected, abs=1e-10)

    def test_reduction_monotone_in_index_match(self):
        # closer |ns - nf^2| means lower residual reflection
        candidates = sorted([1.15, 1.2351, 1.30, 1.390],
                            key=lambda nf: abs(N_SUB - nf ** 2))
        previous = -1.0
        for n_f in candidates:
            coated = LayerStack(1.0, ((n_f, LAM0 / (4 * n_f)),), N_SUB)
            r = reflectance_at(coated, LAM0)
            assert r >= previous - 1e-12
            previous = r


class TestStopband:
    def test_high_reflectivity_band_exists(self, high_terminated):
        band = stopband(high_terminated, 0.99, anchor_nm=LAM0)
        assert band is not None
        lo, hi = band
        assert lo < LAM0 < hi

    def test_practical_band_edge_near_504(self, high_terminated):
        band = stopband(high_terminated, 0.8, anchor_nm=LAM0)
        assert band is not None
        assert band[0] == pytest.approx(504.0, abs=5.0)

    def test_threshold_one_gives_no_stopband(self, high_terminated):
        assert stopband(high_terminated, 1.0) is None

    def test_unreachable_threshold_gives_no_stopband(self, high_terminated):
        assert stopband(high_terminated, 0.9999) is None

    def test_fractional_width_matches_analytic_oracle(self, high_terminated):
        # infinite-stack band width in relative frequency, vs the measured
        # steep-edge band (R >= 0.9) of the finite stack
        band = stopband(high_terminated, 0.9, anchor_nm=LAM0)
        lo, hi = band
        measured = (1.0 / lo - 1.0 / hi) * LAM0
        analytic = analytic_stopband_fractional_width(N_H, N_L)
        assert analytic == pytest.approx(0.215, abs=5e-3)
        assert measured == pytest.approx(analytic, rel=0.10)


class TestCavitySpectrum:
    def test_lossless_symmetric_peak_transmission_is_unity(self, low_terminated):
        gap = resonant_gap(low_terminated, low_terminated, 4, LAM0)
        wls = np.linspace(LAM0 - 0.8, LAM0 + 0.8, 1601)
        _, res = cavity_spectrum(low_terminated, gap, low_terminated, wls,
                                 report_near_nm=LAM0)
        assert res.found
        assert res.peak_transmission == pytest.approx(1.0, abs=1e-3)

    def test_doubling_pairs_narrows_the_resonance(self):
        fwhms = []
        for pairs in (4, 8):
            mirror = make_quarter_wave_stack(N_H, N_L, pairs, LAM0, "low",
                                             substrate_index=N_SUB)
            gap = resonant_gap(mirror, mirror, 4, LAM0)
            wls = np.linspace(LAM0 - 4.0, LAM0 + 4.0, 4001)
            _, res = cavity_spectrum(mirror, gap, mirror, wls, report_near_nm=LAM0)
            assert res.found
            fwhms.append(res.fwhm_nm)
        assert fwhms[1] < fwhms[0]

    def test_no_resonance_reports_empty(self, low_terminated):
        # probe far outside any resonance of a short cavity
        wls = np.linspace(LAM0 - 0.2, LAM0 + 0.2, 101)
        _, res = cavity_spectrum(low_terminated, 0.3 * LAM0, low_terminated, wls)
        assert not res.found

    def test_lossy_calibration_hits_target(self, high_terminated):
        lossy = calibrated_lossy_stack(high_terminated, 0.992, LAM0)
        assert reflectance_at(lossy, LAM0) == pytest.approx(0.992, abs=1e-9)
        r = reflectance_at(lossy, LAM0)
        t = transmittance_at(lossy, LAM0)
        assert r + t < 1.0  # absorbing

    def test_lossy_calibration_rejects_gain(self, high_terminated):
        with pytest.raises(OpticsError, match="exceeds"):
            calibrated_lossy_stack(high_terminated, 0.9999, LAM0)


class TestFieldAndPenetration:
    def test_deposited_termination_penetration_depth(self, low_terminated):
        lam = 565.85
        gap = resonant_gap(low_terminated, low_terminated, 8, lam)
        xi = penetration_depth(8, lam, gap)
        # the surface antinode costs half a wave of physical gap: xi ~ lam/4
        assert xi == pytest.approx(lam / 4.0, rel=0.05)

    def test_penetration_independent_of_mode_order(self, low_terminated):
        lam = 565.85
        xis = [penetration_depth(q, lam, resonant_gap(low_terminated, low_terminated, q, lam))
               for q in (5, 8)]
        assert xis[0] == pytest.approx(xis[1], rel=0.01)

    def test_hard_mirror_limit_gap_is_integer_half_waves(self):
        # huge index contrast confines the field: gap -> q lam/2, xi -> 0
        mirror = make_quarter_wave_stack(9.0, 1.05, 6, LAM0, "high",
                                         substrate_index=N_SUB)
        gap = resonant_gap(mirror, mirror, 5, LAM0)
        xi = penetration_depth(5, LAM0, gap)
        assert abs(xi) < 5.0

    def test_resonant_gap_increases_with_mode_order(self, low_terminated):
        gaps = [resonant_gap(low_terminated, low_terminated, q, LAM0) for q in (3, 4, 5)]
        assert gaps[0] < gaps[1] < gaps[2]

    def test_field_profile_antinode_count(self, low_terminated):
        lam = 565.85
        for q in (5, 8):
            gap = resonant_gap(low_terminated, low_terminated, q, lam)
            profile = intracavity_field(low_terminated, gap, low_terminated, lam)
            assert profile.antinode_count() == q
            assert max(profile.intensity) == pytest.approx(1.0, abs=1e-12)
            assert min(profile.intensity) >= 0.0

    def test_search_failure_reports_bracket(self):
        # index-matched "mirrors" reflect nothing: the intensity is flat in
        # the gap length and the bracket holds no maximum
        none = LayerStack(1.0, (), 1.0)
        with pytest.raises(ResonanceSearchError, match="bracket"):
            resonant_gap(none, none, 3, LAM0)


class TestGoldenScalars:
    """Default-scenario refined scalars, pinned to 1e-9 relative against
    values recorded from the per-wavelength transfer-matrix implementation."""

    GOLDEN = json.loads((Path(__file__).parent / "golden_optics.json").read_text())

    def test_mirror_report(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "mirror"]) == 0
        report = json.loads((tmp_path / "mirror_report.json").read_text())
        gold = self.GOLDEN["mirror"]
        assert report["reflectance_at_design_wavelength"] == pytest.approx(
            gold["reflectance_at_design_wavelength"], rel=1e-9)
        assert report["stopband_nm"] == pytest.approx(gold["stopband_nm"], rel=1e-9)

    def test_cavity_report(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "cavity"]) == 0
        report = json.loads((tmp_path / "cavity_report.json").read_text())
        gold = self.GOLDEN["cavity"]
        for key in ("resonant_gap_nm", "penetration_depth_nm"):
            assert report[key] == pytest.approx(gold[key], rel=1e-9), key
        for key, value in gold["resonance"].items():
            assert report["resonance"][key] == pytest.approx(value, rel=1e-9), key
