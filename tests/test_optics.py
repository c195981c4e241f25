import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spskit import optics, pipeline
from spskit.optics import (
    LayerStack,
    OpticsError,
    ResonanceSearchError,
    amplitude_coefficients,
    analytic_stopband_fractional_width,
    antinode_count,
    calibrated_lossy_stack,
    cavity_spectrum,
    intracavity_field,
    make_quarter_wave_stack,
    penetration_depth,
    quarter_wave_peak_reflectance,
    reflectance,
    reflectance_at,
    resonant_gap,
    stopband,
    transmittance,
)
from spskit.cli import main
from spskit.config import default_scenario
from test_config_cli import _assert_validation_error

N_H, N_L, N_SUB = 2.135, 1.521, 1.5255
LAM0 = 565.0


def transmittance_at(stack: LayerStack, lam: float) -> float:
    """T of the stack at one wavelength, by the scalar transfer-matrix path."""
    return float(optics._power(stack.layers, stack.ambient_index, stack.substrate_index, lam)[1])


def peak_intracavity_intensity(mirror_a: LayerStack, gap_nm, mirror_b: LayerStack,
                               lam: float):
    """Maximum standing-wave |E|^2 in the gap, for unit incident amplitude;
    ``gap_nm`` may be an array of gap lengths, and the result then has its
    shape."""
    optics._check_gaps(gap_nm)
    waves = optics._gap_waves(mirror_a, mirror_b, lam)(np.asarray(gap_nm, float))
    return optics._peak_intensity(waves)[()]


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
        stack = make_quarter_wave_stack(N_H, N_L, 1, LAM0, "low", substrate_index=N_SUB)
        assert len(stack.layers) == 2

    def test_degenerate_contrast_rejected(self):
        with pytest.raises(OpticsError, match="n_high > n_low"):
            make_quarter_wave_stack(1.7, 1.7, 1, LAM0, "low", substrate_index=N_SUB)

    def test_zero_pairs_rejected(self, tmp_path, capsys):
        _assert_validation_error(
            ["--outdir", str(tmp_path), "--set", "mirror.pairs=0", "mirror"], capsys,
            "[mirror] pairs")

    def test_unphysical_index_rejected(self):
        with pytest.raises(OpticsError):
            make_quarter_wave_stack(N_H, 0.9, 9, LAM0, "low", substrate_index=N_SUB)
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
        refl = reflectance(stack, [400.0, 565.0, 700.0])
        assert refl.shape == (3,)
        assert all(v == pytest.approx(0.0, abs=1e-14) for v in refl)

    def test_overflowing_index_gives_no_finite_spectrum(self):
        stack = make_quarter_wave_stack(1e300, N_L, 9, LAM0, "high", substrate_index=N_SUB)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OpticsError, match="spectral curve samples must be finite"):
            reflectance(stack, np.arange(420.0, 760.0, 0.5))

    def test_empty_wavelengths_rejected(self, high_terminated):
        with pytest.raises(OpticsError, match="empty"):
            reflectance(high_terminated, [])

    @pytest.mark.parametrize("wls", [[600.0, 500.0], [565.0, 565.0]])
    def test_unordered_wavelengths_rejected(self, high_terminated, wls):
        for spectrum in (reflectance, transmittance):
            with pytest.raises(OpticsError, match="strictly increasing"):
                spectrum(high_terminated, wls)

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
        refl = reflectance(stack, wls)
        trans = transmittance(stack, wls)
        for lam, r, t in zip(wls, refl, trans):
            assert abs(r - reflectance_at(stack, lam)) <= 1e-12
            assert abs(t - transmittance_at(stack, lam)) <= 1e-12
            r_ref, t_ref = reference_power(stack, lam)
            assert abs(r - r_ref) <= 1e-12
            assert abs(t - t_ref) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(random_stacks(), wavelength_arrays)
    def test_lossless_array_energy_conservation(self, stack, wls):
        total = reflectance(stack, wls) + transmittance(stack, wls)
        assert np.max(np.abs(total - 1.0)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(random_stacks(), wavelength_arrays)
    def test_lossless_array_reflects_alike_from_both_sides(self, stack, wls):
        front = reflectance(stack, wls)
        back = reflectance(stack.reversed(), wls)
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


@st.composite
def periodic_stacks(draw):
    """Stacks of repeated blocks, lossless or lossy: a pair of films
    repeated N = 1..50 times ([HL]^N or [LH]^N, as the two drawn indices
    fall), one film repeated N times, or two such mirrors around a gap, as
    a cavity is built."""
    extinction = draw(st.just(0.0) | st.floats(min_value=0.0, max_value=0.05))

    def film():
        return (complex(draw(st.floats(min_value=1.0, max_value=3.5)), -extinction),
                draw(st.floats(min_value=10.0, max_value=400.0)))

    a, b = film(), film()
    n = draw(st.integers(min_value=1, max_value=50))
    layers = draw(st.sampled_from([
        (a, b) * n,
        (a,) * n,
        (b, a) * n + ((1.0, draw(st.floats(min_value=20.0, max_value=3000.0))),)
        + (a, b) * draw(st.integers(min_value=1, max_value=50)),
    ]))
    return LayerStack(draw(st.floats(min_value=1.0, max_value=2.0)), layers,
                      draw(st.floats(min_value=1.0, max_value=2.5)))


def default_cavity() -> LayerStack:
    """The default scenario's high-terminated mirrors around a gap, as the
    cavity spectrum sees them: (LH)x9 | gap | (HL)x9, 37 layers."""
    mirror = pipeline.mirror_stack(default_scenario(), "high")
    return optics._cavity_stack(mirror, 2100.0, mirror)


class TestPeriodicKernel:
    """The run-by-run kernel against the explicit layer-by-layer product.
    R and T agree to 2e-12 absolute and T to 1e-10 relative; the largest
    differences seen were 5.5e-13 and 4.5e-12, both over arrays, where
    numpy's array cos and sin differ from the scalar ones by a few ulp."""

    @staticmethod
    def assert_matches_reference(stack, wls, refl, trans):
        for lam, r, t in zip(np.atleast_1d(wls), np.atleast_1d(refl), np.atleast_1d(trans)):
            r_ref, t_ref = reference_power(stack, lam)
            assert abs(r - r_ref) <= 2e-12
            assert abs(t - t_ref) <= 2e-12
            assert abs(t - t_ref) <= 1e-10 * t_ref

    @settings(max_examples=80, deadline=None)
    @given(periodic_stacks(), st.floats(min_value=300.0, max_value=900.0))
    def test_scalar_wavelength(self, stack, lam):
        refl, trans = optics._power(stack.layers, stack.ambient_index, stack.substrate_index, lam)
        assert np.ndim(refl) == 0
        self.assert_matches_reference(stack, lam, refl, trans)

    @settings(max_examples=80, deadline=None)
    @given(periodic_stacks(), wavelength_arrays)
    def test_wavelength_array(self, stack, wls):
        refl, trans = optics._power(stack.layers, stack.ambient_index, stack.substrate_index, wls)
        assert refl.shape == wls.shape
        self.assert_matches_reference(stack, wls, refl, trans)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(min_value=1.0, max_value=3.5),
                              st.floats(min_value=10.0, max_value=400.0)),
                    min_size=1, max_size=12, unique=True),
           st.floats(min_value=300.0, max_value=900.0))
    def test_stack_without_repeats_is_the_layer_product(self, films, lam):
        layers = LayerStack(1.0, films, 1.5).layers
        m = optics._layer_matrix(*layers[0], lam)
        for n, d in layers[1:]:
            m = optics._matmul(m, optics._layer_matrix(n, d, lam))
        assert optics._transfer_matrix(layers, lam) == m

    def test_runs_of_the_default_cavity(self):
        layers = default_cavity().layers
        films, runs = optics._runs(layers)
        assert films == (layers[0], layers[1], layers[18])
        assert runs == (((0, 1), 9), ((2,), 1), ((1, 0), 9))

    def test_runs_of_repeated_films_and_pairs(self):
        a, b, c = (1.5, 10.0), (2.0, 20.0), (1.4, 30.0)
        films, runs = optics._runs(LayerStack(1.0, (a, a, b, c, b, c, a, b), 1.0).layers)
        assert len(films) == 3
        assert runs == (((0,), 2), ((1, 2), 2), ((0,), 1), ((1,), 1))

    def test_products_of_the_default_cavity(self, monkeypatch):
        # the layer-by-layer product took 37; each (LH)x9 mirror now takes
        # one product for its block and four for the ninth power, and the
        # runs are joined by two
        calls = []
        matmul = optics._matmul

        def counted(a, b):
            calls.append(1)
            return matmul(a, b)

        monkeypatch.setattr(optics, "_matmul", counted)
        optics._transfer_matrix(default_cavity().layers, 565.85)
        assert len(calls) == 12


class TestAmplitudeCoefficients:
    @pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
    def test_powers_of_the_amplitudes_are_the_spectra(self, high_terminated, lossy):
        stack = calibrated_lossy_stack(high_terminated, 0.992, LAM0) if lossy else high_terminated
        # both faces, so that the index ratio is 1.5255 and its inverse
        for face in (stack, stack.reversed()):
            n0, ns = face.ambient_index.real, face.substrate_index.real
            for lam in (450.0, LAM0, 700.0):
                r, t = amplitude_coefficients(face, lam)
                assert abs(r) ** 2 == pytest.approx(reflectance(face, [lam])[0], rel=1e-12)
                assert ns / n0 * abs(t) ** 2 == pytest.approx(transmittance(face, [lam])[0],
                                                              rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, float("nan")])
    def test_wavelength_must_be_positive_and_finite(self, high_terminated, lam):
        with pytest.raises(OpticsError, match="wavelength must be positive and finite"):
            amplitude_coefficients(high_terminated, lam)


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
        # mirror_stack.txt: an ambient line, one "index thickness" line per
        # layer, a substrate line; complex() reads every index back exactly
        stack = LayerStack(1.0, ((2.135 - 1.7e-3j, 66.17), *high_terminated.layers), N_SUB)
        first, *middle, last = stack.to_text().splitlines()
        (tag_a, ambient), (tag_s, substrate) = first.split(), last.split()
        assert (tag_a, tag_s) == ("ambient", "substrate")
        layers = tuple((complex(n), float(d)) for n, d in map(str.split, middle))
        assert LayerStack(complex(ambient), layers, complex(substrate)) == stack


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
        assert stopband(high_terminated, 1.0, anchor_nm=LAM0) is None

    def test_unreachable_threshold_gives_no_stopband(self, high_terminated):
        assert stopband(high_terminated, 0.9999, anchor_nm=LAM0) is None

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
        assert res["found"]
        assert res["peak_transmission"] == pytest.approx(1.0, abs=1e-3)

    def test_doubling_pairs_narrows_the_resonance(self):
        fwhms = []
        for pairs in (4, 8):
            mirror = make_quarter_wave_stack(N_H, N_L, pairs, LAM0, "low",
                                             substrate_index=N_SUB)
            gap = resonant_gap(mirror, mirror, 4, LAM0)
            wls = np.linspace(LAM0 - 4.0, LAM0 + 4.0, 4001)
            _, res = cavity_spectrum(mirror, gap, mirror, wls, report_near_nm=LAM0)
            assert res["found"]
            fwhms.append(res["fwhm_nm"])
        assert fwhms[1] < fwhms[0]

    def test_no_resonance_reports_empty(self, low_terminated):
        # probe far outside any resonance of a short cavity
        wls = np.linspace(LAM0 - 0.2, LAM0 + 0.2, 101)
        _, res = cavity_spectrum(low_terminated, 0.3 * LAM0, low_terminated, wls,
                                 report_near_nm=LAM0)
        assert res["found"] is False
        for key in ("center_nm", "fwhm_nm", "quality_factor", "peak_transmission"):
            assert np.isnan(res[key]), key

    def test_peak_above_half_maximum_has_no_fwhm(self):
        # two single-layer reflectors: the transmission never falls to half
        # its peak, so the peak is found but its FWHM and Q are undefined
        mirror = LayerStack(1.0, ((1.5, 90.0),), 1.5)
        wls = np.linspace(560.0, 572.0, 1201)
        _, res = cavity_spectrum(mirror, 2000.0, mirror, wls, report_near_nm=566.0)
        assert res.keys() == {"found", "center_nm", "fwhm_nm", "quality_factor",
                              "peak_transmission"}
        assert res["found"] is True
        assert res["center_nm"] == pytest.approx(571.4285720758626, rel=1e-12)
        assert np.isnan(res["fwhm_nm"]) and np.isnan(res["quality_factor"])
        assert res["peak_transmission"] == 1.0

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
            positions, intensity = intracavity_field(low_terminated, gap, low_terminated, lam)
            assert positions[0] == 0.0 and positions[-1] == gap
            assert antinode_count(intensity) == q
            assert max(intensity) == pytest.approx(1.0, abs=1e-12)
            assert min(intensity) >= 0.0

    def test_antinode_count_rule(self):
        # a sample counts when it is >= both neighbours and above 0.5;
        # a boundary sample has one neighbour; each plateau sample counts
        intensity = np.array([0.8, 0.3, 0.9, 0.9, 0.1, 0.4, 0.7])
        assert antinode_count(intensity) == 4
        # scaled by 1/1.5, the height 0.75 falls to 0.5: the 0.7 maximum drops out
        assert antinode_count(intensity / 1.5) == 3

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
        # recorded before spectra became plain arrays
        assert report["ar_coated_reflectance_band_average"] == pytest.approx(
            gold["ar_coated_reflectance_band_average"], rel=1e-12)

    def test_cavity_report(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "cavity"]) == 0
        report = json.loads((tmp_path / "cavity_report.json").read_text())
        gold = self.GOLDEN["cavity"]
        for key in ("resonant_gap_nm", "penetration_depth_nm"):
            assert report[key] == pytest.approx(gold[key], rel=1e-9), key
        for key, value in gold["resonance"].items():
            assert report["resonance"][key] == pytest.approx(value, rel=1e-9), key
