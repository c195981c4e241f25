import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spskit.cavitymode import (
    CavityError,
    finesse,
    fsr_finesse_linewidth,
    fsr_for_linewidth,
    mode_volume,
    quality_factor,
    spectral_overlap,
    tune,
)
from spskit.constants import NM_PER_M, SPEED_OF_LIGHT_M_PER_S
from test_config_cli import _assert_validation_error


def volume_oracle(rc_nm, q, lam):
    """Independent evaluation of V = (pi/4) w0^2 L / lam^3."""
    length = q * lam / 2.0
    w0_sq = (lam / math.pi) * math.sqrt(length * (rc_nm - length))
    return (math.pi / 4.0) * w0_sq * length / lam ** 3


# the paper's cavity: radius of curvature (um), mode order, wavelength (nm),
# penetration depth (nm) and mirror reflectivity
RC_UM, Q, LAM, XI, R = 2.7, 8, 565.85, 122.0, 0.992


class TestModeVolume:
    def test_paper_geometry(self):
        assert mode_volume(RC_UM, Q, LAM) == pytest.approx(
            volume_oracle(2700.0, 8, 565.85), rel=1e-12)
        assert mode_volume(RC_UM, Q, LAM) == pytest.approx(1.76, rel=0.03)

    def test_shorter_mode(self):
        # independent hand evaluation of the same closed form gives 1.489,
        # not the 1.24 sometimes quoted; the formula is the contract here
        volume = mode_volume(RC_UM, 5, LAM)
        assert volume == pytest.approx(volume_oracle(2700.0, 5, 565.85), rel=1e-12)
        assert volume == pytest.approx(1.4894, abs=2e-3)

    def test_volume_collapses_at_concentric_limit(self):
        lam = 565.85
        q = 9
        length = q * lam / 2.0
        assert mode_volume((length + 2.0) / 1e3, q, lam) < 0.3

    def test_unstable_geometry_rejected(self):
        with pytest.raises(CavityError, match="unstable"):
            mode_volume(2.0, Q, LAM)

    def test_monotone_in_mode_order_below_three_quarters(self):
        # V grows with q while L <= (3/4) Rc, then turns over
        volumes = [mode_volume(RC_UM, q, LAM) for q in range(1, 8)]
        assert all(b > a for a, b in zip(volumes, volumes[1:]))


class TestFsrFinesseLinewidth:
    def test_finesse_formula(self):
        assert finesse(0.9995) == pytest.approx(math.pi * math.sqrt(0.9995) / 5e-4, rel=1e-12)

    def test_finesse_monotone_in_reflectivity(self):
        values = [finesse(r) for r in (0.5, 0.9, 0.99, 0.999)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_finesse_vanishes_at_zero_reflectivity(self):
        assert finesse(1e-9) < 1e-4

    def test_unit_reflectivity_rejected(self, tmp_path, capsys):
        _assert_validation_error(
            ["--outdir", str(tmp_path), "--set", "cavity.mirror_reflectivity=1.0", "cavity"],
            capsys, "[cavity] mirror_reflectivity")

    def test_fsr_chain_for_target_linewidth(self):
        # FSR = linewidth * finesse: 124 MHz at R=99.95% allows ~779 GHz
        fsr = fsr_for_linewidth(124e6, 0.9995)
        assert fsr == pytest.approx(124e6 * math.pi * math.sqrt(0.9995) / 5e-4, rel=1e-12)
        assert fsr == pytest.approx(779e9, rel=0.01)

    def test_fsr_uses_effective_length(self):
        fsr_with, _, _ = fsr_finesse_linewidth(Q, LAM, XI, R)
        fsr_without, _, _ = fsr_finesse_linewidth(Q, LAM, 0.0, R)
        length = 8 * 565.85 / 2.0
        assert fsr_without == pytest.approx(299792458.0 / (2 * length * 1e-9), rel=1e-12)
        assert fsr_with < fsr_without

    def test_negative_penetration_depth_rejected(self):
        with pytest.raises(CavityError, match="penetration depth must be non-negative"):
            fsr_finesse_linewidth(Q, LAM, -1, R)

    def test_quality_factor_cross_checks_transfer_matrix(self):
        # finesse * 2 L_eff / lam with R=0.992, q=8, xi=122 nm
        q = quality_factor(Q, LAM, XI, R)
        assert q == pytest.approx(3466, rel=3e-3)
        assert 3.3e3 <= q <= 3.5e3

    @settings(max_examples=200, deadline=None)
    @given(q=st.integers(1, 100), lam=st.floats(200.0, 2000.0), xi=st.floats(0.0, 500.0),
           r=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_quality_factor_and_linewidth_read_one_length(self, q, lam, xi, r):
        # Q = finesse 2 L/lam and linewidth = c/(2 L finesse), so Q * linewidth
        # is the optical frequency c/lam whatever L, and at xi = 0 the FSR is
        # c/(q lam)
        frequency_hz = SPEED_OF_LIGHT_M_PER_S / (lam / NM_PER_M)
        _, _, linewidth = fsr_finesse_linewidth(q, lam, xi, r)
        assert quality_factor(q, lam, xi, r) * linewidth == pytest.approx(
            frequency_hz, rel=1e-12)
        fsr, _, _ = fsr_finesse_linewidth(q, lam, 0.0, r)
        assert fsr == pytest.approx(SPEED_OF_LIGHT_M_PER_S / (q * lam / NM_PER_M), rel=1e-12)


class TestTuning:
    def test_paper_slope(self):
        d_len, d_lam = tune(Q, 1.0)
        assert d_len == pytest.approx(102.0)
        assert d_lam == pytest.approx(2 * 102.0 / 8)

    def test_zero_voltage(self):
        assert tune(Q, 0.0) == (0.0, 0.0)

    def test_half_voltage(self):
        assert tune(Q, 0.5)[0] == pytest.approx(51.0)

    @pytest.mark.parametrize("v1,v2", [(0.3, 0.4), (1.0, -0.25), (2.0, 3.0)])
    def test_exact_linearity(self, v1, v2):
        len_sum = tune(Q, v1)[0] + tune(Q, v2)[0]
        assert tune(Q, v1 + v2)[0] == pytest.approx(len_sum, rel=1e-12)

    def test_out_of_range_voltage_rejected(self):
        with pytest.raises(CavityError, match="safe range"):
            tune(Q, 11.0)


class TestSpectralOverlap:
    def overlap_quad_oracle(self, detuning, fwhm_a, fwhm_b):
        def lor(x, x0, fwhm):
            g = fwhm / 2.0
            return (g / math.pi) / ((x - x0) ** 2 + g ** 2)

        num = quad(lambda x: lor(x, 0, fwhm_a) * lor(x, detuning, fwhm_b),
                   -np.inf, np.inf, limit=400)[0]
        den = quad(lambda x: lor(x, 0, fwhm_a) * lor(x, 0, fwhm_b),
                   -np.inf, np.inf, limit=400)[0]
        return num / den

    def test_zero_detuning_is_unity(self):
        assert spectral_overlap(565.85, 0.224, 565.85, 5.76) == 1.0

    @pytest.mark.parametrize("detuning,fa,fb", [
        (5.76, 0.224, 5.76), (1.0, 0.5, 2.0), (3.3, 0.169, 5.76)])
    def test_matches_numerical_integration(self, detuning, fa, fb):
        analytic = spectral_overlap(565.85 + detuning, fa, 565.85, fb)
        assert analytic == pytest.approx(self.overlap_quad_oracle(detuning, fa, fb),
                                         rel=1e-7)

    def test_paper_detuning_value(self):
        # detuned by the emitter linewidth the overlap falls to ~0.21
        assert spectral_overlap(565.85 + 5.76, 0.224, 565.85, 5.76) == \
            pytest.approx(0.2125, abs=5e-4)

    def test_symmetry(self):
        a = spectral_overlap(565.0, 0.3, 567.0, 4.0)
        b = spectral_overlap(567.0, 4.0, 565.0, 0.3)
        assert a == pytest.approx(b, rel=1e-12)

    def test_monotone_in_detuning_and_vanishes_far_away(self):
        values = [spectral_overlap(565.85 + d, 0.224, 565.85, 5.76)
                  for d in (0.0, 0.5, 1.5, 4.0, 10.0, 1e4)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_half_maximum_at_summed_half_widths(self):
        # the tuning range over which the source stays above half its peak
        # rate equals (fwhm_cav + fwhm_em), i.e. ~ the free-space linewidth
        half_point = (0.224 + 5.76) / 2.0
        assert spectral_overlap(565.85 + half_point, 0.224, 565.85, 5.76) == \
            pytest.approx(0.5, rel=1e-12)

    def test_invalid_widths_rejected(self):
        with pytest.raises(CavityError):
            spectral_overlap(565.0, 0.0, 565.0, 5.0)
