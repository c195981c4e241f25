import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spskit.cli import main
from spskit.emitter import (
    PhotophysicsError,
    coupling_from_purcell,
    coupling_report,
    effective_purcell,
    indistinguishability_cavity,
    indistinguishability_free,
    indistinguishability_map,
    kappa_for_target_indistinguishability,
    purcell_chain,
    quantum_efficiency,
)

GAMMA = 1.0 / 897e-12       # emission rate of the 897 ps emitter
GAMMA_STAR = 5.41e12        # free-space linewidth as a plain frequency


class TestEffectivePurcell:
    def test_paper_values(self):
        # hand evaluation: Q_eff = 565.85/(0.224+5.76) = 94.561,
        # F = 3/(4 pi^2) * Q_eff / 1.76 = 4.083
        q_eff, f_eff = effective_purcell(565.85, 0.224, 5.76, 1.76)
        assert q_eff == pytest.approx(565.85 / 5.984, rel=1e-12)
        assert f_eff == pytest.approx(4.083, abs=2e-3)
        assert f_eff == pytest.approx(4.07, rel=0.02)

    def test_narrow_cavity_variant(self):
        # same formula with the 0.169 nm linewidth: 4.1207 by hand
        _, f_eff = effective_purcell(565.85, 0.169, 5.76, 1.76)
        assert f_eff == pytest.approx(4.1207, abs=2e-3)

    def test_doubling_volume_halves_enhancement(self):
        _, f1 = effective_purcell(565.85, 0.224, 5.76, 1.76)
        _, f2 = effective_purcell(565.85, 0.224, 5.76, 3.52)
        assert f2 == pytest.approx(f1 / 2.0, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scale_invariance(self, scale):
        # wavelength and linewidths scaled together leave F unchanged when
        # the volume is expressed in wavelength-cubed units
        _, f1 = effective_purcell(565.85, 0.224, 5.76, 1.76)
        _, f2 = effective_purcell(565.85 * scale, 0.224 * scale, 5.76 * scale, 1.76)
        assert f2 == pytest.approx(f1, rel=1e-9)

    def test_zero_linewidth_rejected(self):
        with pytest.raises(PhotophysicsError):
            effective_purcell(565.85, 0.0, 5.76, 1.76)


class TestQuantumEfficiency:
    def test_paper_value(self):
        assert quantum_efficiency(2.29, 4.07, 1.68) == pytest.approx(0.513, abs=5e-4)

    def test_no_lifetime_change_means_zero(self):
        assert quantum_efficiency(1.0, 4.07, 1.68) == 0.0
        assert quantum_efficiency(1.0, 7.7, 0.4) == 0.0

    def test_unit_mirror_enhancement(self):
        # hand evaluation: 1.29/(2.29 + 4.07 - 2.29) = 0.317
        assert quantum_efficiency(2.29, 4.07, 1.0) == pytest.approx(0.317, abs=5e-4)

    def test_invalid_domain_rejected(self):
        with pytest.raises(PhotophysicsError, match="denominator"):
            quantum_efficiency(2.0, 1.0, 3.0)

    def test_full_chain_report(self):
        chain = purcell_chain(565.85, 0.224, 5.76, 1.7568, 2.29, 1.68)
        assert chain.keys() == {"effective_quality_factor", "effective_purcell_factor",
                                "quantum_efficiency"}
        assert chain["effective_quality_factor"] == effective_purcell(
            565.85, 0.224, 5.76, 1.7568)[0]
        assert chain["effective_purcell_factor"] == pytest.approx(4.09, abs=0.01)
        assert 0.0 <= chain["quantum_efficiency"] <= 1.0
        assert chain["quantum_efficiency"] == pytest.approx(0.509, abs=2e-3)


def test_emitter_report_matches_golden(tmp_path):
    """The default ``emitter`` report's Purcell chain, pinned to 1e-12
    relative against values recorded when the chain was a record."""
    gold = json.loads((Path(__file__).parent / "golden_optics.json").read_text())["emitter"]
    assert main(["--outdir", str(tmp_path), "emitter"]) == 0
    report = json.loads((tmp_path / "emitter_report.json").read_text())
    for key, value in gold.items():
        assert report[key] == pytest.approx(value, rel=1e-12), key


class TestIndistinguishabilityFree:
    def test_paper_chain(self):
        value = indistinguishability_free(GAMMA, GAMMA_STAR)
        assert value == pytest.approx(GAMMA / (GAMMA + GAMMA_STAR), rel=1e-14)
        assert value == pytest.approx(2.06e-4, abs=5e-7)

    def test_no_dephasing(self):
        assert indistinguishability_free(GAMMA, 0.0) == 1.0

    def test_equal_rates(self):
        assert indistinguishability_free(3.3e9, 3.3e9) == 0.5

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=1e3, max_value=1e15),
           st.floats(min_value=0.0, max_value=1e15))
    def test_bounded(self, gamma, gamma_star):
        assert 0.0 <= indistinguishability_free(gamma, gamma_star) <= 1.0

    def test_strictly_decreasing_in_dephasing(self):
        values = [indistinguishability_free(GAMMA, gs)
                  for gs in (0.0, 1e9, 1e11, 1e13)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestIndistinguishabilityCavity:
    def test_weak_coupling_limit_reduces_to_two_rate_form(self):
        kappa = 1.239e8
        rates = (1.115e9, GAMMA_STAR, kappa, 0.0)
        assert indistinguishability_cavity(*rates) == pytest.approx(
            1.115e9 / (1.115e9 + kappa), rel=1e-12)
        assert indistinguishability_cavity(*rates) == pytest.approx(0.90, abs=5e-3)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e6, max_value=1e12),
           st.floats(min_value=1e6, max_value=1e13),
           st.floats(min_value=1e6, max_value=1e12))
    def test_g_to_zero_property(self, gamma, gamma_star, kappa):
        tiny_g = 1e-6 * kappa
        with_g = indistinguishability_cavity(gamma, gamma_star, kappa, tiny_g)
        limit = gamma / (gamma + kappa)
        assert with_g == pytest.approx(limit, rel=1e-4)

    def test_overdamped_cavity_limit(self):
        values = [indistinguishability_cavity(GAMMA, GAMMA_STAR, k, 1e8)
                  for k in (1e12, 1e14, 1e16)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=1e3, max_value=1e13),
           st.floats(min_value=0.0, max_value=1e14),
           st.floats(min_value=0.0, max_value=1e13),
           st.floats(min_value=0.0, max_value=1e11))
    def test_bounded(self, gamma, gamma_star, kappa, g):
        value = indistinguishability_cavity(gamma, gamma_star, kappa, g)
        assert 0.0 <= value <= 1.0

    def test_decreasing_in_cavity_rate_small_g(self):
        values = [indistinguishability_cavity(GAMMA, GAMMA_STAR, k, 1e5)
                  for k in (1e7, 1e8, 1e9, 1e10)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_convention_invariance(self):
        # the formula is a ratio of rates: angular frequencies give the same value
        _, f_eff = effective_purcell(565.85, 0.224, 5.76, 1.7568)
        kappa = 2.106e11
        plain = (GAMMA, GAMMA_STAR, kappa, coupling_from_purcell(f_eff, kappa, GAMMA))
        angular = [2.0 * math.pi * rate for rate in plain]
        assert indistinguishability_cavity(*plain) == pytest.approx(
            indistinguishability_cavity(*angular), rel=1e-12)


class TestKappaThreshold:
    def test_90_percent_threshold(self):
        kappa = kappa_for_target_indistinguishability(GAMMA, GAMMA_STAR, 1e5, 0.9)
        # small-g closed form: kappa = gamma (1 - I)/I
        assert kappa == pytest.approx(GAMMA / 9.0, rel=1e-3)
        assert kappa == pytest.approx(124e6, rel=0.02)

    def test_half_target_is_the_emission_rate(self):
        kappa = kappa_for_target_indistinguishability(GAMMA, GAMMA_STAR, 1e5, 0.5)
        assert kappa == pytest.approx(GAMMA, rel=1e-3)

    def test_target_near_unity_needs_vanishing_kappa(self):
        kappa = kappa_for_target_indistinguishability(GAMMA, GAMMA_STAR, 1e5, 0.999)
        assert kappa < GAMMA / 500.0

    def test_unbracketed_target_rejected(self):
        # I at the bracket's low end, kappa = 1 Hz, is 1 - 9e-10: a target
        # above it lies outside the bracket
        with pytest.raises(PhotophysicsError, match="not bracketed"):
            kappa_for_target_indistinguishability(GAMMA, GAMMA_STAR, 1e5, 1.0 - 1e-10)


class TestCoupling:
    def test_weak_coupling_relation(self):
        g = coupling_from_purcell(4.07, 2.106e11, GAMMA)
        assert g == pytest.approx(math.sqrt(4.07 * 2.106e11 * GAMMA) / 2.0, rel=1e-12)

    def test_zero_purcell(self):
        assert coupling_from_purcell(0.0, 2.106e11, GAMMA) == 0.0

    def test_square_root_scaling(self):
        g1 = coupling_from_purcell(1.0, 2.106e11, GAMMA)
        g4 = coupling_from_purcell(4.0, 2.106e11, GAMMA)
        assert g4 == pytest.approx(2.0 * g1, rel=1e-12)

    def test_report_carries_both_conventions(self):
        report = coupling_report(4.07, 2.106e11, GAMMA)
        assert report["coupling_rate_angular_rad_per_s"] == pytest.approx(
            2 * math.pi * report["coupling_rate_plain_hz"], rel=1e-12)
        assert report["coupling_rate_angular_over_2pi_hz"] == pytest.approx(
            report["coupling_rate_plain_hz"], rel=1e-12)


class TestMapAndTypes:
    def test_map_shape_and_monotonicity(self):
        gs, kappas, grid = indistinguishability_map(
            GAMMA, GAMMA_STAR, coupling_range=(1e6, 1e12), cavity_range=(1e6, 1e12), points=12)
        assert grid.shape == (12, 12)
        assert np.all((grid >= 0.0) & (grid <= 1.0))
        # small-g rows: indistinguishability falls with cavity linewidth
        assert np.all(np.diff(grid[0]) < 0)

    @pytest.mark.parametrize("gamma_star", [GAMMA_STAR, 0.0, 1e8])
    def test_map_is_the_scalar_formula_bit_for_bit(self, gamma_star):
        gs, kappas, grid = indistinguishability_map(
            GAMMA, gamma_star, coupling_range=(1e3, 1e14), cavity_range=(1e3, 1e14),
            points=37)
        for i, g in enumerate(gs):
            for j, kappa in enumerate(kappas):
                scalar = indistinguishability_cavity(GAMMA, gamma_star, float(kappa), float(g))
                assert grid[i, j] == scalar, (i, j)

    def test_uncoupled_zero_linewidth_cavity_is_the_emitter_alone(self):
        # kappa = g = 0: nothing is recycled, and 0/0 must not appear
        assert indistinguishability_cavity(GAMMA, GAMMA_STAR, 0.0, 0.0) == 1.0
