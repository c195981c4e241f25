import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spskit import pipeline, qkd
from spskit.cli import main
from spskit.config import apply_overrides, default_scenario
from spskit.constants import transmittance_to_db
from spskit.qkd import (
    ChannelModel,
    DetectorModel,
    NoCrossingError,
    NoPositiveRateError,
    QkdError,
    SourceModel,
    beam_diameter_m,
    binary_entropy,
    calibrate_divergence_half_angle,
    channel_transmittance,
    effective_rate,
    find_crossing,
    ideal_sps,
    optimize_mu,
    sweep,
)
from test_config_cli import _assert_validation_error

REAL_SPS = SourceModel(kind="real_sps", mean_photons=0.513, g2_zero=0.018)
WCS = SourceModel(kind="wcs", mean_photons=0.5, mu_mode="optimal")
DECOY = SourceModel(kind="decoy", mean_photons=0.5, mu_mode="optimal")
# the links of the default scenario: fiber loss, telescopes and the emitter's line
FIBER = ChannelModel(kind="fiber", attenuation_db_per_km=0.21, transmit_aperture_m=0.05,
                     receive_aperture_m=0.60, wavelength_nm=565.85,
                     divergence_model="gaussian_farfield", divergence_half_angle_rad=None)
FREESPACE = FIBER._replace(kind="freespace")
# the Gobby-Yuan-Shields fiber receiver, which the default scenario follows
GYS_DETECTOR = DetectorModel(receiver_efficiency=0.045, dark_count_per_pulse=1.7e-6,
                             misalignment_error=0.033, error_correction_inefficiency=1.22,
                             sifting_factor=0.5)


def reference_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def reference_rate(source: SourceModel, t: float, detector: DetectorModel,
                   mu: float) -> float:
    """The key rate at one transmittance in plain Python floats, branch by
    branch: the scalar formula the array-valued ``_rates`` replaced."""
    eta = detector.receiver_efficiency
    y0 = detector.dark_count_per_pulse
    e_det = detector.misalignment_error
    f_ec = detector.error_correction_inefficiency
    q_sift = detector.sifting_factor
    link = t * eta

    if source.kind in ("ideal_sps", "real_sps"):
        gain = y0 + mu * link
        g2 = 0.0 if source.kind == "ideal_sps" else source.g2_zero
        p_multi = g2 * mu ** 2 / 2.0
    else:
        gain = 1.0 - (1.0 - y0) * math.exp(-mu * link)
        p_multi = 1.0 - math.exp(-mu) * (1.0 + mu)

    if gain <= 0.0:
        return 0.0
    qber = min((0.5 * y0 + e_det * mu * link) / gain, 0.5)

    if source.kind == "decoy":
        y1 = y0 + link
        e1 = (0.5 * y0 + e_det * link) / y1
        raw = q_sift * (-gain * f_ec * reference_entropy(qber)
                        + mu * math.exp(-mu) * y1 * (1.0 - reference_entropy(min(e1, 0.5))))
        return max(raw, 0.0)

    untagged = (gain - p_multi) / gain
    if untagged <= 0.0:
        return 0.0
    phase_error = qber / untagged
    if phase_error >= 0.5:
        return 0.0
    raw = q_sift * gain * (untagged * (1.0 - reference_entropy(phase_error))
                           - f_ec * reference_entropy(qber))
    return max(raw, 0.0)


def reference_golden_mu(source: SourceModel, t: float, detector: DetectorModel,
                        mu_max: float = 1.5, tol: float = 1e-5) -> float:
    """Scalar golden-section search for the best intensity at one
    transmittance; NaN when no intensity gives a positive rate."""
    def rate_of(mu):
        return float(qkd._rates(source, t, detector, mu))

    grid = np.logspace(-6, math.log10(mu_max), 120)
    values = qkd._rates(source, t, detector, grid).tolist()  # elementwise pre-scan
    best = int(np.argmax(values))
    if values[best] <= 0.0:
        return math.nan
    lo = grid[best - 1] if best > 0 else grid[0] * 0.5
    hi = grid[best + 1] if best < len(grid) - 1 else mu_max
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = rate_of(c), rate_of(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = rate_of(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = rate_of(d)
    return 0.5 * (lo + hi)


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_and_midpoint_elementwise(self):
        h = binary_entropy(np.array([[0.0, 0.5], [1.0, 0.5]]))
        assert isinstance(h, np.ndarray) and h.shape == (2, 2)
        assert h.tolist() == [[0.0, 1.0], [0.0, 1.0]]
        assert isinstance(binary_entropy(0.25), float)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-0.5, max_value=1.5), min_size=1, max_size=20))
    def test_elementwise_matches_scalar(self, xs):
        h = binary_entropy(np.array(xs))
        for x, value in zip(xs, h):
            assert value == pytest.approx(reference_entropy(x), rel=1e-12, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry_and_bounds(self, x):
        h = binary_entropy(x)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


class TestChannels:
    def test_fiber_loss_at_42_km(self):
        t = channel_transmittance(FIBER, 42.0)
        assert t == pytest.approx(10 ** (-0.882), rel=1e-12)
        assert -10 * math.log10(t) == pytest.approx(8.82, abs=1e-9)

    def test_zero_distance_is_transparent(self):
        for channel in (FIBER, FREESPACE):
            assert channel_transmittance(channel, 0.0) == 1.0

    @pytest.mark.parametrize("model", ["gaussian_farfield", "friis"])
    def test_zero_distance_takes_the_formula_of_any_distance(self, model):
        # a receiver smaller than the transmitter loses light at 0 km too
        channel = FREESPACE._replace(receive_aperture_m=0.01, divergence_model=model)
        assert channel_transmittance(channel, 0.0) == pytest.approx(
            channel_transmittance(channel, 1e-9), rel=1e-6)

    def test_friis_beam_is_no_narrower_than_the_transmitter(self):
        # the far-field diameter 4 lam L / (pi Dt) stays below Dr out to
        # pi Dt Dr / (4 lam) = 0.69 km; floored at Dt, the beam gives (Dr/Dt)^2
        channel = FREESPACE._replace(receive_aperture_m=0.01, divergence_model="friis")
        for distance in (0.0, 0.5, 0.69):
            assert channel_transmittance(channel, distance) == pytest.approx(
                (0.01 / 0.05) ** 2, abs=1e-12)

    def test_gaussian_farfield_puts_882_db_near_115_km(self):
        channel = FREESPACE._replace(divergence_model="gaussian_farfield")
        lo, hi = 1.0, 5000.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            loss = -10 * math.log10(channel_transmittance(channel, mid))
            if loss < 8.82:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(115.0, abs=5.0)

    def test_calibrated_model_pins_loss_to_distance(self):
        theta = calibrate_divergence_half_angle(0.05, 0.60, 8.82, 630.0)
        channel = FREESPACE._replace(divergence_model="calibrated",
                                     divergence_half_angle_rad=theta)
        loss = -10 * math.log10(channel_transmittance(channel, 630.0))
        assert loss == pytest.approx(8.82, abs=1e-9)

    def test_friis_model_decreases_with_distance(self):
        channel = FREESPACE._replace(divergence_model="friis")
        ts = [channel_transmittance(channel, d) for d in (50, 200, 800)]
        assert ts[0] > ts[1] > ts[2]

    def test_beam_spreads_with_distance(self):
        assert beam_diameter_m(FREESPACE, 500.0) > beam_diameter_m(FREESPACE, 50.0)

    def test_validation(self, tmp_path, capsys):
        with pytest.raises(QkdError, match="calibrated model needs"):
            channel_transmittance(FREESPACE._replace(divergence_model="calibrated"), 10.0)
        for key, value in (("channel", "microwave"), ("attenuation_db_per_km", 0.0)):
            _assert_validation_error(
                ["--outdir", str(tmp_path), "--set", f"qkd.{key}={value}", "qkd"], capsys,
                f"[qkd] {key}")

    def test_unknown_kind_and_divergence_model_are_named(self):
        # a library caller passes what config.SCHEMA's choices keep from the CLI
        with pytest.raises(QkdError, match="got 'satellite'"):
            channel_transmittance(FREESPACE._replace(kind="satellite"), 10.0)
        misspelled = FREESPACE._replace(divergence_model="calibrate",
                                        divergence_half_angle_rad=1e-5)
        with pytest.raises(QkdError, match="unknown divergence_model 'calibrate'"):
            channel_transmittance(misspelled, 10.0)
        with pytest.raises(QkdError, match="unknown divergence_model 'calibrate'"):
            beam_diameter_m(misspelled, 10.0)


class TestKeyRate:
    def test_lossless_noiseless_ideal_source(self):
        detector = DetectorModel(receiver_efficiency=1.0, dark_count_per_pulse=0.0,
                                 misalignment_error=0.0,
                                 error_correction_inefficiency=1.0, sifting_factor=0.5)
        rate = effective_rate(ideal_sps(), FIBER, detector, 0.0)
        assert rate == pytest.approx(0.5, rel=1e-12)

    def test_dark_count_dominated_cutoff(self):
        # deep loss: errors pinned at 1/2 by dark counts, no key
        assert effective_rate(REAL_SPS, FIBER, GYS_DETECTOR, 400.0) == 0.0

    def test_unit_efficiency_zero_g2_equals_ideal(self):
        tuned = SourceModel(kind="real_sps", mean_photons=1.0, g2_zero=0.0)
        for d in (0.0, 10.0, 30.0, 60.0, 120.0):
            assert effective_rate(tuned, FIBER, GYS_DETECTOR, d) == pytest.approx(
                effective_rate(ideal_sps(), FIBER, GYS_DETECTOR, d), rel=1e-12)

    def test_rates_monotone_non_increasing(self):
        distances = np.linspace(0.0, 150.0, 151)
        for source in (REAL_SPS, ideal_sps(), WCS, DECOY):
            rates = [effective_rate(source, FIBER, GYS_DETECTOR, d) for d in distances]
            assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:])), source.kind

    def test_ideal_dominates_real(self):
        for d in np.linspace(0.0, 150.0, 76):
            assert effective_rate(ideal_sps(), FIBER, GYS_DETECTOR, d) >= \
                effective_rate(REAL_SPS, FIBER, GYS_DETECTOR, d) - 1e-15


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + 1e-15


class TestArrayRates:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(qkd.SOURCE_KINDS),
        g2=st.floats(0.0, 1.0),
        eta=st.floats(1e-3, 1.0),
        y0=st.floats(1e-6, 1e-3),
        e_det=st.floats(0.0, 0.2),
        f_ec=st.floats(1.0, 1.6),
        q_sift=st.floats(0.05, 1.0),
        ts=st.lists(st.floats(1e-12, 1.0), min_size=1, max_size=8),
        mus=st.lists(st.floats(1e-6, 1.5), min_size=1, max_size=8),
    )
    def test_matches_scalar_reference(self, kind, g2, eta, y0, e_det, f_ec, q_sift, ts, mus):
        source = SourceModel(kind=kind, mean_photons=min(mus[0], 1.0), g2_zero=g2)
        detector = DetectorModel(receiver_efficiency=eta, dark_count_per_pulse=y0,
                                 misalignment_error=e_det,
                                 error_correction_inefficiency=f_ec, sifting_factor=q_sift)
        got = qkd._rates(source, np.array(ts)[:, None], detector, np.array(mus))
        assert got.shape == (len(ts), len(mus))
        for i, t in enumerate(ts):
            for j, mu in enumerate(mus):
                assert _close(got[i, j], reference_rate(source, t, detector, mu)), (kind, t, mu)

    @pytest.mark.parametrize("kind", qkd.SOURCE_KINDS)
    def test_dark_channel(self, kind):
        # no link and no dark counts: zero gain, the clamped branch
        detector = GYS_DETECTOR._replace(receiver_efficiency=0.0, dark_count_per_pulse=0.0)
        source = SourceModel(kind=kind, mean_photons=0.5, g2_zero=0.018, mu_mode="optimal")
        got = qkd._rates(source, np.array([0.5, 1.0]), detector, 0.5)
        assert got.tolist() == [0.0, 0.0]
        assert reference_rate(source, 0.5, detector, 0.5) == 0.0

    def test_scalar_wrapper_returns_floats(self):
        rate = effective_rate(REAL_SPS, FIBER, GYS_DETECTOR, 20.0)
        assert type(rate) is float
        ref = reference_rate(REAL_SPS, channel_transmittance(FIBER, 20.0),
                             GYS_DETECTOR, REAL_SPS.mean_photons)
        assert _close(rate, ref)


class TestLockstepMu:
    @pytest.mark.parametrize("channel", [FIBER, FREESPACE], ids=["fiber", "freespace"])
    def test_sweep_mu_bit_equal_to_scalar_golden_section(self, channel):
        # the default sweep grid, 0:100:0.5 km
        distances = np.arange(0.0, 100.25, 0.5)
        rows = sweep({"wcs": WCS, "decoy": DECOY}, channel, GYS_DETECTOR, distances)
        for row in rows:
            t = channel_transmittance(channel, row["distance_km"])
            for label, source in (("wcs", WCS), ("decoy", DECOY)):
                expected = reference_golden_mu(source, t, GYS_DETECTOR)
                got = row[f"mu_{label}"]
                assert got == expected or (math.isnan(got) and math.isnan(expected)), \
                    (label, row["distance_km"], got, expected)
                if math.isnan(got):
                    assert row[f"rate_{label}"] == 0.0

    def test_scalar_optimize_mu_is_the_lockstep_search(self):
        ts = [channel_transmittance(FIBER, d) for d in (0.0, 17.0, 42.0, 90.0)]
        mus, rates = qkd._optimal_mu(DECOY, ts, GYS_DETECTOR)
        for d, mu, rate in zip((0.0, 17.0, 42.0, 90.0), mus, rates):
            assert optimize_mu(DECOY, FIBER, GYS_DETECTOR, d) == (mu, rate)

    def test_empty_transmittance_array(self):
        mus, rates = qkd._optimal_mu(WCS, [], GYS_DETECTOR)
        assert mus.shape == rates.shape == (0,)
        assert len(sweep({"wcs": WCS}, FIBER, GYS_DETECTOR, [])) == 0


class TestMuOptimization:
    @pytest.mark.parametrize("source,distance", [
        (WCS, 10.0), (WCS, 30.0), (DECOY, 10.0), (DECOY, 42.0)])
    def test_matches_brute_force_grid(self, source, distance):
        mu_star, rate_star = optimize_mu(source, FIBER, GYS_DETECTOR, distance)
        grid = np.linspace(1e-6, 1.5, 10000)
        rates = qkd._rates(source, channel_transmittance(FIBER, distance), GYS_DETECTOR, grid)
        assert rate_star >= rates.max() - 1e-12

    def test_decoy_optimum_insensitive_to_distance(self):
        mus = [optimize_mu(DECOY, FIBER, GYS_DETECTOR, d)[0] for d in (5.0, 25.0, 60.0)]
        assert max(mus) - min(mus) < 0.1 * max(mus)
        assert all(0.3 < m < 0.7 for m in mus)

    def test_wcs_optimum_tracks_link_transmittance(self):
        # heavier loss pushes the optimal pulse intensity down
        mus = [optimize_mu(WCS, FIBER, GYS_DETECTOR, d)[0] for d in (5.0, 20.0, 35.0)]
        assert mus[0] > mus[1] > mus[2]

    def test_noiseless_decoy_peaks_at_unit_intensity(self):
        detector = DetectorModel(receiver_efficiency=1.0, dark_count_per_pulse=0.0,
                                 misalignment_error=0.0,
                                 error_correction_inefficiency=1.0, sifting_factor=0.5)
        mu_star, _ = optimize_mu(DECOY, FIBER, detector, 0.0)
        # rate reduces to mu e^(-mu) Y1: the optimum sits at mu = 1
        assert mu_star == pytest.approx(1.0, abs=1e-3)

    def test_no_positive_rate_raises(self):
        with pytest.raises(NoPositiveRateError, match="no positive rate"):
            optimize_mu(WCS, FIBER, GYS_DETECTOR, 300.0)

    def test_sps_sources_rejected(self):
        with pytest.raises(QkdError):
            optimize_mu(REAL_SPS, FIBER, GYS_DETECTOR, 10.0)


class TestCrossing:
    def test_real_vs_decoy_crossing_exists_and_loss_is_linear(self):
        report = find_crossing(REAL_SPS, DECOY, FIBER, GYS_DETECTOR, (1.0, 120.0))
        assert report.keys() == {"distance_km", "loss_db", "rate"}
        assert report["loss_db"] == pytest.approx(
            report["distance_km"] * 0.21, abs=1e-9)
        # the tagged-states bound puts the crossing in the mid-20s km
        assert 15.0 < report["distance_km"] < 35.0
        assert report["rate"] > 0.0

    def test_ideal_never_crossed_by_real(self):
        with pytest.raises(NoCrossingError, match="no crossing"):
            find_crossing(ideal_sps(), REAL_SPS, FIBER, GYS_DETECTOR, (1.0, 150.0))

    def test_crossing_loss_matches_fiber_and_freespace(self):
        # the rate formulas see only the transmittance, so the crossing
        # loss in dB is channel-shape independent
        fiber_report = find_crossing(REAL_SPS, DECOY, FIBER, GYS_DETECTOR, (1.0, 120.0))
        theta = calibrate_divergence_half_angle(0.05, 0.60, 8.82, 630.0)
        space = FREESPACE._replace(divergence_model="calibrated",
                                   divergence_half_angle_rad=theta)
        space_report = find_crossing(REAL_SPS, DECOY, space, GYS_DETECTOR, (10.0, 1500.0))
        assert space_report["loss_db"] == pytest.approx(fiber_report["loss_db"], abs=0.02)

    def test_bad_interval_rejected(self):
        with pytest.raises(QkdError):
            find_crossing(REAL_SPS, DECOY, FIBER, GYS_DETECTOR, (50.0, 10.0))

    @pytest.mark.parametrize("channel", [FIBER, FREESPACE], ids=["fiber", "freespace"])
    def test_negative_distance_rejected(self, channel):
        # each function that takes a distance rejects a negative one
        with pytest.raises(QkdError, match="non-negative"):
            sweep({"wcs": WCS}, channel, GYS_DETECTOR, [-1.0, 0.0])
        with pytest.raises(QkdError, match="non-negative"):
            effective_rate(REAL_SPS, channel, GYS_DETECTOR, -1.0)
        with pytest.raises(QkdError, match="non-negative"):
            beam_diameter_m(channel, -1.0)
        with pytest.raises(QkdError, match="non-negative"):
            find_crossing(REAL_SPS, DECOY, channel, GYS_DETECTOR, (-5.0, 10.0))

    @pytest.mark.parametrize("tol_km", [0.0, 1e-15])
    def test_tolerance_below_the_float_spacing_ends(self, monkeypatch, tol_km):
        # floats near 24.5 km are 3.6e-15 km apart: the bisection must stop
        # once its ends are adjacent, not repeat the same midpoint forever
        real_rates, calls = qkd._effective_rates, []

        def counted(source, t, detector):
            calls.append(source)
            if len(calls) > 200:
                raise RuntimeError("find_crossing keeps evaluating")
            return real_rates(source, t, detector)

        monkeypatch.setattr(qkd, "_effective_rates", counted)
        monkeypatch.setattr(qkd, "CROSSING_TOL_KM", tol_km)
        report = find_crossing(REAL_SPS, DECOY, FIBER, GYS_DETECTOR, (1.0, 120.0))
        assert report["distance_km"] == 24.536431234941126


def sequential_crossing(source_a, source_b, channel, detector, interval, tol_km):
    """The crossing as found by the array scan of ``find_crossing``, then
    bisecting one distance at a time, each step through the scalar
    ``effective_rate``: what ``find_crossing`` must reproduce bit for bit."""
    lo, hi = interval
    grid = np.linspace(lo, hi, 200)
    t = [channel_transmittance(channel, d) for d in grid]
    values = (qkd._effective_rates(source_a, t, detector)[1]
              - qkd._effective_rates(source_b, t, detector)[1]).tolist()
    prev = None
    for i, v in enumerate(values):
        if v == 0.0:
            continue
        if prev is not None and values[prev] * v < 0:
            a, b = grid[prev], grid[i]
            break
        prev = i

    def diff(d):
        return (effective_rate(source_a, channel, detector, d)
                - effective_rate(source_b, channel, detector, d))

    fa = diff(a)
    while b - a > tol_km:
        m = 0.5 * (a + b)
        fm = diff(m)
        if fm != 0.0 and (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    d = 0.5 * (a + b)
    return (float(d), transmittance_to_db(channel_transmittance(channel, d)),
            effective_rate(source_a, channel, detector, d))


CALIBRATED_SPACE = FREESPACE._replace(
    divergence_model="calibrated",
    divergence_half_angle_rad=calibrate_divergence_half_angle(0.05, 0.60, 8.82, 630.0))


class TestCrossingExactness:
    """The lockstep bisection levels give the sequential bisection's bits."""

    @pytest.mark.parametrize("tol_km", [1e-1, 1e-3, 1e-6])
    @pytest.mark.parametrize("channel,source_b,interval", [
        (FIBER, DECOY, (1.0, 120.0)),
        (FIBER, WCS, (1.0, 120.0)),
        (FIBER, DECOY, (20.0, 200.0)),
        (CALIBRATED_SPACE, DECOY, (10.0, 1500.0)),
        (CALIBRATED_SPACE, WCS, (300.0, 700.0)),
        (FREESPACE, DECOY, (10.0, 1500.0)),
    ], ids=["fiber-decoy", "fiber-wcs", "fiber-decoy-far", "space-decoy", "space-wcs",
            "farfield-decoy"])
    def test_same_bits_as_sequential(self, monkeypatch, channel, source_b, interval, tol_km):
        monkeypatch.setattr(qkd, "CROSSING_TOL_KM", tol_km)
        report = find_crossing(REAL_SPS, source_b, channel, GYS_DETECTOR, interval)
        expected = sequential_crossing(REAL_SPS, source_b, channel, GYS_DETECTOR, interval,
                                       tol_km)
        assert (report["distance_km"], report["loss_db"], report["rate"]) == expected

    @pytest.mark.parametrize("tol_km", [1e-1, 1e-3, 1e-6])
    @pytest.mark.parametrize("sources", [(REAL_SPS, DECOY), (DECOY, REAL_SPS)],
                             ids=["real-first", "decoy-first"])
    def test_clamped_zero_differences_in_the_bracket(self, monkeypatch, sources, tol_km):
        # both rates clamped to zero from 20 to 26 km, past the 24.5 km
        # crossing: the scan brackets the zeros, and bisection must treat
        # each zero midpoint as the far side, as one step at a time does
        real_rates = qkd._effective_rates
        near, far = (channel_transmittance(FIBER, d) for d in (20.0, 26.0))

        def clamped(source, t, detector):
            t = np.asarray(t, dtype=float)
            mu, rate = real_rates(source, t, detector)
            return mu, np.where((t < near) & (t > far), 0.0, rate)

        monkeypatch.setattr(qkd, "_effective_rates", clamped)
        monkeypatch.setattr(qkd, "CROSSING_TOL_KM", tol_km)
        report = find_crossing(*sources, FIBER, GYS_DETECTOR, (1.0, 120.0))
        expected = sequential_crossing(*sources, FIBER, GYS_DETECTOR, (1.0, 120.0), tol_km)
        assert (report["distance_km"], report["loss_db"], report["rate"]) == expected
        assert report["distance_km"] == pytest.approx(20.0, abs=tol_km)


class TestGoldenCrossings:
    def test_default_fiber_crossings(self, tmp_path):
        """The default ``qkd`` run's crossing report, pinned to 1e-12
        relative against values recorded when each crossing was a record."""
        gold = json.loads((Path(__file__).parent / "golden_optics.json").read_text())
        assert main(["--outdir", str(tmp_path), "qkd"]) == 0
        crossings = json.loads((tmp_path / "qkd_crossings.json").read_text())["crossings"]
        assert crossings.keys() == gold["qkd_fiber_crossings"].keys()
        for label, expected in gold["qkd_fiber_crossings"].items():
            assert crossings[label].keys() == expected.keys(), label
            for key, value in expected.items():
                assert crossings[label][key] == pytest.approx(value, rel=1e-12), (label, key)


class TestSweep:
    def test_row_columns_and_count(self):
        rows = sweep({"sps": REAL_SPS, "decoy": DECOY}, FIBER, GYS_DETECTOR,
                     np.arange(0.0, 50.5, 10.0))
        assert len(rows) == 6
        assert set(rows.dtype.names) == {"distance_km", "loss_db", "rate_sps", "rate_decoy",
                                         "mu_sps", "mu_decoy"}
        assert rows[1]["loss_db"] == pytest.approx(2.1)

    def test_dead_zone_reports_nan_mu(self):
        rows = sweep({"wcs": WCS}, FIBER, GYS_DETECTOR, [250.0])
        assert rows[0]["rate_wcs"] == 0.0
        assert math.isnan(rows[0]["mu_wcs"])


class TestValidation:
    def test_source_model(self, tmp_path, capsys):
        with pytest.raises(QkdError, match="kind must be one of"):
            effective_rate(SourceModel(kind="laser", mean_photons=0.513), FIBER, GYS_DETECTOR,
                           0.0)
        for key, value in (("source_efficiency", 1.2), ("g2_zero", 1.5), ("mu_fixed", 0.0)):
            _assert_validation_error(
                ["--outdir", str(tmp_path), "--set", f"qkd.{key}={value}", "qkd"], capsys,
                f"[qkd] {key}")

    def test_detector_model(self, tmp_path, capsys):
        for key, value in (("error_correction_inefficiency", 0.9),
                           ("receiver_efficiency", 1.2)):
            _assert_validation_error(
                ["--outdir", str(tmp_path), "--set", f"qkd.{key}={value}", "qkd"], capsys,
                f"[qkd] {key}")


class TestModelsFromTheScenario:
    """``pipeline.qkd_models`` builds each model from the scenario, with no
    value of its own."""

    # each key the models read, off its config.SCHEMA default
    OFF_DEFAULT = {
        "qkd.source_efficiency": 0.7, "qkd.g2_zero": 0.03, "qkd.attenuation_db_per_km": 0.3,
        "qkd.receiver_efficiency": 0.1, "qkd.dark_count_per_pulse": 2e-6,
        "qkd.misalignment_error": 0.02, "qkd.error_correction_inefficiency": 1.1,
        "qkd.sifting_factor": 0.6, "qkd.mu_mode": "fixed", "qkd.mu_fixed": 0.4,
        "qkd.transmit_aperture_m": 0.1, "qkd.receive_aperture_m": 1.2,
        "qkd.calibration_loss_db": 10.0, "qkd.calibration_distance_km": 500.0,
        "emitter.zpl_wavelength_nm": 600.0,
    }

    @pytest.mark.parametrize("channel,model", [
        ("fiber", None), ("freespace", "gaussian_farfield"), ("freespace", "friis"),
        ("freespace", "calibrated")])
    def test_every_model_carries_the_scenario_values(self, channel, model):
        scenario = default_scenario()
        apply_overrides(scenario, [f"{key}={value}" for key, value in self.OFF_DEFAULT.items()])
        detector, link, sources = pipeline.qkd_models(scenario, channel, model)
        assert detector == DetectorModel(
            receiver_efficiency=0.1, dark_count_per_pulse=2e-6, misalignment_error=0.02,
            error_correction_inefficiency=1.1, sifting_factor=0.6)
        half_angle = (calibrate_divergence_half_angle(0.1, 1.2, 10.0, 500.0)
                      if model == "calibrated" else None)
        assert link == ChannelModel(
            kind=channel, attenuation_db_per_km=0.3, transmit_aperture_m=0.1,
            receive_aperture_m=1.2, wavelength_nm=600.0, divergence_model=model,
            divergence_half_angle_rad=half_angle)
        assert sources == {
            "sps": SourceModel(kind="real_sps", mean_photons=0.7, g2_zero=0.03),
            "ideal": ideal_sps(),
            "wcs": SourceModel(kind="wcs", mean_photons=0.4, mu_mode="fixed"),
            "decoy": SourceModel(kind="decoy", mean_photons=0.4, mu_mode="fixed"),
        }
