import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spskit.specfit as specfit_module
from spskit.specfit import (
    FitError,
    MeasurementSeries,
    SeriesError,
    Sinc2Instrument,
    convolve_decay,
    correct_g2_background,
    cos2_model,
    fit_decay_with_irf,
    fit_g2,
    fit_lorentzian,
    fit_polarization,
    format_with_uncertainty,
    g2_model,
    lorentzian,
    lorentzian_with_instrument,
    read_series_csv,
    write_series_csv,
    zpl_fraction,
)


def series(x, y, kind="spectrum"):
    return MeasurementSeries(tuple(x), tuple(y), kind)


class TestSeriesValidation:
    def test_rejects_unsorted_x(self):
        with pytest.raises(SeriesError):
            series([1.0, 1.0, 2.0], [0, 0, 0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(SeriesError):
            series([1.0, 2.0], [0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(SeriesError):
            series([1.0, 2.0], [0.0, float("inf")])

    def test_rejects_unknown_kind(self):
        with pytest.raises(SeriesError):
            series([1.0, 2.0], [0.0, 0.0], "sideband")

    def test_csv_round_trip(self, tmp_path):
        s = series(np.linspace(0, 10, 21), np.arange(21.0), "decay")
        path = tmp_path / "series.csv"
        write_series_csv(path, s, "time_ps", "counts")
        back = read_series_csv(path)
        assert back.kind == "decay"
        assert np.allclose(back.x, s.x)
        assert np.allclose(back.y, s.y)


class TestLorentzianFit:
    def test_noisy_round_trip(self):
        rng = np.random.default_rng(11)
        x = np.linspace(540, 590, 301)
        y = lorentzian(x, 565.85, 5.76, 1000.0, 20.0)
        y = y + rng.normal(0.0, 10.0, x.size)  # ~1% of peak
        fit = fit_lorentzian(series(x, y))
        assert fit.params["center_nm"] == pytest.approx(565.85, abs=0.05)
        assert fit.params["fwhm_nm"] == pytest.approx(5.76, rel=0.02)
        assert fit.stderr["fwhm_nm"] > 0

    def test_too_few_samples_rejected(self):
        x = np.linspace(560, 570, 5)
        with pytest.raises(SeriesError, match="8 samples"):
            fit_lorentzian(series(x, lorentzian(x, 565.0, 2.0, 10.0)))

    def test_instrument_deconvolution_round_trip(self):
        # a 0.224 nm line behind a finite interferometer scan: fitting with
        # the kernel recovers the physical linewidth
        x = np.linspace(565.85 - 3.0, 565.85 + 3.0, 601)
        instrument = Sinc2Instrument(scan_range_per_nm=3.0)
        y = lorentzian_with_instrument(x, 565.85, 0.224, 1000.0, 0.0, instrument)
        fit = fit_lorentzian(series(x, y), instrument)
        assert fit.params["fwhm_nm"] == pytest.approx(0.224, rel=0.03)

    def test_instrument_broadens_plain_fit(self):
        x = np.linspace(565.85 - 3.0, 565.85 + 3.0, 601)
        instrument = Sinc2Instrument(scan_range_per_nm=3.0)
        y = lorentzian_with_instrument(x, 565.85, 0.224, 1000.0, 0.0, instrument)
        plain = fit_lorentzian(series(x, y))
        assert plain.params["fwhm_nm"] > 0.25

    def test_delta_like_instrument_matches_plain_fit(self):
        rng = np.random.default_rng(3)
        x = np.linspace(550, 580, 401)
        y = lorentzian(x, 566.0, 4.0, 500.0, 5.0) + rng.normal(0, 2.0, x.size)
        wide = fit_lorentzian(series(x, y), Sinc2Instrument(scan_range_per_nm=1e6))
        plain = fit_lorentzian(series(x, y))
        for key in ("center_nm", "fwhm_nm", "amplitude", "offset"):
            assert wide.params[key] == pytest.approx(plain.params[key], rel=1e-6)

    def test_delta_kernel_convolution_is_identity(self):
        x = np.linspace(560, 572, 801)
        clean = lorentzian(x, 566.0, 1.5, 123.0, 7.0)
        conv = lorentzian_with_instrument(x, 566.0, 1.5, 123.0, 7.0,
                                          Sinc2Instrument(scan_range_per_nm=1e9))
        assert np.max(np.abs(conv - clean)) < 1e-9 * 123.0

    def test_kernel_has_unit_weight(self):
        kern = Sinc2Instrument(scan_range_per_nm=2.5).kernel(0.01, 600)
        assert kern.sum() == pytest.approx(1.0, rel=1e-12)

    def test_nonconvergence_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(specfit_module, "MAX_ITERATIONS", 1)
        rng = np.random.default_rng(4)
        x = np.linspace(540, 590, 301)
        y = lorentzian(x, 565.85, 5.76, 1000.0, 20.0) + rng.normal(0, 10.0, x.size)
        with pytest.raises(FitError) as excinfo:
            fit_lorentzian(series(x, y))
        assert "center_nm" in excinfo.value.last_params

    @pytest.mark.parametrize("bounds", [None, ([0.0, 0.0], [np.inf, np.inf])])
    def test_budget_counts_every_residual_evaluation(self, monkeypatch, bounds):
        # the cap is MAX_ITERATIONS * (len(p0) + 1) evaluations, Jacobian
        # columns included, whichever scipy method runs the fit
        monkeypatch.setattr(specfit_module, "MAX_ITERATIONS", 2)
        x = np.linspace(0.0, 5.0, 50)
        y = 3.0 * np.exp(-x / 1.5)
        evaluations = []

        def model(xv, amp, tau):
            evaluations.append((amp, tau))
            return amp * np.exp(-xv / tau)

        with pytest.raises(FitError) as excinfo:
            specfit_module._run_fit(model, x, y, [0.5, 8.0], ["amp", "tau"], bounds=bounds)
        assert len(evaluations) == 2 * 3
        assert set(excinfo.value.last_params) == {"amp", "tau"}

    def test_report_has_parenthetical_format(self):
        rng = np.random.default_rng(11)
        x = np.linspace(540, 590, 301)
        y = lorentzian(x, 565.85, 5.76, 1000.0, 20.0) + rng.normal(0.0, 10.0, x.size)
        fit = fit_lorentzian(series(x, y))
        formatted = fit.as_dict()["formatted"]
        assert "(" in formatted["fwhm_nm"] and formatted["fwhm_nm"].endswith(")")


class TestUncertaintyFormat:
    @pytest.mark.parametrize("value,err,expected", [
        (897.3, 8.2, "897(8)"),
        (366.2, 19.0, "366(19)"),
        (565.851, 0.05, "565.85(5)"),
        (0.904, 0.009, "0.904(9)"),
        (1234.0, 160.0, "1230(160)"),
    ])
    def test_known_cases(self, value, err, expected):
        assert format_with_uncertainty(value, err) == expected

    def test_degenerate_error_falls_back(self):
        assert format_with_uncertainty(3.5, 0.0) == "3.5"


class TestDecayFit:
    def make_decay(self, lifetime, irf_fwhm=100.0, peak=8000.0, noise=True, seed=5):
        rng = np.random.default_rng(seed)
        t = np.arange(0.0, 10000.0, 8.0)
        irf = np.exp(-0.5 * ((t - 400.0) / (irf_fwhm / 2.3548)) ** 2)
        clean = peak * convolve_decay(t, lifetime, irf)
        counts = rng.poisson(clean).astype(float) if noise else clean
        return series(t, counts, "decay"), series(t, irf, "decay")

    def test_paper_lifetime_round_trip(self):
        decay, irf = self.make_decay(897.0)
        fit = fit_decay_with_irf(decay, irf)
        assert fit.params["lifetime_ps"] == pytest.approx(897.0, rel=0.02)

    def test_cavity_lifetime_round_trip(self):
        decay, irf = self.make_decay(366.0)
        fit = fit_decay_with_irf(decay, irf)
        assert fit.params["lifetime_ps"] == pytest.approx(366.0, rel=0.03)

    def test_delta_irf_noiseless_is_exact(self):
        t = np.arange(0.0, 6000.0, 10.0)
        irf = np.zeros_like(t)
        irf[0] = 1.0
        clean = 5000.0 * np.exp(-t / 750.0)
        fit = fit_decay_with_irf(series(t, clean, "decay"), series(t, irf, "decay"))
        assert fit.params["lifetime_ps"] == pytest.approx(750.0, rel=1e-6)

    def test_grid_scale_lifetime_warns(self):
        t = np.arange(0.0, 3000.0, 100.0)
        irf = np.zeros_like(t)
        irf[0] = 1.0
        clean = 5000.0 * np.exp(-t / 60.0)  # below the 100 ps bin width
        with pytest.warns(UserWarning, match="ill-conditioned"):
            fit = fit_decay_with_irf(series(t, clean, "decay"), series(t, irf, "decay"))
        assert fit.warnings

    def test_irf_resampled_onto_data_grid(self):
        decay, irf = self.make_decay(897.0)
        t_irf = np.asarray(irf.x)[::2]
        y_irf = np.asarray(irf.y)[::2]
        fit = fit_decay_with_irf(decay, series(t_irf, y_irf, "decay"))
        assert fit.params["lifetime_ps"] == pytest.approx(897.0, rel=0.03)


class TestG2Fit:
    def synthetic(self, anti, bunch, t1, t2=6000.0, baseline=140.0, noise=0.0, seed=2):
        rng = np.random.default_rng(seed)
        tau = np.linspace(-30000.0, 30000.0, 1201)
        g2 = g2_model(tau, anti, bunch, t1, t2) * baseline
        if noise:
            g2 = g2 + rng.normal(0.0, noise * baseline, tau.size)
        return series(tau, g2, "correlation")

    def test_free_space_dip(self):
        fit = fit_g2(self.synthetic(0.949, 0.0, 837.0, noise=0.004))
        assert fit.g2_zero == pytest.approx(0.051, abs=0.01)
        assert fit.antibunching_time_ps == pytest.approx(837.0, rel=0.05)
        assert fit.lifetime_proxy_ps == fit.antibunching_time_ps

    def test_cavity_dip(self):
        fit = fit_g2(self.synthetic(0.982, 0.0, 366.0, noise=0.003))
        assert fit.g2_zero == pytest.approx(0.018, abs=0.01)

    def test_perfect_antibunching(self):
        fit = fit_g2(self.synthetic(1.0, 0.0, 500.0))
        assert fit.g2_zero == pytest.approx(0.0, abs=1e-6)

    def test_identity_holds_exactly(self):
        fit = fit_g2(self.synthetic(0.9, 0.08, 700.0, noise=0.005))
        assert fit.g2_zero == 1.0 - fit.antibunching_amplitude + fit.bunching_amplitude

    def test_model_returns_to_unity_at_long_delay(self):
        fit = fit_g2(self.synthetic(0.9, 0.05, 700.0))
        far = g2_model(np.array([1e9]), fit.antibunching_amplitude,
                       fit.bunching_amplitude, fit.antibunching_time_ps,
                       fit.bunching_time_ps)
        assert far[0] == pytest.approx(1.0, abs=1e-9)

    def test_short_tails_rejected(self):
        tau = np.linspace(-500.0, 500.0, 9)
        g2 = g2_model(tau, 0.9, 0.0, 400.0, 5000.0)
        with pytest.raises(SeriesError, match="tails too short"):
            fit_g2(series(tau, g2, "correlation"))


class TestBackgroundCorrection:
    def test_infinite_snr_is_identity(self):
        assert correct_g2_background(0.37, math.inf) == pytest.approx(0.37, rel=1e-12)

    def test_hand_evaluated_example(self):
        # rho = 0.9: (0.5 - 0.19)/0.81
        assert correct_g2_background(0.5, 9.0) == pytest.approx(0.3827, abs=1e-4)

    def test_zero_snr_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            correct_g2_background(0.5, 0.0)

    def test_high_snr_correction_is_negligible(self):
        # for the measured dip the correction stays below 5e-5 once the
        # signal-to-noise ratio reaches the 4e4 class
        g2 = 0.018
        assert abs(correct_g2_background(g2, 4e4) - g2) < 5e-5

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-9),
           st.floats(min_value=0.0, max_value=1.5))
    def test_exact_inverse_of_mixing_map(self, rho, g2_true):
        snr = rho / (1.0 - rho)
        mixed = rho ** 2 * g2_true + (1.0 - rho ** 2)
        assert abs(correct_g2_background(mixed, snr) - g2_true) < 1e-9


class TestPolarizationFit:
    def test_paper_dop_round_trip(self):
        rng = np.random.default_rng(9)
        theta = np.linspace(0.0, 360.0, 73)
        dop = 0.904
        a = 900.0 * dop
        b = a * (1.0 - dop) / (2.0 * dop)
        y = cos2_model(theta, a, 37.0, b) + rng.normal(0.0, 1.5, theta.size)
        fit = fit_polarization(series(theta, y, "polarization"))
        assert fit.params["degree_of_polarization"] == pytest.approx(dop, rel=0.01)
        assert fit.params["axis_deg"] == pytest.approx(37.0, abs=1.0)

    def test_constant_signal_flags_flat(self):
        theta = np.linspace(0.0, 360.0, 37)
        fit = fit_polarization(series(theta, np.full_like(theta, 55.0), "polarization"))
        assert fit.params["degree_of_polarization"] == 0.0
        assert any("flat" in w for w in fit.warnings)

    def test_fully_polarized(self):
        theta = np.linspace(0.0, 270.0, 55)
        y = cos2_model(theta, 450.0, 120.0, 0.0)
        fit = fit_polarization(series(theta, y, "polarization"))
        assert fit.params["degree_of_polarization"] == pytest.approx(1.0, abs=1e-6)

    def test_short_span_rejected(self):
        theta = np.linspace(0.0, 120.0, 25)
        with pytest.raises(SeriesError, match="180"):
            fit_polarization(series(theta, np.cos(theta) ** 2, "polarization"))


class TestZplFraction:
    def make_spectrum(self, zpl_share=0.632):
        # line at 565.85 plus a red-shifted band carrying the rest
        x = np.linspace(545.0, 579.0, 681)
        zpl_fwhm = 5.76
        zpl_area_target = 100.0 * zpl_share
        # area of peak-normalized Lorentzian = amplitude * pi * fwhm / 2
        amp = zpl_area_target / (math.pi * zpl_fwhm / 2.0)
        y = lorentzian(x, 565.85, zpl_fwhm, amp)
        psb_area = 100.0 - zpl_area_target
        psb_amp = psb_area / (math.pi * 6.0 / 2.0)
        y = y + lorentzian(x, 573.5, 6.0, psb_amp)
        return series(x, y), {"center_nm": 565.85, "fwhm_nm": zpl_fwhm, "amplitude": amp}

    def test_split_spectrum(self):
        spect, params = self.make_spectrum(0.632)
        frac = zpl_fraction(spect, params, band=(545.0, 579.0))
        # both lines lose tail weight outside the band; the split survives
        assert frac == pytest.approx(0.632, abs=0.03)

    def test_pure_line_is_unity(self):
        x = np.linspace(500.0, 640.0, 1401)
        amp = 100.0
        y = lorentzian(x, 565.85, 5.76, amp)
        frac = zpl_fraction(series(x, y), {"center_nm": 565.85, "fwhm_nm": 5.76,
                                           "amplitude": amp}, band=(500.0, 640.0))
        assert frac == pytest.approx(1.0, abs=0.02)

    def test_band_excluding_line_is_near_zero(self):
        spect, params = self.make_spectrum()
        frac = zpl_fraction(spect, params, band=(572.0, 579.0))
        assert frac < 0.25

    def test_empty_band_rejected(self):
        spect, params = self.make_spectrum()
        with pytest.raises(SeriesError, match="empty"):
            zpl_fraction(spect, params, band=(579.0, 572.0))

    def test_default_band_uses_contaminant_cutoff(self):
        spect, params = self.make_spectrum(0.632)
        frac = zpl_fraction(spect, params)
        assert 0.5 < frac < 0.75
