import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

import spskit.reproduce as reproduce_module
import spskit.specfit as specfit_module
from spskit.reproduce import (
    RNG_SEED,
    fit_roundtrip_draw,
    fit_roundtrip_fits,
    fit_roundtrip_summary,
)
from spskit.specfit import (
    FitError,
    FitResult,
    MeasurementSeries,
    SeriesError,
    Sinc2Instrument,
    convolve_decay,
    correct_g2_background,
    cos2_model,
    fit_decay_with_irf,
    fit_g2,
    fit_g2_batch,
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


def reference_decay(t, lifetime, irf):
    """The IRF convolution as a direct sum over the exponential's samples."""
    return np.convolve(irf / irf.sum(), np.exp(-(t - t[0]) / lifetime))[: len(t)]


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

    def test_series_holds_read_only_arrays(self):
        s = series([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        x, y = s.as_arrays()
        assert x.dtype == y.dtype == np.float64
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_only_an_immutable_grid_is_held_without_a_copy(self):
        # a read-only view can alias a writeable base: that x is copied
        base = np.linspace(0.0, 1.0, 5)
        view = base.view()
        view.flags.writeable = False
        held = MeasurementSeries(view, base).x
        base[0] = -1.0
        assert held[0] == 0.0 and held is not view
        frozen = np.frombuffer(np.linspace(0.0, 1.0, 5).tobytes())
        assert MeasurementSeries(frozen, frozen).x is frozen
        draw = fit_roundtrip_draw(np.random.default_rng(RNG_SEED))
        assert draw["decay"][0].x is draw["decay"][1].x is reproduce_module.DECAY_GRID
        assert draw["correlation"][0].x is reproduce_module.DELAY_GRID

    def test_uniform_grid_allows_csv_rounding_only(self):
        t = np.linspace(0.0, 12288.0, 8192)
        rounded = np.array([float(f"{v:.10g}") for v in t])
        assert specfit_module._uniform_spacing(rounded, "test") == pytest.approx(12288.0 / 8191)
        jittered = t + 1e-4 * 1.5 * np.random.default_rng(2).uniform(-1.0, 1.0, t.size)
        with pytest.raises(SeriesError, match="uniform"):
            specfit_module._uniform_spacing(jittered, "test")

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
        # columns included, bounded or not
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

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 8192), log_ratio=st.floats(math.log(0.01), math.log(5000.0)),
           dt=st.floats(0.5, 50.0), lead=st.floats(0.0, 0.5), trail=st.floats(0.0, 0.49),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=8192, log_ratio=math.log(5000.0), dt=16.0, lead=0.0, trail=0.0, seed=1)
    @example(n=8192, log_ratio=math.log(0.01), dt=16.0, lead=0.3, trail=0.3, seed=2)
    @example(n=257, log_ratio=math.log(8.0), dt=1.0, lead=0.0, trail=0.2, seed=3)
    def test_recursion_matches_direct_convolution(self, n, log_ratio, dt, lead, trail, seed):
        # tau/dt from 0.01 to 5000: blocks from one sample to 256, whose
        # boundaries fall inside the longer series
        rng = np.random.default_rng(seed)
        t = dt * np.arange(n)
        irf = rng.random(n)
        irf[: int(lead * n)] = 0.0
        irf[n - int(trail * n):] = 0.0 if int(trail * n) else irf[n:]
        lifetime = dt * math.exp(log_ratio)
        expected = reference_decay(t, lifetime, irf)
        got = convolve_decay(t, lifetime, irf)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
        # a row of a stack, beside rows of other lifetimes, is the single call
        other = rng.random(n)
        stack = convolve_decay(t, np.array([[3.0 * lifetime], [lifetime], [lifetime / 7.0]]),
                               np.stack([other, irf, other]))
        assert np.array_equal(stack[1], got)

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

    def test_successive_batches_on_other_grids_fit_as_alone(self):
        # two grids of one length and span with the same starting times (a
        # dip faster than the sampling starts at span/200): an exponential
        # computed on one grid must never serve the other
        u = np.linspace(-1.0, 1.0, 1201)
        grids = [30000.0 * u, 30000.0 * np.sinh(2.0 * u) / np.sinh(2.0)]
        noise = np.random.default_rng(4).uniform(-0.01, 0.01, u.size)
        a, b = (series(tau, g2_model(tau, 0.9, 0.05, 50.0, 6000.0) + noise, "correlation")
                for tau in grids)
        starts = [specfit_module._g2_start(s, 0.25, 8)[3] for s in (a, b)]
        assert starts[0][2:4] == starts[1][2:4]
        fit_b = fit_g2_batch([b])
        assert fit_g2_batch([b]) == fit_b
        fit_a = fit_g2_batch([a])
        assert fit_g2_batch([b]) == fit_b
        assert fit_g2_batch([a]) == fit_a
        assert fit_g2_batch([a, b]) == fit_a + fit_b

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

    def test_axis_starting_at_zero(self):
        # the brightest sample sits at 0 degrees, so the axis starts at
        # exactly 0 and its Jacobian step must not shrink with it
        theta = np.linspace(0.0, 360.0, 73)
        y = cos2_model(theta, 700.0, 1.0, 50.0)
        fit = fit_polarization(series(theta, y, "polarization"))
        assert fit.params["axis_deg"] == pytest.approx(1.0, abs=1e-6)
        assert fit.params["degree_of_polarization"] == pytest.approx(700.0 / 800.0, rel=1e-9)

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


def scipy_run_fit(model, x, y, p0, names, weights=None, bounds=None) -> FitResult:
    """Reference solver: scipy's MINPACK 'lm' without bounds and 'trf' with
    them, at the tolerances and scaling the fits used with scipy."""
    w = np.ones_like(y) if weights is None else weights

    def residuals(p):
        return (model(x, *p) - y) * w

    kwargs = dict(xtol=specfit_module.STEP_TOLERANCE, ftol=1e-12, gtol=1e-12,
                  max_nfev=specfit_module.MAX_ITERATIONS * (len(p0) + 1))
    if bounds is None:
        result = least_squares(residuals, p0, method="lm", x_scale="jac", **kwargs)
    else:
        result = least_squares(residuals, p0, method="trf", bounds=bounds, x_scale=1.0,
                               **kwargs)
    assert result.success, result.message
    return FitResult(
        params=dict(zip(names, (float(v) for v in result.x))),
        stderr=specfit_module._covariance_stderr(result.jac, result.fun, names),
        residual_norm=float(np.linalg.norm(result.fun)),
        n_evaluations=int(result.nfev),
        converged=True,
    )


def one_by_one(run_fit):
    """A stand-in for ``specfit._run_fit_batch`` that solves each problem of
    the batch alone with ``run_fit``."""
    def run_batch(model, x, y, p0, names, weights=None, bounds=None):
        x, y, p0 = (np.asarray(v, dtype=float) for v in (x, y, p0))
        outcomes = []
        for i in range(len(y)):
            w = None if weights is None else np.broadcast_to(weights, y.shape)[i]
            box = None if bounds is None else tuple(
                np.broadcast_to(np.asarray(b, dtype=float), p0.shape)[i] for b in bounds)
            outcomes.append(run_fit(model, x if x.ndim == 1 else x[i], y[i], list(p0[i]),
                                    names, w, box))
        return outcomes
    return run_batch


G2_PARAMETERS = ("antibunching_amplitude", "bunching_amplitude", "antibunching_time_ps",
                 "bunching_time_ps", "normalization")


def fit_draw(kind, draw):
    """Fit one round-trip draw of ``kind``: (parameters, stderr, residual norm, model)."""
    if kind == "spectrum":
        fit = fit_lorentzian(draw["spectrum"][0])
    elif kind == "decay":
        fit = fit_decay_with_irf(*draw["decay"][:2])
    elif kind == "polarization":
        fit = fit_polarization(draw["polarization"][0])
    else:
        g = fit_g2(draw["correlation"][0])
        return ({k: getattr(g, k) for k in G2_PARAMETERS}, g.stderr, g.residual_norm,
                g.model)
    return fit.params, fit.stderr, fit.residual_norm, None


@pytest.fixture(scope="module")
def roundtrip_draws():
    rng = np.random.default_rng(RNG_SEED)
    return [fit_roundtrip_draw(rng) for _ in range(20)]


class TestSolverMatchesScipy:
    """The numpy Levenberg-Marquardt solver lands where scipy's does on the
    reproduction's seeded round-trip draws of every series kind."""

    @pytest.mark.parametrize("kind", ["spectrum", "decay", "correlation", "polarization"])
    def test_same_fit_as_scipy(self, monkeypatch, roundtrip_draws, kind):
        for draw in roundtrip_draws:
            params, _, norm, model = fit_draw(kind, draw)
            solved = []

            def counted_scipy_run_fit(*args):
                solved.append(args[4])
                return scipy_run_fit(*args)

            with monkeypatch.context() as patch:
                patch.setattr(specfit_module, "_run_fit_batch", one_by_one(counted_scipy_run_fit))
                ref_params, ref_stderr, ref_norm, ref_model = fit_draw(kind, draw)
            # the reference ran once per fit: a g2 fit fits two models
            assert len(solved) == (2 if kind == "correlation" else 1)
            assert norm == pytest.approx(ref_norm, rel=1e-9)
            assert model == ref_model
            for name, ref in ref_params.items():
                # relative, or a small share of the standard error for a
                # parameter the data leave near zero (a Lorentzian offset)
                tolerance = 1e-5 * abs(ref) + 1e-4 * ref_stderr.get(name, 0.0)
                assert abs(params[name] - ref) <= tolerance, (name, params[name], ref)

    @settings(max_examples=60, deadline=None)
    @given(amp=st.floats(0.1, 10.0), tau=st.floats(0.2, 5.0),
           amp_box=st.tuples(st.floats(0.05, 10.0), st.floats(0.0, 5.0)),
           tau_box=st.tuples(st.floats(0.05, 5.0), st.floats(0.0, 5.0)),
           start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_bounded_fit_stays_in_bounds(self, amp, tau, amp_box, tau_box, start):
        x = np.linspace(0.0, 5.0, 40)
        y = amp * np.exp(-x / tau)
        lower = np.array([amp_box[0], tau_box[0]])
        upper = lower + np.array([amp_box[1], tau_box[1]])
        p0 = lower + np.array(start) * (upper - lower)

        def model(xv, a, t):
            return a * np.exp(-xv / t)

        try:
            params = specfit_module._run_fit(model, x, y, p0, ["amp", "tau"],
                                             bounds=(lower, upper)).params
        except FitError as exc:
            params = exc.last_params
        values = np.array([params["amp"], params["tau"]])
        assert np.all(values >= lower) and np.all(values <= upper), (values, lower, upper)


def decay_with_offset(xv, amp, tau, off):
    return amp * np.exp(-xv / tau) + off


class TestLockstepSolver:
    """A problem solved in a batch gets the bits it gets alone."""

    NAMES = ["amp", "tau", "off"]

    @staticmethod
    def problems():
        x = np.linspace(0.0, 6.0, 60)
        truths = [(3.0, 1.5, 0.2), (2.0, 0.7, -0.1), (5.0, 2.5, 0.0), (1.0, 1.0, 0.5),
                  (4.0, 0.3, 0.1), (2.5, 4.0, 0.3)]
        rng = np.random.default_rng(17)
        y = np.array([decay_with_offset(x, *truth) + rng.normal(0.0, 0.01, x.size)
                      for truth in truths])
        p0 = np.array([[1.0, 1.0, 0.0], [1.0, 3.0, 0.0], [9.0, 0.5, 1.0], [0.5, 0.5, 0.0],
                       [0.2, 8.0, -1.0], [1.0, 1.0, 0.0]])
        # per-problem boxes: problem 1 ends with its offset on the lower
        # bound 0, problem 3 on its own upper bound 0.4
        lower = np.array([[0.0, 0.1, -1.0], [0.0, 0.1, 0.0], [0.0, 0.1, -1.0],
                          [0.0, 1.2, -1.0], [0.0, 0.1, -1.0], [0.0, 0.1, -1.0]])
        upper = np.array([[10.0, 10.0, 1.0]] * 6)
        upper[3, 2] = 0.4
        return x, y, p0, 1.0 / (0.05 + np.abs(y)), lower, upper

    @pytest.mark.parametrize("max_iterations,failing", [(200, set()), (16, {1, 4})])
    def test_shuffled_batches_equal_each_problem_alone(self, monkeypatch, max_iterations,
                                                       failing):
        # at 16 iterations (64 evaluations) problems 1 and 4 run out of
        # budget while their neighbours converge
        monkeypatch.setattr(specfit_module, "MAX_ITERATIONS", max_iterations)
        x, y, p0, w, lower, upper = self.problems()
        alone = [specfit_module._run_fit_batch(
            decay_with_offset, x, y[i:i + 1], p0[i:i + 1], self.NAMES, weights=w[i:i + 1],
            bounds=(lower[i:i + 1], upper[i:i + 1]))[0] for i in range(len(y))]
        for seed in (0, 1, 3):
            order = np.random.default_rng(seed).permutation(len(y))
            batch = specfit_module._run_fit_batch(decay_with_offset, x, y[order], p0[order],
                                                  self.NAMES, weights=w[order],
                                                  bounds=(lower[order], upper[order]))
            for got, i in zip(batch, order):
                assert isinstance(got, FitError) == (i in failing)
                assert type(got) is type(alone[i])
                if i in failing:
                    assert got.last_params == alone[i].last_params
                    continue
                assert got.params == alone[i].params
                assert got.stderr == alone[i].stderr
                assert (got.n_evaluations, got.residual_norm) == (alone[i].n_evaluations,
                                                                  alone[i].residual_norm)
        if not failing:
            assert alone[1].params["off"] == 0.0 and alone[3].params["off"] == 0.4

    def test_batch_fitters_equal_single_fits(self, roundtrip_draws):
        draws = roundtrip_draws[:10]
        for draw, fits in zip(draws, fit_roundtrip_fits(draws)):
            assert fits["spectrum"] == fit_lorentzian(draw["spectrum"][0])
            assert fits["decay"] == fit_decay_with_irf(*draw["decay"][:2])
            assert fits["correlation"] == fit_g2(draw["correlation"][0])
            assert fits["polarization"] == fit_polarization(draw["polarization"][0])

    def test_summary_does_not_depend_on_the_chunk(self, monkeypatch):
        # 13 draws: full chunks and partial ones, the shared chunk and the
        # g2 sub-batch each of 1, 5 and 13
        expected = fit_roundtrip_summary(13)
        for chunk in (1, 5, 13):
            for g2_chunk in (1, 5, 13):
                monkeypatch.setattr(reproduce_module, "FIT_CHUNK", chunk)
                monkeypatch.setattr(reproduce_module, "G2_CHUNK", g2_chunk)
                assert fit_roundtrip_summary(13) == expected, (chunk, g2_chunk)

    def test_chunk_fits_stay_within_their_memory_budget(self):
        # the fits of one reproduce chunk, traced after a first untraced
        # pass: 1.37 MB with numpy 2.4, which sets the chunk sizes; the
        # budget of 1.72 MB leaves a quarter on top
        rng = np.random.default_rng(RNG_SEED)
        chunk = [fit_roundtrip_draw(rng) for _ in range(reproduce_module.FIT_CHUNK)]
        fit_roundtrip_fits(chunk)
        tracemalloc.start()
        try:
            fit_roundtrip_fits(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_720_000, peak

    def test_fit_error_surfaces_from_the_summary(self, monkeypatch):
        monkeypatch.setattr(specfit_module, "MAX_ITERATIONS", 1)
        rng = np.random.default_rng(RNG_SEED)
        with pytest.raises(FitError) as first:
            fit_lorentzian(fit_roundtrip_draw(rng)["spectrum"][0])
        with pytest.raises(FitError) as excinfo:
            fit_roundtrip_summary(3)
        assert excinfo.value.last_params == first.value.last_params
