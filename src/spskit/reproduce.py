"""End-to-end reproduction of the headline numbers the toolkit models.

Each check computes a quantity through the public API and compares it
against its reference value at a pinned tolerance. The same table backs
the ``reproduce`` CLI subcommand and the acceptance test module. All
randomness is seeded, so two runs produce identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cavitymode, emitter, fab, optics, qkd, specfit
from .constants import rate_from_lifetime_ps

RNG_SEED = 20190565


@dataclass
class CheckResult:
    cid: str
    label: str
    computed: float
    target: str
    passed: bool
    note: str = ""

    def row(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        note = f"  [{self.note}]" if self.note else ""
        return f"[{mark}] {self.cid:<4} {self.label:<58} {self.computed:.6g}  vs {self.target}{note}"


@dataclass
class ReproductionReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, cid, label, computed, target, passed, note=""):
        self.checks.append(CheckResult(cid, label, float(computed), target, bool(passed), note))

    @property
    def n_passed(self) -> int:
        return sum(c.passed for c in self.checks)

    def table(self) -> str:
        lines = [c.row() for c in self.checks]
        lines.append(f"{self.n_passed}/{len(self.checks)} checks passed")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared scenario pieces
# ---------------------------------------------------------------------------

N_HIGH, N_LOW, N_SUBSTRATE = 2.135, 1.521, 1.5255
DESIGN_WL = 565.0
LINE_WL = 565.85
PAIRS = 9
MEASURED_R = 0.992
CAVITY_FWHM_NM = 0.224
EMITTER_FWHM_NM = 5.76
FREE_LIFETIME_PS = 897.0
DEPHASING_HZ = 5.41e12
MODE_ORDER = 8


def mirror_stack(termination: str) -> optics.LayerStack:
    return optics.make_quarter_wave_stack(
        N_HIGH, N_LOW, PAIRS, DESIGN_WL, termination, substrate_index=N_SUBSTRATE)


def cavity_config() -> cavitymode.CavityConfig:
    return cavitymode.CavityConfig(
        radius_of_curvature_um=2.7, longitudinal_order=MODE_ORDER,
        design_wavelength_nm=LINE_WL, penetration_depth_nm=122.0,
        mirror_reflectivity=MEASURED_R, tuning_slope_nm_per_v=102.0)


# ---------------------------------------------------------------------------
# criterion implementations
# ---------------------------------------------------------------------------

def check_coating(report: ReproductionReport) -> None:
    stack = mirror_stack("high")
    r_tmm = optics.reflectance_at(stack, DESIGN_WL)
    report.add("1a", "coating reflectance at design wavelength", r_tmm,
               "[0.992, 0.999]", 0.992 <= r_tmm <= 0.999)

    r_closed = optics.quarter_wave_peak_reflectance(
        N_HIGH, N_LOW, PAIRS, "high", n_substrate=N_SUBSTRATE)
    report.add("1b", "closed-form oracle vs transfer matrix (abs diff)",
               abs(r_tmm - r_closed), "<= 1e-4", abs(r_tmm - r_closed) <= 1e-4)

    band = optics.stopband(stack, 0.8, anchor_nm=DESIGN_WL)
    edge = band[0] if band else math.nan
    report.add("1c", "stopband lower edge (R >= 0.80 band)", edge,
               "504 +- 5 nm", band is not None and abs(edge - 504.0) <= 5.0,
               note="0.99-threshold edge documented separately")
    band99 = optics.stopband(stack, 0.99, anchor_nm=DESIGN_WL)
    if band99:
        report.add("1c'", "stopband lower edge at the 0.99 threshold (informational)",
                   band99[0], "reported only", True,
                   note="does not reproduce the 504 nm constraint; see ledger")


def check_cavity_spectrum(report: ReproductionReport) -> None:
    # device gap: q half-waves of effective length minus the field leakage
    # into each mirror, with the leakage taken from the deposited coating
    deposited = mirror_stack("low")
    gap_dep = optics.resonant_gap(deposited, deposited, MODE_ORDER, LINE_WL)
    xi = optics.penetration_depth(MODE_ORDER, LINE_WL, gap_dep)
    gap = MODE_ORDER * LINE_WL / 2.0 - 2.0 * xi

    # mirrors at the measured effective reflectivity (loss-calibrated)
    lossy = optics.calibrated_lossy_stack(mirror_stack("high"), MEASURED_R, LINE_WL)
    wls = np.linspace(LINE_WL - 1.5, LINE_WL + 1.5, 3001)
    _, res = optics.cavity_spectrum(lossy, gap, lossy, wls, report_near_nm=LINE_WL)
    report.add("2a", "cavity transmission FWHM", res.fwhm_nm, "0.169 nm +- 10%",
               res.found and abs(res.fwhm_nm - 0.169) <= 0.1 * 0.169)
    report.add("2b", "cavity quality factor", res.quality_factor, "3345 +- 10%",
               res.found and abs(res.quality_factor - 3345) <= 0.1 * 3345)


def check_penetration_depth(report: ReproductionReport) -> None:
    stack = mirror_stack("low")  # deposited termination faces the gap
    gaps = {}
    for q in (5, 8):
        gaps[q] = optics.resonant_gap(stack, stack, q, LINE_WL)
    xi8 = optics.penetration_depth(8, LINE_WL, gaps[8])
    xi5 = optics.penetration_depth(5, LINE_WL, gaps[5])
    report.add("3a", "1-D penetration depth at q=8", xi8, "122 nm +- 25%",
               abs(xi8 - 122.0) <= 0.25 * 122.0)
    report.add("3b", "penetration depth q=5 vs q=8 (rel diff)",
               abs(xi5 - xi8) / xi8, "<= 1%", abs(xi5 - xi8) <= 0.01 * xi8)


def check_mode_volume(report: ReproductionReport) -> None:
    vol = cavitymode.mode_volume(cavity_config())
    report.add("4", "Gaussian mode volume (units of wavelength^3)", vol,
               "1.76 +- 3%", abs(vol - 1.76) <= 0.03 * 1.76)


def check_purcell_chain(report: ReproductionReport) -> None:
    vol = cavitymode.mode_volume(cavity_config())
    _, f_eff = emitter.effective_purcell(LINE_WL, CAVITY_FWHM_NM, EMITTER_FWHM_NM, vol)
    report.add("5a", "effective Purcell factor", f_eff, "4.07 +- 2%",
               abs(f_eff - 4.07) <= 0.02 * 4.07)
    eta = emitter.quantum_efficiency(2.29, 4.07, 1.68)
    report.add("5b", "quantum efficiency", eta, "0.513 +- 0.005",
               abs(eta - 0.513) <= 0.005)


def check_indistinguishability(report: ReproductionReport) -> None:
    gamma = rate_from_lifetime_ps(FREE_LIFETIME_PS)
    i_free = emitter.indistinguishability_free(gamma, DEPHASING_HZ)
    exact = gamma / (gamma + DEPHASING_HZ)
    report.add("6a", "free-space indistinguishability", i_free,
               "2.06e-4 (exact to formula)",
               math.isclose(i_free, exact, rel_tol=1e-12) and abs(i_free - 2.06e-4) < 5e-7)

    kappa_threshold = emitter.kappa_for_target_indistinguishability(
        gamma, DEPHASING_HZ, 1e5, 0.9)
    report.add("6b", "cavity linewidth for 90% indistinguishability (Hz)",
               kappa_threshold, "124 MHz +- 2%",
               abs(kappa_threshold - 124e6) <= 0.02 * 124e6)

    fsr = cavitymode.fsr_for_linewidth(124e6, 0.9995)
    report.add("6c", "free spectral range at that linewidth, R=99.95% (Hz)",
               fsr, "779 GHz +- 1%", abs(fsr - 779e9) <= 0.01 * 779e9)

    vol = cavitymode.mode_volume(cavity_config())
    _, f_eff = emitter.effective_purcell(LINE_WL, CAVITY_FWHM_NM, EMITTER_FWHM_NM, vol)
    phys = emitter.EmitterPhotophysics()
    rates = emitter.rates_for_emitter_in_cavity(phys, CAVITY_FWHM_NM, f_eff)
    i_cav = emitter.indistinguishability_cavity(rates)
    report.add("6d", "cavity-coupled indistinguishability", i_cav,
               "[2.5e-3, 1.1e-2] (coupling rate not measured)",
               2.5e-3 <= i_cav <= 1.1e-2)


# fixed grids over immutable buffers: every draw's series holds these, not copies
DECAY_GRID, DELAY_GRID, ANGLE_GRID = (np.frombuffer(grid.tobytes()) for grid in (
    np.arange(0.0, 12000.0, 16.0), np.linspace(-30000.0, 30000.0, 1601),
    np.linspace(0.0, 360.0, 73)))


def fit_roundtrip_draw(rng: np.random.Generator) -> dict:
    """One randomized draw of every fit round trip: each series to fit
    with the true values it was generated from."""
    # --- Lorentzian line
    center = rng.uniform(520.0, 600.0)
    fwhm = rng.uniform(0.5, 12.0)
    amp = rng.uniform(50.0, 5000.0)
    off = rng.uniform(0.0, 0.1) * amp
    x = np.linspace(center - 6 * fwhm, center + 6 * fwhm, 301)
    y = specfit.lorentzian(x, center, fwhm, amp, off)
    y = y + rng.uniform(-0.005, 0.005, x.size) * amp
    spectrum = specfit.MeasurementSeries(x, y)

    # --- lifetime decay through a Gaussian instrument response
    lifetime = rng.uniform(200.0, 2000.0)
    t = DECAY_GRID
    irf_fwhm = rng.uniform(60.0, 160.0)
    irf_center = rng.uniform(300.0, 600.0)
    irf = np.exp(-0.5 * ((t - irf_center) / (irf_fwhm / 2.3548)) ** 2)
    clean = 8000.0 * specfit.convolve_decay(t, lifetime, irf)
    counts = rng.poisson(np.clip(clean, 0.0, None)).astype(float)
    decay = specfit.MeasurementSeries(t, counts, "decay")
    irf_series = specfit.MeasurementSeries(t, irf, "decay")

    # --- second-order correlation
    anti = rng.uniform(0.6, 1.0)
    bunch = rng.uniform(0.0, 0.15)
    t1 = rng.uniform(300.0, 1200.0)
    t2 = rng.uniform(4000.0, 9000.0)
    tau = DELAY_GRID
    g2 = specfit.g2_model(tau, anti, bunch, t1, t2)
    g2 = g2 + rng.uniform(-0.01, 0.01, tau.size)
    correlation = specfit.MeasurementSeries(tau, g2, "correlation")

    # --- polarization scan
    dop = rng.uniform(0.3, 0.98)
    axis = rng.uniform(0.0, 180.0)
    total = rng.uniform(100.0, 1000.0)
    # dop = a/(a+2b)  ->  b = a (1-dop)/(2 dop)
    a = total * dop
    b = a * (1.0 - dop) / (2.0 * dop)
    theta = ANGLE_GRID
    pol = specfit.cos2_model(theta, a, axis, b)
    pol = pol + rng.uniform(-0.002, 0.002, theta.size) * (a + b)
    polarization = specfit.MeasurementSeries(theta, pol, "polarization")

    # --- background correction inverts the mixing map
    rho = rng.uniform(0.05, 1.0)
    g2_true = rng.uniform(0.0, 1.0)

    return {
        "spectrum": (spectrum, {"center": center, "fwhm": fwhm}),
        "decay": (decay, irf_series, {"lifetime": lifetime}),
        "correlation": (correlation, {"anti": anti, "t1": t1}),
        "polarization": (polarization, {"dop": dop}),
        "background": (rho, g2_true),
    }


def fit_roundtrip_fits(draws: list[dict]) -> list[dict]:
    """Each draw's fits by kind, one lockstep solve per kind; raises the
    FitError of the first failed fit, in draw order."""
    def column(kind, i=0):
        return [draw[kind][i] for draw in draws]

    correlations = column("correlation")
    fits = {"spectrum": specfit.fit_lorentzian_batch(column("spectrum")),
            "decay": specfit.fit_decay_with_irf_batch(column("decay"), column("decay", 1)),
            "correlation": [fit for i in range(0, len(draws), G2_CHUNK)
                            for fit in specfit.fit_g2_batch(correlations[i:i + G2_CHUNK])],
            "polarization": specfit.fit_polarization_batch(column("polarization"))}
    per_draw = [dict(zip(fits, outcomes)) for outcomes in zip(*fits.values())]
    for fit in (fit for outcomes in per_draw for fit in outcomes.values()):
        if isinstance(fit, specfit.FitError):
            raise fit
    return per_draw


# Draws generated and fitted together: more share each solver round. The g2
# fits, the memory peak, gain nothing past six a batch, so run six at a time.
FIT_CHUNK = 12
G2_CHUNK = 6


def fit_roundtrip_summary(draws: int = 100) -> dict[str, float]:
    """Worst-case relative recovery errors over seeded randomized draws."""
    rng = np.random.default_rng(RNG_SEED)
    worst = {"lorentzian_center": 0.0, "lorentzian_fwhm": 0.0, "lifetime": 0.0,
             "g2_antibunching": 0.0, "g2_time": 0.0, "g2_identity": 0.0,
             "dop": 0.0, "background_inverse": 0.0}

    for first in range(0, draws, FIT_CHUNK):
        chunk = [fit_roundtrip_draw(rng) for _ in range(min(FIT_CHUNK, draws - first))]
        for draw, fits in zip(chunk, fit_roundtrip_fits(chunk)):
            _, truth = draw["spectrum"]
            fit = fits["spectrum"]
            worst["lorentzian_center"] = max(worst["lorentzian_center"],
                                             abs(fit.params["center_nm"] - truth["center"])
                                             / truth["fwhm"])
            worst["lorentzian_fwhm"] = max(worst["lorentzian_fwhm"],
                                           abs(fit.params["fwhm_nm"] - truth["fwhm"])
                                           / truth["fwhm"])

            *_, truth = draw["decay"]
            worst["lifetime"] = max(worst["lifetime"],
                                    abs(fits["decay"].params["lifetime_ps"] - truth["lifetime"])
                                    / truth["lifetime"])

            _, truth = draw["correlation"]
            gfit = fits["correlation"]
            worst["g2_antibunching"] = max(worst["g2_antibunching"],
                                           abs(gfit.antibunching_amplitude - truth["anti"])
                                           / truth["anti"])
            worst["g2_time"] = max(worst["g2_time"],
                                   abs(gfit.antibunching_time_ps - truth["t1"]) / truth["t1"])
            identity_gap = abs(gfit.g2_zero - (1.0 - gfit.antibunching_amplitude
                                               + gfit.bunching_amplitude))
            worst["g2_identity"] = max(worst["g2_identity"], identity_gap)

            _, truth = draw["polarization"]
            worst["dop"] = max(worst["dop"],
                               abs(fits["polarization"].params["degree_of_polarization"]
                                   - truth["dop"]) / truth["dop"])

            rho, g2_true = draw["background"]
            snr = rho / (1.0 - rho) if rho < 1.0 else math.inf
            mixed = rho ** 2 * g2_true + (1.0 - rho ** 2)
            recovered = specfit.correct_g2_background(mixed, snr)
            worst["background_inverse"] = max(worst["background_inverse"],
                                              abs(recovered - g2_true))
        del chunk, draw, fits  # the next chunk is drawn with none of this one alive

    return worst


def check_fit_roundtrips(report: ReproductionReport, draws: int = 100) -> None:
    worst = fit_roundtrip_summary(draws)
    report.add("7a", f"Lorentzian center error over {draws} draws (FWHM units)",
               worst["lorentzian_center"], "< 0.02", worst["lorentzian_center"] < 0.02)
    report.add("7b", "Lorentzian FWHM relative error", worst["lorentzian_fwhm"],
               "< 2%", worst["lorentzian_fwhm"] < 0.02)
    report.add("7c", "IRF-convolved lifetime relative error", worst["lifetime"],
               "< 3%", worst["lifetime"] < 0.03)
    report.add("7d", "g2 antibunching amplitude relative error",
               worst["g2_antibunching"], "< 3%", worst["g2_antibunching"] < 0.03)
    report.add("7e", "g2 dip-to-unity identity gap", worst["g2_identity"],
               "exact (0)", worst["g2_identity"] == 0.0)
    report.add("7f", "degree-of-polarization relative error", worst["dop"],
               "< 1%", worst["dop"] < 0.01)
    report.add("7g", "background correction inverse error", worst["background_inverse"],
               "< 1e-12", worst["background_inverse"] < 1e-12)


def check_qkd(report: ReproductionReport) -> None:
    detector = qkd.GYS_DETECTOR
    fiber = qkd.ChannelModel(kind="fiber", attenuation_db_per_km=0.21)
    real = qkd.SourceModel(kind="real_sps", mean_photons=0.513, g2_zero=0.018)
    ideal = qkd.ideal_sps()
    wcs = qkd.SourceModel(kind="wcs", mean_photons=0.5, mu_mode="optimal")
    decoy = qkd.SourceModel(kind="decoy", mean_photons=0.5, mu_mode="optimal")

    try:
        crossing = qkd.find_crossing(real, decoy, fiber, detector, (1.0, 120.0))
        loss = crossing.loss_db
    except qkd.NoCrossingError:
        loss = math.nan
    report.add("8a", "fiber crossing loss, real source vs optimized decoy (dB)",
               loss, "8.82 dB +- 15%",
               not math.isnan(loss) and abs(loss - 8.82) <= 0.15 * 8.82,
               note="tagged-states bound places it lower; see ledger")

    sources = {"real": real, "ideal": ideal, "wcs": wcs, "decoy": decoy}
    rows = qkd.sweep(sources, fiber, detector, np.arange(0.0, 200.5, 5.0))
    rates = {label: np.array([row[f"rate_{label}"] for row in rows]) for label in sources}
    sps_ge_wcs = np.all(rates["real"] >= rates["wcs"] - 1e-15)
    worst_gap = float(np.max(rates["wcs"] - rates["real"]))
    report.add("8b", "real source >= wcs at every sampled distance (worst wcs-sps gap)",
               worst_gap, "<= 0", sps_ge_wcs,
               note="violated in the narrow band where the tagged bound kills the source")
    ideal_ge_real = np.all(rates["ideal"] >= rates["real"] - 1e-15)
    report.add("8c", "ideal source >= real source everywhere",
               float(np.max(rates["real"] - rates["ideal"])), "<= 0", ideal_ge_real)
    monotone = all(np.all(np.diff(r) <= 1e-9) for r in rates.values())
    report.add("8d", "all rates monotone non-increasing in distance",
               0.0 if monotone else 1.0, "monotone", monotone)

    theta = qkd.calibrate_divergence_half_angle(0.05, 0.60, 8.82, 630.0)
    space = qkd.ChannelModel(kind="freespace", divergence_model="calibrated",
                             divergence_half_angle_rad=theta)
    t630 = qkd.channel_transmittance(space.at_distance(630.0))
    loss630 = -10 * math.log10(t630)
    report.add("8e", "calibrated free-space model: loss at 630 km (dB)",
               loss630, "8.82 dB (calibration contract)", abs(loss630 - 8.82) < 1e-6,
               note=f"calibrated half angle {theta:.4e} rad")
    try:
        space_crossing = qkd.find_crossing(real, decoy, space, detector, (10.0, 1500.0))
        sloss = space_crossing.loss_db
    except qkd.NoCrossingError:
        sloss = math.nan
    report.add("8f", "free-space crossing loss, real source vs decoy (dB)",
               sloss, "8.82 dB +- 15%",
               not math.isnan(sloss) and abs(sloss - 8.82) <= 0.15 * 8.82,
               note="same tagged-states bound as 8a; see ledger")

    # gaussian-diffraction reference point for the same loss
    gauss = qkd.ChannelModel(kind="freespace", divergence_model="gaussian_farfield")
    d_lo, d_hi = 1.0, 5000.0
    for _ in range(200):
        mid = 0.5 * (d_lo + d_hi)
        if -10 * math.log10(qkd.channel_transmittance(gauss.at_distance(mid))) < 8.82:
            d_lo = mid
        else:
            d_hi = mid
    report.add("8g", "far-field Gaussian model: distance of the 8.82 dB loss (km)",
               0.5 * (d_lo + d_hi), "~115 km (diffraction-only reference)",
               abs(0.5 * (d_lo + d_hi) - 115.0) <= 10.0,
               note="the 630 km mapping needs the calibrated divergence model")


def check_fab(report: ReproductionReport) -> None:
    calibration = 0.5
    dose = fab.hemisphere_dose_map(2.7, 2.7, 20.0, calibration)
    radius_nm, aperture_nm = 2700.0, 2700.0
    coords = (np.arange(dose.width) - dose.width // 2) * dose.pitch_nm
    xx, yy = np.meshgrid(coords, coords)
    target = fab.hemisphere_depth_nm(np.hypot(xx, yy), radius_nm, aperture_nm)
    err = np.max(np.abs(dose.depth_nm() - target))
    report.add("9a", "dose map decode error (nm)", err,
               f"<= one quantum ({calibration} nm)", err <= calibration / 2 + 1e-12)

    rng = np.random.default_rng(RNG_SEED)
    rough = fab.synthetic_hemisphere_profile(2.7, 2.4, 301, roughness_nm=0.5, rng=rng)
    result = fab.fit_hemisphere_profile(rough)
    report.add("9b", "hemisphere radius recovery at 0.5 nm roughness (um)",
               result["radius_um"], "2.7 +- 1%", abs(result["radius_um"] - 2.7) <= 0.027)
    report.add("9c", "rms deviation classifies as ideal (< 1 nm)",
               result["rms_nm"], "< 1 nm", result["rms_nm"] < 1.0)


def run_all(draws: int = 100) -> ReproductionReport:
    report = ReproductionReport()
    check_coating(report)
    check_cavity_spectrum(report)
    check_penetration_depth(report)
    check_mode_volume(report)
    check_purcell_chain(report)
    check_indistinguishability(report)
    check_fit_roundtrips(report, draws)
    check_qkd(report)
    check_fab(report)
    return report
