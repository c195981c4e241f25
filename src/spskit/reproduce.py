"""End-to-end reproduction of the headline numbers the toolkit models.

Each check compares a quantity of the scenario ``spskit reproduce`` loads
with its target at a pinned tolerance; 1a/1b, 2, 3a, 4, 5a and 6a/6b/6d
read what ``mirror``, ``cavity`` and ``emitter`` write, through
``pipeline``. Targets and each check's probe inputs stay literals. All
randomness is seeded, so two runs produce identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cavitymode, emitter, fab, optics, pipeline, qkd, search, specfit
from .config import ConfigError, Scenario
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
# criterion implementations
# ---------------------------------------------------------------------------

def check_coating(report: ReproductionReport, scenario: Scenario) -> None:
    cfg = scenario["mirror"]
    lam0 = cfg["design_wavelength_nm"]
    stack = pipeline.mirror_stack(scenario, cfg["termination"])
    r_tmm = optics.reflectance_at(stack, lam0)
    report.add("1a", "coating reflectance at design wavelength", r_tmm,
               "[0.992, 0.999]", 0.992 <= r_tmm <= 0.999)

    r_closed = optics.quarter_wave_peak_reflectance(
        cfg["n_high"], cfg["n_low"], cfg["pairs"], cfg["termination"],
        n_substrate=cfg["n_substrate"])
    report.add("1b", "closed-form oracle vs transfer matrix (abs diff)",
               abs(r_tmm - r_closed), "<= 1e-4", abs(r_tmm - r_closed) <= 1e-4)

    band = optics.stopband(stack, 0.8, anchor_nm=lam0)
    edge = band[0] if band else math.nan
    report.add("1c", "stopband lower edge (R >= 0.80 band)", edge,
               "504 +- 5 nm", band is not None and abs(edge - 504.0) <= 5.0,
               note="0.99-threshold edge documented separately")
    band99 = optics.stopband(stack, 0.99, anchor_nm=lam0)
    if band99:
        report.add("1c'", "stopband lower edge at the 0.99 threshold (informational)",
                   band99[0], "reported only", True,
                   note="does not reproduce the 504 nm constraint; see ledger")


def check_cavity_spectrum(report: ReproductionReport, scenario: Scenario) -> dict:
    """Checks the ``cavity`` subcommand's resonance; returns its report."""
    *_, cavity = pipeline.cavity(scenario)
    res = cavity["resonance"]
    report.add("2a", "cavity transmission FWHM", res["fwhm_nm"], "0.169 nm +- 10%",
               res["found"] and abs(res["fwhm_nm"] - 0.169) <= 0.1 * 0.169)
    report.add("2b", "cavity quality factor", res["quality_factor"], "3345 +- 10%",
               res["found"] and abs(res["quality_factor"] - 3345) <= 0.1 * 3345)
    return cavity


def check_penetration_depth(report: ReproductionReport, scenario: Scenario,
                            cavity: dict) -> None:
    ccfg = scenario["cavity"]
    q, lam = ccfg["longitudinal_order"], ccfg["wavelength_nm"]
    xi = cavity["penetration_depth_nm"]
    stack = pipeline.mirror_stack(scenario, "low")  # deposited termination faces the gap
    xi5 = optics.penetration_depth(5, lam, optics.resonant_gap(stack, stack, 5, lam))
    report.add("3a", f"1-D penetration depth at q={q}", xi, "122 nm +- 25%",
               abs(xi - 122.0) <= 0.25 * 122.0)
    report.add("3b", f"penetration depth q=5 vs q={q} (rel diff)",
               abs(xi5 - xi) / xi, "<= 1%", abs(xi5 - xi) <= 0.01 * xi)


def check_mode_volume(report: ReproductionReport, cavity: dict) -> None:
    vol = cavity["mode_volume_lambda3"]
    report.add("4", "Gaussian mode volume (units of wavelength^3)", vol,
               "1.76 +- 3%", abs(vol - 1.76) <= 0.03 * 1.76)


def check_purcell_chain(report: ReproductionReport, scenario: Scenario) -> dict:
    """Checks the ``emitter`` subcommand's Purcell factor; returns its report."""
    emitted = pipeline.emitter(scenario)
    f_eff = emitted["effective_purcell_factor"]
    report.add("5a", "effective Purcell factor", f_eff, "4.07 +- 2%",
               abs(f_eff - 4.07) <= 0.02 * 4.07)
    ecfg = scenario["emitter"]
    eta = emitter.quantum_efficiency(ecfg["lifetime_ratio"], 4.07, ecfg["mirror_purcell"])
    report.add("5b", "quantum efficiency", eta, "0.513 +- 0.005",
               abs(eta - 0.513) <= 0.005)
    return emitted


def check_indistinguishability(report: ReproductionReport, scenario: Scenario,
                               emitted: dict) -> None:
    ecfg = scenario["emitter"]
    gamma = rate_from_lifetime_ps(ecfg["free_lifetime_ps"])
    i_free = emitted["free_space_indistinguishability"]
    exact = gamma / (gamma + ecfg["dephasing_rate_hz"])
    report.add("6a", "free-space indistinguishability", i_free,
               "2.06e-4 (exact to formula)",
               math.isclose(i_free, exact, rel_tol=1e-12) and abs(i_free - 2.06e-4) < 5e-7)

    kappa_threshold = emitted["kappa_for_90pct_indistinguishability_hz"]
    report.add("6b", "cavity linewidth for 90% indistinguishability (Hz)",
               kappa_threshold, "124 MHz +- 2%",
               abs(kappa_threshold - 124e6) <= 0.02 * 124e6)

    fsr = cavitymode.fsr_for_linewidth(124e6, 0.9995)
    report.add("6c", "free spectral range at that linewidth, R=99.95% (Hz)",
               fsr, "779 GHz +- 1%", abs(fsr - 779e9) <= 0.01 * 779e9)

    i_cav = emitted["cavity_indistinguishability"]
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

    fits = {"spectrum": specfit.fit_lorentzian_batch(column("spectrum")),
            "decay": specfit.fit_decay_with_irf_batch(column("decay"), column("decay", 1)),
            "correlation": specfit.fit_g2_batch(column("correlation")),
            "polarization": specfit.fit_polarization_batch(column("polarization"))}
    per_draw = [dict(zip(fits, outcomes)) for outcomes in zip(*fits.values())]
    for fit in (fit for outcomes in per_draw for fit in outcomes.values()):
        if isinstance(fit, specfit.FitError):
            raise fit
    return per_draw


# Draws generated and fitted together: more share each solver round, whose
# cost is mostly fixed, and the memory of the fits grows with the chunk.
FIT_CHUNK = 12


def fit_roundtrip_summary(draws: int = 100) -> dict[str, float]:
    """Worst-case relative recovery errors over seeded randomized draws."""
    rng = np.random.default_rng(RNG_SEED)
    worst = dict.fromkeys(["lorentzian_center", "lorentzian_fwhm", "lifetime", "g2_antibunching",
                           "g2_time", "g2_identity", "dop", "background_inverse"], 0.0)
    for first in range(0, draws, FIT_CHUNK):
        chunk = [fit_roundtrip_draw(rng) for _ in range(min(FIT_CHUNK, draws - first))]
        for draw, fits in zip(chunk, fit_roundtrip_fits(chunk)):
            line, decay, corr, pol = (draw[kind][-1] for kind in
                                      ("spectrum", "decay", "correlation", "polarization"))
            fitted, gfit = fits["spectrum"].params, fits["correlation"]
            rho, g2_true = draw["background"]
            snr = rho / (1.0 - rho) if rho < 1.0 else math.inf
            mixed = rho ** 2 * g2_true + (1.0 - rho ** 2)
            errors = (
                abs(fitted["center_nm"] - line["center"]) / line["fwhm"],
                abs(fitted["fwhm_nm"] - line["fwhm"]) / line["fwhm"],
                abs(fits["decay"].params["lifetime_ps"] - decay["lifetime"]) / decay["lifetime"],
                abs(gfit.antibunching_amplitude - corr["anti"]) / corr["anti"],
                abs(gfit.antibunching_time_ps - corr["t1"]) / corr["t1"],
                abs(gfit.g2_zero - (1.0 - gfit.antibunching_amplitude + gfit.bunching_amplitude)),
                abs(fits["polarization"].params["degree_of_polarization"] - pol["dop"])
                / pol["dop"],
                abs(specfit.correct_g2_background(mixed, snr) - g2_true))
            worst = {key: max(old, new) for (key, old), new in zip(worst.items(), errors)}
        del chunk, draw, fits  # the next chunk is drawn with none of this one alive

    return worst


def check_fit_roundtrips(report: ReproductionReport, draws: int = 100) -> None:
    worst = fit_roundtrip_summary(draws)
    for cid, key, label, target, bound in (
            ("7a", "lorentzian_center", f"Lorentzian center error over {draws} draws (FWHM units)",
             "< 0.02", 0.02),
            ("7b", "lorentzian_fwhm", "Lorentzian FWHM relative error", "< 2%", 0.02),
            ("7c", "lifetime", "IRF-convolved lifetime relative error", "< 3%", 0.03),
            ("7d", "g2_antibunching", "g2 antibunching amplitude relative error", "< 3%", 0.03),
            ("7e", "g2_identity", "g2 dip-to-unity identity gap", "exact (0)", None),
            ("7f", "dop", "degree-of-polarization relative error", "< 1%", 0.01),
            ("7g", "background_inverse", "background correction inverse error", "< 1e-12",
             1e-12)):
        report.add(cid, label, worst[key], target,
                   worst[key] == 0.0 if bound is None else worst[key] < bound)


def check_qkd(report: ReproductionReport, scenario: Scenario) -> None:
    detector, fiber, sources = pipeline.qkd_models(scenario, "fiber")
    real, decoy = sources["sps"], sources["decoy"]

    try:
        loss = qkd.find_crossing(real, decoy, fiber, detector, (1.0, 120.0))["loss_db"]
    except qkd.NoCrossingError:
        loss = math.nan
    report.add("8a", "fiber crossing loss, real source vs optimized decoy (dB)",
               loss, "8.82 dB +- 15%",
               not math.isnan(loss) and abs(loss - 8.82) <= 0.15 * 8.82,
               note="tagged-states bound places it lower; see ledger")

    rows = qkd.sweep(sources, fiber, detector, np.arange(0.0, 200.5, 5.0))
    rates = {label: np.array([row[f"rate_{label}"] for row in rows]) for label in sources}
    sps_ge_wcs = np.all(rates["sps"] >= rates["wcs"] - 1e-15)
    worst_gap = float(np.max(rates["wcs"] - rates["sps"]))
    report.add("8b", "real source >= wcs at every sampled distance (worst wcs-sps gap)",
               worst_gap, "<= 0", sps_ge_wcs,
               note="violated in the narrow band where the tagged bound kills the source")
    ideal_ge_real = np.all(rates["ideal"] >= rates["sps"] - 1e-15)
    report.add("8c", "ideal source >= real source everywhere",
               float(np.max(rates["sps"] - rates["ideal"])), "<= 0", ideal_ge_real)
    monotone = all(np.all(np.diff(r) <= 1e-9) for r in rates.values())
    report.add("8d", "all rates monotone non-increasing in distance",
               0.0 if monotone else 1.0, "monotone", monotone)

    _, space, _ = pipeline.qkd_models(scenario, "freespace", "calibrated")
    theta = space.divergence_half_angle_rad
    t630 = qkd.channel_transmittance(space.at_distance(630.0))
    loss630 = -10 * math.log10(t630)
    report.add("8e", "calibrated free-space model: loss at 630 km (dB)",
               loss630, "8.82 dB (calibration contract)", abs(loss630 - 8.82) < 1e-6,
               note=f"calibrated half angle {theta:.4e} rad")
    try:
        sloss = qkd.find_crossing(real, decoy, space, detector, (10.0, 1500.0))["loss_db"]
    except qkd.NoCrossingError:
        sloss = math.nan
    report.add("8f", "free-space crossing loss, real source vs decoy (dB)",
               sloss, "8.82 dB +- 15%",
               not math.isnan(sloss) and abs(sloss - 8.82) <= 0.15 * 8.82,
               note="same tagged-states bound as 8a; see ledger")

    # gaussian-diffraction reference point for the same loss
    _, gauss, _ = pipeline.qkd_models(scenario, "freespace", "gaussian_farfield")
    d_loss = search.bisect(
        lambda d: -10 * math.log10(qkd.channel_transmittance(gauss.at_distance(d))) < 8.82,
        1.0, 5000.0)
    report.add("8g", "far-field Gaussian model: distance of the 8.82 dB loss (km)",
               d_loss, "~115 km (diffraction-only reference)", abs(d_loss - 115.0) <= 10.0,
               note="the 630 km mapping needs the calibrated divergence model")


def check_fab(report: ReproductionReport, scenario: Scenario) -> None:
    fcfg = scenario["fab"]
    calibration = 0.5
    dose = fab.hemisphere_dose_map(fcfg["radius_um"], fcfg["aperture_um"], fcfg["pitch_nm"],
                                   calibration)
    coords = (np.arange(dose.width) - dose.width // 2) * dose.pitch_nm
    xx, yy = np.meshgrid(coords, coords)
    target = fab.hemisphere_depth_nm(np.hypot(xx, yy), fcfg["radius_um"] * 1000.0,
                                     fcfg["aperture_um"] * 1000.0)
    err = np.max(np.abs(dose.depth_nm() - target))
    report.add("9a", "dose map decode error (nm)", err,
               f"<= one quantum ({calibration} nm)", err <= calibration / 2 + 1e-12)

    rng = np.random.default_rng(RNG_SEED)
    rough = fab.synthetic_hemisphere_profile(2.7, 2.4, 301, roughness_nm=0.5, rng=rng)
    result = fab.fit_hemisphere_profile(
        rough, edge_exclusion_fraction=fcfg["edge_exclusion_fraction"])
    report.add("9b", "hemisphere radius recovery at 0.5 nm roughness (um)",
               result["radius_um"], "2.7 +- 1%", abs(result["radius_um"] - 2.7) <= 0.027)
    report.add("9c", "rms deviation classifies as ideal (< 1 nm)",
               result["rms_nm"], "< 1 nm", result["rms_nm"] < 1.0)


def run_all(scenario: Scenario, draws: int = 100) -> ReproductionReport:
    if draws < 1:
        raise ConfigError(f"reproduce needs at least one fit draw, got --draws {draws}")
    report = ReproductionReport()
    check_coating(report, scenario)
    cavity = check_cavity_spectrum(report, scenario)
    check_penetration_depth(report, scenario, cavity)
    check_mode_volume(report, cavity)
    emitted = check_purcell_chain(report, scenario)
    check_indistinguishability(report, scenario, emitted)
    check_fit_roundtrips(report, draws)
    check_qkd(report, scenario)
    check_fab(report, scenario)
    return report
