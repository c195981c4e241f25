"""End-to-end reproduction of the headline numbers the toolkit models.

Each check compares a quantity of the scenario ``spskit reproduce`` loads
with its ``Target``, whose pass test is read from the text the table
prints; 1a/1b/1c, 2, 3a, 4, 5a, 6a/6b/6d and 8a read what ``mirror``,
``cavity``, ``emitter`` and ``qkd`` write, through the same ``pipeline``
functions. Targets and each check's probe inputs stay literals. All
randomness is seeded, so two runs produce identical results.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import cavitymode, emitter, fab, optics, pipeline, qkd, search, specfit
from .config import ConfigError, Scenario
from .constants import rate_from_lifetime_ps, transmittance_to_db

RNG_SEED = 20190565


class Target(NamedTuple):
    """A check's printed ``text`` and the ``test`` its computed value must pass."""
    text: str
    test: Callable[[float], bool]


def target(text: str) -> Target:
    """The target ``text`` prints, tested as it reads: "[lo, hi]", "<= limit",
    "< limit" or "value +- tol" (a tol in % is relative). A number may carry
    a unit of ``units``; MHz and GHz test a value in Hz. NaN fails every
    test, and any other text raises ValueError."""
    units = {"nm": 1.0, "dB": 1.0, "km": 1.0, "MHz": 1e6, "GHz": 1e9}
    words = [w for w in text.strip("[]").replace(",", "").split() if w not in units]
    (scale,) = {units[w] for w in text.split() if w in units} or {1.0}

    def number(word: str) -> float:
        return float(word[:-1]) / 100 if word.endswith("%") else float(word) * scale

    if text[:1] + text[-1:] == "[]":
        lo, hi = map(number, words)
        return Target(text, lambda x: lo <= x <= hi)
    if words[:1] in (["<"], ["<="]):
        (limit,) = map(number, words[1:])
        return Target(text, (lambda x: x < limit) if words[0] == "<" else (lambda x: x <= limit))
    value, tol = " ".join(words).split(" +- ")
    center = number(value)
    width = number(tol) * (center if tol.endswith("%") else 1.0)
    return Target(text, lambda x: abs(x - center) <= width)


class CheckResult(NamedTuple):
    cid: str
    label: str
    computed: float
    target: str
    passed: bool
    note: str

    def row(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        note = f"  [{self.note}]" if self.note else ""
        return f"[{mark}] {self.cid:<4} {self.label:<58} {self.computed:.6g}  vs {self.target}{note}"


class ReproductionReport:
    def __init__(self):
        self.checks: list[CheckResult] = []

    def add(self, cid: str, label: str, computed: float, target: Target, note: str = ""):
        self.checks.append(CheckResult(cid, label, float(computed), target.text,
                                       bool(target.test(computed)), note))

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
    """Checks the ``mirror`` subcommand's report."""
    _, _, stack, mirror = pipeline.mirror(scenario)
    r_tmm = mirror["reflectance_at_design_wavelength"]
    report.add("1a", "coating reflectance at design wavelength", r_tmm, target("[0.992, 0.999]"))
    report.add("1b", "closed-form oracle vs transfer matrix (abs diff)",
               abs(r_tmm - mirror["closed_form_reflectance"]), target("<= 1e-4"))

    band = mirror["stopband_nm"]
    report.add("1c", f"stopband lower edge (R >= {mirror['stopband_threshold']:.2f} band)",
               band[0] if band else math.nan, target("504 +- 5 nm"),
               note="0.99-threshold edge documented separately")
    band99 = optics.stopband(stack, 0.99, anchor_nm=scenario["mirror"]["design_wavelength_nm"])
    if band99:
        report.add("1c'", "stopband lower edge at the 0.99 threshold (informational)",
                   band99[0], Target("reported only", math.isfinite),
                   note="does not reproduce the 504 nm constraint; see ledger")


def check_cavity_spectrum(report: ReproductionReport, scenario: Scenario) -> dict:
    """Checks the ``cavity`` subcommand's resonance; returns its report."""
    *_, cavity = pipeline.cavity(scenario)
    res = cavity["resonance"]
    report.add("2a", "cavity transmission FWHM", res["fwhm_nm"], target("0.169 nm +- 10%"))
    report.add("2b", "cavity quality factor", res["quality_factor"], target("3345 +- 10%"))
    return cavity


def check_penetration_depth(report: ReproductionReport, scenario: Scenario,
                            cavity: dict) -> None:
    ccfg = scenario["cavity"]
    q, lam = ccfg["longitudinal_order"], ccfg["wavelength_nm"]
    xi = cavity["penetration_depth_nm"]
    stack = pipeline.mirror_stack(scenario, "low")  # deposited termination faces the gap
    xi5 = optics.penetration_depth(5, lam, optics.resonant_gap(stack, stack, 5, lam))
    report.add("3a", f"1-D penetration depth at q={q}", xi, target("122 nm +- 25%"))
    report.add("3b", f"penetration depth q=5 vs q={q} (rel diff)",
               abs(xi5 - xi) / xi, target("<= 1%"))


def check_mode_volume(report: ReproductionReport, cavity: dict) -> None:
    report.add("4", "Gaussian mode volume (units of wavelength^3)", cavity["mode_volume_lambda3"],
               target("1.76 +- 3%"))


def check_purcell_chain(report: ReproductionReport, scenario: Scenario) -> dict:
    """Checks the ``emitter`` subcommand's Purcell factor; returns its report."""
    emitted = pipeline.emitter(scenario)
    report.add("5a", "effective Purcell factor", emitted["effective_purcell_factor"],
               target("4.07 +- 2%"))
    ecfg = scenario["emitter"]
    eta = emitter.quantum_efficiency(ecfg["lifetime_ratio"], 4.07, ecfg["mirror_purcell"])
    report.add("5b", "quantum efficiency", eta, target("0.513 +- 0.005"))
    return emitted


def check_indistinguishability(report: ReproductionReport, scenario: Scenario,
                               emitted: dict) -> None:
    ecfg = scenario["emitter"]
    gamma = rate_from_lifetime_ps(ecfg["free_lifetime_ps"])
    exact, rel = gamma / (gamma + ecfg["dephasing_rate_hz"]), 1e-12
    paper = target("2.06e-4 +- 5e-7")
    report.add("6a", "free-space indistinguishability", emitted["free_space_indistinguishability"],
               Target(f"{paper.text}, and the formula to rel {rel:g}",
                      lambda x: paper.test(x) and math.isclose(x, exact, rel_tol=rel)))

    report.add("6b", "cavity linewidth for 90% indistinguishability (Hz)",
               emitted["kappa_for_90pct_indistinguishability_hz"], target("124 MHz +- 2%"))
    report.add("6c", "free spectral range at that linewidth, R=99.95% (Hz)",
               cavitymode.fsr_for_linewidth(124e6, 0.9995), target("779 GHz +- 1%"))
    report.add("6d", "cavity-coupled indistinguishability", emitted["cavity_indistinguishability"],
               target("[2.5e-3, 1.1e-2]"), note="coupling rate not measured")


# the fixed grids of every draw's decays, correlations and polarization scans
DECAY_GRID = np.arange(0.0, 12000.0, 16.0)
DELAY_GRID = np.linspace(-30000.0, 30000.0, 1601)
ANGLE_GRID = np.linspace(0.0, 360.0, 73)


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
        "correlation": (correlation, {"anti": anti}),
        "polarization": (polarization, {"dop": dop}),
        "background": (rho, g2_true),
    }


def fit_roundtrip_fits(draws: list[dict]) -> list[dict]:
    """Each draw's fits by kind, one lockstep solve per kind, without
    uncertainties; raises the FitError of the first failed fit, in draw
    order."""
    def column(kind, i=0):
        return [draw[kind][i] for draw in draws]

    kw = {"uncertainties": False}
    fits = {"spectrum": specfit.fit_lorentzian_batch(column("spectrum"), None, **kw),
            "decay": specfit.fit_decay_with_irf_batch(column("decay"), column("decay", 1), **kw),
            "correlation": specfit.fit_g2_batch(column("correlation"), **kw),
            "polarization": specfit.fit_polarization_batch(column("polarization"), **kw)}
    per_draw = [dict(zip(fits, outcomes)) for outcomes in zip(*fits.values())]
    for fit in (fit for outcomes in per_draw for fit in outcomes.values()):
        if isinstance(fit, specfit.FitError):
            raise fit
    return per_draw


# Draws generated and fitted together: more share each solver round, whose
# cost is mostly fixed, and the memory of the fits grows with the chunk.
FIT_CHUNK = 17


def fit_roundtrip_summary(draws: int) -> dict[str, float]:
    """Worst-case relative recovery errors over seeded randomized draws."""
    rng = np.random.default_rng(RNG_SEED)
    worst = dict.fromkeys(["lorentzian_center", "lorentzian_fwhm", "lifetime", "g2_antibunching",
                           "g2_identity", "dop", "background_inverse"], 0.0)
    for first in range(0, draws, FIT_CHUNK):
        chunk = [fit_roundtrip_draw(rng) for _ in range(min(FIT_CHUNK, draws - first))]
        for draw, fits in zip(chunk, fit_roundtrip_fits(chunk)):
            line, decay, corr, pol = (draw[kind][-1] for kind in
                                      ("spectrum", "decay", "correlation", "polarization"))
            fitted, g2 = fits["spectrum"].params, fits["correlation"].params
            rho, g2_true = draw["background"]
            snr = rho / (1.0 - rho) if rho < 1.0 else math.inf
            mixed = rho ** 2 * g2_true + (1.0 - rho ** 2)
            errors = (
                abs(fitted["center_nm"] - line["center"]) / line["fwhm"],
                abs(fitted["fwhm_nm"] - line["fwhm"]) / line["fwhm"],
                abs(fits["decay"].params["lifetime_ps"] - decay["lifetime"]) / decay["lifetime"],
                abs(g2["antibunching_amplitude"] - corr["anti"]) / corr["anti"],
                abs(g2["g2_zero"]
                    - (1.0 - g2["antibunching_amplitude"] + g2["bunching_amplitude"])),
                abs(fits["polarization"].params["degree_of_polarization"] - pol["dop"])
                / pol["dop"],
                abs(specfit.correct_g2_background(mixed, snr) - g2_true))
            worst = {key: max(old, new) for (key, old), new in zip(worst.items(), errors)}
        del chunk, draw, fits  # the next chunk is drawn with none of this one alive

    return worst


def check_fit_roundtrips(report: ReproductionReport, draws: int) -> None:
    worst = fit_roundtrip_summary(draws)
    for cid, key, label, text in (
            ("7a", "lorentzian_center", f"Lorentzian center error over {draws} draws (FWHM units)",
             "< 0.02"),
            ("7b", "lorentzian_fwhm", "Lorentzian FWHM relative error", "< 2%"),
            ("7c", "lifetime", "IRF-convolved lifetime relative error", "< 3%"),
            ("7d", "g2_antibunching", "g2 antibunching amplitude relative error", "< 3%"),
            ("7e", "g2_identity", "g2 dip-to-unity identity gap", "<= 0"),
            ("7f", "dop", "degree-of-polarization relative error", "< 1%"),
            ("7g", "background_inverse", "background correction inverse error", "< 1e-12")):
        report.add(cid, label, worst[key], target(text))


def check_qkd(report: ReproductionReport, scenario: Scenario) -> None:
    """8a checks the fiber crossing that ``qkd`` writes over the scenario's
    sweep; 8f searches the same way on a 10-1500 km free-space probe."""
    detector, fiber, sources = models = pipeline.qkd_models(scenario, "fiber")

    _, interval = pipeline.qkd_sweep(scenario)
    crossing = pipeline.qkd_crossings(models, interval, ("decoy",))["sps_vs_decoy"]
    report.add("8a", "fiber crossing loss, real source vs optimized decoy (dB)",
               crossing.get("loss_db", math.nan), target("8.82 dB +- 15%"),
               note="tagged-states bound places it lower; see ledger")

    table = qkd.sweep(sources, fiber, detector, np.arange(0.0, 200.5, 5.0))
    rates = {label: table[f"rate_{label}"] for label in sources}
    report.add("8b", "real source >= wcs at every sampled distance (worst wcs-sps gap)",
               np.max(rates["wcs"] - rates["sps"]), target("<= 1e-15"),
               note="violated in the narrow band where the tagged bound kills the source")
    report.add("8c", "ideal source >= real source everywhere",
               np.max(rates["sps"] - rates["ideal"]), target("<= 1e-15"))
    report.add("8d", "all rates monotone non-increasing in distance",
               max(np.max(np.diff(r)) for r in rates.values()), target("<= 1e-9"))

    _, space, _ = space_models = pipeline.qkd_models(scenario, "freespace", "calibrated")
    report.add("8e", "calibrated free-space model: loss at 630 km (dB)",
               transmittance_to_db(qkd.channel_transmittance(space, 630.0)),
               target("8.82 +- 1e-6 dB"),
               note=f"calibrated half angle {space.divergence_half_angle_rad:.4e} rad")
    crossing = pipeline.qkd_crossings(space_models, (10.0, 1500.0), ("decoy",))["sps_vs_decoy"]
    report.add("8f", "free-space crossing loss, real source vs decoy (dB)",
               crossing.get("loss_db", math.nan), target("8.82 dB +- 15%"),
               note="same tagged-states bound as 8a; see ledger")

    # gaussian-diffraction reference point for the same loss
    _, gauss, _ = pipeline.qkd_models(scenario, "freespace", "gaussian_farfield")
    d_loss = search.bisect(
        lambda d: transmittance_to_db(qkd.channel_transmittance(gauss, d)) < 8.82,
        1.0, 5000.0)
    report.add("8g", "far-field Gaussian model: distance of the 8.82 dB loss (km)",
               d_loss, target("115 +- 10 km"),
               note="the 630 km mapping needs the calibrated divergence model")


def check_fab(report: ReproductionReport, scenario: Scenario) -> None:
    fcfg = scenario["fab"]
    calibration = 0.5
    dose = fab.hemisphere_dose_map(fcfg["radius_um"], fcfg["aperture_um"], fcfg["pitch_nm"],
                                   calibration)
    coords = (np.arange(dose.width) - dose.width // 2) * dose.pitch_nm
    xx, yy = np.meshgrid(coords, coords)
    ideal = fab.hemisphere_depth_nm(np.hypot(xx, yy), fcfg["radius_um"] * 1000.0,
                                    fcfg["aperture_um"] * 1000.0)
    report.add("9a", "dose map decode error (nm)", np.max(np.abs(dose.depth_nm() - ideal)),
               target(f"<= {calibration / 2:g} nm"), note=f"half the {calibration:g} nm quantum")

    rng = np.random.default_rng(RNG_SEED)
    rough = fab.synthetic_hemisphere_profile(2.7, 2.4, 301, rng.normal(0.0, 0.5, 301))
    result = pipeline.fab(scenario, rough)
    report.add("9b", "hemisphere radius recovery at 0.5 nm roughness (um)",
               result["radius_um"], target("2.7 +- 1%"))
    report.add("9c", f"rms deviation classifies as ideal (< {fab.IDEAL_RMS_NM:g} nm)",
               result["rms_nm"], target(f"< {fab.IDEAL_RMS_NM:g} nm"))


def run_all(scenario: Scenario, draws: int) -> ReproductionReport:
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
