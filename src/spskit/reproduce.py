"""End-to-end reproduction of the headline numbers the toolkit models.

Each check compares a quantity of the scenario ``spskit reproduce`` loads
with its ``Target``, whose pass test is read from the text the table
prints; 1a/1b/1c, 2, 3a, 4, 5a, 6a/6b/6d and 8a read what ``mirror``,
``cavity``, ``emitter`` and ``qkd`` write, through the same ``pipeline``
functions. Targets and each check's probe inputs stay literals.

All randomness comes from ``uniforms``, a counter-based SplitMix64
generator started from ``RNG_SEED`` in np.uint64 arithmetic: the fit
round trips' series (7a-7g) and check_fab's bounded uniform roughness
(9b, 9c). Its uniforms have the same bits on every host, numpy and
Python, and two runs produce identical results. numpy.random, whose
distributions keep no stream from one release to the next (NEP 19), is
not loaded.
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
SPECTRUM_SPAN = np.linspace(-6.0, 6.0, 301)  # in FWHM about the line's center

# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): its increment and the
# two multipliers of its output function
_GAMMA, *_MIX = map(np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))

# the ranges of a draw's 14 scalars, stream 0 in this order
_SCALARS = {"center": (520.0, 600.0), "fwhm": (0.5, 12.0), "amp": (50.0, 5000.0),
            "off": (0.0, 0.1), "lifetime": (200.0, 2000.0), "irf_fwhm": (60.0, 160.0),
            "irf_center": (300.0, 600.0), "anti": (0.6, 1.0), "bunch": (0.0, 0.15),
            "t1": (300.0, 1200.0), "t2": (4000.0, 9000.0), "dop": (0.3, 0.98),
            "axis": (0.0, 180.0), "total": (100.0, 1000.0)}

# The fit draws take the indices below this, within the layout of
# ``uniforms``; ``check_fab``'s roughness takes the index at it.
MAX_DRAWS = 2 ** 31


def uniforms(draw, stream: int, element) -> np.ndarray:
    """Doubles in [0, 1), broadcast over the draw and element indices:
    element j of stream s of draw i is SplitMix64 output number
    (i << 32 | s << 20 | j) + 1 from ``RNG_SEED``, whose top 53 bits times
    2^-53 are exact. The arithmetic is np.uint64's alone, so every host,
    numpy and Python gives the same bits, and a value does not depend on
    which others are drawn with it."""
    u64 = np.uint64  # for every operand: a Python int may not be cast alike by every numpy
    z = (np.asarray(draw, dtype=u64) << u64(32) | u64(stream) << u64(20)
         | np.asarray(element, dtype=u64)) + u64(1)
    z = u64(RNG_SEED) + z * _GAMMA
    z = (z ^ z >> u64(30)) * _MIX[0]
    z = (z ^ z >> u64(27)) * _MIX[1]
    return ((z ^ z >> u64(31)) >> u64(11)).astype(float) * 2.0 ** -53


def _ranged(draw, stream: int, lo, hi, size: int) -> np.ndarray:
    """lo + (hi - lo) u for the first ``size`` uniforms of a stream."""
    return lo + (hi - lo) * uniforms(draw, stream, np.arange(size))


def poisson(draw: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Poisson counts, as floats, of the means (draws, N) >= 0 of the draws
    ``draw`` (draws, 1). Below a mean of 10 element j inverts its CDF at
    uniform j of stream 8 (a mean of 0 gives 0); from 10 on it takes
    Hörmann's transformed rejection with squeeze (PTRS; Insurance Math.
    Econom. 12, 39 (1993), as numpy's own sampler), whose attempt t reads U
    and V from element j of streams 9 + 2t and 10 + 2t. Each step works on
    the elements still pending."""
    counts = np.zeros(mean.shape)
    rows, cols = np.nonzero(mean < 10.0)
    lam, u = mean[rows, cols], uniforms(draw[rows, 0], 8, cols)
    term = np.exp(-lam)
    cdf, k = term.copy(), 0
    left = np.nonzero(u > cdf)[0]
    while left.size:  # the least k whose CDF reaches u, or where it stops growing
        k += 1
        counts[rows[left], cols[left]] = k
        term[left] = term[left] * lam[left] / k
        grown = cdf[left] + term[left]
        more = (u[left] > grown) & (grown > cdf[left])
        cdf[left] = grown
        left = left[more]

    rows, cols = np.nonzero(mean >= 10.0)
    lam = mean[rows, cols]
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    # per pending element: lam, log lam, b, a, log(1/alpha) and v_r
    par = np.array([lam, np.log(lam), b, a, np.log(1.1239 + 1.1328 / (b - 3.4)),
                    0.9277 - 3.6224 / (b - 2.0)])
    stream = 9
    while rows.size:
        lam, log_lam, b, a, log_inv_alpha, v_r = par
        u = uniforms(draw[rows, 0], stream, cols) - 0.5
        v = uniforms(draw[rows, 0], stream + 1, cols)
        us = 0.5 - np.abs(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.floor((2.0 * a / us + b) * u + lam + 0.43)
        done = (us >= 0.07) & (v <= v_r)
        slow = np.nonzero(~done & (k >= 0.0) & ((us >= 0.013) | (v <= us)))[0]
        if slow.size:
            ks = k[slow]
            with np.errstate(divide="ignore"):
                lhs = (np.log(v[slow]) + log_inv_alpha[slow]
                       - np.log(a[slow] / (us[slow] * us[slow]) + b[slow]))
            log_factorial = np.array(list(map(math.lgamma, (ks + 1.0).tolist())))
            done[slow] = lhs <= -lam[slow] + ks * log_lam[slow] - log_factorial
        counts[rows[done], cols[done]] = k[done]
        rows, cols, par = rows[~done], cols[~done], par[:, ~done]
        stream += 2
    return counts


def fit_roundtrip_draws(indices) -> list[dict]:
    """The randomized draws of every fit round trip with these indices:
    each series to fit with the true values it was generated from. A
    draw's values depend on its index alone (``uniforms``); the draws are
    made together, one array operation per quantity."""
    draw = np.array(indices, dtype=np.uint64)[:, None]
    lo, hi = np.array(list(_SCALARS.values())).T
    scalars = (lo + (hi - lo) * uniforms(draw, 0, np.arange(len(lo)))).T
    (center, fwhm, amp, off, lifetime, irf_fwhm, irf_center, anti, bunch, t1, t2, dop, axis,
     total) = scalars[:, :, None]

    # --- Lorentzian line
    x = center + fwhm * SPECTRUM_SPAN
    y = specfit.lorentzian(x, center, fwhm, amp, off * amp)
    y += _ranged(draw, 1, -0.005, 0.005, x.shape[1]) * amp

    # --- lifetime decay through a Gaussian instrument response
    t = DECAY_GRID
    irf = np.exp(-0.5 * ((t - irf_center) / (irf_fwhm / 2.3548)) ** 2)
    clean = 8000.0 * specfit.convolve_decay(t, lifetime, irf)
    counts = poisson(draw, np.clip(clean, 0.0, None))

    # --- second-order correlation
    g2 = specfit.g2_model(DELAY_GRID, anti, bunch, t1, t2)
    g2 += _ranged(draw, 2, -0.01, 0.01, DELAY_GRID.size)

    # --- polarization scan: dop = a/(a+2b)  ->  b = a (1-dop)/(2 dop)
    a = total * dop
    b = a * (1.0 - dop) / (2.0 * dop)
    pol = specfit.cos2_model(ANGLE_GRID, a, axis, b)
    pol += _ranged(draw, 3, -0.002, 0.002, ANGLE_GRID.size) * (a + b)

    # --- background correction inverts the mixing map
    rho, g2_true = _ranged(draw, 4, np.array([0.05, 0.0]), 1.0, 2).T

    true = dict(zip(_SCALARS, scalars.tolist()))
    return [{
        "spectrum": (specfit.MeasurementSeries(x[i], y[i]),
                     {"center": true["center"][i], "fwhm": true["fwhm"][i]}),
        "decay": (specfit.MeasurementSeries(t, counts[i], "decay"),
                  specfit.MeasurementSeries(t, irf[i], "decay"),
                  {"lifetime": true["lifetime"][i]}),
        "correlation": (specfit.MeasurementSeries(DELAY_GRID, g2[i], "correlation"),
                        {"anti": true["anti"][i]}),
        "polarization": (specfit.MeasurementSeries(ANGLE_GRID, pol[i], "polarization"),
                         {"dop": true["dop"][i]}),
        "background": (float(rho[i]), float(g2_true[i])),
    } for i in range(len(draw))]


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
    """Worst-case relative recovery errors over the randomized draws 0 to
    ``draws`` - 1."""
    worst = dict.fromkeys(["lorentzian_center", "lorentzian_fwhm", "lifetime", "g2_antibunching",
                           "g2_identity", "dop", "background_inverse"], 0.0)
    for first in range(0, draws, FIT_CHUNK):
        chunk = fit_roundtrip_draws(range(first, min(first + FIT_CHUNK, draws)))
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

    w = 0.5 * math.sqrt(3.0)  # the half-width of uniform roughness of 0.5 nm rms
    rough = fab.synthetic_hemisphere_profile(2.7, 2.4, 301, _ranged(MAX_DRAWS, 0, -w, w, 301))
    result = pipeline.fab(scenario, rough)
    report.add("9b", "hemisphere radius recovery at 0.5 nm roughness (um)",
               result["radius_um"], target("2.7 +- 1%"))
    report.add("9c", f"rms deviation classifies as ideal (< {fab.IDEAL_RMS_NM:g} nm)",
               result["rms_nm"], target(f"< {fab.IDEAL_RMS_NM:g} nm"))


def run_all(scenario: Scenario, draws: int) -> ReproductionReport:
    if draws < 1:
        raise ConfigError(f"reproduce needs at least one fit draw, got --draws {draws}")
    if draws > MAX_DRAWS:
        raise ConfigError(f"reproduce draws at most {MAX_DRAWS} fits, got --draws {draws}")
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
