"""Scenario to data: every value a CLI subcommand writes is computed
here, and ``reproduce`` checks the same values by calling the same
functions. Each function imports the modules it runs, so a call loads
only those.
"""
from __future__ import annotations

import math

import numpy as np

from .config import ConfigError, Scenario

# the sweep rows that the [qkd] keys allow: 0 to 1000 km in steps of 0.1 km
MAX_SWEEP_ROWS = 10_001
QKD_COLUMNS = ["distance_km", "loss_db", "rate_sps", "rate_ideal", "rate_wcs",
               "rate_decoy", "mu_wcs", "mu_decoy"]
# the series kind that each kind-specific flag of ``fit`` applies to
FIT_FLAG_KINDS = {"irf": "decay", "scan_range": "spectrum", "snr": "correlation"}


def mirror_stack(scenario: Scenario, termination: str):
    """The scenario's quarter-wave coating with ``termination`` outermost."""
    from . import optics
    cfg = scenario["mirror"]
    return optics.make_quarter_wave_stack(
        cfg["n_high"], cfg["n_low"], cfg["pairs"], cfg["design_wavelength_nm"],
        termination, substrate_index=cfg["n_substrate"])


def mirror(scenario: Scenario) -> tuple:
    """The scan's wavelengths and reflectance, the stack, and the mirror
    report."""
    from . import optics
    cfg = scenario["mirror"]
    if cfg["wl_min_nm"] > cfg["wl_max_nm"]:
        raise ConfigError(f"[mirror] wl_max_nm must not be below wl_min_nm, got "
                          f"{cfg['wl_max_nm']:g} < {cfg['wl_min_nm']:g}")
    lam0 = cfg["design_wavelength_nm"]
    stack = mirror_stack(scenario, cfg["termination"])
    wls = np.arange(cfg["wl_min_nm"], cfg["wl_max_nm"] + 1e-9, cfg["wl_step_nm"])
    reflectance = optics.reflectance(stack, wls)
    band = optics.stopband(stack, cfg["stopband_threshold"],
                           wavelength_range_nm=(cfg["wl_min_nm"], cfg["wl_max_nm"]),
                           anchor_nm=lam0)
    bare = optics.LayerStack(1.0, (), cfg["n_substrate"])
    ar = optics.LayerStack(
        1.0, ((cfg["ar_index"], lam0 / (4 * cfg["ar_index"])),), cfg["n_substrate"])
    report = {
        "reflectance_at_design_wavelength": optics.reflectance_at(stack, lam0),
        "closed_form_reflectance": optics.quarter_wave_peak_reflectance(
            cfg["n_high"], cfg["n_low"], cfg["pairs"], cfg["termination"],
            n_substrate=cfg["n_substrate"]),
        "stopband_threshold": cfg["stopband_threshold"],
        "stopband_nm": list(band) if band else None,
        "analytic_fractional_width": optics.analytic_stopband_fractional_width(
            cfg["n_high"], cfg["n_low"]),
        "bare_interface_reflectance": optics.reflectance_at(bare, lam0),
        "ar_coated_reflectance_at_design": optics.reflectance_at(ar, lam0),
        "ar_coated_reflectance_band_average": float(np.mean(
            optics.reflectance(ar, np.arange(450.0, 700.0, 1.0)))),
        "ar_band_nm": [450.0, 700.0],
    }
    return wls, reflectance, stack, report


def cavity(scenario: Scenario) -> tuple:
    """The field's positions and intensity, the spectrum's wavelengths and
    transmission, and the cavity report."""
    from . import cavitymode, optics
    ccfg = scenario["cavity"]
    lam, q = ccfg["wavelength_nm"], ccfg["longitudinal_order"]

    # penetration depth from the deposited (low-index-terminated) coating
    low_stack = mirror_stack(scenario, "low")
    gap_low = optics.resonant_gap(low_stack, low_stack, q, lam)
    xi = optics.penetration_depth(q, lam, gap_low)
    positions, intensity = optics.intracavity_field(low_stack, gap_low, low_stack, lam)

    # spectrum from loss-calibrated mirrors at the measured reflectivity,
    # at the device gap q*lam/2 - 2*penetration
    lossy = optics.calibrated_lossy_stack(
        mirror_stack(scenario, "high"), ccfg["effective_mirror_reflectivity"], lam)
    gap = q * lam / 2.0 - 2.0 * xi
    wls = np.linspace(lam - 1.5, lam + 1.5, 3001)
    transmission, resonance = optics.cavity_spectrum(lossy, gap, lossy, wls,
                                                     report_near_nm=lam)

    # the free spectral range and Q read L_eff = q*lam/2 + 2*xi, or the bare length
    length_args = (q, lam, xi if ccfg["include_penetration"] else 0.0,
                   ccfg["mirror_reflectivity"])
    fsr, fin, linewidth = cavitymode.fsr_finesse_linewidth(*length_args)
    report = {
        "resonant_gap_nm": gap,
        "penetration_depth_nm": xi,
        "antinode_count": optics.antinode_count(intensity),
        "resonance": resonance,
        "mode_volume_lambda3": cavitymode.mode_volume(ccfg["radius_of_curvature_um"], q, lam),
        "fsr_hz": fsr, "finesse": fin, "linewidth_hz": linewidth,
        "airy_quality_factor": cavitymode.quality_factor(*length_args),
    }
    return positions, intensity, wls, transmission, report


def emitter(scenario: Scenario) -> dict:
    """The emitter report: Purcell chain, efficiency, indistinguishability."""
    from . import cavitymode, emitter
    from .constants import linewidth_nm_to_hz, rate_from_lifetime_ps
    ecfg, ccfg = scenario["emitter"], scenario["cavity"]
    zpl = ecfg["zpl_wavelength_nm"]
    volume = cavitymode.mode_volume(ccfg["radius_of_curvature_um"],
                                    ccfg["longitudinal_order"], zpl)
    chain = emitter.purcell_chain(
        zpl, ecfg["cavity_fwhm_nm"], ecfg["free_linewidth_nm"], volume,
        ecfg["lifetime_ratio"], ecfg["mirror_purcell"])
    f_eff = chain["effective_purcell_factor"]

    gamma = rate_from_lifetime_ps(ecfg["free_lifetime_ps"])
    gamma_star = ecfg["dephasing_rate_hz"]
    kappa = linewidth_nm_to_hz(ecfg["cavity_fwhm_nm"], zpl)
    # the coupled rates take their dephasing from the free-space linewidth,
    # not from dephasing_rate_hz, which the free-space value and the 90 %
    # kappa search read
    rates = (gamma, linewidth_nm_to_hz(ecfg["free_linewidth_nm"], zpl), kappa,
             emitter.coupling_from_purcell(f_eff, kappa, gamma))
    return {
        "mode_volume_lambda3": volume,
        **chain,
        "free_space_indistinguishability": emitter.indistinguishability_free(gamma, gamma_star),
        "cavity_indistinguishability": emitter.indistinguishability_cavity(*rates),
        "kappa_for_90pct_indistinguishability_hz":
            emitter.kappa_for_target_indistinguishability(gamma, gamma_star, 1e5, 0.9),
        "coupling": emitter.coupling_report(f_eff, kappa, gamma),
        "rate_convention": "plain frequency (Hz); see module docs",
        "spectral_overlap_at_zero_detuning": 1.0,
    }


def emitter_map(scenario: Scenario) -> tuple:
    """The indistinguishability map over the scenario's coupling and
    cavity rates: the two axes (Hz) and the grid."""
    from . import emitter
    from .constants import rate_from_lifetime_ps
    ecfg = scenario["emitter"]
    rates = (ecfg["map_rate_min_hz"], ecfg["map_rate_max_hz"])
    return emitter.indistinguishability_map(
        rate_from_lifetime_ps(ecfg["free_lifetime_ps"]), ecfg["dephasing_rate_hz"],
        coupling_range=rates, cavity_range=rates, points=ecfg["map_points"])


def check_fit_flags(kind: str, **flags) -> None:
    """Rejects a flag of ``FIT_FLAG_KINDS`` that is given for another ``kind``."""
    for name, value in flags.items():
        if value is not None and FIT_FLAG_KINDS[name] != kind:
            raise ConfigError(f"--{name.replace('_', '-')} applies to a "
                              f"{FIT_FLAG_KINDS[name]} only, not a {kind}")


def fit(scenario: Scenario, series, irf, scan_range: float | None,
        snr: float | None) -> dict:
    """The fit report of a measurement ``series``, by its kind: a decay
    through its instrument response ``irf``, a spectrum through the sinc^2
    instrument of ``scan_range`` (1/nm; None takes the scenario's, 0 none),
    a correlation with g2(0) corrected for the background at ``snr``. The
    flags are those ``check_fit_flags`` passed; an ``snr`` the correction
    rejects fails before any fit."""
    from . import specfit
    if snr is not None:
        specfit.correct_g2_background(1.0, snr)  # raises on a negative, zero or NaN snr
    fcfg = scenario["fit"]
    report: dict = {"kind": series.kind}
    if series.kind == "spectrum":
        # an explicit 0 switches the instrument off over the scenario's value
        scan_range = (fcfg["scan_range_per_nm"] if scan_range is None
                      else scan_range) or None
        line = specfit.fit_lorentzian(series, scan_range)
        report["fit"] = line.as_dict()
        report["zpl_fraction"] = specfit.zpl_fraction(
            series, line, cutoff_nm=fcfg["contaminant_cutoff_nm"])
    elif series.kind == "decay":
        if irf is None:
            raise ConfigError("decay fitting requires --irf <csv>")
        report["fit"] = specfit.fit_decay_with_irf(series, irf).as_dict()
    elif series.kind == "correlation":
        report["fit"] = specfit.fit_g2(series).as_dict()
        if snr is not None:
            parameters = report["fit"]["parameters"]
            parameters["g2_zero_background_corrected"] = specfit.correct_g2_background(
                parameters["g2_zero"], snr)
    else:
        report["fit"] = specfit.fit_polarization(series).as_dict()
    return report


def qkd_models(scenario: Scenario, channel: str, divergence_model: str | None = None) -> tuple:
    """The detector, the ``channel`` link and the sources sps, ideal, wcs
    and decoy; a free-space link spreads by ``divergence_model``."""
    from . import qkd
    qcfg = scenario["qkd"]
    detector = qkd.DetectorModel(
        receiver_efficiency=qcfg["receiver_efficiency"],
        dark_count_per_pulse=qcfg["dark_count_per_pulse"],
        misalignment_error=qcfg["misalignment_error"],
        error_correction_inefficiency=qcfg["error_correction_inefficiency"],
        sifting_factor=qcfg["sifting_factor"])
    half_angle = None
    if channel == "freespace" and divergence_model == "calibrated":
        half_angle = qkd.calibrate_divergence_half_angle(
            qcfg["transmit_aperture_m"], qcfg["receive_aperture_m"],
            qcfg["calibration_loss_db"], qcfg["calibration_distance_km"])
    link = qkd.ChannelModel(
        kind=channel, attenuation_db_per_km=qcfg["attenuation_db_per_km"],
        transmit_aperture_m=qcfg["transmit_aperture_m"],
        receive_aperture_m=qcfg["receive_aperture_m"],
        wavelength_nm=scenario["emitter"]["zpl_wavelength_nm"],
        divergence_model=divergence_model, divergence_half_angle_rad=half_angle)

    sources = {"sps": qkd.SourceModel(kind="real_sps", mean_photons=qcfg["source_efficiency"],
                                      g2_zero=qcfg["g2_zero"]),
               "ideal": qkd.ideal_sps()}
    for kind in ("wcs", "decoy"):  # the Poissonian sources
        sources[kind] = qkd.SourceModel(kind=kind, mean_photons=qcfg["mu_fixed"],
                                        mu_mode=qcfg["mu_mode"])
    return detector, link, sources


def qkd_sweep(scenario: Scenario, sweep: str | None = None) -> tuple:
    """The distances (km) of a ``start:stop:step`` sweep, the scenario's
    unless ``sweep`` is given, and the crossing search interval it sets:
    from max(start, 0.5 km) to max(stop, 1 km)."""
    qcfg = scenario["qkd"]
    text = sweep or f"{qcfg['sweep_start_km']}:{qcfg['sweep_stop_km']}:{qcfg['sweep_step_km']}"
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise ConfigError(f"sweep must be start:stop:step in km, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"sweep start, stop and step must be finite, got {text!r}")
    if step <= 0:
        raise ConfigError(f"sweep step must be positive, got {step:g} km")
    if stop < start:
        raise ConfigError(f"sweep stop must not be below its start, got {text!r}")
    if (stop - start) / step > MAX_SWEEP_ROWS - 1:
        raise ConfigError(f"sweep must have at most {MAX_SWEEP_ROWS:,} rows, got {text!r}")
    interval = (max(start, 0.5), max(stop, 1.0))
    if interval[0] >= interval[1]:
        raise ConfigError(f"sweep {text!r} leaves no crossing search interval: its stop "
                          f"must exceed its start, or lie below 1 km")
    return np.arange(start, stop + step / 2, step), interval


def qkd_crossings(models: tuple, interval: tuple[float, float],
                  others: tuple[str, ...] = ("decoy", "wcs")) -> dict:
    """The crossing of the sps source with each of ``others`` in
    ``interval`` (km), keyed ``sps_vs_<other>``, for the detector, link
    and sources ``models`` of ``qkd_models``; a pair without one says why."""
    from . import qkd
    detector, channel, sources = models
    crossings = {}
    for other in others:
        try:
            crossings[f"sps_vs_{other}"] = qkd.find_crossing(
                sources["sps"], sources[other], channel, detector, interval)
        except (qkd.NoCrossingError, qkd.NoPositiveRateError) as exc:
            crossings[f"sps_vs_{other}"] = {"result": f"no crossing: {exc}"}
    return crossings


def qkd(scenario: Scenario, sweep: str | None) -> tuple:
    """The sweep's rate table, in ``QKD_COLUMNS``, and the crossing report
    over the scenario's channel."""
    from . import qkd
    qcfg = scenario["qkd"]
    models = qkd_models(scenario, qcfg["channel"], qcfg["divergence_model"])
    detector, channel, sources = models
    distances, interval = qkd_sweep(scenario, sweep)
    rows = qkd.sweep(sources, channel, detector, distances)
    table = np.column_stack([rows[c] for c in QKD_COLUMNS])
    report = {
        "channel": qcfg["channel"],
        "mu_mode": qcfg["mu_mode"],
        "crossings": qkd_crossings(models, interval),
        "security_model": qkd.SECURITY_FORMULAS.splitlines(),
    }
    if qcfg["channel"] == "freespace" and qcfg["divergence_model"] == "calibrated":
        report["calibrated_half_angle_rad"] = channel.divergence_half_angle_rad
        report["calibration"] = {
            "loss_db": qcfg["calibration_loss_db"],
            "distance_km": qcfg["calibration_distance_km"],
        }
    return table, report


def fab(scenario: Scenario, profile=None):
    """The dose map of the scenario's hemisphere or, given a measured
    surface ``profile``, the report of its hemisphere fit."""
    from . import fab
    fcfg = scenario["fab"]
    if profile is not None:
        return fab.fit_hemisphere_profile(
            profile, edge_exclusion_fraction=fcfg["edge_exclusion_fraction"])
    return fab.hemisphere_dose_map(fcfg["radius_um"], fcfg["aperture_um"], fcfg["pitch_nm"],
                                   scenario.require("fab", "calibration_nm_per_unit"))
