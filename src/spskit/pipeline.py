"""Scenario to models, shared by the CLI subcommands, which write the
data, and ``reproduce``, which checks it. Each function imports the
modules it runs, so a call loads only those.
"""
from __future__ import annotations

import numpy as np

from .config import Scenario


def mirror_stack(scenario: Scenario, termination: str):
    """The scenario's quarter-wave coating with ``termination`` outermost."""
    from . import optics
    cfg = scenario["mirror"]
    return optics.make_quarter_wave_stack(
        cfg["n_high"], cfg["n_low"], cfg["pairs"], cfg["design_wavelength_nm"],
        termination, substrate_index=cfg["n_substrate"])


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

    config = cavitymode.CavityConfig(
        radius_of_curvature_um=ccfg["radius_of_curvature_um"],
        longitudinal_order=q, design_wavelength_nm=lam,
        penetration_depth_nm=xi, mirror_reflectivity=ccfg["mirror_reflectivity"])
    fsr, fin, linewidth = cavitymode.fsr_finesse_linewidth(
        config, include_penetration=ccfg["include_penetration"])
    report = {
        "resonant_gap_nm": gap,
        "penetration_depth_nm": xi,
        "antinode_count": optics.antinode_count(intensity),
        "resonance": resonance,
        "mode_volume_lambda3": cavitymode.mode_volume(config),
        "fsr_hz": fsr, "finesse": fin, "linewidth_hz": linewidth,
        "airy_quality_factor": cavitymode.quality_factor(
            config, include_penetration=ccfg["include_penetration"]),
    }
    return positions, intensity, wls, transmission, report


def emitter(scenario: Scenario) -> dict:
    """The emitter report: Purcell chain, efficiency, indistinguishability."""
    from . import cavitymode, emitter
    from .constants import linewidth_nm_to_hz, rate_from_lifetime_ps
    ecfg, ccfg = scenario["emitter"], scenario["cavity"]
    zpl = ecfg["zpl_wavelength_nm"]
    # the mode volume reads the geometry alone
    volume = cavitymode.mode_volume(cavitymode.CavityConfig(
        radius_of_curvature_um=ccfg["radius_of_curvature_um"],
        longitudinal_order=ccfg["longitudinal_order"],
        design_wavelength_nm=zpl))
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
    rates = emitter.CoupledRates(
        gamma, linewidth_nm_to_hz(ecfg["free_linewidth_nm"], zpl), kappa,
        emitter.coupling_from_purcell(f_eff, kappa, gamma))
    return {
        "mode_volume_lambda3": volume,
        **chain,
        "free_space_indistinguishability": emitter.indistinguishability_free(gamma, gamma_star),
        "cavity_indistinguishability": emitter.indistinguishability_cavity(rates),
        "kappa_for_90pct_indistinguishability_hz":
            emitter.kappa_for_target_indistinguishability(gamma, gamma_star, 1e5, 0.9),
        "coupling": emitter.coupling_report(f_eff, kappa, gamma),
        "rate_convention": "plain frequency (Hz); see module docs",
        "spectral_overlap_at_zero_detuning": 1.0,
    }


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
    if channel == "fiber":
        link = qkd.ChannelModel(kind="fiber", attenuation_db_per_km=qcfg["attenuation_db_per_km"])
    else:
        half_angle = None
        if divergence_model == "calibrated":
            half_angle = qkd.calibrate_divergence_half_angle(
                qcfg["transmit_aperture_m"], qcfg["receive_aperture_m"],
                qcfg["calibration_loss_db"], qcfg["calibration_distance_km"])
        link = qkd.ChannelModel(
            kind="freespace", transmit_aperture_m=qcfg["transmit_aperture_m"],
            receive_aperture_m=qcfg["receive_aperture_m"],
            wavelength_nm=scenario["emitter"]["zpl_wavelength_nm"],
            divergence_model=divergence_model, divergence_half_angle_rad=half_angle)

    mu_mode = qcfg["mu_mode"]
    sources = {
        "sps": qkd.SourceModel(kind="real_sps", mean_photons=qcfg["source_efficiency"],
                               g2_zero=qcfg["g2_zero"]),
        "ideal": qkd.ideal_sps(),
        "wcs": qkd.SourceModel(kind="wcs", mean_photons=qcfg["mu_fixed"], mu_mode=mu_mode),
        "decoy": qkd.SourceModel(kind="decoy", mean_photons=qcfg["mu_fixed"], mu_mode=mu_mode),
    }
    return detector, link, sources
