"""Command-line front end: scenario config in, figure-ready CSV/JSON out.

Exit codes: 0 success, 1 validation error, 2 numerical failure
(non-convergence, no crossing, no resonance). ``--error-json`` switches
error reporting to machine-readable JSON on stdout.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, cavitymode, emitter, fab, optics, qkd, specfit
from .config import ConfigError, Scenario, apply_overrides, load_scenario, provenance_table
from .constants import linewidth_nm_to_hz, rate_from_lifetime_ps
from .reproduce import run_all

VALIDATION_ERRORS = (ConfigError, optics.OpticsError, cavitymode.CavityError,
                     emitter.PhotophysicsError, specfit.SeriesError, qkd.QkdError,
                     fab.FabError, ValueError)
NUMERICAL_ERRORS = (specfit.FitError, qkd.NoCrossingError, qkd.NoPositiveRateError,
                    optics.ResonanceSearchError)


def _stamp(scenario: Scenario) -> str:
    return f"spskit {__version__} config={scenario.digest()}"


def write_csv(path: Path, scenario: Scenario, columns: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {_stamp(scenario)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def write_json(path: Path, scenario: Scenario, payload: dict) -> None:
    body = {"schema_version": 1, "toolkit_version": __version__,
            "config_digest": scenario.digest()}
    body.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_mirror(args, scenario: Scenario) -> None:
    cfg = scenario["mirror"]
    out = _outdir(args)
    stack = optics.make_quarter_wave_stack(
        cfg["n_high"], cfg["n_low"], cfg["pairs"], cfg["design_wavelength_nm"],
        cfg["termination"], substrate_index=cfg["n_substrate"])
    step = cfg["wl_step_nm"]
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"[mirror] wl_step_nm must be positive and finite, got {step}")
    wls = np.arange(cfg["wl_min_nm"], cfg["wl_max_nm"] + 1e-9, step)
    curve = optics.reflectance(stack, wls)
    write_csv(out / "mirror_reflectance.csv", scenario,
              ["wavelength_nm", "reflectance"],
              zip(curve.wavelengths_nm, curve.values))
    (out / "mirror_stack.txt").write_text(
        f"# {_stamp(scenario)}\n" + stack.to_text(), encoding="utf-8")

    band = optics.stopband(stack, cfg["stopband_threshold"],
                           wavelength_range_nm=(cfg["wl_min_nm"], cfg["wl_max_nm"]),
                           anchor_nm=cfg["design_wavelength_nm"])
    lam0 = cfg["design_wavelength_nm"]
    bare = optics.LayerStack(1.0, (), cfg["n_substrate"])
    ar = optics.LayerStack(
        1.0, ((cfg["ar_index"], lam0 / (4 * cfg["ar_index"])),), cfg["n_substrate"])
    ar_band = np.arange(450.0, 700.0, 1.0)
    ar_curve = optics.reflectance(ar, ar_band)
    payload = {
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
        "ar_coated_reflectance_band_average": float(np.mean(ar_curve.values)),
        "ar_band_nm": [450.0, 700.0],
    }
    write_json(out / "mirror_report.json", scenario, payload)
    print(f"mirror: R({lam0:g} nm) = {payload['reflectance_at_design_wavelength']:.4%}, "
          f"stopband {payload['stopband_nm']}")


def cmd_cavity(args, scenario: Scenario) -> None:
    mcfg, ccfg = scenario["mirror"], scenario["cavity"]
    out = _outdir(args)
    lam = ccfg["wavelength_nm"]
    q = ccfg["longitudinal_order"]

    # penetration depth from the deposited (low-index-terminated) coating
    low_stack = optics.make_quarter_wave_stack(
        mcfg["n_high"], mcfg["n_low"], mcfg["pairs"], mcfg["design_wavelength_nm"],
        "low", substrate_index=mcfg["n_substrate"])
    gap_low = optics.resonant_gap(low_stack, low_stack, q, lam)
    xi = optics.penetration_depth(q, lam, gap_low)
    field = optics.intracavity_field(low_stack, gap_low, low_stack, lam)
    write_csv(out / "cavity_field.csv", scenario,
              ["position_nm", "normalized_intensity"],
              zip(field.positions_nm, field.intensity))

    # spectrum from loss-calibrated mirrors at the measured reflectivity,
    # at the device gap q*lam/2 - 2*penetration
    high_stack = optics.make_quarter_wave_stack(
        mcfg["n_high"], mcfg["n_low"], mcfg["pairs"], mcfg["design_wavelength_nm"],
        "high", substrate_index=mcfg["n_substrate"])
    lossy = optics.calibrated_lossy_stack(
        high_stack, ccfg["effective_mirror_reflectivity"], lam)
    gap = q * lam / 2.0 - 2.0 * xi
    wls = np.linspace(lam - 1.5, lam + 1.5, 3001)
    curve, res = optics.cavity_spectrum(lossy, gap, lossy, wls, report_near_nm=lam)
    write_csv(out / "cavity_spectrum.csv", scenario,
              ["wavelength_nm", "transmission"],
              zip(curve.wavelengths_nm, curve.values))

    config = cavitymode.CavityConfig(
        radius_of_curvature_um=ccfg["radius_of_curvature_um"],
        longitudinal_order=q, design_wavelength_nm=lam,
        penetration_depth_nm=xi, mirror_reflectivity=ccfg["mirror_reflectivity"],
        tuning_slope_nm_per_v=ccfg["tuning_slope_nm_per_v"],
        max_voltage_v=ccfg["max_voltage_v"])
    fsr, fin, linewidth = cavitymode.fsr_finesse_linewidth(
        config, include_penetration=ccfg["include_penetration"])
    payload = {
        "resonant_gap_nm": gap,
        "penetration_depth_nm": xi,
        "antinode_count": field.antinode_count(),
        "resonance": {
            "found": res.found, "center_nm": res.center_nm, "fwhm_nm": res.fwhm_nm,
            "quality_factor": res.quality_factor,
            "peak_transmission": res.peak_transmission,
        },
        "mode_volume_lambda3": cavitymode.mode_volume(config),
        "fsr_hz": fsr, "finesse": fin, "linewidth_hz": linewidth,
        "airy_quality_factor": cavitymode.quality_factor(
            config, include_penetration=ccfg["include_penetration"]),
    }
    write_json(out / "cavity_report.json", scenario, payload)
    print(f"cavity: gap {gap:.2f} nm, penetration {xi:.1f} nm, "
          f"Q {res.quality_factor:.0f}, FWHM {res.fwhm_nm:.4f} nm")


def cmd_emitter(args, scenario: Scenario) -> None:
    ecfg, ccfg = scenario["emitter"], scenario["cavity"]
    out = _outdir(args)
    config = cavitymode.CavityConfig(
        radius_of_curvature_um=ccfg["radius_of_curvature_um"],
        longitudinal_order=ccfg["longitudinal_order"],
        design_wavelength_nm=ecfg["zpl_wavelength_nm"],
        penetration_depth_nm=ccfg["penetration_depth_nm"],
        mirror_reflectivity=ccfg["mirror_reflectivity"],
        tuning_slope_nm_per_v=ccfg["tuning_slope_nm_per_v"])
    volume = cavitymode.mode_volume(config)
    chain = emitter.purcell_chain(
        ecfg["zpl_wavelength_nm"], ecfg["cavity_fwhm_nm"], ecfg["free_linewidth_nm"],
        volume, ecfg["lifetime_ratio"], ecfg["mirror_purcell"])
    q_eff, f_eff = chain.effective_quality_factor, chain.effective_purcell_factor
    eta = chain.quantum_efficiency

    gamma = rate_from_lifetime_ps(ecfg["free_lifetime_ps"])
    gamma_star = ecfg["dephasing_rate_hz"]
    kappa = linewidth_nm_to_hz(ecfg["cavity_fwhm_nm"], ecfg["zpl_wavelength_nm"])
    phys = emitter.EmitterPhotophysics(
        zpl_wavelength_nm=ecfg["zpl_wavelength_nm"],
        free_linewidth_nm=ecfg["free_linewidth_nm"],
        free_lifetime_ps=ecfg["free_lifetime_ps"],
        zpl_fraction=ecfg["zpl_fraction"],
        degree_of_polarization=ecfg["dop"])
    rates = emitter.rates_for_emitter_in_cavity(phys, ecfg["cavity_fwhm_nm"], f_eff)
    payload = {
        "mode_volume_lambda3": volume,
        "effective_quality_factor": q_eff,
        "effective_purcell_factor": f_eff,
        "quantum_efficiency": eta,
        "free_space_indistinguishability": emitter.indistinguishability_free(
            gamma, gamma_star),
        "cavity_indistinguishability": emitter.indistinguishability_cavity(rates),
        "kappa_for_90pct_indistinguishability_hz":
            emitter.kappa_for_target_indistinguishability(gamma, gamma_star, 1e5, 0.9),
        "coupling": emitter.coupling_report(f_eff, kappa, gamma),
        "rate_convention": "plain frequency (Hz); see module docs",
        "spectral_overlap_at_zero_detuning": 1.0,
    }
    write_json(out / "emitter_report.json", scenario, payload)

    gs, kappas, grid = emitter.indistinguishability_map(
        gamma, gamma_star,
        coupling_range=(ecfg["map_rate_min_hz"], ecfg["map_rate_max_hz"]),
        cavity_range=(ecfg["map_rate_min_hz"], ecfg["map_rate_max_hz"]),
        points=ecfg["map_points"])
    rows = ((g, k, grid[i, j]) for i, g in enumerate(gs) for j, k in enumerate(kappas))
    write_csv(out / "indistinguishability_map.csv", scenario,
              ["g_Hz", "kappa_Hz", "indistinguishability"], rows)
    print(f"emitter: F_eff {f_eff:.3f}, QE {eta:.3f}, I_cav "
          f"{payload['cavity_indistinguishability']:.3e}")


def cmd_fit(args, scenario: Scenario) -> None:
    out = _outdir(args)
    series = specfit.read_series_csv(args.input)
    fcfg = scenario["fit"]
    payload: dict = {"input": str(args.input), "kind": series.kind}
    if series.kind == "spectrum":
        instrument = None
        if args.scan_range or fcfg["scan_range_per_nm"]:
            instrument = specfit.Sinc2Instrument(
                args.scan_range or fcfg["scan_range_per_nm"])
        fit = specfit.fit_lorentzian(series, instrument)
        payload["fit"] = fit.as_dict()
        payload["zpl_fraction"] = specfit.zpl_fraction(
            series, fit, default_cutoff_nm=fcfg["contaminant_cutoff_nm"])
    elif series.kind == "decay":
        if not args.irf:
            raise ConfigError("decay fitting requires --irf <csv>")
        irf = specfit.read_series_csv(args.irf)
        fit = specfit.fit_decay_with_irf(series, irf)
        payload["fit"] = fit.as_dict()
    elif series.kind == "correlation":
        gfit = specfit.fit_g2(series)
        payload["fit"] = {
            "parameters": {
                "antibunching_amplitude": gfit.antibunching_amplitude,
                "bunching_amplitude": gfit.bunching_amplitude,
                "antibunching_time_ps": gfit.antibunching_time_ps,
                "bunching_time_ps": gfit.bunching_time_ps,
                "g2_zero": gfit.g2_zero,
            },
            "uncertainties": gfit.stderr,
            "residual_norm": gfit.residual_norm,
        }
        if args.snr is not None:
            payload["fit"]["parameters"]["g2_zero_background_corrected"] = (
                specfit.correct_g2_background(gfit.g2_zero, args.snr))
    elif series.kind == "polarization":
        fit = specfit.fit_polarization(series)
        payload["fit"] = fit.as_dict()
    else:
        raise ConfigError(f"no fitter for series kind {series.kind!r}")
    write_json(out / "fit_report.json", scenario, payload)
    print(f"fit: {series.kind} -> {out / 'fit_report.json'}")


def cmd_qkd(args, scenario: Scenario) -> None:
    qcfg = scenario["qkd"]
    out = _outdir(args)
    detector = qkd.DetectorModel(
        receiver_efficiency=qcfg["receiver_efficiency"],
        dark_count_per_pulse=qcfg["dark_count_per_pulse"],
        misalignment_error=qcfg["misalignment_error"],
        error_correction_inefficiency=qcfg["error_correction_inefficiency"],
        sifting_factor=qcfg["sifting_factor"])
    if qcfg["channel"] == "fiber":
        channel = qkd.ChannelModel(kind="fiber",
                                   attenuation_db_per_km=qcfg["attenuation_db_per_km"])
    else:
        half_angle = None
        if qcfg["divergence_model"] == "calibrated":
            half_angle = qkd.calibrate_divergence_half_angle(
                qcfg["transmit_aperture_m"], qcfg["receive_aperture_m"],
                qcfg["calibration_loss_db"], qcfg["calibration_distance_km"])
        channel = qkd.ChannelModel(
            kind="freespace", transmit_aperture_m=qcfg["transmit_aperture_m"],
            receive_aperture_m=qcfg["receive_aperture_m"],
            wavelength_nm=scenario["emitter"]["zpl_wavelength_nm"],
            divergence_model=qcfg["divergence_model"],
            divergence_half_angle_rad=half_angle)

    mu_mode = qcfg["mu_mode"]
    sources = {
        "sps": qkd.SourceModel(kind="real_sps", mean_photons=qcfg["source_efficiency"],
                               g2_zero=qcfg["g2_zero"]),
        "ideal": qkd.ideal_sps(),
        "wcs": qkd.SourceModel(kind="wcs", mean_photons=qcfg["mu_fixed"], mu_mode=mu_mode),
        "decoy": qkd.SourceModel(kind="decoy", mean_photons=qcfg["mu_fixed"],
                                 mu_mode=mu_mode),
    }
    sweep_arg = args.sweep or (f"{qcfg['sweep_start_km']}:{qcfg['sweep_stop_km']}"
                               f":{qcfg['sweep_step_km']}")
    start, stop, step = (float(v) for v in sweep_arg.split(":"))
    distances = np.arange(start, stop + step / 2, step)
    rows = qkd.sweep(sources, channel, detector, distances)
    columns = ["distance_km", "loss_db", "rate_sps", "rate_ideal", "rate_wcs",
               "rate_decoy", "mu_wcs", "mu_decoy"]
    write_csv(out / "qkd_rates.csv", scenario, columns,
              ([row["distance_km"], row["loss_db"], row["rate_sps"], row["rate_ideal"],
                row["rate_wcs"], row["rate_decoy"],
                row.get("mu_wcs", qcfg["mu_fixed"]),
                row.get("mu_decoy", qcfg["mu_fixed"])] for row in rows))

    crossings = {}
    for label, other in (("sps_vs_decoy", sources["decoy"]), ("sps_vs_wcs", sources["wcs"])):
        try:
            rep = qkd.find_crossing(sources["sps"], other, channel, detector,
                                    (max(start, 0.5), max(stop, 1.0)))
            crossings[label] = {"distance_km": rep.distance_km, "loss_db": rep.loss_db,
                                "rate": rep.rate}
        except (qkd.NoCrossingError, qkd.NoPositiveRateError) as exc:
            crossings[label] = {"result": f"no crossing: {exc}"}
    payload = {
        "channel": qcfg["channel"],
        "mu_mode": mu_mode,
        "crossings": crossings,
        "security_model": qkd.SECURITY_FORMULAS.splitlines(),
    }
    if qcfg["channel"] == "freespace" and qcfg["divergence_model"] == "calibrated":
        payload["calibrated_half_angle_rad"] = channel.divergence_half_angle_rad
        payload["calibration"] = {
            "loss_db": qcfg["calibration_loss_db"],
            "distance_km": qcfg["calibration_distance_km"],
        }
    write_json(out / "qkd_crossings.json", scenario, payload)
    print(f"qkd: {len(rows)} sweep rows -> {out / 'qkd_rates.csv'}; "
          f"crossings: {crossings}")


def cmd_fab(args, scenario: Scenario) -> None:
    fcfg = scenario["fab"]
    out = _outdir(args)
    if args.profile:
        profile = fab.read_profile_csv(args.profile)
        result = fab.fit_hemisphere_profile(
            profile, edge_exclusion_fraction=fcfg["edge_exclusion_fraction"])
        result["classified_ideal_hemisphere"] = bool(result["rms_nm"] < 1.0)
        write_json(out / "hemisphere_fit.json", scenario, result)
        print(f"fab: radius {result['radius_um']:.4f} um, rms {result['rms_nm']:.3f} nm")
        return
    calibration = scenario.require("fab", "calibration_nm_per_unit")
    dose = fab.hemisphere_dose_map(fcfg["radius_um"], fcfg["aperture_um"],
                                   fcfg["pitch_nm"], calibration)
    fab.write_bmp(out / "dose_map.bmp", dose,
                  metadata={"toolkit_version": __version__,
                            "config_digest": scenario.digest()})
    print(f"fab: {dose.width}x{dose.height} px dose map -> {out / 'dose_map.bmp'}")


def cmd_reproduce(args, scenario: Scenario) -> None:
    out = _outdir(args)
    report = run_all(draws=args.draws)
    table = report.table()
    (out / "reproduce_table.txt").write_text(
        f"# {_stamp(scenario)}\n{table}\n", encoding="utf-8")
    write_json(out / "reproduce_report.json", scenario, {
        "checks": [{"id": c.cid, "label": c.label, "computed": c.computed,
                    "target": c.target, "passed": c.passed, "note": c.note}
                   for c in report.checks],
        "passed": report.n_passed,
        "total": len(report.checks),
    })
    print(table)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spskit",
        description="Cavity-enhanced single-photon source design and analysis toolkit")
    parser.add_argument("--config", help="scenario file (INI key=value or JSON)")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override a config value (repeatable; wins over the file)")
    parser.add_argument("--outdir", default="out", help="output directory")
    parser.add_argument("--error-json", action="store_true",
                        help="report errors as JSON on stdout")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("mirror", help="coating reflectance, stopband, AR report")
    sub.add_parser("cavity", help="cavity spectrum, Q, field profile, penetration depth")
    sub.add_parser("emitter", help="Purcell chain, efficiency, indistinguishability maps")

    p_fit = sub.add_parser("fit", help="fit a measurement CSV; kind read from its header")
    p_fit.add_argument("--input", required=True, help="two-column CSV with a kind header")
    p_fit.add_argument("--irf", help="instrument response CSV (decay fitting)")
    p_fit.add_argument("--scan-range", type=float, default=0.0,
                       help="sinc^2 instrument scale in 1/nm (spectrum fitting)")
    p_fit.add_argument("--snr", type=float, default=None,
                       help="signal-to-noise ratio for background-corrected g2")

    p_qkd = sub.add_parser("qkd", help="key-rate sweeps and crossing search")
    p_qkd.add_argument("--sweep", help="distance sweep start:stop:step in km")

    p_fab = sub.add_parser("fab", help="dose-map generation or profile fitting")
    p_fab.add_argument("--profile", help="surface profile CSV (x_um, z_nm) to fit")

    p_rep = sub.add_parser("reproduce", help="run the full reproduction table")
    p_rep.add_argument("--draws", type=int, default=100,
                       help="randomized draws per fit round-trip check")

    p_prov = sub.add_parser("provenance", help="print the provenance of every default")
    del p_prov
    return parser


COMMANDS = {
    "mirror": cmd_mirror,
    "cavity": cmd_cavity,
    "emitter": cmd_emitter,
    "fit": cmd_fit,
    "qkd": cmd_qkd,
    "fab": cmd_fab,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        apply_overrides(scenario, args.set)
        if args.command == "provenance":
            print(json.dumps(provenance_table(), indent=2, sort_keys=True))
            return 0
        COMMANDS[args.command](args, scenario)
        return 0
    except NUMERICAL_ERRORS as exc:
        _report_error(args, exc, 2)
        return 2
    except VALIDATION_ERRORS as exc:
        _report_error(args, exc, 1)
        return 1


def _report_error(args, exc: Exception, code: int) -> None:
    if getattr(args, "error_json", False):
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": code}, sort_keys=True))
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
