"""Command-line front end: scenario config in, figure-ready CSV/JSON out.

Exit codes: 0 success, 1 validation error, 2 numerical failure
(non-convergence, no crossing, no resonance). ``--error-json`` switches
error reporting to machine-readable JSON on stdout. Each subcommand
imports the modules it runs, so a call loads only those.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, Scenario, apply_overrides, load_scenario, provenance_table
from .errors import NumericalError

# every module's validation error subclasses ValueError
VALIDATION_ERRORS = (ValueError, OSError)
# rows formatted per str.format call; bounds the text held at once
CSV_BLOCK_ROWS = 2048
# the sweep rows that the [qkd] keys allow: 0 to 1000 km in steps of 0.1 km
MAX_SWEEP_ROWS = 10_001


def _stamp(scenario: Scenario) -> str:
    return f"spskit {__version__} config={scenario.digest()}"


def write_csv(path: Path, scenario: Scenario, columns: list[str], rows: np.ndarray,
              axes: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """``rows`` is a 2-D float array; each value is written as ``{:.10g}``.

    A grid is written with its ``axes`` (x, y) as its two leading columns:
    row i * len(y) + j is the point (x[i], y[j]), and ``rows`` holds the
    remaining columns. Each axis value is formatted once, and each x is
    one str.format call.
    """
    cell = "{:.10g}"
    line = ",".join([cell] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {_stamp(scenario)}\n")
        fh.write(",".join(columns) + "\n")
        if axes is None:
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                block = rows[start:start + CSV_BLOCK_ROWS]
                fh.write((line * len(block)).format(*block.ravel().tolist()))
        else:
            xs, ys = ([cell.format(v) + "," for v in axis.tolist()] for axis in axes)
            tails = [y + line for y in ys]
            for x, block in zip(xs, rows.reshape(len(xs), -1).tolist()):
                # x.join puts x before every row but the first
                fh.write((x + x.join(tails)).format(*block))


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
    from . import optics, pipeline
    cfg = scenario["mirror"]
    if cfg["wl_min_nm"] > cfg["wl_max_nm"]:
        raise ConfigError(f"[mirror] wl_max_nm must not be below wl_min_nm, got "
                          f"{cfg['wl_max_nm']:g} < {cfg['wl_min_nm']:g}")
    out = _outdir(args)
    stack = pipeline.mirror_stack(scenario, cfg["termination"])
    wls = np.arange(cfg["wl_min_nm"], cfg["wl_max_nm"] + 1e-9, cfg["wl_step_nm"])
    write_csv(out / "mirror_reflectance.csv", scenario,
              ["wavelength_nm", "reflectance"],
              np.column_stack([wls, optics.reflectance(stack, wls)]))
    (out / "mirror_stack.txt").write_text(
        f"# {_stamp(scenario)}\n" + stack.to_text(), encoding="utf-8")

    band = optics.stopband(stack, cfg["stopband_threshold"],
                           wavelength_range_nm=(cfg["wl_min_nm"], cfg["wl_max_nm"]),
                           anchor_nm=cfg["design_wavelength_nm"])
    lam0 = cfg["design_wavelength_nm"]
    bare = optics.LayerStack(1.0, (), cfg["n_substrate"])
    ar = optics.LayerStack(
        1.0, ((cfg["ar_index"], lam0 / (4 * cfg["ar_index"])),), cfg["n_substrate"])
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
        "ar_coated_reflectance_band_average": float(np.mean(
            optics.reflectance(ar, np.arange(450.0, 700.0, 1.0)))),
        "ar_band_nm": [450.0, 700.0],
    }
    write_json(out / "mirror_report.json", scenario, payload)
    print(f"mirror: R({lam0:g} nm) = {payload['reflectance_at_design_wavelength']:.4%}, "
          f"stopband {payload['stopband_nm']}")


def cmd_cavity(args, scenario: Scenario) -> None:
    from . import pipeline
    out = _outdir(args)
    positions, intensity, wls, transmission, payload = pipeline.cavity(scenario)
    write_csv(out / "cavity_field.csv", scenario,
              ["position_nm", "normalized_intensity"],
              np.column_stack([positions, intensity]))
    write_csv(out / "cavity_spectrum.csv", scenario,
              ["wavelength_nm", "transmission"],
              np.column_stack([wls, transmission]))
    write_json(out / "cavity_report.json", scenario, payload)
    res = payload["resonance"]
    print(f"cavity: gap {payload['resonant_gap_nm']:.2f} nm, "
          f"penetration {payload['penetration_depth_nm']:.1f} nm, "
          f"Q {res['quality_factor']:.0f}, FWHM {res['fwhm_nm']:.4f} nm")


def cmd_emitter(args, scenario: Scenario) -> None:
    from . import emitter, pipeline
    from .constants import rate_from_lifetime_ps
    ecfg = scenario["emitter"]
    out = _outdir(args)
    payload = pipeline.emitter(scenario)
    gs, kappas, grid = emitter.indistinguishability_map(
        rate_from_lifetime_ps(ecfg["free_lifetime_ps"]), ecfg["dephasing_rate_hz"],
        coupling_range=(ecfg["map_rate_min_hz"], ecfg["map_rate_max_hz"]),
        cavity_range=(ecfg["map_rate_min_hz"], ecfg["map_rate_max_hz"]),
        points=ecfg["map_points"])
    write_json(out / "emitter_report.json", scenario, payload)
    write_csv(out / "indistinguishability_map.csv", scenario,
              ["g_Hz", "kappa_Hz", "indistinguishability"], grid.reshape(-1, 1),
              axes=(gs, kappas))
    print(f"emitter: F_eff {payload['effective_purcell_factor']:.3f}, "
          f"QE {payload['quantum_efficiency']:.3f}, "
          f"I_cav {payload['cavity_indistinguishability']:.3e}")


def cmd_fit(args, scenario: Scenario) -> None:
    from . import specfit
    out = _outdir(args)
    series = specfit.read_series_csv(args.input)
    fcfg = scenario["fit"]
    payload: dict = {"input": str(args.input), "kind": series.kind}
    if series.kind == "spectrum":
        # an explicit 0 switches the instrument off over the scenario's value
        scan_range = (fcfg["scan_range_per_nm"] if args.scan_range is None
                      else args.scan_range) or None
        fit = specfit.fit_lorentzian(series, scan_range)
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
            "model": gfit.model,
            "residual_norms": gfit.residual_norms,
            "iterations": gfit.n_evaluations,
            "converged": gfit.converged,
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
    from . import pipeline, qkd
    qcfg = scenario["qkd"]
    out = _outdir(args)
    detector, channel, sources = pipeline.qkd_models(
        scenario, qcfg["channel"], qcfg["divergence_model"])
    sweep_arg = args.sweep or (f"{qcfg['sweep_start_km']}:{qcfg['sweep_stop_km']}"
                               f":{qcfg['sweep_step_km']}")
    start, stop, step = _sweep_range(sweep_arg)
    interval = (max(start, 0.5), max(stop, 1.0))
    if interval[0] >= interval[1]:
        raise ConfigError(f"sweep {sweep_arg!r} leaves no crossing search interval: its stop "
                          f"must exceed its start, or lie below 1 km")
    distances = np.arange(start, stop + step / 2, step)
    rows = qkd.sweep(sources, channel, detector, distances)
    columns = ["distance_km", "loss_db", "rate_sps", "rate_ideal", "rate_wcs",
               "rate_decoy", "mu_wcs", "mu_decoy"]
    # a source at fixed mu has no mu column
    write_csv(out / "qkd_rates.csv", scenario, columns,
              np.column_stack([[row.get(c, qcfg["mu_fixed"]) for row in rows]
                               for c in columns]))

    crossings = {}
    for label, other in (("sps_vs_decoy", sources["decoy"]), ("sps_vs_wcs", sources["wcs"])):
        try:
            crossings[label] = qkd.find_crossing(sources["sps"], other, channel, detector,
                                                 interval)
        except (qkd.NoCrossingError, qkd.NoPositiveRateError) as exc:
            crossings[label] = {"result": f"no crossing: {exc}"}
    payload = {
        "channel": qcfg["channel"],
        "mu_mode": qcfg["mu_mode"],
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


def _sweep_range(text: str) -> tuple[float, float, float]:
    """start, stop, step (km) of a ``start:stop:step`` sweep."""
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
    return start, stop, step


def cmd_fab(args, scenario: Scenario) -> None:
    from . import fab
    fcfg = scenario["fab"]
    out = _outdir(args)
    if args.profile:
        from . import specfit
        profile = specfit.read_series_csv(args.profile)
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
    from .reproduce import run_all
    report = run_all(scenario, draws=args.draws)
    out = _outdir(args)
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

def _add_global_options(parser: argparse.ArgumentParser, defaults: bool) -> None:
    """--config, --set, --outdir and --error-json. The top-level parser
    holds the defaults; the subcommands take the same options with
    SUPPRESS defaults, so one not given after the subcommand keeps its
    value from before it. ``--set`` after the subcommand collects into
    ``set_after``, applied after the earlier overrides."""
    def default(value):
        return value if defaults else argparse.SUPPRESS

    parser.add_argument("--config", default=default(None),
                        help="scenario file (INI key=value or JSON)")
    parser.add_argument("--set", action="append", default=default([]),
                        dest="set" if defaults else "set_after", metavar="SECTION.KEY=VALUE",
                        help="override a config value (repeatable; wins over the file)")
    parser.add_argument("--outdir", default=default("out"), help="output directory")
    parser.add_argument("--error-json", action="store_true", default=default(False),
                        help="report errors as JSON on stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spskit",
        description="Cavity-enhanced single-photon source design and analysis toolkit")
    _add_global_options(parser, defaults=True)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, defaults=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kwargs)

    add("mirror", help="coating reflectance, stopband, AR report")
    add("cavity", help="cavity spectrum, Q, field profile, penetration depth")
    add("emitter", help="Purcell chain, efficiency, indistinguishability maps")

    p_fit = add("fit", help="fit a measurement CSV; kind read from its header")
    p_fit.add_argument("--input", required=True, help="two-column CSV with a kind header")
    p_fit.add_argument("--irf", help="instrument response CSV (decay fitting)")
    p_fit.add_argument("--scan-range", type=float, default=None,
                       help="sinc^2 instrument scale in 1/nm, 0 for none (spectrum fitting)")
    p_fit.add_argument("--snr", type=float, default=None,
                       help="signal-to-noise ratio for background-corrected g2")

    p_qkd = add("qkd", help="key-rate sweeps and crossing search")
    p_qkd.add_argument("--sweep", help="distance sweep start:stop:step in km")

    p_fab = add("fab", help="dose-map generation or profile fitting")
    p_fab.add_argument("--profile", help="surface profile measurement CSV (x_um, z_nm) to fit")

    p_rep = add("reproduce", help="run the full reproduction table")
    p_rep.add_argument("--draws", type=int, default=100,
                       help="randomized draws per fit round-trip check")

    add("provenance", help="print the provenance of every default")
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
        apply_overrides(scenario, args.set + getattr(args, "set_after", []))
        if args.command == "provenance":
            print(json.dumps(provenance_table(), indent=2, sort_keys=True))
            return 0
        COMMANDS[args.command](args, scenario)
        return 0
    except NumericalError as exc:
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
