"""Command-line front end: scenario config in, figure-ready CSV/JSON out.

Exit codes: 0 success, 1 validation error, 2 numerical failure
(non-convergence, no crossing, no resonance). ``--error-json`` switches
error reporting to machine-readable JSON on stdout. Each subcommand
reads its inputs, takes every value it writes from ``pipeline`` and
writes the files. It imports the modules it runs, so a call loads only
those. The scenario comes from ``--config`` (an INI file) and ``--set``
alone; a subcommand's own flags name its input files and the properties
of the measurement they hold (``fit --irf``, ``--scan-range``, ``--snr``).
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, pipeline
from .config import Scenario, apply_overrides, load_scenario, provenance_table
from .errors import NumericalError

# every module's validation error subclasses ValueError
VALIDATION_ERRORS = (ValueError, OSError)
# rows formatted per str.format call; bounds the text held at once
CSV_BLOCK_ROWS = 2048


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
            for x, block in zip(xs, rows.reshape(len(xs), -1)):
                # x.join puts x before every row but the first
                fh.write((x + x.join(tails)).format(*block.tolist()))


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
    lam0 = scenario["mirror"]["design_wavelength_nm"]
    wls, reflectance, stack, payload = pipeline.mirror(scenario)
    out = _outdir(args)
    write_csv(out / "mirror_reflectance.csv", scenario,
              ["wavelength_nm", "reflectance"], np.column_stack([wls, reflectance]))
    (out / "mirror_stack.txt").write_text(
        f"# {_stamp(scenario)}\n" + stack.to_text(), encoding="utf-8")
    write_json(out / "mirror_report.json", scenario, payload)
    print(f"mirror: R({lam0:g} nm) = {payload['reflectance_at_design_wavelength']:.4%}, "
          f"stopband {payload['stopband_nm']}")


def cmd_cavity(args, scenario: Scenario) -> None:
    positions, intensity, wls, transmission, payload = pipeline.cavity(scenario)
    out = _outdir(args)
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
    payload = pipeline.emitter(scenario)
    gs, kappas, grid = pipeline.emitter_map(scenario)
    out = _outdir(args)
    write_json(out / "emitter_report.json", scenario, payload)
    write_csv(out / "indistinguishability_map.csv", scenario,
              ["g_Hz", "kappa_Hz", "indistinguishability"], grid.reshape(-1, 1),
              axes=(gs, kappas))
    print(f"emitter: F_eff {payload['effective_purcell_factor']:.3f}, "
          f"QE {payload['quantum_efficiency']:.3f}, "
          f"I_cav {payload['cavity_indistinguishability']:.3e}")


def cmd_fit(args, scenario: Scenario) -> None:
    from . import specfit
    series = specfit.read_series_csv(args.input)
    pipeline.check_fit_flags(series.kind, irf=args.irf, scan_range=args.scan_range,
                             snr=args.snr)
    irf = specfit.read_series_csv(args.irf) if args.irf else None
    payload = pipeline.fit(scenario, series, irf, args.scan_range, args.snr)
    out = _outdir(args)
    write_json(out / "fit_report.json", scenario, {"input": str(args.input), **payload})
    print(f"fit: {series.kind} -> {out / 'fit_report.json'}")


def cmd_qkd(args, scenario: Scenario) -> None:
    table, payload = pipeline.qkd(scenario)
    out = _outdir(args)
    write_csv(out / "qkd_rates.csv", scenario, pipeline.QKD_COLUMNS, table)
    write_json(out / "qkd_crossings.json", scenario, payload)
    print(f"qkd: {len(table)} sweep rows -> {out / 'qkd_rates.csv'}; "
          f"crossings: {payload['crossings']}")


def cmd_fab(args, scenario: Scenario) -> None:
    from . import fab
    if args.profile:
        from . import specfit
        result = pipeline.fab(scenario, specfit.read_series_csv(args.profile))
        write_json(_outdir(args) / "hemisphere_fit.json", scenario, result)
        print(f"fab: radius {result['radius_um']:.4f} um, rms {result['rms_nm']:.3f} nm")
        return
    dose = pipeline.fab(scenario)
    out = _outdir(args)
    fab.write_bmp(out / "dose_map.bmp", dose,
                  metadata={"toolkit_version": __version__,
                            "config_digest": scenario.digest()})
    print(f"fab: {dose.width}x{dose.height} px dose map -> {out / 'dose_map.bmp'}")


def cmd_reproduce(args, scenario: Scenario) -> None:
    from . import reproduce
    report = reproduce.run_all(scenario, draws=args.draws)
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
                        help="scenario file: INI [section] headers over key = value lines")
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
    p_fit.add_argument("--irf", help="instrument response CSV (decay fitting only)")
    p_fit.add_argument("--scan-range", type=float, default=None,
                       help="sinc^2 instrument scale in 1/nm, 0 for none (spectrum fitting only)")
    p_fit.add_argument("--snr", type=float, default=None,
                       help="signal-to-noise ratio for background-corrected g2 "
                            "(correlation fitting only)")

    add("qkd", help="key-rate sweeps and crossing search")

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


def run() -> int:
    """The process entry (``python -m spskit.cli``, the ``spskit`` script):
    ``main`` on sys.argv, which closes every file it writes, then
    ``gc.freeze``, so that the collections at interpreter exit skip the
    objects still alive."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
