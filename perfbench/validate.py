"""Output checks for benchmark invocations.

An invocation passes when it exits 0 without a traceback and its outputs
pass every check for its subcommand. Independent oracles come first:

- mirror: closed-form quarter-wave reflectance at the design wavelength
  (the admittance recursion, as in reproduction check 1b, |dR| <= 1e-4)
- fit: recovery of the generating truth within the tolerances of
  reproduction checks 7a-7f, and the exact g2(0) identity of 7e
- fab: the dose map decodes to the hemisphere depth within half a
  calibration quantum (check 9a)
- qkd: every rate column is non-increasing in distance (8d) and the
  ideal source never falls below the real one (8c)
- reproduce: exactly checks 8a, 8b and 8f fail, as documented

The design-sweep subcommands are also compared with ``reference.json``,
the outputs of the commit that introduced the benchmark for every
variant a seed can draw: numbers in JSON reports within a relative
1e-4 (they include searched gaps, band edges, widths and crossings),
sampled CSV rows within a relative 1e-6 (curves are written with 10
significant digits), row counts and column names exactly.
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")
JSON_RTOL = 1e-4
CSV_RTOL = 1e-6
ABS_TOL = 1e-12
CSV_SAMPLES = 9

# Scenario values the design-sweep leaves at their defaults and the
# oracles rely on.
MIRROR = {"n_high": 2.135, "n_low": 1.521, "n_substrate": 1.5255,
          "termination": "high", "design_wavelength_nm": 565.0,
          "wl_min_nm": 420.0, "wl_max_nm": 760.0}
FAB = {"radius_um": 2.7, "aperture_um": 2.7}
EXPECTED_REPRODUCE_FAILURES = {"8a", "8b", "8f"}


def settings_of(args) -> dict[str, str]:
    """``--set section.key=value`` pairs of an invocation, keyed by ``key``."""
    out = {}
    for flag, item in zip(args, args[1:]):
        if flag == "--set":
            dotted, value = item.split("=", 1)
            out[dotted.split(".", 1)[1]] = value
    return out


# ---------------------------------------------------------------------------
# output readers and summaries
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Column names and values of a CSV written by the CLI."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    values = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float)
    return columns, values.reshape(len(lines) - 1, len(columns))


def flatten(node, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a JSON document by dotted path; null reads as NaN."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            out.update(flatten(value, f"{prefix}{key}."))
        return out
    if isinstance(node, list):
        out = {}
        for i, value in enumerate(node):
            out.update(flatten(value, f"{prefix}{i}."))
        return out
    if node is None:
        return {prefix[:-1]: math.nan}
    if isinstance(node, (bool, int, float)):
        return {prefix[:-1]: float(node)}
    return {}


def summarize(outdir: Path) -> dict:
    """What the reference comparison looks at in an output directory."""
    out = {}
    for path in sorted(outdir.iterdir()):
        if path.suffix == ".csv":
            columns, values = read_csv(path)
            idx = np.unique(np.linspace(0, len(values) - 1, CSV_SAMPLES).astype(int))
            out[path.name] = {"columns": columns, "rows": len(values),
                              "samples": values[idx].tolist() if len(values) else []}
        elif path.suffix == ".json" and not path.name.endswith(".bmp.json"):
            out[path.name] = flatten(json.loads(path.read_text(encoding="utf-8")))
    return out


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rtol, abs_tol=ABS_TOL)


def compare(summary: dict, reference: dict) -> list[str]:
    problems = []
    for name, ref in reference.items():
        got = summary.get(name)
        if got is None:
            problems.append(f"{name}: missing")
        elif "rows" in ref:
            if got["columns"] != ref["columns"] or got["rows"] != ref["rows"]:
                problems.append(f"{name}: {got['rows']} rows of {got['columns']}, "
                                f"reference {ref['rows']} rows of {ref['columns']}")
                continue
            for row_got, row_ref in zip(got["samples"], ref["samples"]):
                if not all(_close(a, b, CSV_RTOL) for a, b in zip(row_got, row_ref)):
                    problems.append(f"{name}: row {row_got} differs from reference {row_ref}")
                    break
        else:
            for key, value in ref.items():
                if key not in got:
                    problems.append(f"{name}: {key} missing")
                elif not _close(got[key], value, JSON_RTOL):
                    problems.append(f"{name}: {key} = {got[key]!r}, reference {value!r}")
    return problems


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def quarter_wave_reflectance(n_high, n_low, pairs, termination, n_substrate, n_ambient=1.0):
    """Each quarter-wave layer maps the load admittance Y to n^2 / Y."""
    y = n_substrate
    layers = [n_low, n_high] if termination == "low" else [n_high, n_low]
    for n in reversed(layers * pairs):
        y = n * n / y
    return ((n_ambient - y) / (n_ambient + y)) ** 2


def check_mirror(outdir: Path, args) -> list[str]:
    problems = []
    s = settings_of(args)
    report = json.loads((outdir / "mirror_report.json").read_text(encoding="utf-8"))
    oracle = quarter_wave_reflectance(MIRROR["n_high"], MIRROR["n_low"], int(s["pairs"]),
                                      MIRROR["termination"], MIRROR["n_substrate"])
    got = report["reflectance_at_design_wavelength"]
    if not abs(got - oracle) <= 1e-4:
        problems.append(f"R(design) {got} vs closed form {oracle}")
    band = report["stopband_nm"]
    if not band or not band[0] < MIRROR["design_wavelength_nm"] < band[1]:
        problems.append(f"stopband {band} misses the design wavelength")
    _, curve = read_csv(outdir / "mirror_reflectance.csv")
    expected_rows = len(np.arange(MIRROR["wl_min_nm"], MIRROR["wl_max_nm"] + 1e-9,
                                  float(s["wl_step_nm"])))
    if len(curve) != expected_rows:
        problems.append(f"{len(curve)} spectrum rows, expected {expected_rows}")
    elif not np.all((curve[:, 1] >= 0.0) & (curve[:, 1] <= 1.0 + 1e-12)):
        problems.append("reflectance outside [0, 1]")
    return problems


def check_cavity(outdir: Path, args) -> list[str]:
    report = json.loads((outdir / "cavity_report.json").read_text(encoding="utf-8"))
    lam = float(settings_of(args)["wavelength_nm"])
    res = report["resonance"]
    if not res["found"] or not abs(res["center_nm"] - lam) < 1.5:
        return [f"resonance {res} not found within the scanned 3 nm around {lam} nm"]
    _, curve = read_csv(outdir / "cavity_spectrum.csv")
    if len(curve) != 3001 or not np.all((curve[:, 1] >= 0.0) & (curve[:, 1] <= 1.0 + 1e-9)):
        return ["cavity spectrum must have 3001 transmissions in [0, 1]"]
    return []


def check_emitter(outdir: Path, args) -> list[str]:
    points = int(settings_of(args)["map_points"])
    _, grid = read_csv(outdir / "indistinguishability_map.csv")
    if len(grid) != points * points:
        return [f"{len(grid)} map rows, expected {points * points}"]
    if not np.all((grid[:, 2] >= 0.0) & (grid[:, 2] <= 1.0)):
        return ["indistinguishability outside [0, 1]"]
    return []


def check_qkd(outdir: Path, args) -> list[str]:
    step = float(settings_of(args)["sweep_step_km"])
    columns, rows = read_csv(outdir / "qkd_rates.csv")
    expected = len(np.arange(0.0, 100.0 + step / 2, step))
    if len(rows) != expected:
        return [f"{len(rows)} sweep rows, expected {expected}"]
    problems = []
    rates = {c: rows[:, i] for i, c in enumerate(columns) if c.startswith("rate_")}
    for name, r in rates.items():
        if np.any(np.diff(r) > 1e-9):
            problems.append(f"{name} increases with distance")
    if np.any(rates["rate_ideal"] < rates["rate_sps"] - 1e-15):
        problems.append("ideal source below the real source")
    return problems


def read_bmp_units(path: Path) -> np.ndarray:
    """Dose units per pixel of a 24-bit bottom-up BMP: the sum of R, G, B,
    since units fill blue, then green, then red."""
    data = path.read_bytes()
    if data[:2] != b"BM":
        raise ValueError("not a BMP file")
    offset = struct.unpack_from("<I", data, 10)[0]
    width, height, _planes, bpp = struct.unpack_from("<iiHH", data, 18)
    if bpp != 24:
        raise ValueError(f"{bpp}-bit BMP, expected 24-bit")
    stride = (width * 3 + 3) // 4 * 4
    rows = np.frombuffer(data, np.uint8, stride * abs(height), offset).reshape(abs(height), stride)
    px = rows[:, :width * 3].reshape(abs(height), width, 3).astype(np.int64)
    if height > 0:
        px = px[::-1]
    return px.sum(axis=2)


def check_fab(outdir: Path, args) -> list[str]:
    s = settings_of(args)
    pitch, cal = float(s["pitch_nm"]), float(s["calibration_nm_per_unit"])
    units = read_bmp_units(outdir / "dose_map.bmp")
    radius, aperture = FAB["radius_um"] * 1e3, FAB["aperture_um"] * 1e3
    h, w = units.shape
    yy, xx = np.meshgrid((np.arange(h) - h // 2) * pitch, (np.arange(w) - w // 2) * pitch,
                         indexing="ij")
    r = np.hypot(xx, yy)
    rim = math.sqrt(radius ** 2 - (aperture / 2) ** 2)
    target = np.where(r <= aperture / 2,
                      np.sqrt(np.clip(radius ** 2 - r ** 2, 0.0, None)) - rim, 0.0)
    err = float(np.max(np.abs(units * cal - target)))
    if not err <= cal / 2 + 1e-9:
        return [f"dose map decodes {err:.4g} nm from the hemisphere, quantum {cal} nm"]
    sidecar = json.loads((outdir / "dose_map.bmp.json").read_text(encoding="utf-8"))
    if (sidecar["width_px"], sidecar["height_px"]) != (w, h):
        return ["sidecar size disagrees with the bitmap"]
    return []


def check_fit(outdir: Path, truth: dict) -> list[str]:
    report = json.loads((outdir / "fit_report.json").read_text(encoding="utf-8"))
    p = report["fit"]["parameters"]
    kind = truth["kind"]
    if report["kind"] != kind:
        return [f"fitted as {report['kind']}, generated as {kind}"]
    errors = {}
    if kind == "spectrum":
        fwhm = truth["fwhm_nm"]
        errors["center/FWHM (7a)"] = (abs(p["center_nm"] - truth["center_nm"]) / fwhm, 0.02)
        errors["FWHM (7b)"] = (abs(p["fwhm_nm"] - fwhm) / fwhm, 0.02)
        if not 0.0 <= report["zpl_fraction"] <= 1.0:
            return [f"zpl_fraction {report['zpl_fraction']} outside [0, 1]"]
    elif kind == "decay":
        life = truth["lifetime_ps"]
        errors["lifetime (7c)"] = (abs(p["lifetime_ps"] - life) / life, 0.03)
    elif kind == "correlation":
        anti = truth["antibunching_amplitude"]
        errors["antibunching (7d)"] = (abs(p["antibunching_amplitude"] - anti) / anti, 0.03)
        identity = 1.0 - p["antibunching_amplitude"] + p["bunching_amplitude"]
        if abs(p["g2_zero"] - identity) > 1e-12:
            return [f"g2(0) {p['g2_zero']} breaks 1 - A + B = {identity} (7e)"]
        if "snr" in truth:
            rho_sq = (truth["snr"] / (truth["snr"] + 1.0)) ** 2
            corrected = (p["g2_zero"] - (1.0 - rho_sq)) / rho_sq
            if not math.isclose(p["g2_zero_background_corrected"], corrected,
                                rel_tol=1e-9, abs_tol=1e-12):
                return [f"background-corrected g2(0) {p['g2_zero_background_corrected']} "
                        f"vs {corrected}"]
    else:
        dop = truth["degree_of_polarization"]
        errors["DOP (7f)"] = (abs(p["degree_of_polarization"] - dop) / dop, 0.01)
    return [f"{name} error {err:.3g} >= {tol}" for name, (err, tol) in errors.items()
            if not err < tol]


def check_reproduce(outdir: Path) -> list[str]:
    report = json.loads((outdir / "reproduce_report.json").read_text(encoding="utf-8"))
    failing = {c["id"] for c in report["checks"] if not c["passed"]}
    if failing != EXPECTED_REPRODUCE_FAILURES:
        return [f"failing checks {sorted(failing)}, "
                f"expected {sorted(EXPECTED_REPRODUCE_FAILURES)}"]
    return []


ORACLES = {"mirror": check_mirror, "cavity": check_cavity, "emitter": check_emitter,
           "qkd": check_qkd, "fab": check_fab}


class Validator:
    """Checks invocation outputs; loads the design-sweep reference once."""

    def __init__(self):
        self.reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))

    def check(self, inv, outdir: Path, exit_code: int, stderr: str) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}: {stderr.strip()[-300:]}"]
        if "Traceback (most recent call last)" in stderr:
            return ["traceback on stderr"]
        try:
            if inv.command == "fit":
                return check_fit(outdir, inv.truth)
            if inv.command == "reproduce":
                return check_reproduce(outdir)
            problems = ORACLES[inv.command](outdir, inv.args)
            ref = self.reference.get(inv.key)
            if ref is None:
                return problems + [f"no reference outputs for {inv.key!r}"]
            return problems + compare(summarize(outdir), ref)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
