"""Scenario configuration: sectioned key=value files (INI style), strict
schemas (unknown keys rejected), and defaults whose provenance is
recorded alongside the value.

Units are part of key names (``*_nm``, ``*_ps``, ``*_db_per_km``).
``--set`` values override file values which override defaults. A key
holds a value of the scenario; a property of one measurement, such as a
fit's instrument scale, is a flag of its subcommand instead.

Every key states its domain in ``SCHEMA``: a finite interval for a
number, written "[low, high]" with "(" or ")" at an open end, and the
tuple of choices for a string. ``_apply``, which every file value and
``--set`` value passes through as text, checks the value against it and
raises ``ConfigError("[section] key ...")``; a NaN lies in no interval.
So every subcommand rejects every bad key, read or not, and the models
that ``pipeline`` builds from a scenario check only what an interval
cannot express, such as a relation between two keys.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

# the built-in SHA-256 that hashlib falls back to; hashlib loads OpenSSL
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


class ConfigError(ValueError):
    """Malformed scenario configuration."""


class Setting(NamedTuple):
    default: object
    kind: type
    domain: str | tuple[str, ...]  # interval or choices
    provenance: str
    required: bool = False


# The count, range and step keys are bounded so that no accepted value
# makes a subcommand allocate without limit: at most 180,001 mirror
# wavelengths, a 500 x 500 indistinguishability map, 10,001 QKD sweep rows
# (a run peaks at 3.6 MB of traced allocations) and a 1,001 x 1,001
# pixel dose map (6.3 MB).
SCHEMA: dict[str, dict[str, Setting]] = {
    "mirror": {
        "n_high": Setting(2.135, float, "[1, 5]", "ellipsometry of sputtered TiO2 at 565 nm"),
        "n_low": Setting(1.521, float, "[1, 5]", "ellipsometry of sputtered SiO2 at 565 nm"),
        "n_substrate": Setting(1.5255, float, "[1, 5]",
                               "inverted from the 4.33% bare glass-air reflection"),
        "ar_index": Setting(1.390, float, "[1, 5]", "ellipsometry of MgF2 at 565 nm"),
        "pairs": Setting(9, int, "[1, 50]", "deposited mirror period count"),
        "design_wavelength_nm": Setting(565.0, float, "[200, 2000]", "coating design wavelength"),
        "termination": Setting("high", str, ("high", "low"),
                               "outermost-layer material; 'high' matches the measured "
                               "reflectivity class, 'low' the deposited termination"),
        "stopband_threshold": Setting(0.8, float, "(0, 1]",
                                      "reflectivity level whose band edge matches the "
                                      "504 nm excitation constraint"),
        "wl_min_nm": Setting(420.0, float, "[200, 2000]", "scan range"),
        "wl_max_nm": Setting(760.0, float, "[200, 2000]", "scan range"),
        "wl_step_nm": Setting(0.5, float, "[0.01, 100]", "scan step"),
    },
    "cavity": {
        "radius_of_curvature_um": Setting(2.7, float, "(0, 1000]", "milled hemisphere radius"),
        "longitudinal_order": Setting(8, int, "[1, 100]", "operating mode order"),
        "wavelength_nm": Setting(565.85, float, "[200, 2000]", "emitter line center"),
        "mirror_reflectivity": Setting(0.992, float, "(0, 1)", "measured coating reflectivity"),
        "effective_mirror_reflectivity": Setting(0.992, float, "(0, 1)",
                                                 "loss-calibrated reflectivity used for the "
                                                 "transfer-matrix cavity"),
    },
    "emitter": {
        "zpl_wavelength_nm": Setting(565.85, float, "[200, 2000]", "measured line center"),
        "free_linewidth_nm": Setting(5.76, float, "(0, 100]", "measured free-space FWHM"),
        "free_lifetime_ps": Setting(897.0, float, "[1, 1e6]", "measured excited-state lifetime"),
        "cavity_fwhm_nm": Setting(0.224, float, "(0, 100]", "measured cavity-filtered linewidth"),
        "mirror_purcell": Setting(1.68, float, "[0, 100]",
                                  "mirror-induced enhancement, external field-solver input"),
        "lifetime_ratio": Setting(2.29, float, "(0, 100]",
                                  "measured free-space to cavity lifetime ratio"),
        "dephasing_rate_hz": Setting(5.41e12, float, "[0, 1e16]",
                                     "free-space linewidth expressed as a plain frequency"),
        "map_points": Setting(200, int, "[2, 500]", "indistinguishability map resolution"),
        "map_rate_min_hz": Setting(1e6, float, "[1, 1e16]", "map axis lower bound"),
        "map_rate_max_hz": Setting(1e12, float, "[1, 1e16]", "map axis upper bound"),
    },
    "qkd": {
        "source_efficiency": Setting(0.513, float, "(0, 1]", "source quantum efficiency"),
        "g2_zero": Setting(0.018, float, "[0, 1]", "measured photon-number purity"),
        "channel": Setting("fiber", str, ("fiber", "freespace"), "fiber or freespace"),
        "attenuation_db_per_km": Setting(0.21, float, "(0, 10]", "reference fiber loss"),
        "receiver_efficiency": Setting(0.045, float, "[0, 1]", "reference receiver efficiency"),
        "dark_count_per_pulse": Setting(1.7e-6, float, "[0, 1]",
                                        "reference dark-count probability"),
        "misalignment_error": Setting(0.033, float, "[0, 1]", "reference misalignment error"),
        "error_correction_inefficiency": Setting(1.22, float, "[1, 10]",
                                                 "reference EC inefficiency"),
        "sifting_factor": Setting(0.5, float, "[0, 1]", "basis sifting"),
        "mu_mode": Setting("optimal", str, ("fixed", "optimal"),
                           "per-distance optimization or fixed intensity"),
        "mu_fixed": Setting(0.5, float, "(0, 10]", "intensity when mu_mode=fixed"),
        "sweep_start_km": Setting(0.0, float, "[0, 1000]", "sweep range"),
        "sweep_stop_km": Setting(100.0, float, "[0, 1000]", "sweep range"),
        "sweep_step_km": Setting(0.5, float, "[0.1, 100]", "sweep step"),
        "transmit_aperture_m": Setting(0.05, float, "[0.001, 10]", "transmitter telescope"),
        "receive_aperture_m": Setting(0.60, float, "[0.001, 10]", "receiver telescope"),
        "divergence_model": Setting("gaussian_farfield", str,
                                    ("gaussian_farfield", "friis", "calibrated"),
                                    "free-space beam spread model"),
        "calibration_loss_db": Setting(8.82, float, "[0, 100]",
                                       "loss pinned to the calibration distance"),
        "calibration_distance_km": Setting(630.0, float, "[1, 100000]",
                                           "distance at which the calibrated model places "
                                           "the pinned loss"),
    },
    "fit": {
        "contaminant_cutoff_nm": Setting(580.0, float, "[200, 2000]",
                                         "emission beyond this is surface contamination"),
    },
    "fab": {
        "radius_um": Setting(2.7, float, "(0, 1000]", "target hemisphere radius"),
        "aperture_um": Setting(2.7, float, "(0, 10]", "milled aperture"),
        "pitch_nm": Setting(20.0, float, "[10, 1000]", "pixel pitch"),
        "calibration_nm_per_unit": Setting(None, float, "[0.01, 100]",
                                           "dose-to-depth calibration; must be supplied, "
                                           "never defaulted", required=True),
        "edge_exclusion_fraction": Setting(0.10, float, "[0, 0.5)",
                                           "profile rim fraction excluded from fitting"),
    },
}


class Scenario:
    """Resolved configuration: one dict per section plus its digest."""

    def __init__(self, sections: dict[str, dict[str, object]]):
        self.sections = sections

    def __getitem__(self, section: str) -> dict[str, object]:
        return self.sections[section]

    def digest(self) -> str:
        payload = json.dumps(self.sections, sort_keys=True, default=str)
        return sha256(payload.encode()).hexdigest()[:16]

    def require(self, section: str, key: str):
        value = self.sections[section][key]
        if value is None:
            raise ConfigError(
                f"[{section}] {key} is required and has no default "
                f"({SCHEMA[section][key].provenance})")
        return value


def default_scenario() -> Scenario:
    sections = {sec: {k: s.default for k, s in keys.items()} for sec, keys in SCHEMA.items()}
    return Scenario(sections)


def _in_domain(value, domain) -> bool:
    if isinstance(domain, tuple):
        return value in domain
    low, high = (float(end) for end in domain[1:-1].split(","))
    return ((low < value if domain[0] == "(" else low <= value)
            and (value < high if domain[-1] == ")" else value <= high))


def _apply(scenario: Scenario, section: str, key: str, raw: str) -> None:
    if section not in SCHEMA:
        raise ConfigError(f"unknown config section [{section}]")
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    setting = SCHEMA[section][key]
    try:
        value = setting.kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: expected {setting.kind.__name__}, "
                          f"got {raw!r}") from exc
    if not _in_domain(value, setting.domain):
        raise ConfigError(f"[{section}] {key} must be in {setting.domain}, got {value!r}")
    scenario.sections[section][key] = value


def load_scenario(path: str | Path | None) -> Scenario:
    """Defaults overlaid with an INI config file (when given)."""
    scenario = default_scenario()
    if path is None:
        return scenario
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    import configparser  # only a config file needs it
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text(encoding="utf-8-sig"))
    except configparser.Error as exc:
        raise ConfigError(f"malformed INI config: {exc}") from exc
    for section in parser.sections():
        if section not in SCHEMA:  # also one that sets no key
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            _apply(scenario, section, key, value)
    return scenario


def apply_overrides(scenario: Scenario, overrides: list[str]) -> None:
    """Apply ``section.key=value`` strings (CLI flags) over the scenario."""
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        _apply(scenario, section.strip(), key.strip(), value.strip())


def provenance_table() -> dict[str, dict[str, str]]:
    """Human-readable provenance of every default."""
    return {sec: {k: s.provenance for k, s in keys.items()} for sec, keys in SCHEMA.items()}
