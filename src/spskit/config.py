"""Scenario configuration: sectioned key=value files (INI style) with a
JSON alternative, strict schemas (unknown keys rejected), and defaults
whose provenance is recorded alongside the value.

Units are part of key names (``*_nm``, ``*_ps``, ``*_db_per_km``). CLI
flags override file values which override defaults.
"""
from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    """Malformed scenario configuration."""


@dataclass(frozen=True)
class Setting:
    default: object
    kind: type
    provenance: str
    required: bool = False


SCHEMA: dict[str, dict[str, Setting]] = {
    "mirror": {
        "n_high": Setting(2.135, float, "ellipsometry of sputtered TiO2 at 565 nm"),
        "n_low": Setting(1.521, float, "ellipsometry of sputtered SiO2 at 565 nm"),
        "n_substrate": Setting(1.5255, float,
                               "inverted from the 4.33% bare glass-air reflection"),
        "ar_index": Setting(1.390, float, "ellipsometry of MgF2 at 565 nm"),
        "pairs": Setting(9, int, "deposited mirror period count"),
        "design_wavelength_nm": Setting(565.0, float, "coating design wavelength"),
        "termination": Setting("high", str,
                               "outermost-layer material; 'high' matches the measured "
                               "reflectivity class, 'low' the deposited termination"),
        "stopband_threshold": Setting(0.8, float,
                                      "reflectivity level whose band edge matches the "
                                      "504 nm excitation constraint"),
        "wl_min_nm": Setting(420.0, float, "scan range"),
        "wl_max_nm": Setting(760.0, float, "scan range"),
        "wl_step_nm": Setting(0.5, float, "scan step"),
    },
    "cavity": {
        "radius_of_curvature_um": Setting(2.7, float, "milled hemisphere radius"),
        "longitudinal_order": Setting(8, int, "operating mode order"),
        "wavelength_nm": Setting(565.85, float, "emitter line center"),
        "mirror_reflectivity": Setting(0.992, float, "measured coating reflectivity"),
        "effective_mirror_reflectivity": Setting(0.992, float,
                                                 "loss-calibrated reflectivity used for the "
                                                 "transfer-matrix cavity"),
        "include_penetration": Setting(True, bool,
                                       "length convention for the free spectral range"),
    },
    "emitter": {
        "zpl_wavelength_nm": Setting(565.85, float, "measured line center"),
        "free_linewidth_nm": Setting(5.76, float, "measured free-space FWHM"),
        "free_lifetime_ps": Setting(897.0, float, "measured excited-state lifetime"),
        "cavity_fwhm_nm": Setting(0.224, float, "measured cavity-filtered linewidth"),
        "mirror_purcell": Setting(1.68, float,
                                  "mirror-induced enhancement, external field-solver input"),
        "lifetime_ratio": Setting(2.29, float, "measured free-space to cavity lifetime ratio"),
        "dephasing_rate_hz": Setting(5.41e12, float,
                                     "free-space linewidth expressed as a plain frequency"),
        "map_points": Setting(200, int, "indistinguishability map resolution"),
        "map_rate_min_hz": Setting(1e6, float, "map axis lower bound"),
        "map_rate_max_hz": Setting(1e12, float, "map axis upper bound"),
    },
    "qkd": {
        "source_efficiency": Setting(0.513, float, "source quantum efficiency"),
        "g2_zero": Setting(0.018, float, "measured photon-number purity"),
        "channel": Setting("fiber", str, "fiber or freespace"),
        "attenuation_db_per_km": Setting(0.21, float, "reference fiber loss"),
        "receiver_efficiency": Setting(0.045, float, "reference receiver efficiency"),
        "dark_count_per_pulse": Setting(1.7e-6, float, "reference dark-count probability"),
        "misalignment_error": Setting(0.033, float, "reference misalignment error"),
        "error_correction_inefficiency": Setting(1.22, float, "reference EC inefficiency"),
        "sifting_factor": Setting(0.5, float, "basis sifting"),
        "mu_mode": Setting("optimal", str, "per-distance optimization or fixed intensity"),
        "mu_fixed": Setting(0.5, float, "intensity when mu_mode=fixed"),
        "sweep_start_km": Setting(0.0, float, "sweep range"),
        "sweep_stop_km": Setting(100.0, float, "sweep range"),
        "sweep_step_km": Setting(0.5, float, "sweep step"),
        "transmit_aperture_m": Setting(0.05, float, "transmitter telescope"),
        "receive_aperture_m": Setting(0.60, float, "receiver telescope"),
        "divergence_model": Setting("gaussian_farfield", str,
                                    "free-space beam spread model"),
        "calibration_loss_db": Setting(8.82, float,
                                       "loss pinned to the calibration distance"),
        "calibration_distance_km": Setting(630.0, float,
                                           "distance at which the calibrated model places "
                                           "the pinned loss"),
    },
    "fit": {
        "scan_range_per_nm": Setting(0.0, float,
                                     "instrument sinc^2 kernel scale; 0 disables the kernel "
                                     "(free parameter, not a reconstructed constant)"),
        "contaminant_cutoff_nm": Setting(580.0, float,
                                         "emission beyond this is surface contamination"),
    },
    "fab": {
        "radius_um": Setting(2.7, float, "target hemisphere radius"),
        "aperture_um": Setting(2.7, float, "milled aperture"),
        "pitch_nm": Setting(20.0, float, "pixel pitch"),
        "calibration_nm_per_unit": Setting(None, float,
                                           "dose-to-depth calibration; must be supplied, "
                                           "never defaulted", required=True),
        "edge_exclusion_fraction": Setting(0.10, float,
                                           "profile rim fraction excluded from fitting"),
    },
}


@dataclass
class Scenario:
    """Resolved configuration: one dict per section plus its digest."""

    sections: dict[str, dict[str, object]] = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict[str, object]:
        return self.sections[section]

    def digest(self) -> str:
        payload = json.dumps(self.sections, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

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


def _coerce(section: str, key: str, raw, kind: type):
    if isinstance(raw, kind):
        return raw
    if kind is bool:
        if isinstance(raw, str):
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: expected {kind.__name__}, got {raw!r}") from exc


def _apply(scenario: Scenario, section: str, key: str, raw) -> None:
    if section not in SCHEMA:
        raise ConfigError(f"unknown config section [{section}]")
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    scenario.sections[section][key] = _coerce(section, key, raw, SCHEMA[section][key].kind)


def load_scenario(path: str | Path | None) -> Scenario:
    """Defaults overlaid with an INI or JSON config file (when given)."""
    scenario = default_scenario()
    if path is None:
        return scenario
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object of sections")
        for section, keys in data.items():
            if not isinstance(keys, dict):
                raise ConfigError(f"section [{section}] must map keys to values")
            for key, value in keys.items():
                _apply(scenario, section, key, value)
    else:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed INI config: {exc}") from exc
        for section in parser.sections():
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
