"""Gaussian-mode geometry and tuning of the plano-concave microcavity.

Lengths follow the resonance convention: the effective cavity length for
mode order q at wavelength lam is q*lam/2. Where mirror field leakage
matters (free spectral range), the effective length optionally includes
twice the penetration depth. Of what ``config.SCHEMA`` does not guarantee,
``mode_volume`` checks the stability limit and ``_length_nm`` the penetration depth.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .constants import NM_PER_M, SPEED_OF_LIGHT_M_PER_S


# piezo calibration of the polymer spacer
TUNING_SLOPE_NM_PER_V = 102.0
MAX_VOLTAGE_V = 10.0


class CavityError(ValueError):
    """Invalid cavity geometry or operating point."""


class CavityConfig(NamedTuple):
    """Plano-concave cavity geometry."""

    radius_of_curvature_um: float
    longitudinal_order: int
    design_wavelength_nm: float
    mirror_reflectivity: float
    penetration_depth_nm: float = 122.0

    @property
    def effective_length_nm(self) -> float:
        return self.longitudinal_order * self.design_wavelength_nm / 2.0


def mode_volume(config: CavityConfig) -> float:
    """Gaussian-mode volume V = (pi/4) w0^2 L in units of lam^3.

    The waist obeys w0^2 = (lam/pi) sqrt(L (Rc - L)) with L = q lam/2;
    the stability requirement L < Rc is checked here (CavityError).
    """
    lam = config.design_wavelength_nm
    length = config.effective_length_nm
    rc = config.radius_of_curvature_um * 1e3
    if length >= rc:
        raise CavityError(f"unstable geometry: length {length:.1f} nm >= "
                          f"radius of curvature {rc:.1f} nm")
    w0_sq = (lam / math.pi) * math.sqrt(length * (rc - length))
    return (math.pi / 4.0) * w0_sq * length / lam ** 3


def finesse(mirror_reflectivity: float) -> float:
    """Finesse of a symmetric two-mirror cavity: pi sqrt(R)/(1-R)."""
    r = mirror_reflectivity
    return math.pi * math.sqrt(r) / (1.0 - r)


def fsr_finesse_linewidth(
    config: CavityConfig, *, include_penetration: bool
) -> tuple[float, float, float]:
    """(FSR in Hz, finesse, linewidth in Hz) for the configured cavity.

    FSR = c/(2 L_eff) with L_eff = q lam/2, plus twice the penetration
    depth where ``include_penetration``; linewidth = FSR/finesse.
    """
    fsr_hz = SPEED_OF_LIGHT_M_PER_S / (2.0 * _length_nm(config, include_penetration) / NM_PER_M)
    fin = finesse(config.mirror_reflectivity)
    return fsr_hz, fin, fsr_hz / fin


def quality_factor(config: CavityConfig, *, include_penetration: bool) -> float:
    """Q = finesse * 2 L_eff / lam; cross-checks the transfer-matrix spectrum."""
    return (finesse(config.mirror_reflectivity) * 2.0 * _length_nm(config, include_penetration)
            / config.design_wavelength_nm)


def _length_nm(config: CavityConfig, include_penetration: bool) -> float:
    """L_eff = q lam/2, plus twice the penetration depth where included."""
    if config.penetration_depth_nm < 0:
        raise CavityError("penetration depth must be non-negative")
    length_nm = config.effective_length_nm
    return length_nm + 2.0 * config.penetration_depth_nm if include_penetration else length_nm


def fsr_for_linewidth(target_linewidth_hz: float, mirror_reflectivity: float) -> float:
    """Free spectral range that a cavity of the given mirror reflectivity
    must not exceed for its linewidth to stay at the target:
    FSR = linewidth * finesse."""
    if target_linewidth_hz <= 0:
        raise CavityError("target linewidth must be positive")
    return target_linewidth_hz * finesse(mirror_reflectivity)


def tune(config: CavityConfig, voltage_v: float) -> tuple[float, float]:
    """Piezo tuning: (gap change in nm, resonance shift in nm).

    The polymer spacer compresses linearly with drive voltage; on mode q
    a length change dL shifts the resonance by 2 dL / q.
    """
    if abs(voltage_v) > MAX_VOLTAGE_V:
        raise CavityError(f"voltage {voltage_v} V outside safe range +-{MAX_VOLTAGE_V} V")
    d_length = TUNING_SLOPE_NM_PER_V * voltage_v
    d_lambda = 2.0 * d_length / config.longitudinal_order
    return d_length, d_lambda


def spectral_overlap(
    cavity_center_nm: float,
    cavity_fwhm_nm: float,
    emitter_center_nm: float,
    emitter_fwhm_nm: float,
) -> float:
    """Overlap of two Lorentzian lines, normalized to its zero-detuning value.

    The overlap integral of two unit-area Lorentzians is itself a
    Lorentzian in the detuning with FWHM equal to the sum of the two
    widths, so the normalized form is (G/2)^2 / (D^2 + (G/2)^2) with
    G = fwhm1 + fwhm2 and D the center detuning.
    """
    if cavity_fwhm_nm <= 0 or emitter_fwhm_nm <= 0:
        raise CavityError("linewidths must be positive")
    half_sum = (cavity_fwhm_nm + emitter_fwhm_nm) / 2.0
    detuning = cavity_center_nm - emitter_center_nm
    return half_sum ** 2 / (detuning ** 2 + half_sum ** 2)
