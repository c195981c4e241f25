"""Physical constants and unit conversions used across the toolkit.

All wavelengths are vacuum wavelengths in nm unless a key name says
otherwise; rates are plain frequencies in Hz (cycles/s).
"""
from __future__ import annotations

import math

# CODATA exact value
SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

NM_PER_M = 1e9
PS_PER_S = 1e12


def linewidth_nm_to_hz(fwhm_nm: float, center_nm: float) -> float:
    """Convert a wavelength FWHM to a frequency FWHM: dnu = c*dlam/lam^2."""
    return SPEED_OF_LIGHT_M_PER_S * (fwhm_nm / NM_PER_M) / (center_nm / NM_PER_M) ** 2


def rate_from_lifetime_ps(lifetime_ps: float) -> float:
    """Emission rate in Hz from an excited-state lifetime in ps."""
    return PS_PER_S / lifetime_ps


def transmittance_to_db(t: float) -> float:
    if t <= 0:
        return math.inf
    return -10.0 * math.log10(t) + 0.0  # flush -0.0 at t=1
