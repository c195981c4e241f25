"""Cavity-QED photophysics of the emitter: Purcell enhancement, quantum
efficiency and photon indistinguishability.

Rate convention
---------------
The toolkit's default rate convention is plain frequency (Hz): the
emission rate is 1/lifetime, the pure dephasing rate is the free-space
FWHM linewidth expressed in Hz, and the cavity rate is the cavity FWHM
in Hz. This is the one convention that simultaneously reproduces the
free-space indistinguishability of ~2e-4, the 124 MHz cavity-linewidth
threshold for 90% indistinguishability, and the 779 GHz free-spectral-
range chain. Indistinguishability values are invariant under scaling
every rate by 2 pi (angular frequency) because the formulas are ratios
of rates.

Results are plain values: ``purcell_chain`` returns the three numbers of
the emitter report (effective Q, effective Purcell factor, quantum
efficiency) as a dict under their report names. The functions check
only what ``config.SCHEMA`` does not already guarantee of their inputs.
"""
from __future__ import annotations

import math

import numpy as np

from . import search

TWO_PI = 2.0 * math.pi
# g rows per block of indistinguishability_map; bounds its temporaries
MAP_BLOCK_ROWS = 64


class PhotophysicsError(ValueError):
    """Invalid photophysical parameters."""


def _transfer_rate(gamma, gamma_star, kappa, g):
    """Effective emitter-cavity transfer rate 4 g^2 / (kappa + gamma + gamma*)."""
    # g * g, not g ** 2: a float's ** calls pow(), an array's squares
    return 4.0 * g * g / (kappa + gamma + gamma_star)


def _cavity_indistinguishability(gamma, gamma_star, kappa, g):
    """The coupled-emitter indistinguishability, elementwise over numpy
    arrays of the four rates broadcast against each other."""
    transfer = _transfer_rate(gamma, gamma_star, kappa, g)
    total = kappa + transfer
    # kappa = transfer = 0 recycles nothing; the 1 only avoids 0/0
    recycled = kappa * transfer / np.where(total == 0, 1.0, total)
    return (gamma + recycled) / (gamma + kappa + 2.0 * transfer)


def effective_purcell(
    wavelength_nm: float,
    cavity_fwhm_nm: float,
    emitter_fwhm_nm: float,
    mode_volume_lambda3: float,
) -> tuple[float, float]:
    """(effective Q, effective Purcell factor) in the broad-emitter regime.

    With the emitter much broader than the cavity the enhancement uses
    the combined linewidth: Q_eff = lam/(dlam_cav + dlam_em) and
    F = (3/(4 pi^2)) * Q_eff / V with V in lam^3 units.
    """
    if min(wavelength_nm, cavity_fwhm_nm, emitter_fwhm_nm, mode_volume_lambda3) <= 0:
        raise PhotophysicsError("all Purcell inputs must be positive")
    q_eff = wavelength_nm / (cavity_fwhm_nm + emitter_fwhm_nm)
    f_eff = 3.0 / (4.0 * math.pi ** 2) * q_eff / mode_volume_lambda3
    return q_eff, f_eff


def quantum_efficiency(lifetime_ratio: float, effective_purcell_factor: float,
                       mirror_purcell_factor: float) -> float:
    """Emitter quantum efficiency from the lifetime shortening.

    eta = (f - 1) / (f + F - eps*f) with f the free-space-to-cavity
    lifetime ratio, F the effective Purcell factor, and eps the
    enhancement already present from the bare mirror.
    """
    denom = (lifetime_ratio + effective_purcell_factor
             - mirror_purcell_factor * lifetime_ratio)
    if denom <= 0:
        raise PhotophysicsError(
            f"non-positive denominator {denom:.4g}; inputs outside the validity domain")
    return (lifetime_ratio - 1.0) / denom


def purcell_chain(
    wavelength_nm: float,
    cavity_fwhm_nm: float,
    emitter_fwhm_nm: float,
    mode_volume_lambda3: float,
    lifetime_ratio: float,
    mirror_purcell_factor: float,
) -> dict[str, float]:
    """Full enhancement chain as the report's ``effective_quality_factor``,
    ``effective_purcell_factor`` and ``quantum_efficiency``; raises when
    the efficiency falls outside [0, 1]."""
    q_eff, f_eff = effective_purcell(wavelength_nm, cavity_fwhm_nm, emitter_fwhm_nm,
                                     mode_volume_lambda3)
    eta = quantum_efficiency(lifetime_ratio, f_eff, mirror_purcell_factor)
    if not 0.0 <= eta <= 1.0:
        raise PhotophysicsError(f"unphysical quantum efficiency {eta:.4g}")
    return {"effective_quality_factor": q_eff, "effective_purcell_factor": f_eff,
            "quantum_efficiency": eta}


def indistinguishability_free(emission_rate: float, dephasing_rate: float) -> float:
    """Two-photon interference contrast of a dephasing emitter: gamma/(gamma+gamma*)."""
    return emission_rate / (emission_rate + dephasing_rate)


def indistinguishability_cavity(emission_rate: float, dephasing_rate: float,
                                cavity_rate: float, coupling_rate: float) -> float:
    """Indistinguishability of the cavity-coupled emitter (weak coupling).

    I = (gamma + kappa R/(kappa + R)) / (gamma + kappa + 2 R) with the
    transfer rate R = 4 g^2/(kappa + gamma + gamma*), the four rates in
    one convention. Reduces to gamma/(gamma + kappa) as g -> 0.
    """
    return float(_cavity_indistinguishability(
        emission_rate, dephasing_rate, cavity_rate, coupling_rate))


def kappa_for_target_indistinguishability(
    emission_rate: float,
    dephasing_rate: float,
    coupling_rate: float,
    target: float,
) -> float:
    """Cavity rate at which the coupled indistinguishability hits the target.

    Bisection on the monotone-decreasing branch of I(kappa) over
    kappa in [1, 1e16]; raises when that bracket does not straddle the target.
    """
    if not 0.0 < target < 1.0:
        raise PhotophysicsError(f"target must be in (0, 1), got {target}")

    def value(kappa: float) -> float:
        return indistinguishability_cavity(emission_rate, dephasing_rate, kappa, coupling_rate)

    lo, hi = 1.0, 1e16
    v_lo, v_hi = value(lo), value(hi)
    if not (v_hi <= target <= v_lo):
        raise PhotophysicsError(
            f"target {target} not bracketed: I({lo:g})={v_lo:.4g}, I({hi:g})={v_hi:.4g}")
    return float(search.bisect(lambda kappa: value(kappa) >= target, lo, hi, tol=1e-12,
                               geometric=True))


def coupling_from_purcell(effective_purcell_factor: float, cavity_rate: float,
                          emission_rate: float) -> float:
    """Coupling rate from the weak-coupling relation F = 4 g^2/(kappa gamma).

    Returns g in the same convention as the supplied rates.
    """
    if effective_purcell_factor < 0 or cavity_rate < 0 or emission_rate < 0:
        raise PhotophysicsError("inputs must be non-negative")
    return math.sqrt(effective_purcell_factor * cavity_rate * emission_rate) / 2.0


def coupling_report(effective_purcell_factor: float, cavity_rate_hz: float,
                    emission_rate_hz: float) -> dict[str, float]:
    """Coupling rate evaluated side by side in both rate conventions.

    The physical coupling is convention-independent; the numbers differ
    by 2 pi because the inputs do.
    """
    g_plain = coupling_from_purcell(effective_purcell_factor, cavity_rate_hz, emission_rate_hz)
    g_angular = coupling_from_purcell(
        effective_purcell_factor, TWO_PI * cavity_rate_hz, TWO_PI * emission_rate_hz)
    return {
        "coupling_rate_plain_hz": g_plain,
        "coupling_rate_angular_rad_per_s": g_angular,
        "coupling_rate_angular_over_2pi_hz": g_angular / TWO_PI,
    }


def indistinguishability_map(
    emission_rate: float,
    dephasing_rate: float,
    *,
    coupling_range: tuple[float, float],
    cavity_range: tuple[float, float],
    points: int,
):
    """Indistinguishability over a log-spaced (g, kappa) grid.

    Returns (g values, kappa values, I matrix[i_g, i_kappa]) suitable for
    the three-column CSV export. Each block of MAP_BLOCK_ROWS g values is
    one broadcast evaluation of the formula of ``indistinguishability_cavity``.
    """
    gs = np.logspace(math.log10(coupling_range[0]), math.log10(coupling_range[1]), points)
    kappas = np.logspace(math.log10(cavity_range[0]), math.log10(cavity_range[1]), points)
    grid = np.empty((points, points))
    for start in range(0, points, MAP_BLOCK_ROWS):
        rows = slice(start, start + MAP_BLOCK_ROWS)
        grid[rows] = _cavity_indistinguishability(emission_rate, dephasing_rate,
                                                  kappas[None, :], gs[rows, None])
    return gs, kappas, grid

