"""Secret-key-rate simulator: single-photon sources vs weak coherent and
decoy-state BB84 over fiber and free-space channels.

Security model
--------------
``SECURITY_FORMULAS`` states each formula, and the crossing report records
it. The sources without decoy states are rated by the conservative
tagged-states bound: multiphoton emissions are tagged, insecure signals,
and only the untagged fraction of the gain yields key. The decoy protocol
rates the single-photon signals by their asymptotic yield and error
estimate instead. Every rate is clamped at zero.

Evaluation
----------
The formulas are written once, in ``_rates``, which works elementwise on
numpy arrays of transmittance and intensity broadcast against each
other; its branches (clamps, tagged-states cut-offs) are masks, not
``if`` statements. ``binary_entropy`` is elementwise too.
The intensity optimizer ``_optimal_mu`` takes a whole array of
transmittances: its 120-point log pre-scan is one (64 x 120) call per
block of 64 transmittances, and ``search.golden_max`` refines all
brackets in lockstep. ``sweep``, the grid scan of ``find_crossing`` and
each batch of its bisection levels make one optimizer call per source.
``optimize_mu`` and ``effective_rate`` are scalar wrappers over the same
code. Results are plain values: rates are floats or arrays, and
``find_crossing`` returns the dict that the crossing report writes.
What ``config.SCHEMA`` does not guarantee of the pipeline inputs is checked
where it is read: the source kind in ``_rates``, the channel kind in
``channel_transmittance``, a negative distance there and in ``beam_diameter_m``,
and the divergence model and the calibrated angle in ``beam_diameter_m``.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import search
from .constants import transmittance_to_db
from .errors import NumericalError

SOURCE_KINDS = ("ideal_sps", "real_sps", "wcs", "decoy")

E0_BACKGROUND = 0.5  # dark counts are random in basis


class QkdError(ValueError):
    """Invalid QKD scenario parameters."""


class NoPositiveRateError(NumericalError):
    """The key rate is zero over the whole optimization domain."""


class NoCrossingError(NumericalError):
    """The rate difference does not change sign on the search interval."""


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class SourceModel(NamedTuple):
    """Photon source: sub-Poissonian (ideal/real) or Poissonian (wcs/decoy).

    ``mean_photons`` is the source efficiency (photons per trigger) for
    the single-photon kinds and the pulse intensity mu for wcs/decoy;
    for the latter ``mu_mode`` selects per-distance optimization or the
    fixed value. Only real_sps reads ``g2_zero`` and only wcs/decoy read
    ``mu_mode``; another kind leaves each at its neutral default.
    """

    kind: str
    mean_photons: float
    g2_zero: float = 0.0
    mu_mode: str = "fixed"

    @property
    def optimizes_mu(self) -> bool:
        return self.kind in ("wcs", "decoy") and self.mu_mode == "optimal"


def ideal_sps() -> SourceModel:
    return SourceModel(kind="ideal_sps", mean_photons=1.0)


class ChannelModel(NamedTuple):
    """Fiber (attenuation in dB/km) or diffraction-limited free-space link;
    ``channel_transmittance`` takes the distance as its argument."""

    kind: str
    attenuation_db_per_km: float
    transmit_aperture_m: float
    receive_aperture_m: float
    wavelength_nm: float
    divergence_model: str | None
    divergence_half_angle_rad: float | None


class DetectorModel(NamedTuple):
    """Receiver parameters."""

    receiver_efficiency: float
    dark_count_per_pulse: float
    misalignment_error: float
    error_correction_inefficiency: float
    sifting_factor: float


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def binary_entropy(x):
    """Shannon binary entropy H2 in bits, elementwise; 0 at both endpoints.

    A scalar argument gives a float, an array gives an array.
    """
    x = np.asarray(x, dtype=float)
    edge = (x <= 0.0) | (x >= 1.0)
    p = np.where(edge, 0.5, x)
    h = np.where(edge, 0.0, -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))
    return h if h.ndim else float(h)


def channel_transmittance(channel: ChannelModel, distance_km: float) -> float:
    """Channel power transmittance in (0, 1] at ``distance_km``, by the
    fiber or free-space formula of ``SECURITY_FORMULAS`` at every distance."""
    if channel.kind not in ("fiber", "freespace"):
        raise QkdError(f"channel kind must be 'fiber' or 'freespace', got {channel.kind!r}")
    if distance_km < 0:
        raise QkdError("distance must be non-negative")
    if channel.kind == "fiber":
        return 10.0 ** (-channel.attenuation_db_per_km * distance_km / 10.0)
    diameter, aperture = beam_diameter_m(channel, distance_km), channel.receive_aperture_m
    return 1.0 if diameter <= aperture else (aperture / diameter) ** 2


def beam_diameter_m(channel: ChannelModel, distance_km: float) -> float:
    """Beam diameter at the receiver under the configured divergence model."""
    lam = channel.wavelength_nm * 1e-9
    dist = distance_km * 1e3
    if dist < 0:
        raise QkdError("distance must be non-negative")
    d_t = channel.transmit_aperture_m
    if channel.divergence_model == "gaussian_farfield":
        waist = d_t / 2.0
        rayleigh = math.pi * waist ** 2 / lam
        return 2.0 * waist * math.sqrt(1.0 + (dist / rayleigh) ** 2)
    if channel.divergence_model == "friis":
        # equivalent diameter so (Dr/diameter)^2 = (pi Dt Dr / (4 lam L))^2,
        # no narrower than the beam leaving the transmitter
        return max(4.0 * lam * dist / (math.pi * d_t), d_t)
    if channel.divergence_model != "calibrated":
        raise QkdError(f"unknown divergence_model {channel.divergence_model!r}")
    angle = channel.divergence_half_angle_rad
    if angle is None or angle <= 0:
        raise QkdError("calibrated model needs a positive divergence_half_angle_rad")
    return d_t + 2.0 * angle * dist


def calibrate_divergence_half_angle(
    transmit_aperture_m: float,
    receive_aperture_m: float,
    target_loss_db: float,
    target_distance_km: float,
) -> float:
    """Linear-divergence half angle placing ``target_loss_db`` at the target range.

    Used to reproduce an externally stated loss-distance pair that the
    diffraction models do not predict; the returned constant should be
    logged alongside any result that relies on it.
    """
    t = 10.0 ** (-target_loss_db / 10.0)
    diameter = receive_aperture_m / math.sqrt(t)
    if diameter <= transmit_aperture_m:
        raise QkdError("target loss is reached before any divergence; calibration impossible")
    return (diameter - transmit_aperture_m) / (2.0 * target_distance_km * 1e3)


# ---------------------------------------------------------------------------
# key rates
# ---------------------------------------------------------------------------

def _rates(source: SourceModel, t, detector: DetectorModel, mu) -> np.ndarray:
    """Secret bits per sent signal at transmittances ``t`` and intensities
    ``mu``, elementwise over their broadcast shape; clamped at zero."""
    if source.kind not in SOURCE_KINDS:
        raise QkdError(f"kind must be one of {SOURCE_KINDS}, got {source.kind!r}")
    t = np.asarray(t, dtype=float)
    mu = np.asarray(mu, dtype=float)
    eta = detector.receiver_efficiency
    y0 = detector.dark_count_per_pulse
    e_det = detector.misalignment_error
    f_ec = detector.error_correction_inefficiency
    q_sift = detector.sifting_factor
    link = t * eta

    if source.kind in ("ideal_sps", "real_sps"):
        gain = y0 + mu * link
        g2 = 0.0 if source.kind == "ideal_sps" else source.g2_zero
        p_multi = g2 * mu ** 2 / 2.0
    else:
        gain = 1.0 - (1.0 - y0) * np.exp(-mu * link)
        p_multi = 1.0 - np.exp(-mu) * (1.0 + mu)

    # masked elements may divide by zero; np.where discards what they give
    with np.errstate(divide="ignore", invalid="ignore"):
        dark = gain <= 0.0
        qber = np.minimum((E0_BACKGROUND * y0 + e_det * mu * link) / gain, 0.5)
        if source.kind == "decoy":
            y1 = y0 + link
            e1 = (E0_BACKGROUND * y0 + e_det * link) / y1
            raw = q_sift * (-gain * f_ec * binary_entropy(qber)
                            + mu * np.exp(-mu) * y1 * (1.0 - binary_entropy(np.minimum(e1, 0.5))))
            killed = dark
        else:
            untagged = (gain - p_multi) / gain
            phase_error = qber / untagged
            raw = q_sift * gain * (untagged * (1.0 - binary_entropy(phase_error))
                                   - f_ec * binary_entropy(qber))
            killed = dark | (untagged <= 0.0) | (phase_error >= 0.5)
    return np.where(killed | (raw < 0.0), 0.0, raw)


# bisection levels of find_crossing per array call, 2^CROSSING_LEVELS - 1 distances
CROSSING_LEVELS = 5
# find_crossing bisects until its bracket is this narrow (km)
CROSSING_TOL_KM = 1e-3
# transmittances per block of _optimal_mu's pre-scan, which holds ~12 (block x 120) arrays
PRESCAN_BLOCK = 64


def _optimal_mu(source: SourceModel, t, detector: DetectorModel) -> tuple[np.ndarray, np.ndarray]:
    """Best pulse intensity and its rate at every transmittance of ``t``.

    A log-spaced pre-scan brackets each optimum (the positive region can
    be a narrow sliver at small mu under heavy loss), and golden section
    refines each bracket to 1e-5. Where the rate is zero on the whole of
    (0, 1.5] the intensity is NaN and the rate 0.
    """
    t = np.asarray(t, dtype=float)

    def rate_of(mu):
        return _rates(source, t, detector, mu)

    grid = np.logspace(-6, math.log10(1.5), 120)
    best = np.empty(t.size, dtype=np.intp)
    alive = np.empty(t.size, dtype=bool)
    for start in range(0, t.size, PRESCAN_BLOCK):
        block = slice(start, start + PRESCAN_BLOCK)
        values = _rates(source, t[block, None], detector, grid)
        best[block] = np.argmax(values, axis=1)
        alive[block] = values.max(axis=1) > 0.0
    lo = np.where(best > 0, grid[best - 1], grid[0] * 0.5)
    hi = np.where(best < grid.size - 1, grid[np.minimum(best + 1, grid.size - 1)], 1.5)

    mu_star = search.golden_max(rate_of, lo, hi, 1e-5)
    return np.where(alive, mu_star, np.nan), np.where(alive, rate_of(mu_star), 0.0)


def _effective_rates(source: SourceModel, t,
                     detector: DetectorModel) -> tuple[np.ndarray, np.ndarray]:
    """Intensity and key rate at every transmittance of ``t`` under the
    source's mu policy: the optimized mu, or ``mean_photons`` when fixed."""
    if source.optimizes_mu:
        return _optimal_mu(source, t, detector)
    return (np.full(len(t), source.mean_photons),
            _rates(source, t, detector, source.mean_photons))


def optimize_mu(source: SourceModel, channel: ChannelModel, detector: DetectorModel,
                distance_km: float) -> tuple[float, float]:
    """Best pulse intensity for a wcs/decoy source at ``distance_km``.

    The search of ``_optimal_mu`` at one transmittance. Raises
    NoPositiveRateError when the rate is zero everywhere.

    Returns (mu_star, rate_at_mu_star).
    """
    if source.kind not in ("wcs", "decoy"):
        raise QkdError("mu optimization applies to wcs/decoy sources only")
    mu, rate = _optimal_mu(source, [channel_transmittance(channel, distance_km)], detector)
    if math.isnan(mu[0]):
        raise NoPositiveRateError(
            f"no positive rate for {source.kind} on (0, 1.5] at this distance")
    return float(mu[0]), float(rate[0])


def effective_rate(source: SourceModel, channel: ChannelModel, detector: DetectorModel,
                   distance_km: float) -> float:
    """Key rate at ``distance_km`` with the source's mu policy applied."""
    t = [channel_transmittance(channel, distance_km)]
    return float(_effective_rates(source, t, detector)[1][0])


def find_crossing(
    source_a: SourceModel,
    source_b: SourceModel,
    channel: ChannelModel,
    detector: DetectorModel,
    search_interval_km: tuple[float, float],
) -> dict[str, float]:
    """Distance where the two sources' key rates cross, as a dict of
    ``distance_km``, ``loss_db`` and ``rate`` (source a's rate there).

    Scans 200 points of the interval for a sign change of rate_a - rate_b
    (re-optimizing mu per distance for wcs/decoy sources), one array
    evaluation per source, then bisects to CROSSING_TOL_KM (1e-3 km), or
    until the bracket's ends are adjacent floats, judging CROSSING_LEVELS
    levels of midpoints per such call. Raises NoCrossingError when no sign
    change exists in the interval.
    """
    lo, hi = search_interval_km
    if hi <= lo:
        raise QkdError("search interval must satisfy lo < hi")

    def diff(distances) -> np.ndarray:
        t = [channel_transmittance(channel, d) for d in distances]
        return (_effective_rates(source_a, t, detector)[1]
                - _effective_rates(source_b, t, detector)[1])

    grid = np.linspace(lo, hi, 200)
    values = diff(grid)
    # both rates clamped to zero is equality, not a crossing; bracket the
    # first strict sign change, allowing clamped points in between
    nonzero = np.flatnonzero(values)
    changes = np.flatnonzero(values[nonzero[:-1]] * values[nonzero[1:]] < 0)
    if changes.size == 0:
        raise NoCrossingError(
            f"no crossing in interval [{lo}, {hi}] km: rate difference keeps one sign")
    prev, i = nonzero[changes[0]:changes[0] + 2]
    a, b, fa = grid[prev], grid[i], values[prev]

    def same_side(distances) -> np.ndarray:  # a midpoint on a's side of the crossing
        fm = diff(distances)
        return (fm != 0.0) & ((fm > 0) == (fa > 0))

    d_cross = search.bisect(same_side, a, b, tol=CROSSING_TOL_KM, levels=CROSSING_LEVELS)
    t = channel_transmittance(channel, d_cross)
    return {"distance_km": float(d_cross), "loss_db": float(transmittance_to_db(t)),
            "rate": float(effective_rate(source_a, channel, detector, d_cross))}


def sweep(
    sources: dict[str, SourceModel],
    channel: ChannelModel,
    detector: DetectorModel,
    distances_km,
) -> np.ndarray:
    """Rate sweep table for CSV export: a structured array with one row per
    distance and one field per column.

    The columns are the distance, the loss in dB of the transmittance in
    ``SECURITY_FORMULAS``, and per source label its rate and its
    intensity: the optimized mu for a source that re-optimizes per
    distance (NaN where no intensity gives a positive rate), else its
    ``mean_photons``. Each source is one array evaluation over all
    distances.
    """
    distances = [float(d) for d in distances_km]
    t = [channel_transmittance(channel, d) for d in distances]
    columns = {"distance_km": distances, "loss_db": [transmittance_to_db(v) for v in t]}
    for label, src in sources.items():
        columns[f"mu_{label}"], columns[f"rate_{label}"] = _effective_rates(src, t, detector)
    table = np.empty(len(distances), dtype=[(name, float) for name in columns])
    for name, values in columns.items():
        table[name] = values
    return table


SECURITY_FORMULAS = """\
binary entropy:      H2(x) = -x log2 x - (1-x) log2(1-x)
fiber transmittance: t = 10^(-alpha d / 10)
free space:          t = min(1, (D_rx / beam_diameter(d))^2)
gain (sps):          Q = Y0 + mu t eta
gain (wcs/decoy):    Q = 1 - (1 - Y0) exp(-mu t eta)
error rate:          E = (0.5 Y0 + e_det mu t eta) / Q
multiphoton (sps):   p_m = g2_0 mu^2 / 2
multiphoton (wcs):   p_m = 1 - exp(-mu)(1 + mu)
untagged fraction:   Omega = (Q - p_m) / Q
tagged-states rate:  R = q Q [Omega (1 - H2(E/Omega)) - f_EC H2(E)]
decoy yield:         Y1 = Y0 + t eta,  e1 = (0.5 Y0 + e_det t eta)/Y1
decoy rate:          R = q [-Q f_EC H2(E) + mu exp(-mu) Y1 (1 - H2(e1))]
"""
