"""1-D thin-film transfer-matrix engine for mirror stacks and microcavities.

Conventions
-----------
Normal incidence only. Layer sequences are ordered from the ambient side
to the substrate side. Indices are real for lossless films; a small
negative imaginary part models absorption (time convention exp(-iwt)).
The characteristic-matrix of a layer with index n and thickness d at
vacuum wavelength lam is

    M = [[cos(delta), i sin(delta)/n],
         [i n sin(delta), cos(delta)]],   delta = 2 pi n d / lam

and for the full sequence M = M_1 ... M_m (ambient-adjacent layer first),
the amplitude reflectance is r = (n0 B - C)/(n0 B + C) with
(B, C) = M (1, n_s).

One kernel, :func:`_transfer_matrix`, evaluates that product for every
optics entry point. It loops over runs of a repeated block of layers,
raising each block to its count by repeated squaring; each step is
elementwise over whole numpy arrays of wavelengths, and the result is
the four matrix elements as arrays. A gap scan forms its one layer's
matrix over an array of thicknesses the same way. A spectrum is one
array call per SPECTRUM_BLOCK wavelengths and a stopband scan one call;
the scalar functions and the probes of a half-maximum crossing pass it a
single wavelength. Results are plain values: a spectrum is a float
array, one value per wavelength passed in (strictly increasing); a field
profile is a pair of arrays, positions and intensities; a resonance
report is a dict. Every layer matrix has det M = cos^2 + sin^2 = 1,
also for complex (absorbing) indices, so every product has det 1 and its
inverse is [[m11, -m01], [-m10, m00]]: the gap field is recovered from
the entry-face field without a linear solve.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import search
from .errors import NumericalError


class OpticsError(ValueError):
    """Invalid optical structure or probe parameters."""


class ResonanceSearchError(NumericalError):
    """The resonance search bracket contains no suitable maximum."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class _Stack(NamedTuple):
    ambient_index: complex
    layers: tuple[tuple[complex, float], ...]
    substrate_index: complex


class LayerStack(_Stack):
    """An ordered dielectric layer sequence between two semi-infinite media.

    ``layers`` holds (refractive_index, thickness_nm) pairs ordered from
    the ambient side to the substrate side, each stored as (complex,
    float). The sequence may be empty (bare interface). Real parts of all
    indices must be >= 1 and thicknesses > 0.
    """

    __slots__ = ()

    def __new__(cls, ambient_index: complex = 1.0, layers=(), substrate_index: complex = 1.0):
        for name, n in (("ambient", ambient_index), ("substrate", substrate_index)):
            _check_index(n, name)
        layers = tuple((complex(n), float(d)) for n, d in layers)
        for i, (n, d) in enumerate(layers):
            _check_index(n, f"layer {i}")
            if not math.isfinite(d) or d <= 0:
                raise OpticsError(f"layer {i}: thickness must be positive and finite, got {d}")
        return super().__new__(cls, ambient_index, layers, substrate_index)

    def reversed(self) -> "LayerStack":
        """The same film seen from the other side (ambient/substrate swapped)."""
        return LayerStack(self.substrate_index, tuple(reversed(self.layers)), self.ambient_index)

    def to_text(self) -> str:
        """Serialize to the plain layer-list format (one layer per line)."""
        lines = [f"ambient {_fmt_index(self.ambient_index)}"]
        lines += [f"{_fmt_index(n)} {d!r}" for n, d in self.layers]
        lines.append(f"substrate {_fmt_index(self.substrate_index)}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# core transfer-matrix machinery
# ---------------------------------------------------------------------------

def _check_index(n, name: str) -> None:
    n = complex(n)
    if not (math.isfinite(n.real) and math.isfinite(n.imag)):
        raise OpticsError(f"{name}: refractive index must be finite, got {n}")
    if n.real < 1.0:
        raise OpticsError(f"{name}: refractive index real part must be >= 1, got {n.real}")


def _fmt_index(n: complex) -> str:
    return repr(n.real) if n.imag == 0 else f"{n.real!r}{n.imag:+.17g}j"


def _matmul(a, b):
    """2x2 product of matrices held as (m00, m01, m10, m11) element arrays."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _layer_matrix(n, d, lam):
    """Characteristic matrix of one film as (m00, m01, m10, m11)."""
    delta = 2.0 * np.pi * n * d / lam
    c, s = np.cos(delta), np.sin(delta)
    return c, 1j * s / n, 1j * n * s, c


def _matrix_power(m, count: int):
    """``m`` to the power ``count`` >= 1 by repeated squaring."""
    result = None
    while True:
        if count & 1:
            result = m if result is None else _matmul(result, m)
        count >>= 1
        if not count:
            return result
        m = _matmul(m, m)


@functools.lru_cache(maxsize=64)
def _runs(layers):
    """``layers`` as (films, runs): the distinct (index, thickness) films,
    and the sequence as runs (block, count) of a block of film numbers,
    one film or a pair, repeated count times. A film repeated is one run;
    otherwise a pair repeated at least twice is one run; any other film is
    a run of count 1."""
    films: dict = {}
    ids = [films.setdefault(layer, len(films)) for layer in layers]
    runs = []
    i = 0
    while i < len(ids):
        for period in (1, 2):
            block = ids[i:i + period]
            count = 1
            while ids[i + period * count:i + period * (count + 1)] == block:
                count += 1
            if count > 1:
                break
        else:
            period, block = 1, ids[i:i + 1]
        runs.append((tuple(block), count))
        i += period * count
    return tuple(films), tuple(runs)


def _transfer_matrix(layers, lam):
    """Characteristic matrix M_1 ... M_m of ``layers`` as (m00, m01, m10, m11).

    ``layers`` is a tuple of (index, thickness) scalars; ``lam`` may be
    a scalar or an array, and every step works elementwise on it. The
    sequence is read as runs of one repeated block (see :func:`_runs`):
    each distinct film's matrix is formed once, each block's product once,
    and a block repeated N times is raised to the N-th power by repeated
    squaring, in about 2 log2(N) products instead of N - 1. A periodic
    stack's matrix is the N-th power of its period's (Abeles' theorem;
    Born & Wolf, *Principles of Optics*, sec. 1.6.5; Yeh, *Optical Waves
    in Layered Media*, 1988, ch. 6). A stack with no repeats is runs of
    count 1, and the product is the plain layer-by-layer one. Callers
    validate their inputs first.
    """
    return _product(*_runs(layers), lam)


def _product(films, runs, lam):
    """``_transfer_matrix`` of the layers that ``_runs`` reads as (films, runs)."""
    if not runs:
        shape = np.shape(lam)
        return (np.ones(shape, complex), np.zeros(shape, complex),
                np.zeros(shape, complex), np.ones(shape, complex))
    mats = [_layer_matrix(n, d, lam) for n, d in films]
    m = None
    for block, count in runs:
        b = mats[block[0]]
        for k in block[1:]:
            b = _matmul(b, mats[k])
        b = _matrix_power(b, count)
        m = b if m is None else _matmul(m, b)
    return m


def _coefficients(m, n0, ns):
    """Amplitude (r, t) of the structure with characteristic matrix ``m``."""
    m00, m01, m10, m11 = m
    b = m00 + m01 * ns
    c = m10 + m11 * ns
    return (n0 * b - c) / (n0 * b + c), 2.0 * n0 / (n0 * b + c)


def _power(layers, n0, ns, lam):
    """Reflectance and transmittance of ``layers`` between n0 and ns at ``lam``."""
    r, t = _coefficients(_transfer_matrix(layers, lam), n0, ns)
    return np.abs(r) ** 2, np.abs(t) ** 2 * ns.real / n0.real


def amplitude_coefficients(stack: LayerStack, lam: float) -> tuple[complex, complex]:
    """Amplitude reflection and transmission coefficients (r, t) at ``lam``."""
    if not (math.isfinite(lam) and lam > 0):
        raise OpticsError(f"wavelength must be positive and finite, got {lam}")
    return _coefficients(_transfer_matrix(stack.layers, lam),
                         stack.ambient_index, stack.substrate_index)


def reflectance_at(stack: LayerStack, lam: float) -> float:
    return float(_power(stack.layers, stack.ambient_index, stack.substrate_index, lam)[0])


def reflectance(stack: LayerStack, wavelengths_nm) -> np.ndarray:
    """Reflectance R(lam) of the stack at normal incidence, one value per
    wavelength."""
    return _spectrum(stack, _validated_wavelengths(wavelengths_nm), 0)


def transmittance(stack: LayerStack, wavelengths_nm) -> np.ndarray:
    """Transmittance at each wavelength; for lossless stacks R + T = 1."""
    return _spectrum(stack, _validated_wavelengths(wavelengths_nm), 1)


# wavelengths per _power call of a spectrum, which holds ~20 complex arrays of them
SPECTRUM_BLOCK = 4096


def _spectrum(stack: LayerStack, wls: np.ndarray, which: int) -> np.ndarray:
    """R (``which`` 0) or T (1) over validated wavelengths that rise strictly."""
    values = np.empty(wls.size)
    for start in range(0, wls.size, SPECTRUM_BLOCK):
        block = slice(start, start + SPECTRUM_BLOCK)
        values[block] = _power(stack.layers, stack.ambient_index, stack.substrate_index,
                               wls[block])[which]
    if not np.all(np.isfinite(values)):
        raise OpticsError("spectral curve samples must be finite")
    if np.any(np.diff(wls) <= 0):
        raise OpticsError("wavelengths must be strictly increasing")
    return values


def _validated_wavelengths(wavelengths_nm) -> np.ndarray:
    wls = np.atleast_1d(np.asarray(wavelengths_nm, dtype=float))
    if wls.size == 0:
        raise OpticsError("wavelength list must not be empty")
    bad = ~(np.isfinite(wls) & (wls > 0))
    if bad.any():
        raise OpticsError(f"wavelengths must be positive and finite, got {wls[bad][0]}")
    return wls


def _interior_maxima(vals: np.ndarray) -> np.ndarray:
    """Indices i of interior samples with vals[i-1] <= vals[i] > vals[i+1]."""
    mid = vals[1:-1]
    return np.flatnonzero((mid >= vals[:-2]) & (mid > vals[2:])) + 1


# ---------------------------------------------------------------------------
# quarter-wave mirrors
# ---------------------------------------------------------------------------

def make_quarter_wave_stack(
    n_high: float,
    n_low: float,
    pairs: int,
    design_wavelength_nm: float,
    termination: str,
    *,
    substrate_index: float,
) -> LayerStack:
    """Build a 2*pairs quarter-wave mirror between air and a substrate.

    ``termination`` selects the material of the outermost layer (the one
    facing the ambient medium): "low" puts the low-index film on top,
    "high" the high-index film. Layer thicknesses are lam0/(4 n).
    """
    if n_high <= n_low:
        raise OpticsError(f"need n_high > n_low for a mirror, got {n_high} <= {n_low}")
    d_high = design_wavelength_nm / (4.0 * n_high)
    d_low = design_wavelength_nm / (4.0 * n_low)
    pair = ((n_low, d_low), (n_high, d_high)) if termination == "low" else (
        (n_high, d_high), (n_low, d_low))
    return LayerStack(1.0, pair * pairs, substrate_index)


def quarter_wave_peak_reflectance(
    n_high: float,
    n_low: float,
    pairs: int,
    termination: str,
    *,
    n_substrate: float,
) -> float:
    """Closed-form design-wavelength reflectance of a 2*pairs quarter-wave
    mirror in air.

    Each quarter-wave layer maps the load admittance Y to n^2/Y; applying
    the sequence from the substrate outward gives the entrance admittance
    and R = |(1 - Y)/(1 + Y)|^2. Independent of the transfer-matrix
    path, used as its oracle.
    """
    ratio = (n_low / n_high) ** (2 * pairs)
    y = n_substrate * ratio if termination == "low" else n_substrate / ratio
    return float(((1.0 - y) / (1.0 + y)) ** 2)


def analytic_stopband_fractional_width(n_high: float, n_low: float) -> float:
    """Infinite-stack fractional stopband width (in frequency): (4/pi) asin(dn/(nH+nL))."""
    return float(4.0 / math.pi * math.asin((n_high - n_low) / (n_high + n_low)))


def stopband(
    stack: LayerStack,
    threshold_reflectance: float,
    *,
    wavelength_range_nm: tuple[float, float] = (400.0, 800.0),
    anchor_nm: float,
) -> tuple[float, float] | None:
    """Contiguous wavelength interval around the anchor where R >= threshold.

    The range is sampled at 2001 wavelengths. Returns (lam_min, lam_max)
    edges found by bisection refinement, or None when the sample nearest
    the anchor falls below the threshold (explicit "no stopband").
    """
    lo, hi = wavelength_range_nm
    wls = _validated_wavelengths(np.linspace(lo, hi, 2001))
    layers, n0, ns = stack.layers, stack.ambient_index, stack.substrate_index
    refl, _ = _power(layers, n0, ns, wls)
    i0 = int(np.argmin(np.abs(wls - anchor_nm)))
    if refl[i0] < threshold_reflectance:
        return None

    def crossing(i_in: int, i_out: int) -> float:
        return search.bisect(lambda m: _power(layers, n0, ns, m)[0] >= threshold_reflectance,
                             wls[i_in], wls[i_out], tol=1e-6)

    i = i0
    while i > 0 and refl[i - 1] >= threshold_reflectance:
        i -= 1
    j = i0
    while j < len(wls) - 1 and refl[j + 1] >= threshold_reflectance:
        j += 1
    lam_min = wls[0] if i == 0 else crossing(i, i - 1)
    lam_max = wls[-1] if j == len(wls) - 1 else crossing(j, j + 1)
    return float(lam_min), float(lam_max)


def calibrated_lossy_stack(stack: LayerStack, target_reflectance: float, lam: float) -> LayerStack:
    """Stack with uniform film extinction tuned so R(lam) equals the target.

    Models the scattering/absorption deficit of a real coating with a
    single scalar. The target must not exceed the lossless reflectance.
    """
    r_ideal = reflectance_at(stack, lam)
    if target_reflectance > r_ideal:
        raise OpticsError(
            f"target reflectance {target_reflectance} exceeds lossless value {r_ideal:.6f}")
    if target_reflectance == r_ideal:
        return stack

    def with_k(layers, k: float) -> tuple[tuple[complex, float], ...]:
        return tuple((complex(n.real, n.imag - k), d) for n, d in layers)

    # a uniform shift keeps distinct films distinct, so the lossy stack
    # has the runs of the lossless one
    films, runs = _runs(stack.layers)

    def refl(k: float) -> float:
        m = _product(with_k(films, k), runs, lam)
        return np.abs(_coefficients(m, stack.ambient_index, stack.substrate_index)[0]) ** 2

    hi_k = 1e-6
    while refl(hi_k) > target_reflectance:
        hi_k *= 2.0
        if hi_k > 1.0:
            raise OpticsError("could not bracket the extinction for the requested loss")
    k = search.bisect(lambda m: refl(m) > target_reflectance, 0.0, hi_k, tol=1e-16)
    return LayerStack(stack.ambient_index, with_k(stack.layers, k), stack.substrate_index)


# ---------------------------------------------------------------------------
# two-mirror cavity
# ---------------------------------------------------------------------------

def _cavity_stack(mirror_a: LayerStack, gap_nm: float, mirror_b: LayerStack) -> LayerStack:
    """Full probe structure: substrate_a | reversed(a) | air gap | b | substrate_b.

    Both mirrors are defined facing the gap (their ambient side); the
    probe enters through mirror A's substrate.
    """
    _check_gaps(gap_nm)
    layers = tuple(reversed(mirror_a.layers)) + ((1.0, gap_nm),) + mirror_b.layers
    return LayerStack(mirror_a.substrate_index, layers, mirror_b.substrate_index)


def cavity_spectrum(
    mirror_a: LayerStack,
    gap_nm: float,
    mirror_b: LayerStack,
    wavelengths_nm,
    *,
    report_near_nm: float,
) -> tuple[np.ndarray, dict]:
    """Cavity transmission at each wavelength plus a resonance report.

    The report is a dict of ``found``, ``center_nm``, ``fwhm_nm``,
    ``quality_factor`` and ``peak_transmission`` for the transmission
    peak nearest ``report_near_nm``, with FWHM from refined half-max
    crossings and Q = center/FWHM: each is bisected between the last
    probe above half the maximum and the first not above it, of probes
    at the centre -/+ s, 2s, 4s, ... (s the sample spacing) clamped to
    50 nm beyond the sampled range. With no interior peak in the sampled
    range ``found`` is False and the other values are NaN; a peak whose
    transmission stays above half its maximum has NaN FWHM and Q.
    """
    full = _cavity_stack(mirror_a, gap_nm, mirror_b)
    wls = _validated_wavelengths(wavelengths_nm)
    vals = _spectrum(full, wls, 1)
    peaks = _interior_maxima(vals)
    if peaks.size == 0:
        return vals, {"found": False, "center_nm": math.nan, "fwhm_nm": math.nan,
                      "quality_factor": math.nan, "peak_transmission": math.nan}
    ipk = peaks[np.argmin(np.abs(wls[peaks] - report_near_nm))]

    # refine the peak and probe out to the half-max crossings
    def t_of(lam):
        return _power(full.layers, full.ambient_index, full.substrate_index, lam)[1]

    center = search.golden_max(t_of, wls[ipk - 1], wls[ipk + 1], tol=1e-5)
    peak_t = float(t_of(center))
    half = peak_t / 2.0

    def half_crossing(direction: int) -> float | None:
        edge = wls[0] - 50 if direction < 0 else wls[-1] + 50
        inner, reach = center, wls[1] - wls[0]
        while True:
            last = reach >= abs(edge - center)
            outer = edge if last else center + direction * reach
            if t_of(outer) <= half:
                return search.bisect(lambda m: t_of(m) > half, inner, outer)
            if last:
                return None
            inner, reach = outer, 2 * reach

    lo = half_crossing(-1)
    hi = half_crossing(+1)
    fwhm = math.nan if lo is None or hi is None else hi - lo
    return vals, {"found": True, "center_nm": float(center), "fwhm_nm": float(fwhm),
                  "quality_factor": float(center / fwhm), "peak_transmission": peak_t}


# ---------------------------------------------------------------------------
# intracavity field and penetration depth
# ---------------------------------------------------------------------------

def _check_gaps(gap_nm) -> None:
    gaps = np.asarray(gap_nm, dtype=float)
    if not np.all(np.isfinite(gaps) & (gaps > 0)):
        raise OpticsError(f"gap must be positive and finite, got {gap_nm}")


def _gap_waves(mirror_a: LayerStack, mirror_b: LayerStack, lam: float):
    """Function of the gap length giving the gap's forward/backward amplitudes.

    The mirror matrices are formed once at ``lam``; the returned function
    takes one gap length or an array of them and forms M_a M_gap M_b over
    it. The (E, H) field vector just inside the entry medium, for unit
    incidence, is carried through mirror A by the det = 1 inverse of its
    matrix; in the index-1 gap the wave decomposes as a e^{ikz} + b e^{-ikz}.
    """
    m_a = _transfer_matrix(tuple(reversed(mirror_a.layers)), lam)
    m_b = _transfer_matrix(mirror_b.layers, lam)
    n_in = mirror_a.substrate_index

    def waves(gap_nm):
        m = _matmul(_matmul(m_a, _layer_matrix(1.0, gap_nm, lam)), m_b)
        r, _ = _coefficients(m, n_in, mirror_b.substrate_index)
        e, h = 1.0 + r, n_in * (1.0 - r)
        e, h = m_a[3] * e - m_a[1] * h, m_a[0] * h - m_a[2] * e
        return (e + h) / 2.0, (e - h) / 2.0

    return waves


def _peak_intensity(waves) -> np.ndarray:
    a, b = waves
    return (np.abs(a) + np.abs(b)) ** 2


def intracavity_field(mirror_a: LayerStack, gap_nm: float, mirror_b: LayerStack,
                      lam: float, samples: int = 801) -> tuple[np.ndarray, np.ndarray]:
    """Standing-wave intensity across the gap, normalized to peak 1, as
    (positions_nm, intensity)."""
    _check_gaps(gap_nm)
    a, b = _gap_waves(mirror_a, mirror_b, lam)(gap_nm)
    z = np.linspace(0.0, gap_nm, samples)
    k = 2.0 * np.pi / lam
    inten = np.abs(a * np.exp(1j * k * z) + b * np.exp(-1j * k * z)) ** 2
    peak = inten.max()
    if peak <= 0:
        raise OpticsError("vanishing intracavity field")
    return z, inten / peak


def antinode_count(intensity: np.ndarray) -> int:
    """Count standing-wave antinodes (local maxima above 0.5 of a peak-1 profile).

    Boundary samples count when they exceed their single neighbor:
    for a low-index-terminated mirror the outermost antinode sits at
    the mirror surface itself.
    """
    padded = np.concatenate(([-np.inf], intensity, [-np.inf]))
    peaks = (intensity >= padded[:-2]) & (intensity >= padded[2:]) & (intensity > 0.5)
    return int(np.count_nonzero(peaks))


def resonant_gap(
    mirror_a: LayerStack,
    mirror_b: LayerStack,
    longitudinal_order: int,
    lam: float,
) -> float:
    """Physical gap of the mode with ``longitudinal_order`` antinodes.

    Scans a one-wavelength bracket around q*lam/2 for local maxima of the
    peak intracavity intensity, refines each by golden-section search to
    0.01 nm, and returns the candidate whose standing-wave profile has
    exactly q antinodes in the gap. Mirror field leakage makes this gap
    smaller than q*lam/2.
    """
    q = longitudinal_order
    center = q * lam / 2.0
    lo = max(center - 0.55 * lam, 0.05 * lam)
    hi = center + 0.55 * lam
    waves = _gap_waves(mirror_a, mirror_b, lam)

    def intensity(gap):
        return _peak_intensity(waves(gap))

    grid = np.linspace(lo, hi, 1600)
    vals = intensity(grid)
    candidates = []
    for i in _interior_maxima(vals):
        gap = search.golden_max(intensity, grid[i - 1], grid[i + 1], tol=0.01)
        _, inten = intracavity_field(mirror_a, gap, mirror_b, lam,
                                     samples=max(int(gap / (lam / 50.0)), 200))
        candidates.append((gap, antinode_count(inten)))
    for gap, n_anti in candidates:
        if n_anti == q:
            return float(gap)
    raise ResonanceSearchError(
        f"no resonance with {q} antinodes in gap bracket [{lo:.2f}, {hi:.2f}] nm; "
        f"found maxima {[(round(float(g), 2), n) for g, n in candidates]}")


def penetration_depth(longitudinal_order: int, lam: float, physical_gap_nm: float) -> float:
    """Mirror field penetration depth from the resonance condition.

    The effective cavity length is q*lam/2; the physical gap falls short
    of it by twice the per-mirror penetration depth.
    """
    return (longitudinal_order * lam / 2.0 - physical_gap_nm) / 2.0
