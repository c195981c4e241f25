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
optics entry point. It loops over layers only; each step is elementwise
over whole numpy arrays of wavelengths (or of thicknesses, for a gap
scan) and the result is the four matrix elements as arrays. Spectra,
stopband scans and resonance walks are single array calls; the scalar
functions pass it a single wavelength. Every layer matrix has
det M = cos^2 + sin^2 = 1, also for complex (absorbing) indices, so every
product has det 1 and its inverse is [[m11, -m01], [-m10, m00]]: the gap
field is recovered from the entry-face field without a linear solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class OpticsError(ValueError):
    """Invalid optical structure or probe parameters."""


class ResonanceSearchError(RuntimeError):
    """The resonance search bracket contains no suitable maximum."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerStack:
    """An ordered dielectric layer sequence between two semi-infinite media.

    ``layers`` holds (refractive_index, thickness_nm) pairs ordered from
    the ambient side to the substrate side. The sequence may be empty
    (bare interface). Real parts of all indices must be >= 1 and
    thicknesses > 0.
    """

    ambient_index: complex = 1.0
    layers: tuple[tuple[complex, float], ...] = field(default_factory=tuple)
    substrate_index: complex = 1.0

    def __post_init__(self):
        for name, n in (("ambient", self.ambient_index), ("substrate", self.substrate_index)):
            _check_index(n, name)
        object.__setattr__(self, "layers", tuple((complex(n), float(d)) for n, d in self.layers))
        for i, (n, d) in enumerate(self.layers):
            _check_index(n, f"layer {i}")
            if not math.isfinite(d) or d <= 0:
                raise OpticsError(f"layer {i}: thickness must be positive and finite, got {d}")

    def reversed(self) -> "LayerStack":
        """The same film seen from the other side (ambient/substrate swapped)."""
        return LayerStack(self.substrate_index, tuple(reversed(self.layers)), self.ambient_index)

    def to_text(self) -> str:
        """Serialize to the plain layer-list format (one layer per line)."""
        lines = [f"ambient {_fmt_index(self.ambient_index)}"]
        lines += [f"{_fmt_index(n)} {d!r}" for n, d in self.layers]
        lines.append(f"substrate {_fmt_index(self.substrate_index)}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "LayerStack":
        """Parse the format written by :meth:`to_text`."""
        ambient = substrate = None
        layers = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "ambient":
                ambient = _parse_index(parts[1])
            elif parts[0] == "substrate":
                substrate = _parse_index(parts[1])
            else:
                if len(parts) != 2:
                    raise OpticsError(f"bad layer line: {raw!r}")
                layers.append((_parse_index(parts[0]), float(parts[1])))
        if ambient is None or substrate is None:
            raise OpticsError("stack text must declare ambient and substrate lines")
        return LayerStack(ambient, tuple(layers), substrate)


@dataclass(frozen=True)
class SpectralCurve:
    """Sampled spectrum: strictly increasing wavelengths, finite values."""

    wavelengths_nm: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.wavelengths_nm, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if w.size == 0:
            raise OpticsError("spectral curve needs at least one sample")
        if w.size != v.size:
            raise OpticsError("wavelengths and values must have equal length")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(v)):
            raise OpticsError("spectral curve samples must be finite")
        if np.any(np.diff(w) <= 0):
            raise OpticsError("wavelengths must be strictly increasing")
        object.__setattr__(self, "wavelengths_nm", tuple(float(x) for x in w))
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.wavelengths_nm), np.array(self.values)


@dataclass(frozen=True)
class FieldProfile:
    """Standing-wave intensity along the cavity axis, normalized to peak 1."""

    positions_nm: tuple[float, ...]
    intensity: tuple[float, ...]

    def __post_init__(self):
        inten = np.asarray(self.intensity, dtype=float)
        if np.any(inten < 0):
            raise OpticsError("intensity must be non-negative")
        if abs(inten.max() - 1.0) > 1e-9:
            raise OpticsError("intensity must be normalized to peak 1")

    def antinode_count(self, min_height: float = 0.5) -> int:
        """Count standing-wave antinodes (local maxima above ``min_height``).

        Boundary samples count when they exceed their single neighbor:
        for a low-index-terminated mirror the outermost antinode sits at
        the mirror surface itself.
        """
        inten = np.asarray(self.intensity)
        count = 0
        for i in range(len(inten)):
            left_ok = i == 0 or inten[i] >= inten[i - 1]
            right_ok = i == len(inten) - 1 or inten[i] >= inten[i + 1]
            if left_ok and right_ok and inten[i] > min_height:
                count += 1
        return count


@dataclass(frozen=True)
class ResonanceReport:
    """Transmission-peak summary for a cavity spectrum."""

    found: bool
    center_nm: float = math.nan
    fwhm_nm: float = math.nan
    quality_factor: float = math.nan
    peak_transmission: float = math.nan


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


def _parse_index(token: str) -> complex:
    return complex(token)


def _check_wavelength(lam: float) -> None:
    if not (math.isfinite(lam) and lam > 0):
        raise OpticsError(f"wavelength must be positive and finite, got {lam}")


def _matmul(a, b):
    """2x2 product of matrices held as (m00, m01, m10, m11) element arrays."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _transfer_matrix(layers, lam):
    """Characteristic matrix M_1 ... M_m of ``layers`` as (m00, m01, m10, m11).

    ``lam`` and the layer thicknesses may be scalars or arrays; every step
    works elementwise on their broadcast shape, so the only Python loop is
    over the layers. Callers validate their inputs first.
    """
    shape = np.shape(lam)
    m = (np.ones(shape, complex), np.zeros(shape, complex),
         np.zeros(shape, complex), np.ones(shape, complex))
    for n, d in layers:
        delta = 2.0 * np.pi * n * d / lam
        c, s = np.cos(delta), np.sin(delta)
        m = _matmul(m, (c, 1j * s / n, 1j * n * s, c))
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
    _check_wavelength(lam)
    return _coefficients(_transfer_matrix(stack.layers, lam),
                         stack.ambient_index, stack.substrate_index)


def reflectance_at(stack: LayerStack, lam: float) -> float:
    _check_wavelength(lam)
    return float(_power(stack.layers, stack.ambient_index, stack.substrate_index, lam)[0])


def transmittance_at(stack: LayerStack, lam: float) -> float:
    _check_wavelength(lam)
    return float(_power(stack.layers, stack.ambient_index, stack.substrate_index, lam)[1])


def reflectance(stack: LayerStack, wavelengths_nm) -> SpectralCurve:
    """Reflectance spectrum R(lam) of the stack at normal incidence."""
    wls = _validated_wavelengths(wavelengths_nm)
    refl, _ = _power(stack.layers, stack.ambient_index, stack.substrate_index, wls)
    return SpectralCurve(wls, refl)


def transmittance(stack: LayerStack, wavelengths_nm) -> SpectralCurve:
    """Transmittance spectrum; for lossless stacks R + T = 1."""
    wls = _validated_wavelengths(wavelengths_nm)
    _, trans = _power(stack.layers, stack.ambient_index, stack.substrate_index, wls)
    return SpectralCurve(wls, trans)


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
    termination: str = "low",
    *,
    ambient_index: float = 1.0,
    substrate_index: float = 1.5255,
) -> LayerStack:
    """Build a 2*pairs quarter-wave mirror on a substrate.

    ``termination`` selects the material of the outermost layer (the one
    facing the ambient medium): "low" puts the low-index film on top,
    "high" the high-index film. Layer thicknesses are lam0/(4 n).
    """
    if not (math.isfinite(n_high) and math.isfinite(n_low)):
        raise OpticsError("refractive indices must be finite")
    if n_low < 1.0:
        raise OpticsError(f"n_low must be >= 1, got {n_low}")
    if n_high <= n_low:
        raise OpticsError(f"need n_high > n_low for a mirror, got {n_high} <= {n_low}")
    if pairs < 1:
        raise OpticsError(f"pairs must be >= 1, got {pairs}")
    if design_wavelength_nm <= 0:
        raise OpticsError(f"design wavelength must be positive, got {design_wavelength_nm}")
    if termination not in ("low", "high"):
        raise OpticsError(f"termination must be 'low' or 'high', got {termination!r}")

    d_high = design_wavelength_nm / (4.0 * n_high)
    d_low = design_wavelength_nm / (4.0 * n_low)
    pair = ((n_low, d_low), (n_high, d_high)) if termination == "low" else (
        (n_high, d_high), (n_low, d_low))
    return LayerStack(ambient_index, pair * pairs, substrate_index)


def quarter_wave_peak_reflectance(
    n_high: float,
    n_low: float,
    pairs: int,
    termination: str = "low",
    *,
    n_ambient: float = 1.0,
    n_substrate: float = 1.5255,
) -> float:
    """Closed-form design-wavelength reflectance of a 2*pairs quarter-wave mirror.

    Each quarter-wave layer maps the load admittance Y to n^2/Y; applying
    the sequence from the substrate outward gives the entrance admittance
    and R = |(n0 - Y)/(n0 + Y)|^2. Independent of the transfer-matrix
    path, used as its oracle.
    """
    ratio = (n_low / n_high) ** (2 * pairs)
    if termination == "low":
        y = n_substrate * ratio
    elif termination == "high":
        y = n_substrate / ratio
    else:
        raise OpticsError(f"termination must be 'low' or 'high', got {termination!r}")
    return float(((n_ambient - y) / (n_ambient + y)) ** 2)


def analytic_stopband_fractional_width(n_high: float, n_low: float) -> float:
    """Infinite-stack fractional stopband width (in frequency): (4/pi) asin(dn/(nH+nL))."""
    return float(4.0 / math.pi * math.asin((n_high - n_low) / (n_high + n_low)))


def stopband(
    stack: LayerStack,
    threshold_reflectance: float,
    *,
    wavelength_range_nm: tuple[float, float] = (400.0, 800.0),
    samples: int = 2001,
    anchor_nm: float | None = None,
) -> tuple[float, float] | None:
    """Contiguous wavelength interval around the anchor where R >= threshold.

    Returns (lam_min, lam_max) edges found by bisection refinement, or
    None when no sample reaches the threshold (explicit "no stopband").
    The anchor defaults to the wavelength of maximum reflectance.
    """
    if not 0.0 < threshold_reflectance <= 1.0:
        raise OpticsError(f"threshold must be in (0, 1], got {threshold_reflectance}")
    lo, hi = wavelength_range_nm
    wls = _validated_wavelengths(np.linspace(lo, hi, samples))
    layers, n0, ns = stack.layers, stack.ambient_index, stack.substrate_index
    refl, _ = _power(layers, n0, ns, wls)
    if anchor_nm is None:
        i0 = int(np.argmax(refl))
    else:
        i0 = int(np.argmin(np.abs(wls - anchor_nm)))
    if refl[i0] < threshold_reflectance:
        return None

    def crossing(i_in: int, i_out: int) -> float:
        a, b = wls[i_in], wls[i_out]
        fa = _power(layers, n0, ns, a)[0] - threshold_reflectance
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = _power(layers, n0, ns, m)[0] - threshold_reflectance
            if (fa >= 0) == (fm >= 0):
                a, fa = m, fm
            else:
                b = m
            if abs(b - a) < 1e-6:
                break
        return 0.5 * (a + b)

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

    def with_k(k: float) -> tuple[tuple[complex, float], ...]:
        return tuple((complex(n.real, n.imag - k), d) for n, d in stack.layers)

    def refl(k: float) -> float:
        return _power(with_k(k), stack.ambient_index, stack.substrate_index, lam)[0]

    lo_k, hi_k = 0.0, 1e-6
    while refl(hi_k) > target_reflectance:
        hi_k *= 2.0
        if hi_k > 1.0:
            raise OpticsError("could not bracket the extinction for the requested loss")
    for _ in range(200):
        mid = 0.5 * (lo_k + hi_k)
        if refl(mid) > target_reflectance:
            lo_k = mid
        else:
            hi_k = mid
        if hi_k - lo_k < 1e-16:
            break
    return LayerStack(stack.ambient_index, with_k(0.5 * (lo_k + hi_k)), stack.substrate_index)


# ---------------------------------------------------------------------------
# two-mirror cavity
# ---------------------------------------------------------------------------

def _cavity_stack(mirror_a: LayerStack, gap_nm: float, mirror_b: LayerStack,
                  gap_index: float = 1.0) -> LayerStack:
    """Full probe structure: substrate_a | reversed(a) | gap | b | substrate_b.

    Both mirrors are defined facing the gap (their ambient side); the
    probe enters through mirror A's substrate.
    """
    _check_gaps(gap_nm)
    layers = tuple(reversed(mirror_a.layers)) + ((gap_index, gap_nm),) + mirror_b.layers
    return LayerStack(mirror_a.substrate_index, layers, mirror_b.substrate_index)


def cavity_transmission_at(mirror_a: LayerStack, gap_nm: float, mirror_b: LayerStack,
                           lam: float) -> float:
    return transmittance_at(_cavity_stack(mirror_a, gap_nm, mirror_b), lam)


# The half-maximum walk of cavity_spectrum takes at most _WALK_STEPS steps
# of one sample spacing, evaluated _WALK_CHUNK points per kernel call.
_WALK_STEPS = 200000
_WALK_CHUNK = 512


def cavity_spectrum(
    mirror_a: LayerStack,
    gap_nm: float,
    mirror_b: LayerStack,
    wavelengths_nm,
    *,
    report_near_nm: float | None = None,
) -> tuple[SpectralCurve, ResonanceReport]:
    """Cavity transmission spectrum plus a resonance report.

    The report describes the transmission peak nearest ``report_near_nm``
    (default: the global maximum), with FWHM from interpolated half-max
    crossings and Q = center/FWHM. ``found=False`` when no interior peak
    exists in the sampled range.
    """
    if report_near_nm is not None:
        _check_wavelength(report_near_nm)
    full = _cavity_stack(mirror_a, gap_nm, mirror_b)
    curve = transmittance(full, wavelengths_nm)
    wls, vals = curve.as_arrays()
    peaks = _interior_maxima(vals)
    if peaks.size == 0:
        return curve, ResonanceReport(found=False)
    if report_near_nm is None:
        ipk = peaks[np.argmax(vals[peaks])]
    else:
        ipk = peaks[np.argmin(np.abs(wls[peaks] - report_near_nm))]

    # refine the peak and walk out to the half-max crossings
    def t_of(lam):
        return _power(full.layers, full.ambient_index, full.substrate_index, lam)[1]

    center = golden_section_maximize(t_of, wls[max(ipk - 1, 0)], wls[min(ipk + 1, len(wls) - 1)],
                                     tol=1e-5)
    peak_t = float(t_of(center))
    half = peak_t / 2.0

    def half_crossing(direction: int) -> float | None:
        step = (wls[1] - wls[0]) if len(wls) > 1 else 0.01
        lam = center
        for taken in range(0, _WALK_STEPS, _WALK_CHUNK):
            # the walk lam, lam + step, ... accumulated by repeated addition
            # (as a one-step-at-a-time walk would), evaluated a chunk at a time
            steps = np.full(min(_WALK_CHUNK, _WALK_STEPS - taken) + 1, direction * step)
            steps[0] = lam
            pts = np.add.accumulate(steps)[1:]
            # the points are monotone, so those within the bound are a prefix
            inside = int(np.count_nonzero((pts >= wls[0] - 50) & (pts <= wls[-1] + 50)))
            below = np.flatnonzero(t_of(pts[:inside]) <= half)
            if below.size:
                k = below[0]
                prev = pts[k - 1] if k else lam
                a, b = (prev, pts[k]) if direction > 0 else (pts[k], prev)
                for _ in range(80):
                    m = 0.5 * (a + b)
                    if (t_of(m) > half) == (direction > 0):
                        a = m
                    else:
                        b = m
                return 0.5 * (a + b)
            if inside < pts.size:
                return None
            lam = pts[-1]
        return None

    lo = half_crossing(-1)
    hi = half_crossing(+1)
    if lo is None or hi is None:
        return curve, ResonanceReport(found=True, center_nm=center, fwhm_nm=math.nan,
                                      quality_factor=math.nan, peak_transmission=peak_t)
    fwhm = hi - lo
    return curve, ResonanceReport(found=True, center_nm=float(center), fwhm_nm=float(fwhm),
                                  quality_factor=float(center / fwhm),
                                  peak_transmission=float(peak_t))


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
        m = _matmul(_matmul(m_a, _transfer_matrix(((1.0, gap_nm),), lam)), m_b)
        r, _ = _coefficients(m, n_in, mirror_b.substrate_index)
        e, h = 1.0 + r, n_in * (1.0 - r)
        e, h = m_a[3] * e - m_a[1] * h, m_a[0] * h - m_a[2] * e
        return (e + h) / 2.0, (e - h) / 2.0

    return waves


def _peak_intensity(waves) -> np.ndarray:
    a, b = waves
    return (np.abs(a) + np.abs(b)) ** 2


def peak_intracavity_intensity(mirror_a: LayerStack, gap_nm, mirror_b: LayerStack,
                               lam: float):
    """Maximum standing-wave |E|^2 in the gap, for unit incident amplitude.

    ``gap_nm`` may be an array of gap lengths; the result then has its shape.
    """
    _check_wavelength(lam)
    _check_gaps(gap_nm)
    return _peak_intensity(_gap_waves(mirror_a, mirror_b, lam)(np.asarray(gap_nm, float)))[()]


def intracavity_field(mirror_a: LayerStack, gap_nm: float, mirror_b: LayerStack,
                      lam: float, samples: int = 801) -> FieldProfile:
    """Standing-wave intensity profile across the gap, normalized to peak 1."""
    _check_wavelength(lam)
    _check_gaps(gap_nm)
    a, b = _gap_waves(mirror_a, mirror_b, lam)(gap_nm)
    z = np.linspace(0.0, gap_nm, samples)
    k = 2.0 * np.pi / lam
    inten = np.abs(a * np.exp(1j * k * z) + b * np.exp(-1j * k * z)) ** 2
    peak = inten.max()
    if peak <= 0:
        raise OpticsError("vanishing intracavity field")
    return FieldProfile(tuple(float(x) for x in z), tuple(float(x) for x in inten / peak))


def golden_section_maximize(f, a: float, b: float, tol: float = 0.01) -> float:
    """Classic golden-section maximization of f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def resonant_gap(
    mirror_a: LayerStack,
    mirror_b: LayerStack,
    longitudinal_order: int,
    lam: float,
    *,
    tol_nm: float = 0.01,
) -> float:
    """Physical gap of the mode with ``longitudinal_order`` antinodes.

    Scans a one-wavelength bracket around q*lam/2 for local maxima of the
    peak intracavity intensity, refines each by golden-section search to
    ``tol_nm``, and returns the candidate whose standing-wave profile has
    exactly q antinodes in the gap. Mirror field leakage makes this gap
    smaller than q*lam/2.
    """
    q = longitudinal_order
    if q < 1:
        raise OpticsError(f"longitudinal order must be >= 1, got {q}")
    _check_wavelength(lam)
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
        gap = golden_section_maximize(intensity, grid[i - 1], grid[i + 1], tol=tol_nm)
        profile = intracavity_field(mirror_a, gap, mirror_b, lam,
                                    samples=max(int(gap / (lam / 50.0)), 200))
        candidates.append((gap, profile.antinode_count()))
    for gap, n_anti in candidates:
        if n_anti == q:
            return float(gap)
    raise ResonanceSearchError(
        f"no resonance with {q} antinodes in gap bracket [{lo:.2f}, {hi:.2f}] nm; "
        f"found maxima {[(round(g, 2), n) for g, n in candidates]}")


def penetration_depth(longitudinal_order: int, lam: float, physical_gap_nm: float) -> float:
    """Mirror field penetration depth from the resonance condition.

    The effective cavity length is q*lam/2; the physical gap falls short
    of it by twice the per-mirror penetration depth.
    """
    return (longitudinal_order * lam / 2.0 - physical_gap_nm) / 2.0
