"""Least-squares fitting of measured data series.

Fitters follow one recipe: minimization of weighted residuals, Poisson
weights for count data and uniform weights for spectra, parameter
uncertainties from the covariance of the exact Jacobian at the optimum.
Every fitter round-trips: a curve generated from the model with known
parameters plus bounded noise is recovered within the documented
tolerance.

Every model is ``Separable``, linear in its amplitudes, offsets and level
for given nonlinear parameters theta, with the derivatives of its columns
in closed form, and is fitted by the variable-projection solver of module
``lsq`` (see there what ``n_evaluations`` counts). ``_run_fit_batch``
solves many problems of one model in lockstep, each with the bits it
gets alone; a batch fitter called with ``uncertainties=False`` skips
them and leaves every ``stderr`` empty. The sinc^2 instrument of a
Lorentzian fit is given by its scan range alone, a float in 1/nm (None
for no instrument).

The IRF convolution is the recursion y[n] = a y[n-1] + irf[n],
a = exp(-dt/tau) (Enderlein and Erdmann, Opt. Commun. 134, 371 (1997)),
summed in O(N) as a cumulative sum scaled by a^-m within blocks short
enough to keep the scale in range, plus the carry between blocks.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from . import lsq
from .errors import NumericalError

MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-10


class FitError(NumericalError):
    """Fit could not be performed or did not converge."""

    def __init__(self, message: str, last_params: dict | None = None):
        super().__init__(message)
        self.last_params = last_params or {}


class SeriesError(ValueError):
    """Invalid measurement series."""


SERIES_KINDS = ("spectrum", "decay", "correlation", "polarization")


class MeasurementSeries:
    """A measured (x, y) series; x strictly increasing, y finite.

    x and y are held as read-only float64 copies, but for an x that is
    the whole of an immutable bytes buffer, which is shared and checked
    once per buffer.
    """

    __slots__ = ("x", "y", "kind")

    def __init__(self, x, y, kind: str = "spectrum"):
        shared = (isinstance(x, np.ndarray) and isinstance(x.base, bytes) and x.dtype == float
                  and x.strides == (8,) and x.nbytes == len(x.base))
        if not shared:
            x = np.array(x, dtype=float)
        y = np.array(y, dtype=float)
        if x.ndim != 1 or y.ndim != 1:
            raise SeriesError("x and y must be one-dimensional")
        if x.size != y.size:
            raise SeriesError("x and y must have equal length")
        if x.size < 2:
            raise SeriesError("series needs at least two samples")
        problem = _buffer_problem(x.base) if shared else _grid_problem(x)
        if problem or not np.all(np.isfinite(y)):
            raise SeriesError(problem or "series samples must be finite")
        if kind not in SERIES_KINDS:
            raise SeriesError(f"kind must be one of {SERIES_KINDS}, got {kind!r}")
        x.flags.writeable = y.flags.writeable = False
        self.x, self.y, self.kind = x, y, kind

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x, self.y


def _grid_problem(x: np.ndarray) -> str:
    """What is wrong with a series' x, or "" for nothing."""
    if np.any(np.diff(x) <= 0):
        return "x must be strictly increasing"
    return "" if np.all(np.isfinite(x)) else "series samples must be finite"


@functools.lru_cache(maxsize=8)
def _buffer_problem(buffer: bytes) -> str:
    """``_grid_problem`` of the float64 grid that fills an immutable buffer."""
    return _grid_problem(np.frombuffer(buffer))


class FitResult(NamedTuple):
    """Parameters, 1-sigma uncertainties, and diagnostics of one fit."""

    params: dict[str, float]
    stderr: dict[str, float]
    residual_norm: float
    n_evaluations: int
    converged: bool
    warnings: Sequence[str] = ()

    def formatted(self) -> dict[str, str]:
        """Values with parenthetical uncertainties, e.g. ``897(8)``."""
        out = {}
        for name, value in self.params.items():
            err = self.stderr.get(name)
            if err is not None and math.isfinite(err) and err > 0:
                out[name] = format_with_uncertainty(value, err)
        return out

    def as_dict(self) -> dict:
        return {
            "parameters": self.params,
            "uncertainties": self.stderr,
            "formatted": self.formatted(),
            "residual_norm": self.residual_norm,
            "iterations": self.n_evaluations,
            "converged": self.converged,
            "warnings": list(self.warnings),
        }


def format_with_uncertainty(value: float, stderr: float) -> str:
    """Parenthetical notation: the uncertainty in units of the last digit.

    One significant digit of uncertainty, two when its leading digit is 1
    (so ``897 +- 8.2`` prints as ``897(8)`` and ``366 +- 19`` as
    ``366(19)``).
    """
    if not (math.isfinite(value) and math.isfinite(stderr)) or stderr <= 0:
        return f"{value:g}"
    exponent = math.floor(math.log10(stderr))
    leading = stderr / 10.0 ** exponent
    digits = 2 if round(leading, 6) < 2.0 else 1
    # decimal place of the least significant quoted digit
    place = exponent - (digits - 1)
    scaled_err = int(round(stderr / 10.0 ** place))
    if scaled_err == 10 ** digits:  # rounding bumped it up an order
        place += 1
        scaled_err = int(round(stderr / 10.0 ** place))
    rounded = round(value, -place)
    if place >= 0:
        return f"{rounded:.0f}({scaled_err * 10 ** place:d})"
    return f"{rounded:.{-place}f}({scaled_err:d})"


# ---------------------------------------------------------------------------
# shared least-squares driver
# ---------------------------------------------------------------------------

class Separable(NamedTuple):
    """The sum of the columns of ``basis(x, *theta)`` weighted by c, with
    ``derivatives(x, columns, *theta)`` giving each theta_j's (k,
    dphi_k/dtheta_j) from those columns (see ``lsq.levenberg_marquardt``).
    The named parameters are theta then c, or the first of
    ``params(theta, c)`` of stacks of both (a row per problem), whose
    second is their Jacobian in (theta, c)."""

    basis: Callable
    derivatives: Callable
    names: Sequence[str]
    params: Callable = lambda theta, c: (np.hstack([theta, c]), None)


def _one(outcomes: list):
    """The single outcome of a batch of one; a FitError is raised."""
    (outcome,) = outcomes
    if isinstance(outcome, FitError):
        raise outcome
    return outcome


def _run_fit_batch(fit: Separable, x, y, theta0, weights=None, bounds=None,
                   constraints=None, pooled=None, uncertainties=True) -> list:
    """``lsq.levenberg_marquardt`` fits of one model to B problems: per
    problem its FitResult, or the FitError with the best point seen. The
    uncertainties are those of ``lsq.covariance_factors`` in (theta, c),
    carried to the named parameters by their Jacobian, or none (an empty
    ``stderr``) without ``uncertainties``. ``pooled = (S, N)`` gives rows
    pooled from series of N samples, with pure errors S. A None is taken as
    weights 1, no bounds, a C c >= d of no rows or no pooling: ``lsq``'s form."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim == 2 and (x == x[0]).all():
        x = x[0].copy()  # rows that are all equal reach the model as that one row
    weights = np.broadcast_to(1.0 if weights is None else weights, y.shape)
    if constraints is None:  # C c >= d with no rows, over the k coefficients
        constraints = (np.zeros((0, len(fit.names) - np.shape(theta0)[1])), np.zeros(0))
    pure, samples = (np.zeros(len(y)), y.shape[1]) if pooled is None else pooled
    outcomes = lsq.levenberg_marquardt(fit.basis, fit.derivatives, x, y, theta0, weights,
                                       (-np.inf, np.inf) if bounds is None else bounds,
                                       MAX_ITERATIONS, STEP_TOLERANCE, constraints, pure)
    theta, c = (np.array([o[k] for o in outcomes]) for k in (1, 2))
    (params, to_named), ok = fit.params(theta, c), np.array([o[0] for o in outcomes])
    stderr = itertools.repeat(())
    if ok.any() and uncertainties:
        factors = lsq.covariance_factors(
            fit.basis, fit.derivatives, x if x.ndim == 1 else x[ok], y[ok], theta[ok], c[ok],
            weights[ok], pure[ok], samples)
        if to_named is not None:
            factors = to_named[ok] @ factors
        stderr = iter(np.sqrt(np.vecdot(factors, factors)).tolist())
    results = []
    for (converged, *_, cost, calls), p in zip(outcomes, params):
        named = dict(zip(fit.names, map(float, p)))
        results.append(FitResult(named, dict(zip(fit.names, next(stderr))), math.sqrt(cost),
                                 calls, converged=True)
                       if converged else
                       FitError(f"fit did not converge within {MAX_ITERATIONS} iterations"
                                if cost is None else f"fit start has a non-finite cost ({cost})",
                                last_params=named))
    return results


def _uniform_spacing(x: np.ndarray, context: str) -> float:
    # CSVs carry 10 significant digits, which round a sample by up to
    # 5e-10 |x| and so spread the spacings by up to 2e-9 max|x|
    dx = np.diff(x)
    if dx.max() - dx.min() > 1e-6 * dx.mean() + 2e-9 * np.abs(x).max():
        raise SeriesError(f"{context} requires a uniform x grid")
    return float(dx.mean())


def poisson_weights(y: np.ndarray) -> np.ndarray:
    """1/sqrt(max(y,1)) weights for count data."""
    return 1.0 / np.sqrt(np.clip(y, 1.0, None))


# ---------------------------------------------------------------------------
# line shapes and instrument response
# ---------------------------------------------------------------------------

def lorentzian(x, center, fwhm, amplitude, offset):
    """Peak-height-normalized Lorentzian plus constant offset."""
    half = fwhm / 2.0
    return amplitude * half ** 2 / ((x - center) ** 2 + half ** 2) + offset


def _sinc2_kernel(scan_range: float, dx: float, n_data: int) -> np.ndarray:
    """Instrument line shape of a truncated interferometer scan, normalized
    to unit sum on 2*(n_data//2)+1 taps of spacing dx.

    The kernel is sinc^2(scan_range * x) (numpy sinc convention), with
    first zeros at +-1/scan_range; scan_range has units of 1/x and is
    proportional to the maximum optical path difference of the scan.
    scan_range -> infinity collapses the kernel to a delta.
    """
    half_n = max(1, n_data // 2)
    offsets = np.arange(-half_n, half_n + 1) * dx
    k = np.sinc(scan_range * offsets) ** 2
    return k / k.sum()


def lorentzian_with_instrument(x, center, fwhm, amplitude, offset, instrument: float | None):
    """Lorentzian convolved with the sinc^2 kernel of scan range
    ``instrument`` (1/nm) on the grid of x; None convolves nothing.

    With the instrument, x is one grid; the parameters may be columns,
    one row of the result per row of parameters.
    """
    x = np.asarray(x, dtype=float)
    if instrument is None:
        return lorentzian(x, center, fwhm, amplitude, offset)
    x_pad, convolve = _instrument(x, instrument)
    return convolve(lorentzian(x_pad, center, fwhm, amplitude, 0.0)) + offset


def _instrument(x: np.ndarray, instrument: float) -> tuple:
    """The grid x padded so edge samples see the full sinc^2 kernel support,
    and the convolution of curves on it (one per row) cut back to x."""
    dx = _uniform_spacing(x, "instrument convolution")
    kern = _sinc2_kernel(instrument, dx, len(x))
    pad = len(kern) // 2
    x_pad = np.concatenate([
        x[0] + dx * np.arange(-pad, 0), x, x[-1] + dx * np.arange(1, pad + 1)])

    def convolve(clean):
        conv = [np.convolve(row, kern, mode="same") for row in clean.reshape(-1, len(x_pad))]
        return np.reshape(conv, clean.shape)[..., pad:pad + len(x)]
    return x_pad, convolve


def _lorentzian_slopes(x, line, center, fwhm) -> tuple:
    """d/dcenter and d/dfwhm of the unit-height Lorentzian ``line`` of
    width |fwhm| on x: 8 u L^2/fwhm^2 and that times u/fwhm, u = x - center."""
    u = x - center
    slope = 8.0 * u * line * line / (fwhm * fwhm)
    return slope, slope * u / fwhm


def fit_lorentzian(series: MeasurementSeries, instrument: float | None) -> FitResult:
    """Fit a Lorentzian line, optionally deconvolving the sinc^2 instrument.

    Parameters
    ----------
    series : spectrum-kind series with at least 8 samples spanning the peak
    instrument : scan range (1/nm, finite and positive) of the finite-scan
        kernel, the fitted FWHM then being the deconvolved (physical)
        linewidth; or None for no kernel.

    Returns parameters center_nm, fwhm_nm, amplitude, offset.
    """
    return _one(fit_lorentzian_batch([series], instrument))


def fit_lorentzian_batch(spectra, instrument: float | None, *,
                         uncertainties: bool = True) -> list:
    """``fit_lorentzian`` of same-length spectra (on one grid, with an
    instrument) in one lockstep solve; a failed fit gives its FitError."""
    if instrument is not None and not (math.isfinite(instrument) and instrument > 0):
        raise SeriesError(f"scan range must be positive and finite, got {instrument}")
    starts = []
    for series in spectra:
        x, y = series.as_arrays()
        if len(x) < 8:
            raise SeriesError("need at least 8 samples spanning the peak")
        offset0 = _tenth_percentile(y)
        amp0 = float(y.max() - offset0)
        above = x[y > offset0 + amp0 / 2]
        fwhm0 = float(above[-1] - above[0]) if len(above) >= 2 else (x[-1] - x[0]) / 4
        starts.append((x, y, [float(x[np.argmax(y)]), fwhm0]))

    return _run_fit_batch(_lorentzian_model(instrument), *map(np.array, zip(*starts)),
                          uncertainties=uncertainties)


def _tenth_percentile(y: np.ndarray) -> float:
    """``np.percentile(y, 10)`` bit for bit, numpy's linear interpolation,
    without its ``np.unique``, which imports numpy.ma."""
    index = (len(y) - 1) * 0.1
    low = math.floor(index)
    a, b = np.partition(y, (low, low + 1))[low:low + 2]
    t = index - low
    return float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t))


def _lorentzian_model(instrument: float | None) -> Separable:
    """amplitude L + offset, L the unit-height line behind ``instrument``."""
    def basis(xv, center, fwhm):
        return lorentzian_with_instrument(xv, center, abs(fwhm), 1.0, 0.0, instrument), 1.0

    def derivatives(xv, cols, center, fwhm):
        if instrument is None:
            return ((0, d) for d in _lorentzian_slopes(xv, cols[:, 0], center, fwhm))
        # the kernel applied to the line's slopes, as to the line
        x_pad, convolve = _instrument(xv, instrument)
        line = lorentzian(x_pad, center, abs(fwhm), 1.0, 0.0)
        return ((0, convolve(d)) for d in _lorentzian_slopes(x_pad, line, center, fwhm))
    return Separable(basis, derivatives, ["center_nm", "fwhm_nm", "amplitude", "offset"])


# ---------------------------------------------------------------------------
# lifetime decay with instrument response
# ---------------------------------------------------------------------------

# Each row sums its recursion in blocks of at most _BLOCK_MAX samples,
# over which the scale a^-m grows by at most e^_BLOCK_EXPONENT.
_BLOCK_MAX = 256
_BLOCK_EXPONENT = 32.0


def convolve_decay(t: np.ndarray, lifetime, irf_counts: np.ndarray) -> np.ndarray:
    """Discrete convolution of a causal exponential decay with the IRF.

    Both are defined on the same uniform grid; the IRF is normalized to
    unit sum so the result keeps the decay's amplitude scale.
    ``irf_counts`` may be a (k, N) stack with ``lifetime`` a (k, 1)
    column, one decay per row, each as if alone. O(N) per row by the
    recursion y[n] = a y[n-1] + irf[n], a = exp(-dt/lifetime).
    """
    t = np.asarray(t, dtype=float)
    irf = np.asarray(irf_counts, dtype=float)
    irf = irf / irf.sum(axis=-1, keepdims=True)
    rate = (t[-1] - t[0]) / max(len(t) - 1, 1) / np.asarray(lifetime, dtype=float)
    return _recursion(irf, rate)


def _decay_slope(dt: float, lifetime, decay: np.ndarray) -> np.ndarray:
    """d/dlifetime of ``decay``, a ``convolve_decay`` by |lifetime| on a grid
    of spacing dt: the IRF convolved with (t/tau^2) exp(-t/tau), by the
    recursion w[n] = a w[n-1] + a decay[n-1], with the sign of lifetime."""
    rate = dt / np.abs(lifetime)
    shifted = np.zeros(decay.shape)
    shifted[..., 1:] = np.exp(-rate) * decay[..., :-1]
    return _recursion(shifted, rate) * (rate / lifetime)


def _recursion(rows: np.ndarray, rate) -> np.ndarray:
    """y[n] = a y[n-1] + rows[n], a = exp(-rate), along the last axis; rate
    broadcasts against the rows with one value per row."""
    shape = np.broadcast_shapes(rows.shape, np.shape(rate))
    rows = np.broadcast_to(rows, shape).reshape(-1, shape[-1])
    rate = np.broadcast_to(rate, shape[:-1] + (1,)).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        octave = np.floor(np.log2(_BLOCK_EXPONENT / rate))
    # a power of two set by the row's own rate, 1 where its octave is NaN
    length = np.minimum(2.0 ** np.where(octave > 0.0, np.minimum(octave, math.log2(_BLOCK_MAX)),
                                        0.0), shape[-1])
    out, blocks = np.empty(rows.shape), set(length.tolist())
    for block in blocks:
        sel = slice(None) if len(blocks) == 1 else length == block  # no copies for one
        out[sel] = _decay_blocks(rows[sel], rate[sel], int(block))
    return out.reshape(shape)


def _decay_blocks(irf: np.ndarray, rate: np.ndarray, block: int) -> np.ndarray:
    """y[n] = a y[n-1] + irf[n] per row, a = exp(-rate), in blocks of ``block``."""
    k, n = irf.shape
    y = np.zeros((k, -(-n // block) * block))
    y[:, :n] = irf
    y = y.reshape(k, -1, block)
    m_rate = np.arange(block) * rate[:, None]
    # within a block y[j] = a^j sum_{m<=j} a^-m irf[m], in place, then the carry in
    y *= np.exp(m_rate)[:, None]
    np.cumsum(y, axis=-1, out=y)
    y *= np.exp(-m_rate)[:, None]
    carry = np.exp(-(m_rate + rate[:, None]))
    if block < _BLOCK_MAX:
        # a short block has a^block < e^-16, so a block's last value takes
        # the last values of two blocks before it, all that passes 2^-69
        ends = y[:, :, -1].copy()
        for i in (1, 2):
            ends[:, i:] += np.exp(-i * block * rate)[:, None] * y[:, :-i, -1]
        y[:, 1:] += carry[:, None] * ends[:, :-1, None]
    else:
        for b in range(1, y.shape[1]):
            y[:, b] += carry * y[:, b - 1, -1:]
    return y.reshape(k, -1)[:, :n]


def _decay_model(t: np.ndarray, dt: float) -> Separable:
    """amplitude (exp(-t/|lifetime|) (x) IRF) on the grid t of spacing dt,
    with the IRF rows for x."""
    return Separable(lambda irf, lifetime: (convolve_decay(t, abs(lifetime), irf),),
                     lambda irf, cols, lifetime: ((0, _decay_slope(dt, lifetime, cols[:, 0])),),
                     ["lifetime_ps", "amplitude"])


def fit_decay_with_irf(series: MeasurementSeries, irf: MeasurementSeries) -> FitResult:
    """Fit amplitude * (exp(-t/tau) (x) IRF) to a single-exponential decay.

    The IRF is resampled onto the data grid when the grids differ.
    Poisson weighting; warns (and flags) when the fitted lifetime
    collapses to the grid spacing, where the problem is ill-conditioned.
    """
    return _one(fit_decay_with_irf_batch([series], [irf]))


def fit_decay_with_irf_batch(decays, irfs, *, uncertainties: bool = True) -> list:
    """``fit_decay_with_irf`` of decays on one time grid, each with its IRF,
    in one lockstep solve; a failed fit gives its FitError. A lifetime starts
    at the counts' mean delay less the IRF's (Isenberg and Dyson, Biophys. J.
    9, 1337 (1969)), or at a fifth of the window where that is not positive;
    at least 2 dt."""
    t = decays[0].x
    dt = _uniform_spacing(t, "decay fitting")
    starts = []
    for series, irf in zip(decays, irfs):
        if not np.array_equal(series.x, t):
            raise SeriesError("a batch of decays needs one time grid")
        y = series.y
        t_irf, y_irf = irf.as_arrays()
        if t_irf is not t and (len(t_irf) != len(t) or not np.allclose(t_irf, t)):
            y_irf = np.interp(t, t_irf, y_irf, left=0.0, right=0.0)
        if y_irf.sum() <= 0:
            raise SeriesError("instrument response has no weight on the data grid")
        tau0 = float(t @ y / y.sum() - t @ y_irf / y_irf.sum()) if y.sum() > 0 else 0.0
        tau0 = tau0 if math.isfinite(tau0) and tau0 > 0 else (t[-1] - t[0]) / 5.0
        starts.append((y, y_irf, [max(tau0, 2 * dt)]))
    y, y_irf, p0 = map(np.array, zip(*starts))
    outcomes = _run_fit_batch(_decay_model(t, dt), y_irf, y, p0, weights=poisson_weights(y),
                              uncertainties=uncertainties)
    for i, result in enumerate(outcomes):
        if isinstance(result, FitError):
            continue
        result.params["lifetime_ps"] = abs(result.params["lifetime_ps"])
        if result.params["lifetime_ps"] < 2.0 * dt:
            msg = (f"fitted lifetime {result.params['lifetime_ps']:.3g} ps is within "
                   f"2x the grid spacing {dt:.3g} ps; estimate is ill-conditioned")
            warnings.warn(msg, stacklevel=3)
            outcomes[i] = result._replace(warnings=[msg])
    return outcomes


# ---------------------------------------------------------------------------
# second-order correlation: module g2fit, loaded when first used
# ---------------------------------------------------------------------------

_G2FIT_NAMES = ("G2Fit", "correct_g2_background", "fit_g2", "fit_g2_batch", "g2_model")


def __getattr__(name: str):
    """The g2 fit's public names, from module g2fit: only a correlation fit
    compiles it."""
    if name not in _G2FIT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import g2fit
    return getattr(g2fit, name)


# ---------------------------------------------------------------------------
# polarization scans
# ---------------------------------------------------------------------------

def cos2_model(theta_deg, amplitude, axis_deg, offset):
    rad = np.radians(theta_deg - axis_deg)
    return amplitude * np.cos(rad) ** 2 + offset


def _cos2_params(_, c):
    """(a, theta0, b) from c and their Jacobian in c: a = 2h, theta0 =
    atan2(c2, c1)/2 in degrees, b = c0 - h, h = hypot(c1, c2)."""
    half = np.hypot(c[:, 1], c[:, 2])
    u = c[:, 1:] / half[:, None]
    jac = np.zeros((len(c), 3, 3))
    jac[:, 0, 1:], jac[:, 2, 0], jac[:, 2, 1:] = 2.0 * u, 1.0, -u
    jac[:, 1, 1:] = u[:, ::-1] * [-1.0, 1.0] * (90.0 / math.pi / half)[:, None]
    return np.column_stack([2.0 * half, np.degrees(np.arctan2(c[:, 2], c[:, 1])) / 2.0 % 180.0,
                            c[:, 0] - half]), jac


# a cos^2(theta - theta0) + b = c0 + c1 cos 2theta + c2 sin 2theta
_COS2 = Separable(lambda theta: (1.0, np.cos(np.radians(2.0 * theta)),
                                 np.sin(np.radians(2.0 * theta))),
                  lambda theta, cols: (), ["amplitude", "axis_deg", "offset"], _cos2_params)


def fit_polarization(series: MeasurementSeries) -> FitResult:
    """Fit a cos^2 polarization scan; reports the degree of polarization.

    One linear solve for a cos^2(theta - theta0) + b, then DOP =
    (I_max - I_min)/(I_max + I_min) = a/(a + 2 b). Constant data returns
    DOP = 0 with a ``flat_fit`` warning flag instead of failing.
    """
    return _one(fit_polarization_batch([series]))


def fit_polarization_batch(scans, *, uncertainties: bool = True) -> list:
    """``fit_polarization`` of same-length scans in one stacked solve."""
    outcomes, fitted = [], []
    for scan in scans:
        theta, y = scan.as_arrays()
        if theta[-1] - theta[0] < 180.0:
            raise SeriesError("polarization scan must span at least 180 degrees")
        flat = float(np.ptp(y)) < 1e-12 * max(abs(y.max()), 1.0)
        outcomes.append(FitResult(
            params={"amplitude": 0.0, "axis_deg": 0.0, "offset": float(y.mean())},
            stderr={}, residual_norm=0.0, n_evaluations=0, converged=True,
            warnings=["flat_fit: constant signal, polarization undefined"]) if flat else None)
        if not flat:
            fitted.append((theta, y))
    if fitted:
        solved = iter(_run_fit_batch(_COS2, *map(np.array, zip(*fitted)),
                                     np.empty((len(fitted), 0)), uncertainties=uncertainties))
        outcomes = [next(solved) if o is None else o for o in outcomes]
    for result in outcomes:
        a, b = result.params["amplitude"], max(result.params["offset"], 0.0)
        result.params["degree_of_polarization"] = a / (a + 2.0 * b) if a + 2.0 * b > 0 else 0.0
    return outcomes


# ---------------------------------------------------------------------------
# emission-line fraction
# ---------------------------------------------------------------------------

def lorentzian_band_area(center: float, fwhm: float, amplitude: float,
                         band: tuple[float, float]) -> float:
    """Analytic integral of the peak-normalized Lorentzian over a band."""
    half = fwhm / 2.0
    lo, hi = band
    return amplitude * half * (math.atan((hi - center) / half)
                               - math.atan((lo - center) / half))


def zpl_fraction(series: MeasurementSeries, line_fit: FitResult, *, cutoff_nm: float) -> float:
    """Fraction of total band emission carried by the fitted line.

    The ratio of the fitted Lorentzian's area to the trapezoid-integrated
    series over the integration band, which runs from the series start to
    the contaminant cutoff ``cutoff_nm`` (emission beyond it does not
    originate from the emitter). Clipped to [0, 1].
    """
    x, y = series.as_arrays()
    params = line_fit.params
    lo, hi = float(x[0]), min(float(x[-1]), cutoff_nm)
    if hi <= lo:
        raise SeriesError(f"empty integration band ({lo}, {hi})")
    mask = (x >= lo) & (x <= hi)
    if mask.sum() < 2:
        raise SeriesError("integration band contains fewer than two samples")
    total = float(np.trapezoid(y[mask], x[mask]))
    if total <= 0:
        raise SeriesError("no emission inside the integration band")
    line = lorentzian_band_area(params["center_nm"], abs(params["fwhm_nm"]),
                                params["amplitude"], (lo, hi))
    return float(np.clip(line / total, 0.0, 1.0))


# ---------------------------------------------------------------------------
# series I/O
# ---------------------------------------------------------------------------

def read_series_csv(path) -> MeasurementSeries:
    """The series of a CSV file of x, y rows (further columns ignored),
    skipping blank lines, header rows (x no number) and "#" comments, whose
    last ``kind=...`` token sets the kind. The lines from the first row on
    parse in one numpy call; where it fails (a comment, header or white
    space among the rows, or a bad row) a line at a time, naming a bad line.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    # numpy's parser takes these for white space in a field; float() does not
    one_call = not any(c in text for c in "\x1c\x1d\x1e\x1f")
    kind = "spectrum"
    xs, ys = [], []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].replace(",", " ").split():
                if token.startswith("kind="):
                    kind = token.split("=", 1)[1]
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise SeriesError(f"{path}, line {lineno}: expected two comma-separated "
                              f"columns, got {line!r}")
        try:
            xv = float(parts[0])
        except ValueError:
            continue  # header row
        if one_call and not xs:
            try:
                rows = np.loadtxt(lines[lineno - 1:], delimiter=",", comments=None,
                                  usecols=(0, 1), ndmin=2)
            except ValueError:
                one_call = False
            else:
                return MeasurementSeries(rows[:, 0], rows[:, 1], kind)
        try:
            yv = float(parts[1])
        except ValueError:
            raise SeriesError(f"{path}, line {lineno}: expected a number in the second "
                              f"column, got {line!r}") from None
        xs.append(xv)
        ys.append(yv)
    return MeasurementSeries(xs, ys, kind)
