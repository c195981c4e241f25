"""Nonlinear least-squares fitting of measured data series.

Fitters follow one recipe: minimization of weighted residuals, Poisson
weights for count data and uniform weights for spectra, parameter
uncertainties from the Jacobian-based covariance at the optimum. Every
fitter round-trips: a curve generated from the model with known
parameters plus bounded noise is recovered within the documented
tolerance.

The minimizer is the numpy-only Levenberg-Marquardt iteration of module
``lsq``. A fit may spend MAX_ITERATIONS * (n + 1) residual evaluations
for n parameters, the reported ``n_evaluations``. ``_run_fit_batch``
solves many problems of one model in lockstep, each with the bits it
gets alone; ``_run_fit`` is the batch of one.

The IRF convolution is the recursion y[n] = a y[n-1] + irf[n],
a = exp(-dt/tau) (Enderlein and Erdmann, Opt. Commun. 134, 371 (1997)),
summed in O(N) as a cumulative sum scaled by a^-m within blocks short
enough to keep the scale in range, plus the carry between blocks.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class MeasurementSeries:
    """A measured (x, y) series; x strictly increasing, y finite.

    x and y are held as read-only float64 copies, but for an x over an
    immutable bytes buffer, which is shared.
    """

    x: np.ndarray
    y: np.ndarray
    kind: str = "spectrum"

    def __post_init__(self):
        x = self.x
        if not (isinstance(x, np.ndarray) and isinstance(x.base, bytes) and x.dtype == float):
            x = np.array(x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1:
            raise SeriesError("x and y must be one-dimensional")
        if x.size != y.size:
            raise SeriesError("x and y must have equal length")
        if x.size < 2:
            raise SeriesError("series needs at least two samples")
        if np.any(np.diff(x) <= 0):
            raise SeriesError("x must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise SeriesError("series samples must be finite")
        if self.kind not in SERIES_KINDS:
            raise SeriesError(f"kind must be one of {SERIES_KINDS}, got {self.kind!r}")
        x.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x, self.y


@dataclass
class FitResult:
    """Parameters, 1-sigma uncertainties, and diagnostics of one fit."""

    params: dict[str, float]
    stderr: dict[str, float]
    residual_norm: float
    n_evaluations: int
    converged: bool
    warnings: list[str] = field(default_factory=list)

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


@dataclass(frozen=True)
class G2Fit:
    """Second-order-correlation fit: g2(tau) = 1 - A exp(-|tau|/t1) + B exp(-|tau|/t2).

    ``normalization`` is the fitted raw-counts level corresponding to
    g2 = 1; the reported amplitudes refer to the normalized curve.
    ``model`` names the chosen fit, "with_bunching" or "plain";
    ``residual_norms`` holds both fits' norms and ``n_evaluations`` their
    summed residual evaluations.
    """

    antibunching_amplitude: float
    bunching_amplitude: float
    antibunching_time_ps: float
    bunching_time_ps: float
    stderr: dict[str, float]
    residual_norm: float
    model: str
    residual_norms: dict[str, float]
    n_evaluations: int
    converged: bool
    normalization: float = 1.0

    @property
    def g2_zero(self) -> float:
        return 1.0 - self.antibunching_amplitude + self.bunching_amplitude

    @property
    def lifetime_proxy_ps(self) -> float:
        return self.antibunching_time_ps


# ---------------------------------------------------------------------------
# shared least-squares driver
# ---------------------------------------------------------------------------

def _run_fit(model, x, y, p0, names, weights=None, bounds=None) -> FitResult:
    """Levenberg-Marquardt fit of ``model(x, *p)`` to ``y``: the batch of one.

    Allowed MAX_ITERATIONS * (len(p0) + 1) residual evaluations, the
    forward-difference Jacobian columns included; past that, FitError
    carries the best point evaluated. ``bounds`` is ``(lower, upper)``.
    """
    return _one(_run_fit_batch(model, x, np.asarray(y, dtype=float)[None], [p0], names,
                               weights=None if weights is None else weights[None],
                               bounds=bounds))


def _one(outcomes: list):
    """The single outcome of a batch of one; a FitError is raised."""
    (outcome,) = outcomes
    if isinstance(outcome, FitError):
        raise outcome
    return outcome


def _run_fit_batch(model, x, y, p0, names, weights=None, bounds=None) -> list:
    """Levenberg-Marquardt fits of one model to B problems in lockstep
    (``lsq.levenberg_marquardt``): per problem its FitResult or the
    FitError that ended it."""

    def outcome(converged, p, jac, r, cost, calls):
        params = dict(zip(names, map(float, p)))
        if not converged:
            return FitError(f"fit did not converge within {MAX_ITERATIONS} iterations",
                            last_params=params)
        return FitResult(params, _covariance_stderr(jac, r, names), math.sqrt(cost), calls,
                         converged=True)

    return [outcome(*o) for o in lsq.levenberg_marquardt(
        model, x, y, p0, weights, bounds, MAX_ITERATIONS, STEP_TOLERANCE)]


def _covariance_stderr(jac, residual, names) -> dict[str, float]:
    m, n = jac.shape
    dof = max(m - n, 1)
    s_sq = float(residual @ residual) / dof
    try:
        cov = np.linalg.pinv(jac.T @ jac) * s_sq
        diag = np.clip(np.diag(cov), 0.0, None)
        errs = np.sqrt(diag)
    except np.linalg.LinAlgError:
        errs = np.full(n, np.nan)
    return dict(zip(names, (float(e) for e in errs)))


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

def lorentzian(x, center, fwhm, amplitude, offset=0.0):
    """Peak-height-normalized Lorentzian plus constant offset."""
    half = fwhm / 2.0
    return amplitude * half ** 2 / ((x - center) ** 2 + half ** 2) + offset


@dataclass(frozen=True)
class Sinc2Instrument:
    """Instrument line shape of a truncated interferometer scan.

    The kernel is sinc^2(scan_range * x) (numpy sinc convention), with
    first zeros at +-1/scan_range; scan_range has units of 1/x and is
    proportional to the maximum optical path difference of the scan.
    scan_range -> infinity collapses the kernel to a delta.
    """

    scan_range_per_nm: float

    def __post_init__(self):
        if self.scan_range_per_nm <= 0:
            raise SeriesError("scan range must be positive")

    def kernel(self, dx: float, n_data: int) -> np.ndarray:
        half_n = max(1, n_data // 2)
        offsets = np.arange(-half_n, half_n + 1) * dx
        k = np.sinc(self.scan_range_per_nm * offsets) ** 2
        return k / k.sum()


def lorentzian_with_instrument(x, center, fwhm, amplitude, offset,
                               instrument: Sinc2Instrument | None):
    """Lorentzian convolved with the instrument kernel on the grid of x.

    With the instrument, x is one grid; the parameters may be columns,
    one row of the result per row of parameters.
    """
    x = np.asarray(x, dtype=float)
    if instrument is None:
        return lorentzian(x, center, fwhm, amplitude, offset)
    dx = _uniform_spacing(x, "instrument convolution")
    # pad so edge samples see the full kernel support
    kern = instrument.kernel(dx, len(x))
    pad = len(kern) // 2
    x_pad = np.concatenate([
        x[0] + dx * np.arange(-pad, 0), x, x[-1] + dx * np.arange(1, pad + 1)])
    clean = lorentzian(x_pad, center, fwhm, amplitude, 0.0)
    conv = [np.convolve(row, kern, mode="same") for row in clean.reshape(-1, len(x_pad))]
    return np.reshape(conv, clean.shape)[..., pad:pad + len(x)] + offset


def fit_lorentzian(series: MeasurementSeries,
                   instrument: Sinc2Instrument | None = None) -> FitResult:
    """Fit a Lorentzian line, optionally deconvolving the sinc^2 instrument.

    Parameters
    ----------
    series : spectrum-kind series with at least 8 samples spanning the peak
    instrument : optional finite-scan kernel; the fitted FWHM is then the
        deconvolved (physical) linewidth.

    Returns parameters center_nm, fwhm_nm, amplitude, offset.
    """
    return _one(fit_lorentzian_batch([series], instrument))


def fit_lorentzian_batch(spectra, instrument: Sinc2Instrument | None = None) -> list:
    """``fit_lorentzian`` of same-length spectra (on one grid, with an
    instrument) in one lockstep solve; a failed fit gives its FitError."""
    starts = []
    for series in spectra:
        x, y = series.as_arrays()
        if len(x) < 8:
            raise SeriesError("need at least 8 samples spanning the peak")
        offset0 = float(np.percentile(y, 10))
        amp0 = float(y.max() - offset0)
        above = x[y > offset0 + amp0 / 2]
        fwhm0 = float(above[-1] - above[0]) if len(above) >= 2 else (x[-1] - x[0]) / 4
        starts.append((x, y, [float(x[np.argmax(y)]), fwhm0, amp0, offset0]))

    def model(xv, center, fwhm, amplitude, offset):
        return lorentzian_with_instrument(xv, center, abs(fwhm), amplitude, offset, instrument)

    return _run_fit_batch(model, *map(np.array, zip(*starts)),
                          ["center_nm", "fwhm_nm", "amplitude", "offset"])


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
    shape = np.broadcast_shapes(irf.shape, np.shape(rate))
    rows = np.broadcast_to(irf, shape).reshape(-1, shape[-1])
    rate = np.broadcast_to(rate, shape[:-1] + (1,)).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        octave = np.nan_to_num(np.floor(np.log2(_BLOCK_EXPONENT / rate)))
    # a power of two set by the row's own rate
    length = np.minimum(2.0 ** np.clip(octave, 0, math.log2(_BLOCK_MAX)), shape[-1])
    out = np.empty(rows.shape)
    for block in np.unique(length).astype(int):
        sel = length == block
        out[sel] = _decay_blocks(rows[sel], rate[sel], block)
    return out.reshape(shape)


def _decay_blocks(irf: np.ndarray, rate: np.ndarray, block: int) -> np.ndarray:
    """y[n] = a y[n-1] + irf[n] per row, a = exp(-rate), in blocks of ``block``."""
    k, n = irf.shape
    z = np.zeros((k, -(-n // block) * block))
    z[:, :n] = irf
    z = z.reshape(k, -1, block)
    m_rate = np.arange(block) * rate[:, None]
    # within a block y[j] = a^j sum_{m<=j} a^-m irf[m], then the carry in
    y = np.exp(-m_rate)[:, None] * np.cumsum(z * np.exp(m_rate)[:, None], axis=-1)
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


def fit_decay_with_irf(series: MeasurementSeries, irf: MeasurementSeries) -> FitResult:
    """Fit amplitude * (exp(-t/tau) (x) IRF) to a single-exponential decay.

    The IRF is resampled onto the data grid when the grids differ.
    Poisson weighting; warns (and flags) when the fitted lifetime
    collapses to the grid spacing, where the problem is ill-conditioned.
    """
    return _one(fit_decay_with_irf_batch([series], [irf]))


def fit_decay_with_irf_batch(decays, irfs) -> list:
    """``fit_decay_with_irf`` of decays on one time grid, each with its IRF,
    in one lockstep solve; a failed fit gives its FitError."""
    t = decays[0].x
    dt = _uniform_spacing(t, "decay fitting")
    starts = []
    for series, irf in zip(decays, irfs):
        if not np.array_equal(series.x, t):
            raise SeriesError("a batch of decays needs one time grid")
        y = series.y
        t_irf, y_irf = irf.as_arrays()
        if len(t_irf) != len(t) or not np.allclose(t_irf, t):
            y_irf = np.interp(t, t_irf, y_irf, left=0.0, right=0.0)
        if y_irf.sum() <= 0:
            raise SeriesError("instrument response has no weight on the data grid")
        starts.append((y, y_irf, [max((t[-1] - t[0]) / 5.0, 2 * dt), float(y.max())]))
    y, y_irf, p0 = map(np.array, zip(*starts))

    def model(irf_rows, lifetime, amplitude):
        return amplitude * convolve_decay(t, abs(lifetime), irf_rows)

    outcomes = _run_fit_batch(model, y_irf, y, p0, ["lifetime_ps", "amplitude"],
                              weights=poisson_weights(y))
    for result in outcomes:
        if isinstance(result, FitError):
            continue
        result.params["lifetime_ps"] = abs(result.params["lifetime_ps"])
        if result.params["lifetime_ps"] < 2.0 * dt:
            msg = (f"fitted lifetime {result.params['lifetime_ps']:.3g} ps is within "
                   f"2x the grid spacing {dt:.3g} ps; estimate is ill-conditioned")
            warnings.warn(msg, stacklevel=3)
            result.warnings.append(msg)
    return outcomes


# ---------------------------------------------------------------------------
# second-order correlation
# ---------------------------------------------------------------------------

def _decay(tau, time):
    d = -np.abs(tau) / time
    return np.exp(d, out=d)


def _decay_memo():
    """``_decay`` for one solve, keeping the last three results by grid
    object and time bits: a Jacobian column steps one time at a time."""
    memo: dict = {}

    def decay(tau, time):
        key = (id(tau), np.shape(time), np.asarray(time).tobytes())
        entry = memo.pop(key, None)
        if entry is None:
            if len(memo) == 3:
                del memo[next(iter(memo))]
            entry = (tau, _decay(tau, time))  # held, tau keeps its id
        memo[key] = entry
        return entry[1]

    return decay


def g2_model(tau, anti_amp, bunch_amp, anti_time, bunch_time, *, decay=_decay):
    """g2(tau) = 1 - A exp(-|tau|/t1) + B exp(-|tau|/t2) on an array tau,
    summed in place in that order. ``decay(tau, t)`` gives exp(-|tau|/t);
    a fit passes a ``_decay_memo``, which computes each t once per solve."""
    g = anti_amp * decay(tau, anti_time)
    np.subtract(1.0, g, out=g)
    g += bunch_amp * decay(tau, bunch_time)
    return g


G2_NAMES = ["antibunching_amplitude", "bunching_amplitude",
            "antibunching_time_ps", "bunching_time_ps", "normalization"]
_G2_PLAIN = [0, 2, 4]  # the parameters of the fit without bunching


def _g2_start(series: MeasurementSeries, tail_fraction: float, min_tail_points: int) -> tuple:
    """(tau, y, weights or None, start, lower and upper bounds) of the fit with bunching."""
    tau, y = series.as_arrays()
    span = np.abs(tau).max()
    tail = np.abs(tau) >= (1.0 - tail_fraction) * span
    if tail.sum() < min_tail_points:
        raise SeriesError(
            f"tails too short to normalize: {int(tail.sum())} samples beyond "
            f"{(1.0 - tail_fraction) * span:.3g}, need {min_tail_points}")
    baseline0 = float(y[tail].mean())
    if baseline0 <= 0:
        raise SeriesError("tail baseline must be positive to normalize")

    yn = y / baseline0
    anti0 = float(np.clip(1.0 - yn.min(), 0.05, 1.5))
    # delay where the dip has recovered halfway sets the antibunching time scale
    dip = np.argmin(np.abs(tau))
    recover = np.where(yn[dip:] > 1.0 - anti0 / 2.0)[0]
    t10 = float(tau[dip + recover[0]] - tau[dip]) / math.log(2.0) if len(recover) else span / 10
    t10 = max(t10, span / 200.0)
    bunch0 = float(np.clip(yn.max() - 1.0, 1e-3, 1.0))
    # the bunching time is confined between the antibunching recovery
    # scale (below which the two exponentials cancel along a flat ridge)
    # and twice the window (beyond which bunching is just a baseline
    # shift); the term must also earn its keep against the plain model
    t2_lo = min(3.0 * t10, 0.5 * span)
    t2_hi = 2.0 * span
    weights = poisson_weights(y) if baseline0 > 10.0 else None  # raw counts only
    return (tau, y, weights, [anti0, bunch0, t10, math.sqrt(t2_lo * t2_hi), baseline0],
            [0.0, 0.0, 1e-9, t2_lo, 1e-12], [2.0, 2.0, np.inf, t2_hi, np.inf])


def fit_g2(series: MeasurementSeries, *, tail_fraction: float = 0.25,
           min_tail_points: int = 8) -> G2Fit:
    """Fit the antibunching/bunching correlation model.

    The normalization level (raw counts at g2 = 1) is a free fit
    parameter seeded from the mean of the outermost ``tail_fraction`` of
    delay samples; fitting it avoids the baseline bias that a pure
    tail average picks up from slow bunching. Raises when the tails hold
    fewer than ``min_tail_points`` samples. g2(0) = 1 - A + B holds
    exactly by construction of the returned fit.
    """
    return _one(fit_g2_batch([series], tail_fraction=tail_fraction,
                             min_tail_points=min_tail_points))


def fit_g2_batch(correlations, *, tail_fraction: float = 0.25,
                 min_tail_points: int = 8) -> list:
    """``fit_g2`` of same-length correlations, one lockstep solve per
    model; a failed fit gives its (first) FitError."""
    tau, y, weights, p0, lower, upper = zip(*(
        _g2_start(s, tail_fraction, min_tail_points) for s in correlations))
    weights = None if all(w is None for w in weights) else np.array(
        [np.ones_like(v) if w is None else w for v, w in zip(y, weights)])
    y, p0, lower, upper = map(np.array, (y, p0, lower, upper))
    # one grid for all: no stack, one memo key
    grid = tau[0] if all(np.array_equal(v, tau[0]) for v in tau) else np.array(tau)
    decay = _decay_memo()

    def g2_with_bunching(tv, anti, bunch, t_anti, t_bunch, level):
        g = g2_model(tv, anti, bunch, t_anti, t_bunch, decay=decay)
        g *= level
        return g

    def g2_plain(tv, anti, t_anti, level):
        return g2_with_bunching(tv, anti, 0.0, t_anti, 1.0, level)

    with_bunching = _run_fit_batch(g2_with_bunching, grid, y, p0, G2_NAMES,
                                   weights=weights, bounds=(lower, upper))
    plain = _run_fit_batch(g2_plain, grid, y, p0[:, _G2_PLAIN],
                           [G2_NAMES[i] for i in _G2_PLAIN], weights=weights,
                           bounds=(lower[:, _G2_PLAIN], upper[:, _G2_PLAIN]))
    return [_g2_choose(*fits) for fits in zip(with_bunching, plain, tau)]


def _g2_choose(with_bunching, plain, tau):
    """The G2Fit of the model the data support, or the first FitError."""
    for outcome in (with_bunching, plain):
        if isinstance(outcome, FitError):
            return outcome
    # Akaike-style penalty for the two extra parameters:
    # n ln(rss_w/rss_p) + 2*2 < 0
    n = len(tau)
    rss_w = max(with_bunching.residual_norm ** 2, 1e-300)
    rss_p = max(plain.residual_norm ** 2, 1e-300)
    use_bunching = n * math.log(rss_w / rss_p) + 4.0 < 0.0
    chosen = with_bunching if use_bunching else plain
    p = chosen.params
    return G2Fit(
        antibunching_amplitude=p["antibunching_amplitude"],
        bunching_amplitude=p["bunching_amplitude"] if use_bunching else 0.0,
        antibunching_time_ps=p["antibunching_time_ps"],
        bunching_time_ps=p["bunching_time_ps"] if use_bunching else np.abs(tau).max(),
        stderr=chosen.stderr,
        residual_norm=chosen.residual_norm,
        model="with_bunching" if use_bunching else "plain",
        residual_norms={"with_bunching": with_bunching.residual_norm,
                        "plain": plain.residual_norm},
        n_evaluations=with_bunching.n_evaluations + plain.n_evaluations,
        converged=with_bunching.converged and plain.converged,
        normalization=p["normalization"],
    )


def correct_g2_background(g2_value: float, snr: float) -> float:
    """Background-corrected g2 for a given signal-to-noise ratio.

    With rho = SNR/(SNR+1), uncorrelated background mixes the true
    correlation as g2_meas = rho^2 g2 + (1 - rho^2); this inverts that
    map. snr = 0 leaves the correction undefined and is rejected.
    """
    if snr < 0:
        raise ValueError(f"snr must be non-negative, got {snr}")
    rho = 1.0 if math.isinf(snr) else snr / (snr + 1.0)
    if rho == 0.0:
        raise ValueError("snr = 0: correction undefined (no signal)")
    rho_sq = rho * rho
    return (g2_value - (1.0 - rho_sq)) / rho_sq


# ---------------------------------------------------------------------------
# polarization scans
# ---------------------------------------------------------------------------

def cos2_model(theta_deg, amplitude, axis_deg, offset):
    rad = np.radians(theta_deg - axis_deg)
    return amplitude * np.cos(rad) ** 2 + offset


def fit_polarization(series: MeasurementSeries) -> FitResult:
    """Fit a cos^2 polarization scan; reports the degree of polarization.

    DOP = (I_max - I_min)/(I_max + I_min) = a/(a + 2 b) for the fitted
    a cos^2(theta - theta0) + b. Constant data returns DOP = 0 with a
    ``flat_fit`` warning flag instead of failing.
    """
    return _one(fit_polarization_batch([series]))


def fit_polarization_batch(scans) -> list:
    """``fit_polarization`` of same-length scans in one lockstep solve; a
    failed fit gives its FitError."""
    outcomes, starts = [], []
    for scan in scans:
        theta, y = scan.as_arrays()
        if theta[-1] - theta[0] < 180.0:
            raise SeriesError("polarization scan must span at least 180 degrees")
        spread = float(np.ptp(y))
        flat = spread < 1e-12 * max(abs(y.max()), 1.0)
        outcomes.append(FitResult(
            params={"amplitude": 0.0, "axis_deg": 0.0, "offset": float(y.mean())},
            stderr={}, residual_norm=0.0, n_evaluations=0, converged=True,
            warnings=["flat_fit: constant signal, polarization undefined"]) if flat else None)
        if not flat:
            starts.append((theta, y, [spread, float(theta[np.argmax(y)] % 180.0),
                                      float(y.min())]))
    if starts:
        solved = iter(_run_fit_batch(cos2_model, *map(np.array, zip(*starts)),
                                     ["amplitude", "axis_deg", "offset"]))
        outcomes = [next(solved) if o is None else o for o in outcomes]
    for result in outcomes:
        if isinstance(result, FitError):
            continue
        a = abs(result.params["amplitude"])
        b = max(result.params["offset"], 0.0)
        result.params["degree_of_polarization"] = a / (a + 2.0 * b) if a + 2.0 * b > 0 else 0.0
        result.params["axis_deg"] = result.params["axis_deg"] % 180.0
    return outcomes


def saturation_model(power, saturation_power, max_rate):
    return max_rate * power / (power + saturation_power)


def fit_saturation(power, rate) -> FitResult:
    """Fit the two-level saturation curve R_inf P/(P + P_sat).

    Returns parameters saturation_power and max_rate.
    """
    p = np.asarray(power, dtype=float)
    r = np.asarray(rate, dtype=float)
    if p.size != r.size or p.size < 4:
        raise SeriesError("need at least 4 (power, rate) samples")
    p_sat0 = float(np.median(p))
    r_inf0 = float(r.max()) * 2.0
    return _run_fit(saturation_model, p, r, [p_sat0, r_inf0],
                    ["saturation_power", "max_rate"],
                    weights=poisson_weights(r))


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


def zpl_fraction(series: MeasurementSeries, line_fit: FitResult | dict,
                 band: tuple[float, float] | None = None,
                 *, default_cutoff_nm: float = 580.0) -> float:
    """Fraction of total band emission carried by the fitted line.

    The ratio of the fitted Lorentzian's area to the trapezoid-integrated
    series over the integration band. The default band runs from the
    series start to the contaminant cutoff (emission beyond it does not
    originate from the emitter). Clipped to [0, 1].
    """
    x, y = series.as_arrays()
    params = line_fit.params if isinstance(line_fit, FitResult) else dict(line_fit)
    if band is None:
        band = (float(x[0]), min(float(x[-1]), default_cutoff_nm))
    lo, hi = band
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

def write_series_csv(path, series: MeasurementSeries, x_name: str = "x", y_name: str = "y"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# kind={series.kind}\n")
        fh.write(f"{x_name},{y_name}\n")
        for xv, yv in zip(series.x.tolist(), series.y.tolist()):
            fh.write(f"{xv:.10g},{yv:.10g}\n")


def read_series_csv(path) -> MeasurementSeries:
    kind = "spectrum"
    xs, ys = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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
            try:
                yv = float(parts[1])
            except ValueError:
                raise SeriesError(f"{path}, line {lineno}: expected a number in the second "
                                  f"column, got {line!r}") from None
            xs.append(xv)
            ys.append(yv)
    return MeasurementSeries(xs, ys, kind)
