"""Nonlinear least-squares fitting of measured data series.

Fitters follow one recipe: damped Gauss-Newton (Levenberg-Marquardt
style) minimization of weighted residuals, Poisson weights for count
data and uniform weights for spectra, parameter uncertainties from the
Jacobian-based covariance at the optimum. Every fitter round-trips: a
curve generated from the model with known parameters plus bounded noise
is recovered within the documented tolerance.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-10


class FitError(RuntimeError):
    """Fit could not be performed or did not converge."""

    def __init__(self, message: str, last_params: dict | None = None):
        super().__init__(message)
        self.last_params = last_params or {}


class SeriesError(ValueError):
    """Invalid measurement series."""


SERIES_KINDS = ("spectrum", "decay", "correlation", "polarization")


@dataclass(frozen=True)
class MeasurementSeries:
    """A measured (x, y) series; x strictly increasing, y finite."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    kind: str = "spectrum"

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
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
        object.__setattr__(self, "x", tuple(float(v) for v in x))
        object.__setattr__(self, "y", tuple(float(v) for v in y))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.x), np.array(self.y)


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
    """

    antibunching_amplitude: float
    bunching_amplitude: float
    antibunching_time_ps: float
    bunching_time_ps: float
    stderr: dict[str, float]
    residual_norm: float
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

class _BudgetSpent(Exception):
    """The residual-evaluation budget of one fit is used up."""


def _run_fit(model, x, y, p0, names, weights=None, bounds=None) -> FitResult:
    """Least-squares fit allowed MAX_ITERATIONS * (len(p0) + 1) residual
    evaluations, finite-difference Jacobian columns included.

    The budget is counted here, not by scipy, because which evaluations
    scipy counts against ``max_nfev`` differs between its versions.
    """
    w = np.ones_like(y) if weights is None else weights
    budget = MAX_ITERATIONS * (len(p0) + 1)
    calls = 0
    best_cost, best_p = math.inf, np.asarray(p0, dtype=float)

    def residuals(p):
        nonlocal calls, best_cost, best_p
        if calls == budget:
            raise _BudgetSpent
        calls += 1
        res = (model(x, *p) - y) * w
        cost = float(res @ res)
        if cost < best_cost:
            best_cost, best_p = cost, p.copy()
        return res

    kwargs = dict(
        xtol=STEP_TOLERANCE,
        ftol=1e-12,
        gtol=1e-12,
        max_nfev=budget,
    )
    try:
        if bounds is None:
            result = least_squares(residuals, p0, method="lm", **kwargs)
        else:
            result = least_squares(residuals, p0, method="trf", bounds=bounds, **kwargs)
    except _BudgetSpent:
        result = None
    # scipy stops itself (status 0) where its max_nfev counts every
    # evaluation; the last iterate is the best point evaluated in budget
    if result is None or (not result.success and result.status == 0):
        raise FitError(f"fit did not converge within {MAX_ITERATIONS} iterations",
                       last_params=dict(zip(names, (float(v) for v in best_p))))

    params = dict(zip(names, (float(v) for v in result.x)))

    stderr = _covariance_stderr(result.jac, result.fun, names)
    return FitResult(
        params=params,
        stderr=stderr,
        residual_norm=float(np.linalg.norm(result.fun)),
        n_evaluations=int(result.nfev),
        converged=bool(result.success),
    )


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
    dx = np.diff(x)
    if dx.max() - dx.min() > 1e-6 * dx.mean():
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
    """Lorentzian convolved with the instrument kernel on the grid of x."""
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
    conv = np.convolve(clean, kern, mode="same")[pad:pad + len(x)]
    return conv + offset


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
    x, y = series.as_arrays()
    if len(x) < 8:
        raise SeriesError("need at least 8 samples spanning the peak")
    offset0 = float(np.percentile(y, 10))
    amp0 = float(y.max() - offset0)
    center0 = float(x[np.argmax(y)])
    above = x[y > offset0 + amp0 / 2]
    fwhm0 = float(above[-1] - above[0]) if len(above) >= 2 else (x[-1] - x[0]) / 4

    def model(xv, center, fwhm, amplitude, offset):
        return lorentzian_with_instrument(xv, center, abs(fwhm), amplitude, offset, instrument)

    return _run_fit(model, x, y, [center0, fwhm0, amp0, offset0],
                    ["center_nm", "fwhm_nm", "amplitude", "offset"])


# ---------------------------------------------------------------------------
# lifetime decay with instrument response
# ---------------------------------------------------------------------------

def convolve_decay(t: np.ndarray, lifetime: float, irf_counts: np.ndarray) -> np.ndarray:
    """Discrete convolution of a causal exponential decay with the IRF.

    Both are defined on the same uniform grid; the IRF is normalized to
    unit sum so the result keeps the decay's amplitude scale.
    """
    decay = np.exp(-(t - t[0]) / lifetime)
    irf = irf_counts / irf_counts.sum()
    return np.convolve(irf, decay)[: len(t)]


def fit_decay_with_irf(series: MeasurementSeries, irf: MeasurementSeries) -> FitResult:
    """Fit amplitude * (exp(-t/tau) (x) IRF) to a single-exponential decay.

    The IRF is resampled onto the data grid when the grids differ.
    Poisson weighting; warns (and flags) when the fitted lifetime
    collapses to the grid spacing, where the problem is ill-conditioned.
    """
    t, y = series.as_arrays()
    dt = _uniform_spacing(t, "decay fitting")
    t_irf, y_irf = irf.as_arrays()
    if len(t_irf) != len(t) or not np.allclose(t_irf, t):
        y_irf = np.interp(t, t_irf, y_irf, left=0.0, right=0.0)
    if y_irf.sum() <= 0:
        raise SeriesError("instrument response has no weight on the data grid")

    tau0 = max((t[-1] - t[0]) / 5.0, 2 * dt)
    amp0 = float(y.max())

    def model(tv, lifetime, amplitude):
        return amplitude * convolve_decay(tv, abs(lifetime), y_irf)

    result = _run_fit(model, t, y, [tau0, amp0], ["lifetime_ps", "amplitude"],
                      weights=poisson_weights(y))
    result.params["lifetime_ps"] = abs(result.params["lifetime_ps"])
    if result.params["lifetime_ps"] < 2.0 * dt:
        msg = (f"fitted lifetime {result.params['lifetime_ps']:.3g} ps is within "
               f"2x the grid spacing {dt:.3g} ps; estimate is ill-conditioned")
        warnings.warn(msg, stacklevel=2)
        result.warnings.append(msg)
    return result


# ---------------------------------------------------------------------------
# second-order correlation
# ---------------------------------------------------------------------------

def g2_model(tau, anti_amp, bunch_amp, anti_time, bunch_time):
    a = np.exp(-np.abs(tau) / anti_time)
    b = np.exp(-np.abs(tau) / bunch_time)
    return 1.0 - anti_amp * a + bunch_amp * b


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

    def scaled_model(tv, anti, bunch, t_anti, t_bunch, level):
        return level * g2_model(tv, anti, bunch, t_anti, t_bunch)

    def scaled_model_no_bunching(tv, anti, t_anti, level):
        return level * g2_model(tv, anti, 0.0, t_anti, 1.0)

    # the bunching time is confined between the antibunching recovery
    # scale (below which the two exponentials cancel along a flat ridge)
    # and twice the window (beyond which bunching is just a baseline
    # shift); the term must also earn its keep against the plain model
    t2_lo = min(3.0 * t10, 0.5 * span)
    t2_hi = 2.0 * span
    weights = poisson_weights(y) if baseline0 > 10.0 else None  # raw counts only
    with_bunching = _run_fit(
        scaled_model, tau, y,
        [anti0, bunch0, t10, math.sqrt(t2_lo * t2_hi), baseline0],
        ["antibunching_amplitude", "bunching_amplitude",
         "antibunching_time_ps", "bunching_time_ps", "normalization"],
        weights=weights,
        bounds=([0.0, 0.0, 1e-9, t2_lo, 1e-12],
                [2.0, 2.0, np.inf, t2_hi, np.inf]),
    )
    plain = _run_fit(
        scaled_model_no_bunching, tau, y,
        [anti0, t10, baseline0],
        ["antibunching_amplitude", "antibunching_time_ps", "normalization"],
        weights=weights,
        bounds=([0.0, 1e-9, 1e-12], [2.0, np.inf, np.inf]),
    )
    # Akaike-style penalty for the two extra parameters:
    # n ln(rss_w/rss_p) + 2*2 < 0
    n = len(tau)
    rss_w = max(with_bunching.residual_norm ** 2, 1e-300)
    rss_p = max(plain.residual_norm ** 2, 1e-300)
    use_bunching = n * math.log(rss_w / rss_p) + 4.0 < 0.0
    if use_bunching:
        p = with_bunching.params
        return G2Fit(
            antibunching_amplitude=p["antibunching_amplitude"],
            bunching_amplitude=p["bunching_amplitude"],
            antibunching_time_ps=p["antibunching_time_ps"],
            bunching_time_ps=p["bunching_time_ps"],
            stderr=with_bunching.stderr,
            residual_norm=with_bunching.residual_norm,
            normalization=p["normalization"],
        )
    p = plain.params
    return G2Fit(
        antibunching_amplitude=p["antibunching_amplitude"],
        bunching_amplitude=0.0,
        antibunching_time_ps=p["antibunching_time_ps"],
        bunching_time_ps=span,
        stderr=plain.stderr,
        residual_norm=plain.residual_norm,
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
    theta, y = series.as_arrays()
    if theta[-1] - theta[0] < 180.0:
        raise SeriesError("polarization scan must span at least 180 degrees")

    if np.ptp(y) < 1e-12 * max(abs(y.max()), 1.0):
        result = FitResult(
            params={"amplitude": 0.0, "axis_deg": 0.0, "offset": float(y.mean()),
                    "degree_of_polarization": 0.0},
            stderr={}, residual_norm=0.0, n_evaluations=0, converged=True,
            warnings=["flat_fit: constant signal, polarization undefined"])
        return result

    amp0 = float(np.ptp(y))
    off0 = float(y.min())
    axis0 = float(theta[np.argmax(y)] % 180.0)
    result = _run_fit(cos2_model, theta, y, [amp0, axis0, off0],
                      ["amplitude", "axis_deg", "offset"])
    a = abs(result.params["amplitude"])
    b = max(result.params["offset"], 0.0)
    result.params["degree_of_polarization"] = a / (a + 2.0 * b) if a + 2.0 * b > 0 else 0.0
    result.params["axis_deg"] = result.params["axis_deg"] % 180.0
    return result


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
        for xv, yv in zip(series.x, series.y):
            fh.write(f"{xv:.10g},{yv:.10g}\n")


def read_series_csv(path) -> MeasurementSeries:
    kind = "spectrum"
    xs, ys = [], []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].replace(",", " ").split():
                    if token.startswith("kind="):
                        kind = token.split("=", 1)[1]
                continue
            parts = line.split(",")
            try:
                xs.append(float(parts[0]))
                ys.append(float(parts[1]))
            except ValueError:
                continue  # header row
    return MeasurementSeries(tuple(xs), tuple(ys), kind)
