"""Second-order correlation fits, with and without bunching, into one
FitResult by specfit's lockstep fitting, and g2(0)'s background correction.
``specfit`` loads this module when one of its names is first read there,
so a spectrum, decay or polarization fit never compiles it.
"""
from __future__ import annotations

import math

import numpy as np

from . import specfit
from .specfit import FitError, MeasurementSeries, Separable, SeriesError, poisson_weights


def _decay(tau, time):
    d = -np.abs(tau) / time
    return np.exp(d, out=d)


def g2_model(tau, anti_amp, bunch_amp, anti_time, bunch_time):
    """g2(tau) = 1 - A exp(-|tau|/t1) + B exp(-|tau|/t2) on an array tau,
    summed in place in that order."""
    g = anti_amp * _decay(tau, anti_time)
    np.subtract(1.0, g, out=g)
    g += bunch_amp * _decay(tau, bunch_time)
    return g


def _g2_basis(tv, t_anti, t_bunch=None):
    """1, -exp(-|tau|/t1) and exp(-|tau|/t2), weighted by level, level*A
    and level*B."""
    anti = _decay(tv, t_anti)
    np.negative(anti, out=anti)
    return (1.0, anti) if t_bunch is None else (1.0, anti, _decay(tv, t_bunch))


def _g2_derivatives(tv, cols, t_anti, t_bunch=None):
    """d/dt of each exponential column: the column times |tau|/t^2."""
    delay = np.abs(tv)
    for k, time in enumerate((t_anti,) if t_bunch is None else (t_anti, t_bunch), 1):
        slope = cols[:, k] * delay
        yield k, np.divide(slope, time * time, out=slope)
        del slope  # one N-vector per problem at a time


def _g2_params(t, c):
    """(A[, B], t1[, t2], level) from c = level (1, A[, B]), and their
    Jacobian in (t, c), in rows of that order."""
    (size, n), k = t.shape, c.shape[1]
    jac = np.zeros((size, n + k, n + k))
    jac[:, :k - 1, n] = -c[:, 1:] / c[:, :1] ** 2
    jac[:, :k - 1, n + 1:] = np.eye(k - 1) / c[:, :1, None]
    jac[:, k - 1:, :n + 1] = np.eye(n + 1)
    return np.hstack([c[:, 1:] / c[:, :1], t, c[:, :1]]), jac


G2_NAMES = ["antibunching_amplitude", "bunching_amplitude",
            "antibunching_time_ps", "bunching_time_ps", "normalization"]
_G2_WITH_BUNCHING = Separable(_g2_basis, _g2_derivatives, G2_NAMES, _g2_params)
_G2_PLAIN = Separable(_g2_basis, _g2_derivatives, [G2_NAMES[i] for i in (0, 2, 4)], _g2_params)
# 0 <= A, B <= 2 and level >= 1e-12 as C c >= d on c = (level, level A,
# level B); the plain fit takes the first three rows
_G2_BOX = (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, -1.0, 0.0],
                     [0.0, 0.0, 1.0], [2.0, 0.0, -1.0]]), np.array([1e-12, 0.0, 0.0, 0.0, 0.0]))


def _g2_start(series: MeasurementSeries) -> tuple:
    """(tau, y, weights, start, lower and upper bounds) of the times
    (t1, t2) of the fit with bunching. t2 starts at the mean of |tau| - 5 t1
    >= 0 weighted by the excess y / baseline - 1 times the sample spacing,
    within its bounds; at their geometric mean where that excess sums to <= 0."""
    tau, y = series.as_arrays()
    span = np.abs(tau).max()
    tail = np.abs(tau) >= 0.75 * span
    if tail.sum() < 8:
        raise SeriesError(
            f"tails too short to normalize: {int(tail.sum())} samples beyond "
            f"{0.75 * span:.3g}, need 8")
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
    # the bunching time is confined between the antibunching recovery
    # scale (below which the two exponentials cancel along a flat ridge)
    # and twice the window (beyond which bunching is just a baseline
    # shift); the term must also earn its keep against the plain model
    t2_lo = min(3.0 * t10, 0.5 * span)
    t2_hi = 2.0 * span
    far = np.abs(tau) >= 5.0 * t10  # where the dip has decayed below e^-5
    u, excess = np.abs(tau[far]) - 5.0 * t10, np.gradient(tau)[far] * (yn[far] - 1.0)
    t2 = float((u * excess).sum() / excess.sum()) if excess.sum() > 0 else math.nan
    t2 = min(max(t2, t2_lo), t2_hi) if math.isfinite(t2) else math.sqrt(t2_lo * t2_hi)
    weights = poisson_weights(y) if baseline0 > 10.0 else np.ones(len(y))  # raw counts only
    return tau, y, weights, [t10, t2], [1e-9, t2_lo], [np.inf, t2_hi]


def fit_g2(series: MeasurementSeries) -> specfit.FitResult:
    """Fit g2(tau) = 1 - A exp(-|tau|/t1) + B exp(-|tau|/t2) with and
    without bunching; the FitResult of the model the data support.

    The normalization level (raw counts at g2 = 1) is a free fit
    parameter seeded from the mean of the delay samples in the outer
    quarter of the delay span; fitting it avoids the baseline bias that a
    pure tail average picks up from slow bunching. Raises when those tails
    hold fewer than 8 samples. g2(0) = 1 - A + B holds exactly by
    construction of the returned fit.

    The model depends on tau only through |tau|, so the fits run on the
    distinct delays, the samples at each pooled (see module ``lsq``); the
    residual norms, the model choice and the standard errors are those
    of the full series.
    """
    return specfit._one(fit_g2_batch([series]))


def fit_g2_batch(correlations, *, uncertainties: bool = True) -> list:
    """``fit_g2`` of correlations on one delay grid, one lockstep solve per
    model; a failed fit gives its (first) FitError."""
    tau, y, weights, p0, lower, upper = zip(*(_g2_start(s) for s in correlations))
    if not all(np.array_equal(t, tau[0]) for t in tau):  # pooling takes one grid
        raise SeriesError("a batch of correlations needs one delay grid")
    delay, y, root, pure = _g2_pool(tau[0], y, weights)
    p0, lower, upper = map(np.array, (p0, lower, upper))
    common = {"weights": root, "pooled": (pure, len(tau[0])), "uncertainties": uncertainties}
    with_bunching = specfit._run_fit_batch(_G2_WITH_BUNCHING, delay, y, p0,
                                           bounds=(lower, upper), constraints=_G2_BOX, **common)
    plain = specfit._run_fit_batch(_G2_PLAIN, delay, y, p0[:, :1],
                                   bounds=(lower[:, :1], upper[:, :1]),
                                   constraints=(_G2_BOX[0][:3, :2], _G2_BOX[1][:3]), **common)
    return [_g2_choose(*fits, tau[0]) for fits in zip(with_bunching, plain)]


def _g2_pool(tau, y, weights) -> tuple:
    """The distinct delays |tau| of the grid tau and, per series of y with
    its weights w, the weighted mean of its samples at each,
    the weights sqrt(W), W the sum of their w^2, and the pure error
    sum w^2 (y - mean)^2, the part of the series' cost the pooled rows lack."""
    delay = np.abs(tau)
    order = np.argsort(delay, kind="stable")
    delay = delay[order]
    starts = np.flatnonzero(np.diff(delay, prepend=-1.0))  # each distinct delay's first sample
    # rows in C order, each sorted alone: their bits do not depend on the batch
    y = np.array([v[order] for v in y])
    squares = np.array([w[order] ** 2 for w in weights])
    total = np.add.reduceat(squares, starts, axis=1)
    mean = np.add.reduceat(squares * y, starts, axis=1) / total
    y -= np.repeat(mean, np.diff(starts, append=len(delay)), axis=1)
    return delay[starts], mean, np.sqrt(total), (squares * (y * y)).sum(axis=1)


def _g2_choose(with_bunching, plain, tau) -> specfit.FitResult:
    """The FitResult of the model the data support, with both fits' norms and
    evaluations, or the first FitError. Without bunching B = 0, t2 = max|tau|."""
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
    params = {"bunching_amplitude": 0.0, "bunching_time_ps": float(np.abs(tau).max()),
              **chosen.params}
    params["g2_zero"] = 1.0 - params["antibunching_amplitude"] + params["bunching_amplitude"]
    return chosen._replace(
        params=params, n_evaluations=with_bunching.n_evaluations + plain.n_evaluations,
        converged=with_bunching.converged and plain.converged,
        model="with_bunching" if use_bunching else "plain",
        residual_norms={"with_bunching": with_bunching.residual_norm,
                        "plain": plain.residual_norm})


def correct_g2_background(g2_value: float, snr: float) -> float:
    """Background-corrected g2 for a given signal-to-noise ratio.

    With rho = SNR/(SNR+1), uncorrelated background mixes the true
    correlation as g2_meas = rho^2 g2 + (1 - rho^2); this inverts that
    map. snr = 0 leaves the correction undefined and is rejected, as is NaN.
    """
    if not snr >= 0:
        raise ValueError(f"snr must be non-negative, got {snr}")
    rho = 1.0 if math.isinf(snr) else snr / (snr + 1.0)
    if rho == 0.0:
        raise ValueError("snr = 0: correction undefined (no signal)")
    rho_sq = rho * rho
    return (g2_value - (1.0 - rho_sq)) / rho_sq
