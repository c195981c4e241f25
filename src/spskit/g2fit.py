"""Second-order correlation fits, with and without bunching, through
specfit's lockstep fitting, and the background correction of g2(0).
``specfit`` loads this module when one of its names is first read there,
so a spectrum, decay or polarization fit never compiles it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import specfit
from .specfit import FitError, MeasurementSeries, Separable, SeriesError, poisson_weights


class G2Fit(NamedTuple):
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

    def as_dict(self) -> dict:
        return {
            "parameters": {name: getattr(self, name) for name in (
                "antibunching_amplitude", "bunching_amplitude", "antibunching_time_ps",
                "bunching_time_ps", "g2_zero")},
            "uncertainties": self.stderr,
            "residual_norm": self.residual_norm,
            "model": self.model,
            "residual_norms": self.residual_norms,
            "iterations": self.n_evaluations,
            "converged": self.converged,
        }


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


def _g2_start(series: MeasurementSeries, tail_fraction: float, min_tail_points: int) -> tuple:
    """(tau, y, weights or None, start, lower and upper bounds) of the times
    (t1, t2) of the fit with bunching."""
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
    # the bunching time is confined between the antibunching recovery
    # scale (below which the two exponentials cancel along a flat ridge)
    # and twice the window (beyond which bunching is just a baseline
    # shift); the term must also earn its keep against the plain model
    t2_lo = min(3.0 * t10, 0.5 * span)
    t2_hi = 2.0 * span
    weights = poisson_weights(y) if baseline0 > 10.0 else None  # raw counts only
    return tau, y, weights, [t10, math.sqrt(t2_lo * t2_hi)], [1e-9, t2_lo], [np.inf, t2_hi]


def fit_g2(series: MeasurementSeries, *, tail_fraction: float = 0.25,
           min_tail_points: int = 8) -> G2Fit:
    """Fit the antibunching/bunching correlation model.

    The normalization level (raw counts at g2 = 1) is a free fit
    parameter seeded from the mean of the outermost ``tail_fraction`` of
    delay samples; fitting it avoids the baseline bias that a pure
    tail average picks up from slow bunching. Raises when the tails hold
    fewer than ``min_tail_points`` samples. g2(0) = 1 - A + B holds
    exactly by construction of the returned fit.

    The model depends on tau only through |tau|, so the fits run on the
    distinct delays, the samples at each pooled (see module ``lsq``); the
    residual norms, the model choice and the standard errors are those
    of the full series.
    """
    return specfit._one(fit_g2_batch([series], tail_fraction=tail_fraction,
                                     min_tail_points=min_tail_points))


def fit_g2_batch(correlations, *, tail_fraction: float = 0.25,
                 min_tail_points: int = 8, uncertainties: bool = True) -> list:
    """``fit_g2`` of correlations, one lockstep solve per model and delay
    grid; a failed fit gives its (first) FitError."""
    tau, y, weights, p0, lower, upper = zip(*(
        _g2_start(s, tail_fraction, min_tail_points) for s in correlations))
    same = [np.array_equal(t, tau[0]) for t in tau]
    if not all(same):  # pooling takes one grid
        fits = [iter(fit_g2_batch([s for s, k in zip(correlations, same) if k == side],
                                  tail_fraction=tail_fraction, min_tail_points=min_tail_points,
                                  uncertainties=uncertainties))
                for side in (False, True)]
        return [next(fits[k]) for k in same]
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
    its weights w (None for 1), the weighted mean of its samples at each,
    the weights sqrt(W), W the sum of their w^2, and the pure error
    sum w^2 (y - mean)^2, the part of the series' cost the pooled rows lack."""
    delay = np.abs(tau)
    order = np.argsort(delay, kind="stable")
    delay = delay[order]
    starts = np.flatnonzero(np.diff(delay, prepend=-1.0))  # each distinct delay's first sample
    # rows in C order, each sorted alone: their bits do not depend on the batch
    y = np.array([v[order] for v in y])
    squares = np.array([np.ones(len(delay)) if w is None else w[order] ** 2 for w in weights])
    total = np.add.reduceat(squares, starts, axis=1)
    mean = np.add.reduceat(squares * y, starts, axis=1) / total
    y -= np.repeat(mean, np.diff(starts, append=len(delay)), axis=1)
    return delay[starts], mean, np.sqrt(total), np.vecdot(squares, y * y)


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
