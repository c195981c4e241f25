"""Separable least squares for many problems of one model in lockstep.

Each model here is linear in some parameters (amplitudes, offsets, a
level) once the others, theta, are fixed: the sum of k basis columns,
functions of theta, weighted by coefficients c. Variable projection
(Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973); O'Leary and
Rust, Comput. Optim. Appl. 54, 579 (2013)) solves c exactly at each
trial theta, here from the weighted k x k normal equations, and iterates
on theta alone. Linear inequalities C c >= d are met by enumerating the
active sets of that small solve. Each input takes one form; a caller with
none passes weights 1, bounds +-inf, a C of no rows or pure errors 0.

The iteration on theta is Moré's MINPACK Levenberg-Marquardt (LNM 630,
1978) on the Jacobian of the projected residual in closed form, formed
once per accepted point from its columns and the model's
dphi_k/dtheta_j: Kaufman's P (sum_k c_k dphi_k/dtheta_j) (BIT 15, 49
(1975)), P projecting off the columns the active constraints leave free,
plus Golub and Pereyra's second term, one dot product more. Parameters
are scaled by the running maximum of their column norms; the damping
grows after a rejected step and shrinks after an accepted one with the
ratio of actual to predicted cost reduction (Nielsen's update in place
of MINPACK's trust radius). J^T J lacks the residuals' curvature, so a
fit of one theta, whose steps would overshoot by a near-fixed share,
takes the secant slope of J^T r between its last two accepted points
instead where positive. It stops when the relative cost reduction and
the predicted one both fall below 1e-12, when the scaled step falls
below ``step_tolerance``, or when the scaled gradient vanishes. Each
trial point is projected into the box of the bounds on theta, and a
parameter on a bound whose descent direction points out of the box is
held for that iteration. Where a constraint holds the coefficients of a
parameter's columns at 0, its Jacobian column is exactly zero and the
stopping tests hold anywhere; a problem that stops with such a column
samples the parameter over decades and restarts from a sample that
lowers its cost.

Samples that repeat a design point (a correlation's +-tau under a model
even in tau) may pool into their weighted mean, weighted by sqrt(W), W
their summed squared weights: J^T J and J^T r stay, and the cost drops
the constant pure error S = sum w^2 (y - mean)^2 (Draper and Smith,
Applied Regression Analysis, 3rd ed., 1998, ch. 2). A problem's
``pure_error`` adds S back to every cost, the covariance's included.

An evaluation is one basis call and coefficient solve at one trial
point; a problem may spend max_iterations of them. Each problem has its
own state until it converges or fails; a round evaluates every problem
still searching in one call, so a batch takes the rounds of its longest
fit. A round costs a few hundred numpy calls whatever the batch's width;
memory bounds the width, about eight N-vectors per problem within a
round beside its data and weights (columns, residuals, the Jacobian, a
slope; the weighted columns replace the columns once spent) and none
between rounds.

No BLAS or LAPACK routine is called, so no result depends on the CPU
kernel OpenBLAS picks: every kernel is numpy's elementwise arithmetic,
pairwise sums and einsum without ``optimize``, and gives each problem of
a stack the bits it gets alone. The right side of the normal equations
and the cost are summed pairwise; the Gram matrix and the Jacobian's
inner products are einsum's single pass.
R of the scaled Jacobian comes from modified Gram-Schmidt on its columns
in place (Björck, Numerical Methods for Least Squares Problems, 1996,
§2.4), its singular values and V from one-sided Jacobi on that small R,
and the small symmetric solves from elimination without pivoting.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def levenberg_marquardt(basis, derivatives, x, y, p0, weights, bounds, max_iterations: int,
                        step_tolerance: float, constraints, pure_error) -> list:
    """Separable Levenberg-Marquardt fits of one model to B problems in lockstep.

    ``basis(x, *theta)`` gives the k columns, each one row per problem or
    one for all; theta reaches it as (problems, 1) columns, or as scalars
    for one problem. ``derivatives(x, columns, *theta)`` gives, from the
    stacked columns (problems, k, N), a pair (k, dphi_k/dtheta_j) for each
    theta_j: each theta_j moves one column. ``y`` and ``p0`` (theta's
    start) hold one row per problem; ``x``, ``weights``, each bound of
    ``bounds = (lower, upper)`` on theta and d of ``constraints = (C, d)``,
    for C c >= d with d finite (C may have no rows), one row per problem or
    one for all; ``pure_error``, one value per problem, is added to each
    cost. Returns per problem (converged, theta, c, cost, evaluations); one
    out of budget has only its best theta and c, and one whose start has a
    non-finite cost is not converged.
    """
    y = np.asarray(y, dtype=float)
    p = np.array(p0, dtype=float)
    n_prob, n = p.shape
    x = np.asarray(x, dtype=float)
    w = np.broadcast_to(weights, y.shape)
    yw = y * w
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), p.shape) for b in bounds)
    cons = np.asarray(constraints[0], dtype=float)
    floor = np.broadcast_to(np.asarray(constraints[1], dtype=float), (n_prob, len(cons)))
    sets = _active_sets(_rows(cons))  # for the Jacobian
    ftol = gtol = 1e-12
    p = np.clip(p, lo, hi)
    # arrays for the iteration, one row per problem; Python scalars for the
    # bookkeeping, cheaper than numpy for a few problems. Each problem's
    # scale, free mask, parameters whose Jacobian column is exactly zero,
    # and the SVD of its scaled Jacobian with the columns of held
    # parameters zeroed: singular values, V^T and V^T of the scaled
    # gradient, D^-1 J^T r with those entries zeroed
    scale, free, flat = (np.full((n_prob, n), v) for v in (0.0, True, False))
    sv, vt, vg = np.zeros((n_prob, n)), np.zeros((n_prob, n, n)), np.zeros((n_prob, n))
    pair = np.full((n_prob, 2), np.nan)  # one parameter: the last accepted theta and J^T r
    cost, calls, damping, growth = [0.0] * n_prob, [0] * n_prob, [1e-3] * n_prob, [2.0] * n_prob
    best_cost, best_p, best_c = [math.inf] * n_prob, list(p), [None] * n_prob
    outcome: list = [None] * n_prob
    # problems that finished with a flat cost, and the cost each was sampled at
    ending, sampled = [], [math.inf] * n_prob
    rounds = 0

    def rows(idx):  # index of sorted problems: a slice (a view) for all
        return slice(None) if len(idx) == n_prob else np.array(idx)

    def evaluate(idx, q):
        """The costs at q, one row per problem of idx, and the point (q, c,
        residuals, columns, the Gram matrices of the weighted columns and
        their factors, active sets), None when every problem's budget is
        spent; such a problem fails instead, with the best point it saw."""
        nonlocal rounds
        rounds += 1
        if rounds > max_iterations:  # a round evaluates a problem at most once
            for i in idx:
                if calls[i] == max_iterations and outcome[i] is None:
                    outcome[i] = (False, best_p[i], best_c[i], None, calls[i])
            if all(outcome[i] is not None for i in idx):
                return None, None
        at = rows(idx)
        data = yw[at]
        cols = _columns(basis, x if x.ndim == 1 else x[at], q, data)
        phi = cols * w[at][:, None]
        c, gram, factor, held = _coefficients(phi, data, (cons, floor[at]))
        res = _combine(c, phi) - data
        costs = (_dot(res, res) + pure_error[at]).tolist()
        for k, i in enumerate(idx):
            if outcome[i] is None:
                calls[i] += 1
                if costs[k] < best_cost[i]:
                    best_cost[i], best_p[i], best_c[i] = costs[k], q[k], c[k]
        return costs, (q, c, res, cols, gram, factor, held)

    def accept(idx, point):
        """Moves the problems idx to the point's rows: their Jacobians and J^T r."""
        at = rows(idx)
        p[at], coef[at] = point[:2]
        jac, grad = _jacobian(derivatives, x if x.ndim == 1 else x[at], w[at], point, sets)
        flat[at] = ~jac.any(axis=2)
        return jac, grad

    def finish(i):
        if cost[i] < sampled[i] and flat[i].any():
            ending.append(i)  # its cost is flat in some parameter: ``restart``
        else:  # a trial never has a non-finite cost: only a start can
            outcome[i] = (math.isfinite(cost[i]), p[i], coef[i], cost[i], calls[i])

    def restart():
        """The problems that finished where their cost is flat in some
        parameters, a constraint holding the coefficients of those columns
        at 0: each such parameter is sampled at 4^-6 ... 4^6 times its value
        within the box, and a problem restarts from its best sample if that
        lowers its cost. Returns the problems restarted and still searching."""
        idx, found = sorted(ending), {}
        ending.clear()
        for j, f in itertools.product(range(n), [4.0 ** k for k in range(-6, 7) if k]):
            sub = [i for i in idx if outcome[i] is None and flat[i, j]]
            if sub:
                q = p[sub]
                q[:, j] = np.minimum(np.maximum(q[:, j] * f, lo[sub, j]), hi[sub, j])
                costs, point = evaluate(sub, q)
                for k, i in enumerate(sub):
                    if point is not None and costs[k] < found.get(i, (cost[i],))[0]:
                        found[i] = (costs[k], tuple(a[k] for a in point))
        for i in idx:
            sampled[i] = cost[i]
            if outcome[i] is None and i not in found:
                finish(i)
        idx = [i for i in idx if outcome[i] is None]
        for i in idx:
            cost[i], damping[i], growth[i], pair[i] = found[i][0], 1e-3, 2.0, np.nan
        return idx and prepare(idx, *accept(idx, tuple(map(np.array,
                                                          zip(*(found[i][1] for i in idx))))))

    def prepare(idx, jac, grad):
        """Scale, gradient test and SVD at the new Jacobians of the problems
        idx, one row each, spent on their R; returns the problems left."""
        if not idx:
            return idx
        at = rows(idx)
        r = _r_factor(jac)  # J = Q R: R's columns have J's norms, and D^-1 scales them
        norms = np.sqrt(_dot(r, r))
        s = np.maximum(scale[at], norms)
        s[s == 0.0] = 1.0
        scale[at] = s
        q = p[at]
        # a parameter on a bound whose descent direction leaves the box
        # stays where it is this iteration
        free[at] = f = ~(((q <= lo[at]) & (grad > 0.0)) | ((q >= hi[at]) & (grad < 0.0)))
        vg[at] = f * grad / s
        tested = f & (np.abs(grad) > gtol * norms * np.sqrt([cost[i] for i in idx])[:, None])
        for i, test in zip(idx, tested.tolist()):
            if not any(test):  # the scaled gradient vanishes
                finish(i)
        left = [k for k, i in enumerate(idx) if outcome[i] is None and i not in ending]
        if len(left) < len(idx):
            idx, r, grad = [idx[k] for k in left], r[left], grad[left]
        if idx:
            at = rows(idx)
            # J D^-1 = Q (R D^-1) has the singular values and V of R D^-1. A
            # 1 x 1 R has |R| and V = +-1, whose sign cancels in the step
            r *= (free[at] / scale[at])[:, :, None]
            sv[at], vt[at] = (np.abs(r[:, 0]), 1.0) if n == 1 else _jacobi(r)
            if n == 1:  # J^T J <- J^T r's secant slope h where positive, NaN at first
                with np.errstate(divide="ignore", invalid="ignore"):
                    h = (grad - pair[at, 1:]) / (p[at] - pair[at, :1])
                    sv[at] = np.where((h > 0.0) & (h < np.inf), np.sqrt(h) / scale[at], sv[at])
                pair[at] = np.hstack([p[at], grad])
            vg[at] = _dot(vt[at], vg[at][:, None])
        return idx

    def attempt(idx):
        """One damped step each; returns the problems still searching."""
        at = rows(idx)
        q, s, v_t, d, g = p[at], sv[at], vt[at], scale[at], vg[at]
        filtered = g / (s * s + np.array([damping[i] for i in idx])[:, None])
        step = -_dot(v_t.transpose(0, 2, 1), filtered[:, None]) * free[at] / d
        trial = np.minimum(np.maximum(q + step, lo[at]), hi[at])  # np.clip, less overhead
        scaled = d * (trial - q)
        # the reduction |r|^2 - |r + J step|^2 = -2 z.vg - |s z|^2 that the
        # linear model predicts, z = V^T D step
        z = _dot(v_t, scaled[:, None])
        predicted = (-2.0 * _dot(z, g) - _dot(s * z, s * z)).tolist()
        cost_new, point = evaluate(idx, trial)
        if point is None:
            return []
        # the scaled step and point, each row's norm
        step_norm, x_norm = (np.sqrt(_dot(v, v)).tolist() for v in (scaled, d * q))
        retry, moved, moved_at, stopped = [], [], [], set()
        for k, i in enumerate(idx):
            if outcome[i] is not None:  # out of budget
                continue
            actual = cost[i] - cost_new[k]  # NaN for a non-finite trial
            ratio = actual / predicted[k] if predicted[k] > 0.0 else 0.0
            if ((abs(actual) <= ftol * cost[i] and predicted[k] <= ftol * cost[i] and ratio <= 2.0)
                    or step_norm[k] <= step_tolerance * (step_tolerance + x_norm[k])):
                stopped.add(i)
            if ratio > 1e-4:
                moved.append(i)
                moved_at.append(k)
                cost[i] = cost_new[k]
                # a float's ** 3: numpy's array ** 3 rounds differently
                damping[i] *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                growth[i] = 2.0
            elif i in stopped:
                finish(i)
            else:
                damping[i] *= growth[i]
                growth[i] *= 2.0
                retry.append(i)
        if not moved:
            return retry
        if len(moved) < len(idx):  # the rows of the moved, each copy replacing its array
            point = list(point)
            for j in range(len(point)):
                point[j] = point[j][moved_at]
        jac, grad = accept(moved, point)
        del point  # before R is made
        for i in stopped.intersection(moved):
            finish(i)
        if stopped:
            kept = [k for k, i in enumerate(moved) if i not in stopped]
            moved, jac, grad = [moved[k] for k in kept], jac[kept], grad[kept]
        return sorted(retry + prepare(moved, jac, grad))

    searching = list(range(n_prob))
    costs, point = evaluate(searching, p)
    if point is not None:
        cost[:], coef = costs, np.empty_like(point[1])
        searching = prepare(searching, *accept(searching, point))
        del point
        while searching or ending:
            searching = sorted((attempt(searching) if searching else [])
                               + (restart() if ending else []))
    return outcome


def _jacobian(derivatives, x, w, point, sets) -> tuple:
    """The Jacobians J (problems, n, N) of the weighted residuals r at a
    point of ``evaluate`` in ``levenberg_marquardt``, from its columns, and
    J^T r (problems, n): each theta_j's v = sum w c_k dphi_k/dtheta_j less
    Phi_f G_f^-1 (Phi_f^T v + t^T a), with Phi_f = Phi t the columns the
    active set leaves free (c = t u + e d, ``sets[s]``; all where none is
    active), G_f their Gram matrix and a = (w dPhi/dtheta_j)^T r. v is
    built in place: the projection is one product with Phi for every
    active set; with none active, G_f^-1 reuses the factor of G that
    solved for c. r is orthogonal to the free columns, so J^T r = v^T r =
    sum_k c_k a_k."""
    q, c, res, cols, gram, factor, held = point
    jac, a = _directions(derivatives, x, q, c, cols, w, res)
    grad = _dot(a, c[:, None])
    # the columns are spent: the weighted ones in their place
    phi = np.multiply(cols, w[:, None], out=cols)
    rhs = a  # (problems, n, k) += Phi^T v, an N-vector per problem and theta_j at a time
    for j in range(len(a[0])):
        rhs[:, j] += _fused_dot(phi, jac[:, j, None])
    proj = np.empty(rhs.shape)  # each problem's G_f^-1 (Phi_f^T v + t^T a) t^T
    active = set(held.tolist())
    for s in active:
        sel = slice(None) if len(active) == 1 else held == s
        if s < 0:  # every column free: t = I
            proj[sel] = _substitute(factor[sel][:, None], rhs[sel])
        else:
            t = sets[s][0]
            proj[sel] = _mm(_solve(_mm(_mm(t.T, gram[sel]), t)[:, None], _mm(rhs[sel], t)), t.T)
    for k in range(phi.shape[1]):  # jac -= proj Phi, a column at a time
        jac -= proj[:, :, k, None] * phi[:, None, k]
    return jac, grad


def covariance_factors(basis, derivatives, x, y, theta, c, weights, pure_error,
                       samples: int) -> np.ndarray:
    """At solutions (theta, c) for the data y, one row each, a matrix A
    per problem whose A A^T is the covariance of (theta, c): s^2 (J^T J)^+
    for the exact weighted Jacobian J = [sum_k c_k dphi_k/dtheta, Phi],
    s^2 = (|r|^2 + S) / (N - n - k) for the weighted residuals r, S the
    problem's ``pure_error`` and N ``samples``. A is D^-1 V diag(s/sigma),
    with J D^-1 = U diag(sigma) V^T and D the column norms; singular values
    below eps max(N, n + k) sigma_0 are cut, as in scipy's ``curve_fit``."""
    y, theta, c = (np.asarray(a, dtype=float) for a in (y, theta, c))
    w = np.broadcast_to(weights, y.shape)
    (n_prob, size), n, m = y.shape, theta.shape[1], theta.shape[1] + c.shape[1]
    jt = np.empty((n_prob, m, size))  # J^T, built in place
    phi = _columns(basis, x, theta, y, out=jt[:, n:])
    _directions(derivatives, x, theta, c, phi, w, None, out=jt[:, :n])
    phi *= w[:, None]
    res = _combine(c, phi) - y * w
    r = _r_factor(jt)  # J = Q R: R has J's column norms, singular values and V
    norms = np.sqrt(_dot(r, r))
    norms[norms == 0.0] = 1.0
    sigma, v_t = _jacobi(r / norms[:, :, None])
    kept = sigma > np.finfo(float).eps * max(samples, m) * sigma.max(axis=1, keepdims=True)
    inverse = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=kept)
    s = np.sqrt((_dot(res, res) + pure_error) / max(samples - m, 1))
    return v_t.transpose(0, 2, 1) * (inverse * s[:, None])[:, None] / norms[:, :, None]


def least_squares(columns: np.ndarray, target: np.ndarray) -> np.ndarray | None:
    """The x minimizing |A x - target| for A of the m columns ``columns``
    (m, N), or None where A's rank is below m as ``numpy.linalg.lstsq``
    counts it: singular values above eps max(N, m) times the largest.
    Modified Gram-Schmidt on [A, target] gives R and Q^T target (Björck,
    BIT 7, 1 (1967)), R x = Q^T target is solved by back substitution, and
    one correction from the residual r by the seminormal equations
    R^T R dx = A^T r takes x to the solution of the data as given (Björck,
    Numerical Methods for Least Squares Problems, 1996, §2.5)."""
    m, size = columns.shape
    rt = _r_factor(np.vstack([columns, target])[None])[0]
    r, qtb = rt[:m, :m], rt[m, :m]  # rows: the columns of R
    sigma = _jacobi(r[None])[0][0]
    if (sigma > np.finfo(float).eps * max(size, m) * sigma.max()).sum() < m:
        return None
    x = np.zeros(m)
    for j in reversed(range(m)):
        x[j] = (qtb[j] - _dot(r[j + 1:, j], x[j + 1:])) / r[j, j]
    residual = target - _combine(x[None], columns[None])[0]
    return x + _solve(_dot(r[:, None], r[None]), _dot(columns, residual))


def _columns(basis, x, q, like, out=None) -> np.ndarray:
    """The basis columns at q, stacked (problems, k, N) in the shape of
    ``like`` (problems, N), into ``out`` if given; one problem takes
    scalars, cheaper for numpy than 1-element columns."""
    cols = basis(x, *(q[0] if len(q) == 1 else q.T[:, :, None]))
    out = np.empty((len(q), len(cols), like.shape[-1])) if out is None else out
    for j, col in enumerate(cols):
        out[:, j] = col
    return out


def _directions(derivatives, x, q, c, cols, w, r, out=None) -> tuple:
    """v = sum_k c_k dphi_k/dtheta_j at q for each theta_j, weighted by w,
    (problems, n, N), into ``out`` if given, and a
    (problems, n, k) holding (w dphi_k/dtheta_j)^T r at [j, k] for the
    weighted residuals r (None for none)."""
    v = np.empty((len(q), q.shape[1], cols.shape[-1])) if out is None else out
    a = np.zeros((len(q), q.shape[1], cols.shape[1]))
    params = q[0] if len(q) == 1 else q.T[:, :, None]
    rw = None if r is None else r * w
    j = 0  # no enumerate: its reused result would hold the last slope
    for k, slope in derivatives(x, cols, *params):
        np.multiply(c[:, k, None], slope, out=v[:, j])
        a[:, j, k] = 0.0 if r is None else _fused_dot(slope, rw)
        j += 1
        del slope  # before the next one is made
    v *= w[:, None]
    return v, a


def _coefficients(phi: np.ndarray, y: np.ndarray, constraints: tuple) -> np.ndarray:
    """Least-squares coefficients, one row per problem, of the columns
    ``phi`` (problems, k, N) for ``y`` (problems, N), by the normal
    equations; NaN where those are singular. They meet ``constraints =
    (C, d)``, C c >= d with d one row per problem: a problem whose
    unconstrained solution does not gets ``_constrained``'s. Returns c, the
    Gram matrices, their ``_eliminate`` factors and each problem's active
    set, its index in ``_active_sets(C)`` or -1 for none."""
    k = phi.shape[1]
    gram = np.empty((len(phi), k, k))
    for i in range(k):
        gram[:, i, i:] = gram[:, i:, i] = _fused_dot(phi[:, i, None], phi[:, i:])
    rhs = _dot(phi, y[:, None])
    factor = _eliminate(gram)
    c = _substitute(factor, rhs)
    held = np.full(len(c), -1)
    cons, floor = constraints
    out = ~(_dot(c[:, None], cons) >= floor).all(axis=1)  # NaN where singular
    if out.any():
        c[out], held[out] = _constrained(gram[out], rhs[out], cons, floor[out])
    return c, gram, factor, held


def _constrained(gram, rhs, cons, floor):
    """The least-cost c, one per problem, of the minimizers of
    c^T G c - 2 b^T c that hold an active set of the rows of C c >= d
    with equality and meet every row, and the index of that set (the first
    of equal costs); NaN and -1 where none does. The sets of one size are
    solved together, along a leading axis."""
    cands, costs = [], []
    for _, sets in itertools.groupby(_active_sets(_rows(cons)), lambda te: te[0].shape[1]):
        # c = t u + e d meets the active rows for every u
        t, e = map(np.stack, zip(*sets))
        t, tt = t[:, None], np.swapaxes(t, 1, 2)[:, None]
        cand = _dot(floor[:, None], e[:, None])
        u = _solve(_mm(_mm(tt, gram), t), _dot((rhs - _dot(gram, cand[:, :, None]))[:, :, None], tt))
        cand += _dot(t, u[:, :, None])
        cost = _dot(cand, _dot(gram, cand[:, :, None])) - 2.0 * _dot(rhs, cand)
        cost[~((_dot(cand[:, :, None], cons) >= floor).all(axis=-1) & (cost < np.inf))] = np.inf
        cands.append(cand)
        costs.append(cost)
    cost, cand, each = np.concatenate(costs), np.concatenate(cands), np.arange(len(rhs))
    which = cost.argmin(axis=0)
    best, none = cand[which, each], cost[which, each] == np.inf
    best[none], which[none] = np.nan, -1
    return best, which


def _rows(cons: np.ndarray) -> tuple:  # C as the hashable key of ``_active_sets``
    return cons.shape, tuple(cons.ravel().tolist())


@functools.lru_cache(maxsize=8)
def _active_sets(key: tuple) -> list:
    """(t, e) for each set of independent rows of C: c = t u + e d meets the
    set's rows with equality for every u. The set's rows are solved for
    the first pivot coefficients that make them invertible, so a row that
    bounds one coefficient puts it on its bound exactly."""
    (m, k), entries = key
    cons = np.array(entries).reshape(m, k)
    sets = []
    for size in range(1, k + 1):
        for active in itertools.combinations(range(m), size):
            a = cons[list(active)]
            for pivots in map(list, itertools.combinations(range(k), size)):
                inv = _inverse(a[:, pivots])
                if inv is not None:
                    rest = [j for j in range(k) if j not in pivots]
                    t, e = np.eye(k)[:, rest], np.zeros((k, m))
                    t[pivots] = -_mm(inv, a[:, rest])
                    e[np.ix_(pivots, active)] = inv
                    sets.append((t, e))
                    break
    return sets


def _inverse(a: np.ndarray) -> np.ndarray | None:
    """The inverse of a small square matrix by Gauss-Jordan elimination with
    partial pivoting, or None where a pivot is 0."""
    size = len(a)
    aug = np.hstack([a, np.eye(size)])
    for j in range(size):
        p = j + int(np.abs(aug[j:, j]).argmax())
        if aug[p, j] == 0.0:
            return None
        aug[[j, p]] = aug[[p, j]]
        aug[j] /= aug[j, j]
        for i in range(size):
            if i != j:
                aug[i] -= aug[i, j] * aug[j]
    return aug[:, size:]


# ---------------------------------------------------------------------------
# kernels: numpy's own elementwise loops and pairwise sums, no BLAS or LAPACK
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) over the last axis, broadcast, by numpy's pairwise sum:
    each row gets the bits it gets alone."""
    return np.add.reduce(a * b, axis=-1)


# einsum sums a row whole only within one of numpy's buffers
_BUFFER = np.getbufsize()


def _fused_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_dot`` in one pass with no product array, by einsum, for the Gram
    matrix and the Jacobian's inner products of N-vectors. Its running sum
    in two lanes is off by up to N eps relative, where the pairwise sum is
    off by about log2(N) eps: far below what a step, an R factor or the
    Gram matrix needs, but not enough for the right side of the normal
    equations and the cost, which carry the data (with the right side by
    einsum, a g2 fit from a flat start stops converging). A row longer
    than numpy's buffer is summed a buffer's length at a time, in order,
    so that each row gets the bits it gets alone."""
    size = max(a.shape[-1], b.shape[-1])
    if size <= _BUFFER:
        return np.einsum("...i,...i->...", a, b)
    return sum(_fused_dot(a[..., i:i + _BUFFER], b[..., i:i + _BUFFER])
               for i in range(0, size, _BUFFER))


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix products of stacks of small matrices a and b, broadcast."""
    return _dot(a[..., :, None, :], np.swapaxes(b, -1, -2)[..., None, :, :])


def _combine(c: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """sum_k c_k phi_k, one row per problem of c (problems, k) and the
    columns phi (problems, k, N)."""
    return _fused_dot(np.swapaxes(phi, 1, 2), c[:, None])


def _r_factor(rows: np.ndarray) -> np.ndarray:
    """R of the QR factorization of each matrix whose columns are ``rows``
    (problems, m, N), by modified Gram-Schmidt: its columns, one row each
    (problems, m, m). The rows are spent: each is made orthogonal to those
    before it in place. A row in the span of those before it gives a zero
    or round-off column."""
    size, m = rows.shape[:2]
    r = np.zeros((size, m, m))
    for j in range(m):
        inner = _fused_dot(rows[:, j, None], rows[:, j:])  # a_j . a_k, k >= j
        norm = r[:, j, j] = np.sqrt(inner[:, 0])
        if j + 1 < m:
            share = np.divide(inner[:, 1:], inner[:, :1], out=np.zeros((size, m - j - 1)),
                              where=inner[:, :1] > 0.0)  # of a_j in each a_k
            rows[:, j + 1:] -= share[:, :, None] * rows[:, j, None]
            r[:, j + 1:, j] = share * norm[:, None]
    return r


def _jacobi(w: np.ndarray) -> tuple:
    """The singular values (problems, m) and V^T (problems, m, m) of small
    square matrices whose columns are the rows of ``w``, by one-sided
    Jacobi (Hestenes, J. SIAM 6, 51 (1958); Demmel and Veselić, SIAM J.
    Matrix Anal. Appl. 13, 1204 (1992)): a pair of columns whose inner
    product exceeds m eps times their norms' product is rotated to be
    orthogonal, sweep after sweep until none does (at most 30 sweeps); the
    columns' norms are then the singular values, in no order. A problem
    whose pair is orthogonal enough is rotated by the identity: cos 1, sin 0."""
    size, m = w.shape[:2]
    wv = np.empty((size, m, 2 * m))  # [W | V^T]
    wv[:, :, :m], wv[:, :, m:] = w, np.eye(m)
    for _ in range(30):
        rotated = False
        for p, q in itertools.combinations(range(m), 2):
            a, b = wv[:, p], wv[:, q]
            alpha, beta, gamma = _dot(wv[:, [p, q, p], :m], wv[:, [p, q, q], :m]).T
            sel = np.abs(gamma) > m * np.finfo(float).eps * np.sqrt(alpha * beta)
            if sel.any():
                rotated = True
                # the tangent of the smaller rotation angle, in a form that
                # cannot overflow; 0 where the pair is orthogonal enough
                diff = beta - alpha
                t = np.divide(np.copysign(2.0, diff) * gamma,
                              np.abs(diff) + np.hypot(diff, 2.0 * gamma),
                              out=np.zeros(size), where=sel)
                cos = 1.0 / np.hypot(1.0, t)[:, None]
                sin = cos * t[:, None]
                wv[:, p], wv[:, q] = cos * a - sin * b, sin * a + cos * b
        if not rotated:
            break
    return np.sqrt(_dot(wv[:, :, :m], wv[:, :, :m])), wv[:, :, m:]


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for stacks of small symmetric positive definite systems a
    broadcast against b, one vector each: ``_substitute`` in ``_eliminate(a)``."""
    return _substitute(_eliminate(a), b)


def _eliminate(a: np.ndarray) -> np.ndarray:
    """The factor a = L D L^T of each small symmetric matrix of the stack a
    by Gaussian elimination without pivoting, in a's shape: U = D L^T above
    the diagonal and D on it, with NaN where a pivot is not positive (a
    singular a), and the column of each step's multipliers times its pivot
    below. Each gets the bits it gets alone."""
    # a copy with the matrix axes first, where plain indexing is cheap
    lu = np.array(a.transpose(a.ndim - 2, a.ndim - 1, *range(a.ndim - 2)), order="C")
    for j in range(len(lu)):
        pivot = lu[j, j, ...]
        pivot[pivot <= 0.0] = np.nan
        if j + 1 < len(lu):
            lu[j + 1:, j + 1:] -= (lu[j + 1:, j] / pivot)[:, None] * lu[j, j + 1:]
    return lu.transpose(*range(2, a.ndim), 0, 1)


def _substitute(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for the factors ``_eliminate`` made of a, broadcast against b,
    one vector each, by forward and back substitution."""
    lu = factor.transpose(factor.ndim - 2, factor.ndim - 1, *range(factor.ndim - 2))
    m, d = b.shape[-1], b.ndim - 1
    x = np.array(b.transpose(d, *range(d)), dtype=float, order="C")
    for j in range(m - 1):
        x[j + 1:] -= lu[j + 1:, j] / lu[j, j] * x[j]
    for j in range(m - 1, -1, -1):
        x[j] /= lu[j, j]
        if j:
            x[:j] -= lu[:j, j] * x[j]
    return x.transpose(*range(1, d + 1), 0)
