"""Levenberg-Marquardt least squares for many problems of one model in lockstep.

A damped Gauss-Newton iteration after Moré's MINPACK formulation (LNM
630, 1978). The Jacobian is MINPACK's forward difference (step
sqrt(eps)*|p|, or sqrt(eps) at p = 0); the parameters are scaled by the
running maximum of the Jacobian column norms; the damping grows after a
rejected step and shrinks after an accepted one with the ratio of actual
to predicted cost reduction (Marquardt's update as refined by Nielsen,
in place of MINPACK's trust radius). It stops when the relative cost
reduction and the predicted one both fall below 1e-12, when the scaled
step falls below ``step_tolerance``, or when the scaled gradient
vanishes.

Bounds need no second path: each trial point is projected into the box,
and a parameter on a bound whose descent direction points out of the
box is held for that iteration. A problem may spend
max_iterations * (n + 1) residual evaluations for n parameters, Jacobian
columns included.

Each problem has its own parameters, damping, scale, free mask, bounds,
budget and best point, until it converges or fails. A round is one model
call for every problem still searching, and a Jacobian column one call
for those that need it. Stacked matrix products, axis norms and
elementwise arithmetic give each problem the bits it gets alone, so a
problem's fit does not depend on the batch it runs in. ``specfit`` turns
the outcomes into its fit results.
"""
from __future__ import annotations

import math

import numpy as np


def levenberg_marquardt(model, x, y, p0, weights, bounds, max_iterations: int,
                        step_tolerance: float) -> list:
    """Levenberg-Marquardt fits of one model to B problems in lockstep.

    ``y`` and ``p0`` hold one row per problem; ``x`` (the model's first
    argument), ``weights`` and each bound of ``bounds = (lower, upper)``
    one row per problem or one for all, or None. Rows of ``x`` that are
    all equal reach the model as that one row, and the parameters as one
    (problems, 1) column each, or as scalars when one problem is left.
    A problem may spend max_iterations * (n + 1) residual evaluations.
    Returns per problem (converged, parameters, Jacobian, residuals,
    cost, evaluations); one out of budget has only its best point.
    """
    y = np.asarray(y, dtype=float)
    p = np.array(p0, dtype=float)
    n_prob, n = p.shape
    x = np.asarray(x, dtype=float)
    if x.ndim == 2 and (x == x[0]).all():
        x = x[0].copy()  # lets the caller's stack go
    w = None if weights is None else np.broadcast_to(weights, y.shape)
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), p.shape)
              for b in ((-np.inf, np.inf) if bounds is None else bounds))
    budget = max_iterations * (n + 1)
    ftol = gtol = 1e-12
    sqrt_eps = math.sqrt(np.finfo(float).eps)
    p = np.clip(p, lo, hi)
    # arrays for the iteration, one row per problem; Python scalars for the
    # bookkeeping, cheaper than numpy for a few problems
    r, jac, scale = np.empty_like(y), np.empty(y.shape + (n,)), np.zeros((n_prob, n))
    # each problem's free mask and the SVD of its scaled free Jacobian
    # columns, left-aligned: singular values, V^T and U^T r
    free = [(True,) * n] * n_prob
    sv, vt, ur = np.zeros((n_prob, n)), np.zeros((n_prob, n, n)), np.zeros((n_prob, n))
    cost, x_norm, calls, stop = [0.0] * n_prob, [0.0] * n_prob, [0] * n_prob, [False] * n_prob
    damping, growth = [1e-3] * n_prob, [2.0] * n_prob
    best_cost, best_p = [math.inf] * n_prob, list(p)
    outcome: list = [None] * n_prob
    rounds = 0

    def rows(idx):  # index of sorted problems: a slice (a view) for all
        return slice(None) if len(idx) == n_prob else idx

    def evaluate(idx, q):
        """Residuals and costs at q, one row per problem of idx; a problem
        whose budget is spent fails instead, with the best point it saw."""
        nonlocal rounds
        rounds += 1
        if rounds > budget:  # a round evaluates a problem at most once
            for i in idx:
                if calls[i] == budget and outcome[i] is None:
                    outcome[i] = (False, best_p[i], None, None, None, calls[i])
            if all(outcome[i] is not None for i in idx):
                return None, None
        at = rows(idx)
        # one problem takes scalars, cheaper for numpy than 1-element columns
        params = q[0] if len(idx) == 1 else q.T[:, :, None]
        res = model(x if x.ndim == 1 else x[at], *params) - y[at]
        if w is not None:
            res *= w[at]
        costs = np.vecdot(res, res).tolist()  # each row's res @ res, bit for bit
        for k, i in enumerate(idx):
            if outcome[i] is None:
                calls[i] += 1
                if costs[k] < best_cost[i]:
                    best_cost[i], best_p[i] = costs[k], q[k]
        return res, costs

    def jacobian(idx):
        """Jacobians at p, one model call per column; returns the problems left."""
        at = rows(idx)
        q = p[at]
        # MINPACK's forward step, turned back where it would leave the box
        h = sqrt_eps * np.abs(q)
        h[h == 0.0] = sqrt_eps
        h[q + h > hi[at]] *= -1.0
        shifted = q[:, None, :].repeat(n, axis=1)  # [:, j] has parameter j stepped
        shifted.reshape(len(idx), n * n)[:, ::n + 1] += h
        for j in range(n):
            res, _ = evaluate(idx, shifted[:, j])
            if res is None:
                break
            jac[at, :, j] = (res - r[at]) / h[:, j, None]
        return [i for i in idx if outcome[i] is None]

    def finish(i):
        outcome[i] = (True, p[i], jac[i], r[i], cost[i], calls[i])

    def groups(idx):
        """The problems of idx by free mask: positions in idx, state-array
        index, free columns and their number; slices where all are taken."""
        by_mask: dict = {}
        for k, i in enumerate(idx):
            by_mask.setdefault(free[i], []).append(k)
        if len(by_mask) == 1:
            (mask,) = by_mask
            return [(slice(None), rows(idx), slice(None) if all(mask) else np.array(mask),
                     sum(mask))]
        return [(pos, [idx[k] for k in pos], np.array(mask), sum(mask))
                for mask, pos in by_mask.items()]

    def prepare(idx):
        """Scale, gradient test and SVD at new Jacobians; returns the problems left."""
        if not idx:
            return idx
        at = rows(idx)
        # np.linalg.norm's sum, one problem at a time: no J-sized square
        norms = np.sqrt([np.add.reduce(jac[i] * jac[i], axis=0) for i in idx])
        s = np.maximum(scale[at], norms)
        s[s == 0.0] = 1.0
        scale[at] = s
        grad = (jac[at].transpose(0, 2, 1) @ r[at][:, :, None])[:, :, 0]
        q = p[at]
        # a parameter on a bound whose descent direction leaves the box
        # stays where it is this iteration
        f = ~(((q <= lo[at]) & (grad > 0.0)) | ((q >= hi[at]) & (grad < 0.0)))
        tested = f & (np.abs(grad) > gtol * norms * np.sqrt([cost[i] for i in idx])[:, None])
        for i, mask, test in zip(idx, f.tolist(), tested.tolist()):
            free[i] = tuple(mask)
            if not any(test):  # the scaled gradient vanishes
                finish(i)
        idx = [i for i in idx if outcome[i] is None]
        at = rows(idx)
        for _, g, cols, k in groups(idx):
            for i in np.arange(n_prob)[g]:  # one at a time: no stack of U
                u, sv[i, :k], vt[i, :k, :k] = np.linalg.svd(jac[i][:, cols] / scale[i, cols],
                                                            full_matrices=False)
                ur[i, :k] = u.T @ r[i]
        v = scale[at] * p[at]
        for i, v_sq in zip(idx, np.vecdot(v, v).tolist()):
            x_norm[i] = math.sqrt(v_sq)
        return idx

    def attempt(idx):
        """One damped step each; returns the problems still searching."""
        at = rows(idx)
        q = p[at]
        damp = np.array([damping[i] for i in idx])
        step = np.zeros(q.shape)
        for pos, g, cols, k in groups(idx):
            s = sv[g, :k]
            coef = s * ur[g, :k] / (s * s + damp[pos][:, None])
            where = (pos, cols) if isinstance(pos, slice) else np.ix_(pos, np.arange(n)[cols])
            step[where] = (-(vt[g, :k, :k].transpose(0, 2, 1) @ coef[:, :, None])[:, :, 0]
                           / scale[g][:, cols])
        trial = np.minimum(np.maximum(q + step, lo[at]), hi[at])  # np.clip, less overhead
        step = trial - q
        r_new, cost_new = evaluate(idx, trial)
        if r_new is None:
            return []
        linear = r[at] + (jac[at] @ step[:, :, None])[:, :, 0]
        v = scale[at] * step
        linear_sq, step_sq = np.vecdot(linear, linear).tolist(), np.vecdot(v, v).tolist()
        del linear  # no residual-sized array outlives its use into the Jacobian
        retry, moved, moved_at = [], [], []
        for k, i in enumerate(idx):
            if outcome[i] is not None:  # out of budget
                continue
            predicted = cost[i] - linear_sq[k]
            actual = cost[i] - cost_new[k]  # NaN for a non-finite trial
            ratio = actual / predicted if predicted > 0.0 else 0.0
            small_change = (abs(actual) <= ftol * cost[i] and predicted <= ftol * cost[i]
                            and ratio <= 2.0)
            small_step = math.sqrt(step_sq[k]) <= step_tolerance * (step_tolerance + x_norm[i])
            stop[i] = small_change or small_step
            if ratio > 1e-4:
                moved.append(i)
                moved_at.append(k)
                cost[i] = cost_new[k]
                # a float's ** 3: numpy's array ** 3 rounds differently
                damping[i] *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                growth[i] = 2.0
            elif stop[i]:
                finish(i)
            else:
                damping[i] *= growth[i]
                growth[i] *= 2.0
                retry.append(i)
        if moved:
            p[rows(moved)], r[rows(moved)] = trial[moved_at], r_new[moved_at]
            del r_new
            moved = jacobian(moved)
            for i in moved:
                if stop[i]:
                    finish(i)
        return sorted(retry + prepare([i for i in moved if not stop[i]]))

    searching = list(range(n_prob))
    res, costs = evaluate(searching, p)
    if res is not None:
        r[:], cost[:] = res, costs
        searching = prepare(jacobian(searching))
    while res is not None and searching:
        searching = attempt(searching)
    return outcome
