"""Separable least squares for many problems of one model in lockstep.

Each model here is linear in some parameters (amplitudes, offsets, a
level) once the others, theta, are fixed: the sum of k basis columns,
functions of theta, weighted by coefficients c. Variable projection
(Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973); O'Leary and
Rust, Comput. Optim. Appl. 54, 579 (2013)) solves c exactly at each
trial theta, here from the weighted k x k normal equations, and iterates
on theta alone. Linear inequalities C c >= d are met by enumerating the
active sets of that small solve.

The iteration on theta is Moré's MINPACK Levenberg-Marquardt (LNM 630,
1978): a forward-difference Jacobian (step sqrt(eps)*|p|, or sqrt(eps)
at p = 0), parameters scaled by the running maximum of its column norms,
and damping that grows after a rejected step and shrinks after an
accepted one with the ratio of actual to predicted cost reduction
(Nielsen's update in place of MINPACK's trust radius). It stops when the
relative cost reduction and the predicted one both fall below 1e-12,
when the scaled step falls below ``step_tolerance``, or when the scaled
gradient vanishes. Bounds on theta need no second path: each trial point
is projected into the box, and a parameter on a bound whose descent
direction points out of the box is held for that iteration. Where a
constraint holds the coefficients of a parameter's columns at 0, the
cost is flat in that parameter and the stopping tests hold anywhere; a
problem that stops with such a flat Jacobian column samples the
parameter over decades and restarts from a sample that lowers its cost.

An evaluation is one basis call and coefficient solve at one theta; a
problem may spend max_iterations * (m + 1) of them for m nonlinear
parameters, Jacobian columns included. Each problem has its own state
until it converges or fails; a round evaluates every problem still
searching in one call. Stacked products and decompositions, axis norms
and elementwise arithmetic give each problem the bits it gets alone.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

SQRT_EPS = math.sqrt(np.finfo(float).eps)


def levenberg_marquardt(basis, x, y, p0, weights, bounds, max_iterations: int,
                        step_tolerance: float, constraints=None) -> list:
    """Separable Levenberg-Marquardt fits of one model to B problems in lockstep.

    ``basis(x, *theta)`` gives the k columns, each one row per problem or
    one for all; theta reaches it as (problems, 1) columns, or as scalars
    for one problem. ``y`` and ``p0`` (theta's start) hold one row per
    problem; ``x``, ``weights``, each bound of ``bounds = (lower, upper)``
    on theta and d of ``constraints = (C, d)``, for C c >= d with d
    finite, one row per problem or one for all, or None. Returns per
    problem (converged, theta, c, residuals, cost, evaluations); one out
    of budget has only its best theta and c, and one whose start has a
    non-finite cost is not converged.
    """
    y = np.asarray(y, dtype=float)
    p = np.array(p0, dtype=float)
    n_prob, n = p.shape
    x = np.asarray(x, dtype=float)
    w = None if weights is None else np.broadcast_to(weights, y.shape)
    yw = y if w is None else y * w
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), p.shape)
              for b in ((-np.inf, np.inf) if bounds is None else bounds))
    if constraints is not None:
        cons = np.asarray(constraints[0], dtype=float)
        floor = np.broadcast_to(np.asarray(constraints[1], dtype=float), (n_prob, len(cons)))
    budget = max_iterations * (n + 1)
    ftol = gtol = 1e-12
    p = np.clip(p, lo, hi)
    # arrays for the iteration, one row per problem; Python scalars for the
    # bookkeeping, cheaper than numpy for a few problems
    r, jac, scale = np.empty_like(y), np.empty(y.shape + (n,)), np.zeros((n_prob, n))
    coef = None  # the coefficients at p, sized by the first basis call
    # each problem's free mask and the SVD of its scaled free Jacobian
    # columns, left-aligned: singular values, V^T and U^T r
    free = [(True,) * n] * n_prob
    sv, vt, ur = np.zeros((n_prob, n)), np.zeros((n_prob, n, n)), np.zeros((n_prob, n))
    cost, calls, damping, growth = [0.0] * n_prob, [0] * n_prob, [1e-3] * n_prob, [2.0] * n_prob
    best_cost, best_p, best_c = [math.inf] * n_prob, list(p), [None] * n_prob
    outcome: list = [None] * n_prob
    # problems that finished with a flat cost, and the cost each was sampled at
    ending, sampled = [], [math.inf] * n_prob
    rounds = 0

    def rows(idx):  # index of sorted problems: a slice (a view) for all
        return slice(None) if len(idx) == n_prob else idx

    def evaluate(idx, q):
        """Coefficients, residuals and costs at q, one row per problem of
        idx; a problem whose budget is spent fails instead, with the best
        point it saw."""
        nonlocal rounds
        rounds += 1
        if rounds > budget:  # a round evaluates a problem at most once
            for i in idx:
                if calls[i] == budget and outcome[i] is None:
                    outcome[i] = (False, best_p[i], best_c[i], None, None, calls[i])
            if all(outcome[i] is not None for i in idx):
                return None, None, None
        at = rows(idx)
        # one problem takes scalars, cheaper for numpy than 1-element columns
        params = q[0] if len(idx) == 1 else q.T[:, :, None]
        phi = np.stack(np.broadcast_arrays(*basis(x if x.ndim == 1 else x[at], *params),
                                           yw[at])[:-1], axis=1)
        if w is not None:
            phi = phi * w[at][:, None]
        c = _coefficients(phi, yw[at], None if constraints is None else (cons, floor[at]))
        res = (c[:, :, None] * phi).sum(axis=1) - yw[at]
        costs = np.vecdot(res, res).tolist()  # each row's res @ res, bit for bit
        for k, i in enumerate(idx):
            if outcome[i] is None:
                calls[i] += 1
                if costs[k] < best_cost[i]:
                    best_cost[i], best_p[i], best_c[i] = costs[k], q[k], c[k]
        return c, res, costs

    def jacobian(idx):
        """Jacobians at p, one evaluation per column; returns the problems left."""
        at = rows(idx)
        for j, col in enumerate(forward_columns(lambda q: evaluate(idx, q)[1], p[at], r[at],
                                                hi[at])):
            jac[at, :, j] = col
        return [i for i in idx if outcome[i] is None]

    def finish(i):
        if cost[i] < sampled[i] and not jac[i].any(axis=0).all():
            ending.append(i)  # its cost is flat in some parameter: ``restart``
        else:  # a trial never has a non-finite cost: only a start can
            outcome[i] = (math.isfinite(cost[i]), p[i], coef[i], r[i], cost[i], calls[i])

    def restart():
        """The problems that finished where their cost is flat in some
        parameters, a constraint holding the coefficients of those columns
        at 0: each such parameter is sampled at 4^-6 ... 4^6 times its value
        within the box, and a problem restarts from its best sample if that
        lowers its cost. Returns the problems restarted and still searching."""
        idx, found = sorted(ending), {}
        ending.clear()
        for j, f in itertools.product(range(n), [4.0 ** k for k in range(-6, 7) if k]):
            sub = [i for i in idx if outcome[i] is None and not jac[i][:, j].any()]
            if sub:
                q = p[sub]
                q[:, j] = np.minimum(np.maximum(q[:, j] * f, lo[sub, j]), hi[sub, j])
                c, res, costs = evaluate(sub, q)
                for k, i in enumerate(sub):
                    if res is not None and costs[k] < found.get(i, (cost[i],))[0]:
                        found[i] = (costs[k], q[k], c[k], res[k])
        for i in idx:
            sampled[i] = cost[i]
            if outcome[i] is None and i not in found:
                finish(i)
        idx = [i for i in idx if outcome[i] is None]
        for i in idx:
            (cost[i], p[i], coef[i], r[i]), damping[i], growth[i] = found[i], 1e-3, 2.0
        return prepare(jacobian(idx)) if idx else []

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
        # np.linalg.norm's sum and the gradient, one problem at a time: no
        # J-sized square or copy
        norms = np.sqrt([np.add.reduce(jac[i] * jac[i], axis=0) for i in idx])
        grad = np.array([jac[i].T @ r[i] for i in idx])
        s = np.maximum(scale[at], norms)
        s[s == 0.0] = 1.0
        scale[at] = s
        q = p[at]
        # a parameter on a bound whose descent direction leaves the box
        # stays where it is this iteration
        f = ~(((q <= lo[at]) & (grad > 0.0)) | ((q >= hi[at]) & (grad < 0.0)))
        tested = f & (np.abs(grad) > gtol * norms * np.sqrt([cost[i] for i in idx])[:, None])
        for i, mask, test in zip(idx, f.tolist(), tested.tolist()):
            free[i] = tuple(mask)
            if not any(test):  # the scaled gradient vanishes
                finish(i)
        idx = [i for i in idx if outcome[i] is None and i not in ending]
        for _, g, cols, k in groups(idx):
            # one SVD of the stack: each matrix gets the bits it gets alone
            u, sv[g, :k], vt[g, :k, :k] = np.linalg.svd(
                jac[g][:, :, cols] / scale[g][:, None, cols], full_matrices=False)
            ur[g, :k] = (u.transpose(0, 2, 1) @ r[g][:, :, None])[:, :, 0]
        return idx

    def attempt(idx):
        """One damped step each; returns the problems still searching."""
        at = rows(idx)
        q = p[at]
        damp = np.array([damping[i] for i in idx])
        step = np.zeros(q.shape)
        for pos, g, cols, k in groups(idx):
            s = sv[g, :k]
            filtered = s * ur[g, :k] / (s * s + damp[pos][:, None])
            where = (pos, cols) if isinstance(pos, slice) else np.ix_(pos, np.arange(n)[cols])
            step[where] = (-(vt[g, :k, :k].transpose(0, 2, 1) @ filtered[:, :, None])[:, :, 0]
                           / scale[g][:, cols])
        trial = np.minimum(np.maximum(q + step, lo[at]), hi[at])  # np.clip, less overhead
        step = trial - q
        c_new, r_new, cost_new = evaluate(idx, trial)
        if r_new is None:
            return []
        linear_sq = [float(np.vecdot(lin, lin)) for lin in (r[i] + jac[i] @ step[k]
                                                            for k, i in enumerate(idx))]
        # the scaled step and point, each row's norm
        step_norm, x_norm = (np.sqrt(np.vecdot(v, v)).tolist()
                             for v in (scale[at] * step, scale[at] * q))
        retry, moved, moved_at, stopped = [], [], [], set()
        for k, i in enumerate(idx):
            if outcome[i] is not None:  # out of budget
                continue
            predicted = cost[i] - linear_sq[k]
            actual = cost[i] - cost_new[k]  # NaN for a non-finite trial
            ratio = actual / predicted if predicted > 0.0 else 0.0
            if ((abs(actual) <= ftol * cost[i] and predicted <= ftol * cost[i] and ratio <= 2.0)
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
        if moved:
            at = rows(moved)
            p[at], coef[at], r[at] = trial[moved_at], c_new[moved_at], r_new[moved_at]
            del r_new
            moved = jacobian(moved)
            for i in stopped.intersection(moved):
                finish(i)
        return sorted(retry + prepare([i for i in moved if i not in stopped]))

    searching = list(range(n_prob))
    coef, res, costs = evaluate(searching, p)
    if res is not None:
        r[:], cost[:] = res, costs
        searching = prepare(jacobian(searching))
    while res is not None and (searching or ending):
        searching = sorted((attempt(searching) if searching else []) + restart())
    return outcome


def forward_columns(residual, p: np.ndarray, r: np.ndarray, hi=None):
    """The columns (residual(p + h_j e_j) - r) / h_j of the forward-difference
    Jacobian at p, one row per problem, r = residual(p), with MINPACK's step
    h = sqrt(eps)*|p|, or sqrt(eps) at p = 0, turned back where it would
    pass ``hi``; they end where ``residual`` gives None."""
    h = SQRT_EPS * np.abs(p)
    h[h == 0.0] = SQRT_EPS
    if hi is not None:
        h[p + h > hi] *= -1.0
    for j in range(p.shape[1]):
        q = p.copy()
        q[:, j] += h[:, j]
        res = residual(q)
        if res is None:
            return
        yield (res - r) / h[:, j, None]


def _coefficients(phi: np.ndarray, y: np.ndarray, constraints=None) -> np.ndarray:
    """Least-squares coefficients, one row per problem, of the columns
    ``phi`` (problems, k, N) for ``y`` (problems, N), by the normal
    equations; NaN where those are singular. With ``constraints = (C, d)``
    (d one row per problem) the coefficients meet C c >= d: a problem whose
    unconstrained solution does not gets ``_constrained``'s."""
    gram = np.vecdot(phi[:, :, None], phi[:, None])
    rhs = np.vecdot(phi, y[:, None])
    c = _solve(gram, rhs)
    if constraints is not None:
        cons, floor = constraints
        out = ~(np.vecdot(c[:, None], cons) >= floor).all(axis=1)  # NaN where singular
        if out.any():
            c[out] = _constrained(gram[out], rhs[out], cons, floor[out])
    return c


def _constrained(gram, rhs, cons, floor):
    """The least-cost c, one per problem, of the minimizers of
    c^T G c - 2 b^T c that hold an active set of the rows of C c >= d
    with equality and meet every row; NaN where none does."""
    best, least = np.full(rhs.shape, np.nan), np.full(len(rhs), np.inf)
    for t, e in _active_sets(tuple(map(tuple, cons.tolist()))):
        # c = t u + e d meets the active rows for every u
        cand = np.vecdot(floor[:, None], e)
        u = _solve(t.T @ gram @ t, np.vecdot((rhs - (gram @ cand[:, :, None])[:, :, 0])[:, None],
                                             t.T))
        cand += (t @ u[:, :, None])[:, :, 0]
        cost = np.vecdot(cand, (gram @ cand[:, :, None])[:, :, 0]) - 2.0 * np.vecdot(rhs, cand)
        better = (np.vecdot(cand[:, None], cons) >= floor).all(axis=1) & (cost < least)
        best[better], least[better] = cand[better], cost[better]
    return best


@functools.lru_cache(maxsize=8)
def _active_sets(cons: tuple) -> list:
    """(t, e) for each set of independent rows of C: c = t u + e d meets the
    set's rows with equality for every u. The set's rows are solved for
    pivot coefficients, so a row that bounds one coefficient puts it on
    its bound exactly."""
    cons = np.array(cons)
    m, k = cons.shape
    sets = []
    for size in range(1, k + 1):
        for active in itertools.combinations(range(m), size):
            a = cons[list(active)]
            pivots = next((list(piv) for piv in itertools.combinations(range(k), size)
                           if np.linalg.det(a[:, piv]) != 0.0), None)
            if pivots is not None:
                rest = [j for j in range(k) if j not in pivots]
                inv = np.linalg.inv(a[:, pivots])
                t, e = np.eye(k)[:, rest], np.zeros((k, m))
                t[pivots] = -inv @ a[:, rest]
                e[np.ix_(pivots, active)] = inv
                sets.append((t, e))
    return sets


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for stacks of small systems, b one vector each: each system
    gets the bits it gets alone, and NaN when singular."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        ok = np.linalg.slogdet(a)[0] != 0.0  # the factorization solve takes
        out[ok] = np.linalg.solve(a[ok], b[ok][..., None])[..., 0]
        return out
