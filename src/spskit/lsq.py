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
1978) on the Jacobian of the projected residual in closed form, formed
once per accepted point from its columns and the model's dphi_k/dtheta_j:
Kaufman's P (sum_k c_k dphi_k/dtheta_j) (BIT 15, 49 (1975)), P projecting
off the columns the active constraints leave free, plus Golub and
Pereyra's second term, one dot product more. Parameters are scaled by
the running maximum of their column norms; the damping grows after a
rejected step and shrinks after an accepted one with the ratio of actual
to predicted cost reduction (Nielsen's update in place of MINPACK's
trust radius). It stops when the relative cost reduction and the
predicted one both fall below 1e-12, when the scaled step falls below
``step_tolerance``, or when the scaled gradient vanishes. Each trial
point is projected into the box of the bounds on theta, and a parameter
on a bound whose descent direction points out of the box is held for
that iteration. Where a constraint holds the coefficients of a
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
between rounds. Stacked products and decompositions, axis norms and
elementwise arithmetic give each problem the bits it gets alone.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def levenberg_marquardt(basis, derivatives, x, y, p0, weights, bounds, max_iterations: int,
                        step_tolerance: float, constraints=None, pure_error=None) -> list:
    """Separable Levenberg-Marquardt fits of one model to B problems in lockstep.

    ``basis(x, *theta)`` gives the k columns, each one row per problem or
    one for all; theta reaches it as (problems, 1) columns, or as scalars
    for one problem. ``derivatives(x, columns, *theta)`` gives, from the
    stacked columns (problems, k, N), a pair (k, dphi_k/dtheta_j) for each
    theta_j: each theta_j moves one column. ``y`` and ``p0`` (theta's
    start) hold one row per problem; ``x``, ``weights``, each bound of
    ``bounds = (lower, upper)`` on theta and d of ``constraints = (C, d)``,
    for C c >= d with d finite, one row per problem or one for all, or
    None; ``pure_error``, one value per problem or None, is added to each
    cost. Returns per problem (converged, theta, c, cost, evaluations); one
    out of budget has only its best theta and c, and one whose start has a
    non-finite cost is not converged.
    """
    y = np.asarray(y, dtype=float)
    p = np.array(p0, dtype=float)
    n_prob, n = p.shape
    x = np.asarray(x, dtype=float)
    w = None if weights is None else np.broadcast_to(weights, y.shape)
    yw = y if w is None else y * w
    pure = np.zeros(n_prob) if pure_error is None else np.asarray(pure_error, dtype=float)
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), p.shape)
              for b in ((-np.inf, np.inf) if bounds is None else bounds))
    sets = None  # the active sets of the constraints, for the Jacobian
    if constraints is not None:
        cons = np.asarray(constraints[0], dtype=float)
        floor = np.broadcast_to(np.asarray(constraints[1], dtype=float), (n_prob, len(cons)))
        sets = _active_sets(_rows(cons))
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
        residuals, columns, the Gram matrices of the weighted columns,
        active sets), None when every problem's budget is spent; such a
        problem fails instead, with the best point it saw."""
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
        phi = cols if w is None else cols * w[at][:, None]
        c, gram, held = _coefficients(phi, data, None if constraints is None
                                      else (cons, floor[at]))
        res = (c[:, None] @ phi)[:, 0] - data
        costs = (np.vecdot(res, res) + pure[at]).tolist()  # each row's res @ res, bit for bit
        for k, i in enumerate(idx):
            if outcome[i] is None:
                calls[i] += 1
                if costs[k] < best_cost[i]:
                    best_cost[i], best_p[i], best_c[i] = costs[k], q[k], c[k]
        return costs, (q, c, res, cols, gram, held)

    def accept(idx, point):
        """Moves the problems idx to the point's rows: their Jacobians and J^T r."""
        at = rows(idx)
        p[at], coef[at] = point[:2]
        jac = _jacobian(derivatives, x if x.ndim == 1 else x[at], None if w is None else w[at],
                        point, sets)
        flat[at] = ~jac.any(axis=2)
        return jac, np.vecdot(jac, point[2][:, None])

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
            cost[i], damping[i], growth[i] = found[i][0], 1e-3, 2.0
        return idx and prepare(idx, *accept(idx, tuple(map(np.array,
                                                          zip(*(found[i][1] for i in idx))))))

    def prepare(idx, jac, grad):
        """Scale, gradient test and SVD at the new Jacobians of the problems
        idx, one row each, scaled in place; returns the problems left."""
        if not idx:
            return idx
        at = rows(idx)
        norms = np.sqrt(np.vecdot(jac, jac))
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
            idx, jac = [idx[k] for k in left], jac[left]
        if idx:
            at = rows(idx)
            jac *= (free[at] / scale[at])[:, :, None]
            # R of J D^-1 = Q R has its singular values and V; one QR and
            # SVD of the stack: each matrix gets the bits it gets alone. A
            # 1 x 1 R has |R| and V = +-1, whose sign cancels in the step
            r = np.linalg.qr(jac.transpose(0, 2, 1), mode="r")
            _, sv[at], vt[at] = (None, np.abs(r[:, 0]), 1.0) if n == 1 else np.linalg.svd(r)
            vg[at] = (vt[at] @ vg[at][:, :, None])[:, :, 0]
        return idx

    def attempt(idx):
        """One damped step each; returns the problems still searching."""
        at = rows(idx)
        q, s, v_t, d, g = p[at], sv[at], vt[at], scale[at], vg[at]
        filtered = g / (s * s + np.array([damping[i] for i in idx])[:, None])
        step = -(v_t.transpose(0, 2, 1) @ filtered[:, :, None])[:, :, 0] * free[at] / d
        trial = np.minimum(np.maximum(q + step, lo[at]), hi[at])  # np.clip, less overhead
        scaled = d * (trial - q)
        # the reduction |r|^2 - |r + J step|^2 = -2 z.vg - |s z|^2 that the
        # linear model predicts, z = V^T D step
        z = (v_t @ scaled[:, :, None])[:, :, 0]
        predicted = (-2.0 * np.vecdot(z, g) - np.vecdot(s * z, s * z)).tolist()
        cost_new, point = evaluate(idx, trial)
        if point is None:
            return []
        # the scaled step and point, each row's norm
        step_norm, x_norm = (np.sqrt(np.vecdot(v, v)).tolist() for v in (scaled, d * q))
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
        del point  # before the QR copies the Jacobian
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


def _jacobian(derivatives, x, w, point, sets) -> np.ndarray:
    """The Jacobians (problems, n, N) of the weighted residuals at a point
    of ``evaluate`` in ``levenberg_marquardt``, from its columns: each
    theta_j's v = sum w c_k dphi_k/dtheta_j less Phi_f G_f^-1 (Phi_f^T v +
    t^T a), with Phi_f = Phi t the columns the active set leaves free
    (c = t u + e d, ``sets[s]``; all where none is active), G_f their Gram
    matrix and a = (w dPhi/dtheta_j)^T r. v is built in place: the
    projection is one product with Phi for every active set."""
    q, c, res, cols, gram, held = point
    jac, a = _directions(derivatives, x, q, c, cols, w, res)
    # the columns are spent: the weighted ones in their place
    phi = cols if w is None else np.multiply(cols, w[:, None], out=cols)
    rhs = np.vecdot(phi[:, None], jac[:, :, None]) + a  # (problems, n, k)
    proj = np.empty(rhs.shape)  # each problem's G_f^-1 (Phi_f^T v + t^T a) t^T
    active = set(held.tolist())
    for s in active:
        sel = slice(None) if len(active) == 1 else held == s
        t = np.eye(len(gram[0])) if s < 0 else sets[s][0]
        proj[sel] = _solve((t.T @ gram[sel] @ t)[:, None], rhs[sel] @ t) @ t.T
    jac -= proj @ phi
    return jac


def covariance_factors(basis, derivatives, x, y, theta, c, weights, pure_error=None,
                       samples=None) -> np.ndarray:
    """At solutions (theta, c) for the data y, one row each, a matrix A
    per problem whose A A^T is the covariance of (theta, c): s^2 (J^T J)^+
    for the exact weighted Jacobian J = [sum_k c_k dphi_k/dtheta, Phi],
    s^2 = (|r|^2 + S) / (N - n - k) for the weighted residuals r, S the
    problem's ``pure_error`` (0 for None) and N ``samples`` (the rows of y
    for None). A is D^-1 V diag(s/sigma), with J D^-1 = U diag(sigma) V^T
    and D the column norms; singular values below eps max(N, n + k) sigma_0
    are cut, as in scipy's ``curve_fit``. Problems are taken in blocks of
    at most 2^15 Jacobian elements, each as if alone, as the QR copies its
    input."""
    y, theta, c = (np.asarray(a, dtype=float) for a in (y, theta, c))
    w = None if weights is None else np.broadcast_to(weights, y.shape)
    (n_prob, size), n, m = y.shape, theta.shape[1], theta.shape[1] + c.shape[1]
    pure = np.zeros(n_prob) if pure_error is None else np.asarray(pure_error, dtype=float)
    samples = size if samples is None else samples
    rows = max(1, 2 ** 15 // (size * m))
    if n_prob > rows:
        return np.concatenate([covariance_factors(
            basis, derivatives, x if x.ndim == 1 else x[i:i + rows], y[i:i + rows],
            theta[i:i + rows], c[i:i + rows], None if w is None else w[i:i + rows],
            pure[i:i + rows], samples) for i in range(0, n_prob, rows)])
    jt = np.empty((n_prob, m, size))  # J^T, built in place
    phi = _columns(basis, x, theta, y, out=jt[:, n:])
    _directions(derivatives, x, theta, c, phi, w, None, out=jt[:, :n])
    if w is not None:
        phi *= w[:, None]
    res = (c[:, None] @ phi)[:, 0] - (y if w is None else y * w)
    norms = np.sqrt(np.vecdot(jt, jt))
    norms[norms == 0.0] = 1.0
    jt /= norms[:, :, None]
    # J D^-1 = Q R: R has its singular values and V, and no factor of N rows is kept
    _, sigma, v_t = np.linalg.svd(np.linalg.qr(jt.transpose(0, 2, 1), mode="r"))
    kept = sigma > np.finfo(float).eps * max(samples, m) * sigma[:, :1]
    inverse = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=kept)
    s = np.sqrt((np.vecdot(res, res) + pure) / max(samples - m, 1))
    return v_t.transpose(0, 2, 1) * (inverse * s[:, None])[:, None] / norms[:, :, None]


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
    """v = sum_k c_k dphi_k/dtheta_j at q for each theta_j, weighted by w
    (None for none), (problems, n, N), into ``out`` if given, and a
    (problems, n, k) holding (w dphi_k/dtheta_j)^T r at [j, k] for the
    weighted residuals r (None for none)."""
    v = np.empty((len(q), q.shape[1], cols.shape[-1])) if out is None else out
    a = np.zeros((len(q), q.shape[1], cols.shape[1]))
    params = q[0] if len(q) == 1 else q.T[:, :, None]
    rw = r if w is None or r is None else r * w
    j = 0  # no enumerate: its reused result would hold the last slope
    for k, slope in derivatives(x, cols, *params):
        np.multiply(c[:, k, None], slope, out=v[:, j])
        a[:, j, k] = 0.0 if r is None else np.vecdot(slope, rw)
        j += 1
        del slope  # before the next one is made
    if w is not None:
        v *= w[:, None]
    return v, a


def _coefficients(phi: np.ndarray, y: np.ndarray, constraints=None) -> np.ndarray:
    """Least-squares coefficients, one row per problem, of the columns
    ``phi`` (problems, k, N) for ``y`` (problems, N), by the normal
    equations; NaN where those are singular. With ``constraints = (C, d)``
    (d one row per problem) the coefficients meet C c >= d: a problem whose
    unconstrained solution does not gets ``_constrained``'s. Returns c, the
    Gram matrices and each problem's active set, its index in
    ``_active_sets(C)`` or -1 for none."""
    gram = np.vecdot(phi[:, :, None], phi[:, None])
    rhs = np.vecdot(phi, y[:, None])
    c = _solve(gram, rhs)
    held = np.full(len(c), -1)
    if constraints is not None:
        cons, floor = constraints
        out = ~(np.vecdot(c[:, None], cons) >= floor).all(axis=1)  # NaN where singular
        if out.any():
            c[out], held[out] = _constrained(gram[out], rhs[out], cons, floor[out])
    return c, gram, held


def _constrained(gram, rhs, cons, floor):
    """The least-cost c, one per problem, of the minimizers of
    c^T G c - 2 b^T c that hold an active set of the rows of C c >= d
    with equality and meet every row, and the index of that set; NaN and
    -1 where none does."""
    best, least = np.full(rhs.shape, np.nan), np.full(len(rhs), np.inf)
    which = np.full(len(rhs), -1)
    for s, (t, e) in enumerate(_active_sets(_rows(cons))):
        # c = t u + e d meets the active rows for every u
        cand = np.vecdot(floor[:, None], e)
        u = _solve(t.T @ gram @ t, np.vecdot((rhs - (gram @ cand[:, :, None])[:, :, 0])[:, None],
                                             t.T))
        cand += (t @ u[:, :, None])[:, :, 0]
        cost = np.vecdot(cand, (gram @ cand[:, :, None])[:, :, 0]) - 2.0 * np.vecdot(rhs, cand)
        better = (np.vecdot(cand[:, None], cons) >= floor).all(axis=1) & (cost < least)
        best[better], least[better], which[better] = cand[better], cost[better], s
    return best, which


def _rows(cons: np.ndarray) -> tuple:  # C as the hashable key of ``_active_sets``
    return tuple(map(tuple, cons.tolist()))


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
    """a^-1 b for stacks of small systems a broadcast against b, one vector
    each: each gets the bits it gets alone, and NaN when singular."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        a = np.broadcast_to(a, b.shape + b.shape[-1:])
        out = np.full(b.shape, np.nan)
        ok = np.linalg.slogdet(a)[0] != 0.0  # the factorization solve takes
        out[ok] = np.linalg.solve(a[ok], b[ok][..., None])[..., 0]
        return out
