"""Bracketed searches, each stop rule written once: bisection for a
boundary, golden section for a maximum.

``bisect`` also stops when the midpoint rounds onto an end of the
bracket, where every further step would return that same midpoint, so it
always ends. With ``levels`` > 1 it judges the 2^levels - 1 midpoints of
that many levels of the bisection tree in one call of the predicate and
walks them with the one-step rule, giving the bits of one step at a time.

``golden_max`` refines a whole array of brackets in lockstep, with the
update rule and ``tol`` of a scalar search applied per element and
converged elements frozen; a scalar bracket reaches ``f`` as the numpy
scalar it is.
"""
from __future__ import annotations

import math

import numpy as np

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def bisect(inside, a, b, *, tol: float = 0.0, levels: int = 1, geometric: bool = False):
    """The final midpoint of halving [a, b], given in either order, on ``inside``.

    A midpoint where ``inside`` holds replaces a, any other replaces b.
    ``inside`` takes one midpoint, or with ``levels`` > 1 the array of the
    next levels' midpoints, level by level. The search stops at
    |b - a| <= tol, or with ``geometric`` midpoints sqrt(a b) at
    b/a <= 1 + tol, checked before each halving.
    """
    def split(u, v):
        return np.sqrt(u * v) if geometric else 0.5 * (u + v)

    def narrow(u, v):
        return max(u, v) / min(u, v) <= 1.0 + tol if geometric else abs(v - u) <= tol

    while not narrow(a, b):
        # level k of the bisection tree: the 2^k midpoints of its subintervals
        tree, ends = [[split(a, b)]], np.array([a, b])
        for _ in range(1, levels):
            ends = np.insert(ends, np.arange(1, ends.size), tree[-1])
            tree.append(split(ends[:-1], ends[1:]))
        found, node = inside(np.concatenate(tree)) if levels > 1 else [inside(tree[0][0])], 0
        for k in range(levels):
            m = tree[k][node]
            if m == a or m == b:
                return m
            if found[2 ** k - 1 + node]:
                a, node = m, 2 * node + 1
            else:
                b, node = m, 2 * node
            if narrow(a, b):
                break
    return split(a, b)


def golden_max(f, lo, hi, tol: float):
    """Golden-section maximum of ``f`` on each bracket [lo, hi], to ``tol``;
    ``f`` takes one probe per bracket at once."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    c = hi - INVPHI * (hi - lo)
    d = lo + INVPHI * (hi - lo)
    fc, fd = f(c[()]), f(d[()])
    active = hi - lo > tol
    while active.any():
        # fc > fd keeps [lo, d], and c becomes the new d; else [c, hi]
        left = active & (fc > fd)
        right = active & ~left
        hi = np.where(left, d, hi)
        lo = np.where(right, c, lo)
        c, d = np.where(right, d, c), np.where(left, c, d)
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        probe = np.where(left, hi - INVPHI * (hi - lo), lo + INVPHI * (hi - lo))
        fp = f(probe[()])
        c, fc = np.where(left, probe, c), np.where(left, fp, fc)
        d, fd = np.where(right, probe, d), np.where(right, fp, fd)
        active = hi - lo > tol
    return (0.5 * (lo + hi))[()]
