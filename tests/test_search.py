import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spskit import search


def sequential_bisect(inside, a, b, tol, geometric):
    """Bisection one midpoint at a time: the rule ``search.bisect`` must
    reproduce bit for bit at every number of levels."""
    def split(u, v):
        return math.sqrt(u * v) if geometric else 0.5 * (u + v)

    while not (max(a, b) / min(a, b) <= 1.0 + tol if geometric else abs(b - a) <= tol):
        m = split(a, b)
        if m == a or m == b:
            return m
        if inside(m):
            a = m
        else:
            b = m
    return split(a, b)


def sequential_golden(f, lo, hi, tol):
    """Classic scalar golden-section maximization of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


class TestBisect:
    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-9, 1e4),
           where=st.floats(-0.25, 1.25), levels=st.integers(1, 5),
           tol=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]), reverse=st.booleans(),
           geometric=st.booleans())
    def test_every_level_count_gives_the_sequential_bits(self, lo, width, where, levels, tol,
                                                         reverse, geometric):
        if geometric:  # positive brackets; width is then a ratio exponent
            lo, hi = 10.0 ** (lo / 100.0), 10.0 ** (lo / 100.0 + width / 1e3)
            threshold = lo * (hi / lo) ** where
        else:
            hi = lo + width
            threshold = lo + where * width
        a, b = (hi, lo) if reverse else (lo, hi)
        batches = []

        def inside(m):  # monotone: holds on a's side of the threshold
            return (np.asarray(m) > threshold) if reverse else (np.asarray(m) < threshold)

        got = search.bisect(lambda m: batches.append(np.size(m)) or inside(m), a, b, tol=tol,
                            levels=levels, geometric=geometric)
        assert got == sequential_bisect(inside, a, b, tol, geometric)
        assert set(batches) <= {2 ** levels - 1}

    @pytest.mark.parametrize("levels", [1, 3, 5])
    def test_zero_tolerance_ends_at_adjacent_floats(self, levels):
        # the midpoint of two adjacent floats rounds onto one of them
        got = search.bisect(lambda m: np.asarray(m) < math.pi, 0.0, 4.0, levels=levels)
        assert got in (math.pi, np.nextafter(math.pi, 0.0), np.nextafter(math.pi, 4.0))

    def test_narrow_bracket_is_not_evaluated(self):
        def inside(m):
            raise AssertionError("no midpoint needed")

        assert search.bisect(inside, 1.0, 1.5, tol=0.5) == 1.25
        assert search.bisect(inside, 2.0, 2.0) == 2.0

    def test_scalar_bracket_gives_the_predicate_one_midpoint(self):
        seen = []
        search.bisect(lambda m: seen.append(m) or m < 0.3, 0.0, 1.0, tol=0.1)
        assert seen and all(np.ndim(m) == 0 for m in seen)


class TestGoldenMax:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
           tol=st.sampled_from([1e-8, 1e-5, 1e-2]))
    def test_array_of_brackets_equals_each_bracket_alone(self, seed, n, tol):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-10.0, 10.0, n)
        hi = lo + rng.uniform(1e-3, 5.0, n)
        # the peak may lie inside, at or beyond either end of its bracket
        peak = lo + rng.uniform(-0.5, 1.5, n) * (hi - lo)
        skew = rng.uniform(-1.0, 1.0, n)

        def f(x, p=peak, s=skew):  # arithmetic only: array and scalar bits agree
            u = x - p
            return -(u * u) + s * u * u * u * 1e-3

        got = search.golden_max(f, lo, hi, tol)
        assert got.shape == (n,)
        for i in range(n):
            alone = sequential_golden(lambda x: f(x, peak[i], skew[i]), lo[i], hi[i], tol)
            assert got[i] == alone
            one = search.golden_max(lambda x: f(x, peak[i], skew[i]), lo[i], hi[i], tol)
            assert one == alone

    def test_scalar_bracket_reaches_f_as_numpy_scalars(self):
        seen = []

        def f(x):
            seen.append(type(x))
            return -(x - 0.3) * (x - 0.3)

        got = search.golden_max(f, np.float64(0.0), np.float64(1.0), 1e-6)
        assert set(seen) == {np.float64}
        assert type(got) is np.float64
        assert got == pytest.approx(0.3, abs=1e-6)

    def test_empty_array_of_brackets(self):
        got = search.golden_max(lambda x: -x * x, np.empty(0), np.empty(0), 1e-5)
        assert got.shape == (0,)
