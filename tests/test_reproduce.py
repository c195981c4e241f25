"""The reproduction table's targets: each printed target is the test its
check applies, at the bound it prints, and no check passes a hand-written
pass value beside it."""
import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import spskit.reproduce as reproduce
from spskit.cli import main
from spskit.reproduce import ReproductionReport, Target, target


def _after(x: float) -> float:
    return math.nextafter(x, math.inf)


def _before(x: float) -> float:
    return math.nextafter(x, -math.inf)


# text: (values that pass, values that fail); every bound is exact in
# binary, so "on the bound" is the printed number itself
FORMS = {
    "2 +- 0.5 nm": ([1.5, 2.0, 2.5], [_before(1.5), _after(2.5)]),
    "4 +- 25%": ([3.0, 5.0], [_before(3.0), _after(5.0)]),
    "2 +- 0.5 GHz": ([1.5e9, 2.5e9], [_before(1.5e9), _after(2.5e9), 2.0]),
    "2 MHz +- 25%": ([1.5e6, 2.5e6], [_before(1.5e6), _after(2.5e6), 2.0]),
    "<= 0.5 nm": ([0.5, -1.0], [_after(0.5)]),
    "< 50%": ([_before(0.5)], [0.5]),
    "<= 0": ([0.0], [_after(0.0)]),
    "[0.25, 0.75]": ([0.25, 0.5, 0.75], [_before(0.25), _after(0.75)]),
}


class TestTargetForms:
    @pytest.mark.parametrize("text", FORMS)
    def test_tests_the_bound_it_prints(self, text):
        spec = target(text)
        inside, outside = FORMS[text]
        assert spec.text == text
        assert [spec.test(x) for x in inside] == [True] * len(inside)
        assert [spec.test(x) for x in outside] == [False] * len(outside)

    @pytest.mark.parametrize("text", FORMS)
    def test_nan_fails(self, text):
        assert target(text).test(math.nan) is False

    @pytest.mark.parametrize("text", ["", "reported only", "~115 km", "124 kHz +- 2%",
                                      "2 MHz +- 1 GHz", "[1, 2, 3]", "[1, 2", "<= 1 2", "<",
                                      "<> 1", "5 +- 1 +- 2"])
    def test_other_text_is_rejected(self, text):
        with pytest.raises(ValueError):
            target(text)

    def test_report_takes_the_pass_from_the_target(self):
        report = ReproductionReport()
        report.add("x", "on the bound", 0.5, target("<= 0.5"))
        report.add("y", "not a number", math.nan, Target("reported only", math.isfinite))
        assert [(c.target, c.passed) for c in report.checks] == [
            ("<= 0.5", True), ("reported only", False)]


class TestWrittenTargets:
    def test_json_targets_are_the_table_targets(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "reproduce", "--draws", "1"]) == 0
        rows = (tmp_path / "reproduce_table.txt").read_text().splitlines()[1:-1]
        checks = json.loads((tmp_path / "reproduce_report.json").read_text())["checks"]
        assert len(rows) == len(checks) > 0
        for row, check in zip(rows, checks):
            note = f"  [{check['note']}]" if check["note"] else ""
            assert row.startswith(f"[{'PASS' if check['passed'] else 'FAIL'}] {check['id']} ")
            assert row.split("  vs ", 1)[1] == check["target"] + note, check["id"]


class TestTargetsDefinedOnce:
    """Every ``report.add`` in ``reproduce`` hands over a target, never a
    pass value of its own beside it."""

    def test_no_add_passes_a_comparison_or_bool(self):
        tree = ast.parse(Path(reproduce.__file__).read_text(encoding="utf-8"))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and node.func.attr == "add"
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "report"]
        assert len(calls) >= 20
        for call in calls:
            assert len(call.args) <= 4, ast.unparse(call)
            assert {keyword.arg for keyword in call.keywords} <= {"note"}, ast.unparse(call)
            for value in call.args + [keyword.value for keyword in call.keywords]:
                assert not isinstance(value, (ast.Compare, ast.BoolOp)), ast.unparse(call)
                assert not (isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.Not)), \
                    ast.unparse(call)
                assert not (isinstance(value, ast.Constant) and isinstance(value.value, bool)), \
                    ast.unparse(call)


def _splitmix64(counter: int) -> float:
    """Output number ``counter`` of SplitMix64 from the reproduction's seed,
    in Python ints, as ``uniforms`` turns it into a double."""
    mask = (1 << 64) - 1
    z = (reproduce.RNG_SEED + counter * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return ((z ^ (z >> 31)) >> 11) / 2.0 ** 53


class TestGenerator:
    """The counter-based generator of the fit draws and of check_fab's
    noise: its bits, its layout and the moments of what it samples."""

    def test_uniforms_are_splitmix64_outputs(self):
        draws = np.array([0, 99, 2 ** 31], dtype=np.uint64)[:, None, None]
        streams = [0, 1, 8, 4095]
        elements = np.array([0, 1, 750, 2 ** 20 - 1], dtype=np.uint64)
        got = np.stack([reproduce.uniforms(draws, s, elements) for s in streams], axis=1)
        expected = [[[_splitmix64((i << 32 | s << 20 | j) + 1) for j in elements.tolist()]
                     for s in streams] for i in (0, 99, 2 ** 31)]
        assert got[:, :, 0].tolist() == expected

    def test_a_draw_does_not_depend_on_the_draws_made_with_it(self):
        alone = reproduce.fit_roundtrip_draws(range(5, 9))
        together = reproduce.fit_roundtrip_draws(range(0, 17))[5:9]
        for a, b in zip(alone, together, strict=True):
            assert a.keys() == b.keys() and a["background"] == b["background"]
            for kind in ("spectrum", "decay", "correlation", "polarization"):
                *series_a, true_a = a[kind]
                *series_b, true_b = b[kind]
                assert true_a == true_b
                for one, other in zip(series_a, series_b, strict=True):
                    assert one.x.tobytes() == other.x.tobytes()
                    assert one.y.tobytes() == other.y.tobytes()

    @pytest.mark.parametrize("mean", [0.0, 1e-3, 0.5, 3.0, 9.999, 10.0, 37.5, 8000.0])
    def test_poisson_moments(self, mean):
        # 20,000 counts: 1,000 elements of each of 20 draws. The sample mean
        # and variance lie within 5 sigma of their Poisson values, whose
        # variances are mean/n and (mean + 2 mean^2)/n
        counts = reproduce.poisson(np.arange(20, dtype=np.uint64)[:, None],
                                   np.full((20, 1000), mean)).ravel()
        n = counts.size
        assert (counts >= 0.0).all() and (counts == np.floor(counts)).all()
        assert abs(counts.mean() - mean) <= 5.0 * math.sqrt(mean / n)
        assert abs(counts.var(ddof=1) - mean) <= 5.0 * math.sqrt((mean + 2.0 * mean ** 2) / n)

    def test_normal_moments(self):
        # 20,000 deviates: mean within 5/sqrt(n) of 0, variance within
        # 5 sqrt(2/n) of 1
        values = reproduce.normals(7, 20000)
        assert values.shape == (20000,)
        assert abs(values.mean()) <= 5.0 / math.sqrt(values.size)
        assert abs(values.var(ddof=1) - 1.0) <= 5.0 * math.sqrt(2.0 / values.size)

    def test_normals_are_cosines_then_sines(self):
        u, v = (reproduce.uniforms(3, s, np.arange(2)).tolist() for s in (0, 1))
        r = [math.sqrt(-2.0 * math.log(1.0 - a)) for a in u]
        assert reproduce.normals(3, 3).tolist() == [
            r[0] * math.cos(2.0 * math.pi * v[0]), r[1] * math.cos(2.0 * math.pi * v[1]),
            r[0] * math.sin(2.0 * math.pi * v[0])]
