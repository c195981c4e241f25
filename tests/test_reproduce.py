"""The reproduction table's targets: each printed target is the test its
check applies, at the bound it prints, and no check passes a hand-written
pass value beside it."""
import ast
import json
import math
from pathlib import Path

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
