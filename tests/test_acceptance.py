"""Acceptance suite: every headline number the toolkit must reproduce,
asserted at its pinned tolerance. One pass/fail line per criterion is
printed (visible with ``pytest -s`` or in captured output).

Three QKD checks (8a, 8b, 8f) are known to fail under the documented
tagged-states security model; the analysis lives in the decisions ledger.
They are asserted faithfully rather than loosened.
"""
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spskit
from spskit.config import default_scenario
from spskit.reproduce import run_all

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def report():
    return run_all(default_scenario(), draws=100)


def _assert_checks(report, ids):
    rows = [c for c in report.checks if c.cid in ids]
    assert rows, f"no checks matching {ids}"
    for check in rows:
        print(check.row())
    failed = [c for c in rows if not c.passed]
    assert not failed, "\n".join(c.row() for c in failed)


class TestCriterion1Coating:
    def test_reflectance_window_and_oracle(self, report):
        _assert_checks(report, {"1a", "1b"})

    def test_stopband_edge(self, report):
        _assert_checks(report, {"1c"})


class TestCriterion2Cavity:
    def test_fwhm_and_quality_factor(self, report):
        _assert_checks(report, {"2a", "2b"})


class TestCriterion3Penetration:
    def test_depth_and_mode_order_independence(self, report):
        _assert_checks(report, {"3a", "3b"})


class TestCriterion4ModeVolume:
    def test_mode_volume(self, report):
        _assert_checks(report, {"4"})


class TestCriterion5Purcell:
    def test_purcell_and_quantum_efficiency(self, report):
        _assert_checks(report, {"5a", "5b"})


class TestCriterion6Indistinguishability:
    def test_free_space_value(self, report):
        _assert_checks(report, {"6a"})

    def test_cavity_linewidth_threshold(self, report):
        _assert_checks(report, {"6b"})

    def test_fsr_chain(self, report):
        _assert_checks(report, {"6c"})

    def test_cavity_coupled_band(self, report):
        _assert_checks(report, {"6d"})


class TestCriterion7FitRoundTrips:
    def test_lorentzian(self, report):
        _assert_checks(report, {"7a", "7b"})

    def test_lifetime(self, report):
        _assert_checks(report, {"7c"})

    def test_g2(self, report):
        _assert_checks(report, {"7d", "7e"})

    def test_polarization(self, report):
        _assert_checks(report, {"7f"})

    def test_background_inverse(self, report):
        _assert_checks(report, {"7g"})


class TestCriterion8Qkd:
    def test_fiber_crossing_loss(self, report):
        # Known red: the tagged-states bound places the crossing near
        # 5.2 dB, not 8.82 dB; see the decisions ledger for the analysis.
        _assert_checks(report, {"8a"})

    def test_sps_never_below_wcs(self, report):
        # Known red in a ~6 km window where the tagged bound zeroes the
        # single-photon source while tiny-mu coherent pulses survive.
        _assert_checks(report, {"8b"})

    def test_source_orderings_and_monotonicity(self, report):
        _assert_checks(report, {"8c", "8d"})

    def test_freespace_calibration_contract(self, report):
        _assert_checks(report, {"8e", "8g"})

    def test_freespace_crossing_loss(self, report):
        # Known red: same security-model gap as the fiber crossing.
        _assert_checks(report, {"8f"})


class TestCriterion9Fab:
    def test_dose_map_round_trip(self, report):
        _assert_checks(report, {"9a"})

    def test_hemisphere_fit(self, report):
        _assert_checks(report, {"9b", "9c"})


class TestCriterion10Determinism:
    def test_reproduce_twice_is_byte_identical(self, tmp_path):
        # the child imports the same spskit sources as this process
        env = dict(os.environ)
        src = str(Path(spskit.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for run in ("first", "second"):
            outdir = tmp_path / run
            result = subprocess.run(
                [sys.executable, "-m", "spskit.cli", "--outdir", str(outdir),
                 "reproduce", "--draws", "5"],
                capture_output=True, text=True, check=False, env=env)
            assert result.returncode == 0, result.stderr
            outputs.append(sorted(p for p in outdir.iterdir()))
        names_a = [p.name for p in outputs[0]]
        names_b = [p.name for p in outputs[1]]
        assert names_a == names_b and names_a
        for a, b in zip(outputs[0], outputs[1]):
            assert filecmp.cmp(a, b, shallow=False), f"{a.name} differs between runs"
        print("[PASS] 10   reproduce twice -> byte-identical outputs")


class TestGoldenReproduce:
    """Every check at --draws 5 on the defaults, pinned to 1e-9 relative
    against the values recorded when ``reproduce`` held its own copy of
    the scenario constants; values of zero or round-off size to 1e-12."""

    GOLDEN = json.loads((Path(__file__).parent / "golden_reproduce.json").read_text())

    def test_every_check_matches(self):
        computed = {c.cid: c.computed for c in run_all(default_scenario(), draws=5).checks}
        assert computed.keys() == self.GOLDEN.keys()
        for cid, value in self.GOLDEN.items():
            assert computed[cid] == pytest.approx(value, rel=1e-9, abs=1e-12), cid
