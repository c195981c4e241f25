"""Tests of the benchmark itself; wall time is never gated here.

    python3 -m pytest perfbench/test_benchmark.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTERS = [k for k, (unit, _) in tracing.PER_LAYER.items() if unit in tracing.COUNTER_UNITS]


def benchmark_run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first = benchmark_run(workload, 7, 1)
    second = benchmark_run(workload, 7, 1)
    assert first["correct"] and second["correct"]
    assert ({k: first["metrics"][k]["value"] for k in COUNTERS}
            == {k: second["metrics"][k]["value"] for k in COUNTERS})


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
            == tracing.PER_LAYER)


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build("fit-batch", 3, 5, tmp_path / "a")
    b = workloads.build("fit-batch", 3, 5, tmp_path / "b")
    assert [inv.truth for inv in a] == [inv.truth for inv in b]
    for x, y in zip(sorted((tmp_path / "a").iterdir()), sorted((tmp_path / "b").iterdir())):
        assert x.read_bytes() == y.read_bytes()
    assert workloads.build("design-sweep", 3, 25, tmp_path) == \
        workloads.build("design-sweep", 3, 25, tmp_path)


def test_every_design_variant_has_reference_outputs():
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    assert {inv.key for inv in workloads.all_design_variants()} == set(reference)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(1, 41)]) == (75.0, 30.0)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_rescaled_uses_the_reference_runs_on_both_sides():
    nominal = run.REFERENCE_NOMINAL_S
    assert run.rescaled([1.0, 3.0], [nominal, 2 * nominal, 3 * nominal]) == \
        pytest.approx([1.0 / 1.5, 3.0 / 2.5])
