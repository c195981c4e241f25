"""Every run of the output corpus writes what ``golden_outputs.json``
recorded: the same exit code, stdout, stderr, warnings and file bytes.
The record holds on the default code paths only (see
``record_golden_outputs``). The runs of the largest grids also stay
within a traced memory budget."""
import contextlib
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from spskit import cli

from record_golden_outputs import FIT_RUNS, GOLDEN_PATH, RUNS, fit_runs, outputs, record
from test_config_cli import _child_env

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_the_corpus_records_every_run():
    assert list(GOLDEN) == list(RUNS) + FIT_RUNS


def test_no_record_holds_a_numpy_scalar_repr():
    # numpy 2 prints a float64 scalar as np.float64(285.16) in a message
    for name in ("numerical error", "numerical error --error-json"):
        assert "285.16" in json.dumps(GOLDEN[name])
    assert "np.float64(" not in GOLDEN_PATH.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", list(RUNS))
def test_run_matches_its_record(tmp_path, name):
    assert outputs(RUNS[name], tmp_path / "out") == GOLDEN[name]


@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    """The folder of the fit series, and each fit run's argv."""
    inputs = tmp_path_factory.mktemp("inputs")
    return inputs, fit_runs(inputs)


def test_the_fit_runs_take_each_option_with_and_without(fit_inputs):
    options = sorted(argv[3::2] for name, argv in fit_inputs[1].items()
                     if name.endswith(("spectrum", "correlation")))
    assert options == [(), (), ("--scan-range",), ("--snr",)]


@pytest.mark.parametrize("name", FIT_RUNS)
def test_fit_matches_its_record(tmp_path, fit_inputs, name):
    inputs, argv = fit_inputs
    assert outputs(argv[name], tmp_path / "out", inputs) == GOLDEN[name]


def process_outputs(argv, outdir: Path, inputs: Path | None = None) -> dict:
    """The record of ``python -m spskit.cli --outdir outdir *argv`` run as a
    process of the same spskit sources; a warning would show in its stderr."""
    result = subprocess.run([sys.executable, "-m", "spskit.cli", "--outdir", str(outdir), *argv],
                            capture_output=True, text=True, check=False, env=_child_env())
    return record(result.returncode, result.stdout, result.stderr, [], outdir, inputs)


# the default cavity, the fit with --snr, and a validation error in each mode
@pytest.mark.parametrize("name", ["cavity", "fit 005_correlation", "error", "error --error-json"])
def test_the_process_entry_writes_the_record(tmp_path, fit_inputs, name):
    inputs, fits = fit_inputs
    argv, inputs = (RUNS[name], None) if name in RUNS else (fits[name], inputs)
    assert process_outputs(argv, tmp_path / "out", inputs) == GOLDEN[name]


# The largest grids that config.SCHEMA accepts, each a cli.main run in
# process with its files written, traced after a first untraced run:
# qkd 3.6 MB, emitter 3.7 MB, fab 6.3 MB and mirror 6.0 MB with numpy 2.4,
# where a kernel over the whole grid at once reaches 109, 12, 91 and 56 MB.
# Each budget leaves a fifth on top.
MEMORY_BUDGETS = {
    "qkd fiber 0-1000 km step=0.1": 4_300_000,
    "emitter points=500": 4_400_000,
    "fab 1001 px": 7_600_000,
    "mirror 200-2000 nm step=0.01": 7_200_000,
}


@pytest.mark.parametrize("name", list(MEMORY_BUDGETS))
def test_the_largest_grids_stay_within_their_memory_budget(tmp_path, name):
    argv = ["--outdir", str(tmp_path), *RUNS[name]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < MEMORY_BUDGETS[name], peak
