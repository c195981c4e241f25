"""Every run of the output corpus writes what ``golden_outputs.json``
recorded: the same exit code, stdout, stderr, warnings and file bytes.
The record holds on the default code paths only (see
``record_golden_outputs``)."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from record_golden_outputs import FIT_RUNS, GOLDEN_PATH, RUNS, fit_runs, outputs, record
from test_config_cli import _child_env

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_the_corpus_records_every_run():
    assert list(GOLDEN) == list(RUNS) + FIT_RUNS


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
