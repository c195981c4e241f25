"""Every run of the output corpus writes what ``golden_outputs.json``
recorded: the same exit code, stdout and file bytes."""
import json

import pytest

from record_golden_outputs import GOLDEN_PATH, RUNS, outputs

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_the_corpus_records_every_run():
    assert list(GOLDEN) == list(RUNS)


@pytest.mark.parametrize("name", list(RUNS))
def test_run_matches_its_record(tmp_path, name):
    assert outputs(RUNS[name], tmp_path / "out") == GOLDEN[name]
