"""Every ``spskit`` command in the README's command-line block runs as written.

Each command is passed to ``cli.main`` from a fresh working directory that
holds the measurement files the README names (``line.csv``, ``g2.csv`` and
``scan.csv``), so relative paths and the default ``out/`` resolve there.
"""
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from spskit.cli import main
from spskit.fab import synthetic_hemisphere_profile
from spskit.specfit import g2_model, lorentzian

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The ``spskit ...`` lines of the first sh block under "Command line"."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line.strip() for line in block.splitlines() if line.startswith("spskit ")]


def write_csv(path: Path, x, y, kind: str | None = None) -> None:
    # float(v)!r: a numpy scalar's repr is "np.float64(...)", which the
    # reader cannot parse
    lines = [f"# kind={kind}"] if kind else []
    lines.append("x,y")
    lines += [f"{float(xv)!r},{float(yv)!r}" for xv, yv in zip(x, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(folder: Path) -> None:
    x = np.linspace(560.0, 572.0, 301)
    write_csv(folder / "line.csv", x, lorentzian(x, 566.0, 0.5, 900.0, 10.0), "spectrum")
    tau = np.linspace(-20000.0, 20000.0, 801)
    write_csv(folder / "g2.csv", tau, 140.0 * g2_model(tau, 0.9, 0.05, 600.0, 5000.0),
              "correlation")
    write_csv(folder / "scan.csv", *synthetic_hemisphere_profile(2.7, 2.4, 101, 0.0).as_arrays())


def test_readme_lists_commands():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("command", readme_commands())
def test_command_runs_as_written(tmp_path, monkeypatch, capsys, command):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command, comments=True)
    assert argv[0] == "spskit"
    assert main(argv[1:]) == 0, capsys.readouterr().err
