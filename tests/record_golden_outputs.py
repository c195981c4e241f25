"""Re-record ``golden_outputs.json``: what each run in ``RUNS`` writes.

Each run is one in-process ``cli.main`` call into a fresh output folder.
Its record is the exit code, stdout with the output folder masked, and
the sha256 of every file written. ``test_golden_outputs.py`` compares
the same runs against the file.

Run from the repository root with ``python tests/record_golden_outputs.py``.
Re-record only when an output is meant to change, and state every delta
in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_outputs.json"

# ``cavity`` at the defaults, the design sweep's 16 order x wavelength
# variants, and mirror reflectivities whose half-maximum crossings lie
# inside (0.97), just outside (0.8) and far outside (0.5) the sampled
# spectrum, or nowhere within reach (0.3).
RUNS: dict[str, tuple[str, ...]] = {"cavity": ("cavity",)}
for _order in (6, 7, 8, 9):
    for _wavelength in (562.5, 565.0, 565.85, 567.5):
        RUNS[f"cavity q={_order} lam={_wavelength}"] = (
            "--set", f"cavity.longitudinal_order={_order}",
            "--set", f"cavity.wavelength_nm={_wavelength}", "cavity")
for _reflectivity in (0.3, 0.5, 0.8, 0.97):
    RUNS[f"cavity R={_reflectivity}"] = (
        "--set", f"cavity.effective_mirror_reflectivity={_reflectivity}", "cavity")


def outputs(argv, outdir: Path) -> dict:
    """The record of ``cli.main(["--outdir", outdir, *argv])``."""
    from spskit import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["--outdir", str(outdir), *argv])
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(outdir.iterdir())} if outdir.exists() else {}
    return {"exit_code": code, "stdout": stdout.getvalue().replace(str(outdir), "<outdir>"),
            "files": files}


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: outputs(argv, Path(tmp) / str(i))
                  for i, (name, argv) in enumerate(RUNS.items())}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
