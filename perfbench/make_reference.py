"""Write ``reference.json``: the outputs of every design-sweep variant.

Run from the repository root with ``python3 perfbench/make_reference.py``.
Regenerate only when an output is meant to change, and say so in the
change that does it; the benchmark compares against this file.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spskit import cli  # noqa: E402

from validate import REFERENCE_PATH, summarize  # noqa: E402
from workloads import all_design_variants  # noqa: E402


def main() -> int:
    reference = {}
    variants = all_design_variants()
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs) as tmp:
        for i, inv in enumerate(variants):
            outdir = Path(tmp) / str(i)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--outdir", str(outdir), *inv.args])
            if code != 0:
                print(f"{inv.key}: exit code {code}", file=sys.stderr)
                return 1
            reference[inv.key] = summarize(outdir)
            print(f"{i + 1}/{len(variants)} {inv.key}", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
