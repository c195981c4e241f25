"""spskit benchmark: what a user waits on, from outside the program.

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the package is
taken from its ``src`` directory, so nothing needs installing.

``--trace 0`` times the workload's batch of CLI invocations, each as a
subprocess ``python -m spskit.cli`` in a closed loop with one client (the
next invocation starts when the previous one has exited), and reports
the end-to-end metrics. The speed of a shared host drifts by tens of
percent within seconds and between runs, so every timed child is
bracketed by runs of a reference child that starts the same interpreter
and imports numpy and scipy.optimize but no spskit code. A child's wall
time is reported rescaled to the host speed at which the reference takes
``REFERENCE_NOMINAL_S``, by the mean of the two reference runs around it;
the raw wall times are kept on the detail line. The pass runs on one CPU
of those it may use, so that the reference runs and the children share
it: the speed of a shared host's CPUs drifts separately.

``--trace 1`` replays the same batch in process
through ``spskit.cli.main``, each invocation once untraced and once with
span wrappers around the public functions of every module, and reports
the per-layer metrics. Both modes check every output (see ``validate.py``).

The last line of standard output is the result object; the line before
it holds the environment, the batch and the notes behind the metrics.
Inputs and outputs live in a temporary directory under
``perfbench/runs``, which also keeps the span file of each traced pass.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import validate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3

# The reference child: interpreter start and the imports every CLI call
# pays, without spskit, so that no change to the program moves it.
REFERENCE_CODE = "import numpy, scipy.optimize"
# About its median wall time on the 2-core x86-64 box the benchmark was
# defined on (Python 3.11, numpy 2.4, scipy 1.17).
REFERENCE_NOMINAL_S = 0.70

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "latency_s.p50": "s",
    "latency_s.tail": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stdout, stderr, cwd: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=cwd, env=child_env())
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def time_child(argv: list[str], work: Path) -> float:
    code, wall, _ = spawn(argv, subprocess.DEVNULL, subprocess.DEVNULL, work)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} failed with exit code {code}")
    return wall


def time_import(work: Path) -> float:
    return time_child([sys.executable, "-c", "import spskit"], work)


def time_reference(work: Path) -> float:
    return time_child([sys.executable, "-c", REFERENCE_CODE], work)


def rescaled(walls: list[float], references: list[float]) -> list[float]:
    """Each wall time at the host speed where the reference takes
    REFERENCE_NOMINAL_S; ``references[i]`` and ``references[i + 1]`` are
    the reference runs just before and just after ``walls[i]``."""
    return [wall * REFERENCE_NOMINAL_S / ((before + after) / 2.0)
            for wall, before, after in zip(walls, references, references[1:])]


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, as
    (percentile, value); with fewer than 20 samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 10 if n >= 20 else n
    return 100.0 * rank / n, ordered[rank - 1]


def timed_pass(batch, work: Path, validator) -> tuple[dict, dict, list]:
    """End-to-end metrics of one closed-loop pass over the batch."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # inherited by every child
    time_import(work)  # compiles the package's bytecode; not timed
    time_reference(work)  # fills the page cache; not timed

    # One chain: reference, child, reference, child, ..., reference.
    references = [time_reference(work)]
    setup = []
    for _ in range(SETUP_REPEATS):
        setup.append(time_import(work))
        references.append(time_reference(work))

    records = []
    first_spawn = time.perf_counter()
    for i, inv in enumerate(batch):
        outdir = work / "out" / str(i)
        with open(work / f"{i}.stdout", "wb") as out, open(work / f"{i}.stderr", "wb") as err:
            code, wall, rss = spawn(
                [sys.executable, "-m", "spskit.cli", "--outdir", str(outdir), *inv.args],
                out, err, work)
        records.append((code, wall, rss))
        references.append(time_reference(work))
    batch_wall = time.perf_counter() - first_spawn

    failures = {}
    for i, (inv, (code, _, _)) in enumerate(zip(batch, records)):
        stderr = (work / f"{i}.stderr").read_text(encoding="utf-8", errors="replace")
        problems = validator.check(inv, work / "out" / str(i), code, stderr)
        if problems:
            failures[f"{i}: {inv.key}"] = problems

    walls = [wall for _, wall, _ in records]
    scaled = rescaled(setup + walls, references)
    setup_scaled, latencies = scaled[:SETUP_REPEATS], scaled[SETUP_REPEATS:]
    pct, tail = tail_percentile(latencies)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "run_s": sum(latencies),
        "latency_s.p50": statistics.median(latencies),
        "latency_s.tail": tail,
        "peak_rss_mb": max(rss for _, _, rss in records),
    }
    notes = {
        "setup_repeats": SETUP_REPEATS,
        "cpu": cpu,
        "latency_s.tail": {"percentile": pct, "samples": len(latencies)},
        "reference": {"code": REFERENCE_CODE, "nominal_s": REFERENCE_NOMINAL_S,
                      "median_s": statistics.median(references), "runs": len(references)},
        "wall_s": {"setup_s": statistics.median(setup), "run_s": sum(walls),
                   "latency_s.p50": statistics.median(walls),
                   "latency_s.tail": tail_percentile(walls)[1],
                   "batch_with_references": batch_wall},
    }
    return metrics, notes, failures


def run_in_process(cli, inv, outdir: Path) -> tuple[float, int, str]:
    """One invocation through ``cli.main``: (wall seconds, exit code, traceback).
    The clock runs around the call alone, so that the harness adds nothing
    to the time the root span is compared with."""
    argv = ["--outdir", str(outdir), *inv.args]
    sink = io.StringIO()
    failure = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback: the invocation failed; keep replaying
            code, failure = -1, exc
        wall = time.perf_counter() - start
    error = "".join(traceback.format_exception(failure)) if failure else ""
    return wall, code, error


def import_times(work: Path) -> tuple[float, float]:
    """Median cumulative import time of spskit and of scipy.optimize under it,
    from ``python -X importtime``."""
    pkg, sp = [], []
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spskit"],
                             capture_output=True, text=True, cwd=work, env=child_env(),
                             check=True).stderr
        cumulative = {}
        for line in out.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        pkg.append(cumulative["spskit"])
        sp.append(cumulative.get("scipy.optimize", 0.0))
    return statistics.median(pkg), statistics.median(sp)


def traced_pass(batch, work: Path, validator, workload: str, seed: int):
    """Per-layer metrics of an in-process replay with span wrappers on."""
    import_s, import_scipy_s = import_times(work)
    sys.path.insert(0, str(SRC))
    from spskit import cli

    # Each invocation runs untraced and traced back to back, so that slow
    # spells of the host fall on both sides of the overhead ratio; which
    # goes first alternates, since a repeat runs warmer than a first call.
    tracer = tracing.Tracer()
    untraced, walls, codes, errors = [], [], [], []
    for i, inv in enumerate(batch):
        if i % 2:
            untraced.append(run_in_process(cli, inv, work / "untraced" / str(i))[0])
        tracer.invocation = i
        tracer.install()
        try:
            wall, code, error = run_in_process(cli, inv, work / "traced" / str(i))
        finally:
            tracer.uninstall()
        if not i % 2:
            untraced.append(run_in_process(cli, inv, work / "untraced" / str(i))[0])
        walls.append(wall)
        codes.append(code)
        errors.append(error)
    span_file = RUNS / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(span_file)

    failures = {}
    written = 0
    for i, inv in enumerate(batch):
        outdir = work / "traced" / str(i)
        if outdir.is_dir():
            written += sum(p.stat().st_size for p in outdir.iterdir())
        problems = validator.check(inv, outdir, codes[i], errors[i])
        if problems:
            failures[f"{i}: {inv.key}"] = problems

    metrics, notes = tracing.layer_metrics(tracer, walls)
    metrics.update({
        "spskit.import_s": import_s,
        "spskit.import_scipy_s": import_scipy_s,
        "cli.bytes_written": written,
        "trace.overhead_frac": sum(walls) / sum(untraced) - 1.0,
    })
    notes["span_file"] = str(span_file.relative_to(ROOT))
    notes["spans"] = len(tracer.spans)
    return metrics, notes, failures


def environment(seed: int, batch_size: int) -> dict:
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git installed
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "seed": seed,
        "runs": 1,
        "invocations_per_run": batch_size,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: spawn() kills and reaps its child, and the
    # temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "spskit" / "cli.py").is_file():
        print(f"error: no spskit sources at {SRC}; run inside a checkout of the repository",
              file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    validator = validate.Validator()
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        work = Path(tmp)
        batch = workloads.build(args.workload, args.seed, args.seconds, work / "inputs")
        env = environment(args.seed, len(batch))  # before the timed pass pins the CPU
        if args.trace:
            metrics, notes, failures = traced_pass(batch, work, validator,
                                                   args.workload, args.seed)
            units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
        else:
            metrics, notes, failures = timed_pass(batch, work, validator)
            units = END_TO_END

    failed = len(failures)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "batch": workloads.describe(batch),
        "failed_frac": {"value": failed / len(batch), "unit": "ratio"},
        "notes": notes,
        "failures": failures,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(batch),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
