"""Re-record ``golden_outputs.json``: what each run in ``RUNS`` and
``FIT_RUNS`` writes.

Each run is one in-process ``cli.main`` call into a fresh output folder.
Its record is the exit code, stdout and stderr with the output folder
masked, the messages of the warnings it raised, and the sha256 of every
file written. A ``fit`` or ``fab --profile`` reads series, and a ``qkd
--config`` its scenario file, that ``fit_runs`` writes into an input
folder; that folder is masked in its output too, in the bytes of
``fit_report.json`` (whose ``input`` names the series) as in stdout.
``test_golden_outputs.py`` compares the same runs against the file, and
replays a few as ``python -m spskit.cli`` processes, whose records
``record`` builds the same way.

No run calls a BLAS or LAPACK routine, so every record holds under each
OpenBLAS kernel setting of ROADMAP item 12 (``OPENBLAS_CORETYPE``). Only
numpy's CPU-feature setting moves records: with its AVX-512 loops off,
``exp``, ``log`` and ``arctan2`` move in their last bits, and so do the
fits whose models take them and ``reproduce``, the two 0-1000 km ``qkd``
grids at 0.1 km and free space under ``friis`` (a rate cell in its 10th
digit), while every ``cavity`` run holds.

Run from the repository root with ``python tests/record_golden_outputs.py``
to re-record every run, or with ``python tests/record_golden_outputs.py
NAME [NAME ...]`` to re-record only the named ``RUNS`` and ``FIT_RUNS``
entries: every other record stays as stored, the file keeps the
``list(RUNS) + FIT_RUNS`` order, and an unknown name exits 1. A run new
to ``RUNS`` is recorded by naming it. Re-record only when an output is
meant to change, and state every delta in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_outputs.json"
sys.path.insert(0, str(HERE.parent / "perfbench"))

import workloads  # noqa: E402  (read only: the fit-batch series generator)

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
# every layer in one process, and a validation error in each error mode
RUNS["reproduce --draws 100"] = ("reproduce", "--draws", "100")
RUNS["error"] = ("--set", "cavity.wavelength_nm=-1", "cavity")
RUNS["error --error-json"] = ("--error-json", *RUNS["error"])
# a numerical failure (exit 2): no first-order resonance, in each error mode
RUNS["numerical error"] = ("--set", "cavity.longitudinal_order=1", "cavity")
RUNS["numerical error --error-json"] = ("--error-json", *RUNS["numerical error"])


def _set(*assignments: str) -> tuple[str, ...]:
    return tuple(arg for assignment in assignments for arg in ("--set", assignment))


# The other subcommands at their defaults (the dose map has no default
# calibration; 0.5 nm/unit is the design sweep's), the cheapest and the
# dearest of their design-sweep variants, and the largest grids that
# ``config.SCHEMA`` accepts: 180,001 mirror wavelengths, a 500 x 500
# indistinguishability map, 10,001 QKD sweep rows on each channel and a
# 1,001 x 1,001 pixel dose map.
FAB = _set("fab.calibration_nm_per_unit=0.5")
RUNS["mirror"] = ("mirror",)
RUNS["emitter"] = ("emitter",)
RUNS["qkd"] = ("qkd",)
RUNS["fab"] = (*FAB, "fab")
RUNS["mirror pairs=6 step=1.0"] = (*_set("mirror.pairs=6", "mirror.wl_step_nm=1.0"), "mirror")
RUNS["mirror pairs=12 step=0.25"] = (*_set("mirror.pairs=12", "mirror.wl_step_nm=0.25"),
                                     "mirror")
for _points in (100, 300, 500):
    RUNS[f"emitter points={_points}"] = (*_set(f"emitter.map_points={_points}"), "emitter")
RUNS["qkd fiber step=1.0"] = (*_set("qkd.channel=fiber", "qkd.sweep_step_km=1.0"), "qkd")
RUNS["qkd freespace step=0.25"] = (*_set("qkd.channel=freespace", "qkd.sweep_step_km=0.25"),
                                   "qkd")
for _pitch in (40, 10):
    RUNS[f"fab pitch={_pitch}"] = (*FAB, *_set(f"fab.pitch_nm={_pitch}"), "fab")
RUNS["mirror 200-2000 nm step=0.01"] = (
    *_set("mirror.wl_min_nm=200", "mirror.wl_max_nm=2000", "mirror.wl_step_nm=0.01"), "mirror")
for _channel in ("fiber", "freespace"):
    RUNS[f"qkd {_channel} 0-1000 km step=0.1"] = (
        *_set(f"qkd.channel={_channel}", "qkd.sweep_start_km=0", "qkd.sweep_stop_km=1000",
              "qkd.sweep_step_km=0.1"), "qkd")
RUNS["fab 1001 px"] = (*_set("fab.aperture_um=10", "fab.radius_um=10", "fab.pitch_nm=10",
                             "fab.calibration_nm_per_unit=100"), "fab")

# A geometry past the stability limit, rejected by ``cavity`` and by
# ``emitter`` in each error mode; free space under the two other
# divergence models; and the config provenance table.
for _command in ("cavity", "emitter"):
    RUNS[f"{_command} unstable"] = (*_set("cavity.radius_of_curvature_um=2"), _command)
    RUNS[f"{_command} unstable --error-json"] = ("--error-json", *RUNS[f"{_command} unstable"])
for _model in ("calibrated", "friis"):
    RUNS[f"qkd freespace {_model}"] = (
        *_set("qkd.channel=freespace", f"qkd.divergence_model={_model}"), "qkd")
RUNS["provenance"] = ("provenance",)

# The Poissonian sources at their fixed intensity, and a free-space
# receiver smaller than its transmitter, whose 0 km row is a loss too.
RUNS["qkd mu_mode=fixed"] = (*_set("qkd.mu_mode=fixed"), "qkd")
RUNS["qkd freespace receive_aperture=0.01"] = (
    *_set("qkd.channel=freespace", "qkd.receive_aperture_m=0.01"), "qkd")

# The fit-batch workload's first two fits of each kind at FIT_SEED, named
# by their input: the largest size of each kind and one drawn below it,
# one spectrum with --scan-range and one without, one correlation with
# --snr and one without.
FIT_SEED = 2800
FIT_RUNS = [f"fit {i:03d}_{kind}" for i, kind in enumerate(2 * list(workloads.FIT_SIZES))]
# Four series written apart from the workload's: the input of "fit
# 006_spectrum" with CRLF line ends and a comment among its rows, a
# hemisphere profile with seeded 1 nm noise for ``fab --profile``, a
# correlation without bunching on the workload's 1,601-delay grid, whose
# fit selects the plain model, and one of bunching alone on that grid,
# whose fits hold the antibunching amplitude at its bound 0 by the
# constrained coefficient solve; and a fast decay, 40 ps on 1,024 bins of
# 12 ps behind a Gaussian IRF: its dt/tau = 0.3, where the workload's
# decays reach 0.06 at most. Last, a scenario file in the same folder: free
# space out to 200 km for an emitter line at 600 nm, which the link reads.
FIT_RUNS += ["fit 006_spectrum CRLF with a note", "fab --profile",
             "fit correlation without bunching", "fit correlation of bunching alone",
             "fit fast decay", "qkd --config freespace to 200 km"]


def fit_runs(inputs: Path) -> dict[str, tuple[str, ...]]:
    """Writes the series of ``FIT_RUNS`` into ``inputs``: each run's argv."""
    from spskit.fab import synthetic_hemisphere_profile
    from spskit.specfit import g2_model

    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(FIT_SEED)
    argvs = [invocation.args for invocation in workloads.fit_batch(rng, 2, inputs)]
    spectrum, crlf = inputs / "006_spectrum.csv", inputs / "006_spectrum_crlf.csv"
    lines = spectrum.read_text(encoding="utf-8").splitlines()
    lines.insert(len(lines) // 2, "# note: second scan")
    crlf.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
    argvs.append(tuple(str(crlf) if arg == str(spectrum) else arg for arg in argvs[6]))
    profile = inputs / "profile.csv"
    x, z = synthetic_hemisphere_profile(2.7, 2.4, 101, rng.normal(0.0, 1.0, 101)).as_arrays()
    profile.write_text("x_um,z_nm\n" + "".join(f"{a:.10g},{b:.10g}\n" for a, b in zip(x, z)),
                       encoding="utf-8")
    argvs.append(("fab", "--profile", str(profile)))
    plain = inputs / "plain_correlation.csv"
    tau = np.linspace(-30000.0, 30000.0, workloads.FIT_SIZES["correlation"][0])
    workloads.write_series(plain, "correlation", tau, g2_model(tau, 0.8, 0.0, 700.0, 5000.0)
                           + rng.uniform(-0.01, 0.01, tau.size))
    argvs.append(("fit", "--input", str(plain)))
    bunching = inputs / "bunching_correlation.csv"
    workloads.write_series(bunching, "correlation", tau,
                           1.0 + 0.1 * np.exp(-np.abs(tau) / 2000.0)
                           + rng.uniform(-0.01, 0.01, tau.size))
    argvs.append(("fit", "--input", str(bunching)))
    fast, fast_irf = inputs / "fast_decay.csv", inputs / "fast_decay_irf.csv"
    t = 12.0 * np.arange(1024)
    irf = np.exp(-0.5 * ((t - 600.0) / (60.0 / 2.3548)) ** 2)
    clean = 8000.0 * np.convolve(irf / irf.sum(), np.exp(-t / 40.0))[:t.size]
    workloads.write_series(fast, "decay", t, rng.poisson(clean).astype(float))
    workloads.write_series(fast_irf, "decay", t, irf)
    argvs.append(("fit", "--input", str(fast), "--irf", str(fast_irf)))
    scenario = inputs / "freespace.ini"
    scenario.write_text("[qkd]\nchannel = freespace\nsweep_stop_km = 200\n\n"
                        "[emitter]\nzpl_wavelength_nm = 600\n", encoding="utf-8")
    argvs.append(("--config", str(scenario), "qkd"))
    return dict(zip(FIT_RUNS, argvs, strict=True))


def outputs(argv, outdir: Path, inputs: Path | None = None) -> dict:
    """The record of ``cli.main(["--outdir", outdir, *argv])``, with the
    folder ``inputs`` of its input series masked."""
    from spskit import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = cli.main(["--outdir", str(outdir), *argv])
    return record(code, stdout.getvalue(), stderr.getvalue(),
                  [str(w.message) for w in caught], outdir, inputs)


def record(code: int, stdout: str, stderr: str, warned: list[str], outdir: Path,
           inputs: Path | None = None) -> dict:
    """The record of a run that exited with ``code``, printed ``stdout`` and
    ``stderr``, raised the warnings ``warned`` and wrote into ``outdir``,
    with ``outdir`` and the folder ``inputs`` of its input series masked."""
    masks = [(str(outdir), "<outdir>")] + ([] if inputs is None else [(str(inputs), "<inputs>")])

    def masked(text: str) -> str:
        for path, mask in masks:
            text = text.replace(path, mask)
        return text

    # latin-1 maps each byte to one character and back
    files = {path.name: hashlib.sha256(masked(path.read_bytes().decode("latin-1"))
                                       .encode("latin-1")).hexdigest()
             for path in sorted(outdir.iterdir())} if outdir.exists() else {}
    return {"exit_code": code, "stdout": masked(stdout), "stderr": masked(stderr),
            "warnings": [masked(message) for message in warned], "files": files}


def main(names: list[str]) -> int:
    """Re-records the runs named in ``names``, or every run if it is empty."""
    sys.path.insert(0, str(HERE.parent / "src"))
    unknown = [name for name in names if name not in RUNS and name not in FIT_RUNS]
    if unknown:
        print(f"unknown runs: {unknown}", file=sys.stderr)
        return 1
    golden = json.loads(GOLDEN_PATH.read_text()) if names else {}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        runs = {**RUNS, **fit_runs(inputs)}
        for i, name in enumerate(runs):
            if not names or name in names:
                golden[name] = outputs(runs[name], Path(tmp) / str(i),
                                       inputs if name in FIT_RUNS else None)
    golden = {name: golden[name] for name in runs}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
