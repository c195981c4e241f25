"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed batch of CLI invocations made from ``--seed``;
the same seed gives the same batch, files and flags. The batch size is
set from ``--seconds`` through nominal per-invocation costs measured on a
2-core x86-64 box (Python 3.11, numpy 2.4, scipy 1.17), so one batch
fills about ``--seconds`` there; on other hardware the batch keeps its
size and only its wall time changes.

design-sweep
    Rounds of ``mirror``, ``cavity``, ``emitter``, ``qkd`` and ``fab``, each
    with seeded ``--set`` variants drawn from the discrete sets in
    ``DESIGN_VARIANTS``. Every value there passes the subcommand's
    validation at the commit that introduced the benchmark, and
    ``reference.json`` holds that commit's outputs for each combination.
    Each value list is ordered by cost and split into one stratum per
    round; the seed picks a value inside each stratum and the round it
    lands in. The strata of a subcommand's keys stay together, so its
    cheapest strata meet in one round and its dearest in another: every
    batch spans the same cost range and its wall time barely depends on
    the seed.

fit-batch
    ``fit`` on synthetic measurement CSVs of all four kinds, with sizes
    stratified over ``FIT_SIZES`` (decay histograms with an IRF file,
    g2 series, spectra with and without ``--scan-range``, polarization
    scans); the largest size of each kind is in every batch, and the
    largest decay histogram is generated at mid-range parameters. The
    generating parameters follow the ranges of the reproduction table's
    fit round-trips (checks 7a-7f) and are kept as the truth the fitted
    values are checked against.

reproduce
    ``reproduce --draws 100``: every layer in one process, with the
    import paid once. The command takes no inputs, so the seed changes
    nothing here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("design-sweep", "fit-batch", "reproduce")

# Nominal wall time of one unit of each workload on the reference box, in
# seconds: a design round (five subcommands), four fits (one per kind),
# one reproduce call; each with the 0.7 s reference run that follows every
# invocation in a timed pass (see run.py).
NOMINAL_S = {"design-sweep": 11.5, "fit-batch": 8.0, "reproduce": 8.7}

# Values are ordered by cost, cheapest first. With three rounds the
# dearest value of each five-value list forms a stratum of its own, so
# every batch holds the largest indistinguishability map and dose map.
# Cavity orders of 10 and more are rejected (q*lam/2 exceeds the mirror
# radius); at 560 and 570 nm, and at 562.5 and 567.5 nm for orders 4-5,
# the resonance falls outside the +-1.5 nm scanned spectrum.
DESIGN_VARIANTS: dict[str, dict[str, list]] = {
    "mirror": {"mirror.pairs": [6, 7, 8, 9, 10, 11, 12],
               "mirror.wl_step_nm": [1.0, 0.5, 0.25]},
    "cavity": {"cavity.longitudinal_order": [6, 7, 8, 9],
               "cavity.wavelength_nm": [562.5, 565.0, 565.85, 567.5]},
    "emitter": {"emitter.map_points": [100, 150, 200, 250, 300]},
    "qkd": {"qkd.channel": ["fiber", "freespace"],
            "qkd.sweep_step_km": [1.0, 0.5, 0.25]},
    "fab": {"fab.pitch_nm": [40.0, 30.0, 20.0, 15.0, 10.0]},
}
# The dose map has no default calibration; 0.5 nm/unit fits the default
# 2.7 um hemisphere (the README's example).
FIXED_SETS = {"fab": ("fab.calibration_nm_per_unit=0.5",)}

# Series lengths, (smallest, largest).
FIT_SIZES = {
    "decay": (1024, 8192),
    "correlation": (1601, 8001),
    "spectrum": (301, 4001),
    "polarization": (73, 361),
}
DECAY_WINDOW_PS = 12288.0


@dataclass(frozen=True)
class Invocation:
    """One CLI call: the subcommand (which picks its validator) and its
    arguments, ``--outdir`` excepted."""

    command: str
    args: tuple[str, ...]
    truth: dict = field(default_factory=dict, compare=False)

    @property
    def key(self) -> str:
        """Stable name of the variant, used to look up reference outputs."""
        return " ".join(self.args)


def batch_units(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_S[workload]))


def build(workload: str, seed: int, seconds: int, inputs: Path) -> list[Invocation]:
    """The workload's batch; input files are written under ``inputs``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    units = batch_units(workload, seconds)
    if workload == "design-sweep":
        return design_sweep(rng, units)
    if workload == "fit-batch":
        inputs.mkdir(parents=True, exist_ok=True)
        return fit_batch(rng, units, inputs)
    if workload == "reproduce":
        return [Invocation("reproduce", ("reproduce", "--draws", "100"))] * units
    raise ValueError(f"unknown workload {workload!r}")


def stratified(rng: np.random.Generator, values: list, k: int) -> list:
    """k values, one from each of k cost strata of ``values``, cheapest first."""
    if len(values) < k:  # fewer values than strata: each value, in seeded order
        return [values[i % len(values)] for i in rng.permutation(k)]
    return [values[group[rng.integers(len(group))]]
            for group in np.array_split(np.arange(len(values)), k)]


def design_args(command: str, settings: dict) -> tuple[str, ...]:
    sets = [f"{key}={value}" for key, value in settings.items()]
    sets += FIXED_SETS.get(command, ())
    args: list[str] = []
    for item in sets:
        args += ["--set", item]
    return (*args, command)


def design_sweep(rng: np.random.Generator, rounds: int) -> list[Invocation]:
    draws = {}
    for cmd, space in DESIGN_VARIANTS.items():
        order = rng.permutation(rounds)
        draws[cmd] = {key: [stratified(rng, values, rounds)[i] for i in order]
                      for key, values in space.items()}
    batch = []
    for r in range(rounds):
        for cmd, params in draws.items():
            settings = {key: picks[r] for key, picks in params.items()}
            batch.append(Invocation(cmd, design_args(cmd, settings)))
    return batch


def all_design_variants() -> list[Invocation]:
    """Every design-sweep invocation a seed can produce."""
    out = []
    for cmd, space in DESIGN_VARIANTS.items():
        keys = list(space)
        for combo in np.ndindex(*(len(space[k]) for k in keys)):
            settings = {k: space[k][i] for k, i in zip(keys, combo)}
            out.append(Invocation(cmd, design_args(cmd, settings)))
    return out


# ---------------------------------------------------------------------------
# fit-batch: synthetic measurements
# ---------------------------------------------------------------------------

def write_series(path: Path, kind: str, x: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# kind={kind}\nx,y\n")
        fh.writelines(f"{a:.10g},{b:.10g}\n" for a, b in zip(x, y))


def lorentzian(x, center, fwhm, amplitude, offset=0.0):
    half = fwhm / 2.0
    return amplitude * half ** 2 / ((x - center) ** 2 + half ** 2) + offset


def sinc2_broadened(x, center, fwhm, amplitude, offset, scan_range_per_nm):
    """Lorentzian seen through the sinc^2 finite-scan instrument on the grid
    of x: a kernel of about len(x) samples, normalized to unit sum, applied
    to the line extended by half a kernel on each side."""
    dx = (x[-1] - x[0]) / (len(x) - 1)
    half_n = max(1, len(x) // 2)
    kern = np.sinc(scan_range_per_nm * np.arange(-half_n, half_n + 1) * dx) ** 2
    kern /= kern.sum()
    wide = x[0] + dx * np.arange(-half_n, len(x) + half_n)
    line = np.convolve(lorentzian(wide, center, fwhm, amplitude), kern, mode="valid")
    return line + offset


def spectrum(rng, n, path, with_instrument):
    center = rng.uniform(520.0, 570.0)
    fwhm = rng.uniform(0.5, 12.0)
    amp = rng.uniform(50.0, 5000.0)
    off = rng.uniform(0.0, 0.1) * amp
    # a grid of 1e-6 nm steps from a 1e-3 nm start stays uniform after the
    # CSV round trip, as the instrument convolution requires
    step = round(12.0 * fwhm / (n - 1), 6)
    x = round(center - 6.0 * fwhm, 3) + step * np.arange(n)
    args = ()
    if with_instrument:
        # instrument FWHM (0.886/scale) between 0.3 and 0.9 line widths
        scale = 0.886 / (rng.uniform(0.3, 0.9) * fwhm)
        y = sinc2_broadened(x, center, fwhm, amp, off, scale)
        args = ("--scan-range", f"{scale:.12g}")
    else:
        y = lorentzian(x, center, fwhm, amp, off)
    y = y + rng.uniform(-0.005, 0.005, n) * amp
    write_series(path, "spectrum", x, y)
    return args, {"center_nm": center, "fwhm_nm": fwhm}


def decay(rng, n, path, typical):
    """A decay histogram with its IRF file; with ``typical``, at the middle
    of the parameter ranges. The fit's cost depends on them: at 8192 bins
    a 350 ps lifetime costs twice a 1.9 ns one."""
    if typical:
        lifetime, irf_fwhm, irf_center = 1100.0, 110.0, 450.0
    else:
        lifetime = rng.uniform(200.0, 2000.0)
        irf_fwhm = rng.uniform(60.0, 160.0)
        irf_center = rng.uniform(300.0, 600.0)
    # bin width to 1 fs, so the grid stays uniform after the CSV round trip
    t = np.arange(n) * round(DECAY_WINDOW_PS / n, 3)
    irf = np.exp(-0.5 * ((t - irf_center) / (irf_fwhm / 2.3548)) ** 2)
    clean = 8000.0 * np.convolve(irf / irf.sum(), np.exp(-t / lifetime))[:n]
    counts = rng.poisson(np.clip(clean, 0.0, None)).astype(float)
    irf_path = path.with_name(path.stem + "_irf.csv")
    write_series(path, "decay", t, counts)
    write_series(irf_path, "decay", t, irf)
    return ("--irf", str(irf_path)), {"lifetime_ps": lifetime}


def correlation(rng, n, path, with_snr):
    anti = rng.uniform(0.6, 1.0)
    bunch = rng.uniform(0.0, 0.15)
    t1 = rng.uniform(300.0, 1200.0)
    t2 = rng.uniform(4000.0, 9000.0)
    tau = np.linspace(-30000.0, 30000.0, n)
    g2 = 1.0 - anti * np.exp(-np.abs(tau) / t1) + bunch * np.exp(-np.abs(tau) / t2)
    g2 = g2 + rng.uniform(-0.01, 0.01, n)
    write_series(path, "correlation", tau, g2)
    truth = {"antibunching_amplitude": anti}
    args = ()
    if with_snr:
        snr = rng.uniform(5.0, 50.0)
        args = ("--snr", f"{snr:.12g}")
        truth["snr"] = float(f"{snr:.12g}")
    return args, truth


def polarization(rng, n, path):
    dop = rng.uniform(0.3, 0.98)
    axis = rng.uniform(0.0, 180.0)
    total = rng.uniform(100.0, 1000.0)
    a = total * dop
    b = a * (1.0 - dop) / (2.0 * dop)
    theta = np.linspace(0.0, 360.0, n)
    pol = a * np.cos(np.radians(theta - axis)) ** 2 + b
    pol = pol + rng.uniform(-0.002, 0.002, n) * (a + b)
    write_series(path, "polarization", theta, pol)
    return (), {"degree_of_polarization": dop}


def fit_batch(rng: np.random.Generator, per_kind: int, inputs: Path) -> list[Invocation]:
    slots = {}
    for kind, (lo, hi) in FIT_SIZES.items():
        order = rng.permutation(per_kind)
        # the top stratum is the largest size itself, so that the slowest
        # fits of a batch do not depend on the seed
        slots[kind] = [(int(s), hi if s == per_kind - 1 else
                        round(lo + (hi - lo) * (s + rng.uniform()) / per_kind))
                       for s in order]
    batch = []
    for i in range(per_kind):
        for kind, kind_slots in slots.items():
            stratum, n = kind_slots[i]
            path = inputs / f"{len(batch):03d}_{kind}.csv"
            # even strata get the instrument kernel / the SNR correction, so
            # both variants span the size range in every batch
            variant = stratum % 2 == 0
            if kind == "spectrum":
                extra, truth = spectrum(rng, n, path, variant)
            elif kind == "decay":
                extra, truth = decay(rng, n, path, n == FIT_SIZES["decay"][1])
            elif kind == "correlation":
                extra, truth = correlation(rng, n, path, variant)
            else:
                extra, truth = polarization(rng, n, path)
            truth.update(kind=kind, points=n)
            batch.append(Invocation("fit", ("fit", "--input", str(path), *extra), truth))
    (inputs / "truth.json").write_text(
        json.dumps([inv.truth for inv in batch], indent=1), encoding="utf-8")
    return batch


def describe(batch: list[Invocation]) -> dict:
    """Short summary of a batch for the benchmark's detail line."""
    counts: dict[str, int] = {}
    for inv in batch:
        counts[inv.command] = counts.get(inv.command, 0) + 1
    sizes = [inv.truth["points"] for inv in batch if "points" in inv.truth]
    out: dict = {"invocations": len(batch), "by_command": counts}
    if sizes:
        out["series_points"] = {"min": min(sizes), "max": max(sizes), "total": sum(sizes)}
    return out
