"""Outside-in tracing of spskit's public functions for the traced pass.

Wrappers are installed by replacing module attributes, from the
benchmark's own files; the program is not edited. Every call the CLI or
``reproduce`` makes through a module attribute is seen: ``cli.cmd_*``
reach the layers as ``optics.reflectance(...)`` and so on, the layers
call each other through their module globals, and ``cli`` holds its own
bindings of ``load_scenario`` and ``apply_overrides``.

A span records (name, start, end, parent span, invocation). Functions
called thousands of times per invocation are counted, not spanned.
Spans stay in memory until the pass ends.
"""
from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter
from pathlib import Path

OPTICS_SPANS = ("reflectance", "stopband", "resonant_gap", "cavity_spectrum",
                "calibrated_lossy_stack", "intracavity_field")
CAVITYMODE_FUNCTIONS = ("mode_volume", "finesse", "fsr_finesse_linewidth", "quality_factor",
                        "fsr_for_linewidth", "tune", "spectral_overlap")
FITTERS = ("fit_lorentzian", "fit_decay_with_irf", "fit_polarization")
CHECKS = ("check_coating", "check_cavity_spectrum", "check_penetration_depth",
          "check_mode_volume", "check_purcell_chain", "check_indistinguishability",
          "check_fit_roundtrips", "check_qkd", "check_fab")

# (module, attribute, span name); the span name's first part is its layer.
SPANS = [
    ("cli", "main", "cli"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "write_json", "cli.write_json"),
    ("cli", "load_scenario", "config.load_scenario"),
    ("cli", "apply_overrides", "config.apply_overrides"),
    *[("optics", f, f"optics.{f}") for f in OPTICS_SPANS],
    *[("cavitymode", f, f"cavitymode.{f}") for f in CAVITYMODE_FUNCTIONS],
    ("emitter", "indistinguishability_map", "emitter.indistinguishability_map"),
    ("emitter", "kappa_for_target_indistinguishability",
     "emitter.kappa_for_target_indistinguishability"),
    *[("specfit", f, f"specfit.{f}") for f in (*FITTERS, "fit_g2")],
    ("specfit", "convolve_decay", "specfit.convolve_decay"),
    ("specfit", "lorentzian_with_instrument", "specfit.lorentzian_with_instrument"),
    ("specfit", "read_series_csv", "specfit.read_series_csv"),
    ("qkd", "sweep", "qkd.sweep"),
    ("qkd", "optimize_mu", "qkd.optimize_mu"),
    ("qkd", "find_crossing", "qkd.find_crossing"),
    ("fab", "hemisphere_dose_map", "fab.hemisphere_dose_map"),
    ("fab", "write_bmp", "fab.write_bmp"),
    ("fab", "fit_hemisphere_profile", "fab.fit_hemisphere_profile"),
    *[("reproduce", f, f"reproduce.{f}") for f in CHECKS],
]
COUNTED = [
    ("optics", "amplitude_coefficients", "optics.amplitude_coefficients"),
    ("emitter", "indistinguishability_cavity", "emitter.indistinguishability_cavity"),
    ("specfit", "g2_model", "specfit.g2_model"),
    ("qkd", "effective_rate", "qkd.effective_rate"),
]


def _sinc2_mac(n: int) -> int:
    """Multiply-adds of the instrument convolution on n samples: a kernel of
    2*(n//2)+1 taps over the series padded by n//2 on each side."""
    half = max(1, n // 2)
    return (n + 2 * half) * (2 * half + 1)


def _count_extra(name: str, args, kwargs, result, counters: Counter) -> None:
    """Work counters taken from a call's arguments and result."""
    if name == "optics.amplitude_coefficients":
        counters["optics.tmm_layer_products"] += len(args[0].layers)
    elif name in (f"specfit.{f}" for f in FITTERS):
        counters[f"{name}.nfev"] += result.n_evaluations
        counters["specfit.unconverged"] += not result.converged
    elif name == "specfit.convolve_decay":
        counters[f"{name}.mac"] += len(args[0]) * len(args[2])
    elif name == "specfit.lorentzian_with_instrument":
        instrument = args[5] if len(args) > 5 else kwargs.get("instrument")
        if instrument is not None:
            counters[f"{name}.mac"] += _sinc2_mac(len(args[0]))
    elif name == "qkd.sweep":
        counters[f"{name}.rows"] += len(result)
    elif name == "fab.write_bmp":
        counters[f"{name}.bytes"] += os.path.getsize(args[0])


class Tracer:
    """Span and counter wrappers around spskit's public functions."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, invocation]
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()   # (span name, exception type) -> count
        self.invocation = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, self._span(name, attr, module_name))
        for module_name, attr, name in COUNTED:
            self._patch(module_name, attr, self._count(name, attr, module_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, module_name: str, attr: str, wrapper) -> None:
        module = importlib.import_module(f"spskit.{module_name}")
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _original(self, module_name: str, attr: str):
        return getattr(importlib.import_module(f"spskit.{module_name}"), attr)

    def _span(self, name: str, attr: str, module_name: str):
        fn = self._original(module_name, attr)
        spans, stack, counters, errors = self.spans, self._stack, self.counters, self.errors
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None, self.invocation]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[name, type(exc).__name__] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            _count_extra(name, args, kwargs, result, counters)
            return result

        return wrapper

    def _count(self, name: str, attr: str, module_name: str):
        fn = self._original(module_name, attr)
        counters = self.counters
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counters[key] += 1
            result = fn(*args, **kwargs)
            if name == "optics.amplitude_coefficients":
                _count_extra(name, args, kwargs, result, counters)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, inv) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "invocation": inv}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, better); the traced pass reports exactly these.
PER_LAYER: dict[str, tuple[str, str]] = {
    "spskit.import_s": ("s", "lower"),
    "spskit.import_scipy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "config.s": ("s", "lower"),
    "optics.amplitude_coefficients.calls": ("count", "lower"),
    "optics.tmm_layer_products": ("count", "lower"),
    **{f"optics.{f}.{m}": u for f in OPTICS_SPANS
       for m, u in (("calls", ("count", "lower")), ("s", ("s", "lower")))},
    "cavitymode.calls": ("count", "lower"),
    "cavitymode.s": ("s", "lower"),
    "emitter.indistinguishability_map.s": ("s", "lower"),
    "emitter.indistinguishability_cavity.calls": ("count", "lower"),
    "emitter.kappa_for_target_indistinguishability.s": ("s", "lower"),
    **{f"specfit.{f}.{m}": u for f in FITTERS
       for m, u in (("calls", ("count", "lower")), ("s", ("s", "lower")),
                    ("nfev", ("count", "lower")))},
    "specfit.fit_g2.calls": ("count", "lower"),
    "specfit.fit_g2.s": ("s", "lower"),
    "specfit.g2_model.calls": ("count", "lower"),
    "specfit.convolve_decay.calls": ("count", "lower"),
    "specfit.convolve_decay.s": ("s", "lower"),
    "specfit.convolve_decay.mac": ("count", "lower"),
    "specfit.lorentzian_with_instrument.s": ("s", "lower"),
    "specfit.lorentzian_with_instrument.mac": ("count", "lower"),
    "specfit.read_series_csv.s": ("s", "lower"),
    "specfit.fit_errors": ("count", "lower"),
    "specfit.unconverged": ("count", "lower"),
    "qkd.sweep.s": ("s", "lower"),
    "qkd.sweep.rows": ("count", "lower"),
    "qkd.optimize_mu.calls": ("count", "lower"),
    "qkd.optimize_mu.s": ("s", "lower"),
    "qkd.optimize_mu.useful_frac": ("ratio", "higher"),
    "qkd.find_crossing.calls": ("count", "lower"),
    "qkd.find_crossing.s": ("s", "lower"),
    "qkd.effective_rate.calls": ("count", "lower"),
    "fab.hemisphere_dose_map.s": ("s", "lower"),
    "fab.write_bmp.s": ("s", "lower"),
    "fab.write_bmp.bytes": ("bytes", "lower"),
    "fab.fit_hemisphere_profile.s": ("s", "lower"),
    **{f"reproduce.{f}.s": ("s", "lower") for f in CHECKS},
    "trace.coverage_frac": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}
# Metrics that are exact work counts: equal on every run of the same seed.
COUNTER_UNITS = ("count", "bytes")


def layer_metrics(tracer: Tracer, invocation_walls: list[float]) -> tuple[dict, dict]:
    """Per-layer values from the spans and counters of one traced pass,
    and notes on values that have no base. The import, output-size and
    overhead metrics are measured by the caller."""
    calls: Counter = Counter(tracer.counters)
    total: dict[str, float] = {}
    child: list[float] = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        calls[f"{name}.calls"] += 1
        total[name] = total.get(name, 0.0) + (end - start)
        if parent is not None:
            child[parent] += end - start

    def s(name: str) -> float:
        return total.get(name, 0.0)

    cli_self = 0.0
    covered = [0.0] * len(invocation_walls)
    cavity_s = 0.0
    for i, (name, start, end, parent, inv) in enumerate(tracer.spans):
        if parent is None:
            covered[inv] += end - start
        if name == "cli":
            cli_self += (end - start) - child[i]
        elif name.startswith("cavitymode.") and not (
                parent is not None and tracer.spans[parent][0].startswith("cavitymode.")):
            cavity_s += end - start

    fit_errors = sum(n for (name, exc), n in tracer.errors.items()
                     if name.startswith("specfit.fit_") and exc == "FitError")
    mu_calls = calls["qkd.optimize_mu.calls"]
    mu_dead = tracer.errors["qkd.optimize_mu", "NoPositiveRateError"]
    notes = {}
    if not mu_calls:
        notes["qkd.optimize_mu.useful_frac"] = "no optimize_mu calls on this workload; reported as 0"

    m = {
        "cli.self_s": cli_self,
        "cli.write_s": s("cli.write_csv") + s("cli.write_json"),
        "config.s": s("config.load_scenario") + s("config.apply_overrides"),
        "cavitymode.calls": sum(calls[f"cavitymode.{f}.calls"] for f in CAVITYMODE_FUNCTIONS),
        "cavitymode.s": cavity_s,
        "specfit.fit_errors": fit_errors,
        "qkd.optimize_mu.useful_frac": (mu_calls - mu_dead) / mu_calls if mu_calls else 0.0,
        "trace.coverage_frac": min((c / w for c, w in zip(covered, invocation_walls)),
                                   default=0.0),
    }
    for key, (unit, _) in PER_LAYER.items():
        if key in m:
            continue
        if key.endswith(".s"):
            m[key] = s(key[:-2])
        elif unit in COUNTER_UNITS:
            m[key] = calls[key]
    return m, notes
