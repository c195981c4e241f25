"""spskit: design and analysis toolkit for a cavity-enhanced
single-photon source.

Submodules
----------
optics      1-D transfer-matrix engine: mirrors, stopbands, cavity spectra,
            standing-wave fields and penetration depth
cavitymode  Gaussian-mode geometry, FSR/finesse/linewidth, piezo tuning,
            spectral overlap
emitter     Purcell enhancement, quantum efficiency, indistinguishability
specfit     least-squares fitters for spectra, decays, correlations,
            polarization scans
g2fit       the correlation fit and its background correction, which
            specfit loads on first use
lsq         the separable least-squares solver behind them, many fits in lockstep
search      bracketed searches: bisection and golden-section maximization
qkd         BB84 key rates for single-photon, weak-coherent, and decoy
            sources over fiber and free-space channels
fab         hemisphere dose maps (BMP export) and surface-profile fitting
pipeline    scenario to models: the chains the CLI writes and reproduce checks
reproduce   the reproduction table, on the scenario the CLI loads

``import spskit`` loads none of them, nor numpy; each loads on first use.
"""

__version__ = "0.1.0"

_SUBMODULES = ("cavitymode", "cli", "config", "constants", "emitter", "errors", "fab",
               "g2fit", "lsq", "optics", "pipeline", "qkd", "reproduce", "search", "specfit")


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return importlib.import_module(f"{__name__}.{name}")
