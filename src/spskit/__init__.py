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
lsq         the Levenberg-Marquardt solver behind them, many fits in lockstep
qkd         BB84 key rates for single-photon, weak-coherent, and decoy
            sources over fiber and free-space channels
fab         hemisphere dose maps (BMP export) and surface-profile fitting
"""

__version__ = "0.1.0"

from . import cavitymode, config, constants, emitter, fab, optics, qkd, specfit  # noqa: F401,E402
