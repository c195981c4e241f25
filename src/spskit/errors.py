"""The base class of spskit's numerical failures."""


class NumericalError(RuntimeError):
    """No convergence, crossing or resonance: the CLI exits 2 (bad inputs raise ValueError)."""
