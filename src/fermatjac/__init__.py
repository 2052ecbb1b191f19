"""Exact verification engine for the isogeny decomposition of Fermat-curve
Jacobians into Jacobians of cyclic p-gonal curves."""

from .decompose import decompose_coarse, decompose_fine
from .orbits import make_context

__version__ = "1.0.0"
