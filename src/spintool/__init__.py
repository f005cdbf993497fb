"""Spin operator triples, two-site exchange operators, and their spectra.

The package builds the spin-s matrices S1, S2, S3, assembles the aligned
and cyclically shifted exchange operators on the two-site product space,
certifies that the two share a spectrum by two independent routes, and
synthesizes the unitary gates they generate.
"""

from . import eig, gates, hamiltonians, linalg, spectral, spin
from .eig import *
from .gates import *
from .hamiltonians import *
from .linalg import *
from .spectral import *
from .spin import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (linalg, spin, hamiltonians, eig, spectral, gates)
    for name in module.__all__
]
