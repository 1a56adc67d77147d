"""Diffusive transport across semi-permeable interfaces.

The package models Laplacian transport governed by a mixed boundary
condition with a single physical length Lambda: analytic densities for
the half-space, exact spectra for disks, balls and annuli, a discrete
Dirichlet-to-Neumann route on rasterized lattices, reproducible Monte
Carlo walkers, and the chord coarse-graining (land surveyor) check.
"""

from importlib import metadata as _metadata

from . import dtn, errors, geometry, halfspace, lsa, rng, spectral, walkers
from .dtn import *
from .errors import *
from .geometry import *
from .halfspace import *
from .lsa import *
from .rng import *
from .spectral import *
from .walkers import *

try:
    __version__ = _metadata.version("artifact")
except _metadata.PackageNotFoundError:  # running from a source tree
    __version__ = "0.0.0"

__all__ = sorted(
    name
    for module in (dtn, errors, geometry, halfspace, lsa, rng, spectral, walkers)
    for name in module.__all__
)
