"""Diffusive transport across semi-permeable interfaces.

The package models Laplacian transport governed by a mixed boundary
condition with a single physical length Lambda: analytic densities for
the half-space, exact spectra for disks, balls and annuli, a discrete
Dirichlet-to-Neumann route on rasterized lattices, reproducible Monte
Carlo walkers, and the chord coarse-graining (land surveyor) check.
"""

from importlib import metadata as _metadata

from .dtn import (
    DtnSpectrum,
    FluxVector,
    SelfTransportMatrix,
    absorption_distribution,
    absorption_law,
    build_M,
    build_Q,
    hitting_distribution,
    impedance_curve,
    spectrum,
    spreading_operator,
)
from .errors import (
    DegenerateGeometry,
    DiagonalSingularity,
    ExcessiveCensoring,
    InvalidParam,
    MeshTooCoarse,
    MissingCellImpedance,
    NumericOverflowWarning,
    PerimeterTooSmall,
    PrbmError,
    SingularSystem,
    SlowConvergence,
    SolveFailure,
    TruncationTooCoarse,
)
from .geometry import (
    BoundaryTag,
    DomainKind,
    DomainSpec,
    LatticeDomain,
    circle_polyline,
    lattice_box,
    lattice_channel,
    load_polyline,
    make_canonical,
    rasterize,
    rasterize_loop,
)
from .halfspace import (
    absorption_probability_disk,
    eta,
    harmonic_density_halfspace,
    spread_density_halfspace,
    spread_kernel_t,
    stopping_time_cdf,
    stopping_time_density,
)
from .lsa import CoarseGrainReport, coarse_grain, compare_flux, koch_polyline
from .rng import RngStream
from .spectral import (
    AnalyticSpectrum,
    annulus_spectrum,
    ball_degeneracy,
    ball_eigenvalue,
    ball_spread_density,
    disk_spread_density,
    disk_spreading_kernel,
    impedance_from_spectrum,
    poisson_kernel_disk,
    zeta,
)
from .walkers import (
    AbsorptionRecord,
    Fate,
    JumpParams,
    MeasureHistogram,
    estimate_spread_measure,
    estimate_stopping_time,
    run_jump_walker,
    sample_threshold,
)

try:
    __version__ = _metadata.version("artifact")
except _metadata.PackageNotFoundError:  # running from a source tree
    __version__ = "0.0.0"

__all__ = [
    "AbsorptionRecord",
    "AnalyticSpectrum",
    "BoundaryTag",
    "CoarseGrainReport",
    "DegenerateGeometry",
    "DiagonalSingularity",
    "DomainKind",
    "DomainSpec",
    "DtnSpectrum",
    "ExcessiveCensoring",
    "Fate",
    "FluxVector",
    "InvalidParam",
    "JumpParams",
    "LatticeDomain",
    "MeasureHistogram",
    "MeshTooCoarse",
    "MissingCellImpedance",
    "NumericOverflowWarning",
    "PerimeterTooSmall",
    "PrbmError",
    "RngStream",
    "SelfTransportMatrix",
    "SingularSystem",
    "SlowConvergence",
    "SolveFailure",
    "TruncationTooCoarse",
    "absorption_distribution",
    "absorption_law",
    "absorption_probability_disk",
    "annulus_spectrum",
    "ball_degeneracy",
    "ball_eigenvalue",
    "ball_spread_density",
    "build_M",
    "build_Q",
    "circle_polyline",
    "coarse_grain",
    "compare_flux",
    "disk_spread_density",
    "disk_spreading_kernel",
    "estimate_spread_measure",
    "estimate_stopping_time",
    "eta",
    "harmonic_density_halfspace",
    "hitting_distribution",
    "impedance_curve",
    "impedance_from_spectrum",
    "koch_polyline",
    "lattice_box",
    "lattice_channel",
    "load_polyline",
    "make_canonical",
    "poisson_kernel_disk",
    "rasterize",
    "rasterize_loop",
    "run_jump_walker",
    "sample_threshold",
    "spectrum",
    "spread_density_halfspace",
    "spread_kernel_t",
    "spreading_operator",
    "stopping_time_cdf",
    "stopping_time_density",
    "zeta",
]
