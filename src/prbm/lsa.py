"""Chord coarse-graining of irregular interfaces and the flux comparison.

The approximation under test: partition a working curve into consecutive
arclength intervals of length Lambda, replace each interval by its endpoint
chord, and impose a perfect-absorption condition on the chorded curve. Its
total diffusive flux should then track the semi-permeable flux across the
original curve at that Lambda. Both fluxes are computed on lattice strips
with a flat source overhead and reflecting side walls, built by
geometry._channel_domain, the one strip builder, which lattice_channel uses too.

Each flux is one sparse solve: the partially reflected lattice walk's
absorption law from the source (dtn.absorption_law) at Lambda on the
original strip and at 0 on the chorded one. Per unit source concentration
the flux is D n_source a^(d-2) times the absorbed fraction, the mass of that
law; no self-transport matrix, eigendecomposition or impedance curve is
formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dtn
from .errors import InvalidParam, PerimeterTooSmall, _count, _positive, _signed
from .geometry import LatticeDomain, _channel_domain, load_polyline

__all__ = ["CoarseGrainReport", "coarse_grain", "koch_polyline", "compare_flux"]

_ANCHOR_NOTE = (
    "chords anchored at the stored curve origin; the alternative of centering "
    "them on the random first-hit position is not modeled"
)


@dataclass(frozen=True)
class CoarseGrainReport:
    """Outcome of one flux comparison, with both raw flux values kept."""

    original_flux: float
    coarse_flux: float
    relative_error: float
    n_chords: int
    Lambda: float
    note: str = _ANCHOR_NOTE


def coarse_grain(curve, Lambda: float) -> np.ndarray:
    """Replace consecutive arclength-Lambda intervals of the curve by chords.

    The partition starts at the curve origin; the final interval, and so the
    final chord, may be shorter. Chord endpoints lie on the curve by
    construction. Raises PerimeterTooSmall when the curve is not longer than
    Lambda.
    """
    Lambda = _positive(Lambda, "Lambda")
    poly = load_polyline(curve)
    arc = np.concatenate(([0.0], np.cumsum(np.linalg.norm(np.diff(poly, axis=0), axis=1))))
    perimeter = float(arc[-1])
    if perimeter <= Lambda:
        raise PerimeterTooSmall(
            f"curve length {perimeter:.6g} does not exceed Lambda = {Lambda:.6g}"
        )
    cuts = np.arange(Lambda, perimeter, Lambda)
    if perimeter - cuts[-1] < 1e-12 * perimeter:
        cuts = cuts[:-1]
    targets = np.concatenate(([0.0], cuts, [perimeter]))
    x = np.interp(targets, arc, poly[:, 0])
    y = np.interp(targets, arc, poly[:, 1])
    return np.column_stack((x, y))


def koch_polyline(generation: int) -> np.ndarray:
    """Quadratic Koch prefractal on the unit base segment (0,0) to (1,0).

    Each generation replaces every segment by the eight-segment square
    generator (bump to the left of the travel direction first), so
    generation g has 8^g segments of length 4^-g and total length 2^g.
    """
    generation = _count(generation, "generation", 0)
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    # fractions along the segment and offsets along its left normal; the
    # long middle stroke carries its midpoint so every piece has length 1/4
    frac = np.array([0.25, 0.25, 0.5, 0.5, 0.5, 0.75, 0.75, 1.0])
    off = np.array([0.0, 0.25, 0.25, 0.0, -0.25, -0.25, 0.0, 0.0])
    for _ in range(generation):
        p = pts[:-1]
        d = np.diff(pts, axis=0)
        normal = np.column_stack((-d[:, 1], d[:, 0]))
        new = (
            p[:, None, :]
            + frac[None, :, None] * d[:, None, :]
            + off[None, :, None] * normal[:, None, :]
        ).reshape(-1, 2)
        pts = np.vstack((pts[:1], new))
    return pts


def _total_flux(dom: LatticeDomain, Lambda: float, D: float) -> float:
    """Diffusive flux into the working faces per unit source concentration."""
    n_source = int(dom.source_mask().sum())
    absorbed = dtn.absorption_law(dom, Lambda).absorbed_fraction
    return D * n_source * dom.mesh ** (dom.dimension - 2) * absorbed


def compare_flux(
    curve,
    source_height: float,
    Lambda: float,
    mesh: float,
    D: float = 1.0,
) -> CoarseGrainReport:
    """Mixed flux across the curve versus Dirichlet flux across its chords.

    Builds two lattice strips sharing the flat source at source_height: the
    original curve solved with the semi-permeable condition at Lambda, and
    the chord-coarsened curve solved with perfect absorption. The report
    keeps both raw fluxes so the relative error can be re-derived.
    """
    mesh = _positive(mesh, "mesh")
    if mesh > _positive(Lambda, "Lambda") / 10 * (1 + 1e-12):
        raise InvalidParam("mesh must resolve Lambda (need mesh <= Lambda/10)")
    _signed(source_height, "source_height")
    _positive(D, "D")
    poly = load_polyline(curve)
    coarse = coarse_grain(poly, Lambda)
    original = _total_flux(_channel_domain(poly, source_height, mesh), Lambda, D)
    chorded = _total_flux(_channel_domain(coarse, source_height, mesh), 0.0, D)
    return CoarseGrainReport(
        original_flux=original,
        coarse_flux=chorded,
        relative_error=abs(chorded - original) / original,
        n_chords=len(coarse) - 1,
        Lambda=Lambda,
    )
