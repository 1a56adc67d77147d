"""Domains: canonical shapes and rasterized lattice geometry.

Canonical domains (half-space, disk, ball, annulus) are described by a small
frozen spec consumed by the analytic and Monte Carlo modules. Irregular
two-dimensional interfaces are rasterized onto a square lattice of mesh a:
bulk sites are the lattice points inside the enclosed region, and the
boundary is represented by *faces*, the lattice edges separating a bulk site
from an exterior site. Each face therefore has exactly one inward neighbour
(the bulk site of its edge), which is what makes the self-transport matrix
built on faces exactly symmetric even on staircase boundaries; an exterior
site shared by two bulk neighbours simply appears in two faces. Every
lattice builder checks, fills and measures in site units, coordinates / a,
and scales only the face arclengths back by a.

Faces carry a surface weight w in (0, 1], the alignment |n_face . n_curve|
between the lattice face normal and the underlying smooth interface normal.
The physical measure of a face is mesh^(d-1) * w. On lattice-aligned
interfaces (boxes, axis-aligned prefractals) w == 1 identically and the
measure reduces to the plain mesh^(d-1) per boundary element; on rasterized
curved interfaces the weights make discrete surface integrals converge to
true arclength instead of the inflated staircase length.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import DegenerateGeometry, InvalidParam, MeshTooCoarse, _count, _numbers, _point, _positive

__all__ = [
    "rasterize_loop",
    "DomainKind",
    "DomainSpec",
    "BoundaryTag",
    "LatticeDomain",
    "make_canonical",
    "rasterize",
    "circle_polyline",
    "lattice_box",
    "lattice_channel",
    "load_polyline",
    "MISSING_NEIGHBOR",
]

#: Neighbor-table sentinel for a reflecting (absent) neighbor; see
#: LatticeDomain.neighbor_table.
MISSING_NEIGHBOR = -1

_MIN_WEIGHT = 0.05

#: Candidate pairs (segment-segment, point-segment) evaluated at once; bounds
#: the temporaries of the crossing test and the nearest-segment search.
_PAIR_BLOCK = 1 << 20


class DomainKind(enum.Enum):
    HALF_SPACE = "half_space"
    DISK_INTERIOR = "disk_interior"
    DISK_EXTERIOR = "disk_exterior"
    BALL_INTERIOR = "ball_interior"
    BALL_EXTERIOR = "ball_exterior"
    ANNULUS = "annulus"


@dataclass(frozen=True)
class DomainSpec:
    """A canonical domain with unit length scale.

    Disks and balls have unit radius; the half-space boundary is the
    hyperplane x_d = 0; the annulus has working circle r = 1 and source
    circle r = outer_radius.
    """

    kind: DomainKind
    dimension: int
    outer_radius: float | None = None


def make_canonical(
    kind: DomainKind | str,
    dimension: int | None = None,
    outer_radius: float | None = None,
) -> DomainSpec:
    """Validated constructor for canonical domain specs.

    dimension defaults to the natural one for the kind (2 for disks and the
    annulus, 3 for balls). Raises InvalidParam on inconsistent requests.
    """
    if isinstance(kind, str):
        try:
            kind = DomainKind(kind)
        except ValueError as exc:
            raise InvalidParam(f"unknown domain kind {kind!r}") from exc
    natural = {
        DomainKind.DISK_INTERIOR: 2,
        DomainKind.DISK_EXTERIOR: 2,
        DomainKind.ANNULUS: 2,
        DomainKind.BALL_INTERIOR: 3,
        DomainKind.BALL_EXTERIOR: 3,
    }
    dimension = _count(natural.get(kind, 2) if dimension is None else dimension, "dimension", 2)
    if kind in natural and dimension != natural[kind]:
        raise InvalidParam(f"{kind.value} requires dimension {natural[kind]}")
    if kind is DomainKind.ANNULUS:
        if outer_radius is None or not _positive(outer_radius, "outer_radius") > 1.0:
            raise InvalidParam("annulus requires outer_radius > 1")
    elif outer_radius is not None:
        raise InvalidParam("outer_radius only applies to the annulus")
    return DomainSpec(kind, dimension, outer_radius)


class BoundaryTag(enum.IntEnum):
    WORKING = 0
    SOURCE = 1


@dataclass
class LatticeDomain:
    """Rasterized domain: bulk sites plus tagged boundary faces.

    Sites are integer lattice coordinates; physical position is site * mesh.
    face_exterior[i] is the boundary site (outside the bulk), face_inward[i]
    its unique bulk neighbour, i.e. the reflection target s + a n(s). The
    site graph belongs to the site index _lookup: a builder passes the index
    it built the faces with, and a hand-built domain makes one when first read.
    Nothing writes into that graph. A face is located in one place, _slots:
    the slot of the graph, inward site and direction, that the face fills.
    """

    mesh: float
    dimension: int
    bulk_sites: np.ndarray      # (nb, d) int64
    face_exterior: np.ndarray   # (nf, d) int64
    face_inward: np.ndarray     # (nf, d) int64
    face_tag: np.ndarray        # (nf,) uint8, BoundaryTag values
    face_weight: np.ndarray     # (nf,) float64 in (0, 1]
    face_arclength: np.ndarray | None = None  # (nf,) coordinate along the source polyline
    _lookup: _SiteIndex | None = field(default=None, repr=False)
    _slot: np.ndarray | None = field(default=None, repr=False)
    # (face_tag solved for, per-working-face hitting masses of the source
    # launch), filled by dtn.build_Q and dtn.hitting_distribution
    _hitting_masses: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    # -- basic views ---------------------------------------------------------

    @property
    def n_bulk(self) -> int:
        return int(self.bulk_sites.shape[0])

    @property
    def n_faces(self) -> int:
        return int(self.face_exterior.shape[0])

    def working_mask(self) -> np.ndarray:
        return self.face_tag == BoundaryTag.WORKING

    def source_mask(self) -> np.ndarray:
        return self.face_tag == BoundaryTag.SOURCE

    def face_midpoints(self) -> np.ndarray:
        """Physical midpoints of the boundary faces.

        Site centers sit at (i + 0.5) * mesh, so a face center is the mean
        of the two adjacent cell centers.
        """
        return 0.5 * self.mesh * (self.face_exterior + self.face_inward + 1.0)

    def measures(self) -> np.ndarray:
        """Physical surface measure of each face: mesh^(d-1) * weight."""
        return self.mesh ** (self.dimension - 1) * self.face_weight

    def _index(self) -> _SiteIndex:
        if self._lookup is None:
            self._lookup = _SiteIndex(self.bulk_sites)
        return self._lookup

    def site_index(self, sites) -> np.ndarray:
        """Bulk index of each site (rows of d integer coordinates), -1 off the bulk."""
        return self._index()(sites)

    def _slots(self) -> np.ndarray:
        """Each face's slot inward_site * 2d + direction in the site graph; read-only and kept.

        The direction is the face's column in _axis_offsets order. A face
        that does not step from a bulk site to an adjacent site has slot -1.
        """
        if self._slot is None:
            step = self.face_exterior - self.face_inward
            site = self.site_index(self.face_inward)
            adjacent = (np.abs(step).sum(axis=1) == 1) & (site >= 0)
            direction = 2 * np.abs(step).argmax(axis=1) + (step.min(axis=1) < 0)
            self._slot = np.where(adjacent, site * 2 * self.dimension + direction, -1)
            self._slot.flags.writeable = False
        return self._slot

    def inward_indices(self) -> np.ndarray:
        """Bulk index of each face's inward neighbour."""
        slot = self._slots()
        if np.any(slot < 0):
            raise DegenerateGeometry("a face does not step from a bulk site to an adjacent site")
        return slot // (2 * self.dimension)

    def _launch(self, start) -> np.ndarray:
        """Bulk sites a walk from start begins at, each equally likely.

        start is "source", the inward site of each source face (a site
        shared by two faces appears twice), a bulk index, or the integer
        coordinates of one bulk site. Anything else raises InvalidParam.
        """
        if isinstance(start, str):
            if start != "source":
                raise InvalidParam(f"unknown start mode {start!r}")
            if not self.source_mask().any():
                raise InvalidParam("start='source' needs source faces")
            return self.inward_indices()[self.source_mask()]
        if isinstance(start, (int, np.integer)) and not isinstance(start, bool):
            if _count(start, "bulk site index", 0) >= self.n_bulk:
                raise InvalidParam(f"bulk site index {start} out of range")
            return np.array([start], dtype=np.int64)
        # a bool anywhere is no coordinate, and a fractional coordinate no site
        site = _numbers(start, InvalidParam, "lattice start").ravel()
        if not _integral(site):
            raise InvalidParam(f"lattice start {start!r} is neither a bulk index nor integer coordinates")
        index = self.site_index(site) if len(site) == self.dimension else [-1]
        if index[0] < 0:
            raise InvalidParam(f"lattice start {site.tolist()} is not a bulk site")
        return np.asarray(index, dtype=np.int64)

    def neighbor_table(self) -> np.ndarray:
        """(n_bulk, 2d) table of neighbour codes for the lattice walk, a fresh copy.

        Entry values: 0 <= v < n_bulk is a bulk neighbour; n_bulk <= v is the
        boundary face v - n_bulk; MISSING_NEIGHBOR marks a reflecting wall
        (possible only in hand-built domains; rasterize seals the region).
        Columns follow _axis_offsets: +x, -x, +y, -y, ... It is a copy of the
        site graph with each face's code put at its slot; the codes mean what
        they say on a domain that validate() accepts.
        """
        slot = self._slots()
        table = self._index().neighbors.copy()
        f = np.flatnonzero(slot >= 0)
        np.put(table, slot[f], self.n_bulk + f)
        return table

    # -- consistency ---------------------------------------------------------

    def validate(self, *, check_connected: bool = True) -> None:
        """Check the structural invariants, each face in its own off-bulk slot; raises on violation."""
        _positive(self.mesh, "mesh")
        _count(self.dimension, "dimension", 2)
        for name in ("bulk_sites", "face_inward", "face_exterior"):
            # checked before any site index casts them to int64, which drops a fraction
            sites = np.asarray(getattr(self, name))
            if sites.dtype.kind == "O" or not _integral(sites) or np.any(np.abs(sites) >= 2**63):
                raise DegenerateGeometry(f"{name} must hold int64 coordinates, no fractions, NaNs, infinities or bools")
        if self.n_bulk == 0:
            raise DegenerateGeometry("no bulk sites")
        if self._index().n_distinct != self.n_bulk:
            raise DegenerateGeometry("duplicate bulk sites")
        tags = set(int(t) for t in np.unique(self.face_tag))
        if not tags <= {int(BoundaryTag.WORKING), int(BoundaryTag.SOURCE)}:
            raise InvalidParam("face tags must be Working or Source")
        self.inward_indices()
        slot = self._slots()
        if np.any(self._index().neighbors.flat[slot] >= 0):
            raise DegenerateGeometry("face exterior site lies in the bulk")
        if len(np.unique(slot)) < len(slot):
            raise DegenerateGeometry("two faces fill one slot of the site graph")
        if self.n_faces and not np.all(_positive(self.face_weight, "face weights") <= 1.0 + 1e-12):
            raise InvalidParam("face weights must lie in (0, 1]")
        if check_connected and self._index().components[0] != 1:
            raise MeshTooCoarse("bulk sites do not form a connected set")


def _integral(values: np.ndarray) -> bool:
    """Whether values holds integers: an integer dtype, finite integral floats or Python ints, never bools."""
    if values.dtype.kind == "f":
        return bool(np.all(np.isfinite(values))) and not np.any(values % 1)
    if values.dtype.kind == "O":  # Python integers past the uint64 range
        return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values.flat)
    return values.dtype.kind in "iu"


def _axis_offsets(d: int) -> np.ndarray:
    """(2d, d) unit steps in neighbour-table order: +x, -x, +y, -y, ..."""
    offsets = np.zeros((2 * d, d), dtype=np.int64)
    offsets[0::2][np.arange(d), np.arange(d)] = 1
    offsets[1::2][np.arange(d), np.arange(d)] = -1
    return offsets


class _SiteIndex:
    """Bulk index of integer lattice sites, -1 for sites off the set, and their graph.

    A site's key is its row-major offset (site - lo) @ stride in the
    bounding box [lo, hi] of the set, computed from its coordinates; no
    grid is allocated. The keys are sorted once, stably, so a duplicated
    site maps to its last row, as a dict built in row order would. A lookup
    is one box test and one searchsorted. A set whose bounding box has more
    cells than an int64 can count raises DegenerateGeometry.

    The index owns the set's graph: the (n, 2d) neighbour table and the
    component labels, each computed on first use and kept. A LatticeDomain
    built from the set holds its index and reads the graph; nothing writes
    into it. Its faces sit at off-set slots, which LatticeDomain._slots locates.
    """

    def __init__(self, sites: np.ndarray) -> None:
        self.sites = sites = np.asarray(sites, dtype=np.int64)
        self.dimension = sites.shape[1]
        self.n_distinct = 0
        if not len(sites):
            return
        self._lo, self._hi = sites.min(axis=0), sites.max(axis=0)
        extent = [int(hi) - int(lo) + 1 for lo, hi in zip(self._lo, self._hi)]
        if math.prod(extent) > np.iinfo(np.int64).max:
            raise DegenerateGeometry("lattice sites span too large a bounding box for an int64 key")
        self._stride = np.array([math.prod(extent[k + 1:]) for k in range(len(extent))], dtype=np.int64)
        key = (sites - self._lo) @ self._stride
        self._order = np.argsort(key, kind="stable")
        self._keys = key[self._order]
        self.n_distinct = 1 + int(np.count_nonzero(np.diff(self._keys)))

    def __call__(self, sites) -> np.ndarray:
        q = np.asarray(sites)
        if q.dtype != np.int64:
            # read as Python numbers, so that no coordinate rounds or wraps; a row
            # with one past the int64 range is off the set, like any row off the box
            q = np.asarray(sites, dtype=object).reshape(-1, self.dimension)
            with np.errstate(invalid="ignore"):  # NaN is off the set too
                fits = np.all((q >= -(2**63)) & (q < 2**63), axis=1).astype(bool)
            return np.where(fits, self(np.where(fits[:, None], q, 0).astype(np.int64)), -1)
        q = q.reshape(-1, self.dimension)
        if not self.n_distinct:
            return np.full(len(q), -1, dtype=np.int64)
        inside = np.all((q >= self._lo) & (q <= self._hi), axis=1)
        return self._find(np.where(inside, (q - self._lo) @ self._stride, -1))

    def _find(self, key: np.ndarray) -> np.ndarray:
        """Row of each key, -1 for a key off the set (or -1 itself)."""
        # at is the last key <= key, the last row of a duplicated site; at = -1
        # reads keys[-1], the largest key, which a key below them all never equals
        at = np.searchsorted(self._keys, key, side="right") - 1
        return np.where(self._keys[at] == key, self._order[at], -1)

    @functools.cached_property
    def neighbors(self) -> np.ndarray:
        """(n, 2d) index of each site's neighbours in _axis_offsets order, read-only.

        Entries in [0, n) are sites of the set; -1 is off it.
        """
        table = _site_neighbors(self)
        table.flags.writeable = False
        return table

    @functools.cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """Component count of the set and each site's label."""
        return _components(self.neighbors)


def _site_neighbors(index: _SiteIndex) -> np.ndarray:
    """(n, 2d) index of each site's neighbours in _axis_offsets order, -1 off the set.

    A unit step along an axis moves a site's key by that axis's stride, and
    only that coordinate can leave the bounding box, so no (n, 2d, d) array
    of neighbour coordinates is formed.
    """
    sites, d = index.sites, index.dimension
    table = np.full((len(sites), 2 * d), MISSING_NEIGHBOR, dtype=np.int64)
    if index.n_distinct:
        key = (sites - index._lo) @ index._stride
        for col, (axis, step) in enumerate(itertools.product(range(d), (1, -1))):
            c = sites[:, axis] + step
            inside = (c >= index._lo[axis]) & (c <= index._hi[axis])
            table[:, col] = index._find(np.where(inside, key + step * index._stride[axis], -1))
    return table


def _components(table: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of n sites from their (n, 2d) site graph.

    Entries in [0, n) are neighbouring sites and -1 is off the set, where a
    face or a wall sits. Returns the component count and each site's label.
    """
    n = len(table)
    r, k = np.nonzero(table >= 0)
    adjacency = sparse.coo_matrix((np.ones(len(r)), (r, table[r, k])), shape=(n, n))
    return connected_components(adjacency, directed=False)


def _boundary_faces(index: _SiteIndex, keep=None) -> tuple[np.ndarray, np.ndarray]:
    """Faces (inward, exterior) of the bulk set of a site index.

    One face per bulk site and axis step that leaves the set, bulk-site-major
    and in _axis_offsets order within a site. keep(exterior) -> bool mask
    drops faces; a side wall with no faces reflects. Each face is an off-set
    slot (-1) of the index's site graph, the slot LatticeDomain._slots gives it.
    """
    table = index.neighbors
    s, k = np.nonzero(table < 0)
    inward = index.sites[s]
    exterior = inward + _axis_offsets(index.dimension)[k]
    if keep is not None:
        kept = keep(exterior)
        inward, exterior = inward[kept], exterior[kept]
    return inward, exterior


def _face_geometry(inward: np.ndarray, exterior: np.ndarray, curves: list[np.ndarray]):
    """Nearest curve, arclength along it and weight of each face, in site units.

    Ties go to the earlier curve, so for a (working, source) pair the index
    of the nearest curve is the face's tag. The weight is the alignment
    |n_face . n_segment| with the nearest segment, clipped below at _MIN_WEIGHT.
    """
    mids = 0.5 * (inward + exterior + 1.0)
    dist, arc, normal = (np.array(x) for x in zip(*(_nearest_on_polyline(mids, c) for c in curves)))
    nearest = dist.argmin(axis=0)
    face = np.arange(len(mids))
    weight = np.abs(((exterior - inward) * normal[nearest, face]).sum(axis=1))
    return nearest, arc[nearest, face], np.clip(weight, _MIN_WEIGHT, 1.0)


def _grid_sites(lo, hi) -> np.ndarray:
    """Sites of the 2D box lo <= site < hi, x-major."""
    ii, jj = np.meshgrid(np.arange(lo[0], hi[0]), np.arange(lo[1], hi[1]), indexing="ij")
    return np.column_stack((ii.ravel(), jj.ravel())).astype(np.int64)


def _expand(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and value of every integer in the ranges [start, start + count)."""
    owner = np.repeat(np.arange(len(count)), count)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    return owner, start[owner] + offset


def _blocks(count: np.ndarray):
    """Consecutive item slices [start, stop) of at most _PAIR_BLOCK counted pairs, or of one item."""
    total = np.cumsum(count)
    start = 0
    while start < len(count):
        base = total[start] - count[start]
        stop = max(int(np.searchsorted(total, base + _PAIR_BLOCK, side="right")), start + 1)
        yield start, stop
        start = stop


def _sites_inside(loops: list[np.ndarray], lo, hi) -> np.ndarray:
    """Sites of the box lo <= site < hi whose cell centers the site-unit loops enclose, x-major.

    Even-odd scanline fill. A segment (x0, y0)-(x1, y1) crosses the row of
    cell centers at height Y when (y0 <= Y) != (y1 <= Y), at
    xc = x0 + (Y - y0) * (x1 - x0) / (y1 - y0), and a center (X, Y) is
    inside when an odd number of crossings of all loops have X < xc. The
    row heights and column abscissae are sorted, so the rows a segment
    straddles and the columns left of a crossing are searchsorted ranges
    decided by exactly those comparisons: the cost is the number of
    crossings plus the box, not points times segments.
    """
    X = np.arange(lo[0], hi[0]) + 0.5
    Y = np.arange(lo[1], hi[1]) + 0.5
    a = np.vstack([loop[:-1] for loop in loops])
    b = np.vstack([loop[1:] for loop in loops])
    # y <= Y holds from row searchsorted(Y, y) on
    k0, k1 = np.searchsorted(Y, a[:, 1]), np.searchsorted(Y, b[:, 1])
    seg, row = _expand(np.minimum(k0, k1), np.abs(k1 - k0))
    x0, y0 = a[seg, 0], a[seg, 1]
    x1, y1 = b[seg, 0], b[seg, 1]
    xc = x0 + (Y[row] - y0) * (x1 - x0) / (y1 - y0)
    # a crossing flips the parity of the columns before searchsorted(X, xc)
    width = len(X) + 1
    flips = np.bincount(row * width + np.searchsorted(X, xc), minlength=len(Y) * width)
    flips = (flips.reshape(len(Y), width) & 1).astype(bool)
    inside = np.logical_xor.accumulate(flips[:, ::-1], axis=1)[:, -2::-1]
    i, j = np.nonzero(inside.T)
    return np.column_stack((i + lo[0], j + lo[1])).astype(np.int64)


def _assemble(mesh, index, inward, exterior, tag, weight, arc=None) -> LatticeDomain:
    """Validated 2D domain on the sites of index; with arclengths, faces sort by (tag, arclength)."""
    if arc is not None:
        order = np.lexsort((arc, tag))
        inward, exterior, tag, weight, arc = (x[order] for x in (inward, exterior, tag, weight, arc))
    dom = LatticeDomain(
        mesh=_positive(mesh, "mesh"),
        dimension=2,
        bulk_sites=index.sites,
        face_exterior=exterior,
        face_inward=inward,
        face_tag=tag.astype(np.uint8),
        face_weight=weight,
        face_arclength=arc,
        _lookup=index,
    )
    dom.validate()
    return dom


# -- polylines ---------------------------------------------------------------


def load_polyline(source: str | Path | list) -> np.ndarray:
    """Polyline from a JSON file/text ([[x, y], ...]) or a point list."""
    if isinstance(source, (str, Path)):
        # text opening with "[" is JSON, anything else a path: probing a long
        # JSON string as a file name would raise "File name too long"
        try:
            text = source if isinstance(source, str) and source.lstrip().startswith("[") else Path(source).read_text()
            source = json.loads(text)
        except (OSError, ValueError) as exc:  # neither a readable file nor JSON
            raise DegenerateGeometry(f"polyline is neither a file nor JSON: {exc}") from None
    arr = _numbers(source, DegenerateGeometry, "polyline")
    if arr.dtype.kind not in "iuf" or arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:  # no bools
        raise DegenerateGeometry(f"polyline must be an (n >= 2, 2) list of numbers, not {arr.dtype} {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DegenerateGeometry("polyline has non-finite coordinates")
    return np.asarray(arr, dtype=float)


def circle_polyline(radius: float, n: int = 2048, center: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """Closed regular n-gon approximating a circle, last point == first."""
    _positive(radius, "radius")
    c = _point(center, "center", 2)
    th = np.linspace(0.0, 2.0 * np.pi, _count(n, "n", 3) + 1)
    return np.column_stack((c[0] + radius * np.cos(th), c[1] + radius * np.sin(th)))


def _site_units(poly: np.ndarray, mesh: float) -> np.ndarray:
    """poly / mesh, the coordinates every lattice builder works in; InvalidParam if one overflows a float."""
    with np.errstate(over="ignore"):
        curve = poly / mesh
    if not np.all(np.isfinite(curve)):
        raise InvalidParam(f"a polyline at mesh {mesh} overflows a float in site units")
    return curve


def _is_closed(poly: np.ndarray) -> bool:
    """Whether the ends of a site-unit polyline meet, to 1e-9 of its largest coordinate (at least 1)."""
    return bool(np.abs(poly[-1] - poly[0]).max() <= 1e-9 * max(1.0, np.abs(poly).max()))


def _crossing_pairs(a: np.ndarray, b: np.ndarray, skip) -> bool:
    """Whether two segments (a[i], b[i]) and (a[j], b[j]), i < j, cross properly.

    Candidates are the pairs whose bounding boxes overlap, found by a sweep
    over the segments in order of their left ends and taken in blocks of at
    most _PAIR_BLOCK x-overlapping pairs; skip(i, j) drops pairs allowed to
    touch. A pair crosses when its lines meet at parameters t and u strictly
    inside both segments, more than 1e-12 from the ends; a pair whose
    direction cross product is at most 1e-30 in size never crosses.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    d = b - a
    order = np.argsort(lo[:, 0], kind="stable")
    # later segments in the sweep that start left of this one's right end
    after = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    count = after - np.arange(len(order)) - 1
    eps = 1e-12
    for start, stop in _blocks(count):
        k, m = _expand(np.arange(start + 1, stop + 1), count[start:stop])
        p, q = order[start + k], order[m]
        i, j = np.minimum(p, q), np.maximum(p, q)
        keep = (lo[i, 1] <= hi[j, 1]) & (lo[j, 1] <= hi[i, 1]) & ~skip(i, j)
        i, j = i[keep], j[keep]
        denom = d[i, 0] * d[j, 1] - d[i, 1] * d[j, 0]
        ok = np.abs(denom) > 1e-30
        i, j, denom = i[ok], j[ok], denom[ok]
        r = a[j] - a[i]
        t = (r[:, 0] * d[j, 1] - r[:, 1] * d[j, 0]) / denom
        u = (r[:, 0] * d[i, 1] - r[:, 1] * d[i, 0]) / denom
        if np.any((t > eps) & (t < 1 - eps) & (u > eps) & (u < 1 - eps)):
            return True
    return False


def _self_intersects(poly: np.ndarray) -> bool:
    """Proper crossing of two non-adjacent segments (first and last adjoin when closed)."""
    a, b = poly[:-1], poly[1:]
    last = len(a) - 1
    closed = _is_closed(poly)
    return _crossing_pairs(a, b, lambda i, j: (j - i < 2) | (closed & (i == 0) & (j == last)))


def _polylines_cross(p: np.ndarray, q: np.ndarray) -> bool:
    """Proper crossing of a segment of p with a segment of q."""
    ap, bp, aq, bq = p[:-1], p[1:], q[:-1], q[1:]
    n = len(ap)
    return _crossing_pairs(np.vstack((ap, aq)), np.vstack((bp, bq)), lambda i, j: (i < n) == (j < n))


def _nearest_on_polyline(points: np.ndarray, poly: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance, arclength coordinate, and segment normal at the nearest point.

    Zero-length segments are skipped. A point's distance to its nearest
    segment midpoint bounds its distance to the curve, so only segments
    whose midpoints lie within that bound plus the largest half-length can
    be nearer; those candidates come from a cKDTree ball query, with a
    slack above the rounding of the distances, and of equally near
    segments the lowest index wins.
    """
    a, b = poly[:-1], poly[1:]
    d = b - a
    seg_len = np.hypot(d[:, 0], d[:, 1])
    keep = seg_len > 0
    a, b, d, seg_len = a[keep], b[keep], d[keep], seg_len[keep]
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    tree = cKDTree(0.5 * (a + b))
    bound, _ = tree.query(points)
    scale = max(np.abs(points).max(initial=0.0), np.abs(poly).max())
    radius = (bound + 0.5 * seg_len.max()) * (1.0 + 1e-9) + 1e-12 * scale
    count = tree.query_ball_point(points, radius, return_length=True)
    best_d2 = np.empty(len(points))
    best_arc = np.empty(len(points))
    best_seg = np.empty(len(points), dtype=np.int64)
    for start, stop in _blocks(count):
        near = tree.query_ball_point(points[start:stop], radius[start:stop])
        j = np.fromiter(itertools.chain.from_iterable(near), dtype=np.int64)
        p = np.repeat(np.arange(start, stop), count[start:stop])
        r = points[p] - a[j]
        t = np.clip((r * d[j]).sum(axis=1) / seg_len[j] ** 2, 0.0, 1.0)
        closest = a[j] + t[:, None] * d[j]
        d2 = ((points[p] - closest) ** 2).sum(axis=1)
        # every point has a candidate, the segment of its nearest midpoint
        first = np.lexsort((j, d2, p))[np.cumsum(count[start:stop]) - count[start:stop]]
        best_d2[start:stop] = d2[first]
        best_arc[start:stop] = cum[j[first]] + t[first] * seg_len[j[first]]
        best_seg[start:stop] = j[first]
    tang = d[best_seg] / seg_len[best_seg, None]
    return np.sqrt(best_d2), best_arc, np.column_stack((-tang[:, 1], tang[:, 0]))


# -- rasterization -----------------------------------------------------------


def rasterize(
    polyline_working: np.ndarray | list | str | Path,
    polyline_source: np.ndarray | list | str | Path,
    mesh: float,
) -> LatticeDomain:
    """Rasterize the region jointly enclosed by two tagged polylines.

    Site centers sit at half-integer multiples of the mesh so that polyline
    segments running along grid lines coincide exactly with lattice faces.
    Two closed loops describe a ring-shaped region (one loop inside the
    other); two open polylines are joined end-to-end into a single loop.
    Faces are tagged Working/Source by the nearer polyline and weighted by
    the alignment between the face normal and the local polyline normal.
    Every check, the fill and the face geometry run in site units, on polyline / mesh.
    """
    mesh = _positive(mesh, "mesh")
    work = _site_units(load_polyline(polyline_working), mesh)
    src = _site_units(load_polyline(polyline_source), mesh)
    for poly, label in ((work, "working"), (src, "source")):
        if _self_intersects(poly):
            raise DegenerateGeometry(f"{label} polyline self-intersects")

    if _is_closed(work) and _is_closed(src):
        if _polylines_cross(work, src):
            raise DegenerateGeometry("working and source polylines cross")
        loops = [work, src]
    elif not _is_closed(work) and not _is_closed(src):
        ring = _join_open(work, src)
        if _self_intersects(ring):
            raise DegenerateGeometry("joined working+source loop self-intersects")
        loops = [ring]
    else:
        raise DegenerateGeometry("polylines must be both closed or both open")

    return _rasterize(loops, [work, src], mesh, "polylines enclose no lattice sites at this mesh")


def _rasterize(loops, curves, mesh: float, empty: str) -> LatticeDomain:
    """Bulk sites inside the site-unit loops and their faces, tagged and measured by the nearest curve."""
    allpts = np.vstack(curves)
    lo = np.floor(allpts.min(axis=0)).astype(int) - 2
    hi = np.ceil(allpts.max(axis=0)).astype(int) + 2
    extent = (allpts.max(axis=0) - allpts.min(axis=0)).min()
    if extent < 4:
        raise MeshTooCoarse(f"mesh {mesh} exceeds a quarter of the region extent {extent * mesh}")
    bulk = _sites_inside(loops, lo, hi)
    if len(bulk) == 0:
        raise DegenerateGeometry(empty)
    index = _SiteIndex(bulk)
    inward, exterior = _boundary_faces(index)
    tags, arc, weight = _face_geometry(inward, exterior, curves)
    if len(np.unique(tags)) < len(curves):
        raise MeshTooCoarse("rasterization left no working or no source faces")
    return _assemble(mesh, index, inward, exterior, tags, weight, arc * mesh)


def _join_open(work: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Join two open polylines into one closed loop (orienting source to fit)."""
    d_tail = np.linalg.norm(work[-1] - src[0]) + np.linalg.norm(src[-1] - work[0])
    d_flip = np.linalg.norm(work[-1] - src[-1]) + np.linalg.norm(src[0] - work[0])
    s = src if d_tail <= d_flip else src[::-1]
    ring = np.vstack([work, s, work[:1]])
    # drop exact duplicates at the seams
    keep = np.ones(len(ring), dtype=bool)
    keep[1:] = np.any(ring[1:] != ring[:-1], axis=1)
    ring = ring[keep]
    if len(ring) < 4:
        raise DegenerateGeometry("joined loop is degenerate")
    return ring


# -- hand-built lattices -----------------------------------------------------


def lattice_box(
    nx: int,
    ny: int,
    mesh: float,
    source_side: str | None = "top",
) -> LatticeDomain:
    """nx-by-ny block of bulk sites, faces on all four sides.

    One side is tagged Source; pass source_side=None for an all-working box.
    """
    nx, ny = _count(nx, "nx", 1), _count(ny, "ny", 1)
    sides = {"left", "right", "bottom", "top"}
    if source_side is not None and source_side not in sides:
        raise InvalidParam(f"source_side must be one of {sorted(sides)}")
    bulk = _grid_sites((0, 0), (nx, ny))
    index = _SiteIndex(bulk)
    inward, exterior = _boundary_faces(index)
    x, y = exterior.T
    on_side = {"left": x < 0, "right": x >= nx, "bottom": y < 0, "top": y >= ny}
    source = on_side[source_side] if source_side is not None else np.zeros(len(x), dtype=bool)
    tags = np.where(source, BoundaryTag.SOURCE, BoundaryTag.WORKING)
    return _assemble(mesh, index, inward, exterior, tags, np.ones(len(tags)))


def rasterize_loop(polyline, mesh: float) -> LatticeDomain:
    """Rasterize a single closed curve; every face is working.

    This is the sourceless variant of rasterize, used for spectra of closed
    interfaces. InvalidParam if the polyline is not closed.
    """
    mesh = _positive(mesh, "mesh")
    poly = _site_units(load_polyline(polyline), mesh)
    if not _is_closed(poly):
        raise InvalidParam("rasterize_loop needs a closed polyline")
    if _self_intersects(poly):
        raise DegenerateGeometry("polyline self-intersects")
    return _rasterize([poly], [poly], mesh, "polyline encloses no lattice sites at this mesh")


def _channel_domain(profile: np.ndarray, source_height: float, mesh: float, source_top: bool = True) -> LatticeDomain:
    """Strip between an open working curve and a flat source overhead.

    Bulk sites fill the region between the curve and the source line, and
    only the components that touch the source are kept: a pocket the curve
    seals off carries no flux. The side columns get no faces, so they
    reflect. Working faces take weight and arclength from the nearest curve
    segment; source faces (the top row's, unless source_top is False) have
    weight 1 and arclength 0 and sort last. The fill and the face geometry
    run in site units, on profile / mesh, so any mesh at which those fit a
    float builds the strip it names.
    """
    if not source_height > profile[:, 1].max():
        raise InvalidParam("source must sit above the whole working curve")
    if profile[-1, 0] <= profile[0, 0]:
        raise InvalidParam("profile must run left to right")
    ends = [[profile[-1, 0], source_height], [profile[0, 0], source_height]]
    loop = _site_units(np.vstack((profile, ends, profile[:1])), mesh)
    curve, top = loop[:-3], loop[-2, 1]
    x0, x1 = float(curve[0, 0]), float(curve[-1, 0])
    i_lo, i_hi, j_top = int(round(x0)), int(round(x1)), int(round(top))
    j_lo = int(np.floor(curve[:, 1].min())) - 1
    bulk = _sites_inside([loop], (i_lo, j_lo), (i_hi, j_top))
    if len(bulk) == 0:
        raise DegenerateGeometry("no bulk sites between the curve and the source")
    # the top row's +y steps are the source faces
    top_row = bulk[:, 1] == j_top - 1
    if not top_row.any():
        raise DegenerateGeometry("no bulk site touches the source")
    index = _SiteIndex(bulk)
    n_comp, label = index.components
    if n_comp > 1:
        index = _SiteIndex(bulk[np.isin(label, label[top_row])])
    # reflecting side walls get no faces at all
    inward, exterior = _boundary_faces(index, keep=lambda t: (t[:, 0] >= i_lo) & (t[:, 0] < i_hi))
    tags = np.where((exterior[:, 1] >= j_top) & source_top, BoundaryTag.SOURCE, BoundaryTag.WORKING)
    weight = np.ones(len(tags))
    arc = np.zeros(len(tags))
    working = tags == BoundaryTag.WORKING
    if not working.any():
        raise DegenerateGeometry("the curve produced no working faces")
    _, arc[working], weight[working] = _face_geometry(inward[working], exterior[working], [curve])
    return _assemble(mesh, index, inward, exterior, tags, weight, arc * mesh)


def lattice_channel(
    n_rows: int,
    mesh: float,
    width: int = 1,
    source_top: bool = True,
) -> LatticeDomain:
    """Vertical channel with reflecting side walls (quasi-1D test geometry).

    The _channel_domain strip under the flat profile (0, 0)-(width * mesh, 0)
    with its source at n_rows * mesh: a width-by-n_rows block of bulk sites,
    x-major, whose bottom faces, with arclength (i + 0.5) * mesh, are
    Working and whose top faces are Source (Working when source_top is
    False). A height or width that overflows a float raises InvalidParam.
    """
    n_rows, width = _count(n_rows, "n_rows", 2), _count(width, "width", 1)
    if not isinstance(source_top, (bool, np.bool_)):
        raise InvalidParam(f"source_top must be a bool, not {source_top!r}")
    mesh = _positive(mesh, "mesh")
    size = max(n_rows, width)  # compared as an int first: a count past the float range cannot convert
    if size > sys.float_info.max or not math.isfinite(size * mesh):
        raise InvalidParam(f"a {width} x {n_rows} channel at mesh {mesh} overflows a float")
    return _channel_domain(np.array([[0.0, 0.0], [width * mesh, 0.0]]), n_rows * mesh, mesh, source_top)
