"""Domain construction: canonical specs, hand lattices, rasterization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prbm import dtn, lsa, walkers
from prbm import geometry as geo
from prbm.errors import DegenerateGeometry, InvalidParam, MeshTooCoarse
from prbm.rng import RngStream


def test_make_canonical_natural_dimensions():
    assert geo.make_canonical("disk_interior").dimension == 2
    assert geo.make_canonical("ball_exterior").dimension == 3
    assert geo.make_canonical("half_space").dimension == 2
    assert geo.make_canonical("half_space", dimension=5).dimension == 5
    spec = geo.make_canonical("annulus", outer_radius=3.0)
    assert spec.outer_radius == 3.0 and spec.dimension == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="no_such_domain"),
        dict(kind="disk_interior", dimension=3),
        dict(kind="annulus"),
        dict(kind="annulus", outer_radius=0.5),
        dict(kind="disk_interior", outer_radius=2.0),
        dict(kind="half_space", dimension=1),
    ],
)
def test_make_canonical_rejects(kwargs):
    with pytest.raises(InvalidParam):
        geo.make_canonical(**kwargs)


def test_lattice_box_shape_and_tags():
    box = geo.lattice_box(5, 3, 0.1)
    assert box.n_bulk == 15
    assert box.n_faces == 2 * (5 + 3)
    # the source side is the top row of exterior sites
    src = box.face_exterior[box.source_mask()]
    assert np.all(src[:, 1] == 3) and len(src) == 5
    assert np.all(box.face_weight == 1.0)
    assert math.isclose(box.measures().sum(), 16 * 0.1)


def test_lattice_box_sourceless_and_errors():
    closed = geo.lattice_box(4, 4, 0.25, source_side=None)
    assert not closed.source_mask().any()
    with pytest.raises(InvalidParam):
        geo.lattice_box(0, 4, 0.25)
    with pytest.raises(InvalidParam):
        geo.lattice_box(4, 4, 0.25, source_side="north")


@given(nx=st.integers(1, 12), ny=st.integers(1, 12), mesh=st.floats(1e-3, 10.0))
@settings(max_examples=40, deadline=None)
def test_box_boundary_measure_is_perimeter(nx, ny, mesh):
    """Face measures of an aligned box add up to its exact perimeter."""
    box = geo.lattice_box(nx, ny, mesh)
    assert math.isclose(box.measures().sum(), 2 * (nx + ny) * mesh, rel_tol=1e-12)


def test_neighbor_table_box_interior_and_corner():
    box = geo.lattice_box(3, 3, 1.0)
    table = box.neighbor_table()
    center = box.site_index([(1, 1)])[0]
    # all four neighbours of the center are bulk sites
    assert np.all((table[center] >= 0) & (table[center] < box.n_bulk))
    corner = box.site_index([(0, 0)])[0]
    face_codes = table[corner][table[corner] >= box.n_bulk]
    assert len(face_codes) == 2
    assert geo.MISSING_NEIGHBOR not in table[corner]


def test_channel_side_walls_are_missing_neighbors():
    ch = geo.lattice_channel(4, 0.5)
    table = ch.neighbor_table()
    middle = ch.site_index([(0, 1)])[0]
    assert np.count_nonzero(table[middle] == geo.MISSING_NEIGHBOR) == 2
    assert ch.n_faces == 2
    with pytest.raises(InvalidParam):
        geo.lattice_channel(1, 0.5)


def test_face_midpoints_sit_between_cell_centers():
    box = geo.lattice_box(2, 2, 0.25)
    mids = box.face_midpoints()
    # face joining bulk (0,0) to exterior (0,-1) is centered at (0.125, 0.0)
    k = next(
        i for i in range(box.n_faces)
        if tuple(box.face_inward[i]) == (0, 0) and tuple(box.face_exterior[i]) == (0, -1)
    )
    assert np.allclose(mids[k], [0.125, 0.0])


def test_load_polyline_variants(tmp_path):
    pts = [[0.0, 0.0], [1.0, 0.5]]
    assert np.array_equal(geo.load_polyline(pts), np.asarray(pts))
    path = tmp_path / "line.json"
    path.write_text(json.dumps(pts))
    assert np.array_equal(geo.load_polyline(path), np.asarray(pts))
    assert np.array_equal(geo.load_polyline(json.dumps(pts)), np.asarray(pts))
    # JSON text past 255 characters was probed as a file name and raised
    # OSError: File name too long
    long = [[i / 100, 0.0] for i in range(101)]
    assert np.array_equal(geo.load_polyline(" " + json.dumps(long)), np.asarray(long))


@pytest.mark.parametrize(
    "bad",
    [[[0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, np.nan], [1.0, 0.0]],
     "garbage", [[0.0, 0.0], [1.0]], [[True, False], [False, True]], [[True, 0.5], [0.0, 1.0]],
     pytest.param([np.zeros((2, 2)), np.zeros((2, 3))], id="mixed_shape_arrays"),
     pytest.param("x" * 300, id="overlong_missing_path")],
)
def test_load_polyline_rejects(bad):
    with pytest.raises(DegenerateGeometry):
        geo.load_polyline(bad)


def test_circle_polyline_closed():
    circle = geo.circle_polyline(2.0, 16, center=(1.0, -1.0))
    assert np.allclose(circle[0], circle[-1])
    assert np.allclose(np.hypot(circle[:, 0] - 1.0, circle[:, 1] + 1.0), 2.0)
    with pytest.raises(InvalidParam):
        geo.circle_polyline(0.0)


def test_rasterize_loop_weighted_perimeter(disk64):
    """Alignment weights recover the true circumference.

    A staircase rasterization of a circle carries 4/pi times too much
    boundary length; the measured check is that the weighted total lands on
    2 pi (about 0.1% here) while the raw face count stays inflated.
    """
    two_pi = 2.0 * math.pi
    weighted = disk64.measures().sum()
    staircase = disk64.mesh * disk64.n_faces
    assert abs(weighted - two_pi) / two_pi < 0.005
    assert staircase / two_pi > 1.25


def test_rasterize_loop_wants_closed_curve():
    open_arc = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(InvalidParam):
        geo.rasterize_loop(open_arc, 0.1)


def test_rasterize_annulus_tags_by_nearest_curve(annulus128):
    mids = annulus128.face_midpoints()
    radii = np.hypot(mids[:, 0], mids[:, 1])
    assert np.all(radii[annulus128.working_mask()] < 2.0)
    assert np.all(radii[annulus128.source_mask()] > 2.0)
    # faces come sorted by tag then arclength, so estimators can bin directly
    arc = annulus128.face_arclength
    w = annulus128.working_mask()
    assert np.all(np.diff(arc[w]) >= 0)
    assert np.all(np.diff(arc[~w]) >= 0)


_BOWTIE = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])


def _densified(poly, pieces):
    """Each segment split into pieces equal parts (odd, so the crossing stays mid-segment)."""
    t = np.arange(pieces)[:, None] / pieces
    inner = (poly[:-1, None, :] * (1 - t) + poly[1:, None, :] * t).reshape(-1, 2)
    return np.vstack([inner, poly[-1:]])


@pytest.mark.parametrize(
    "bowtie", [_BOWTIE, _densified(_BOWTIE, 801)], ids=["bowtie", "dense_bowtie"]
)
def test_rasterize_rejects_self_intersection(bowtie):
    with pytest.raises(DegenerateGeometry):
        geo.rasterize_loop(bowtie, 0.05)


def test_rasterize_rejects_crossing_loops():
    """Two closed loops must nest; crossing ones no longer fill their symmetric difference."""
    unit = geo.circle_polyline(1.0, 512)
    with pytest.raises(DegenerateGeometry, match="working and source polylines cross"):
        geo.rasterize(unit, geo.circle_polyline(1.0, 512, center=(1.0, 0.0)), 1.0 / 32.0)
    outer = geo.circle_polyline(3.0, 512)
    for work, src in ((unit, outer), (outer, unit)):
        dom = geo.rasterize(work, src, 1.0 / 8.0)
        assert dom.working_mask().any() and dom.source_mask().any()


def test_rasterize_accepts_dense_circle():
    circle = geo.circle_polyline(1.0, 30000)
    assert not geo._self_intersects(circle)
    dom = geo.rasterize_loop(circle, 1.0 / 16.0)
    assert abs(dom.measures().sum() - 2.0 * math.pi) < 0.05


# -- brute-force oracles for the rasterization kernels -------------------------


def _inside_even_odd(points, loops):
    """Even-odd point-in-region test, every point against every segment."""
    inside = np.zeros(len(points), dtype=bool)
    X, Y = points[:, :1], points[:, 1:]
    for loop in loops:
        x0, y0 = loop[None, :-1, 0], loop[None, :-1, 1]
        x1, y1 = loop[None, 1:, 0], loop[None, 1:, 1]
        straddle = (y0 <= Y) != (y1 <= Y)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xc = x0 + (Y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= ((straddle & (X < xc)).sum(axis=1) % 2).astype(bool)
    return inside


def _proper_cross(a, b, i, js):
    """Proper-crossing verdicts of segment i against segments js."""
    d = b - a
    denom = d[i, 0] * d[js, 1] - d[i, 1] * d[js, 0]
    ok = np.abs(denom) > 1e-30
    r = a[js] - a[i]
    t = np.where(ok, (r[:, 0] * d[js, 1] - r[:, 1] * d[js, 0]) / np.where(ok, denom, 1.0), -1.0)
    u = np.where(ok, (r[:, 0] * d[i, 1] - r[:, 1] * d[i, 0]) / np.where(ok, denom, 1.0), -1.0)
    eps = 1e-12
    return (t > eps) & (t < 1 - eps) & (u > eps) & (u < 1 - eps)


def _self_intersects(poly):
    """Every non-adjacent segment pair, O(n^2); the ends meet to 1e-9 of the largest coordinate (at least 1)."""
    a, b = poly[:-1], poly[1:]
    n = len(a)
    closed = bool(np.abs(poly[-1] - poly[0]).max() <= 1e-9 * max(1.0, np.abs(poly).max()))
    for i in range(n):
        js = np.arange(i + 2, n)
        if closed and i == 0 and len(js):
            js = js[:-1]
        if len(js) and _proper_cross(a, b, i, js).any():
            return True
    return False


def _polylines_cross(p, q):
    """Every segment of p against every segment of q."""
    a, b = np.vstack((p[:-1], q[:-1])), np.vstack((p[1:], q[1:]))
    n, m = len(p) - 1, len(a)
    return any(_proper_cross(a, b, i, np.arange(n, m)).any() for i in range(n))


def _nearest_on_polyline(points, poly):
    """Distance, arclength and normal of the nearest of all segments."""
    a, b = poly[:-1], poly[1:]
    d = b - a
    seg_len = np.hypot(d[:, 0], d[:, 1])
    keep = seg_len > 0
    a, d, seg_len = a[keep], d[keep], seg_len[keep]
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    r = points[:, None, :] - a[None, :, :]
    t = np.clip((r * d[None]).sum(axis=2) / (seg_len**2)[None, :], 0.0, 1.0)
    closest = a[None] + t[:, :, None] * d[None]
    d2 = ((points[:, None, :] - closest) ** 2).sum(axis=2)
    j = np.argmin(d2, axis=1)
    rows = np.arange(len(points))
    tang = d / seg_len[:, None]
    normals = np.column_stack((-tang[:, 1], tang[:, 0]))
    return np.sqrt(d2[rows, j]), cum[j] + t[rows, j] * seg_len[j], normals[j]


def _bits(x):
    return x.dtype, x.shape, x.tobytes()


@st.composite
def _star_loops(draw):
    """A star-shaped polygon, or a ring of two, in site units, with vertices and edges on center rows.

    Some vertices snap to cell-center rows j + 0.5 or columns, and some
    edges become horizontal along a center row, so the fill meets every
    tie of its predicates.
    """
    mesh = draw(st.sampled_from([0.25, 0.1, 1.0 / 8.0, 0.3]))
    n = draw(st.integers(3, 24))
    angles = np.sort(draw(st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=n, max_size=n, unique=True)))
    radii = np.array(draw(st.lists(st.floats(0.6, 3.0), min_size=n, max_size=n)))
    cx, cy = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    snap = lambda v: np.round(v - 0.5) + 0.5
    loops = []
    for scale in [1.0] + ([draw(st.floats(0.2, 0.5))] if draw(st.booleans()) else []):
        pts = np.column_stack((cx + scale * radii * np.cos(angles), cy + scale * radii * np.sin(angles))) / mesh
        rows = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        cols = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        pts[rows, 1] = snap(pts[rows, 1])
        pts[cols, 0] = snap(pts[cols, 0])
        for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            pts[(k + 1) % n, 1] = pts[k, 1] = snap(pts[k, 1])
        loops.append(np.vstack((pts, pts[:1])))
    return loops


@settings(max_examples=200, deadline=None)
@given(loops=_star_loops())
def test_scanline_fill_matches_brute_force(loops):
    pts = np.vstack(loops)
    lo = np.floor(pts.min(axis=0)).astype(int) - 2
    hi = np.ceil(pts.max(axis=0)).astype(int) + 2
    grid = geo._grid_sites(lo, hi)
    expected = grid[_inside_even_odd(grid + 0.5, loops)]
    assert _bits(geo._sites_inside(loops, lo, hi)) == _bits(expected)


@st.composite
def _tangled_polylines(draw):
    """Polylines on a coarse grid with some vertices nudged off it.

    Grid vertices give shared vertices, collinear overlaps and endpoint
    touches; nudges of 1e-9 to 1e-15 give near-parallel and near-touching
    segments.
    """
    n = draw(st.integers(2, 30))
    pts = np.array(draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=n, max_size=n)), dtype=float)
    for k in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        pts[k] += draw(st.sampled_from([1e-9, -1e-12, 3e-15])) * np.array(draw(st.sampled_from([(1, 0), (0, 1), (1, 1)])))
    if draw(st.booleans()):
        pts = np.vstack((pts, pts[:1]))
    return pts


@settings(max_examples=400, deadline=None)
@given(poly=_tangled_polylines(), other=_tangled_polylines())
def test_crossing_test_matches_brute_force(poly, other):
    assert geo._self_intersects(poly) == _self_intersects(poly)
    assert geo._polylines_cross(poly, other) == _polylines_cross(poly, other)


def test_crossing_test_ignores_disjoint_near_collinear_segments():
    """Round-off alone makes the brute force see segments 0 and 2 cross.

    The four points lie along one line, less than 1e-15 off it, and the
    boxes of segments 0 and 2 are disjoint, so no crossing can exist; the
    box test never pairs them. This is the one way the verdicts can differ.
    """
    poly = np.array([
        [0.6848021247523105, -0.6657899677121841],
        [2.2178845026504215, -2.8279263378145307],
        [2.469241475404087, -3.1824200431134146],
        [9.100100539482426, -12.534051601961982],
    ])
    assert _self_intersects(poly)
    assert not geo._self_intersects(poly)


def _with_zero_segments(poly):
    """Every third vertex repeated, so every third segment has zero length."""
    return np.repeat(poly, np.where(np.arange(len(poly)) % 3 == 1, 2, 1), axis=0)


def _long_beside_short():
    """One straight side of length 4 closed by an arc of 400 short segments."""
    th = np.linspace(0.0, np.pi, 401)
    arc = np.column_stack((2.0 + 2.0 * np.cos(th), 0.5 * np.sin(th)))
    return np.vstack(([0.0, 0.0], arc, [0.0, 0.0]))


@pytest.mark.parametrize(
    "poly",
    [
        geo.circle_polyline(1.0, 300),
        _with_zero_segments(geo.circle_polyline(1.0, 300)),
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]),
        _long_beside_short(),
    ],
    ids=["circle", "zero_length_segments", "square", "long_beside_short"],
)
def test_nearest_segment_matches_brute_force(poly):
    """Distance, arclength and normal at face midpoints and at grid points, bit for bit.

    The square's faces and grid points sit at equal distance from two or
    four sides, so ties must go to the lowest segment index.
    """
    mids = geo.rasterize_loop(poly, 1.0 / 32.0).face_midpoints()
    lo, hi = poly.min(axis=0) - 0.5, poly.max(axis=0) + 0.5
    grid = (geo._grid_sites((0, 0), (17, 17)) / 16.0) * (hi - lo) + lo
    points = np.vstack((mids, grid))
    got = geo._nearest_on_polyline(points, poly)
    for g, e in zip(got, _nearest_on_polyline(points, poly)):
        assert _bits(g) == _bits(e)


def test_rasterize_mesh_guard():
    with pytest.raises(MeshTooCoarse):
        geo.rasterize_loop(geo.circle_polyline(1.0, 256), 0.6)
    with pytest.raises(InvalidParam):
        geo.rasterize_loop(geo.circle_polyline(1.0, 256), -0.1)


def test_rasterize_mixed_open_closed_rejected():
    closed = geo.circle_polyline(1.0, 128)
    open_seg = np.array([[2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(DegenerateGeometry):
        geo.rasterize(closed, open_seg, 0.05)


def test_rasterize_open_pair_joins_into_strip():
    work = np.array([[0.0, 0.0], [2.0, 0.0]])
    src = np.array([[0.0, 1.0], [2.0, 1.0]])
    dom = geo.rasterize(work, src, 0.125)
    assert dom.working_mask().any() and dom.source_mask().any()
    mids = dom.face_midpoints()
    assert mids[dom.working_mask(), 1].max() < mids[dom.source_mask(), 1].min()


def test_validate_catches_duplicates_and_disconnection():
    box = geo.lattice_box(2, 2, 1.0)
    dup = geo.LatticeDomain(
        mesh=1.0,
        dimension=2,
        bulk_sites=np.vstack([box.bulk_sites, box.bulk_sites[:1]]),
        face_exterior=box.face_exterior,
        face_inward=box.face_inward,
        face_tag=box.face_tag,
        face_weight=box.face_weight,
    )
    with pytest.raises(DegenerateGeometry):
        dup.validate()

    a = geo.lattice_box(2, 1, 1.0)
    shifted = a.bulk_sites + np.array([5, 0])
    apart = geo.LatticeDomain(
        mesh=1.0,
        dimension=2,
        bulk_sites=np.vstack([a.bulk_sites, shifted]),
        face_exterior=np.vstack([a.face_exterior, a.face_exterior + np.array([5, 0])]),
        face_inward=np.vstack([a.face_inward, a.face_inward + np.array([5, 0])]),
        face_tag=np.concatenate([a.face_tag, a.face_tag]),
        face_weight=np.concatenate([a.face_weight, a.face_weight]),
    )
    with pytest.raises(MeshTooCoarse):
        apart.validate()
    apart.validate(check_connected=False)


def test_validate_catches_misplaced_faces():
    box = geo.lattice_box(2, 2, 1.0)
    inside = geo.LatticeDomain(
        mesh=1.0,
        dimension=2,
        bulk_sites=box.bulk_sites,
        face_exterior=box.face_inward,  # exterior sites that are actually bulk
        face_inward=box.face_inward,
        face_tag=box.face_tag,
        face_weight=box.face_weight,
    )
    with pytest.raises(DegenerateGeometry):
        inside.validate()


def _box_with_faces(faces=None, exterior=None):
    """A 4x4 box with its faces taken in the order faces, or with new exterior sites."""
    box = geo.lattice_box(4, 4, 0.25)
    faces = np.arange(box.n_faces) if faces is None else faces
    return geo.LatticeDomain(
        mesh=box.mesh,
        dimension=2,
        bulk_sites=box.bulk_sites,
        face_exterior=(box.face_exterior if exterior is None else exterior)[faces],
        face_inward=box.face_inward[faces],
        face_tag=box.face_tag[faces],
        face_weight=box.face_weight[faces],
    )


def _face_listed_twice():
    box = geo.lattice_box(4, 4, 0.25)
    return _box_with_faces(faces=np.append(np.arange(box.n_faces), np.flatnonzero(box.working_mask())[0]))


def _face_into_the_bulk():
    box = geo.lattice_box(4, 4, 0.25)
    exterior = box.face_exterior.copy()
    exterior[0] = 2 * box.face_inward[0] - exterior[0]  # the bulk site across its inward site
    return _box_with_faces(exterior=exterior)


def _fractional_box():
    """A 3x3 box with every coordinate moved by 0.4, which an int64 cast would move back."""
    box = geo.lattice_box(3, 3, 0.25)
    return geo.LatticeDomain(
        mesh=box.mesh,
        dimension=2,
        bulk_sites=box.bulk_sites + 0.4,
        face_exterior=box.face_exterior + 0.4,
        face_inward=box.face_inward + 0.4,
        face_tag=box.face_tag,
        face_weight=box.face_weight,
    )


@pytest.mark.parametrize(
    "build", [_face_listed_twice, _face_into_the_bulk, _fractional_box], ids=["listed_twice", "into_the_bulk", "fractional"]
)
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(geo.LatticeDomain.validate, id="validate"),
        pytest.param(dtn.build_Q, id="build_Q"),
        pytest.param(lambda dom: dtn.absorption_law(dom, 0.5), id="absorption_law"),
        pytest.param(dtn.hitting_distribution, id="hitting_distribution"),
        pytest.param(
            lambda dom: walkers.estimate_spread_measure(
                dom, "source", walkers.JumpParams(Lambda=0.5, a=dom.mesh), 100, RngStream(0)
            ),
            id="estimate_spread_measure",
        ),
    ],
)
def test_every_lattice_solve_and_walk_refuses_misplaced_faces(build, call):
    """A face that shares its slot or sits on a bulk neighbour is refused by validate and by every solve and walk."""
    with pytest.raises(DegenerateGeometry):
        call(build())


def test_validate_wants_integer_coordinates():
    """Integral floats pass; a fraction, a non-finite value, a bool or a float past int64 is refused."""
    box = geo.lattice_box(3, 3, 0.25)
    arrays = {name: getattr(box, name) for name in ("bulk_sites", "face_inward", "face_exterior")}

    def domain(**changed):
        return geo.LatticeDomain(
            mesh=box.mesh, dimension=2, face_tag=box.face_tag, face_weight=box.face_weight, **{**arrays, **changed}
        )

    domain(**{name: a.astype(float) for name, a in arrays.items()}).validate()
    for name, a in arrays.items():
        for bad in (a + 0.4, np.where(a == 0, np.inf, a), np.where(a == 0, np.nan, a), a != 0, a * 1e19):
            with pytest.raises(DegenerateGeometry, match=name):
                domain(**{name: bad}).validate()


def test_solves_and_walks_leave_the_site_graph_unwritten():
    dom = geo.rasterize(geo.circle_polyline(1.0, 256), geo.circle_polyline(3.0, 256), 1.0 / 8.0)
    table = dom.neighbor_table()
    assert np.any(table >= dom.n_bulk)
    dtn.absorption_law(dom, 0.5)
    walkers.estimate_spread_measure(dom, "source", walkers.JumpParams(Lambda=0.5, a=dom.mesh), 2_000, RngStream(0))
    graph = dom._index().neighbors
    assert np.array_equal(graph, geo._site_neighbors(geo._SiteIndex(dom.bulk_sites)))


_INT64 = np.iinfo(np.int64)


@st.composite
def _site_sets(draw):
    """Random 2-D and 3-D site lists with duplicates, far apart on some axes.

    Each axis adds its own far offset (0, 1,000,003 or 2^40) to a random
    subset of the sites, so a set can reach past what an int64 key counts.
    """
    d = draw(st.sampled_from([2, 3]))
    small = st.tuples(*[st.integers(-4, 4)] * d)
    rows = draw(st.lists(st.tuples(small, st.tuples(*[st.booleans()] * d)), min_size=1, max_size=60))
    far = draw(st.tuples(*[st.sampled_from([0, 1_000_003, 2**40])] * d))
    sites = [tuple(c + f * j for c, f, j in zip(s, far, jump)) for s, jump in rows]
    repeat = draw(st.lists(st.integers(0, len(sites) - 1), max_size=8))
    return draw(st.permutations(sites + [sites[i] for i in repeat]))


@settings(max_examples=200, deadline=None)
@given(sites=_site_sets())
def test_site_index_matches_dict(sites):
    """Every lookup against a dict built in row order, where the last row wins.

    Queries are the members, their near misses one and two steps off along
    each axis, and points outside the bounding box out to the int64 limits
    and one past them, which is off every set.
    A set whose box has more cells than an int64 counts must be refused.
    """
    d = len(sites[0])
    lo = [min(s[k] for s in sites) for k in range(d)]
    hi = [max(s[k] for s in sites) for k in range(d)]
    if math.prod(h - l + 1 for l, h in zip(lo, hi)) > _INT64.max:
        with pytest.raises(DegenerateGeometry):
            geo._SiteIndex(np.array(sites, dtype=np.int64))
        return
    index = geo._SiteIndex(np.array(sites, dtype=np.int64))
    row = {s: i for i, s in enumerate(sites)}
    assert index.n_distinct == len(row)
    steps = [tuple(v * (k == axis) for k in range(d)) for axis in range(d) for v in (-2, -1, 1, 2)]
    queries = list(sites) + [tuple(c + e for c, e in zip(s, step)) for s in sites for step in steps]
    queries += [tuple(l - 1 for l in lo), tuple(h + 1 for h in hi), (_INT64.min,) * d, (_INT64.max,) * d]
    queries += [(2**63,) + tuple(lo[1:])]
    queries += [tuple(hi[:k]) + (lo[k] - 1,) + tuple(hi[k + 1:]) for k in range(d)]
    assert index(queries).tolist() == [row.get(q, -1) for q in queries]


@pytest.mark.parametrize("span, refused", [(_INT64.max - 1, False), (_INT64.max, True)])
def test_site_index_box_limit(span, refused):
    """A box of exactly int64-max cells is indexed; one cell more is refused."""
    sites = np.array([[0, 0], [span, 0]], dtype=np.int64)
    if refused:
        with pytest.raises(DegenerateGeometry):
            geo._SiteIndex(sites)
    else:
        assert geo._SiteIndex(sites)([[span, 0], [0, 0], [1, 0], [0, 1]]).tolist() == [1, 0, -1, -1]


def test_validate_refuses_a_box_beyond_int64_keys():
    sites = np.array([[0, 0], [2**40, 2**40]], dtype=np.int64)
    with pytest.raises(DegenerateGeometry):
        geo._SiteIndex(sites)
    far = geo.LatticeDomain(
        mesh=1.0,
        dimension=2,
        bulk_sites=sites,
        face_exterior=np.empty((0, 2), dtype=np.int64),
        face_inward=np.empty((0, 2), dtype=np.int64),
        face_tag=np.empty(0, dtype=np.uint8),
        face_weight=np.empty(0),
    )
    with pytest.raises(DegenerateGeometry):
        far.validate()


_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@settings(max_examples=150, deadline=None)
@given(
    cells=st.lists(
        st.tuples(st.integers(-7, 7), st.integers(-7, 7)), min_size=1, max_size=200, unique=True
    ),
    jump=st.sampled_from([0, 1_000_003, 2**40]),
    wall=st.one_of(st.none(), st.integers(-7, 7)),
)
def test_face_builder_matches_set_enumeration(cells, jump, wall):
    """Faces, face order, neighbour table and connectivity against plain sets.

    Cells with y >= 0 move jump columns right, so the bulk can hold sites far
    apart; exterior sites left of wall get no face, as at a reflecting side
    wall. The reference is the corridor fixture's loop plus a BFS.
    """
    bulk = np.array([(x + jump if y >= 0 else x, y) for x, y in cells], dtype=np.int64)
    sites = [tuple(map(int, s)) for s in bulk]
    inset = set(sites)
    f_in, f_ext = [], []
    for s in sites:
        for dx, dy in _STEPS:
            t = (s[0] + dx, s[1] + dy)
            if t not in inset and (wall is None or t[0] >= wall):
                f_in.append(s)
                f_ext.append(t)
    keep = None if wall is None else (lambda t: t[:, 0] >= wall)
    inward, exterior = geo._boundary_faces(geo._SiteIndex(bulk), keep=keep)
    assert inward.tolist() == [list(s) for s in f_in]
    assert exterior.tolist() == [list(t) for t in f_ext]

    dom = geo.LatticeDomain(
        mesh=1.0,
        dimension=2,
        bulk_sites=bulk,
        face_exterior=exterior.reshape(-1, 2),
        face_inward=inward.reshape(-1, 2),
        face_tag=np.zeros(len(f_in), dtype=np.uint8),
        face_weight=np.ones(len(f_in)),
    )
    nb = len(sites)
    position = {s: i for i, s in enumerate(sites)}
    face_of = {pair: f for f, pair in enumerate(zip(f_in, f_ext))}
    expected = []
    for s in sites:
        row = []
        for dx, dy in _STEPS:
            t = (s[0] + dx, s[1] + dy)
            if t in position:
                row.append(position[t])
            elif (s, t) in face_of:
                row.append(nb + face_of[(s, t)])
            else:
                row.append(geo.MISSING_NEIGHBOR)
        expected.append(row)
    assert dom.neighbor_table().tolist() == expected
    assert dom.inward_indices().tolist() == [position[s] for s in f_in]
    assert dom.site_index(f_ext).tolist() == [-1] * len(f_ext)

    seen, queue = {sites[0]}, [sites[0]]
    while queue:
        x, y = queue.pop()
        for dx, dy in _STEPS:
            t = (x + dx, y + dy)
            if t in inset and t not in seen:
                seen.add(t)
                queue.append(t)
    if len(seen) == nb:
        dom.validate()
    else:
        with pytest.raises(MeshTooCoarse):
            dom.validate()


# -- one site graph per domain -------------------------------------------------


def _koch3_strip():
    return lsa._channel_domain(lsa.koch_polyline(3), 1.0, 1.0 / 128.0)


def _chorded_koch3_strip():
    """At Lambda = 0.4229 the chords seal one bulk site off from the source."""
    return lsa._channel_domain(lsa.coarse_grain(lsa.koch_polyline(3), 0.4229), 1.0, 1.0 / 128.0)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: geo.rasterize(geo.circle_polyline(1.0, 512), geo.circle_polyline(3.0, 512), 1.0 / 16.0),
                     id="rasterize_annulus"),
        pytest.param(lambda: geo.rasterize_loop(geo.circle_polyline(1.0, 512), 1.0 / 16.0), id="rasterize_loop"),
        pytest.param(lambda: geo.lattice_box(9, 7, 0.125), id="lattice_box"),
        pytest.param(lambda: geo.lattice_channel(12, 0.1, width=3), id="lattice_channel"),
        pytest.param(_koch3_strip, id="koch3_strip"),
        pytest.param(_chorded_koch3_strip, id="chorded_koch3_strip"),
    ],
)
def test_built_graph_matches_a_fresh_domain(build):
    """A builder's shared site graph equals the one a cacheless domain computes.

    The chorded strip takes the pocket-filter path, which drops a sealed
    component and indexes the sites it keeps afresh.
    """
    dom = build()
    fresh = geo.LatticeDomain(
        mesh=dom.mesh,
        dimension=dom.dimension,
        bulk_sites=dom.bulk_sites.copy(),
        face_exterior=dom.face_exterior.copy(),
        face_inward=dom.face_inward.copy(),
        face_tag=dom.face_tag.copy(),
        face_weight=dom.face_weight.copy(),
    )
    fresh.validate()
    assert np.array_equal(dom.neighbor_table(), fresh.neighbor_table())
    count, labels = dom._index().components
    assert count == fresh._index().components[0] == 1
    assert np.array_equal(labels, fresh._index().components[1])


@pytest.fixture
def graph_calls(monkeypatch):
    """Calls of the one neighbour lookup and the one component labelling."""
    calls = {"_site_neighbors": 0, "_components": 0}
    for name in calls:
        def spy(*args, _name=name, _f=getattr(geo, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(geo, name, spy)
    return calls


def test_compare_flux_builds_each_strip_graph_once(graph_calls, monkeypatch):
    lookups = []
    call = geo._SiteIndex.__call__
    monkeypatch.setattr(geo._SiteIndex, "__call__", lambda self, sites: lookups.append(1) or call(self, sites))
    lsa.compare_flux(lsa.koch_polyline(2), 1.0, 0.25, 1.0 / 64.0)
    assert graph_calls == {"_site_neighbors": 2, "_components": 2}
    # each strip looks its faces' inward sites up once; no exterior site is looked up
    assert len(lookups) == 2


def test_operator_and_walker_chain_builds_the_graph_once(graph_calls):
    def annulus():
        return geo.rasterize(geo.circle_polyline(1.0, 256), geo.circle_polyline(3.0, 256), 1.0 / 8.0)

    def walk(dom):
        params = walkers.JumpParams(Lambda=0.5, a=1.0 / 8.0)
        walkers.estimate_spread_measure(dom, "source", params, 2_000, RngStream(0))

    # the walkers' jump exit laws are boxes of their own, solved once per process
    walk(annulus())
    graph_calls.update(dict.fromkeys(graph_calls, 0))
    dom = annulus()
    dtn.build_Q(dom)
    dtn.hitting_distribution(dom)
    dtn.absorption_law(dom, 0.5)
    walk(dom)
    assert graph_calls == {"_site_neighbors": 1, "_components": 1}


# -- the strip builder -----------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    n_rows=st.integers(2, 101),
    width=st.integers(1, 5),
    mesh=st.sampled_from([1e-3, 0.05, 0.07, 0.1, 1.0 / 3.0, 7.0, 5e-324, 1e-310, 1e300, 1e306]) | st.floats(1e-3, 10.0),
    source_top=st.booleans(),
    Lambda=st.sampled_from([0.0, 1e3]) | st.floats(0.0, 1e3),
)
def test_lattice_channel_is_the_flat_strip(n_rows, width, mesh, source_top, Lambda):
    """The width x n_rows grid, x-major, with weight-1 faces only above and below.

    Working faces come in bulk-site order with arclength (i + 0.5) mesh to
    two ulps, and the absorption law from the source is the flat-strip
    Robin law a / (n_rows a + Lambda + a) that the koch-coarse-grain
    benchmark holds compare_flux to.
    """
    ch = geo.lattice_channel(n_rows, mesh, width, source_top)
    assert np.array_equal(ch.bulk_sites, geo._grid_sites((0, 0), (width, n_rows)))
    x, y = ch.face_exterior.T
    assert np.array_equal(x, ch.face_inward[:, 0])
    below = y < 0
    assert np.array_equal(y, np.where(below, -1, n_rows))
    assert np.array_equal(ch.face_inward[:, 1], np.where(below, 0, n_rows - 1))
    assert ch.n_faces == 2 * width and np.all(ch.face_weight == 1.0)
    assert np.array_equal(ch.source_mask(), ~below & source_top)
    working = ch.working_mask()
    # the strip's right end is width * mesh / mesh, which may sit an ulp off width
    np.testing.assert_allclose(ch.face_arclength[working], (x[working] + 0.5) * mesh, rtol=4.5e-16, atol=0)
    assert np.all(np.diff(ch.site_index(ch.face_inward[working])) >= 0)
    if source_top and 1e-3 <= mesh <= 10.0:
        law = dtn.absorption_law(ch, Lambda)
        assert law.absorbed_fraction == pytest.approx(mesh / (n_rows * mesh + Lambda + mesh), rel=1e-9, abs=0)


@pytest.mark.parametrize("mesh", [5e-324, 1e-310, 1e300, 1e306])
@pytest.mark.parametrize("n_rows, width", [(3, 1), (7, 3), (40, 2)])
def test_lattice_channel_at_extreme_meshes(mesh, n_rows, width):
    """The fill runs in site units, so a mesh near either end of the float range
    builds the width x n_rows grid, without a warning (pytest makes one an error)."""
    ch = geo.lattice_channel(n_rows, mesh, width)
    assert np.array_equal(ch.bulk_sites, geo._grid_sites((0, 0), (width, n_rows)))
    assert np.array_equal(ch.face_exterior[ch.working_mask(), 1], np.full(width, -1))
    assert np.array_equal(ch.face_exterior[ch.source_mask(), 1], np.full(width, n_rows))


@pytest.mark.parametrize("n_rows, width, mesh", [(40, 1, 1e307), (2, 40, 1e307), (10**400, 1, 1e-3)])
def test_lattice_channel_refuses_a_float_overflow(n_rows, width, mesh):
    with pytest.raises(InvalidParam, match="overflows a float"):
        geo.lattice_channel(n_rows, mesh, width)


def _scaled_disk(scale):
    return geo.rasterize_loop(geo.circle_polyline(scale, 256), scale / 16.0)


def _scaled_annulus(scale):
    return geo.rasterize(geo.circle_polyline(scale, 256), geo.circle_polyline(3.0 * scale, 256), scale / 16.0)


_SITE_FIELDS = ("bulk_sites", "face_inward", "face_exterior", "face_tag")


@pytest.mark.parametrize("scale", [1e-300, 1e-20, 1e300])
@pytest.mark.parametrize("build", [_scaled_disk, _scaled_annulus], ids=["loop", "two_loops"])
def test_rasterize_at_extreme_scales(build, scale):
    """Every check, the fill and the face geometry run in site units, so curves and
    mesh scaled together near either end of the float range build the unit-scale
    lattice, without a warning (pytest makes one an error)."""
    ref, dom = build(1.0), build(scale)
    for name in _SITE_FIELDS:
        assert np.array_equal(getattr(dom, name), getattr(ref, name)), name
    np.testing.assert_allclose(dom.face_arclength / scale, ref.face_arclength, rtol=1e-12, atol=0)


@pytest.mark.parametrize("scale", [2.0**-600, 2.0**600])
@pytest.mark.parametrize("build", [_scaled_disk, _scaled_annulus], ids=["loop", "two_loops"])
def test_rasterize_scales_exactly_by_powers_of_two(build, scale):
    ref, dom = build(1.0), build(scale)
    for name in _SITE_FIELDS + ("face_weight",):
        assert _bits(getattr(dom, name)) == _bits(getattr(ref, name)), name
    assert _bits(dom.face_arclength) == _bits(ref.face_arclength * scale)


@pytest.mark.parametrize("scale", [1e-300, 1e-20, 1e300])
def test_rasterize_refuses_a_bowtie_at_any_scale(scale):
    with pytest.raises(DegenerateGeometry, match="self-intersects"):
        geo.rasterize_loop(_BOWTIE * scale, scale / 16.0)


def test_rasterize_loop_judges_closedness_in_site_units():
    """A 3/4 arc of radius 1e-10 is open, and so is a circle 1e5 off the origin
    whose last point is dropped (a 0.025 gap, 0.4 sites at mesh 1/16)."""
    th = np.linspace(0.0, 1.5 * np.pi, 97)
    arc = 1e-10 * np.column_stack((np.cos(th), np.sin(th)))
    far = geo.circle_polyline(1.0, 256, center=(1e5, 1e5))[:-1]
    for poly, mesh in ((arc, 1e-10 / 16.0), (far, 1.0 / 16.0)):
        with pytest.raises(InvalidParam, match="rasterize_loop needs a closed polyline"):
            geo.rasterize_loop(poly, mesh)


@pytest.mark.parametrize("mesh", [1e-310, 5e-324])
@pytest.mark.parametrize(
    "build",
    [
        lambda mesh: geo.rasterize_loop(geo.circle_polyline(1.0, 256), mesh),
        lambda mesh: geo.rasterize(geo.circle_polyline(1.0, 256), geo.circle_polyline(3.0, 256), mesh),
        lambda mesh: geo._channel_domain(lsa.koch_polyline(2), 1.0, mesh),
    ],
    ids=["loop", "two_loops", "strip"],
)
def test_builders_refuse_a_float_overflow_in_site_units(build, mesh):
    with pytest.raises(InvalidParam, match="overflows a float"):
        build(mesh)
