"""Domain construction: canonical specs, hand lattices, rasterization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prbm import geometry as geo
from prbm.errors import DegenerateGeometry, InvalidParam, MeshTooCoarse


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


def test_json_roundtrip():
    box = geo.lattice_box(4, 2, 0.5)
    clone = geo.LatticeDomain.from_json(box.to_json())
    assert clone.mesh == box.mesh
    assert np.array_equal(clone.bulk_sites, box.bulk_sites)
    assert np.array_equal(clone.face_exterior, box.face_exterior)
    assert np.array_equal(clone.face_tag, box.face_tag)
    assert np.array_equal(clone.face_weight, box.face_weight)


def _box_json(**changes):
    raw = json.loads(geo.lattice_box(4, 2, 0.5).to_json())
    for key, edit in changes.items():
        raw[key] = edit(raw[key])
    return json.dumps(raw)


@pytest.mark.parametrize(
    "text",
    [
        "{}",  # was a bare KeyError: 'mesh'
        _box_json(dimension=lambda d: 2.7),  # was read as 2
        _box_json(bulk_sites=lambda s: [[x + 0.4, y] for x, y in s]),  # was truncated
    ],
    ids=["missing_keys", "float_dimension", "fractional_sites"],
)
def test_from_json_refuses_missing_keys_and_non_integers(text):
    with pytest.raises(InvalidParam):
        geo.LatticeDomain.from_json(text)


def test_json_roundtrip_keeps_arclength(disk64):
    clone = geo.LatticeDomain.from_json(disk64.to_json())
    assert clone.face_arclength is not None
    assert np.array_equal(clone.face_arclength, disk64.face_arclength)


def test_load_polyline_variants(tmp_path):
    pts = [[0.0, 0.0], [1.0, 0.5]]
    assert np.array_equal(geo.load_polyline(pts), np.asarray(pts))
    path = tmp_path / "line.json"
    path.write_text(json.dumps(pts))
    assert np.array_equal(geo.load_polyline(path), np.asarray(pts))
    assert np.array_equal(geo.load_polyline(json.dumps(pts)), np.asarray(pts))


@pytest.mark.parametrize(
    "bad",
    [[[0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, np.nan], [1.0, 0.0]],
     "garbage", [[0.0, 0.0], [1.0]], [[True, False], [False, True]], [[True, 0.5], [0.0, 1.0]]],
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
    """Every non-adjacent segment pair, O(n^2)."""
    a, b = poly[:-1], poly[1:]
    n = len(a)
    closed = bool(np.allclose(poly[0], poly[-1]))
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
    """A star-shaped polygon, or a ring of two, with vertices and edges on center rows.

    Some vertices snap to cell-center rows (j + 0.5) * mesh or columns, and
    some edges become horizontal along a center row, so the fill meets
    every tie of its predicates.
    """
    mesh = draw(st.sampled_from([0.25, 0.1, 1.0 / 8.0, 0.3]))
    n = draw(st.integers(3, 24))
    angles = np.sort(draw(st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=n, max_size=n, unique=True)))
    radii = np.array(draw(st.lists(st.floats(0.6, 3.0), min_size=n, max_size=n)))
    cx, cy = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    snap = lambda v: (np.round(v / mesh - 0.5) + 0.5) * mesh
    loops = []
    for scale in [1.0] + ([draw(st.floats(0.2, 0.5))] if draw(st.booleans()) else []):
        pts = np.column_stack((cx + scale * radii * np.cos(angles), cy + scale * radii * np.sin(angles)))
        rows = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        cols = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        pts[rows, 1] = snap(pts[rows, 1])
        pts[cols, 0] = snap(pts[cols, 0])
        for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            pts[(k + 1) % n, 1] = pts[k, 1] = snap(pts[k, 1])
        loops.append(np.vstack((pts, pts[:1])))
    return loops, mesh


@settings(max_examples=200, deadline=None)
@given(case=_star_loops())
def test_scanline_fill_matches_brute_force(case):
    loops, mesh = case
    pts = np.vstack(loops)
    lo = np.floor(pts.min(axis=0) / mesh).astype(int) - 2
    hi = np.ceil(pts.max(axis=0) / mesh).astype(int) + 2
    grid = geo._grid_sites(lo, hi)
    expected = grid[_inside_even_odd((grid + 0.5) * mesh, loops)]
    assert _bits(geo._sites_inside(loops, lo, hi, mesh)) == _bits(expected)


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
    each axis, and points outside the bounding box out to the int64 limits.
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
    inward, exterior = geo._boundary_faces(bulk, geo._SiteIndex(bulk), keep=keep)
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
