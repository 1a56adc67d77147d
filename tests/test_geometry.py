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
        dict(kind="half_space", diffusivity=0.0),
    ],
)
def test_make_canonical_rejects(kwargs):
    with pytest.raises(InvalidParam):
        geo.make_canonical(**kwargs)


def test_boundary_point_wants_unit_normal():
    geo.BoundaryPoint((0.0, 0.0), 0.0, (0.0, 1.0))
    with pytest.raises(InvalidParam):
        geo.BoundaryPoint((0.0, 0.0), 0.0, (0.0, 2.0))
    with pytest.raises(InvalidParam):
        geo.BoundaryPoint((0.0, 0.0, 0.0), 0.0, (0.0, 1.0))


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
    center = box.bulk_index()[(1, 1)]
    # all four neighbours of the center are bulk sites
    assert np.all((table[center] >= 0) & (table[center] < box.n_bulk))
    corner = box.bulk_index()[(0, 0)]
    face_codes = table[corner][table[corner] >= box.n_bulk]
    assert len(face_codes) == 2
    assert geo.MISSING_NEIGHBOR not in table[corner]


def test_channel_side_walls_are_missing_neighbors():
    ch = geo.lattice_channel(4, 0.5)
    table = ch.neighbor_table()
    middle = ch.bulk_index()[(0, 1)]
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
    normals = box.face_inward_normals()
    assert np.allclose(normals[k], [0.0, 1.0])
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)


def test_json_roundtrip():
    box = geo.lattice_box(4, 2, 0.5)
    clone = geo.LatticeDomain.from_json(box.to_json())
    assert clone.mesh == box.mesh
    assert np.array_equal(clone.bulk_sites, box.bulk_sites)
    assert np.array_equal(clone.face_exterior, box.face_exterior)
    assert np.array_equal(clone.face_tag, box.face_tag)
    assert np.array_equal(clone.face_weight, box.face_weight)


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
    [[[0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, np.nan], [1.0, 0.0]]],
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


def test_boundary_points_and_measure(box16):
    pts = geo.boundary_points(box16)
    assert len(pts) == box16.n_faces
    assert all(len(p.position) == 2 for p in pts)
    assert np.allclose(geo.boundary_measure(box16), box16.measures())


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
