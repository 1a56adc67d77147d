"""Shared lattice fixtures.

Rasterizing the disk and the annulus takes about a second; factoring them
into self-transport matrices is what is expensive, and several test modules
probe the same operators, so the domains and their matrices are
session-scoped.
"""

import numpy as np
import pytest

from prbm import dtn
from prbm import geometry as geo


@pytest.fixture(scope="session")
def box16():
    return geo.lattice_box(16, 16, 1.0 / 16.0)


@pytest.fixture(scope="session")
def corridor():
    """Three bulk sites in a row, every exterior neighbour a working face.

    Small enough that the bulk Green function inverts by hand, which gives
    an operator oracle that does not lean on any library solve.
    """
    bulk = np.array([[0, 0], [1, 0], [2, 0]], dtype=np.int64)
    inset = {(0, 0), (1, 0), (2, 0)}
    f_in, f_ext = [], []
    for i, j in bulk:
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            t = (int(i) + di, int(j) + dj)
            if t not in inset:
                f_in.append((int(i), int(j)))
                f_ext.append(t)
    dom = geo.LatticeDomain(
        mesh=0.25,
        dimension=2,
        bulk_sites=bulk,
        face_exterior=np.array(f_ext, dtype=np.int64),
        face_inward=np.array(f_in, dtype=np.int64),
        face_tag=np.full(len(f_in), geo.BoundaryTag.WORKING, dtype=np.uint8),
        face_weight=np.ones(len(f_in)),
    )
    dom.validate()
    return dom


@pytest.fixture(scope="session")
def channel():
    return geo.lattice_channel(40, 0.05)


@pytest.fixture(scope="session")
def disk64():
    return geo.rasterize_loop(geo.circle_polyline(1.0, 1024), 1.0 / 64.0)


@pytest.fixture(scope="session")
def annulus128():
    return geo.rasterize(
        geo.circle_polyline(1.0, 2048),
        geo.circle_polyline(3.0, 2048),
        1.0 / 128.0,
    )


@pytest.fixture(scope="session")
def annulus32():
    """The annulus of the benchmark's annulus-lattice workload (25,740 sites)."""
    return geo.rasterize(
        geo.circle_polyline(1.0, 2048),
        geo.circle_polyline(3.0, 2048),
        1.0 / 32.0,
    )


@pytest.fixture(scope="session")
def box16_Q(box16):
    return dtn.build_Q(box16)


@pytest.fixture(scope="session")
def disk64_Q(disk64):
    return dtn.build_Q(disk64)


@pytest.fixture(scope="session")
def annulus128_Q(annulus128):
    return dtn.build_Q(annulus128)
