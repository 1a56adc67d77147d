"""Discrete boundary operators, checked against hand-computable lattices."""

import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prbm import cli, dtn, walkers
from prbm import geometry as geo
from prbm.errors import InvalidParam, MeshTooCoarse, SingularSystem, SolveFailure
from prbm.rng import RngStream


def test_corridor_matches_hand_green_function(corridor):
    """Q on the three-site corridor from a 3x3 inverse done by hand.

    The bulk walk has I - P = [[1, -1/4, 0], [-1/4, 1, -1/4], [0, -1/4, 1]],
    whose inverse is (1/14) [[15, 4, 1], [4, 16, 4], [1, 4, 15]]. The exit
    probability through face g from the inward site of face f is
    G[in(f), in(g)] / 4, with no library solve anywhere in the expectation.
    """
    G = np.array([[15.0, 4.0, 1.0], [4.0, 16.0, 4.0], [1.0, 4.0, 15.0]]) / 14.0
    inward = corridor.site_index(corridor.face_inward)
    expected = G[np.ix_(inward, inward)] / 4.0
    Qm = dtn.build_Q(corridor)
    assert np.max(np.abs(Qm.Q - expected)) < 1e-13
    assert not Qm.has_source
    assert Qm.mesh == corridor.mesh


def test_build_q_against_dense_inverse():
    """Sparse LU assembly against a plain dense matrix inverse."""
    small = geo.lattice_box(3, 2, 0.5)
    table = small.neighbor_table()
    nb = small.n_bulk
    P = np.zeros((nb, nb))
    for i in range(nb):
        for v in table[i]:
            if 0 <= v < nb:
                P[i, int(v)] += 0.25
    G = np.linalg.inv(np.eye(nb) - P)
    w_in = small.inward_indices()[np.flatnonzero(small.working_mask())]
    expected = G[np.ix_(w_in, w_in)] / 4.0
    assert np.max(np.abs(dtn.build_Q(small).Q - expected)) < 1e-12


def _chunked_Q_oracle(dom):
    """Q as build_Q made it before the Schur-complement route: G[S, S] column by column from _factor."""
    lu, inward = dtn._factor(dom), dom.inward_indices()
    working = np.flatnonzero(dom.working_mask())
    sites, face_site = np.unique(inward[working], return_inverse=True)
    ns = len(sites)
    G = np.empty((ns, ns))
    for lo in range(0, ns, 64):
        hi = min(lo + 64, ns)
        B = np.zeros((dom.n_bulk, hi - lo))
        B[sites[lo:hi], np.arange(hi - lo)] = 1.0
        G[:, lo:hi] = lu.solve(B)[sites, :]
    Q = G[np.ix_(face_site, face_site)] / (2 * dom.dimension)
    return 0.5 * (Q + Q.T)


@pytest.mark.parametrize("name", ["box16", "corridor", "channel", "disk64", "annulus32"])
def test_build_q_matches_chunked_solve(name, request):
    dom = request.getfixturevalue(name)
    assert np.max(np.abs(dtn.build_Q(dom).Q - _chunked_Q_oracle(dom))) < 1e-13


def _spy_splu(monkeypatch, wrap=lambda lu, spec: lu):
    """Route dtn's splu through a recorder of (permc_spec, factor) per call."""
    calls = []
    splu = dtn.spla.splu

    def spy(*args, **kwargs):
        lu = splu(*args, **kwargs)
        calls.append((kwargs["permc_spec"], lu))
        return wrap(lu, kwargs["permc_spec"])

    monkeypatch.setattr(dtn.spla, "splu", spy)
    return calls


@pytest.mark.parametrize("name", ["box16", "corridor", "channel", "disk64", "annulus32", "annulus128"])
def test_s_last_factor_fill_stays_bounded(name, request, monkeypatch):
    """The S-last LU keeps the minimum-degree fill, plus at most the dense |S| x |S| block.

    Ordering by perm_c instead of its inverse scrambles the order, and its
    fill took the annulus128 factor past 5.7 GB.
    """
    dom = request.getfixturevalue(name)
    calls = _spy_splu(monkeypatch)
    Qm = dtn.build_Q(dom)
    (mmd_spec, mmd), (last_spec, last) = calls
    assert (mmd_spec, last_spec) == ("MMD_AT_PLUS_A", "NATURAL")
    ns = len(np.unique(dom.inward_indices()[Qm.face_index]))
    assert last.nnz <= 2 * mmd.nnz + ns * ns


class _Pivoted:
    """A factor that reports one permutation reversed."""

    def __init__(self, lu, name):
        self._lu, self._name = lu, name

    def __getattr__(self, attr):
        value = getattr(self._lu, attr)
        return value[::-1] if attr == self._name else value


@pytest.mark.parametrize("perm", ["perm_r", "perm_c"])
def test_build_q_refuses_a_permuted_s_last_factor(perm, monkeypatch):
    _spy_splu(monkeypatch, lambda lu, spec: _Pivoted(lu, perm) if spec == "NATURAL" else lu)
    with pytest.raises(SolveFailure):
        dtn.build_Q(geo.lattice_box(6, 5, 0.2))


def test_build_q_and_hitting_law_share_one_factorization(tmp_path, monkeypatch):
    """build_Q then hitting_distribution factor twice in all; the law keeps its bits.

    The cli dtn command makes the same two calls. On a fresh domain the
    hitting law does its own solve, and matches the oracle bit for bit.
    """
    fresh = geo.lattice_box(16, 16, 1.0 / 16.0)
    calls = _spy_splu(monkeypatch)
    P0 = dtn.hitting_distribution(fresh)
    assert len(calls) == 1
    density, measure, absorbed = _hitting_oracle(fresh)
    assert P0.density.tobytes() == density.tobytes()
    assert P0.measure.tobytes() == measure.tobytes()
    assert P0.absorbed_fraction == absorbed
    calls.clear()
    dom = geo.lattice_box(16, 16, 1.0 / 16.0)
    dtn.build_Q(dom)
    shared = dtn.hitting_distribution(dom)
    assert len(calls) == 2
    assert shared.density.tobytes() == density.tobytes()
    assert shared.absorbed_fraction == absorbed
    calls.clear()
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"builder": "box", "nx": 8, "ny": 6, "mesh": 0.125}))
    assert cli.main(["dtn", "--domain-file", str(path), "--out", str(tmp_path / "box")]) == 0
    assert len(calls) == 2


def test_hitting_law_follows_retagged_faces():
    """A retag is a new domain: after build_Q, each domain keeps its own hitting law.

    Swapping a working and a source tag with replace gives the retagged
    domain's law bit for bit, and leaves the built domain's law as it was.
    """
    dom = geo.lattice_box(16, 16, 1.0 / 16.0)
    dtn.build_Q(dom)
    before = dtn.hitting_distribution(dom)
    w, s = np.flatnonzero(dom.working_mask())[0], np.flatnonzero(dom.source_mask())[0]
    tag = dom.face_tag.copy()
    tag[[w, s]] = tag[[s, w]]
    retagged = dataclasses.replace(dom, face_tag=tag)
    density, _, absorbed = _hitting_oracle(retagged)
    P0 = dtn.hitting_distribution(retagged)
    assert P0.density.tobytes() == density.tobytes()
    assert P0.absorbed_fraction == absorbed
    after = dtn.hitting_distribution(dom)
    assert after.density.tobytes() == before.density.tobytes()
    assert after.absorbed_fraction == before.absorbed_fraction != absorbed


def test_q_stochasticity_tracks_source(corridor, box16_Q):
    rows_closed = dtn.build_Q(corridor).Q.sum(axis=1)
    assert np.max(np.abs(rows_closed - 1.0)) < 1e-12
    rows_open = box16_Q.Q.sum(axis=1)
    assert np.all(rows_open <= 1.0 + 1e-12)
    assert np.any(rows_open < 1.0 - 1e-6)
    assert box16_Q.has_source


def test_build_q_wants_working_faces():
    box = geo.lattice_box(2, 2, 1.0)
    src_only = dataclasses.replace(box, face_tag=np.full(box.n_faces, geo.BoundaryTag.SOURCE, dtype=np.uint8))
    with pytest.raises(InvalidParam):
        dtn.build_Q(src_only)


def _box_and_lone_site():
    """lattice_box(2, 1, 1.0) plus a lone site at (7, 7) that holds no face."""
    main = geo.lattice_box(2, 1, 1.0)
    return geo.LatticeDomain(
        mesh=1.0,
        dimension=2,
        bulk_sites=np.vstack([main.bulk_sites, [[7, 7]]]),
        face_exterior=main.face_exterior,
        face_inward=main.face_inward,
        face_tag=main.face_tag,
        face_weight=main.face_weight,
    )


def test_isolated_component_raises():
    # the lone site at (7,7) has no faces, so its walk would never terminate
    with pytest.raises(MeshTooCoarse, match="connected"):
        _box_and_lone_site()


def test_a_walk_from_a_component_without_faces_is_refused_at_once():
    """No domain holds a bulk component without faces: the box plus a lone site is
    refused as it is made, as is a faceless box, so no walk or solve can start in
    one; the box itself runs from its source with none censored."""
    t0 = time.perf_counter()
    with pytest.raises(MeshTooCoarse):
        _box_and_lone_site()
    assert time.perf_counter() - t0 < 1.0
    main = geo.lattice_box(2, 1, 1.0)
    faceless = {name: getattr(main, name)[:0] for name in ("face_exterior", "face_inward", "face_tag", "face_weight")}
    with pytest.raises(SingularSystem, match="no absorbing face"):
        dataclasses.replace(main, **faceless)
    params = walkers.JumpParams(0.5, 1.0)
    assert walkers.estimate_spread_measure(main, "source", params, 10, RngStream(0)).censored == 0


def test_dtn_matrix_kernel_on_closed_boundary(corridor):
    M = dtn.build_M(dtn.build_Q(corridor))
    assert np.max(np.abs(M - M.T)) < 1e-14
    # without a source the constant density is invisible to the operator
    assert np.max(np.abs(M @ np.ones(M.shape[0]))) < 1e-12
    vals = np.linalg.eigvalsh(M)
    assert vals[0] > -1e-12


def test_spreading_operator_limits(box16_Q):
    M = dtn.build_M(box16_Q)
    T0 = dtn.spreading_operator(M, 0.0)
    assert np.array_equal(T0, np.eye(box16_Q.n))
    lam = 0.7
    T = dtn.spreading_operator(M, lam)
    assert np.max(np.abs(T - np.linalg.inv(np.eye(box16_Q.n) + lam * M))) < 1e-10
    with pytest.raises(InvalidParam):
        dtn.spreading_operator(M, -0.5)
    with pytest.raises(InvalidParam):
        dtn.spreading_operator(M, 1.0, weight=np.ones(3))


def test_spreading_operator_conserves_on_closed_boundary(corridor):
    """With no source, reflections only reshuffle: T preserves total mass."""
    Qm = dtn.build_Q(corridor)
    T = dtn.spreading_operator(dtn.build_M(Qm), 2.5)
    assert np.allclose(T @ np.ones(Qm.n), 1.0, atol=1e-11)


def test_hitting_distribution_gamblers_ruin(channel):
    """Quasi-1d channel: the walk from the top reaches the bottom face first
    with probability 1/41, the classic ruin odds on 40 sites plus two walls."""
    P0 = dtn.hitting_distribution(channel)
    assert P0.absorbed_fraction == pytest.approx(1.0 / 41.0, abs=1e-13)
    assert P0.probabilities.shape == (1,)
    assert P0.probabilities[0] == pytest.approx(1.0)
    assert P0.total == pytest.approx(1.0)


def test_hitting_distribution_needs_source(corridor):
    with pytest.raises(InvalidParam):
        dtn.hitting_distribution(corridor)


def test_hitting_distribution_box_symmetry(box16, box16_Q):
    """Mirror symmetry of the box maps the hitting law onto itself."""
    P0 = dtn.hitting_distribution(box16)
    probs = P0.probabilities
    mids = box16.face_midpoints()[box16_Q.face_index]
    # reflect x -> 1 - x and match faces by midpoint
    order = np.lexsort((mids[:, 1], np.round(1.0 - mids[:, 0], 9)))
    direct = np.lexsort((mids[:, 1], np.round(mids[:, 0], 9)))
    assert np.allclose(probs[order], probs[direct], atol=1e-12)
    assert 0.0 < P0.absorbed_fraction < 1.0


def test_absorption_distribution_monotone_mass(box16, box16_Q):
    P0 = dtn.hitting_distribution(box16)
    M = dtn.build_M(box16_Q)
    masses = []
    for lam in (0.0, 0.3, 1.0, 3.0):
        T = dtn.spreading_operator(M, lam)
        masses.append(dtn.absorption_distribution(P0, T).total)
    assert masses[0] == pytest.approx(1.0, abs=1e-12)
    assert all(b < a for a, b in zip(masses, masses[1:]))
    assert masses[-1] > 0.0
    with pytest.raises(InvalidParam):
        dtn.absorption_distribution(P0, np.eye(3))


def _hitting_oracle(dom):
    """The hitting law from its own Lambda = 0 solve, whatever build_Q left on the domain."""
    lu, inward = dtn._factor(dom), dom.inward_indices()
    working = np.flatnonzero(dom.working_mask())
    source = np.flatnonzero(dom.source_mask())
    start = np.zeros(dom.n_bulk)
    np.add.at(start, inward[source], 1.0 / len(source))
    hits = lu.solve(start, trans="T")[inward[working]] / (2 * dom.dimension)
    total = hits.sum()
    measure = dom.measures()[working]
    return (hits / total) / measure, measure, float(total)


@pytest.mark.parametrize("name", ["box16", "channel", "annulus128"])
def test_absorption_law_matches_dense_route(name, request):
    """One sparse Robin solve per Lambda against absorbed_fraction * T_Lambda P_0.

    The fixtures are every shared domain with a source face. Each face's
    mass must agree to 1e-12 relative, and the hitting law, now the
    renormalized Lambda = 0 solve, must come out bit for bit as before.
    """
    dom = request.getfixturevalue(name)
    Qm = dtn.build_Q(dom) if name == "channel" else request.getfixturevalue(f"{name}_Q")
    P0 = dtn.hitting_distribution(dom)
    density, measure, absorbed = _hitting_oracle(dom)
    assert P0.density.tobytes() == density.tobytes()
    assert P0.measure.tobytes() == measure.tobytes()
    assert P0.absorbed_fraction == absorbed
    M = dtn.build_M(Qm)
    for lam in (0.0, 0.1, 1.0, 10.0):
        T = dtn.spreading_operator(M, lam, Qm.weight)
        dense = P0.absorbed_fraction * dtn.absorption_distribution(P0, T).probabilities
        law = dtn.absorption_law(dom, lam)
        assert np.all(np.abs(law.probabilities - dense) <= 1e-12 * dense)
        assert law.absorbed_fraction == pytest.approx(dense.sum(), rel=1e-12)
        assert np.array_equal(law.measure, Qm.measure)


@pytest.mark.parametrize(
    "Lambda, point, order",
    [(0.3, (0.5, 0.0), True), (1.0, (0.5, 0.0), True), (0.3, (0.3, 0.2), True), (0.0, (0.5, 0.0), False)],
)
def test_lattice_law_from_a_point_meets_the_disk_series(Lambda, point, order):
    """The absorption law of walkers launched at an interior point of the unit disk.

    The launch is the bulk site whose cell holds the point, at meshes 1/16,
    1/32 and 1/64. The Fourier moments m_k = sum_f mass_f e^(i k theta_f),
    theta_f the face arclength, must meet the series r^k e^(i k theta0)/(1 + Lambda k)
    for k <= 4 from the centre (r, theta0) of that site: within 0.2 a, falling
    at least 1.5x per halving of a, at Lambda > 0; within 0.5 a at Lambda = 0,
    where the error does not fall at a steady rate. The boundary is closed, so
    the masses sum to 1.
    """
    k = np.arange(5)
    errors = []
    for a in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
        dom = geo.rasterize_loop(geo.circle_polyline(1.0, 4096), a)
        site = tuple(int(np.floor(c / a)) for c in point)
        masses = dtn._absorbed_masses(dom, dtn._reflection_probabilities(dom, Lambda), start=site)
        assert masses.sum() == pytest.approx(1.0, rel=0, abs=1e-12)
        centre = (np.array(site) + 0.5) * a
        r, theta0 = np.hypot(*centre), np.arctan2(centre[1], centre[0])
        moments = np.exp(1j * np.outer(k, dom.face_arclength[dom.working_mask()])) @ masses
        series = r**k * np.exp(1j * k * theta0) / (1.0 + Lambda * k)
        errors.append(np.abs(moments - series).max())
        assert errors[-1] <= (0.2 if order else 0.5) * a
    if order:
        assert all(coarse >= 1.5 * fine for coarse, fine in zip(errors, errors[1:]))


def test_dtn_spectrum_meets_the_disk_series_at_first_order():
    """The weighted DtN spectrum of the rasterized unit circle against the series.

    The disk's DtN eigenvalues are 0, 1, 1, 2, 2, ...; at meshes 1/16, 1/32 and
    1/64 the relative error of each of mu_1..mu_8 stays below k a, and the
    largest falls at least 1.5x per halving of a. That fixes the order, not
    the constant: an O(a) slip in the face weights or in the scaling of M
    that one mesh alone would pass shows here.
    """
    k = np.array([1, 1, 2, 2, 3, 3, 4, 4])
    errors = []
    for a in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
        qm = dtn.build_Q(geo.rasterize_loop(geo.circle_polyline(1.0, 4096), a))
        mu = dtn.spectrum(dtn.build_M(qm), None, qm.measure, qm.weight).mu
        rel = np.abs(mu[1:9] - k) / k
        assert np.all(rel < k * a)
        errors.append(rel.max())
    assert all(coarse >= 1.5 * fine for coarse, fine in zip(errors, errors[1:]))


def test_absorption_law_guards(corridor, channel):
    with pytest.raises(InvalidParam):
        dtn.absorption_law(corridor, 0.5)
    with pytest.raises(InvalidParam):
        dtn.absorption_law(channel, -0.1)


def test_spectrum_orthonormal_and_parseval(box16, box16_Q):
    M = dtn.build_M(box16_Q)
    phi = dtn.hitting_distribution(box16).density
    spec = dtn.spectrum(M, phi, box16_Q.measure)
    n = box16_Q.n
    gram = spec.V.T @ (spec.V * spec.measure[:, None])
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10
    # Parseval: spectral weights exhaust the norm of the hitting density
    assert np.sum(spec.F) == pytest.approx(np.sum(phi * phi * spec.measure), rel=1e-12)
    assert np.all(np.diff(spec.mu) >= -1e-12)


def test_spectrum_low_eigenvalues_regression(box16_Q):
    """Frozen low end of the all-sides-absorbing box spectrum.

    The values were produced by this code and double-checked against the
    resolvent route; the test guards the assembly against silent drift.
    """
    spec = dtn.spectrum(dtn.build_M(box16_Q), None, box16_Q.measure)
    assert np.allclose(
        spec.mu[:3], [0.52289973, 1.54478978, 3.26546594], atol=1e-6
    )
    assert np.all(spec.F == 0.0)


def test_spectrum_input_guards(box16_Q):
    M = dtn.build_M(box16_Q)
    with pytest.raises(InvalidParam):
        dtn.spectrum(M, None, box16_Q.measure[:-1])
    with pytest.raises(InvalidParam):
        dtn.spectrum(M, np.ones(3), box16_Q.measure)
    # an indefinite matrix is no DtN operator
    with pytest.raises(SolveFailure):
        dtn.spectrum(np.diag([-1.0, 1.0]), None, np.ones(2))


def test_spectrum_returns_rounding_eigenvalues_nonnegative():
    """An eigenvalue just below zero, inside the indefiniteness bound, comes back as |mu|.

    So every spectrum that spectrum returns is one impedance_from_spectrum
    accepts, and impedance_curve never rejects it.
    """
    spec = dtn.spectrum(np.diag([-5e-11, 400.0]), np.ones(2), np.ones(2))
    assert np.array_equal(spec.mu, [5e-11, 400.0])
    rows = dtn.impedance_curve(spec, [0.0, 1.0])
    assert rows[1]["Z"] > 0


def test_weighted_spectrum_reconstructs_weighted_resolvent(disk64_Q):
    lam = 0.9
    M = dtn.build_M(disk64_Q)
    T = dtn.spreading_operator(M, lam, weight=disk64_Q.weight)
    spec = dtn.spectrum(M, None, disk64_Q.measure, weight=disk64_Q.weight)
    recon = spec.V @ np.diag(1.0 / (1.0 + lam * spec.mu)) @ (spec.V.T * spec.measure)
    assert np.max(np.abs(recon - T)) < 1e-8


def test_impedance_curve_shape(box16, box16_Q):
    M = dtn.build_M(box16_Q)
    phi = dtn.hitting_distribution(box16).density
    spec = dtn.spectrum(M, phi, box16_Q.measure)
    grid = [0.0, 0.1, 1.0, 10.0, 100.0]
    rows = dtn.impedance_curve(spec, grid)
    assert rows[0]["Z"] == 0.0 and rows[0]["Z_sp"] == 0.0
    assert rows[0]["Z_cell"] == pytest.approx(rows[0]["Z_cell0"], rel=1e-14)
    z_cell = [r["Z_cell"] for r in rows]
    z_sp = [r["Z_sp"] for r in rows[1:]]
    assert all(b > a for a, b in zip(z_cell, z_cell[1:]))
    assert all(b > a for a, b in zip(z_sp, z_sp[1:]))
    # the two routes to Z_sp are one identity apart in exact arithmetic
    for r in rows[1:]:
        assert r["Z_sp"] == pytest.approx(r["Z_sp_diff"], rel=1e-11)
    with pytest.raises(InvalidParam):
        dtn.impedance_curve(spec, [-1.0])
    with pytest.raises(InvalidParam):
        dtn.impedance_curve(spec, [1.0], D=0.0)


def test_flux_vector_views():
    fv = dtn.FluxVector(density=np.array([2.0, 4.0]), measure=np.array([0.25, 0.25]))
    assert np.allclose(fv.probabilities, [0.5, 1.0])
    assert fv.total == pytest.approx(1.5)


def _random_blob(seed: int, n_sites: int, p_source: float):
    """Connected 2D blob of at most n_sites, grown from the origin one neighbour at a time.

    Faces are Source with probability p_source (at least one stays
    Working) and carry weights drawn uniformly from [0.05, 1].
    """
    rng = np.random.default_rng(seed)
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    sites, seen = [(0, 0)], {(0, 0)}
    for _ in range(n_sites - 1):
        i, j = sites[rng.integers(len(sites))]
        di, dj = steps[rng.integers(4)]
        if (i + di, j + dj) not in seen:
            seen.add((i + di, j + dj))
            sites.append((i + di, j + dj))
    bulk = np.array(sites, dtype=np.int64)
    index = geo._SiteIndex(bulk)
    inward, exterior = geo._boundary_faces(index)
    source = rng.random(len(inward)) < p_source
    source[rng.integers(len(inward))] = False
    tags = np.where(source, geo.BoundaryTag.SOURCE, geo.BoundaryTag.WORKING)
    weight = rng.uniform(0.05, 1.0, len(inward))
    return geo._assemble(0.25, index, inward, exterior, tags, weight), rng


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sites=st.integers(1, 200),
    p_source=st.sampled_from([0.0, 0.02, 0.3, 0.9]),
)
def test_operator_routes_agree_on_random_blobs(seed, n_sites, p_source):
    """Q, its spectrum and the Robin solve hold their invariants on any connected blob."""
    dom, rng = _random_blob(seed, n_sites, p_source)
    Qm = dtn.build_Q(dom)
    Q = Qm.Q
    assert np.max(np.abs(Q - Q.T)) <= 1e-14
    rows = Q.sum(axis=1)
    assert np.all(rows <= 1.0 + 1e-12)
    if Qm.has_source:
        assert np.any(rows < 1.0)
    else:
        assert np.max(np.abs(rows - 1.0)) <= 1e-12
    # dense-inverse oracle: G = (I - P)^-1 over the bulk, Q = G[in, in]/4
    table = dom.neighbor_table()
    nb = dom.n_bulk
    P = np.zeros((nb, nb))
    for i in range(nb):
        for v in table[i]:
            if 0 <= v < nb:
                P[i, v] += 0.25
            elif v < 0:
                P[i, i] += 0.25
    G = np.linalg.inv(np.eye(nb) - P)
    w_in = dom.inward_indices()[Qm.face_index]
    assert np.max(np.abs(Q - G[np.ix_(w_in, w_in)] / 4.0)) <= 1e-12
    M = dtn.build_M(Qm)
    spec = dtn.spectrum(M, None, Qm.measure, Qm.weight)
    assert spec.mu.min() >= -1e-12 * np.abs(spec.mu).max()
    if Qm.has_source:
        lam = 10.0 ** rng.uniform(-2.0, 2.0)
        P0 = dtn.hitting_distribution(dom)
        T = dtn.spreading_operator(M, lam, Qm.weight)
        dense = P0.absorbed_fraction * dtn.absorption_distribution(P0, T).probabilities
        law = dtn.absorption_law(dom, lam)
        assert np.max(np.abs(law.probabilities - dense)) <= 1e-12
