"""Monte Carlo walkers against exact laws and against each other."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from prbm import dtn, lsa
from prbm import geometry as geo
from prbm import halfspace as hs
from prbm import spectral as sp
from prbm import walkers as wk
from prbm.errors import ExcessiveCensoring, InvalidParam
from prbm.geometry import lattice_box, lattice_channel, make_canonical
from prbm.rng import RngStream
from test_dtn import _random_blob


def test_jump_params_epsilon():
    assert wk.JumpParams(Lambda=0.0, a=0.1).epsilon == 0.0
    assert wk.JumpParams(Lambda=0.1, a=0.1).epsilon == pytest.approx(0.5)
    p = wk.JumpParams(Lambda=2.0, a=0.5)
    assert p.epsilon == pytest.approx(0.8)
    assert p.escape_cap() == pytest.approx(2e4)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(Lambda=-0.1, a=0.1),
        dict(Lambda=1.0, a=0.0),
        dict(Lambda=1.0, a=0.1, max_steps=0),
    ],
)
def test_jump_params_rejects(kwargs):
    with pytest.raises(InvalidParam):
        wk.JumpParams(**kwargs)


def test_rng_stream_replay_and_blocks():
    a = RngStream(42).generator().random(8)
    b = RngStream(42).generator().random(8)
    assert np.array_equal(a, b)
    other = RngStream(42, stream_id=1).generator().random(8)
    assert not np.array_equal(a, other)
    blocked = RngStream(42).generator(block=1).random(8)
    assert not np.array_equal(a, blocked)
    with pytest.raises(InvalidParam):
        RngStream(-1)
    with pytest.raises(InvalidParam):
        RngStream(2**64)


def test_sample_threshold():
    gen = RngStream(5).generator()
    assert wk.sample_threshold(0.0, gen) == 0.0
    draws = np.array([wk.sample_threshold(2.0, gen) for _ in range(20_000)])
    # successive draws are fresh, not one restarted block
    assert len(np.unique(draws)) == len(draws)
    # exponential with mean 2: the sample mean sits within 4 sigma
    assert abs(draws.mean() - 2.0) < 4.0 * 2.0 / math.sqrt(len(draws))
    with pytest.raises(InvalidParam):
        wk.sample_threshold(-1.0, gen)
    with pytest.raises(InvalidParam, match=r"\.generator\(\)"):
        wk.sample_threshold(2.0, RngStream(1))


def test_run_jump_walker_guards():
    """A start on or outside a canonical boundary is refused by the one walker
    driver, `estimate_spread_measure`, before any walker moves."""
    p = wk.JumpParams(Lambda=0.5, a=0.05)
    for dom, start in [
        (make_canonical("half_space", dimension=2), (0.0, -1.0)),
        (make_canonical("half_space", dimension=2), (0.0, 0.0)),
        (make_canonical("disk_interior"), (1.5, 0.0)),
        (make_canonical("ball_exterior"), (0.1, 0.0, 0.0)),
    ]:
        with pytest.raises(InvalidParam):
            wk.estimate_spread_measure(dom, start, p, 10, RngStream(0))


def test_halfplane_first_contact_is_cauchy():
    """At Lambda = 0 the first-contact abscissa from height h is Cauchy(h).

    Every walker is absorbed at its first contact, so one past the escape
    cap lands in the overflow bin instead of being censored. Each bin, the
    overflow bin included, holds its Cauchy mass within 4 sigma.
    """
    hp = make_canonical("half_space", dimension=2)
    h, window = 0.8, 4.0
    hist = wk.estimate_spread_measure(
        hp, (0.0, h), wk.JumpParams(Lambda=0.0, a=0.01), 200_000, RngStream(20),
        bins=20, window=window,
    )
    assert len(hist.counts) == 21
    assert hist.censored == 0 and hist.source_absorbed == 0
    mass = np.diff(stats.cauchy(scale=h).cdf(hist.bin_edges))
    probs = np.append(mass, 1.0 - mass.sum())
    z = (hist.counts - probs * hist.total) / np.sqrt(probs * (1 - probs) * hist.total)
    assert np.max(np.abs(z)) < 4.0


def test_disk_hit_law_matches_poisson_kernel():
    disk = make_canonical("disk_interior")
    hist = wk.estimate_spread_measure(
        disk, np.array([0.5, 0.0]), wk.JumpParams(Lambda=0.0, a=0.01),
        200_000, RngStream(21), bins=32, chunk_size=100_000,
    )
    edges = hist.bin_edges
    probs = np.array([
        integrate.quad(lambda th: sp.poisson_kernel_disk(0.5, th), edges[i], edges[i + 1])[0]
        for i in range(32)
    ])
    z = (hist.counts - probs * hist.total) / np.sqrt(probs * (1 - probs) * hist.total)
    assert np.max(np.abs(z)) < 4.0
    assert hist.censored == 0 and hist.source_absorbed == 0


def test_disk_spread_measure_matches_series():
    """Partially reflected walk against the analytic eigenfunction series.

    Nothing is shared between the two sides: the walk reflects to distance a
    off the circle and flips coins; the series knows only 1/(1 + Lambda n).
    """
    disk = make_canonical("disk_interior")
    lam = 0.5
    hist = wk.estimate_spread_measure(
        disk, np.array([0.5, 0.0]), wk.JumpParams(Lambda=lam, a=0.005),
        200_000, RngStream(22), bins=16, chunk_size=100_000,
    )
    edges = hist.bin_edges
    probs = np.array([
        integrate.quad(lambda th: sp.disk_spread_density(0.5, th, lam), edges[i], edges[i + 1])[0]
        for i in range(16)
    ])
    z = (hist.counts - probs * hist.total) / np.sqrt(probs * (1 - probs) * hist.total)
    assert np.max(np.abs(z)) < 4.0


def _complex_mobius_angle(rho, phi):
    """Reference: the Mobius quotient (w + rho)/(1 + rho w) in complex arithmetic."""
    e = np.exp(1j * phi)
    return np.angle((e + rho) / (1.0 + rho * e))


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.99, 1 / 1.01])
def test_half_angle_mobius_map_matches_complex_form(rho):
    near_pi = np.logspace(-15, -1, 29)
    phi = np.concatenate([np.linspace(0.0, 2 * np.pi, 4001), [np.pi], np.pi - near_pi, np.pi + near_pi])
    theta = wk._mobius_angle(rho, phi)
    assert np.all(np.abs(theta) <= np.pi)
    gap = np.mod(theta - _complex_mobius_angle(rho, phi) + np.pi, 2 * np.pi) - np.pi
    assert np.max(np.abs(gap)) <= 1e-14


@pytest.mark.parametrize("kind, start", [("disk_interior", (0.6, 0.0)), ("disk_exterior", (1.5, 0.2))])
def test_disk_counts_match_complex_mobius_reference(kind, start, monkeypatch):
    """The map draws the same uniforms and decides no fate, so the counts agree exactly."""

    def run():
        return wk.estimate_spread_measure(
            make_canonical(kind), np.array(start), wk.JumpParams(Lambda=0.3, a=0.01),
            100_000, RngStream(0, 21), bins=16, count_reflections_to=40,
        )

    hist = run()
    monkeypatch.setattr(wk, "_mobius_angle", _complex_mobius_angle)
    ref = run()
    assert np.array_equal(hist.counts, ref.counts)
    assert np.array_equal(hist.reflection_counts, ref.reflection_counts)
    assert hist.total_reflections == ref.total_reflections
    assert (hist.censored, hist.source_absorbed) == (ref.censored, ref.source_absorbed)


def test_ball_zonal_hit_law():
    r = 0.5
    hist = wk.estimate_spread_measure(
        make_canonical("ball_interior"), np.array([0.0, 0.0, r]),
        wk.JumpParams(Lambda=0.0, a=0.01), 50_000, RngStream(11),
        bins=16, chunk_size=25_000,
    )

    def zonal_cdf(u):
        # P(cos angle <= u) for the sphere first hit from radius r on the axis
        return ((1 + r * r - 2 * r * u) ** -0.5 - 1 / (1 + r)) * (1 - r * r) / (2 * r)

    expect = np.diff([zonal_cdf(e) for e in hist.bin_edges]) * hist.total
    z = (hist.counts - expect) / np.sqrt(expect)
    assert np.max(np.abs(z)) < 4.0


def test_ball_exterior_reaches_source():
    """From radius 2 the walk escapes to infinity with probability 1/2."""
    hist = wk.estimate_spread_measure(
        make_canonical("ball_exterior"), np.array([0.0, 0.0, 2.0]),
        wk.JumpParams(Lambda=0.0, a=0.01), 50_000, RngStream(12), chunk_size=25_000,
    )
    sigma = math.sqrt(0.25 / hist.total)
    assert abs(hist.source_fraction - 0.5) < 4.0 * sigma


def test_annulus_splits_by_log_radius():
    R, r0 = 3.0, 1.7
    hist = wk.estimate_spread_measure(
        make_canonical("annulus", outer_radius=R), np.array([r0, 0.0]),
        wk.JumpParams(Lambda=0.0, a=0.01), 50_000, RngStream(13), chunk_size=25_000,
    )
    p_inner = math.log(R / r0) / math.log(R)
    sigma = math.sqrt(p_inner * (1 - p_inner) / hist.total)
    assert abs((1 - hist.source_fraction) - p_inner) < 4.0 * sigma


@pytest.mark.parametrize("where", ["lattice", "ball_interior", "disk_interior", "disk_exterior"])
def test_lattice_reflections_are_geometric(where):
    """Uniform-weight faces make the reflection count exactly geometric.

    So do the disks and the ball: every step is a contact and every walker
    ends on the circle or sphere, flipping the same coin at every contact.
    P(N = n) = (1 - eps) eps^n is the paper's equivalence of per-contact
    Bernoulli absorption with an exponential threshold on the local time.
    """
    dom, start = {
        "lattice": (lattice_channel(4, 0.1, width=2, source_top=False), 0),
        "ball_interior": (make_canonical("ball_interior"), (0.0, 0.0, 0.5)),
        "disk_interior": (make_canonical("disk_interior"), (0.5, 0.0)),
        "disk_exterior": (make_canonical("disk_exterior"), (1.5, 0.2)),
    }[where]
    hist = wk.estimate_spread_measure(
        dom, start, wk.JumpParams(Lambda=0.9, a=0.1), 250_000, RngStream(9),
        chunk_size=250_000, count_reflections_to=25,
    )
    eps = 0.9 / (0.9 + 0.1)
    k = np.arange(26)
    pk = (1 - eps) * eps**k
    n = hist.working_absorbed
    assert n == hist.total
    z = (hist.reflection_counts[:26] - pk * n) / np.sqrt(pk * (1 - pk) * n)
    assert np.max(np.abs(z)) < 4.0
    # overflow slot carries the rest of the tail
    tail = n * eps**26
    assert abs(hist.reflection_counts[26] - tail) < 4.0 * math.sqrt(tail)
    assert hist.mean_reflections == pytest.approx(eps / (1 - eps), rel=0.02)


def test_lattice_walkers_match_robin_law_on_weighted_faces():
    """Walkers on a chorded strip against the sparse Robin solve.

    Most faces along the slanted chords have weight w < 1, so their
    reflection probability Lambda/(Lambda + a w) differs face by face: the
    walker kernel and dtn.absorption_law must flip the same coin. Faces pool
    into four arclength bins; the source share is the fifth.
    """
    lam = 0.2
    chords = lsa.coarse_grain(lsa.koch_polyline(1), 0.3)
    dom = lsa._channel_domain(chords, 0.5, 1.0 / 32.0)
    working = np.flatnonzero(dom.working_mask())
    assert np.count_nonzero(dom.face_weight[working] < 1.0) > len(working) // 2
    law = dtn.absorption_law(dom, lam)
    hist = wk.estimate_spread_measure(
        dom, "source", wk.JumpParams(Lambda=lam, a=dom.mesh), 200_000, RngStream(23),
        chunk_size=100_000,
    )
    arc = dom.face_arclength[working]
    pool = np.minimum((4 * arc / arc.max()).astype(int), 3)
    expected = np.append(np.bincount(pool, weights=law.probabilities, minlength=4), 1.0 - law.absorbed_fraction)
    freq = np.append(np.bincount(pool, weights=hist.counts, minlength=4), hist.source_absorbed) / hist.total
    z = (freq - expected) / np.sqrt(expected * (1.0 - expected) / hist.total)
    assert hist.censored == 0
    assert np.max(np.abs(z)) < 4.0


@pytest.mark.parametrize("where", ["lattice", "lattice_jumps", "annulus", "ball_exterior"])
def test_estimate_deterministic_and_thread_invariant(where):
    """The kernels whose walkers can leave through a source."""
    dom, start = {
        "lattice": (lattice_channel(10, 0.05), "source"),
        # wide enough that walkers jump up to 16 sites (levels 1 to 4)
        "lattice_jumps": (lattice_box(40, 40, 0.05), "source"),
        "annulus": (make_canonical("annulus", outer_radius=3.0), (1.5, 0.0)),
        "ball_exterior": (make_canonical("ball_exterior"), (0.0, 0.0, 2.0)),
    }[where]
    p = wk.JumpParams(Lambda=0.3, a=0.05)
    runs = [
        wk.estimate_spread_measure(
            dom, start, p, 60_000, RngStream(4),
            chunk_size=20_000, threads=t, censored_ceiling=1.0, count_reflections_to=10,
        )
        for t in (1, 3, 1)
    ]
    assert runs[0].source_absorbed > 0
    # every absorbed walker is tallied by its reflection number, on every kernel
    assert runs[0].reflection_counts.sum() == runs[0].working_absorbed
    for other in runs[1:]:
        assert np.array_equal(runs[0].counts, other.counts)
        assert np.array_equal(runs[0].reflection_counts, other.reflection_counts)
        assert runs[0].source_absorbed == other.source_absorbed
        assert runs[0].censored == other.censored
        assert runs[0].total_reflections == other.total_reflections


# -- multiscale lattice jumps --------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 4, 8, 16, 64])
def test_exit_laws_are_normalized_and_square_symmetric(r):
    offsets, prob = wk._exit_law(r)
    # the ring of chessboard radius r without its corners, each site once
    assert len(offsets) == 4 * (2 * r - 1)
    assert np.all(np.abs(offsets).max(axis=1) == r)
    assert np.all(np.abs(offsets).min(axis=1) <= r - 1)
    assert len(np.unique(offsets, axis=0)) == len(offsets)
    assert np.all(prob > 0)
    assert abs(prob.sum() - 1.0) <= 1e-12
    grid = np.zeros((2 * r + 1, 2 * r + 1))
    grid[offsets[:, 0] + r, offsets[:, 1] + r] = prob
    # a transpose and the two mirrors generate the 8 symmetries of the square
    for image in (grid.T, grid[::-1], grid[:, ::-1]):
        assert np.max(np.abs(image - grid)) <= 1e-15


def test_smallest_exit_law_is_the_plain_step():
    offsets, prob = wk._exit_law(1)
    order = np.lexsort(offsets.T)
    assert offsets[order].tolist() == [[0, -1], [-1, 0], [1, 0], [0, 1]]
    assert np.array_equal(prob, np.full(4, 0.25))


def _chessboard_to(points, targets):
    """Chessboard distance from each point to the nearest target, in blocks."""
    out = np.empty(len(points), dtype=np.int64)
    for lo in range(0, len(points), 1024):
        block = points[lo:lo + 1024, None, :] - targets[None, :, :]
        out[lo:lo + 1024] = np.abs(block).max(axis=2).min(axis=1)
    return out


def _check_jump_levels(dom):
    """Brute force: a site of level L > 0 sees only non-special bulk sites within 2^L - 1.

    Special sites have a face or a wall among their neighbour codes; the
    distances are taken to every special site and to every lattice point
    off the bulk in the bounding box grown by one. The level is also the
    largest one allowed: floor(log2 c) for the chessboard distance c to the
    nearest special site, capped at the top jump.
    """
    level = wk._jump_levels(dom)
    table = dom.neighbor_table()
    sites = dom.bulk_sites
    special = ((table < 0) | (table >= dom.n_bulk)).any(axis=1)
    assert np.all(level[special] == 0)
    if special.all():
        return level
    free = np.flatnonzero(~special)
    to_special = _chessboard_to(sites[free], sites[special])
    allowed = np.floor(np.log2(np.minimum(to_special, wk._JUMP_TOP))).astype(int)
    assert np.array_equal(level[free], np.where(to_special >= 2, allowed, 0))
    lo, hi = sites.min(axis=0) - 1, sites.max(axis=0) + 2
    grid = geo._grid_sites(lo, hi)
    off_bulk = grid[dom.site_index(grid) < 0]
    jumps = np.flatnonzero(level)
    r = 2 ** level[jumps]
    assert np.all(_chessboard_to(sites[jumps], sites[special]) >= r)
    assert np.all(_chessboard_to(sites[jumps], off_bulk) >= r)
    return level


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sites=st.integers(1, 400),
    p_source=st.sampled_from([0.0, 0.3]),
)
def test_jump_levels_on_random_blobs(seed, n_sites, p_source):
    _check_jump_levels(_random_blob(seed, n_sites, p_source)[0])


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 70), st.integers(1, 70)),
    walled=st.booleans(),
)
# the smallest box whose centre jumps the top 64 sites
@example(shape=(129, 129), walled=False)
def test_jump_levels_on_boxes_and_walled_channels(shape, walled):
    nx, ny = shape
    if walled:
        # reflecting side walls make special sites too
        dom = lattice_channel(max(ny, 2), 0.1, width=nx)
    else:
        dom = lattice_box(nx, ny, 0.1)
    level = _check_jump_levels(dom)
    if min(nx, ny) >= 2 * wk._JUMP_TOP + 1 and not walled:
        assert level.max() == 6


def test_jump_levels_stay_zero_off_the_square_lattice():
    bulk = np.array([[0, 0, 0], [1, 0, 0]], dtype=np.int64)
    index = geo._SiteIndex(bulk)
    inward, exterior = geo._boundary_faces(bulk, index)
    dom = geo.LatticeDomain(
        mesh=0.5, dimension=3, bulk_sites=bulk, face_exterior=exterior, face_inward=inward,
        face_tag=np.zeros(len(inward), dtype=np.uint8), face_weight=np.ones(len(inward)),
    )
    assert np.array_equal(wk._jump_levels(dom), [0, 0])


def test_lattice_walkers_match_robin_law_on_fine_annulus():
    """Zero-allowance check where jumps carry most of the walk.

    The mesh-1/64 rasterized annulus (radii 1 and 3) has sites up to 64
    sites from every face, so walkers jump 8, 16 and 32 sites at once.
    Working faces pool into 16 bins in face order; the source share is the
    seventeenth. Each is within 4 sigma of absorption_law, and no walker is
    censored.
    """
    lam, mesh = 0.5, 1.0 / 64.0
    dom = geo.rasterize(geo.circle_polyline(1.0, 2048), geo.circle_polyline(3.0, 2048), mesh)
    assert wk._jump_levels(dom).max() >= 3
    law = dtn.absorption_law(dom, lam)
    hist = wk.estimate_spread_measure(
        dom, "source", wk.JumpParams(Lambda=lam, a=mesh), 600_000, RngStream(64),
        chunk_size=200_000,
    )
    pool = np.arange(len(hist.counts)) * 16 // len(hist.counts)
    expected = np.append(np.bincount(pool, law.probabilities, 16), 1.0 - law.absorbed_fraction)
    freq = np.append(np.bincount(pool, hist.counts, 16), hist.source_absorbed) / hist.total
    z = (freq - expected) / np.sqrt(expected * (1.0 - expected) / hist.total)
    assert hist.censored == 0
    assert np.max(np.abs(z)) < 4.0


# two-sided tail of 4 standard normal deviations
_P_4SIGMA = 2.0 * stats.norm.sf(4.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sites=st.integers(1, 200),
    p_source=st.sampled_from([0.02, 0.3, 0.9]),
)
def test_lattice_walkers_match_absorption_law_on_random_blobs(seed, n_sites, p_source):
    """The walker leg of the random-blob cross-check of the operator routes.

    On the blobs of test_operator_routes_agree_on_random_blobs, 4,000
    walkers from a fixed stream split between two halves of the working
    faces and the source as absorption_law says: each share passes the exact
    binomial test at the two-sided 4 sigma level, which stays honest where a
    share expects only a few walkers. The examples are derandomized, so the
    Monte Carlo verdicts repeat run to run.
    """
    dom, rng = _random_blob(seed, n_sites, p_source)
    assume(dom.source_mask().any())
    lam = 10.0 ** rng.uniform(-2.0, 2.0)
    law = dtn.absorption_law(dom, lam)
    hist = wk.estimate_spread_measure(
        dom, "source", wk.JumpParams(Lambda=lam, a=dom.mesh), 4_000, RngStream(2005),
    )
    assert hist.censored == 0
    half = np.arange(len(hist.counts)) * 2 // len(hist.counts)
    expected = np.append(np.bincount(half, law.probabilities, 2), 1.0 - law.absorbed_fraction)
    counts = np.append(np.bincount(half, hist.counts, 2), hist.source_absorbed).astype(int)
    for k, p in zip(counts, np.clip(expected, 0.0, 1.0)):
        assert stats.binomtest(k, hist.total, p).pvalue > _P_4SIGMA


def test_estimate_guards(monkeypatch):
    dom = lattice_channel(6, 0.1)
    p = wk.JumpParams(Lambda=0.2, a=0.1)
    with pytest.raises(InvalidParam):
        wk.estimate_spread_measure(dom, "source", p, 0, RngStream(0))
    with pytest.raises(InvalidParam):
        wk.estimate_spread_measure(dom, "source", p, 10, RngStream(0).generator())
    with pytest.raises(InvalidParam):
        wk.estimate_spread_measure(dom, "elsewhere", p, 10, RngStream(0))
    with pytest.raises(InvalidParam):
        wk.estimate_spread_measure(dom, "source", wk.JumpParams(Lambda=0.2, a=0.05), 10, RngStream(0))
    with pytest.raises(InvalidParam):
        wk.estimate_spread_measure(object(), (0.0, 0.5), p, 10, RngStream(0))
    # a lattice start is a bulk index or integer coordinates, never truncated;
    # (3, 2) and index 1 are bulk sites of this box
    box = lattice_box(6, 6, 0.1)
    for start in [(3.7, 2.2), np.array([3.5, 2.0]), True]:
        with pytest.raises(InvalidParam):
            wk.estimate_spread_measure(box, start, p, 10, RngStream(0))
    # a canonical start must lie strictly inside its domain
    hp = make_canonical("half_space", dimension=2)
    disk = make_canonical("disk_interior")
    for bad_dom, start, params in [
        (disk, (1.5, 0.0), p),
        (hp, (0.0, -1.0), p),
        (hp, (0.0, 0.0, 1.0), p),
        (hp, "source", p),
        (disk, (0.2, 0.0), wk.JumpParams(Lambda=0.2, a=1.5)),
        (make_canonical("annulus", outer_radius=3.0), (5.0, 0.0), p),
        (make_canonical("ball_exterior"), (0.1, 0.0, 0.0), p),
    ]:
        with pytest.raises(InvalidParam):
            wk.estimate_spread_measure(bad_dom, start, params, 10, RngStream(0))
    # a thread count below 1 or a malformed PRBM_THREADS is refused, not ignored
    with pytest.raises(InvalidParam):
        wk.estimate_spread_measure(dom, "source", p, 10, RngStream(0), threads=0)
    monkeypatch.setenv("PRBM_THREADS", "abc")
    with pytest.raises(InvalidParam):
        wk.estimate_spread_measure(dom, "source", p, 10, RngStream(0))


def test_excessive_censoring_raises():
    dom = lattice_channel(30, 0.1)
    p = wk.JumpParams(Lambda=0.0, a=0.1, max_steps=5)
    with pytest.raises(ExcessiveCensoring):
        wk.estimate_spread_measure(dom, "source", p, 2_000, RngStream(2))


def test_halfspace_escape_cap_censors():
    """Walkers past the fixed cap 1e4 * max(Lambda, a) are censored.

    At Lambda = a = 1e-4 the cap is 1 and epsilon = 1/2. From height 1 the
    first hit lands past the cap with probability 1 - (2/pi) atan(1) = 1/2,
    and a walker reflected there is censored. Later jumps start at height a
    and almost never reach the cap, so the censored share is 1/4.
    """
    hp = make_canonical("half_space", dimension=2)
    p = wk.JumpParams(Lambda=1e-4, a=1e-4)
    n = 200_000
    hist = wk.estimate_spread_measure(hp, (0.0, 1.0), p, n, RngStream(31), censored_ceiling=1.0)
    share = p.epsilon * (1.0 - 2.0 / math.pi * math.atan(p.escape_cap() / 1.0))
    assert share == pytest.approx(0.25)
    sigma = math.sqrt(share * (1.0 - share) / n)
    assert abs(hist.censored / n - share) < 5.0 * sigma
    with pytest.raises(ExcessiveCensoring):
        wk.estimate_spread_measure(hp, (0.0, 1.0), p, 2_000, RngStream(31))


def test_histogram_partition_enforced():
    with pytest.raises(InvalidParam):
        wk.MeasureHistogram(
            bin_edges=None, counts=np.array([3]), total=10, censored=2, source_absorbed=1
        )


def test_stopping_time_sampler_scale_coupling():
    """Rescaling (Lambda, a) by c scales every sample by c^2, bit for bit.

    The sampler's draws depend only on chi/a and the uniform variates, so
    the same stream at doubled lengths gives exactly quadrupled times. Any
    hidden absolute scale in the sampler would break the identity.
    """
    s1 = wk.estimate_stopping_time(0.5, 0.01, 5000, RngStream(3))
    s2 = wk.estimate_stopping_time(1.0, 0.02, 5000, RngStream(3))
    assert np.array_equal(s2, 4.0 * s1)
    assert np.all(np.diff(s1) >= 0)
    assert np.all(s1 >= 0)


def test_stopping_time_sampler_guards():
    with pytest.raises(InvalidParam):
        wk.estimate_stopping_time(0.0, 0.01, 10, RngStream(0))
    with pytest.raises(InvalidParam):
        wk.estimate_stopping_time(1.0, 0.0, 10, RngStream(0))
    with pytest.raises(InvalidParam):
        wk.estimate_stopping_time(1.0, 0.01, 0, RngStream(0))
    # non-finite lengths, and Lambda/a so large that ceil(chi/a) would leave
    # the exact floats
    for Lambda, a in [(math.inf, 0.01), (1.0, math.inf), (math.nan, 0.01), (1.0, math.nan),
                      (1e300, 1e-300), (1.0, 1e-15)]:
        with pytest.raises(InvalidParam):
            wk.estimate_stopping_time(Lambda, a, 3, RngStream(0))
    # the largest admitted Lambda/a still samples finite times
    assert np.all(np.isfinite(wk.estimate_stopping_time(2.0**47, 1.0, 10, RngStream(0))))


# -- the exact first-passage sampler behind estimate_stopping_time ------------


def _exact_log_first_passage(m: int, j: int) -> float:
    """log P(T_m = m + 2j) = log(m C(m + 2j, j) / ((m + 2j) 2^(m + 2j))) in big integers."""
    n = m + 2 * j
    with localcontext() as ctx:
        ctx.prec = 40
        return float(Decimal(m * math.comb(n, j)).ln() - Decimal(n * 2**n).ln())


def test_first_passage_log_pmf_matches_big_integers():
    worst = 0.0
    for m in (1, 2, 3, 5, 17, 30, 200, 1000, 5000):
        js = np.unique(np.r_[np.arange(60), np.geomspace(1, 5000, 60).astype(int)])
        js = js[m + 2 * js <= 12_000]
        got = wk._log_first_passage_pmf(np.full(js.size, float(m)), js.astype(float))
        for j, lp in zip(js, got):
            exact = _exact_log_first_passage(m, int(j))
            worst = max(worst, abs(lp - exact) / max(1.0, abs(exact)))
    assert worst < 1e-14


def test_first_passage_envelope_bounds_the_lattice_law():
    """P(T_m = m + 2j) <= (1 + 2/m) 2 h(t) at every t of the cell [m + 2j, m + 2j + 2).

    h is the Levy density truncated to t >= m. It is unimodal, so its
    minimum over a cell sits at one of the cell's ends.
    """
    js = np.unique(np.r_[np.arange(2000.0), np.floor(np.geomspace(1, 1e15, 3000))])
    for m in (1, 2, 3, 4, 5, 7, 10, 30, 50, 200, 1e3, 1e4, 1e5, 1e7):
        def log_h(t):
            return (math.log(m) - 0.5 * math.log(2 * math.pi) - 1.5 * np.log(t)
                    - m * m / (2 * t) - math.log(special.erf(math.sqrt(m / 2))))

        lo = m + 2 * js
        log_min_h = np.minimum(log_h(lo), log_h(lo + 2))
        lp = wk._log_first_passage_pmf(np.full(js.size, float(m)), js)
        assert np.all(lp <= math.log1p(2 / m) + math.log(2) + log_min_h), m


@pytest.mark.parametrize("m", [1, 2, 3, 30, 200])
def test_first_passage_draws_match_the_exact_law(m):
    """Cell counts for j < 40, and tails P(T_m > n) out to n = 1e10, within 5 sigma.

    By the reflection principle P(T_m > n) = P(-m <= S_n <= m - 1) for the
    walk S_n = 2X - n, X ~ Bin(n, 1/2).
    """
    n_draws = 500_000
    t = wk._first_passage_times(RngStream(11, m).generator(), np.full(n_draws, float(m)))
    assert np.all(t >= m) and np.all((t - m) % 2 == 0)
    j = (t - m) / 2

    p = np.exp(wk._log_first_passage_pmf(np.full(40, float(m)), np.arange(40.0)))
    counts = np.bincount(j[j < 40].astype(int), minlength=40)
    seen = n_draws * p >= 1
    z = (counts[seen] - n_draws * p[seen]) / np.sqrt(n_draws * p[seen] * (1 - p[seen]))
    assert np.all(np.abs(z) < 5), z
    # cells expected to stay nearly empty, pooled, at the same 1e-6 level
    assert counts[~seen].sum() <= stats.poisson.isf(1e-6, n_draws * p[~seen].sum())

    n = m + 2 * np.unique(np.floor(np.geomspace(1, 5e9, 40))).astype(np.int64)
    q = np.array([stats.binom.cdf((k + m - 1) // 2, k, 0.5) - stats.binom.cdf((k - m) // 2 - 1, k, 0.5)
                  for k in n])
    var = n_draws * q * (1 - q)
    tested = var >= 1
    over = np.array([(t > k).sum() for k in n[tested]])
    z = (over - n_draws * q[tested]) / np.sqrt(var[tested])
    assert tested.sum() >= 20 and np.all(np.abs(z) < 5), z


@pytest.mark.parametrize("ratio", [200.0, 1e4])
def test_stopping_time_matches_continuum_law(ratio):
    """KS distance to stopping_time_cdf within the DKW bound at 1e-3.

    The lattice walk is absorbed at its first touch with probability
    1 - exp(-a/Lambda), an atom the continuum law lacks, so that much more
    is allowed.
    """
    n = 200_000
    ts = wk.estimate_stopping_time(1.0, 1.0 / ratio, n, RngStream(5))
    cdf = hs.stopping_time_cdf(ts, 1.0)
    i = np.arange(n)
    ks = max(np.max((i + 1) / n - cdf), np.max(cdf - i / n))
    assert ks < math.sqrt(math.log(2 / 1e-3) / (2 * n)) + 1 - math.exp(-1 / ratio)


def _table_stopping_time(Lambda, a, n_samples, rng):
    """The sampler estimate_stopping_time replaced, kept as an oracle.

    It sums m = ceil(chi/a) - 1 first-return times of the walk, each drawn
    from a table of the exact law P(tau = 2k - 1) = C(2k - 1, k) 2^(1-2k)/(2k - 1)
    up to 2^22 - 1 steps and from the matched Pareto-1/2 tail beyond.
    """
    table_size, chunk_size = 1 << 21, 4000
    k = np.arange(1, table_size + 1, dtype=np.float64)
    cdf = np.cumsum(np.exp(
        special.gammaln(2 * k) - special.gammaln(k + 1.0) - special.gammaln(k)
        - np.log(2.0 * k - 1.0) - (2.0 * k - 1.0) * math.log(2.0)
    ))
    tail_mass = 1.0 - cdf[-1]
    out = np.empty(n_samples)
    for ci, lo in enumerate(range(0, n_samples, chunk_size)):
        nc = min(chunk_size, n_samples - lo)
        gen = rng.generator(block=ci)
        n_exc = np.ceil(gen.exponential(Lambda, size=nc) / a).astype(np.int64) - 1
        u = gen.random(int(n_exc.sum()))
        idx = np.searchsorted(cdf, u, side="right")
        tau = 2.0 * (idx + 1) - 1.0
        tail = idx >= table_size
        v = np.maximum((1.0 - u[tail]) / tail_mass, 1e-300)
        tau[tail] = 2.0 * np.floor(np.minimum(2.0 * table_size / (v * v), 1e300) / 2.0) + 1.0
        sums = np.bincount(np.repeat(np.arange(nc), n_exc), weights=tau, minlength=nc)
        out[lo : lo + nc] = a * a * (n_exc + sums)
    return np.sort(out)


def test_stopping_time_matches_table_sampler():
    # distinct streams: the same stream would give both samplers the same chi
    new = wk.estimate_stopping_time(1.0, 1.0 / 200.0, 20_000, RngStream(8, 0))
    old = _table_stopping_time(1.0, 1.0 / 200.0, 20_000, RngStream(8, 1))
    assert stats.ks_2samp(new, old).pvalue > 1e-3


def test_stopping_time_memory_is_bounded():
    """O(1) memory per sample: a table-free draw of T_m at Lambda/a = 1e5.

    Summing m return times, as the table sampler did, would hold about
    chunk_size * Lambda/a draws at once, some 12 GB here.
    """
    tracemalloc.start()
    try:
        ts = wk.estimate_stopping_time(1.0, 1e-5, 20_000, RngStream(9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.all(np.isfinite(ts))
