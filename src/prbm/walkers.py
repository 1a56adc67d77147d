"""Monte Carlo walkers realizing the partially reflected Brownian motion.

A walker reaches the boundary by the domain's exact hitting law and then
flips a reflection coin with epsilon = Lambda/(Lambda + a), so a jump
trajectory is just its sequence of boundary contacts; there is no time
discretization. Lattice walkers step site to site and flip a per-face coin.

Every ensemble runs through one vectorized loop, _walk, which owns the
reflection coin, the exits to the source and past the escape radius, the
reflection tally and censoring at max_steps. A domain supplies only its
start rows and one step of its hitting law: the jump to the wall of the
half-space, the Mobius image of a uniform angle on the disk (one real
scaling in the half-angle chart), the zonal inverse CDF in a per-walker
frame on the ball, walk on circles in the annulus, and a nearest-neighbour
step on a lattice. A square-lattice walker far from every face and wall
instead crosses the largest free square of power-of-two half-width around it
in one draw from the exact exit law of the lattice walk, solved once per
size and cached for the process; faces are only ever met in plain steps, so
the law of the walk is that of the plain nearest-neighbour walk. Chunks run
on disjoint counter blocks of one stream and merge in fixed order, which
makes every estimate a pure function of (seed, stream_id, chunk_size)
regardless of thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .dtn import _factor, _reflection_probabilities
from .errors import ExcessiveCensoring, InvalidParam, _count, _nonnegative, _positive
from .geometry import DomainKind, DomainSpec, LatticeDomain, lattice_box
from .rng import RngStream

__all__ = [
    "JumpParams",
    "MeasureHistogram",
    "sample_threshold",
    "estimate_spread_measure",
    "estimate_stopping_time",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class JumpParams:
    """Parameters of the jump-reflected walk.

    The reflection probability is never stored; it is always the derived
    epsilon = 1/(1 + a/Lambda), which degenerates to 0 at Lambda = 0 (absorb
    on first contact). On the half-space a walker is censored once its
    lateral distance exceeds the fixed cap 1e4 * max(Lambda, a). max_steps
    counts kernel steps: one draw of a hitting law, one annulus contact, one
    lattice step, or one lattice jump across a free square, however many
    sites it spans.
    """

    Lambda: float
    a: float
    max_steps: int = 10_000_000

    def __post_init__(self) -> None:
        _nonnegative(self.Lambda, "Lambda")
        _positive(self.a, "jump distance a")
        _count(self.max_steps, "max_steps", 1)

    @property
    def epsilon(self) -> float:
        if self.Lambda == 0:
            return 0.0
        return self.Lambda / (self.Lambda + self.a)

    def escape_cap(self) -> float:
        return 1e4 * max(self.Lambda, self.a)


@dataclass
class MeasureHistogram:
    """Binned Monte Carlo estimate of a (spread) harmonic measure.

    For line-like interfaces (half-space) counts carries one extra overflow
    bin at the end, past the configured window; circular interfaces close on
    themselves and per-face lattice bins need no overflow. The exact count
    partition counts.sum() + source_absorbed + censored == total always
    holds. reflection_counts, when requested, tallies absorbed walkers by
    their reflection number with one final overflow slot.
    """

    bin_edges: np.ndarray | None
    counts: np.ndarray
    total: int
    censored: int
    source_absorbed: int
    total_reflections: int = 0
    reflection_counts: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if int(self.counts.sum()) + self.censored + self.source_absorbed != self.total:
            raise InvalidParam("histogram counts do not partition the ensemble")

    @property
    def working_absorbed(self) -> int:
        return int(self.counts.sum())

    @property
    def estimate(self) -> np.ndarray:
        return self.counts / self.total

    @property
    def stderr(self) -> np.ndarray:
        p = self.estimate
        return np.sqrt(p * (1.0 - p) / self.total)

    @property
    def source_fraction(self) -> float:
        return self.source_absorbed / self.total

    @property
    def mean_reflections(self) -> float:
        return self.total_reflections / self.total


def sample_threshold(Lambda: float, rng: np.random.Generator) -> float:
    """Draw the absorption threshold chi, exponential with mean Lambda.

    rng is a numpy Generator that successive calls share; an RngStream is
    rejected, since each of its .generator() calls restarts the same block.
    Lambda = 0 degenerates to chi = 0: absorption at the first contact.
    """
    if not isinstance(rng, np.random.Generator):
        raise InvalidParam(
            "sample_threshold needs a Generator: call stream.generator() once and reuse it"
        )
    lam = _nonnegative(Lambda, "Lambda")
    if lam == 0:
        return 0.0
    return float(rng.exponential(lam))


# -- exact hitting laws --------------------------------------------------------


def _mobius_angle(rho: float, phi):
    """Boundary angle hit from radius rho on the axis, phi uniform on the circle.

    The disk automorphism w -> (w + rho)/(1 + rho w) carries the uniform
    hitting law from the center to the hitting law from rho. It is computed in
    the half-angle chart, tan(theta/2) = (1 - rho)/(1 + rho) tan(phi/2), in
    real arithmetic that keeps full precision near phi = pi as rho -> 1.
    """
    return 2.0 * np.arctan((1.0 - rho) / (1.0 + rho) * np.tan(0.5 * phi))


def _ball_zonal_cos(rho: float, v):
    """Inverse CDF of cos(polar angle) for the sphere hit from radius rho."""
    if rho < 1e-12:
        return 2.0 * v - 1.0
    q = v * 2.0 * rho / (1.0 - rho * rho) + 1.0 / (1.0 + rho)
    return (1.0 + rho * rho - q ** -2) / (2.0 * rho)


def _zonal_point(axis: np.ndarray, cos_t, phi) -> np.ndarray:
    """Unit vector at polar angle arccos(cos_t) around axis, azimuth phi.

    axis is one unit 3-vector or a stack of them, one frame per row.
    """
    cos_t = np.clip(cos_t, -1.0, 1.0)[..., None]
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    phi = np.asarray(phi)[..., None]
    # any vector not parallel to axis seeds the orthonormal pair
    helper = np.where(np.abs(axis[..., :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(axis, e1)
    return cos_t * axis + sin_t * (np.cos(phi) * e1 + np.sin(phi) * e2)


# (interior?, name) of the unit disks and balls
_ROUND = {
    DomainKind.DISK_INTERIOR: (True, "disk"),
    DomainKind.DISK_EXTERIOR: (False, "disk"),
    DomainKind.BALL_INTERIOR: (True, "ball"),
    DomainKind.BALL_EXTERIOR: (False, "ball"),
}


def _check_start(dom, start, params: JumpParams):
    """Validate a start against its domain and return it normalized.

    A canonical start comes back as a float vector strictly inside the
    domain; a lattice start as "source" or a bulk-site index.
    """
    if isinstance(dom, LatticeDomain):
        if abs(params.a - dom.mesh) > 1e-12 * max(params.a, dom.mesh):
            raise InvalidParam("params.a must equal the lattice mesh")
        if not isinstance(start, str):
            return _resolve_site(dom, start)
        if start != "source":
            raise InvalidParam(f"unknown start mode {start!r}")
        if not dom.source_mask().any():
            raise InvalidParam("start='source' needs source faces")
        return start
    if not isinstance(dom, DomainSpec):
        raise InvalidParam("dom must be a DomainSpec or LatticeDomain")
    kind = dom.kind
    try:
        x = np.asarray(start, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParam(f"start must be a point, not {start!r}") from exc
    d = dom.dimension
    if x.shape != (d,):
        raise InvalidParam(f"start must be a {d}-vector")
    _nonnegative(np.abs(x), "|start|")
    a = params.a
    r = float(np.linalg.norm(x))
    if kind is DomainKind.HALF_SPACE:
        if not x[-1] > 0:
            raise InvalidParam("start must lie strictly above the boundary")
    elif kind is DomainKind.ANNULUS:
        R = dom.outer_radius
        if R is None:
            raise InvalidParam("annulus spec is missing its outer radius")
        if not 1.0 < r < R:
            raise InvalidParam("start must lie strictly between the circles")
        if not a < R - 1.0:
            raise InvalidParam("jump distance must fit inside the gap")
    else:
        interior, body = _ROUND[kind]
        if interior and not r < 1.0:
            raise InvalidParam(f"start must lie strictly inside the unit {body}")
        if not interior and not r > 1.0:
            raise InvalidParam(f"start must lie strictly outside the unit {body}")
        if interior and not a < 1.0:
            raise InvalidParam(f"jump distance must stay below the {body} radius")
    return x


def _resolve_site(dom: LatticeDomain, start) -> int:
    """Bulk index of a lattice start: an int index or a site's integer coordinates."""
    if isinstance(start, (int, np.integer)) and not isinstance(start, bool):
        index = _count(start, "bulk site index", 0)
        if index >= dom.n_bulk:
            raise InvalidParam(f"bulk site index {start} out of range")
        return index
    site = np.asarray(start).ravel()
    integral = site.dtype.kind in "iu" or (
        site.dtype.kind == "f" and not np.any(_nonnegative(np.abs(site), "|start|") % 1)
    )
    if not integral:  # a bool is no index, and a fractional coordinate no site
        raise InvalidParam(f"lattice start {start!r} is neither a bulk index nor integer coordinates")
    key = tuple(int(c) for c in site)
    idx = dom.site_index(key)[0] if len(key) == dom.dimension else -1
    if idx < 0:
        raise InvalidParam(f"{key} is not a bulk site")
    return int(idx)


# -- vectorized ensembles ------------------------------------------------------
#
# A kernel is (edges, n_bins, init, hit, to_bin). init(gen, n) returns the
# start rows of n walkers. hit(gen, rows, first) advances every live walker
# by one step of the domain's exact law and returns
#   rows     the walkers' rows after the step, as if every contact reflected;
#   where    the raw contact coordinate, one row per walker;
#   eps      the reflection probability at the contact, scalar or per walker;
#   contact  mask of walkers on the working boundary (None: every walker);
#   source   mask of walkers that left through the source (None: none);
#   far      mask of walkers past the escape radius (None: none).
# to_bin(where) maps the coordinates of absorbed walkers to histogram bins.
# first is true on the first step only, when every walker is still at its
# start height or radius; afterwards it sits at distance a off the boundary.


def _walk(gen, n, init, hit, to_bin, n_bins, max_steps, count_to):
    """Run n walkers of one kernel to absorption, exit or censoring.

    Returns (counts, source, censored, total_reflections, reflection_counts).
    """
    rows = init(gen, n)
    counts = np.zeros(n_bins, dtype=np.int64)
    source = 0
    censored = 0
    total_refl = 0
    nrefl = np.zeros(n, dtype=np.int64) if count_to is not None else None
    refl_counts = np.zeros(count_to + 2, dtype=np.int64) if count_to is not None else None
    for step in range(max_steps):
        m = len(rows)
        if m == 0:
            break
        rows, where, eps, contact, src, far = hit(gen, rows, step == 0)
        absorbed = gen.random(m) >= eps
        if contact is not None:
            absorbed &= contact
        keep = ~absorbed
        reflected = keep if contact is None else contact & keep
        counts += np.bincount(to_bin(where[absorbed]), minlength=n_bins)
        total_refl += int(reflected.sum())
        if count_to is not None:
            refl_counts += np.bincount(
                np.minimum(nrefl[absorbed], count_to + 1), minlength=count_to + 2
            )
        if src is not None:
            source += int(src.sum())
            keep = keep & ~src
        if far is not None:
            far = far & keep
            censored += int(far.sum())
            keep = keep & ~far
        if count_to is not None:
            nrefl = (nrefl + reflected)[keep]
        rows = rows[keep]
    censored += len(rows)
    return counts, source, censored, total_refl, refl_counts


def _angle_bins(bins: int):
    """Edges and binning of uniform bins in the contact angle."""

    def to_bin(theta):
        c = np.mod(theta, _TWO_PI)
        return np.minimum((c / _TWO_PI * bins).astype(np.int64), bins - 1)

    return np.linspace(0.0, _TWO_PI, bins + 1), to_bin


def _halfspace_kernel(dom, x, params, bins, window):
    d = dom.dimension
    if window is None:
        window = 10.0 * max(params.Lambda, params.a)
    edges = np.linspace(-window if d == 2 else 0.0, window, bins + 1)
    eps, esc, a, h0 = params.epsilon, params.escape_cap(), params.a, float(x[-1])
    # the plane keeps its lateral coordinate in a flat row: numpy compacts
    # 1-D arrays many times faster than (m, 1) ones
    shape = () if d == 2 else (d - 1,)

    def init(gen, n):
        return np.tile(x[:-1], n).reshape((n,) + shape)

    def hit(gen, lat, first):
        z = gen.standard_normal((len(lat), d - 1))
        w = gen.standard_normal(len(lat))
        s = lat + ((h0 if first else a) * z / np.abs(w)[:, None]).reshape(lat.shape)
        # signed abscissa in the plane, radius |s| above it
        coord = s if d == 2 else np.linalg.norm(s, axis=1)
        return s, coord, eps, None, None, np.abs(coord) > esc

    def to_bin(coord):
        # one trailing overflow bin takes everything off the window
        out = (coord < edges[0]) | (coord > edges[-1])
        idx = np.clip(np.searchsorted(edges, coord, side="right") - 1, 0, bins - 1)
        return np.where(out, bins, idx)

    return edges, bins + 1, init, hit, to_bin


def _disk_kernel(dom, x, params, bins):
    interior = dom.kind is DomainKind.DISK_INTERIOR
    r0 = float(np.hypot(x[0], x[1]))
    rho0 = r0 if interior else 1.0 / r0
    rho = 1.0 - params.a if interior else 1.0 / (1.0 + params.a)
    eps = params.epsilon
    edges, to_bin = _angle_bins(bins)

    def init(gen, n):
        return np.full(n, math.atan2(x[1], x[0]))

    def hit(gen, ang, first):
        theta = ang + _mobius_angle(rho0 if first else rho, gen.random(len(ang)) * _TWO_PI)
        return theta, theta, eps, None, None, None

    return edges, bins, init, hit, to_bin


def _ball_kernel(dom, x, params, bins):
    interior = dom.kind is DomainKind.BALL_INTERIOR
    r0 = float(np.linalg.norm(x))
    axis0 = x / r0 if r0 > 0 else np.array([0.0, 0.0, 1.0])
    r1 = 1.0 - params.a if interior else 1.0 + params.a
    eps = params.epsilon
    edges = np.linspace(-1.0, 1.0, bins + 1)

    def init(gen, n):
        return np.tile(axis0, (n, 1))

    def hit(gen, axis, first):
        # each row is the walker's radial direction, the axis of its frame
        m = len(axis)
        r = r0 if first else r1
        escaped = None
        if not interior:
            # transient walk: the sphere is reached with probability 1/r,
            # otherwise the walker escapes to the source at infinity
            escaped = gen.random(m) >= 1.0 / r
        cos_t = _ball_zonal_cos(r if interior else 1.0 / r, gen.random(m))
        s = _zonal_point(axis, cos_t, gen.uniform(0.0, _TWO_PI, m))
        return s, s, eps, None if interior else ~escaped, escaped, None

    def to_bin(s):
        return np.clip(((s[:, 2] + 1.0) / 2.0 * bins).astype(np.int64), 0, bins - 1)

    return edges, bins, init, hit, to_bin


def _annulus_kernel(dom, x, params, bins):
    R = dom.outer_radius
    shell = 1e-9 * (R - 1.0)
    a, eps = params.a, params.epsilon
    edges, angle_bin = _angle_bins(bins)

    def init(gen, n):
        # positions as complex numbers, one flat row per walker
        return np.full(n, complex(x[0], x[1]))

    def hit(gen, p, first):
        # walk on circles; a walker within the shell of a circle touches it
        r = np.abs(p)
        free = np.minimum(r - 1.0, R - r)
        near = free < shell
        src = near & (R - r < r - 1.0)
        contact = near & ~src
        nxt = p + free * np.exp(1j * gen.uniform(0.0, _TWO_PI, len(p)))
        nxt[contact] = p[contact] * ((1.0 + a) / r[contact])
        return nxt, p, eps, contact, src, None

    return edges, bins, init, hit, lambda p: angle_bin(np.angle(p))


# -- multiscale lattice jumps --------------------------------------------------
#
# Between faces every lattice step is pure bulk diffusion, so a walker whose
# surroundings hold no face and no wall may cross a whole free square in one
# draw from that square's exit law (Grebenkov, Lebedev, Filoche and Sapoval,
# "Multiscale random-walk algorithm for simulating interfacial pattern
# formation", 2005). By the strong Markov property the law of the walk, and
# so every absorption count, is unchanged; only the draws differ. A site is
# special when a face or a wall is among its neighbour codes. A walker at
# chessboard distance c >= 2 from every special site jumps to the ring at
# chessboard distance r, the largest power of two with r <= min(c,
# _JUMP_TOP), drawn from the exit law of the walk started at the centre of
# the (2r - 1) x (2r - 1) square of sites. The square holds no special site
# and the ring around it is all bulk, so a jump touches no face.

# largest jump, in sites; bounds the exit-law solves (a 127 x 127 box)
_JUMP_TOP = 64

# r -> (ring offsets (k, 2), probabilities (k,)), filled on first use
_EXIT_LAWS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _exit_law(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Exit law of the square lattice walk from the centre of a (2r - 1)^2 square.

    Returns the offsets of the ring sites at chessboard distance r and the
    probability of leaving onto each: the mean number of visits to the inward
    site of each face of an all-working box, divided by 2d = 4, from one
    sparse solve of the bulk system. Cached per process, keyed by r.
    """
    law = _EXIT_LAWS.get(r)
    if law is None:
        box = lattice_box(2 * r - 1, 2 * r - 1, 1.0, source_side=None)
        lu, inward = _factor(box)
        start = np.zeros(box.n_bulk)
        start[box.site_index([r - 1, r - 1])] = 1.0
        prob = lu.solve(start, trans="T")[inward] / 4.0
        law = _EXIT_LAWS[r] = (box.face_exterior - (r - 1), prob)
    return law


def _jump_levels(dom: LatticeDomain) -> np.ndarray:
    """Per bulk site, the level L of its jumps (r = 2^L sites), 0 for a plain step.

    The chessboard distance c to the nearest special site comes from
    8-neighbourhood erosion over the neighbour table, stopped at _JUMP_TOP:
    the diagonals are the +-y neighbours of the +-x neighbours, and a non-bulk
    code counts as distance 0, so no bounding-box grid is needed. Only the
    square lattice has exit laws; in other dimensions every level is 0.
    """
    nb = dom.n_bulk
    if dom.dimension != 2:
        return np.zeros(nb, dtype=np.int64)
    table = dom.neighbor_table()
    # faces and walls all map to the extra index nb, at distance 0
    code = np.vstack([np.where((table >= 0) & (table < nb), table, nb), np.full(4, nb)])
    around = np.column_stack([code[:nb], code[code[:nb, 0], 2:], code[code[:nb, 1], 2:]])
    special = (code[:nb] == nb).any(axis=1)
    dist = np.where(np.append(special, True), 0, _JUMP_TOP)
    alive = np.flatnonzero(~special)
    while alive.size:
        reach = 1 + dist[around[alive]].min(axis=1)
        done = reach < _JUMP_TOP
        if not done.any():
            break
        dist[alive[done]] = reach[done]
        alive = alive[~done]
    c = dist[:nb]
    # floor(log2 c) from the binary exponent
    return np.where(c >= 2, np.frexp(c)[1] - 1, 0)


def _lattice_kernel(dom, start, params):
    nb, nf = dom.n_bulk, dom.n_faces
    table = dom.neighbor_table()
    two_d = 2 * dom.dimension
    working = np.flatnonzero(dom.working_mask())
    # per-code tables: bulk sites, then faces, then a trailing entry that
    # MISSING_NEIGHBOR (-1) lands on, a reflecting wall that keeps the walker
    is_bulk = np.zeros(nb + nf + 1, dtype=bool)
    is_bulk[:nb] = True
    is_working = np.zeros(nb + nf + 1, dtype=bool)
    is_working[nb + working] = True
    is_source = np.zeros(nb + nf + 1, dtype=bool)
    is_source[nb:nb + nf] = dom.source_mask()
    eps_of = np.zeros(nb + nf + 1)
    eps_of[nb:nb + nf] = _reflection_probabilities(dom, params.Lambda)
    bin_of = np.zeros(nb + nf + 1, dtype=np.int64)
    bin_of[nb + working] = np.arange(len(working))
    launch = dom.inward_indices()[np.flatnonzero(dom.source_mask())]
    # the exit laws of every level present, filled here before chunks fan
    # out; level L's CDF is shifted by L, so one searchsorted draws them all
    level = _jump_levels(dom)
    cdf, ring = np.zeros(0), np.zeros((0, 2), dtype=np.int64)
    # last CDF index of each level, so that L + u rounded up to L + 1 stays in level L
    last = [-1]
    for L in range(1, int(level.max(initial=0)) + 1):
        offsets, prob = _exit_law(2**L)
        c = np.cumsum(prob)
        cdf = np.append(cdf, np.append(c[:-1] / c[-1], 1.0) + L)
        ring = np.vstack([ring, offsets])
        last.append(len(cdf) - 1)
    last = np.array(last)

    def init(gen, n):
        if isinstance(start, str):
            return launch[gen.integers(0, len(launch), size=n)]
        return np.full(n, start, dtype=np.int64)

    def hit(gen, sites, first):
        code = table[sites, gen.integers(0, two_d, size=len(sites))]
        lev = level[sites]
        jump = np.flatnonzero(lev)
        if jump.size:
            lev = lev[jump]
            k = np.minimum(np.searchsorted(cdf, lev + gen.random(jump.size), side="right"), last[lev])
            code[jump] = dom.site_index(dom.bulk_sites[sites[jump]] + ring[k])
        moved = np.where(is_bulk[code], code, sites)
        return moved, code, eps_of[code], is_working[code], is_source[code], None

    return None, len(working), init, hit, lambda code: bin_of[code]


def _kernel(dom, start, params: JumpParams, bins: int, window: float | None):
    """The kernel of dom for a start already checked by _check_start."""
    if isinstance(dom, LatticeDomain):
        return _lattice_kernel(dom, start, params)
    if dom.kind is DomainKind.HALF_SPACE:
        return _halfspace_kernel(dom, start, params, bins, window)
    if dom.kind is DomainKind.ANNULUS:
        return _annulus_kernel(dom, start, params, bins)
    if dom.dimension == 2:
        return _disk_kernel(dom, start, params, bins)
    return _ball_kernel(dom, start, params, bins)


def estimate_spread_measure(
    dom,
    start,
    params: JumpParams,
    n_walkers: int,
    rng: RngStream,
    *,
    bins: int = 64,
    window: float | None = None,
    chunk_size: int = 100_000,
    censored_ceiling: float = 0.01,
    count_reflections_to: int | None = None,
    threads: int | None = None,
) -> MeasureHistogram:
    """Ensemble estimate of the spread harmonic measure.

    dom is a canonical DomainSpec or a LatticeDomain. start is an interior
    point for canonical domains; for lattices it is a bulk site or the
    string "source", which launches walkers uniformly over the bulk
    neighbours of source faces, the same law hitting_distribution uses.
    Binning: signed lateral coordinate over [-window, window] plus an
    overflow bin for the half-plane (radius |s| for d > 2), uniform angle
    bins for disks and the annulus, cos(polar angle) for balls, one bin per
    working face for lattices. Walkers reach the source on a lattice, in
    the annulus and (with the exact 1/r escape law) outside the ball; on
    the half-space a walker past params.escape_cap() is censored, as is
    every walker still alive after params.max_steps steps.
    count_reflections_to=K tallies absorbed walkers by their number of
    reflections, 0..K plus one overflow slot, on every domain. Chunks of
    chunk_size walkers each run on their own counter block; PRBM_THREADS
    (or threads=) fans the chunks out without changing any count. Raises
    ExcessiveCensoring when the censored fraction exceeds censored_ceiling.
    """
    n_walkers = _count(n_walkers, "n_walkers", 1)
    if not isinstance(rng, RngStream):
        raise InvalidParam("ensembles need an RngStream to split")
    bins, chunk_size = _count(bins, "bins", 1), _count(chunk_size, "chunk_size", 1)
    if count_reflections_to is not None:
        count_reflections_to = _count(count_reflections_to, "count_reflections_to", 0)
    if window is not None:
        window = _positive(window, "window")
    _nonnegative(censored_ceiling, "censored_ceiling")
    if threads is None:
        raw = os.environ.get("PRBM_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise InvalidParam(f"PRBM_THREADS must be an integer, got {raw!r}") from None
    threads = _count(threads, "threads", 1)

    start = _check_start(dom, start, params)
    edges, n_bins, init, hit, to_bin = _kernel(dom, start, params, bins, window)

    def run_chunk(ci: int, cn: int):
        return _walk(
            rng.generator(block=ci), cn, init, hit, to_bin, n_bins,
            params.max_steps, count_reflections_to,
        )

    n_chunks = (n_walkers + chunk_size - 1) // chunk_size
    sizes = [min(chunk_size, n_walkers - ci * chunk_size) for ci in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run_chunk, range(n_chunks), sizes))

    # merge in chunk order; reflection_counts stays None when not requested
    counts, source, censored, total_refl, refl_counts = (
        None if part[0] is None else sum(part) for part in zip(*results)
    )
    hist = MeasureHistogram(
        bin_edges=edges, counts=counts, total=n_walkers, censored=censored,
        source_absorbed=source, total_reflections=total_refl, reflection_counts=refl_counts,
    )
    if censored > censored_ceiling * n_walkers:
        raise ExcessiveCensoring(
            f"{censored} of {n_walkers} walkers censored "
            f"(ceiling {censored_ceiling:.1%})"
        )
    return hist


# -- stopping-time sampler -----------------------------------------------------
#
# T_m, the first passage of the simple walk from 0 to level m >= 1, takes the
# values n = m + 2j with P(T_m = n) = (m/n) C(n, j) 2^-n (the hitting-time
# theorem). Its continuum limit is the Levy law m^2/Z^2, so one proposal from
# that law, truncated to t >= m, lands in the cell [m + 2j, m + 2j + 2) of
# width 2 and is kept with probability P(T_m = m + 2j) / (C * 2 h(t)), where
# h is the truncated Levy density. The cell's lattice mass never exceeds
# C = 1 + 2/m times 2 h anywhere in it, so the kept j follow the lattice law
# exactly, and on average C proposals make a draw.

_LN2 = math.log(2.0)
_HALF_LN_2PI = 0.5 * math.log(_TWO_PI)

# stirlerr(k) = log k! - (k + 1/2) log k + k - log sqrt(2 pi) for k <= 15,
# where the Stirling series below is short of double precision
_STIRLERR_SMALL = np.array(
    [0.0] + [math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _HALF_LN_2PI for k in range(1, 16)]
)

# phi(v) + phi(-v) = sum_k v^2k / (k (2k - 1)), highest power first
_BD0_SERIES = np.array([1.0 / (k * (2 * k - 1)) for k in range(9, 0, -1)])

# ceil(chi/a) must stay an exact float: numpy's standard exponential never
# exceeds 45 (the ziggurat's tail starts at 7.7 and draws -log of a 53-bit
# uniform), so chi/a < 64 Lambda/a <= 2^53
_MAX_LEVEL_SCALE = 2.0**47

# stopping-time samples per counter block; the draws depend on it
_STOP_CHUNK = 4000


def _stirlerr(x: np.ndarray) -> np.ndarray:
    """log x! - (x + 1/2) log x + x - log sqrt(2 pi) for integer-valued x >= 1."""
    r = 1.0 / x
    r2 = r * r
    out = r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188))))
    small = x <= 15
    if small.any():
        out[small] = _STIRLERR_SMALL[x[small].astype(np.intp)]
    return out


def _bd0_pair(v: np.ndarray) -> np.ndarray:
    """phi(v) + phi(-v), with phi(v) = (1 + v) log1p(v) - v, for 0 <= v < 1.

    n/2 times this is Loader's pair of deviance terms bd0(j, n/2) +
    bd0(n - j, n/2) at v = (n - 2j)/n. Below v = 0.1 the direct form would
    cancel to v^2, so the even series takes over.
    """
    w = v * v
    out = w * np.polyval(_BD0_SERIES, w)
    big = v >= 0.1
    if big.any():
        vb = v[big]
        out[big] = (1.0 + vb) * np.log1p(vb) + (1.0 - vb) * np.log1p(-vb)
    return out


def _log_first_passage_pmf(m: np.ndarray, j: np.ndarray) -> np.ndarray:
    """log P(T_m = m + 2j) of the simple walk, to rounding at every length.

    Loader's saddle-point form of the binomial pmf keeps every term of
    moderate size, where differences of log-gamma values lose all digits
    once n is large.
    """
    jj = np.maximum(j, 1.0)
    n = m + 2.0 * jj
    k = m + jj
    lp = (
        np.log(m / n)
        + _stirlerr(n) - _stirlerr(jj) - _stirlerr(k)
        - 0.5 * n * _bd0_pair(m / n)
        - 0.5 * np.log(_TWO_PI * (jj * k / n))
    )
    return np.where(j == 0, -_LN2 * m, lp)


def _first_passage_times(gen: np.random.Generator, m: np.ndarray) -> np.ndarray:
    """One exact draw of T_m for each level m >= 1 (integer-valued floats)."""
    cap = special.erf(np.sqrt(0.5 * m))
    # log of C * 2 h(t) without its t-dependent part -1.5 log t - m^2/(2t)
    log_env = np.log1p(2.0 / m) + _LN2 + np.log(m) - _HALF_LN_2PI - np.log(cap)
    out = np.empty_like(m)
    todo = np.arange(m.size)
    while todo.size:
        mt = m[todo]
        # |Z| by inversion of the half-normal law cut at sqrt(m), so that
        # t = m^2/Z^2 >= m; the clamps only absorb rounding
        u = 1.0 - gen.random(todo.size)
        z = np.minimum(math.sqrt(2.0) * special.erfinv(u * cap[todo]), np.sqrt(mt))
        t = np.maximum(mt * mt / (z * z), mt)
        j = np.floor(0.5 * (t - mt))
        log_h = log_env[todo] - 1.5 * np.log(t) - 0.5 * z * z
        keep = np.log(gen.random(todo.size)) + log_h <= _log_first_passage_pmf(mt, j)
        out[todo[keep]] = mt[keep] + 2.0 * j[keep]
        todo = todo[~keep]
    return out


def estimate_stopping_time(Lambda: float, a: float, n_samples: int, rng: RngStream) -> np.ndarray:
    """Sample the boundary stopping time of the reflected 1D walk, exactly.

    Each boundary touch adds a of local time, so the exponential threshold
    chi allows ceil(chi/a) touches, the last of which absorbs. Before it the
    walk makes m = ceil(chi/a) - 1 excursions, each one forced step off the
    boundary and a return. The m returns together last as long as the first
    passage T_m of a simple walk to level m, so t = a^2 (m + T_m) in units
    where one step lasts a^2. Each sample is one draw of T_m, by rejection
    from its Levy limit with 1 + 2/m proposals on average: exact at every
    length, with no table, step cap or censoring, drawing 4000 samples at a
    time from successive counter blocks. Samples are a pure function of
    (seed, stream_id) and depend on (Lambda, a) only through chi/a. Returns
    the sorted sample.
    """
    _positive(Lambda, "Lambda")
    _positive(a, "mesh a")
    if not Lambda / a <= _MAX_LEVEL_SCALE:
        raise InvalidParam(f"Lambda/a must be at most 2**47, got {Lambda / a:.3g}")
    n_samples = _count(n_samples, "n_samples", 1)
    out = np.empty(n_samples)
    for ci, lo in enumerate(range(0, n_samples, _STOP_CHUNK)):
        gen = rng.generator(block=ci)
        chi = gen.exponential(Lambda, size=min(_STOP_CHUNK, n_samples - lo))
        # chi = 0 is absorbed at the first touch, like chi <= a
        m = np.maximum(np.ceil(chi / a) - 1.0, 0.0)
        steps = m.copy()
        moved = m > 0
        steps[moved] += _first_passage_times(gen, m[moved])
        out[lo : lo + chi.size] = a * a * steps
    out.sort()
    return out
