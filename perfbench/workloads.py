"""The three workloads, one per cross-check of the paper.

Each workload makes its inputs from the seed, runs a timed route through
prbm's public functions, and checks the route's outputs with ``checks``.
The route looks every prbm function up on its module at call time
(``dtn.build_Q``, never a name bound at import) so the traced run's
wrappers see the call. ``selftest`` feeds the same checks deliberately
wrong outputs and returns the corruptions a check failed to catch.

Inputs that depend on the seed change what is drawn, never how much work
is done: walker streams, and Lambda values jittered by up to 10% where the
mesh does not depend on Lambda and every Lambda is known to work.
``route(inp, k)`` runs round k; a walker workload keys its streams by the
seed and k, so the random tail of the walkers' lifetimes, which sets how
many vectorized steps a chunk takes, varies between rounds.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from scipy import integrate

from prbm import dtn, geometry, halfspace, lsa, spectral, walkers
from prbm.rng import RngStream

import checks


def _warm_dtn() -> None:
    """dtn reaches scipy.sparse.csgraph, which scipy imports on first use."""
    importlib.import_module("scipy.sparse.csgraph")


def _jitter(rng: np.random.Generator, base, spread: float) -> list[float]:
    return [float(b * (1.0 + spread * rng.random())) for b in base]


# -- annulus-lattice -----------------------------------------------------------


class AnnulusLattice:
    """Operators and lattice walkers on one rasterized annulus.

    Working circle of radius 1 and grounded source circle of radius 3, each
    a 2048-gon, rasterized at mesh 1/32 (25,740 bulk sites, 256 working
    faces). The operator route is the oracle of the lattice walkers.
    """

    name = "annulus-lattice"
    R = 3.0
    mesh = 1.0 / 32.0
    n_walkers = 150_000
    sectors = 6
    # rasterize, build_Q, hitting_distribution, build_M, spectrum,
    # annulus_spectrum, impedance_curve, 3 x (spreading_operator,
    # absorption_distribution), lattice walkers
    ops_per_round = 14
    untimed = ()

    def setup(self, seed: int):
        _warm_dtn()
        rng = np.random.default_rng([seed, 1])
        return SimpleNamespace(
            working=geometry.circle_polyline(1.0, 2048),
            source=geometry.circle_polyline(self.R, 2048),
            lam_grid=np.geomspace(1e-2, 1e2, 17),
            spread_lams=_jitter(rng, (0.1, 0.5, 2.0), 0.1),
            seed=seed,
        )

    def route(self, inp, k: int):
        dom = geometry.rasterize(inp.working, inp.source, self.mesh)
        qm = dtn.build_Q(dom)
        p0 = dtn.hitting_distribution(dom)
        M = dtn.build_M(qm)
        spec = dtn.spectrum(M, p0.density, qm.measure, qm.weight)
        exact = spectral.annulus_spectrum(self.R, 2)
        rows = dtn.impedance_curve(spec, inp.lam_grid)
        laws = []
        for lam in inp.spread_lams:
            T = dtn.spreading_operator(M, lam, qm.weight)
            laws.append((lam, T, dtn.absorption_distribution(p0, T)))
        # one chunk: a chunk steps until its last walker ends
        hist = walkers.estimate_spread_measure(
            dom, "source", walkers.JumpParams(Lambda=inp.spread_lams[1], a=self.mesh),
            self.n_walkers, RngStream(inp.seed, 11 + 1000 * k), chunk_size=self.n_walkers,
        )
        return SimpleNamespace(dom=dom, qm=qm, p0=p0, M=M, spec=spec, exact=exact,
                               rows=rows, laws=laws, hist=hist)

    def _sector_law(self, out):
        """Walker counts and exact expected shares pooled into angular sectors."""
        mids = out.dom.face_midpoints()[out.qm.face_index]
        angle = np.mod(np.arctan2(mids[:, 1], mids[:, 0]), 2.0 * math.pi)
        sector = np.minimum((angle / (2.0 * math.pi) * self.sectors).astype(int), self.sectors - 1)
        _, _, law = out.laws[1]
        expected = out.p0.absorbed_fraction * law.probabilities
        counts = np.bincount(sector, weights=out.hist.counts, minlength=self.sectors)
        prob = np.bincount(sector, weights=expected, minlength=self.sectors)
        return counts, prob

    def check(self, inp, out):
        problems = checks.q_operator(out.qm.Q, out.qm.has_source)
        exact = out.exact.expanded()
        alpha = np.repeat(out.exact.index, out.exact.degeneracy)
        problems += checks.annulus_eigenvalues(out.spec.mu, exact, alpha, self.mesh, self.R)
        problems += checks.annulus_impedance(out.rows, self.mesh)
        for lam, T, _ in out.laws:
            problems += checks.resolvent(out.M, out.qm.weight, lam, T)
        hist = out.hist
        problems += checks.partition(hist)
        counts, prob = self._sector_law(out)
        problems += checks.binned_counts(counts, hist.total, prob, 0.0, "lattice walker sector")
        problems += checks.fraction(hist.source_absorbed, hist.total, 1.0 - prob.sum(), 0.0,
                                    "lattice walker source share")
        return problems

    def selftest(self, inp, out):
        missed = []
        Q = out.qm.Q.copy()
        Q[0, 1] += 1e-9
        if not checks.q_operator(Q, out.qm.has_source):
            missed.append("Q with one asymmetric entry")
        rows = [dict(r, Z_sp=1.05 * r["Z_sp"]) for r in out.rows]
        if not checks.annulus_impedance(rows, self.mesh):
            missed.append("impedance off by 5%")
        return missed


# -- koch-coarse-grain ---------------------------------------------------------


class KochCoarseGrain:
    """compare_flux on quadratic Koch prefractals and on the flat unit segment.

    Each curve is compared at two or three Lambda values with mesh <= Lambda/10;
    every strip has its flat source at height 1 above the base line. Only the
    flat segment's Lambdas are jittered by the seed: on Koch generation 3 at
    mesh 1/128 compare_flux fails for scattered Lambdas (0.4229, 0.5244 and
    0.5361 among them) because the chord-coarsened strip comes out
    disconnected, so the Koch Lambdas are fixed values that work.
    """

    name = "koch-coarse-grain"
    H = 1.0
    # (curve label, generation or None for the flat segment, mesh, Lambdas)
    plan = (
        ("koch3", 3, 1.0 / 128.0, (0.25, 0.5)),
        ("koch2", 2, 1.0 / 64.0, (0.4, 0.7)),
        ("flat", None, 1.0 / 64.0, (0.2, 0.4, 0.8)),
    )
    # the acceptance case: Koch generation 2, Lambda 0.25, mesh 1/64
    fixed = ("koch2", 0.25, 1.0 / 64.0)
    ops_per_round = 8
    untimed = ()

    def setup(self, seed: int):
        _warm_dtn()
        rng = np.random.default_rng([seed, 2])
        flat = np.array([[0.0, 0.0], [1.0, 0.0]])
        cases = []
        for label, gen, mesh, lams in self.plan:
            curve = flat if gen is None else lsa.koch_polyline(gen)
            for lam in lams if gen is not None else _jitter(rng, lams, 0.1):
                cases.append((label, curve, lam, mesh))
            if label == self.fixed[0]:
                cases.append((label, curve, self.fixed[1], self.fixed[2]))
        return SimpleNamespace(cases=cases)

    def route(self, inp, k: int):
        return [(label, mesh, lsa.compare_flux(curve, self.H, lam, mesh))
                for label, curve, lam, mesh in inp.cases]

    def check(self, inp, out):
        problems = []
        for label, mesh, rep in out:
            if label == "flat":
                problems += checks.flat_strip(rep, self.H, 1.0, mesh)
            if (label, rep.Lambda, mesh) == self.fixed and not rep.relative_error < 0.15:
                problems.append(f"Koch generation 2 relative error {rep.relative_error:.4f} >= 0.15")
        for label in {label for label, _, _ in out}:
            reps = [rep for lb, _, rep in out if lb == label]
            problems += checks.decreasing([r.Lambda for r in reps], [r.original_flux for r in reps], label)
        return problems

    def selftest(self, inp, out):
        label, mesh, rep = next(item for item in out if item[0] == "flat")
        off = replace(rep, original_flux=1.0 / (self.H + rep.Lambda))  # drops the a in H + Lambda + a
        if not checks.flat_strip(off, self.H, 1.0, mesh):
            return ["flat-strip flux off by a"]
        return []


# -- canonical-ensembles -------------------------------------------------------


def _bin_laws(density, edges):
    return np.array([integrate.quad(density, lo, hi)[0] for lo, hi in zip(edges[:-1], edges[1:])])


@dataclass(frozen=True)
class _Ensemble:
    kind: str
    start: tuple
    Lambda: float
    a: float
    n: int
    bins: int
    outer_radius: float | None = None


class CanonicalEnsembles:
    """Jump walkers on four canonical domains plus the exact stopping-time sampler.

    Each ensemble is paired with the analytic law of the same quantity,
    computed inside the route by prbm.halfspace and prbm.spectral. Sizes are
    chosen so that no part takes most of the route.
    """

    name = "canonical-ensembles"
    halfplane = _Ensemble("half_space", (0.0, 0.01), 1.0, 0.01, 200_000, 64)
    disk = _Ensemble("disk_interior", (0.6, 0.0), 0.3, 0.01, 500_000, 16)
    ball = _Ensemble("ball_interior", (0.0, 0.0, 0.5), 0.3, 0.02, 1_000, 8)
    annulus = _Ensemble("annulus", (1.5, 0.0), 0.5, 0.02, 1_000, 8, outer_radius=3.0)
    reflections_to = 40
    stop_lambda = 1.0
    stop_a = 1.0 / 200.0
    stop_n = 300_000
    # four ensembles with their laws (8), the sampler and its CDF (2), and the
    # ball reflection-count law outside the timed route (1)
    ops_per_round = 11
    # kept out of route_s, so that mending it cannot read as a slowdown
    untimed = ("ball_reflection_law",)

    def _domain(self, e: _Ensemble):
        dim = len(e.start)
        return geometry.make_canonical(e.kind, dimension=dim, outer_radius=e.outer_radius)

    def _run(self, e: _Ensemble, stream: RngStream, **kw):
        return walkers.estimate_spread_measure(
            self._domain(e), np.array(e.start), walkers.JumpParams(Lambda=e.Lambda, a=e.a),
            e.n, stream, bins=e.bins, chunk_size=100_000, **kw,
        )

    def setup(self, seed: int):
        # the stopping-time sampler fills its return-time table on first use
        walkers.estimate_stopping_time(self.stop_lambda, self.stop_a, 1, RngStream(0))
        return SimpleNamespace(seed=seed)

    def route(self, inp, k: int):
        s = [RngStream(inp.seed, 20 + j + 1000 * k) for j in range(5)]
        hp = self.halfplane
        hp_hist = self._run(hp, s[0], window=hp.Lambda / 2.0)
        hp_law = halfspace.absorption_probability_disk(hp.Lambda / 2.0, hp.Lambda, 2)

        dk = self.disk
        disk_hist = self._run(dk, s[1], count_reflections_to=self.reflections_to)
        disk_law = _bin_laws(lambda th: spectral.disk_spread_density(dk.start[0], th, dk.Lambda),
                             disk_hist.bin_edges)

        bl = self.ball
        ball_hist = self._run(bl, s[2])
        # zonal density in c = cos(theta) carries the 2 pi of the azimuth
        ball_law = _bin_laws(
            lambda c: 2.0 * math.pi * spectral.ball_spread_density(bl.start[2], math.acos(c), bl.Lambda),
            ball_hist.bin_edges,
        )

        an = self.annulus
        ann_hist = self._run(an, s[3])
        R, r0 = an.outer_radius, an.start[0]
        # Robin share ln(R/r0)/(ln R + Lambda), through the zero mode mu0 = 1/ln R
        mu0 = spectral.annulus_spectrum(R, 0).mu[0]
        ann_law = mu0 * math.log(R / r0) / (1.0 + an.Lambda * mu0)

        stop = walkers.estimate_stopping_time(self.stop_lambda, self.stop_a, self.stop_n, s[4])
        stop_cdf = halfspace.stopping_time_cdf(stop, self.stop_lambda)
        return SimpleNamespace(hp_hist=hp_hist, hp_law=hp_law, disk_hist=disk_hist,
                               disk_law=disk_law, ball_hist=ball_hist, ball_law=ball_law,
                               ann_hist=ann_hist, ann_law=ann_law, stop=stop, stop_cdf=stop_cdf)

    def ball_reflection_law(self) -> list[str]:
        """Reflection counts on the ball interior against the geometric law.

        Inputs do not depend on the seed. Raises PrbmError while the scalar
        walker path refuses reflection counting.
        """
        hist = self._run(replace(self.ball, n=500), RngStream(2024, 30),
                         count_reflections_to=self.reflections_to)
        eps = walkers.JumpParams(Lambda=self.ball.Lambda, a=self.ball.a).epsilon
        return checks.geometric_reflections(hist.reflection_counts, eps, "ball reflections")

    def check(self, inp, out):
        problems = []
        for hist in (out.hp_hist, out.disk_hist, out.ball_hist, out.ann_hist):
            problems += checks.partition(hist)
        hp = self.halfplane
        # the overflow bin holds everything outside |s| <= Lambda/2
        chord = int(out.hp_hist.counts[:-1].sum())
        problems += checks.fraction(chord, out.hp_hist.total, out.hp_law, hp.a / hp.Lambda,
                                    "half-plane chord fraction")
        problems += checks.binned_counts(out.disk_hist.counts, out.disk_hist.total, out.disk_law,
                                         self.disk.a, "disk angle")
        eps = walkers.JumpParams(Lambda=self.disk.Lambda, a=self.disk.a).epsilon
        problems += checks.geometric_reflections(out.disk_hist.reflection_counts, eps, "disk reflections")
        problems += checks.binned_counts(out.ball_hist.counts, out.ball_hist.total, out.ball_law,
                                         self.ball.a, "ball cos(theta)")
        problems += checks.fraction(out.ann_hist.working_absorbed, out.ann_hist.total, out.ann_law,
                                    self.annulus.a, "annulus working share")
        problems += checks.stopping_time(out.stop, out.stop_cdf, self.stop_a, self.stop_lambda)
        return problems

    def selftest(self, inp, out):
        missed = []
        shifted = np.roll(out.disk_hist.counts, 1)
        if not checks.binned_counts(shifted, out.disk_hist.total, out.disk_law, self.disk.a, "disk"):
            missed.append("disk histogram shifted by one bin")
        scaled = 1.1 * out.stop
        cdf = halfspace.stopping_time_cdf(scaled, self.stop_lambda)
        if not checks.stopping_time(scaled, cdf, self.stop_a, self.stop_lambda):
            missed.append("stopping-time sample scaled by 1.1")
        return missed


WORKLOADS = {w.name: w for w in (AnnulusLattice(), KochCoarseGrain(), CanonicalEnsembles())}
