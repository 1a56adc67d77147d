"""Discrete boundary operators on lattice domains, built by exact linear solves.

The chain is: self-transport matrix Q (boundary-to-boundary return
probabilities of the bulk walk), the discrete Dirichlet-to-Neumann operator
M = (I - Q)/a, its resolvent T_Lambda = (I + Lambda M)^{-1}, and from those
the absorption distribution, the boundary spectrum, and impedance curves.

The absorption law at a given Lambda also comes without Q, from one sparse
solve (absorption_law). A lattice walker that steps into working face f is
reflected back onto its site with probability eps_f = Lambda/(Lambda + a w_f)
and absorbed otherwise, so its site-to-site kernel is
P_Lambda = P_bulk + diag(sum of eps_f/(2d) over the working faces at a site),
and the absorption mass at f from the source launch pi is
((I - P_Lambda)^{-T} pi)(inward f) (1 - eps_f)/(2d). In exact arithmetic
that is the dense route absorbed_fraction * T_Lambda P_0, which the tests
keep as its oracle. The Lambda = 0 solve is hitting_distribution.

Q is the block of the lattice Green function G over the distinct inward
sites S of the working faces, Q = G[S, S]/(2d), expanded to one row and
column per face (faces that share an inward site share its column). G[S, S]
is the inverse of the Schur complement of the bulk Laplacian onto S: one
sparse LU whose ordering puts S last leaves that complement in its trailing
blocks, G[S, S] = U22^{-1} L22^{-1}, so Q is exact to solver precision and,
once symmetrized, exactly symmetric. On lattice-aligned boundaries that is
the whole story. On rasterized smooth curves the faces carry alignment
weights w <= 1 and every surface-aware object (inner products, the operator
that T_Lambda inverts, flux totals) uses the face measure m = a^{d-1} w;
with w == 1 everything reduces to the unweighted formulas. The weighting is
what makes spectra and impedances of staircase-rasterized circles converge
to the smooth-domain values instead of saturating at the lattice perimeter
inflation.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import InvalidParam, SingularSystem, SolveFailure, _nonnegative, _positive
from .geometry import LatticeDomain
from .spectral import impedance_from_spectrum

__all__ = [
    "SelfTransportMatrix",
    "DtnSpectrum",
    "FluxVector",
    "build_Q",
    "build_M",
    "spreading_operator",
    "hitting_distribution",
    "absorption_law",
    "absorption_distribution",
    "spectrum",
    "impedance_curve",
]
_hitting_masses = weakref.WeakKeyDictionary()  # domain -> its Lambda = 0 launch masses, from build_Q or hitting_distribution

@dataclass
class SelfTransportMatrix:
    """Return-probability matrix over working faces, plus their geometry."""

    Q: np.ndarray            # (nw, nw), symmetric, entries >= 0
    mesh: float
    weight: np.ndarray       # (nw,) face alignment weights
    measure: np.ndarray      # (nw,) face measures a^{d-1} w
    face_index: np.ndarray   # (nw,) indices into the domain face arrays
    has_source: bool

    @property
    def n(self) -> int:
        return self.Q.shape[0]


@dataclass
class DtnSpectrum:
    """Eigenpairs of the discrete Dirichlet-to-Neumann operator.

    V columns are orthonormal in the measure-weighted inner product
    <u, v> = sum_j u_j v_j m_j; F are the squared components of the
    normalized hitting density phi_0^h in that basis.
    """

    mu: np.ndarray           # ascending eigenvalues
    V: np.ndarray            # (nw, nw) eigenvectors, measure-orthonormal
    F: np.ndarray            # spectral weights of phi_0^h
    measure: np.ndarray      # face measures, needed to take inner products


@dataclass
class FluxVector:
    """Per-face flux density with its surface measures.

    probabilities = density * measure are the per-face absorption masses;
    total is the surface-integrated flux. hitting_distribution and
    absorption_law also record absorbed_fraction, the unconditional
    probability that a source launch ends on the working interface at all
    (the mass hitting_distribution removes by renormalizing).
    """

    density: np.ndarray
    measure: np.ndarray
    absorbed_fraction: float | None = None

    @property
    def probabilities(self) -> np.ndarray:
        return self.density * self.measure

    @property
    def total(self) -> float:
        return float(self.probabilities.sum())


def _reflection_probabilities(dom: LatticeDomain, Lambda: float) -> np.ndarray:
    """Per-face reflection probability eps_f = Lambda/(Lambda + a w_f) of the lattice walk; zero at Lambda = 0."""
    if Lambda > 0:
        return Lambda / (Lambda + dom.mesh * dom.face_weight)
    return np.zeros(dom.n_faces)


def _bulk_system(dom: LatticeDomain, eps: np.ndarray | None = None):
    """Sparse (I - P) for the lattice walk, with reflecting-stay diagonal.

    A walker at a bulk site steps to each of its 2d neighbours with
    probability 1/(2d); a step into a missing (reflecting) direction leaves
    it in place, which shows up as mass on the diagonal. Faces absorb, a
    working face f only with probability 1 - eps[f] when per-face
    reflection probabilities eps are given. The domain's bulk is connected
    and holds a face, which its constructor checks, so I - P is nonsingular.
    """
    graph = dom._index().neighbors
    nb = dom.n_bulk
    two_d = 2 * dom.dimension
    inward = dom.inward_indices()
    # a wall is an off-set neighbour that holds no face
    stay = (graph < 0).sum(axis=1) - np.bincount(inward, minlength=nb)
    if eps is not None:
        working = dom.working_mask()
        stay = stay + np.bincount(inward[working], weights=eps[working], minlength=nb)
    # one COO of the off-diagonal -1/(2d) and the diagonal 1 - stay/(2d), summed into canonical CSC
    r, k = np.nonzero(graph >= 0)
    diag = np.arange(nb)
    return sparse.coo_matrix(
        (np.append(np.full(len(r), -1.0 / two_d), 1.0 - stay / two_d),
         (np.append(r, diag), np.append(graph[r, k], diag))),
        shape=(nb, nb),
    ).tocsc()


def _splu(system, permc_spec: str):
    """SuperLU of the symmetric, diagonally dominant bulk system, pivoting on the diagonal."""
    try:
        return spla.splu(
            system, permc_spec=permc_spec, diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise SingularSystem(f"bulk system factorization failed: {exc}") from exc


def _factor(dom: LatticeDomain, eps: np.ndarray | None = None):
    """Sparse LU of the bulk system under minimum degree."""
    return _splu(_bulk_system(dom, eps), "MMD_AT_PLUS_A")


def build_Q(dom: LatticeDomain) -> SelfTransportMatrix:
    """Brownian self-transport matrix over the working faces.

    Entry (j, k) is the probability that the walk launched at face j's inward
    site leaves the bulk through working face k; mass leaving through source
    faces is dropped, which is exactly what makes row sums < 1 there. The
    probability of exiting through face k from bulk site x is
    G(x, inward(k)) / (2d) with G the lattice Green function, so Q inherits
    the symmetry of G. G[S, S] over the distinct inward sites S is read off a
    second LU that keeps the minimum-degree order of the first and puts S
    last. The first LU also solves the Lambda = 0 source launch, whose masses
    are kept for hitting_distribution on the same domain.
    """
    working = np.flatnonzero(dom.working_mask())
    if len(working) == 0:
        raise InvalidParam("domain has no working faces")
    system = _bulk_system(dom)
    lu = _splu(system, "MMD_AT_PLUS_A")
    has_source = bool(dom.source_mask().any())
    if has_source:
        _hitting_masses[dom] = _absorbed_masses(dom, np.zeros(dom.n_faces), lu=lu)
    sites, face_site = np.unique(dom.inward_indices()[working], return_inverse=True)
    # the minimum-degree order (perm_c[i] is the position of site i) with S
    # moved last; the first factor is freed before the second is made
    order = np.argsort(lu.perm_c)
    del lu
    order = np.concatenate([order[~np.isin(order, sites)], sites])
    lu = _splu(system[order][:, order].tocsc(), "NATURAL")
    natural = np.arange(dom.n_bulk)
    if not (np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)):
        raise SolveFailure("the S-last factorization permuted its rows or columns")
    # (A^-1)[S, S] = U22^-1 L22^-1, the inverse of the Schur complement onto S
    k = dom.n_bulk - len(sites)
    L22, U22 = lu.L[k:, k:].toarray(), lu.U[k:, k:].toarray()
    G = sla.solve_triangular(U22, sla.solve_triangular(L22, np.eye(len(sites)), lower=True, unit_diagonal=True))
    Q = G[np.ix_(face_site, face_site)] / (2 * dom.dimension)
    Q = 0.5 * (Q + Q.T)  # kill solver-level asymmetry (measured ~1e-15)
    weight = dom.face_weight[working]
    measure = dom.measures()[working]
    return SelfTransportMatrix(
        Q=Q,
        mesh=dom.mesh,
        weight=weight,
        measure=measure,
        face_index=working,
        has_source=has_source,
    )


def build_M(Qm: SelfTransportMatrix) -> np.ndarray:
    """Discrete Dirichlet-to-Neumann matrix (I - Q)/a; symmetric PSD."""
    n = Qm.n
    return (np.eye(n) - Qm.Q) / Qm.mesh


def _face_weights(weight: np.ndarray | None, n: int) -> np.ndarray:
    """Alignment weights as an (n,) array; omitted weights are all 1."""
    w = np.ones(n) if weight is None else np.asarray(_positive(weight, "weight"))
    if w.shape != (n,):
        raise InvalidParam("weight length must match the operator size")
    return w


def spreading_operator(M: np.ndarray, Lambda: float, weight: np.ndarray | None = None) -> np.ndarray:
    """Resolvent T_Lambda = (I + Lambda M_w)^{-1} acting on face densities.

    weight carries the alignment factors on rasterized curves (M_w =
    diag(1/w) M); omit it on lattice-aligned domains. Lambda = 0 returns the
    identity exactly.
    """
    lam = _nonnegative(Lambda, "Lambda")
    n = M.shape[0]
    if lam == 0.0:
        return np.eye(n)
    A = np.eye(n) + lam * (M / _face_weights(weight, n)[:, None])
    try:
        T = sla.solve(A, np.eye(n))
    except sla.LinAlgError as exc:
        raise SolveFailure(f"resolvent solve failed at Lambda={lam:g}: {exc}") from exc
    cond_floor = np.linalg.norm(A, 1) * np.linalg.norm(T, 1)
    if not np.isfinite(cond_floor) or cond_floor > 1e14:
        raise SolveFailure(f"resolvent system ill-conditioned (cond ~ {cond_floor:.1e})")
    return T


def _absorbed_masses(dom: LatticeDomain, eps: np.ndarray, lu=None, start="source") -> np.ndarray:
    """Per-working-face absorption masses of a launch from start under reflection probabilities eps.

    start is resolved by LatticeDomain._launch, as the lattice walkers resolve
    theirs. Solved on lu when given, else on a fresh _factor(dom, eps).
    """
    launch = dom._launch(start)
    lu = lu if lu is not None else _factor(dom, eps)
    working = np.flatnonzero(dom.working_mask())
    # walkers start uniformly on the launch sites
    pi = np.zeros(dom.n_bulk)
    np.add.at(pi, launch, 1.0 / len(launch))
    # G^T pi at a face's inward site is the mean number of visits there;
    # each visit steps into the face with probability 1/(2d) and is
    # absorbed there with probability 1 - eps
    g = lu.solve(pi, trans="T")
    return g[dom.inward_indices()[working]] * (1.0 - eps[working]) / (2 * dom.dimension)


def absorption_law(dom: LatticeDomain, Lambda: float) -> FluxVector:
    """Absorption law P_Lambda on working faces for walkers launched at the source.

    One sparse solve of (I - P_Lambda)^T g = pi for the partially reflected
    lattice walk (module docstring). .probabilities are the unnormalized
    per-face absorption masses and absorbed_fraction their total; the rest,
    1 - absorbed_fraction, is the probability of returning to the source.
    """
    masses = _absorbed_masses(dom, _reflection_probabilities(dom, _nonnegative(Lambda, "Lambda")))
    measure = dom.measures()[dom.working_mask()]
    return FluxVector(density=masses / measure, measure=measure, absorbed_fraction=float(masses.sum()))


def hitting_distribution(dom: LatticeDomain) -> FluxVector:
    """Hitting law P_0 on working faces for walkers launched at the source.

    The absorption law at Lambda = 0, renormalized: the returned FluxVector
    holds the density phi_0^h (unit discrete integral), .probabilities the
    renormalized per-face hitting masses, and absorbed_fraction the mass
    removed by renormalizing. The masses are kept for the domain, which
    cannot change; build_Q fills them from its own factorization by the
    same solve, bit for bit.
    """
    if dom not in _hitting_masses:
        _hitting_masses[dom] = _absorbed_masses(dom, np.zeros(dom.n_faces))
    total = _hitting_masses[dom].sum()
    if total <= 0:
        raise SingularSystem("no mass reaches the working interface")
    p0 = _hitting_masses[dom] / total
    measure = dom.measures()[dom.working_mask()]
    return FluxVector(density=p0 / measure, measure=measure, absorbed_fraction=float(total))


def absorption_distribution(P0: FluxVector, T: np.ndarray) -> FluxVector:
    """Absorption law P_Lambda: the spreading operator applied to P_0.

    T acts on densities; the per-face masses are read off .probabilities.
    The mass deficit 1 - sum(P_Lambda) is the source-return probability.
    """
    if T.shape[0] != len(P0.density):
        raise InvalidParam("operator and distribution sizes disagree")
    return FluxVector(density=T @ P0.density, measure=P0.measure)


def spectrum(M: np.ndarray, phi0h: np.ndarray | None, measure: np.ndarray, weight: np.ndarray | None = None) -> DtnSpectrum:
    """Eigendecomposition of the (weighted) Dirichlet-to-Neumann operator.

    Solves the symmetric form W^{-1/2} M W^{-1/2} and rescales, so V comes
    out measure-orthonormal and the weighted operator's self-adjointness is
    explicit. phi0h may be None when only eigenvalues are wanted (F = 0).
    Raises SolveFailure when the operator has an eigenvalue below
    -1e-12 * max|mu|; the ones above are returned as |mu|.
    """
    n = M.shape[0]
    _nonnegative(np.abs(M), "|M|")
    m = np.asarray(_positive(measure, "measure"))
    if m.shape != (n,):
        raise InvalidParam("measure length must match the operator size")
    rw = np.sqrt(_face_weights(weight, n))
    S = M / np.outer(rw, rw)
    S = 0.5 * (S + S.T)
    try:
        vals, U = sla.eigh(S)
    except sla.LinAlgError as exc:
        raise SolveFailure(f"eigendecomposition failed: {exc}") from exc
    # a DtN operator is positive semidefinite: rounding leaves eigenvalues a
    # few ulps below zero, which taking |mu| absorbs (so every spectrum
    # returned passes impedance_from_spectrum), but a clearly negative one
    # means M is no DtN operator
    scale = np.abs(vals).max(initial=0.0)
    if vals.min(initial=0.0) < -1e-12 * scale:
        raise SolveFailure(
            f"operator is indefinite: smallest eigenvalue {vals.min():.3e} (max |mu| {scale:.3e})"
        )
    vals = np.abs(vals)
    # U is plainly orthonormal; dividing by sqrt(m) makes the columns
    # measure-orthonormal eigenvectors of the weighted operator
    V = U / np.sqrt(m)[:, None]
    if phi0h is None:
        F = np.zeros(n)
    else:
        phi = np.asarray(phi0h, dtype=float)
        _nonnegative(np.abs(phi), "|phi0h|")
        if phi.shape != (n,):
            raise InvalidParam("phi0h length must match the operator size")
        F = (V.T @ (phi * m)) ** 2
    return DtnSpectrum(mu=vals, V=V, F=F, measure=m)


def impedance_curve(spec: DtnSpectrum, Lambda_grid, D: float = 1.0) -> list[dict]:
    """Impedance along a Lambda grid, by two independent routes per point.

    Spectral route: Z and Z_sp from impedance_from_spectrum, with Z_cell(0)
    taken from the Dirichlet flux. Flux route: Z_cell = C0/flux with the
    flux of T_Lambda reconstructed in the eigenbasis, and the difference
    Z_cell(Lambda) - Z_cell(0). The two Z_sp values agree identically in
    exact arithmetic; both are reported so callers can check. Values are per
    unit source concentration.
    """
    D = _positive(D, "D")
    mu = spec.mu
    c = spec.V.T @ spec.measure  # components of the unit boundary data
    g2 = c * c
    flux0 = D * float(np.sum(g2 * mu))
    if flux0 <= 0:
        raise SolveFailure("Dirichlet flux is not positive; no source reaches the interface")
    z_cell0 = 1.0 / flux0
    rows = []
    for lam in np.asarray(Lambda_grid, dtype=float):
        spectral = impedance_from_spectrum(mu, spec.F, lam, D, z_cell0=z_cell0)
        z_cell = 1.0 / (D * float(np.sum(g2 * mu / (1.0 + lam * mu))))
        rows.append(
            {
                "Lambda": float(lam),
                "Z": spectral["Z"],
                "Z_cell": z_cell,
                "Z_cell0": z_cell0,
                "Z_sp": spectral["Z_sp"],
                "Z_sp_diff": z_cell - z_cell0,
            }
        )
    return rows
