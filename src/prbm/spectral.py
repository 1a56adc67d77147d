"""Exact spectral series for the disk, ball, and concentric annulus.

The boundary spectrum of the Dirichlet-to-Neumann map is known in closed
form on these domains, which makes them the reference cases for everything
the discrete lattice machinery produces: spread densities come out as
geometric eigenfunction series, and the impedance is a one-line spectral
sum. Series are truncated by explicit tail bounds, never by fixed counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DiagonalSingularity, InvalidParam, TruncationTooCoarse, _count, _nonnegative, _positive, _signed

__all__ = [
    "AnalyticSpectrum",
    "poisson_kernel_disk",
    "disk_spread_density",
    "disk_spreading_kernel",
    "ball_eigenvalue",
    "ball_degeneracy",
    "ball_spread_density",
    "annulus_spectrum",
    "impedance_from_spectrum",
    "zeta",
]


# Series truncation: the most terms any series may take, and the bound its
# neglected tail must clear
_MAX_TERMS = 200_000
_TAIL_TOL = 1e-12

# disk_spreading_kernel is singular on its diagonal; closer angles than this
# raise DiagonalSingularity
_DIAG_TOL = 1e-9


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Closed-form boundary spectrum: (index, eigenvalue, degeneracy) triples."""

    kind: str
    index: np.ndarray
    mu: np.ndarray
    degeneracy: np.ndarray

    def expanded(self) -> np.ndarray:
        """Eigenvalues repeated according to degeneracy."""
        return np.repeat(self.mu, self.degeneracy)


def poisson_kernel_disk(r: float, theta: float) -> float:
    """Harmonic measure density of the unit circle seen from (r, 0), angle theta."""
    r = _nonnegative(r, "r")
    if not r < 1.0:
        raise InvalidParam("r must lie in [0, 1)")
    _signed(theta, "theta")
    return (1.0 - r * r) / (2.0 * math.pi * (1.0 - 2.0 * r * math.cos(theta) + r * r))


def _disk_n_terms(r: float, lam: float) -> int:
    """Terms needed so the geometric tail r^N/((1-r)(1+lam N)) clears _TAIL_TOL."""
    if r == 0.0:
        return 0
    # solve r^N < tol * (1-r) * pi, then let the (1 + lam N) factor help
    n = max(1, int(math.ceil(math.log(_TAIL_TOL * (1.0 - r) * math.pi) / math.log(r))))
    if n > _MAX_TERMS:
        tail = r**_MAX_TERMS / ((1.0 - r) * (1.0 + lam * _MAX_TERMS) * math.pi)
        if tail > _TAIL_TOL:
            raise TruncationTooCoarse(
                f"series tail {tail:.2e} exceeds {_TAIL_TOL:.1e} after {_MAX_TERMS} terms"
            )
        n = _MAX_TERMS
    return n


def disk_spread_density(r: float, theta: float, Lambda: float) -> float:
    """Absorption-point density on the unit circle for the walk from (r, 0).

    Cosine series (1/2pi) [1 + 2 sum_{a>=1} r^a cos(a theta) / (1 + Lambda a)];
    reduces to the Poisson kernel at Lambda = 0 and flattens to uniform as
    Lambda grows.
    """
    r = _nonnegative(r, "r")
    if not r < 1.0:
        raise InvalidParam("r must lie in [0, 1)")
    _signed(theta, "theta")
    lam = _nonnegative(Lambda, "Lambda")
    n = _disk_n_terms(r, lam)
    if n == 0:
        return 1.0 / (2.0 * math.pi)
    a = np.arange(1, n + 1, dtype=float)
    s = np.sum(r**a * np.cos(a * theta) / (1.0 + lam * a))
    return (1.0 + 2.0 * s) / (2.0 * math.pi)


def disk_spreading_kernel(theta: float, theta_p: float, Lambda: float, method: str = "resummed") -> float:
    """Boundary-to-boundary absorption kernel of the unit circle.

    The defining cosine series (1/2pi) sum e^{i a (theta-theta_p)}/(1+Lambda|a|)
    converges only conditionally, so the default route resums the angular sum
    in closed form first: with q = e^{-Lambda v + i delta},
    sum_{a>=1} q^a = q/(1-q), leaving a smooth one-dimensional Laplace-type
    integral over v that behaves for every Lambda > 0. The "series" method
    keeps the literal truncation (tail estimated by the Dirichlet test) and
    exists as an independent cross-check; it cannot reach small Lambda at
    sane term counts and raises TruncationTooCoarse there instead of lying.
    """
    lam = _positive(Lambda, "Lambda")
    _nonnegative(np.abs([theta, theta_p]), "|theta|, |theta_p|")
    delta = math.remainder(float(theta) - float(theta_p), 2.0 * math.pi)
    if abs(delta) < _DIAG_TOL:
        raise DiagonalSingularity(f"|theta - theta_p| = {abs(delta):.2e} below {_DIAG_TOL:.0e}")
    delta = abs(delta)

    if method == "resummed":
        s2 = 2.0 * math.sin(delta / 2.0) ** 2  # 1 - cos(delta), cancellation-free

        def f(v: float) -> float:
            q = math.exp(-lam * v)
            one_m_q = -math.expm1(-lam * v)
            num = q * (one_m_q - s2)
            den = one_m_q * one_m_q + 2.0 * q * s2
            return math.exp(-v) * num / den

        # integrand varies on the v ~ delta/Lambda scale near the origin
        pts = sorted({min(delta / lam, 40.0), 1.0})
        head, _ = integrate.quad(f, 0, pts[-1] * 2, points=pts, epsabs=0.0, epsrel=1e-11, limit=400)
        tail, _ = integrate.quad(f, pts[-1] * 2, np.inf, epsabs=0.0, epsrel=1e-11, limit=400)
        return (1.0 + 2.0 * (head + tail)) / (2.0 * math.pi)

    if method != "series":
        raise InvalidParam(f"unknown method {method!r}")

    # accelerated literal series: 1/(1+La) = 1/(La) - 1/(La)^2 + 1/((La)^2 (1+La))
    # with the first two sums in closed form (Clausen-type) and the remainder
    # summed termwise. Remainder tail bounded via the Dirichlet test.
    s1 = -math.log(2.0 * math.sin(delta / 2.0))
    s2 = math.pi**2 / 6.0 - math.pi * delta / 2.0 + delta**2 / 4.0
    half_sin = abs(math.sin(delta / 2.0))
    # find the smallest workable N: remainder coefficient c_a = 1/(a^2 (1+lam a))
    target = _TAIL_TOL * lam**2 * math.pi  # absolute tolerance on the remainder sum
    n_needed = None
    for cand in np.geomspace(8, _MAX_TERMS, 40):
        c = int(cand)
        bound = 2.0 / (c * c * (1.0 + lam * c) * half_sin)
        if bound < target:
            n_needed = c
            break
    if n_needed is None:
        raise TruncationTooCoarse(
            f"Dirichlet tail bound cannot reach {_TAIL_TOL:.1e} "
            f"within {_MAX_TERMS} terms at Lambda={lam:g}"
        )
    a = np.arange(1, n_needed + 1, dtype=float)
    rem = np.sum(np.cos(a * delta) / (a * a * (1.0 + lam * a)))
    total = s1 / lam - s2 / lam**2 + rem / lam**2
    return (1.0 + 2.0 * total) / (2.0 * math.pi)


def ball_eigenvalue(l: int, kind: str) -> float:
    """Boundary spectrum of the unit sphere: l inside, l + 1 outside."""
    l = _count(l, "l", 0)
    if kind == "interior":
        return float(l)
    if kind == "exterior":
        return float(l + 1)
    raise InvalidParam("kind must be 'interior' or 'exterior'")


def ball_degeneracy(l: int, d: int = 3) -> int:
    """Number of independent degree-l harmonic polynomials in d variables."""
    l, d = _count(l, "l", 0), _count(d, "d", 3)
    num = (2 * l + d - 2) * math.comb(l + d - 3, l)
    assert num % (d - 2) == 0
    return num // (d - 2)


def ball_spread_density(r: float, theta: float, Lambda: float) -> float:
    """Zonal absorption density on the unit sphere from interior point (r, theta=0 axis).

    sum_l (2l+1)/(4pi) r^l P_l(cos theta) / (1 + Lambda l). The tail uses the
    exact geometric bound sum_{l>N} (2l+1) r^l =
    r^{N+1} [(2N+3) - (2N+1) r] / (1-r)^2 together with |P_l| <= 1.
    """
    r = _nonnegative(r, "r")
    if not r < 1.0:
        raise InvalidParam("r must lie in [0, 1)")
    _signed(theta, "theta")
    lam = _nonnegative(Lambda, "Lambda")
    if r == 0.0:
        return 1.0 / (4.0 * math.pi)

    def tail(nterm: int) -> float:
        g = r ** (nterm + 1) * ((2 * nterm + 3) - (2 * nterm + 1) * r) / (1.0 - r) ** 2
        return g / (4.0 * math.pi * (1.0 + lam * (nterm + 1)))

    n = 1
    while tail(n) > _TAIL_TOL:
        n *= 2
        if n > _MAX_TERMS:
            if tail(_MAX_TERMS) <= _TAIL_TOL:
                n = _MAX_TERMS
                break
            raise TruncationTooCoarse(
                f"zonal tail {tail(_MAX_TERMS):.2e} exceeds {_TAIL_TOL:.1e} after {_MAX_TERMS} terms"
            )
    x = math.cos(theta)
    p_prev, p = 1.0, x  # P_0, P_1
    total = 1.0 / (4.0 * math.pi)  # l = 0 term
    rl = r
    for l in range(1, n + 1):
        total += (2 * l + 1) / (4.0 * math.pi) * rl * p / (1.0 + lam * l)
        rl *= r
        p_prev, p = p, ((2 * l + 1) * x * p - l * p_prev) / (l + 1)
    return total


def annulus_spectrum(R: float, alpha_max: int) -> AnalyticSpectrum:
    """Boundary spectrum of the unit circle with a grounded circle at radius R.

    By separation of variables: the radial solutions A r^a + B r^{-a}
    (A + B ln r for a = 0) vanishing at R give mu_0 = 1/ln R and
    mu_a = a (R^{2a} + 1)/(R^{2a} - 1), each a > 0 carrying the cos/sin pair.
    """
    R = _positive(R, "R")
    if not R > 1.0:
        raise InvalidParam("R must exceed 1")
    alpha_max = _count(alpha_max, "alpha_max", 0)
    idx = np.arange(0, alpha_max + 1)
    mu = np.empty(alpha_max + 1)
    mu[0] = 1.0 / math.log(R)
    a = idx[1:].astype(float)
    # R^{2a} overflows for large a; in that regime the bracket is 1 exactly
    with np.errstate(over="ignore"):
        r2a = R ** (2.0 * a)
    ratio = np.ones_like(a)
    fin = np.isfinite(r2a)
    ratio[fin] = (r2a[fin] + 1.0) / (r2a[fin] - 1.0)
    mu[1:] = a * ratio
    deg = np.full(alpha_max + 1, 2, dtype=np.int64)
    deg[0] = 1
    return AnalyticSpectrum(kind="annulus", index=idx, mu=mu, degeneracy=deg)


def impedance_from_spectrum(mu, weights, Lambda: float, D: float = 1.0, *, z_cell0: float) -> dict:
    """Spectral impedance Z(Lambda) = (Lambda/D) sum F_a / (1 + Lambda mu_a).

    The access-corrected value Z_sp = (1/Z - 1/Z_cell0)^{-1} needs the
    Lambda = 0 cell impedance z_cell0, which this spectrum alone does not
    determine.
    """
    mu = np.asarray(_nonnegative(mu, "eigenvalues"))
    w = np.asarray(_nonnegative(weights, "spectral weights"))
    if mu.shape != w.shape:
        raise InvalidParam("mu and weights must have matching shapes")
    lam = _nonnegative(Lambda, "Lambda")
    D = _positive(D, "D")
    z_cell0 = _positive(z_cell0, "z_cell0")
    z = lam / D * float(np.sum(w / (1.0 + lam * mu)))
    z_sp = 0.0 if z == 0.0 else 1.0 / (1.0 / z - 1.0 / z_cell0)
    return {"Z": z, "Z_cell0": z_cell0, "Z_sp": z_sp}


def zeta(mu, weights, lam: float) -> float:
    """Interface signature zeta(lambda) = sum F_a exp(-lambda mu_a)."""
    lam = _nonnegative(lam, "lambda")
    mu = np.asarray(_nonnegative(mu, "eigenvalues"))
    w = np.asarray(_nonnegative(weights, "spectral weights"))
    if mu.shape != w.shape:
        raise InvalidParam("mu and weights must have matching shapes")
    return float(np.sum(w * np.exp(-lam * mu)))
