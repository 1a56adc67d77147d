"""Half-space laws for partially reflected Brownian motion.

Everything here is exact: closed forms where they exist, adaptive quadrature
of the defining integrals otherwise. Lengths are in units of the interface
scale; the walk has unit variance per unit time, so the single physical
parameter is the absorption length Lambda (the mean of the exponential
local-time threshold). The key objects:

* stopping_time_density / stopping_time_cdf: law of the absorption time for
  the motion started on the interface of a half-space.
* spread_kernel_t: lateral density of the final absorption point for a walk
  started at the origin of the interface (translation invariant).
* eta: the correction factor by which that kernel differs from the harmonic
  measure density seen from height Lambda.
* absorption_probability_disk: probability that the walk started at the
  origin is finally absorbed within lateral distance r.
* harmonic_density_halfspace / spread_density_halfspace: interior-to-boundary
  absorption densities at Lambda = 0 and Lambda > 0.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, special

from .errors import InvalidParam, NumericOverflowWarning, SlowConvergence, _count, _nonnegative, _positive

__all__ = [
    "stopping_time_density",
    "stopping_time_cdf",
    "spread_kernel_t",
    "eta",
    "absorption_probability_disk",
    "harmonic_density_halfspace",
    "spread_density_halfspace",
]


# Quadrature settings: relative tolerance, subinterval limit, and the upper
# limit of the e^{-u}-damped u-integrals (e^{-50} is far below _REL_TOL)
_REL_TOL = 1e-9
_MAX_SUBDIVISIONS = 200
_CUTOFF = 50.0

# Beyond this scaled time the closed form cancels catastrophically; the
# asymptotic series below agrees with it to ~1e-12 relative at the switch.
_TAIL_SWITCH = 1e4

# Below this height/Lambda the spread density's Fourier integral, cut off
# at frequency 1/height, is too ill-conditioned to evaluate
_MIN_HEIGHT_RATIO = 1e-6


def stopping_time_density(t, Lambda: float, method: str = "closed"):
    """Density of the absorption time for the half-space walk started on the wall.

    The scaled variable is tau = t / (2 Lambda^2); the density is
    (1/(2 Lambda^2)) [ (pi tau)^{-1/2} - erfcx(sqrt(tau)) ], switching to the
    asymptotic tail series for tau > 1e4 where the bracket cancels. The
    "integral" method evaluates the defining z-integral by quadrature and is
    kept as an independent oracle for the closed form.
    """
    lam = _positive(Lambda, "Lambda")
    t_arr = np.asarray(_positive(t, "t"))
    if method == "integral":
        out = np.empty(t_arr.size)
        for i, ti in enumerate(np.atleast_1d(t_arr)):
            f = lambda z: z * math.exp(-z * z / (2 * ti) - z / lam)
            val, _ = integrate.quad(f, 0, np.inf, epsabs=0, epsrel=_REL_TOL, limit=_MAX_SUBDIVISIONS)
            out[i] = val / (lam * math.sqrt(2 * math.pi) * ti**1.5)
        return out if np.ndim(t) else float(out[0])
    if method != "closed":
        raise InvalidParam(f"unknown method {method!r}")

    tau = t_arr / (2 * lam * lam)
    out = np.zeros_like(tau)

    overflow = tau > 1e280
    if np.any(overflow):
        warnings.warn(
            "stopping-time density underflows for t/Lambda^2 this large; returning 0",
            NumericOverflowWarning,
        )
    tail = (tau > _TAIL_SWITCH) & ~overflow
    core = ~tail & ~overflow
    if np.any(core):
        tc = tau[core]
        out[core] = (1.0 / (2 * lam * lam)) * (1.0 / np.sqrt(np.pi * tc) - special.erfcx(np.sqrt(tc)))
    if np.any(tail):
        tt = tau[tail]
        series = 1.0 - 1.5 / tt + 3.75 / tt**2 - 13.125 / tt**3
        out[tail] = series / (4 * lam * lam * math.sqrt(math.pi) * tt**1.5)
    return out if np.ndim(t) else float(out)


def stopping_time_cdf(t, Lambda: float):
    """P{T <= t} = 1 - erfcx(sqrt(t / (2 Lambda^2))), exact."""
    lam = _positive(Lambda, "Lambda")
    t_arr = _nonnegative(t, "t")
    out = 1.0 - special.erfcx(np.sqrt(t_arr / (2 * lam * lam)))
    return out if np.ndim(t) else float(out)


def _z_integral(z: float, d: int, epsrel: float) -> float:
    """I_d(z) = int_0^inf u e^{-u} (u^2+z^2)^{-d/2} du, for eta and spread_kernel_t.

    For z >= 1 the z^{-d} magnitude is factored out of the integrand first;
    otherwise quad's absolute-error floor swallows the answer entirely for
    large z. For z < 1, u = z w keeps the integrand O(1) however small z
    gets, with the magnitude in the z^{2-d} prefactor; integrating in ln w
    folds the slow 1/w stretch up to w ~ 1/z into an interval of length
    ln(1/z), and the split at u = z resolves the near-origin structure that
    produces the small-z divergence.
    """
    opts = dict(epsabs=0.0, epsrel=epsrel, limit=_MAX_SUBDIVISIONS)
    if z >= 1.0:
        g = lambda u: u * math.exp(-u) * (1.0 + (u / z) ** 2) ** (-d / 2.0)
        val, _ = integrate.quad(g, 0, _CUTOFF, **opts)
        return z ** (-d) * val

    def logw(x: float) -> float:
        # w^2 e^{-z w} (1+w^2)^{-d/2} at w = e^x, the w carrying dw = w dx
        w = math.exp(x)
        return w * w * math.exp(-z * w) * (1.0 + w * w) ** (-d / 2.0)

    val, _ = integrate.quad(logw, -40.0, math.log(_CUTOFF / z), points=[0.0], **opts)
    return z ** (2.0 - d) * val


def eta(z: float, d: int = 2) -> float:
    """Correction factor eta_d(z) = (1+z^2)^{d/2} * int_0^inf u e^{-u} (u^2+z^2)^{-d/2} du."""
    z = _positive(z, "z")
    d = _count(d, "d", 2)
    return (1 + z * z) ** (d / 2.0) * _z_integral(z, d, 1e-12)


def spread_kernel_t(s, Lambda: float, d: int = 2) -> float:
    """Lateral absorption density t_Lambda(s) for the walk started at the wall origin.

    s is a lateral (d-1)-vector or a scalar lateral distance. Evaluates
    Gamma(d/2)/(pi^{d/2} Lambda) * int_0^inf z e^{-z/Lambda} (|s|^2+z^2)^{-d/2} dz
    directly (substituting z = Lambda u). At s = 0 the integral diverges for
    every d >= 2 (logarithmically for d = 2) and +inf is returned.
    """
    lam = _positive(Lambda, "Lambda")
    d = _count(d, "d", 2)
    r = float(np.linalg.norm(np.atleast_1d(_nonnegative(np.abs(s), "|s|"))))
    if r == 0.0:
        return math.inf
    pref = special.gamma(d / 2.0) / (math.pi ** (d / 2.0) * lam ** (d - 1))
    return pref * _z_integral(r / lam, d, _REL_TOL)


def absorption_probability_disk(r: float, Lambda: float, d: int = 2) -> float:
    """Probability that the walk from the wall origin is absorbed within |s| <= r.

    Uses P(r) = int_0^inf e^{-u} H_d(r / (Lambda u)) du where H_d is the
    radial CDF of the half-space harmonic measure, which reduces to the
    regularized incomplete beta function:
    H_d(rho) = I(rho^2/(1+rho^2); (d-1)/2, 1/2). Depends on r/Lambda only.
    """
    lam = _positive(Lambda, "Lambda")
    r = _nonnegative(r, "r")
    d = _count(d, "d", 2)
    if r == 0.0:
        return 0.0
    ratio = float(r) / lam
    a, b = (d - 1) / 2.0, 0.5

    def f(u: float) -> float:
        rho = ratio / u
        return math.exp(-u) * special.betainc(a, b, rho * rho / (1.0 + rho * rho))

    # e^{-u} kills the tail; the left edge is smooth (H -> 1 as u -> 0+)
    pts = sorted({min(ratio, _CUTOFF * 0.5), 1.0})
    val, _ = integrate.quad(
        f, 0, _CUTOFF, points=pts, epsabs=0.0, epsrel=_REL_TOL, limit=_MAX_SUBDIVISIONS
    )
    return min(val, 1.0)


def harmonic_density_halfspace(x, s, d: int | None = None) -> float:
    """Harmonic measure density of the half-space seen from interior point x.

    x is a d-vector with x[-1] > 0; s gives the lateral coordinates of the
    boundary point (a (d-1)-vector or scalar for d = 2). Returns
    Gamma(d/2)/pi^{d/2} * x_d / (|x_par - s|^2 + x_d^2)^{d/2}.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = _count(len(x) if d is None else d, "d", 2)
    if len(x) != d:
        raise InvalidParam("x must be a d-vector")
    _nonnegative(np.abs(x), "|x|")
    if not x[-1] > 0:
        raise InvalidParam("x must lie strictly inside the half-space (x_d > 0)")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    _nonnegative(np.abs(s), "|s|")
    if len(s) != d - 1:
        raise InvalidParam("s must have d-1 lateral coordinates")
    h = x[-1]
    q = float(np.sum((x[:-1] - s) ** 2)) + h * h
    return special.gamma(d / 2.0) / math.pi ** (d / 2.0) * h / q ** (d / 2.0)


def spread_density_halfspace(x, s: float, Lambda: float) -> float:
    """Planar spread density: absorption-point law for the walk from interior x.

    Fourier form (1/pi) int_0^inf cos(k (s - x_1)) e^{-k x_2} / (1 + Lambda k) dk,
    evaluated with the oscillatory-weight quadrature rule. Only the planar
    case is implemented; Lambda = 0 falls back to the harmonic density.

    Raises SlowConvergence when x_2 / Lambda < _MIN_HEIGHT_RATIO, where the
    effective frequency cutoff 1/x_2 makes the integral ill-conditioned.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(x) != 2:
        raise InvalidParam("only the planar half-space (d = 2) is implemented")
    _nonnegative(np.abs(x), "|x|")
    if not x[1] > 0:
        raise InvalidParam("x must lie strictly inside the half-space")
    _nonnegative(np.abs(s), "|s|")
    lam = _nonnegative(Lambda, "Lambda")
    if lam == 0:
        return harmonic_density_halfspace(x, s)
    h = float(x[1])
    if h / lam < _MIN_HEIGHT_RATIO:
        raise SlowConvergence(
            f"height/Lambda = {h / lam:.3e} below floor {_MIN_HEIGHT_RATIO:.1e}; "
            "the Fourier integral is ill-conditioned this close to the wall"
        )
    u = float(s) - float(x[0])
    f = lambda k: math.exp(-k * h) / (math.pi * (1.0 + lam * k))
    if abs(u) * _CUTOFF < 0.5 * h:
        # less than half a radian of phase across the whole e^{-kh} support:
        # not an oscillatory integral, and QAWF silently returns ~0 there
        g = lambda k: f(k) * math.cos(k * u)
        val, _ = integrate.quad(g, 0, np.inf, epsabs=0.0, epsrel=_REL_TOL, limit=_MAX_SUBDIVISIONS)
        return val
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, _ = integrate.quad(f, 0, np.inf, weight="cos", wvar=u, limit=_MAX_SUBDIVISIONS)
        except integrate.IntegrationWarning as exc:
            raise SlowConvergence(f"oscillatory quadrature did not converge: {exc}") from exc
    return val
