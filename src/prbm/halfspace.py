"""Half-space laws for partially reflected Brownian motion.

Everything here is exact: closed forms where they exist, adaptive quadrature
of the defining integrals otherwise. Lengths are in units of the interface
scale; the walk has unit variance per unit time, so the single physical
parameter is the absorption length Lambda (the mean of the exponential
local-time threshold). The wall's local time is the height the reflected
path has climbed (Levy), so each law at Lambda is the Lambda = 0 law seen
from a point lifted by Lambda v, averaged over v ~ Exp(1) by _lifted, the
package's one quadrature. The key objects:

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

from .errors import InvalidParam, NumericOverflowWarning, SlowConvergence, _count, _nonnegative, _point, _positive

__all__ = [
    "stopping_time_density",
    "stopping_time_cdf",
    "spread_kernel_t",
    "eta",
    "absorption_probability_disk",
    "harmonic_density_halfspace",
    "spread_density_halfspace",
]


# _lifted's relative tolerance and subinterval limit
_REL_TOL = 1e-12
_MAX_SUBDIVISIONS = 200

# Beyond this scaled time the closed form cancels catastrophically; the
# asymptotic series below agrees with it to ~1e-12 relative at the switch.
_TAIL_SWITCH = 1e4


def _lifted(vg, scale: float) -> float:
    """E g(v) over v ~ Exp(1), from vg(v) = v g(v): in x = ln v, e^{-v} v g(v) has the size of the answer.

    x runs from ln(min(scale, 1)) - 40 to ln 50, with a breakpoint at ln(scale),
    where g turns over. A missed tolerance raises SlowConvergence.
    """
    x0, hi = math.log(scale), math.log(50.0)  # e^{-50} of the mass lies beyond v = 50

    def f(x: float) -> float:
        v = math.exp(x)
        return math.exp(-v) * vg(v)

    val, _, _, *msg = integrate.quad(f, min(x0, 0.0) - 40.0, hi, points=[x0] if x0 < hi else None,
                                     epsabs=0.0, epsrel=_REL_TOL, limit=_MAX_SUBDIVISIONS, full_output=1)
    if msg:
        raise SlowConvergence(f"lifted-height quadrature missed {_REL_TOL:.0e}: {msg[0]}")
    return val


def _in_range(value: float, what: str) -> float:
    if value == math.inf:
        warnings.warn(f"{what} exceeds the float range; returning inf", NumericOverflowWarning)
    return value


def _omega(h: float, r: float, d: int, log_factor: float = 0.0) -> float:
    """Harmonic density Gamma(d/2)/pi^{d/2} h/rho^d, rho = hypot(r, h), at lateral distance r from height h.

    The density is multiplied by e^{log_factor} (a _climb) before the one exp.
    """
    rho = math.hypot(r, h)
    # in logs: Gamma(d/2), pi^{d/2}, rho^{d-1} and a climb's size each leave
    # the float range long before their product
    log_c = special.gammaln(d / 2.0) - d / 2.0 * math.log(math.pi) - (d - 1) * math.log(rho) + log_factor
    with np.errstate(over="ignore"):
        return float(h / rho * np.exp(log_c))


def _climb(eta: float, z: float, d: int) -> float:
    """Log of E omega(eta + v, z) / omega(eta + 1, z) over v ~ Exp(1), lengths in units of Lambda.

    That ratio is (eta+v)/(eta+1) (rho_1/rho_v)^d, rho_y = hypot(z, eta+y). Its
    size (rho_1/rho_0)^{d-2} is added as a log, and only the mean of what is
    left is a quadrature.
    """
    rho0, rho1 = math.hypot(z, eta), math.hypot(z, eta + 1.0)
    if rho0 == 0.0:
        raise InvalidParam("the distance to the wall point underflows to 0 in units of Lambda")
    if rho1 == math.inf:  # the lift is lost below the rounding of z or eta
        return 0.0

    def vg(v: float) -> float:
        rho = math.hypot(z, eta + v)
        a = rho1 / rho
        return v * a * ((eta + v) * a / (eta + 1.0)) * (rho0 / rho) ** (d - 2)

    return (d - 2) * (math.log(rho1) - math.log(rho0)) + math.log(_lifted(vg, rho0))


def stopping_time_density(t, Lambda: float, method: str = "closed"):
    """Density of the absorption time for the half-space walk started on the wall.

    The scaled variable is tau = t / (2 Lambda^2); the density is
    1/(Lambda sqrt(2 pi t)) - erfcx(sqrt(tau))/(2 Lambda^2), switching to the
    asymptotic tail series for tau > 1e4 where the two terms cancel; past the
    float range it is 0 or inf, with a NumericOverflowWarning. The "integral"
    method averages Levy's first-passage density of level Lambda v over
    v ~ Exp(1), and is kept as an independent oracle for the closed form.
    """
    lam = _positive(Lambda, "Lambda")
    t_arr = np.asarray(_positive(t, "t"))
    if method == "integral":
        def density(ti: float) -> float:
            # Lambda v = sqrt(t) at v = scale; the integral is 1 - O(scale), so 1e-200 stands in for less
            scale = max(math.sqrt(ti) / lam, 1e-200)

            def vg(v: float) -> float:  # v times the Levy density, times sqrt(2 pi t) (Lambda + t/Lambda)
                w = v / scale
                e = math.exp(-0.5 * w * w)
                return w * (w * e) + v * (v * e)

            return _lifted(vg, scale) / math.sqrt(2.0 * math.pi * ti) / (lam + ti / lam)

        out = np.array([density(float(ti)) for ti in np.atleast_1d(t_arr)])
        return out if np.ndim(t) else float(out[0])
    if method != "closed":
        raise InvalidParam(f"unknown method {method!r}")

    with np.errstate(over="ignore"):
        tau = t_arr / lam / (2.0 * lam)  # not lam * lam, which underflows
        tail = tau > _TAIL_SWITCH
        out = np.empty_like(tau)
        tc, x, tt = tau[~tail], 1.0 / tau[tail], t_arr[tail]
        # 1/sqrt(pi tau) from t, not from tau, which is subnormal for t << Lambda^2
        out[~tail] = 1.0 / lam / np.sqrt(2.0 * np.pi * t_arr[~tail]) - special.erfcx(np.sqrt(tc)) / lam / (2.0 * lam)
        # 1/(4 Lambda^2 sqrt(pi) tau^{3/2}) = Lambda/(sqrt(2 pi) t^{3/2}), times a series in 1/tau
        out[tail] = (1.0 - x * (1.5 - x * (3.75 - 13.125 * x))) * (lam / math.sqrt(2.0 * math.pi)) / tt / np.sqrt(tt)
    if np.any((out == 0) | np.isinf(out)):
        warnings.warn("stopping-time density leaves the float range; returning 0 or inf", NumericOverflowWarning)
    return out if np.ndim(t) else float(out)


def stopping_time_cdf(t, Lambda: float):
    """P{T <= t} = 1 - erfcx(sqrt(t / (2 Lambda^2))), exact."""
    lam = _positive(Lambda, "Lambda")
    with np.errstate(over="ignore"):  # t/Lambda^2 past the float range gives erfcx(inf) = 0
        out = 1.0 - special.erfcx(np.sqrt(np.asarray(_nonnegative(t, "t")) / lam / (2.0 * lam)))
    return out if np.ndim(t) else float(out)


def eta(z: float, d: int = 2) -> float:
    """Correction factor eta_d(z) = (1+z^2)^{d/2} * int_0^inf u e^{-u} (u^2+z^2)^{-d/2} du."""
    z = _positive(z, "z")
    d = _count(d, "d", 2)
    with np.errstate(over="ignore"):
        return _in_range(float(np.exp(_climb(0.0, z, d))), "eta")


def spread_kernel_t(s, Lambda: float, d: int = 2) -> float:
    """Lateral absorption density t_Lambda(s) for the walk started at the wall origin.

    s is a lateral (d-1)-vector or a scalar lateral distance. The kernel is the
    harmonic density at |s| from height Lambda v, averaged over v ~ Exp(1):
    eta(|s|/Lambda) times the density from height Lambda. At s = 0 it diverges
    for every d >= 2 (logarithmically for d = 2) and +inf is returned.
    """
    lam = _positive(Lambda, "Lambda")
    d = _count(d, "d", 2)
    r = math.hypot(*_point(s, "s"))
    if r == 0.0:
        return math.inf
    return _in_range(_omega(lam, r, d, _climb(0.0, r / lam, d)), "spread_kernel_t")


def absorption_probability_disk(r: float, Lambda: float, d: int = 2) -> float:
    """Probability that the walk from the wall origin is absorbed within |s| <= r.

    P(r) = E H_d(r / (Lambda v)) over v ~ Exp(1), with H_d(rho) = I(rho^2/(1+rho^2);
    (d-1)/2, 1/2) the mass harmonic measure from height 1 puts within rho.
    """
    lam = _positive(Lambda, "Lambda")
    r = _nonnegative(r, "r")
    d = _count(d, "d", 2)
    ratio = r / lam
    if ratio == 0.0:
        return 0.0
    a = (d - 1) / 2.0  # rho^2/(1+rho^2) at rho = ratio/v is (ratio/hypot(ratio, v))^2
    return min(_lifted(lambda v: v * special.betainc(a, 0.5, (ratio / math.hypot(ratio, v)) ** 2), ratio), 1.0)


def _interior(x, s, d: int | None):
    """(d, height, lateral distance) of interior point x from boundary point s, both checked."""
    x = _point(x, "x")
    d = _count(len(x) if d is None else d, "d", 2)
    if len(x) != d:
        raise InvalidParam("x must be a d-vector")
    if not x[-1] > 0:
        raise InvalidParam("x must lie strictly inside the half-space (x_d > 0)")
    s = _point(s, "s", d - 1)
    return d, float(x[-1]), math.hypot(*(x[:-1] - s))


def harmonic_density_halfspace(x, s, d: int | None = None) -> float:
    """Harmonic measure density Gamma(d/2)/pi^{d/2} x_d/(|x_par - s|^2 + x_d^2)^{d/2} of the half-space.

    x is a d-vector with x[-1] > 0; s gives the d-1 lateral coordinates of the
    boundary point (a scalar for d = 2).
    """
    d, h, r = _interior(x, s, d)
    return _in_range(_omega(h, r, d), "harmonic density")


def spread_density_halfspace(x, s, Lambda: float) -> float:
    """Spread density: absorption-point law for the walk from interior point x.

    x and s are as for harmonic_density_halfspace. The law is the harmonic
    density from x lifted by Lambda v, averaged over v ~ Exp(1); in the plane
    that is (1/pi) int_0^inf cos(k (s - x_1)) e^{-k x_2} / (1 + Lambda k) dk.
    """
    d, h, r = _interior(x, s, None)
    lam = _nonnegative(Lambda, "Lambda")
    climb = _climb(h / lam, r / lam, d) if lam > 0 else 0.0
    return _in_range(_omega(h + lam, r, d, climb), "spread density")
