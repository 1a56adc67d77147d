"""Half-space laws: closed forms against their defining integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from prbm import halfspace as hs
from prbm.errors import InvalidParam, NumericOverflowWarning, SlowConvergence

EULER_GAMMA = 0.5772156649015329


def test_stopping_time_density_routes_agree():
    """The closed erfcx form tracks the defining quadrature from t = 1e-300 to 1e200."""
    ts = np.geomspace(1e-300, 1e200, 51)
    for lam in (0.5, 2.0):
        closed = hs.stopping_time_density(ts, lam)
        by_quad = np.array(
            [hs.stopping_time_density(float(t), lam, method="integral") for t in ts]
        )
        assert np.max(np.abs(closed - by_quad) / closed) < 1e-10


def test_stopping_time_density_at_subnormal_tau():
    """At t = 1e-300 and Lambda = 1e10, tau = 5e-321 is subnormal.

    1/sqrt(pi tau) would keep only a few digits there, so the closed form
    takes its first term from t and still meets the quadrature.
    """
    closed = hs.stopping_time_density(1e-300, 1e10)
    assert closed == pytest.approx(hs.stopping_time_density(1e-300, 1e10, method="integral"), rel=1e-12)


def test_stopping_time_cdf_integrates_density():
    for lam, horizon in ((0.7, 2.0), (1.5, 30.0)):
        mass, _ = integrate.quad(
            lambda t: hs.stopping_time_density(t, lam), 0, horizon, limit=200
        )
        assert abs(mass - hs.stopping_time_cdf(horizon, lam)) < 1e-10


def test_stopping_time_asymptotics():
    lam = 0.9
    # short times: the reflected walk has barely accrued local time, so the
    # density matches the first-touch rate 1/(lam sqrt(2 pi t))
    t = 1e-10
    assert hs.stopping_time_density(t, lam) == pytest.approx(
        1.0 / (lam * math.sqrt(2.0 * math.pi * t)), rel=1e-4
    )
    # long times: universal t^{-3/2} tail independent of the switch point
    t = 1e9
    tau = t / (2 * lam * lam)
    assert hs.stopping_time_density(t, lam) == pytest.approx(
        1.0 / (4 * lam * lam * math.sqrt(math.pi) * tau**1.5), rel=1e-6
    )


def test_stopping_time_survives_lambda_squared_underflow():
    """Lambda^2 underflows at Lambda = 1e-200; tau = (t/Lambda)/(2 Lambda) does not."""
    assert hs.stopping_time_cdf(1.0, 1e-200) == 1.0
    # the tail Lambda/(sqrt(2 pi) t^{3/2}) is representable here
    assert hs.stopping_time_density(1.0, 1e-200) == pytest.approx(1e-200 / math.sqrt(2.0 * math.pi), rel=1e-12)
    # and underflows here, which is said
    with pytest.warns(NumericOverflowWarning):
        assert hs.stopping_time_density(1e300, 1.0) == 0.0


def test_stopping_time_tail_switch_is_seamless():
    lam = 1.0
    t_switch = 2.0 * lam * lam * 1e4
    below = hs.stopping_time_density(t_switch * (1 - 1e-9), lam)
    above = hs.stopping_time_density(t_switch * (1 + 1e-9), lam)
    assert abs(above - below) / below < 1e-7


def test_stopping_time_validation():
    with pytest.raises(InvalidParam):
        hs.stopping_time_density(1.0, 0.0)
    with pytest.raises(InvalidParam):
        hs.stopping_time_density(-1.0, 1.0)
    with pytest.raises(InvalidParam):
        hs.stopping_time_density(1.0, 1.0, method="guess")
    with pytest.raises(InvalidParam):
        hs.stopping_time_cdf(-0.5, 1.0)
    assert hs.stopping_time_cdf(0.0, 2.0) == 0.0


def test_eta_reference_asymptotics():
    # z -> 0: planar divergence -ln z - gamma + O(z), 3d divergence 1/z
    z = 1e-6
    assert hs.eta(z, 2) == pytest.approx(-math.log(z) - EULER_GAMMA, abs=5e-6)
    assert hs.eta(1e-4, 3) * 1e-4 == pytest.approx(1.0, abs=2e-3)
    # z -> infinity: the kernel degenerates to plain harmonic measure
    assert hs.eta(1e3, 2) == pytest.approx(1.0, abs=1e-4)
    assert hs.eta(1e3, 3) == pytest.approx(1.0, abs=1e-4)


_EXTREMES = {
    "eta_z1e-160": (lambda: hs.eta(1e-160, 2), -math.log(1e-160) - EULER_GAMMA),
    "eta_z1e100": (lambda: hs.eta(1e100, 2), 1.0),
    "eta_z1e150_d3": (lambda: hs.eta(1e150, 3), 1.0),
    "eta_z1e200": (lambda: hs.eta(1e200, 2), 1.0),
    "eta_z1e300_d3": (lambda: hs.eta(1e300, 3), 1.0),
    "eta_past_float_range": (lambda: hs.eta(1e-300, 5), math.inf),
    "absorption_r1e154": (lambda: hs.absorption_probability_disk(1e154, 1.0, 2), 1.0),
    "absorption_r1e300": (lambda: hs.absorption_probability_disk(1e300, 1.0, 3), 1.0),
    "kernel_s1e-170": (lambda: hs.spread_kernel_t(1e-170, 1.0, 2), (-math.log(1e-170) - EULER_GAMMA) / math.pi),
    "harmonic_h1e-200": (lambda: hs.harmonic_density_halfspace([0.0, 1e-200], 0.0), 1.0 / (math.pi * 1e-200)),
}


@pytest.mark.parametrize("case", sorted(_EXTREMES))
def test_extreme_inputs_keep_their_limits(case):
    """No NaN, no bare OverflowError, no IntegrationWarning: the limit, or inf with a warning."""
    law, expected = _EXTREMES[case]
    if expected == math.inf:
        with pytest.warns(NumericOverflowWarning):
            assert law() == math.inf
    else:
        assert law() == pytest.approx(expected, rel=1e-12)


def test_lifted_refuses_a_missed_tolerance():
    with pytest.raises(SlowConvergence):
        hs._lifted(lambda v: v * math.sin(1e7 * v), 1.0)


def test_eta_dips_below_one_then_recovers():
    """eta is not monotone: it crosses 1, bottoms out near z ~ 2, returns to 1.

    This pins the shape so a quadrature regression that flattens the dip
    would fail loudly rather than shifting absorption probabilities quietly.
    """
    for d in (2, 3):
        zs = np.geomspace(1e-2, 80.0, 60)
        vals = np.array([hs.eta(z, d) for z in zs])
        assert np.all(vals > 0)
        k = int(np.argmin(vals))
        assert 0 < k < len(zs) - 1
        assert vals[k] < 1.0 < vals[0]
        assert 1.0 <= zs[k] <= 4.0
        # decreasing before the minimum, increasing after
        assert np.all(np.diff(vals[: k + 1]) < 0)
        assert np.all(np.diff(vals[k:]) > 0)


def test_eta_validation():
    with pytest.raises(InvalidParam):
        hs.eta(0.0, 2)
    with pytest.raises(InvalidParam):
        hs.eta(1.0, 1)


def test_spread_kernel_factorizes_through_eta():
    """t_Lambda(s) equals eta(|s|/Lambda) times the height-Lambda Poisson kernel.

    The two sides run through different quadratures (or none at all on the
    harmonic side), so agreement here checks the kernel's shape, not just
    its normalization.
    """
    for d in (2, 3):
        for lam in (0.3, 1.0, 4.0):
            for s_mag in (0.05, 0.5, 2.0, 10.0):
                s = [s_mag] if d == 2 else [s_mag, 0.0]
                x = [0.0] * (d - 1) + [lam]
                expected = hs.eta(s_mag / lam, d) * hs.harmonic_density_halfspace(x, s, d)
                assert hs.spread_kernel_t(s, lam, d) == pytest.approx(expected, rel=1e-12)


def test_spread_kernel_center_diverges():
    assert hs.spread_kernel_t(0.0, 1.0, 2) == math.inf
    assert hs.spread_kernel_t([0.0, 0.0], 1.0, 3) == math.inf


@pytest.mark.parametrize(
    "s, lam, d",
    [
        pytest.param(1.0, 1.0, 400, id="400"),
        pytest.param(1.0, 1.0, 1300, id="1300"),
        pytest.param(1.0, 1e3, 200, id="s1_lam1e3_d200"),
        pytest.param(1.0, 10.0, 400, id="s1_lam10_d400"),
    ],
)
def test_spread_kernel_in_high_dimension(s, lam, d):
    """Gamma(d/2)/pi^{d/2} and rho^{-d} each leave the float range here.

    The log-space reference is log Gamma(d/2) - (d/2) log pi - d log s +
    log E Lambda v (1 + (Lambda v/s)^2)^{-d/2} over v ~ Exp(1). In u =
    Lambda v/s that mean is (s^2/Lambda) int e^{-s u/Lambda} u (1 + u^2)^{-d/2} du,
    which comes from u in [0, 1], past which its integrand is below 2^{-d/2}. At d = 400 the kernel is finite; at d = 1300 the
    reference is past the float range, and the kernel is inf with a
    warning. With s << Lambda the density from height Lambda underflows
    and the climb's size (Lambda/s)^{d-2} overflows, while the kernel is
    finite (about e^232 and e^621 in the last two cases).
    """
    mean, _ = integrate.quad(
        lambda u: u * math.exp(-s * u / lam - d / 2 * math.log1p(u * u)), 0.0, 1.0,
        points=[d**-0.5], epsabs=0.0, epsrel=1e-13,
    )
    log_ref = special.gammaln(d / 2) - d / 2 * math.log(math.pi) - d * math.log(s) + math.log(s * s / lam * mean)
    if log_ref < math.log(np.finfo(float).max):
        assert hs.spread_kernel_t(s, lam, d) == pytest.approx(math.exp(log_ref), rel=1e-10)
    else:
        with pytest.warns(NumericOverflowWarning):
            assert hs.spread_kernel_t(s, lam, d) == math.inf


def test_spread_kernel_even_in_s():
    assert hs.spread_kernel_t(-1.3, 0.7, 2) == hs.spread_kernel_t(1.3, 0.7, 2)


@given(
    c=st.floats(0.1, 10.0),
    lam=st.floats(0.05, 5.0),
    s=st.floats(0.01, 10.0),
    d=st.sampled_from([2, 3]),
)
@settings(max_examples=30, deadline=None)
def test_spread_kernel_scale_covariance(c, lam, s, d):
    """Rescaling lengths by c scales the density by c^{1-d}; no other knob exists."""
    v = hs.spread_kernel_t(s, lam, d)
    assert hs.spread_kernel_t(c * s, c * lam, d) * c ** (d - 1) == pytest.approx(
        v, rel=1e-8
    )


def test_absorption_probability_against_kernel_mass():
    """Radial CDF by incomplete beta versus direct integration of the kernel."""
    lam, r = 1.3, 0.9
    flat, _ = integrate.quad(
        lambda s: hs.spread_kernel_t(s, lam, 2), -r, r, points=[0.0], limit=200
    )
    assert hs.absorption_probability_disk(r, lam, 2) == pytest.approx(flat, abs=1e-10)
    radial, _ = integrate.quad(
        lambda s: 2 * math.pi * s * hs.spread_kernel_t(s, lam, 3),
        1e-12, r, points=[1e-6, 1e-3], limit=400,
    )
    assert hs.absorption_probability_disk(r, lam, 3) == pytest.approx(radial, abs=1e-9)


def test_absorption_probability_shape():
    assert hs.absorption_probability_disk(0.0, 1.0, 2) == 0.0
    rs = np.linspace(0.1, 40.0, 25)
    ps = [hs.absorption_probability_disk(r, 1.0, 2) for r in rs]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    assert ps[-1] > 0.9
    # depends on r/Lambda only
    assert hs.absorption_probability_disk(3.0, 2.0, 3) == pytest.approx(
        hs.absorption_probability_disk(1.5, 1.0, 3), rel=1e-10
    )
    with pytest.raises(InvalidParam):
        hs.absorption_probability_disk(-1.0, 1.0, 2)


def test_harmonic_density_normalization_and_errors():
    x = [0.4, 0.8]
    mass, _ = integrate.quad(
        lambda s: hs.harmonic_density_halfspace(x, s), -np.inf, np.inf
    )
    assert mass == pytest.approx(1.0, abs=1e-9)
    # the planar half-space law is the Cauchy density centered on x[0]
    assert hs.harmonic_density_halfspace(x, 0.4) == pytest.approx(
        1.0 / (math.pi * 0.8), rel=1e-12
    )
    with pytest.raises(InvalidParam):
        hs.harmonic_density_halfspace([0.0, -1.0], 0.0)
    with pytest.raises(InvalidParam):
        hs.harmonic_density_halfspace([0.0, 0.0, 1.0], 0.0)  # s must be a 2-vector
    with pytest.raises(InvalidParam):
        hs.harmonic_density_halfspace([1.0], 0.0)


def test_spread_density_reduces_to_harmonic_at_zero():
    x = [0.3, 0.7]
    for s in (-1.0, 0.3, 2.5):
        assert hs.spread_density_halfspace(x, s, 0.0) == hs.harmonic_density_halfspace(x, s)


def test_spread_density_symmetry_and_continuity():
    x = [0.5, 1.1]
    lam = 0.8
    left = hs.spread_density_halfspace(x, 0.5 - 0.9, lam)
    right = hs.spread_density_halfspace(x, 0.5 + 0.9, lam)
    assert left == pytest.approx(right, rel=1e-10)
    # the centre meets its neighbourhood continuously
    center = hs.spread_density_halfspace(x, 0.5, lam)
    near = hs.spread_density_halfspace(x, 0.5 + 1e-7, lam)
    assert center == pytest.approx(near, rel=1e-5)


def test_spread_density_mass_and_spreading():
    x = [0.0, 0.6]
    lam = 0.9
    mass, _ = integrate.quad(
        lambda s: hs.spread_density_halfspace(x, s, lam), -np.inf, np.inf
    )
    assert mass == pytest.approx(1.0, abs=1e-7)
    # partial reflection spreads mass away from the nearest point
    assert hs.spread_density_halfspace(x, 0.0, lam) < hs.harmonic_density_halfspace(x, 0.0)


@pytest.mark.parametrize("ratio", [1e-9, 1e-6, 1e-3, 0.1, 1.0, 7.0, 50.0])
def test_spread_density_centre_is_exponential_integral(ratio):
    """Straight below the start the planar law is (1/(pi Lambda)) e^{h/Lambda} E1(h/Lambda)."""
    lam = 0.8
    expected = math.exp(ratio) * special.exp1(ratio) / (math.pi * lam)
    assert hs.spread_density_halfspace([0.3, ratio * lam], 0.3, lam) == pytest.approx(expected, rel=1e-12)


def test_spread_density_tail_follows_its_asymptote():
    """Far out the planar law is (h + Lambda)/(pi u^2), less a deviation falling as u^-2."""
    h, lam = 0.1, 0.3
    dev = [hs.spread_density_halfspace([0.0, h], u, lam) * math.pi * u * u / (h + lam) - 1.0 for u in (1e2, 1e3, 1e4)]
    assert all(d < 0 for d in dev)
    assert dev[0] / dev[1] > 50 and dev[1] / dev[2] > 50


def test_spread_density_in_three_dimensions():
    """The 3-D law has mass 1, and from a start on the wall it is spread_kernel_t."""
    lam, h = 0.7, 0.4
    mass, _ = integrate.quad(
        lambda u: 2 * math.pi * u * hs.spread_density_halfspace([0.0, 0.0, h], [u, 0.0], lam), 0, np.inf, limit=200
    )
    assert mass == pytest.approx(1.0, abs=1e-8)
    for u in (0.05, 0.5, 3.0):
        assert hs.spread_density_halfspace([0.0, 0.0, 1e-10], [u, 0.0], lam) == pytest.approx(
            hs.spread_kernel_t([u, 0.0], lam, 3), rel=1e-8
        )


def test_spread_density_guards():
    # a start 1e-9 Lambda above the wall is admissible
    assert hs.spread_density_halfspace([0.0, 1e-9], 0.0, 1.0) == pytest.approx(
        math.exp(1e-9) * special.exp1(1e-9) / math.pi, rel=1e-12
    )
    with pytest.raises(InvalidParam):
        hs.spread_density_halfspace([0.0, 0.0, 1.0], 0.0, 1.0)
    with pytest.raises(InvalidParam):
        hs.spread_density_halfspace([0.0, -0.1], 0.0, 1.0)
    with pytest.raises(InvalidParam):
        hs.spread_density_halfspace([0.0, 1.0], 0.0, -1.0)
    # an infinite Lambda is a bad parameter, not a height too close to the wall
    with pytest.raises(InvalidParam, match="Lambda"):
        hs.spread_density_halfspace([0.0, 1.0], 0.3, math.inf)
