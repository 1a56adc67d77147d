"""Closed-form boundary spectra and their series evaluations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import eval_legendre

from prbm import spectral as sp
from prbm.errors import DiagonalSingularity, InvalidParam, TruncationTooCoarse

TWO_PI = 2.0 * math.pi


def test_poisson_kernel_disk():
    assert sp.poisson_kernel_disk(0.0, 1.7) == pytest.approx(1.0 / TWO_PI)
    mass, _ = integrate.quad(lambda th: sp.poisson_kernel_disk(0.85, th), 0, TWO_PI)
    assert mass == pytest.approx(1.0, abs=1e-9)
    # beside the circle 1 - 2 r cos(theta) + r^2 cancels to 0; (1 - r)^2 + 4 r sin^2(theta/2) does not
    r = 1.0 - 2.0**-53
    assert sp.poisson_kernel_disk(r, 0.0) == pytest.approx((1.0 + r) / (TWO_PI * (1.0 - r)), rel=1e-15)
    with pytest.raises(InvalidParam):
        sp.poisson_kernel_disk(1.0, 0.0)
    with pytest.raises(InvalidParam):
        sp.poisson_kernel_disk(-0.1, 0.0)


def test_disk_spread_density_limits():
    # Lambda = 0 is plain harmonic measure
    for r in (0.0, 0.3, 0.8):
        for th in (0.0, 1.0, math.pi):
            assert sp.disk_spread_density(r, th, 0.0) == pytest.approx(
                sp.poisson_kernel_disk(r, th), rel=1e-10
            )
    # huge Lambda flattens the law toward uniform
    assert sp.disk_spread_density(0.7, 2.0, 1e6) == pytest.approx(1.0 / TWO_PI, rel=1e-5)
    with pytest.raises(InvalidParam):
        sp.disk_spread_density(0.5, 0.0, -1.0)


@given(r=st.floats(0.0, 0.9), theta=st.floats(0.0, TWO_PI), lam=st.floats(0.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_disk_spread_density_is_a_density(r, theta, lam):
    assert sp.disk_spread_density(r, theta, lam) > -1e-12


def test_disk_spread_density_normalized():
    for lam in (0.0, 0.4, 7.0):
        mass, _ = integrate.quad(
            lambda th: sp.disk_spread_density(0.62, th, lam), 0, TWO_PI, limit=200
        )
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_disk_spread_density_truncation_guard():
    # at r = 1 - 1e-5 the Lambda = 0 tail needs millions of terms
    with pytest.raises(TruncationTooCoarse):
        sp.disk_spread_density(1.0 - 1e-5, 0.0, 0.0)


def test_disk_spreading_kernel_two_routes():
    """Laplace resummation against the accelerated literal series.

    The implementations share nothing past the defining coefficients, so
    twelve digits of agreement here pins both.
    """
    for lam, delta in ((2.0, 1.0), (5.0, 0.3), (1.0, 2.5)):
        resummed = sp.disk_spreading_kernel(delta, 0.0, lam)
        series = sp.disk_spreading_kernel(delta, 0.0, lam, method="series")
        assert resummed == pytest.approx(series, rel=1e-10)


def test_disk_spreading_kernel_series_survives_huge_lambda():
    """Past Lambda ~ 1.3e154, Lambda^2 overflows; the series must still flatten to 1/(2 pi)."""
    series = sp.disk_spreading_kernel(1.0, 0.0, 1e200, method="series")
    resummed = sp.disk_spreading_kernel(1.0, 0.0, 1e200)
    assert series == pytest.approx(resummed, abs=1e-12)
    assert series == pytest.approx(1.0 / TWO_PI, abs=1e-12)


def test_disk_spreading_kernel_symmetries():
    k = sp.disk_spreading_kernel
    assert k(1.2, 0.3, 0.9) == pytest.approx(k(0.3, 1.2, 0.9), rel=1e-13)
    assert k(1.2, 0.3, 0.9) == pytest.approx(k(1.2 + 0.9, 0.3 + 0.9, 0.9), rel=1e-12)
    # wraps around the circle
    assert k(0.1, 0.0, 0.5) == pytest.approx(k(0.1 + TWO_PI, 0.0, 0.5), rel=1e-12)


def test_disk_spreading_kernel_normalized():
    lam = 0.7
    eps = 1e-7
    mass, _ = integrate.quad(
        lambda d: sp.disk_spreading_kernel(d, 0.0, lam),
        eps, TWO_PI - eps,
        points=[1e-4, 1e-2, TWO_PI - 1e-2], limit=400,
    )
    assert mass == pytest.approx(1.0, abs=1e-5)


def test_disk_spreading_kernel_guards():
    with pytest.raises(DiagonalSingularity):
        sp.disk_spreading_kernel(1.0, 1.0 + 1e-12, 0.5)
    with pytest.raises(InvalidParam):
        sp.disk_spreading_kernel(1.0, 0.0, 0.0)
    with pytest.raises(InvalidParam):
        sp.disk_spreading_kernel(1.0, 0.0, 0.5, method="wishful")
    # the literal series cannot reach small Lambda at sane term counts
    with pytest.raises(TruncationTooCoarse):
        sp.disk_spreading_kernel(1.0, 0.0, 1e-4, method="series")
    # the bound clears at 262,144 terms here, so this pins the cap at
    # exactly _MAX_TERMS
    with pytest.raises(TruncationTooCoarse):
        sp.disk_spreading_kernel(1.0, 0.0, 0.05, method="series")


@pytest.mark.parametrize("th", [0.0, 1.0, 3.0])
def test_spread_densities_match_fixed_length_sums(th):
    """Both densities against 20,000-term sums that share no truncation rule."""
    a = np.arange(1, 20_001)  # integer degrees: eval_legendre's float-degree route gives NaN here
    legendre = eval_legendre(a, math.cos(th))
    for r in (0.3, 0.9, 0.99):
        for lam in (0.0, 0.3, 5.0):
            disk = (1.0 + 2.0 * math.fsum(r**a * np.cos(a * th) / (1.0 + lam * a))) / TWO_PI
            ball = math.fsum(np.concatenate(([1.0], (2 * a + 1) * r**a * legendre / (1.0 + lam * a))))
            ball /= 4.0 * math.pi
            assert abs(sp.disk_spread_density(r, th, lam) - disk) <= 1e-12 + 1e-13 * abs(disk)
            assert abs(sp.ball_spread_density(r, th, lam) - ball) <= 1e-12 + 1e-13 * abs(ball)


def test_ball_eigenvalue_sides():
    assert sp.ball_eigenvalue(0, "interior") == 0.0
    assert sp.ball_eigenvalue(0, "exterior") == 1.0
    assert sp.ball_eigenvalue(7, "interior") == 7.0
    assert sp.ball_eigenvalue(7, "exterior") == 8.0
    with pytest.raises(InvalidParam):
        sp.ball_eigenvalue(-1, "interior")
    with pytest.raises(InvalidParam):
        sp.ball_eigenvalue(1, "inside")


def test_ball_degeneracy_closed_forms():
    assert [sp.ball_degeneracy(l) for l in range(5)] == [1, 3, 5, 7, 9]
    # four dimensions: (l + 1)^2 independent harmonics
    assert [sp.ball_degeneracy(l, 4) for l in range(5)] == [1, 4, 9, 16, 25]
    with pytest.raises(InvalidParam):
        sp.ball_degeneracy(2, 2)


def test_ball_spread_density_at_zero_is_poisson():
    """Legendre series at Lambda = 0 against the closed 3d Poisson kernel."""

    def closed(r, th):
        return (1 - r * r) / (4 * math.pi * (1 - 2 * r * math.cos(th) + r * r) ** 1.5)

    for r in (0.2, 0.6, 0.9):
        for th in np.linspace(0.1, math.pi, 5):
            assert sp.ball_spread_density(r, th, 0.0) == pytest.approx(
                closed(r, th), rel=1e-10
            )


def test_ball_spread_density_center_and_normalization():
    assert sp.ball_spread_density(0.0, 1.0, 3.0) == 1.0 / (4 * math.pi)
    for lam in (0.0, 1.3):
        mass, _ = integrate.quad(
            lambda th: TWO_PI * math.sin(th) * sp.ball_spread_density(0.55, th, lam),
            0, math.pi, limit=200,
        )
        assert mass == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InvalidParam):
        sp.ball_spread_density(1.0, 0.0, 0.0)


def test_ball_spread_density_truncation_guard():
    with pytest.raises(TruncationTooCoarse):
        sp.ball_spread_density(1.0 - 1e-5, 0.1, 0.0)


def test_annulus_spectrum_closed_form():
    R = 3.0
    spec = sp.annulus_spectrum(R, 6)
    assert spec.mu[0] == pytest.approx(1.0 / math.log(R), rel=1e-14)
    a = np.arange(1, 7, dtype=float)
    expected = a * (R ** (2 * a) + 1) / (R ** (2 * a) - 1)
    assert np.allclose(spec.mu[1:], expected, rtol=1e-13)
    assert list(spec.degeneracy) == [1] + [2] * 6
    assert len(spec.expanded()) == 13
    # high modes forget the grounded circle
    far = sp.annulus_spectrum(1.5, 4000)
    assert far.mu[-1] == pytest.approx(4000.0, rel=1e-12)


def test_annulus_spectrum_guards():
    with pytest.raises(InvalidParam):
        sp.annulus_spectrum(1.0, 4)
    with pytest.raises(InvalidParam):
        sp.annulus_spectrum(2.0, -1)


def test_impedance_uniform_source_identity():
    """Only the flat mode is driven, so Z_sp collapses to Lambda/(2 pi D) exactly."""
    R, D = 3.0, 2.0
    spec = sp.annulus_spectrum(R, 32)
    w = np.zeros_like(spec.mu)
    w[0] = 1.0 / TWO_PI
    z_cell0 = math.log(R) / (TWO_PI * D)
    for lam in (1e-3, 1.0, 1e3):
        out = sp.impedance_from_spectrum(spec.mu, w, lam, D, z_cell0=z_cell0)
        assert out["Z_sp"] == pytest.approx(lam / (TWO_PI * D), rel=1e-12)
    at_zero = sp.impedance_from_spectrum(spec.mu, w, 0.0, D, z_cell0=z_cell0)
    assert at_zero["Z"] == 0.0 and at_zero["Z_sp"] == 0.0


def test_impedance_from_spectrum_guards():
    mu = np.array([0.5, 1.0])
    w = np.array([0.3, 0.2])
    with pytest.raises(TypeError):
        sp.impedance_from_spectrum(mu, w, 1.0)
    out = sp.impedance_from_spectrum(mu, w, 1.0, z_cell0=1.0)
    assert out["Z"] > 0 and out["Z_sp"] > out["Z"]
    with pytest.raises(InvalidParam):
        sp.impedance_from_spectrum(mu, w[:1], 1.0, z_cell0=1.0)
    with pytest.raises(InvalidParam):
        sp.impedance_from_spectrum(-mu, w, 1.0, z_cell0=1.0)
    with pytest.raises(InvalidParam):
        sp.impedance_from_spectrum(mu, w, -1.0, z_cell0=1.0)
    with pytest.raises(InvalidParam):
        sp.impedance_from_spectrum(mu, w, 1.0, D=0.0, z_cell0=1.0)
    with pytest.raises(InvalidParam):
        sp.impedance_from_spectrum(mu, w, 1.0, z_cell0=0.0)


def test_zeta_signature():
    mu = np.array([0.0, 1.0, 4.0])
    w = np.array([0.5, 0.3, 0.2])
    assert sp.zeta(mu, w, 0.0) == pytest.approx(1.0)
    lams = np.linspace(0.0, 5.0, 11)
    vals = [sp.zeta(mu, w, l) for l in lams]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # the flat mode survives forever
    assert sp.zeta(mu, w, 1e9) == pytest.approx(0.5)
    with pytest.raises(InvalidParam):
        sp.zeta(mu, w, -1.0)
