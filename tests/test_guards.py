"""Non-finite parameters raise InvalidParam at every entry point, never NaN or a hang.

Finite admissible inputs pass the guards untouched; every NaN or infinite
length, scale, time, angle or coordinate raises, as do out-of-range ones
that used to give a quiet wrong answer. Every count, dimension and index
must be an integer no smaller than its bound: a float, even an integral
one, or a bool raises instead of being truncated or failing with a
TypeError. A signed scalar (an angle, a height) must be one number, and a
list must hold non-bool numbers in a regular shape.
"""

import math

import numpy as np
import pytest

from prbm import dtn, halfspace, lsa, spectral, walkers
from prbm import geometry as geo
from prbm.errors import InvalidParam, _nonnegative
from prbm.rng import RngStream

NAN, INF = math.nan, math.inf


@pytest.fixture(scope="module")
def box6():
    return geo.lattice_box(6, 6, 1.0 / 6.0)


@pytest.fixture(scope="module")
def box6_spec(box6):
    Qm = dtn.build_Q(box6)
    M = dtn.build_M(Qm)
    return M, dtn.spectrum(M, dtn.hitting_distribution(box6).density, Qm.measure)


_MU, _W = np.array([0.5, 1.0]), np.array([0.3, 0.2])


def _halfplane(**kw):
    # with max_steps=2, a share eps^2 = 1/1.01^2 ~ 0.980 of these walkers is censored
    hp = geo.make_canonical("half_space", dimension=2)
    params = walkers.JumpParams(Lambda=1.0, a=0.01, max_steps=kw.pop("max_steps", 10_000_000))
    return walkers.estimate_spread_measure(hp, (0.0, 1.0), params, kw.pop("n_walkers", 1_000), RngStream(0), **kw)


def _flux(height=1.0, D=1.0):
    return lsa.compare_flux([[0.0, 0.0], [1.0, 0.0]], height, 0.5, 0.05, D)


_CALLS = {
    "jump_params_nan_Lambda": lambda box, spec: walkers.JumpParams(Lambda=NAN, a=0.1),
    "jump_params_inf_Lambda": lambda box, spec: walkers.JumpParams(Lambda=INF, a=0.1),
    "jump_params_nan_a": lambda box, spec: walkers.JumpParams(Lambda=1.0, a=NAN),
    "jump_params_inf_a": lambda box, spec: walkers.JumpParams(Lambda=1.0, a=INF),
    "absorption_law_nan": lambda box, spec: dtn.absorption_law(box, NAN),
    "absorption_law_inf": lambda box, spec: dtn.absorption_law(box, INF),
    "spreading_operator_nan": lambda box, spec: dtn.spreading_operator(spec[0], NAN),
    "spreading_operator_inf": lambda box, spec: dtn.spreading_operator(spec[0], INF),
    "impedance_curve_nan": lambda box, spec: dtn.impedance_curve(spec[1], [1.0, NAN]),
    "impedance_curve_inf": lambda box, spec: dtn.impedance_curve(spec[1], [INF]),
    "impedance_from_spectrum_nan": lambda box, spec: spectral.impedance_from_spectrum(_MU, _W, NAN, z_cell0=1.0),
    "impedance_from_spectrum_inf": lambda box, spec: spectral.impedance_from_spectrum(_MU, _W, INF, z_cell0=1.0),
    "disk_spread_density_nan": lambda box, spec: spectral.disk_spread_density(0.5, 0.1, NAN),
    "ball_spread_density_nan": lambda box, spec: spectral.ball_spread_density(0.5, 0.1, NAN),
    "zeta_nan": lambda box, spec: spectral.zeta(_MU, _W, NAN),
    "spread_density_halfspace_nan": lambda box, spec: halfspace.spread_density_halfspace((0.0, 1.0), 0.3, NAN),
    "stopping_time_density_inf": lambda box, spec: halfspace.stopping_time_density(1.0, INF),
    "spread_kernel_t_inf": lambda box, spec: halfspace.spread_kernel_t(0.5, INF),
    # an infinite Lambda used to give the uniform law, or an infinite threshold
    "disk_spread_density_inf": lambda box, spec: spectral.disk_spread_density(0.5, 0.1, INF),
    "ball_spread_density_inf": lambda box, spec: spectral.ball_spread_density(0.5, 0.1, INF),
    "disk_spreading_kernel_inf": lambda box, spec: spectral.disk_spreading_kernel(0.1, 0.5, INF),
    # these returned NaN
    "eta_inf": lambda box, spec: halfspace.eta(INF),
    "absorption_probability_disk_inf_r": lambda box, spec: halfspace.absorption_probability_disk(INF, 1.0),
    "poisson_kernel_disk_nan_theta": lambda box, spec: spectral.poisson_kernel_disk(0.5, NAN),
    "disk_spread_density_nan_theta": lambda box, spec: spectral.disk_spread_density(0.5, NAN, 0.3),
    "ball_spread_density_nan_theta": lambda box, spec: spectral.ball_spread_density(0.5, NAN, 0.3),
    "spread_kernel_t_nan_s": lambda box, spec: halfspace.spread_kernel_t(NAN, 1.0),
    "harmonic_density_halfspace_nan_s": lambda box, spec: halfspace.harmonic_density_halfspace([0.0, 1.0], NAN),
    "stopping_time_cdf_nan_t": lambda box, spec: halfspace.stopping_time_cdf(NAN, 1.0),
    "stopping_time_density_nan_t": lambda box, spec: halfspace.stopping_time_density(NAN, 1.0),
    # this raised SlowConvergence
    "spread_density_halfspace_nan_s": lambda box, spec: halfspace.spread_density_halfspace([0.0, 1.0], NAN, 0.5),
    # an infinite mesh, radius or D was accepted
    "lattice_box_inf_mesh": lambda box, spec: geo.lattice_box(3, 3, INF),
    "make_canonical_inf_outer_radius": lambda box, spec: geo.make_canonical("annulus", outer_radius=INF),
    "annulus_spectrum_inf": lambda box, spec: spectral.annulus_spectrum(INF, 2),
    "impedance_from_spectrum_inf_D": lambda box, spec: spectral.impedance_from_spectrum(_MU, _W, 0.5, D=INF, z_cell0=1.0),
    # NaN or infinite bin edges, or every walker in the overflow bin
    "window_nan": lambda box, spec: _halfplane(window=NAN),
    "window_inf": lambda box, spec: _halfplane(window=INF),
    "window_zero": lambda box, spec: _halfplane(window=0.0),
    "window_negative": lambda box, spec: _halfplane(window=-1.0),
    # a NaN ceiling switched the censoring check off
    "censored_ceiling_nan": lambda box, spec: _halfplane(censored_ceiling=NAN, max_steps=2),
    # NaN or negative fluxes, and an OverflowError
    "compare_flux_nan_D": lambda box, spec: _flux(D=NAN),
    "compare_flux_negative_D": lambda box, spec: _flux(D=-1.0),
    "compare_flux_inf_source_height": lambda box, spec: _flux(height=INF),
    # a signed scalar: a list raised TypeError, an array broke the series
    # sum, and True was read as 1.0
    "poisson_kernel_disk_bool_theta": lambda box, spec: spectral.poisson_kernel_disk(0.5, True),
    "poisson_kernel_disk_list_theta": lambda box, spec: spectral.poisson_kernel_disk(0.5, [0.1, 0.5]),
    "poisson_kernel_disk_array_theta": lambda box, spec: spectral.poisson_kernel_disk(0.5, np.array([0.1, 0.5])),
    "disk_spread_density_bool_theta": lambda box, spec: spectral.disk_spread_density(0.5, True, 0.3),
    "disk_spread_density_list_theta": lambda box, spec: spectral.disk_spread_density(0.5, [0.1, 0.5], 0.3),
    "disk_spread_density_array_theta": lambda box, spec: spectral.disk_spread_density(0.5, np.array([0.1, 0.5]), 0.3),
    "ball_spread_density_bool_theta": lambda box, spec: spectral.ball_spread_density(0.5, True, 0.3),
    "ball_spread_density_list_theta": lambda box, spec: spectral.ball_spread_density(0.5, [0.1, 0.5], 0.3),
    "ball_spread_density_array_theta": lambda box, spec: spectral.ball_spread_density(0.5, np.array([0.1, 0.5]), 0.3),
    "compare_flux_bool_source_height": lambda box, spec: _flux(height=True),
    "compare_flux_list_source_height": lambda box, spec: _flux(height=[1.0]),
    "compare_flux_array_source_height": lambda box, spec: _flux(height=np.array([1.0, 2.0])),
    # a list mixing bools with numbers was read as floats; a ragged one
    # raised numpy's ValueError
    "nonnegative_mixed_bool_list": lambda box, spec: _nonnegative([True, 0.5], "x"),
    "nonnegative_ragged_list": lambda box, spec: _nonnegative([[1, 2], [3]], "x"),
    "nonnegative_mixed_shape_arrays": lambda box, spec: _nonnegative([np.zeros((2, 2)), np.zeros((2, 3))], "x"),
    # scipy's eigh raised its own ValueError
    "spectrum_nan_M": lambda box, spec: dtn.spectrum(np.full((2, 2), NAN), None, [1, 1]),
    "spectrum_inf_M": lambda box, spec: dtn.spectrum(np.full((2, 2), INF), None, [1, 1]),
    # a coordinate list of strings or bools was read as numbers, or raised
    # numpy's UFuncTypeError
    "harmonic_density_halfspace_string_x": lambda box, spec: halfspace.harmonic_density_halfspace(["0", "1"], 0.0),
    "harmonic_density_halfspace_bool_x_s": lambda box, spec: halfspace.harmonic_density_halfspace([True, True], False),
    "spread_density_halfspace_string_x_s": lambda box, spec: halfspace.spread_density_halfspace(["0", "1"], "0.5", 1.0),
    "spread_kernel_t_string_s": lambda box, spec: halfspace.spread_kernel_t(["1"], 1.0),
    "circle_polyline_string_center": lambda box, spec: geo.circle_polyline(1.0, 16, ("0", "0")),
    "circle_polyline_bool_center": lambda box, spec: geo.circle_polyline(1.0, 16, (True, 0)),
}


_COUNTS = {
    # these gave the answer for the truncated or coerced count
    "absorption_probability_disk_float_d": lambda: halfspace.absorption_probability_disk(0.5, 1.0, 2.5),
    "eta_float_d": lambda: halfspace.eta(1.0, 3.9),
    "spread_kernel_t_float_d": lambda: halfspace.spread_kernel_t(1.0, 1.0, 2.7),
    "lattice_box_float_nx": lambda: geo.lattice_box(8.7, 6, 0.1),
    "lattice_box_bool_sides": lambda: geo.lattice_box(True, True, 1.0),
    "lattice_channel_float_n_rows": lambda: geo.lattice_channel(10.5, 0.1),
    "lattice_channel_float_width": lambda: geo.lattice_channel(10, 0.1, width=1.5),
    "lattice_channel_int_source_top": lambda: geo.lattice_channel(10, 0.1, source_top=2),
    "make_canonical_float_dimension": lambda: geo.make_canonical("half_space", dimension=2.5),
    "ball_eigenvalue_float_l": lambda: spectral.ball_eigenvalue(1.5, "interior"),
    "koch_polyline_bool_generation": lambda: lsa.koch_polyline(True),
    "jump_params_float_max_steps": lambda: walkers.JumpParams(1.0, 0.1, max_steps=2.5),
    "estimate_spread_measure_float_threads": lambda: _halfplane(threads=1.5),
    "circle_polyline_zero_n": lambda: geo.circle_polyline(1.0, 0),
    "rng_generator_float_block": lambda: RngStream(0).generator(block=1.5),
    "rng_stream_bool_seed": lambda: RngStream(True),
    "rng_stream_bool_stream_id": lambda: RngStream(1, True),
    # these raised TypeError or ValueError
    "circle_polyline_float_n": lambda: geo.circle_polyline(1.0, 10.5),
    "circle_polyline_negative_n": lambda: geo.circle_polyline(1.0, -3),
    "ball_degeneracy_float_l": lambda: spectral.ball_degeneracy(1.5),
    "ball_degeneracy_float_d": lambda: spectral.ball_degeneracy(2, d=3.5),
    "annulus_spectrum_float_alpha_max": lambda: spectral.annulus_spectrum(3.0, 2.5),
    "koch_polyline_float_generation": lambda: lsa.koch_polyline(2.5),
    "estimate_spread_measure_float_n_walkers": lambda: _halfplane(n_walkers=100.5),
    "estimate_spread_measure_float_bins": lambda: _halfplane(bins=4.5),
    "estimate_spread_measure_float_chunk_size": lambda: _halfplane(chunk_size=50.5),
    "estimate_spread_measure_float_count_reflections_to": lambda: _halfplane(count_reflections_to=2.5),
    "estimate_stopping_time_float_n_samples": lambda: walkers.estimate_stopping_time(1.0, 0.01, 10.5, RngStream(0)),
    "estimate_stopping_time_bool_n_samples": lambda: walkers.estimate_stopping_time(1.0, 0.01, True, RngStream(0)),
}


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_non_finite_parameter_raises(name, box6, box6_spec):
    with pytest.raises(InvalidParam):
        _CALLS[name](box6, box6_spec)


@pytest.mark.parametrize("name", sorted(_COUNTS))
def test_non_integer_count_raises(name):
    with pytest.raises(InvalidParam):
        _COUNTS[name]()


def test_signed_scalars_pass_unchanged():
    # any real number of either sign is an angle or a height, numpy scalars too
    for theta in (0.3, -2.0, 4, np.float64(0.3), np.int64(-1)):
        assert spectral.poisson_kernel_disk(0.5, theta) == spectral.poisson_kernel_disk(0.5, float(theta))
        assert spectral.disk_spread_density(0.5, theta, 0.3) == spectral.disk_spread_density(0.5, float(theta), 0.3)
        assert spectral.ball_spread_density(0.5, theta, 0.3) == spectral.ball_spread_density(0.5, float(theta), 0.3)
    assert np.array_equal(_nonnegative([1, 0.5], "x"), [1.0, 0.5])
    assert np.array_equal(_nonnegative(((1, 2), (3, 4)), "x"), [[1.0, 2.0], [3.0, 4.0]])


def test_integer_counts_pass_unchanged():
    # numpy integers are counts too, and give the same value as a Python int
    assert halfspace.eta(1.0, np.int64(3)) == halfspace.eta(1.0, 3)
    assert spectral.ball_degeneracy(np.int32(4), d=np.int64(5)) == spectral.ball_degeneracy(4, d=5)
    assert np.array_equal(geo.circle_polyline(1.0, np.int64(8)), geo.circle_polyline(1.0, 8))
    assert geo.lattice_box(np.int64(3), 2, 0.5).n_bulk == 6
    assert RngStream(np.int64(3), np.uint64(2**63)) == RngStream(3, 2**63)
