"""Non-finite parameters raise InvalidParam at every entry point, never NaN or a hang."""

import math

import numpy as np
import pytest

from prbm import dtn, halfspace, spectral, walkers
from prbm import geometry as geo
from prbm.errors import InvalidParam
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

_CALLS = {
    "jump_params_nan_Lambda": lambda box, spec: walkers.JumpParams(Lambda=NAN, a=0.1),
    "jump_params_inf_Lambda": lambda box, spec: walkers.JumpParams(Lambda=INF, a=0.1),
    "jump_params_nan_a": lambda box, spec: walkers.JumpParams(Lambda=1.0, a=NAN),
    "jump_params_inf_a": lambda box, spec: walkers.JumpParams(Lambda=1.0, a=INF),
    "sample_threshold_nan": lambda box, spec: walkers.sample_threshold(NAN, RngStream(0).generator()),
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
}


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_non_finite_parameter_raises(name, box6, box6_spec):
    with pytest.raises(InvalidParam):
        _CALLS[name](box6, box6_spec)
