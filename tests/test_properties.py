"""Property tests over random Drude and one-oscillator Drude-Lorentz slabs.

Derandomized with few examples, so that every run draws the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir import Drude, DrudeLorentz, FresnelReflection, QuadratureConfig, force_imag_axis

PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


_drude = st.builds(Drude, _log_uniform(1e15, 3e16), _log_uniform(1e12, 1e15))
_lorentz = st.builds(lambda eps_inf, s, w0, g: DrudeLorentz(eps_inf, ((s, w0, g),)),
                     st.floats(1.0, 5.0), _log_uniform(0.1, 10.0),
                     _log_uniform(1e14, 1e16), _log_uniform(1e12, 1e15))
media = st.one_of(_drude, _lorentz)


@PROPERTY
@given(media)
def test_imag_axis_amplitudes_are_bounded_by_one(medium):
    xi = np.geomspace(1e11, 1e19, 40)
    Q = np.geomspace(1e3, 1e10, 40)
    idx = np.repeat(np.arange(xi.size), Q.size)
    r_s, r_p = FresnelReflection(medium).imag_axis(xi)(idx, np.tile(Q, xi.size))
    assert np.all(np.abs(r_s) <= 1.0)
    assert np.all(np.abs(r_p) <= 1.0)


@settings(PROPERTY, max_examples=10)
@given(media, media)
def test_pressure_magnitude_decreases_with_gap(medium1, medium2):
    r1, r2 = FresnelReflection(medium1), FresnelReflection(medium2)
    cfg = QuadratureConfig(rtol=1e-6)
    pressures = [force_imag_axis(r1, r2, L, cfg).pressure for L in (3e-8, 2e-7, 1e-6)]
    assert all(p < 0.0 for p in pressures)
    assert abs(pressures[0]) > abs(pressures[1]) > abs(pressures[2])
