"""Property tests over random Drude, Plasma, one-oscillator Drude-Lorentz
and constant-eps slabs, bulk or as one-layer films.

Derandomized with few examples, so that every run draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir import (
    Constant,
    Drude,
    DrudeLorentz,
    FresnelReflection,
    LayerStack,
    MultilayerReflection,
    Plasma,
    QuadratureConfig,
    Vacuum,
    WaveKinematics,
    force_imag_axis,
    lifshitz_force,
)
from casimir.constants import C_LIGHT

PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


_drude = st.builds(Drude, _log_uniform(1e15, 3e16), _log_uniform(1e12, 1e15))
_lorentz = st.builds(lambda eps_inf, s, w0, g: DrudeLorentz(eps_inf, ((s, w0, g),)),
                     st.floats(1.0, 5.0), _log_uniform(0.1, 10.0),
                     _log_uniform(1e14, 1e16), _log_uniform(1e12, 1e15))
media = st.one_of(_drude, _lorentz)
any_medium = st.one_of(_drude, st.builds(Plasma, _log_uniform(1e15, 3e16)), _lorentz,
                       st.builds(Constant, st.floats(1.5, 10.0)))
# a thin passive film on a lossless eps = 4 substrate, or a bulk medium
slabs = st.one_of(
    media.map(FresnelReflection),
    st.builds(lambda medium, d: MultilayerReflection(
        LayerStack(layers=((d, medium),), substrate=Constant(4.0))),
        media, _log_uniform(1e-9, 1e-7)))


@PROPERTY
@given(media)
def test_imag_axis_amplitudes_are_bounded_by_one(medium):
    xi = np.geomspace(1e11, 1e19, 40)
    Q = np.geomspace(1e3, 1e10, 40)
    r_s, r_p = FresnelReflection(medium).imag_axis(np.repeat(xi, Q.size), np.tile(Q, xi.size))
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


@PROPERTY
@given(media)
def test_real_axis_permittivity_is_passive(medium):
    omega = np.geomspace(1e11, 1e19, 400)
    assert np.all(medium.eval(omega).imag >= 0.0)


@PROPERTY
@given(slabs)
def test_real_axis_amplitudes_are_bounded_by_one(slab):
    # propagating kinematics Q < omega/c: a passive slab reflects at most
    # the power that falls on it
    omega = np.geomspace(1e11, 1e19, 60)
    frac = np.array([0.0, 0.3, 0.7, 0.95, 0.999])
    Q = (frac[None, :] * omega[:, None] / C_LIGHT).ravel()
    r_s, r_p = slab.pair(WaveKinematics.create(Q, np.repeat(omega, frac.size)))
    assert np.all(np.abs(r_s) <= 1.0 + 1e-12)
    assert np.all(np.abs(r_p) <= 1.0 + 1e-12)


# a film of any medium, 5 nm to 1 um thick, on a constant or Drude substrate
_films = st.builds(lambda medium, d, substrate: MultilayerReflection(
    LayerStack(layers=((d, medium),), substrate=substrate)),
    any_medium, _log_uniform(5e-9, 1e-6),
    st.one_of(st.builds(Constant, st.floats(1.5, 10.0)), _drude))


@pytest.mark.parametrize("kind", ["bulk", "film"])
@settings(PROPERTY, max_examples=12)
@given(st.data(), any_medium, _log_uniform(3e-8, 5e-6), _log_uniform(1e-8, 1e-5))
def test_imag_axis_error_covers_the_deviation(kind, data, medium2, L, rtol):
    # against the independent Lifshitz formula for bulk pairs, and against
    # the same path at rtol 1e-11 for films
    r2 = FresnelReflection(medium2)
    ref_cfg = QuadratureConfig(rtol=1e-11)
    if kind == "film":
        slab1 = data.draw(_films)
        ref = force_imag_axis(slab1, r2, L, ref_cfg)
    else:
        medium1 = data.draw(any_medium)
        ref = lifshitz_force(medium1, medium2, Vacuum(), L, ref_cfg)
        slab1 = FresnelReflection(medium1)
    res = force_imag_axis(slab1, r2, L, QuadratureConfig(rtol=rtol))
    assert ref.converged
    if res.converged:
        assert abs(res.pressure - ref.pressure) <= res.error + ref.error
