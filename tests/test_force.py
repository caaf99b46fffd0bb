from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from casimir import (
    Constant,
    ConstantReflection,
    ConvergenceError,
    Drude,
    FresnelReflection,
    ImpedanceReflection,
    LayerStack,
    MultilayerReflection,
    PassivityError,
    PerfectMirror,
    Plasma,
    QuadratureConfig,
    Tabulated,
    Vacuum,
    WaveKinematics,
    force_imag_axis,
    force_imag_axis_many,
    force_real_axis,
    ideal_casimir_pressure,
    integrate_semi_infinite,
    lifshitz_force,
    lifshitz_force_many,
    load_optical_table,
    reduction_factor,
)
from casimir import dielectric, kernels, quadrature
from casimir.constants import C_LIGHT, HBAR
from casimir.reflection import medium_normal_wavevector

WP = 1.37e16
GAMMA = 5.3e13
CFG = QuadratureConfig(rtol=1e-9)
GOLD_TABLE = Tabulated(load_optical_table(
    Path(__file__).resolve().parents[1] / "data" / "gold_drude.dat"))


def test_ideal_pressure_value():
    # -pi^2 hbar c / 240 at L = 1 um, about -1.3 mPa
    assert ideal_casimir_pressure(1e-6) == pytest.approx(
        -np.pi ** 2 * HBAR * C_LIGHT / 240.0 * 1e24, rel=1e-15)
    with pytest.raises(ValueError):
        ideal_casimir_pressure(0.0)


def test_mirrors_recover_ideal_result():
    m = PerfectMirror()
    for L in (1e-8, 1e-6):
        res = force_imag_axis(m, m, L, CFG)
        assert res.pressure == pytest.approx(ideal_casimir_pressure(L), rel=1e-8)
        assert res.converged
        assert res.reduction == pytest.approx(1.0, rel=1e-8)
        assert res.path == "imaginary-axis"


def test_pressure_is_attractive_and_scales_down_with_material():
    m = FresnelReflection(Drude(WP, GAMMA))
    res = force_imag_axis(m, m, 100e-9, CFG)
    assert res.pressure < 0.0
    assert 0.0 < res.reduction < 1.0


def test_error_estimate_is_honest_for_mirrors():
    m = PerfectMirror()
    res = force_imag_axis(m, m, 1e-6, CFG)
    assert abs(res.pressure - ideal_casimir_pressure(1e-6)) <= 10.0 * res.error


def test_mixed_mirror_and_metal():
    mirror = PerfectMirror()
    metal = FresnelReflection(Drude(WP, GAMMA))
    both_metal = force_imag_axis(metal, metal, 200e-9, CFG).pressure
    mixed = force_imag_axis(mirror, metal, 200e-9, CFG).pressure
    ideal = ideal_casimir_pressure(200e-9)
    # mixed cavity must sit between metal-metal and mirror-mirror
    assert abs(both_metal) < abs(mixed) < abs(ideal)


def test_lifshitz_equivalence_constant_eps():
    eps = Constant(2.0)
    m = FresnelReflection(eps)
    for L in (50e-9, 1e-6):
        a = force_imag_axis(m, m, L, CFG).pressure
        b = lifshitz_force(eps, eps, Vacuum(), L, CFG).pressure
        assert a == pytest.approx(b, rel=1e-10)


def test_lifshitz_equivalence_drude():
    dr = Drude(WP, 5e13)
    m = FresnelReflection(dr)
    L = 200e-9
    a = force_imag_axis(m, m, L, CFG).pressure
    b = lifshitz_force(dr, dr, Vacuum(), L, CFG).pressure
    assert a == pytest.approx(b, rel=1e-10)


def test_lifshitz_asymmetric_slabs():
    e1, e2 = Constant(3.0), Constant(1.5)
    a = force_imag_axis(FresnelReflection(e1), FresnelReflection(e2), 300e-9, CFG)
    b = lifshitz_force(e1, e2, Vacuum(), 300e-9, CFG)
    assert a.pressure == pytest.approx(b.pressure, rel=1e-10)


def test_lifshitz_filled_gap_is_weaker():
    # an eps3 > 1 gap screens the interaction at fixed L
    e = Constant(4.0)
    empty = lifshitz_force(e, e, Vacuum(), 200e-9, CFG).pressure
    filled = lifshitz_force(e, e, Constant(2.0), 200e-9, CFG).pressure
    assert abs(filled) < abs(empty)
    assert filled < 0.0


def test_reduction_factor_consistency():
    m = FresnelReflection(Plasma(WP))
    res = force_imag_axis(m, m, 1e-6, CFG)
    assert res.reduction == pytest.approx(reduction_factor(res, 1e-6), rel=1e-15)


def test_result_fields_are_plain_floats():
    m = PerfectMirror()
    d = Drude(WP, GAMMA)
    for res in (force_imag_axis(m, m, 1e-6, CFG),
                lifshitz_force(d, d, Vacuum(), 1e-6, QuadratureConfig(rtol=1e-6))):
        for value in (res.pressure, res.error, res.reduction):
            assert type(value) is float


def test_pressure_magnitude_decreases_with_separation():
    m = FresnelReflection(Drude(WP, GAMMA))
    Ls = np.geomspace(1e-8, 1e-5, 8)
    ps = [abs(force_imag_axis(m, m, L, QuadratureConfig(rtol=1e-7)).pressure)
          for L in Ls]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_active_amplitudes_rejected():
    hot = ConstantReflection(r_s=1.2, r_p=0.0)
    with pytest.raises(PassivityError):
        force_imag_axis(hot, hot, 1e-6, CFG)


def test_constant_amplitude_cavity_matches_closed_form():
    # for r1 r2 = rho constant, P = -(hbar c / 2 pi^2 L^4) * 3 Li_4(rho) / 4
    # per polarization; rho = 0.25 keeps the series fast and exact
    rho = 0.25
    m = ConstantReflection(r_s=0.5, r_p=0.5)
    res = force_imag_axis(m, m, 1e-6, CFG)
    li4 = sum(rho ** n / n ** 4 for n in range(1, 60))
    want = -HBAR * C_LIGHT / (2.0 * np.pi ** 2 * 1e-24) * 2.0 * (3.0 / 8.0) * li4
    assert res.pressure == pytest.approx(want, rel=1e-8)


def test_real_axis_contour_matches_imag_axis_for_lossy_metal():
    dr = Drude(1e16, 1e14)
    m = FresnelReflection(dr)
    L = 500e-9
    ref = force_imag_axis(m, m, L, QuadratureConfig(rtol=1e-9)).pressure
    res = force_real_axis(m, m, L, QuadratureConfig(rtol=1e-3))
    assert res.path == "real-axis"
    assert res.converged
    assert res.pressure == pytest.approx(ref, rel=1e-3)


@pytest.mark.parametrize("L", [10e-9, 15e-9, 20e-9])
def test_real_axis_error_covers_deviation_and_is_deterministic(L):
    # every Q' node of one outer call shares one absolute floor, so the
    # result cannot depend on the order in which nodes are visited
    m = FresnelReflection(Drude(1e16, 1e14))
    ref = force_imag_axis(m, m, L, QuadratureConfig(rtol=1e-10)).pressure
    res = force_real_axis(m, m, L, QuadratureConfig(rtol=1e-3))
    assert res.converged
    assert res.error >= abs(res.pressure - ref)
    assert force_real_axis(m, m, L, QuadratureConfig(rtol=1e-3)) == res


def test_real_axis_refinement_round_is_one_outer_call(monkeypatch):
    # the coarse grid is one outer call, and so is each refinement round
    # that bisects the six worst panels
    from casimir import force
    calls = []
    panel_results = force.panel_results

    def counted(f, lo, hi):
        calls.append(len(lo))
        return panel_results(f, lo, hi)

    monkeypatch.setattr(force, "panel_results", counted)
    m = FresnelReflection(Drude(1e16, 1e14))
    res = force_real_axis(m, m, 40e-9, QuadratureConfig(rtol=1e-3))
    assert calls == [8, 12, 12, 12, 12]
    assert res.converged and res.neval == 1149330


def test_inner_integrals_ignore_the_callers_atol():
    # an absolute floor on the outer integral must not reach the inner ones,
    # where it would let tiny inner values stop with a huge relative error
    m = FresnelReflection(Drude(WP, GAMMA))
    want = force_imag_axis(m, m, 1e-7, QuadratureConfig(rtol=1e-8))
    assert force_imag_axis(m, m, 1e-7, QuadratureConfig(rtol=1e-8, atol=1e-30)) == want
    assert want.error < 1e-6 * abs(want.pressure)


def test_real_axis_rejects_nondecaying_round_trip():
    # constant reflection never decays along the real axis: only Abel
    # summable, so the literal contour must refuse with partial sums
    m = ConstantReflection(r_s=0.5, r_p=0.5)
    with pytest.raises(ConvergenceError) as exc_info:
        force_real_axis(m, m, 1e-6, QuadratureConfig(rtol=1e-3))
    err = exc_info.value
    assert len(err.partial_sums) >= 3
    assert np.isfinite(err.value)


def test_multilayer_force_between_bulk_limits():
    # a thin metal film sits between transparent and bulk-metal behavior
    metal = Drude(WP, GAMMA)
    mirror = PerfectMirror()
    L = 200e-9
    bulk = abs(force_imag_axis(FresnelReflection(metal), mirror, L, CFG).pressure)
    film = MultilayerReflection(
        LayerStack(layers=((5e-9, metal),), substrate=Vacuum()))
    thin = abs(force_imag_axis(film, mirror, L, CFG).pressure)
    assert 0.0 < thin < bulk


def test_gap_width_validation():
    m = PerfectMirror()
    with pytest.raises(ValueError):
        force_imag_axis(m, m, -1e-6, CFG)
    with pytest.raises(ValueError):
        lifshitz_force(Constant(2.0), Constant(2.0), Vacuum(), 0.0, CFG)
    with pytest.raises(ValueError, match="positive"):
        force_imag_axis_many(m, m, [1e-7, 0.0], CFG)
    with pytest.raises(ValueError, match="1-D"):
        lifshitz_force_many(Constant(2.0), Constant(2.0), Vacuum(), [], CFG)


def test_imag_axis_results_are_deterministic():
    m = FresnelReflection(Drude(WP, GAMMA))
    vals = {force_imag_axis(m, m, 1e-7, QuadratureConfig(rtol=1e-8)).pressure
            for _ in range(3)}
    assert len(vals) == 1


def _per_node_imag_axis(r1, r2, L, cfg):
    """Reference: the imaginary-axis pressure with one scalar inner integral
    per outer node and eps evaluated per inner call, as (pressure, error,
    neval, converged).  Same arithmetic as force_imag_axis, no batching."""
    inner_cfg = replace(cfg, rtol=max(0.1 * cfg.rtol, 2e-14))
    neval = [0]
    inner_rel = [0.0]
    converged = [True]

    def amplitudes(model, xi, Q):
        if isinstance(model, FresnelReflection):
            eps = float(model.dielectric.eval_iw(xi))
            return kernels.fresnel_rs_rp_iw(eps, xi / C_LIGHT, Q)
        return tuple(np.real(model.amplitude(pol, Q, 1j * xi)) for pol in ("s", "p"))

    def inner(u):
        xi = u * C_LIGHT / L

        def g(v):
            rs1, rp1 = amplitudes(r1, xi, v / L)
            rs2, rp2 = amplitudes(r2, xi, v / L)
            neval[0] += v.size
            return kernels.force_integrand_iw(u, v, rs1 * rs2, rp1 * rp2)

        try:
            return integrate_semi_infinite(g, 0.0, inner_cfg, scale=1.0 + np.sqrt(u))
        except ConvergenceError as exc:
            converged[0] = False
            return exc.value, exc.error

    def f(us):
        out = np.empty_like(us)
        for i, u in enumerate(us):
            v, e = inner(float(u))
            if v != 0.0:
                inner_rel[0] = max(inner_rel[0], e / abs(v))
            out[i] = v
        return out

    try:
        val, err = integrate_semi_infinite(f, 0.0, cfg)
    except ConvergenceError as exc:
        val, err = exc.value, exc.error
        converged[0] = False
    err = err + inner_rel[0] * abs(val)
    pref = HBAR * C_LIGHT / (2.0 * np.pi ** 2 * L ** 4)
    pressure, error = float(-pref * val), float(pref * err)
    if error > abs(pressure) * cfg.rtol * 10.0:
        converged[0] = False
    return pressure, error, neval[0], converged[0]


def _drude_impedance(pol, Q, freq):
    # the Drude slab's surface impedance, Z^s = q/k_a and Z^p = k_a/(eps q)
    kin = WaveKinematics.create(Q, freq)
    eps = Drude(WP, GAMMA).eval(freq)
    k_a = medium_normal_wavevector(eps, kin)
    return kin.q / k_a if pol == "s" else k_a / (eps * kin.q)


@pytest.mark.parametrize("case", ["drude", "plasma", "film", "impedance", "budget"])
def test_lockstep_inner_integrals_are_bit_identical(case):
    # the impedance slab's array-frequency route against one scalar
    # frequency per node in the reference
    metal = FresnelReflection(Drude(WP, GAMMA))
    plasma = FresnelReflection(Plasma(WP))
    film = MultilayerReflection(
        LayerStack(layers=((2e-8, Drude(WP, GAMMA)),), substrate=Constant(4.0)))
    r1, r2, L, cfg = {
        "drude": (metal, metal, 100e-9, QuadratureConfig(rtol=1e-6)),
        "plasma": (plasma, plasma, 100e-9, QuadratureConfig(rtol=1e-6)),
        "film": (film, metal, 1e-6, QuadratureConfig(rtol=1e-6)),
        "impedance": (ImpedanceReflection(_drude_impedance), metal, 1e-6,
                      QuadratureConfig(rtol=1e-6)),
        "budget": (metal, metal, 100e-9, QuadratureConfig(rtol=1e-12, max_subdivisions=10)),
    }[case]
    res = force_imag_axis(r1, r2, L, cfg)
    assert (res.pressure, res.error, res.neval, res.converged) == \
        _per_node_imag_axis(r1, r2, L, cfg)
    assert res.converged == (case != "budget")


def test_lifshitz_budget_exhaustion_keeps_p_squared_weight():
    # inner integrals that run out of subdivisions still carry the p^2 dp
    # weight, so the partial result stays close to the converged pressure
    d = Drude(WP, GAMMA)
    res = lifshitz_force(d, d, Vacuum(), 100e-9, QuadratureConfig(rtol=1e-12, max_subdivisions=10))
    ref = lifshitz_force(d, d, Vacuum(), 100e-9, QuadratureConfig(rtol=1e-8))
    assert not res.converged
    assert res.pressure == pytest.approx(ref.pressure, rel=1e-6)


def _fields(res):
    return res.pressure, res.error, res.neval, res.converged


@pytest.mark.parametrize("case", ["mirror", "drude", "plasma", "constant", "film",
                                  "tabulated", "impedance", "budget", "some_budget"])
def test_imag_axis_sweep_batch_is_bit_identical_to_one_gap_calls(case):
    # every gap keeps its own outer and inner heaps, so batching the gaps
    # of a sweep moves no bit of any gap's result
    metal = FresnelReflection(Drude(WP, GAMMA))
    film = MultilayerReflection(
        LayerStack(layers=((2e-8, Drude(WP, GAMMA)),), substrate=Constant(4.0)))
    gaps = (5e-8, 1.3e-7, 4e-7, 1e-6)
    r1, r2, Ls, cfg = {
        "mirror": (PerfectMirror(), PerfectMirror(), gaps, CFG),
        "drude": (metal, metal, gaps, QuadratureConfig(rtol=1e-8)),
        "plasma": (FresnelReflection(Plasma(WP)), metal, gaps, QuadratureConfig(rtol=1e-7)),
        "constant": (ConstantReflection(0.7, -0.6), ConstantReflection(0.5, -0.8), gaps, CFG),
        "film": (film, metal, gaps[1:], QuadratureConfig(rtol=1e-6)),
        "tabulated": (FresnelReflection(GOLD_TABLE), FresnelReflection(GOLD_TABLE), gaps,
                      QuadratureConfig(rtol=1e-6)),
        "impedance": (ImpedanceReflection(_drude_impedance), metal, gaps[1:],
                      QuadratureConfig(rtol=1e-5)),
        "budget": (metal, metal, gaps[:3],
                   QuadratureConfig(rtol=1e-12, max_subdivisions=10)),
        # a budget that one inner integral of the narrowest gap exhausts
        "some_budget": (metal, metal, (1e-9, 1e-8, 1e-6, 1e-4),
                        QuadratureConfig(rtol=1e-10, max_subdivisions=24)),
    }[case]
    batch = force_imag_axis_many(r1, r2, Ls, cfg)
    assert [_fields(res) for res in batch] == \
        [_fields(force_imag_axis(r1, r2, L, cfg)) for L in Ls]
    converged = {"budget": [False] * 3, "some_budget": [False, True, True, True]}
    assert [res.converged for res in batch] == converged.get(case, [True] * len(Ls))


@pytest.mark.parametrize("case", ["drude", "tabulated"])
def test_lifshitz_sweep_batch_is_bit_identical_to_one_gap_calls(case):
    eps, cfg = {"drude": (Drude(WP, GAMMA), QuadratureConfig(rtol=1e-7)),
                "tabulated": (GOLD_TABLE, QuadratureConfig(rtol=1e-4))}[case]
    Ls = (5e-8, 2e-7, 1e-6) if case == "drude" else (5e-8, 1e-6)
    batch = lifshitz_force_many(eps, eps, Vacuum(), Ls, cfg)
    assert [_fields(res) for res in batch] == \
        [_fields(lifshitz_force(eps, eps, Vacuum(), L, cfg)) for L in Ls]
    assert all(res.converged and res.path == "lifshitz" for res in batch)


def test_sweep_batch_rounds_follow_the_slowest_gap(monkeypatch):
    # one batch makes one round for all gaps at once: as many rounds as its
    # slowest gap, slightly more because each outer round takes the most
    # inner rounds any gap needs in it, and far fewer than the gaps in turn
    calls = [0]
    panels = quadrature._panels

    def counted(fx, half):
        calls[0] += 1
        return panels(fx, half)

    monkeypatch.setattr(quadrature, "_panels", counted)
    m = FresnelReflection(Drude(WP, GAMMA))
    cfg = QuadratureConfig(rtol=1e-8)
    Ls = np.geomspace(5e-8, 1e-6, 7)
    alone = []
    for L in Ls:
        calls[0] = 0
        force_imag_axis(m, m, L, cfg)
        alone.append(calls[0])
    calls[0] = 0
    force_imag_axis_many(m, m, Ls, cfg)
    assert max(alone) <= calls[0] <= 1.25 * max(alone)
    assert calls[0] < sum(alone) / 4


def test_lifshitz_continues_a_shared_slab_once_per_node(monkeypatch):
    # eps2 is eps1 (identical slabs, as the CLI passes them): each xi of
    # the inner integrals reaches the Kramers-Kronig continuation once
    continued = []
    kk = dielectric._continue_table

    def counted(table, xi):
        continued.extend(xi.tolist())
        return kk(table, xi)

    monkeypatch.setattr(dielectric, "_continue_table", counted)
    res = lifshitz_force(GOLD_TABLE, GOLD_TABLE, Vacuum(), 1e-7, QuadratureConfig(rtol=1e-4))
    # plus the three probe frequencies of the input check, once per model
    assert len(continued) == res.neval + 3
