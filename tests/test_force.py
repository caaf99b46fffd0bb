import functools
import re
from dataclasses import dataclass, replace
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
    ReflectionModel,
    Tabulated,
    Vacuum,
    WaveKinematics,
    force_imag_axis,
    force_imag_axis_many,
    force_real_axis,
    ideal_casimir_pressure,
    lifshitz_force,
    lifshitz_force_many,
    load_optical_table,
)
from casimir import dielectric, kernels, quadrature
from casimir import force as force_module
from casimir.constants import C_LIGHT, HBAR
from casimir.quadrature import integrate_many, integrate_semi_infinite_many

import census

WP = 1.37e16
GAMMA = 5.3e13
CFG = QuadratureConfig(rtol=1e-9)
GOLD_PATH = Path(__file__).resolve().parents[1] / "data" / "gold_drude.dat"
GOLD_TABLE = Tabulated(load_optical_table(GOLD_PATH))


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
    assert res.reduction == res.pressure / ideal_casimir_pressure(1e-6)


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


@dataclass(frozen=True)
class _Integrated(ReflectionModel):
    """A model's amplitudes behind a class that does not declare them
    constant, so that the imaginary-axis path integrates over t."""

    model: ReflectionModel

    def pair(self, kin):
        return self.model.pair(kin)


@pytest.mark.parametrize("pair", [
    (PerfectMirror(), PerfectMirror()),
    (ConstantReflection(0.7, -0.6), ConstantReflection(0.5, -0.8)),
    (PerfectMirror(), ConstantReflection(-0.9, 0.3)),
], ids=["mirror", "constant", "mixed"])
def test_constant_amplitudes_take_the_inner_integral_from_one_point(pair):
    # a t-independent inner integrand is its own integral over [0, 1]: one
    # evaluation per outer node where the starting t-panels take 15 each
    gaps = (5e-8, 1e-6)
    got = force_imag_axis_many(*pair, gaps, CFG)
    want = force_imag_axis_many(*(_Integrated(r) for r in pair), gaps, CFG)
    for a, b in zip(got, want):
        assert a.pressure == pytest.approx(b.pressure, rel=1e-14, abs=0.0)
        assert a.converged and b.converged
        assert 15 * (force_module._V_EDGES.size - 1) * a.neval == b.neval


def test_constant_amplitude_pairs_keep_their_checks():
    # the one-point inner integral runs through the same integrand, with
    # its passivity and realness checks
    mirror = PerfectMirror()
    with pytest.raises(PassivityError):
        force_imag_axis(ConstantReflection(r_s=0.5, r_p=1.2), mirror, 1e-6, CFG)
    with pytest.raises(ValueError, match="not real"):
        force_imag_axis(ConstantReflection(r_s=0.4 + 0.1j, r_p=-0.2), mirror, 1e-6, CFG)


@pytest.mark.parametrize("amplitudes", [(0.9, 1.2), (1.5, 1.5)], ids=["mixed", "active"])
def test_real_axis_rejects_an_active_pair(amplitudes):
    # |r1 r2| > 1 at real k is an active pair, as on the imaginary axis,
    # not a contour that fails to converge
    r1, r2 = (ConstantReflection(r_s=r, r_p=r) for r in amplitudes)
    with pytest.raises(PassivityError, match="propagating k"):
        force_real_axis(r1, r2, 100e-9, QuadratureConfig(rtol=1e-3))


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
    assert res.error >= abs(res.pressure - ref)


# the evaluations each gap costs today (the baseline figures); a change
# that moves them changes the real-axis output bytes
REAL_AXIS_NEVAL = {10e-9: 139_725, 15e-9: 148_785, 20e-9: 145_905, 40e-9: 159_405}


@pytest.mark.parametrize("L", [10e-9, 15e-9, 20e-9, 40e-9])
def test_real_axis_error_covers_deviation_and_is_deterministic(L):
    # every Q' node shares one absolute floor, fixed by the seed at Q'L = 1,
    # so the result cannot depend on the order in which nodes are visited
    m = FresnelReflection(Drude(1e16, 1e14))
    ref = force_imag_axis(m, m, L, QuadratureConfig(rtol=1e-10)).pressure
    res = force_real_axis(m, m, L, QuadratureConfig(rtol=1e-3))
    assert res.converged and res.neval == REAL_AXIS_NEVAL[L]
    assert res.error >= abs(res.pressure - ref)
    assert force_real_axis(m, m, L, QuadratureConfig(rtol=1e-3)) == res


def test_real_axis_outer_integral_stops_at_its_target():
    # the adaptive outer integral stops once its error meets the target,
    # at about 0.16 M evaluations here
    m = FresnelReflection(Drude(1e16, 1e14))
    ref = force_imag_axis(m, m, 40e-9, QuadratureConfig(rtol=1e-10)).pressure
    res = force_real_axis(m, m, 40e-9, QuadratureConfig(rtol=1e-3))
    assert res.converged and res.neval < 400_000
    assert res.error >= abs(res.pressure - ref)


def test_real_axis_contour_converges_for_a_mirror_facing_a_drude_metal():
    # the mirror's round trip falls only with the metal's amplitude; the
    # tail past K, tilted off the real axis, still settles
    pair = PerfectMirror(), FresnelReflection(Drude(1e16, 1e14))
    ref = force_imag_axis(*pair, 20e-9, QuadratureConfig(rtol=1e-11)).pressure
    res = force_real_axis(*pair, 20e-9, QuadratureConfig(rtol=1e-3))
    assert res.converged
    assert abs(res.pressure - ref) <= min(res.error, 1e-3 * abs(ref))


def test_real_axis_budget_stops_a_hopeless_contour(monkeypatch):
    # a contour whose Q'L = 1 seed alone outspends the per-node budget
    # stops within one bisection round (30 evaluations) of the seed's
    # allowance; the mirror facing a Drude metal at 20 nm needs over 1,000
    # evaluations at that node
    monkeypatch.setattr(force_module, "_REAL_AXIS_EVALS_PER_NODE", 1_000)
    with pytest.raises(ConvergenceError, match=r"over its budget of 1000 \(1000 per "
                                               r"Q' node of an outer round") as exc_info:
        force_real_axis(PerfectMirror(), FresnelReflection(Drude(1e16, 1e14)), 20e-9,
                        QuadratureConfig(rtol=1e-3))
    spent = int(re.search(r"spent (\d+) integrand", str(exc_info.value)).group(1))
    assert 1_000 < spent <= 1_030


def test_real_axis_budget_spares_a_large_gap():
    # 1 um averages a few hundred evaluations per Q' node and 0.3 M in all,
    # well inside the budget, and meets its tolerance
    m = FresnelReflection(Drude(1e16, 1e14))
    ref = force_imag_axis(m, m, 1e-6, QuadratureConfig(rtol=1e-11)).pressure
    res = force_real_axis(m, m, 1e-6, QuadratureConfig(rtol=1e-3))
    assert res.converged
    assert abs(res.pressure - ref) <= min(res.error, 1e-3 * abs(ref))


def test_real_axis_flags_a_spent_bulk_budget(monkeypatch):
    # the propagating bulk [0, K] of the Q' nodes past the seed runs on 30
    # subdivisions, which one node of 120 spends; its partial sum stands,
    # the error stays below ten times the target, and the result reads
    # non-converged although every other integral settled
    calls = []

    def spy(f, lo, hi, cfg=None):
        lo, hi = np.asarray(lo), np.asarray(hi)
        bulk = lo.ndim == 1 and lo.size > 1 and cfg.atol > 0.0
        if bulk:
            cfg = replace(cfg, max_subdivisions=30)
        out = integrate_many(f, lo, hi, cfg)
        calls.append((bulk, out[2].all()))
        return out

    monkeypatch.setattr(force_module, "integrate_many", spy)
    m = FresnelReflection(Drude(1e16, 1e14))
    res = force_real_axis(m, m, 20e-9, QuadratureConfig(rtol=1e-3))
    assert not res.converged and res.error <= 1e-2 * abs(res.pressure)
    assert any(bulk and not ok for bulk, ok in calls)
    assert all(ok for bulk, ok in calls if not bulk)


def test_inner_integrals_ignore_the_callers_atol():
    # an absolute floor on the outer integral must not reach the inner ones,
    # where it would let tiny inner values stop with a huge relative error
    m = FresnelReflection(Drude(WP, GAMMA))
    want = force_imag_axis(m, m, 1e-7, QuadratureConfig(rtol=1e-8))
    assert force_imag_axis(m, m, 1e-7, QuadratureConfig(rtol=1e-8, atol=1e-30)) == want
    assert want.error < 1e-6 * abs(want.pressure)


def test_real_axis_rejects_nondecaying_round_trip(monkeypatch):
    # constant reflection never decays along the real axis: only Abel
    # summable, so the literal contour must refuse, with the Q'L = 1 node's
    # evanescent, bulk and tail values as its partial sums, plain floats
    segments = []

    def spy(f, lo, hi, cfg=None):
        out = integrate_many(f, lo, hi, cfg)
        if cfg.rtol != 1e-3:  # not the rough pass that sets the floor
            segments.append(out[0])
        return out

    def spy_tail(f, scales, edges, cfg=None):
        out = integrate_semi_infinite_many(f, scales, edges, cfg)
        segments.append(out[0])
        return out

    monkeypatch.setattr(force_module, "integrate_many", spy)
    monkeypatch.setattr(force_module, "integrate_semi_infinite_many", spy_tail)
    m = ConstantReflection(r_s=0.5, r_p=0.5)
    with pytest.raises(ConvergenceError) as exc_info:
        force_real_axis(m, m, 1e-6, QuadratureConfig(rtol=1e-3))
    err = exc_info.value
    assert len(err.partial_sums) == 3
    assert all(type(x) is float for x in err.partial_sums)
    assert err.partial_sums == [v[0] for v in segments]
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
    for L in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="gap width"):
            ideal_casimir_pressure(L)
        with pytest.raises(ValueError, match="gap width"):
            force_imag_axis(m, m, L, CFG)
        with pytest.raises(ValueError, match="gap width"):
            lifshitz_force(Constant(2.0), Constant(2.0), Vacuum(), L, CFG)
        with pytest.raises(ValueError, match="gap width"):
            force_real_axis(m, m, L, QuadratureConfig(rtol=1e-3))


def test_gap_widths_the_prefactors_cannot_hold_are_rejected():
    # L^4 and the ideal pressure must be normal floats: L^4 is subnormal
    # below about 1.2e-77 m, the ideal pressure above about 1.55e70 m, and
    # at 3e74 m the latter underflows to -0.0, which the reduction factor
    # would divide by; the check itself raises no numpy warning
    m = PerfectMirror()
    for L in (1e78, 3e74, 1.56e70, 1.2e-77, 1e-85, 1e-300):
        with pytest.raises(ValueError, match="gap width"):
            ideal_casimir_pressure(L)
        with pytest.raises(ValueError, match="gap width"):
            force_imag_axis(m, m, L, CFG)
        with pytest.raises(ValueError, match="gap width"):
            lifshitz_force(Constant(2.0), Constant(2.0), Vacuum(), L, CFG)
        with pytest.raises(ValueError, match="gap width"):
            force_real_axis(m, m, L, QuadratureConfig(rtol=1e-3))
    with pytest.raises(ValueError, match="gap width"):
        force_imag_axis_many(m, m, [1e-7, 1e78], CFG)
    # the widest and narrowest gaps still give a normal ideal pressure
    for L in (1.55e70, 1.23e-77):
        p = ideal_casimir_pressure(L)
        assert np.finfo(float).tiny <= -p <= np.finfo(float).max


def test_imag_axis_results_are_deterministic():
    m = FresnelReflection(Drude(WP, GAMMA))
    vals = {force_imag_axis(m, m, 1e-7, QuadratureConfig(rtol=1e-8)).pressure
            for _ in range(3)}
    assert len(vals) == 1


def _per_node_imag_axis(r1, r2, L, cfg):
    """Reference: the imaginary-axis pressure in the polar variables (w, t),
    t = v^2, with one scalar inner integral over v per outer node w, as
    (pressure, error, neval, converged).  Same arithmetic and starting
    partitions as force_imag_axis, no batching."""
    inner_cfg = replace(cfg, rtol=max(0.1 * cfg.rtol, 2e-14))
    v_edges = force_module._V_EDGES
    neval = [0]
    inner_rel = [0.0]
    converged = [True]

    def amplitudes(model, xi, Q):
        if isinstance(model, FresnelReflection):
            return kernels.fresnel_rs_rp_iw(model.dielectric.eval_iw(xi), xi / C_LIGHT, Q)
        return model.imag_axis(xi, Q)

    def inner(w):
        def g(idx, v):
            t = v * v
            xi = w * t * (C_LIGHT / L)
            Q = w * np.sqrt((1.0 - t) * (1.0 + t)) / L
            rs1, rp1 = amplitudes(r1, xi, Q)
            rs2, rp2 = amplitudes(r2, xi, Q)
            neval[0] += v.size
            return kernels.force_integrand_wt(w, rs1 * rs2, rp1 * rp2) * (2.0 * v)

        # one integral from the (1, m) start
        v, e, ok = integrate_many(g, v_edges[None, :-1], v_edges[None, 1:], inner_cfg)
        converged[0] = converged[0] and bool(ok[0])
        return w * w * w * float(v[0]), w * w * w * float(e[0])

    def f(idx, ws):
        out = np.empty_like(ws)
        for i, w in enumerate(ws):
            v, e = inner(float(w))
            if v != 0.0:
                inner_rel[0] = max(inner_rel[0], e / abs(v))
            out[i] = v
        return out

    vals, errs, ok = integrate_semi_infinite_many(f, [1.0], force_module._OUTER_EDGES, cfg)
    val, err = float(vals[0]), float(errs[0])
    converged[0] = converged[0] and bool(ok[0])
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
    k_a = kin.normal(eps)
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


@pytest.mark.parametrize("rtol", [1e-6, 1e-7, 1e-8])
def test_thin_film_error_covers_the_deviation(rtol):
    # a 20 nm film's outer integrand rises steeply from xi = 0; the error
    # estimate must still cover the actual deviation
    film = MultilayerReflection(LayerStack(layers=((19.81e-9, Drude(WP, GAMMA)),),
                                           substrate=Constant(4.15605)))
    metal = FresnelReflection(Drude(WP, GAMMA))
    ref = force_imag_axis(film, metal, 1.009e-6, QuadratureConfig(rtol=1e-11))
    res = force_imag_axis(film, metal, 1.009e-6, QuadratureConfig(rtol=rtol))
    assert res.converged and ref.converged
    assert abs(res.pressure - ref.pressure) <= res.error + ref.error


@functools.lru_cache(maxsize=None)
def _film_at_473_nm(rtol):
    film = MultilayerReflection(
        LayerStack(layers=((2e-8, Drude(WP, GAMMA)),), substrate=Constant(4.0)))
    L = float(np.geomspace(5e-8, 1e-6, 5)[3])
    return force_imag_axis(film, FresnelReflection(Drude(WP, GAMMA)), L,
                           QuadratureConfig(rtol=rtol))


@pytest.mark.parametrize("rtol", [1e-5, 1e-6, 1e-7])
def test_outer_integral_does_not_stop_early_with_a_small_error(rtol):
    # from one panel, the outer w-integral at this gap stopped after one
    # bisection, both halves' Kronrod-Gauss differences small by chance:
    # the deviation was 0.48, 2.35 and 5.49 times the error
    ref = _film_at_473_nm(1e-12)
    res = _film_at_473_nm(rtol)
    assert res.converged and ref.converged
    assert abs(res.pressure - ref.pressure) <= res.error


# the evaluations each Drude-gold gap costs at rtol 1e-8; a change that
# gives back what the power-law variables and their starting partitions
# save, or what reading the decay check from the first scoring pass saves,
# shows here
IMAG_AXIS_NEVAL = {5e-8: 10_950, 2e-7: 8_280, 1e-6: 5_550}
LIFSHITZ_NEVAL = {5e-8: 8_340, 2e-7: 8_700, 1e-6: 8_760}


def test_nested_integrals_pin_their_evaluations():
    d = Drude(WP, GAMMA)
    m = FresnelReflection(d)
    cfg = QuadratureConfig(rtol=1e-8)
    imag = force_imag_axis_many(m, m, list(IMAG_AXIS_NEVAL), cfg)
    lif = lifshitz_force_many(d, d, Vacuum(), list(LIFSHITZ_NEVAL), cfg)
    assert [res.neval for res in imag] == list(IMAG_AXIS_NEVAL.values())
    assert [res.neval for res in lif] == list(LIFSHITZ_NEVAL.values())
    # the starting panels count against the budget: ten still run out
    budget = QuadratureConfig(rtol=1e-12, max_subdivisions=10)
    assert not force_imag_axis(m, m, 1e-7, budget).converged
    assert not lifshitz_force(d, d, Vacuum(), 1e-7, budget).converged


@pytest.mark.parametrize("rtol", [1e-4, 1e-8])
def test_outer_split_removes_only_discarded_work(monkeypatch, rtol):
    # every imaginary-axis outer integral bisected the old tail panel
    # [0.7, 1]; starting from its halves gives the same pressures, bit for
    # bit, without that parent's nodes and their inner integrals
    metal = FresnelReflection(Drude(WP, GAMMA))
    film = MultilayerReflection(
        LayerStack(layers=((2e-8, Drude(WP, GAMMA)),), substrate=Constant(4.0)))
    pairs = [(PerfectMirror(), PerfectMirror()),
             (ConstantReflection(0.7, -0.6), ConstantReflection(0.5, -0.8)),
             (metal, metal), (FresnelReflection(GOLD_TABLE),) * 2, (film, metal)]
    gaps, cfg = (1e-8, 1e-6, 1e-5), QuadratureConfig(rtol=rtol)
    for pair in pairs:
        new = force_imag_axis_many(*pair, gaps, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(force_module, "_OUTER_EDGES", np.array([0.0, 0.4, 0.7, 1.0]))
            old = force_imag_axis_many(*pair, gaps, cfg)
        assert [(r.pressure, r.converged) for r in new] == \
            [(r.pressure, r.converged) for r in old]
        assert all(a.neval < b.neval for a, b in zip(new, old))


@functools.lru_cache(maxsize=None)
def _census_slice():
    return census.census(full=False)[0]


def test_census_slice_is_converged_covered_and_within_rtol():
    # Drude gold, plasma and eps = 4 on both paths, the film and mirror
    # pairs facing gold on the imaginary axis, at 10 nm and 1 um and rtol
    # 1e-4, 1e-6 and 1e-8, each against its rtol-1e-12 reference
    rows = _census_slice()
    assert len(rows) == 48
    for row in rows:
        assert row.converged, row
        assert row.deviation <= row.error, row
        assert row.deviation <= row.rtol * abs(row.reference), row


def test_real_axis_census_rows_are_converged_covered_and_within_rtol():
    # Drude(1e16, 1e14) at 10, 20 and 40 nm, rtol 1e-3 and 1e-5, and at
    # 500 nm, rtol 1e-3, each against the rtol-1e-12 imaginary axis
    rows, _ = census.real_axis_census()
    assert len(rows) == 7
    for row in rows:
        assert row.converged, row
        assert row.deviation <= row.error, row
        assert row.deviation <= row.rtol * abs(row.reference), row


def _linear_variables(monkeypatch, run):
    """``run()`` in the variables before the power laws: the Lifshitz outer
    p = 1 + x with its p^2 weight in Python float pow, the imaginary-axis
    inner t itself, each from its own starting partition."""
    def p_variable(xs):
        ps = 1.0 + xs
        return ps, np.array([p ** 2 for p in ps.tolist()])

    with monkeypatch.context() as mp:
        mp.setattr(force_module, "_p_variable", p_variable)
        mp.setattr(force_module, "_t_variable", lambda vs: (vs, np.ones_like(vs)))
        mp.setattr(force_module, "_P_EDGES", np.array([0.0, 0.5, 0.9, 0.99, 1.0]))
        mp.setattr(force_module, "_V_EDGES", np.array([0.0, 0.001, 0.01, 0.05, 0.2, 1.0]))
        return run()


def test_graded_partitions_cost_less_and_stay_covered(monkeypatch):
    # the census slice: fewer evaluations on each path than in the linear
    # variables, no row changes its converged flag, and each pressure lies
    # within its own error of its reference
    new = _census_slice()
    old, _ = _linear_variables(monkeypatch, lambda: census.census(full=False))
    for a, b in zip(new, old):
        assert (a.case, a.path, a.gap, a.rtol) == (b.case, b.path, b.gap, b.rtol)
        assert a.converged == b.converged
        assert a.deviation <= a.error
    for path in ("imaginary-axis", "lifshitz"):
        assert sum(r.neval for r in new if r.path == path) < \
            sum(r.neval for r in old if r.path == path)


def test_lifshitz_budget_exhaustion_keeps_the_full_weight():
    # p = (1 + x)^2 = 1/(1 - u)^2, and the weight is p^2 dp/dx, not p^2
    # alone; inner integrals that run out of subdivisions still carry it,
    # so the partial result stays close to the converged pressure
    xs = np.array([0.0, 0.3, 1.0, 7.5, 1e3])
    ps, weight = force_module._p_variable(xs)
    us = xs / (1.0 + xs)
    assert ps == pytest.approx(1.0 / (1.0 - us) ** 2, rel=1e-9)
    assert weight == pytest.approx(ps ** 2 * (2.0 * (1.0 + xs)), rel=4e-16)
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
    # every gap keeps its own outer and inner panels, so batching the gaps
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
        # a budget that only the narrowest gap exhausts
        "some_budget": (metal, metal, (1e-9, 1e-8, 1e-6, 1e-4),
                        QuadratureConfig(rtol=1e-10, max_subdivisions=12)),
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


def test_lifshitz_builds_a_shared_tables_interpolant_once(monkeypatch):
    # eps2 is eps1 (identical slabs, as the CLI passes them): the
    # Kramers-Kronig continuation builds the table's interpolant once, and
    # only the xi outside the interpolant's range reach it later.  The
    # outer p reaches past 10^7, where the smallest inner xi node falls
    # below the interpolant's 1e8 rad/s edge: 144 of the two calls' 9,000
    # evaluations (1.6 %), bounded with a quarter's margin
    continued = []
    kk = dielectric._continue_table

    def counted(table, xi):
        continued.extend(xi.tolist())
        return kk(table, xi)

    monkeypatch.setattr(dielectric, "_continue_table", counted)
    assert load_optical_table(GOLD_PATH)._chebyshev is not None
    per_build = len(continued)
    continued.clear()
    gold = Tabulated(load_optical_table(GOLD_PATH))
    neval = 0
    for L in (1e-7, 1e-6):
        res = lifshitz_force(gold, gold, Vacuum(), L, QuadratureConfig(rtol=1e-4))
        assert res.converged
        neval += res.neval
    beyond = continued[per_build:]
    assert all(xi < 1e8 or xi > 1e22 for xi in beyond)
    assert len(beyond) < 0.02 * neval and per_build < res.neval
