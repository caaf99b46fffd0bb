import warnings

import numpy as np
import pytest

from casimir import (
    Constant,
    ConstantReflection,
    Drude,
    DrudeLorentz,
    FrequencyDomainError,
    FresnelReflection,
    ImpedanceReflection,
    LayerStack,
    MultilayerReflection,
    OpticalTable,
    PerfectMirror,
    Plasma,
    ReflectionModel,
    SingularKinematicsError,
    Tabulated,
    Vacuum,
    WaveKinematics,
    impedance_to_reflection,
    vacuum_impedance,
)
from casimir import kernels
from casimir.constants import C_LIGHT
from casimir import reflection
from casimir.reflection import _RotatedKinematics, _stack_reflection, branch_sqrt

WP = 1.37e16
GAMMA = 5.3e13


def _two_pass_branch_sqrt(z):
    """The outgoing branch in two passes: flip the roots with Im < 0, then
    those with Im = 0 and Re < 0."""
    w = np.sqrt(np.asarray(z, dtype=complex))
    w = np.where(w.imag < 0.0, -w, w)
    return np.where((w.imag == 0.0) & (w.real < 0.0), -w, w)


def test_branch_sqrt_outgoing_convention():
    # Im >= 0 everywhere; Re >= 0 on the branch line
    rng = np.random.default_rng(21)
    z = rng.normal(size=300) + 1j * rng.normal(size=300)
    w = branch_sqrt(z)
    assert np.all(w.imag >= 0.0)
    np.testing.assert_allclose(w * w, z, rtol=1e-13, atol=1e-13)
    neg = branch_sqrt(np.array([-4.0]))
    assert neg[0] == pytest.approx(2j)
    pos = branch_sqrt(np.array([9.0]))
    assert pos[0] == pytest.approx(3.0)
    # numpy's principal root has Re >= 0, so the one flip pass gives the
    # two-pass bits, signed zeros, subnormals, infinities and NaN included
    parts = [0.0, -0.0, 5e-324, -3e-310, 1.0, -1.0, 2.5, -1e308, 1e308,
             np.inf, -np.inf, np.nan]
    edge = np.array([complex(a, b) for a in parts for b in parts])
    for values in (z, edge, np.array(parts), -rng.exponential(size=50)):
        got, want = branch_sqrt(values), _two_pass_branch_sqrt(values)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_kinematics_dispersion_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        Q = rng.uniform(0.0, 3e7)
        w = rng.uniform(1e14, 1e16)
        for freq in (w, 1j * w):
            kin = WaveKinematics.create(Q, freq)
            assert kin.q ** 2 == pytest.approx(Q ** 2 + kin.k ** 2, rel=1e-12)


def test_kinematics_imag_axis_decay_constant():
    kin = WaveKinematics.create(2e6, 1j * 1e15)
    assert kin.k.imag > 0.0 and kin.k.real == 0.0
    assert kin.k.imag == pytest.approx(np.hypot(2e6, 1e15 / C_LIGHT), rel=1e-14)


def test_vacuum_impedance_rejects_grazing():
    kin = WaveKinematics.create(1e15 / C_LIGHT, 1e15)
    with pytest.raises(SingularKinematicsError):
        vacuum_impedance("s", kin)


def test_impedance_route_equals_fresnel():
    # exact agreement for any Q, including deep evanescent kinematics
    rng = np.random.default_rng(9)
    model = Drude(WP, GAMMA)
    for _ in range(200):
        w = rng.uniform(1e14, 5e16)
        Q = rng.uniform(0.0, 50.0) * w / C_LIGHT  # up to 50x the light line
        kin = WaveKinematics.create(Q, w)
        eps = model.eval(w)
        k_a = kin.normal(eps)
        for pol, Z in (("s", kin.q / k_a), ("p", k_a / (eps * kin.q))):
            direct = FresnelReflection(model).amplitude(pol, Q, w)
            mapped = impedance_to_reflection(Z, vacuum_impedance(pol, kin))
            assert abs(direct - mapped) < 1e-12


def test_perfect_mirror_amplitude():
    mirror = PerfectMirror()
    assert mirror.amplitude("s", 1e6, 1e15) == -1.0
    assert mirror.amplitude("p", 1e6, 1e15) == -1.0
    with pytest.raises(ValueError):
        mirror.amplitude("x", 1e6, 1e15)


def test_fresnel_passivity_and_imag_axis_reality():
    # |r| <= 1 holds for propagating incidence; evanescent real-frequency
    # kinematics may legitimately exceed it (surface-mode region)
    rng = np.random.default_rng(17)
    model = FresnelReflection(Drude(WP, GAMMA))
    for _ in range(100):
        w = rng.uniform(1e14, 1e17)
        Q = rng.uniform(0.01, 0.95) * w / C_LIGHT
        for pol in ("s", "p"):
            assert abs(model.amplitude(pol, Q, w)) <= 1.0 + 1e-12
            r_imag = model.amplitude(pol, rng.uniform(1e4, 1e8), 1j * w)
            assert abs(np.imag(r_imag)) < 1e-12


def test_imag_axis_amplitudes_fast_path_matches_generic():
    model = FresnelReflection(Drude(WP, GAMMA))
    Q = np.geomspace(1e4, 1e8, 30)
    xi = 2e15
    rs, rp = model.imag_axis(np.full(Q.size, xi), Q)
    rs_ref = model.amplitude("s", Q, 1j * xi)
    rp_ref = model.amplitude("p", Q, 1j * xi)
    np.testing.assert_allclose(rs, np.real(rs_ref), rtol=1e-12)
    np.testing.assert_allclose(rp, np.real(rp_ref), rtol=1e-12)


def test_imag_axis_matches_amplitude_for_every_model():
    # three frequencies, interleaved point by point as the lockstep quadrature
    # hands them over
    xi = np.array([3e13, 2e15, 7e16])
    idx = np.tile([2, 0, 1], 8)
    Q = np.geomspace(1e4, 1e8, idx.size)
    omega = np.geomspace(1e13, 1e18, 200)
    gold = Tabulated(OpticalTable(omega=omega, im_eps=Drude(WP, GAMMA).eval(omega).imag))
    metal = Drude(WP, GAMMA)
    models = (
        PerfectMirror(),
        ConstantReflection(r_s=0.4, r_p=-0.2),
        FresnelReflection(metal),
        FresnelReflection(Plasma(WP)),
        FresnelReflection(DrudeLorentz(1.5, ((2.0, 3e15, 3e14),))),
        FresnelReflection(gold),
        MultilayerReflection(LayerStack(layers=((2e-8, metal),), substrate=Constant(4.0))),
        ImpedanceReflection(impedance=lambda pol, Q, freq: 0.1 * vacuum_impedance(
            pol, WaveKinematics.create(Q, freq))),
    )
    for model in models:
        got = model.imag_axis(xi[idx], Q)
        for pol, r in zip(("s", "p"), got):
            want = np.real(model.amplitude(pol, Q, 1j * xi[idx]))
            assert r.dtype == float
            np.testing.assert_allclose(r, want, rtol=1e-12)


def test_real_axis_kinematics_match_amplitude_for_every_model():
    # the contour's own k, i s on the evanescent segment and real on the
    # propagating one, with real q and freq, gives the amplitudes of the
    # complex kinematics at omega = c q; a mirror and real constant
    # amplitudes come out as real arrays
    rng = np.random.default_rng(41)
    Q = rng.uniform(1e6, 1e7, 40)
    phi = rng.uniform(0.05, 1.4, Q.size)
    kp = rng.uniform(0.05, 5.0, Q.size) * Q
    omega = np.geomspace(1e13, 1e17, 300)
    eps = Drude(WP, GAMMA).eval(omega)
    gold = Tabulated(OpticalTable(omega=omega, im_eps=eps.imag, re_eps=eps.real))
    metal = Drude(WP, GAMMA)
    models = (
        FresnelReflection(metal),
        FresnelReflection(Plasma(WP)),
        FresnelReflection(DrudeLorentz(1.5, ((2.0, 3e15, 3e14),))),
        FresnelReflection(Constant(4.0)),
        FresnelReflection(gold),
        MultilayerReflection(LayerStack(layers=((2e-8, metal), (1e-8, gold)),
                                        substrate=Constant(4.0))),
        PerfectMirror(),
        ConstantReflection(r_s=0.4, r_p=-0.2),
        ConstantReflection(r_s=0.4 + 0.1j, r_p=-0.2),
        ImpedanceReflection(impedance=lambda pol, Q, freq: np.full(
            np.broadcast(Q, freq).shape, 0.3 + 0.2j if pol == "s" else 2.0 + 0.5j)),
    )
    for q, k in ((Q * np.cos(phi), 1j * (Q * np.sin(phi))), (np.hypot(Q, kp), kp)):
        kin = WaveKinematics.real_axis(Q, q, k)
        assert kin.freq.dtype == float
        for model in models:
            got = model.pair(kin)
            real = model in (PerfectMirror(), ConstantReflection(r_s=0.4, r_p=-0.2))
            for pol, r in zip(("s", "p"), got):
                assert (r.dtype == float) == real
                np.testing.assert_allclose(r, model.amplitude(pol, Q, C_LIGHT * q),
                                           rtol=1e-12)


def test_real_axis_kinematics_refuse_frequencies_off_the_real_axis():
    # on and above the real axis only: Re q > 0 and Im q >= 0; NaN fails
    Q, k = np.array([1e6, 1e6]), np.array([1e6, 1e6])
    for q in ([2e6, 0.0], [2e6, -1e6], [np.nan, 2e6], [2e6, 2e6 - 1e3j],
              [2e6, -2e6 + 1e3j], [2e6, 1e3j], [2e6, complex(np.nan, 1.0)]):
        with pytest.raises(FrequencyDomainError, match="Re omega > 0 and Im omega >= 0"):
            WaveKinematics.real_axis(Q, np.array(q), k)
    with pytest.raises(ValueError, match="Q must be >= 0"):
        WaveKinematics.real_axis(np.array([-1.0, 1e6]), np.array([2e6, 2e6]), k)


def test_real_axis_kinematics_continue_above_the_real_axis():
    # complex q with Im q >= 0, as on the tilted tail k = K + iy of the
    # real-axis contour, gives complex freq = c q and the amplitudes of the
    # permittivity formulas continued there; real q keeps freq real
    Q = np.full(3, 2e7)
    k = 8e7 + 1j * np.array([0.0, 1e6, 3e7])
    q = np.sqrt(Q * Q + k * k)
    kin = WaveKinematics.real_axis(Q, q, k)
    assert kin.freq.dtype == complex
    np.testing.assert_array_equal(kin.freq, C_LIGHT * q)
    assert WaveKinematics.real_axis(Q, q.real, k.real).freq.dtype == float
    for medium in (Drude(WP, GAMMA), Plasma(WP), Constant(4.0), Vacuum(),
                   DrudeLorentz(1.5, ((2.0, 3e15, 3e14),))):
        eps = medium._eval(C_LIGHT * q)
        k_a = np.sqrt(eps * q * q - Q * Q)
        rs, rp = FresnelReflection(medium).pair(kin)
        np.testing.assert_allclose(rs, (k - k_a) / (k + k_a), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(rp, (k_a - eps * k) / (k_a + eps * k),
                                   rtol=1e-12, atol=1e-15)


def test_tabulated_without_re_column_refuses_real_axis_kinematics():
    # the table's own check survives the unchecked formula call
    omega = np.geomspace(1e13, 1e17, 200)
    gold = Tabulated(OpticalTable(omega=omega, im_eps=Drude(WP, GAMMA).eval(omega).imag))
    kin = WaveKinematics.real_axis(1e6, np.array([2e6]), np.array([np.sqrt(3.0) * 1e6]))
    with pytest.raises(FrequencyDomainError, match="Re eps"):
        FresnelReflection(gold).pair(kin)


def test_imag_axis_rejects_complex_constant():
    with pytest.raises(ValueError, match="not real"):
        ConstantReflection(r_s=0.4 + 0.1j, r_p=-0.2).imag_axis(np.array([1e15]),
                                                              np.array([1e6]))


def test_imag_axis_builds_a_shared_tables_interpolant_once(monkeypatch):
    # the Kramers-Kronig continuation runs only to build the table's
    # interpolant, once per table object, never per point
    from casimir import dielectric
    continued = []
    kk = dielectric._continue_table

    def counted(table, xi):
        continued.extend(xi.tolist())
        return kk(table, xi)

    monkeypatch.setattr(dielectric, "_continue_table", counted)
    omega = np.geomspace(1e13, 1e18, 200)
    gold = Tabulated(OpticalTable(omega=omega, im_eps=Drude(WP, GAMMA).eval(omega).imag))
    xi = np.geomspace(1e11, 1e19, 3000)
    Q = np.geomspace(1e4, 1e8, xi.size)

    FresnelReflection(gold).imag_axis(xi[:3], Q[:3])
    built = len(continued)
    assert gold.table._chebyshev is not None and built < xi.size
    FresnelReflection(gold).imag_axis(xi, Q)
    film = MultilayerReflection(LayerStack(layers=((2e-8, gold),), substrate=gold))
    film.imag_axis(xi, Q)
    assert len(continued) == built


def test_multilayer_imag_axis_array_eps_keeps_the_per_node_bits():
    # each medium is evaluated in one array call on every point; the
    # amplitudes equal those built from one scalar eval_iw per point and
    # medium, in the rotated variables
    rng = np.random.default_rng(5)
    layers = ((2e-8, Drude(WP, GAMMA)), (5e-9, DrudeLorentz(1.5, ((2.0, 3e15, 1e14),))),
              (1e-8, Plasma(WP)))
    stack = LayerStack(layers=layers, substrate=Constant(4.0))
    xi = np.geomspace(1e11, 1e19, 2000)
    idx = rng.integers(0, xi.size, 500)
    Q = np.geomspace(1e3, 1e9, idx.size)
    got = MultilayerReflection(stack).imag_axis(xi[idx], Q)

    def per_node(medium):
        return np.array([medium.eval_iw(x) for x in xi.tolist()])

    want = _stack_reflection(stack, per_node(stack.substrate)[idx],
                             [per_node(m)[idx] for _, m in layers],
                             _RotatedKinematics(xi[idx], Q))
    for g, w in zip(got, want):
        assert g.dtype == float and g.tolist() == w.tolist()


def _stack_reflection_per_polarization(stack, eps_sub, eps_layers, kin):
    """The stack recursion with each medium's k_a and each layer's 1 + e
    and 1 - e, e its round-trip phase, recomputed for each polarization."""
    def characteristic_impedance(eps, pol):
        k_a = kin.normal(eps)
        if pol == "s":
            return kin.q / k_a, k_a
        return k_a / (eps * kin.q), k_a

    pair = []
    for pol in ("s", "p"):
        Z = np.zeros_like(kin.q) if eps_sub is None else characteristic_impedance(eps_sub, pol)[0]
        for (d, _), eps in zip(reversed(stack.layers), reversed(eps_layers)):
            Zc, k_a = characteristic_impedance(eps, pol)
            plus, minus = 1.0 + np.exp(kin.phase * k_a * d), -np.expm1(kin.phase * k_a * d)
            Z = Zc * (Z * plus + Zc * minus) / (Z * minus + Zc * plus)
        pair.append(impedance_to_reflection(Z, vacuum_impedance(pol, kin)))
    return tuple(pair)


@pytest.mark.parametrize("axis", ["real", "imaginary"])
@pytest.mark.parametrize("substrate", [Drude(WP, GAMMA), "mirror"], ids=["drude", "mirror"])
@pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
def test_stack_recursion_shares_wavevectors_bit_for_bit(axis, substrate, n_layers):
    # one k_a per medium and one phase per layer for both polarizations
    # must give the bits of the per-polarization recursion
    layers = ((2.3e-8, Drude(WP, GAMMA)), (7e-9, DrudeLorentz(1.5, ((2.0, 3e15, 1e14),))),
              (1.1e-8, Constant(2.25)))[:n_layers]
    stack = LayerStack(layers=layers, substrate=substrate)
    rng = np.random.default_rng(15 + n_layers)
    w = np.geomspace(1e12, 1e17, 400)
    # propagating and evanescent on the real axis: Q from 0 to 3 w/c
    Q = rng.uniform(0.0, 3.0, w.size) * w / C_LIGHT
    kin = WaveKinematics.create(Q, w) if axis == "real" else _RotatedKinematics(w, Q)
    eps_sub = None if substrate == "mirror" else kin.eps(substrate)
    eps_layers = [kin.eps(m) for _, m in layers]
    got = _stack_reflection(stack, eps_sub, eps_layers, kin)
    want = _stack_reflection_per_polarization(stack, eps_sub, eps_layers, kin)
    for g, x in zip(got, want):
        assert np.array_equal(g.view(np.uint64), x.view(np.uint64))


def test_fresnel_imag_axis_matches_per_node_scalar_eps_bit_for_bit():
    # one array call on every point must give, to the bit, what one point
    # at a time gives (Plasma's scalar and array eval_iw share one formula)
    model = FresnelReflection(Plasma(WP))
    xi = np.geomspace(1e12, 1e18, 20000)
    Q = np.full(xi.size, 1e6)
    got = model.imag_axis(xi, Q)
    want = np.array([kernels.fresnel_rs_rp_iw(float(model.dielectric.eval_iw(x)),
                                              x / C_LIGHT, Q[:1])
                     for x in xi.tolist()])[:, :, 0].T
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_imag_axis_hands_impedance_array_frequencies():
    # one call per polarization per round, on every point at once
    seen = []

    def impedance(pol, Q, freq):
        seen.append((pol, np.array(freq)))
        return 0.1 * vacuum_impedance(pol, WaveKinematics.create(Q, freq))

    xi = np.array([3e13, 2e15])
    idx = np.array([1, 0, 1, 0])
    Q = np.full(idx.size, 1e6)
    model = ImpedanceReflection(impedance=impedance)
    for round_ in (1, 2):
        model.imag_axis(xi[idx], Q)
        assert [pol for pol, _ in seen] == ["s", "p"] * round_
    for _, freq in seen:
        assert freq.shape == Q.shape
        assert np.array_equal(freq, 1j * xi[idx])


def test_pair_matches_amplitude_for_every_model():
    rng = np.random.default_rng(31)
    metal = Drude(WP, GAMMA)
    models = (PerfectMirror(), ConstantReflection(r_s=0.4, r_p=-0.2),
              FresnelReflection(metal),
              MultilayerReflection(LayerStack(layers=((2e-8, metal),), substrate=Constant(4.0))),
              ImpedanceReflection(impedance=lambda pol, Q, freq: 0.1 * vacuum_impedance(
                  pol, WaveKinematics.create(Q, freq))))
    for model in models:
        Q = rng.uniform(1e4, 1e8, 20)
        w = rng.uniform(1e14, 1e17)
        for freq in (w, 1j * w):
            rs, rp = model.pair(WaveKinematics.create(Q, freq))
            assert np.array_equal(rs, model.amplitude("s", Q, freq))
            assert np.array_equal(rp, model.amplitude("p", Q, freq))
            with pytest.raises(ValueError, match="polarization"):
                model.amplitude("x", Q, freq)


def test_no_model_overrides_amplitude():
    # amplitude and imag_axis derive from pair; a model states its
    # coefficients only there
    pending = list(ReflectionModel.__subclasses__())
    assert pending
    while pending:
        cls = pending.pop()
        assert "amplitude" not in vars(cls), cls
        assert "imag_axis" not in vars(cls), cls
        pending.extend(cls.__subclasses__())


def test_imag_axis_builds_no_complex_kinematics(monkeypatch):
    # every model's pair runs on the real, rotated kinematics
    def refuse(*args, **kwargs):
        raise AssertionError("imag_axis built a complex WaveKinematics")

    monkeypatch.setattr(reflection.WaveKinematics, "create", refuse)
    omega = np.geomspace(1e13, 1e18, 200)
    gold = Tabulated(OpticalTable(omega=omega, im_eps=Drude(WP, GAMMA).eval(omega).imag))
    metal = Drude(WP, GAMMA)
    models = (
        FresnelReflection(metal),
        FresnelReflection(Plasma(WP)),
        FresnelReflection(DrudeLorentz(1.5, ((2.0, 3e15, 3e14),))),
        FresnelReflection(gold),
        MultilayerReflection(LayerStack(layers=((2e-8, gold),), substrate=Constant(4.0))),
        MultilayerReflection(LayerStack(layers=((2e-8, metal),), substrate="mirror")),
        PerfectMirror(),
        ConstantReflection(r_s=0.4, r_p=-0.2),
    )
    xi = np.geomspace(1e12, 1e18, 30)
    Q = np.geomspace(1e4, 1e8, xi.size)
    for model in models:
        for r in model.imag_axis(xi, Q):
            assert isinstance(r, np.ndarray) and r.dtype == float and r.shape == xi.shape


@pytest.mark.parametrize("model", [
    FresnelReflection(Constant(4.0)),
    MultilayerReflection(LayerStack((), Constant(4.0))),
    MultilayerReflection(LayerStack(((1e-8, Constant(4.0)),), Drude(WP, GAMMA))),
], ids=["fresnel", "stack", "layer"])
def test_real_axis_medium_at_k_a_zero_is_singular(model):
    # eps q^2 = Q^2 puts k_a on its branch point: every medium of every
    # model refuses it, before any division
    w = 1e15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularKinematicsError, match="k_a = 0"):
            model.pair(WaveKinematics.create(2.0 * w / C_LIGHT, w))


def test_normal_incidence_polarizations_coincide():
    # in this convention both amplitudes equal (1-n)/(1+n) at Q = 0, so the
    # polarizations are indistinguishable there and both tend to -1 for a mirror
    model = FresnelReflection(Constant(4.0))
    w = 1e15
    rs = model.amplitude("s", 0.0, w)
    rp = model.amplitude("p", 0.0, w)
    assert rs == pytest.approx(rp, rel=1e-12)
    assert rs == pytest.approx((1.0 - 2.0) / (1.0 + 2.0), rel=1e-12)  # (1-n)/(1+n)


def test_multilayer_zero_contrast_is_transparent():
    stack = LayerStack(layers=((1e-7, Vacuum()),), substrate=Vacuum())
    for pol in ("s", "p"):
        assert abs(MultilayerReflection(stack).amplitude(pol, 1e6, 1e15)) < 1e-14


def test_multilayer_thick_layer_equals_bulk():
    # 30 skin depths of metal over anything looks semi-infinite
    metal = Drude(WP, GAMMA)
    depth = 30.0 * C_LIGHT / WP
    stack = LayerStack(layers=((depth, metal),), substrate=Vacuum())
    model = MultilayerReflection(stack)
    bulk = FresnelReflection(metal)
    xi = 3e15
    Q = np.geomspace(1e5, 1e8, 20)
    for pol in ("s", "p"):
        got = model.amplitude(pol, Q, 1j * xi)
        want = bulk.amplitude(pol, Q, 1j * xi)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)


def test_multilayer_mirror_substrate_at_zero_thickness_limit():
    stack = LayerStack(layers=((1e-25, Vacuum()),), substrate="mirror")
    model = MultilayerReflection(stack)
    for pol in ("s", "p"):
        assert model.amplitude(pol, 1e6, 1j * 1e15) == pytest.approx(-1.0, rel=1e-10)


def test_multilayer_is_real_on_imag_axis():
    stack = LayerStack(layers=((5e-8, Drude(WP, GAMMA)), (2e-8, Constant(2.25))),
                       substrate=Constant(5.0))
    model = MultilayerReflection(stack)
    Q = np.geomspace(1e5, 1e8, 10)
    rs, rp = model.imag_axis(np.full(Q.size, 1e15), Q)
    assert np.all(np.abs(rs) <= 1.0)
    assert np.all(np.abs(rp) <= 1.0)


def test_layer_stack_validation():
    with pytest.raises(ValueError):
        LayerStack(layers=((0.0, Vacuum()),), substrate=Vacuum())
    with pytest.raises(TypeError):
        LayerStack(layers=((1e-8, "metal"),), substrate=Vacuum())
    with pytest.raises(TypeError):
        LayerStack(layers=(), substrate="gold")


def test_impedance_reflection_custom_surface():
    # a surface matching vacuum reflects nothing
    model = ImpedanceReflection(
        impedance=lambda pol, Q, freq: vacuum_impedance(
            pol, WaveKinematics.create(Q, freq)))
    assert abs(model.amplitude("s", 1e6, 1e15)) < 1e-14
