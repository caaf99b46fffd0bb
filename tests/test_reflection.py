import numpy as np
import pytest

from casimir import (
    Constant,
    ConstantReflection,
    Drude,
    DrudeLorentz,
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
    fresnel,
    impedance_to_reflection,
    vacuum_impedance,
)
from casimir import kernels
from casimir.constants import C_LIGHT
from casimir.reflection import branch_sqrt, medium_normal_wavevector

WP = 1.37e16
GAMMA = 5.3e13


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
    assert kin.kappa == pytest.approx(np.hypot(2e6, 1e15 / C_LIGHT), rel=1e-14)


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
        k_a = medium_normal_wavevector(eps, kin)
        for pol, Z in (("s", kin.q / k_a), ("p", k_a / (eps * kin.q))):
            direct = fresnel(model, pol, kin)
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
    rs, rp = model.imag_axis(np.array([xi]))(np.zeros(Q.size, dtype=int), Q)
    rs_ref = model.amplitude("s", Q, 1j * xi)
    rp_ref = model.amplitude("p", Q, 1j * xi)
    np.testing.assert_allclose(rs, np.real(rs_ref), rtol=1e-12)
    np.testing.assert_allclose(rp, np.real(rp_ref), rtol=1e-12)


def test_imag_axis_matches_amplitude_for_every_model():
    # three nodes, interleaved in idx as the lockstep quadrature hands them over
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
        got = model.imag_axis(xi)(idx, Q)
        for pol, r in zip(("s", "p"), got):
            want = np.real(model.amplitude(pol, Q, 1j * xi[idx]))
            assert r.dtype == float
            np.testing.assert_allclose(r, want, rtol=1e-12)


def test_imag_axis_rejects_complex_constant():
    with pytest.raises(ValueError, match="not real"):
        ConstantReflection(r_s=0.4 + 0.1j, r_p=-0.2).imag_axis(np.array([1e15]))


def test_imag_axis_continues_tabulated_eps_once_per_node(monkeypatch):
    # Fresnel and multilayer slabs bind eps once per node, never per point:
    # count the xi values that reach the Kramers-Kronig continuation
    from casimir import dielectric
    continued = []
    kk = dielectric._continue_table

    def counted(table, xi):
        continued.extend(xi.tolist())
        return kk(table, xi)

    monkeypatch.setattr(dielectric, "_continue_table", counted)
    omega = np.geomspace(1e13, 1e18, 200)
    gold = Tabulated(OpticalTable(omega=omega, im_eps=Drude(WP, GAMMA).eval(omega).imag))
    xi = np.array([3e13, 2e15, 7e16])
    idx = np.tile([2, 0, 1], 8)
    Q = np.geomspace(1e4, 1e8, idx.size)

    amplitudes = FresnelReflection(gold).imag_axis(xi)
    assert len(continued) == xi.size
    amplitudes(idx, Q)
    assert len(continued) == xi.size

    continued.clear()
    film = MultilayerReflection(LayerStack(layers=((2e-8, gold),), substrate=gold))
    amplitudes = film.imag_axis(xi)
    assert len(continued) == 2 * xi.size
    amplitudes(idx, Q)
    assert len(continued) == 2 * xi.size


def test_multilayer_imag_axis_array_eps_keeps_the_per_node_bits():
    # each medium is evaluated in one array call; the amplitudes equal those
    # built from one scalar eval per node and medium
    from casimir.reflection import _stack_reflection
    rng = np.random.default_rng(5)
    layers = ((2e-8, Drude(WP, GAMMA)), (5e-9, DrudeLorentz(1.5, ((2.0, 3e15, 1e14),))),
              (1e-8, Plasma(WP)))
    stack = LayerStack(layers=layers, substrate=Constant(4.0))
    xi = np.geomspace(1e11, 1e19, 2000)
    idx = rng.integers(0, xi.size, 500)
    Q = np.geomspace(1e3, 1e9, idx.size)
    got = MultilayerReflection(stack).imag_axis(xi)(idx, Q)

    def per_node(medium):
        return np.array([complex(medium.eval(1j * x)) for x in xi.tolist()])

    want = _stack_reflection(stack, per_node(stack.substrate)[idx],
                             [per_node(m)[idx] for _, m in layers],
                             WaveKinematics.create(Q, 1j * xi[idx]))
    for g, w in zip(got, want):
        assert g.tolist() == w.real.tolist()


def test_fresnel_imag_axis_matches_per_node_scalar_eps_bit_for_bit():
    # binding the nodes as one array must give, to the bit, what one node
    # at a time gives (Plasma's scalar and array eval_iw share one formula)
    model = FresnelReflection(Plasma(WP))
    xi = np.geomspace(1e12, 1e18, 20000)
    Q = np.full(xi.size, 1e6)
    got = model.imag_axis(xi)(np.arange(xi.size), Q)
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
    amplitudes = ImpedanceReflection(impedance=impedance).imag_axis(xi)
    for round_ in (1, 2):
        amplitudes(idx, Q)
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
    # amplitude derives from pair; a model states its coefficients only there
    pending = list(ReflectionModel.__subclasses__())
    assert pending
    while pending:
        cls = pending.pop()
        assert "amplitude" not in vars(cls), cls
        pending.extend(cls.__subclasses__())


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
    rs, rp = model.imag_axis(np.array([1e15]))(np.zeros(Q.size, dtype=int), Q)
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
