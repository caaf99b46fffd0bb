import numpy as np
import pytest

from casimir import (
    Constant,
    Drude,
    DrudeLorentz,
    FrequencyDomainError,
    OpticalTable,
    OpticalTableError,
    Plasma,
    Tabulated,
    Vacuum,
    load_optical_table,
    permittivity_from_table,
)

WP = 1.37e16
GAMMA = 5.3e13


def test_vacuum_is_unity_everywhere():
    xs = np.array([1e12, 1e15, 1e18])
    assert np.all(Vacuum().eval(xs) == 1.0)
    assert np.all(Vacuum().eval_iw(xs) == 1.0)


def test_frequency_axis_validation():
    with pytest.raises(FrequencyDomainError):
        Drude(WP, GAMMA).eval(1.0 + 1.0j)
    with pytest.raises(FrequencyDomainError):
        Drude(WP, GAMMA).eval(-1e15)
    with pytest.raises(FrequencyDomainError):
        Drude(WP, GAMMA).eval_iw(-1e15)
    with pytest.raises(FrequencyDomainError):
        Drude(WP, GAMMA).eval(0.0)  # Drude diverges at zero frequency


def test_constructor_validation():
    with pytest.raises(ValueError):
        Constant(0.5)
    with pytest.raises(ValueError):
        Plasma(-1.0)
    with pytest.raises(ValueError):
        Drude(WP, 0.0)
    with pytest.raises(ValueError):
        DrudeLorentz(eps_inf=0.2, oscillators=((1.0, 1e15, 1e13),))


def test_drude_real_axis_matches_closed_form():
    rng = np.random.default_rng(11)
    w = rng.uniform(1e13, 1e17, 200)
    got = Drude(WP, GAMMA).eval(w)
    want = 1.0 - WP ** 2 / (w * (w + 1j * GAMMA))
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_imag_axis_values_are_real_and_exceed_unity():
    rng = np.random.default_rng(5)
    xi = rng.uniform(1e12, 1e17, 500)
    for model in (Plasma(WP), Drude(WP, GAMMA),
                  DrudeLorentz(1.5, ((2.0, 8e15, 1e14),))):
        eps = model.eval_iw(xi)
        assert np.all(np.isreal(eps))
        assert np.all(eps >= 1.0)


def test_imag_axis_agrees_with_generic_route():
    # the compiled kernels must match eval(i xi) bit-for-bit in structure
    xi = np.geomspace(1e12, 1e17, 40)
    for model in (Plasma(WP), Drude(WP, GAMMA)):
        np.testing.assert_allclose(model.eval_iw(xi),
                                   np.real(model.eval(1j * xi)), rtol=1e-14)


def test_imag_axis_scalar_input_returns_scalar():
    v = Drude(WP, GAMMA).eval_iw(1e15)
    assert isinstance(v, float)


def test_imag_axis_monotone_decreasing():
    # eps(i xi) must decrease towards 1 with growing xi for these metals
    xi = np.geomspace(1e12, 1e18, 100)
    for model in (Plasma(WP), Drude(WP, GAMMA)):
        eps = model.eval_iw(xi)
        assert np.all(np.diff(eps) < 0.0)


def test_drude_lorentz_static_limit():
    model = DrudeLorentz(1.0, ((3.0, 5e15, 2e14),))
    # eps(i xi) -> eps_inf + sum S_j for xi -> 0
    assert model.eval_iw(1e6) == pytest.approx(4.0, rel=1e-10)


def test_passivity_on_real_axis():
    rng = np.random.default_rng(3)
    w = rng.uniform(1e12, 1e18, 300)
    for model in (Drude(WP, GAMMA), DrudeLorentz(1.2, ((1.5, 3e15, 5e13),))):
        assert np.all(model.eval(w).imag >= 0.0)


def test_optical_table_validation():
    with pytest.raises(OpticalTableError):
        OpticalTable(omega=np.array([1e15]), im_eps=np.array([0.1]))
    with pytest.raises(OpticalTableError):
        OpticalTable(omega=np.array([2e15, 1e15]), im_eps=np.array([0.1, 0.1]))
    with pytest.raises(OpticalTableError):
        OpticalTable(omega=np.array([1e15, 2e15]), im_eps=np.array([0.1, -0.1]))
    with pytest.raises(OpticalTableError):
        OpticalTable(omega=np.array([1e15, 2e15]), im_eps=np.array([0.1]))


def test_load_optical_table_diagnostics(tmp_path):
    good = tmp_path / "ok.dat"
    good.write_text("# comment\n1e15 0.5\n2e15 0.25  # inline\n")
    table = load_optical_table(good)
    assert table.omega.size == 2
    assert table.re_eps is None

    bad_cols = tmp_path / "cols.dat"
    bad_cols.write_text("1e15 0.5 1.0 9\n2e15 0.2 1.0 9\n")
    with pytest.raises(OpticalTableError, match="columns"):
        load_optical_table(bad_cols)

    bad_num = tmp_path / "num.dat"
    bad_num.write_text("1e15 abc\n2e15 0.2\n")
    with pytest.raises(OpticalTableError, match="non-numeric"):
        load_optical_table(bad_num)

    with pytest.raises(OpticalTableError, match="not found"):
        load_optical_table(tmp_path / "missing.dat")


def _drude_table(n=240):
    w = np.geomspace(1e12, 3e17, n)
    eps = 1.0 - WP ** 2 / (w * (w + 1j * GAMMA))
    return OpticalTable(omega=w, im_eps=eps.imag, re_eps=eps.real)


def test_kk_continuation_reproduces_drude():
    table = _drude_table()
    dr = Drude(WP, GAMMA)
    for xi in np.geomspace(1e14, 1e16, 15):
        got = permittivity_from_table(table, xi)
        assert got == pytest.approx(float(dr.eval_iw(xi)), rel=1e-2)


def test_tabulated_model_round_trip():
    model = Tabulated(table=_drude_table())
    w = np.array([1e15, 5e15])
    got = model.eval(w)
    want = 1.0 - WP ** 2 / (w * (w + 1j * GAMMA))
    # real-axis values are linearly interpolated on the stored grid
    np.testing.assert_allclose(got, want, rtol=1e-2)
    xi = np.array([1e15, 3e15])
    np.testing.assert_allclose(model.eval_iw(xi), Drude(WP, GAMMA).eval_iw(xi),
                               rtol=1e-2)


def test_tabulated_without_re_column_rejects_real_axis():
    table = OpticalTable(omega=np.array([1e15, 2e15]), im_eps=np.array([0.3, 0.1]))
    model = Tabulated(table=table)
    with pytest.raises(FrequencyDomainError):
        model.eval(1.5e15)


def test_constant_eval_at_real_frequency():
    assert Constant(4.0).eval(1e15) == pytest.approx(4.0)


def test_kk_continuation_of_insulator_data():
    # a single Lorentz oscillator: omega Im eps rises across the first grid
    # points, so the low tail is the linear insulator one, not Drude-type
    osc = DrudeLorentz(1.0, ((2.0, 3e15, 3e14),))
    w = np.linspace(1e15, 6e15, 200)
    table = OpticalTable(omega=w, im_eps=osc.eval(w).imag)
    for xi in np.geomspace(1e13, 1e17, 9):
        got = permittivity_from_table(table, xi)
        assert got == pytest.approx(float(osc.eval_iw(xi)), rel=1e-2)


@pytest.mark.parametrize("model", [Plasma(WP), Drude(WP, GAMMA)], ids=["plasma", "drude"])
def test_scalar_and_array_eval_iw_agree_bit_for_bit(model):
    xi = np.geomspace(1e12, 1e18, 20000)
    scalar = np.array([model.eval_iw(x) for x in xi.tolist()])
    assert np.array_equal(model.eval_iw(xi), scalar)
