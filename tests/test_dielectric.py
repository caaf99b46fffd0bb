import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from casimir import (
    Constant,
    ConstantReflection,
    DielectricModel,
    Drude,
    DrudeLorentz,
    FrequencyDomainError,
    OpticalTable,
    OpticalTableError,
    Plasma,
    Tabulated,
    Vacuum,
    load_optical_table,
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
        Drude(WP, GAMMA).eval_iw(np.array([1e15, np.nan]))
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


@pytest.mark.parametrize("build", [
    lambda: Drude(np.nan, 1e14), lambda: Drude(1e16, np.nan), lambda: Drude(np.inf, 1e14),
    lambda: Plasma(np.nan), lambda: Plasma(np.inf), lambda: Constant(np.inf),
    lambda: DrudeLorentz(eps_inf=np.nan, oscillators=()),
    lambda: DrudeLorentz(eps_inf=np.inf, oscillators=()),
    lambda: DrudeLorentz(eps_inf=1.0, oscillators=((np.nan, 1e15, 1e13),)),
    lambda: DrudeLorentz(eps_inf=1.0, oscillators=((1.0, np.nan, 1e13),)),
    lambda: DrudeLorentz(eps_inf=1.0, oscillators=((1.0, 1e15, np.inf),)),
    lambda: ConstantReflection(r_s=np.nan, r_p=0.5),
    lambda: ConstantReflection(r_s=0.5, r_p=complex(0.0, np.inf)),
])
def test_models_refuse_non_finite_parameters(build):
    # NaN fails every comparison, so a sign check alone lets it through to a
    # force call, which would then fail as a non-finite integrand
    with pytest.raises(ValueError, match="finite|bad oscillator"):
        build()


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
    for model in (Plasma(WP), Drude(WP, GAMMA), DrudeLorentz(1.5, ((2.0, 8e15, 1e14),)),
                  Constant(4.0)):
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


@pytest.mark.parametrize("column, value", [
    ("omega", np.inf), ("im_eps", np.nan), ("im_eps", np.inf), ("re_eps", np.nan),
    ("re_eps", -np.inf),
])
def test_optical_table_rejects_non_finite_values(column, value):
    # a NaN Im eps would pass the passivity check, as NaN < 0 is false
    cols = {"omega": np.array([1e15, 2e15, 3e15]), "im_eps": np.array([0.3, 0.2, 0.1]),
            "re_eps": np.array([-5.0, -2.0, -1.0])}
    cols[column][-1] = value
    with pytest.raises(OpticalTableError, match="must be finite"):
        OpticalTable(**cols)


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

    # a ragged table, one data row, and tables with none: refused, with no
    # warning of numpy's on the way
    for name, text, match in (("ragged.dat", "1e15 0.5\n2e15 0.25 1.0\n", "columns"),
                              ("one.dat", "1e15 0.5\n", "at least 2 data rows, got 1"),
                              ("empty.dat", "", "at least 2 data rows, got 0"),
                              ("comments.dat", "# omega Im_eps\n\n", "got 0")):
        (tmp_path / name).write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OpticalTableError, match=match):
                load_optical_table(tmp_path / name)


def _drude_table(n=240):
    w = np.geomspace(1e12, 3e17, n)
    eps = 1.0 - WP ** 2 / (w * (w + 1j * GAMMA))
    return OpticalTable(omega=w, im_eps=eps.imag, re_eps=eps.real)


def test_kk_continuation_reproduces_drude():
    table = _drude_table()
    dr = Drude(WP, GAMMA)
    for xi in np.geomspace(1e14, 1e16, 15):
        got = Tabulated(table).eval_iw(xi)
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


def test_tabulated_refuses_frequencies_off_both_axes():
    # the unchecked formula, which the real-axis kinematics call, refuses a
    # frequency above the real axis rather than read its real part alone
    omega = np.geomspace(1e13, 1e17, 50)
    eps = Drude(WP, GAMMA).eval(omega)
    model = Tabulated(OpticalTable(omega=omega, im_eps=eps.imag, re_eps=eps.real))
    for freq in ([1e15 + 1e12j], [1e15, 2e15 + 1e-3j], [1e15, 1e15j]):
        with pytest.raises(FrequencyDomainError, match="off the real and imaginary axes"):
            model._eval(np.array(freq))
    np.testing.assert_array_equal(model._eval(np.array([1e15 + 0j])),
                                  model._eval(np.array([1e15])))


def test_constant_eval_at_real_frequency():
    assert Constant(4.0).eval(1e15) == pytest.approx(4.0)


def test_constant_takes_a_complex_value_on_the_real_line():
    # a complex value with zero imaginary part is its real part; any other
    # complex value is refused as not real, not by a failed comparison, and
    # NaN, which fails every comparison, is refused too
    for value in (4 + 0j, np.complex128(4.0)):
        model = Constant(value)
        assert model == Constant(4.0) and type(model.eps_r) is float
        assert model.eval_iw(np.array([1e15])).tolist() == [4.0]
    for value in (4 + 1e-3j, 0.5 + 0j, float("nan"), complex("nan")):
        with pytest.raises(ValueError, match="real >= 1"):
            Constant(value)


def test_kk_continuation_of_insulator_data():
    # a single Lorentz oscillator: omega Im eps rises across the first grid
    # points, so the low tail is the linear insulator one, not Drude-type
    osc = DrudeLorentz(1.0, ((2.0, 3e15, 3e14),))
    w = np.linspace(1e15, 6e15, 200)
    table = OpticalTable(omega=w, im_eps=osc.eval(w).imag)
    for xi in np.geomspace(1e13, 1e17, 9):
        got = Tabulated(table).eval_iw(xi)
        assert got == pytest.approx(float(osc.eval_iw(xi)), rel=1e-2)


@pytest.mark.parametrize("model", [Plasma(WP), Drude(WP, GAMMA), Vacuum(), Constant(4.0),
                                   DrudeLorentz(1.5, ((2.0, 3e15, 3e14),))],
                         ids=["plasma", "drude", "vacuum", "constant", "drude_lorentz"])
def test_scalar_and_array_eval_iw_agree_bit_for_bit(model):
    xi = np.geomspace(1e12, 1e18, 20000)
    scalar = np.array([model.eval_iw(x) for x in xi.tolist()])
    assert np.array_equal(model.eval_iw(xi), scalar)
    if isinstance(model, (Vacuum, Constant)):
        # their own eps(i xi) keeps the bits of the generic complex route
        assert model.eval_iw(xi).tobytes() == np.real(model.eval(1j * xi)).tobytes()


def _kk_oracle(table, xi):
    """eps(i xi) of the table's model at 40 digits, from the antiderivatives
    of each linear segment and the partial fractions of the tails."""
    w = [mp.mpf(float(v)) for v in table.omega]
    y = [mp.mpf(float(v)) for v in table.im_eps]
    x = mp.mpf(float(xi))

    def segment(a, b, om):  # antiderivative of om (a + b om) / (om^2 + x^2)
        return a / 2 * mp.log(om * om + x * x) + b * (om - x * mp.atan(om / x))

    total = mp.mpf(0)
    for i in range(len(w) - 1):
        b = (y[i + 1] - y[i]) / (w[i + 1] - w[i])
        total += segment(y[i] - b * w[i], b, w[i + 1]) - segment(y[i] - b * w[i], b, w[i])
    ratio = y[0] * w[0] / (y[1] * w[1])
    b2 = (w[1] ** 2 - ratio * w[0] ** 2) / (ratio - 1) if ratio > 1 else mp.mpf(-1)
    if b2 > 0:
        amp = y[0] * w[0] * (w[0] ** 2 + b2)
        total += amp / (x * x - b2) * (mp.atan(w[0] / mp.sqrt(b2)) / mp.sqrt(b2)
                                       - mp.atan(w[0] / x) / x)
    else:
        total += y[0] / w[0] * (w[0] - x * mp.atan(w[0] / x))
    total += y[-1] * w[-1] ** 3 / x ** 2 * (1 / w[-1] - mp.atan(x / w[-1]) / x)
    return 1 + 2 / mp.pi * total


def test_kk_continuation_matches_a_40_digit_oracle():
    gold = load_optical_table(Path(__file__).resolve().parents[1] / "data" / "gold_drude.dat")
    osc = DrudeLorentz(1.0, ((2.0, 3e15, 3e14),))
    w = np.linspace(1e15, 6e15, 200)
    insulator = OpticalTable(omega=w, im_eps=osc.eval(w).imag)
    # B of the gold table's Drude-type low tail, where its partial
    # fractions have a removable 1/(xi - B)
    ratio = gold.im_eps[0] * gold.omega[0] / (gold.im_eps[1] * gold.omega[1])
    B = np.sqrt((gold.omega[1] ** 2 - ratio * gold.omega[0] ** 2) / (ratio - 1.0))
    xi = np.concatenate([np.geomspace(1e10, 1e19, 8),
                         [B, B * (1.0 + 1e-9), B * (1.0 - 1e-9), gold.omega[37]]])
    with mp.workdps(40):
        for table in (gold, insulator):
            model = Tabulated(table)
            scalar = [model.eval_iw(x) for x in xi.tolist()]
            assert np.array_equal(model.eval_iw(xi), scalar)
            oracle = [_kk_oracle(table, x) for x in xi.tolist()]
            worst = max(abs(float(got / want - 1)) for got, want in zip(scalar, oracle))
            assert worst <= 1e-14
            # at xi >> omega_p eps - 1 falls to 2e-7, where an error confined
            # to it would hide under the bound on eps: check it relative to
            # itself, allowing 2e-15 for rounding 1 + (eps - 1)
            excess = [abs(float((got - 1) / (want - 1) - 1)) - 2e-15 / float(want - 1)
                      for got, want in zip(scalar, oracle) if want - 1 > 1e-8]
            assert len(excess) == xi.size and max(excess) <= 1e-14


def test_kk_continuation_matches_the_oracle_from_near_slices_and_far_moments():
    # from 1e6 rad/s, where every segment of the tables lies above 10 xi, to
    # 1e24 rad/s, where every one lies below xi / 10, and on either side of
    # the points where a node enters or leaves the near slice
    with mp.workdps(40):
        for table in _gold_insulator_coarse():
            n = table.omega.size
            xi = np.concatenate([np.geomspace(1e6, 1e24, 25),
                                 _either_side_of_the_slice_edges(table, [n // 2, n - 1])])
            got = Tabulated(table).eval_iw(xi)
            oracle = [_kk_oracle(table, x) for x in xi.tolist()]
            worst = max(abs(float(g / want - 1)) for g, want in zip(got, oracle))
            assert worst <= 1e-14
            excess = [abs(float((g - 1) / (want - 1) - 1)) - 2e-15 / float(want - 1)
                      for g, want in zip(got, oracle) if want - 1 > 1e-8]
            assert max(excess) <= 1e-14


def test_far_moment_sums_match_a_40_digit_oracle():
    # the doubling scan against the plain running sums, node by node, of
    # each segment's exact moments: Int Im eps om^(2k+1) d om / w_m^(2k+2)
    # over the segments below node m, Int Im eps om^(-2k-1) d om w_h^(2k)
    # over those above node h
    with mp.workdps(40):
        for table in _gold_insulator_coarse():
            w = [mp.mpf(float(v)) for v in table.omega]
            y = [mp.mpf(float(v)) for v in table.im_eps]
            below, lo_node, above, hi_node = table._far_moments
            assert lo_node[0] == 0.0 and hi_node[-1] == np.inf
            for k in range(len(below)):
                want_below, want_above = np.zeros(len(w)), np.zeros(len(w))
                total = mp.mpf(0)
                for i in range(len(w) - 1):
                    total += _segment_moment(w, y, i, 2 * k + 1)
                    want_below[i + 1] = total / w[i + 1] ** (2 * k + 2)
                total = mp.mpf(0)
                for i in range(len(w) - 2, -1, -1):
                    total += _segment_moment(w, y, i, -2 * k - 1)
                    want_above[i] = total * w[i] ** (2 * k)
                for got, want in ((below[k], want_below), (above[k], want_above)):
                    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def _segment_moment(w, y, i, p):
    """Int Im eps om^p d om over segment i, Im eps linear on it."""
    b = (y[i + 1] - y[i]) / (w[i + 1] - w[i])
    a = y[i] - b * w[i]

    def antiderivative(om):
        return a * (mp.log(om) if p == -1 else om ** (p + 1) / (p + 1)) + b * om ** (p + 2) / (p + 2)

    return antiderivative(w[i + 1]) - antiderivative(w[i])


def test_table_interpolant_matches_the_closed_form_or_steps_aside(monkeypatch):
    # inside [1e8, 1e22] rad/s eps(i xi) comes from the table's interpolant,
    # outside it from the closed form itself; a table whose interpolant
    # fails its build-time check keeps the closed form everywhere
    from casimir import dielectric
    gold = load_optical_table(Path(__file__).resolve().parents[1] / "data" / "gold_drude.dat")
    xi = np.geomspace(1e9, 1e21, 3001)
    exact = dielectric._continue_table(gold, xi)
    got = Tabulated(gold).eval_iw(xi)
    assert gold._chebyshev is not None and not np.array_equal(got, exact)
    assert np.max(np.abs(got / exact - 1.0)) <= 1e-14
    beyond = np.array([1e6, 9.9e7, 1.01e22, 1e24])
    assert np.array_equal(Tabulated(gold).eval_iw(beyond),
                          dielectric._continue_table(gold, beyond))

    monkeypatch.setattr(dielectric, "_CHEB_RTOL", 0.0)
    strict = load_optical_table(Path(__file__).resolve().parents[1] / "data" / "gold_drude.dat")
    assert strict._chebyshev is None
    assert np.array_equal(Tabulated(strict).eval_iw(xi), exact)


def _reference_t_minus_arctan(t):
    s = np.fmin(t, 0.1)
    s2 = s * s
    acc = 0.0
    for k in range(15, 1, -2):
        acc = 1.0 / k - s2 * acc
    return np.where(t < 0.1, s * s2 * acc, t - np.arctan(t))


def _reference_continue_table(table, xi):
    """The split continuation written as plain expressions, one xi at a
    time: the closed form on the segments within a factor 10 of xi, the
    table's moment sums for the others; without the in-place buffers, the
    flat (xi, segment) rows or the skipped arctan pass."""
    moments = table._far_moments
    return np.concatenate([_reference_continue_one(table, moments, xi[i:i + 1])
                           for i in range(xi.size)])


def _reference_continue_one(table, moments, xi):
    w, y = table.omega, table.im_eps
    below, lo_node, above, hi_node = moments
    # segments [0, m) lie below xi / 10, [h, N) above 10 xi
    m = max(np.searchsorted(w, 0.1 * xi[0], side="right") - 1, 0)
    h = min(np.searchsorted(w, xi[0] / 0.1), w.size - 1)
    r2, s2 = (lo_node[m] / xi) ** 2, (xi / hi_node[h]) ** 2
    p = u = 0.0
    for k in range(len(below) - 1, -1, -1):
        p = below[k, m] - r2 * p
        u = above[k, h] - s2 * u
    main = r2 * p + u
    if h > m:
        w0, w1, y0, y1 = w[m:h], w[m + 1:h + 1], y[m:h], y[m + 1:h + 1]
        dw = w1 - w0
        ww = w0 * w1
        den = xi * xi + ww
        j0 = 0.5 * np.log1p(dw * (w1 + w0) / (w0 * w0 + xi * xi))
        j1 = dw * ww / den + xi * _reference_t_minus_arctan(xi * dw / den)
        main = main + np.add.reduceat((y0 * (w1 * j0 - j1) + y1 * (j1 - w0 * j0)) / dw, [0])
    y1w1, y2w2 = y[0] * w[0], y[1] * w[1]
    low = 0.0
    b2 = 0.0
    if y2w2 > 0.0 and y1w1 > y2w2:
        ratio = y1w1 / y2w2
        b2 = (w[1] ** 2 - ratio * w[0] ** 2) / (ratio - 1.0)
    if b2 > 0.0:
        b = np.sqrt(b2)
        amp = y1w1 * (w[0] ** 2 + b2)
        c = b * xi + w[0] ** 2
        z = w[0] * (xi - b) / c
        atanc = np.divide(np.arctan(z), z, out=np.ones_like(z), where=z != 0.0)
        low = amp / (b * xi * (xi + b)) * (np.arctan(w[0] / b) + b * w[0] / c * atanc)
    elif y1w1 > 0.0:
        low = (y[0] / w[0]) * xi * _reference_t_minus_arctan(w[0] / xi)
    high = 0.0
    if y[-1] > 0.0:
        r = w[-1] / xi
        high = y[-1] * (r * r * r) * _reference_t_minus_arctan(xi / w[-1])
    return 1.0 + (2.0 / np.pi) * (low + main + high)


def _gold_insulator_coarse():
    gold = load_optical_table(Path(__file__).resolve().parents[1] / "data" / "gold_drude.dat")
    osc = DrudeLorentz(1.0, ((2.0, 3e15, 3e14),))
    w = np.linspace(1e15, 6e15, 200)
    insulator = OpticalTable(omega=w, im_eps=osc.eval(w).imag)
    # five rows a factor 5.6 apart: the segments' t = xi dw / (xi^2 + w0 w1)
    # pass 0.1, so the main term takes the arctan branch too
    coarse_w = np.geomspace(1e14, 1e17, 5)
    coarse = OpticalTable(omega=coarse_w, im_eps=Drude(WP, GAMMA).eval(coarse_w).imag)
    return gold, insulator, coarse


def test_continue_table_is_the_plain_expression_bit_for_bit():
    from casimir import dielectric
    gold, insulator, coarse = _gold_insulator_coarse()
    xi = np.exp(np.random.default_rng(5).uniform(np.log(1e6), np.log(1e24), 2000))
    # the coarse table's near slices reach the arctan branch
    cw = coarse.omega
    t = xi[:, None] * np.diff(cw) / (xi[:, None] ** 2 + cw[:-1] * cw[1:])
    near = (cw[1:] > 0.1 * xi[:, None]) & (cw[:-1] < xi[:, None] / 0.1)
    assert t[near].max() > 0.1
    for table in (gold, insulator, coarse):
        got = dielectric._continue_table(table, xi)
        assert got.tobytes() == _reference_continue_table(table, xi).tobytes()


def _either_side_of_the_slice_edges(table, nodes=slice(None)):
    """xi within 4 ulp of each point where a node of the table crosses
    xi / 10 or 10 xi, so that a segment enters or leaves its near slice."""
    edges = np.concatenate([table.omega[nodes] / 0.1, table.omega[nodes] * 0.1])
    return (edges[:, None] * (1.0 + np.array([-4.0, -1.0, 0.0, 1.0, 4.0]) * 2.0 ** -52)).ravel()


def test_each_xi_gets_the_bits_it_gets_alone():
    # the near slice of a xi depends on xi alone, never on the other xi of
    # the call or their order, so a call equals its one-xi calls bit for bit
    from casimir import dielectric
    rng = np.random.default_rng(11)
    for table in _gold_insulator_coarse():
        xi = rng.permutation(np.concatenate([_either_side_of_the_slice_edges(table),
                                             np.geomspace(1e6, 1e24, 200)]))
        alone = [dielectric._continue_table(table, xi[i:i + 1]) for i in range(xi.size)]
        assert dielectric._continue_table(table, xi).tobytes() == np.concatenate(alone).tobytes()


def test_the_gold_build_integrates_few_terms_in_closed_form(monkeypatch):
    # the interpolant's 1,344 continuations take the closed form only on
    # their near slices: at most 60,000 (xi, segment) terms, against
    # 321,216 for every segment of every xi
    from casimir import dielectric
    terms = []
    near = dielectric._near_sums

    def counted(w, y, x, s, starts):
        terms.append(x.size)
        return near(w, y, x, s, starts)

    monkeypatch.setattr(dielectric, "_near_sums", counted)
    assert _gold_insulator_coarse()[0]._chebyshev is not None
    assert 0 < sum(terms) <= 60_000


def _reference_clenshaw(coef, x):
    b1 = b2 = 0.0
    for j in range(coef.shape[1] - 1, 0, -1):
        b1, b2 = coef[:, j] + 2.0 * x * b1 - b2, b1
    return coef[:, 0] + x * b1 - b2


def test_clenshaw_is_the_plain_recurrence_bit_for_bit():
    from casimir import dielectric
    coef = _gold_insulator_coarse()[0]._chebyshev
    rng = np.random.default_rng(3)
    k = rng.integers(0, coef.shape[0], 20000)
    x = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, k.size - 3)])
    got = dielectric._clenshaw(coef[k], x)
    assert got.tobytes() == _reference_clenshaw(coef[k], x).tobytes()


def test_blocked_interpolant_build_is_the_single_pass_build_bit_for_bit(monkeypatch):
    # _continue_table works through the near slices of its xi in blocks;
    # the interpolant built from it equals one built from the plain
    # expression evaluated one xi at a time, and passes or fails its check
    # alike
    from casimir import dielectric
    mid, half = dielectric._CHEB_MID[:, None], dielectric._CHEB_HALF[:, None]
    n = dielectric._CHEB_N
    theta = (np.arange(n) + 0.5) * (np.pi / n)
    cos = np.cos(np.arange(n)[:, None] * theta)
    x = np.array([-1.0, 0.0, 1.0])
    tables = _gold_insulator_coarse()
    passed = []
    for table in tables:
        f = _reference_continue_table(table, (mid + half * np.cos(theta)).ravel())
        coef = (2.0 / n) * np.add.reduce(f.reshape(-1, 1, n) * cos, axis=2)
        coef[:, 0] *= 0.5
        got = _reference_clenshaw(np.repeat(coef, x.size, axis=0), np.tile(x, mid.size))
        want = _reference_continue_table(table, (mid + half * x).ravel())
        ok = not np.any(np.abs(got - want) > dielectric._CHEB_RTOL * np.abs(want))
        blocked = dielectric._chebyshev_of_table(table)
        assert (blocked is not None) == ok
        passed.append(ok)
        monkeypatch.setattr(dielectric, "_CHEB_RTOL", np.inf)
        assert dielectric._chebyshev_of_table(table).tobytes() == coef.tobytes()
        monkeypatch.undo()
    assert passed == [True, True, False]


def test_frequencies_are_checked_in_the_base_eval_alone():
    # a model states its formula in _eval; eval checks the frequencies once
    # and is never overridden, so callers that checked them already (the
    # wave kinematics) call _eval directly
    pending = list(DielectricModel.__subclasses__())
    assert len(pending) >= 6
    while pending:
        cls = pending.pop()
        assert "eval" not in vars(cls) and "_eval" in vars(cls), cls
        pending.extend(cls.__subclasses__())
    for model, freq in ((Vacuum(), 0.0), (Constant(4.0), 0.0), (Drude(WP, GAMMA), 1e15)):
        assert np.array_equal(model.eval(freq), model._eval(np.asarray(freq, dtype=complex)))
    with pytest.raises(FrequencyDomainError):
        Plasma(WP).eval(0.0)


def test_a_model_that_overrides_eval_alone_is_refused_where_it_is_defined():
    # the wave kinematics call _eval, which such a model would not reach;
    # defining it raises a TypeError that names _eval instead
    with pytest.raises(TypeError, match="_eval"):
        class _OwnEval(DielectricModel):
            def eval(self, freq):
                return np.full_like(np.asarray(freq, dtype=complex), 2.0)

    with pytest.raises(TypeError, match="_eval"):
        class _OwnDrude(Drude):
            def eval(self, freq):
                return super().eval(freq)

    class _NoFormula(DielectricModel):
        pass

    with pytest.raises(NotImplementedError, match="_NoFormula.*_eval"):
        _NoFormula().eval(1e15)
