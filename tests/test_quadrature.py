import heapq

import numpy as np
import pytest

from casimir import (
    ConvergenceError,
    QuadratureConfig,
    integrate,
    integrate_semi_infinite,
    quadrature,
)
from casimir.errors import DivergenceError
from casimir.quadrature import (
    _EPS,
    _PANEL_ERRSTATE,
    _WG,
    _WGK,
    _XGK,
    _panels,
    integrate_many,
    integrate_semi_infinite_many,
    panel_results,
)


def test_polynomial_is_exact():
    # GK15 integrates degree <= 22 exactly; check a mid-degree case
    val, err = integrate(lambda x: 5.0 * x ** 4, 0.0, 1.0)
    assert val == pytest.approx(1.0, rel=1e-14)
    assert err < 1e-12


def test_oscillatory_integral():
    val, _ = integrate(np.sin, 0.0, 20.0, QuadratureConfig(rtol=1e-12))
    assert val == pytest.approx(1.0 - np.cos(20.0), rel=1e-11)


def test_error_estimate_covers_true_error():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.1, 5.0)
        val, err = integrate(lambda x: np.exp(-a * x) * np.cos(b * x), 0.0, 10.0,
                             QuadratureConfig(rtol=1e-10))
        exact = (a - np.exp(-10 * a) * (a * np.cos(10 * b) - b * np.sin(10 * b))) \
            / (a * a + b * b)
        assert abs(val - exact) <= max(err, 1e-13 * abs(exact))


def test_integrable_endpoint_singularity():
    val, _ = integrate(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0,
                       QuadratureConfig(rtol=1e-9, max_subdivisions=100000))
    assert val == pytest.approx(2.0, rel=1e-6)


def test_budget_exhaustion_carries_best_estimate():
    cfg = QuadratureConfig(rtol=1e-13, max_subdivisions=10)
    with pytest.raises(ConvergenceError) as exc_info:
        integrate(lambda x: np.cos(50.0 * x ** 2), 0.0, 10.0, cfg)
    err = exc_info.value
    assert np.isfinite(err.value)
    assert err.error > 0.0


def test_semi_infinite_exponential_decay():
    cfg = QuadratureConfig(rtol=1e-11)
    val, _ = integrate_semi_infinite(lambda x: x * np.exp(-x), 0.0, cfg)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_semi_infinite_algebraic_decay():
    # 1/(1+x)^2 from 0 to inf = 1; slow decay stresses the transform
    val, _ = integrate_semi_infinite(lambda x: (1.0 + x) ** -2, 0.0,
                                     QuadratureConfig(rtol=1e-11))
    assert val == pytest.approx(1.0, rel=1e-9)


def test_semi_infinite_shifted_origin():
    val, _ = integrate_semi_infinite(lambda x: np.exp(-(x - 2.0)), 2.0,
                                     QuadratureConfig(rtol=1e-11))
    assert val == pytest.approx(1.0, rel=1e-9)


def test_non_decaying_integrand_is_flagged():
    with pytest.raises(DivergenceError):
        integrate_semi_infinite(lambda x: np.ones_like(x), 0.0)


def test_results_are_deterministic():
    def f(x):
        return np.exp(-x) * np.sin(7.0 * x)

    runs = {integrate(f, 0.0, 30.0, QuadratureConfig(rtol=1e-11))[0] for _ in range(5)}
    assert len(runs) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rtol=0.5)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=2)
    with pytest.raises(ValueError):
        integrate(np.exp, 1.0, 1.0)


def _score(fx, half):
    with np.errstate(**_PANEL_ERRSTATE):
        return _panels(fx, half)


def _random_rows(rng, n):
    """Rows of 15 node values scaled by 1e-30..1e30: half noise, half a
    smooth exponential, whose small Kronrod-Gauss gap takes the scaled
    branch of the error rule."""
    noise = rng.standard_normal((n, 15))
    smooth = np.exp(rng.uniform(-3.0, 3.0, (n, 1)) * _XGK)
    rows = np.where(rng.random((n, 1)) < 0.5, noise, smooth)
    return rows * 10.0 ** rng.uniform(-30.0, 30.0, (n, 1)), 10.0 ** rng.uniform(-3.0, 3.0, n)


def test_panel_pass_is_row_independent():
    # a row gets the same bits whatever rows share its batch
    rng = np.random.default_rng(11)
    rows, halves = _random_rows(rng, 40)
    for i in range(rows.shape[0]):
        alone = _score(rows[i:i + 1], halves[i:i + 1])
        for companions in (1, 2, 7, 100):
            batch, hb = _random_rows(rng, companions + 1)
            at = rng.integers(companions + 1)
            batch[at], hb[at] = rows[i], halves[i]
            value, err = _score(batch, hb)
            assert (value[at], err[at]) == (alone[0][0], alone[1][0])


def _textbook_panel(fx, half):
    """QUADPACK's panel rule for one row, written with 1-D dot products;
    also returns resabs."""
    resk = _WGK @ fx
    resg = _WG @ fx[1::2]
    resabs = _WGK @ np.abs(fx)
    resasc = _WGK @ np.abs(fx - 0.5 * resk)
    err = abs((resk - resg) * half)
    asc = resasc * half
    if asc > 0.0 and err > 0.0:
        err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
    return resk * half, max(err, 50.0 * _EPS * resabs * half), resabs


def test_panel_pass_agrees_with_the_textbook_rule():
    rng = np.random.default_rng(3)
    fx = rng.standard_normal((5000, 15)) * np.exp(rng.uniform(-50.0, 50.0, (5000, 1)))
    half = np.exp(rng.uniform(-5.0, 5.0, 5000))
    values, errors = _score(fx, half)
    for row, h, value, err in zip(fx, half, values, errors):
        want, want_err, resabs = _textbook_panel(row, h)
        assert abs(value - want) <= 1e-12 * resabs * h
        assert err == pytest.approx(want_err, rel=1e-11, abs=0.0)


def test_panel_results_rows_are_the_first_panels_of_integrate_many():
    edges = np.array([0.0, 0.3, 1.0, 1.7, 4.0, 9.5])

    def f(x):
        return np.exp(-x) * np.cos(5.0 * x)

    vals, errs = panel_results(f, edges[:-1], edges[1:])
    values, errors, ok = integrate_many(lambda idx, x: f(x), edges[:-1], edges[1:],
                                        QuadratureConfig(atol=1e300))
    assert ok.all()
    assert vals.tolist() == values.tolist()
    assert errs.tolist() == errors.tolist()


def test_panel_results_and_integrate_many_reject_a_nan_panel():
    def f(x):
        return np.where((x > 1.0) & (x < 2.0), np.nan, np.exp(-x))

    lo, hi = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    with pytest.raises(DivergenceError, match=r"non-finite value inside \[1.0, 2.0\]"):
        panel_results(f, lo, hi)
    with pytest.raises(DivergenceError, match=r"non-finite value inside \[1.0, 2.0\]"):
        integrate_many(lambda idx, x: f(x), lo, hi)


def test_integrate_many_scores_a_round_in_one_panel_pass(monkeypatch):
    calls = {"f": 0, "panels": 0}
    panels = quadrature._panels

    def counting_panels(fx, half):
        calls["panels"] += 1
        return panels(fx, half)

    monkeypatch.setattr(quadrature, "_panels", counting_panels)
    freqs = np.linspace(1.0, 40.0, 40)

    def f(idx, x):
        calls["f"] += 1
        return np.cos(freqs[idx] * x)

    _, _, ok = integrate_many(f, np.zeros(40), np.full(40, 3.0), QuadratureConfig(rtol=1e-10))
    assert ok.all()
    assert calls["f"] > 5
    assert calls["panels"] == calls["f"]


def _batch(funcs):
    """``f(idx, x)`` for the lockstep engine: integrand idx[j] at x[j]."""
    def f(idx, x):
        out = np.empty_like(x)
        for i, fn in enumerate(funcs):
            sel = idx == i
            out[sel] = fn(x[sel])
        return out
    return f


def test_lockstep_matches_scalar_loop_exactly():
    # a fast decay, an algebraic tail, and an oscillatory integrand that
    # runs out of subdivisions; each must equal its own scalar integral
    funcs = (lambda x: np.exp(-x), lambda x: (1.0 + x) ** -2,
             lambda x: np.cos(20.0 * x) * np.exp(-0.5 * x))
    scales = np.array([1.0, 2.5, 0.7])
    cfg = QuadratureConfig(rtol=1e-10, max_subdivisions=10)
    values, errors, ok = integrate_semi_infinite_many(_batch(funcs), 0.0, scales, cfg)
    assert ok.tolist() == [True, True, False]
    for i, (fn, scale) in enumerate(zip(funcs, scales)):
        try:
            want = integrate_semi_infinite(fn, 0.0, cfg, scale=float(scale))
        except ConvergenceError as exc:
            want = (exc.value, exc.error)
            assert i == 2
        assert values[i] == want[0]
        assert errors[i] == want[1]


def test_lockstep_flags_non_decaying_member():
    funcs = (lambda x: np.exp(-x), lambda x: np.ones_like(x))
    with pytest.raises(DivergenceError, match="do not decay"):
        integrate_semi_infinite_many(_batch(funcs), 0.0, np.ones(2))


def test_lockstep_flags_non_finite_member():
    funcs = (lambda x: np.exp(-x), lambda x: np.full_like(x, np.nan))
    with pytest.raises(DivergenceError, match="non-finite"):
        integrate_semi_infinite_many(_batch(funcs), 0.0, np.ones(2))


def test_semi_infinite_is_integrate_on_the_mapped_integrand():
    # integrate_semi_infinite equals integrate() over (0, 1) after the map
    # x = a + s u/(1-u), to the bit, also when the budget runs out
    def mapped(f, a, s):
        def g(u):
            omu = 1.0 - u
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return f(a + s * u / omu) * (s / (omu * omu))
        return g

    cases = ((lambda x: np.exp(-x), 0.0, 1.0),
             (lambda x: (1.0 + x) ** -2, 2.0, 2.5),
             (lambda x: np.cos(20.0 * x) * np.exp(-0.5 * x), 0.0, 0.7))
    cfg = QuadratureConfig(rtol=1e-10, max_subdivisions=10)
    for f, a, s in cases:
        try:
            want = integrate(mapped(f, a, s), 0.0, 1.0, cfg)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as got:
                integrate_semi_infinite(f, a, cfg, scale=s)
            assert (got.value.value, got.value.error) == (exc.value, exc.error)
            assert str(got.value) == str(exc)
            continue
        assert integrate_semi_infinite(f, a, cfg, scale=s) == want


def _heap_loop(f, a, b, cfg):
    """The one-integral GK15 bisection loop, written out on its own."""
    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        with np.errstate(**_PANEL_ERRSTATE):
            fx = np.asarray(f(lo + half * (_XGK + 1.0)), dtype=float)
            value, err = _panels(fx[None, :], np.array([half]))
        return float(value[0]), float(err[0])

    val, err = panel(a, b)
    heap = [(-err, 0, a, b, val, err)]
    total_val, total_err, seq, n_sub = val, err, 1, 1
    while total_err > max(cfg.atol, cfg.rtol * abs(total_val)):
        value = float(sum(e[4] for e in sorted(heap, key=lambda t: t[2])))
        if n_sub >= cfg.max_subdivisions:
            return value, total_err, False
        _, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        total_val += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2, e2))
        seq += 2
        n_sub += 1
    return float(sum(e[4] for e in sorted(heap, key=lambda t: t[2]))), total_err, True


_FINITE_CASES = ((np.sin, 0.0, 20.0),
                 (lambda x: 1.0 / np.sqrt(x), 1e-30, 1.0),
                 (lambda x: np.exp(-x) * np.cos(7.0 * x), -1.0, 3.0),
                 (lambda x: np.cos(50.0 * x ** 2), 0.0, 10.0))


def test_integrate_many_equals_a_loop_of_integrate():
    # different intervals; the endpoint singularity and the chirp run out
    # of budget
    cfg = QuadratureConfig(rtol=1e-10, max_subdivisions=40)
    funcs = [case[0] for case in _FINITE_CASES]
    lo = [case[1] for case in _FINITE_CASES]
    hi = [case[2] for case in _FINITE_CASES]
    values, errors, ok = integrate_many(_batch(funcs), lo, hi, cfg)
    assert ok.tolist() == [True, False, True, False]
    for i, (f, a, b) in enumerate(_FINITE_CASES):
        try:
            want = integrate(f, a, b, cfg)
        except ConvergenceError as exc:
            want = (exc.value, exc.error)
        assert (values[i], errors[i]) == want


def test_integrate_is_the_heap_loop_bit_for_bit():
    cfg = QuadratureConfig(rtol=1e-10, max_subdivisions=40)
    for f, a, b in _FINITE_CASES:
        value, error, ok = _heap_loop(f, a, b, cfg)
        if ok:
            assert integrate(f, a, b, cfg) == (value, error)
            continue
        with pytest.raises(ConvergenceError) as exc_info:
            integrate(f, a, b, cfg)
        exc = exc_info.value
        assert (exc.value, exc.error) == (value, error)
        assert str(exc) == ("quadrature did not converge in 40 subdivisions "
                            f"(estimate {value:.6g} +- {error:.3g})")


def test_integrate_keeps_its_argument_and_divergence_errors():
    for a, b in ((1.0, 1.0), (2.0, 1.0), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="need finite a < b"):
            integrate(np.exp, a, b)
    with pytest.raises(DivergenceError, match=r"non-finite value inside \[0.0, 1.0\]"):
        integrate(lambda x: np.full_like(x, np.inf), 0.0, 1.0)
    with pytest.raises(ValueError, match="need finite lo < hi"):
        integrate_many(_batch([np.exp, np.exp]), [0.0, 1.0], [1.0, 0.5])


def _nan_inside(x):
    return np.where(abs(x - 0.33) < 0.02, np.nan, np.sin(40 * x))


def test_nan_during_bisection_is_a_divergence():
    # the first panel's nodes miss the NaN strip; bisection finds it
    with pytest.raises(DivergenceError, match="non-finite"):
        integrate(_nan_inside, 0.0, 1.0, QuadratureConfig(rtol=1e-10))
    with pytest.raises(DivergenceError, match="non-finite"):
        integrate_many(_batch([np.cos, _nan_inside]), [0.0, 0.0], [1.0, 1.0],
                       QuadratureConfig(rtol=1e-10))
    # the same strip seen through the semi-infinite map, at x = 0.33 / 0.67
    with pytest.raises(DivergenceError, match="non-finite"):
        integrate_semi_infinite(lambda x: _nan_inside(x / (1.0 + x)) * np.exp(-x), 0.0,
                                QuadratureConfig(rtol=1e-10))
