import numpy as np
import pytest

from casimir import ConvergenceError, QuadratureConfig, integrate, integrate_semi_infinite
from casimir.errors import DivergenceError
from casimir.quadrature import fixed_panels, integrate_semi_infinite_many, panel_results


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


def test_tail_check_can_be_disabled():
    # with the sampling heuristic off a divergent integrand is no longer
    # rejected up front; the result is then either an exception from the
    # transformed integrand or a meaninglessly huge value
    cfg = QuadratureConfig(rtol=1e-6, tail_check="none", max_subdivisions=50)
    try:
        val, _ = integrate_semi_infinite(lambda x: np.ones_like(x), 0.0, cfg)
    except (ConvergenceError, DivergenceError):
        return
    assert val > 1e3


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
        QuadratureConfig(tail_check="spline")
    with pytest.raises(ValueError):
        integrate(np.exp, 1.0, 1.0)


def test_fixed_panels_matches_adaptive_on_smooth_integrand():
    edges = np.linspace(0.0, 3.0, 13)
    val, err = fixed_panels(lambda x: np.exp(-x * x), edges)
    ref, _ = integrate(lambda x: np.exp(-x * x), 0.0, 3.0, QuadratureConfig(rtol=1e-12))
    assert val == pytest.approx(ref, rel=1e-10)
    assert abs(val - ref) <= max(err, 1e-12)


def test_panel_results_sums_to_fixed_panels():
    edges = np.array([0.0, 0.7, 1.3, 2.0])

    def f(x):
        return np.cos(3.0 * x)

    vals, errs = panel_results(f, edges)
    total, err_total = fixed_panels(f, edges)
    assert np.sum(vals) == pytest.approx(total, rel=1e-14)
    assert np.sum(errs) == pytest.approx(err_total, rel=1e-14)


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
