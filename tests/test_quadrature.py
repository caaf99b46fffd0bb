import heapq

import numpy as np
import pytest

from casimir import QuadratureConfig, force, quadrature
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
)


def _one(f, a, b, cfg=None):
    """``(value, error, ok)`` of ``f`` over [a, b], a batch of one."""
    values, errors, ok = integrate_many(lambda idx, x: f(x), [a], [b], cfg)
    return values[0], errors[0], ok[0]


def _one_semi_infinite(f, cfg=None, scale=1.0):
    """``(value, error, ok)`` of ``f`` over [0, inf), from one panel in u."""
    values, errors, ok = integrate_semi_infinite_many(lambda idx, x: f(x), [scale],
                                                      [0.0, 1.0], cfg)
    return values[0], errors[0], ok[0]


def test_polynomial_is_exact():
    # GK15 integrates degree <= 22 exactly; check a mid-degree case
    val, err, ok = _one(lambda x: 5.0 * x ** 4, 0.0, 1.0)
    assert ok
    assert val == pytest.approx(1.0, rel=1e-14)
    assert err < 1e-12


def test_oscillatory_integral():
    val, _, ok = _one(np.sin, 0.0, 20.0, QuadratureConfig(rtol=1e-12))
    assert ok
    assert val == pytest.approx(1.0 - np.cos(20.0), rel=1e-11)


def test_error_estimate_covers_true_error():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.1, 5.0)
        val, err, ok = _one(lambda x: np.exp(-a * x) * np.cos(b * x), 0.0, 10.0,
                            QuadratureConfig(rtol=1e-10))
        exact = (a - np.exp(-10 * a) * (a * np.cos(10 * b) - b * np.sin(10 * b))) \
            / (a * a + b * b)
        assert ok
        assert abs(val - exact) <= max(err, 1e-13 * abs(exact))


def test_integrable_endpoint_singularity():
    val, _, ok = _one(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0,
                      QuadratureConfig(rtol=1e-9, max_subdivisions=100000))
    assert ok
    assert val == pytest.approx(2.0, rel=1e-6)


def test_budget_exhaustion_carries_best_estimate():
    # a spent budget is reported by ok alone, with the partial sum and the
    # running error of the panels held then
    def f(x):
        return np.cos(50.0 * x ** 2)

    cfg = QuadratureConfig(rtol=1e-13, max_subdivisions=10)
    val, err, ok = _one(f, 0.0, 10.0, cfg)
    assert not ok
    assert np.isfinite(val)
    assert err > 0.0
    assert (val, err, ok) == _heap_loop(f, 0.0, 10.0, cfg)


def test_semi_infinite_exponential_decay():
    val, _, ok = _one_semi_infinite(lambda x: x * np.exp(-x), QuadratureConfig(rtol=1e-11))
    assert ok
    assert val == pytest.approx(1.0, rel=1e-9)


def test_semi_infinite_algebraic_decay():
    # 1/(1+x)^2 from 0 to inf = 1; slow decay stresses the transform
    val, _, ok = _one_semi_infinite(lambda x: (1.0 + x) ** -2, QuadratureConfig(rtol=1e-11))
    assert ok
    assert val == pytest.approx(1.0, rel=1e-9)


def test_non_decaying_integrand_is_flagged():
    with pytest.raises(DivergenceError, match="do not decay"):
        _one_semi_infinite(lambda x: np.ones_like(x))


def test_results_are_deterministic():
    def f(x):
        return np.exp(-x) * np.sin(7.0 * x)

    runs = {_one(f, 0.0, 30.0, QuadratureConfig(rtol=1e-11))[0] for _ in range(5)}
    assert len(runs) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rtol=0.5)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=2)
    with pytest.raises(ValueError):
        _one(np.exp, 1.0, 1.0)


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


def test_integrate_many_rejects_a_nan_panel():
    def f(x):
        return np.where((x > 1.0) & (x < 2.0), np.nan, np.exp(-x))

    lo, hi = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
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
    values, errors, ok = integrate_semi_infinite_many(_batch(funcs), scales, [0.0, 1.0], cfg)
    assert ok.tolist() == [True, True, False]
    for i, (fn, scale) in enumerate(zip(funcs, scales)):
        assert (values[i], errors[i], ok[i]) == _one_semi_infinite(fn, cfg, float(scale))


def test_lockstep_flags_non_decaying_member():
    funcs = (lambda x: np.exp(-x), lambda x: np.ones_like(x))
    with pytest.raises(DivergenceError, match="do not decay"):
        integrate_semi_infinite_many(_batch(funcs), np.ones(2), [0.0, 1.0])


@pytest.mark.parametrize("edges", [[0.0, 1.0], force._OUTER_EDGES, force._XI_EDGES,
                                   force._P_EDGES])
@pytest.mark.parametrize("tail", ["constant", "1/x"])
def test_decay_check_reads_the_first_scoring_pass(edges, tail):
    # a constant or 1/x member of a lockstep batch raises from the starting
    # panels' one call; at scale 26 (edges 0, 1 and the xi-edges), 125 (the
    # w-edges) and 1 (the p-edges), x (1/x) rounds to 1 - eps at the
    # outermost node alone
    calls, falls = [], []
    fn = np.ones_like if tail == "constant" else lambda x: 1.0 / x
    funcs = (lambda x: np.exp(-x), fn, lambda x: (1.0 + x) ** -2)

    def f(idx, x):
        calls.append(x.size)
        last = x[idx == 1][-4:]
        samples = np.abs(last * fn(last))
        falls.append(samples[-1] < samples[0])
        return _batch(funcs)(idx, x)

    for scale in (1.0, 26.0, 125.0):
        calls.clear()
        with pytest.raises(DivergenceError, match="do not decay"):
            integrate_semi_infinite_many(f, np.full(3, scale), edges)
        assert calls == [3 * 15 * (len(edges) - 1)]
    # the rounding that the check's slack absorbs happens at these scales
    assert any(falls) == (tail == "1/x")


def test_lockstep_flags_non_finite_member():
    funcs = (lambda x: np.exp(-x), lambda x: np.full_like(x, np.nan))
    with pytest.raises(DivergenceError, match="non-finite"):
        integrate_semi_infinite_many(_batch(funcs), np.ones(2), [0.0, 1.0])


def test_semi_infinite_is_integrate_on_the_mapped_integrand():
    # the semi-infinite integral is the one-integral loop over (0, 1) after
    # the map x = s u/(1-u), to the bit, also when the budget runs out
    def mapped(f, s):
        def g(u):
            omu = 1.0 - u
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return f(s * u / omu) * (s / (omu * omu))
        return g

    cases = ((lambda x: np.exp(-x), 1.0),
             (lambda x: (3.0 + x) ** -2, 2.5),
             (lambda x: np.cos(20.0 * x) * np.exp(-0.5 * x), 0.7))
    cfg = QuadratureConfig(rtol=1e-10, max_subdivisions=10)
    oks = []
    for f, s in cases:
        want = _heap_loop(mapped(f, s), 0.0, 1.0, cfg)
        assert _one_semi_infinite(f, cfg, s) == want
        oks.append(want[2])
    assert oks == [True, True, False]


def test_semi_infinite_edges_start_integrate_many_from_their_panels():
    # the mapped integrands start from the panels between the u-edges, the
    # (1, m) start of integrate_many, bit for bit; ten panels spend a budget
    # of ten subdivisions in one scoring pass, and the decay check reads
    # that pass rather than calling the integrand on its own
    def f(x):
        return np.cos(20.0 * x) * np.exp(-0.5 * x)

    def mapped(idx, u):
        omu = 1.0 - u
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return f(0.7 * u / omu) * (0.7 / (omu * omu))

    sizes = []

    def counted(idx, x):
        sizes.append(x.size)
        return f(x)

    for edges, budget in (([0.0, 0.4, 0.7, 1.0], 40), (np.linspace(0.0, 1.0, 11), 10)):
        cfg = QuadratureConfig(rtol=1e-10, max_subdivisions=budget)
        edges = np.asarray(edges)
        want = integrate_many(mapped, edges[None, :-1], edges[None, 1:], cfg)
        sizes.clear()
        got = integrate_semi_infinite_many(counted, [0.7], edges, cfg)
        assert [x.tolist() for x in got] == [x.tolist() for x in want]
    assert sizes == [150] and not got[2][0]
    for edges in ([0.0, 0.5], [0.1, 1.0], [0.0, 0.6, 0.4, 1.0], [1.0]):
        with pytest.raises(ValueError, match="edges"):
            integrate_semi_infinite_many(counted, [0.7], edges, cfg)


def _heap_loop(f, a, b, cfg):
    """The one-integral GK15 bisection loop, written out on its own; with
    lists ``a`` and ``b`` it starts from the panels [a[j], b[j]]."""
    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        with np.errstate(**_PANEL_ERRSTATE):
            fx = np.asarray(f(lo + half * (_XGK + 1.0)), dtype=float)
            value, err = _panels(fx[None, :], np.array([half]))
        return float(value[0]), float(err[0])

    starts = list(zip(a, b)) if isinstance(a, list) else [(a, b)]
    scored = [(lo, hi, *panel(lo, hi)) for lo, hi in starts]
    heap = [(-err, j, lo, hi, val, err) for j, (lo, hi, val, err) in enumerate(scored)]
    heapq.heapify(heap)
    total_val = sum(entry[2] for entry in scored)
    total_err = sum(entry[3] for entry in scored)
    seq = n_sub = len(starts)
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
    # each integral of a batch over different intervals equals the batch of
    # it alone; the endpoint singularity and the chirp run out of budget
    cfg = QuadratureConfig(rtol=1e-10, max_subdivisions=40)
    funcs = [case[0] for case in _FINITE_CASES]
    lo = [case[1] for case in _FINITE_CASES]
    hi = [case[2] for case in _FINITE_CASES]
    values, errors, ok = integrate_many(_batch(funcs), lo, hi, cfg)
    assert ok.tolist() == [True, False, True, False]
    for i, (f, a, b) in enumerate(_FINITE_CASES):
        assert (values[i], errors[i], ok[i]) == _one(f, a, b, cfg)


def test_integrate_is_the_heap_loop_bit_for_bit():
    # one integral from one panel; where the budget runs out, the partial
    # sum and running error match too
    cfg = QuadratureConfig(rtol=1e-10, max_subdivisions=40)
    oks = []
    for f, a, b in _FINITE_CASES:
        want = _heap_loop(f, a, b, cfg)
        assert _one(f, a, b, cfg) == want
        oks.append(want[2])
    assert oks == [True, False, True, False]


def test_integrate_many_from_a_starting_partition_is_the_heap_loop():
    # integral i starts from the panels of row i; the endpoint singularity
    # and the chirp run out of budget, and their partial sums match too
    cfg = QuadratureConfig(rtol=1e-10, max_subdivisions=40)
    funcs = [case[0] for case in _FINITE_CASES]
    lo = np.array([np.linspace(a, b, 6)[:-1] for _, a, b in _FINITE_CASES])
    hi = np.array([np.linspace(a, b, 6)[1:] for _, a, b in _FINITE_CASES])
    values, errors, ok = integrate_many(_batch(funcs), lo, hi, cfg)
    assert ok.tolist() == [True, False, True, False]
    for i, f in enumerate(funcs):
        assert (values[i], errors[i], ok[i]) == _heap_loop(f, lo[i].tolist(),
                                                           hi[i].tolist(), cfg)
    # one starting panel per integral, as (n,) or as (n, 1), is the same call
    lo, hi = lo[:, :1], hi[:, -1:]
    one = integrate_many(_batch(funcs), lo[:, 0], hi[:, 0], cfg)
    column = integrate_many(_batch(funcs), lo, hi, cfg)
    for got, want in zip(column, one):
        assert got.tolist() == want.tolist()


def test_integrate_many_breaks_error_ties_as_the_heap_loop():
    # on dyadic panels a constant integrand ties every panel of one width
    # in error, and at rtol 1.01e-14 its error floor never meets the
    # target, so its budget runs out in the middle of a width; beside it
    # integrals meet atol after 1, 5 and 29 rounds, and a chirp runs out
    cfg = QuadratureConfig(rtol=1.01e-14, atol=1e-10, max_subdivisions=60)
    funcs = [lambda x: np.full_like(x, 1e6 * np.e), lambda x: np.exp(-x),
             lambda x: np.cos(9.0 * x), lambda x: np.cos(25.0 * x), _FINITE_CASES[3][0]]
    ends = [np.linspace(0.0, 1.0, 5)] + [np.linspace(0.0, 2.0 + i, 5) for i in range(4)]
    lo, hi = np.array([e[:-1] for e in ends]), np.array([e[1:] for e in ends])
    values, errors, ok = integrate_many(_batch(funcs), lo, hi, cfg)
    assert ok.tolist() == [False, True, True, True, False]
    for i, f in enumerate(funcs):
        assert (values[i], errors[i], ok[i]) == _heap_loop(f, lo[i].tolist(),
                                                           hi[i].tolist(), cfg)


def test_integrate_keeps_its_argument_and_divergence_errors():
    for a, b in ((1.0, 1.0), (2.0, 1.0), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="need finite lo < hi"):
            _one(np.exp, a, b)
    with pytest.raises(DivergenceError, match=r"non-finite value inside \[0.0, 1.0\]"):
        _one(lambda x: np.full_like(x, np.inf), 0.0, 1.0)
    with pytest.raises(ValueError, match="need finite lo < hi"):
        integrate_many(_batch([np.exp, np.exp]), [0.0, 1.0], [1.0, 0.5])
    for scale in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="scales must be positive and finite"):
            _one_semi_infinite(np.exp, scale=scale)


def _nan_inside(x):
    return np.where(abs(x - 0.33) < 0.02, np.nan, np.sin(40 * x))


def test_nan_during_bisection_is_a_divergence():
    # the first panel's nodes miss the NaN strip; bisection finds it
    with pytest.raises(DivergenceError, match="non-finite"):
        _one(_nan_inside, 0.0, 1.0, QuadratureConfig(rtol=1e-10))
    with pytest.raises(DivergenceError, match="non-finite"):
        integrate_many(_batch([np.cos, _nan_inside]), [0.0, 0.0], [1.0, 1.0],
                       QuadratureConfig(rtol=1e-10))
    # the same strip seen through the semi-infinite map, at x = 0.33 / 0.67
    with pytest.raises(DivergenceError, match="non-finite"):
        _one_semi_infinite(lambda x: _nan_inside(x / (1.0 + x)) * np.exp(-x),
                           QuadratureConfig(rtol=1e-10))


def test_integrate_many_of_a_large_batch_is_the_heap_loop():
    # forty integrals finish over many rounds, the chirps out of budget, so
    # finished rows leave the store many times while the rest run on; each
    # result is the heap loop's, bit for bit
    cfg = QuadratureConfig(rtol=1e-11, max_subdivisions=45)
    rates = np.linspace(0.5, 40.0, 40)
    funcs = [lambda x, a=a: np.cos(a * x) * np.exp(-x / a) for a in rates]
    funcs[::7] = [lambda x, a=a: np.cos(a * x * x) for a in rates[::7]]
    ends = [np.linspace(0.0, 1.0 + (i % 5), 3) for i in range(rates.size)]
    lo, hi = np.array([e[:-1] for e in ends]), np.array([e[1:] for e in ends])
    rounds = []

    def f(idx, x):
        rounds.append(np.unique(idx).size)
        return _batch(funcs)(idx, x)

    values, errors, ok = integrate_many(f, lo, hi, cfg)
    assert 0 < np.count_nonzero(~ok) < rates.size // 2
    assert len(set(rounds)) > 10
    for i, fn in enumerate(funcs):
        assert (values[i], errors[i], ok[i]) == _heap_loop(fn, lo[i].tolist(),
                                                            hi[i].tolist(), cfg)
