"""Adaptive 1D quadrature with embedded-rule error estimates.

A Gauss-Kronrod 7/15 pair drives an interval-bisection loop.  Semi-infinite
domains are mapped to (0, 1) by the rational substitution x = a + s u/(1-u).
Integrands must be vectorized (``f(ndarray) -> ndarray``) and pure; for a
fixed configuration the result is bit-reproducible.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DivergenceError

# 15-point Kronrod nodes on [-1, 1] and weights; odd entries are the
# embedded 7-point Gauss nodes (QUADPACK values).
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_EPS = np.finfo(float).eps
_PANEL_ERRSTATE = {"over": "ignore", "invalid": "ignore"}
# tail-check sample points, in units of the semi-infinite map's scale
_TAIL_X = np.array([1e1, 1e2, 1e3, 1e4])


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits shared by every integral in the package."""

    rtol: float = 1e-9
    atol: float = 0.0
    max_subdivisions: int = 2000
    tail_check: str = "sample-decay"   # divergence guard: sample-decay | none

    def __post_init__(self):
        if not 1e-14 < self.rtol < 1e-2:
            raise ValueError(f"rtol must lie in (1e-14, 1e-2), got {self.rtol}")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be >= 10")
        if self.tail_check not in ("sample-decay", "none"):
            raise ValueError(f"unknown tail_check {self.tail_check!r}")


def _panel(fx, half):
    """Kronrod/Gauss estimates and QUADPACK-style error for one panel.

    Callers run it under ``np.errstate(**_PANEL_ERRSTATE)``.
    """
    resk = _WGK @ fx
    resg = _WG @ fx[1::2]
    resabs = _WGK @ np.abs(fx)
    resasc = _WGK @ np.abs(fx - 0.5 * resk)
    value = resk * half
    err = abs((resk - resg) * half)
    asc = resasc * half
    if asc > 0.0 and err > 0.0:
        err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs * half)
    return value, err


def _convergence_error(cfg, value, error):
    return ConvergenceError(
        f"quadrature did not converge in {cfg.max_subdivisions} "
        f"subdivisions (estimate {value:.6g} +- {error:.3g})",
        value=value, error=error)


def integrate(f, a, b, cfg=None):
    """Integrate ``f`` over the finite interval [a, b].

    Returns ``(value, error_estimate)``.  Raises :class:`ConvergenceError`
    (with the best estimate attached) if the subdivision budget runs out.
    The single-integrand case of :func:`integrate_many`.
    """
    cfg = cfg or QuadratureConfig()
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    values, errors, ok = integrate_many(lambda idx, x: f(x), [a], [b], cfg)
    value, error = float(values[0]), float(errors[0])
    if not ok[0]:
        raise _convergence_error(cfg, value, error)
    return value, error


def _ordered_sum(heap, idx):
    """Deterministic left-to-right resummation of the interval list."""
    return float(sum(entry[idx] for entry in sorted(heap, key=lambda t: t[2])))


def _evaluate(f, idx, xs, lo, hi):
    """``f(idx, xs)`` as float rows, one row per integral of the round;
    every value is checked, and a non-finite one is a DivergenceError
    naming its row's interval [lo[j], hi[j]]."""
    fx = np.asarray(f(idx, xs.ravel()), dtype=float).reshape(xs.shape)
    finite = np.isfinite(fx)
    if not finite.all():
        j = int(np.argmin(finite.all(axis=1)))
        raise DivergenceError(
            f"integrand returned a non-finite value inside [{lo[j]}, {hi[j]}]")
    return fx


def integrate_many(f, lo, hi, cfg=None):
    """Integrate ``len(lo)`` integrands over [lo[i], hi[i]] in lockstep.

    ``f(idx, x)`` evaluates integrand ``idx[j]`` at ``x[j]``.  Every integral
    keeps its own GK15 interval heap, stopping rule, subdivision budget and
    error estimate, so each value and error equals what the integral gets
    alone; only the calls to ``f`` are shared, one per bisection round
    holding the 30 new nodes of every unconverged integral.  Every value
    ``f`` returns is checked: a non-finite one raises
    :class:`DivergenceError`.

    Returns ``(values, errors, ok)`` arrays.  Where the subdivision budget
    runs out ``ok[i]`` is False and ``values[i]``, ``errors[i]`` are the
    partial sum and running error that :func:`integrate`'s
    :class:`ConvergenceError` carries.
    """
    cfg = cfg or QuadratureConfig()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if (lo.ndim != 1 or lo.shape != hi.shape
            or not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi))):
        raise ValueError(f"need finite lo < hi, got {lo}, {hi}")
    n = lo.size
    half = 0.5 * (hi - lo)
    xs = lo[:, None] + half[:, None] * (_XGK + 1.0)
    fx = _evaluate(f, np.repeat(np.arange(n), _XGK.size), xs, lo, hi)
    heaps, total_val, total_err = [], [], []
    with np.errstate(**_PANEL_ERRSTATE):
        for i, (a, b, h) in enumerate(zip(lo.tolist(), hi.tolist(), half.tolist())):
            val, err = _panel(fx[i], h)
            # heap entries: (-err, tiebreak, lo, hi, val, err)
            heaps.append([(-err, 0, a, b, val, err)])
            total_val.append(val)
            total_err.append(err)

    values = np.empty(n)
    errors = np.empty(n)
    ok = np.ones(n, dtype=bool)
    seq = [1] * n
    n_sub = [1] * n
    active = range(n)
    while active:
        live, popped = [], []
        for i in active:
            done = not total_err[i] > max(cfg.atol, cfg.rtol * abs(total_val[i]))
            if done or n_sub[i] >= cfg.max_subdivisions:
                values[i], errors[i] = _ordered_sum(heaps[i], 4), total_err[i]
                ok[i] = done
            else:
                live.append(i)
                popped.append(heapq.heappop(heaps[i]))
        if not live:
            break
        a = np.array([entry[2] for entry in popped])
        b = np.array([entry[3] for entry in popped])
        mid = 0.5 * (a + b)
        h1 = 0.5 * (mid - a)
        h2 = 0.5 * (b - mid)
        xs = np.concatenate((a[:, None] + h1[:, None] * (_XGK + 1.0),
                             mid[:, None] + h2[:, None] * (_XGK + 1.0)), axis=1)
        fx = _evaluate(f, np.repeat(live, 2 * _XGK.size), xs, a, b)
        mids, h1s, h2s = mid.tolist(), h1.tolist(), h2.tolist()
        with np.errstate(**_PANEL_ERRSTATE):
            for j, i in enumerate(live):
                _, _, lo_i, hi_i, v_old, e_old = popped[j]
                mid_i = mids[j]
                v1, e1 = _panel(fx[j, :15], h1s[j])
                v2, e2 = _panel(fx[j, 15:], h2s[j])
                total_val[i] += v1 + v2 - v_old
                total_err[i] += e1 + e2 - e_old
                heapq.heappush(heaps[i], (-e1, seq[i], lo_i, mid_i, v1, e1))
                heapq.heappush(heaps[i], (-e2, seq[i] + 1, mid_i, hi_i, v2, e2))
                seq[i] += 2
                n_sub[i] += 1
        active = live
    return values, errors, ok


def integrate_semi_infinite(f, a, cfg=None, scale=1.0):
    """Integrate ``f`` over [a, inf) mapped to (0, 1) by x = a + scale u/(1-u).

    ``scale`` sets the decay length the substitution resolves.  Returns
    ``(value, error_estimate)``.  A non-decaying integrand is reported as
    :class:`DivergenceError` (heuristic sample check, see cfg.tail_check).
    The single-integrand case of :func:`integrate_semi_infinite_many`.
    """
    cfg = cfg or QuadratureConfig()
    if scale <= 0.0 or not np.isfinite(scale):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    values, errors, ok = integrate_semi_infinite_many(
        lambda idx, x: f(x), a, [scale], cfg)
    value, error = float(values[0]), float(errors[0])
    if not ok[0]:
        raise _convergence_error(cfg, value, error)
    return value, error


def integrate_semi_infinite_many(f, a, scales, cfg=None):
    """Integrate ``len(scales)`` integrands over [a, inf) in lockstep.

    ``f(idx, x)`` evaluates integrand ``idx[j]`` at ``x[j]``; integrand ``i``
    is mapped to (0, 1) by x = a + scales[i] u/(1-u) and the mapped
    integrands run through :func:`integrate_many`, after a sample check
    that each one decays (cfg.tail_check).  Returns ``(values, errors, ok)``
    as :func:`integrate_many` does.  A non-decaying or non-finite integrand
    raises :class:`DivergenceError`.
    """
    cfg = cfg or QuadratureConfig()
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 1 or not np.all((scales > 0.0) & np.isfinite(scales)):
        raise ValueError(f"scales must be positive and finite, got {scales}")
    n = scales.size

    if cfg.tail_check == "sample-decay":
        idx = np.repeat(np.arange(n), _TAIL_X.size)
        xs = a + scales[idx] * np.tile(_TAIL_X, n)
        samples = np.abs((xs - a) * np.asarray(f(idx, xs), dtype=float)).reshape(n, -1)
        grows = ((samples.max(axis=1) > 0.0) & (samples[:, -1] >= samples[:, 0])
                 & (samples[:, 0] > 0.0))
        if grows.any():
            raise DivergenceError(
                "integrand samples do not decay towards infinity "
                f"(|x f(x)| at x-a = 10..1e4 scale: {samples[grows.argmax()].tolist()})")

    # omu underflows to zero when subdivision pushes nodes against u = 1;
    # the intermediate overflow warnings are noise
    def g(idx, u):
        omu = 1.0 - u
        s = scales[idx]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.asarray(f(idx, a + s * u / omu) * (s / (omu * omu)), dtype=float)

    return integrate_many(g, np.zeros(n), np.ones(n), cfg)


def panel_results(f, edges):
    """Per-panel GK15 values and error estimates on the sorted grid ``edges``.

    One vectorized call to ``f``; returns ``(values, errors)`` arrays with
    one entry per interval.  Building block for callers that manage their
    own refinement policy.
    """
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1]
    half = 0.5 * np.diff(edges)
    nodes = lo[:, None] + half[:, None] * (_XGK[None, :] + 1.0)
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    vals = np.empty(half.size)
    errs = np.empty(half.size)
    with np.errstate(**_PANEL_ERRSTATE):
        for i in range(half.size):
            vals[i], errs[i] = _panel(fx[i], half[i])
    return vals, errs


def fixed_panels(f, edges):
    """Non-adaptive GK15 on each interval of the sorted grid ``edges``.

    One vectorized call to ``f``; returns ``(value, error_estimate)``.
    Intended for integrands that are only piecewise smooth on a known
    grid (e.g. interpolated tabulated data).
    """
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1]
    half = 0.5 * np.diff(edges)
    nodes = lo[:, None] + half[:, None] * (_XGK[None, :] + 1.0)
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    resk = fx @ _WGK
    resg = fx[:, 1::2] @ _WG
    value = float(np.sum(resk * half))
    err = float(np.sum(np.abs((resk - resg) * half)))
    return value, err
