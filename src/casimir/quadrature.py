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
_PANEL_ERRSTATE = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
# tail-check sample points, in units of the semi-infinite map's scale
_TAIL_X = np.array([1e1, 1e2, 1e3, 1e4])


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits shared by every integral in the package."""

    rtol: float = 1e-9
    atol: float = 0.0
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not 1e-14 < self.rtol < 1e-2:
            raise ValueError(f"rtol must lie in (1e-14, 1e-2), got {self.rtol}")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be >= 10")


def _panels(fx, half):
    """Kronrod values and QUADPACK-style errors of the panels in the rows
    of ``fx`` (shape (rows, 15)), whose half-widths are ``half``.

    The node sums are an elementwise product and a row sum, not a BLAS
    matrix-vector product, whose per-row bits depend on the batch: each
    row gets the bits it gets alone.  Callers run it under
    ``np.errstate(**_PANEL_ERRSTATE)``.
    """
    resk = np.add.reduce(fx * _WGK, axis=1)
    resg = np.add.reduce(fx[:, 1::2] * _WG, axis=1)
    resabs = np.add.reduce(np.abs(fx) * _WGK, axis=1)
    resasc = np.add.reduce(np.abs(fx - 0.5 * resk[:, None]) * _WGK, axis=1)
    err = np.abs((resk - resg) * half)
    asc = resasc * half
    scaled = asc * np.fmin(1.0, (200.0 * err / asc) ** 1.5)
    err = np.where((asc > 0.0) & (err > 0.0), scaled, err)
    return resk * half, np.maximum(err, 50.0 * _EPS * resabs * half)


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


def _score(f, idx, lo, hi):
    """GK15 values and errors of the panels [lo[j], hi[j]], panel ``j``
    belonging to integrand ``idx[j]``, from one call ``f(idx, x)`` on the
    nodes of every panel.  Every value is checked: a non-finite one is a
    :class:`DivergenceError` naming its panel."""
    half = 0.5 * (hi - lo)
    xs = lo[:, None] + half[:, None] * (_XGK + 1.0)
    fx = np.asarray(f(np.repeat(idx, _XGK.size), xs.ravel()), dtype=float).reshape(xs.shape)
    finite = np.isfinite(fx)
    if not finite.all():
        j = int(np.argmin(finite.all(axis=1)))
        raise DivergenceError(
            f"integrand returned a non-finite value inside [{lo[j]}, {hi[j]}]")
    with np.errstate(**_PANEL_ERRSTATE):
        return _panels(fx, half)


def integrate_many(f, lo, hi, cfg=None):
    """Integrate ``len(lo)`` integrands over [lo[i], hi[i]] in lockstep.

    ``f(idx, x)`` evaluates integrand ``idx[j]`` at ``x[j]``.  Every integral
    keeps its own GK15 interval heap, stopping rule, subdivision budget and
    error estimate, so each value and error equals what the integral gets
    alone; only the calls to ``f`` are shared, one per bisection round
    holding the 30 new nodes of every unconverged integral, and the one
    :func:`_score` pass that scores the round's new panels.  Every value
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
    total_val, total_err = _score(f, np.arange(n), lo, hi)
    # heap entries: (-err, tiebreak, lo, hi, val, err)
    heaps = [[(-e, 0, a, b, v, e)] for a, b, v, e in zip(
        lo.tolist(), hi.tolist(), total_val.tolist(), total_err.tolist())]

    values = np.empty(n)
    ok = np.ones(n, dtype=bool)
    active = np.arange(n)
    # every live integral is bisected once a round, so all active
    # integrals have used the same number of subdivisions
    n_sub = 1
    while True:
        done = ~(total_err > np.fmax(cfg.atol, cfg.rtol * np.abs(total_val)))[active]
        if n_sub >= cfg.max_subdivisions:
            ok[active] = done
            done[:] = True
        for i in active[done].tolist():
            values[i] = _ordered_sum(heaps[i], 4)
        active = active[~done]
        if not active.size:
            return values, total_err, ok
        popped = np.array([heapq.heappop(heaps[i]) for i in active.tolist()])
        # columns a, mid, b; row 2j of (a, mid) | (mid, b) is the left
        # child of integral active[j], row 2j + 1 the right
        ends = popped[:, [2, 2, 3]]
        ends[:, 1] = 0.5 * (ends[:, 0] + ends[:, 2])
        v, e = _score(f, np.repeat(active, 2), ends[:, :2].ravel(), ends[:, 1:].ravel())
        v = v.reshape(-1, 2)
        e = e.reshape(-1, 2)
        total_val[active] += v[:, 0] + v[:, 1] - popped[:, 4]
        total_err[active] += e[:, 0] + e[:, 1] - popped[:, 5]
        seq = 2 * n_sub - 1
        for i, (lo_i, mid_i, hi_i), (v1, v2), (e1, e2) in zip(
                active.tolist(), ends.tolist(), v.tolist(), e.tolist()):
            heapq.heappush(heaps[i], (-e1, seq, lo_i, mid_i, v1, e1))
            heapq.heappush(heaps[i], (-e2, seq + 1, mid_i, hi_i, v2, e2))
        n_sub += 1


def integrate_semi_infinite(f, a, cfg=None, scale=1.0):
    """Integrate ``f`` over [a, inf) mapped to (0, 1) by x = a + scale u/(1-u).

    ``scale`` sets the decay length the substitution resolves.  Returns
    ``(value, error_estimate)``.  A non-decaying integrand is reported as
    :class:`DivergenceError` (heuristic sample check).
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
    that each one decays.  Returns ``(values, errors, ok)``
    as :func:`integrate_many` does.  A non-decaying or non-finite integrand
    raises :class:`DivergenceError`.
    """
    cfg = cfg or QuadratureConfig()
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 1 or not np.all((scales > 0.0) & np.isfinite(scales)):
        raise ValueError(f"scales must be positive and finite, got {scales}")
    n = scales.size

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


def panel_results(f, lo, hi):
    """GK15 values and error estimates of the panels [lo[j], hi[j]].

    One vectorized call ``f(x)`` on the nodes of every panel, each value
    checked as in :func:`integrate_many`; returns ``(values, errors)``
    arrays with one entry per panel.  Building block for callers that
    manage their own refinement policy.
    """
    lo = np.asarray(lo, dtype=float)
    return _score(lambda idx, x: f(x), np.zeros(lo.size, dtype=int), lo,
                  np.asarray(hi, dtype=float))
