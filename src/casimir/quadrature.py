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
    """Kronrod/Gauss estimates and QUADPACK-style error for one panel."""
    with np.errstate(over="ignore", invalid="ignore"):
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


def integrate(f, a, b, cfg=None):
    """Integrate ``f`` over the finite interval [a, b].

    Returns ``(value, error_estimate)``.  Raises :class:`ConvergenceError`
    (with the best estimate attached) if the subdivision budget runs out.
    """
    cfg = cfg or QuadratureConfig()
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a}, {b}]")

    def eval_interval(lo, hi):
        half = 0.5 * (hi - lo)
        fx = np.asarray(f(lo + half * (_XGK + 1.0)), dtype=float)
        if not np.all(np.isfinite(fx)):
            raise DivergenceError(
                f"integrand returned a non-finite value inside [{lo}, {hi}]")
        return _panel(fx, half)

    val, err = eval_interval(a, b)
    # heap entries: (-err, tiebreak, lo, hi, val, err)
    heap = [(-err, 0, a, b, val, err)]
    total_val, total_err = val, err
    seq = 1
    n_sub = 1
    while total_err > max(cfg.atol, cfg.rtol * abs(total_val)):
        if n_sub >= cfg.max_subdivisions:
            value = _ordered_sum(heap, 4)
            raise ConvergenceError(
                f"quadrature did not converge in {cfg.max_subdivisions} "
                f"subdivisions (estimate {value:.6g} +- {total_err:.3g})",
                value=value, error=total_err)
        neg_err, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        # both halves in one vectorized call
        h1 = 0.5 * (mid - lo)
        h2 = 0.5 * (hi - mid)
        xs = np.concatenate((lo + h1 * (_XGK + 1.0), mid + h2 * (_XGK + 1.0)))
        fx = np.asarray(f(xs), dtype=float)
        v1, e1 = _panel(fx[:15], h1)
        v2, e2 = _panel(fx[15:], h2)
        total_val += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2, e2))
        seq += 2
        n_sub += 1
    return _ordered_sum(heap, 4), total_err


def _ordered_sum(heap, idx):
    """Deterministic left-to-right resummation of the interval list."""
    return float(sum(entry[idx] for entry in sorted(heap, key=lambda t: t[2])))


def integrate_semi_infinite(f, a, cfg=None, scale=1.0):
    """Integrate ``f`` over [a, inf) mapped to (0, 1) by x = a + scale u/(1-u).

    ``scale`` sets the decay length the substitution resolves.  Returns
    ``(value, error_estimate)``.  A non-decaying integrand is reported as
    :class:`DivergenceError` (heuristic sample check, see cfg.tail_check).
    """
    cfg = cfg or QuadratureConfig()
    if scale <= 0.0 or not np.isfinite(scale):
        raise ValueError(f"scale must be positive and finite, got {scale}")

    if cfg.tail_check == "sample-decay":
        xs = a + scale * np.array([1e1, 1e2, 1e3, 1e4])
        samples = np.abs((xs - a) * np.asarray(f(xs), dtype=float))
        if samples.max() > 0.0 and samples[-1] >= samples[0] > 0.0:
            raise DivergenceError(
                "integrand samples do not decay towards infinity "
                f"(|x f(x)| at x-a = 10..1e4 scale: {samples.tolist()})")

    # omu underflows to zero when subdivision pushes nodes against u = 1;
    # the resulting non-finite values are caught by integrate(), so the
    # intermediate overflow warnings are noise
    def g(u):
        omu = 1.0 - u
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return f(a + scale * u / omu) * (scale / (omu * omu))

    return integrate(g, 0.0, 1.0, cfg)


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
