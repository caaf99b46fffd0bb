"""Adaptive 1D quadrature with embedded-rule error estimates.

A Gauss-Kronrod 7/15 pair drives an interval-bisection loop, run in
lockstep over many integrals on one array store of panels.  Semi-infinite
domains are mapped to (0, 1) by the rational substitution x = s u/(1-u).
Integrands are called on arrays, as ``f(idx, x)``, and must be pure; for a
fixed configuration the result is bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

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
# an empty panel-store slot: never the worst panel, and adds nothing
_HOLE = np.array([np.inf, np.inf, -0.0, -np.inf])


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
    keeps its own panels, stopping rule, subdivision budget and error
    estimate, so each value and error equals what the integral gets alone,
    bit for bit; only the calls to ``f`` are shared, one per bisection
    round holding the 30 new nodes of every unconverged integral, and the
    one :func:`_score` pass that scores the round's new panels.  Every value
    ``f`` returns is checked: a non-finite one raises
    :class:`DivergenceError`.

    The panels of the live integrals sit in one array store, a row per
    integral with its panels in order of creation.  A round bisects each
    row's panel of largest error, the oldest of equal ones; the children
    take two new slots and the parent stays behind as a hole.  A finished
    integral leaves the store with its panel values summed left to right.

    ``lo`` and ``hi`` of shape (n, m) start integral ``i`` from the m
    panels [lo[i, j], hi[i, j]] instead of one; its starting value and
    error are their sums taken in order of ``j``, and the m panels count
    as m subdivisions.

    Returns ``(values, errors, ok)`` arrays.  Where the subdivision budget
    runs out ``ok[i]`` is False and ``values[i]``, ``errors[i]`` are the
    partial sum and running error of the panels it holds then.
    """
    cfg = cfg or QuadratureConfig()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if (lo.ndim not in (1, 2) or lo.shape != hi.shape
            or not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi))):
        raise ValueError(f"need finite lo < hi, got {lo}, {hi}")
    n, m = lo.shape[0], lo.shape[1] if lo.ndim == 2 else 1
    vals, errs = _score(f, np.repeat(np.arange(n), m), lo.ravel(), hi.ravel())
    # column sums in order of j add each row left to right, as Python's sum
    total_val, total_err = vals[::m].copy(), errs[::m].copy()
    for j in range(1, m):
        total_val += vals[j::m]
        total_err += errs[j::m]
    # store[:, i, s] is (lo, hi, value, error) of slot s of live integral i
    store = np.stack([lo.ravel(), hi.ravel(), vals, errs]).reshape(4, n, m)
    values, errors, ok = np.empty(n), np.empty(n), np.ones(n, dtype=bool)
    active = np.arange(n)
    # every live integral is bisected once a round, so all active
    # integrals have used the same number of subdivisions and slots
    n_sub = m
    while True:
        done = ~(total_err > np.fmax(cfg.atol, cfg.rtol * np.abs(total_val)))
        if n_sub >= cfg.max_subdivisions:
            ok[active] = done
            done[:] = True
        if done.any():
            order = np.argsort(store[0, done], axis=1, kind="stable")
            by_lo = np.take_along_axis(store[2, done], order, axis=1)
            by_lo[:, 0] += 0.0  # Python's sum starts from +0.0
            values[active[done]] = np.cumsum(by_lo, axis=1)[:, -1]
            errors[active[done]] = total_err[done]
            active, store = active[~done], store[:, ~done]
            total_val, total_err = total_val[~done], total_err[~done]
            if not active.size:
                return values, errors, ok
        used = 2 * n_sub - m
        if used + 2 > store.shape[2]:  # more than double the slots
            holes = np.broadcast_to(_HOLE[:, None, None], (4, active.size, used + 2))
            store = np.concatenate([store, holes], axis=2)
        worst = (slice(None), np.arange(active.size), np.argmax(store[3], axis=1))
        a, b, v_old, e_old = store[worst]
        store[worst] = _HOLE[:, None]
        mid = 0.5 * (a + b)
        ends = np.array([a, mid, b]).T
        # row 2j of (a, mid) | (mid, b) is the left child of row j
        v, e = _score(f, np.repeat(active, 2), ends[:, :2].ravel(), ends[:, 1:].ravel())
        v, e = v.reshape(-1, 2), e.reshape(-1, 2)
        total_val += v[:, 0] + v[:, 1] - v_old
        total_err += e[:, 0] + e[:, 1] - e_old
        store[:, :, used:used + 2] = np.array([ends[:, :2], ends[:, 1:], v, e])
        n_sub += 1


def integrate_semi_infinite_many(f, scales, edges, cfg=None):
    """Integrate ``len(scales)`` integrands over [0, inf) in lockstep.

    ``f(idx, x)`` evaluates integrand ``idx[j]`` at ``x[j]``; integrand ``i``
    is mapped to (0, 1) by x = scales[i] u/(1-u) and the mapped integrands
    run through :func:`integrate_many`, which starts each from the panels
    between consecutive ``edges`` in u, increasing from 0 to 1; m panels
    count as m subdivisions.  Returns ``(values, errors, ok)`` as
    :func:`integrate_many` does.  An integrand whose values at the first
    call do not decay, or a non-finite one, raises :class:`DivergenceError`.
    """
    cfg = cfg or QuadratureConfig()
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 1 or not np.all((scales > 0.0) & np.isfinite(scales)):
        raise ValueError(f"scales must be positive and finite, got {scales}")
    edges = np.asarray(edges, dtype=float)
    if (edges.ndim != 1 or edges.size < 2 or edges[0] != 0.0 or edges[-1] != 1.0
            or not np.all(np.diff(edges) > 0.0)):
        raise ValueError(f"edges must increase from 0 to 1, got {edges}")
    n = scales.size
    checked = False

    # omu underflows to zero when subdivision pushes nodes against u = 1;
    # the intermediate overflow warnings are noise.  The first call scores
    # the starting panels integrand by integrand, so each integrand's last
    # four values lie at the outermost Kronrod nodes of its last panel
    # (x = 51..1560 scale for edges 0.85, 1, 76..2340 for 0.9, 1 and
    # 257..7800 for 0.97, 1), where |x f(x)| must fall; a few ulps of slack
    # keep 1/x from passing on rounding
    def g(idx, u):
        nonlocal checked
        omu = 1.0 - u
        s = scales[idx]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = s * u / omu
            fx = np.asarray(f(idx, x), dtype=float)
            if not checked:
                checked = True
                samples = np.abs(x * fx).reshape(n, -1)[:, -4:]
                first, last = samples[:, 0], samples[:, -1]
                grows = (first > 0.0) & (last >= (1.0 - 8.0 * _EPS) * first)
                if grows.any():
                    raise DivergenceError(
                        "integrand samples do not decay towards infinity (|x f(x)| at the "
                        f"last panel's outermost nodes: {samples[grows.argmax()].tolist()})")
            return fx * (s / (omu * omu))

    return integrate_many(g, np.tile(edges[:-1], (n, 1)), np.tile(edges[1:], (n, 1)), cfg)
