"""Casimir pressure between two planar slabs across a vacuum gap.

Three routes are provided:

* ``force_imag_axis`` - the reflection-amplitude formula evaluated on the
  imaginary frequency axis (primary path; smooth, positive-decaying
  integrand),
* ``force_real_axis`` - the same physics integrated literally along the
  real-frequency contour (evanescent segment k = is, s: Q -> 0, then
  propagating k: 0 -> K, with the oscillatory tail past K tilted to
  K -> K + i inf); a validation path for dissipative media,
* ``lifshitz_force`` - the classical semi-infinite-slab formula in the
  (p, xi) variables, an independent oracle sharing only the quadrature
  engine with the paths above.

``force_imag_axis_many`` and ``lifshitz_force_many`` run a whole sweep of
gaps as one lockstep batch; the single-gap functions are their one-element
case.

Sign convention everywhere: negative pressure = attraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .constants import C_LIGHT, HBAR
from .dielectric import DielectricModel
from .errors import ConvergenceError, PassivityError, ResonanceError
from .quadrature import QuadratureConfig, integrate_many, integrate_semi_infinite_many
from .reflection import ReflectionModel, WaveKinematics

_PASSIVITY_SLACK = 1e-9
# real-axis caps: every k-segment of every Q' node may take this many
# subdivisions, and the outer Q' integral this many bisection rounds past
# its starting panels; the real-axis census takes at most 455 and 8
_REAL_AXIS_SUBDIVISIONS = 1200
_REAL_AXIS_ROUNDS = 16
# starting partitions of the nested imaginary-axis and Lifshitz integrals,
# as panel edges in u, graded where a census of their work found it; each
# panel counts as one subdivision.  The outer w-integral, in
# w = u/(1-u), splits at w = 2/3, 7/3 and 17/3, so that w's rise, its peak
# near w = 1.5 and both halves of its tail (a panel that every integral of
# the census bisected) start on panels of their own.  The outer p-integral
# runs in p = (1 + x)^2 = 1/(1-u)^2, x = u/(1-u), so that the knee near
# p = omega_p^2 L / (c gamma), past which the Drude TE amplitude dies out,
# lies inside the domain and not against u = 1; it splits at p = 4, 25 and
# 1111.  The inner t-integrals run in t = v^2, which spreads over v the
# turn of the amplitudes near t = 0, where the Drude TE amplitude vanishes
# with xi, and split at v = 0.05 and 0.25.  The inner xi-integrals, in
# xi/scale = u/(1-u), split at 3/7, 1.5 (the peak of xi^3 e^{-2 xi/scale}),
# 4 and 9
_OUTER_EDGES = np.array([0.0, 0.4, 0.7, 0.85, 1.0])
_P_EDGES = np.array([0.0, 0.5, 0.8, 0.97, 1.0])
_V_EDGES = np.array([0.0, 0.05, 0.25, 1.0])
_XI_EDGES = np.array([0.0, 0.3, 0.6, 0.8, 0.9, 1.0])
# starting partition of the real-axis outer Q' integral, in Q'L itself:
# its first round resolves the peak near Q'L = 1 and the exponential
# tail.  Past Q'L = 12 the outer integrand falls as about Q'^3 e^{-2Q'},
# some 1e-8 of the pressure, below a hundredth of the tightest target,
# 1e-6.  Graded on the real-axis census of tests/census.py: the outer
# error is dominated by the inner integrals' noise, so finer starting
# panels buy nothing
_Q_EDGES = np.array([0.0, 1.0, 2.0, 4.0, 12.0])


@dataclass(frozen=True)
class ForceResult:
    """Pressure in Pa (negative = attractive) plus bookkeeping."""

    pressure: float
    error: float
    reduction: float
    neval: int
    path: str
    converged: bool = True


def _gaps(Ls):
    """The gap widths ``Ls`` as a 1-D float array, each checked positive
    and finite, with L^4 and the ideal-mirror pressure normal floats (about
    1.2e-77 m <= L <= 1.55e70 m), so that the L^-4 prefactors and the
    reduction factor stay finite and nonzero."""
    Ls = np.asarray(Ls, dtype=float)
    with np.errstate(all="ignore"):
        L4 = Ls ** 4
        ideal = math.pi ** 2 * HBAR * C_LIGHT / (240.0 * L4)
    # NaN fails every comparison; ideal >= tiny also keeps L^4 finite, and
    # a normal L^4 keeps the ideal pressure finite
    tiny = np.finfo(float).tiny
    if Ls.ndim != 1 or not Ls.size or not np.all((Ls > 0.0) & (L4 >= tiny) & (ideal >= tiny)):
        raise ValueError("gap widths must be positive and finite, with L^4 and the "
                         "ideal-mirror pressure normal floats (about 1.2e-77 m to "
                         f"1.55e70 m), in a non-empty 1-D sequence; got {Ls}")
    return Ls


def _p_variable(xs):
    """p = (1 + x)^2 at the Lifshitz outer nodes x = u/(1-u), and the weight
    p^2 dp/dx = 2 (1 + x)^5; products, so each node's bits fit any batch."""
    a = 1.0 + xs
    p = a * a
    return p, (2.0 * a) * (p * p)


def _t_variable(vs):
    """t = v^2 of the imaginary-axis inner integrals, and dt/dv = 2v."""
    return vs * vs, 2.0 * vs


def ideal_casimir_pressure(L: float) -> float:
    """Perfect-mirror pressure -pi^2 hbar c / (240 L^4)."""
    _gaps([L])
    return -math.pi ** 2 * HBAR * C_LIGHT / (240.0 * L ** 4)


def _result(pressure, error, L, cfg, converged, neval, path):
    """Final ForceResult, with plain-float fields; an error estimate above
    ten times the requested relative tolerance marks it non-converged."""
    if pressure != 0.0 and error > abs(pressure) * cfg.rtol * 10.0:
        converged = False
    pressure, error = float(pressure), float(error)
    return ForceResult(pressure=pressure, error=error,
                       reduction=pressure / ideal_casimir_pressure(L),
                       neval=neval, path=path, converged=converged)


def _check_passive(prod, what):
    m = float(np.max(np.abs(prod))) if np.size(prod) else 0.0
    if m > 1.0 + _PASSIVITY_SLACK:
        raise PassivityError(f"|r1 r2| = {m} >= 1 on the {what} grid (active medium)")


def _double_integral(inner_many, n, cfg, edges):
    """``n`` outer integrals over [0, inf), run in lockstep together with
    the inner integrals of each outer round.

    ``inner_many(j, us, inner_cfg) -> (values, errors, ok)`` computes the
    inner integral of outer integral ``j[i]`` at node ``us[i]``, for every
    node of one outer round of every outer integral at once.  Each outer
    and inner integral keeps its own panels and estimates, so each row gets
    the bits it gets alone.  Returns (values, errors, converged) arrays
    with inner errors folded into the estimates.

    Each outer integral starts from the panels between consecutive
    ``edges`` in u (``_OUTER_EDGES`` for w, ``_P_EDGES`` for p), and
    ``inner_many`` starts its integrals from ``_V_EDGES`` or ``_XI_EDGES``,
    so that a chance Kronrod-Gauss agreement on one wide panel cannot stop
    an integral early with an error estimate that reads too small, and the
    known structure costs no bisections; starting panels count against
    ``cfg.max_subdivisions``.
    """
    # inner integrals run on relative tolerance alone: an absolute floor in
    # the untransformed variable would be amplified by the transform
    # jacobian wherever the outer integrand decays only algebraically
    inner_cfg = replace(cfg, rtol=max(0.1 * cfg.rtol, 2e-14), atol=0.0)
    inner_rel = np.zeros(n)
    converged = np.ones(n, dtype=bool)

    def f(j, us):
        values, errors, ok = inner_many(j, us, inner_cfg)
        np.logical_and.at(converged, j, ok)
        nonzero = values != 0.0
        # fmax ignores NaN ratios, so one NaN cannot hide the worst finite one
        np.fmax.at(inner_rel, j[nonzero], errors[nonzero] / np.abs(values[nonzero]))
        return values

    # a spent outer budget keeps its partial sum and marks its row
    values, errors, ok = integrate_semi_infinite_many(f, np.ones(n), edges, cfg)
    return values, errors + inner_rel * np.abs(values), converged & ok


def _results(Ls, pref, values, errors, ok, neval, cfg, path):
    """One ForceResult per gap; the pressure at gap ``L`` is ``-pref(L)``
    times its double integral."""
    return [_result(-pref(L) * v, pref(L) * e, L, cfg, c, n, path)
            for L, v, e, c, n in zip(Ls.tolist(), values.tolist(), errors.tolist(),
                                     ok.tolist(), neval.tolist())]


def force_imag_axis_many(r1: ReflectionModel, r2: ReflectionModel, Ls,
                         cfg: QuadratureConfig | None = None) -> list[ForceResult]:
    """:func:`force_imag_axis` at every gap of ``Ls``, in one lockstep call.

    In w = kappa L and t = cos(theta) every gap has the same domain, so the
    outer integrals of all gaps run as one batch and every round evaluates
    the amplitudes of all gaps in one array call.  Returns one ForceResult
    per gap, each equal to what the gap gets alone.  An error raised for
    any gap (e.g. :class:`PassivityError`) aborts the whole batch.
    """
    Ls = _gaps(Ls)
    cfg = cfg or QuadratureConfig()
    n = Ls.size
    neval = np.zeros(n, dtype=np.int64)

    # xi = w t c / L and Q = w sqrt(1 - t^2) / L; the w^3 dw weight
    # multiplies the inner integrals, which run in t = v^2, dt = 2v dv
    def inner_many(j, ws, cfg_t):
        def g(idx, t):
            w, gap = ws[idx], Ls[j[idx]]
            xi = w * t * (C_LIGHT / gap)
            Q = w * np.sqrt((1.0 - t) * (1.0 + t)) / gap
            rs1, rp1 = r1.imag_axis(xi, Q)
            rs2, rp2 = (rs1, rp1) if r2 is r1 else r2.imag_axis(xi, Q)
            prod_s = rs1 * rs2
            prod_p = rp1 * rp2
            _check_passive(prod_s, "(xi, Q)")
            _check_passive(prod_p, "(xi, Q)")
            neval[:] += np.bincount(j[idx], minlength=n)
            return kernels.force_integrand_wt(w, prod_s, prod_p)

        if r1.constant_amplitudes and r2.constant_amplitudes:
            # an integrand that does not depend on t integrates over [0, 1]
            # to its value at any one t, exactly
            values = g(np.arange(ws.size), np.full(ws.size, 0.5))
            errors, ok = np.zeros(ws.size), np.ones(ws.size, dtype=bool)
        else:
            def h(idx, v):
                t, dt_dv = _t_variable(v)
                return g(idx, t) * dt_dv

            values, errors, ok = integrate_many(h, np.tile(_V_EDGES[:-1], (ws.size, 1)),
                                                np.tile(_V_EDGES[1:], (ws.size, 1)), cfg_t)
        weight = ws * ws * ws
        return weight * values, weight * errors, ok

    values, errors, ok = _double_integral(inner_many, n, cfg, _OUTER_EDGES)
    return _results(Ls, lambda L: HBAR * C_LIGHT / (2.0 * math.pi ** 2 * L ** 4),
                    values, errors, ok, neval, cfg, "imaginary-axis")


def force_imag_axis(r1: ReflectionModel, r2: ReflectionModel, L: float,
                    cfg: QuadratureConfig | None = None) -> ForceResult:
    """Pressure from the rotated (imaginary-frequency) reflection formula.

    P = -(hbar / 2 pi^2) Int dxi Int dQ Q kappa
        Sum_pol r1 r2 e^{-2 kappa L} / (1 - r1 r2 e^{-2 kappa L}),
    in the polar variables w = kappa L, t = cos(theta) = xi / (c kappa):
    P = -(hbar c / 2 pi^2 L^4) Int_0^inf dw w^3 Int_0^1 dt Sum_pol g/(1-g),
    with g = r1 r2 e^{-2w}.  The one-gap case of :func:`force_imag_axis_many`.
    """
    return force_imag_axis_many(r1, r2, [L], cfg)[0]


def lifshitz_force_many(eps1: DielectricModel, eps2: DielectricModel,
                        eps3: DielectricModel, Ls,
                        cfg: QuadratureConfig | None = None) -> list[ForceResult]:
    """:func:`lifshitz_force` at every gap of ``Ls``, in one lockstep call.

    The outer p-integrals of all gaps run as one batch, as in
    :func:`force_imag_axis_many`; returns one ForceResult per gap, each
    equal to what the gap gets alone.
    """
    Ls = _gaps(Ls)
    cfg = cfg or QuadratureConfig()
    models = {"eps1": eps1, "eps2": eps2, "eps3": eps3}
    if eps2 is eps1:
        del models["eps2"]  # identical slabs share one model: check it once
    for name, model in models.items():
        probe = model.eval_iw(np.array([1e12, 1e15, 1e18]))
        if np.any(np.asarray(probe) < 1.0 - 1e-12):
            raise ValueError(f"{name} must be real >= 1 on the imaginary axis")
    n = Ls.size
    neval = np.zeros(n, dtype=np.int64)
    L_over_c = Ls / C_LIGHT

    # p = (1 + x)^2; the p^2 dp/dx weight multiplies the inner integrals
    def inner_many(j, xs, cfg_t):
        ps, weight = _p_variable(xs)
        gap = Ls[j]

        def g(idx, xi):
            e1 = np.asarray(eps1.eval_iw(xi), dtype=float)
            # identical slabs share one model: continue its eps once
            e2 = e1 if eps2 is eps1 else np.asarray(eps2.eval_iw(xi), dtype=float)
            e3 = np.asarray(eps3.eval_iw(xi), dtype=float)
            neval[:] += np.bincount(j[idx], minlength=n)
            return kernels.lifshitz_inner(xi, ps[idx], e1, e2, e3, L_over_c[j[idx]])

        # decay scale of e^{-2 xi p sqrt(eps3) L/c} in xi
        values, errors, ok = integrate_semi_infinite_many(g, C_LIGHT / (ps * gap), _XI_EDGES,
                                                          cfg_t)
        return weight * values, weight * errors, ok

    values, errors, ok = _double_integral(inner_many, n, cfg, _P_EDGES)
    # the xi-integral carries dimensions rad^4/s^4; the values are already in SI
    pref = HBAR / (2.0 * math.pi ** 2 * C_LIGHT ** 3)
    return _results(Ls, lambda L: pref, values, errors, ok, neval, cfg, "lifshitz")


def lifshitz_force(eps1: DielectricModel, eps2: DielectricModel,
                   eps3: DielectricModel, L: float,
                   cfg: QuadratureConfig | None = None) -> ForceResult:
    """Semi-infinite-slab pressure in the classical (p, xi) variables.

    P = -(hbar / 2 pi^2 c^3) Int_1^inf dp p^2 Int_0^inf dxi xi^3 eps3^{3/2}
        [G1^{-1} + G2^{-1}], evaluated in an overflow-free form.  Supports
    a material-filled gap (eps3 != 1), unlike the reflection-driven paths.
    The one-gap case of :func:`lifshitz_force_many`.
    """
    return lifshitz_force_many(eps1, eps2, eps3, [L], cfg)[0]


def force_real_axis(r1: ReflectionModel, r2: ReflectionModel, L: float,
                    cfg: QuadratureConfig | None = None) -> ForceResult:
    """Pressure from the literal real-frequency contour.

    For each Q the k-integral runs from iQ to 0 (evanescent segment,
    parametrized k = i Q sin(phi) so the q = sqrt(Q^2 - s^2) endpoint
    singularity drops out), then 0 -> K along real k (propagating bulk,
    K = max(4 Q'L, 8)/L) and then K -> K + i infinity (the oscillatory
    tail, turned into the upper half-plane, where the amplitudes are
    analytic and e^{2ikL} decays); a round trip |r1 r2| that does not
    fall along real k past K is refused, as its tail converges only as
    an Abel sum.  The outer Q' integral runs adaptively from the panels
    of ``_Q_EDGES``, and the k-integrals of every Q' node of one outer
    round run in lockstep.  A k-segment stops at ``_REAL_AXIS_SUBDIVISIONS``
    subdivisions, the outer integral after ``_REAL_AXIS_ROUNDS`` rounds; a
    spent cap keeps its partial sum and marks the result non-converged, or
    at the Q'L = 1 seed raises :class:`ConvergenceError` with the seed's
    value, error and segment sums.  Practical accuracy is limited; intended
    as the contour-equivalence validation for dissipative models.
    """
    _gaps([L])
    cfg = cfg or QuadratureConfig()
    target = max(cfg.rtol, 1e-6)
    seg_cfg = QuadratureConfig(rtol=max(target * 0.1, 1e-10), atol=0.0, max_subdivisions=min(
        cfg.max_subdivisions, _REAL_AXIS_SUBDIVISIONS))
    neval = 0

    def products(Qp, q, k):
        """(r1 r2)_s and (r1 r2)_p at Q = Q'/L, frequency c q/L and the
        contour's own normal wavevector k/L."""
        kin = WaveKinematics.real_axis(Qp / L, q / L, k / L)
        rs1, rp1 = r1.pair(kin)
        rs2, rp2 = (rs1, rp1) if r2 is r1 else r2.pair(kin)
        return rs1 * rs2, rp1 * rp2

    def round_trips(Qp, q, k, phase):
        """Polarization-summed g/(1-g) with g = r1 r2 * phase, counted
        as evaluations."""
        nonlocal neval
        out = 0.0
        for prod in products(Qp, q, k):
            g = prod * phase
            den = 1.0 - g
            if np.any(np.abs(den) < 1e-12):
                raise ResonanceError(
                    "resonance pole on the real-frequency contour; add dissipation "
                    "or use the imaginary-axis path")
            out = out + g / den
        neval += phase.size
        return out

    def inner_many(us, floor=None):
        """The k-integrals at the outer nodes ``us``, all in lockstep.

        The evanescent segment runs on the relative ``seg_cfg``.  The
        propagating bulk [0, K] and the tail past it cancel almost
        completely at large Q', so they run on the absolute tolerance
        ``floor``, never on a tolerance relative to their own (possibly
        huge) values.  Without a floor (the seed, one node near the peak,
        where they do not cancel) the evanescent segment and the bulk run
        as the two rows of one call on one relative tolerance, and the
        floor comes from their magnitudes.  Returns (values, errors, ok,
        parts), one entry per node each: ``ok[i]`` False where a segment
        ran out of subdivisions or |r1 r2| does not fall along real k;
        ``parts`` the evanescent, bulk and tail values.
        """
        def evanescent(idx, phi):
            # -Int_0^Q ds s^2/q Im B  ->  -Int_0^{pi/2} dphi Q'^2 sin^2 phi Im B
            Qp = us[idx]
            s = Qp * np.sin(phi)  # e^{2 i k L} = e^{-2 s} with k = i s/L
            b = round_trips(Qp, Qp * np.cos(phi), 1j * s, np.exp(-2.0 * s))
            return -s * s * b.imag

        def integrand(idx, kp):
            """(k^2/q) Sum_pol g/(1-g) at the nodes' real or complex k."""
            Qp = us[idx]
            q = np.sqrt(Qp * Qp + kp * kp)
            return (kp * kp / q) * round_trips(Qp, q, kp, np.exp(2j * kp))

        def propagating(idx, kp):
            return integrand(idx, kp).real

        def segments(idx, x):
            # row 0 the evanescent segment of node 0, row 1 its bulk
            out = np.empty(x.size)
            for row, segment in enumerate((evanescent, propagating)):
                mine = idx == row
                if mine.any():
                    out[mine] = segment(np.zeros_like(idx[mine]), x[mine])
            return out

        def tail(idx, y):
            # r1 r2 is analytic for Im k > 0, where e^{2ik} decays, so
            # Re Int_K^inf dk = Re i Int_0^inf dy at k = K + iy
            return -integrand(idx, K[idx] + 1j * y).imag

        n = us.size
        K = np.maximum(4.0 * us, 8.0)
        # |r1 r2| at real k past K: at most 1 for a passive pair, and it
        # must fall, for on the tilted line even a constant amplitude would
        # decay into an Abel sum of a contour that does not converge
        kp = (K[:, None] * np.array([1.0, 2.0, 4.0, 8.0])).ravel()
        Qp = np.repeat(us, 4)
        prod_s, prod_p = products(Qp, np.sqrt(Qp * Qp + kp * kp), kp)
        _check_passive(prod_s, "propagating k")
        _check_passive(prod_p, "propagating k")
        rho = (np.abs(prod_s) + np.abs(prod_p)).reshape(n, 4)
        ok = (rho[:, -1] < rho[:, 0]) | (rho[:, -1] == 0.0)
        # a spent cap keeps its partial sum and marks its node
        if floor is None:
            vals, errs, seg_ok = integrate_many(
                segments, np.zeros(2), np.array([0.5 * np.pi, K[0]]),
                replace(seg_cfg, rtol=max(0.05 * target, 1e-10)))
            ev, bulk, ev_err, bulk_err = vals[:1], vals[1:], errs[:1], errs[1:]
            ok &= seg_ok.all()
            floor = float((abs(vals[0]) + abs(vals[1])) * target * 0.05)
        else:
            ev, ev_err, ev_ok = integrate_many(evanescent, np.zeros(n),
                                               np.full(n, 0.5 * np.pi), seg_cfg)
            bulk, bulk_err, bulk_ok = integrate_many(
                propagating, np.zeros(n), K, replace(seg_cfg, atol=floor, rtol=1e-5))
            ok &= ev_ok & bulk_ok
        # atol only: bulk and tail are O(1) and cancel in the sum, so a
        # relative exit criterion would leave errors far above floor
        tail_cfg = replace(seg_cfg, atol=0.25 * floor, rtol=1e-10)
        tl, tl_err, tl_ok = integrate_semi_infinite_many(tail, np.full(n, 0.5),
                                                         [0.0, 0.5, 1.0], tail_cfg)
        return (bulk + tl + ev, bulk_err + tl_err + ev_err, ok & tl_ok, (ev, bulk, tl))

    # seed the magnitude of the inner integrals near the peak so every
    # later one gets a meaningful absolute floor; a failure here means the
    # whole contour is hopeless, so it propagates to the caller
    v0, e0, ok0, parts0 = inner_many(np.array([1.0]))
    if not ok0[0]:
        raise ConvergenceError(
            "the real-frequency contour does not converge for this model: at "
            "Q'L = 1 a segment ran out of subdivisions or |r1 r2| does not "
            "fall along the propagating k",
            value=v0[0], error=e0[0], partial_sums=[float(v[0]) for v in parts0])
    scale = abs(float(v0[0]))
    inner_rel = 0.0
    converged = True

    def f(idx, us):
        # one floor for every node, fixed by the seed, so the outer tails
        # are not resolved to pointless relative precision
        nonlocal inner_rel, converged
        values, errors, ok, _ = inner_many(us, scale * target * 0.3)
        converged = converged and bool(ok.all())
        if scale > 0.0:
            inner_rel = max(inner_rel, float(np.max(errors)) / scale)
        return us * values

    vals, errs, ok = integrate_many(
        f, _Q_EDGES[None, :-1], _Q_EDGES[None, 1:],
        QuadratureConfig(rtol=target, max_subdivisions=min(
            cfg.max_subdivisions, len(_Q_EDGES) - 1 + _REAL_AXIS_ROUNDS)))
    val, err = float(vals[0]), float(errs[0])

    pref = HBAR * C_LIGHT / (2.0 * math.pi ** 2 * L ** 4)
    return _result(pref * val, pref * (err + inner_rel * abs(val)), L, cfg,
                   converged and bool(ok[0]), neval, "real-axis")
