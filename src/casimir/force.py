"""Casimir pressure between two planar slabs across a vacuum gap.

Three routes are provided:

* ``force_imag_axis`` - the reflection-amplitude formula evaluated on the
  imaginary frequency axis (primary path; smooth, positive-decaying
  integrand),
* ``force_real_axis`` - the same physics integrated literally along the
  real-frequency contour (evanescent segment k = is, s: Q -> 0, then
  propagating k: 0 -> inf); a validation path for dissipative media,
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
from .quadrature import (
    QuadratureConfig,
    integrate_many,
    integrate_semi_infinite_many,
    panel_results,
)
from .reflection import ReflectionModel, WaveKinematics

_PASSIVITY_SLACK = 1e-9


@dataclass(frozen=True)
class ForceResult:
    """Pressure in Pa (negative = attractive) plus bookkeeping."""

    pressure: float
    error: float
    reduction: float
    neval: int
    path: str
    converged: bool = True


def ideal_casimir_pressure(L: float) -> float:
    """Perfect-mirror pressure -pi^2 hbar c / (240 L^4)."""
    if L <= 0.0:
        raise ValueError(f"gap width must be positive, got {L}")
    return -math.pi ** 2 * HBAR * C_LIGHT / (240.0 * L ** 4)


def reduction_factor(result: ForceResult, L: float) -> float:
    """Computed pressure over the ideal-mirror pressure at the same gap."""
    return result.pressure / ideal_casimir_pressure(L)


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


def _gaps(Ls):
    """The gap widths ``Ls`` as a 1-D float array, each checked positive."""
    Ls = np.asarray(Ls, dtype=float)
    if Ls.ndim != 1 or not Ls.size or not np.all(Ls > 0.0):
        raise ValueError(f"gap widths must be positive, in a non-empty 1-D sequence; got {Ls}")
    return Ls


def _double_integral(inner_many, n, cfg):
    """``n`` outer semi-infinite integrals over u, run in lockstep together
    with the inner integrals of each outer round.

    ``inner_many(j, us, inner_cfg) -> (values, errors, ok)`` computes the
    inner integral of outer integral ``j[i]`` at node ``us[i]``, for every
    node of one outer round of every outer integral at once.  Each outer
    and inner integral keeps its own heap and estimates, so each row gets
    the bits it gets alone.  Returns (values, errors, converged) arrays
    with inner errors folded into the estimates.
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
    values, errors, ok = integrate_semi_infinite_many(f, 0.0, np.ones(n), cfg)
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

    In u = xi L / c and v = Q L every gap has the same outer domain and
    scale, so the outer integrals of all gaps run as one batch and every
    round evaluates the amplitudes of all gaps in one array call.  Returns
    one ForceResult per gap, each equal to what the gap gets alone.  An
    error raised for any gap (e.g. :class:`PassivityError`) aborts the
    whole batch.
    """
    Ls = _gaps(Ls)
    cfg = cfg or QuadratureConfig()
    n = Ls.size
    neval = np.zeros(n, dtype=np.int64)

    def inner_many(j, us, cfg_u):
        gap = Ls[j]
        xi = us * C_LIGHT / gap
        amps1 = r1.imag_axis(xi)
        amps2 = amps1 if r2 is r1 else r2.imag_axis(xi)

        def g(idx, v):
            Q = v / gap[idx]
            rs1, rp1 = amps1(idx, Q)
            rs2, rp2 = (rs1, rp1) if amps2 is amps1 else amps2(idx, Q)
            prod_s = rs1 * rs2
            prod_p = rp1 * rp2
            _check_passive(prod_s, "(xi, Q)")
            _check_passive(prod_p, "(xi, Q)")
            neval[:] += np.bincount(j[idx], minlength=n)
            return kernels.force_integrand_iw(us[idx], v, prod_s, prod_p)

        return integrate_semi_infinite_many(g, 0.0, 1.0 + np.sqrt(us), cfg_u)

    values, errors, ok = _double_integral(inner_many, n, cfg)
    return _results(Ls, lambda L: HBAR * C_LIGHT / (2.0 * math.pi ** 2 * L ** 4),
                    values, errors, ok, neval, cfg, "imaginary-axis")


def force_imag_axis(r1: ReflectionModel, r2: ReflectionModel, L: float,
                    cfg: QuadratureConfig | None = None) -> ForceResult:
    """Pressure from the rotated (imaginary-frequency) reflection formula.

    P = -(hbar / 2 pi^2) Int dxi Int dQ Q kappa
        Sum_pol r1 r2 e^{-2 kappa L} / (1 - r1 r2 e^{-2 kappa L}),
    nondimensionalized with u = xi L / c and v = Q L.  The one-gap case of
    :func:`force_imag_axis_many`.
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

    # p = 1 + t; the p^2 dp weight multiplies the inner integrals
    def inner_many(j, ts, cfg_t):
        ps = 1.0 + ts
        gap = Ls[j]

        def g(idx, xi):
            e1 = np.asarray(eps1.eval_iw(xi), dtype=float)
            # identical slabs share one model: continue its eps once
            e2 = e1 if eps2 is eps1 else np.asarray(eps2.eval_iw(xi), dtype=float)
            e3 = np.asarray(eps3.eval_iw(xi), dtype=float)
            neval[:] += np.bincount(j[idx], minlength=n)
            return kernels.lifshitz_inner(xi, ps[idx], e1, e2, e3, L_over_c[j[idx]])

        # decay scale of e^{-2 xi p sqrt(eps3) L/c} in xi
        values, errors, ok = integrate_semi_infinite_many(g, 0.0, C_LIGHT / (ps * gap), cfg_t)
        # Python float pow: numpy's ** 2 is p*p, which differs from it in the
        # last bit for some p and would change the output bytes
        weight = np.array([p ** 2 for p in ps.tolist()])
        return weight * values, weight * errors, ok

    values, errors, ok = _double_integral(inner_many, n, cfg)
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


def _round_trips(r1, r2, kin, phase):
    """Polarization-summed g/(1-g) with g = r1 r2 * phase at shared kinematics."""
    rs1, rp1 = r1.pair(kin)
    rs2, rp2 = r2.pair(kin)
    out = 0.0
    for g in (rs1 * rs2 * phase, rp1 * rp2 * phase):
        den = 1.0 - g
        if np.any(np.abs(den) < 1e-12):
            raise ResonanceError(
                "resonance pole on the real-frequency contour; add dissipation "
                "or use the imaginary-axis path")
        out = out + g / den
    return out


def force_real_axis(r1: ReflectionModel, r2: ReflectionModel, L: float,
                    cfg: QuadratureConfig | None = None) -> ForceResult:
    """Pressure from the literal real-frequency contour.

    For each Q the k-integral runs from iQ to 0 (evanescent segment,
    parametrized k = i Q sin(phi) so the q = sqrt(Q^2 - s^2) endpoint
    singularity drops out) and then 0 -> infinity (propagating segment,
    truncated octave by octave once the oscillatory tail stops
    contributing).  The k-integrals of every Q node of one outer call run
    in lockstep, and each refinement round of the outer grid is one outer
    call.  Practical accuracy is limited; intended as the
    contour-equivalence validation for dissipative models.
    """
    if L <= 0.0:
        raise ValueError(f"gap width must be positive, got {L}")
    cfg = cfg or QuadratureConfig()
    target = max(cfg.rtol, 1e-6)
    neval = 0
    seg_cfg = QuadratureConfig(rtol=max(target * 0.1, 1e-10), atol=0.0,
                               max_subdivisions=cfg.max_subdivisions)

    def round_trips(Qp, q, phase):
        kin = WaveKinematics.create(Qp / L, (C_LIGHT / L) * q)
        return _round_trips(r1, r2, kin, phase)

    def envelope(Qp, k):
        """Bound on |integral| of each oscillatory chunk [k, 2k], from the
        slowly varying round-trip amplitude alone (integration by parts in
        the e^{2ik} phase); inf where the bound is not usable."""
        kp = np.stack((k, np.sqrt(k * (2.0 * k)), 2.0 * k), axis=1).ravel()
        Qp = np.repeat(Qp, 3)
        q = np.sqrt(Qp * Qp + kp * kp)
        kin = WaveKinematics.create(Qp / L, (C_LIGHT / L) * q)
        rs1, rp1 = r1.pair(kin)
        rs2, rp2 = r2.pair(kin)
        rho = (np.abs(rs1 * rs2) + np.abs(rp1 * rp2)).reshape(-1, 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.max((kp * kp / q).reshape(-1, 3) * rho / (1.0 - rho), axis=1)
        return np.where(np.any(rho > 0.5, axis=1), np.inf, bound)

    def inner_many(us, floor):
        """The k-integrals at the outer nodes ``us``, all in lockstep.

        The propagating bulk and tail cancel almost completely at large Q';
        every segment therefore runs on the absolute tolerance ``floor``,
        never on a tolerance relative to its own (possibly huge) value.  A
        zero floor is bootstrapped from a rough pass.  Returns (values,
        errors, ok, partial_sums) with one entry per node: ``ok[i]`` is
        False where the evanescent segment ran out of budget or the
        oscillatory tail did not settle, and ``partial_sums[i]`` lists the
        node's octave contributions.
        """
        def evanescent(idx, phi):
            # -Int_0^Q ds s^2/q Im B  ->  -Int_0^{pi/2} dphi Q'^2 sin^2 phi Im B
            nonlocal neval
            Qp = us[idx]
            s = Qp * np.sin(phi)  # e^{2 i k L} = e^{-2 s} with k = i s/L
            b = round_trips(Qp, Qp * np.cos(phi), np.exp(-2.0 * s))
            neval += phi.size
            return -s * s * b.imag

        def propagating(idx, kp):
            nonlocal neval
            Qp = us[idx]
            q = np.sqrt(Qp * Qp + kp * kp)
            b = round_trips(Qp, q, np.exp(2j * kp))
            neval += kp.size
            return (kp * kp / q) * b.real

        n = us.size
        ev, ev_err, ok = integrate_many(evanescent, np.zeros(n),
                                        np.full(n, 0.5 * np.pi), seg_cfg)
        k = np.maximum(4.0 * us, 8.0)
        if not floor > 0.0:
            rough, _, _ = integrate_many(propagating, np.zeros(n), k,
                                         replace(seg_cfg, rtol=1e-3))
            floor = float(np.min((np.abs(rough) + np.abs(ev)) * target * 0.05))
        abs_cfg = replace(seg_cfg, atol=floor, rtol=1e-5,
                          max_subdivisions=min(cfg.max_subdivisions, 1200))
        # a spent budget in a propagating piece keeps its partial sum
        total, err, _ = integrate_many(propagating, np.zeros(n), k, abs_cfg)
        # atol only: individual octaves are O(1) and cancel in the sum,
        # so a relative exit criterion would leave errors far above floor
        oc_cfg = replace(abs_cfg, atol=0.25 * floor, rtol=1e-10)
        tail = np.zeros(n)
        prev_bound = np.full(n, np.inf)
        chunks = [[] for _ in range(n)]
        live = np.arange(n)
        for octave in range(24):
            bound = envelope(us[live], k[live])
            # remaining octaves bounded by a ~1/k^2 geometric envelope
            settled = bound < floor
            # non-decaying round trip (e.g. constant r): the oscillatory
            # tail is at best Abel-summable, never absolutely convergent
            stalled = (~settled & (octave >= 3) & (bound > floor)
                       & ~(bound < prev_bound[live]))
            tail[live[settled]] = 1.5 * bound[settled]
            tail[live[stalled]] = bound[stalled]
            ok[live[stalled]] = False
            prev_bound[live] = bound
            live = live[~settled & ~stalled]
            if not live.size:
                break
            v, e, _ = integrate_many(lambda j, kp: propagating(live[j], kp),
                                     k[live], 2.0 * k[live], oc_cfg)
            total[live] += v
            err[live] += e
            for i, x in zip(live.tolist(), v.tolist()):
                chunks[i].append(x)
            k[live] *= 2.0
        else:
            # still oscillating after 24 octaves: the last one bounds the rest
            tail[live] = np.abs(v)
            ok[live] = False
        return total + ev, err + ev_err + tail, ok, chunks

    scale = inner_rel = 0.0
    converged = True

    def f(us):
        # one floor for every node of the call, from the running magnitude
        # of the inner integrals at its start, so the outer tails are not
        # resolved to pointless relative precision
        nonlocal scale, inner_rel, converged
        values, errors, ok, _ = inner_many(us, scale * target * 0.3)
        converged = converged and bool(ok.all())
        scale = max(scale, float(np.max(np.abs(values))))
        if scale > 0.0:
            inner_rel = max(inner_rel, float(np.max(errors)) / scale)
        return us * values

    # seed the running magnitude near the peak so every later inner
    # integral gets a meaningful absolute floor; a failure here means the
    # whole contour is hopeless, so it propagates to the caller
    v0, e0, ok0, chunks0 = inner_many(np.array([1.0]), 0.0)
    if not ok0[0]:
        raise ConvergenceError(
            "the real-frequency contour does not converge for this model: at "
            "Q'L = 1 the evanescent segment ran out of budget or the "
            "propagating tail did not settle",
            value=v0[0], error=e0[0], partial_sums=chunks0[0])
    scale = abs(float(v0[0]))

    # fixed coarse grid in Q' plus a few bounded refinement rounds; a fully
    # adaptive outer loop would chase the noise floor of the inner integrals
    q_max = max(8.0, 0.5 * math.log(10.0 / target))
    edges = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, q_max])
    lo, hi = edges[:-1], edges[1:]
    vals, errs = panel_results(f, lo, hi)
    for _ in range(4):
        if sum(errs.tolist()) <= target * abs(sum(vals.tolist())):
            break
        # bisect the worst few panels only, all in one outer call
        worst = np.argsort(-errs, kind="stable")[:6]
        mid = 0.5 * (lo[worst] + hi[worst])
        a, b = np.concatenate((lo[worst], mid)), np.concatenate((mid, hi[worst]))
        v, e = panel_results(f, a, b)
        lo, hi, vals, errs = (np.concatenate((np.delete(old, worst), new))
                              for old, new in ((lo, a), (hi, b), (vals, v), (errs, e)))
        # keep the panels in Q' order
        order = np.argsort(lo)
        lo, hi, vals, errs = lo[order], hi[order], vals[order], errs[order]
    val, err = sum(vals.tolist()), sum(errs.tolist())

    pref = HBAR * C_LIGHT / (2.0 * math.pi ** 2 * L ** 4)
    return _result(pref * val, pref * (err + inner_rel * abs(val)), L, cfg,
                   converged, neval, "real-axis")
