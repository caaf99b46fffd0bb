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
    integrate_semi_infinite,
    integrate_semi_infinite_many,
    panel_results,
)
from .reflection import ReflectionModel, WaveKinematics, amplitudes_both

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


def _double_integral(inner_many, cfg, outer_scale=1.0):
    """Outer semi-infinite integral over u of inner integrals run in lockstep.

    ``inner_many(us, inner_cfg) -> (values, errors, ok)`` computes the inner
    integral at every outer node of one outer-quadrature call.  Returns
    (value, error, converged) with inner errors folded into the estimate.
    """
    # inner integrals run on relative tolerance alone: an absolute floor in
    # the untransformed variable would be amplified by the transform
    # jacobian wherever the outer integrand decays only algebraically
    inner_cfg = replace(cfg, rtol=max(0.1 * cfg.rtol, 2e-14))
    inner_rel = [0.0]
    converged = [True]

    def f(us):
        values, errors, ok = inner_many(us, inner_cfg)
        converged[0] = converged[0] and bool(ok.all())
        nonzero = values != 0.0
        # fmax ignores NaN ratios, so one NaN cannot hide the worst finite one
        inner_rel[0] = float(np.fmax.reduce(errors[nonzero] / np.abs(values[nonzero]),
                                            initial=inner_rel[0]))
        return values

    try:
        val, err = integrate_semi_infinite(f, 0.0, cfg, scale=outer_scale)
    except ConvergenceError as exc:
        val, err = exc.value, exc.error
        converged[0] = False
    err_total = err + inner_rel[0] * abs(val)
    return val, err_total, converged[0]


def force_imag_axis(r1: ReflectionModel, r2: ReflectionModel, L: float,
                    cfg: QuadratureConfig | None = None) -> ForceResult:
    """Pressure from the rotated (imaginary-frequency) reflection formula.

    P = -(hbar / 2 pi^2) Int dxi Int dQ Q kappa
        Sum_pol r1 r2 e^{-2 kappa L} / (1 - r1 r2 e^{-2 kappa L}),
    nondimensionalized with u = xi L / c and v = Q L.
    """
    if L <= 0.0:
        raise ValueError(f"gap width must be positive, got {L}")
    cfg = cfg or QuadratureConfig()
    neval = [0]

    def inner_many(us, cfg_u):
        xi = us * C_LIGHT / L
        amps1 = r1.imag_axis(xi)
        amps2 = amps1 if r2 is r1 else r2.imag_axis(xi)

        def g(idx, v):
            Q = v / L
            rs1, rp1 = amps1(idx, Q)
            rs2, rp2 = (rs1, rp1) if amps2 is amps1 else amps2(idx, Q)
            prod_s = rs1 * rs2
            prod_p = rp1 * rp2
            _check_passive(prod_s, "(xi, Q)")
            _check_passive(prod_p, "(xi, Q)")
            neval[0] += v.size
            return kernels.force_integrand_iw(us[idx], v, prod_s, prod_p)

        return integrate_semi_infinite_many(g, 0.0, 1.0 + np.sqrt(us), cfg_u)

    val, err, ok = _double_integral(inner_many, cfg)
    pref = HBAR * C_LIGHT / (2.0 * math.pi ** 2 * L ** 4)
    return _result(-pref * val, pref * err, L, cfg, ok, neval[0], "imaginary-axis")


def lifshitz_force(eps1: DielectricModel, eps2: DielectricModel,
                   eps3: DielectricModel, L: float,
                   cfg: QuadratureConfig | None = None) -> ForceResult:
    """Semi-infinite-slab pressure in the classical (p, xi) variables.

    P = -(hbar / 2 pi^2 c^3) Int_1^inf dp p^2 Int_0^inf dxi xi^3 eps3^{3/2}
        [G1^{-1} + G2^{-1}], evaluated in an overflow-free form.  Supports
    a material-filled gap (eps3 != 1), unlike the reflection-driven paths.
    """
    if L <= 0.0:
        raise ValueError(f"gap width must be positive, got {L}")
    cfg = cfg or QuadratureConfig()
    for name, model in (("eps1", eps1), ("eps2", eps2), ("eps3", eps3)):
        probe = model.eval_iw(np.array([1e12, 1e15, 1e18]))
        if np.any(np.asarray(probe) < 1.0 - 1e-12):
            raise ValueError(f"{name} must be real >= 1 on the imaginary axis")
    neval = [0]
    L_over_c = L / C_LIGHT

    # p = 1 + t; the p^2 dp weight multiplies the inner integrals
    def inner_many(ts, cfg_t):
        ps = 1.0 + ts

        def g(idx, xi):
            e1 = np.asarray(eps1.eval_iw(xi), dtype=float)
            e2 = np.asarray(eps2.eval_iw(xi), dtype=float)
            e3 = np.asarray(eps3.eval_iw(xi), dtype=float)
            neval[0] += xi.size
            return kernels.lifshitz_inner(xi, ps[idx], e1, e2, e3, L_over_c)

        # decay scale of e^{-2 xi p sqrt(eps3) L/c} in xi
        values, errors, ok = integrate_semi_infinite_many(g, 0.0, C_LIGHT / (ps * L), cfg_t)
        # Python float pow: numpy's ** 2 is p*p, which differs from it in the
        # last bit for some p and would change the output bytes
        weight = np.array([p ** 2 for p in ps.tolist()])
        return weight * values, weight * errors, ok

    val, err, ok = _double_integral(inner_many, cfg)
    pref = HBAR / (2.0 * math.pi ** 2 * C_LIGHT ** 3)
    # the xi-integral carries dimensions rad^4/s^4; val is already in SI
    return _result(-pref * val, pref * err, L, cfg, ok, neval[0], "lifshitz")


def _round_trips(r1, r2, kin, phase):
    """Polarization-summed g/(1-g) with g = r1 r2 * phase at shared kinematics."""
    rs1, rp1 = amplitudes_both(r1, kin)
    rs2, rp2 = amplitudes_both(r2, kin)
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
    in lockstep.  Practical accuracy is limited; intended as the
    contour-equivalence validation for dissipative models.
    """
    if L <= 0.0:
        raise ValueError(f"gap width must be positive, got {L}")
    cfg = cfg or QuadratureConfig()
    target = max(cfg.rtol, 1e-6)
    neval = [0]
    seg_cfg = QuadratureConfig(rtol=max(target * 0.1, 1e-10), atol=0.0,
                               max_subdivisions=cfg.max_subdivisions,
                               tail_check="none")

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
        rs1, rp1 = amplitudes_both(r1, kin)
        rs2, rp2 = amplitudes_both(r2, kin)
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
        errors, failures); failures[i] is node i's ConvergenceError or None.
        """
        def evanescent(idx, phi):
            # -Int_0^Q ds s^2/q Im B  ->  -Int_0^{pi/2} dphi Q'^2 sin^2 phi Im B
            Qp = us[idx]
            s = Qp * np.sin(phi)  # e^{2 i k L} = e^{-2 s} with k = i s/L
            b = round_trips(Qp, Qp * np.cos(phi), np.exp(-2.0 * s))
            neval[0] += phi.size
            return -s * s * b.imag

        def propagating(idx, kp):
            Qp = us[idx]
            q = np.sqrt(Qp * Qp + kp * kp)
            b = round_trips(Qp, q, np.exp(2j * kp))
            neval[0] += kp.size
            return (kp * kp / q) * b.real

        n = us.size
        ev, ev_err, ev_ok = integrate_many(evanescent, np.zeros(n),
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
        tail_bound = np.zeros(n)
        prev_bound = np.full(n, np.inf)
        chunks = [[] for _ in range(n)]
        failures = [None] * n
        live = np.arange(n)
        for octave in range(24):
            bound = envelope(us[live], k[live])
            # remaining octaves bounded by a ~1/k^2 geometric envelope
            settled = bound < floor
            tail_bound[live[settled]] = 1.5 * bound[settled]
            # non-decaying round trip (e.g. constant r): the oscillatory
            # tail is at best Abel-summable, never absolutely convergent
            stalled = (~settled & (octave >= 3) & (bound > floor)
                       & ~(bound < prev_bound[live]))
            for i, b in zip(live[stalled].tolist(), bound[stalled].tolist()):
                failures[i] = ConvergenceError(
                    "propagating-tail contributions stopped decaying; the "
                    "real-frequency contour does not converge for this model",
                    value=total[i] + ev[i], error=err[i] + ev_err[i] + b,
                    partial_sums=chunks[i])
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
        for i in live.tolist():
            failures[i] = ConvergenceError(
                "oscillatory propagating tail did not settle within 24 octaves",
                value=total[i] + ev[i], error=err[i] + ev_err[i] + abs(chunks[i][-1]),
                partial_sums=chunks[i])
        values = total + ev
        errors = err + ev_err + tail_bound
        for i, exc in enumerate(failures):
            if exc is not None:
                values[i], errors[i] = exc.value, exc.error
            elif not ev_ok[i]:
                failures[i] = ConvergenceError(
                    "evanescent segment did not converge in "
                    f"{seg_cfg.max_subdivisions} subdivisions",
                    value=values[i], error=errors[i])
        return values, errors, failures

    scale = [0.0]
    inner_rel = [0.0]
    converged = [True]

    def f(us):
        # one floor for every node of the call, from the running magnitude
        # of the inner integrals at its start, so the outer tails are not
        # resolved to pointless relative precision
        values, errors, failures = inner_many(us, scale[0] * target * 0.3)
        if any(failures):
            converged[0] = False
        scale[0] = max(scale[0], float(np.max(np.abs(values))))
        if scale[0] > 0.0:
            inner_rel[0] = max(inner_rel[0], float(np.max(errors)) / scale[0])
        return us * values

    # seed the running magnitude near the peak so every later inner
    # integral gets a meaningful absolute floor; a failure here means the
    # whole contour is hopeless, so it propagates to the caller
    v0, _, failures = inner_many(np.array([1.0]), 0.0)
    if failures[0] is not None:
        raise failures[0]
    scale[0] = abs(float(v0[0]))

    # fixed coarse grid in Q' plus a few bounded refinement rounds; a fully
    # adaptive outer loop would chase the noise floor of the inner integrals
    q_max = max(8.0, 0.5 * math.log(10.0 / target))
    edges = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, q_max])
    vals, errs = panel_results(f, edges)
    panels = [[edges[i], edges[i + 1], vals[i], errs[i]] for i in range(vals.size)]
    for _ in range(4):
        val = sum(p[2] for p in panels)
        err = sum(p[3] for p in panels)
        if err <= target * abs(val):
            break
        # bisect the worst few panels only
        panels.sort(key=lambda p: -p[3])
        refined = []
        for lo, hi, _, _ in panels[:6]:
            mid = 0.5 * (lo + hi)
            v2, e2 = panel_results(f, np.array([lo, mid, hi]))
            refined.append([lo, mid, v2[0], e2[0]])
            refined.append([mid, hi, v2[1], e2[1]])
        panels = refined + panels[6:]
    panels.sort(key=lambda p: p[0])
    val = float(sum(p[2] for p in panels))
    err = float(sum(p[3] for p in panels))

    pref = HBAR * C_LIGHT / (2.0 * math.pi ** 2 * L ** 4)
    return _result(pref * val, pref * (err + inner_rel[0] * abs(val)), L, cfg,
                   converged[0], neval[0], "real-axis")
