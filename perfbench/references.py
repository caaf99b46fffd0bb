"""Reference pressures computed apart from the program: numpy and scipy only.

Nothing here imports ``casimir``.  The Lifshitz pressure is written as a
double integral in the dimensionless variables u = xi L / c and w = kappa L:

    P(L) = -(hbar c / (2 pi^2 L^4)) Int_0^inf du Int_u^inf dw w^2
           Sum_pol rho e^{-2w} / (1 - rho e^{-2w}),   rho = r1 r2,

with r1, r2 the slabs' imaginary-axis reflection amplitudes.  The outer
integral runs on scipy's QUADPACK ``quad``; the inner one on composite
20-point Gauss-Legendre panels graded geometrically away from w = 0, where
the round-trip factor has its pole.  Permittivities are evaluated once per
outer node.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

HBAR = 1.054571817e-34   # J s (CODATA 2018)
C_LIGHT = 2.99792458e8   # m / s

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_S_MAX = 40.0            # e^{-2 s} beyond this is below 1e-34
_U_MAX = 40.0
_EPSREL = 1e-12
SELF_CHECK_RTOL = 1e-11


def mirror_pressure(L):
    """Ideal-mirror pressure -pi^2 hbar c / (240 L^4)."""
    return -math.pi ** 2 * HBAR * C_LIGHT / (240.0 * L ** 4)


def polylog4(x, terms=200_000):
    """Li_4(x) = Sum_n x^n / n^4 for real |x| <= 1, summed smallest term first."""
    if not abs(x) <= 1.0:
        raise ValueError(f"series needs |x| <= 1, got {x}")
    n = np.arange(terms, 0, -1, dtype=float)
    with np.errstate(under="ignore"):
        return float(np.sum(np.power(x, n) / n ** 4))


def constant_pressure(L, rho_s, rho_p):
    """Closed form for constant amplitudes: the inner double integral is 3 Li_4(rho)/8."""
    return -HBAR * C_LIGHT / (2.0 * math.pi ** 2 * L ** 4) * 0.375 * (
        polylog4(rho_s) + polylog4(rho_p))


# ---------------------------------------------------------------- permittivity

def drude_eps(omega_p, gamma):
    """eps(i xi) = 1 + omega_p^2 / (xi (xi + gamma))."""
    return lambda xi: 1.0 + omega_p * omega_p / (xi * (xi + gamma))


def constant_eps(eps_r):
    return lambda xi: float(eps_r)


def _one_minus_atan_ratio(x):
    """1 - arctan(x)/x without cancellation at small x."""
    if x < 1e-2:
        x2 = x * x
        return x2 / 3.0 - x2 * x2 / 5.0 + x2 * x2 * x2 / 7.0
    return 1.0 - math.atan(x) / x


def read_table(path):
    """(omega, Im eps) columns of a whitespace-separated optical table."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    return data[:, 0].copy(), data[:, 1].copy()


def table_eps(omega, im_eps):
    """eps(i xi) of tabulated absorption data, in closed form.

    eps(i xi) = 1 + (2/pi) Int_0^inf w Im eps(w) / (w^2 + xi^2) dw with Im eps
    linear between grid points, A / (w (w^2 + B^2)) below the grid (fitted to
    the two lowest points, exact for Drude data) and C / w^3 above it.  Every
    piece integrates in closed form.
    """
    w1, w2 = omega[:-1], omega[1:]
    y1, y2 = im_eps[:-1], im_eps[1:]
    slope = (y2 - y1) / (w2 - w1)
    icept = y1 - slope * w1
    dw = w2 - w1
    prod = w1 * w2
    r0, r1 = im_eps[0] * omega[0], im_eps[1] * omega[1]
    if not (r0 > r1 > 0.0):
        raise ValueError("low-frequency tail needs Drude-like data")
    ratio = r0 / r1
    b2 = (omega[1] ** 2 - ratio * omega[0] ** 2) / (ratio - 1.0)
    if not b2 > 0.0:
        raise ValueError("low-frequency tail needs B^2 > 0")
    amp = r0 * (omega[0] ** 2 + b2)
    b = math.sqrt(b2)
    w0, wn = float(omega[0]), float(omega[-1])
    c3 = float(im_eps[-1]) * wn ** 3

    def low_tail(xi):
        d = xi * xi - b2
        if abs(d) > 1e-2 * b2:
            return amp * (math.atan(w0 / b) / b - math.atan(w0 / xi) / xi) / d
        val, _ = integrate.quad(lambda x: 1.0 / ((x * x + b2) * (x * x + xi * xi)),
                                0.0, w0, epsabs=0.0, epsrel=1e-13)
        return amp * val

    def eps(xi):
        xi2 = xi * xi
        z = xi * dw / (xi2 + prod)
        atz = np.arctan(z)
        small = z < 1e-2
        z_minus_atan = np.where(small, z ** 3 / 3.0 - z ** 5 / 5.0 + z ** 7 / 7.0, z - atz)
        linear = dw * prod / (xi2 + prod) + xi * z_minus_atan
        log_part = 0.5 * np.log1p((w2 * w2 - w1 * w1) / (w1 * w1 + xi2))
        main = float(np.sum(icept * log_part + slope * linear))
        high = c3 / (xi2 * wn) * _one_minus_atan_ratio(xi / wn)
        return 1.0 + (2.0 / math.pi) * (low_tail(xi) + main + high)

    eps.damping = b  # the low tail's Drude-like rate, for quadrature breakpoints
    return eps


def table_sampling_error(omega, im_eps, omega_p, gamma):
    """Worst relative error of the table's linear interpolant against the
    Drude Im eps it samples, taken at the segment midpoints."""
    mid = 0.5 * (omega[:-1] + omega[1:])
    exact = omega_p ** 2 * gamma / (mid * (mid * mid + gamma * gamma))
    interp = 0.5 * (im_eps[:-1] + im_eps[1:])
    return float(np.max(np.abs(interp / exact - 1.0)))


# ---------------------------------------------------------------- reflection

class Mirror:
    """Ideal mirror: r_s = r_p = -1."""

    def amplitudes(self, u, w, L):
        r = np.full_like(w, -1.0)
        return r, r


class ConstantSlab:
    def __init__(self, rs, rp):
        self.rs, self.rp = float(rs), float(rp)

    def amplitudes(self, u, w, L):
        return np.full_like(w, self.rs), np.full_like(w, self.rp)


def _interface(eps_a, wa, eps_b, wb):
    """Imaginary-axis interface amplitudes from medium a into medium b,
    r_s = (wa - wb)/(wa + wb), r_p = (eps_a wb - eps_b wa)/(eps_a wb + eps_b wa)."""
    return (wa - wb) / (wa + wb), (eps_a * wb - eps_b * wa) / (eps_a * wb + eps_b * wa)


class FresnelSlab:
    """Semi-infinite medium; ``damping`` is the rate (rad/s) below which
    eps(i xi) changes shape, used only to place quadrature breakpoints."""

    def __init__(self, eps, damping=None):
        self.eps = eps
        self.damping = damping

    def amplitudes(self, u, w, L):
        e = self.eps(u * C_LIGHT / L)
        wa = np.sqrt(w * w + (e - 1.0) * u * u)
        return _interface(1.0, w, e, wa)


class FilmSlab:
    """One film of thickness ``d`` on a semi-infinite substrate (Airy sum)."""

    def __init__(self, d, eps_film, eps_sub, damping=None):
        self.d = d
        self.eps_film, self.eps_sub = eps_film, eps_sub
        self.damping = damping

    def amplitudes(self, u, w, L):
        xi = u * C_LIGHT / L
        e1, e2 = self.eps_film(xi), self.eps_sub(xi)
        w1 = np.sqrt(w * w + (e1 - 1.0) * u * u)
        w2 = np.sqrt(w * w + (e2 - 1.0) * u * u)
        x = np.exp(-2.0 * w1 * self.d / L)
        out = []
        for a, b in zip(_interface(1.0, w, e1, w1), _interface(e1, w1, e2, w2)):
            out.append((a + b * x) / (1.0 + a * b * x))
        return tuple(out)


def _inner_nodes(u):
    """Gauss-Legendre nodes and weights in s = w - u on [0, S_MAX], graded so
    that no panel is wider than three times its distance from the pole at
    s = -u (w = 0)."""
    edges = [0.0]
    h = min(u, 0.25)
    while edges[-1] < _S_MAX:
        edges.append(min(edges[-1] + h if len(edges) == 1 else 4.0 * edges[-1], _S_MAX))
    edges = np.array(edges)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    s = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    wt = (half[:, None] * _GL_W[None, :]).ravel()
    return s, wt


def lifshitz_pressure(slab1, slab2, L):
    """Pressure (Pa) between two slabs across a vacuum gap L."""

    def inner(u):
        s, wt = _inner_nodes(u)
        w = u + s
        rs1, rp1 = slab1.amplitudes(u, w, L)
        rs2, rp2 = slab2.amplitudes(u, w, L)
        e = np.exp(-2.0 * w)
        gs = rs1 * rs2 * e
        gp = rp1 * rp2 * e
        return float(wt @ (w * w * (gs / (1.0 - gs) + gp / (1.0 - gp))))

    breaks = {1.0}
    for slab in (slab1, slab2):
        rate = getattr(slab, "damping", None)
        if rate:
            g = rate * L / C_LIGHT
            breaks.update(x for x in (g, 10.0 * g, 0.1 * g) if 0.0 < x < _U_MAX)
    val, _ = integrate.quad(inner, 0.0, _U_MAX, points=sorted(breaks),
                            epsabs=0.0, epsrel=_EPSREL, limit=500)
    return -HBAR * C_LIGHT / (2.0 * math.pi ** 2 * L ** 4) * val


def self_check():
    """Check the Lifshitz integral against both closed forms; raise if off."""
    worst = 0.0
    for L in (1e-8, 3e-7, 5e-6):
        got = lifshitz_pressure(Mirror(), Mirror(), L)
        worst = max(worst, abs(got / mirror_pressure(L) - 1.0))
        a, b = ConstantSlab(0.9, -0.7), ConstantSlab(0.6, 0.95)
        got = lifshitz_pressure(a, b, L)
        worst = max(worst, abs(got / constant_pressure(L, 0.9 * 0.6, -0.7 * 0.95) - 1.0))
    if not worst < SELF_CHECK_RTOL:
        raise RuntimeError(
            f"reference self-check failed: worst deviation {worst:.3e} from the closed forms")
    return worst
