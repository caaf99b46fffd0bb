"""Hot numeric kernels for the pressure and permittivity integrands.

Plain numpy expressions on float64 scalars or arrays, no complex numbers
(the imaginary-axis quantities they evaluate are real).  No force path
calls ``fresnel_rs_rp_iw`` or ``force_integrand_iw``: they stay only for
``perfbench/kernel_headroom.py`` and as test oracles.
"""

import numpy as np


def plasma_eps_iw(xi, omega_p):
    # r * r, not r ** 2: Python's float pow and numpy's square differ in
    # the last bit for some r, and scalar and array xi must agree
    r = omega_p / xi
    return 1.0 + r * r


def drude_eps_iw(xi, omega_p, gamma):
    return 1.0 + omega_p * omega_p / (xi * (xi + gamma))


def fresnel_rs_rp_iw(eps, xi_over_c, Q):
    """Fresnel amplitudes on the imaginary frequency axis.

    ``eps`` is the (real) permittivity at i*xi, ``xi_over_c = xi/c`` and
    ``Q`` the parallel wavevector.  Returns ``(r_s, r_p)`` in the
    convention r_p = (k_a - eps k)/(k_a + eps k).
    """
    kap = np.sqrt(Q * Q + xi_over_c * xi_over_c)
    kap_a = np.sqrt(Q * Q + eps * xi_over_c * xi_over_c)
    rs = (kap - kap_a) / (kap + kap_a)
    rp = (kap_a - eps * kap) / (kap_a + eps * kap)
    return rs, rp


def force_integrand_iw(u, v, prod_s, prod_p):
    """Imaginary-axis pressure integrand, nondimensionalized by the gap L.

    ``u = xi L / c`` (scalar), ``v = Q L`` (array), ``prod_*`` the
    polarization-resolved products r1*r2 evaluated at (u, v).
    """
    w = np.sqrt(u * u + v * v)
    gs = prod_s * np.exp(-2.0 * w)
    gp = prod_p * np.exp(-2.0 * w)
    return v * w * (gs / (1.0 - gs) + gp / (1.0 - gp))


def force_integrand_wt(w, prod_s, prod_p):
    """Imaginary-axis pressure integrand at w = kappa L, less its w^3 weight:
    Sum_pol g/(1-g), g = r1 r2 e^{-2w}, ``prod_*`` the products r1*r2."""
    e = np.exp(-2.0 * w)
    gs = prod_s * e
    gp = prod_p * e
    return gs / (1.0 - gs) + gp / (1.0 - gp)


def lifshitz_inner(xi, p, e1, e2, e3, L_over_c):
    """Inner (xi) integrand of the semi-infinite-slab pressure formula.

    Independent of the reflection-model machinery: builds its own
    s-variables s_a = sqrt(p^2 - 1 + e_a/e3) and evaluates the two
    polarization channels in an overflow-free reciprocal form.
    """
    s1 = np.sqrt(p * p - 1.0 + e1 / e3)
    s2 = np.sqrt(p * p - 1.0 + e2 / e3)
    x = xi * p * np.sqrt(e3) * L_over_c
    ex = np.exp(-2.0 * x)
    b1p = (e3 * s1 - e1 * p) / (e3 * s1 + e1 * p)
    b2p = (e3 * s2 - e2 * p) / (e3 * s2 + e2 * p)
    b1s = (s1 - p) / (s1 + p)
    b2s = (s2 - p) / (s2 + p)
    g1 = b1p * b2p * ex
    g2 = b1s * b2s * ex
    return xi ** 3 * e3 ** 1.5 * (g1 / (1.0 - g1) + g2 / (1.0 - g2))
