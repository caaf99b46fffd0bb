"""Vacuum-gap mode functions, Green's functions and density of states.

The gap occupies 0 <= z <= L; the slabs enter only through the two
reflection amplitudes r1 (at z = 0) and r2 (at z = L).  A small
broadening eta implements the k + i0+ prescription; it enters the
round-trip phase only, so the free-space limits stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonanceError

_RES_TOL = 1e-13


def default_eta(k, L):
    """Concrete stand-in for the i0+ broadening, 1e-6 * max(k, pi/L)."""
    return 1e-6 * max(k, np.pi / L)


@dataclass(frozen=True)
class ModeFunctions:
    """The two counter-propagating cavity solutions and their Wronskian.

    ``e_lower`` satisfies the z = 0 slab boundary condition, ``e_upper``
    the one at z = L; the Wronskian is z-independent.
    """

    r1: complex
    r2: complex
    k: float
    L: float
    eta: float = 0.0

    @property
    def kt(self):
        return self.k + 1j * self.eta

    def e_lower(self, z):
        kt = self.kt
        return np.exp(-1j * kt * z) + self.r1 * np.exp(1j * kt * z)

    def e_upper(self, z):
        kt = self.kt
        return np.exp(1j * kt * (z - self.L)) + self.r2 * np.exp(-1j * kt * (z - self.L))

    def d_e_lower(self, z):
        kt = self.kt
        return 1j * kt * (-np.exp(-1j * kt * z) + self.r1 * np.exp(1j * kt * z))

    def d_e_upper(self, z):
        kt = self.kt
        return 1j * kt * (np.exp(1j * kt * (z - self.L)) - self.r2 * np.exp(-1j * kt * (z - self.L)))

    def wronskian(self):
        """W = E< E>' - E<' E> = 2 i k e^{-ikL} (1 - r1 r2 e^{2ikL})."""
        kt = self.kt
        return 2j * kt * np.exp(-1j * kt * self.L) * (1.0 - self.r1 * self.r2 * np.exp(2j * kt * self.L))


def _green(z, zp, k, r1, r2, L, eta):
    if not (0.0 <= z <= L and 0.0 <= zp <= L):
        raise ValueError("z and z' must lie inside the gap [0, L]")
    if k <= 0.0:
        raise ValueError("k must be > 0")
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    modes = ModeFunctions(r1=r1, r2=r2, k=k, L=L, eta=eta)
    W = modes.wronskian()
    if abs(W) <= _RES_TOL * 2.0 * k:
        raise ResonanceError(
            "exact cavity resonance 1 - r1 r2 e^{2ikL} = 0; use eta > 0")
    z_lo, z_hi = (z, zp) if z <= zp else (zp, z)
    return modes.e_lower(z_lo) * modes.e_upper(z_hi) / W


def green_electric(z, zp, Q, k, r1, r2, L, eta=0.0):
    """Electric Green's function of the gap at fixed (Q, k).

    ``Q`` is carried for bookkeeping only; the dependence on it is hidden
    in the reflection amplitudes.
    """
    del Q
    return _green(z, zp, k, r1, r2, L, eta)


def green_magnetic(z, zp, Q, k, r1, r2, L, eta=0.0):
    """Magnetic Green's function: the electric one with r_a -> -r_a."""
    del Q
    return _green(z, zp, k, -r1, -r2, L, eta)


def dos(pol, Q, k, r1, r2, L, eta=0.0):
    """Local density of states per unit k^2 at fixed Q (z-independent).

    rho = 1/(2 pi k) * Re[(1 + r1 r2 e^{2i kt L}) / (1 - r1 r2 e^{2i kt L})]
    with kt = k + i eta.  ``pol`` tags which polarization's amplitudes were
    passed in; the total DOS is the s + p sum.
    """
    if pol not in ("s", "p"):
        raise ValueError(f"polarization must be 's' or 'p', got {pol!r}")
    del Q
    if k <= 0.0:
        raise ValueError("k must be > 0")
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    x = r1 * r2 * np.exp(2j * (k + 1j * eta) * L)
    den = 1.0 - x
    if abs(den) <= _RES_TOL:
        raise ResonanceError("cavity resonance in the DOS denominator; use eta > 0")
    return float(np.real((1.0 + x) / den)) / (2.0 * np.pi * k)


def dos_from_greens(Q, k, r1, r2, L, eta=0.0):
    """Assemble the DOS from the equal-point Green's functions.

    Cross-check route: rho = -(1/2 pi) Im[G^E(z, z) + G^B(z, z)], which is
    independent of z.  Evaluated at z = L/2 by default symmetry; callers
    verifying z-independence can use the Green's functions directly.

    The result is Re[(1 + x) / ((1 - x)(k + i eta))] / (2 pi) with
    x = r1 r2 e^{2i(k + i eta)L}.  It equals :func:`dos` only at eta = 0:
    ``dos`` divides by k, not by k + i eta, and for eta > 0 the two differ
    most between the peaks of a high-finesse cavity.
    """
    z = 0.5 * L
    g = green_electric(z, z, Q, k, r1, r2, L, eta) + green_magnetic(z, z, Q, k, r1, r2, L, eta)
    return -float(np.imag(g)) / (2.0 * np.pi)
