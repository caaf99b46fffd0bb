"""Causal permittivity models evaluable at real and imaginary frequency.

Frequencies are complex rad/s and must sit on one of the two physical
axes: real positive (omega) or purely imaginary (i*xi, xi > 0).  On the
imaginary axis every shipped model returns a real permittivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .errors import FrequencyDomainError, OpticalTableError
from .quadrature import QuadratureConfig, fixed_panels, integrate, integrate_semi_infinite


def _check_frequency(freq, allow_zero=False):
    """Validate that freq lies on the real-positive or imaginary-positive axis."""
    f = np.asarray(freq, dtype=complex)
    re, im = f.real, f.imag
    on_real = (im == 0.0) & (re > 0.0)
    on_imag = (re == 0.0) & (im > 0.0)
    ok = on_real | on_imag
    if allow_zero:
        ok = ok | (f == 0.0)
    if not np.all(ok):
        bad = f.ravel()[~ok.ravel()][0]
        raise FrequencyDomainError(
            f"frequency {bad} is neither real positive nor i*xi with xi > 0")


class DielectricModel:
    """Common surface of all permittivity variants.

    Subclasses are frozen dataclasses: immutable after construction and
    safe to evaluate concurrently.
    """

    def eval(self, freq):
        """Complex permittivity at complex frequency (vectorized)."""
        raise NotImplementedError

    def eval_iw(self, xi):
        """Real permittivity on the imaginary axis, eps(i*xi), xi > 0.

        A Python float for scalar ``xi``, else an array of its shape.
        """
        xi = np.asarray(xi, dtype=float)
        if np.any(xi <= 0.0):
            raise FrequencyDomainError("xi must be > 0 on the imaginary axis")
        if xi.ndim == 0:
            return float(self._eval_iw(float(xi)))
        return self._eval_iw(xi)

    def _eval_iw(self, xi):
        """eps(i*xi) at validated ``xi`` (a float or an array)."""
        return np.real(self.eval(1j * xi))


@dataclass(frozen=True)
class Vacuum(DielectricModel):
    def eval(self, freq):
        _check_frequency(freq, allow_zero=True)
        return np.ones_like(np.asarray(freq, dtype=complex))


@dataclass(frozen=True)
class Constant(DielectricModel):
    """Dispersionless eps_r >= 1."""

    eps_r: float

    def __post_init__(self):
        if not np.isreal(self.eps_r) or self.eps_r < 1.0:
            raise ValueError(f"constant permittivity must be real >= 1, got {self.eps_r}")

    def eval(self, freq):
        _check_frequency(freq, allow_zero=True)
        return np.full_like(np.asarray(freq, dtype=complex), self.eps_r)


@dataclass(frozen=True)
class Plasma(DielectricModel):
    """Lossless plasma model, eps = 1 - omega_p^2/omega^2."""

    omega_p: float

    def __post_init__(self):
        if self.omega_p <= 0.0:
            raise ValueError("omega_p must be positive")

    def eval(self, freq):
        _check_frequency(freq)
        f = np.asarray(freq, dtype=complex)
        return 1.0 - (self.omega_p / f) ** 2

    def _eval_iw(self, xi):
        return kernels.plasma_eps_iw(xi, self.omega_p)


@dataclass(frozen=True)
class Drude(DielectricModel):
    """Drude metal, eps = 1 - omega_p^2/(omega (omega + i gamma))."""

    omega_p: float
    gamma: float

    def __post_init__(self):
        if self.omega_p <= 0.0 or self.gamma <= 0.0:
            raise ValueError("omega_p and gamma must be positive")

    def eval(self, freq):
        _check_frequency(freq)
        f = np.asarray(freq, dtype=complex)
        return 1.0 - self.omega_p ** 2 / (f * (f + 1j * self.gamma))

    def _eval_iw(self, xi):
        return kernels.drude_eps_iw(xi, self.omega_p, self.gamma)


@dataclass(frozen=True)
class DrudeLorentz(DielectricModel):
    """Sum of Lorentz oscillators (strength, omega_0, gamma_j) over eps_inf.

    eps(omega) = eps_inf + sum_j S_j w0_j^2 / (w0_j^2 - omega^2 - i gamma_j omega)
    """

    eps_inf: float
    oscillators: tuple  # of (strength, omega_0, gamma_j)

    def __post_init__(self):
        if self.eps_inf < 1.0:
            raise ValueError("eps_inf must be >= 1")
        for s, w0, g in self.oscillators:
            if s < 0.0 or w0 <= 0.0 or g < 0.0:
                raise ValueError(f"bad oscillator (S={s}, omega_0={w0}, gamma={g})")

    def eval(self, freq):
        _check_frequency(freq, allow_zero=True)
        f = np.asarray(freq, dtype=complex)
        eps = np.full_like(f, complex(self.eps_inf))
        for s, w0, g in self.oscillators:
            eps = eps + s * w0 ** 2 / (w0 ** 2 - f ** 2 - 1j * g * f)
        return eps


@dataclass(frozen=True)
class OpticalTable:
    """Tabulated Im eps (and optionally Re eps) on a strictly increasing grid."""

    omega: np.ndarray
    im_eps: np.ndarray
    re_eps: np.ndarray | None = None

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        im_eps = np.asarray(self.im_eps, dtype=float)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "im_eps", im_eps)
        if self.re_eps is not None:
            object.__setattr__(self, "re_eps", np.asarray(self.re_eps, dtype=float))
        if omega.ndim != 1 or omega.size < 2:
            raise OpticalTableError("optical table needs at least 2 grid points")
        if not np.all(np.diff(omega) > 0.0):
            raise OpticalTableError("frequency grid must be strictly increasing")
        if np.any(omega <= 0.0):
            raise OpticalTableError("frequencies must be positive")
        if im_eps.shape != omega.shape:
            raise OpticalTableError("Im eps column length does not match the grid")
        if np.any(im_eps < 0.0):
            raise OpticalTableError("Im eps must be >= 0 everywhere (passivity)")
        if self.re_eps is not None and self.re_eps.shape != omega.shape:
            raise OpticalTableError("Re eps column length does not match the grid")


def load_optical_table(path) -> OpticalTable:
    """Read a whitespace-separated (omega, Im eps[, Re eps]) text file.

    Lines starting with '#' are comments; frequencies are rad/s.
    """
    p = Path(path)
    if not p.is_file():
        raise OpticalTableError(f"optical table file not found: {p}")
    rows = []
    for ln, line in enumerate(p.read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) not in (2, 3):
            raise OpticalTableError(
                f"{p}:{ln}: expected 2 or 3 numeric columns, got {len(parts)}")
        try:
            rows.append([float(tok) for tok in parts])
        except ValueError as exc:
            raise OpticalTableError(f"{p}:{ln}: non-numeric entry") from exc
    if len(rows) < 2:
        raise OpticalTableError(f"{p}: need at least 2 data rows, got {len(rows)}")
    ncols = {len(r) for r in rows}
    if len(ncols) != 1:
        raise OpticalTableError(f"{p}: inconsistent column count across rows")
    data = np.asarray(rows, dtype=float)
    re_eps = data[:, 2] if data.shape[1] == 3 else None
    return OpticalTable(omega=data[:, 0], im_eps=data[:, 1], re_eps=re_eps)


# quadrature setup for the dispersion-relation integral; the tails are
# smooth closed forms, the gridded part is handled panel by panel.
_KK_CFG = QuadratureConfig(rtol=1e-8, max_subdivisions=400)


def permittivity_from_table(table: OpticalTable, xi: float) -> float:
    """Continue tabulated absorption data to the imaginary axis.

    Evaluates eps(i xi) = 1 + (2/pi) * Int_0^inf w Im eps(w) / (w^2 + xi^2) dw
    with the tabulated data interpolated on its grid, a 1/w^3 tail above it
    and, below it, a Drude-type tail A/(w (w^2 + B^2)) fitted to the two
    lowest grid points when w Im eps falls there, else the insulator tail
    Im eps = y0 w / w0 that goes linearly to zero from the first point.
    """
    if not np.isreal(xi) or xi <= 0.0:
        raise FrequencyDomainError(f"xi must be real > 0, got {xi}")
    xi = float(xi)
    w = table.omega
    y = table.im_eps
    if np.all(y == 0.0):
        return 1.0

    def gridded(om):
        return om * np.interp(om, w, y) / (om * om + xi * xi)

    main, _ = fixed_panels(gridded, w)

    # low tail: Im eps = A / (om (om^2 + B^2)), exact for Drude data; with
    # B^2 <= 0 it would not be integrable at 0, so fall back to Im eps
    # linear in om, whose integral is closed-form
    y1w1, y2w2 = y[0] * w[0], y[1] * w[1]
    low = 0.0
    b2 = 0.0
    if y2w2 > 0.0 and y1w1 > y2w2:
        ratio = y1w1 / y2w2
        b2 = (w[1] ** 2 - ratio * w[0] ** 2) / (ratio - 1.0)
    if b2 > 0.0:
        amp = y1w1 * (w[0] ** 2 + b2)
        low, _ = integrate(lambda om: amp / ((om * om + b2) * (om * om + xi * xi)),
                           0.0, w[0], _KK_CFG)
    elif y1w1 > 0.0:
        low = (y[0] / w[0]) * (w[0] - xi * np.arctan(w[0] / xi))

    # high tail: Im eps = C / om^3
    high = 0.0
    if y[-1] > 0.0:
        c3 = y[-1] * w[-1] ** 3
        high, _ = integrate_semi_infinite(
            lambda om: c3 / (om * om * (om * om + xi * xi)),
            w[-1], _KK_CFG, scale=max(w[-1], xi))

    return 1.0 + (2.0 / np.pi) * (low + main + high)


@dataclass(frozen=True)
class Tabulated(DielectricModel):
    """Permittivity backed by an :class:`OpticalTable`.

    Imaginary-axis values come from the Kramers-Kronig continuation of the
    Im eps column; real-axis evaluation needs the optional Re eps column
    and interpolates both inside the grid.
    """

    table: OpticalTable

    def eval(self, freq):
        _check_frequency(freq)
        f = np.asarray(freq, dtype=complex)
        if np.all(f.real == 0.0):
            return np.asarray(self.eval_iw(f.imag), dtype=complex)
        if self.table.re_eps is None:
            raise FrequencyDomainError(
                "tabulated model without a Re eps column cannot be evaluated "
                "at real frequency")
        om = f.real
        tb = self.table
        if np.any(om < tb.omega[0]) or np.any(om > tb.omega[-1]):
            raise FrequencyDomainError("real frequency outside the tabulated grid")
        return np.interp(om, tb.omega, tb.re_eps) + 1j * np.interp(om, tb.omega, tb.im_eps)

    def _eval_iw(self, xi):
        return np.array([permittivity_from_table(self.table, x)
                         for x in np.ravel(xi)]).reshape(np.shape(xi))
