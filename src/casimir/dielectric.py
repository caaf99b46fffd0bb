"""Causal permittivity models evaluable at real and imaginary frequency.

Frequencies are complex rad/s and must sit on one of the two physical
axes: real positive (omega) or purely imaginary (i*xi, xi > 0).  On the
imaginary axis every shipped model returns a real permittivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import kernels
from .errors import FrequencyDomainError, OpticalTableError


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
    safe to evaluate concurrently.  A model states its formula in
    ``_eval`` and, where it has a real one, eps(i xi) in ``_eval_iw``;
    ``eval`` and ``eval_iw`` check the frequencies before calling them.
    """

    # True where eps(0) is finite, so that eval accepts freq = 0
    _finite_at_zero = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the wave kinematics call _eval, so an eval override alone would
        # be skipped there; say so when the class is defined
        if "eval" in vars(cls) and "_eval" not in vars(cls):
            raise TypeError(
                f"{cls.__name__} overrides eval; state the permittivity "
                "formula in _eval instead (eval checks the frequencies and "
                "calls it)")

    def eval(self, freq):
        """Complex permittivity at complex frequency (vectorized)."""
        _check_frequency(freq, allow_zero=self._finite_at_zero)
        return self._eval(np.asarray(freq, dtype=complex))

    def _eval(self, freq):
        """The permittivity formula at frequencies already checked to lie on
        one axis: a complex array, or a real one on the real axis."""
        raise NotImplementedError(
            f"{type(self).__name__} must state its permittivity formula in _eval")

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
        return np.real(self._eval(np.asarray(1j * xi)))


@dataclass(frozen=True)
class Vacuum(DielectricModel):
    _finite_at_zero = True

    def _eval(self, freq):
        return np.ones_like(freq)

    def _eval_iw(self, xi):
        return np.ones_like(xi)


@dataclass(frozen=True)
class Constant(DielectricModel):
    """Dispersionless eps_r >= 1."""

    eps_r: float

    def __post_init__(self):
        if np.iscomplexobj(self.eps_r) and np.isreal(self.eps_r):
            object.__setattr__(self, "eps_r", float(np.real(self.eps_r)))
        if not (np.isreal(self.eps_r) and self.eps_r >= 1.0):
            raise ValueError(f"constant permittivity must be real >= 1, got {self.eps_r}")

    _finite_at_zero = True

    def _eval(self, freq):
        return np.full_like(freq, self.eps_r)

    def _eval_iw(self, xi):
        return np.full_like(xi, self.eps_r)


@dataclass(frozen=True)
class Plasma(DielectricModel):
    """Lossless plasma model, eps = 1 - omega_p^2/omega^2."""

    omega_p: float

    def __post_init__(self):
        if self.omega_p <= 0.0:
            raise ValueError("omega_p must be positive")

    def _eval(self, freq):
        return 1.0 - (self.omega_p / freq) ** 2

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

    def _eval(self, freq):
        return 1.0 - self.omega_p ** 2 / (freq * (freq + 1j * self.gamma))

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

    _finite_at_zero = True

    def _eval(self, freq):
        eps = np.full_like(freq, self.eps_inf, dtype=complex)
        for s, w0, g in self.oscillators:
            eps = eps + s * w0 ** 2 / (w0 ** 2 - freq ** 2 - 1j * g * freq)
        return eps


@dataclass(frozen=True)
class OpticalTable:
    """Tabulated Im eps (and optionally Re eps), all finite, on a strictly
    increasing grid."""

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
        for name, column in (("frequencies", omega), ("Im eps", im_eps),
                             ("Re eps", self.re_eps)):
            if column is not None and not np.all(np.isfinite(column)):
                raise OpticalTableError(f"{name} must be finite (no NaN or inf)")
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

    @cached_property
    def _far_moments(self):
        """The moment sums of the Kramers-Kronig far parts at each node, and
        the nodes, as :func:`_continue_table` reads them; built on first use."""
        w, y = self.omega, self.im_eps
        n = 2 * _KK_TERMS
        ratio = w[:-1] / w[1:]
        e = (w[1:] - w[:-1]) / w[:-1]
        # with v = om / w0 and Im eps = y0 + d (v - 1) on a segment, its
        # moment Int_1^R Im eps v^a dv (R = 1 + e, a = 1 - n .. n - 1, row
        # a + n - 1) is y0 I_a + d (I_(a+1) - I_a), I_a = Int_1^R v^a dv
        c = np.arange(2 - n, n + 2)[:, None]
        el = np.log1p(e)
        i = np.divide(np.expm1(c * el), c, out=np.tile(el, (c.size, 1)), where=c != 0)
        mom = y[:-1] * i[:-1] + (y[1:] - y[:-1]) / e * (i[1:] - i[:-1])
        # row k at node m: Int Im eps om^(2k+1) d om / w_m^(2k+2) below it, and
        # at node h: Int Im eps om^(-2k-1) d om w_h^(2k) above it, normalised
        # by the node so that no power overflows; each from the recurrence
        # x_(j+1) = a_j x_j + b_j, x_0 = 0, up or down the nodes, by doubling
        k2 = np.arange(0, n, 2)[:, None]
        up = ratio ** (k2 + 2)
        zero = np.zeros((n, 1))
        a = np.hstack([zero, np.vstack([up, (ratio ** k2)[:, ::-1]])])
        b = np.hstack([zero, np.vstack([up * mom[n::2], mom[n - 2::-2, ::-1]])])
        j = 1
        while j < a.shape[1]:
            b[:, j:] += a[:, j:] * b[:, :-j]
            a[:, j:] = a[:, j:] * a[:, :-j]
            j *= 2
        return (b[:_KK_TERMS], np.concatenate([[0.0], w[1:]]),
                b[_KK_TERMS:, ::-1], np.concatenate([w[:-1], [np.inf]]))

    @cached_property
    def _chebyshev(self):
        """:func:`_chebyshev_of_table` of this table, built on first use."""
        return _chebyshev_of_table(self)


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


def _t_minus_arctan(t):
    """t - arctan(t) for t >= 0, by its series below t = 0.1, where the
    difference would cancel; the arctan pass runs only if some t >= 0.1."""
    small = t < 0.1
    s = np.fmin(t, 0.1)
    s2 = s * s
    acc = np.full_like(s2, 1.0 / 15)
    for k in range(13, 1, -2):
        acc *= s2
        np.subtract(1.0 / k, acc, out=acc)
    s *= s2
    s *= acc
    return s if small.all() else np.where(small, s, t - np.arctan(t))


# (xi, segment) elements per block of the near-slice sums: each temporary
# of a block, 32 kB, stays in L1 (the gold interpolant built in 2.5-2.8 ms on
# a 2-vCPU Xeon VM, 3.8 ms at 16k elements)
_BLOCK_ELEMENTS = 1 << 12

# A segment within a factor _KK_RHO of xi (the near slice) keeps the closed
# form; beyond it the kernel om/(om^2 + xi^2) is a series in (om/xi)^2 or
# (xi/om)^2 <= _KK_RHO^2, whose first _KK_TERMS terms reach 1e-18
_KK_RHO = 0.1
_KK_TERMS = 9


def _near_sums(w, y, x, s, starts):
    """Near-slice shares of eps(i xi) - 1 (before the 2/pi) of the (xi,
    segment) pairs (``x``, ``s``), in place; each row of pairs, from one of
    ``starts`` to the next, summed alone."""
    # segment [w0, w1] with Im eps linear from y0 to y1: J0 and J1 are the
    # integrals of om/(om^2 + xi^2) and om^2/(om^2 + xi^2) over it
    s1 = s + 1
    w0, w1 = w[s], w[s1]
    x2 = x * x
    dw = w1 - w0
    ww = w0 * w1
    den = x2 + ww
    # in place: j0 = 0.5 log1p(dw (w1 + w0) / (w0^2 + x2)), j1 = dw ww / den
    # + x (t - arctan t) at t = x dw / den, and the segment terms
    # (y0 (w1 j0 - j1) + y1 (j1 - w0 j0)) / dw
    j0 = w0 * w0 + x2
    np.log1p(np.divide(dw * (w1 + w0), j0, out=j0), out=j0)
    j0 *= 0.5
    t = x * dw
    t = _t_minus_arctan(np.divide(t, den, out=t))
    t *= x
    j1 = np.divide(dw * ww, den, out=den)
    j1 += t
    terms = w1 * j0
    terms -= j1
    terms *= y[s]
    j0 *= w0
    j1 -= j0
    j1 *= y[s1]
    terms += j1
    terms /= dw
    return np.add.reduceat(terms, starts)


def _continue_table(table: OpticalTable, xi):
    """eps(i xi) = 1 + (2/pi) Int_0^inf w Im eps(w) / (w^2 + xi^2) dw of the
    table at a 1-D array ``xi``, in closed form: Im eps linear on each grid
    segment, with the tails below and above the grid given inline.

    The segments within a factor _KK_RHO of xi, its near slice, are
    integrated one by one, in blocks of about _BLOCK_ELEMENTS (xi, segment)
    pairs; those wholly below _KK_RHO xi or above xi / _KK_RHO enter as
    _KK_TERMS terms of a power series in xi, through the table's moment
    sums at the slice's edge nodes.  The slice depends on xi alone, so each
    xi gets the bits it gets alone.
    """
    w = table.omega
    y = table.im_eps
    if np.all(y == 0.0):
        return np.ones(xi.shape)
    below, lo_node, above, hi_node = table._far_moments
    # segments [0, m) lie below _KK_RHO xi, [h, N) above xi / _KK_RHO
    m = np.maximum(np.searchsorted(w, _KK_RHO * xi, side="right") - 1, 0)
    h = np.minimum(np.searchsorted(w, xi / _KK_RHO), w.size - 1)
    r2, s2 = (lo_node[m] / xi) ** 2, (xi / hi_node[h]) ** 2
    p = u = 0.0
    for below_k, above_k in zip(below[::-1], above[::-1]):
        p = below_k[m] - r2 * p
        u = above_k[h] - s2 * u
    main = r2 * p + u
    live = np.flatnonzero(h > m)
    count = (h - m)[live]
    rows = max(1, _BLOCK_ELEMENTS // count.max(initial=1))
    for i in range(0, live.size, rows):
        r, n = live[i:i + rows], count[i:i + rows]
        starts = np.cumsum(n) - n
        s = np.arange(starts[-1] + n[-1]) + np.repeat(m[r] - starts, n)
        main[r] += _near_sums(w, y, np.repeat(xi[r], n), s, starts)

    # low tail: Im eps = A / (om (om^2 + B^2)), exact for Drude data; with
    # B^2 <= 0 it would not be integrable at 0, so fall back to Im eps
    # linear in om
    y1w1, y2w2 = y[0] * w[0], y[1] * w[1]
    low = 0.0
    b2 = 0.0
    if y2w2 > 0.0 and y1w1 > y2w2:
        ratio = y1w1 / y2w2
        b2 = (w[1] ** 2 - ratio * w[0] ** 2) / (ratio - 1.0)
    if b2 > 0.0:
        # A/(xi^2 - B^2) (arctan(w0/B)/B - arctan(w0/xi)/xi), with the
        # arctan difference folded into arctan(z), free of 1/(xi - B)
        b = np.sqrt(b2)
        amp = y1w1 * (w[0] ** 2 + b2)
        c = b * xi + w[0] ** 2
        z = w[0] * (xi - b) / c
        atanc = np.divide(np.arctan(z), z, out=np.ones_like(z), where=z != 0.0)
        low = amp / (b * xi * (xi + b)) * (np.arctan(w[0] / b) + b * w[0] / c * atanc)
    elif y1w1 > 0.0:
        low = (y[0] / w[0]) * xi * _t_minus_arctan(w[0] / xi)

    # high tail: Im eps = C / om^3
    high = 0.0
    if y[-1] > 0.0:
        r = w[-1] / xi
        high = y[-1] * (r * r * r) * _t_minus_arctan(xi / w[-1])

    return 1.0 + (2.0 / np.pi) * (low + main + high)


# The piecewise Chebyshev interpolant of a table's eps(i xi): geometric
# panels, each with _CHEB_N first-kind nodes in a variable linear in xi (one
# linear in ln xi would add 1-2e-14 of exp/log roundoff)
_CHEB_EDGES = np.geomspace(1e8, 1e22, 65)
_CHEB_MID = 0.5 * (_CHEB_EDGES[1:] + _CHEB_EDGES[:-1])
_CHEB_HALF = 0.5 * (_CHEB_EDGES[1:] - _CHEB_EDGES[:-1])
_CHEB_N = 18
_CHEB_RTOL = 8e-15


def _clenshaw(coef, x):
    """Chebyshev series with coefficient rows ``coef`` at ``x`` in [-1, 1]."""
    x2 = 2.0 * x
    b1 = b2 = 0.0
    for j in range(_CHEB_N - 1, 0, -1):
        b1, b2 = coef[:, j] + x2 * b1 - b2, b1
    return coef[:, 0] + x * b1 - b2


def _chebyshev_of_table(table: OpticalTable):
    """Chebyshev coefficients of the table's interpolant, one row per panel,
    or None if between its nodes it misses :func:`_continue_table` by more
    than _CHEB_RTOL relative anywhere."""
    mid, half = _CHEB_MID[:, None], _CHEB_HALF[:, None]
    theta = (np.arange(_CHEB_N) + 0.5) * (np.pi / _CHEB_N)
    f = _continue_table(table, (mid + half * np.cos(theta)).ravel())
    cos = np.cos(np.arange(_CHEB_N)[:, None] * theta)
    coef = (2.0 / _CHEB_N) * np.add.reduce(f.reshape(-1, 1, _CHEB_N) * cos, axis=2)
    coef[:, 0] *= 0.5
    # the interpolation error peaks at the extrema of T_n, among them the
    # ends and (n even) the middle of each panel
    x = np.array([-1.0, 0.0, 1.0])
    got = _clenshaw(np.repeat(coef, x.size, axis=0), np.tile(x, mid.size))
    want = _continue_table(table, (mid + half * x).ravel())
    return None if np.any(np.abs(got - want) > _CHEB_RTOL * np.abs(want)) else coef


def _table_eps_iw(table: OpticalTable, xi):
    """eps(i xi) at a 1-D array ``xi``: the table's interpolant, built on the
    first call, inside [1e8, 1e22] rad/s, :func:`_continue_table` outside it
    or where the interpolant failed its check."""
    coef = table._chebyshev
    if coef is None:
        return _continue_table(table, xi)
    # clipped, so that no xi outside the range overflows the series
    xc = np.clip(xi, _CHEB_EDGES[0], _CHEB_EDGES[-1])
    k = np.minimum(np.searchsorted(_CHEB_EDGES, xc, side="right") - 1, _CHEB_MID.size - 1)
    out = _clenshaw(coef[k], (xc - _CHEB_MID[k]) / _CHEB_HALF[k])
    outside = xc != xi
    if outside.any():
        out[outside] = _continue_table(table, xi[outside])
    return out


@dataclass(frozen=True)
class Tabulated(DielectricModel):
    """Permittivity backed by an :class:`OpticalTable`.

    Imaginary-axis values come from the Kramers-Kronig continuation of the
    Im eps column; real-axis evaluation needs the optional Re eps column
    and interpolates both inside the grid.
    """

    table: OpticalTable

    def _eval(self, freq):
        om = np.real(freq)
        if np.all(om == 0.0):
            return np.asarray(self.eval_iw(np.imag(freq)), dtype=complex)
        if np.any(np.imag(freq) != 0.0):
            raise FrequencyDomainError(
                "tabulated permittivity has no continuation off the real and "
                "imaginary axes")
        if self.table.re_eps is None:
            raise FrequencyDomainError(
                "tabulated model without a Re eps column cannot be evaluated "
                "at real frequency")
        tb = self.table
        if np.any(om < tb.omega[0]) or np.any(om > tb.omega[-1]):
            raise FrequencyDomainError("real frequency outside the tabulated grid")
        return np.interp(om, tb.omega, tb.re_eps) + 1j * np.interp(om, tb.omega, tb.im_eps)

    def _eval_iw(self, xi):
        return _table_eps_iw(self.table, np.ravel(xi)).reshape(np.shape(xi))
