"""Reflection amplitudes of a slab seen from vacuum.

Everything is driven by the exact impedance-to-reflection mapping
r = (Z - Z0)/(Z + Z0); Fresnel amplitudes, multilayer stacks and ideal
mirrors are special cases of it.  Amplitudes are real on the imaginary
frequency axis for every physical variant: there each model's ``pair``
runs in the real, rotated variables of :class:`_RotatedKinematics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import C_LIGHT
from .dielectric import DielectricModel, _check_frequency
from .errors import FrequencyDomainError, ResonanceError, SingularKinematicsError


def branch_sqrt(z):
    """Complex sqrt with Im >= 0, and Re >= 0 on the real branch line.

    This is the outgoing-wave branch: e^{ikz} propagates or decays as z
    increases.  numpy's principal root already has Re >= 0, so flipping
    the roots with Im < 0 leaves Re >= 0 wherever Im = 0.
    """
    w = np.sqrt(np.asarray(z, dtype=complex))
    return np.where(w.imag < 0.0, -w, w)


@dataclass(frozen=True)
class WaveKinematics:
    """Vacuum wave kinematics at parallel wavevector Q and frequency freq.

    ``q = freq/c`` so that q^2 = Q^2 + k^2 holds exactly on both frequency
    axes; on the imaginary axis k = i*kappa with kappa real.  Both
    constructors check the frequencies once, so ``eps`` calls each model's
    formula unchecked.
    """

    Q: np.ndarray
    freq: np.ndarray
    q: np.ndarray
    k: np.ndarray

    @classmethod
    def create(cls, Q, freq):
        """At any frequency on either axis, with complex q and
        k = sqrt(q^2 - Q^2) on the outgoing branch."""
        _check_frequency(freq)
        Q = np.asarray(Q, dtype=float)
        if np.any(Q < 0.0):
            raise ValueError("Q must be >= 0")
        freq = np.asarray(freq, dtype=complex)
        q = freq / C_LIGHT
        k = branch_sqrt(q * q - Q * Q)
        return cls(Q=Q, freq=freq, q=q, k=k)

    @classmethod
    def real_axis(cls, Q, q, k):
        """On and above the real frequency axis, from ``q = omega/c`` with
        Re q > 0 and Im q >= 0 and the caller's own ``k`` with
        k^2 = q^2 - Q^2 (i s, s > 0, where the wave is evanescent; real
        and positive where it propagates; on the outgoing branch above the
        axis), as a contour parametrization knows it exactly.  For real
        ``q`` the frequency ``freq = c q`` stays real for the permittivity
        formulas, which continue analytically above the axis; ``q`` and
        ``k`` are cast to complex here once rather than in every mixed
        operation of a ``pair``."""
        q, Q = np.asarray(q), np.asarray(Q, dtype=float)
        if not ((q.real > 0.0) & (q.imag >= 0.0)).all():
            raise FrequencyDomainError(
                "real-axis frequencies must have Re omega > 0 and Im omega >= 0")
        if (Q < 0.0).any():
            raise ValueError("Q must be >= 0")
        return cls(Q=Q, freq=C_LIGHT * q, q=q.astype(complex),
                   k=np.asarray(k, dtype=complex))

    # a layer d thick has the round-trip phase exp(phase k_a d)
    phase = 2j

    def eps(self, medium):
        return medium._eval(self.freq)

    def normal(self, eps):
        """k_a = sqrt(eps q^2 - Q^2), outgoing branch; k_a = 0 raises."""
        k_a = branch_sqrt(eps * self.q * self.q - self.Q * self.Q)
        if np.any(k_a == 0.0):
            raise SingularKinematicsError("branch-cut-ambiguous kinematics k_a = 0")
        return k_a


class _RotatedKinematics:
    """:class:`WaveKinematics` at freq = i*xi over i: q = xi/c, k = kappa =
    sqrt(Q^2 + q^2), k_a = kappa_a = sqrt(Q^2 + eps q^2) > 0, and phases
    e^{-2 kappa_a d}, all real; no ratio the amplitudes take changes."""

    __slots__ = ("xi", "Q", "q", "k")
    phase = -2.0
    freq = property(lambda self: 1j * self.xi)

    def __init__(self, xi, Q):
        self.xi, self.Q, self.q = xi, Q, xi / C_LIGHT
        self.k = np.sqrt(Q * Q + self.q * self.q)

    def eps(self, medium):
        return medium._eval_iw(self.xi)

    def normal(self, eps):
        return np.sqrt(self.Q * self.Q + eps * self.q * self.q)


def vacuum_impedance(pol: str, kin: WaveKinematics):
    """Surface impedance of vacuum: q/k for s, k/q for p."""
    if np.any(kin.k == 0.0):
        raise SingularKinematicsError(
            "grazing kinematics k = 0 (Q = omega/c); integration grids must "
            "not sample this point")
    return _pick(pol, (kin.q / kin.k, kin.k / kin.q))


def impedance_to_reflection(Z, Z0):
    """Exact mapping r = (Z - Z0)/(Z + Z0)."""
    den = Z + Z0
    if np.any(np.abs(den) <= 1e-14 * (np.abs(Z) + np.abs(Z0))):
        raise ResonanceError("impedance pole Z = -Z0")
    return (Z - Z0) / den


def _pick(pol, pair):
    """The ``pol`` member of an (r_s, r_p)-ordered pair."""
    if pol == "s":
        return pair[0]
    if pol == "p":
        return pair[1]
    raise ValueError(f"polarization must be 's' or 'p', got {pol!r}")


MIRROR = "mirror"


@dataclass(frozen=True)
class LayerStack:
    """Finite layers over a substrate, ordered from the vacuum side inward.

    ``layers`` is a tuple of (thickness_m, DielectricModel); ``substrate``
    is a DielectricModel or the string ``"mirror"``.
    """

    layers: tuple
    substrate: object

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        for i, (d, medium) in enumerate(self.layers):
            if not (d > 0.0 and np.isfinite(d)):
                raise ValueError(f"layer {i} thickness must be positive and finite, got {d}")
            if not isinstance(medium, DielectricModel):
                raise TypeError("layer medium must be a DielectricModel")
        if self.substrate != MIRROR and not isinstance(self.substrate, DielectricModel):
            raise TypeError("substrate must be a DielectricModel or 'mirror'")


def _stack_reflection(stack: LayerStack, eps_sub, eps_layers, kin):
    """Stack (r_s, r_p) via surface-impedance recursion from the substrate
    out, from the substrate's and the layers' permittivities (``eps_sub``
    None for a mirror substrate).

    Impedances stay bounded where transfer-matrix entries would overflow
    for thick absorbing layers.  Each medium's normal wavevector k_a and
    each layer's 1 + e and 1 - e, e its round-trip phase, serve both
    polarizations; 1 - e comes from expm1, so a thin layer keeps its digits.
    """
    sub = None if eps_sub is None else (eps_sub, kin.normal(eps_sub))
    layers = []
    for (d, _), eps in zip(reversed(stack.layers), reversed(eps_layers)):
        k_a = kin.normal(eps)
        arg = kin.phase * k_a * d
        layers.append((eps, k_a, 1.0 + np.exp(arg), -np.expm1(arg)))

    def impedance(pol, eps, k_a):
        """Characteristic impedance of a medium: q/k_a for s, k_a/(eps q) for p."""
        return kin.q / k_a if pol == "s" else k_a / (eps * kin.q)

    pair = []
    for pol in ("s", "p"):
        Z = np.zeros_like(kin.q) if sub is None else impedance(pol, *sub)
        for eps, k_a, plus, minus in layers:
            Zc = impedance(pol, eps, k_a)
            # Zc (1 + r e)/(1 - r e), r = (Z - Zc)/(Z + Zc), times (Z + Zc)
            # over itself: 1 - r e cancels to nothing for a thin layer of a
            # large-eps medium, and would sample a false pole there
            den = Z * minus + Zc * plus
            if np.any(np.abs(den) <= 1e-14 * (np.abs(Z) + np.abs(Zc))):
                raise ResonanceError("stack resonance (impedance recursion pole)")
            Z = Zc * (Z * plus + Zc * minus) / den
        pair.append(impedance_to_reflection(Z, vacuum_impedance(pol, kin)))
    return tuple(pair)


class ReflectionModel:
    """Maps wave kinematics to the complex reflection amplitudes (r_s, r_p).

    A model implements one method, ``pair(kin)``, which returns arrays
    broadcasting over ``kin.Q`` and ``kin.q`` of a :class:`WaveKinematics`
    or, from ``imag_axis``, a :class:`_RotatedKinematics`; ``amplitude``, the
    real-axis path and ``casimir dos`` derive from it too.  Instances are
    immutable and ``pair`` is pure.  A model whose amplitudes depend on
    neither frequency nor Q sets ``constant_amplitudes``; the imaginary-axis
    path then takes the inner integral of such a pair from one point.
    """

    constant_amplitudes = False

    def pair(self, kin: WaveKinematics):
        raise NotImplementedError

    def amplitude(self, pol, Q, freq):
        """Amplitude of polarization ``pol`` ("s" or "p") at (Q, freq)."""
        return _pick(pol, self.pair(WaveKinematics.create(Q, freq)))

    def imag_axis(self, xi, Q):
        """(r_s, r_p) as real float arrays at freq = 1j*xi (rad/s, xi > 0)
        and parallel wavevector Q, point by point (arrays of one shape).

        One ``pair`` call on all points, in the rotated variables, which
        hand ``xi``, checked here once, to each medium's formula; a complex
        result (complex constant amplitudes, an impedance callable) is
        checked to be real.
        """
        xi = np.asarray(xi, dtype=float)
        if not np.all(xi > 0.0):
            raise FrequencyDomainError("xi must be > 0 on the imaginary axis")
        rs, rp = self.pair(_RotatedKinematics(xi, Q))
        if rs.dtype.kind != "c" and rp.dtype.kind != "c":
            return rs, rp
        if any(np.any(np.abs(r.imag) > 1e-9 * (1.0 + np.abs(r))) for r in (rs, rp)):
            raise ValueError(
                f"model {self!r} returned an amplitude that is not real on the imaginary axis")
        return rs.real, rp.real


def _shape(kin):
    return np.broadcast(kin.Q, kin.q).shape


@dataclass(frozen=True)
class PerfectMirror(ReflectionModel):
    """Ideal-mirror limit (eps -> infinity) of the Fresnel amplitudes."""

    constant_amplitudes = True

    def pair(self, kin):
        r = np.full(_shape(kin), -1.0)
        return r, r


@dataclass(frozen=True)
class ConstantReflection(ReflectionModel):
    """Scripted fixed amplitude per polarization (not necessarily physical);
    real arrays where both amplitudes are real."""

    r_s: complex
    r_p: complex

    constant_amplitudes = True

    def __post_init__(self):
        if not (np.isfinite(complex(self.r_s)) and np.isfinite(complex(self.r_p))):
            raise ValueError(f"amplitudes must be finite, got {self.r_s}, {self.r_p}")

    def pair(self, kin):
        rs, rp = complex(self.r_s), complex(self.r_p)
        if not (rs.imag or rp.imag):
            rs, rp = rs.real, rp.real
        shape = _shape(kin)
        return np.full(shape, rs), np.full(shape, rp)


@dataclass(frozen=True)
class FresnelReflection(ReflectionModel):
    """Semi-infinite medium: r_s = (k - k_a)/(k + k_a) and
    r_p = (k_a - eps k)/(k_a + eps k), the impedance route with
    Z_a^s = q/k_a and Z_a^p = k_a/(eps q)."""

    dielectric: DielectricModel

    def pair(self, kin):
        eps = kin.eps(self.dielectric)
        k_a = kin.normal(eps)
        return ((kin.k - k_a) / (kin.k + k_a),
                (k_a - eps * kin.k) / (k_a + eps * kin.k))


@dataclass(frozen=True)
class ImpedanceReflection(ReflectionModel):
    """Surface-impedance-defined slab: Z(pol, Q, freq) -> complex.

    Extension hook for nonlocal media.  The supplied callable must be pure
    and broadcast over array ``Q`` and ``freq``: every path calls it once
    per polarization on all points of a round, real or imaginary axis.
    """

    impedance: Callable

    def pair(self, kin):
        return tuple(impedance_to_reflection(self.impedance(pol, kin.Q, kin.freq),
                                             vacuum_impedance(pol, kin))
                     for pol in ("s", "p"))


@dataclass(frozen=True)
class MultilayerReflection(ReflectionModel):
    stack: LayerStack

    def pair(self, kin):
        sub = self.stack.substrate
        eps_sub = None if sub == MIRROR else kin.eps(sub)
        eps_layers = [kin.eps(medium) for _, medium in self.stack.layers]
        return _stack_reflection(self.stack, eps_sub, eps_layers, kin)
