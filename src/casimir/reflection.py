"""Reflection amplitudes of a slab seen from vacuum.

Everything is driven by the exact impedance-to-reflection mapping
r = (Z - Z0)/(Z + Z0); Fresnel amplitudes, multilayer stacks and ideal
mirrors are special cases of it.  Amplitudes are real on the imaginary
frequency axis for every physical variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .constants import C_LIGHT
from .dielectric import DielectricModel, _check_frequency
from .errors import ResonanceError, SingularKinematicsError


def branch_sqrt(z):
    """Complex sqrt with Im >= 0, and Re >= 0 on the real branch line.

    This is the outgoing-wave branch: e^{ikz} propagates or decays as z
    increases.
    """
    w = np.sqrt(np.asarray(z, dtype=complex))
    w = np.where(w.imag < 0.0, -w, w)
    return np.where((w.imag == 0.0) & (w.real < 0.0), -w, w)


@dataclass(frozen=True)
class WaveKinematics:
    """Vacuum wave kinematics at parallel wavevector Q and frequency freq.

    ``q = freq/c`` so that q^2 = Q^2 + k^2 holds exactly on both frequency
    axes; on the imaginary axis k = i*kappa with kappa real.
    """

    Q: np.ndarray
    freq: complex
    q: np.ndarray
    k: np.ndarray

    @classmethod
    def create(cls, Q, freq):
        _check_frequency(freq)
        Q = np.asarray(Q, dtype=float)
        if np.any(Q < 0.0):
            raise ValueError("Q must be >= 0")
        q = np.asarray(freq, dtype=complex) / C_LIGHT
        k = branch_sqrt(q * q - Q * Q)
        return cls(Q=Q, freq=freq, q=q, k=k)

    @property
    def kappa(self):
        """Imaginary-axis decay constant, kappa = sqrt(Q^2 + xi^2/c^2)."""
        return np.abs(self.k)


def vacuum_impedance(pol: str, kin: WaveKinematics):
    """Surface impedance of vacuum: q/k for s, k/q for p."""
    if np.any(kin.k == 0.0):
        raise SingularKinematicsError(
            "grazing kinematics k = 0 (Q = omega/c); integration grids must "
            "not sample this point")
    return _pick(pol, (kin.q / kin.k, kin.k / kin.q))


def impedance_to_reflection(Z, Z0):
    """Exact mapping r = (Z - Z0)/(Z + Z0)."""
    Z = np.asarray(Z, dtype=complex)
    Z0 = np.asarray(Z0, dtype=complex)
    den = Z + Z0
    if np.any(np.abs(den) <= 1e-14 * (np.abs(Z) + np.abs(Z0))):
        raise ResonanceError("impedance pole Z = -Z0")
    return (Z - Z0) / den


def medium_normal_wavevector(eps, kin: WaveKinematics):
    """k_a = sqrt(eps q^2 - Q^2) with the outgoing branch."""
    return branch_sqrt(eps * kin.q * kin.q - kin.Q * kin.Q)


def _pick(pol, pair):
    """The ``pol`` member of an (r_s, r_p)-ordered pair."""
    if pol == "s":
        return pair[0]
    if pol == "p":
        return pair[1]
    raise ValueError(f"polarization must be 's' or 'p', got {pol!r}")


def _fresnel_pair(eps, kin: WaveKinematics):
    """Fresnel (r_s, r_p) of a semi-infinite medium of permittivity ``eps``.

    r_s = (k - k_a)/(k + k_a), r_p = (k_a - eps k)/(k_a + eps k); equal to
    the impedance route with Z_a^s = q/k_a, Z_a^p = k_a/(eps q).
    """
    k_a = medium_normal_wavevector(eps, kin)
    if np.any(k_a == 0.0):
        raise SingularKinematicsError("branch-cut-ambiguous kinematics k_a = 0")
    return ((kin.k - k_a) / (kin.k + k_a),
            (k_a - eps * kin.k) / (k_a + eps * kin.k))


def fresnel(model: DielectricModel, pol: str, kin: WaveKinematics):
    """Fresnel amplitude of a semi-infinite medium (see :func:`_fresnel_pair`)."""
    return _pick(pol, _fresnel_pair(model.eval(kin.freq), kin))


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
        for d, medium in self.layers:
            if not (d > 0.0 and np.isfinite(d)):
                raise ValueError(f"layer thickness must be positive and finite, got {d}")
            if not isinstance(medium, DielectricModel):
                raise TypeError("layer medium must be a DielectricModel")
        if self.substrate != MIRROR and not isinstance(self.substrate, DielectricModel):
            raise TypeError("substrate must be a DielectricModel or 'mirror'")


def _characteristic_impedance(eps, pol, kin):
    k_a = medium_normal_wavevector(eps, kin)
    if pol == "s":
        return kin.q / k_a, k_a
    return k_a / (eps * kin.q), k_a


def _stack_reflection(stack: LayerStack, eps_sub, eps_layers, kin):
    """Stack (r_s, r_p) via surface-impedance recursion from the substrate
    out, from the substrate's and the layers' permittivities (``eps_sub``
    None for a mirror substrate).

    Impedances stay bounded where transfer-matrix entries would overflow
    for thick absorbing layers.
    """
    pair = []
    for pol in ("s", "p"):
        if eps_sub is None:
            Z = np.zeros_like(kin.q)
        else:
            Z, _ = _characteristic_impedance(eps_sub, pol, kin)
        for (d, _), eps in zip(reversed(stack.layers), reversed(eps_layers)):
            Zc, k_a = _characteristic_impedance(eps, pol, kin)
            r_inner = impedance_to_reflection(Z, Zc)
            phase = np.exp(2j * k_a * d)
            den = 1.0 - r_inner * phase
            if np.any(np.abs(den) <= 1e-14):
                raise ResonanceError("stack resonance (impedance recursion pole)")
            Z = Zc * (1.0 + r_inner * phase) / den
        pair.append(impedance_to_reflection(Z, vacuum_impedance(pol, kin)))
    return tuple(pair)


_IMAG_TOL = 1e-9


def _real_on_imag_axis(model, r):
    """Real part of amplitudes computed at i*xi, which must be real."""
    r = np.asarray(r, dtype=complex)
    if np.any(np.abs(r.imag) > _IMAG_TOL * (1.0 + np.abs(r))):
        raise ValueError(
            f"model {model!r} returned a non-real amplitude on the imaginary axis")
    return r.real.astype(float)


class ReflectionModel:
    """Maps wave kinematics to the complex reflection amplitudes (r_s, r_p).

    A model implements one method, ``pair(kin)``, which returns complex
    arrays broadcasting over ``kin.Q`` and ``kin.freq``; ``amplitude``, the
    real-axis path, ``casimir dos`` and the generic ``imag_axis`` all derive
    from it.  Instances are immutable and ``pair`` is pure.
    """

    def pair(self, kin: WaveKinematics):
        raise NotImplementedError

    def amplitude(self, pol, Q, freq):
        """Amplitude of polarization ``pol`` ("s" or "p") at (Q, freq)."""
        return _pick(pol, self.pair(WaveKinematics.create(Q, freq)))

    def imag_axis(self, xi):
        """Bind the model to the imaginary-axis nodes ``xi`` (1D, rad/s).

        Returns ``amplitudes(idx, Q) -> (r_s, r_p)``, real float arrays at
        freq = 1j*xi[idx] and parallel wavevector Q (same shape as idx).
        This generic route makes one ``pair`` call on all points and checks
        that the amplitudes are real; subclasses override it to evaluate
        eps once per node.
        """
        xi = np.asarray(xi, dtype=float)

        def amplitudes(idx, Q):
            r_s, r_p = self.pair(WaveKinematics.create(Q, 1j * xi[idx]))
            return _real_on_imag_axis(self, r_s), _real_on_imag_axis(self, r_p)

        return amplitudes


def _shape(kin):
    return np.broadcast(kin.Q, kin.q).shape


@dataclass(frozen=True)
class PerfectMirror(ReflectionModel):
    """Ideal-mirror limit (eps -> infinity) of the Fresnel amplitudes."""

    def pair(self, kin):
        r = np.full(_shape(kin), -1.0 + 0.0j)
        return r, r

    def imag_axis(self, xi):
        def amplitudes(idx, Q):
            r = np.full(np.shape(Q), -1.0)
            return r, r.copy()

        return amplitudes


@dataclass(frozen=True)
class ConstantReflection(ReflectionModel):
    """Scripted fixed amplitude per polarization (not necessarily physical)."""

    r_s: complex
    r_p: complex

    def pair(self, kin):
        shape = _shape(kin)
        return np.full(shape, complex(self.r_s)), np.full(shape, complex(self.r_p))

    def imag_axis(self, xi):
        for r in (self.r_s, self.r_p):
            if abs(complex(r).imag) > _IMAG_TOL:
                raise ValueError(
                    f"constant amplitude {r} is not real on the imaginary axis")
        r_s, r_p = float(np.real(self.r_s)), float(np.real(self.r_p))

        def amplitudes(idx, Q):
            return np.full(np.shape(Q), r_s), np.full(np.shape(Q), r_p)

        return amplitudes


@dataclass(frozen=True)
class FresnelReflection(ReflectionModel):
    dielectric: DielectricModel

    def pair(self, kin):
        return _fresnel_pair(self.dielectric.eval(kin.freq), kin)

    def imag_axis(self, xi):
        """Fresnel amplitudes at i*xi with eps(i*xi) evaluated once per node."""
        xi = np.asarray(xi, dtype=float)
        eps = np.asarray(self.dielectric.eval_iw(xi), dtype=float)

        def amplitudes(idx, Q):
            return kernels.fresnel_rs_rp_iw(eps[idx], xi[idx] / C_LIGHT, Q)

        return amplitudes


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
        eps_sub = None if sub == MIRROR else sub.eval(kin.freq)
        eps_layers = [medium.eval(kin.freq) for _, medium in self.stack.layers]
        return _stack_reflection(self.stack, eps_sub, eps_layers, kin)

    def imag_axis(self, xi):
        """Stack amplitudes at i*xi with every medium's eps evaluated once
        per node, in one array call per medium."""
        xi = np.asarray(xi, dtype=float)
        sub = self.stack.substrate
        eps_sub = None if sub == MIRROR else sub.eval(1j * xi)
        eps_layers = [medium.eval(1j * xi) for _, medium in self.stack.layers]

        def amplitudes(idx, Q):
            kin = WaveKinematics.create(Q, 1j * xi[idx])
            sub_idx = None if eps_sub is None else eps_sub[idx]
            pair = _stack_reflection(self.stack, sub_idx, [eps[idx] for eps in eps_layers], kin)
            return tuple(_real_on_imag_axis(self, r) for r in pair)

        return amplitudes
