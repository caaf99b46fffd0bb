import numpy as np
import pytest

from casimir import ModeFunctions, dos, dos_from_greens, green_electric, green_magnetic
from casimir.errors import ResonanceError
from casimir.spectrum import default_eta

L = 1e-6


def test_wronskian_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(50):
        r1 = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.3, 0.3)
        r2 = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.3, 0.3)
        k = rng.uniform(1e5, 1e7)
        modes = ModeFunctions(r1=r1, r2=r2, k=k, L=L, eta=0.0)
        z = rng.uniform(0.0, L)
        direct = (modes.e_lower(z) * modes.d_e_upper(z)
                  - modes.d_e_lower(z) * modes.e_upper(z))
        assert direct == pytest.approx(modes.wronskian(), rel=1e-9)


def test_mode_boundary_conditions():
    r1, r2, k = 0.6, -0.3, 4.2e6
    modes = ModeFunctions(r1=r1, r2=r2, k=k, L=L)
    # e_lower at z=0: incoming 1 plus reflected r1; e_upper mirrored at z=L
    assert modes.e_lower(0.0) == pytest.approx(1.0 + r1, rel=1e-12)
    assert modes.e_upper(L) == pytest.approx(1.0 + r2, rel=1e-12)


def test_free_space_dos_is_exact():
    rng = np.random.default_rng(29)
    for _ in range(100):
        k = rng.uniform(1e4, 1e8)
        for pol in ("s", "p"):
            assert dos(pol, 0.0, k, 0.0, 0.0, L) == pytest.approx(
                1.0 / (2.0 * np.pi * k), rel=1e-15)


def test_dos_nonnegative_for_passive_amplitudes():
    rng = np.random.default_rng(101)
    n = 10000
    mag1 = rng.uniform(0.0, 1.0, n)
    mag2 = rng.uniform(0.0, 1.0, n)
    ph1 = rng.uniform(0.0, 2.0 * np.pi, n)
    ph2 = rng.uniform(0.0, 2.0 * np.pi, n)
    kL = rng.uniform(0.05, 40.0, n)
    for i in range(n):
        r1 = mag1[i] * np.exp(1j * ph1[i])
        r2 = mag2[i] * np.exp(1j * ph2[i])
        k = kL[i] / L
        rho = dos("s", 0.0, k, r1, r2, L, eta=default_eta(k, L))
        assert rho >= 0.0


def test_dos_matches_greens_function_route():
    rng = np.random.default_rng(41)
    for _ in range(60):
        r1 = rng.uniform(-0.95, 0.95)
        r2 = rng.uniform(-0.95, 0.95)
        k = rng.uniform(0.3, 20.0) / L
        # eta = 0 keeps the comparison exact; the samples stay off resonance
        total = dos("s", 0.0, k, r1, r2, L) + dos("p", 0.0, k, -r1, -r2, L)
        # electric + magnetic Green's route covers both field contributions
        assert dos_from_greens(0.0, k, r1, r2, L) == pytest.approx(
            0.5 * total, rel=1e-9)


def test_greens_route_with_broadening():
    # for eta > 0 the Green's route divides by k + i eta where dos divides
    # by k, so it is pinned to its own closed form, not to dos
    for r1, r2 in ((-1.0, -1.0), (0.4, -0.6)):
        for k in np.linspace(0.3, 20.0, 41) / L:
            eta = 1e-6 * k
            kt = k + 1j * eta
            x = r1 * r2 * np.exp(2j * kt * L)
            want = np.real((1.0 + x) / ((1.0 - x) * kt)) / (2.0 * np.pi)
            assert dos_from_greens(0.0, k, r1, r2, L, eta) == pytest.approx(
                want, rel=1e-9)


def test_dos_is_z_independent_through_greens_functions():
    r1, r2 = 0.7, 0.5
    k = 5.3 / L
    samples = []
    for z in np.linspace(0.05 * L, 0.95 * L, 9):
        g = green_electric(z, z, 0.0, k, r1, r2, L) \
            + green_magnetic(z, z, 0.0, k, r1, r2, L)
        samples.append(-np.imag(g) / (2.0 * np.pi))
    assert np.ptp(samples) < 1e-9 * abs(np.mean(samples))


def test_green_reciprocity():
    k = 7.1 / L
    g12 = green_electric(0.2 * L, 0.7 * L, 0.0, k, 0.4, -0.6, L)
    g21 = green_electric(0.7 * L, 0.2 * L, 0.0, k, 0.4, -0.6, L)
    assert g12 == pytest.approx(g21, rel=1e-14)


def test_free_space_green_imaginary_part():
    # Im G(z, z) = -1/(2k) without mirrors
    k = 3.7 / L
    g = green_electric(0.4 * L, 0.4 * L, 0.0, k, 0.0, 0.0, L)
    assert np.imag(g) == pytest.approx(-1.0 / (2.0 * k), rel=1e-12)


def test_mirror_cavity_dos_peaks_at_cavity_modes():
    ks = np.linspace(0.2 * np.pi / L, 5.8 * np.pi / L, 7001)
    rho = np.array([dos("s", 0.0, k, -1.0, -1.0, L, eta=default_eta(k, L))
                    for k in ks])
    # local maxima of rho * 2 pi k (the enhancement over free space)
    enh = rho * 2.0 * np.pi * ks
    idx = np.nonzero((enh[1:-1] > enh[:-2]) & (enh[1:-1] > enh[2:]))[0] + 1
    peaks = ks[idx]
    dk = ks[1] - ks[0]
    for n in range(1, 6):
        assert np.min(np.abs(peaks - n * np.pi / L)) < 2.0 * dk


def test_exact_resonance_raises_without_broadening():
    k = np.pi / L
    with pytest.raises(ResonanceError):
        dos("s", 0.0, k, -1.0, -1.0, L, eta=0.0)
    # a finite eta regularizes the same point
    assert np.isfinite(dos("s", 0.0, k, -1.0, -1.0, L, eta=default_eta(k, L)))


def test_input_validation():
    with pytest.raises(ValueError):
        dos("x", 0.0, 1e6, 0.0, 0.0, L)
    with pytest.raises(ValueError):
        dos("s", 0.0, -1e6, 0.0, 0.0, L)
    with pytest.raises(ValueError):
        green_electric(-1e-9, 0.5 * L, 0.0, 1e6, 0.0, 0.0, L)


def test_dos_broadcasts_like_its_scalar_form():
    rng = np.random.default_rng(29)
    ks = rng.uniform(1e5, 2e7, 300)
    r1 = rng.uniform(0.0, 1.0, ks.size) * np.exp(2j * np.pi * rng.uniform(size=ks.size))
    r2 = -0.7 + 0.1j
    eta = default_eta(ks, L)
    rho = dos("p", 0.0, ks, r1, r2, L, eta)
    assert isinstance(dos("p", 0.0, float(ks[0]), complex(r1[0]), r2, L), float)
    want = [dos("p", 0.0, float(k), complex(a), r2, L, float(e))
            for k, a, e in zip(ks, r1, eta)]
    assert rho == pytest.approx(want, rel=1e-14)
    # validation and the resonance check act on every element
    with pytest.raises(ValueError, match="k must be > 0"):
        dos("s", 0.0, np.array([1e6, 0.0]), 0.0, 0.0, L)
    with pytest.raises(ValueError, match="eta must be >= 0"):
        dos("s", 0.0, np.array([1e6, 2e6]), 0.0, 0.0, L, np.array([0.0, -1.0]))
    with pytest.raises(ResonanceError):
        dos("s", 0.0, np.array([0.5, 1.0]) * np.pi / L, -1.0, -1.0, L, 0.0)
