"""Check every output row against the independent references and properties.

A force row passes when its status, path and separation are what the config
asks for and its pressure agrees with the reference to the tolerance below;
a sweep must also have |P| strictly decreasing in L, and lossy slabs must
give a reduction factor 0 < eta < 1.  A DOS table passes when every row
matches the reference formula, is non-negative, sums its polarizations
exactly, and meets the table's special properties (exact free space,
mirror-cavity peaks at n pi / L, dos equal to dos_from_greens).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import references as ref

# a row must meet the requested relative accuracy rtol; the real-axis path
# works to max(rtol, 1e-6)
REAL_AXIS_FLOOR = 1e-6
DOS_RTOL = 1e-9
DOS_IDENTITY_TOL = 1e-9


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def separations(sweep):
    lo = float(sweep.get("min", 1e-6))
    hi = float(sweep.get("max", lo))
    n = int(sweep.get("points", 1))
    if n == 1:
        return np.array([lo])
    if sweep.get("spacing", "log") == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------- slab models

def _eps_iw(material, base):
    kind = material["model"]
    if kind == "drude":
        return ref.drude_eps(float(material["omega_p"]), float(material["gamma"]))
    if kind == "constant":
        return ref.constant_eps(float(material["eps_r"]))
    if kind == "tabulated":
        return ref.table_eps(*ref.read_table(base / material["file"]))
    raise ValueError(f"no reference for material model {kind!r}")


def _damping(material):
    return float(material["gamma"]) if material["model"] == "drude" else None


def reference_slab(slab, base):
    kind = slab["type"]
    if kind == "mirror":
        return ref.Mirror()
    if kind == "constant":
        return ref.ConstantSlab(slab["rs"], slab["rp"])
    if kind == "fresnel":
        eps = _eps_iw(slab["material"], base)
        return ref.FresnelSlab(eps, damping=getattr(eps, "damping", None)
                               or _damping(slab["material"]))
    if kind == "multilayer" and len(slab["layers"]) == 1:
        layer = slab["layers"][0]
        return ref.FilmSlab(float(layer["thickness"]), _eps_iw(layer["material"], base),
                            _eps_iw(slab["substrate"], base),
                            damping=_damping(layer["material"]))
    raise ValueError(f"no reference for slab {slab!r}")


def _lossy(slab):
    if slab["type"] == "fresnel":
        return slab["material"]["model"] in ("drude", "tabulated")
    return slab["type"] == "multilayer"


def reference_pressure(doc, base, L):
    s1, s2 = doc["slab1"], doc["slab2"]
    if s1["type"] == s2["type"] == "mirror":
        return ref.mirror_pressure(L)
    if s1["type"] == s2["type"] == "constant":
        return ref.constant_pressure(L, float(s1["rs"]) * float(s2["rs"]),
                                     float(s1["rp"]) * float(s2["rp"]))
    return ref.lifshitz_pressure(reference_slab(s1, base), reference_slab(s2, base), L)


# ---------------------------------------------------------------- force rows

def check_force(op, rows):
    """Per-row pass flags and messages for one ``casimir run`` output.
    That |P| decreases along the sweep is checked with ``not_decreasing``,
    over every operation the sweep is split into."""
    doc, base = op.doc, Path(op.config).parent
    path = doc.get("path", "imaginary-axis")
    Ls = separations(doc.get("sweep", {}))
    if len(rows) != len(Ls):
        return [False] * len(Ls), [f"{op.name}: {len(rows)} rows, expected {len(Ls)}"]
    ok, notes = [], []
    rtol = float(doc.get("quadrature", {}).get("rtol", 1e-9))
    tol = max(rtol, REAL_AXIS_FLOOR) if path == "real-axis" else rtol
    for row, L in zip(rows, Ls):
        good = row["path"] == path and math.isclose(float(row["L_m"]), L, rel_tol=1e-12)
        if op.expect_exit != 0:
            good = good and row["status"] == "failed: ConvergenceError"
            ok.append(good)
            if not good:
                notes.append(f"{op.name} L={L:.4g}: status {row['status']!r}")
            continue
        P = float(row["pressure_Pa"])
        good = good and row["status"] == "ok" and math.isfinite(P)
        if good:
            P_ref = reference_pressure(doc, base, L)
            dev = abs(P / P_ref - 1.0)
            good = dev <= tol
            if not good:
                notes.append(f"{op.name} L={L:.4g}: |P/P_ref - 1| = {dev:.3e} > {tol:.1e}")
            if op.sampled_drude is not None:
                good = good and _within_sampling(op, base, L, P, notes)
        if good and _lossy(doc["slab1"]) and _lossy(doc["slab2"]):
            eta = float(row["eta_red"])
            if not 0.0 < eta < 1.0:
                good = False
                notes.append(f"{op.name} L={L:.4g}: eta = {eta} outside (0, 1)")
        ok.append(good)
    return ok, notes


def not_decreasing(points):
    """Pairs of neighbouring points, in order of L, at which |P| does not
    strictly decrease; ``points`` are (L, P, key) for one sweep."""
    points = sorted(points, key=lambda p: p[0])
    return [(a, b) for a, b in zip(points, points[1:]) if not abs(a[1]) > abs(b[1])]


def _within_sampling(op, base, L, P, notes):
    """Tabulated rows against the Drude pressure the table samples, to the
    table's own sampling error."""
    wp, gamma = op.sampled_drude
    mat = op.doc["slab1"]["material"]
    omega, im_eps = ref.read_table(base / mat["file"])
    bound = ref.table_sampling_error(omega, im_eps, wp, gamma)
    slab = ref.FresnelSlab(ref.drude_eps(wp, gamma), damping=gamma)
    P_drude = ref.lifshitz_pressure(slab, slab, L)
    dev = abs(P / P_drude - 1.0)
    if dev > bound:
        notes.append(f"{op.name} L={L:.4g}: {dev:.3e} off the sampled Drude pressure, "
                     f"sampling error {bound:.2e}")
        return False
    return True


# ---------------------------------------------------------------- DOS tables

def _real_axis_amplitude(slab, pol, Q, k):
    if slab["type"] == "mirror":
        return -1.0 + 0.0j
    if slab["type"] == "constant":
        return complex(float(slab["rs" if pol == "s" else "rp"]))
    if slab["type"] == "fresnel" and slab["material"]["model"] == "drude":
        wp, gamma = float(slab["material"]["omega_p"]), float(slab["material"]["gamma"])
        omega = ref.C_LIGHT * math.hypot(Q, k)
        eps = 1.0 - wp * wp / (omega * (omega + 1j * gamma))
        q = omega / ref.C_LIGHT
        ka = np.sqrt(complex(eps * q * q - Q * Q))
        if ka.imag < 0.0 or (ka.imag == 0.0 and ka.real < 0.0):
            ka = -ka
        if pol == "s":
            return (k - ka) / (k + ka)
        return (ka - eps * k) / (ka + eps * k)
    raise ValueError(f"no real-axis reference for slab {slab!r}")


def check_dos(op, rows, identity_dev):
    """One pass flag and messages for one ``casimir dos`` table."""
    doc = op.doc
    d = doc["dos"]
    L, Q, n = float(d["L"]), float(d.get("Q", 0.0)), int(d.get("points", 500))
    k_max = float(d.get("k_max", 6.0 * math.pi / L))
    ks = np.linspace(k_max / n, k_max, n)
    if len(rows) != n:
        return False, [f"{op.name}: {len(rows)} rows, expected {n}"]
    notes = []
    k = np.array([float(r["k_1_per_m"]) for r in rows])
    rho = {pol: np.array([float(r[f"rho_{pol}"]) for r in rows]) for pol in ("s", "p")}
    total = np.array([float(r["rho_total"]) for r in rows])
    free = 1.0 / (2.0 * math.pi * k)
    if not np.allclose(k, ks, rtol=1e-12, atol=0.0):
        notes.append(f"{op.name}: k grid differs from the configured one")
    if not np.array_equal(total, (0.0 + rho["s"]) + rho["p"]):
        notes.append(f"{op.name}: rho_total is not rho_s + rho_p")
    for pol in ("s", "p"):
        if np.any(rho[pol] < 0.0):
            notes.append(f"{op.name}: negative rho_{pol} for passive slabs")
        eta = d.get("eta")
        want = np.empty(n)
        for i, kk in enumerate(k):
            e = float(eta) if eta is not None else 1e-6 * max(kk, math.pi / L)
            r1 = _real_axis_amplitude(doc["slab1"], pol, Q, kk)
            r2 = _real_axis_amplitude(doc["slab2"], pol, Q, kk)
            x = r1 * r2 * np.exp(2j * (kk + 1j * e) * L)
            want[i] = ((1.0 + x) / (1.0 - x)).real / (2.0 * math.pi * kk)
        dev = np.abs(rho[pol] - want) / (np.abs(want) + 1e-3 * free)
        if not np.all(dev <= DOS_RTOL):
            notes.append(f"{op.name}: rho_{pol} off the reference by {dev.max():.2e}")
    slabs = (doc["slab1"], doc["slab2"])
    if all(s["type"] == "constant" and float(s["rs"]) == float(s["rp"]) == 0.0 for s in slabs):
        for pol in ("s", "p"):
            if not np.array_equal(rho[pol], free):
                notes.append(f"{op.name}: free-space rho_{pol} is not exactly 1/(2 pi k)")
    if all(s["type"] == "mirror" for s in slabs):
        peaks = k[1:-1][(total[1:-1] > total[:-2]) & (total[1:-1] > total[2:])]
        modes = np.arange(1, int(k[-1] * L / math.pi) + 1) * math.pi / L
        modes = modes[(modes > k[0]) & (modes < k[-1])]
        dk = ks[1] - ks[0]
        if len(peaks) != len(modes) or np.any(np.abs(peaks - modes) > dk):
            notes.append(f"{op.name}: mirror-cavity peaks {peaks} not at n pi/L {modes}")
    if not identity_dev <= DOS_IDENTITY_TOL:
        notes.append(f"{op.name}: dos and dos_from_greens differ by {identity_dev:.2e} "
                     "of the free-space value")
    return not notes, notes
