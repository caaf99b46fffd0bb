"""Acceptance gate: one test and one printed pass/fail line per criterion.

The printed lines bypass pytest's capture so the verdicts are always
visible in the terminal log.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import casimir as cs
from casimir.constants import C_LIGHT
from casimir.spectrum import default_eta

ROOT = Path(__file__).resolve().parent.parent
WP = 1.37e16


def _report(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"acceptance: {label}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)
    assert ok, f"{label}: {detail}"


def test_criterion_1_perfect_mirror_recovery(capsys):
    m = cs.PerfectMirror()
    cfg = cs.QuadratureConfig(rtol=1e-9)
    cs.force_imag_axis(m, m, 1e-6, cfg)  # untimed: keep one-time start-up costs out
    worst = 0.0
    slowest = 0.0
    for L in (10e-9, 100e-9, 1e-6, 10e-6):
        t0 = time.perf_counter()
        res = cs.force_imag_axis(m, m, L, cfg)
        slowest = max(slowest, time.perf_counter() - t0)
        worst = max(worst, abs(res.pressure / cs.ideal_casimir_pressure(L) - 1.0))
    _report(capsys, worst < 1e-6 and slowest < 1.0,
            "1 perfect-mirror recovery",
            f"worst rel err {worst:.2e}, slowest eval {slowest:.3f} s")


def test_criterion_2_lifshitz_equivalence(capsys):
    cfg = cs.QuadratureConfig(rtol=1e-10)
    media = [cs.Constant(1.5), cs.Constant(2.0), cs.Constant(10.0),
             cs.Drude(WP, 5e13)]
    worst = 0.0
    for medium in media:
        m = cs.FresnelReflection(medium)
        for L in (50e-9, 200e-9, 1e-6):
            a = cs.force_imag_axis(m, m, L, cfg).pressure
            b = cs.lifshitz_force(medium, medium, cs.Vacuum(), L, cfg).pressure
            worst = max(worst, abs(a / b - 1.0))
    _report(capsys, worst < 1e-8, "2 Lifshitz equivalence",
            f"worst rel deviation {worst:.2e}")


class _FixedEps(cs.DielectricModel):
    def __init__(self, eps):
        self._eps = complex(eps)

    def _eval(self, freq):
        return np.full_like(freq, self._eps, dtype=complex)


def test_criterion_3_exact_impedance_mapping(capsys):
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        w = rng.uniform(1e13, 1e17)
        Q = rng.uniform(0.0, 100.0) * w / C_LIGHT  # far beyond the light line
        eps = complex(rng.uniform(-20.0, 20.0), rng.uniform(0.1, 10.0))
        kin = cs.WaveKinematics.create(Q, w)
        k_a = kin.normal(eps)
        model = _FixedEps(eps)
        for pol, Z in (("s", kin.q / k_a), ("p", k_a / (eps * kin.q))):
            direct = cs.FresnelReflection(model).amplitude(pol, Q, w)
            mapped = cs.impedance_to_reflection(Z, cs.vacuum_impedance(pol, kin))
            worst = max(worst, abs(complex(direct) - complex(mapped)))
    _report(capsys, worst < 1e-12, "3 exact impedance mapping",
            f"worst |fresnel - impedance route| {worst:.2e} over 1000 samples")


def test_criterion_4_finite_width_convergence(capsys):
    cfg = cs.QuadratureConfig(rtol=1e-9)
    L = 200e-9
    metal = cs.Drude(WP, 5.3e13)
    other = cs.PerfectMirror()
    skin = C_LIGHT / WP
    bulk = cs.force_imag_axis(cs.FresnelReflection(metal), other, L, cfg).pressure
    thick = cs.MultilayerReflection(
        cs.LayerStack(layers=((20.0 * skin, metal),), substrate=cs.Vacuum()))
    d_thick = abs(cs.force_imag_axis(thick, other, L, cfg).pressure / bulk - 1.0)

    substrate = cs.Constant(3.0)
    bare = cs.force_imag_axis(cs.FresnelReflection(substrate), other, L, cfg).pressure
    vanishing = cs.MultilayerReflection(
        cs.LayerStack(layers=((1e-22, metal),), substrate=substrate))
    d_zero = abs(cs.force_imag_axis(vanishing, other, L, cfg).pressure / bare - 1.0)
    _report(capsys, d_thick < 1e-6 and d_zero < 1e-10,
            "4 finite-width convergence",
            f"20 skin depths vs bulk {d_thick:.2e}, zero width vs substrate {d_zero:.2e}")


def test_criterion_5_contour_equivalence(capsys):
    m = cs.FresnelReflection(cs.Drude(1e16, 1e14))
    L = 500e-9
    ref = cs.force_imag_axis(m, m, L, cs.QuadratureConfig(rtol=1e-9)).pressure
    res = cs.force_real_axis(m, m, L, cs.QuadratureConfig(rtol=1e-3))
    dev = abs(res.pressure / ref - 1.0)
    _report(capsys, dev < 1e-3 and res.converged, "5 contour equivalence",
            f"real vs imaginary axis rel deviation {dev:.2e}, converged={res.converged}")


def test_criterion_6_dos_properties(capsys):
    L = 1e-6
    rng = np.random.default_rng(4321)
    exact = all(
        cs.dos(pol, 0.0, k, 0.0, 0.0, L) == 1.0 / (2.0 * np.pi * k)
        for pol in ("s", "p") for k in rng.uniform(1e4, 1e8, 50))

    negative = 0
    for _ in range(10000):
        r1 = rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
        r2 = rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
        k = rng.uniform(0.05, 40.0) / L
        if cs.dos("s", 0.0, k, r1, r2, L, eta=default_eta(k, L)) < 0.0:
            negative += 1

    ks = np.linspace(0.2 * np.pi / L, 5.8 * np.pi / L, 7001)
    enh = np.array([cs.dos("s", 0.0, k, -1.0, -1.0, L, eta=default_eta(k, L))
                    * 2.0 * np.pi * k for k in ks])
    idx = np.nonzero((enh[1:-1] > enh[:-2]) & (enh[1:-1] > enh[2:]))[0] + 1
    dk = ks[1] - ks[0]
    peak_off = max(float(np.min(np.abs(ks[idx] - n * np.pi / L))) for n in range(1, 6))

    _report(capsys, exact and negative == 0 and peak_off < 2.0 * dk,
            "6 DOS properties",
            f"free space exact={exact}, negative samples {negative}/10000, "
            f"worst peak offset {peak_off / (np.pi / L):.4f} pi/L")


def test_criterion_7_physical_monotonicity(capsys):
    m = cs.FresnelReflection(cs.Drude(WP, 5.3e13))
    cfg = cs.QuadratureConfig(rtol=1e-7)
    ps = [abs(cs.force_imag_axis(m, m, L, cfg).pressure)
          for L in np.geomspace(10e-9, 10e-6, 10)]
    decreasing = all(a > b for a, b in zip(ps, ps[1:]))

    cfg9 = cs.QuadratureConfig(rtol=1e-9)
    L = 1e-6
    etas = []
    for x in (1.0, 3.0, 10.0, 30.0, 100.0):
        pm = cs.FresnelReflection(cs.Plasma(x * C_LIGHT / L))
        etas.append(cs.force_imag_axis(pm, pm, L, cfg9).reduction)
    increasing = all(a < b for a, b in zip(etas, etas[1:]))
    gap = abs(1.0 - etas[-1])
    _report(capsys, decreasing and increasing and gap < 1e-2,
            "7 physical monotonicity",
            f"|P| decreasing={decreasing}, eta increasing={increasing}, "
            f"1 - eta(100) = {gap:.3e} vs required < 1e-2")


def test_criterion_8_kk_self_consistency(capsys):
    table = cs.load_optical_table(ROOT / "data" / "gold_drude.dat")
    dr = cs.Drude(1.37e16, 5.3e13)
    worst = 0.0
    for xi in np.geomspace(1e14, 1e16, 21):
        got = cs.Tabulated(table).eval_iw(xi)
        worst = max(worst, abs(got / float(dr.eval_iw(xi)) - 1.0))
    _report(capsys, worst < 1e-2, "8 KK self-consistency",
            f"worst rel deviation {worst:.2e} over xi in [1e14, 1e16]")


def test_criterion_9_cli_determinism(capsys, tmp_path, child_env):
    configs = ["mirror_sweep.yaml", "drude_sweep.yaml",
               "tabulated_gold.yaml", "dos_cavity.yaml"]
    env = child_env(os.environ)
    identical = True
    for name in configs:
        sub = "dos" if name.startswith("dos") else "run"
        outs = []
        for i in (1, 2):
            out = tmp_path / f"{name}.{i}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "casimir.cli", sub,
                 str(ROOT / "configs" / name), "--out", str(out)],
                capture_output=True, text=True, cwd=tmp_path, env=env)
            if proc.returncode != 0:
                last = (proc.stderr.strip().splitlines() or [""])[-1]
                _report(capsys, False, "9 end-to-end determinism",
                        f"{name} run {i} exited {proc.returncode}: {last}")
            outs.append(out.read_bytes())
        identical = identical and outs[0] == outs[1]
    _report(capsys, identical, "9 end-to-end determinism",
            f"{len(configs)} shipped configs, two runs each, byte-compared")
