"""Workload definitions: which configs each workload runs, built from a seed.

Each workload is a list of operations-to-be: one ``casimir run`` or
``casimir dos`` invocation on one YAML config, with the exit code that
config must produce and what the checker needs to know about its slabs.
Shipped configs run unchanged; generated ones are written to the work
directory as JSON, which the CLI's YAML reader accepts.

Seeds move the generated inputs by a few per cent only, so that every seed
asks for about the same amount of work and run-to-run spread stays small.

A generated sweep that takes more than a second runs as one config per
separation (``_split``): the benchmark times the host's speed between
invocations, and a long invocation leaves a long stretch unsampled.  The
points of a split sweep are checked together as one sweep.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import yaml

from checks import separations

# Drude parameters that data/gold_drude.dat samples (see its header).
GOLD_DRUDE = (1.37e16, 5.3e13)
_GOLD = {"model": "drude", "omega_p": GOLD_DRUDE[0], "gamma": GOLD_DRUDE[1]}
# The lossy Drude metal of the contour-equivalence check.
_LOSSY = {"model": "drude", "omega_p": 1.0e16, "gamma": 1.0e14}


def _jitter(rng, value, frac):
    return value * (1.0 + rng.uniform(-frac, frac))


class Op:
    """One CLI invocation; ``doc`` is the parsed config the checker reads."""

    def __init__(self, name, command, config, doc, expect_exit=0, sampled_drude=None,
                 sweep=None):
        self.name = name
        self.sweep = sweep or name  # the sweep this invocation's rows belong to
        self.command = command
        self.config = str(config)
        self.doc = doc
        self.expect_exit = expect_exit
        self.sampled_drude = sampled_drude

    @property
    def rows(self):
        """Operations this invocation attempts: one per force row, one per DOS table."""
        if self.command == "dos":
            return 1
        return int(self.doc.get("sweep", {}).get("points", 1))

    def spec(self):
        return {"name": self.name, "command": self.command, "config": self.config,
                "expect_exit": self.expect_exit}


def _shipped(root, name, command="run", **kw):
    path = root / "configs" / f"{name}.yaml"
    return Op(name, command, path, yaml.safe_load(path.read_text()), **kw)


def _generated(workdir, name, doc, command="run", **kw):
    path = Path(workdir) / f"{name}.yaml"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return Op(name, command, path, doc, **kw)


def _split(workdir, name, doc, **kw):
    """One invocation per separation of ``doc``'s sweep, at the separations
    the CLI would compute for the whole sweep."""
    return [_generated(workdir, f"{name}.{i}", dict(doc, sweep={"min": float(L), "points": 1}),
                       sweep=name, **kw)
            for i, L in enumerate(separations(doc["sweep"]))]


def imag_sweep(root, workdir, seed):
    rng = random.Random(f"imag_sweep/{seed}")
    gold = {"type": "fresnel", "material": dict(_GOLD)}
    lif = {"slab1": gold, "slab2": gold,
           "sweep": {"min": _jitter(rng, 5e-8, 0.03), "max": _jitter(rng, 1e-6, 0.03),
                     "points": 2, "spacing": "log"},
           "path": "lifshitz", "quadrature": {"rtol": 1e-8}}
    film = {"type": "multilayer",
            "layers": [{"thickness": _jitter(rng, 2e-8, 0.05), "material": dict(_GOLD)}],
            "substrate": {"model": "constant", "eps_r": _jitter(rng, 4.0, 0.05)}}
    multi = {"slab1": film, "slab2": gold,
             "sweep": {"min": _jitter(rng, 1e-7, 0.03), "max": _jitter(rng, 1e-6, 0.03),
                       "points": 2, "spacing": "log"},
             "path": "imaginary-axis", "quadrature": {"rtol": 1e-6}}
    const = {"slab1": {"type": "constant", "rs": rng.uniform(0.5, 0.9),
                       "rp": -rng.uniform(0.5, 0.9)},
             "slab2": {"type": "constant", "rs": rng.uniform(0.5, 0.9),
                       "rp": -rng.uniform(0.5, 0.9)},
             "sweep": {"min": _jitter(rng, 1e-7, 0.1), "max": _jitter(rng, 3e-6, 0.1),
                       "points": 3, "spacing": "log"},
             "path": "imaginary-axis", "quadrature": {"rtol": 1e-9}}
    # the shipped tabulated config's slabs, table and tolerance at the two
    # ends of its sweep: all five points take 11-17 s, too long to repeat
    # enough within one run for a steady figure
    tab = yaml.safe_load((root / "configs" / "tabulated_gold.yaml").read_text())
    for slab in ("slab1", "slab2"):
        mat = tab[slab]["material"]
        mat["file"] = str((root / "configs" / mat["file"]).resolve())
    tab["sweep"] = {"min": _jitter(rng, 1e-7, 0.03), "max": _jitter(rng, 1e-6, 0.03),
                    "points": 2, "spacing": "log"}
    del tab["output"]
    return [_shipped(root, "mirror_sweep"),
            _shipped(root, "drude_sweep"),
            *_split(workdir, "drude_lifshitz", lif),
            *_split(workdir, "film_on_substrate", multi),
            _generated(workdir, "constant_pair", const),
            *_split(workdir, "tabulated_gold_ends", tab, sampled_drude=GOLD_DRUDE)]


def real_freq(root, workdir, seed):
    rng = random.Random(f"real_freq/{seed}")
    lossy = {"type": "fresnel", "material": dict(_LOSSY)}
    # fixed gaps: the contour's cost jumps five-fold between neighbouring
    # gaps (1.4 s at 20 nm, 6.5 s at 22 nm), so jittering L would make the
    # work, not the program, set the spread
    contour = {"slab1": lossy, "slab2": lossy,
               "sweep": {"min": 1e-8, "max": 2e-8, "points": 3, "spacing": "linear"},
               "path": "real-axis", "quadrature": {"rtol": 1e-3}}
    r = rng.uniform(0.3, 0.8)
    constant = {"slab1": {"type": "constant", "rs": r, "rp": -r},
                "slab2": {"type": "constant", "rs": r, "rp": -r},
                "sweep": {"min": _jitter(rng, 1e-7, 0.1), "points": 1},
                "path": "real-axis", "quadrature": {"rtol": 1e-3}}
    L = _jitter(rng, 1e-6, 0.1)
    mirror = {"type": "mirror"}
    # k_max = 6.1 pi / L over 4001 samples: no sample sits on a resonance
    # k = n pi / L, where the unbroadened dos_from_greens check is singular
    cavity = {"slab1": mirror, "slab2": mirror,
              "dos": {"L": L, "Q": _jitter(rng, 1e6, 0.1), "points": 4001,
                      "k_max": 6.1 * math.pi / L}}
    free = {"slab1": {"type": "constant", "rs": 0.0, "rp": 0.0},
            "slab2": {"type": "constant", "rs": 0.0, "rp": 0.0},
            "dos": {"L": L, "Q": _jitter(rng, 1e6, 0.1), "points": 200}}
    return [*_split(workdir, "real_axis_drude", contour),
            _generated(workdir, "real_axis_constant", constant, expect_exit=3),
            _shipped(root, "dos_cavity", command="dos"),
            _generated(workdir, "dos_mirror_cavity", cavity, command="dos"),
            _generated(workdir, "dos_free_space", free, command="dos")]


WORKLOADS = {"imag_sweep": imag_sweep, "real_freq": real_freq}
