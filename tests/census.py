"""Accuracy census of the nested imaginary-axis and Lifshitz paths and of
the real-axis contour.

A row is one force call: a pair of slabs, a path, a gap and a relative
tolerance.  Its reference is the other path at rtol 1e-12 where that path
can express the pair (two slabs of one Fresnel medium), else the same path
at rtol 1e-12; a real-axis row's reference is the imaginary axis at rtol
1e-12 (1e-11 in the real-axis census).  A row is covered when its error
is at least its deviation from the reference.

Run as a script, it prints per path and rtol the evaluations, rows, rows
covered, converged rows, rows within rtol of their reference, the worst
(smallest) and the median error/deviation and the wall time, as JSON; for
the real axis also the most bisection rounds its outer Q' integral took
and the most subdivisions any k-segment of a Q' node took, against the
caps ``_REAL_AXIS_ROUNDS`` and ``_REAL_AXIS_SUBDIVISIONS`` of
``casimir.force``:

    PYTHONPATH=src python tests/census.py              # the full census
    PYTHONPATH=src python tests/census.py --slice      # the Tier-1 rows
    PYTHONPATH=src python tests/census.py --real-axis  # the 57 real-axis rows
    PYTHONPATH=src python tests/census.py --rows       # also every row

The real-axis census runs Drude(1e16, 1e14) slabs, a mirror facing such a
slab and Drude-gold slabs at 10, 20 and 40 nm, 100 and 500 nm and 1 um
(and 3 um for the Drude(1e16, 1e14) pair), at rtol 1e-3, 1e-4 and 1e-5.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from casimir import (
    Constant,
    Drude,
    FresnelReflection,
    LayerStack,
    MultilayerReflection,
    PerfectMirror,
    Plasma,
    QuadratureConfig,
    Tabulated,
    Vacuum,
    force_imag_axis_many,
    force_real_axis,
    lifshitz_force_many,
    load_optical_table,
)
from casimir import force

GOLD = (1.37e16, 5.3e13)
GOLD_PATH = Path(__file__).resolve().parents[1] / "data" / "gold_drude.dat"
REFERENCE_RTOL = 1e-12

GAPS = (1e-8, 5e-8, 2e-7, 1e-6, 1e-5)
RTOLS = (1e-4, 1e-6, 1e-8, 1e-10)
SLICE_GAPS = (1e-8, 1e-6)
SLICE_RTOLS = (1e-4, 1e-6, 1e-8)
# the Tier-1 real-axis rows, (gap, rtol): Drude(1e16, 1e14) slabs
REAL_AXIS_DRUDE = (1e16, 1e14)
REAL_AXIS_ROWS = ((1e-8, 1e-3), (2e-8, 1e-3), (4e-8, 1e-3), (5e-7, 1e-3),
                  (1e-8, 1e-5), (2e-8, 1e-5), (4e-8, 1e-5))
# the real-axis census: its gaps (the Drude(1e16, 1e14) pair adds 3 um),
# rtols and reference rtol
REAL_AXIS_GAPS = (1e-8, 2e-8, 4e-8, 1e-7, 5e-7, 1e-6)
REAL_AXIS_RTOLS = (1e-3, 1e-4, 1e-5)
REAL_AXIS_REFERENCE_RTOL = 1e-11


@dataclass(frozen=True)
class Case:
    """A pair of slabs: ``medium`` for two Fresnel slabs of one medium, which
    both paths express, else the reflection models ``pair`` of the imaginary
    axis alone.  ``lifshitz`` runs the case's Lifshitz rows too."""

    name: str
    medium: object = None
    pair: tuple = None
    lifshitz: bool = True

    def reflections(self):
        if self.pair is not None:
            return self.pair
        r = FresnelReflection(self.medium)
        return r, r


def cases(full=True):
    """The census's cases; ``full=False`` keeps the Tier-1 slice's."""
    gold = Drude(*GOLD)
    film = MultilayerReflection(LayerStack(layers=((2e-8, Drude(*GOLD)),),
                                           substrate=Constant(4.0)))
    out = [Case("drude-gold", gold), Case("plasma", Plasma(GOLD[0])),
           Case("eps-4", Constant(4.0)),
           Case("film-gold", pair=(film, FresnelReflection(gold))),
           Case("mirror-gold", pair=(PerfectMirror(), FresnelReflection(gold)))]
    if full:
        out += [Case("drude-1e16-1e14", Drude(1e16, 1e14)),
                Case("drude-1.37e16-5e11", Drude(1.37e16, 5e11)),
                Case("tabulated-gold", Tabulated(load_optical_table(GOLD_PATH)),
                     lifshitz=False)]
    return out


@dataclass(frozen=True)
class Row:
    case: str
    path: str
    gap: float
    rtol: float
    pressure: float
    error: float
    neval: int
    converged: bool
    reference: float
    # real-axis rows: outer Q' bisection rounds, most subdivisions of a k-segment
    rounds: int | None = None
    subdivisions: int | None = None

    @property
    def deviation(self):
        return abs(self.pressure - self.reference)


def _run(case, path, gaps, rtol):
    cfg = QuadratureConfig(rtol=rtol)
    if path == "lifshitz":
        return lifshitz_force_many(case.medium, case.medium, Vacuum(), gaps, cfg)
    return force_imag_axis_many(*case.reflections(), gaps, cfg)


def census(full=True):
    """Every row of the census (``full=False``: of its Tier-1 slice), and
    the wall time each path spent on its rows, excluding references."""
    gaps, rtols = (GAPS, RTOLS) if full else (SLICE_GAPS, SLICE_RTOLS)
    rows, wall = [], {}
    for case in cases(full):
        paths = ["imaginary-axis"] + (["lifshitz"] if case.medium is not None and case.lifshitz
                                      else [])
        refs = {}
        for path in paths:
            ref_path = path
            if case.medium is not None:
                ref_path = "lifshitz" if path == "imaginary-axis" else "imaginary-axis"
            if ref_path not in refs:
                refs[ref_path] = [r.pressure for r in _run(case, ref_path, gaps,
                                                          REFERENCE_RTOL)]
            for rtol in rtols:
                start = time.perf_counter()
                results = _run(case, path, gaps, rtol)
                wall[path, rtol] = wall.get((path, rtol), 0.0) + time.perf_counter() - start
                rows += [Row(case.name, path, L, rtol, r.pressure, r.error, r.neval,
                             r.converged, ref)
                         for L, r, ref in zip(gaps, results, refs[ref_path])]
    return rows, wall


@contextlib.contextmanager
def _real_axis_traffic():
    """Within the block, count the outer Q' bisection rounds and the most
    subdivisions of any k-segment of ``force_real_axis`` calls, by wrapping
    the two engine entry points ``casimir.force`` calls.  A lockstep call
    calls its integrand once on its m starting panels and once per round
    after, and each of its integrals holds at most m + rounds panels."""
    counts = {"rounds": 0, "subdivisions": 0}
    many, semi = force.integrate_many, force.integrate_semi_infinite_many

    def rounds(entry, f, a, b, cfg):
        calls = 0

        def g(idx, x):
            nonlocal calls
            calls += 1
            return f(idx, x)

        return entry(g, a, b, cfg), calls - 1

    def integrate_many(f, lo, hi, cfg=None):
        out, n = rounds(many, f, lo, hi, cfg)
        if np.ndim(lo) == 2:  # the outer Q' integral, from the panels of _Q_EDGES
            counts["rounds"] = max(counts["rounds"], n)
        else:  # k-segments, from one panel each
            counts["subdivisions"] = max(counts["subdivisions"], 1 + n)
        return out

    def integrate_semi_infinite_many(f, scales, edges, cfg=None):
        out, n = rounds(semi, f, scales, edges, cfg)
        counts["subdivisions"] = max(counts["subdivisions"], len(edges) - 1 + n)
        return out

    force.integrate_many = integrate_many
    force.integrate_semi_infinite_many = integrate_semi_infinite_many
    try:
        yield counts
    finally:
        force.integrate_many, force.integrate_semi_infinite_many = many, semi


def real_axis_census(full=False):
    """The real-axis rows (``full=False``: the Tier-1 rows of
    ``REAL_AXIS_ROWS``), and the wall time each rtol spent on them,
    excluding references."""
    drude = FresnelReflection(Drude(*REAL_AXIS_DRUDE))
    gold = FresnelReflection(Drude(*GOLD))
    pairs = {"drude-1e16-1e14": (drude, drude), "mirror-drude-1e16-1e14": (PerfectMirror(), drude),
             "drude-gold": (gold, gold)}
    if full:
        plan = [(case, L, rtol) for case in pairs
                for L in REAL_AXIS_GAPS + ((3e-6,) if case == "drude-1e16-1e14" else ())
                for rtol in REAL_AXIS_RTOLS]
        ref_rtol = REAL_AXIS_REFERENCE_RTOL
    else:
        plan = [("drude-1e16-1e14", L, rtol) for L, rtol in REAL_AXIS_ROWS]
        ref_rtol = REFERENCE_RTOL
    refs = {}
    for case in dict.fromkeys(case for case, _, _ in plan):
        gaps = sorted({L for c, L, _ in plan if c == case})
        results = force_imag_axis_many(*pairs[case], gaps, QuadratureConfig(rtol=ref_rtol))
        refs.update({(case, L): ref.pressure for L, ref in zip(gaps, results)})
    rows, wall = [], {}
    for case, L, rtol in plan:
        with _real_axis_traffic() as counts:
            start = time.perf_counter()
            res = force_real_axis(*pairs[case], L, QuadratureConfig(rtol=rtol))
            seconds = time.perf_counter() - start
        key = "real-axis", rtol
        wall[key] = wall.get(key, 0.0) + seconds
        rows.append(Row(case, "real-axis", L, rtol, res.pressure, res.error, res.neval,
                        res.converged, refs[case, L], counts["rounds"],
                        counts["subdivisions"]))
    return rows, wall


def totals(rows, wall):
    """Per path and rtol: the sums and extremes the module docstring names."""
    out = {}
    for (path, rtol), seconds in wall.items():
        group = [r for r in rows if r.path == path and r.rtol == rtol]
        ratios = [r.error / r.deviation for r in group if r.deviation > 0.0]
        out.setdefault(path, {})[f"{rtol:g}"] = {
            "neval": sum(r.neval for r in group),
            "rows": len(group),
            "covered": sum(r.deviation <= r.error for r in group),
            "converged": sum(r.converged for r in group),
            "within_rtol": sum(r.deviation <= r.rtol * abs(r.reference) for r in group),
            "worst_error_over_deviation": min(ratios) if ratios else None,
            "median_error_over_deviation": statistics.median(ratios) if ratios else None,
            "wall_s": round(seconds, 4),
        }
        if path == "real-axis":
            out[path][f"{rtol:g}"].update(
                most_outer_rounds=max(r.rounds for r in group),
                most_segment_subdivisions=max(r.subdivisions for r in group))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--slice", action="store_true",
                        help="the Tier-1 slice and the real-axis rows alone")
    parser.add_argument("--real-axis", action="store_true",
                        help="the real-axis census alone")
    parser.add_argument("--rows", action="store_true", help="also print every row")
    args = parser.parse_args(argv)
    if args.real_axis:
        rows, wall = real_axis_census(full=True)
    else:
        rows, wall = census(full=not args.slice)
        real_rows, real_wall = real_axis_census()
        rows, wall = rows + real_rows, {**wall, **real_wall}
    report = {"totals": totals(rows, wall)}
    if args.rows:
        report["rows"] = [{**vars(r), "deviation": r.deviation} for r in rows]
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
