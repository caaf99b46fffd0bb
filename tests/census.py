"""Accuracy census of the nested imaginary-axis and Lifshitz paths and of
the real-axis contour.

A row is one force call: a pair of slabs, a path, a gap and a relative
tolerance.  Its reference is the other path at rtol 1e-12 where that path
can express the pair (two slabs of one Fresnel medium), else the same path
at rtol 1e-12; a real-axis row's reference is the imaginary axis at rtol
1e-12.  A row is covered when its error is at least its deviation from
the reference.

Run as a script, it prints per path and rtol the evaluations, rows, rows
covered, converged rows, rows within rtol of their reference, the worst
(smallest) and the median error/deviation and the wall time, as JSON:

    PYTHONPATH=src python tests/census.py            # the full census
    PYTHONPATH=src python tests/census.py --slice    # the Tier-1 rows
    PYTHONPATH=src python tests/census.py --rows     # also every row
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

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

GOLD = (1.37e16, 5.3e13)
GOLD_PATH = Path(__file__).resolve().parents[1] / "data" / "gold_drude.dat"
REFERENCE_RTOL = 1e-12

GAPS = (1e-8, 5e-8, 2e-7, 1e-6, 1e-5)
RTOLS = (1e-4, 1e-6, 1e-8, 1e-10)
SLICE_GAPS = (1e-8, 1e-6)
SLICE_RTOLS = (1e-4, 1e-6, 1e-8)
# the real-axis rows, (gap, rtol), all Tier-1: Drude(1e16, 1e14) slabs
REAL_AXIS_DRUDE = (1e16, 1e14)
REAL_AXIS_ROWS = ((1e-8, 1e-3), (2e-8, 1e-3), (4e-8, 1e-3), (5e-7, 1e-3),
                  (1e-8, 1e-5), (2e-8, 1e-5), (4e-8, 1e-5))


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


def real_axis_census():
    """The real-axis rows of ``REAL_AXIS_ROWS``, and the wall time each rtol
    spent on them, excluding references."""
    r = FresnelReflection(Drude(*REAL_AXIS_DRUDE))
    gaps = sorted({L for L, _ in REAL_AXIS_ROWS})
    refs = force_imag_axis_many(r, r, gaps, QuadratureConfig(rtol=REFERENCE_RTOL))
    refs = {L: ref.pressure for L, ref in zip(gaps, refs)}
    rows, wall = [], {}
    for L, rtol in REAL_AXIS_ROWS:
        start = time.perf_counter()
        res = force_real_axis(r, r, L, QuadratureConfig(rtol=rtol))
        key = "real-axis", rtol
        wall[key] = wall.get(key, 0.0) + time.perf_counter() - start
        rows.append(Row("drude-1e16-1e14", "real-axis", L, rtol, res.pressure, res.error,
                        res.neval, res.converged, refs[L]))
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
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--slice", action="store_true",
                        help="the Tier-1 slice and the real-axis rows alone")
    parser.add_argument("--rows", action="store_true", help="also print every row")
    args = parser.parse_args(argv)
    rows, wall = census(full=not args.slice)
    real_rows, real_wall = real_axis_census()
    rows, wall = rows + real_rows, {**wall, **real_wall}
    report = {"totals": totals(rows, wall)}
    if args.rows:
        report["rows"] = [{**vars(r), "deviation": r.deviation} for r in rows]
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
