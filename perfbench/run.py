"""Benchmark for casimir: run one workload through the CLI, check, report.

    python3 perfbench/run.py --workload imag_sweep --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  Nothing is installed: the workload
process imports casimir from ``src/``.  The steps are

1. check the independent references against their closed forms;
2. set-up time: import casimir and parse the workload's configs, in
   several fresh interpreters (``--trace 0`` only);
3. one single-threaded worker process runs whole rounds of the workload's
   configs through ``casimir.cli.main`` for ``--seconds`` (``--trace 1``
   alternates untraced and traced rounds);
4. every output row is checked against the references and properties.

Times are reported in seconds at a reference host speed: each measured time
is scaled by ``REF_CAL_S`` over the time of a fixed calibration loop run in
the same process alongside it (``worker.calibrate``), because the speed of
a core on a shared host drifts by a third over minutes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import references  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
# the reference speed: a time measured while worker.calibrate took this
# long is reported as measured.  The loop took 21-39 ms on the 2-vCPU Xeon
# VM of the README's figures (Python 3.11, numpy 2.4).
REF_CAL_S = 0.030
WORKER_TIMEOUT_S = 150.0
_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")


def _child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({name: "1" for name in _THREADS})
    return env


def _child(mode, spec, workdir, tag):
    spec = dict(spec, result=str(workdir / f"{tag}.json"))
    spec_path = workdir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), mode, str(spec_path)],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text()), proc.stderr


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- per layer

# (function, stats) reported from the traced rounds; every other public
# function is traced too and its figures land in trace.json
LAYER_FUNCTIONS = {
    "quadrature.integrate": ("calls", "self_s"),
    "quadrature.integrate_semi_infinite": ("calls",),
    "kernels.force_integrand_iw": ("calls", "points_per_call", "self_share"),
    "kernels.fresnel_rs_rp_iw": ("calls", "points_per_call", "self_share"),
    "kernels.lifshitz_inner": ("calls", "points_per_call", "self_share"),
    "kernels.drude_eps_iw": ("calls", "points_per_call", "self_share"),
    "reflection.imag_axis_amplitudes": ("calls", "points_per_call", "self_share",
                                        "total_share"),
    "reflection.amplitudes_both": ("calls", "points_per_call", "self_share", "total_share"),
    "dielectric.permittivity_from_table": ("calls", "self_share", "total_share"),
    "force.force_imag_axis": ("calls", "self_share"),
    "force.lifshitz_force": ("calls", "self_share"),
    "force.force_real_axis": ("calls", "self_share"),
    "spectrum.dos": ("calls", "self_share"),
    "cli.parse_config": ("self_s",),
    "cli.write_table": ("self_s",),
}
MODULE_SELF = ("cli", "force", "quadrature", "reflection")
_UNITS = {"calls": "count", "points_per_call": "points", "self_s": "s",
          "self_share": "ratio", "total_share": "ratio"}
FORCE_FUNCTIONS = ("force.force_imag_axis", "force.lifshitz_force", "force.force_real_axis")


def layer_metrics(trace, round_wall_s, scale, neval, overhead_s):
    """Per-round averages over the traced rounds; ``scale`` turns the traced
    rounds' seconds into seconds at the reference speed."""
    rounds = trace["rounds"]
    n = len(rounds)
    merged = {}
    for summary in rounds:
        for fn, st in summary.items():
            acc = merged.setdefault(fn, {"calls": 0, "points": 0.0, "total_s": 0.0,
                                         "self_s": 0.0, "distinct_args": 0})
            for key in acc:
                acc[key] += st.get(key, 0)
    metrics, absent = {}, []
    for fn, stats in LAYER_FUNCTIONS.items():
        st = merged.get(fn)
        if st is None:
            absent.append(fn)
            st = {"calls": 0, "points": 0.0, "total_s": 0.0, "self_s": 0.0}
        calls = st["calls"] / n
        self_s = st["self_s"] * scale / n
        values = {"calls": calls,
                  "points_per_call": st["points"] / st["calls"] if st["calls"] else 0.0,
                  "self_s": self_s,
                  "self_share": self_s / round_wall_s,
                  "total_share": st["total_s"] * scale / n / round_wall_s}
        for stat in stats:
            metrics[f"{fn}.{stat}"] = _metric(values[stat], _UNITS[stat])
    for module in MODULE_SELF:
        own = sum(st["self_s"] for fn, st in merged.items() if fn.startswith(module + "."))
        metrics[f"{module}.self_s"] = _metric(own * scale / n, "s")
    kernel_self = sum(st["self_s"] for fn, st in merged.items() if fn.startswith("kernels."))
    force_total = sum(merged.get(fn, {}).get("total_s", 0.0) for fn in FORCE_FUNCTIONS)
    metrics["kernels.share"] = _metric(kernel_self / force_total if force_total else 0.0, "ratio")
    kk = merged.get("dielectric.permittivity_from_table", {})
    metrics["dielectric.kk.useful_ratio"] = _metric(
        kk["distinct_args"] / kk["calls"] if kk.get("calls") else 0.0, "ratio")
    metrics["force.neval"] = _metric(neval, "count")
    metrics["trace.overhead_s"] = _metric(overhead_s, "s")
    return metrics, absent


# ---------------------------------------------------------------- main

def tally(ops, result, workdir):
    """Operations attempted and failed, whether every reported success was
    right, and a note per problem found."""
    rounds = result["rounds"]
    failed, correct, notes = 0, True, []
    row_ok, sweeps = [], {}
    for j, op in enumerate(ops):
        first = workdir / f"{op.name}.round0.csv"
        if not first.exists():
            ok, row_notes = [False] * op.rows, [f"{op.name}: no output"]
        elif op.command == "dos":
            passed, row_notes = checks.check_dos(op, checks.read_rows(first),
                                                 result["dos_identity"][op.name])
            ok = [passed]
        else:
            rows = checks.read_rows(first)
            ok, row_notes = checks.check_force(op, rows)
            if op.expect_exit == 0 and len(rows) == len(ok):
                sweeps.setdefault(op.sweep, []).extend(
                    (float(row["L_m"]), float(row["pressure_Pa"]), (j, k))
                    for k, row in enumerate(rows))
        row_ok.append(ok)
        notes += row_notes
    for sweep, points in sweeps.items():
        for a, b in checks.not_decreasing(points):
            for j, k in (a[2], b[2]):
                row_ok[j][k] = False
            notes.append(f"{sweep}: |P| not strictly decreasing at L={b[0]:.4g}")
    for j, op in enumerate(ops):
        if not all(row_ok[j]) and rounds[0]["ops"][j]["exit"] == op.expect_exit:
            correct = False  # the program reported success on a wrong answer
        digest = rounds[0]["ops"][j]["sha256"]
        for r in rounds:
            res = r["ops"][j]
            if res["exit"] != op.expect_exit:
                failed += op.rows
                notes.append(f"{op.name}: exit code {res['exit']}, expected {op.expect_exit}")
            elif res["sha256"] is None or res["sha256"] != digest:
                failed += op.rows
                notes.append(f"{op.name}: output differs from the first round")
            else:
                failed += row_ok[j].count(False)
    attempted = len(rounds) * sum(op.rows for op in ops)
    return attempted, failed, correct, notes


def speed_scale(rounds):
    """REF_CAL_S over the mean calibration time taken in these rounds: the
    factor that turns their measured seconds into seconds at the reference
    speed."""
    return REF_CAL_S / statistics.fmean(op["cal_s"] for r in rounds for op in r["ops"])


def raw_wall(rounds):
    """Mean over the rounds of the measured time to run all of the
    workload's configs."""
    return statistics.fmean(sum(op["seconds"] for op in r["ops"]) for r in rounds)


def wall(rounds):
    """``raw_wall`` in seconds at the reference speed.  The mean over the
    whole run, with the calibration's mean over the same span: the host's
    speed swings within seconds, and only averages over the same stretch of
    time track each other."""
    return raw_wall(rounds) * speed_scale(rounds)


def total_evals(ops, workdir):
    neval = 0
    for op in ops:
        path = workdir / f"{op.name}.round0.csv"
        if op.command == "run" and path.exists():
            neval += sum(int(row["evals"]) for row in checks.read_rows(path))
    return neval


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "casimir" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no casimir sources under {src}; run from a checkout root")
    workdir = HERE / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    t0 = time.perf_counter()
    references.self_check()
    ops = WORKLOADS[args.workload](root, workdir, args.seed)
    spec = {"src": str(src), "workdir": str(workdir), "seconds": args.seconds,
            "trace": bool(args.trace), "ops": [op.spec() for op in ops]}
    setup = [_child("setup", spec, workdir, f"setup{i}")[0]
             for i in range(0 if args.trace else SETUP_REPEATS)]
    result, worker_log = _child("run", spec, workdir, "run")

    attempted, failed, correct, notes = tally(ops, result, workdir)
    for line in notes:
        print(f"check: {line}", file=sys.stderr)
    if notes:
        sys.stderr.write(worker_log)
    rounds = result["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds ({len(traced)} traced), "
          f"{attempted} operations, {failed} failed, {time.perf_counter() - t0:.1f} s in all")
    print(f"  measured: round {raw_wall(plain):.4g} s, calibration loop "
          f"{REF_CAL_S / speed_scale(plain) * 1e3:.4g} ms (reference {REF_CAL_S * 1e3:.4g} ms)")
    if args.trace:
        metrics, absent = layer_metrics(result["trace"], wall(traced), speed_scale(traced),
                                        total_evals(ops, workdir), wall(traced) - wall(plain))
        (workdir / "trace.json").write_text(json.dumps(result["trace"], indent=1))
        for name in absent:
            print(f"trace: {name} is absent from the program")
    else:
        metrics = {"setup_s": _metric(statistics.median(
                       s["setup_s"] * REF_CAL_S / s["cal_s"] for s in setup), "s"),
                   "wall_s": _metric(wall(plain), "s"),
                   "peak_rss_mb": _metric(result["peak_rss_mb"], "MB")}
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
