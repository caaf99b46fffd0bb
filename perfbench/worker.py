"""Child process of the benchmark: the only process that imports casimir.

    python3 worker.py setup SPEC.json   # time import + config parsing, once
    python3 worker.py run SPEC.json     # run the workload's configs in rounds

``SPEC.json`` names the source directory, the operations and where to put
the result.  ``run`` repeats whole rounds of every operation through
``casimir.cli.main`` for about ``seconds`` (at least two rounds, so that
every output can be byte-compared with a repeat).  With tracing on,
rounds alternate untraced and traced, so that one process gives both the
per-layer figures and the tracing overhead.

Both modes also time a fixed calibration loop (``calibrate``): ``setup``
after its timed span, ``run`` before every operation.  The parent scales
every time by it, so that the figures do not follow the host's speed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _import_casimir(src):
    sys.path.insert(0, src)
    import casimir
    import casimir.cli
    here = Path(casimir.__file__).resolve()
    if Path(src).resolve() not in here.parents:
        raise SystemExit(f"worker: casimir imported from {here}, not from {src}")
    return casimir


CAL_LOOPS = 3000
CAL_WARMUP = 200
CAL_SETUP_REPEATS = 5


def calibrate():
    """Seconds for a fixed loop of the work the program spends its time on:
    numpy arithmetic on 25-point arrays and interpreter-bound Python.  It
    does not touch casimir, so a change to the program cannot move it; only
    the host's speed can."""
    import numpy as np
    x = np.linspace(0.1, 3.0, 25)

    def loop(n):
        for _ in range(n):
            y = np.exp(-x) * x / (1.0 - 0.5 * np.exp(-2.0 * x))
            s = float(y.sum())
            for k in range(20):
                s += k * 0.5

    loop(CAL_WARMUP)  # so that what ran before does not count
    t0 = time.perf_counter()
    loop(CAL_LOOPS)
    return time.perf_counter() - t0


def setup(spec):
    casimir = _import_casimir(spec["src"])
    for op in spec["ops"]:
        casimir.cli.parse_config(op["config"])
    setup_s = time.perf_counter() - T_START
    cal = [calibrate() for _ in range(CAL_SETUP_REPEATS)]
    return {"setup_s": setup_s, "cal_s": sum(cal) / len(cal)}


def _invoke(casimir, argv):
    """Exit code of casimir.cli.main; -1 when it raises."""
    try:
        return int(casimir.cli.main(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else -1
    except Exception:  # a crash is a failed operation, not a failed benchmark
        traceback.print_exc()
        return -1


def _digest(path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def run(spec):
    casimir = _import_casimir(spec["src"])
    workdir = Path(spec["workdir"])
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
    rounds, summaries = [], []
    began = time.perf_counter()
    n = 0
    # whole rounds only: start another one while it is expected to end
    # within the measured span, and always run two
    while n < 2 or (time.perf_counter() - began) * (n + 1) / n <= spec["seconds"]:
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        results = []
        try:
            for op in spec["ops"]:
                out = workdir / f"{op['name']}.round{n}.csv"
                cal_s = calibrate()
                t0 = time.perf_counter()
                code = _invoke(casimir, [op["command"], op["config"], "--out", str(out)])
                results.append({"exit": code, "seconds": time.perf_counter() - t0,
                                "cal_s": cal_s, "sha256": _digest(out)})
                if n > 0 and out.exists():
                    out.unlink()
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"traced": traced, "ops": results})
        if traced:
            summaries.append(tracer.summary())
            if len(summaries) == 1:
                tracer.save(workdir / "spans.npz")
        n += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"rounds": rounds, "peak_rss_mb": peak_kb / 1024.0,
              "dos_identity": _dos_identity(casimir, spec, workdir)}
    if tracer is not None:
        result["trace"] = {"functions": sorted(tracer.names), "rounds": summaries}
    return result


def _dos_identity(casimir, spec, workdir):
    """Worst |dos - dos_from_greens| per DOS table, on the table's own
    (Q, k, r1, r2, L), in units of the free-space value 1/(2 pi k).

    The two routes agree identically at zero broadening; with eta > 0 they
    differ by the factor k / (k + i eta) by construction, so the identity is
    checked at eta = 0.  Runs after the timed rounds.
    """
    import numpy as np
    from casimir.constants import C_LIGHT
    from casimir.errors import CasimirError
    from casimir.spectrum import dos, dos_from_greens
    worst = {}
    for op in spec["ops"]:
        if op["command"] != "dos":
            continue
        cfg = casimir.cli.parse_config(op["config"])
        p = cfg.dos_params
        L, Q = p["L"], p["Q"]
        path = workdir / f"{op['name']}.round0.csv"
        if not path.exists():
            worst[op["name"]] = math.inf
            continue
        dev = 0.0
        for row in casimir.cli.read_table_csv(path):
            k = float(row["k_1_per_m"])
            omega = C_LIGHT * math.hypot(Q, k)
            for pol in ("s", "p"):
                r1 = complex(np.ravel(cfg.slab1.amplitude(pol, Q, omega))[0])
                r2 = complex(np.ravel(cfg.slab2.amplitude(pol, Q, omega))[0])
                try:
                    a = dos(pol, Q, k, r1, r2, L, 0.0)
                    b = dos_from_greens(Q, k, r1, r2, L, 0.0)
                except CasimirError:
                    a, b = 0.0, math.inf
                dev = max(dev, abs(a - b) * 2.0 * math.pi * k)
        worst[op["name"]] = dev
    return worst


def main():
    mode, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text())
    os.chdir(spec["workdir"])
    result = setup(spec) if mode == "setup" else run(spec)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
