"""Command-line front end: config-driven force sweeps and DOS tables.

Usage::

    casimir run <config.yaml> [--out PATH] [--format csv|json] [--tol X]
    casimir dos <config.yaml> [--out PATH] [--format csv|json]

Exit codes: 0 success, 2 config error, 3 convergence failure, an active
slab pair or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .dielectric import (
    Constant,
    DielectricModel,
    Drude,
    DrudeLorentz,
    Plasma,
    Tabulated,
    Vacuum,
    load_optical_table,
)
from .errors import CasimirError, ConfigError, OpticalTableError
from .force import (_check_passive, _gaps, force_imag_axis_many, force_real_axis,
                    lifshitz_force_many)
from .quadrature import QuadratureConfig
from .reflection import (
    MIRROR,
    ConstantReflection,
    FresnelReflection,
    LayerStack,
    MultilayerReflection,
    PerfectMirror,
    WaveKinematics,
)
from .spectrum import default_eta, dos

TABLE_COLUMNS = ("L_m", "pressure_Pa", "err_Pa", "eta_red", "path", "evals", "status")
_PATHS = ("imaginary-axis", "real-axis", "lifshitz", "all")
# largest sweep.points or dos.points: a count past it is a typo, not a sweep
_MAX_POINTS = 1_000_000


@dataclass(frozen=True)
class RunConfig:
    slab1: object
    slab2: object
    sweep_min: float
    sweep_max: float
    sweep_points: int
    sweep_spacing: str
    paths: tuple
    quadrature: QuadratureConfig
    out_format: str
    out_path: str | None
    dos_params: dict | None = None

    def separations(self):
        if self.sweep_spacing == "log":
            return np.geomspace(self.sweep_min, self.sweep_max, self.sweep_points)
        return np.linspace(self.sweep_min, self.sweep_max, self.sweep_points)


def _section(node, context, allowed, required=()):
    """``node``, checked to be a mapping of ``allowed`` keys with every ``required`` one."""
    if not isinstance(node, dict):
        raise ConfigError(f"section '{context}' must be a mapping")
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key '{context}.{key}'")
    for key in required:
        if key not in node:
            raise ConfigError(f"missing required key '{context}.{key}'")
    return node


def _number(node, context, key, default=None, minimum=None):
    if key not in node:
        if default is None:
            raise ConfigError(f"missing required key '{context}.{key}'")
        return default
    value = node[key]
    if isinstance(value, str):
        # YAML 1.1 reads "1.37e16" (no sign in the exponent) as a string
        try:
            value = float(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{context}.{key}' must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError(f"key '{context}.{key}' must be finite, got {value}")
    if minimum is not None and value <= minimum:
        raise ConfigError(f"key '{context}.{key}' must be > {minimum}, got {value}")
    return value


def _items(node, context, key, fields, nonempty=False):
    """(context, section) of each item of the list ``context.key``, all keys ``fields``."""
    items = node.get(key)
    if not isinstance(items, list) or (nonempty and not items):
        kind = "a non-empty list" if nonempty else "a list"
        raise ConfigError(f"key '{context}.{key}' must be {kind}")
    return [(f"{context}.{key}[{i}]", _section(item, f"{context}.{key}[{i}]", fields, fields))
            for i, item in enumerate(items)]


def _integer(value, key, lo=None):
    """``value`` of ``key``, an integer, from ``lo`` to _MAX_POINTS if ``lo`` is given."""
    span = "" if lo is None else f" from {lo} to {_MAX_POINTS}"
    if isinstance(value, bool) or not isinstance(value, int) or \
            (lo is not None and not lo <= value <= _MAX_POINTS):
        raise ConfigError(f"key '{key}' must be an integer{span}, got {value!r}")
    return value


def _build(context, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError reported as a config error
    of section ``context``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"section '{context}': {exc}") from exc


def _choice(value, key, choices):
    """``value`` of ``key``, checked to be one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"key '{key}' must be one of {'|'.join(choices)}, got {value!r}")
    return value


# the config keys of each model, in the order its class takes them; the
# classes check their own bounds
_MATERIALS = {
    "vacuum": (Vacuum, ()),
    "constant": (Constant, ("eps_r",)),
    "plasma": (Plasma, ("omega_p",)),
    "drude": (Drude, ("omega_p", "gamma")),
    "drude_lorentz": (DrudeLorentz, ("eps_inf", "oscillators")),
    "tabulated": (Tabulated, ("file",)),
}
_OSCILLATOR = ("strength", "omega_0", "gamma")


def _parse_material(node, context, base_dir) -> DielectricModel:
    node = _section(node, context, {"model"}.union(*(k for _, k in _MATERIALS.values())),
                    required=("model",))
    model = _choice(node["model"], f"{context}.model", tuple(_MATERIALS))
    cls, keys = _MATERIALS[model]
    extra = set(node) - {"model", *keys}
    if extra:
        raise ConfigError(f"key '{context}.{min(extra)}' not valid for model '{model}'")
    if model == "tabulated":
        fname = node.get("file")
        if not isinstance(fname, str):
            raise ConfigError(f"key '{context}.file' must be a path string")
        try:
            args = (load_optical_table(base_dir / fname),)
        except OpticalTableError as exc:
            raise ConfigError(f"key '{context}.file': {exc}") from exc
    elif model == "drude_lorentz":
        terms = tuple(tuple(_number(o, oc, k) for k in _OSCILLATOR)
                      for oc, o in _items(node, context, "oscillators", _OSCILLATOR, True))
        args = (_number(node, context, "eps_inf", default=1.0), terms)
    else:
        args = tuple(_number(node, context, k) for k in keys)
    return _build(context, cls, *args)


# the config keys of each slab type, all required
_SLABS = {"mirror": (), "constant": ("rs", "rp"), "fresnel": ("material",),
          "multilayer": ("layers", "substrate")}


def _parse_slab(node, context, base_dir):
    """The ReflectionModel a ``slab1``/``slab2`` section describes."""
    node = _section(node, context, {"type"}.union(*_SLABS.values()), required=("type",))
    kind = _choice(node["type"], f"{context}.type", tuple(_SLABS))
    _section(node, context, {"type", *_SLABS[kind]}, required=_SLABS[kind])
    if kind == "mirror":
        return PerfectMirror()
    if kind == "constant":
        return ConstantReflection(r_s=complex(_number(node, context, "rs")),
                                  r_p=complex(_number(node, context, "rp")))
    if kind == "fresnel":
        return FresnelReflection(
            dielectric=_parse_material(node["material"], f"{context}.material", base_dir))
    layers = [(_number(layer, lc, "thickness"),
               _parse_material(layer["material"], f"{lc}.material", base_dir))
              for lc, layer in _items(node, context, "layers", ("thickness", "material"))]
    sub = node["substrate"]
    substrate = MIRROR if sub == MIRROR else \
        _parse_material(sub, f"{context}.substrate", base_dir)
    return MultilayerReflection(
        stack=_build(context, LayerStack, layers=tuple(layers), substrate=substrate))


def parse_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration (strict keys)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        # libyaml where pyyaml has it; bytes, so that a file that is not
        # UTF-8 raises a YAMLError too
        doc = yaml.load(path.read_bytes(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    doc = _section(doc, "<root>",
                   {"slab1", "slab2", "sweep", "path", "quadrature", "output", "dos"},
                   required=("slab1", "slab2"))
    base_dir = path.parent

    def gap_width(context, key, value):
        """``value`` checked against the force paths' own gap-width rule."""
        try:
            _gaps([value])
        except ValueError as exc:
            raise ConfigError(f"key '{context}.{key}': {exc}") from exc
        return value

    slab1 = _parse_slab(doc["slab1"], "slab1", base_dir)
    # identical slabs share one model, so the force paths can see r2 is r1
    same = doc["slab2"] == doc["slab1"]
    slab2 = slab1 if same else _parse_slab(doc["slab2"], "slab2", base_dir)

    sweep = _section(doc.get("sweep", {}), "sweep", {"min", "max", "points", "spacing"})
    s_min = gap_width("sweep", "min", _number(sweep, "sweep", "min", default=1e-6))
    s_max = gap_width("sweep", "max", _number(sweep, "sweep", "max", default=s_min))
    points = _integer(sweep.get("points", 1), "sweep.points", lo=1)
    if points > 1 and not s_min < s_max:
        raise ConfigError(
            f"key 'sweep.min' must be < 'sweep.max' for a sweep, got {s_min} >= {s_max}")
    spacing = _choice(sweep.get("spacing", "log"), "sweep.spacing", ("log", "linear"))

    path_choice = _choice(doc.get("path", "imaginary-axis"), "path", _PATHS)
    paths = ("imaginary-axis", "lifshitz", "real-axis") if path_choice == "all" \
        else (path_choice,)
    if "lifshitz" in paths and any(doc[s]["type"] != "fresnel" for s in ("slab1", "slab2")):
        raise ConfigError(
            "key 'path': the lifshitz path needs both slabs of type 'fresnel'")

    quad = _section(doc.get("quadrature", {}), "quadrature", {"rtol", "max_subdivisions"})
    qcfg = _build("quadrature", QuadratureConfig,
                  rtol=_number(quad, "quadrature", "rtol", default=1e-9),
                  max_subdivisions=_integer(quad.get("max_subdivisions", 2000),
                                            "quadrature.max_subdivisions"))

    output = _section(doc.get("output", {}), "output", {"format", "path"})
    fmt = _choice(output.get("format", "csv"), "output.format", ("csv", "json"))
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("key 'output.path' must be a path string")

    dos_params = None
    if "dos" in doc:
        d = _section(doc["dos"], "dos", {"L", "Q", "k_max", "points", "eta"}, required=("L",))
        L = gap_width("dos", "L", _number(d, "dos", "L"))
        dos_params = {
            "L": L,
            "Q": _number(d, "dos", "Q", default=0.0),
            "k_max": _number(d, "dos", "k_max", default=6.0 * np.pi / L, minimum=0.0),
            "points": _integer(d.get("points", 500), "dos.points", lo=2),
            "eta": None if d.get("eta") is None else _number(d, "dos", "eta"),
        }
        for key in ("Q", "eta"):
            if dos_params[key] is not None and not dos_params[key] >= 0.0:
                raise ConfigError(f"key 'dos.{key}' must be >= 0, got {dos_params[key]}")
        # the kinematics square the largest sample's wavenumber hypot(Q, k_max)
        q = math.hypot(dos_params["Q"], dos_params["k_max"])
        if not math.isfinite(q * q):
            key = "k_max" if dos_params["k_max"] >= dos_params["Q"] else "Q"
            raise ConfigError(f"key 'dos.{key}': the wavenumber hypot(Q, k_max) = {q:g} 1/m "
                              "must have a finite square (below about 1.3e154)")

    return RunConfig(slab1=slab1, slab2=slab2, sweep_min=s_min, sweep_max=s_max,
                     sweep_points=points, sweep_spacing=spacing, paths=paths,
                     quadrature=qcfg, out_format=fmt, out_path=out_path,
                     dos_params=dos_params)


def _row(L, path_tag, res):
    """The table row of one (separation, path): ``res`` is a ForceResult or
    the CasimirError that the computation raised."""
    if isinstance(res, CasimirError):
        return {"L_m": L, "pressure_Pa": float("nan"), "err_Pa": float("nan"),
                "eta_red": float("nan"), "path": path_tag, "evals": 0,
                "status": f"failed: {type(res).__name__}"}
    return {"L_m": L, "pressure_Pa": res.pressure, "err_Pa": res.error,
            "eta_red": res.reduction, "path": path_tag, "evals": res.neval,
            "status": "ok" if res.converged else "non-converged"}


def _each(solve, Ls):
    """``solve(L)`` at every gap, each CasimirError kept as that gap's result."""
    results = []
    for L in Ls:
        try:
            results.append(solve(L))
        except CasimirError as exc:
            results.append(exc)
    return results


def _path_results(cfg: RunConfig, path_tag, Ls):
    """One ForceResult or CasimirError per separation on one path.

    The imaginary-axis and Lifshitz paths run all separations as one
    lockstep batch; if the batch raises, it is rerun one separation at a
    time so that only the failing rows fail.  The real-axis path, with its
    own outer grid, runs per separation.
    """
    q = cfg.quadrature
    if path_tag == "real-axis":
        return _each(lambda L: force_real_axis(cfg.slab1, cfg.slab2, L, q), Ls)
    if path_tag == "imaginary-axis":
        def many(gaps):
            return force_imag_axis_many(cfg.slab1, cfg.slab2, gaps, q)
    else:
        def many(gaps):
            return lifshitz_force_many(cfg.slab1.dielectric, cfg.slab2.dielectric,
                                       Vacuum(), gaps, q)
    try:
        return many(Ls)
    except CasimirError:
        return _each(lambda L: many([L])[0], Ls)


def run_sweep(cfg: RunConfig):
    """One row per (separation, path); row order is by L, then path."""
    Ls = [float(L) for L in cfg.separations()]
    by_path = [_path_results(cfg, tag, Ls) for tag in cfg.paths]
    return [_row(L, tag, results[i])
            for i, L in enumerate(Ls) for tag, results in zip(cfg.paths, by_path)]


def dos_table(cfg: RunConfig):
    """DOS-vs-k rows at fixed Q for the configured slab pair; an active
    pair raises :class:`PassivityError`, as on the force paths."""
    if cfg.dos_params is None:
        raise ConfigError("missing required section 'dos'")
    p = cfg.dos_params
    L, Q, k_max, points = p["L"], p["Q"], p["k_max"], p["points"]
    ks = np.linspace(k_max / points, k_max, points)
    eta = p["eta"] if p["eta"] is not None else default_eta(ks, L)
    kin = WaveKinematics.real_axis(Q, np.hypot(Q, ks), ks)
    (rs1, rp1), (rs2, rp2) = cfg.slab1.pair(kin), cfg.slab2.pair(kin)
    _check_passive(rs1 * rs2, "DOS k")
    _check_passive(rp1 * rp2, "DOS k")
    rho_s = dos("s", Q, ks, rs1, rs2, L, eta).tolist()
    rho_p = dos("p", Q, ks, rp1, rp2, L, eta).tolist()
    return [{"k_1_per_m": k, "rho_s": rs, "rho_p": rp, "rho_total": rs + rp}
            for k, rs, rp in zip(ks.tolist(), rho_s, rho_p)]


def write_table(rows, fmt, path):
    """Write rows as CSV (floats to 17 significant digits, the value types
    of the first row in every row) or a JSON array, in which a non-finite
    float (a failed row's NaN) is null."""
    if not rows:
        raise ValueError("refusing to write an empty table")
    columns = list(rows[0].keys())
    out = Path(path)
    try:
        if fmt == "csv":
            line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0].values())
            values = operator.itemgetter(*columns)
            lines = [",".join(columns)] + [line % values(row) for row in rows]
            out.write_text("\n".join(lines) + "\n")
        elif fmt == "json":
            rows = [{c: None if isinstance(v, float) and not math.isfinite(v) else v
                     for c, v in row.items()} for row in rows]
            out.write_text(json.dumps(rows, indent=2, allow_nan=False) + "\n")
        else:
            raise ValueError(f"unknown output format {fmt!r}")
    except OSError as exc:
        raise CasimirError(f"cannot write output file {out}: {exc}") from exc
    return out


def read_table_csv(path):
    """Load a CSV written by :func:`write_table` back into row dicts."""
    lines = Path(path).read_text().splitlines()
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = {}
        for key, tok in zip(columns, line.split(",")):
            try:
                row[key] = int(tok) if tok.lstrip("-").isdigit() else float(tok)
            except ValueError:
                row[key] = tok
        rows.append(row)
    return rows


@functools.cache  # one parser per process: building one costs ten parses
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="casimir",
        description="Casimir pressure between planar slabs from reflection amplitudes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "run a force sweep"),
                        ("dos", "emit a DOS-vs-k table at fixed Q")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="YAML run configuration")
        p.add_argument("--out", help="output file (overrides config)")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt",
                       help="output format (overrides config)")
        if name == "run":
            p.add_argument("--tol", type=float,
                           help="relative quadrature tolerance (overrides config)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if getattr(args, "tol", None) is not None:
            try:
                qcfg = replace(cfg.quadrature, rtol=args.tol)
            except ValueError as exc:
                raise ConfigError(f"--tol: {exc}") from exc
            cfg = replace(cfg, quadrature=qcfg)
        fmt = args.fmt or cfg.out_format
        out_path = args.out or cfg.out_path
        if out_path is None:
            raise ConfigError("no output path: set 'output.path' or pass --out")
        if args.command == "run":
            rows = run_sweep(cfg)
        else:
            rows = dos_table(cfg)
        write_table(rows, fmt, out_path)
    except ConfigError as exc:
        print(f"casimir: config error: {exc}", file=sys.stderr)
        return 2
    except CasimirError as exc:
        print(f"casimir: {exc}", file=sys.stderr)
        return 3
    # only sweep rows carry a status; a DOS table's rows have none
    if args.command == "run" and any(row["status"] != "ok" for row in rows):
        print("casimir: one or more sweep points did not converge", file=sys.stderr)
        return 3
    return 0


def cli_entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
