"""Command-line front end: config-driven force sweeps and DOS tables.

Usage::

    casimir run <config.yaml> [--out PATH] [--format csv|json] [--tol X]
    casimir dos <config.yaml> [--out PATH] [--format csv|json]

Exit codes: 0 success, 2 config error, 3 convergence failure, an active
slab pair or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
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
        if self.sweep_points == 1:
            return np.array([self.sweep_min])
        if self.sweep_spacing == "log":
            return np.geomspace(self.sweep_min, self.sweep_max, self.sweep_points)
        return np.linspace(self.sweep_min, self.sweep_max, self.sweep_points)


def _expect_mapping(node, context):
    if not isinstance(node, dict):
        raise ConfigError(f"section '{context}' must be a mapping")
    return node


def _check_keys(node, context, allowed, required=()):
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key '{context}.{key}'")
    for key in required:
        if key not in node:
            raise ConfigError(f"missing required key '{context}.{key}'")


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


_MATERIAL_KEYS = {
    "vacuum": set(),
    "constant": {"eps_r"},
    "plasma": {"omega_p"},
    "drude": {"omega_p", "gamma"},
    "drude_lorentz": {"eps_inf", "oscillators"},
    "tabulated": {"file"},
}


def _parse_material(node, context, base_dir) -> DielectricModel:
    node = _expect_mapping(node, context)
    _check_keys(node, context, {"model"} | set().union(*_MATERIAL_KEYS.values()),
                required=("model",))
    model = node["model"]
    if model not in _MATERIAL_KEYS:
        raise ConfigError(
            f"key '{context}.model' must be one of {sorted(_MATERIAL_KEYS)}, got {model!r}")
    extra = set(node) - {"model"} - _MATERIAL_KEYS[model]
    if extra:
        raise ConfigError(f"key '{context}.{extra.pop()}' not valid for model '{model}'")
    try:
        if model == "vacuum":
            return Vacuum()
        if model == "constant":
            return Constant(eps_r=_number(node, context, "eps_r"))
        if model == "plasma":
            return Plasma(omega_p=_number(node, context, "omega_p", minimum=0.0))
        if model == "drude":
            return Drude(omega_p=_number(node, context, "omega_p", minimum=0.0),
                         gamma=_number(node, context, "gamma", minimum=0.0))
        if model == "drude_lorentz":
            osc = node.get("oscillators")
            if not isinstance(osc, list) or not osc:
                raise ConfigError(f"key '{context}.oscillators' must be a non-empty list")
            terms = []
            for i, o in enumerate(osc):
                oc = f"{context}.oscillators[{i}]"
                o = _expect_mapping(o, oc)
                _check_keys(o, oc, {"strength", "omega_0", "gamma"},
                            required=("strength", "omega_0", "gamma"))
                terms.append((_number(o, oc, "strength"),
                              _number(o, oc, "omega_0", minimum=0.0),
                              _number(o, oc, "gamma")))
            return DrudeLorentz(eps_inf=_number(node, context, "eps_inf", default=1.0),
                                oscillators=tuple(terms))
        # tabulated
        fname = node.get("file")
        if not isinstance(fname, str):
            raise ConfigError(f"key '{context}.file' must be a path string")
        path = Path(fname)
        if not path.is_absolute():
            path = base_dir / path
        try:
            return Tabulated(table=load_optical_table(path))
        except OpticalTableError as exc:
            raise ConfigError(f"key '{context}.file': {exc}") from exc
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"section '{context}': {exc}") from exc


def _parse_slab(node, context, base_dir):
    """The ReflectionModel a ``slab1``/``slab2`` section describes."""
    node = _expect_mapping(node, context)
    _check_keys(node, context,
                {"type", "material", "rs", "rp", "layers", "substrate"},
                required=("type",))
    kind = node["type"]
    if kind == "mirror":
        _check_keys(node, context, {"type"})
        return PerfectMirror()
    if kind == "constant":
        _check_keys(node, context, {"type", "rs", "rp"}, required=("rs", "rp"))
        return ConstantReflection(r_s=complex(_number(node, context, "rs")),
                                  r_p=complex(_number(node, context, "rp")))
    if kind == "fresnel":
        _check_keys(node, context, {"type", "material"}, required=("material",))
        return FresnelReflection(
            dielectric=_parse_material(node["material"], f"{context}.material", base_dir))
    if kind == "multilayer":
        _check_keys(node, context, {"type", "layers", "substrate"},
                    required=("layers", "substrate"))
        if not isinstance(node["layers"], list):
            raise ConfigError(f"key '{context}.layers' must be a list")
        layers = []
        for i, layer in enumerate(node["layers"]):
            lc = f"{context}.layers[{i}]"
            layer = _expect_mapping(layer, lc)
            _check_keys(layer, lc, {"thickness", "material"},
                        required=("thickness", "material"))
            layers.append((_number(layer, lc, "thickness", minimum=0.0),
                           _parse_material(layer["material"], f"{lc}.material", base_dir)))
        sub = node["substrate"]
        if sub == "mirror":
            substrate = MIRROR
        else:
            substrate = _parse_material(sub, f"{context}.substrate", base_dir)
        try:
            stack = LayerStack(layers=tuple(layers), substrate=substrate)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"section '{context}': {exc}") from exc
        return MultilayerReflection(stack=stack)
    raise ConfigError(
        f"key '{context}.type' must be one of mirror|constant|fresnel|multilayer, "
        f"got {kind!r}")


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
    doc = _expect_mapping(doc, "<root>")
    _check_keys(doc, "<root>",
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

    sweep = _expect_mapping(doc.get("sweep", {}), "sweep")
    _check_keys(sweep, "sweep", {"min", "max", "points", "spacing"})
    s_min = gap_width("sweep", "min", _number(sweep, "sweep", "min", default=1e-6, minimum=0.0))
    s_max = gap_width("sweep", "max", _number(sweep, "sweep", "max", default=s_min, minimum=0.0))
    points = sweep.get("points", 1)
    if isinstance(points, bool) or not isinstance(points, int) or not 1 <= points <= _MAX_POINTS:
        raise ConfigError(
            f"key 'sweep.points' must be an integer from 1 to {_MAX_POINTS}, got {points!r}")
    if points > 1 and not s_min < s_max:
        raise ConfigError(
            f"key 'sweep.min' must be < 'sweep.max' for a sweep, got {s_min} >= {s_max}")
    spacing = sweep.get("spacing", "log")
    if spacing not in ("log", "linear"):
        raise ConfigError(f"key 'sweep.spacing' must be log|linear, got {spacing!r}")

    path_choice = doc.get("path", "imaginary-axis")
    if path_choice not in _PATHS:
        raise ConfigError(f"key 'path' must be one of {_PATHS}, got {path_choice!r}")
    paths = ("imaginary-axis", "lifshitz", "real-axis") if path_choice == "all" \
        else (path_choice,)
    if "lifshitz" in paths and any(doc[s]["type"] != "fresnel" for s in ("slab1", "slab2")):
        raise ConfigError(
            "key 'path': the lifshitz path needs both slabs of type 'fresnel'")

    quad = _expect_mapping(doc.get("quadrature", {}), "quadrature")
    _check_keys(quad, "quadrature", {"rtol", "max_subdivisions"})
    max_sub = quad.get("max_subdivisions", 2000)
    if isinstance(max_sub, bool) or not isinstance(max_sub, int):
        raise ConfigError("key 'quadrature.max_subdivisions' must be an integer")
    try:
        qcfg = QuadratureConfig(rtol=_number(quad, "quadrature", "rtol", default=1e-9),
                                max_subdivisions=max_sub)
    except ValueError as exc:
        raise ConfigError(f"section 'quadrature': {exc}") from exc

    output = _expect_mapping(doc.get("output", {}), "output")
    _check_keys(output, "output", {"format", "path"})
    fmt = output.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"key 'output.format' must be csv|json, got {fmt!r}")
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("key 'output.path' must be a path string")

    dos_params = None
    if "dos" in doc:
        d = _expect_mapping(doc["dos"], "dos")
        _check_keys(d, "dos", {"L", "Q", "k_max", "points", "eta"}, required=("L",))
        L = gap_width("dos", "L", _number(d, "dos", "L", minimum=0.0))
        pts = d.get("points", 500)
        if isinstance(pts, bool) or not isinstance(pts, int) or not 2 <= pts <= _MAX_POINTS:
            raise ConfigError(
                f"key 'dos.points' must be an integer from 2 to {_MAX_POINTS}, got {pts!r}")
        dos_params = {
            "L": L,
            "Q": _number(d, "dos", "Q", default=0.0),
            "k_max": _number(d, "dos", "k_max", default=6.0 * np.pi / L, minimum=0.0),
            "points": pts,
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
    if any(str(row.get("status", "ok")) != "ok" for row in rows):
        print("casimir: one or more sweep points did not converge", file=sys.stderr)
        return 3
    return 0


def cli_entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
