import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from casimir import Drude, FresnelReflection, PerfectMirror, dos, force_imag_axis
from casimir import cli, dielectric, reflection
from casimir.cli import dos_table, main, parse_config, read_table_csv, run_sweep, write_table
from casimir.constants import C_LIGHT
from casimir.spectrum import default_eta
from casimir.errors import ConfigError, PassivityError

MIRROR_CFG = """
slab1: {type: mirror}
slab2: {type: mirror}
sweep: {min: 1.0e-6, points: 1}
quadrature: {rtol: 1.0e-7}
output: {format: csv, path: out.csv}
"""

DRUDE_CFG = """
slab1:
  type: fresnel
  material: {model: drude, omega_p: 1.37e16, gamma: 5.3e13}
slab2:
  type: fresnel
  material: {model: drude, omega_p: 1.37e16, gamma: 5.3e13}
sweep: {min: 2.0e-7, max: 8.0e-7, points: 3, spacing: log}
path: imaginary-axis
quadrature: {rtol: 1.0e-6}
output: {format: csv, path: out.csv}
"""


def _write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_minimal_mirror_config(tmp_path):
    cfg = parse_config(_write(tmp_path, MIRROR_CFG))
    assert isinstance(cfg.slab1, PerfectMirror)
    assert cfg.separations().tolist() == [1e-6]
    assert cfg.paths == ("imaginary-axis",)
    assert cfg.quadrature.rtol == 1e-7


def test_identical_slabs_share_one_model(tmp_path):
    cfg = parse_config(_write(tmp_path, DRUDE_CFG))
    assert cfg.slab2 is cfg.slab1
    other = parse_config(_write(tmp_path, DRUDE_CFG.replace("gamma: 5.3e13}", "gamma: 6e13}", 1)))
    assert other.slab2 is not other.slab1
    assert other.slab2 == FresnelReflection(Drude(1.37e16, 5.3e13))


def test_unknown_keys_are_named(tmp_path):
    bad = MIRROR_CFG.replace("sweep:", "swep:")
    with pytest.raises(ConfigError, match="swep"):
        parse_config(_write(tmp_path, bad))
    bad2 = MIRROR_CFG.replace("{type: mirror}", "{type: mirror, fudge: 2}")
    with pytest.raises(ConfigError, match="slab1.fudge"):
        parse_config(_write(tmp_path, bad2))


def test_material_validation_messages(tmp_path):
    cfg = DRUDE_CFG.replace("model: drude, omega_p: 1.37e16, gamma: 5.3e13",
                            "model: plasma, omega_p: 1.37e16, gamma: 5.3e13", 1)
    with pytest.raises(ConfigError, match="gamma.*not valid for model 'plasma'"):
        parse_config(_write(tmp_path, cfg))
    cfg2 = DRUDE_CFG.replace("model: drude", "model: unobtainium", 1)
    with pytest.raises(ConfigError, match="unobtainium"):
        parse_config(_write(tmp_path, cfg2))


def test_lifshitz_path_requires_fresnel_slabs(tmp_path):
    cfg = MIRROR_CFG + "path: lifshitz\n"
    with pytest.raises(ConfigError, match="lifshitz"):
        parse_config(_write(tmp_path, cfg))


def test_sweep_grid_shapes(tmp_path):
    cfg = parse_config(_write(tmp_path, DRUDE_CFG))
    L = cfg.separations()
    assert L.size == 3
    # log spacing: constant ratio
    assert L[1] / L[0] == pytest.approx(L[2] / L[1], rel=1e-12)


def test_run_sweep_matches_library_call(tmp_path):
    cfg = parse_config(_write(tmp_path, DRUDE_CFG))
    rows = run_sweep(cfg)
    assert len(rows) == 3
    m = FresnelReflection(Drude(1.37e16, 5.3e13))
    direct = force_imag_axis(m, m, rows[0]["L_m"], cfg.quadrature)
    assert rows[0]["pressure_Pa"] == direct.pressure
    assert rows[0]["status"] == "ok"
    assert [r["L_m"] for r in rows] == sorted(r["L_m"] for r in rows)


def test_failing_gap_of_a_batched_sweep_fails_alone(tmp_path, monkeypatch):
    # the sweep runs as one batch; when the batch raises, each gap reruns
    # on its own, so only the row of the gap that raises fails
    from casimir import cli
    cfg = parse_config(_write(tmp_path, DRUDE_CFG))
    Ls = cfg.separations().tolist()
    bad = Ls[1]
    batch = cli.force_imag_axis_many

    def flaky(r1, r2, gaps, qcfg):
        if bad in np.atleast_1d(gaps).tolist():
            raise PassivityError("injected")
        return batch(r1, r2, gaps, qcfg)

    monkeypatch.setattr(cli, "force_imag_axis_many", flaky)
    rows = run_sweep(cfg)
    assert [r["L_m"] for r in rows] == Ls
    assert rows[1]["status"] == "failed: PassivityError"
    assert rows[1]["evals"] == 0
    m = FresnelReflection(Drude(1.37e16, 5.3e13))
    for row in (rows[0], rows[2]):
        res = force_imag_axis(m, m, row["L_m"], cfg.quadrature)
        assert (row["pressure_Pa"], row["err_Pa"], row["evals"], row["status"]) == \
            (res.pressure, res.error, res.neval, "ok")
    assert main(["run", str(tmp_path / "cfg.yaml"), "--out", str(tmp_path / "o.csv")]) == 3


def test_csv_round_trip_preserves_doubles(tmp_path):
    rows = [{"L_m": 1e-7, "pressure_Pa": -1.2345678901234567e-3,
             "err_Pa": 3e-12, "eta_red": 0.25, "path": "imaginary-axis",
             "evals": 123, "status": "ok"}]
    out = tmp_path / "t.csv"
    write_table(rows, "csv", out)
    back = read_table_csv(out)
    assert back[0]["pressure_Pa"] == rows[0]["pressure_Pa"]  # 17 digits: exact
    assert back[0]["evals"] == 123


def test_csv_rows_are_what_per_value_formatting_wrote(tmp_path):
    # one "%" string per table, from the first row's value types, writes the
    # bytes of formatting each value alone: a float to 17 digits, the rest
    # by str; a failed row's NaN, an int, a str with "%" in it and a table
    # of one column included
    def fmt(value):
        return "%.17g" % value if isinstance(value, float) else str(value)

    rows = [{"L_m": 1e-7, "pressure_Pa": -1.2345678901234567e-3, "evals": 123,
             "status": "ok"},
            {"L_m": 1.0 / 3.0, "pressure_Pa": float("nan"), "evals": 0,
             "status": "failed: PassivityError"},
            {"L_m": 2.5e-6, "pressure_Pa": -float("inf"), "evals": 10 ** 18,
             "status": "100% %s"}]
    out = tmp_path / "t.csv"
    for table in (rows, [{"k": 0.1}, {"k": float("nan")}]):
        write_table(table, "csv", out)
        want = [",".join(table[0])] + [",".join(fmt(v) for v in row.values()) for row in table]
        assert out.read_text() == "\n".join(want) + "\n"


def test_json_output(tmp_path):
    rows = [{"L_m": 1e-7, "pressure_Pa": -0.5, "status": "ok"}]
    out = tmp_path / "t.json"
    write_table(rows, "json", out)
    assert json.loads(out.read_text()) == rows


def _strict_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_failed_row_is_strict_json_null(tmp_path):
    # constant reflection on the real-axis path fails; its NaN fields are
    # written as null, which a strict parser reads
    cfg = _write(tmp_path, """
slab1: {type: constant, rs: 0.5, rp: 0.5}
slab2: {type: constant, rs: 0.5, rp: 0.5}
sweep: {min: 1.0e-7, points: 1}
path: real-axis
quadrature: {rtol: 1.0e-3}
""")
    out = tmp_path / "r.json"
    assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == 3
    rows = json.loads(out.read_text(), parse_constant=_strict_constant)
    assert rows == [{"L_m": 1e-7, "pressure_Pa": None, "err_Pa": None, "eta_red": None,
                     "path": "real-axis", "evals": 0, "status": "failed: ConvergenceError"}]


def test_cli_end_to_end_mirror(tmp_path):
    cfg = _write(tmp_path, MIRROR_CFG)
    out = tmp_path / "result.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = read_table_csv(out)
    assert rows[0]["pressure_Pa"] == pytest.approx(-1.3001e-3, rel=1e-3)


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "slab1: {type: mirror}\n")  # slab2 missing
    assert main(["run", str(cfg)]) == 2
    assert "slab2" in capsys.readouterr().err


def test_quadrature_atol_is_not_a_config_key(tmp_path):
    cfg = _write(tmp_path, MIRROR_CFG.replace("{rtol: 1.0e-7}", "{rtol: 1.0e-7, atol: 1.0e-30}"))
    with pytest.raises(ConfigError, match="quadrature.atol"):
        parse_config(cfg)


@pytest.mark.parametrize("key", ["Q", "eta"])
def test_negative_dos_parameter_is_a_config_error(tmp_path, capsys, key):
    text = """
slab1: {type: mirror}
slab2: {type: mirror}
dos: {L: 1.0e-6, points: 6, %s: %s}
"""
    cfg = _write(tmp_path, text % (key, "-0.5"))
    assert main(["dos", str(cfg), "--out", str(tmp_path / "d.csv")]) == 2
    assert f"dos.{key}" in capsys.readouterr().err
    # zero stays valid
    assert parse_config(_write(tmp_path, text % (key, "0.0"))).dos_params[key] == 0.0


@pytest.mark.parametrize("dos_keys, key", [
    ("k_max: 1.0e+300", "k_max"),
    ("k_max: 1.0e+200", "k_max"),
    ("Q: 1.0e+200", "Q"),
    ("Q: 1.0e+300, k_max: 1.0e+155", "Q"),
], ids=["k_max-1e300", "k_max-1e200", "Q-1e200", "Q-1e300"])
def test_dos_wavenumber_past_the_float_range_is_a_config_error(tmp_path, capsys, dos_keys, key):
    # the kinematics square hypot(Q, k_max): past about 1.3e154 1/m the
    # rows would be computed at an infinite frequency
    text = f"slab1: {{type: mirror}}\nslab2: {{type: mirror}}\ndos: {{L: 1.0e-6, points: 4, {dos_keys}}}\n"
    cfg = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["dos", str(cfg), "--out", str(tmp_path / "d.csv")]) == 2
    assert f"dos.{key}" in capsys.readouterr().err
    # just inside the range the table is computed, without a numpy warning
    cfg = _write(tmp_path, text.replace(dos_keys, f"{key}: 1.3e+154"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["dos", str(cfg), "--out", str(tmp_path / "d.csv")]) == 0


@pytest.mark.parametrize("command, section, key", [
    ("run", "sweep: {min: 1.0e-7, max: 1.0e-6, points: %d}", "sweep.points"),
    ("dos", "dos: {L: 1.0e-6, points: %d}", "dos.points"),
], ids=["sweep", "dos"])
def test_point_count_past_the_bound_is_a_config_error(tmp_path, capsys, monkeypatch, command,
                                                      section, key):
    # rejected while parsing: neither the gap grid nor the k grid is built
    def unbuilt(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli.RunConfig, "separations", unbuilt)
    monkeypatch.setattr(cli, "dos_table", unbuilt)
    text = "slab1: {type: mirror}\nslab2: {type: mirror}\n" + section + "\n"
    cfg = _write(tmp_path, text % 10 ** 12)
    assert main([command, str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert f"key '{key}'" in err and "1000000" in err and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()
    # the bound itself is a valid count
    parse_config(_write(tmp_path, text % 10 ** 6))


@pytest.mark.parametrize("command, section, value", [
    ("run", "sweep: {min: %s, points: 1}", ".nan"),
    ("run", "sweep: {min: %s, points: 1}", "-.inf"),
    ("dos", "dos: {L: %s, points: 6}", ".inf"),
], ids=["run-nan", "run-neg-inf", "dos-inf"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, command, section, value):
    text = "slab1: {type: mirror}\nslab2: {type: mirror}\n" + section % value + "\n"
    cfg = _write(tmp_path, text)
    assert main([command, str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, key", [
    ("run", "sweep: {min: 1.0e+78, points: 1}", "sweep.min"),
    ("run", "sweep: {min: 1.0e-85, points: 1}", "sweep.min"),
    ("run", "sweep: {min: 1.0e-7, max: 1.0e+78, points: 2}", "sweep.max"),
    ("dos", "dos: {L: 1.0e-300}", "dos.L"),
], ids=["run-huge", "run-tiny", "run-huge-max", "dos-tiny"])
def test_gap_width_the_prefactors_cannot_hold_is_a_config_error(tmp_path, capsys, command,
                                                                section, key):
    # the force paths' own range: L^4 and the ideal pressure normal floats
    text = "slab1: {type: mirror}\nslab2: {type: mirror}\n" + section + "\n"
    cfg = _write(tmp_path, text)
    assert main([command, str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert f"key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_cli_exit_code_on_nonconverged(tmp_path, capsys):
    # constant reflection on the real-axis path cannot converge
    cfg = _write(tmp_path, """
slab1: {type: constant, rs: 0.5, rp: 0.5}
slab2: {type: constant, rs: 0.5, rp: 0.5}
sweep: {min: 1.0e-6, points: 1}
path: real-axis
quadrature: {rtol: 1.0e-3}
output: {format: csv, path: out.csv}
""")
    out = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    rows = read_table_csv(out)
    assert rows[0]["status"].startswith("failed")


def test_cli_tol_override(tmp_path):
    cfg = _write(tmp_path, MIRROR_CFG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2), "--tol", "1e-10"]) == 0
    r1 = read_table_csv(out1)[0]
    r2 = read_table_csv(out2)[0]
    assert r2["err_Pa"] < r1["err_Pa"]


def test_cli_runs_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, DRUDE_CFG)
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_dos_subcommand(tmp_path):
    cfg = _write(tmp_path, """
slab1: {type: mirror}
slab2: {type: mirror}
dos: {L: 1.0e-6, Q: 0.0, points: 50}
output: {format: csv, path: out.csv}
""")
    out = tmp_path / "dos.csv"
    assert main(["dos", str(cfg), "--out", str(out)]) == 0
    rows = read_table_csv(out)
    assert len(rows) == 50
    assert all(row["rho_total"] >= 0.0 for row in rows)


def test_multilayer_config(tmp_path):
    cfg = _write(tmp_path, """
slab1:
  type: multilayer
  layers:
    - {thickness: 2.0e-8, material: {model: drude, omega_p: 1.37e16, gamma: 5.3e13}}
  substrate: {model: constant, eps_r: 2.25}
slab2: {type: mirror}
sweep: {min: 3.0e-7, points: 1}
quadrature: {rtol: 1.0e-6}
output: {format: csv, path: out.csv}
""")
    out = tmp_path / "ml.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert read_table_csv(out)[0]["pressure_Pa"] < 0.0


@pytest.mark.parametrize("slab", ["{type: mirror}",
                                  "{type: fresnel, material: {model: drude, "
                                  "omega_p: 1.0e16, gamma: 1.0e14}}",
                                  "{type: constant, rs: 0.0, rp: 0.0}"],
                         ids=["mirror", "drude", "free"])
def test_dos_table_matches_scalar_dos_per_row(tmp_path, slab):
    cfg = parse_config(_write(tmp_path, f"""
slab1: {slab}
slab2: {slab}
dos: {{L: 1.0e-6, Q: 2.0e6, points: 300}}
"""))
    rows = dos_table(cfg)
    assert len(rows) == 300
    for row in rows:
        k = row["k_1_per_m"]
        omega = C_LIGHT * float(np.hypot(2.0e6, k))
        for pol in ("s", "p"):
            r1 = complex(np.ravel(cfg.slab1.amplitude(pol, 2.0e6, omega))[0])
            r2 = complex(np.ravel(cfg.slab2.amplitude(pol, 2.0e6, omega))[0])
            want = dos(pol, 2.0e6, k, r1, r2, 1.0e-6, default_eta(k, 1.0e-6))
            assert row[f"rho_{pol}"] == pytest.approx(want, rel=1e-12)
        assert row["rho_total"] == row["rho_s"] + row["rho_p"]


def test_contour_and_dos_table_check_each_frequency_once(tmp_path, monkeypatch):
    # both run on the real-axis kinematics, which check the frequencies
    # once per call and hand them to each model's formula unchecked: no
    # complex kinematics are built, and no model's eval runs
    def refuse(*args, **kwargs):
        raise AssertionError("complex kinematics or a second frequency check")

    monkeypatch.setattr(reflection.WaveKinematics, "create", refuse)
    monkeypatch.setattr(dielectric, "_check_frequency", refuse)
    slab = "{type: fresnel, material: {model: drude, omega_p: 1.0e16, gamma: 1.0e14}}"
    run = _write(tmp_path, f"""
slab1: {slab}
slab2: {slab}
sweep: {{min: 1.0e-8, points: 1}}
path: real-axis
quadrature: {{rtol: 1.0e-3}}
""", "run.yaml")
    assert main(["run", str(run), "--out", str(tmp_path / "run.csv")]) == 0
    (row,) = read_table_csv(tmp_path / "run.csv")
    assert row["status"] == "ok" and int(row["evals"]) == 70_170
    cfg = _write(tmp_path, f"slab1: {slab}\nslab2: {slab}\ndos: {{L: 1.0e-6, Q: 2.0e6}}\n")
    assert main(["dos", str(cfg), "--out", str(tmp_path / "dos.csv")]) == 0
    assert len(read_table_csv(tmp_path / "dos.csv")) == 500


def test_dos_without_broadening_on_a_resonance_exits_3(tmp_path, capsys):
    # the first sample k = pi / L is a mirror-cavity mode
    cfg = _write(tmp_path, """
slab1: {type: mirror}
slab2: {type: mirror}
dos: {L: 1.0e-6, points: 6, eta: 0.0}
""")
    assert main(["dos", str(cfg), "--out", str(tmp_path / "d.csv")]) == 3
    assert "resonance" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_dos_of_an_active_pair_exits_3(tmp_path, capsys):
    # |r1 r2| = 2.25 on every k of the grid: the force paths' passivity
    # check, not a table of negative densities
    cfg = _write(tmp_path, """
slab1: {type: constant, rs: 1.5, rp: 1.5}
slab2: {type: constant, rs: 1.5, rp: 1.5}
dos: {L: 1.0e-6, points: 6}
""")
    with pytest.raises(PassivityError, match="active medium"):
        dos_table(parse_config(cfg))
    assert main(["dos", str(cfg), "--out", str(tmp_path / "d.csv")]) == 3
    assert "active medium" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_libyaml_reads_every_config_as_the_pure_python_loader():
    import yaml
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    shipped = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
    assert len(shipped) == 4
    texts = [p.read_bytes() for p in shipped] + [MIRROR_CFG.encode(), DRUDE_CFG.encode()]
    for text in texts:
        assert yaml.load(text, Loader=loader) == yaml.load(text, Loader=yaml.SafeLoader)
    # YAML 1.1 reads a float without a sign in its exponent as a string
    # under both; _number converts it
    doc = yaml.load(b"omega_p: 1.37e16\n", Loader=loader)
    assert doc == {"omega_p": "1.37e16"}


@pytest.mark.parametrize("text", [
    b"slab1: {type: mirr\xe9}\nslab2: {type: mirror}\n",
    b"slab1: {type: mirror\nslab2: [1, 2\n",
], ids=["not-utf8", "malformed"])
def test_unreadable_yaml_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert "config is not valid YAML" in capsys.readouterr().err


def test_parsing_a_tabulated_config_builds_nothing(child_env):
    # a table's Kramers-Kronig moment sums and interpolant are built on its
    # first continuation, never while a config is parsed or at import
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "tabulated_gold.yaml")
    for slab in (cfg.slab1, cfg.slab2):
        built = vars(slab.dielectric.table)
        assert "_far_moments" not in built and "_chebyshev" not in built
    code = "import sys, casimir.cli; assert 'numpy.polynomial' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=child_env(os.environ), check=True)


def test_unwritable_output_file_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, MIRROR_CFG)
    out = tmp_path / "missing" / "x.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert f"cannot write output file {out}" in capsys.readouterr().err


def test_non_finite_optical_table_is_a_config_error(tmp_path, capsys):
    (tmp_path / "t.dat").write_text("1e14 40.0\n1e15 nan\n1e16 0.2\n")
    cfg = _write(tmp_path, """
slab1: {type: fresnel, material: {model: tabulated, file: t.dat}}
slab2: {type: mirror}
sweep: {min: 1.0e-6, points: 1}
""")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert "Im eps must be finite" in capsys.readouterr().err


_MIRRORS = "slab1: {type: mirror}\nslab2: {type: mirror}\n"
_DRUDE = "{model: drude, omega_p: 1.0e16, gamma: 1.0e14}"


def _fresnel(material):
    return f"slab1: {{type: fresnel, material: {material}}}\nslab2: {{type: mirror}}\n"


def _stack(layer):
    return ("slab1: {type: multilayer, layers: [%s], substrate: mirror}\n"
            "slab2: {type: mirror}\n" % layer)


def _oscillator(osc):
    return _fresnel("{model: drude_lorentz, eps_inf: 1.0, oscillators: [%s]}" % osc)


# (command, config text, what stderr must name); one case per reader and per
# bound, each config malformed in one place only
_MALFORMED = {
    "root-not-mapping": ("run", "- 1\n- 2\n", ["<root>"]),
    "slab-not-mapping": ("run", "slab1: 3\nslab2: {type: mirror}\n", ["slab1"]),
    "sweep-not-mapping": ("run", _MIRRORS + "sweep: [1]\n", ["sweep"]),
    "material-not-mapping": ("run", _fresnel("drude"), ["slab1.material"]),
    "layer-not-mapping": ("run", _stack("3"), ["slab1.layers[0]"]),
    "oscillator-not-mapping": ("run", _oscillator("1"), ["slab1.material.oscillators[0]"]),
    "output-not-mapping": ("run", _MIRRORS + "output: csv\n", ["output"]),
    "layers-not-a-list": ("run", "slab1: {type: multilayer, layers: 3, substrate: mirror}\n"
                                 "slab2: {type: mirror}\n", ["slab1.layers"]),
    "no-oscillators": ("run", _fresnel("{model: drude_lorentz, oscillators: []}"),
                       ["slab1.material.oscillators"]),
    "unknown-root-key": ("run", _MIRRORS + "swep: {min: 1.0e-6}\n", ["swep"]),
    "unknown-slab-key": ("run", "slab1: {type: mirror, fudge: 2}\nslab2: {type: mirror}\n",
                         ["slab1.fudge"]),
    "key-of-another-type": ("run", "slab1: {type: mirror, rs: 0.5}\nslab2: {type: mirror}\n",
                            ["slab1.rs"]),
    "key-of-another-model": ("run", _fresnel("{model: plasma, omega_p: 1.0e16, gamma: 1.0}"),
                             ["slab1.material.gamma"]),
    "unknown-dos-key": ("dos", _MIRRORS + "dos: {L: 1.0e-6, kmax: 1.0e7}\n", ["dos.kmax"]),
    "missing-slab": ("run", "slab1: {type: mirror}\n", ["slab2"]),
    "missing-type": ("run", "slab1: {rs: 0.5}\nslab2: {type: mirror}\n", ["slab1.type"]),
    "missing-model-key": ("run", _fresnel("{model: drude, omega_p: 1.0e16}"),
                          ["slab1.material.gamma"]),
    "missing-oscillator-key": ("run", _oscillator("{strength: 1.0, omega_0: 1.0e15}"),
                               ["slab1.material.oscillators[0].gamma"]),
    "missing-dos-gap": ("dos", _MIRRORS + "dos: {Q: 1.0e6}\n", ["dos.L"]),
    "non-number": ("run", "slab1: {type: constant, rs: abc, rp: 0.5}\nslab2: {type: mirror}\n",
                   ["slab1.rs"]),
    "boolean-number": ("run", _MIRRORS + "sweep: {min: true}\n", ["sweep.min"]),
    "non-finite-number": ("run", _fresnel("{model: plasma, omega_p: .inf}"),
                          ["slab1.material.omega_p"]),
    "bad-type": ("run", "slab1: {type: prism}\nslab2: {type: mirror}\n", ["slab1.type", "prism"]),
    "bad-model": ("run", _fresnel("{model: unobtainium}"),
                  ["slab1.material.model", "unobtainium"]),
    "unhashable-model": ("run", _fresnel("{model: [drude]}"), ["slab1.material.model"]),
    "bad-spacing": ("run", _MIRRORS + "sweep: {min: 1.0e-7, max: 1.0e-6, points: 2, "
                                      "spacing: cubic}\n", ["sweep.spacing", "cubic"]),
    "bad-path": ("run", _MIRRORS + "path: sideways\n", ["path", "sideways"]),
    "bad-format": ("run", _MIRRORS + "output: {format: xml}\n", ["output.format", "xml"]),
    "points-out-of-range": ("run", _MIRRORS + "sweep: {min: 1.0e-7, max: 1.0e-6, points: 0}\n",
                            ["sweep.points"]),
    "points-string": ("dos", _MIRRORS + "dos: {L: 1.0e-6, points: ten}\n", ["dos.points"]),
    "subdivisions-string": ("run", _MIRRORS + "quadrature: {max_subdivisions: many}\n",
                            ["quadrature.max_subdivisions"]),
    "file-not-a-string": ("run", _fresnel("{model: tabulated, file: 3}"),
                          ["slab1.material.file"]),
    "file-missing": ("run", _fresnel("{model: tabulated}"), ["slab1.material.file"]),
    "output-path-not-a-string": ("run", _MIRRORS + "output: {path: 3}\n", ["output.path"]),
    "negative-omega_p": ("run", _fresnel("{model: plasma, omega_p: -1.0e16}"),
                         ["slab1.material", "omega_p"]),
    "negative-gamma": ("run", _fresnel("{model: drude, omega_p: 1.0e16, gamma: -1.0e14}"),
                       ["slab1.material", "gamma"]),
    "negative-omega_0": ("run", _oscillator("{strength: 1.0, omega_0: -1.0e15, gamma: 1.0e13}"),
                         ["slab1.material", "omega_0"]),
    "negative-strength": ("run", _oscillator("{strength: -1.0, omega_0: 1.0e15, gamma: 1.0e13}"),
                          ["slab1.material", "strength"]),
    "eps_r-below-1": ("run", _fresnel("{model: constant, eps_r: 0.5}"),
                      ["slab1.material", "eps_r"]),
    "rtol-out-of-range": ("run", _MIRRORS + "quadrature: {rtol: 0.5}\n", ["quadrature", "rtol"]),
    "zero-dos-gap": ("dos", _MIRRORS + "dos: {L: 0.0}\n", ["dos.L"]),
    "negative-thickness": ("run", _stack("{thickness: -2.0e-8, material: %s}" % _DRUDE),
                           ["slab1", "thickness"]),
    "negative-sweep-min": ("run", _MIRRORS + "sweep: {min: -1.0e-6}\n", ["sweep.min"]),
    "sweep-min-past-max": ("run", _MIRRORS + "sweep: {min: 1.0e-6, max: 1.0e-7, points: 3}\n",
                           ["sweep.min"]),
    "lifshitz-with-a-mirror": ("run", _fresnel(_DRUDE) + "path: lifshitz\n",
                               ["path", "lifshitz"]),
    "negative-k_max": ("dos", _MIRRORS + "dos: {L: 1.0e-6, k_max: -1.0e7}\n", ["dos.k_max"]),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, case):
    command, text, named = _MALFORMED[case]
    cfg = _write(tmp_path, text)
    assert main([command, str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("casimir: config error: ") and "Traceback" not in err
    for name in named:
        assert name in err
    assert not (tmp_path / "o.csv").exists()
