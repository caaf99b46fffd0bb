import json
from pathlib import Path

import numpy as np
import pytest

from casimir import Drude, FresnelReflection, PerfectMirror, dos, force_imag_axis
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


def test_json_output(tmp_path):
    rows = [{"L_m": 1e-7, "pressure_Pa": -0.5, "status": "ok"}]
    out = tmp_path / "t.json"
    write_table(rows, "json", out)
    assert json.loads(out.read_text()) == rows


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
