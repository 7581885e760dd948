import os
import subprocess
import sys

import numpy as np
import pytest

import biphoton

from biphoton.cli import (EXIT_CONFIG, EXIT_DEGENERATE, EXIT_OK, build_state,
                          main)


def test_pc_bell_psi_minus(capsys):
    assert main(["pc", "--state", "bell:psi-minus", "--l", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "P_c = 1.000000" in out
    assert "verdict = entangled" in out


def test_pc_product(capsys):
    assert main(["pc", "--state", "product", "--l1", "1", "--l2", "-1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "P_c = 0.000000" in out
    assert "verdict = inconclusive" in out


def test_pc_prints_no_negative_zero(capsys):
    # The thin-crystal P_c is zero up to roundoff of either sign.
    assert main(["pc", "--state", "thin-crystal", "--grid-n", "32"]) == EXIT_OK
    assert "P_c = 0.000000" in capsys.readouterr().out


def test_classify_labels(capsys):
    assert main(["classify", "--state", "bell:phi-plus"]) == EXIT_OK
    assert "label = symmetric" in capsys.readouterr().out
    assert main(["classify", "--state", "bell:psi-minus"]) == EXIT_OK
    assert "label = antisymmetric" in capsys.readouterr().out


def test_classify_spdc_hermite_pump(capsys):
    assert main(["classify", "--state", "spdc", "--pump", "hg:0,1"]) == EXIT_OK
    assert "label = antisymmetric" in capsys.readouterr().out


def test_missing_state_is_config_error(capsys):
    assert main(["pc"]) == EXIT_CONFIG
    assert "state" in capsys.readouterr().err


def test_bad_pump_is_config_error(capsys):
    assert main(["pc", "--state", "spdc", "--pump", "lg:0"]) == EXIT_CONFIG
    assert "pump" in capsys.readouterr().err


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("state = product\nl1 = 1\nl2 = 1\n")
    assert main(["pc", "--config", str(cfg)]) == EXIT_OK
    assert "P_c = 0.500000" in capsys.readouterr().out
    # a flag overrides the file value
    assert main(["pc", "--config", str(cfg), "--l2", "-1"]) == EXIT_OK
    assert "P_c = 0.000000" in capsys.readouterr().out


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("state = product\nwibble = 3\n")
    assert main(["pc", "--config", str(cfg)]) == EXIT_CONFIG
    assert "wibble" in capsys.readouterr().err


def test_config_file_missing(capsys):
    assert main(["pc", "--config", "/nonexistent/path.cfg"]) == EXIT_CONFIG
    capsys.readouterr()


def test_scan_writes_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["scan", "--parameter", "zeta", "--range", "0.5,2", "--steps", "4",
            "--grid-n", "128", "--aperture-factor", "8"]
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    assert meta == sorted(meta)
    assert "# parameter = zeta" in meta
    header_idx = len(meta)
    assert lines[header_idx] == "parameter,conditional_pc,oracle_pc,throughput,flag"
    rows = [l.split(",") for l in lines[header_idx + 1:]]
    assert len(rows) == 4
    assert [float(r[0]) for r in rows] == pytest.approx([0.5, 1.0, 1.5, 2.0])
    assert all(r[4] == "ok" for r in rows)


def test_scan_bad_range_is_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["scan", "--range", "2,1", "--out", str(out)]) == EXIT_CONFIG
    assert main(["scan", "--range", "huh", "--out", str(out)]) == EXIT_CONFIG
    capsys.readouterr()


def test_scan_all_degenerate_exit_code(tmp_path, capsys):
    out = tmp_path / "deg.csv"
    # zeta = 0, alpha_plus sweep over multiples of pi: envelope always vanishes
    code = main(["scan", "--parameter", "alpha_plus", "--zeta", "0",
                 "--range", f"0,{np.pi}", "--steps", "2",
                 "--grid-n", "128", "--aperture-factor", "8", "--out", str(out)])
    assert code == EXIT_DEGENERATE
    capsys.readouterr()
    rows = [l for l in out.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert all(r.endswith(",degenerate") and ",nan," in r for r in rows)


@pytest.mark.parametrize("extra,flag", [
    (["--state", "bell:psi-minus"], "--state"),
    (["--half-width", "3"], "--half-width"),
])
def test_scan_rejects_flags_it_would_ignore(extra, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["scan", "--grid-n", "64", "--steps", "2"] + extra) == EXIT_CONFIG
    assert f"scan does not take {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_build_state_thin_crystal_grid_tracks_aperture():
    amp = build_state({"state": "thin-crystal", "w0": 1.0, "z": 1.0,
                       "pump_wavenumber": 2.0, "grid_n": 32, "half_width": None,
                       "aperture_factor": 4.0})
    assert amp.grid.half_width == pytest.approx(4.0 * np.sqrt(2.0))


@pytest.mark.parametrize("argv,key", [
    (["pc", "--state", "bell:phi-plus", "--w0", "nan"], "w0"),
    (["scan", "--aperture-factor", "nan", "--grid-n", "64", "--steps", "2"],
     "aperture_factor"),
    (["pc", "--state", "thin-crystal", "--z", "inf", "--grid-n", "16"], "z"),
])
def test_non_finite_value_is_config_error(argv, key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a scan would write its default scan.csv
    assert main(argv) == EXIT_CONFIG
    assert f"{key} must be a finite number" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_non_finite_config_file_value(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("state = product\nw0 = nan\n")
    assert main(["pc", "--config", str(cfg)]) == EXIT_CONFIG
    assert "w0" in capsys.readouterr().err


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(biphoton.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, biphoton, biphoton.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
