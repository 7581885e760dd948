import os
import re
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


def test_pc_thin_crystal_above_the_array_rank_cap(capsys):
    # Rank 13614 at the default aperture: the report contracts the
    # coefficient core and builds no rank-sized array, so no cap applies.
    assert main(["pc", "--state", "thin-crystal", "--grid-n", "128"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "P_c = 0.000000" in out
    assert "verdict = inconclusive" in out


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
    (["--l", "4"], "--l"),
    (["--l1", "2"], "--l1"),
    (["--l2", "2"], "--l2"),
    (["--pump", "hg:0,1"], "--pump"),
    (["--crystal-length", "9"], "--crystal-length"),
    (["--pump-wavenumber", "7"], "--pump-wavenumber"),
])
def test_scan_rejects_flags_it_would_ignore(extra, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["scan", "--grid-n", "64", "--steps", "2"] + extra) == EXIT_CONFIG
    assert f"scan does not take {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,config,message", [
    (["pc", "--state", "bell:psi-minus", "--k", "7"], None, "pc does not take --k"),
    (["classify", "--state", "product", "--square-aperture"], None,
     "classify does not take --square-aperture"),
    (["pc"], "state = product\nsteps = 3\n", "pc does not take --steps (set in run.cfg)"),
    (["classify"], "state = product\nzeta = 2\n", "classify does not take --zeta (set in run.cfg)"),
    (["scan", "--grid-n", "64", "--steps", "2"], "state = spdc\n",
     "scan does not take --state (set in run.cfg)"),
    (["pc", "--state", "bell:psi-minus", "--pump", "hg:0,1"], None,
     "bell:psi-minus does not take --pump"),
    (["pc", "--state", "bell:psi-minus", "--crystal-length", "9"], None,
     "bell:psi-minus does not take --crystal-length"),
    (["classify", "--state", "bell:phi-plus", "--aperture-factor", "6"], None,
     "bell:phi-plus does not take --aperture-factor"),
    (["pc", "--state", "product", "--l", "2"], None, "product does not take --l"),
    (["classify", "--state", "product", "--pump-wavenumber", "3"], None,
     "product does not take --pump-wavenumber"),
    (["pc", "--state", "spdc", "--l1", "2"], None, "spdc does not take --l1"),
    (["classify", "--state", "spdc", "--z", "2"], None, "spdc does not take --z"),
    (["pc", "--state", "thin-crystal", "--crystal-length", "2"], None,
     "thin-crystal does not take --crystal-length"),
    (["pc"], "state = thin-crystal\nl2 = 3\n", "thin-crystal does not take --l2 (set in run.cfg)"),
    (["classify", "--state", "bell:psi-minus"], "pump = g00\n",
     "bell:psi-minus does not take --pump (set in run.cfg)"),
], ids=["pc-flag", "classify-flag", "pc-file", "classify-file", "scan-file",
        "bell-pump", "bell-crystal-length", "bell-aperture-factor", "product-l",
        "product-pump-wavenumber", "spdc-l1", "spdc-z", "thin-crystal-crystal-length",
        "thin-crystal-file", "bell-file"])
def test_commands_reject_keys_they_do_not_read(argv, config, message, tmp_path,
                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = argv + ["--config", "run.cfg"]
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if config else [])


@pytest.mark.parametrize("argv,config", [
    (["pc", "--state", "spdc", "--pump", "hg:1,0", "--crystal-length", "2",
      "--pump-wavenumber", "3", "--w0", "1", "--grid-n", "16", "--half-width", "6"], None),
    (["pc"], "state = thin-crystal\nz = 2\npump_wavenumber = 3\naperture_factor = 6\n"
     "grid_n = 16\nhalf_width = 8\nw0 = 1\n"),
], ids=["spdc-flags", "thin-crystal-file"])
def test_states_take_the_keys_they_read(argv, config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = argv + ["--config", "run.cfg"]
    assert main(argv) == EXIT_OK
    assert "verdict = " in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["pc", "--state", "bell:psi-minus", "--grid-n", "0"], "grid size must be even"),
    (["pc", "--state", "bell:psi-minus", "--half-width", "0"], "half_width must be finite"),
    (["scan", "--grid-n", "0", "--steps", "2"], "grid size must be even"),
], ids=["pc-grid-n", "pc-half-width", "scan-grid-n"])
def test_zero_grid_is_config_error(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a scan would write its default scan.csv
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,config,message", [
    (["pc", "--state", "bell:psi-minus", "--w0", "0"], None, "--w0 must be positive, got 0.0"),
    (["pc", "--state", "bell:psi-minus", "--w0", "-1"], None, "--w0 must be positive, got -1.0"),
    (["scan", "--k", "0"], None, "--k must be positive, got 0.0"),
    (["pc"], "state = thin-crystal\naperture_factor = -6\n",
     "--aperture-factor must be positive, got -6.0 (set in run.cfg)"),
], ids=["pc-w0-zero", "pc-w0-negative", "scan-k-zero", "pc-file"])
def test_non_positive_value_is_config_error(argv, config, message, tmp_path, monkeypatch,
                                            capsys):
    # Rejected before anything divides by it, naming the flag that was given.
    monkeypatch.chdir(tmp_path)  # where a scan would write its default scan.csv
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = argv + ["--config", "run.cfg"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == (["run.cfg"] if config else [])


_PC_KEYS = {"state", "l", "l1", "l2", "pump", "w0", "grid-n", "half-width",
            "crystal-length", "pump-wavenumber", "z", "aperture-factor"}
_SCAN_KEYS = {"w0", "grid-n", "z", "k", "aperture-factor", "parameter", "zeta",
              "alpha-plus", "range", "steps", "out", "square-aperture"}


@pytest.mark.parametrize("command,keys", [
    ("pc", _PC_KEYS), ("classify", _PC_KEYS), ("scan", _SCAN_KEYS)])
def test_help_lists_only_the_keys_a_command_reads(command, keys, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--([a-z0-9-]+)", capsys.readouterr().out))
    assert listed == keys | {"config", "help"}


@pytest.mark.parametrize("value", ["ture", "2", "on", ""])
def test_config_file_rejects_bad_boolean(value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"steps = 2\nsquare_aperture = {value}\n")
    assert main(["scan", "--grid-n", "64", "--config", "run.cfg"]) == EXIT_CONFIG
    assert "run.cfg:2: bad value for square_aperture" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_config_file_boolean_matches_flag(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text("square_aperture = Yes\n")
    argv = ["scan", "--grid-n", "64", "--steps", "2"]
    assert main(argv + ["--config", str(tmp_path / "run.cfg"),
                        "--out", str(tmp_path / "file.csv")]) == EXIT_OK
    assert main(argv + ["--square-aperture", "--out", str(tmp_path / "flag.csv")]) == EXIT_OK
    capsys.readouterr()
    text = (tmp_path / "file.csv").read_text()
    assert "# circular = False" in text
    assert text == (tmp_path / "flag.csv").read_text()


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
