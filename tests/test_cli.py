import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert main(["pc", "--state", "spdc", "--pump", "hg:1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: bad pump spec 'hg:1'; expected hg:m,n\n"


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


@pytest.mark.parametrize("config,message", [
    ("# a comment\n\nstate = product\nl1\n", "run.cfg:4: expected key = value, got 'l1'"),
    ("state = foo\n", "unknown state 'foo'"),
], ids=["line-without-equals", "unknown-state"])
def test_malformed_config_file_is_config_error(config, message, tmp_path, monkeypatch,
                                               capsys):
    # Comment and blank lines are skipped but counted; a state from the file
    # is not checked by argparse's choices, so build_state names it.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(config)
    assert main(["classify", "--config", "run.cfg"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


def test_scan_to_a_missing_directory_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "scan.csv"
    argv = ["scan", "--grid-n", "16", "--steps", "2", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("argv,name", [
    (["pc", "--state", "bell:psi-minus", "--w0", "1e-300"], "half_width"),
    (["pc", "--state", "bell:psi-minus", "--half-width", "1e200"], "half_width"),
    (["pc", "--state", "bell:psi-minus", "--w0", "1e200"], "half_width"),
    (["pc", "--state", "thin-crystal", "--w0", "1e200"], "rayleigh_length"),
    (["scan", "--w0", "1e-200", "--grid-n", "64", "--steps", "2"], "rayleigh_length"),
    (["scan", "--k", "1e-300", "--grid-n", "64", "--steps", "2"], "spot_size"),
], ids=["pc-tiny-w0", "pc-huge-half-width", "pc-huge-w0", "pc-thin-crystal-huge-w0",
        "scan-tiny-w0", "scan-tiny-k"])
def test_out_of_range_value_is_config_error(argv, name, tmp_path, monkeypatch, capsys):
    # Finite values whose derived grid weight, Rayleigh length or spot size
    # overflows or underflows: an error naming that quantity, not a traceback.
    monkeypatch.chdir(tmp_path)  # where a scan would write its default scan.csv
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {name} must be finite and positive")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["pc", "--state", "thin-crystal", "--w0", "1e50", "--z", "1e200"],
    ["pc", "--state", "thin-crystal", "--pump-wavenumber", "1e300"],
    ["pc", "--state", "thin-crystal", "--z", "1e-300"],
], ids=["huge-z", "huge-pump-wavenumber", "tiny-z"])
def test_thin_crystal_with_an_overflowing_chirp_is_config_error(argv, capsys):
    # The chirp overflows, or a tiny z divides it by zero: one error naming z
    # and pump_wavenumber, and no numpy warning (the suite makes those errors).
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: the thin-crystal amplitude is not finite for z = ")
    assert "pump_wavenumber = " in err


@pytest.mark.parametrize("argv", [
    ["--crystal-length", "1e308"], ["--pump-wavenumber", "1e-308"], ["--pump", "hg:300,0"],
], ids=["huge-crystal-length", "tiny-pump-wavenumber", "hg-300"])
def test_spdc_pair_that_is_not_finite_is_config_error(argv, capsys):
    # The sinc argument or the Hermite recurrence overflows: one error naming
    # the pump, crystal_length and pump_wavenumber, and no numpy warning.
    assert main(["pc", "--state", "spdc", *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: the SPDC amplitude is not finite for pump = PumpMode(")
    assert "crystal_length = " in err and "pump_wavenumber = " in err


@pytest.mark.parametrize("argv,message", [
    (["--range", "0,1e308"], "zeta = 1e+308 overflows the plate phase zeta * pi"),
    (["--range=0,inf"], "scan range must be finite, got 0.0, inf"),
    (["--range=-1e308,1e308"], "scan range must be finite, got -1e+308, 1e+308"),
    (["--range=-1e308,1e308", "--parameter", "alpha_plus"],
     "scan range must be finite, got -1e+308, 1e+308"),
], ids=["zeta-overflow", "inf", "width-overflow", "alpha-plus-width-overflow"])
def test_scan_that_overflows_is_config_error(argv, message, tmp_path, monkeypatch, capsys):
    # These wrote NaN rows flagged ok, or named a NaN zeta or alpha_plus
    # after a numpy warning; now one error and no CSV.
    monkeypatch.chdir(tmp_path)
    assert main(["scan", "--grid-n", "16", "--steps", "3", *argv]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["pc", "--state", "bell:psi-minus", "--grid-n", "100000000000000000"], "grid_n too large"),
    (["scan", "--grid-n", "16", "--steps", "100000000000000"], "grid_n or steps too large"),
], ids=["pc-grid-n", "scan-steps"])
def test_size_numpy_cannot_allocate_is_config_error(argv, message, tmp_path, monkeypatch,
                                                    capsys):
    # These ended in a numpy MemoryError traceback with exit 1.  numpy refuses
    # an array this large before it touches any memory.
    monkeypatch.chdir(tmp_path)  # where a scan would write its default scan.csv
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {message}: Unable to allocate")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("state", [["bell:psi-minus"], ["product", "--l1", "2", "--l2", "-1"]],
                         ids=["bell", "product"])
@pytest.mark.parametrize("w0", ["1e-150", "1e-100", "1e100", "1e150"])
def test_oam_report_is_the_same_at_any_waist(state, w0, capsys):
    # The Bell and product grids scale as 8 / w0, so the report cannot depend
    # on the waist, however far from 1 it is.
    assert main(["pc", "--state", *state]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(["pc", "--state", *state, "--w0", w0]) == EXIT_OK
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv,line", [
    (["--grid-n", "16", "--pump", "hg:150,3", "--crystal-length", "1e8"], "P_c = 1.000000"),
    (["--grid-n", "32", "--pump", "hg:150,3", "--crystal-length", "1e8"], "P_c = 1.000000"),
    (["--pump", "hg:150,0"], "P_c = 0.000000"),
], ids=["hg-150-3-n16", "hg-150-3-n32", "hg-150-0"])
def test_spdc_whose_singular_weights_square_to_overflow_reports_the_pump_parity(argv, line,
                                                                                capsys):
    # The squares of these singular weights overflow: the rank was cut to 1
    # with a NaN truncation error and P_c = 0.5 printed with exit 0, or the
    # norm came out 0.  An odd y-parity pump gives P_c = 1, an even one 0.
    assert main(["pc", "--state", "spdc", *argv]) == EXIT_OK
    assert line in capsys.readouterr().out.splitlines()


def test_spdc_that_vanishes_on_the_grid_is_config_error(capsys):
    # Every sample of the pump underflows to zero on this grid.
    argv = ["classify", "--state", "spdc", "--grid-n", "32", "--half-width", "1e8",
            "--pump", "hg:1,2"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: the SPDC amplitude vanishes on the grid of half_width = 100000000.0 for "
        "pump = PumpMode(kind='hermite', waist=1.0, m=1, n=2)\n")


def test_oam_ring_of_high_order_reports(capsys):
    # The profile's squares overflowed in the mode norm, which gave "cannot
    # normalize an amplitude of squared norm 0.0".
    assert main(["pc", "--state", "bell:psi-minus", "--l", "200"]) == EXIT_OK
    assert "P_c = 1.000000" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("argv,named", [
    (["bell:psi-minus", "--l", "60", "--half-width", "1e150"], "l = 60, w0 = 1.0 and "
     "half_width = 1e+150"),
    (["bell:phi-plus", "--w0", "1e30", "--half-width", "1e150"], "l = 1, w0 = 1e+30 and "
     "half_width = 1e+150"),
    (["bell:psi-minus", "--grid-n", "32", "--w0", "1e300", "--half-width", "1e30"],
     "l = 1, w0 = 1e+300 and half_width = 1e+30"),
], ids=["l-60", "huge-half-width", "huge-w0"])
def test_oam_ring_that_over_or_underflows_is_config_error(argv, named, capsys):
    # These ended in "non-finite amplitude", "cannot normalize a zero mode"
    # or a numpy warning, none of which names what the caller set.
    assert main(["pc", "--state", *argv]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: the OAM ring profile has no finite, positive peak for {named}\n")


_SUBNORMAL_WEIGHT = ("error: half_width must be finite and positive and give a finite, normal "
                     "cell weight (2 half_width / n)^2, got {} for n = {}\n")


@pytest.mark.parametrize("argv,message", [
    (["classify", "--state", "spdc", "--half-width", "1e-154"],
     _SUBNORMAL_WEIGHT.format("1e-154", 32)),
    # The default half-width 8 / w0 of an OAM state.
    (["pc", "--state", "bell:psi-minus", "--w0", "1e154"], _SUBNORMAL_WEIGHT.format("8e-154", 64)),
    (["pc", "--state", "spdc", "--pump", "hg:0,1", "--w0", "1e-155", "--half-width", "1e155",
      "--grid-n", "32"],
     "error: the SPDC amplitude is not finite for pump = PumpMode(kind='hermite', "
     "waist=1e-155, m=0, n=1), crystal_length = 1.0, pump_wavenumber = 2.0 and "
     "half_width = 1e+155\n"),
], ids=["spdc-subnormal-weight", "bell-subnormal-weight", "spdc-overflow"])
def test_extreme_grid_is_config_error_naming_the_half_width(argv, message, capsys):
    # A subnormal cell weight made the Grams non-finite ("non-finite amplitude:
    # squared norm nan", after two matmul warnings for SPDC), and the SPDC
    # photon-difference square overflowed outside the errstate block.
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == message


def test_thin_crystal_aperture_that_overflows_is_config_error_without_a_warning(capsys):
    # The spot size was a numpy scalar, and its product with the aperture
    # factor warned before the half-width error.
    argv = ["pc", "--state", "thin-crystal", "--w0", "1e-30", "--aperture-factor", "1e300"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: half_width must be finite and positive")


@pytest.mark.parametrize("pump,label", [("g00", "symmetric"), ("hg:1,0", "symmetric"),
                                        ("hg:0,1", "antisymmetric"), ("hg:1,1", "antisymmetric")])
@pytest.mark.parametrize("w0", ["1e-150", "1e-100", "1e100", "1e150"])
def test_spdc_label_follows_the_pump_parity_at_any_waist(pump, label, w0, capsys):
    # The SPDC grid scales as 6 / w0.  Its factors used to hold 1/w0^2 in the
    # coefficients, and the Grams over- or underflowed away from w0 = 1.
    argv = ["classify", "--state", "spdc", "--grid-n", "16", "--pump", pump, "--w0", w0]
    assert main(argv) == EXIT_OK
    assert f"label = {label}" in capsys.readouterr().out.splitlines()


_EXTREMES = ["1e-300", "1e-150", "1e-30", "1e-8", "0.3", "1", "2.5", "1e8", "1e30", "1e150",
             "1e300"]
_ORDERS = [0, 1, 2, 3, 60, 140, 150, 200, 300]


def _flags(**draws):
    """Each key given a strategy, as an optional flag: omitted or drawn."""
    return st.tuples(*(st.one_of(st.none(), strategy.map(lambda v, k=key: [k, str(v)]))
                       for key, strategy in draws.items()))


_VALUES = st.sampled_from(_EXTREMES)
_SIGNED_ORDERS = st.builds(lambda l, sign: sign * l, st.sampled_from(_ORDERS),
                           st.sampled_from([1, -1]))
_STATE_FLAGS = {
    "bell": _flags(**{"--l": _SIGNED_ORDERS, "--w0": _VALUES, "--half-width": _VALUES}),
    "product": _flags(**{"--l1": _SIGNED_ORDERS, "--l2": _SIGNED_ORDERS, "--w0": _VALUES,
                         "--half-width": _VALUES}),
    "spdc": _flags(**{"--pump": st.one_of(
        st.just("g00"), st.builds("hg:{},{}".format, st.sampled_from(_ORDERS),
                                  st.sampled_from(_ORDERS))),
        "--w0": _VALUES, "--half-width": _VALUES, "--crystal-length": _VALUES,
        "--pump-wavenumber": _VALUES}),
    "thin-crystal": _flags(**{"--w0": _VALUES, "--half-width": _VALUES,
                              "--z": st.sampled_from(["0", *_EXTREMES]),
                              "--pump-wavenumber": _VALUES, "--aperture-factor": _VALUES}),
}


@st.composite
def _pc_argv(draw):
    """A pc or classify argv for any state, setting only flags that state reads."""
    state = draw(st.sampled_from(["bell:psi-plus", "bell:psi-minus", "bell:phi-plus",
                                  "bell:phi-minus", "product", "spdc", "thin-crystal"]))
    flags = draw(_STATE_FLAGS[state.partition(":")[0]])
    argv = [draw(st.sampled_from(["pc", "classify"])), "--state", state,
            "--grid-n", draw(st.sampled_from(["16", "32"]))]
    return argv + [token for flag in flags if flag is not None for token in flag]


# derandomize: the same argv on every run, so the suite's time is fixed.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_pc_argv())
@example(argv=["pc", "--state", "spdc", "--grid-n", "16", "--pump", "hg:150,3",
               "--crystal-length", "1e8"])
@example(argv=["pc", "--state", "spdc", "--grid-n", "16", "--pump", "hg:150,0"])
@example(argv=["classify", "--state", "spdc", "--grid-n", "32", "--half-width", "1e8",
               "--pump", "hg:1,2"])
@example(argv=["pc", "--state", "bell:psi-minus", "--grid-n", "16", "--l", "200"])
@example(argv=["pc", "--state", "bell:psi-minus", "--grid-n", "16", "--l", "60",
               "--half-width", "1e150"])
@example(argv=["pc", "--state", "bell:phi-plus", "--grid-n", "16", "--w0", "1e30",
               "--half-width", "1e150"])
@example(argv=["pc", "--state", "bell:psi-minus", "--grid-n", "32", "--w0", "1e300",
               "--half-width", "1e30"])
@example(argv=["pc", "--state", "thin-crystal", "--grid-n", "16", "--w0", "1e-30",
               "--aperture-factor", "1e300"])
@example(argv=["classify", "--state", "spdc", "--grid-n", "16", "--pump", "hg:0,1",
               "--w0", "1e-100"])
@example(argv=["classify", "--state", "spdc", "--half-width", "1e-154"])
@example(argv=["pc", "--state", "spdc", "--pump", "hg:0,1", "--w0", "1e-155",
               "--half-width", "1e155", "--grid-n", "32"])
@example(argv=["pc", "--state", "bell:psi-minus", "--w0", "1e154"])
def test_pc_and_classify_never_print_a_wrong_number(argv):
    # Any argv exits 0 or 2 with no numpy warning (the suite makes those
    # errors), prints no NaN with exit 0, and an SPDC report follows the
    # pump's y-parity: antisymmetric weight 1 for odd n, 0 for even.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG), err.getvalue()
    if code != EXIT_OK:
        return
    text = out.getvalue()
    assert "nan" not in text.lower(), text
    if "spdc" in argv:
        pump = argv[argv.index("--pump") + 1] if "--pump" in argv else "g00"
        odd_y = pump != "g00" and int(pump.split(",")[1]) % 2 == 1
        weight = float(re.search(r"^antisymmetric_weight = (\S+)$", text, re.M).group(1))
        assert abs(weight - odd_y) <= 1e-4, text


# One value in four negative: most keys must be positive, and exit 0 is rarer.
_SIGNED = st.builds(lambda v, sign: sign + v, _VALUES, st.sampled_from(["", "", "", "-"]))


@st.composite
def _scan_argv(draw):
    """A scan argv at a small grid, with values of either sign as --key=value."""
    argv = ["scan", "--grid-n", draw(st.sampled_from(["8", "10", "16", "32"])),
            "--steps", str(draw(st.integers(2, 4)))]
    for key in ("w0", "z", "k", "aperture-factor", "zeta", "alpha-plus"):
        if draw(st.booleans()):
            argv.append(f"--{key}={draw(_SIGNED)}")
    if draw(st.booleans()):
        argv.append(f"--range={draw(_SIGNED)},{draw(_SIGNED)}")
    if draw(st.booleans()):
        argv += ["--parameter", draw(st.sampled_from(["zeta", "alpha_plus"]))]
    if draw(st.booleans()):
        argv.append("--square-aperture")
    return argv


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=_scan_argv())
# Below an aperture factor of about 4.6 the fast path cropped a spectrum that
# is no Gaussian there; this one printed P_c = -0.000514811184289 flagged ok.
@example(argv=["scan", "--grid-n", "16", "--steps", "2", "--aperture-factor=1e-150",
               "--zeta=0", "--parameter", "alpha_plus"])
def test_scan_never_prints_a_wrong_number(argv):
    # Any argv exits 0, 2 or 3 with no numpy warning.  With exit 0 every ok
    # row holds finite probabilities in [0, 1] and a throughput in (0, 1],
    # and every degenerate row holds nan.  The aperture-below-4 UserWarning
    # is intended.
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "aperture_factor below 4", UserWarning)
        path = os.path.join(tmp, "scan.csv")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", path])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DEGENERATE), err.getvalue()
        if code == EXIT_CONFIG:
            return
        with open(path, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()
                    if not line.startswith("#")][1:]
    assert len(rows) == int(argv[argv.index("--steps") + 1])
    for row in rows:
        pc, oracle, eta = map(float, row[1:4])
        if row[4] == "ok":
            assert -1e-12 <= pc <= 1.0 + 1e-12 and -1e-12 <= oracle <= 1.0 + 1e-12, row
            assert 0.0 < eta <= 1.0 + 1e-12, row
        else:
            assert row[4] == "degenerate" and np.isnan([pc, oracle, eta]).all(), row
    assert (code == EXIT_DEGENERATE) == all(row[4] == "degenerate" for row in rows)


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


@pytest.mark.parametrize("argv, expected", [
    (["classify", "--state", "spdc", "--grid-n", "48"],
     "symmetric_weight = 1.000000\nantisymmetric_weight = 0.000000\nlabel = symmetric\n"),
    (["pc", "--state", "spdc", "--pump", "hg:1,2", "--grid-n", "48"],
     "P_c = 0.000000\nsymmetric_weight = 1.000000\nantisymmetric_weight = 0.000000\n"
     "verdict = inconclusive\n"),
], ids=["classify-g00", "pc-hg12"])
def test_spdc_report_is_the_same_on_one_and_two_blas_threads(argv, expected):
    # OpenBLAS reads its thread count when numpy loads, so each count runs in
    # its own interpreter.  The default g00 pump takes the eigh branch of
    # spdc_state, hg:1,2 the SVD branch.
    src = os.path.dirname(os.path.dirname(biphoton.__file__))
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-m", "biphoton.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout == expected, threads


# The CLI output, recorded before refactors meant to leave it unchanged.
# Report text, CSV `#` headers, column names and flags must match exactly;
# numeric CSV fields within 1e-10, so that another numpy or BLAS build cannot
# fail the test on the last printed digit.
# The oracle_pc column was re-recorded when delta_limit_oracle became exact
# (the first recording carried a 4096-node quadrature's error, up to 2.2e-7).
_GOLDEN_REPORTS = [
    (["pc", "--state", "bell:psi-minus"],
     "P_c = 1.000000\nsymmetric_weight = 0.000000\nantisymmetric_weight = 1.000000\n"
     "verdict = entangled\n"),
    (["pc", "--state", "thin-crystal", "--grid-n", "32"],
     "P_c = 0.000000\nsymmetric_weight = 1.000000\nantisymmetric_weight = 0.000000\n"
     "verdict = inconclusive\n"),
    (["classify", "--state", "spdc"],
     "symmetric_weight = 1.000000\nantisymmetric_weight = 0.000000\nlabel = symmetric\n"),
    (["classify", "--state", "spdc", "--pump", "hg:0,1"],
     "symmetric_weight = 0.000000\nantisymmetric_weight = 1.000000\n"
     "label = antisymmetric\n"),
    (["classify", "--state", "product", "--l1", "1", "--l2", "2"],
     "symmetric_weight = 0.500000\nantisymmetric_weight = 0.500000\nlabel = mixed\n"),
]

_GOLDEN_SCANS = [
    ([],
     "# alpha_plus = 0.0\n"
     "# aperture_factor = 40.0\n"
     "# circular = True\n"
     "# grid_n = 256\n"
     "# hi = 4.0\n"
     "# k = 1.0\n"
     "# lo = 0.25\n"
     "# parameter = zeta\n"
     "# reference_pc = 0.5\n"
     "# steps = 8\n"
     "# waist = 1.0\n"
     "# z1 = 1.0\n"
     "# z2 = 1.0\n"
     "# zeta = 1.0\n"
     "parameter,conditional_pc,oracle_pc,throughput,flag\n"
     "0.25,0.234709976795,0.234149631325,0.181691504846,ok\n"
     "0.785714285714,0.0692530055935,0.0680851445768,0.598735446996,ok\n"
     "1.32142857143,0.31591201133,0.315997940703,0.445759401005,ok\n"
     "1.85714285714,0.952788342752,0.957044824516,0.533395482747,ok\n"
     "2.39285714286,0.606684030024,0.606787961494,0.479221251164,ok\n"
     "2.92857142857,0.0208385958368,0.0119510446956,0.511806373629,ok\n"
     "3.46428571429,0.488063266581,0.489563835005,0.49488393015,ok\n"
     "4,0.985344561021,1,0.499909586865,ok\n"),
    (["--parameter", "alpha_plus", "--zeta", "1.7"],
     "# alpha_plus = 0.0\n"
     "# aperture_factor = 40.0\n"
     "# circular = True\n"
     "# grid_n = 256\n"
     "# hi = 4.0\n"
     "# k = 1.0\n"
     "# lo = 0.25\n"
     "# parameter = alpha_plus\n"
     "# reference_pc = 0.5\n"
     "# steps = 8\n"
     "# waist = 1.0\n"
     "# z1 = 1.0\n"
     "# z2 = 1.0\n"
     "# zeta = 1.7\n"
     "parameter,conditional_pc,oracle_pc,throughput,flag\n"
     "0.25,0.806481571967,0.809473818528,0.539021745307,ok\n"
     "0.785714285714,0.574901630364,0.575559061327,0.499971887218,ok\n"
     "1.32142857143,0.304302646486,0.302179540697,0.460951329924,ok\n"
     "1.85714285714,0.316880452684,0.314887839911,0.462629592961,ok\n"
     "2.39285714286,0.595771167907,0.596640701073,0.503257491896,ok\n"
     "2.92857142857,0.814537432666,0.81761015612,0.540490241211,ok\n"
     "3.46428571429,0.787102804209,0.789901254993,0.535521679981,ok\n"
     "4,0.533179694434,0.533412089606,0.493530334913,ok\n"),
]


@pytest.mark.parametrize("argv,expected", _GOLDEN_REPORTS,
                         ids=[" ".join(argv) for argv, _ in _GOLDEN_REPORTS])
def test_report_output_is_pinned(argv, expected, capsys):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("extra,expected", _GOLDEN_SCANS, ids=["zeta", "alpha_plus"])
def test_scan_csv_is_pinned(extra, expected, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    argv = ["scan", "--grid-n", "256", "--steps", "8", "--out", str(out)] + extra
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == f"wrote 8 rows to {out}\n"
    got, want = out.read_text().splitlines(), expected.splitlines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        if want_line.startswith("#") or want_line.startswith("parameter,"):
            assert got_line == want_line
            continue
        *got_values, got_flag = got_line.split(",")
        *want_values, want_flag = want_line.split(",")
        assert got_flag == want_flag
        assert [float(v) for v in got_values] == pytest.approx(
            [float(v) for v in want_values], rel=0.0, abs=1e-10)


# A 4-step zeta scan at the default geometry (n = 1024, aperture 40), where
# the fast path keeps a small block of the kernel's frequencies; recorded at
# .12g before that path was rewritten; the oracle column as in _GOLDEN_SCANS.
_DEFAULT_GEOMETRY_ROWS = [
    (0.25, 0.23470062084, 0.234149631325, 0.181690163215),
    (1.5, 0.604475542515, 0.606103295395, 0.5),
    (2.75, 0.133997574269, 0.127104301809, 0.528939460176),
    (4.0, 0.985349009544, 1.0, 0.500002757873),
]


def test_scan_csv_at_the_default_geometry_is_pinned(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--steps", "4", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote 4 rows to {out}\n"
    lines = out.read_text().splitlines()
    assert "# grid_n = 1024" in lines and "# aperture_factor = 40.0" in lines
    rows = [line.split(",") for line in lines[lines.index(
        "parameter,conditional_pc,oracle_pc,throughput,flag") + 1:]]
    assert [r[-1] for r in rows] == ["ok"] * 4
    for row, want in zip(rows, _DEFAULT_GEOMETRY_ROWS, strict=True):
        assert [float(v) for v in row[:-1]] == pytest.approx(want, rel=0.0, abs=1e-12)
