"""Command-line front end: coincidence reports, symmetry classification and
interferometer parameter sweeps written as CSV.

Configuration can come from flags, from a flat key=value config file
(--config), or both; flags override the file.  Output is deterministic for a
fixed configuration (no timestamps).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import NamedTuple

import numpy as np

from .amplitudes import TwoPhotonAmplitude, symmetry_decompose
from .grids import make_grid
from .interference import beamsplitter_output
from .mzi import MziGeometry, MziPhases, ScanResult, SppParams, scan
from .states import (_BELL_KINDS, GaussianBeamParams, PumpMode, SpdcParams, bell_state,
                     oam_ring, product_state, spdc_state, thin_crystal_gaussian)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3


class ConfigError(ValueError):
    pass


_PC = ("pc", "classify")
_SCAN = ("scan",)
_ALL = _PC + _SCAN


class _Key(NamedTuple):
    type: type
    default: object
    help: str
    commands: tuple[str, ...]  # the commands that read the key
    choices: tuple[str, ...] | None = None
    states: tuple[str, ...] | None = None  # the state families that read it, if not all
    positive: bool = False  # zero or negative is an error


# The one list of keys.  Each is a flag (--grid-n for grid_n) and a config-file
# key; a command, and under pc/classify a state, rejects every key it does not
# read.
_KEYS = {
    "state": _Key(str, None, "two-photon state", _PC, (
        *("bell:" + kind for kind in _BELL_KINDS), "product", "spdc", "thin-crystal")),
    "l": _Key(int, 1, "OAM index for Bell states", _PC, states=("bell",)),
    "l1": _Key(int, 1, "OAM index of photon 1 (product state)", _PC, states=("product",)),
    "l2": _Key(int, 1, "OAM index of photon 2 (product state)", _PC, states=("product",)),
    "pump": _Key(str, "g00", "SPDC pump mode: g00 or hg:m,n", _PC, states=("spdc",)),
    "w0": _Key(float, 1.0, "beam waist", _ALL, positive=True),
    "grid_n": _Key(int, None, "grid points per axis (scan: 1024, else per state)", _ALL),
    "half_width": _Key(float, None, "grid half-width (default per state)", _PC),
    "crystal_length": _Key(float, 1.0, "SPDC crystal length", _PC, states=("spdc",),
                           positive=True),
    "pump_wavenumber": _Key(float, 2.0, "pump wavenumber (SPDC and thin crystal)", _PC,
                            states=("spdc", "thin-crystal"), positive=True),
    "z": _Key(float, 1.0, "propagation distance (thin crystal)", _ALL, states=("thin-crystal",)),
    "k": _Key(float, 1.0, "photon wavenumber; the source is pumped at 2k", _SCAN,
              positive=True),
    "aperture_factor": _Key(float, 40.0, "aperture radius in units of the spot size w(z)", _ALL,
                            states=("thin-crystal",), positive=True),
    "parameter": _Key(str, "zeta", "swept parameter", _SCAN, ("zeta", "alpha_plus")),
    "zeta": _Key(float, 1.0, "fixed SPP parameter", _SCAN),
    "alpha_plus": _Key(float, 0.0, "fixed interferometer phase", _SCAN),
    "range": _Key(str, "0.25,4", "scan range lo,hi; write negatives as --range=-4,-0.25", _SCAN),
    "steps": _Key(int, 16, "number of scan points", _SCAN),
    "out": _Key(str, "scan.csv", "output CSV path", _SCAN),
    "square_aperture": _Key(bool, False, "truncate on the square grid, not the disc", _SCAN),
}

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Two-photon transverse-mode interference simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, about) in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        for key, spec in _KEYS.items():
            reads = command in spec.commands
            if spec.type is bool:
                kwargs = {"action": "store_const", "const": True}
            else:  # any value parses for a key not read, so that _merge names it
                kwargs = {"type": spec.type, "choices": spec.choices} if reads else {}
            if not reads:
                kwargs["help"] = argparse.SUPPRESS
            elif spec.default is None or spec.type is bool:
                kwargs["help"] = spec.help
            else:
                kwargs["help"] = f"{spec.help}; default {spec.default}"
            p.add_argument(_flag(key), dest=key, **kwargs)
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = _KEYS[key].type
        try:
            values[key] = _BOOLS[val.lower()] if kind is bool else kind(val)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def _merge(args: argparse.Namespace) -> dict:
    """The keys the command reads: flag, else config file, else default.  A
    key the command or the chosen state does not read is an error, from a flag
    or from the file."""
    file_values = _read_config_file(args.config) if args.config else {}
    state = args.state if args.state is not None else file_values.get("state")
    family = state.partition(":")[0] if state in _KEYS["state"].choices else None
    cfg = {}
    for key, spec in _KEYS.items():
        flag = getattr(args, key)
        value = flag if flag is not None else file_values.get(key)
        where = "" if flag is not None else f" (set in {args.config})"
        if args.command not in spec.commands:
            if value is not None:
                raise ConfigError(f"{args.command} does not take {_flag(key)}{where}")
            continue
        if value is not None and family and spec.states and family not in spec.states:
            raise ConfigError(f"{state} does not take {_flag(key)}{where}")
        cfg[key] = spec.default if value is None else value
        if spec.type is float and cfg[key] is not None and not math.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be a finite number, got {cfg[key]}")
        if spec.positive and cfg[key] <= 0:
            raise ConfigError(f"{_flag(key)} must be positive, got {cfg[key]}{where}")
    return cfg


def _parse_pump(spec: str, w0: float) -> PumpMode:
    if spec == "g00":
        return PumpMode("gaussian", w0)
    if spec.startswith("hg:"):
        try:
            m, n = (int(v) for v in spec[3:].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad pump spec {spec!r}; expected hg:m,n") from exc
        return PumpMode("hermite", w0, m, n)
    raise ConfigError(f"unknown pump {spec!r}; use g00 or hg:m,n")


def build_state(cfg: dict) -> TwoPhotonAmplitude:
    state = cfg.get("state")
    if not state:
        raise ConfigError("missing required key: state")
    w0 = cfg["w0"]

    def grid(n: int, half_width: float):
        """The grid of grid_n and half_width, each defaulting to the state's."""
        return make_grid(n if cfg["grid_n"] is None else cfg["grid_n"],
                         half_width if cfg["half_width"] is None else cfg["half_width"])

    if state.startswith("bell:"):
        return bell_state(state.split(":", 1)[1], cfg["l"], w0, grid(64, 8.0 / w0))
    if state == "product":
        g = grid(64, 8.0 / w0)
        return product_state(oam_ring(cfg["l1"], w0, g), oam_ring(cfg["l2"], w0, g))
    if state == "spdc":
        g = grid(32, 6.0 / w0)  # before the pump, whose errors come second
        params = SpdcParams(cfg["crystal_length"], cfg["pump_wavenumber"],
                            _parse_pump(cfg["pump"], w0))
        return spdc_state(params, g)
    if state == "thin-crystal":
        # A position grid sized by the aperture.  At the default aperture
        # factor 40 the state is full rank (1024 terms at n = 32, 4096 at
        # n = 64) with truncation error 0.
        beam = GaussianBeamParams(w0, cfg["z"], cfg["pump_wavenumber"])
        return thin_crystal_gaussian(beam, grid(64, cfg["aperture_factor"] * beam.spot_size))
    raise ConfigError(f"unknown state {state!r}")


def cmd_pc(cfg: dict) -> int:
    out = beamsplitter_output(build_state(cfg))
    print(f"P_c = {out.p_coincidence:.6f}")
    print(f"symmetric_weight = {out.p_both_port1 + out.p_both_port2:.6f}")
    print(f"antisymmetric_weight = {out.p_coincidence:.6f}")
    print(f"verdict = {out.verdict.value}")
    return EXIT_OK


def cmd_classify(cfg: dict) -> int:
    sym, asym = symmetry_decompose(build_state(cfg))
    if min(sym, asym) <= 1e-6:
        label = "symmetric" if sym >= asym else "antisymmetric"
    else:
        label = "mixed"
    print(f"symmetric_weight = {sym:.6f}")
    print(f"antisymmetric_weight = {asym:.6f}")
    print(f"label = {label}")
    return EXIT_OK


def write_csv(result: ScanResult, path: str) -> None:
    lines = []
    for key in sorted(result.metadata):
        lines.append(f"# {key} = {result.metadata[key]}")
    lines.append("parameter,conditional_pc,oracle_pc,throughput,flag")

    def fmt(v: float) -> str:
        return "nan" if np.isnan(v) else f"{v:.12g}"

    for row in result.rows:
        lines.append(f"{fmt(row.parameter)},{fmt(row.conditional_pc)},"
                     f"{fmt(row.oracle_pc)},{fmt(row.throughput)},{row.flag}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def cmd_scan(cfg: dict) -> int:
    try:
        lo_s, hi_s = cfg["range"].split(",")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise ConfigError(f"bad range {cfg['range']!r}; expected lo,hi") from exc
    geom = MziGeometry(z1=cfg["z"], z2=cfg["z"], k=cfg["k"],
                       aperture_factor=cfg["aperture_factor"],
                       circular=not cfg["square_aperture"])
    result = scan(cfg["parameter"], lo, hi, cfg["steps"],
                  spp=SppParams(cfg["zeta"]), phases=MziPhases(cfg["alpha_plus"]),
                  geom=geom, waist=cfg["w0"],
                  grid_n=1024 if cfg["grid_n"] is None else cfg["grid_n"])
    write_csv(result, cfg["out"])
    print(f"wrote {len(result.rows)} rows to {cfg['out']}")
    if all(row.flag == "degenerate" for row in result.rows):
        print("error: every scan point was degenerate", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


_COMMANDS = {
    "pc": (cmd_pc, "coincidence probability and witness verdict"),
    "classify": (cmd_classify, "topological symmetry of the state"),
    "scan": (cmd_scan, "sweep zeta or alpha_plus, write CSV"),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_merge(args))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy refuses the array before touching memory
        sizes = " or ".join(key for key in ("grid_n", "steps")
                            if args.command in _KEYS[key].commands)
        print(f"error: {sizes} too large: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
