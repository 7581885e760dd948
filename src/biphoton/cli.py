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

import numpy as np

from .amplitudes import TwoPhotonAmplitude, symmetry_decompose
from .errors import DegenerateInterferenceError
from .grids import make_grid
from .interference import coincidence_probability, entanglement_witness
from .mzi import MziGeometry, MziPhases, ScanResult, SppParams, scan
from .states import (GaussianBeamParams, PumpMode, SpdcParams, bell_state,
                     oam_ring, product_state, spdc_state, thin_crystal_gaussian)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3


class ConfigError(ValueError):
    pass


# Defaults applied after merging flags and config file.
_DEFAULTS = {
    "l": 1, "l1": 1, "l2": 1, "pump": "g00", "w0": 1.0,
    "grid_n": None,  # per-state default, see _default_grid_n
    "half_width": None,  # per-state default
    "crystal_length": 1.0, "pump_wavenumber": 2.0,
    "z": 1.0, "k": 1.0, "aperture_factor": 40.0,
    "zeta": 1.0, "alpha_plus": 0.0, "steps": 16, "range": "0.25,4",
    "parameter": "zeta", "out": "scan.csv", "square_aperture": False,
}

_TYPES = {
    "l": int, "l1": int, "l2": int, "pump": str, "w0": float,
    "grid_n": int, "half_width": float, "crystal_length": float,
    "pump_wavenumber": float, "z": float, "k": float,
    "aperture_factor": float, "zeta": float, "alpha_plus": float,
    "steps": int, "range": str, "parameter": str, "out": str,
    "state": str, "square_aperture": bool,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Two-photon transverse-mode interference simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--state", choices=[
            "bell:psi-plus", "bell:psi-minus", "bell:phi-plus", "bell:phi-minus",
            "product", "spdc", "thin-crystal"])
        p.add_argument("--l", type=int, help="OAM index for Bell states")
        p.add_argument("--l1", type=int, help="OAM index of photon 1 (product state)")
        p.add_argument("--l2", type=int, help="OAM index of photon 2 (product state)")
        p.add_argument("--pump", help="SPDC pump mode: g00 or hg:m,n")
        p.add_argument("--w0", type=float, help="beam waist (default 1.0)")
        p.add_argument("--grid-n", type=int, dest="grid_n", help="grid points per axis")
        p.add_argument("--half-width", type=float, dest="half_width",
                       help="grid half-width (momentum or position units)")
        p.add_argument("--crystal-length", type=float, dest="crystal_length")
        p.add_argument("--pump-wavenumber", type=float, dest="pump_wavenumber")
        p.add_argument("--z", type=float, help="propagation distance (thin crystal)")
        p.add_argument("--k", type=float, help="photon wavenumber")
        p.add_argument("--aperture-factor", type=float, dest="aperture_factor",
                       help="aperture radius in units of the spot size w(z)")

    p_pc = sub.add_parser("pc", help="coincidence probability and witness verdict")
    add_common(p_pc)

    p_classify = sub.add_parser("classify", help="topological symmetry of the state")
    add_common(p_classify)

    p_scan = sub.add_parser("scan", help="sweep zeta or alpha_plus, write CSV")
    add_common(p_scan)
    p_scan.add_argument("--parameter", choices=["zeta", "alpha_plus"])
    p_scan.add_argument("--zeta", type=float, help="fixed SPP parameter")
    p_scan.add_argument("--alpha-plus", type=float, dest="alpha_plus",
                        help="fixed interferometer phase")
    p_scan.add_argument("--range", help="scan range as lo,hi")
    p_scan.add_argument("--steps", type=int)
    p_scan.add_argument("--out", help="output CSV path")
    p_scan.add_argument("--square-aperture", action="store_const", const=True,
                        dest="square_aperture",
                        help="truncate on the square grid instead of the inscribed disc")
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
        if key not in _TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            if _TYPES[key] is bool:
                values[key] = val.lower() in ("1", "true", "yes")
            else:
                values[key] = _TYPES[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def _merge(args: argparse.Namespace) -> dict:
    file_values = _read_config_file(args.config) if args.config else {}
    cfg = {}
    for key in _TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
        elif key in file_values:
            cfg[key] = file_values[key]
        elif key in _DEFAULTS:
            cfg[key] = _DEFAULTS[key]
        if _TYPES[key] is float and cfg.get(key) is not None and not math.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be a finite number, got {cfg[key]}")
    return cfg


def _default_grid(cfg: dict, state: str):
    if state.startswith("bell") or state == "product":
        n = cfg["grid_n"] or 64
        half = cfg["half_width"] or 8.0 / cfg["w0"]
    elif state == "spdc":
        n = cfg["grid_n"] or 32
        half = cfg["half_width"] or 6.0 / cfg["w0"]
    else:  # thin-crystal, position grid sized by the aperture
        beam = _beam(cfg)
        n = cfg["grid_n"] or 64
        half = cfg["half_width"] or cfg["aperture_factor"] * beam.spot_size
    return make_grid(n, half)


def _beam(cfg: dict) -> GaussianBeamParams:
    return GaussianBeamParams(cfg["w0"], cfg["z"], cfg["pump_wavenumber"])


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
    grid = _default_grid(cfg, state)
    if state.startswith("bell:"):
        return bell_state(state.split(":", 1)[1], cfg["l"], cfg["w0"], grid)
    if state == "product":
        return product_state(oam_ring(cfg["l1"], cfg["w0"], grid),
                             oam_ring(cfg["l2"], cfg["w0"], grid))
    if state == "spdc":
        params = SpdcParams(cfg["crystal_length"], cfg["pump_wavenumber"],
                            _parse_pump(cfg["pump"], cfg["w0"]))
        return spdc_state(params, grid)
    if state == "thin-crystal":
        # Modest default aperture for the explicit low-rank construction.
        return thin_crystal_gaussian(_beam(cfg), grid)
    raise ConfigError(f"unknown state {state!r}")


def cmd_pc(cfg: dict) -> int:
    amp = build_state(cfg)
    sym, asym = symmetry_decompose(amp)
    pc = coincidence_probability(amp)
    verdict = entanglement_witness(amp)
    print(f"P_c = {max(0.0, pc):.6f}")  # no "-0.000000" from roundoff
    print(f"symmetric_weight = {sym:.6f}")
    print(f"antisymmetric_weight = {asym:.6f}")
    print(f"verdict = {verdict.value}")
    return EXIT_OK


def cmd_classify(cfg: dict, threshold: float = 1e-6) -> int:
    amp = build_state(cfg)
    sym, asym = symmetry_decompose(amp)
    if min(sym, asym) <= threshold:
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
    for key, flag in (("state", "--state"), ("half_width", "--half-width")):
        if cfg.get(key) is not None:
            raise ConfigError(f"scan does not take {flag}: it sweeps the thin-crystal "
                              f"source on a grid sized by --aperture-factor")
    try:
        lo_s, hi_s = cfg["range"].split(",")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise ConfigError(f"bad range {cfg['range']!r}; expected lo,hi") from exc
    if cfg["steps"] < 2:
        raise ConfigError("steps must be at least 2")
    if not lo < hi:
        raise ConfigError(f"empty scan range: {cfg['range']!r}")
    geom = MziGeometry(z1=cfg["z"], z2=cfg["z"], k=cfg["k"],
                       aperture_factor=cfg["aperture_factor"],
                       circular=not cfg["square_aperture"])
    result = scan(cfg["parameter"], lo, hi, cfg["steps"],
                  spp=SppParams(cfg["zeta"]), phases=MziPhases(cfg["alpha_plus"]),
                  geom=geom, grid_n=cfg["grid_n"] or 1024, waist=cfg["w0"])
    write_csv(result, cfg["out"])
    print(f"wrote {len(result.rows)} rows to {cfg['out']}")
    if all(row.flag == "degenerate" for row in result.rows):
        print("error: every scan point was degenerate", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args)
        if args.command == "pc":
            return cmd_pc(cfg)
        if args.command == "classify":
            return cmd_classify(cfg)
        return cmd_scan(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateInterferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
