"""The four seeded workloads.

A workload hands out its ops in blocks.  Block b holds one op of every kind
the workload mixes, with parameters drawn from `default_rng([seed, b])`, so
the same seed gives the same ops whatever the run length, and every run
that completes a block exercises every kind.  `run` performs one op through
the package's public API and is timed by the caller; `check` compares its
result with the pinned physics outside the timed interval and returns a
failure reason or None.  Every check records its largest error under the
per-layer metric named in `errs`.

References used by the checks (the infinite-aperture limit, the closed-form
fringe and the dense overlap) are computed here, not taken from the package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import biphoton as bp

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

BELL_PC = {"psi-minus": 1.0, "psi-plus": 0.0, "phi-plus": 0.0, "phi-minus": 0.0}
PUMPS = {"g00": ("gaussian", 0, 0), "hg:1,0": ("hermite", 1, 0),
         "hg:0,1": ("hermite", 0, 1)}
# Random modes mix HG_mn with m, n < K, K drawn per mode from 1..HG_ORDERS.
# The spread of K spreads op costs evenly, so the median op latency does not
# sit in a gap between clusters of equal-cost ops.
HG_ORDERS = 4

# Largest error of each check (and the degenerate-row count); 0 until a check
# of that kind runs.
CHECK_METRICS = (
    "interference.unitarity_err_max", "interference.bell_err_max",
    "interference.product_pc_max", "interference.thin_crystal_pc_err_max",
    "amplitudes.dense_oracle_err_max", "states.truncation_err_max",
    "states.spdc_parity_err_max", "mzi.fast_generic_err_max",
    "mzi.oracle_err_max", "mzi.fringe_err_max", "mzi.degenerate_rows",
)


def delta_oracle(zeta: float, alpha: float, nodes: int = 4096) -> float:
    """Infinite-aperture coincidence probability of the SPP interferometer:
    (1 - I)/2 with I the normalized overlap of S(theta) and S(pi - theta),
    S(theta) = sin[zeta (theta - pi) + alpha]."""
    theta = (np.arange(nodes) + 0.5) * 2.0 * np.pi / nodes
    s = np.sin(zeta * (theta - np.pi) + alpha)
    s_ref = np.sin(zeta * (np.mod(np.pi - theta, 2.0 * np.pi) - np.pi) + alpha)
    return (1.0 - float(np.sum(s * s_ref)) / float(np.sum(s * s))) / 2.0


def closed_fringe(zeta: float, alpha: float) -> float | None:
    """(1/2)[1 + (-1)^zeta cos 2 alpha] at integer zeta, else None."""
    if abs(zeta - round(zeta)) > 1e-12:
        return None
    return 0.5 * (1.0 + (-1.0) ** round(zeta) * np.cos(2.0 * alpha))


def dense_sigma_overlap(amp) -> float:
    """<sigma Phi, Phi> from the full 4-index amplitude (small grids only)."""
    phi = np.einsum("r,rab,rcd->abcd", amp.coeffs, amp.photon1, amp.photon2)
    sigma = np.flip(phi.transpose(2, 3, 0, 1), axis=(1, 3))
    return float((np.vdot(sigma, phi) * amp.grid.weight ** 2).real)


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()
    shuffle = True
    trace_blocks = 1  # blocks run in each phase of a traced run

    def __init__(self, seed: int):
        self.seed = seed
        self.errs = dict.fromkeys(CHECK_METRICS, 0.0)

    def block(self, b: int) -> list[tuple[str, dict]]:
        rng = np.random.default_rng([self.seed, b])
        kinds = list(rng.permutation(self.kinds)) if self.shuffle else self.kinds
        return [(str(k), self.params(str(k), rng)) for k in kinds]

    def params(self, kind: str, rng) -> dict:
        return {}

    def note(self, metric: str, err: float) -> float:
        self.errs[metric] = max(self.errs[metric], float(err))
        return err


def _report(amp) -> dict:
    """The `biphoton pc` report plus the beamsplitter channels."""
    sym, asym = bp.symmetry_decompose(amp)
    out = bp.beamsplitter_output(amp)
    return {"sym": sym, "asym": asym, "pc": bp.coincidence_probability(amp),
            "verdict": bp.entanglement_witness(amp).value,
            "channels": out.p_both_port1 + out.p_both_port2 + out.p_coincidence}


def _check_report(wl: Workload, rep: dict) -> str | None:
    err = wl.note("interference.unitarity_err_max", abs(rep["channels"] - 1.0))
    return f"output channels sum off by {err:.2e}" if err > 1e-9 else None


def _random_coeffs(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _hg_coeffs(rng, rank=None):
    """HG coefficients of one random mode, or of `rank` modes that span a
    space of at least four modes, so a rank-r amplitude really has rank r."""
    shape = () if rank is None else (rank,)
    orders = int(rng.integers(1 if rank is None else 2, HG_ORDERS + 1))
    return _random_coeffs(rng, *shape, orders, orders)


def _hg_mode(coef: np.ndarray, grid):
    orders = coef.shape[-1]
    values = sum(coef[m, n] * bp.hermite_gaussian(m, n, 1.0, grid).values
                 for m in range(orders) for n in range(orders))
    return bp.normalize_mode(
        bp.TransverseMode(values, grid, bp.Representation.MOMENTUM))


def _oam_params(kind, rng) -> dict:
    if kind == "bell":
        return {"kind": str(rng.choice(list(BELL_PC))), "l": int(rng.integers(1, 4))}
    return {"l1": int(rng.integers(-3, 4)), "l2": int(rng.integers(-3, 4))}


class StateSurvey(Workload):
    """Small states, full report: per-call overhead dominates."""

    name = "state-survey"
    kinds = ("bell", "oam-product", "hg-product", "random-amplitude")
    trace_blocks = 100
    dense_share = 0.25  # share of n = 16 ops also checked against dense

    def params(self, kind, rng):
        if kind in ("bell", "oam-product"):
            return _oam_params(kind, rng)
        p = {"dense": bool(rng.random() < self.dense_share)}
        if kind == "hg-product":
            p["f"] = _hg_coeffs(rng)
            p["g"] = _hg_coeffs(rng)
        else:
            rank = int(rng.integers(1, 5))
            p["coeffs"] = _random_coeffs(rng, rank)
            p["f"] = _hg_coeffs(rng, rank)
            p["g"] = _hg_coeffs(rng, rank)
        return p

    def run(self, kind, p):
        if kind == "bell":
            amp = bp.bell_state(p["kind"], p["l"], 1.0, bp.make_grid(64, 8.0))
        elif kind == "oam-product":
            grid = bp.make_grid(64, 8.0)
            amp = bp.product_state(bp.oam_ring(p["l1"], 1.0, grid),
                                   bp.oam_ring(p["l2"], 1.0, grid))
        elif kind == "hg-product":
            grid = bp.make_grid(16, 5.0)
            amp = bp.product_state(_hg_mode(p["f"], grid), _hg_mode(p["g"], grid))
        else:
            grid = bp.make_grid(16, 5.0)
            f1 = np.stack([_hg_mode(c, grid).values for c in p["f"]])
            f2 = np.stack([_hg_mode(c, grid).values for c in p["g"]])
            amp = bp.normalize(bp.TwoPhotonAmplitude(
                p["coeffs"], f1, f2, grid, bp.Representation.MOMENTUM))
        rep = _report(amp)
        if p.get("dense"):
            rep["amp"] = amp
        return rep

    def check(self, kind, p, rep):
        if kind == "bell":
            err = self.note("interference.bell_err_max",
                            abs(rep["pc"] - BELL_PC[p["kind"]]))
            if err > 1e-6:
                return f"Bell P_c off by {err:.2e}"
        if kind.endswith("product"):
            pc = self.note("interference.product_pc_max", rep["pc"])
            if pc > 0.5 + 1e-9:
                return f"product state anti-coalesces: P_c = {pc:.12f}"
        if "amp" in rep:
            j = 1.0 - 2.0 * rep["pc"]
            err = self.note("amplitudes.dense_oracle_err_max",
                            abs(j - dense_sigma_overlap(rep["amp"])))
            if err > 1e-10:
                return f"dense oracle disagrees by {err:.2e}"
        return _check_report(self, rep)


THIN_CRYSTAL = dict(waist=1.0, z=1.0, pump_wavenumber=2.0)  # the CLI defaults


class LargeRank(Workload):
    """Rank in the hundreds to 1024: Gram FLOPs, SVDs and memory dominate."""

    name = "large-rank"
    kinds = ("thin-crystal-generic", "spdc", "thin-crystal-default")

    def params(self, kind, rng):
        if kind == "thin-crystal-generic":
            return {"zeta": float(rng.uniform(0.25, 4.0)),
                    "alpha": float(rng.uniform(0.0, np.pi))}
        if kind == "spdc":
            return {"pump": str(rng.choice(list(PUMPS)))}
        return {}

    def _generic_setup(self, p):
        beam = bp.GaussianBeamParams(**THIN_CRYSTAL)
        geom = bp.MziGeometry(beam.z, beam.z, aperture_factor=6.0)
        return beam, geom, bp.SppParams(p["zeta"]), bp.MziPhases(p["alpha"])

    def run(self, kind, p):
        if kind == "thin-crystal-generic":
            beam, geom, spp, phases = self._generic_setup(p)
            grid = bp.make_grid(128, geom.aperture_factor * beam.spot_size)
            amp = bp.thin_crystal_gaussian(beam, grid)
            res = bp.mzi_coincidence(amp, spp, phases, geom)
            return {"pc": res.conditional_pc, "eta": res.throughput_eta}
        if kind == "spdc":
            pk, m, n = PUMPS[p["pump"]]
            params = bp.SpdcParams(1.0, 2.0, bp.PumpMode(pk, 1.0, m, n))
            amp = bp.spdc_state(params, bp.make_grid(32, 6.0))
        else:
            beam = bp.GaussianBeamParams(**THIN_CRYSTAL)
            amp = bp.thin_crystal_gaussian(beam, bp.make_grid(32, 40.0 * beam.spot_size))
        return dict(_report(amp), truncation=amp.truncation_error or 0.0)

    def check(self, kind, p, rep):
        if kind == "thin-crystal-generic":
            beam, geom, spp, phases = self._generic_setup(p)
            fast = bp.mzi_coincidence(beam, spp, phases, geom, grid_n=128)
            err = self.note("mzi.fast_generic_err_max", max(
                abs(rep["pc"] - fast.conditional_pc),
                abs(rep["eta"] - fast.throughput_eta)))
            return f"generic path off the fast path by {err:.2e}" if err > 1e-6 else None
        trunc = self.note("states.truncation_err_max", rep["truncation"])
        if kind == "spdc":
            parity = (-1) ** PUMPS[p["pump"]][2]
            err = self.note("states.spdc_parity_err_max",
                            abs(rep["pc"] - (0.0 if parity > 0 else 1.0)))
            if err > 1e-4 or trunc >= 1e-6:
                return f"SPDC P_c off the pump parity by {err:.2e}, trunc {trunc:.2e}"
        else:
            err = self.note("interference.thin_crystal_pc_err_max", abs(rep["pc"]))
            if err > 1e-6:
                return f"thin-crystal P_c = {rep['pc']:.3e}, expected 0"
        return _check_report(self, rep)


def check_scan_rows(wl: Workload, rows, expected_rows: int) -> str | None:
    """rows: (zeta, alpha_plus, conditional P_c, flag) per scan point."""
    if len(rows) != expected_rows:
        return f"{len(rows)} scan rows, expected {expected_rows}"
    bad = sum(1 for r in rows if r[3] != "ok")
    wl.errs["mzi.degenerate_rows"] += bad
    if bad:
        return f"{bad} degenerate scan rows"
    for zeta, alpha, pc, _ in rows:
        err = wl.note("mzi.oracle_err_max", abs(pc - delta_oracle(zeta, alpha)))
        if err > 0.02:
            return f"P_c off the infinite-aperture limit by {err:.3f} at zeta={zeta:g}"
        closed = closed_fringe(zeta, alpha)
        if closed is not None:
            err = wl.note("mzi.fringe_err_max", abs(pc - closed))
            if err > 0.02:
                return f"P_c off the closed-form fringe by {err:.3f} at zeta={zeta:g}"
    return None


def scan_args(rng) -> dict:
    """Alternating sweeps: zeta over [0.25, 4] at a seeded alpha_plus, or
    alpha_plus over [0, pi] at a seeded integer zeta (where the closed-form
    fringe applies to every row)."""
    return {"alpha": float(rng.uniform(0.0, np.pi)), "zeta": int(rng.integers(1, 5))}


def _sweep(parameter: str) -> tuple[float, float]:
    return (0.25, 4.0) if parameter == "zeta" else (0.0, float(np.pi))


class ZetaScan(Workload):
    """8-point sweeps at n = 1024 on the thin-crystal fast path."""

    name = "zeta-scan"
    kinds = ("zeta", "alpha_plus")
    shuffle = False
    steps = 8
    grid_n = 1024

    def params(self, kind, rng):
        return scan_args(rng)

    def run(self, kind, p):
        lo, hi = _sweep(kind)
        res = bp.scan(kind, lo, hi, self.steps, spp=bp.SppParams(float(p["zeta"])),
                      phases=bp.MziPhases(p["alpha"]),
                      geom=bp.MziGeometry(1.0, 1.0, aperture_factor=40.0),
                      grid_n=self.grid_n)
        return [(r.parameter if kind == "zeta" else float(p["zeta"]),
                 r.parameter if kind == "alpha_plus" else p["alpha"],
                 r.conditional_pc, r.flag) for r in res.rows]

    def check(self, kind, p, rows):
        return check_scan_rows(self, rows, self.steps)


MALFORMED = {
    "pc --w0 nan": ["pc", "--state", "bell:phi-plus", "--w0", "nan"],
    "scan --aperture-factor nan": ["scan", "--aperture-factor", "nan",
                                   "--grid-n", "64", "--steps", "2"],
    "pc --z nan": ["pc", "--state", "thin-crystal", "--z", "nan", "--grid-n", "16"],
}


def _parse_report(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


class Cli(Workload):
    """One `python -m biphoton.cli` subprocess per op: start-up, import and
    argument parsing are paid every time and every cache starts cold."""

    name = "cli"
    kinds = ("pc-oam", "classify-spdc", "pc-thin-crystal-a6", "pc-thin-crystal-n32",
             "scan")
    traced = False  # run ops through the tracing shim

    def __init__(self, seed):
        super().__init__(seed)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("BIPHOTON_THREADS", None)
        self.spans: list[dict] = []
        self.ops_run = 0

    def params(self, kind, rng):
        if kind == "pc-oam":  # a Bell state or an OAM product, as in state-survey
            family = str(rng.choice(["bell", "oam-product"]))
            return dict(_oam_params(family, rng), family=family)
        if kind == "classify-spdc":
            return {"pump": str(rng.choice(list(PUMPS)))}
        if kind == "scan":
            return dict(scan_args(rng), parameter=str(rng.choice(["zeta", "alpha_plus"])))
        return {}

    def argv(self, kind, p) -> list[str]:
        if kind == "pc-oam" and p["family"] == "bell":
            return ["pc", "--state", f"bell:{p['kind']}", "--l", str(p["l"])]
        if kind == "pc-oam":
            return ["pc", "--state", "product", "--l1", str(p["l1"]), "--l2", str(p["l2"])]
        if kind == "classify-spdc":
            return ["classify", "--state", "spdc", "--pump", p["pump"]]
        if kind == "pc-thin-crystal-a6":
            return ["pc", "--state", "thin-crystal", "--aperture-factor", "6"]
        if kind == "pc-thin-crystal-n32":
            return ["pc", "--state", "thin-crystal", "--grid-n", "32"]
        lo, hi = _sweep(p["parameter"])
        return ["scan", "--grid-n", "256", "--steps", "8", "--parameter", p["parameter"],
                "--range", f"{lo!r},{hi!r}", "--zeta", str(p["zeta"]),
                "--alpha-plus", repr(p["alpha"])]

    def invoke(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, str]:
        """Run one CLI request; returns the process and, for a scan, the CSV
        it wrote under the output directory."""
        op = self.ops_run
        self.ops_run += 1
        argv = list(argv)
        csv = OUT / f"cli-{os.getpid()}-{op}.csv"
        if argv[0] == "scan":
            argv += ["--out", str(csv)]
        if self.traced:
            spans_path = OUT / f"spans-{os.getpid()}-{op}.json"
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_traced.py"),
                   str(spans_path)] + argv
        else:
            cmd = [sys.executable, "-m", "biphoton.cli"] + argv
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=150)
        csv_text = csv.read_text(encoding="utf-8") if csv.exists() else ""
        csv.unlink(missing_ok=True)
        if self.traced:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
            spans_path.unlink()
            for s in spans:
                s["op"] = op
            self.spans.extend(spans)
        return proc, csv_text

    def run(self, kind, p):
        return self.invoke(self.argv(kind, p))

    def check(self, kind, p, result):
        proc, csv_text = result
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        rep = _parse_report(proc.stdout)
        try:
            if kind == "scan":
                return self._check_csv(p, csv_text)
            if kind == "classify-spdc":
                parity = (-1) ** PUMPS[p["pump"]][2]
                want = "symmetric" if parity > 0 else "antisymmetric"
                return None if rep["label"] == want else f"label {rep['label']}, want {want}"
            pc = float(rep["P_c"])
        except (KeyError, ValueError) as exc:
            return f"unreadable output ({exc!r}): {proc.stdout[-200:]!r}"
        if kind == "pc-oam" and p["family"] == "bell":
            err = self.note("interference.bell_err_max", abs(pc - BELL_PC[p["kind"]]))
            return f"Bell P_c off by {err:.2e}" if err > 1e-6 else None
        if kind == "pc-oam":
            self.note("interference.product_pc_max", pc)
            return f"product state anti-coalesces: P_c = {pc}" if pc > 0.5 + 1e-9 else None
        err = self.note("interference.thin_crystal_pc_err_max", abs(pc))
        return f"thin-crystal P_c = {pc}, expected 0" if err > 1e-6 else None

    def _check_csv(self, p, text: str) -> str | None:
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        if not lines or lines[0] != "parameter,conditional_pc,oracle_pc,throughput,flag":
            return "scan CSV has no header"
        rows = []
        for line in lines[1:]:
            value, pc, _, _, flag = line.split(",")
            value, pc = float(value), float(pc)
            if p["parameter"] == "zeta":
                rows.append((value, p["alpha"], pc, flag))
            else:
                rows.append((float(p["zeta"]), value, pc, flag))
        return check_scan_rows(self, rows, 8)

    def malformed_exit0(self) -> list[str]:
        """Names of the malformed requests that exit 0 instead of failing."""
        return [name for name, argv in MALFORMED.items()
                if self.invoke(argv)[0].returncode == 0]


WORKLOADS = {wl.name: wl for wl in (StateSurvey, LargeRank, ZetaScan, Cli)}
