"""Benchmark entry point for the biphoton simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it sets the workload up in
several fresh interpreters (set-up time is their median), then measures one
closed loop with one client for at least S seconds of op time, ending on a
whole block of ops, and prints the end-to-end metrics.  With --trace 1 it
runs a fixed number of blocks untraced and then traced, and prints the
per-layer metrics.  Every op is checked against the pinned physics; the
last line of standard output is the JSON result.  The metric names and
units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
DEADLINE_S = 170.0
SETUP_RUNS = 3
IMPORT_RUNS = 3

# (BLAS threads, BIPHOTON_THREADS): at most two worker threads in all, the
# core count of the machine the benchmark was tuned on.
THREADS = {"state-survey": (2, 1), "large-rank": (2, 1), "zeta-scan": (1, 2),
           "cli": (2, 1)}


class BenchError(RuntimeError):
    pass


class Clock:
    def __init__(self):
        self.start = time.monotonic()

    def left(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left


def worker_env(workload: str) -> dict:
    blas, scan = THREADS[workload]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas)
    env.pop("BIPHOTON_THREADS", None)
    if scan > 1:
        env["BIPHOTON_THREADS"] = str(scan)
    return env


def run_python(args: list[str], env: dict, clock: Clock) -> tuple[str, str]:
    """Run a Python child in its own process group; on timeout the whole
    group is killed, so no CLI request a worker started outlives the run."""
    env = dict(env, PERFBENCH_SPAWN=repr(time.monotonic()))
    with subprocess.Popen([sys.executable] + args, env=env, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=clock.left())
        except (subprocess.TimeoutExpired, BenchError) as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
    return out, err


def worker(args: argparse.Namespace, extra: list[str], clock: Clock) -> dict:
    out, _ = run_python([str(BENCH / "worker.py"), "--workload", args.workload,
                         "--seed", str(args.seed)] + extra,
                        worker_env(args.workload), clock)
    return json.loads(out.strip().splitlines()[-1])


def import_times(clock: Clock) -> dict:
    """`import biphoton` in fresh interpreters, and the share of it that
    `scipy.signal` takes according to `-X importtime`."""
    env = worker_env("cli")
    code = ("import time; t = time.perf_counter(); import biphoton; "
            "print(time.perf_counter() - t)")
    runs = [float(run_python(["-c", code], env, clock)[0]) for _ in range(IMPORT_RUNS)]
    _, importtime = run_python(["-X", "importtime", "-c", "import biphoton"], env, clock)
    signal_us = 0
    for line in importtime.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.signal":
            signal_us = int(fields[1])
    return {"cli.import_s": statistics.median(runs),
            "cli.import_scipy_signal_s": signal_us / 1e6}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile, up to p99, with at least ten
    samples beyond it, or a tenth of the samples (rounded) in runs of fewer
    than 100 ops, where ten samples beyond would put the "tail" at or below
    the median.  Above p99 a run of millisecond ops measures the host's
    scheduling stalls rather than the program.  Returns (value, percentile,
    samples beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = max(min(10, math.floor(n / 10 + 0.5)), n // 100)
    idx = n - 1 - beyond
    return xs[idx], 100.0 * (idx + 1) / n, beyond


def source_provenance(args: argparse.Namespace) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version()}


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    lat = [r[1] for r in result["records"]]
    value, pct, beyond = tail(lat)
    failed = sum(1 for r in result["records"] if r[2])
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": value,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh interpreters",
        f"op_tail_s: p{pct:.2f}, {beyond} samples beyond, {len(lat)} ops",
        f"fail_ratio = {failed / len(lat):.6g} failed/attempted ({failed} of {len(lat)})",
    ]
    return metrics, notes


def per_layer(result: dict, imports: dict, workload: str) -> tuple[dict, list[str]]:
    metrics = dict(result["layers"])
    for name, err in result["errs"].items():
        metrics[name] = max(metrics.get(name, 0.0), err)
    metrics.update(imports)
    names = metrics.pop("cli.malformed_exit0_names", [])
    metrics["cli.malformed_exit0"] = len(names)
    for command in ("pc", "classify", "scan"):
        lat = [r[1] for r in result["untraced_records"]
               if workload == "cli" and r[0].startswith(command)]
        metrics[f"cli.{command}.p50_s"] = statistics.median(lat) if lat else 0.0
    records = result["records"]
    metrics["bench.fail_ratio"] = sum(1 for r in records if r[2]) / len(records)
    notes = [f"spans: {result['trace_file']}",
             "computed from argument shapes: amplitudes.gram_cmacs, "
             "amplitudes.gram_bytes, mzi.fast.conv_points"]
    if workload == "cli":
        notes.append("malformed requests that exit 0: " + (", ".join(names) or "none"))
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "biphoton" / "__init__.py").is_file():
        print(f"error: no biphoton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    clock = Clock()
    try:
        if args.trace:
            result = worker(args, ["--traced"], clock)
            metrics, notes = per_layer(result, import_times(clock), args.workload)
            wanted = spec["per_layer"]
        else:
            setups = [worker(args, ["--setup-only"], clock)["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
            result = worker(args, ["--seconds", str(args.seconds)], clock)
            setups.append(result["setup_s"])
            metrics, notes = end_to_end(result, setups)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    records = result["records"]
    failures = [f"{i}:{kind}: {why}" for i, (kind, _, why) in enumerate(records) if why]
    prov = dict(source_provenance(args), **result["provenance"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for m in wanted:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    for line in notes + [f"failed op {f}" for f in failures]:
        print(f"  {line}")
    if prov["oversubscribed"]:
        print(f"  WARNING: {prov['worker_threads']} worker threads on "
              f"{prov['nproc']} cores", file=sys.stderr)
    print("provenance: " + json.dumps(prov))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
