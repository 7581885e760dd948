"""One benchmark process: set a workload up in a fresh interpreter, run its
ops in a closed loop with one client, check every op, and print the raw
results as one JSON line.  Started by run.py, which sets PYTHONPATH, the
thread counts and PERFBENCH_SPAWN (its `time.monotonic()` just before the
spawn, so set-up time counts from before this interpreter existed).

    python3 perfbench/worker.py --workload NAME --seed N
        [--setup-only | --seconds S | --traced]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import workloads  # imports biphoton: part of the set-up time

OUT = workloads.OUT


def run_ops(wl, first_block, *, seconds=None, blocks=None, tracer=None):
    """Run whole blocks until `seconds` of op time have passed (or for a
    fixed number of blocks).  Returns one (kind, latency_s, failure) per op.
    Block generation and checks happen between ops, outside the timing."""
    records = []
    busy = 0.0
    b = 0
    ops = first_block
    while True:
        for kind, params in ops:
            traced = tracer.op(len(records)) if tracer is not None else nullcontext()
            t0 = time.perf_counter()
            try:
                with traced:
                    result = wl.run(kind, params)
            except Exception as exc:  # an op that raises is a failed op
                latency = time.perf_counter() - t0
                failure = f"raised {type(exc).__name__}: {exc}"
            else:
                latency = time.perf_counter() - t0
                failure = wl.check(kind, params, result)
            busy += latency
            records.append((kind, latency, failure))
        b += 1
        if (blocks is not None and b >= blocks) or (seconds is not None and busy >= seconds):
            return records
        ops = wl.block(b)


def blas_info():
    """BLAS vendor from numpy's build record and the live thread count."""
    import ctypes
    import glob

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        vendor = "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return vendor, threads


def provenance():
    import numpy
    import scipy

    vendor, threads = blas_info()
    blas_threads = threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"])
    scan_threads = int(os.environ.get("BIPHOTON_THREADS", "1"))
    workers = scan_threads * blas_threads
    nproc = os.cpu_count() or 1
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": vendor, "blas_threads": threads,
            "BIPHOTON_THREADS": os.environ.get("BIPHOTON_THREADS"),
            "worker_threads": workers, "nproc": nproc,
            "oversubscribed": workers > nproc}


def traced_run(wl, first_block, trace_path):
    """Run the first `trace_blocks` blocks untraced, then the same blocks
    traced; write the spans and return the records and per-layer metrics."""
    import tracing

    untraced = run_ops(wl, first_block, blocks=wl.trace_blocks)
    extras = {"mzi.scan.parallel_speedup": 0.0}
    if wl.name == "zeta-scan":
        # One sweep serially and with two scan workers, both warm.
        kind, params = first_block[0]
        timings = {}
        for threads in ("1", "2"):
            os.environ["BIPHOTON_THREADS"] = threads
            t0 = time.perf_counter()
            wl.run(kind, params)
            timings[threads] = time.perf_counter() - t0
        extras["mzi.scan.parallel_speedup"] = timings["1"] / timings["2"]
    if wl.name == "cli":
        extras["cli.malformed_exit0_names"] = wl.malformed_exit0()
        wl.traced = True
        traced = run_ops(wl, first_block, blocks=wl.trace_blocks)
        spans = wl.spans
    else:
        tracer = tracing.Tracer()
        tracer.install()
        traced = run_ops(wl, first_block, blocks=wl.trace_blocks, tracer=tracer)
        spans = tracer.spans
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": wl.seed, "spans": spans}, fh)
    layers = dict(tracing.layer_metrics(spans), **extras)
    # Median over matched ops, so a cold first op does not skew it.
    layers["bench.trace_overhead_ratio"] = statistics.median(
        t[1] / u[1] for t, u in zip(traced, untraced))
    return {"records": untraced + traced, "untraced_records": untraced,
            "layers": layers, "trace_file": str(trace_path)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    first_block = wl.block(0)
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])
    result = {"setup_s": setup_s}
    if not args.setup_only:
        OUT.mkdir(parents=True, exist_ok=True)
        if args.traced:
            trace_path = OUT / f"trace-{wl.name}-{args.seed}.json"
            result.update(traced_run(wl, first_block, trace_path))
        else:
            records = run_ops(wl, first_block, seconds=args.seconds)
            who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
            result.update(records=records,
                          peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
        result.update(errs=wl.errs, provenance=provenance())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
