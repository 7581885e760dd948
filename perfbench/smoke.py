"""Smoke test of the benchmark itself.

Runs every workload at minimal length, untraced and traced, and checks that
each result line carries exactly the metrics of BENCHMARK.json with their
units, that every op passed its checks, that the computed counters repeat
exactly between two traced runs of one seed, and that a directory holding
only BENCHMARK.json and the benchmark fails without printing a result.

    python3 perfbench/smoke.py      (from the repository root; a few minutes)
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPUTED = ("amplitudes.gram_cmacs", "amplitudes.gram_bytes", "mzi.fast.conv_points")
SEED = 1


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    traced = {}
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{wl} --trace {trace}"
            proc = bench(wl, trace)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-1000:]}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(out)}")
                continue
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{label}: correct={out['correct']}, "
                                f"{out['failed']} of {out['attempted']} ops failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            for name, m in out["metrics"].items():
                value = m["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {name} = {value!r}")
                elif key == "end_to_end" and value <= 0:
                    problems.append(f"{label}: end-to-end metric {name} = {value}")
            if trace:
                traced[wl] = out["metrics"]
            print(f"ok {label}: {out['attempted']} ops", flush=True)

    for wl in ("state-survey", "zeta-scan"):
        proc = bench(wl, 1)
        if proc.returncode != 0 or wl not in traced:
            problems.append(f"{wl}: repeated traced run failed")
            continue
        again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        for name in COMPUTED:
            if again[name]["value"] != traced[wl][name]["value"]:
                problems.append(f"{wl}: computed counter {name} changed between runs: "
                                f"{traced[wl][name]['value']} vs {again[name]['value']}")
        print(f"ok {wl}: computed counters repeat", flush=True)

    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("state-survey", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a directory without sources did not fail cleanly")
        else:
            print("ok: a directory without sources fails without a result")
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
