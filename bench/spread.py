"""Run the benchmark over ten seeds and record the baseline.

    python3 bench/spread.py

For every workload in BENCHMARK.json it runs bench/run.py once for each of
the seeds 1 to 10, one run at a time, and prints per end-to-end metric the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median next to a third of the metric's bound.  It also
makes one traced run per workload with seed 1, and writes the runs, the
summary and the host facts to bench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACE_SEED = 1
OUT = ROOT / "bench" / "baseline.json"


def host_facts():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def run_once(spec, workload, seed, trace):
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(proc.stderr.strip().splitlines()[-1])
    return {"seed": seed, "elapsed_s": elapsed, "detail": detail, **result}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"host": host_facts(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, workload, seed, 0) for seed in SEEDS]
        entry = {"runs": runs, "summary": {}}
        print(f"{workload}: {len(runs)} runs, "
              f"{sum(r['elapsed_s'] for r in runs) / len(runs):.1f} s each, "
              f"{sum(r['failed'] for r in runs)} failed ops", flush=True)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            entry["summary"][name] = stats
            flag = "ok" if stats["spread"] < metric["bound"] / 3 else "WIDE"
            print(f"  {name:14s} median {stats['median']:10.4f} q1 {stats['q1']:10.4f} "
                  f"q3 {stats['q3']:10.4f} spread {stats['spread']:.4f} "
                  f"(bound/3 {metric['bound'] / 3:.4f}) {flag}", flush=True)
        entry["traced"] = run_once(spec, workload, TRACE_SEED, 1)
        report["workloads"][workload] = entry
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
