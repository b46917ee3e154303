"""Measure every workload over seeds 1-10 and write uspbench/BENCH_baseline.json.

    python3 uspbench/baseline.py

For each seed and workload it runs ``run.py --trace 0`` and records the
median, quartiles and spread (quartile distance over median) of every
end-to-end metric across the seeds, with the quartile rule of
``run.summary``.  It then makes two traced runs of each workload with the
first seed, records the per-layer values of both, and whether their counts
are identical.  The file also records the machine and the map from each
per-layer metric to the end-to-end metric it should move.  Takes about 20
minutes on two cores.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

import run
import spans

SEEDS = range(1, 11)


def _machine() -> dict:
    out = {"nproc": os.cpu_count(), "python": platform.python_version()}
    lscpu = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache"):
            out[key.strip()] = value.strip()
    with open("/proc/meminfo") as fh:
        out["MemTotal"] = fh.readline().split(":")[1].strip()
    return out


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    result["run_s"] = time.monotonic() - t0
    print(workload, seed, trace, f"{result['run_s']:.1f} s", "correct" if result["correct"]
          else "INCORRECT", flush=True)
    return result


def main() -> int:
    root = os.path.dirname(run.HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    seconds = config["run_seconds"]

    runs = {w: [] for w in run.WORKLOADS}
    for seed in SEEDS:
        for workload in run.WORKLOADS:
            runs[workload].append(_bench(workload, seed, seconds, 0))
    traced = {w: [_bench(w, SEEDS[0], seconds, 1) for _ in range(2)] for w in run.WORKLOADS}

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    workloads = {}
    for workload, results in runs.items():
        e2e = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, n = run.summary(values)
            e2e[name] = {"median": med, "q1": q1, "q3": q3, "n": n,
                         "spread": (q3 - q1) / med, "bound": bound, "values": values}
        pair = traced[workload]
        layers = {name: [t["metrics"][name]["value"] for t in pair] for name in spans.LAYER_METRICS}
        workloads[workload] = {
            "correct": all(r["correct"] for r in results + pair),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_s": [r["run_s"] for r in results],
            "end_to_end": e2e,
            "per_layer_two_traced_runs": layers,
            "counts_repeat": all(layers[n][0] == layers[n][1] for n in spans.REPEATED_COUNTS),
        }

    machine = _machine()
    table_mb = workloads["odd-usp"]["per_layer_two_traced_runs"]["search.table_bytes"][0] / 1e6
    doc = {
        "date": time.strftime("%Y-%m-%d"),
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "machine": machine,
        "notes": [
            "Bytes figures (search.table_bytes, search.checkpoint_bytes) are computed from "
            "array and text sizes, not measured bandwidth.",
            "Busy and self times add up over all processes of a repetition.",
            f"odd-usp builds {table_mb:.0f} MB of divisor-sum table per repetition "
            f"(search.table_bytes), against {machine.get('L3 cache')} of L3 and "
            f"{machine.get('L2 cache')} of L2.",
        ],
        "layer_moves": {name: spec[3] for name, spec in spans.LAYER_METRICS.items()},
        "workloads": workloads,
    }
    path = os.path.join(run.HERE, "BENCH_baseline.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
