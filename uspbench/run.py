"""uspkit benchmark: run a workload, check its outputs, print its metrics.

    python3 uspbench/run.py --workload odd-usp --seed 1 --seconds 30 --trace 0
    python3 uspbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a batch job run by one caller: a closed loop with one
client and at most two worker processes.  Every repetition runs in a fresh
interpreter (rep.py) against the package in ``src/`` of this checkout, so
that no cache, table or peak RSS carries over between repetitions.

``--trace 0`` runs repetitions of the workload for ``--seconds``: at least
one, and no further one once a repetition as long as the last would end
after them.  It prints each end-to-end metric as a median with quartiles, as
``statistics.quantiles(values, n=4)`` gives them, and the sample count:

- ``wall_s``: first call into uspkit until the result is checked;
- ``cpu_s``: user + system seconds of the process and its reaped children
  over the same interval;
- ``peak_rss_mib``: the larger ``ru_maxrss`` of the process and its children;
- ``setup_s``: interpreter start until uspkit is imported and the inputs
  exist, once per repetition;
- ``failed_ratio``: failed checks over attempted checks.  It is 0 on a
  correct program, so the last line carries it as ``failed`` and
  ``attempted`` rather than as a metric.

``--trace 1`` makes a fixed set of four repetitions of the workload: one
untraced with two workers, two traced (spans.py), and one untraced with one
worker.  It prints every per-layer metric, with ``null`` for a metric whose
boundary no longer exists, and checks that the counts of the two traced
repetitions are identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("odd-usp", "checkpoint-resume", "proof-chain")
WORKERS = 2
#: a workload's run, all its repetitions together, ends within this
BUDGET_S = 170

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def spawn(workload: str, seed: int, work_dir: str, deadline: float, *, workers: int = WORKERS,
          trace_dir: str | None = None) -> dict | None:
    """One repetition in a fresh interpreter; None if it did not finish by deadline."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--workers", str(workers), "--work-dir", work_dir]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TMPDIR=work_dir, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        print(f"{workload}: repetition still running after the {BUDGET_S} s budget",
              file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        print(f"{workload}: repetition exited with {proc.returncode}", file=sys.stderr)
        # a repetition that died may leave pool workers behind in its group
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        return None
    return json.loads(out.splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, int]:
    """(median, first quartile, third quartile, sample count)."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, len(values)


def timed_run(workload: str, seed: int, seconds: float, work_dir: str, deadline: float) -> dict:
    reps = []
    crashed = 0
    end = time.monotonic() + seconds
    took = 0.0
    while not reps or time.monotonic() + took <= end:
        t0 = time.monotonic()
        rep = spawn(workload, seed, work_dir, deadline)
        if rep is None:
            crashed = 1
            break
        reps.append(rep)
        # the next repetition is expected to take as long as this one
        took = time.monotonic() - t0
    samples = {name: [r[name] for r in reps] for name in END_TO_END}
    return {
        "attempted": sum(r["attempted"] for r in reps) + crashed,
        "failed": sum(r["failed"] for r in reps) + crashed,
        "failed_checks": sorted({c for r in reps for c in r["failed_checks"]}),
        "summaries": {name: summary(v) for name, v in samples.items() if v},
        "metrics": {name: summary(v)[0] if v else None for name, v in samples.items()},
        "units": END_TO_END,
    }


def traced_run(workload: str, seed: int, work_dir: str, deadline: float) -> dict:
    base = spawn(workload, seed, work_dir, deadline)
    traced = [spawn(workload, seed, work_dir, deadline, trace_dir=tempfile.mkdtemp(dir=work_dir))
              for _ in range(2)]
    single = spawn(workload, seed, work_dir, deadline, workers=1)
    reps = [r for r in [base, *traced, single] if r is not None]
    crashed = 4 - len(reps)
    # each crash counts as one failed check, and the counts-repeat check is one more
    attempted = sum(r["attempted"] for r in reps) + crashed + 1
    failed = sum(r["failed"] for r in reps) + crashed
    failed_checks = sorted({c for r in reps for c in r["failed_checks"]})

    layers = [t["layers"] for t in traced if t is not None]
    metrics = {}
    for name, (unit, how, _names, _moves) in spans.LAYER_METRICS.items():
        if how == "run":
            continue
        values = [layer[name] for layer in layers]
        if not values or None in values:
            metrics[name] = None
        elif unit in ("count", "bytes"):
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    if len(layers) < 2 or any(layers[0][n] != layers[1][n] for n in spans.REPEATED_COUNTS):
        failed += 1
        failed_checks.append("trace counts repeat")
    walls = [t["wall_s"] for t in traced if t is not None]
    metrics["search.speedup_2w"] = single["wall_s"] / base["wall_s"] if single and base else None
    metrics["trace.overhead_s"] = statistics.mean(walls) - base["wall_s"] if walls and base else None
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_checks": failed_checks,
        "missing": sorted({m for t in traced if t is not None for m in t["missing"]}),
        "metrics": metrics,
        "units": {name: spec[0] for name, spec in spans.LAYER_METRICS.items()},
    }


def report(workload: str, seed: int, trace: bool, res: dict) -> None:
    ratio = res["failed"] / res["attempted"]
    print(f"== {workload}  seed {seed}  trace {int(trace)}  workers {WORKERS}")
    if not trace:
        for name, unit in END_TO_END.items():
            if name in res["summaries"]:
                med, q1, q3, n = res["summaries"][name]
                print(f"{name:14s} {med:12.4f} {unit:4s} q1 {q1:.4f}  q3 {q3:.4f}  n={n}")
            else:
                print(f"{name:14s} {'no sample':>12s}")
    else:
        for name, value in res["metrics"].items():
            unit, _how, _names, moves = spans.LAYER_METRICS[name]
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"{name:31s} {shown:>12s} {unit:5s} moves {moves}")
        if res["missing"]:
            print(f"missing boundaries: {', '.join(res['missing'])}")
    print(f"{'failed_ratio':14s} {ratio:12.4f}      {res['failed']} failed of "
          f"{res['attempted']} checks {res['failed_checks'][:5] or ''}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "uspkit", "__init__.py")):
        print(f"no uspkit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    results = {}
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            deadline = time.monotonic() + BUDGET_S
            if args.trace:
                res = traced_run(workload, args.seed, work_dir, deadline)
            else:
                res = timed_run(workload, args.seed, args.seconds, work_dir, deadline)
            report(workload, args.seed, bool(args.trace), res)
            results[workload] = res
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{w}.{name}" if prefix else name): {"value": value, "unit": r["units"][name]}
            for w, r in results.items()
            for name, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
