"""One repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition so that caches, tables and
``ru_maxrss`` never carry over from one repetition to the next::

    PYTHONPATH=src python3 uspbench/rep.py --workload odd-usp --seed 1 \\
        --workers 2 --work-dir DIR --spawned-at "$(monotonic seconds)" \\
        [--trace-dir DIR]

It prints one JSON line: the set-up time, the wall and CPU seconds from the
first call into uspkit to a checked result, the peak RSS of the process and
of its reaped children, the checks made and failed, and, with
``--trace-dir``, the per-layer metrics from spans.py.

Set-up is interpreter start until uspkit is imported and the workload's
inputs exist.  Seeded inputs are made here without calling uspkit, so set-up
is not charged for the program's own primality test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import tempfile
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

ALL_CLASSES = ("usp", "unitary_perfect", "super_perfect", "perfect")

#: LEMMA_CHECKS entry, arguments: the proof-chain's widened ranges
LEMMA_ARGS = (
    ("2.2", (2000, 8)),
    ("2.3", (2 * 10**4, 10)),
    ("2.4", (2 * 10**4, 10)),
    ("2.5", (60,)),
    ("2.6", (63,)),
    ("2.7", (1000, 8)),
    ("5.1", (5, 10)),
    ("5.1", (7, 10)),
    ("5.1", (11, 10)),
    ("5.1", (13, 10)),
)
#: 64-bit semiprimes p * q with a 20-bit p.  Brent rho's cost varies widely
#: from input to input: factorizing 40 semiprimes of two 32-bit primes took
#: 1.7 s with one seed and 3.0 s with another, which no bound on wall_s can
#: absorb.  600 with a smaller p take about 1 s and average that out.
SEMIPRIMES = 600
SMALL_FACTOR_BITS = 20


class Checks:
    """Checks made by one repetition."""

    def __init__(self, expected: int) -> None:
        self.expected = expected
        self.made = 0
        self.failed = 0
        self.failed_names: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.made += 1
        if not ok:
            self.failed += 1
            self.failed_names.append(name)

    def abort(self) -> None:
        """An exception fails every check not yet made, and at least one."""
        n = max(1, self.expected - self.made)
        self.failed_names.append(f"exception; {n} checks failed with it")
        self.made += n
        self.failed += n


# ---------------------------------------------------------------------------
# seeded inputs, made without uspkit

def _is_prime_u64(n: int) -> bool:
    """Miller-Rabin with a witness set that is exact below 2**64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 325, 9375, 28178, 450775, 9780504, 1795265022):
        x = pow(a % n, d, n)
        if x in (0, 1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def semiprimes(seed: int, count: int) -> list[tuple[int, int]]:
    """count pairs (p, q) of primes, p with SMALL_FACTOR_BITS bits, p * q with 64."""
    rng = random.Random(seed)

    def prime(lo: int, hi: int) -> int:
        while True:
            x = rng.randrange(lo, hi) | 1
            if _is_prime_u64(x):
                return x

    pairs = []
    for _ in range(count):
        p = prime(1 << (SMALL_FACTOR_BITS - 1), 1 << SMALL_FACTOR_BITS)
        pairs.append((p, prime(-(-(1 << 63) // p), (1 << 64) // p)))
    return pairs


# ---------------------------------------------------------------------------
# workloads: setup(seed, work_dir, reference) -> inputs; run(inputs, workers, checks)

def setup_odd_usp(seed, work_dir, ref):
    return {"checks": 3, "ref": ref}


def run_odd_usp(inputs, workers, checks):
    from uspkit import search

    result = search.run_search(search.SearchConfig(limit=3 * 10**7, parity="odd", workers=workers))
    hits = result.hits
    checks.check("complete", result.completed and result.segments_done == result.total_segments)
    checks.check("hits", [h.n for h in hits] == inputs["ref"]["hits"])
    checks.check("structure", all(h.structure is not None and h.structure.ok for h in hits))


def setup_checkpoint_resume(seed, work_dir, ref):
    tmp = tempfile.mkdtemp(dir=work_dir)
    return {"checks": 3, "ref": ref, "checkpoint": os.path.join(tmp, "search.ckpt")}


def run_checkpoint_resume(inputs, workers, checks):
    from uspkit import search

    ref = inputs["ref"]
    common = dict(
        limit=4 * 10**6, classes=ALL_CLASSES, parity="all", segment_size=1 << 16,
        workers=workers, checkpoint_path=inputs["checkpoint"],
    )
    first = search.run_search(search.SearchConfig(max_segments=ref["stop_after"], **common))
    checks.check(
        "stopped",
        not first.completed
        and (first.segments_done, first.total_segments) == (ref["stop_after"], ref["segments"]),
    )
    resumed = search.run_search(search.SearchConfig(resume=True, **common))
    checks.check("resumed", resumed.completed and resumed.segments_done == ref["segments"])
    with open(inputs["checkpoint"], "rb") as fh:
        on_disk = fh.read()
    checks.check(
        "checkpoint-sha256",
        on_disk == resumed.checkpoint_text.encode()
        and hashlib.sha256(on_disk).hexdigest() == ref["sha256"],
    )


def setup_proof_chain(seed, work_dir, ref):
    return {
        "checks": len(LEMMA_ARGS) + 1 + len(ref["records"]) + 2 + SEMIPRIMES,
        "ref": ref,
        "semiprimes": semiprimes(seed, SEMIPRIMES),
    }


def run_proof_chain(inputs, workers, checks):
    from uspkit import arith, bounds, structure

    ref = inputs["ref"]
    for lemma_id, args in LEMMA_ARGS:
        report = structure.LEMMA_CHECKS[lemma_id](*args)
        key = f"{lemma_id}{args}"
        checks.check(f"lemma {key}",
                     report.ok and report.instances_checked == ref["lemma_instances"][key])

    records = {rec.id: rec for rec in bounds.evaluate_all()}
    constant = bounds.mersenne_constant(31)
    checks.check("mersenne-constant", constant.upper < Fraction(ref["mersenne_upper_below"]))
    for rec_id, want in ref["records"].items():
        rec = records.get(rec_id)
        ok = rec is not None and rec.verdict.value == want["verdict"]
        if ok and "printed" in want:
            ok = abs(rec.computed.float_estimate - want["printed"]) <= ref["reproduction_tol"]
        if ok and rec_id != "E31":
            ok = rec.computed.upper < 2
        checks.check(f"bound {rec_id}", ok)

    scan = bounds.q_bound_scan(10**4)
    sets = [sorted(e.q for e in scan if e.f2 == f2 and e.satisfies) for f2 in (1, 2)]
    checks.check("q-scan", sets == [ref["qscan_f2_1"], ref["qscan_f2_2"]])
    checks.check("case-13", bounds.case_13_elimination().ok)

    for p, q in inputs["semiprimes"]:
        f = arith.factorize(p * q)
        checks.check(f"factorize {p * q}", f.entries == ((p, 1), (q, 1)) and f.value == p * q)


WORKLOADS = {
    "odd-usp": (setup_odd_usp, run_odd_usp),
    "checkpoint-resume": (setup_checkpoint_resume, run_checkpoint_resume),
    "proof-chain": (setup_proof_chain, run_proof_chain),
}


# ---------------------------------------------------------------------------

def _cpu_and_rss() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024  # KiB on Linux


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace-dir")
    args = ap.parse_args()

    import uspkit

    src = os.path.join(os.path.dirname(HERE), "src")
    if os.path.commonpath([os.path.abspath(uspkit.__file__), src]) != src:
        print(f"uspkit imported from {uspkit.__file__}, not from {src}", file=sys.stderr)
        return 3
    setup, run = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)[args.workload]
    inputs = setup(args.seed, args.work_dir, ref)
    out = {"setup_s": time.monotonic() - args.spawned_at}

    missing = set()
    if args.trace_dir:
        import spans

        missing = spans.install(args.trace_dir)
    checks = Checks(inputs["checks"])
    cpu0, _ = _cpu_and_rss()
    t0 = time.perf_counter()
    try:
        run(inputs, args.workers, checks)
    except Exception:
        traceback.print_exc()
        checks.abort()
    wall = time.perf_counter() - t0
    cpu1, rss = _cpu_and_rss()
    out.update(
        wall_s=wall,
        cpu_s=cpu1 - cpu0,
        peak_rss_mib=rss,
        attempted=checks.made,
        failed=checks.failed,
        failed_checks=checks.failed_names,
    )
    if args.trace_dir:
        out["layers"] = spans.layer_metrics(args.trace_dir, missing)
        out["missing"] = sorted(missing)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
