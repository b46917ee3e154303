"""Spans around uspkit's layer boundaries, recorded from outside the package.

``install`` replaces every binding of each boundary function inside the
loaded ``uspkit`` modules (module attributes and registry dicts such as
``LEMMA_CHECKS``) with a wrapper that records a span: an id, the id of the
enclosing span in the same process, the boundary name, start and end in
``perf_counter_ns`` and an amount (values sieved, bytes, instances checked).
Install before any worker pool forks: forked workers inherit the wrappers,
start with an empty span stack, and append their spans to a file of their
own each time their outermost span closes, because pool workers exit
without running ``atexit`` hooks.  ``layer_metrics`` merges the files.

A boundary whose function no longer exists (renamed or removed) is reported
as missing, and every metric that depends on it is ``None``, never 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import monotonic_ns, perf_counter_ns


def _result_len(args, result):
    return len(result)


def _result_nbytes(args, result):
    return result.nbytes


def _file_size(args, result):
    return os.path.getsize(args[0])


def _instances(args, result):
    return result.instances_checked


_LEMMAS = tuple(
    ("uspkit.structure", f"check_lemma_{k}") for k in ("22", "23", "24", "25", "26", "27", "51")
)

#: span name -> (functions wrapped as (module, attribute), amount per call)
BOUNDARIES = {
    "sieve.segment": ((("uspkit.sieve", "_divisor_sum_segment"),), _result_len),
    "sieve.base_primes": ((("uspkit.sieve", "base_primes"),), None),
    "search.run": ((("uspkit.search", "run_search"),), None),
    "search.table_build": ((("uspkit.search", "_build_table"),), _result_nbytes),
    "search.classify": ((("uspkit.search", "_classify_segment"),), None),
    "search.fallback": ((("uspkit.search", "_exact_divisor_sum"),), None),
    "search.verify": ((("uspkit.search", "verify_hit"),), None),
    "search.checkpoint_render": ((("uspkit.search", "render_checkpoint"),), None),
    "search.checkpoint_write": ((("uspkit.search", "_write_atomic"),), _file_size),
    "search.checkpoint_parse": ((("uspkit.search", "parse_checkpoint"),), None),
    "arith.factorize": ((("uspkit.arith", "factorize"),), None),
    "arith.is_prime": ((("uspkit.arith", "is_prime"),), None),
    "arith.rho": ((("uspkit.arith", "_brent_rho"),), None),
    "structure.lemma": (_LEMMAS, _instances),
    "structure.decompose": ((("uspkit.structure", "decompose_2aqb"),), None),
    "structure.usp_structure": ((("uspkit.structure", "check_usp_structure"),), None),
    "bounds.certify": (
        (("uspkit.bounds", "evaluate_inequality"), ("uspkit.bounds", "mersenne_constant")),
        None,
    ),
    "bounds.qscan": ((("uspkit.bounds", "q_bound_scan"),), None),
    "bounds.case13": ((("uspkit.bounds", "case_13_elimination"),), None),
    "bounds.exp_bounds": ((("uspkit.bounds", "exp_bounds"),), None),
}


class _Recorder:
    """Per-process span stack and buffer; reset in every forked child."""

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir
        self.reset()

    def reset(self) -> None:
        # pid plus a clock reading keeps file names unique under pid reuse
        self.path = os.path.join(self.span_dir, f"spans-{os.getpid()}-{monotonic_ns()}.txt")
        self.stack: list[int] = []
        self.buf: list[tuple] = []
        self.next_id = 0

    def flush(self) -> None:
        with open(self.path, "a") as fh:
            fh.writelines(
                f"{sid} {parent} {name} {t0} {t1} {'-' if amt is None else amt}\n"
                for sid, parent, name, t0, t1, amt in self.buf
            )
        self.buf.clear()


def _wrap(fn, name: str, amount, rec: _Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.next_id += 1
        sid = rec.next_id
        parent = rec.stack[-1] if rec.stack else 0
        rec.stack.append(sid)
        result = None
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = perf_counter_ns()
            rec.stack.pop()
            amt = 0
            if amount is not None:
                try:
                    amt = amount(args, result)
                except Exception:  # a changed signature makes the amount missing
                    amt = None
            rec.buf.append((sid, parent, name, t0, t1, amt))
            if not rec.stack:
                rec.flush()

    return traced


def _rebind(orig, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "uspkit" and not mod_name.startswith("uspkit."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
            elif type(value) is dict:
                for key, item in value.items():
                    if item is orig:
                        value[key] = wrapper


def install(span_dir: str) -> set[str]:
    """Wrap every boundary that exists; return the names of the missing ones."""
    rec = _Recorder(span_dir)
    os.register_at_fork(after_in_child=rec.reset)
    missing = set()
    for name, (targets, amount) in BOUNDARIES.items():
        originals = []
        for mod_name, attr in targets:
            try:
                originals.append(getattr(importlib.import_module(mod_name), attr))
            except (ImportError, AttributeError):
                missing.add(name)
        for orig in originals:
            _rebind(orig, _wrap(orig, name, amount, rec))
    return missing


class Spans:
    """Merged spans of one traced repetition, across all its processes."""

    def __init__(self, span_dir: str) -> None:
        by_file = defaultdict(dict)
        for fname in os.listdir(span_dir):
            with open(os.path.join(span_dir, fname)) as fh:
                for line in fh:
                    sid, parent, name, t0, t1, amt = line.split()
                    by_file[fname][int(sid)] = (
                        int(parent), name, int(t1) - int(t0), None if amt == "-" else int(amt)
                    )
        self._calls = defaultdict(int)
        self._amount = defaultdict(int)
        self._busy_ns = defaultdict(int)
        self._self_ns = defaultdict(int)
        for spans in by_file.values():
            child_ns = defaultdict(int)
            for parent, _, dur, _ in spans.values():
                child_ns[parent] += dur
            for sid, (parent, name, dur, amt) in spans.items():
                self._calls[name] += 1
                if amt is None or self._amount[name] is None:
                    self._amount[name] = None
                else:
                    self._amount[name] += amt
                self._self_ns[name] += dur - child_ns[sid]
                # busy time counts a span nested in one of the same name once
                while parent and spans[parent][1] != name:
                    parent = spans[parent][0]
                if not parent:
                    self._busy_ns[name] += dur

    def calls(self, name: str) -> int:
        return self._calls[name]

    def amount(self, name: str) -> int | None:
        return self._amount[name]

    def busy(self, name: str) -> float:
        return self._busy_ns[name] / 1e9

    def self_time(self, name: str) -> float:
        return self._self_ns[name] / 1e9

    def rate(self, name: str) -> float | None:
        amount, busy = self.amount(name), self.busy(name)
        return None if amount is None else amount / busy if busy else 0.0


_SIEVE = "wall_s, cpu_s on odd-usp and checkpoint-resume"
_TABLE = "wall_s, peak_rss_mib on odd-usp"
_SCAN = "wall_s, cpu_s on odd-usp"
_RESUME = "wall_s on checkpoint-resume"
_ARITH = "wall_s on proof-chain; predicted not to move it on odd-usp"
_PROOF = "wall_s on proof-chain"

#: per-layer metric -> (unit, how it is read from Spans, boundaries, the
#: end-to-end metric and workload it should move).  "busy" is the time the
#: boundaries' spans cover, "self_time" that minus the time of child spans
#: (so it needs every boundary present), "calls" counts spans, "amount" adds
#: their amounts and "rate" is amount over busy time.  Times add up over all
#: processes of a repetition; bytes are computed from array and text sizes,
#: not measured bandwidth.  "run" metrics come from whole repetitions (run.py).
LAYER_METRICS = {
    "sieve.busy_s": ("s", "busy", ("sieve.segment",), _SIEVE),
    "sieve.values": ("count", "amount", ("sieve.segment",), _SIEVE),
    "sieve.values_per_busy_s": ("1/s", "rate", ("sieve.segment",), _SIEVE),
    "sieve.base_primes_s": ("s", "busy", ("sieve.base_primes",), _RESUME),
    "search.table_build_s": ("s", "busy", ("search.table_build",), _TABLE),
    "search.table_bytes": ("bytes", "amount", ("search.table_build",), _TABLE),
    "search.classify_busy_s": ("s", "busy", ("search.classify",), _SCAN),
    # run_search outside every traced call: waiting for scan workers, pool start and stop
    "search.scan_wait_s": ("s", "self_time", ("search.run",), _SCAN),
    "search.fallback_calls": ("count", "calls", ("search.fallback",),
                              "nothing: 0 on every workload unless the out-of-table path comes in"),
    "search.segments": ("count", "calls", ("search.classify",), _RESUME),
    "search.verify_calls": ("count", "calls", ("search.verify",), _RESUME),
    "search.verify_s": ("s", "busy", ("search.verify",), _RESUME),
    "search.checkpoint_writes": ("count", "calls", ("search.checkpoint_write",), _RESUME),
    "search.checkpoint_bytes": ("bytes", "amount", ("search.checkpoint_write",), _RESUME),
    "search.checkpoint_write_s": (
        "s", "busy", ("search.checkpoint_render", "search.checkpoint_write"), _RESUME),
    "search.checkpoint_parse_s": ("s", "busy", ("search.checkpoint_parse",), _RESUME),
    "search.speedup_2w": ("ratio", "run", (),
                          "nothing: workers=1 over workers=2 wall_s, the single-process baseline"),
    "arith.factorize_calls": ("count", "calls", ("arith.factorize",), _ARITH),
    "arith.factorize_s": ("s", "busy", ("arith.factorize",), _ARITH),
    "arith.is_prime_calls": ("count", "calls", ("arith.is_prime",), _ARITH),
    "arith.is_prime_s": ("s", "busy", ("arith.is_prime",), _ARITH),
    "arith.rho_calls": ("count", "calls", ("arith.rho",), _ARITH),
    "structure.lemma_s": ("s", "self_time", ("structure.lemma",), _PROOF),
    "structure.lemma_instances": ("count", "amount", ("structure.lemma",), _PROOF),
    "structure.decompose_calls": ("count", "calls", ("structure.decompose",), _PROOF),
    "structure.usp_structure_checks": ("count", "calls", ("structure.usp_structure",), _PROOF),
    "bounds.certify_s": ("s", "busy", ("bounds.certify",), _PROOF),
    "bounds.qscan_s": ("s", "busy", ("bounds.qscan",), _PROOF),
    "bounds.case13_s": ("s", "busy", ("bounds.case13",), _PROOF),
    "bounds.exp_bounds_calls": ("count", "calls", ("bounds.exp_bounds",), _PROOF),
    "trace.overhead_s": ("s", "run", (), "nothing: traced minus untraced wall_s"),
}

#: counts that must repeat exactly between two traced repetitions of one seed
REPEATED_COUNTS = tuple(
    name for name, (unit, *_rest) in LAYER_METRICS.items() if unit in ("count", "bytes")
)


def layer_metrics(span_dir: str, missing: set[str]) -> dict[str, float | int | None]:
    """Every per-layer metric read from spans; None where a boundary is missing."""
    spans = Spans(span_dir)
    out = {}
    for name, (_unit, how, names, _moves) in LAYER_METRICS.items():
        if how == "run":
            continue
        if missing.intersection(BOUNDARIES if how == "self_time" else names):
            out[name] = None
            continue
        values = [getattr(spans, how)(n) for n in names]
        out[name] = None if None in values else sum(values)
    return out
