"""One-shot reproduction of the acceptance checks.

Each criterion below recomputes a published or derived fact through an
independent route (brute-force divisor enumeration, direct powering,
high-precision exponentials) and compares it with the fast path.  CRITERIA
is the one list of them: ``uspkit report`` runs it, and the acceptance tests
run each entry and hold it to its time budget.  No entry takes an option:
the headline entry classifies the odd n up to 10^8, the range of the search
the paper builds on.
"""

from __future__ import annotations

import os
import random
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import bruteforce
from .arith import factorize, unitary_sigma
from .bounds import (
    REPRODUCTION_TOL,
    Verdict,
    case_13_elimination,
    evaluate_all,
    exp_bounds,
    mersenne_constant,
    q_bound_scan,
)
from .search import CLASS_ORDER, SearchConfig, run_search, usable_cpus
from .structure import (
    LEMMA_51_QS,
    LEMMA_CHECKS,
    ZsigmondyKind,
    zsigmondy,
)

#: relative error allowance for the 55-digit exponential reference itself
_REF_EPS = Fraction(1, 10**45)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion.

    check() returns (ok, detail).  budget_s, when set, is the wall time the
    acceptance tests allow the check.
    """

    name: str
    check: Callable[[], tuple[bool, str]]
    budget_s: float | None = None

    def run(self) -> CriterionResult:
        ok, detail = self.check()
        return CriterionResult(self.name, bool(ok), detail)


def _headline() -> tuple[bool, str]:
    # the paper's theorem: the odd usp n are 9 and 165; the even hits are
    # checked by first-hits and oracle-classification
    limit = 10**8
    odd = run_search(SearchConfig(limit=limit, classes=("usp",), parity="odd")).hits
    odd_ns = [h.n for h in odd]
    ok = odd_ns == [9, 165] and all(h.structure is not None and h.structure.ok for h in odd)
    return ok, f"odd hits <= {limit}: {odd_ns}"


def _first_hits() -> tuple[bool, str]:
    hits = [h.n for h in run_search(SearchConfig(limit=300, classes=("usp",))).hits]
    return hits == [2, 9, 165, 238], f"hits <= 300: {hits}"


def _oracle_classification() -> tuple[bool, str]:
    limit = 10**5
    expected = bruteforce.classify_brute(limit)
    got = {c: [] for c in CLASS_ORDER}
    hits = run_search(SearchConfig(limit=limit, classes=CLASS_ORDER)).hits
    for h in hits:
        got[h.classification].append(h.n)
    bad = [c for c in CLASS_ORDER if got[c] != expected[c]]
    return not bad, (
        f"all four classes agree with divisor-enumeration oracle up to {limit}"
        if not bad
        else f"mismatch in {bad}"
    )


def _lemma_suite() -> tuple[bool, str]:
    # every lemma at the default range of its check_lemma_* function
    reports = [check() for lemma_id, check in LEMMA_CHECKS.items() if lemma_id != "5.1"]
    reports += [LEMMA_CHECKS["5.1"](q) for q in LEMMA_51_QS]
    bad = [r.lemma_id for r in reports if not r.ok]
    checked = sum(r.instances_checked for r in reports)
    return not bad, (
        f"{checked} instances, zero counterexamples" if not bad else f"failures: {bad}"
    )


def _zsigmondy_grid() -> tuple[bool, str]:
    mismatches = []
    exception_shapes = []
    for a in range(2, 13):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            for n in range(1, 13):
                got = zsigmondy(a, b, n)
                want = bruteforce.zsigmondy_brute(a, b, n)
                if got.kind is ZsigmondyKind.PRIMITIVE_PRIME:
                    if got.prime != want:
                        mismatches.append((a, b, n))
                else:
                    exception_shapes.append(got.kind)
                    if want is not None:
                        mismatches.append((a, b, n))
    # all three exception shapes occur on the grid
    missing = set(ZsigmondyKind) - {ZsigmondyKind.PRIMITIVE_PRIME} - set(exception_shapes)
    if missing:
        mismatches.append(f"exception shapes never met: {sorted(k.value for k in missing)}")
    return not mismatches, (
        f"grid matches brute force; {len(exception_shapes)} exception instances"
        if not mismatches
        else f"mismatches: {mismatches[:5]}"
    )


def _bound_certificates() -> tuple[bool, str]:
    problems = []
    for cutoff in (2, 31):
        if mersenne_constant(cutoff).upper >= Fraction("1.6131008"):
            problems.append(f"constant cutoff {cutoff}")
    must_reproduce = {
        "L42": 1.4588,
        "L43": 1.9041,
        "T53-first": 1.7332,
        "T53-second": 1.9150,
        "T54-q11": 1.8850,
    }
    may_flag = {"T54-q7", "E31"}
    for rec in evaluate_all():
        if rec.computed.upper >= 2:
            problems.append(f"{rec.id} upper >= 2")
        if rec.id in must_reproduce:
            if abs(rec.computed.float_estimate - must_reproduce[rec.id]) > REPRODUCTION_TOL:
                problems.append(f"{rec.id} float off")
            if rec.verdict is not Verdict.REPRODUCED_BELOW_2:
                problems.append(f"{rec.id} flagged unexpectedly")
        elif rec.id in may_flag and rec.verdict is not Verdict.DISCREPANCY_FLAGGED:
            problems.append(f"{rec.id} expected a flagged verdict")
    return not problems, (
        "six chain certificates < 2; printed decimals reproduced or flagged as permitted"
        if not problems
        else f"problems: {problems}"
    )


def _q_scan() -> tuple[bool, str]:
    entries = q_bound_scan(100)
    sat1 = sorted(e.q for e in entries if e.f2 == 1 and e.satisfies)
    sat2 = sorted(e.q for e in entries if e.f2 == 2 and e.satisfies)
    ok = sat1 == [5, 7, 11, 13] and sat2 == [5, 7]
    return ok, f"f2=1 -> {sat1}, f2>=2 -> {sat2}"


def _case13() -> tuple[bool, str]:
    verdict = case_13_elimination()
    by_id = {s.step_id: s for s in verdict.steps}
    ok = (
        verdict.ok
        and "25 = 5^2" in by_id["unique_candidate_25"].witness
        and by_id["parity_clash"].ok
        and by_id["five_needs_f1_2_mod_4"].ok
    )
    return ok, f"{sum(s.ok for s in verdict.steps)}/{len(verdict.steps)} steps verified"


def _determinism() -> tuple[bool, str]:
    seg = 1 << 18
    # the pool has at most one process per usable CPU and no more than the
    # run's two tasks (two sieve blocks; the table is one chunk), so asking
    # for more than two workers would fork no more.  The interrupted run stops
    # after one segment, so the resumed one still has two blocks and forks the
    # same pool as the full run
    workers = min(2, len(usable_cpus()))
    r1 = run_search(SearchConfig(limit=10**6, segment_size=seg, workers=1))
    rw = run_search(SearchConfig(limit=10**6, segment_size=seg, workers=workers))
    ok = r1.checkpoint_text == rw.checkpoint_text
    with tempfile.TemporaryDirectory() as tmp:
        cp = os.path.join(tmp, "cp.txt")
        partial = run_search(
            SearchConfig(limit=10**6, segment_size=seg, checkpoint_path=cp, max_segments=1)
        )
        resumed = run_search(
            SearchConfig(
                limit=10**6, segment_size=seg, checkpoint_path=cp, resume=True,
                workers=workers
            )
        )
    ok = (
        ok
        and partial.segments_done == 1
        and not partial.completed
        and resumed.completed
        and resumed.checkpoint_text == r1.checkpoint_text
    )
    return ok, f"1 vs {workers} workers and interrupt/resume produce identical bytes"


def _property_suites() -> tuple[bool, str]:
    rng = random.Random(20260810)
    problems = []

    checked = 0
    for _ in range(10**4):
        m = rng.randrange(1, 10**6)
        n = rng.randrange(1, 10**6)
        if gcd(m, n) != 1:
            continue
        checked += 1
        if unitary_sigma(factorize(m * n)) != unitary_sigma(factorize(m)) * unitary_sigma(
            factorize(n)
        ):
            problems.append(f"multiplicativity at ({m}, {n})")
            break
    if checked <= 5000:
        problems.append(f"only {checked} coprime pairs checked")

    sig, usig = bruteforce.divisor_sum_tables(10**5)
    n_vals = np.arange(2, 10**5 + 1)
    if not (usig[2:] <= sig[2:]).all():
        problems.append("sigma* <= sigma fails")
    if not (usig[2:] >= n_vals + 1).all():
        problems.append("sigma*(n) >= n + 1 fails")

    for _ in range(10**4):
        x = Fraction(rng.randrange(0, 9 * 10**5), 10**6)
        lo, hi = exp_bounds(x)
        ref = bruteforce.exp_reference(x)
        if hi < ref * (1 - _REF_EPS) or hi > ref * (1 + Fraction(1, 10**6)):
            problems.append(f"exp enclosure at {x}")
            break
        if lo > ref * (1 + _REF_EPS):
            problems.append(f"exp lower bound at {x}")
            break

    return not problems, (
        "multiplicativity, sigma* <= sigma, exp one-sidedness all hold"
        if not problems
        else f"problems: {problems}"
    )


CRITERIA = (
    Criterion("headline-odd-search", _headline, budget_s=1.0),
    Criterion("first-hits", _first_hits, budget_s=1.0),
    Criterion("oracle-classification", _oracle_classification, budget_s=30.0),
    Criterion("lemma-suite", _lemma_suite, budget_s=60.0),
    Criterion("zsigmondy-oracle", _zsigmondy_grid),
    Criterion("bound-certificates", _bound_certificates, budget_s=1.0),
    Criterion("q-elimination-scan", _q_scan),
    Criterion("case-13-chain", _case13),
    Criterion("determinism", _determinism),
    Criterion("property-suites", _property_suites),
)


def run_all() -> list[CriterionResult]:
    return [c.run() for c in CRITERIA]
