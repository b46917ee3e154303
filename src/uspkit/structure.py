"""Structural machinery for numbers of the form 2**a * q**b.

Covers: canonical decomposition of such numbers, primitive prime divisors of
a**n - b**n with the full exception taxonomy, enumeration of prime powers
adjacent to 2**a * q**b, and exhaustive finite-range verifiers for the
divisibility facts ("lemmas") that the bound certificates and the
odd-search structure checks rely on.  Each verifier returns a LemmaReport
whose counterexample list is expected to be empty.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from enum import Enum
from math import gcd

from .arith import (
    MAX_NATURAL,
    Factorization,
    factorize,
    is_mersenne_prime,
    is_prime,
    ord_mod,
    prime_power,
    primes_up_to,
    unitary_sigma,
)


@dataclass(frozen=True)
class TwoAQB:
    """m = 2**a * q**b with q the unique odd prime factor of m.

    A pure power of two (including 1) is encoded with q = None and b = 0.
    """

    a: int
    q: int | None
    b: int

    def __post_init__(self) -> None:
        if self.q is None:
            if self.b != 0:
                raise ValueError("b must be 0 when there is no odd prime part")
        elif self.b < 1 or self.q < 3 or self.q % 2 == 0 or not is_prime(self.q):
            raise ValueError(f"invalid odd prime power part {self.q}**{self.b}")

    @property
    def value(self) -> int:
        return 2**self.a * (1 if self.q is None else self.q**self.b)


def decompose_2aqb(m: int) -> TwoAQB | None:
    """Unique TwoAQB representation of m, or None if m has two or more odd
    prime factors.  The odd part of m must not exceed MAX_NATURAL."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"m must be an int, got {type(m).__name__}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    a = (m & -m).bit_length() - 1
    odd = m >> a
    if odd == 1:
        return TwoAQB(a, None, 0)
    qb = prime_power(odd)
    return None if qb is None else TwoAQB(a, *qb)


class ZsigmondyKind(Enum):
    PRIMITIVE_PRIME = "primitive_prime"
    # the three exceptional shapes with no primitive prime divisor:
    EXC_2_1_6 = "exception_2_1_6"                    # (a, b, n) = (2, 1, 6)
    EXC_DIFFERENCE_ONE = "exception_difference_one"  # a - b = n = 1
    EXC_SUM_POWER_OF_TWO = "exception_sum_power_of_two"  # n = 2, a + b = 2**k


@dataclass(frozen=True)
class ZsigmondyResult:
    kind: ZsigmondyKind
    prime: int | None = None

    @property
    def is_exception(self) -> bool:
        return self.kind is not ZsigmondyKind.PRIMITIVE_PRIME


def zsigmondy(a: int, b: int, n: int) -> ZsigmondyResult:
    """Least prime dividing a**n - b**n but no a**m - b**m with m < n,
    or the applicable exception.

    Requires a > b >= 1, gcd(a, b) = 1, n >= 1, and a**n within range.
    """
    if not (a > b >= 1):
        raise ValueError(f"need a > b >= 1, got a={a} b={b}")
    if gcd(a, b) != 1:
        raise ValueError(f"a={a} and b={b} are not coprime")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if a**n > MAX_NATURAL:
        raise ValueError(f"{a}**{n} exceeds the supported range")
    if (a, b, n) == (2, 1, 6):
        return ZsigmondyResult(ZsigmondyKind.EXC_2_1_6)
    if n == 1 and a - b == 1:
        return ZsigmondyResult(ZsigmondyKind.EXC_DIFFERENCE_ONE)
    if n == 2 and (a + b) & (a + b - 1) == 0:
        return ZsigmondyResult(ZsigmondyKind.EXC_SUM_POWER_OF_TWO)
    # gcd(a, b) = 1 keeps every prime factor of a**n - b**n coprime to a*b,
    # so r is primitive exactly when a/b has order n mod r.
    for r, _ in factorize(a**n - b**n).entries:
        t = a * pow(b, -1, r) % r
        if ord_mod(t, r) == n:
            return ZsigmondyResult(ZsigmondyKind.PRIMITIVE_PRIME, r)
    raise AssertionError(
        f"no primitive prime for ({a}, {b}, {n}); exception taxonomy is broken"
    )


def enumerate_prime_powers_2aqb(
    q: int, a_max: int, b_max: int, cap: int
) -> list[tuple[int, int, int, int]]:
    """All prime powers p**e <= cap of the form 2**a * q**b - 1 with
    1 <= a <= a_max, 1 <= b <= b_max, sorted by value.

    Returns (p, e, a, b) tuples.
    """
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    if a_max < 1 or b_max < 1:
        raise ValueError("bounds must be positive")
    if cap > MAX_NATURAL:
        raise ValueError(f"cap {cap} exceeds the supported range")
    found = []
    for a in range(1, a_max + 1):
        for b in range(1, b_max + 1):
            v = 2**a * q**b - 1
            if v > cap:
                break
            p_e = prime_power(v)
            if p_e is not None:
                found.append((v, (*p_e, a, b)))
    return [t for _, t in sorted(found)]


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of scanning one statement over a finite parameter range."""

    lemma_id: str
    range_descriptor: str
    instances_checked: int
    counterexamples: tuple[tuple, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "lemma_id": self.lemma_id,
                "range": self.range_descriptor,
                "checked": self.instances_checked,
                "counterexamples": [list(c) for c in self.counterexamples],
                "ms": round(self.elapsed * 1000, 3),
            }
        )


def _report(lemma_id, desc, checked, bad, t0) -> LemmaReport:
    return LemmaReport(
        lemma_id, desc, checked, tuple(bad), time.perf_counter() - t0
    )


def _odd_prime_powers_in_range(p_max: int, e_max: int):
    for p in primes_up_to(p_max):
        if p == 2:
            continue
        for e in range(1, e_max + 1):
            pe = p**e
            if pe + 1 > MAX_NATURAL:
                break
            yield p, e, pe


def check_lemma_22(p_max: int = 500, e_max: int = 8) -> LemmaReport:
    """Whenever p**e + 1 = 2**a * q**b (p odd prime, b >= 1): either e = 1,
    or e is even with q = 1 (mod 2e), or p is Mersenne with q = 1 (mod 2e)."""
    t0 = time.perf_counter()
    checked, bad = 0, []
    for p, e, pe in _odd_prime_powers_in_range(p_max, e_max):
        d = decompose_2aqb(pe + 1)
        if d is None or d.b == 0:
            continue
        checked += 1
        ok = (
            e == 1
            or (e % 2 == 0 and d.q % (2 * e) == 1)
            or (is_mersenne_prime(p) and d.q % (2 * e) == 1)
        )
        if not ok:
            bad.append((p, e, d.a, d.q, d.b))
    return _report("2.2", f"p<={p_max},e<={e_max}", checked, bad, t0)


def check_lemma_23(p_max: int = 10_000, e_max: int = 10) -> LemmaReport:
    """Whenever p**e + 1 = 2**a * 3**b with b >= 1 (p odd prime): e = 1."""
    t0 = time.perf_counter()
    checked, bad = 0, []
    for p, e, pe in _odd_prime_powers_in_range(p_max, e_max):
        d = decompose_2aqb(pe + 1)
        if d is None or d.q != 3:
            continue
        checked += 1
        if e != 1:
            bad.append((p, e, d.a, d.b))
    return _report("2.3", f"p<={p_max},e<={e_max}", checked, bad, t0)


def check_lemma_24(p_max: int = 10_000, e_max: int = 10) -> LemmaReport:
    """Whenever p**e + 1 is a power of two (p odd prime): e = 1."""
    t0 = time.perf_counter()
    checked, bad = 0, []
    for p, e, pe in _odd_prime_powers_in_range(p_max, e_max):
        v = pe + 1
        if v & (v - 1) != 0:
            continue
        checked += 1
        if e != 1:
            bad.append((p, e))
    return _report("2.4", f"p<={p_max},e<={e_max}", checked, bad, t0)


def lemma_25_solutions(x_max: int) -> list[tuple[int, int]]:
    """All (e, x) with 2**x + 1 = 3**e and 1 <= x <= x_max, by increasing x."""
    solutions = []
    for x in range(1, x_max + 1):
        v = 2**x + 1
        e = 0
        while v % 3 == 0:
            v //= 3
            e += 1
        if v == 1:
            solutions.append((e, x))
    return solutions


def check_lemma_25(x_max: int = 60) -> LemmaReport:
    """2**x + 1 is a power of three only for (e, x) = (1, 1) and (2, 3)."""
    t0 = time.perf_counter()
    solutions = set(lemma_25_solutions(x_max))
    expected = {(e, x) for e, x in ((1, 1), (2, 3)) if x <= x_max}
    bad = sorted(solutions ^ expected)
    return _report("2.5", f"x<={x_max}", x_max, bad, t0)


def check_lemma_26(a_max: int = 40) -> LemmaReport:
    """Every prime factor of 2**a + 1 is 1, 3, or 5 (mod 8)."""
    if 2**a_max + 1 > MAX_NATURAL:
        raise ValueError(f"a_max={a_max} puts 2**a + 1 out of range")
    t0 = time.perf_counter()
    checked, bad = 0, []
    for a in range(1, a_max + 1):
        for p, _ in factorize(2**a + 1).entries:
            checked += 1
            if p % 8 not in (1, 3, 5):
                bad.append((a, p))
    return _report("2.6", f"a<={a_max}", checked, bad, t0)


def check_lemma_27(q_max: int = 100, b_max: int = 8) -> LemmaReport:
    """If p | q**b + 1 and 4 does not divide q**b + 1, then 4q does not
    divide p + 1 (p, q odd primes)."""
    t0 = time.perf_counter()
    checked, bad = 0, []
    for q in primes_up_to(q_max):
        if q == 2:
            continue
        for b in range(1, b_max + 1):
            v = q**b + 1
            if v > MAX_NATURAL:
                break
            if v % 4 == 0:
                continue
            for p, _ in factorize(v).entries:
                if p == 2:
                    continue
                checked += 1
                if (p + 1) % (4 * q) == 0:
                    bad.append((q, b, p))
    return _report("2.7", f"q<={q_max},b<={b_max}", checked, bad, t0)


#: the odd primes q left by the q scan for f2 = 1; lemma 5.1 is checked at each
LEMMA_51_QS = (5, 7, 11, 13)


def check_lemma_51(q: int, b_max: int = 10) -> LemmaReport:
    """For odd prime q >= 5: 3 divides at least one of 2*q**b - 1 and
    4*q**b - 1 for every b, so the two candidates never coexist as
    non-Mersenne prime powers."""
    if q < 5 or not is_prime(q):
        raise ValueError(f"q must be an odd prime >= 5, got {q}")
    t0 = time.perf_counter()
    checked, bad = 0, []
    for b in range(1, b_max + 1):
        checked += 1
        if (2 * q**b - 1) % 3 != 0 and (4 * q**b - 1) % 3 != 0:
            bad.append((q, b))
    return _report("5.1", f"q={q},b<={b_max}", checked, bad, t0)


LEMMA_CHECKS = {
    "2.2": check_lemma_22,
    "2.3": check_lemma_23,
    "2.4": check_lemma_24,
    "2.5": check_lemma_25,
    "2.6": check_lemma_26,
    "2.7": check_lemma_27,
    "5.1": check_lemma_51,
}


@dataclass(frozen=True)
class UspStructureVerdict:
    """Clause-by-clause structural check of an odd n with sigma*(sigma*(n)) = 2n.

    components lists (p, e, a, b) with p**e + 1 = 2**a * q**b for each prime
    power dividing n; failed_clauses is empty on success.
    """

    n: int
    q: int | None = None
    f1: int | None = None
    f2: int | None = None
    components: tuple[tuple[int, int, int, int], ...] = ()
    failed_clauses: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failed_clauses

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "f1": self.f1,
            "f2": self.f2,
            "components": [list(c) for c in self.components],
            "failed_clauses": list(self.failed_clauses),
            "ok": self.ok,
        }


def check_usp_structure(n: int, sigma_star_n: Factorization) -> UspStructureVerdict:
    """Verify the forced shape of an odd n with sigma*(sigma*(n)) = 2n:

    - sigma*(n) = 2**f1 * q**f2 for a single odd prime q, f1, f2 >= 1;
    - q**f2 + 1 is not divisible by 4;
    - each p**e || n has p**e + 1 = 2**a * q**b, with the exponents summing
      to (f1, f2);
    - unless p is a Mersenne prime with odd e, a is 1 or 2 and b >= 1.

    Any failed clause indicates a bug in the caller's pipeline, not new
    mathematics; the verdict names the clause.
    """
    if n % 2 == 0:
        raise ValueError(f"n must be odd, got {n}")
    s = sigma_star_n.value
    fn = factorize(n)
    if unitary_sigma(fn) != s:
        raise ValueError(f"sigma*({n}) != {s}; caller passed a stale factorization")
    if unitary_sigma(sigma_star_n) != 2 * n:
        raise ValueError(f"{n} does not satisfy sigma*(sigma*(n)) = 2n")

    failed: list[str] = []
    entries = dict(sigma_star_n.entries)
    f1 = entries.pop(2, 0)
    q = f2 = None
    if f1 >= 1 and len(entries) == 1:
        q, f2 = next(iter(entries.items()))
    else:
        failed.append("sigma_star_form")

    if q is not None and (q**f2 + 1) % 4 == 0:
        failed.append("q_part_plus_one_not_div_4")

    comps: list[tuple[int, int, int, int]] = []
    for p, e in fn.entries:
        d = decompose_2aqb(p**e + 1)
        if d is None or (d.q is not None and d.q != q):
            failed.append(f"component_{p}^{e}_shape")
            continue
        comps.append((p, e, d.a, d.b))
        if not (is_mersenne_prime(p) and e % 2 == 1):
            if not (1 <= d.a <= 2 and d.b >= 1):
                failed.append(f"component_{p}^{e}_exponent_bound")
    if q is not None and not failed:
        if sum(c[2] for c in comps) != f1 or sum(c[3] for c in comps) != f2:
            failed.append("exponent_sums")

    return UspStructureVerdict(n, q, f1, f2, tuple(comps), tuple(failed))
