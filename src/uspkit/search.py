"""Segmented, parallel, resumable search for perfect-number variants.

The search classifies the n <= limit of the requested parity over the
run's range: from the first segment still to do to the end of the last
one.  Only the unitary classes (usp, unitary_perfect) at even n are
scanned; every other hit is listed from an equation (below).  No odd n is
unitary_perfect, the odd usp n come from odd_usp, the even perfect and
super_perfect n from even_sigma and the odd ones from odd_sigma.  The
units of the scan are sieve blocks.  A block holds the even n = lo, lo + 2,
... < hi, at most _TABLE_CHUNK of them: the even n of the range are cut
into equal blocks, run in order of lo, and blocks are laid only when a
unitary class is requested and the parity is not odd.  Every block reads
one divisor sum, sigma*.

A block is classified in slices of _SCAN_BLOCK n.  Every slice takes the
first application sigma*(n) by one rule: from the search's lookup table
when the table holds every odd part of the slice, otherwise from the
divisor-sum sieve of the enclosing block, run at most once per block and
taken to int64 before any product.  The table serves a slice one 2-adic
class at a time: the n with v2(n) = a recur every 2^a values of the slice
and their odd parts are consecutive odd values, so their sums are one
contiguous run of the table times the 2-part's factor (below), written at
that stride; no n is split into its 2-part and odd part.  The scan's
memory is thus one block, whatever the segment size.  Segments are the
checkpoint's unit: a segment is merged once every block that starts before
its end has returned, and a returned block that lets segments merge writes
the checkpoint once.

A class applied once (unitary_perfect) is a hit when first = 2n; usp looks
its second application up (below).

Take odd n > 1 and write sigma*(n) = 2^a * m' with m' odd.  Every factor
p^e + 1 of sigma*(n) is even, so a >= 1, and by multiplicativity
sigma*(sigma*(n)) = (2^a + 1) * sigma*(m').  Each factor of sigma*(m') is
even too, so 2^omega(m') divides sigma*(m'), while 2^a + 1 is odd and
v2(2n) = 1: a usp n has omega(m') <= 1.  m' = 1 is impossible, since
sigma*(sigma*(n)) would be the odd 2^a + 1; so m' = q^b is a prime power,
sigma*(m') = q^b + 1, and

    (2^a + 1) * (q^b + 1) = 2n.

Conversely, an n with sigma*(n) = 2^a * q^b satisfying that is usp, so the
test is exact.  The same count on sigma*(n) = 2n gives omega(n) <= 1, n =
p^e and p^e + 1 = 2p^e: no odd n is unitary_perfect (and n = 1, with
sigma*(1) = 1, is neither).

The equation fixes n once a and q^b are known, and q is fixed by a and one
prime power of n.  Each p^e || n contributes p^e + 1 to sigma*(n), so a is
the sum of v2(p^e + 1) >= 1 over them.  If a = 1, then n = p^e and
3((p^e + 1)/2 + 1) = 2p^e: n = 9.  If a >= 2, 2^a + 1 is odd and divides
2n, so it divides n.  2^a + 1 is a power of 3 only for a = 1 and 3: in
3^k - 1 = 2^a an odd k leaves 2 (mod 4), and an even k makes 3^(k/2) - 1
and 3^(k/2) + 1 powers of two 2 apart, 2 and 4.  So for a >= 2 but 3 take a
prime r != 3 of 2^a + 1 (odd_usp takes the largest) with r^f || 2^a + 1,
and for a = 3 take r = 3, f = 2.  Then r^e || n for some e >= f, and
r^e + 1 divides 2^a * q^b.

r^e + 1 is never a power of two.  For e even it is 2 (mod 4) and above 2.
For e >= 3 odd it is r + 1 times the odd (r^e + 1)/(r + 1) > 1.  For e = 1,
r + 1 = 2^p makes r = 2^p - 1 a Mersenne prime with p prime.  p = 2 gives
r = 3, chosen only for a = 3 and then with e >= 2.  For p >= 3 the order of
2 mod r is p, which is odd; 2^a = -1 (mod r) would make p divide 2a, so
divide a, and then 2^a = 1 (mod r).  So r never divides 2^a + 1.

The odd part of r^e + 1 is therefore q^y with y >= 1: it must be a prime
power, it names q, and b >= y.  The candidates are n = (2^a + 1)(q^b +
1)/2 for each a >= 2 with 2^a + 1 <= n, each e >= f with r^e <= n and each
b >= y: O(log^3 limit) of them.  odd_usp keeps the odd n that r^e divides
with sigma*(n) = 2^a * q^b, from factorize(n); 48 n reach that test up to
10^8 and 68 up to HARD_LIMIT.  It is the equation itself, so the list is
exact, and it never factorizes sigma*(n).  A search of usp over the odd n
merges these hits into their segments like scanned ones.

The sigma classes at even n are listed too.  Write an even n = 2^k * m
with k >= 1 and m odd, and q = 2^(k+1) - 1 >= 3, so sigma(n) = q *
sigma(m).  If n is perfect, q * sigma(m) = 2^(k+1) * m, so q divides m and
sigma(m) = m + m/q; m and m/q are distinct divisors of m, so they are all
of them and m = q is prime.  If n is super perfect and m > 1, sigma(n) has
the distinct divisors q * sigma(m) and sigma(m), so sigma(sigma(n)) >= (q +
1) * sigma(m) = 2^(k+1) * sigma(m) > 2^(k+1) * m = 2n; so m = 1, and
sigma(q) = 2n = q + 1 makes q prime.  With p = k + 1, the even perfect n
are 2^(p-1) * (2^p - 1) and the even super perfect n are 2^(p-1), for each
Mersenne prime 2^p - 1 (Euclid and Euler; Suryanarayana), and conversely
each of these is a hit.  even_sigma lists them p by p through
is_mersenne_prime, O(log limit) tests, and a search over the even n merges
them into their segments like the odd usp hits.

An odd super perfect n has an odd sigma(n) (Kanold).  Suppose sigma(n) =
2^a * m with a >= 1 and m odd, and let q = 2^(a+1) - 1 >= 3.  Then
sigma(sigma(n)) = q * sigma(m) = 2n, so q divides the odd n, and m > 1,
since m = 1 would make 2n = q odd.  So sigma(n)/n = 2^(a+1) * m / (q *
sigma(m)) = ((q + 1)/q) * m/sigma(m) < (q + 1)/q, while the divisor q of n
gives sigma(n)/n >= sigma(q)/q >= (q + 1)/q: a contradiction.  For an odd
prime q, sigma(q^e) is a sum of e + 1 odd terms, odd exactly when e is
even; so an odd n has an odd sigma(n) exactly when it is a square.

Euler's form lists the rest.  Let u be odd with sigma(u) = 2 (mod 4).
Then exactly one factor sigma(q^e) of sigma(u) is even: one prime power
p^k || u has k odd, and u = p^k * s^2 with p not dividing s.  If p = 3
(mod 4), 4 divides p + 1, which divides sigma(p^k) = (1 + p)(1 + p^2 +
... + p^(k-1)); so p = 1 (mod 4), each of the k + 1 terms of sigma(p^k)
is 1 (mod 4), and sigma(p^k) = 2 (mod 4) needs k = 1 (mod 4).  Then u = 1
(mod 4), gcd(p^k, sigma(p^k)) = 1, and 1 < sigma(p^k)/p^k < p/(p - 1) <=
5/4.

Write m for an odd number and u = sigma(m^2), which is odd.  An odd super
perfect n is a square m^2 with sigma(u) = 2m^2 = 2 (mod 4), so u has
Euler's form, u = 1 (mod 4), and u < 2m^2 since sigma(u) > u (u = 1 is no
hit).  An odd perfect n has sigma(n) = 2n = 2 (mod 4), so n = p^k * m^2 in
Euler's form and sigma(p^k) * u = 2 * p^k * m^2.  So p^k divides u, u =
2m^2 * p^k/sigma(p^k) lies in (8m^2/5, 2m^2), and n >= 5m^2.  odd_sigma
sieves u for the odd m <= sqrt(top) and factorizes u only when m^2 is in
range with u = 1 (mod 4) and u < 2m^2, or when 5m^2 <= top and 8m^2 < 5u <
10m^2.  Then m^2 is super perfect exactly when sigma(u) = 2m^2, and p^k *
m^2 is perfect exactly when sigma(p^k) * u = 2 * p^k * m^2, for each p^k
(k <= v_p(u)) with p = k = 1 (mod 4) and p not dividing m.  These are the
defining equations, so the list is exact; it factorizes O(sqrt(limit))
values, and a search of the sigma classes over the odd n merges its hits
like the other lists.

The usp scan looks its second application up.  A flat uint32 table of
sigma* of odd values, at most _TABLE_ENTRIES of them (its length is below),
is built once per run, chunk by chunk, each chunk from one sieve pass:
entry i holds sigma*(2i + 1).  A lookup of m = 2^a * m' with m' odd
multiplies the entry for m' by the 2-part's factor sigma*(2^a), which is
2^a + 1 for a >= 1.  The inequality sigma*(m) >= m + 1 means any n with a
first application above 2n - 1 can be discarded before the second lookup.
A usp candidate's second application is the 2-part's factor times
sigma*(m') by multiplicativity; the factor is odd, so a hit needs it to
divide n.  That prefilter walks the factors, not the n: for each a >= 1
whose factor 2^a + 1 is at most the slice's last n, its multiples are every
factor-th n of the slice, and those among them with v2(first) = a survive,
beside the few odd first applications (factor 1).  Each n has one
v2(first), so this is the prefilter exactly, and it touches about 1.8
slice lengths.  Of the even n up to 4*10^6, 6.8% survive it; only they are
compared with 2n and looked up a second time.  A second application whose
odd part lies past the table (below, and every candidate past a
memory-capped table) is computed by exact factorization.

The table stops at the largest odd part its readers need; take top as the
run's last n.  An even n <= top has its odd part at most top/2, and so does
a usp candidate's first application 2^a * m' with a >= 2, since m' < 2n/4;
so the table holds the odd values up to top/2.  A candidate with a = 0 is
n = 2^b (an odd prime power p^e contributes the even p^e + 1 to
sigma*(n)), and one with a = 1 has a single odd prime power p^e || n, with
p^e = 1 (mod 4) so that p^e + 1 = 2 (mod 4), and its factor sigma*(2) = 3
divides n, so p = 3 and e is even: n = 2^b * 3^(2e).  Only these leave the
table, and their lookups are exact factorizations.

Each search makes one ordered map and runs the table build and the scan
through it: the builtin map in one process, otherwise the map of one fork
process pool of at most os.cpu_count() workers, which yields results in
submission order.  The table lives in one shared anonymous map made before
the pool forks, so the workers fill it in place and then classify blocks
against it; no table chunk travels between processes.

Every hit is recomputed from scratch from its factorization during the
ordered merge, independent of the sieve or the list that produced it, and
odd hits of the doubly-applied unitary class additionally pass the
structural check.  Output order and checkpoint bytes depend only on (limit,
segment_size, classes, parity), never on worker count or interruption
points.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import islice
from math import isqrt
from typing import NamedTuple

import numpy as np

from .arith import (
    Factorization,
    factorize,
    is_mersenne_prime,
    prime_power,
    primes_up_to,
    sigma_from_factorization,
    unitary_sigma,
)
from .sieve import divisor_sum_segment
from .structure import UspStructureVerdict, check_usp_structure


class Variant(NamedTuple):
    """n is a hit when the divisor sum, applied `applications` times, is 2n."""

    name: str
    unitary: bool  # sigma* if True, sigma if False
    applications: int


#: every searchable class, in output order (checkpoint bytes depend on it)
VARIANTS = (
    Variant("usp", unitary=True, applications=2),
    Variant("unitary_perfect", unitary=True, applications=1),
    Variant("super_perfect", unitary=False, applications=2),
    Variant("perfect", unitary=False, applications=1),
)
CLASS_ORDER = tuple(v.name for v in VARIANTS)
_VARIANT_BY_NAME = {v.name: v for v in VARIANTS}

DEFAULT_LIMIT = 10**8
HARD_LIMIT = 10**10
DEFAULT_SEGMENT_SIZE = 1 << 22

CHECKPOINT_MAGIC = "uspsearch-v1"


class CheckpointError(Exception):
    """Raised for unusable checkpoint files (corruption or config mismatch)."""


@dataclass(frozen=True)
class SearchHit:
    n: int
    sigma_star_n: int
    sigma_star_sigma_star_n: int
    classification: str
    parity: str
    structure: UspStructureVerdict | None = None

    def checkpoint_line(self) -> str:
        return (
            f"hit {self.n} {self.sigma_star_n} "
            f"{self.sigma_star_sigma_star_n} {self.classification}"
        )

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "sigma_star": self.sigma_star_n,
                "sigma_star_sigma_star": self.sigma_star_sigma_star_n,
                "classification": self.classification,
                "parity": self.parity,
                "structure": None if self.structure is None else self.structure.to_dict(),
            }
        )


def verify_hit(n: int, classification: str) -> SearchHit:
    """Rebuild a hit from n alone via exact factorization.

    Raises RuntimeError when the claimed classification does not survive
    recomputation; this is the independent second check on every hit.
    """
    variant = _VARIANT_BY_NAME.get(classification)
    if variant is None:
        raise ValueError(f"unknown classification {classification!r}")
    fn = factorize(n)
    s_star = unitary_sigma(fn)
    fs = factorize(s_star)
    ss_star = unitary_sigma(fs)
    # every hit carries sigma*(n) and sigma*(sigma*(n)); reuse those
    # factorizations wherever the variant's own chain passes through them
    factored = {n: fn, s_star: fs}
    value = n
    for _ in range(variant.applications):
        f = factored[value] if value in factored else factorize(value)
        value = _divisor_sum(f, variant.unitary)
    if value != 2 * n:
        raise RuntimeError(f"hit {n} ({classification}) fails exact recomputation")
    structure = None
    if classification == "usp" and n % 2 == 1:
        structure = check_usp_structure(n, fs)
    return SearchHit(
        n, s_star, ss_star, classification,
        "odd" if n % 2 else "even", structure,
    )


def odd_usp(lo: int, hi: int) -> list[int]:
    """The odd usp n in [lo, hi), increasing, listed from (2^a + 1)(q^b + 1)
    = 2n without a sieve (module docstring)."""
    top = hi - 1
    found = {9} if lo <= 9 < hi else set()  # a = 1
    for a in range(2, (top - 1).bit_length()):  # 2^a + 1 <= top
        m = 2**a + 1
        # the largest prime r != 3 of m, with r^f || m; only m = 9 has none
        r, f = max(((p, e) for p, e in factorize(m).entries if p != 3), default=(3, 2))
        re = r**f
        while re <= top:
            odd = (re + 1) // ((re + 1) & -(re + 1))
            qy = prime_power(odd)  # q^y, y >= 1: r^e + 1 is no power of two
            if qy is not None:
                q, y = qy
                qb = q**y
                while (n := m * (qb + 1) // 2) <= top:
                    if (n >= lo and n % 2 and n % re == 0
                            and unitary_sigma(factorize(n)) == (m - 1) * qb):
                        found.add(n)
                    qb *= q
            re *= r
    return sorted(found)


def even_sigma(lo: int, hi: int) -> list[tuple[int, str]]:
    """(n, class) of the even super_perfect n = 2^(p-1) and perfect n =
    2^(p-1) * (2^p - 1) in [lo, hi), 2^p - 1 a Mersenne prime, increasing
    (module docstring)."""
    found = []
    for p in range(2, hi.bit_length() + 1):  # every p with 2^(p-1) < hi
        q = 2**p - 1
        if is_mersenne_prime(q):
            found += [(n, c) for n, c in ((2 ** (p - 1), "super_perfect"),
                                          (2 ** (p - 1) * q, "perfect")) if lo <= n < hi]
    return sorted(found)


def _odd_square_sigmas(last: int) -> np.ndarray:
    """sigma(m^2) of the odd m = 1, 3, ... <= last, at index (m - 1) / 2: each
    odd prime p <= last multiplies the m that p^e divides exactly by
    sigma(p^(2e)) = (p^(2e+1) - 1)/(p - 1)."""
    sums = np.ones((last + 1) // 2, dtype=np.int64)
    for p in primes_up_to(last)[1:]:
        pe, below = p, 1  # p^e, and the sigma(p^(2e-2)) its multiples hold
        while pe <= last:
            # the odd multiples of p^e are every p^e-th odd m from p^e
            here = (pe * pe * p - 1) // (p - 1)
            run = sums[(pe - 1) // 2 :: pe]
            run //= below
            run *= here
            pe, below = pe * p, here
    return sums


def _odd_sigma_candidates(lo: int, hi: int):
    """(n, class, s) for each odd n in [lo, hi) that Euler's form leaves as
    a super_perfect or perfect candidate (module docstring), with s =
    sigma(sigma(n)) or sigma(n): n is a hit exactly when s = 2n."""
    top = hi - 1
    last = isqrt(max(top, 0))  # an empty range, hi < 1, has no candidate
    for m, u in zip(range(1, last + 1, 2), _odd_square_sigmas(last).tolist()):
        m2 = m * m
        square = lo <= m2 and u % 4 == 1 and u < 2 * m2
        euler = 5 * m2 <= top and 8 * m2 < 5 * u < 10 * m2
        if not (square or euler):
            continue
        fu = factorize(u)
        if square:
            yield m2, "super_perfect", sigma_from_factorization(fu)
        if euler:
            for p, e in fu.entries:
                if p % 4 == 1 and m % p:
                    for k in range(1, e + 1, 4):
                        if lo <= (n := p**k * m2) <= top:
                            yield n, "perfect", (p ** (k + 1) - 1) // (p - 1) * u


def odd_sigma(lo: int, hi: int) -> list[tuple[int, str]]:
    """(n, class) of the odd super_perfect and perfect n in [lo, hi),
    increasing, listed from sigma(m^2) over the odd m <= sqrt(hi - 1)
    (module docstring)."""
    return sorted((n, c) for n, c, s in _odd_sigma_candidates(lo, hi) if s == 2 * n)


def _listed(classes, parity: str, lo: int, hi: int) -> list[tuple[int, str]]:
    """(n, class) of the hits in [lo, hi) of the classes at the parity that
    odd_usp and even_sigma list (module docstring)."""
    listed = []
    if "usp" in classes and parity != "even":
        listed += [(n, "usp") for n in odd_usp(lo, hi)]
    if parity != "odd":
        listed += [hit for hit in even_sigma(lo, hi) if hit[1] in classes]
    return listed


@dataclass(frozen=True)
class SearchConfig:
    limit: int
    classes: tuple[str, ...] = ("usp",)
    parity: str = "all"
    segment_size: int = DEFAULT_SEGMENT_SIZE
    workers: int = 1
    checkpoint_path: str | None = None
    resume: bool = False
    max_segments: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.limit <= HARD_LIMIT:
            raise ValueError(f"limit must be in [1, {HARD_LIMIT}], got {self.limit}")
        if self.parity not in ("all", "odd", "even"):
            raise ValueError(f"parity must be all/odd/even, got {self.parity!r}")
        bad = [c for c in self.classes if c not in CLASS_ORDER]
        if bad or not self.classes:
            raise ValueError(f"unknown classes {bad}; choose from {CLASS_ORDER}")
        if self.segment_size < 1024:
            raise ValueError("segment_size must be at least 1024")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_segments is not None and self.max_segments < 0:
            raise ValueError("max_segments must be >= 0")


@dataclass
class SearchResult:
    hits: list[SearchHit]
    completed: bool
    segments_done: int
    total_segments: int
    elapsed: float
    checkpoint_text: str


# ---------------------------------------------------------------------------
# table construction

#: the running search's classes and sigma* table, set by run_search before
#: its pool forks so that the workers inherit them: "table" is one shared
#: uint32 map that every process writes and reads in place
_STATE: dict | None = None

#: odd values per table-build task, and at most n per sieve block of the
#: scan: the sieve's int64 arrays stay in cache, and its Python work per base
#: prime is spread over enough entries
_TABLE_CHUNK = 1 << 18


def _fill_chunk(i: int) -> None:
    table = _STATE["table"]
    end = min(i + _TABLE_CHUNK, table.shape[0])
    lo, hi = 2 * i + 1, 2 * end
    # every chunk ends at or below 2 * _TABLE_ENTRIES = 2^29, where the
    # sieve's sums are uint32 and exact (sieve docstring)
    table[i:end] = divisor_sum_segment(lo, hi)


def _build_table(omap=map) -> np.ndarray:
    """Fill the state's table with sigma*(2i + 1) at index i, one task per
    _TABLE_CHUNK entries run through omap, and return it."""
    table = _STATE["table"]
    # draining the map runs (builtin map) or awaits (pool) every task
    list(omap(_fill_chunk, range(0, table.shape[0], _TABLE_CHUNK)))
    return table


# ---------------------------------------------------------------------------
# segment classification


def _divisor_sum(f: Factorization, unitary: bool) -> int:
    return unitary_sigma(f) if unitary else sigma_from_factorization(f)


def _exact_divisor_sum(m: int) -> int:
    return unitary_sigma(factorize(m))


#: n classified at a time: the lookups' int64 temporaries stay in cache
_SCAN_BLOCK = 1 << 16


def _two_part_factor(low):
    """sigma*(2^a) of low = 2^a, an int or an int64 array: 2^a + 1 for a >=
    1 and 1 for a = 0."""
    return low + (low > 1)


def _split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For values m = 2^a * m' >= 1 with m' odd: the table index (m' - 1) / 2
    of m', and sigma* of the 2-part."""
    low = m & -m  # 2^a
    return m >> np.bitwise_count(low - 1) >> 1, _two_part_factor(low)


def _lookup(table: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma* of the values m >= 1 served by the odd-part table.

    Returns the sums and the mask of values whose odd part the table holds;
    sums outside the mask are meaningless.
    """
    idx, factor = _split(m)
    return table.take(idx, mode="clip") * factor, idx < table.shape[0]


def _progression_lookup(table: np.ndarray, s: int, count: int) -> np.ndarray | None:
    """sigma* of the count values n = s, s + 2, ... served by the odd-part
    table, or None when the table lacks the odd part of one of them.

    The n with v2(n) = a recur every 2^a values, and their odd parts are
    consecutive odd values: one contiguous run of the table, times the
    2-part's factor.
    """
    top = s + 2 * (count - 1)
    sums = np.empty(count, dtype=np.int64)
    for a in range(top.bit_length()):  # 2^a <= top
        low = 1 << a
        offset = (low - s) % (2 * low)  # from s to its first n = 2^a (mod 2^(a+1))
        if offset % 2 or offset // 2 >= count:
            continue  # no n of the progression, or of these count, has v2(n) = a
        i0 = offset // 2
        run = len(range(i0, count, low))
        j0 = (s + 2 * i0) >> (a + 1)  # the table index of its odd part
        if j0 + run > table.shape[0]:
            return None
        # the int64 factor keeps the product out of uint32
        factor = np.int64(_two_part_factor(low))
        np.multiply(table[j0 : j0 + run], factor, out=sums[i0::low])
    return sums


def _prefilter(first: np.ndarray, s: int) -> np.ndarray:
    """The indices i of the n = s + 2i whose first application first[i] =
    sigma*(n) has a 2-part factor dividing n.

    The factor of 2^a is 1 for a = 0, and otherwise the odd 2^a + 1: its
    multiples n are every factor-th value of the progression, among which
    those with v2(first) = a survive.
    """
    top = s + 2 * (first.shape[0] - 1)
    parts = [np.flatnonzero((first & 1) == 1)]
    for a in range(1, top.bit_length()):
        low = 1 << a
        factor = _two_part_factor(low)
        if factor > top:
            break
        i0 = -s * pow(2, -1, factor) % factor  # the first n = 0 (mod factor)
        two_parts = first[i0::factor] & (2 * low - 1)
        parts.append(i0 + factor * np.flatnonzero(two_parts == low))
    return np.concatenate(parts)


class _Block(NamedTuple):
    """A sieve block: the even n = lo, lo + 2, ... < hi."""

    lo: int
    hi: int


def _blocks(classes, parity: str, lo: int, hi: int) -> list[_Block]:
    """The blocks of a run over [lo, hi), sorted by lo: equal blocks of at
    most _TABLE_CHUNK of its even n when it tests a unitary class there,
    otherwise none (module docstring)."""
    if parity == "odd" or not any(_VARIANT_BY_NAME[c].unitary for c in classes):
        return []
    start = lo + lo % 2  # the first even n
    count = len(range(start, hi, 2))
    if not count:
        return []
    # equal blocks: a short last block's arrays would split the memory freed
    # by a full one, and the heap would grow
    parts = -(-count // _TABLE_CHUNK)
    width = 2 * -(-count // parts)
    return [_Block(b, min(hi, b + width)) for b in range(start, hi, width)]


def _classify_segment(block: _Block) -> list[tuple[int, str]]:
    """(n, class) of the hits among the block's n."""
    lo, hi = block
    variants = [v for v in VARIANTS if v.unitary and v.name in _STATE["classes"]]
    table = _STATE["table"]
    hits: list[tuple[int, str]] = []
    # the block's sigma*, sieved at most once and only when a slice needs a
    # first application the table lacks
    sieved = None
    for s in range(lo, hi, 2 * _SCAN_BLOCK):
        n = np.arange(s, min(hi, s + 2 * _SCAN_BLOCK), 2, dtype=np.int64)
        count = n.shape[0]
        first = _progression_lookup(table, s, count)
        if first is None:
            if sieved is None:
                sieved = divisor_sum_segment(lo, hi)
            i = (s - lo) // 2
            # int64 before any product
            first = sieved[i : i + count].astype(np.int64, copy=False)
        for variant in variants:
            if variant.applications == 1:
                good = n[first == 2 * n]
            else:
                # a usp hit needs the odd sigma* of first's 2-part to divide
                # n, and sigma*(m) >= m + 1, so it needs first <= 2n - 1
                # (module docstring)
                idx = _prefilter(first, s)
                mm, nn = first[idx], n[idx]
                keep = mm < 2 * nn
                mm, nn = mm[keep], nn[keep]
                second, inside = _lookup(table, mm)
                for j in np.flatnonzero(~inside):
                    second[j] = _exact_divisor_sum(int(mm[j]))
                good = nn[second == 2 * nn]
            hits.extend((int(x), variant.name) for x in good)
    return hits


# ---------------------------------------------------------------------------
# checkpoints

def render_checkpoint(
    limit: int, segment_size: int, hits_by_segment: list[list[SearchHit]]
) -> str:
    lines = [f"{CHECKPOINT_MAGIC} {limit} {segment_size}"]
    for idx, seg_hits in enumerate(hits_by_segment):
        lines.append(f"seg {idx} {len(seg_hits)}")
        lines.extend(h.checkpoint_line() for h in seg_hits)
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    return body + f"digest {digest}\n"


def parse_checkpoint(text: str) -> tuple[int, int, list[list[SearchHit]]]:
    """Parse and re-verify a checkpoint; CheckpointError for any bad file."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[-1].startswith("digest "):
        raise CheckpointError("missing digest line")
    body = "\n".join(lines[:-1]) + "\n"
    if lines[-1] != f"digest {hashlib.sha256(body.encode()).hexdigest()}":
        raise CheckpointError("digest mismatch; refusing corrupted checkpoint")
    line = lines[0]  # the line being parsed, for error messages
    hits_by_segment: list[list[SearchHit]] = []
    try:
        head = line.split()
        if len(head) != 3 or head[0] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad header {line!r}")
        limit, segment_size = int(head[1]), int(head[2])
        rest = iter(lines[1:-1])
        last = (0, 0)  # the (n, class) key of the previous hit
        for line in rest:
            tag, idx, count = line.split()
            if tag != "seg" or int(idx) != len(hits_by_segment):
                raise CheckpointError(f"unexpected line {line!r}")
            # segment idx holds the n with lo < n <= hi
            lo = len(hits_by_segment) * segment_size
            hi = min(limit, lo + segment_size)
            seg_hits = []
            for line in islice(rest, int(count)):
                _, n, _, _, cls = line.split()
                key = (int(n), CLASS_ORDER.index(cls))
                if not lo < key[0] <= hi or key <= last:
                    # render_checkpoint writes each hit in its segment, in
                    # the merge's order
                    raise CheckpointError(f"hit line {line!r} out of its segment or order")
                last = key
                hit = verify_hit(int(n), cls)
                if hit.checkpoint_line() != line:
                    raise CheckpointError(f"hit line {line!r} fails recomputation")
                seg_hits.append(hit)
            if len(seg_hits) != int(count):
                raise CheckpointError(f"segment {idx} ends before its {count} hit lines")
            hits_by_segment.append(seg_hits)
        return limit, segment_size, hits_by_segment
    except (ValueError, RuntimeError) as exc:
        # unpacking, int() and verify_hit: a body the digest vouches for but
        # that this program did not write
        raise CheckpointError(f"malformed line {line!r}: {exc}") from exc


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        # a failed write or replace leaves no temp file behind
        with suppress(OSError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# orchestration

#: entries of a lookup table at most: 1 GiB of uint32
_TABLE_ENTRIES = 1 << 28


def _table_size(top: int) -> int:
    """Entries of the sigma* table that the blocks of a run whose last n is
    top read (module docstring)."""
    # index i holds 2i + 1, so the odd values up to x take (x + 1) // 2
    # entries: an even n <= top has its odd part at most top // 2
    return min((top // 2 + 1) // 2, _TABLE_ENTRIES)


#: pool tasks in flight per process: enough that a long task at the head of
#: the queue leaves the other processes work
_IN_FLIGHT = 8


@contextmanager
def _ordered_map(processes: int):
    """map, or a map over a fork pool; both yield results in submission order.

    The pool's map keeps a few tasks per process in flight: the executor's
    own map submits every task up front, and each pending task holds about
    2 KiB in this process, some 85 MiB for the 38k blocks of a search over
    all n <= 10^10.
    """
    if processes <= 1:
        yield map
        return

    def omap(fn, *iterables):
        pending = deque()
        try:
            for args in zip(*iterables):
                if len(pending) == _IN_FLIGHT * processes:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, *args))
            while pending:
                yield pending.popleft().result()
        finally:
            # a task's error, or a merge's, ends the map: drop the tasks not started
            for future in pending:
                future.cancel()

    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=processes, mp_context=ctx) as pool:
        yield omap


def _check_resumed(config: SearchConfig, hits_by_segment: list[list[SearchHit]]) -> None:
    """CheckpointError unless the recorded hits could be this run's: each of
    a requested class and parity, and every hit that _listed gives below the
    resume point among them.  A missing scanned hit goes unseen, since the
    header records neither classes nor parity; odd_sigma's hits are not
    checked, since it finds none below HARD_LIMIT and lists from 1 at twice
    the cost of the run's own listing."""
    hits = [h for seg in hits_by_segment for h in seg]
    for h in hits:
        if h.classification not in config.classes or config.parity not in ("all", h.parity):
            raise CheckpointError(
                f"checkpoint holds hit {h.n} ({h.classification}), which a search "
                f"of {', '.join(config.classes)} at parity {config.parity} excludes"
            )
    recorded = {(h.n, h.classification) for h in hits}
    done = min(config.limit + 1, 1 + len(hits_by_segment) * config.segment_size)
    for n, cls in _listed(config.classes, config.parity, 1, done):
        if (n, cls) not in recorded:
            raise CheckpointError(
                f"checkpoint lacks hit {n} ({cls}) of a search of "
                f"{', '.join(config.classes)} at parity {config.parity}"
            )


def run_search(config: SearchConfig) -> SearchResult:
    """Execute a (possibly resumed) search; see module docstring.

    Returns the merged hits for all completed segments.  When max_segments
    stops the run early, completed is False and the checkpoint holds the
    finished prefix.
    """
    global _STATE
    t0 = time.perf_counter()
    starts = range(1, config.limit + 1, config.segment_size)
    total = len(starts)

    hits_by_segment: list[list[SearchHit]] = []
    if config.resume:
        if not config.checkpoint_path or not os.path.exists(config.checkpoint_path):
            raise CheckpointError("resume requested but checkpoint file not found")
        with open(config.checkpoint_path) as fh:
            cp_limit, cp_seg, hits_by_segment = parse_checkpoint(fh.read())
        if (cp_limit, cp_seg) != (config.limit, config.segment_size):
            raise CheckpointError(
                f"checkpoint was written for limit={cp_limit}, "
                f"segment_size={cp_seg}; refusing to mix configurations"
            )
        hits_by_segment = hits_by_segment[:total]
        _check_resumed(config, hits_by_segment)

    todo = starts[len(hits_by_segment) :]
    if config.max_segments is not None:
        todo = todo[: config.max_segments]
    ends = [min(config.limit + 1, lo + config.segment_size) for lo in todo]
    blocks = _blocks(config.classes, config.parity, todo[0], ends[-1]) if todo else []

    text = None  # the checkpoint text last written
    # hits of the returned blocks, and the listed ones, not yet merged
    found = _listed(config.classes, config.parity, todo[0], ends[-1]) if todo else []
    if todo and config.parity != "even" and {"super_perfect", "perfect"} & set(config.classes):
        found += [hit for hit in odd_sigma(todo[0], ends[-1]) if hit[1] in config.classes]
    merged = 0  # segments of todo merged

    def merge_before(bound: int) -> None:
        # merge each segment ending at or before bound: no block still out
        # starts before that end, so all of its hits are found; then write
        # the checkpoint once for all of them, so that the writes grow with
        # the blocks, not with the segments
        nonlocal text, found, merged
        first = merged
        while merged < len(ends) and ends[merged] <= bound:
            end = ends[merged]
            merged += 1
            seg_hits_raw = sorted((h for h in found if h[0] < end),
                                  key=lambda h: (h[0], CLASS_ORDER.index(h[1])))
            found = [h for h in found if h[0] >= end]
            hits_by_segment.append([verify_hit(n, cls) for n, cls in seg_hits_raw])
        if merged > first and config.checkpoint_path:
            text = render_checkpoint(config.limit, config.segment_size, hits_by_segment)
            _write_atomic(config.checkpoint_path, text)

    # a run with no block to scan (max_segments 0, a completed checkpoint, a
    # search of the sigma classes or at parity odd) reads no table, so none
    # is built and no pool is started
    entries = _table_size(ends[-1] - 1) if blocks else 0
    # a process per task at most: a phase of one task gains nothing from a pool
    tasks = max(len(blocks), -(-entries // _TABLE_CHUNK))
    _STATE = {"classes": set(config.classes)}
    if entries:
        # a shared anonymous map, which the forked workers fill in place
        _STATE["table"] = np.ndarray(entries, dtype=np.uint32,
                                     buffer=mmap.mmap(-1, 4 * entries))
    try:
        with _ordered_map(min(config.workers, os.cpu_count() or 1, tasks)) as omap:
            if entries:
                _build_table(omap)
            # after a block, the next one's first n bounds the segments done;
            # after the last, every segment is
            bounds = [block.lo for block in blocks[1:]] + [config.limit + 1]
            for block_hits, bound in zip(omap(_classify_segment, blocks), bounds):
                found.extend(block_hits)
                merge_before(bound)
            merge_before(config.limit + 1)  # every segment, when there is no block
    finally:
        _STATE = None

    if text is None:
        # no checkpoint file, or no segment merged (max_segments 0, a completed
        # resume): the last merge has not written the text already
        text = render_checkpoint(config.limit, config.segment_size, hits_by_segment)
        if config.checkpoint_path:
            _write_atomic(config.checkpoint_path, text)
    return SearchResult(
        hits=[h for seg in hits_by_segment for h in seg],
        completed=len(hits_by_segment) == total,
        segments_done=len(hits_by_segment),
        total_segments=total,
        elapsed=time.perf_counter() - t0,
        checkpoint_text=text,
    )


def find_usp(limit: int, parity: str = "all", **kwargs) -> list[SearchHit]:
    """All n <= limit with the unitary divisor sum applied twice equal to 2n."""
    return run_search(SearchConfig(limit=limit, classes=("usp",), parity=parity, **kwargs)).hits
