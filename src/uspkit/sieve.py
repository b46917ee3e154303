"""Segmented divisor-sum sieves.

A segment is the arithmetic progression lo, lo + step, ... below hi, with
step 1 (every value) or 2 (the values of lo's parity).  Its values are
factored collectively: for each base prime p, strided views over the
multiples of p, p^2, ... accumulate every entry's p-part, which then
contributes its factor sigma*(p^k) = p^k + 1 or sigma(p^k) = 1 + p + ... +
p^k.  With step 2, p = 2 divides no value (odd lo) or every value (even
lo, whose 2-parts are then taken in one pass).  Whatever remains after all
base primes is either 1 or a single prime above sqrt(hi).  Everything is
vectorized with numpy and int64; segments are independent, so the sieve
parallelizes and restarts trivially.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

#: hi values beyond this could overflow int64 once multiplied out
MAX_SIEVE_VALUE = 1 << 59

# one Eratosthenes sieve, grown on demand; every bound is served by a prefix
_primes = np.empty(0, dtype=np.int64)
_sieved_to = 1


def base_primes(bound: int) -> np.ndarray:
    """Primes <= bound as an int64 array."""
    global _primes, _sieved_to
    if bound > _sieved_to:
        # at least double, so a run of growing bounds re-sieves O(log) times
        _sieved_to = max(bound, 2 * _sieved_to)
        flags = np.ones(_sieved_to + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, isqrt(_sieved_to) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        _primes = np.nonzero(flags)[0].astype(np.int64)
    return _primes[: np.searchsorted(_primes, bound, side="right")]


def _divisor_sum_segment(
    lo: int, hi: int, step: int, primes: np.ndarray, unitary: bool
) -> np.ndarray:
    rest = np.arange(lo, hi, step, dtype=np.int64)
    count = rest.shape[0]
    top = int(rest[-1])
    # found is the product of the prime parts so far; p = 2 is skipped below
    # with step 2, so an even progression starts from its 2-parts 2^a
    if step == 2 and lo % 2 == 0:
        found = rest & -rest
        sig = found + 1 if unitary else 2 * found - 1
    else:
        sig = np.ones(count, dtype=np.int64)
        found = np.ones(count, dtype=np.int64)
    # scratch, read only at multiples of the current prime, each of which is
    # assigned afresh before it is read
    part = np.empty(count, dtype=np.int64)  # p-part
    part_sum = None if unitary else np.empty(count, dtype=np.int64)  # sigma(p-part)
    for p in primes.tolist():
        if p * p > top:
            break
        if step % p == 0:
            continue  # p = 2 with step 2: every 2-part is already in found
        # index of the first multiple of pk in the progression; multiples of
        # pk then recur every pk entries because step is prime to p
        pk = p
        start = -lo * pow(step, -1, pk) % pk
        if start >= count:
            continue
        part[start::p] = p
        if part_sum is not None:
            part_sum[start::p] = p + 1
        while pk * p <= top:
            pk *= p
            start_k = -lo * pow(step, -1, pk) % pk
            if start_k >= count:
                break
            part[start_k::pk] *= p
            if part_sum is not None:
                part_sum[start_k::pk] += part[start_k::pk]
        view = part[start::p]
        found[start::p] *= view
        if part_sum is None:
            view += 1  # sigma*(p^k) = p^k + 1
            sig[start::p] *= view
        else:
            sig[start::p] *= part_sum[start::p]
    # the cofactor is 1 or a single prime q above sqrt(top), with
    # sigma(q) = sigma*(q) = q + 1
    rest //= found
    rest += rest > 1
    sig *= rest
    return sig


def _check_span(lo: int, hi: int, step: int) -> None:
    if lo < 1 or hi <= lo:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi > MAX_SIEVE_VALUE:
        raise ValueError(f"hi={hi} exceeds the sieve's overflow-safe range")
    if step not in (1, 2):
        raise ValueError(f"need step 1 or 2, got step={step}")


def divisor_sum_segment(lo: int, hi: int, unitary: bool, step: int = 1) -> np.ndarray:
    """sigma*(n) if unitary else sigma(n), for n = lo, lo + step, ... < hi.

    step is 1 (every value) or 2 (the values of lo's parity).  Returns an
    int64 array.
    """
    _check_span(lo, hi, step)
    return _divisor_sum_segment(lo, hi, step, base_primes(isqrt(hi - 1)), unitary)


def sigma_star_segment(lo: int, hi: int) -> np.ndarray:
    """sigma*(n) for n in [lo, hi) as an int64 array."""
    return divisor_sum_segment(lo, hi, unitary=True)


def sigma_segment(lo: int, hi: int) -> np.ndarray:
    """sigma(n) for n in [lo, hi) as an int64 array."""
    return divisor_sum_segment(lo, hi, unitary=False)
