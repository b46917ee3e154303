"""Segmented divisor-sum sieves.

A segment is the arithmetic progression lo, lo + step, ... below hi, with
step 1 (every value) or 2 (the values of lo's parity).  Its values are
factored collectively in two arrays: ``rest``, the values with their prime
parts divided out as they are found, and ``sig``, the product of those
parts' factors.  For each base prime p, every multiple of p divides
``rest`` by p and multiplies ``sig`` by sigma(p) = sigma*(p) = p + 1.
Then, for k = 2, 3, ..., every multiple of p^k divides ``rest`` by p once
more and swaps in place the factor of p^(k-1) that ``sig`` holds for the
factor of p^k: p^k + 1 for sigma*, sigma(p^(k-1)) + p^k for sigma.  The
swap is an exact division followed by a product, so no entry ever exceeds
its final sum.  A p prime to step has its multiples of p^k every p^k
entries.  At step 2, p = 2 divides no value from an odd lo; from an even
lo every value's 2-part 2^a, ``rest & -rest``, leaves ``rest`` up front in
whole-array operations, and ``sig`` starts at its factor, 2^a + 1 for
sigma* or 2^(a+1) - 1 for sigma.
What ``rest`` keeps after all base primes is 1 or a single prime r above
sqrt(hi), which contributes r + 1.  Everything is vectorized with numpy
and int64; segments are independent, so the sieve parallelizes and
restarts trivially.
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
        # at least double, so a run of growing bounds re-sieves O(log) times;
        # the cache moves only once the new sieve exists, so a failed
        # allocation leaves it as it was
        top = max(bound, 2 * _sieved_to)
        flags = np.ones(top + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, isqrt(top) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        _primes, _sieved_to = np.nonzero(flags)[0].astype(np.int64), top
    return _primes[: np.searchsorted(_primes, bound, side="right")]


def _divisor_sum_segment(
    lo: int, hi: int, step: int, primes: np.ndarray, unitary: bool
) -> np.ndarray:
    rest = np.arange(lo, hi, step, dtype=np.int64)
    count = rest.shape[0]
    top = int(rest[-1])
    if step == 2 and lo % 2 == 0:
        # every value is even: its 2-part 2^a = rest & -rest leaves rest at
        # once and seeds sig with sigma*(2^a) = 2^a + 1 or sigma(2^a) =
        # 2^(a+1) - 1
        sig = -rest
        sig &= rest
        rest //= sig
        if unitary:
            sig += 1
        else:
            sig *= 2
            sig -= 1
    else:
        sig = np.ones(count, dtype=np.int64)
    for p in primes.tolist():
        if p * p > top:
            break
        if step % p == 0:
            continue  # p = 2 at step 2: no value is even, or its 2-part is out
        # the multiples of p^k are the i with lo + step * i = 0 mod p^k; they
        # recur every p^k entries from start.  sig at such a multiple holds
        # prev, the factor of p^(k-1): divide it out exactly before
        # multiplying by cur, so no entry overshoots
        pk, prev = 1, 1
        while pk * p <= top:
            pk *= p
            start = -lo * pow(step, -1, pk) % pk
            if start >= count:
                break
            rest[start::pk] //= p
            cur = pk + 1 if unitary else prev + pk
            view = sig[start::pk]
            if prev > 1:
                view //= prev
            view *= cur
            prev = cur
    # the cofactor is 1 or a single prime r above sqrt(top), with
    # sigma(r) = sigma*(r) = r + 1
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
