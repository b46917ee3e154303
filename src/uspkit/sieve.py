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
lo every value gives up 2 up front (``rest`` is divided by it and ``sig``
multiplied by 3), and the multiples of 2^k recur every 2^(k-1) entries.
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
    sig = np.ones(count, dtype=np.int64)
    for p in primes.tolist():
        if p * p > top:
            break
        if step % p:
            pk, prev = 1, 1
        elif lo % p:
            continue  # p = 2 at an odd lo with step 2: no value is even
        else:
            # p = 2 at an even lo with step 2 divides every value: it leaves
            # rest up front and seeds sig with sigma*(2) = sigma(2) = 3
            pk, prev = 2, 3
            rest //= 2
            sig *= 3
        # with p^j = pk, the multiples of p^k (k > j) are the i with
        # lo/p^j + (step/p^j) * i = 0 mod p^(k-j); they recur every period
        # entries from start.  sig at such a multiple holds prev, the factor
        # of p^(k-1): divide it out exactly before multiplying by cur, so no
        # entry overshoots
        base, stride, period = -lo // pk, step // pk, 1
        while pk * p <= top:
            pk *= p
            period *= p
            start = base * pow(stride, -1, period) % period
            if start >= count:
                break
            rest[start::period] //= p
            cur = pk + 1 if unitary else prev + pk
            view = sig[start::period]
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
