"""Segmented divisor-sum sieves.

Values in a segment [lo, hi) are factored collectively: for each base prime
p and each power p^k, the entries whose p-part is exactly p^k pick up the
multiplicative factor for p^k, and whatever remains after all base primes is
either 1 or a single large prime.  Everything is vectorized with numpy and
int64; segments are independent, so the sieve parallelizes and restarts
trivially.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

#: hi values beyond this could overflow int64 once multiplied out
MAX_SIEVE_VALUE = 1 << 59

_prime_cache: dict[int, np.ndarray] = {}


def base_primes(bound: int) -> np.ndarray:
    """Primes <= bound as an int64 array."""
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    if bound not in _prime_cache:
        flags = np.ones(bound + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, isqrt(bound) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        _prime_cache[bound] = np.nonzero(flags)[0].astype(np.int64)
    return _prime_cache[bound]


def _divisor_sum_segment(
    lo: int, hi: int, primes: np.ndarray, unitary: bool
) -> np.ndarray:
    sig = np.ones(hi - lo, dtype=np.int64)
    rem = np.arange(lo, hi, dtype=np.int64)
    top = hi - 1
    for p in primes:
        p = int(p)
        if p * p > top:
            break
        pk = p
        while pk <= top:
            pkp = pk * p
            start = ((lo + pk - 1) // pk) * pk
            if start > top:
                break
            idx = np.arange(start - lo, hi - lo, pk)
            # drop entries divisible by the next power; they get their
            # factor at a later pass
            exact = np.ones(idx.shape[0], dtype=bool)
            start2 = ((lo + pkp - 1) // pkp) * pkp
            if start2 <= top:
                exact[(start2 - start) // pk :: p] = False
            sel = idx[exact]
            sig[sel] *= pk + 1 if unitary else (pkp - 1) // (p - 1)
            rem[sel] //= pk
            pk = pkp
    # leftovers are single primes above sqrt(hi)
    left = rem > 1
    sig[left] *= rem[left] + 1
    return sig


def _check_span(lo: int, hi: int) -> None:
    if lo < 1 or hi <= lo:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi > MAX_SIEVE_VALUE:
        raise ValueError(f"hi={hi} exceeds the sieve's overflow-safe range")


def divisor_sum_segment(lo: int, hi: int, unitary: bool) -> np.ndarray:
    """sigma*(n) if unitary else sigma(n), for n in [lo, hi), as an int64 array."""
    _check_span(lo, hi)
    return _divisor_sum_segment(lo, hi, base_primes(isqrt(hi - 1)), unitary)


def sigma_star_segment(lo: int, hi: int) -> np.ndarray:
    """sigma*(n) for n in [lo, hi) as an int64 array."""
    return divisor_sum_segment(lo, hi, unitary=True)


def sigma_segment(lo: int, hi: int) -> np.ndarray:
    """sigma(n) for n in [lo, hi) as an int64 array."""
    return divisor_sum_segment(lo, hi, unitary=False)
