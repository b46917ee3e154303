"""Segmented divisor-sum sieves.

A segment is the arithmetic progression lo, lo + step, ... below hi, with
step 1 (every value) or 2 (the values of lo's parity).  Its values are
factored collectively, for one divisor sum (sigma* or sigma) in one pass
over the base primes, into two arrays: the sum, and ``rest``, which holds
the values with their prime parts divided out as they are found.  The pass
has three stages.

1. For each base prime p, every multiple of p divides ``rest`` by p and
   multiplies the sum by sigma(p) = sigma*(p) = p + 1.  Each p^k, k >= 2,
   divides ``rest`` by p once more and is noted with the first entry it
   divides.
2. What ``rest`` keeps is 1 or a single prime r above sqrt(hi), which
   multiplies the sum by r + 1.  ``rest`` is then spent.
3. For every noted p^k, the sum swaps in place the factor of p^(k-1) that
   its entries hold for the factor of p^k: p^k + 1 for sigma*,
   sigma(p^(k-1)) + p^k for sigma.  The swap is an exact division followed
   by a product.

A p prime to step has its multiples of p^k every p^k entries.  At step 2,
p = 2 divides no value from an odd lo; from an even lo every value's 2-part
2^a, ``rest & -rest``, leaves ``rest`` up front in whole-array operations,
and the sum is multiplied by its factor, 2^a + 1 for sigma* or 2^(a+1) - 1
for sigma.  Everything is vectorized with numpy; segments are independent,
so the sieve parallelizes and restarts trivially.

The arrays are uint32 when hi <= 2^29 and int64 otherwise.  uint32 is
exact below 2^29: a value n < 2^29 has at most 9 distinct primes, since
2*3*...*23 = 223092870 and 29 times that passes 2^29, so

    sigma*(n) <= sigma(n) < n * prod(p / (p - 1) for p <= 23) < 6.12 * 2^29 < 2^32.

``rest`` never exceeds n, and no entry of the sum ever exceeds its final
value: before stage 3 it is the product of p + 1 over primes of n, and
both p^e + 1 and sigma(p^e) are at least p + 1; a swap divides before it
multiplies.  Every lookup-table chunk of the search lies below 2^29, so
the table build runs narrow; int64 holds every sum up to MAX_SIEVE_VALUE.
The base primes come from ``arith.primes_up_to``, the one prime sieve.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .arith import primes_up_to

#: hi values beyond this could overflow int64 once multiplied out
MAX_SIEVE_VALUE = 1 << 59

#: hi values up to this have every divisor sum below 2^32 (module docstring)
_UINT32_HI = 1 << 29


def base_primes(bound: int) -> np.ndarray:
    """Primes <= bound as an int64 array."""
    return np.array(primes_up_to(bound), dtype=np.int64)


def _divisor_sum_segment(
    lo: int, hi: int, step: int, primes: np.ndarray, unitary: bool
) -> np.ndarray:
    """sigma*(n) if unitary else sigma(n), for the values n of the segment."""
    dtype = np.uint32 if hi <= _UINT32_HI else np.int64
    count = len(range(lo, hi, step))
    top = lo + step * (count - 1)
    # rest is filled in place by doubling, so no temporary array outgrows it
    rest = np.empty(count, dtype=dtype)
    rest[0] = lo
    done = 1
    while done < count:
        more = min(done, count - done)
        np.add(rest[:more], step * done, out=rest[done : done + more])
        done += more
    low = None
    if step == 2 and lo % 2 == 0:
        # every value is even: its 2-part 2^a = rest & -rest leaves rest at
        # once, and the sum takes its factor of it at the end
        low = -rest
        low &= rest
        rest //= low
    sig = np.ones(count, dtype=dtype)
    powers = []  # (p, p^k, first multiple) for k >= 2
    for p in primes.tolist():
        if p * p > top:
            break
        if step % p == 0:
            continue  # p = 2 at step 2: no value is even, or its 2-part is out
        # the multiples of p^k are the i with lo + step * i = 0 mod p^k; they
        # recur every p^k entries from start
        pk = 1
        while pk * p <= top:
            pk *= p
            start = -lo * pow(step, -1, pk) % pk
            if start >= count:
                break
            rest[start::pk] //= p
            if pk == p:
                sig[start::p] *= p + 1
            else:
                powers.append((p, pk, start))
    # the cofactor is 1 or a single prime r above sqrt(top), with
    # sigma(r) = sigma*(r) = r + 1
    rest += rest > 1
    sig *= rest
    del rest  # spent: its array is freed before the swaps
    if low is not None:
        # sigma*(2^a) = 2^a + 1 or sigma(2^a) = 2^(a+1) - 1, made in low's
        # place, so no factor array sits beside it
        if unitary:
            low += 1
        else:
            low <<= 1
            low -= 1
        sig *= low
    for p, pk, start in powers:
        # sig at a multiple of p^k holds prev, the factor of p^(k-1): divide
        # it out exactly before multiplying by cur, so no entry overshoots
        prev = pk // p + 1 if unitary else (pk - 1) // (p - 1)
        view = sig[start::pk]
        view //= prev
        view *= pk + 1 if unitary else prev + pk
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

    step is 1 (every value) or 2 (the values of lo's parity).  Returns a
    uint32 array when hi <= 2^29 and an int64 one otherwise.
    """
    _check_span(lo, hi, step)
    return _divisor_sum_segment(lo, hi, step, base_primes(isqrt(hi - 1)), unitary)


def sigma_star_segment(lo: int, hi: int) -> np.ndarray:
    """sigma*(n) for n in [lo, hi) as an int64 array."""
    return divisor_sum_segment(lo, hi, unitary=True).astype(np.int64, copy=False)


def sigma_segment(lo: int, hi: int) -> np.ndarray:
    """sigma(n) for n in [lo, hi) as an int64 array."""
    return divisor_sum_segment(lo, hi, unitary=False).astype(np.int64, copy=False)
