"""Segmented divisor-sum sieves.

A segment is the arithmetic progression lo, lo + step, ... below hi, with
step 1 (every value) or 2 (the values of lo's parity).  Its values are
factored collectively, for every divisor sum wanted (sigma*, sigma or
both) in one pass over the base primes.  The sums are the rows of one
(sums, count) buffer, returned transposed so that each sum is a contiguous
column.  ``rest`` holds the values with their prime parts divided out as
they are found; it sits in the last row when there are several sums, and in
an array of its own otherwise.  The pass has three stages.

1. For each base prime p, every multiple of p divides ``rest`` by p and
   multiplies one shared product, in the first row, by sigma(p) =
   sigma*(p) = p + 1: the k = 1 step is the same for both sums, so it is
   done once.  Each p^k, k >= 2, divides ``rest`` by p once more and is
   noted with the first entry it divides.
2. What ``rest`` keeps is 1 or a single prime r above sqrt(hi), which
   multiplies the shared product by r + 1.  ``rest`` is then spent, and the
   shared product is copied into every other row.
3. Each sum swaps in place, for every noted p^k, the factor of p^(k-1)
   that its entries hold for the factor of p^k: p^k + 1 for sigma*,
   sigma(p^(k-1)) + p^k for sigma.  The swap is an exact division followed
   by a product.

A p prime to step has its multiples of p^k every p^k entries.  At step 2,
p = 2 divides no value from an odd lo; from an even lo every value's 2-part
2^a, ``rest & -rest``, leaves ``rest`` up front in whole-array operations,
and each sum is multiplied by its factor, 2^a + 1 for sigma* or 2^(a+1) - 1
for sigma.  Everything is vectorized with numpy; segments are independent,
so the sieve parallelizes and restarts trivially.

The arrays are uint32 when hi <= 2^29 and int64 otherwise.  uint32 is
exact below 2^29: a value n < 2^29 has at most 9 distinct primes, since
2*3*...*23 = 223092870 and 29 times that passes 2^29, so

    sigma*(n) <= sigma(n) < n * prod(p / (p - 1) for p <= 23) < 6.12 * 2^29 < 2^32.

``rest`` never exceeds n, and no entry of a sum ever exceeds its final
value: the shared product is the product of p + 1 over primes of n, and
both p^e + 1 and sigma(p^e) are at least p + 1; a swap divides before it
multiplies.  Every lookup-table chunk of the search lies below 2^29, so
the table build runs narrow; int64 holds every sum up to MAX_SIEVE_VALUE.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

#: hi values beyond this could overflow int64 once multiplied out
MAX_SIEVE_VALUE = 1 << 59

#: hi values up to this have every divisor sum below 2^32 (module docstring)
_UINT32_HI = 1 << 29

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
    lo: int, hi: int, step: int, primes: np.ndarray, sums: tuple[bool, ...]
) -> np.ndarray:
    """Column j holds sigma*(n) if sums[j] else sigma(n), for the count
    values n of the segment: shape (count, len(sums)), each column
    contiguous."""
    dtype = np.uint32 if hi <= _UINT32_HI else np.int64
    count = len(range(lo, hi, step))
    top = lo + step * (count - 1)
    out = np.empty((len(sums), count), dtype=dtype)
    # rest sits in the last row when another row holds the shared product,
    # which is copied over it once rest is spent; it is filled in place by
    # doubling, so no temporary array outgrows a row
    rest = out[-1] if len(sums) > 1 else np.empty(count, dtype=dtype)
    rest[0] = lo
    done = 1
    while done < count:
        more = min(done, count - done)
        np.add(rest[:more], step * done, out=rest[done : done + more])
        done += more
    low = None
    if step == 2 and lo % 2 == 0:
        # every value is even: its 2-part 2^a = rest & -rest leaves rest at
        # once, and each sum takes its factor of it at the end
        low = -rest
        low &= rest
        rest //= low
    shared = out[0]
    shared.fill(1)
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
                shared[start::p] *= p + 1
            else:
                powers.append((p, pk, start))
    # the cofactor is 1 or a single prime r above sqrt(top), with
    # sigma(r) = sigma*(r) = r + 1
    rest += rest > 1
    shared *= rest
    del rest  # spent: its row takes the shared product, or its array is freed
    out[1:] = shared
    for sig, unitary in zip(out, sums):
        if low is not None:
            # sigma*(2^a) = 2^a + 1 or sigma(2^a) = 2^(a+1) - 1, made in
            # low's place and undone after, so no factor array sits beside it
            if unitary:
                low += 1
                sig *= low
                low -= 1
            else:
                low <<= 1
                low -= 1
                sig *= low
                low += 1
                low >>= 1
        for p, pk, start in powers:
            # sig at a multiple of p^k holds prev, the factor of p^(k-1):
            # divide it out exactly before multiplying by cur, so no entry
            # overshoots
            prev = pk // p + 1 if unitary else (pk - 1) // (p - 1)
            view = sig[start::pk]
            view //= prev
            view *= pk + 1 if unitary else prev + pk
    return out.T


def _check_span(lo: int, hi: int, step: int) -> None:
    if lo < 1 or hi <= lo:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi > MAX_SIEVE_VALUE:
        raise ValueError(f"hi={hi} exceeds the sieve's overflow-safe range")
    if step not in (1, 2):
        raise ValueError(f"need step 1 or 2, got step={step}")


def divisor_sum_segment(
    lo: int, hi: int, unitary: bool | tuple[bool, ...], step: int = 1
) -> np.ndarray:
    """sigma*(n) if unitary else sigma(n), for n = lo, lo + step, ... < hi.

    step is 1 (every value) or 2 (the values of lo's parity).  For one bool
    unitary, returns an int64 array.  For a tuple of them, returns every
    sum from one pass: shape (count, len(unitary)), column j holding the sum
    unitary[j], uint32 when hi <= 2^29 and int64 otherwise.
    """
    _check_span(lo, hi, step)
    primes = base_primes(isqrt(hi - 1))
    if isinstance(unitary, tuple):
        return _divisor_sum_segment(lo, hi, step, primes, unitary)
    sums = _divisor_sum_segment(lo, hi, step, primes, (unitary,))
    return sums[:, 0].astype(np.int64, copy=False)


def sigma_star_segment(lo: int, hi: int) -> np.ndarray:
    """sigma*(n) for n in [lo, hi) as an int64 array."""
    return divisor_sum_segment(lo, hi, unitary=True)


def sigma_segment(lo: int, hi: int) -> np.ndarray:
    """sigma(n) for n in [lo, hi) as an int64 array."""
    return divisor_sum_segment(lo, hi, unitary=False)
