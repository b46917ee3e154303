"""Segmented sieve of the unitary divisor sum sigma*.

A segment is the values of one parity, lo, lo + 2, ... below hi.  Its
values are factored collectively, for sigma* in one pass over the base
primes, into two arrays: the sum, and ``rest``, which holds the values with
their prime parts divided out as they are found.  The pass has two stages.

1. For each odd base prime p and each k >= 1, every multiple of p^k divides
   ``rest`` by p, and the sum swaps in place p^(k-1) + 1, the factor that
   the multiples of p^(k-1) hold (none for k = 1), for p^k + 1.  The swap
   is an exact division followed by a product.
2. What ``rest`` keeps is 1 or a single prime r above sqrt(hi), which
   multiplies the sum by r + 1.

An odd p has its multiples of p^k every p^k entries.  p = 2 divides no
value from an odd lo; from an even lo every value's 2-part 2^a,
``rest & -rest``, leaves ``rest`` up front in whole-array operations, and
the sum is multiplied by its factor 2^a + 1.  Everything is vectorized with
numpy; segments are independent, so the sieve parallelizes and restarts
trivially.

The arrays are uint32 when hi <= 2^29 and int64 otherwise.  uint32 is
exact below 2^29: a value n < 2^29 has at most 9 distinct primes, since
2*3*...*23 = 223092870 and 29 times that passes 2^29, so

    sigma*(n) <= sigma(n) < n * prod(p / (p - 1) for p <= 23) < 6.12 * 2^29 < 2^32.

``rest`` never exceeds n, and at every moment each entry of the sum is a
product of factors no larger than their final values: the factor p^k + 1
for a p^k dividing n is at most p^e + 1 for the p^e exactly dividing n,
and a swap divides before it multiplies.  Every lookup-table chunk of the
search lies below 2^29, so the table build runs narrow, and the search's
scan takes sum_dtype of a block's hi for its own arrays; int64 holds every
sum up to MAX_SIEVE_VALUE.
The base primes come from ``arith.primes_up_to``, the one prime sieve.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .arith import primes_up_to

#: hi values beyond this could overflow int64 once multiplied out
MAX_SIEVE_VALUE = 1 << 59

#: hi values up to this have every sigma* below 2^32 (module docstring)
_UINT32_HI = 1 << 29


def base_primes(bound: int) -> np.ndarray:
    """Primes <= bound as an int64 array."""
    return np.array(primes_up_to(bound), dtype=np.int64)


def sum_dtype(hi: int) -> type:
    """The dtype that holds sigma* of every n < hi exactly: uint32 when hi <=
    2^29 (module docstring), int64 otherwise."""
    return np.uint32 if hi <= _UINT32_HI else np.int64


def _divisor_sum_segment(
    lo: int, hi: int, primes: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """sigma*(n) for the values n = lo, lo + 2, ... < hi, written into out
    when given."""
    dtype = sum_dtype(hi)
    rest = np.arange(lo, hi, 2, dtype=dtype)
    count = rest.shape[0]
    top = lo + 2 * (count - 1)
    low = None
    if lo % 2 == 0:
        # every value is even: its 2-part 2^a = rest & -rest leaves rest at
        # once, and the sum takes its factor of it at the end
        low = -rest
        low &= rest
        rest //= low
    sig = np.empty(count, dtype=dtype) if out is None else out
    sig.fill(1)
    for p in primes.tolist():
        if p * p > top:
            break
        if p == 2:
            continue  # no value is even, or its 2-part is out
        # the multiples of p^k are the i with lo + 2i = 0 mod p^k; they
        # recur every p^k entries from start
        pk = 1
        while pk * p <= top:
            pk *= p
            start = -lo * pow(2, -1, pk) % pk
            if start >= count:
                break
            rest[start::pk] //= p
            # swap p^(k-1) + 1 for p^k + 1, dividing first so that no entry
            # overshoots
            view = sig[start::pk]
            if pk > p:
                view //= pk // p + 1
            view *= pk + 1
    # the cofactor is 1 or a single prime r above sqrt(top), with
    # sigma*(r) = r + 1
    rest += rest > 1
    sig *= rest
    del rest  # spent: its array is freed before the 2-part's factor
    if low is not None:
        # sigma*(2^a) = 2^a + 1, made in low's place, so no factor array
        # sits beside it
        low += 1
        sig *= low
    return sig


def _check_span(lo: int, hi: int) -> None:
    if lo < 1 or hi <= lo:
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi > MAX_SIEVE_VALUE:
        raise ValueError(f"hi={hi} exceeds the sieve's overflow-safe range")


def divisor_sum_segment(lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """sigma*(n) for n = lo, lo + 2, ... < hi, the values of lo's parity.

    Returns an array of sum_dtype(hi): uint32 when hi <= 2^29 and int64
    otherwise.  Given out, an array of that dtype with one entry per value,
    the sums are sieved in it in place and out is returned.
    """
    _check_span(lo, hi)
    if out is not None:
        count = len(range(lo, hi, 2))
        if out.shape != (count,) or out.dtype != sum_dtype(hi):
            raise ValueError(
                f"out must hold {count} values of {np.dtype(sum_dtype(hi))}, "
                f"got shape {out.shape} of {out.dtype}"
            )
    return _divisor_sum_segment(lo, hi, base_primes(isqrt(hi - 1)), out)
