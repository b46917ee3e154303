"""Exact integer arithmetic: primality, factorization, prime-power tests,
divisor sums and divisor lists, and multiplicative orders.

Everything here is pure, deterministic, and total on naturals up to
``MAX_NATURAL``.  Larger inputs are rejected rather than answered
heuristically: the Miller-Rabin witness set below is only proven exhaustive
for inputs under 2**64.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, takewhile
from math import gcd, isqrt, prod

#: Largest input accepted by the primality/factorization routines.  The
#: deterministic witness set is proven complete for all n < 2**64.
MAX_NATURAL = 2**64 - 1

# Witnesses making Miller-Rabin deterministic for every n < 2**64
# (Sinclair's seven-witness set).
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_TRIAL_BOUND = 10_000


# one Eratosthenes sieve, grown on demand; every bound is served by a prefix
_primes: list[int] = []
_sieved_to = 1

#: bytes.translate table that turns a composite flag into a prime flag
_FLIP = bytes([1, 0]) + bytes(254)


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending, as Python ints (so p**e never wraps)."""
    global _primes, _sieved_to
    if bound > _sieved_to:
        # at least double, so a run of growing bounds re-sieves O(log) times;
        # the cache moves only once the new sieve exists, so a failed
        # allocation leaves it as it was
        top = max(bound, 2 * _sieved_to)
        # composite[i] flags 2i + 1, odd values only, with 1 flagged too.  A
        # zeroed bytearray(size) refuses an impossible size with a clean
        # MemoryError, which a repeated one-byte pattern does not on CPython
        # 3.11
        size = (top + 1) // 2
        composite = bytearray(size)
        composite[0] = 1
        for i in range(1, (isqrt(top) + 1) // 2):
            if not composite[i]:
                p = 2 * i + 1
                start = p * p // 2
                composite[start::p] = b"\x01" * ((size - 1 - start) // p + 1)
        odd = compress(range(1, top + 1, 2), composite.translate(_FLIP))
        _primes, _sieved_to = [2, *odd], top
    return _primes[: bisect_right(_primes, bound)]


_SMALL_PRIMES: tuple[int, ...] = tuple(primes_up_to(_TRIAL_BOUND))
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)


def _band(lo: int, hi: int) -> tuple[tuple[int, ...], int, int]:
    """(primes, product, square): the primes in [lo, hi), ascending, their
    product and hi**2.  gcd(m, product) is the product of m's distinct
    primes in the band, and an m > 1 with no prime below hi that is smaller
    than square is prime."""
    primes = tuple(p for p in _SMALL_PRIMES if lo <= p < hi)
    return primes, prod(primes), hi * hi


#: the primes below 10**4 in three bands of 25, 143 and 1,061 primes, whose
#: products have 121, 1,259 and 12,898 bits: a value with no prime below 100
#: or 1000 that is small enough is settled before the larger gcds
_BANDS = (_band(2, 100), _band(100, 1000), _band(1000, _TRIAL_BOUND))

#: Miller-Rabin verdicts kept, so that a prime that _split or prime_power
#: has just proved costs one lookup when Factorization or TwoAQB checks it
#: again.  A number below 2**64 has at most 15 distinct primes; the bound
#: keeps the cache's memory fixed however many numbers a process tests.
_MR_CACHE_SIZE = 64


def _check_natural(n: int, name: str = "n") -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{name} must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")
    if n > MAX_NATURAL:
        raise ValueError(f"{name}={n} exceeds the supported range (2**64 - 1)")


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all 0 <= n <= MAX_NATURAL.

    n below 10**4 is looked up in the table of primes there.  A larger n
    goes to Miller-Rabin, whose _MR_CACHE_SIZE most recent verdicts are
    cached.
    The cache is keyed only after the range check, which refuses bool:
    True equals 1 and hashes alike, so a cache in front of the check could
    answer is_prime(True) from an entry made for an int equal to 1 instead
    of raising TypeError.
    """
    _check_natural(n)
    if n < _TRIAL_BOUND:
        return n in _SMALL_PRIME_SET
    return _miller_rabin(n)


@lru_cache(maxsize=_MR_CACHE_SIZE)
def _miller_rabin(n: int) -> bool:
    """Primality of 10**4 <= n <= MAX_NATURAL by the deterministic witnesses."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization: entries are (prime, exponent) with primes
    strictly increasing and every exponent >= 1; the empty tuple encodes 1."""

    entries: tuple[tuple[int, int], ...]
    value: int

    def __post_init__(self) -> None:
        prev = 1
        prod = 1
        for p, e in self.entries:
            if p <= prev:
                raise ValueError(f"primes out of order in {self.entries}")
            if e < 1:
                raise ValueError(f"zero exponent for prime {p}")
            # an int below 10**4 is looked up; any other p, a float among
            # them, goes to is_prime, which refuses what is no natural
            small = type(p) is int and p < _TRIAL_BOUND
            if not (p in _SMALL_PRIME_SET if small else is_prime(p)):
                raise ValueError(f"{p} is not prime")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"entries multiply to {prod}, not {self.value}")


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n with no factor <= _TRIAL_BOUND.

    Brent's cycle-finding variant of Pollard rho.  The parameter schedule is
    fixed so factorizations are reproducible run to run.
    """
    for c in range(1, 1000):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"cycle search failed to split {n}")


def _split(n: int, counts: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        counts[n] = counts.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _split(d, counts)
    _split(n // d, counts)


def _band_primes_of(g: int, primes: tuple[int, ...]) -> Iterator[int]:
    """The primes of g, ascending, for g > 1 a product of distinct primes
    of one band: trial division by the band's primes until the cofactor is
    a prime, which it is once the next prime's square exceeds it."""
    for p in primes:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            yield p
            if g == 1:
                return
    yield g


def factorize(n: int) -> Factorization:
    """Canonical Factorization of n >= 1.

    The primes below 10**4 are taken band by band, [2, 100), [100, 1000)
    and [1000, 10**4): one gcd with a band's product finds n's primes
    there, and only those are divided out.  Once the cofactor has no prime
    below a band's upper edge B and is below B**2, it is 1 or a prime and
    the factorization is complete.  A cofactor of 10**8 or more that no
    band settles goes to Brent rho, each claimed prime confirmed by
    is_prime.
    """
    _check_natural(n)
    if n == 0:
        raise ValueError("0 has no factorization")
    counts: dict[int, int] = {}
    m = n
    for primes, product, square in _BANDS:
        g = gcd(m, product)
        if g > 1:
            for p in _band_primes_of(g, primes):
                m //= p
                e = 1
                while m % p == 0:
                    m //= p
                    e += 1
                counts[p] = e
        if m < square:
            # 1 or a prime larger than every prime found, so in order
            if m > 1:
                counts[m] = 1
            return Factorization(tuple(counts.items()), n)
    _split(m, counts)
    return Factorization(tuple(sorted(counts.items())), n)


#: prime exponents k with (10**4)**k <= MAX_NATURAL: a perfect power in
#: range with no prime below 10**4 is a perfect k-th power for one of them
_ROOT_EXPONENTS: tuple[int, ...] = tuple(
    takewhile(lambda k: _TRIAL_BOUND**k <= MAX_NATURAL, _SMALL_PRIMES)
)


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1: the float root corrected exactly."""
    if k == 2:
        return isqrt(n)
    r = int(n ** (1.0 / k))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def prime_power(n: int) -> tuple[int, int] | None:
    """(q, b) with n = q**b, q prime and b >= 1, or None if n is no prime power.

    One gcd per band of the primes below 10**4, in the order factorize
    takes them, settles every n with a prime there: two primes in one band
    rule n out, and one must be the whole of n.  An n with no prime below a
    band's upper edge B and below B**2 is 1 or prime.  A larger n with no
    prime below 10**4 loses perfect k-th powers for prime k, ascending,
    while (10**4)**k <= n; the remaining base is a prime power only if it
    is prime, which is_prime decides exactly in range.  Refuses what
    factorize refuses.
    """
    _check_natural(n)
    if n == 0:
        raise ValueError("0 has no factorization")
    for _, product, square in _BANDS:
        g = gcd(n, product)
        if g > 1:
            if g not in _SMALL_PRIME_SET:
                return None
            b = 0
            while n % g == 0:
                n //= g
                b += 1
            return (g, b) if n == 1 else None
        if n < square:
            return (n, 1) if n > 1 else None
    b = 1
    for k in _ROOT_EXPONENTS:
        if _TRIAL_BOUND**k > n:
            break
        r = _iroot(n, k)
        while r**k == n:  # a k-th root that is itself a k-th power
            n, b = r, b * k
            r = _iroot(n, k)
    return (n, b) if is_prime(n) else None


def unitary_sigma(f: Factorization) -> int:
    """Sum of unitary divisors: the product of p**e + 1 over the entries."""
    total = 1
    for p, e in f.entries:
        total *= p**e + 1
    if total > MAX_NATURAL**2:
        # never silently wrap or hand a value the rest of the toolkit
        # cannot consume
        raise OverflowError(f"unitary divisor sum of {f.value} out of range")
    return total


def sigma_from_factorization(f: Factorization) -> int:
    """Ordinary divisor sum: the product of (p**(e+1) - 1) / (p - 1)."""
    total = 1
    for p, e in f.entries:
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


def divisors(f: Factorization) -> list[int]:
    """Sorted list of all d | n; length is the product of e + 1."""
    divs = [1]
    for p, e in f.entries:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def unitary_divisors(f: Factorization) -> list[int]:
    """Sorted list of all d | n with gcd(d, n/d) = 1; length is 2**omega(n)."""
    divs = [1]
    for p, e in f.entries:
        pe = p**e
        divs += [d * pe for d in divs]
    return sorted(divs)


def ord_mod(p: int, q: int) -> int:
    """Least d >= 1 with p**d = 1 (mod q), q prime not dividing p.

    Starts from q - 1 and strips prime factors while the power stays 1, so
    the result divides q - 1 by construction.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if p % q == 0:
        raise ValueError(f"{q} divides {p}; order undefined")
    d = q - 1
    for r, _ in factorize(q - 1).entries:
        while d % r == 0 and pow(p, d // r, q) == 1:
            d //= r
    return d


def is_mersenne_prime(p: int) -> bool:
    """True iff p is prime and p + 1 is a power of two."""
    _check_natural(p, "p")
    return p >= 2 and (p + 1) & p == 0 and is_prime(p)
