"""Exact integer arithmetic: primality, factorization, prime-power tests,
divisor sums and divisor lists, valuations, multiplicative orders, and
quadratic symbols.

Everything here is pure, deterministic, and total on naturals up to
``MAX_NATURAL``.  Larger inputs are rejected rather than answered
heuristically: the Miller-Rabin witness set below is only proven exhaustive
for inputs under 2**64.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from math import gcd, isqrt

from .sieve import base_primes

#: Largest input accepted by the primality/factorization routines.  The
#: deterministic witness set is proven complete for all n < 2**64.
MAX_NATURAL = 2**64 - 1

# Witnesses making Miller-Rabin deterministic for every n < 2**64
# (Sinclair's seven-witness set).
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_TRIAL_BOUND = 10_000


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending, as Python ints (so p**e never wraps)."""
    return base_primes(bound).tolist()


_SMALL_PRIMES: tuple[int, ...] = tuple(primes_up_to(_TRIAL_BOUND))


def _check_natural(n: int, name: str = "n") -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{name} must be an int, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")
    if n > MAX_NATURAL:
        raise ValueError(f"{name}={n} exceeds the supported range (2**64 - 1)")


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all 0 <= n <= MAX_NATURAL."""
    _check_natural(n)
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
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
            if not is_prime(p):
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
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
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


def factorize(n: int) -> Factorization:
    """Canonical Factorization of n >= 1.

    Trial division by primes below 10**4, then Brent-rho splitting of any
    remaining cofactor, each claimed prime confirmed by is_prime.
    """
    _check_natural(n)
    if n == 0:
        raise ValueError("0 has no factorization")
    counts: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            counts[p] = e
    if m > 1:
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            _split(m, counts)
    return Factorization(tuple(sorted(counts.items())), n)


#: prime exponents k with 3**k <= MAX_NATURAL: an odd perfect power in
#: range is a perfect k-th power for one of them
_ROOT_EXPONENTS: tuple[int, ...] = tuple(
    takewhile(lambda p: 3**p <= MAX_NATURAL, _SMALL_PRIMES)
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

    An odd n loses perfect k-th powers for prime k, ascending, until the
    smallest odd base 3 to the power k exceeds it; the remaining base is a
    prime power only if it is prime, which is_prime decides exactly in range.
    Refuses what factorize refuses.
    """
    _check_natural(n)
    if n == 0:
        raise ValueError("0 has no factorization")
    if n % 2 == 0:
        return (2, n.bit_length() - 1) if n & (n - 1) == 0 else None
    b = 1
    for k in _ROOT_EXPONENTS:
        if 3**k > n:
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


def omega(f: Factorization) -> int:
    """Number of distinct prime factors (0 for n = 1)."""
    return len(f.entries)


def v_p(p: int, n: int) -> int:
    """Largest e with p**e dividing n (n >= 1, p prime)."""
    _check_natural(n)
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def pow_mod(b: int, e: int, m: int) -> int:
    """b**e mod m for m >= 1 (delegates to the built-in three-argument pow)."""
    _check_natural(b, "b")
    _check_natural(e, "e")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    return pow(b, e, m)


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


def a_q(p: int, q: int) -> int:
    """q-adic valuation of p**d - 1 where d is the order of p mod q.

    Computed by lifting modulo growing powers of q, so the huge integer
    p**d - 1 is never materialized.
    """
    if p == q:
        raise ValueError("p and q must be distinct primes")
    if not is_prime(p) or not is_prime(q):
        raise ValueError("p and q must both be prime")
    d = ord_mod(p, q)
    v = 1
    while pow(p, d, q ** (v + 1)) == 1:
        v += 1
    return v


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, via the reciprocity reduction."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 1, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_mersenne_prime(p: int) -> bool:
    """True iff p is prime and p + 1 is a power of two."""
    _check_natural(p, "p")
    return p >= 2 and (p + 1) & p == 0 and is_prime(p)
