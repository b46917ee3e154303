"""Brute-force reference implementations.

Each function here recomputes a quantity by direct enumeration, with no
shared logic with the fast paths it is used to check (band-wise
factorization, multiplicative sieves, order-based primitive-divisor search,
certified exponential bounds), and imports nothing from them.  They
are deliberately simple and are used by the test suite and by the CLI
``report`` command.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from math import gcd, isqrt

import numpy as np


def prime_factors_brute(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p**e exactly dividing n >= 1, ascending,
    by trial division with 2 and the odd d while d * d <= the cofactor."""
    entries = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            entries.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        entries.append((n, 1))
    return entries


def sigma_brute(n: int) -> int:
    """sigma(n) by enumerating divisor pairs up to sqrt(n)."""
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total


def sigma_star_brute(n: int) -> int:
    """sigma*(n) by enumerating divisors and keeping the unitary ones."""
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            e = n // d
            if gcd(d, e) == 1:
                total += d
                if d != e:
                    total += e
    return total


def unitary_divisors_brute(n: int) -> list[int]:
    """All d | n with gcd(d, n/d) = 1, ascending."""
    return sorted(
        d for d in range(1, n + 1) if n % d == 0 and gcd(d, n // d) == 1
    )


def divisor_sum_tables(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, sigma*) tables for 0..limit via a divisor-pair sweep.

    Adds every divisor d to all its multiples; independent of the
    prime-power segment sieve used by the search engine.
    """
    sig = np.zeros(limit + 1, dtype=np.int64)
    usig = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        mult = np.arange(d, limit + 1, d, dtype=np.int64)
        sig[mult] += d
        unit = mult[np.gcd(mult // d, d) == 1]
        usig[unit] += d
    return sig, usig


def classify_brute(limit: int) -> dict[str, list[int]]:
    """Perfect-variant hit lists up to limit from the divisor-sweep tables."""
    # sigma(m) and sigma*(m) exceed m for m > 1, so a first application of
    # 2n or more is no second-order hit: tables up to 2 * limit serve every
    # second application that can be, and the others are clipped to the end
    # and masked
    top = 2 * limit
    sig, usig = divisor_sum_tables(top)
    ns = np.arange(limit + 1)
    first, ufirst = sig[: limit + 1], usig[: limit + 1]
    out = {
        "usp": np.nonzero((ufirst < 2 * ns) & (usig[np.minimum(ufirst, top)] == 2 * ns))[0],
        "unitary_perfect": np.nonzero(ufirst == 2 * ns)[0],
        "super_perfect": np.nonzero((first < 2 * ns) & (sig[np.minimum(first, top)] == 2 * ns))[0],
        "perfect": np.nonzero(first == 2 * ns)[0],
    }
    return {k: [int(x) for x in v if x >= 1] for k, v in out.items()}


def zsigmondy_brute(a: int, b: int, n: int):
    """Least prime factor of a**n - b**n dividing no earlier a**m - b**m.

    Returns the prime, or None when every prime factor already divides some
    a**m - b**m with m < n.  Pure divisibility trial, no order computation.
    """
    value = a**n - b**n
    for r, _ in prime_factors_brute(value):
        if all((a**m - b**m) % r != 0 for m in range(1, n)):
            return r
    return None


def exp_reference(x: Fraction) -> Fraction:
    """exp(x) to 55 significant digits via the stdlib decimal module, as an
    exact Fraction.

    x is rounded to 55 digits and its exponential is correctly rounded to
    55 digits.  The returned rational is the exact value of that decimal, so
    comparisons against certified rational bounds need no further rounding.
    """
    ctx = Context(prec=55)
    return Fraction(ctx.divide(Decimal(x.numerator), Decimal(x.denominator)).exp(ctx))
