"""The hits that a search lists instead of scanning (listed), each from its
defining equation, in a range [lo, hi), increasing: the odd usp n (odd_usp)
and the even perfect and super perfect n (even_sigma); odd_sigma lists the
odd ones for a certificate (below).  This module imports math and .arith
alone, so it runs on the standard library; the proofs follow.

Take odd n > 1 and write sigma*(n) = 2^a * m' with m' odd.  Every factor
p^e + 1 of sigma*(n) is even, so a >= 1, and by multiplicativity
sigma*(sigma*(n)) = (2^a + 1) * sigma*(m').  Each factor of sigma*(m') is
even too, so 2^omega(m') divides sigma*(m'), while 2^a + 1 is odd and
v2(2n) = 1: a usp n has omega(m') <= 1.  m' = 1 is impossible, since
sigma*(sigma*(n)) would be the odd 2^a + 1; so m' = q^b is a prime power,
sigma*(m') = q^b + 1, and

    (2^a + 1) * (q^b + 1) = 2n.

Conversely, an n with sigma*(n) = 2^a * q^b satisfying that is usp, so the
test is exact.  The same count on sigma*(n) = 2n gives omega(n) <= 1, n =
p^e and p^e + 1 = 2p^e: no odd n is unitary_perfect (and n = 1, with
sigma*(1) = 1, is neither).

The equation fixes n once a and q^b are known, and q is fixed by a and one
prime power of n.  Each p^e || n contributes p^e + 1 to sigma*(n), so a is
the sum of v2(p^e + 1) >= 1 over them.  If a = 1, then n = p^e and
3((p^e + 1)/2 + 1) = 2p^e: n = 9.  If a >= 2, 2^a + 1 is odd and divides
2n, so it divides n.  2^a + 1 is a power of 3 only for a = 1 and 3: in
3^k - 1 = 2^a an odd k leaves 2 (mod 4), and an even k makes 3^(k/2) - 1
and 3^(k/2) + 1 powers of two 2 apart, 2 and 4.  So for a >= 2 but 3 take a
prime r != 3 of 2^a + 1 (odd_usp takes the largest) with r^f || 2^a + 1,
and for a = 3 take r = 3, f = 2.  Then r^e || n for some e >= f, and
r^e + 1 divides 2^a * q^b.

r^e + 1 is never a power of two.  For e even it is 2 (mod 4) and above 2.
For e >= 3 odd it is r + 1 times the odd (r^e + 1)/(r + 1) > 1.  For e = 1,
r + 1 = 2^p makes r = 2^p - 1 a Mersenne prime with p prime.  p = 2 gives
r = 3, chosen only for a = 3 and then with e >= 2.  For p >= 3 the order of
2 mod r is p, which is odd; 2^a = -1 (mod r) would make p divide 2a, so
divide a, and then 2^a = 1 (mod r).  So r never divides 2^a + 1.

The odd part of r^e + 1 is therefore q^y with y >= 1: it must be a prime
power, it names q, and b >= y.  The candidates are n = (2^a + 1)(q^b +
1)/2 for each a >= 2 with 2^a + 1 <= n, each e >= f with r^e <= n and each
b >= y: O(log^3 limit) of them.  odd_usp keeps the odd n that r^e divides
with sigma*(n) = 2^a * q^b, from factorize(n); 48 n reach that test up to
10^8 and 68 up to HARD_LIMIT.  It is the equation itself, so the list is
exact, and it never factorizes sigma*(n).  A search of usp over the odd n
merges these hits into their segments like scanned ones.

The sigma classes at even n are listed too.  Write an even n = 2^k * m
with k >= 1 and m odd, and q = 2^(k+1) - 1 >= 3, so sigma(n) = q *
sigma(m).  If n is perfect, q * sigma(m) = 2^(k+1) * m, so q divides m and
sigma(m) = m + m/q; m and m/q are distinct divisors of m, so they are all
of them and m = q is prime.  If n is super perfect and m > 1, sigma(n) has
the distinct divisors q * sigma(m) and sigma(m), so sigma(sigma(n)) >= (q +
1) * sigma(m) = 2^(k+1) * sigma(m) > 2^(k+1) * m = 2n; so m = 1, and
sigma(q) = 2n = q + 1 makes q prime.  With p = k + 1, the even perfect n
are 2^(p-1) * (2^p - 1) and the even super perfect n are 2^(p-1), for each
Mersenne prime 2^p - 1 (Euclid and Euler; Suryanarayana), and conversely
each of these is a hit.  even_sigma lists them p by p through
is_mersenne_prime, O(log limit) tests, and a search over the even n merges
them into their segments like the odd usp hits.

An odd super perfect n has an odd sigma(n) (Kanold).  Suppose sigma(n) =
2^a * m with a >= 1 and m odd, and let q = 2^(a+1) - 1 >= 3.  Then
sigma(sigma(n)) = q * sigma(m) = 2n, so q divides the odd n, and m > 1,
since m = 1 would make 2n = q odd.  So sigma(n)/n = 2^(a+1) * m / (q *
sigma(m)) = ((q + 1)/q) * m/sigma(m) < (q + 1)/q, while the divisor q of n
gives sigma(n)/n >= sigma(q)/q >= (q + 1)/q: a contradiction.  For an odd
prime q, sigma(q^e) is a sum of e + 1 odd terms, odd exactly when e is
even; so an odd n has an odd sigma(n) exactly when it is a square.

Euler's form lists the rest.  Let u be odd with sigma(u) = 2 (mod 4).
Then exactly one factor sigma(q^e) of sigma(u) is even: one prime power
p^k || u has k odd, and u = p^k * s^2 with p not dividing s.  If p = 3
(mod 4), 4 divides p + 1, which divides sigma(p^k) = (1 + p)(1 + p^2 +
... + p^(k-1)); so p = 1 (mod 4), each of the k + 1 terms of sigma(p^k)
is 1 (mod 4), and sigma(p^k) = 2 (mod 4) needs k = 1 (mod 4).  Then u = 1
(mod 4), gcd(p^k, sigma(p^k)) = 1, and 1 < sigma(p^k)/p^k < p/(p - 1) <=
5/4.

Write m for an odd number and u = sigma(m^2), which is odd.  An odd super
perfect n is a square m^2 with sigma(u) = 2m^2 = 2 (mod 4), so u has
Euler's form, u = 1 (mod 4), and u < 2m^2 since sigma(u) > u (u = 1 is no
hit).  An odd perfect n has sigma(n) = 2n = 2 (mod 4), so n = p^k * m^2 in
Euler's form and sigma(p^k) * u = 2 * p^k * m^2.  So p^k divides u, u =
2m^2 * p^k/sigma(p^k) lies in (8m^2/5, 2m^2), and n >= 5m^2.  odd_sigma
sieves u for the odd m <= sqrt(top) and factorizes u only when m^2 is in
range with u = 1 (mod 4) and u < 2m^2, or when 5m^2 <= top and 8m^2 < 5u <
10m^2.  Then m^2 is super perfect exactly when sigma(u) = 2m^2, and p^k *
m^2 is perfect exactly when sigma(p^k) * u = 2 * p^k * m^2, for each p^k
(k <= v_p(u)) with p = k = 1 (mod 4) and p not dividing m.  These are the
defining equations, so the list is exact; it factorizes O(sqrt(limit))
values.  It is empty up to search.HARD_LIMIT, the certificate
test_no_odd_sigma_hit_below_hard_limit, so listed leaves these classes out.
"""

from math import isqrt

from .arith import (
    factorize,
    is_mersenne_prime,
    prime_power,
    primes_up_to,
    sigma_from_factorization,
    unitary_sigma,
)


def odd_usp(lo: int, hi: int) -> list[int]:
    """The odd usp n in [lo, hi), increasing, listed from (2^a + 1)(q^b + 1)
    = 2n without a sieve (module docstring)."""
    top = hi - 1
    found = {9} if lo <= 9 < hi else set()  # a = 1
    for a in range(2, (top - 1).bit_length()):  # 2^a + 1 <= top
        m = 2**a + 1
        # the largest prime r != 3 of m, with r^f || m; only m = 9 has none
        r, f = max(((p, e) for p, e in factorize(m).entries if p != 3), default=(3, 2))
        re = r**f
        while re <= top:
            odd = (re + 1) // ((re + 1) & -(re + 1))
            qy = prime_power(odd)  # q^y, y >= 1: r^e + 1 is no power of two
            if qy is not None:
                q, y = qy
                qb = q**y
                while (n := m * (qb + 1) // 2) <= top:
                    if (n >= lo and n % 2 and n % re == 0
                            and unitary_sigma(factorize(n)) == (m - 1) * qb):
                        found.add(n)
                    qb *= q
            re *= r
    return sorted(found)


def even_sigma(lo: int, hi: int) -> list[tuple[int, str]]:
    """(n, class) of the even super_perfect n = 2^(p-1) and perfect n =
    2^(p-1) * (2^p - 1) in [lo, hi), 2^p - 1 a Mersenne prime, increasing
    (module docstring)."""
    found = []
    for p in range(2, (hi - 1).bit_length() + 1):  # every p with 2^(p-1) < hi
        q = 2**p - 1
        if is_mersenne_prime(q):
            found += [(n, c) for n, c in ((2 ** (p - 1), "super_perfect"),
                                          (2 ** (p - 1) * q, "perfect")) if lo <= n < hi]
    return sorted(found)


def listed(classes, parity: str, lo: int, hi: int) -> list[tuple[int, str]]:
    """(n, class) of the hits in [lo, hi) that a search of the classes at the
    parity lists, increasing: odd_usp's and even_sigma's.  The odd sigma hits
    are left out: test_no_odd_sigma_hit_below_hard_limit finds none."""
    found = []
    if "usp" in classes and parity != "even":
        found += [(n, "usp") for n in odd_usp(lo, hi)]
    if parity != "odd":
        found += [hit for hit in even_sigma(lo, hi) if hit[1] in classes]
    return sorted(found)


def _odd_square_sigmas(last: int) -> list[int]:
    """sigma(m^2) of the odd m = 1, 3, ... <= last, at index (m - 1) / 2: each
    odd prime p <= last multiplies the m that p^e divides exactly by
    sigma(p^(2e)) = (p^(2e+1) - 1)/(p - 1)."""
    sums = [1] * ((last + 1) // 2)
    for p in primes_up_to(last)[1:]:
        pe, below = p, 1  # p^e, and the sigma(p^(2e-2)) its multiples hold
        while pe <= last:
            # the odd multiples of p^e are every p^e-th odd m from p^e
            here = (pe * pe * p - 1) // (p - 1)
            run = slice((pe - 1) // 2, None, pe)
            sums[run] = [s // below * here for s in sums[run]]
            pe, below = pe * p, here
    return sums


def _odd_sigma_candidates(lo: int, hi: int):
    """(n, class, s) for each odd n in [lo, hi) that Euler's form leaves as
    a super_perfect or perfect candidate (module docstring), with s =
    sigma(sigma(n)) or sigma(n): n is a hit exactly when s = 2n."""
    top = hi - 1
    last = isqrt(max(top, 0))  # an empty range, hi < 1, has no candidate
    for m, u in zip(range(1, last + 1, 2), _odd_square_sigmas(last)):
        m2 = m * m
        square = lo <= m2 and u % 4 == 1 and u < 2 * m2
        euler = 5 * m2 <= top and 8 * m2 < 5 * u < 10 * m2
        if not (square or euler):
            continue
        fu = factorize(u)
        if square:
            yield m2, "super_perfect", sigma_from_factorization(fu)
        if euler:
            for p, e in fu.entries:
                if p % 4 == 1 and m % p:
                    for k in range(1, e + 1, 4):
                        if lo <= (n := p**k * m2) <= top:
                            yield n, "perfect", (p ** (k + 1) - 1) // (p - 1) * u


def odd_sigma(lo: int, hi: int) -> list[tuple[int, str]]:
    """(n, class) of the odd super_perfect and perfect n in [lo, hi),
    increasing, listed from sigma(m^2) over the odd m <= sqrt(hi - 1)
    (module docstring)."""
    return sorted((n, c) for n, c, s in _odd_sigma_candidates(lo, hi) if s == 2 * n)
