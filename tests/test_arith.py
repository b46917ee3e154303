import ast
import random
import re
from itertools import combinations_with_replacement
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uspkit import arith, bruteforce, lists
from uspkit.arith import (
    MAX_NATURAL,
    Factorization,
    divisors,
    factorize,
    is_mersenne_prime,
    is_prime,
    ord_mod,
    prime_power,
    primes_up_to,
    unitary_divisors,
    unitary_sigma,
)

rng = random.Random(1009)


def test_is_prime_examples():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(8191)          # 2^13 - 1
    assert is_prime(4373)          # 2 * 3^7 - 1
    assert not is_prime(8191 * 8191)
    # the table of primes below 10**4 hands over to Miller-Rabin at 10**4
    assert is_prime(9973)
    assert not is_prime(9999)
    assert not is_prime(10_000)
    assert is_prime(10_007)


def test_primes_up_to_one_growing_cache(monkeypatch):
    monkeypatch.setattr(arith, "_primes", [])
    monkeypatch.setattr(arith, "_sieved_to", 1)
    small = primes_up_to(1000)
    big = primes_up_to(5000)  # grows the one sieve
    again = primes_up_to(1000)
    # the cache was sieved once past 5000 and serves both bounds after it
    assert arith._sieved_to == 5000 and arith._primes == big
    for got, bound in ((small, 1000), (big, 5000), (again, 1000)):
        assert got == [p for p in range(2, bound + 1) if all(p % d for d in range(2, isqrt(p) + 1))]
    assert primes_up_to(1) == [] and primes_up_to(2) == [2]
    # every answer is a copy: changing one leaves the cache as it was
    again.clear()
    assert primes_up_to(1000) == small


def test_failed_primes_up_to_growth_keeps_the_cache(monkeypatch):
    # a sieve too large to allocate (no 64-bit Linux maps 10**18 bytes, so
    # nothing is allocated) raises MemoryError and leaves the cache as it
    # was, so later sums still find every base prime
    from uspkit.sieve import divisor_sum_segment

    monkeypatch.setattr(arith, "_primes", [])
    monkeypatch.setattr(arith, "_sieved_to", 1)
    primes_up_to(1000)
    with pytest.raises(MemoryError):
        primes_up_to(10**18)
    assert arith._sieved_to == 1000
    n = 100003 * 100019
    assert divisor_sum_segment(n, n + 2).tolist() == [100004 * 100020]


def _imports(module):
    """Every module name that module's source imports, relative ones with
    their leading dots."""
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            if node.level and not node.module:  # from . import sieve
                imported.update("." + alias.name for alias in node.names)
    return imported


def test_arith_imports_neither_numpy_nor_the_sieve():
    # the exact-integer layer, and the lists built on it, sit below the
    # numpy sieve, not on it
    for module in (arith, lists):
        assert not {name for name in _imports(module)
                    if name.split(".")[0] == "numpy" or name in (".sieve", "uspkit.sieve")}


def test_bruteforce_imports_nothing_from_arith():
    # the oracles share no logic with the factorization they check
    assert not _imports(bruteforce) & {".arith", "uspkit.arith", "uspkit"}


def test_is_prime_matches_sieve_below_10k():
    primes = primes_up_to(10_000)
    # Python ints, so that p**e in the lemma scans cannot wrap
    assert all(type(p) is int for p in primes)
    flags = set(primes)
    for n in range(10_000):
        assert is_prime(n) == (n in flags)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)
    # strong-pseudoprime stress values around 2^64 must still be exact
    assert not is_prime(3825123056546413051)


def test_is_prime_range_contract():
    with pytest.raises(ValueError):
        is_prime(-1)
    with pytest.raises(ValueError):
        is_prime(2**64)
    assert is_prime(MAX_NATURAL) is False
    # True == 1: no answer cached for an int equal to 1 may stand in for the
    # type check.  lru_cache keys an exact int by itself but an int subclass,
    # bool among them, by a 1-tuple, so only the subclass would collide.
    class Int(int):
        pass

    assert is_prime(1) is False
    assert is_prime(Int(1)) is False
    with pytest.raises(TypeError):
        is_prime(True)


def test_is_prime_answers_do_not_depend_on_cache_order():
    # far more values than the bounded Miller-Rabin cache holds
    values = list(range(10_001, 10_401)) + [2**61 - 1, 2**62 - 1, 3825123056546413051]
    flags = set(primes_up_to(10_400)) | {2**61 - 1}
    forward = [is_prime(n) for n in values]
    backward = [is_prime(n) for n in reversed(values)][::-1]
    assert forward == backward == [n in flags for n in values]


def test_factorize_examples():
    assert factorize(1).entries == ()
    assert factorize(288).entries == ((2, 5), (3, 2))   # 2^5 * 3^2 = 288
    assert factorize(432).entries == ((2, 4), (3, 3))   # 2^4 * 3^3 = 432
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_round_trip_random():
    for _ in range(500):
        n = rng.randrange(1, 10**9)
        f = factorize(n)
        prod = 1
        for p, e in f.entries:
            assert is_prime(p)
            prod *= p**e
        assert prod == n == f.value


def test_factorize_needs_rho():
    # both factors above the trial-division bound
    n = 1_000_003 * 1_000_033
    assert factorize(n).entries == ((1_000_003, 1), (1_000_033, 1))
    n = 99990001 * 99990001
    assert factorize(n).entries == ((99990001, 2),)


def test_prime_power_examples():
    # every power of 3 in range, 3**37 among them (a prime exponent)
    assert [prime_power(3**b) for b in range(1, 41)] == [(3, b) for b in range(1, 41)]
    q = 4294967291  # the largest prime below 2**32
    assert prime_power(q * q) == (q, 2)
    assert prime_power(2**63) == (2, 63)
    assert prime_power(9**20) == (3, 40)  # three square roots, then a fifth root
    # perfect powers of composites
    assert prime_power(15**16) is None
    assert prime_power(35**3) is None
    assert prime_power(MAX_NATURAL) is None  # 3 * 5 * 17 * 257 * 641 * 65537 * 6700417
    assert prime_power(1) is None


@pytest.mark.parametrize("n", [0, -1, MAX_NATURAL + 1, 2**64 + 1, 2.0, True])
def test_prime_power_refuses_what_factorize_refuses(n):
    with pytest.raises((TypeError, ValueError)) as want:
        factorize(n)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        prime_power(n)


def test_factorization_invariants_enforced():
    # each refusal raises what it raised when every entry went to is_prime
    for entries, value, error in [
        (((3, 1), (2, 1)), 6, ValueError),      # out of order
        (((4, 1),), 4, ValueError),             # not prime
        (((9991, 1),), 9991, ValueError),       # 97 * 103, below 10**4
        (((10201, 1),), 10201, ValueError),     # 101**2, past 10**4
        (((2, 0),), 1, ValueError),             # zero exponent
        (((2, 1),), 3, ValueError),             # wrong product
        (((True, 1),), 1, ValueError),          # True == 1: out of order
        (((2, 1), (3.0, 1)), 6, TypeError),     # a float is no natural
    ]:
        with pytest.raises(error):
            Factorization(entries, value)


def _agrees_with_trial_division(n):
    entries = tuple(bruteforce.prime_factors_brute(n))
    assert factorize(n).entries == entries, n
    assert prime_power(n) == (entries[0] if len(entries) == 1 else None), n


def test_factorize_matches_trial_division_below_2e5():
    for n in range(1, 2 * 10**5):
        _agrees_with_trial_division(n)


#: the primes next to each band edge, 100, 1000 and 10**4
_EDGE_PRIMES = (89, 97, 101, 103, 991, 997, 1009, 1013, 9967, 9973, 10007, 10009)


def test_factorize_products_of_edge_primes():
    # every product of at most four of them, and every power of each
    values = {prod(c) for k in range(1, 5) for c in combinations_with_replacement(_EDGE_PRIMES, k)}
    for p in _EDGE_PRIMES:
        values.update(p**e for e in range(1, 64) if p**e <= MAX_NATURAL)
    for n in sorted(values):
        _agrees_with_trial_division(n)


@pytest.mark.parametrize(
    "n",
    [
        # one prime on each side of an edge
        89 * 97, 97 * 101, 101 * 103, 991 * 997, 997 * 1009, 9973 * 10007,
        # cofactors just below and just above 10**4, 10**6 and 10**8: primes
        # below the square of their band's edge, and squares and products of
        # primes of the next band just past it
        9973, 10007, 101**2, 101 * 107, 999983, 1000003, 1009**2, 1009 * 1013,
        99999989, 100000007, 10007**2, 10007 * 10009, 99989 * 99991,
        # the same behind primes of the lower bands
        2 * 3 * 9973, 97 * 10007, 97**2 * 101**2, 2 * 997 * 999983,
        3 * 1009 * 1000003, 5 * 101 * 99999989, 7 * 997 * 10007**2,
        2**20 * 10007 * 10009, 97 * 997 * 9973 * 99989 * 99991,
    ],
)
def test_factorize_at_band_edges(n):
    _agrees_with_trial_division(n)


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(st.integers(1, 10**12 - 1))
@example(999999999989)       # the largest prime below 10**12
@example(999983 * 1000003)   # two primes past every band
def test_factorize_matches_trial_division_below_1e12(n):
    _agrees_with_trial_division(n)


def test_unitary_sigma_examples():
    assert unitary_sigma(factorize(1)) == 1
    assert unitary_sigma(factorize(9)) == 10
    assert unitary_sigma(factorize(165)) == 288 == bruteforce.sigma_star_brute(165)


def test_unitary_sigma_prime_power_rule():
    for p in primes_up_to(999):
        for e in range(1, 16):
            if p**e > MAX_NATURAL:
                break
            assert unitary_sigma(factorize(p**e)) == p**e + 1


def test_unitary_sigma_oracle_equivalence(brute_tables_1e5):
    _, usig = brute_tables_1e5
    for n in range(1, 10**5 + 1):
        assert unitary_sigma(factorize(n)) == usig[n]


def test_unitary_sigma_vs_sigma_bounds(brute_tables_1e5):
    sig, usig = brute_tables_1e5
    n = np.arange(2, 10**5 + 1)
    assert (usig[2:] >= n + 1).all()
    assert (usig[2:] <= sig[2:]).all()


def test_unitary_sigma_multiplicative():
    checked = 0
    for _ in range(10**4):
        m = rng.randrange(1, 10**6)
        n = rng.randrange(1, 10**6)
        if gcd(m, n) != 1:
            continue
        checked += 1
        assert unitary_sigma(factorize(m * n)) == unitary_sigma(
            factorize(m)
        ) * unitary_sigma(factorize(n))
    assert checked > 5000


def test_unitary_divisors_examples():
    assert unitary_divisors(factorize(1)) == [1]
    assert unitary_divisors(factorize(12)) == [1, 3, 4, 12]
    # 3 is not unitary in 9: gcd(3, 3) != 1
    assert unitary_divisors(factorize(9)) == [1, 9]


def test_unitary_divisors_count_and_sum():
    for n in range(1, 10**4 + 1):
        f = factorize(n)
        divs = unitary_divisors(f)
        assert len(divs) == 2 ** len(f.entries)
        assert sum(divs) == unitary_sigma(f)
        assert divs == sorted(set(divs))
        assert divs == bruteforce.unitary_divisors_brute(n) if n <= 300 else True
        all_divs = divisors(f)
        assert sum(all_divs) == bruteforce.sigma_brute(n)
        assert all_divs == sorted(set(all_divs))


def test_ord_mod_examples():
    assert ord_mod(2, 7) == 3
    assert ord_mod(2, 19) == 18
    assert ord_mod(3, 2) == 1
    with pytest.raises(ValueError):
        ord_mod(14, 7)
    with pytest.raises(ValueError):
        ord_mod(2, 15)


def test_ord_mod_direct_powering_oracle():
    # least d with p^d = 1 found by stepping, for a small sample
    for p, q in [(2, 19), (3, 11), (10, 17), (5, 23), (7, 13)]:
        d = 1
        x = p % q
        while x != 1:
            x = x * p % q
            d += 1
        assert ord_mod(p, q) == d


def test_ord_mod_divides_group_order():
    primes = primes_up_to(999)
    for q in primes:
        for p in primes:
            if p == q:
                continue
            assert (q - 1) % ord_mod(p, q) == 0


def test_is_mersenne_prime_examples():
    assert is_mersenne_prime(3)
    assert is_mersenne_prime(8191)
    assert not is_mersenne_prime(11)
    assert not is_mersenne_prime(2047)   # 2^11 - 1 = 23 * 89
    assert not is_mersenne_prime(1)
    assert [p for p in range(10**4) if is_mersenne_prime(p)] == [3, 7, 31, 127, 8191]
