import json
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uspkit import bruteforce
from uspkit.arith import MAX_NATURAL, factorize, is_prime, prime_power, unitary_sigma
from uspkit.structure import (
    LEMMA_CHECKS,
    TwoAQB,
    ZsigmondyKind,
    check_lemma_22,
    check_lemma_23,
    check_lemma_24,
    check_lemma_25,
    check_lemma_26,
    check_lemma_27,
    check_lemma_51,
    check_usp_structure,
    decompose_2aqb,
    enumerate_prime_powers_2aqb,
    zsigmondy,
)


def test_decompose_examples():
    d = decompose_2aqb(10)
    assert (d.a, d.q, d.b) == (1, 5, 1)
    d = decompose_2aqb(288)
    assert (d.a, d.q, d.b) == (5, 3, 2)
    assert decompose_2aqb(30) is None
    assert decompose_2aqb(1) == TwoAQB(0, None, 0)
    assert decompose_2aqb(64) == TwoAQB(6, None, 0)
    with pytest.raises(ValueError):
        decompose_2aqb(0)
    # the range applies to the odd part
    assert decompose_2aqb(2**64) == TwoAQB(64, None, 0)
    with pytest.raises(ValueError, match="exceeds the supported range"):
        decompose_2aqb(2**65 + 2)


@pytest.mark.parametrize("m", [2.0, 6.0, True, False, "10", None])
def test_decompose_refuses_non_int(m):
    with pytest.raises(TypeError, match="m must be an int"):
        decompose_2aqb(m)


def test_decompose_exact_reconstruction():
    for m in range(1, 5000):
        d = decompose_2aqb(m)
        odd = m
        while odd % 2 == 0:
            odd //= 2
        odd_is_prime_power = odd == 1 or len(factorize(odd).entries) == 1
        assert (d is not None) == odd_is_prime_power
        if d is not None:
            assert d.value == m


# reproducible examples, no example database written next to the tests
_PROPERTY = settings(deadline=None, derandomize=True, database=None)


def _prime_at_most(n: int) -> int:
    while not is_prime(n):
        n -= 1
    return n


def _primes(max_bits: int = 64):
    """Primes of 2 to max_bits bits, every size about equally likely."""
    return st.integers(2, max_bits).flatmap(
        lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1)
    ).map(_prime_at_most)


def _prime_power_oracle(n: int) -> tuple[int, int] | None:
    entries = factorize(n).entries
    return entries[0] if len(entries) == 1 else None


def _decompose_oracle(m: int) -> TwoAQB | None:
    a = 0
    while m % 2 == 0:
        m //= 2
        a += 1
    if m == 1:
        return TwoAQB(a, None, 0)
    qb = _prime_power_oracle(m)
    return None if qb is None else TwoAQB(a, *qb)


def _agree_with_oracle(n: int, a: int):
    answer = prime_power(n)
    assert answer == _prime_power_oracle(n)
    assert decompose_2aqb(2**a * n) == _decompose_oracle(2**a * n)
    return answer


@_PROPERTY
@given(q=_primes(), a=st.integers(0, 70))
def test_prime_power_of_prime_matches_oracle(q, a):
    b = 1
    while q**b <= MAX_NATURAL:
        assert _agree_with_oracle(q**b, a) == (q, b)
        b += 1


@settings(_PROPERTY, max_examples=200)
@given(data=st.data(), a=st.integers(0, 70))
def test_prime_power_of_composite_matches_oracle(data, a):
    # c = q1**e1 * q2**e2 with q1 != q2, and every perfect power c**k in range
    q1 = data.draw(_primes(62))
    q2 = data.draw(_primes(64 - q1.bit_length()))
    assume(q1 != q2)
    e1, e2 = data.draw(st.integers(1, 63)), data.draw(st.integers(1, 63))
    while q1**e1 * q2 > MAX_NATURAL:
        e1 -= 1
    while q1**e1 * q2**e2 > MAX_NATURAL:
        e2 -= 1
    c = q1**e1 * q2**e2
    k = 1
    while c**k <= MAX_NATURAL:
        assert _agree_with_oracle(c**k, a) is None
        k += 1


@pytest.mark.parametrize("n", [3**40, 4294967291**2, 15**16, 35**3, MAX_NATURAL, 1])
def test_prime_power_examples_match_oracle(n):
    for a in (0, 1, 64):
        _agree_with_oracle(n, a)


def test_twoaqb_invariants():
    with pytest.raises(ValueError):
        TwoAQB(1, None, 2)
    with pytest.raises(ValueError):
        TwoAQB(1, 9, 1)
    with pytest.raises(ValueError):
        TwoAQB(1, 5, 0)


def test_zsigmondy_exceptions():
    assert zsigmondy(2, 1, 6).kind is ZsigmondyKind.EXC_2_1_6
    assert zsigmondy(2, 1, 1).kind is ZsigmondyKind.EXC_DIFFERENCE_ONE
    assert zsigmondy(3, 1, 2).kind is ZsigmondyKind.EXC_SUM_POWER_OF_TWO  # 3+1 = 4
    assert zsigmondy(5, 3, 2).kind is ZsigmondyKind.EXC_SUM_POWER_OF_TWO  # 5+3 = 8
    r = zsigmondy(2, 1, 4)
    assert r.kind is ZsigmondyKind.PRIMITIVE_PRIME and r.prime == 5  # 15 = 3 * 5


def test_zsigmondy_validation():
    with pytest.raises(ValueError):
        zsigmondy(4, 2, 3)       # not coprime
    with pytest.raises(ValueError):
        zsigmondy(2, 2, 3)       # need a > b
    with pytest.raises(ValueError):
        zsigmondy(2, 1, 0)
    with pytest.raises(ValueError):
        zsigmondy(3, 1, 100)     # 3^100 out of range


def test_zsigmondy_brute_force_grid():
    """Full grid a <= 12, b < a, gcd(a, b) = 1, n <= 12 against the
    divisibility oracle, including the exact exception taxonomy."""
    for a in range(2, 13):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            for n in range(1, 13):
                got = zsigmondy(a, b, n)
                want = bruteforce.zsigmondy_brute(a, b, n)
                if got.kind is ZsigmondyKind.PRIMITIVE_PRIME:
                    assert got.prime == want, (a, b, n)
                else:
                    assert want is None, (a, b, n)
                    if got.kind is ZsigmondyKind.EXC_2_1_6:
                        assert (a, b, n) == (2, 1, 6)
                    elif got.kind is ZsigmondyKind.EXC_DIFFERENCE_ONE:
                        assert n == 1 and a - b == 1
                    else:
                        s = a + b
                        assert n == 2 and s & (s - 1) == 0


def test_zsigmondy_primitive_prime_congruence():
    # primitive primes not dividing a*b are 1 (mod n)
    for a in range(2, 13):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            for n in range(1, 13):
                r = zsigmondy(a, b, n)
                if r.kind is ZsigmondyKind.PRIMITIVE_PRIME and (a * b) % r.prime != 0:
                    assert (r.prime - 1) % n == 0, (a, b, n, r.prime)


def test_enumerate_prime_powers_q3():
    pp = enumerate_prime_powers_2aqb(3, 1, 7, 10**7)
    values = [p**e for p, e, _, _ in pp]
    assert {5, 17, 53, 4373} <= set(values)


def test_enumerate_prime_powers_q5():
    pp = enumerate_prime_powers_2aqb(5, 2, 4, 10**7)
    pairs = {(p, e) for p, e, _, _ in pp}
    # 9 = 2*5 - 1 and 49 = 2*5^2 - 1 enter as squares
    assert {(19, 1), (499, 1), (3, 2), (7, 2), (1249, 1)} <= pairs


def test_enumerate_prime_powers_q7_a2_has_no_primes():
    # every 4 * 7^b - 1 is divisible by 3 and exceeds 3, so no entry with
    # a = 2 is a bare prime
    pp = enumerate_prime_powers_2aqb(7, 2, 12, 10**9)
    for b in range(1, 13):
        assert (4 * 7**b - 1) % 3 == 0
    assert not [(p, e, a, b) for p, e, a, b in pp if a == 2 and e == 1]


def test_enumerate_prime_powers_well_formed():
    pp = enumerate_prime_powers_2aqb(5, 4, 6, 10**9)
    values = [p**e for p, e, _, _ in pp]
    assert values == sorted(values) and len(set(values)) == len(values)
    for p, e, a, b in pp:
        assert is_prime(p)
        assert 2**a * 5**b - 1 == p**e


def test_lemma_22_default_range_clean():
    rep = check_lemma_22(500, 8)
    assert rep.ok and rep.instances_checked > 50
    assert rep.lemma_id == "2.2"


def test_lemma_22_clause_instances():
    # e even branch: 3^2 + 1 = 10 = 2 * 5 with 5 = 1 (mod 4)
    d = decompose_2aqb(3**2 + 1)
    assert (d.a, d.q, d.b) == (1, 5, 1) and 5 % 4 == 1
    # Mersenne branch: 7^3 + 1 = 344 = 2^3 * 43 with 43 = 1 (mod 6)
    d = decompose_2aqb(7**3 + 1)
    assert (d.a, d.q, d.b) == (3, 43, 1) and 43 % 6 == 1


def test_lemma_23_24_default_range_clean():
    assert check_lemma_23(10_000, 10).ok
    assert check_lemma_24(10_000, 10).ok


def test_lemma_25_solution_set():
    rep = check_lemma_25(60)
    assert rep.ok
    # the two solutions: 2^1 + 1 = 3 and 2^3 + 1 = 9 = 3^2
    assert 2**1 + 1 == 3 and 2**3 + 1 == 3**2
    solutions = []
    for x in range(1, 61):
        v, e = 2**x + 1, 0
        while v % 3 == 0:
            v //= 3
            e += 1
        if v == 1:
            solutions.append((e, x))
    assert solutions == [(1, 1), (2, 3)]


def test_lemma_26_default_range_clean():
    rep = check_lemma_26(40)
    assert rep.ok
    for p, _ in factorize(2**5 + 1).entries:   # 33 = 3 * 11
        assert p % 8 in (1, 3, 5)
    with pytest.raises(ValueError):
        check_lemma_26(80)


def test_lemma_27_default_range_clean():
    rep = check_lemma_27(100, 8)
    assert rep.ok and rep.instances_checked > 100
    # 5^3 + 1 = 126 = 2 * 3^2 * 7: neither 3+1 nor 7+1 is divisible by 20
    assert (3 + 1) % 20 != 0 and (7 + 1) % 20 != 0


def test_lemma_51_examples():
    for q in (5, 7, 11, 13):
        assert check_lemma_51(q, 10).ok
    assert (4 * 7 - 1) % 3 == 0 and (2 * 7 - 1) % 3 != 0   # 27 = 3^3, 13 prime
    assert (4 * 13 - 1) % 3 == 0                            # 51 = 3 * 17
    with pytest.raises(ValueError):
        check_lemma_51(3)
    with pytest.raises(ValueError):
        check_lemma_51(9)


def test_lemma_report_json_line():
    rep = check_lemma_25(10)
    record = json.loads(rep.to_json_line())
    assert record["lemma_id"] == "2.5"
    assert record["counterexamples"] == []
    assert record["checked"] == 10
    assert "ms" in record and "range" in record


def test_lemma_registry_complete():
    assert sorted(LEMMA_CHECKS) == ["2.2", "2.3", "2.4", "2.5", "2.6", "2.7", "5.1"]


def test_usp_structure_9():
    v = check_usp_structure(9, factorize(10))
    assert v.ok
    assert (v.q, v.f1, v.f2) == (5, 1, 1)
    assert v.components == ((3, 2, 1, 1),)       # 9 + 1 = 2 * 5
    assert (5**1 + 1) % 4 != 0


def test_usp_structure_165():
    v = check_usp_structure(165, factorize(288))
    assert v.ok
    assert (v.q, v.f1, v.f2) == (3, 5, 2)
    # 3+1 = 2^2, 5+1 = 2*3, 11+1 = 2^2*3; exponents sum to (5, 2)
    assert v.components == ((3, 1, 2, 0), (5, 1, 1, 1), (11, 1, 2, 1))
    assert sum(c[2] for c in v.components) == 5
    assert sum(c[3] for c in v.components) == 2


def test_usp_structure_rejects_bad_input():
    with pytest.raises(ValueError):
        check_usp_structure(15, factorize(unitary_sigma(factorize(15))))
    with pytest.raises(ValueError):
        check_usp_structure(10, factorize(18))
    with pytest.raises(ValueError):
        check_usp_structure(9, factorize(12))   # stale sigma* factorization


def test_usp_structure_verdict_serializes():
    v = check_usp_structure(165, factorize(288))
    d = v.to_dict()
    assert d["ok"] and d["q"] == 3 and len(d["components"]) == 3
