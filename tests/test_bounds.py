import random
import tracemalloc
from fractions import Fraction as F

import pytest

from uspkit import bruteforce
from uspkit.bounds import (
    CHAIN_INEQUALITY_IDS,
    INEQUALITY_IDS,
    MIN_K_BOTH_DIVISIBLE,
    BoundCertificate,
    QScanEntry,
    Verdict,
    case_13_elimination,
    evaluate_all,
    evaluate_inequality,
    exp_bounds,
    fraction_decimal,
    mersenne_constant,
    q_bound_scan,
    tail_exponent,
)

rng = random.Random(40961)

# the 55-digit reference itself carries ~1e-54 relative rounding error, so
# one-sidedness can only be asserted up to that allowance
REF_EPS = F(1, 10**45)


def test_exp_bounds_at_zero():
    lo, hi = exp_bounds(F(0))
    assert lo == hi == 1


def test_exp_bounds_examples():
    ref = bruteforce.exp_reference(F(4, 21))
    lo, hi = exp_bounds(F(4, 21))
    assert lo <= ref * (1 + REF_EPS)
    assert hi >= ref * (1 - REF_EPS)
    assert hi <= ref * (1 + F(1, 10**6))
    # frozen from the 55-digit reference: exp(4/21) = 1.2098255679...
    assert fraction_decimal(hi, 10).startswith("1.20982556")

    u = exp_bounds(F(3, 8744))[1]
    assert F(343, 10**6) <= u - 1 <= F(344, 10**6)


def test_exp_bounds_domain():
    for bad in (F(-1, 10), F(1), F(3, 2)):
        with pytest.raises(ValueError):
            exp_bounds(bad)


def test_exp_bounds_equal_fraction_recurrence():
    # the enclosure as a running Fraction sum: the same exact rationals
    def recurrence(x):
        term = partial = F(1)
        for k in range(1, 13):
            term = term * x / k
            partial += term
        return partial, partial + term * x / 13 / (1 - x / 13)

    grid = [F(i, 64) for i in range(64)]
    grid += [F(3, 8744), F(4, 21), F(10**6 - 1, 10**6), F(2**61 - 2, 2**61 - 1)]
    draw = random.Random(4099)
    grid += [F(draw.randrange(q), q) for q in draw.sample(range(2, 10**9), 200)]
    for x in grid:
        assert exp_bounds(x) == recurrence(x), x


def test_exp_upper_one_sided_random():
    for _ in range(2000):
        x = F(rng.randrange(0, 9 * 10**5), 10**6)
        lo, hi = exp_bounds(x)
        ref = bruteforce.exp_reference(x)
        assert hi >= ref * (1 - REF_EPS), x
        assert lo <= ref * (1 + REF_EPS), x
        assert hi <= ref * (1 + F(1, 10**6)), x
        # exact one-sided evidence, immune to reference rounding: the upper
        # bound dominates a strictly deeper Taylor partial sum
        deep = F(1)
        term = F(1)
        for k in range(1, 25):
            term = term * x / k
            deep += term
        assert hi >= deep


def test_tail_exponent_examples():
    assert tail_exponent(2, 3, 7) == F(3, 8746)    # 2 * 3^7 - 1 = 4373
    assert tail_exponent(4, 3, 5) == F(3, 1942)    # 4 * 3^5 - 1 = 971
    assert tail_exponent(2, 5, 1) == F(5, 36)
    assert tail_exponent(2, 5, 3) == F(5, 996)
    for q in (5, 7, 11, 13):
        assert tail_exponent(2, q, 1) == F(q, (q - 1) * (2 * q - 1))


def test_tail_product_bound_certifies():
    # the bound that the registry takes for a tail: exp of its exponent
    u = exp_bounds(tail_exponent(2, 3, 7))[1]
    assert u > 1
    assert u - 1 < F(1, 10**3)
    # the bound really dominates a long partial product
    prod = F(1)
    for i in range(7, 40):
        prod *= F(2 * 3**i, 2 * 3**i - 1)
    assert prod <= u


def test_tail_product_bound_rejects_bad_parameters():
    with pytest.raises(ValueError):
        tail_exponent(1, 2, 0)    # first term t*r^i0 is 1
    with pytest.raises(ValueError):
        tail_exponent(2, 1, 3)    # ratio r below 2


def test_mersenne_constant_single_term():
    cert = mersenne_constant(2)
    assert cert.lower == F(4, 3)
    # 2^2/(2^2-1) times the tail over odd exponents >= 3
    assert cert.float_estimate == float(F(4, 3) * exp_bounds(F(4, 21))[1])
    assert cert.upper < F("1.6131008")


def test_mersenne_constant_cutoff_31():
    cert = mersenne_constant(31)
    exponents = [2, 3, 5, 7, 13, 17, 19, 31]
    direct = F(1)
    for p in exponents:
        direct *= F(2**p, 2**p - 1)
    assert abs(cert.lower - direct) < F(1, 10**12)
    assert fraction_decimal(direct, 6).startswith("1.58555")
    assert cert.lower < cert.upper
    assert cert.upper <= F(4, 3) * exp_bounds(F(4, 21))[1]
    assert cert.upper < F("1.6131008")


def test_mersenne_constant_monotone_in_cutoff():
    certs = [mersenne_constant(c) for c in (2, 3, 5, 7, 13, 31)]
    for a, b in zip(certs, certs[1:]):
        assert b.lower >= a.lower
        assert b.upper <= a.upper


def test_certificate_invariants():
    for cert in [mersenne_constant(2), mersenne_constant(31)] + [
        r.computed for r in evaluate_all()
    ]:
        assert isinstance(cert, BoundCertificate)
        assert cert.lower <= F(cert.float_estimate) <= cert.upper
        assert cert.lower <= cert.upper


def test_certificate_estimate_containment_enforced():
    with pytest.raises(ValueError):
        BoundCertificate("bad", F(2), F(3), 1.0)


def test_registry_ids_and_unknown():
    # the ids come from the registry, in the order evaluate_all reports them
    assert INEQUALITY_IDS == ("E31", "L42", "L43", "T53-first", "T53-second", "T54-q7", "T54-q11")
    assert [rec.id for rec in evaluate_all()] == list(INEQUALITY_IDS)
    assert set(CHAIN_INEQUALITY_IDS) == set(INEQUALITY_IDS) - {"E31"}
    assert len(CHAIN_INEQUALITY_IDS) == 6
    with pytest.raises(KeyError):
        evaluate_inequality("L99")


@pytest.mark.parametrize(
    "ineq_id,printed_value,must_reproduce",
    [
        ("E31", 1.631007, False),
        ("L42", 1.4588, True),
        ("L43", 1.9041, True),
        ("T53-first", 1.7332, True),
        ("T53-second", 1.9150, True),
        ("T54-q7", 1.7604, False),
        ("T54-q11", 1.8850, True),
    ],
)
def test_inequality_records(ineq_id, printed_value, must_reproduce):
    rec = evaluate_inequality(ineq_id)
    assert rec.printed_value == printed_value
    assert rec.computed.upper < 2
    if must_reproduce:
        assert abs(rec.computed.float_estimate - printed_value) <= 5e-4
        assert rec.verdict is Verdict.REPRODUCED_BELOW_2
    else:
        assert rec.verdict is Verdict.DISCREPANCY_FLAGGED
    # recomputed-tail variants must stay certified below 2 as well
    for alt in rec.alts:
        if alt.upper is not None:
            assert alt.upper < 2


def test_t54_q7_branch_max_is_65_56():
    # the three split branches individually
    assert F(2**6 + 1, 2**6) * F(8, 7) == F(65, 56)
    assert F(2**4 + 1, 2**4) * F(7**3 + 1, 7**3) < F(65, 56)
    assert F(2**3 + 1, 2**3) * F(7**6 + 1, 7**6) < F(65, 56)
    # the certificate is the 65/56 branch times 4/3 and the printed tails:
    # its float is that product's ceiling, and its enclosure holds that
    # product and neither smaller branch's
    rec = evaluate_inequality("T54-q7")
    lower, upper = exp_bounds(tail_exponent(2, 4, 2) + F(8, 91))
    assert rec.computed.float_estimate == float(F(65, 56) * F(4, 3) * upper)
    for branch, used in ((F(65, 56), True), (F(2**4 + 1, 2**4) * F(7**3 + 1, 7**3), False),
                         (F(2**3 + 1, 2**3) * F(7**6 + 1, 7**6), False)):
        inside = rec.computed.lower <= branch * F(4, 3) * lower
        inside &= branch * F(4, 3) * upper <= rec.computed.upper
        assert inside == used


def test_t53_second_literal_reading_reported():
    rec = evaluate_inequality("T53-second")
    literal = [a for a in rec.alts if "literal" in a.label]
    assert literal and literal[0].value > 2
    assert literal[0].upper is None


def test_min_k_sensitivity():
    # L43's product with k distinct prime factors assumed: the (2^k+1)/2^k
    # and (3^(k-1)+1)/3^(k-1) factors, the fixed ones and the printed tails
    def l43(k, end):
        product = F(2**k + 1, 2**k) * F(3 ** (k - 1) + 1, 3 ** (k - 1))
        for factor in (F(4, 3), F(6, 5), F(12, 11), F(18, 17), F(54, 53), F(108, 107)):
            product *= factor
        return product * exp_bounds(F(3, 8744) + F(3, 1942))[end]

    healthy = evaluate_inequality("L43")
    assert healthy.computed.float_estimate == float(l43(MIN_K_BOTH_DIVISIBLE, 1))
    assert healthy.computed.upper < 2
    assert l43(3, 0) > 2   # the imported bound is load-bearing


def test_q_scan_satisfying_sets():
    entries = q_bound_scan(100)
    sat1 = sorted(e.q for e in entries if e.f2 == 1 and e.satisfies)
    sat2 = sorted(e.q for e in entries if e.f2 == 2 and e.satisfies)
    assert sat1 == [5, 7, 11, 13]
    assert sat2 == [5, 7]


def test_q_scan_frozen_values():
    by_key = {(e.q, e.f2): e for e in q_bound_scan(20)}
    assert fraction_decimal(by_key[(13, 1)].lhs_upper, 4).startswith("1.124")
    assert fraction_decimal(by_key[(17, 1)].lhs_upper, 4).startswith("1.093")
    assert by_key[(13, 1)].satisfies
    assert not by_key[(17, 1)].satisfies
    assert not by_key[(11, 2)].satisfies


def test_q_scan_monotone_in_f2():
    entries = q_bound_scan(200)
    by_q: dict[int, dict[int, bool]] = {}
    for e in entries:
        by_q.setdefault(e.q, {})[e.f2] = e.satisfies
    for q, sats in by_q.items():
        if not sats[1]:
            assert not sats[2], q


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 101, 7919])
@pytest.mark.parametrize("f2", [1, 2])
def test_q_scan_enclosure_is_the_exp_bounds_product(q, f2):
    # an entry keeps no rational: its enclosure, computed on demand, is the
    # exact product of the ratio and exp_bounds, and it decides the verdict
    (entry,) = [e for e in q_bound_scan(q) if (e.q, e.f2) == (q, f2)]
    ratio = F(q**f2 + 1, q**f2)
    lower, upper = exp_bounds(F(q, (q - 1) * (2 * q - 1)))
    assert entry.lhs_lower == ratio * lower
    assert entry.lhs_upper == ratio * upper
    threshold = F(16, 9) / mersenne_constant(2).upper
    assert entry.satisfies == (entry.lhs_lower >= threshold)
    assert entry.satisfies or entry.lhs_upper < threshold


def test_q_scan_retains_no_rationals():
    # 2,454 entries at q_max = 10^4, once two normalized Fractions of about
    # 400 bits each (1.2 MiB), now (q, f2, satisfies) in slots
    tracemalloc.start()
    try:
        entries = q_bound_scan(10**4)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(entries) == 2454
    assert retained < 256 * 1024
    assert entries[0] == QScanEntry(5, 1, True)


def test_q_scan_validation():
    with pytest.raises(ValueError):
        q_bound_scan(4)


def test_case_13_chain():
    verdict = case_13_elimination()
    assert verdict.ok
    by_id = {s.step_id: s for s in verdict.steps}
    assert len(verdict.steps) == 9
    assert "25 = 5^2" in by_id["unique_candidate_25"].witness
    assert "51 = 3*17" in by_id["unique_candidate_25"].witness
    assert by_id["five_needs_f1_2_mod_4"].ok
    assert by_id["parity_clash"].ok
    d = verdict.to_dict()
    assert d["ok"] and len(d["steps"]) == 9
