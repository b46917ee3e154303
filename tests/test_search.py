import hashlib
import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uspkit import bruteforce, search, sieve
from uspkit.arith import factorize, is_prime, sigma_from_factorization, unitary_sigma
from uspkit.cli import main
from uspkit.search import (
    CLASS_ORDER,
    VARIANTS,
    CheckpointError,
    SearchConfig,
    find_perfect,
    find_super_perfect,
    find_unitary_perfect,
    find_usp,
    parse_checkpoint,
    render_checkpoint,
    run_search,
    verify_hit,
)
from uspkit.sieve import (
    MAX_SIEVE_VALUE,
    base_primes,
    divisor_sum_segment,
    sigma_segment,
    sigma_star_segment,
)

rng = random.Random(65537)

# reproducible examples, no example database written next to the tests
_PROPERTY = settings(deadline=None, derandomize=True, database=None)


def _exact_sums(values, unitary):
    sums = []
    for n in values:
        f = factorize(n)
        sums.append(unitary_sigma(f) if unitary else sigma_from_factorization(f))
    return sums


@pytest.fixture
def sieve_spans(monkeypatch):
    """(lo, hi, step, unitary) of every call into the sieve kernel."""
    spans = []
    kernel = sieve._divisor_sum_segment

    def recorded(lo, hi, step, primes, unitary):
        spans.append((lo, hi, step, unitary))
        return kernel(lo, hi, step, primes, unitary)

    monkeypatch.setattr(sieve, "_divisor_sum_segment", recorded)
    return spans


def test_sigma_star_segment_first_ten():
    assert list(sigma_star_segment(1, 11)) == [1, 3, 4, 5, 6, 12, 8, 9, 10, 18]


def test_sigma_star_segment_known_values():
    seg = sigma_star_segment(165, 239)
    assert seg[0] == 288          # sigma*(165) = 4 * 6 * 12
    assert seg[238 - 165] == 432  # sigma*(238) = 3 * 8 * 18


def test_segment_bounds_validation():
    with pytest.raises(ValueError):
        sigma_star_segment(0, 10)
    with pytest.raises(ValueError):
        sigma_star_segment(10, 10)
    with pytest.raises(ValueError):
        sigma_segment(1, 1 << 60)
    with pytest.raises(ValueError):
        divisor_sum_segment(10, 20, unitary=True, step=2)  # step 2 needs an odd lo
    with pytest.raises(ValueError):
        divisor_sum_segment(11, 20, unitary=True, step=3)


def test_segments_agree_with_factorization():
    for _ in range(200):
        lo = rng.randrange(1, 10**7)
        seg_star = sigma_star_segment(lo, lo + 50)
        seg_sig = sigma_segment(lo, lo + 50)
        for i in range(50):
            f = factorize(lo + i)
            assert seg_star[i] == unitary_sigma(f)
            assert seg_sig[i] == sigma_from_factorization(f)


@settings(_PROPERTY, max_examples=200)
@given(
    lo=st.integers(1, 10**9),
    length=st.integers(1, 300),
    step=st.sampled_from([1, 2]),
    unitary=st.booleans(),
)
def test_divisor_sum_segment_matches_factorization(lo, length, step, unitary):
    lo |= step - 1  # step 2 runs over odd values
    values = range(lo, lo + length, step)
    seg = divisor_sum_segment(lo, lo + length, unitary, step=step)
    assert seg.dtype == np.int64
    assert seg.tolist() == _exact_sums(values, unitary)


@settings(_PROPERTY, max_examples=60)
@given(
    below_max=st.integers(0, 10**6),
    length=st.integers(2, 12),
    step=st.sampled_from([1, 2]),
    unitary=st.booleans(),
)
def test_sieve_kernel_near_max_sieve_value(below_max, length, step, unitary):
    # the base primes up to sqrt(2**59) would take a sieve of 7.6e8 flags;
    # primes that divide no value in the span contribute nothing, so the
    # kernel gets exactly the ones that do
    hi = MAX_SIEVE_VALUE - below_max
    lo = (hi - length) | (step - 1)
    values = range(lo, hi, step)
    top = values[-1]
    primes = sorted({
        p for n in values for p, _ in factorize(n).entries if p * p <= top
    })
    seg = sieve._divisor_sum_segment(lo, hi, step, np.array(primes, dtype=np.int64), unitary)
    assert seg.tolist() == _exact_sums(values, unitary)


def test_base_primes_one_growing_cache(monkeypatch):
    monkeypatch.setattr(sieve, "_primes", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(sieve, "_sieved_to", 1)
    small = base_primes(1000)
    big = base_primes(5000)  # grows the one sieve
    again = base_primes(1000)
    # both answers after the growth are prefixes of the one cached array
    assert np.shares_memory(big, sieve._primes) and np.shares_memory(again, sieve._primes)
    for got, bound in ((small, 1000), (big, 5000), (again, 1000)):
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in range(bound + 1) if is_prime(p)]
    assert base_primes(1).size == 0


@pytest.mark.parametrize("unitary", [True, False], ids=["sigma_star", "sigma"])
def test_odd_part_lookup_matches_brute(monkeypatch, brute_tables_1e5, unitary):
    limit = 10**5
    sig, usig = brute_tables_1e5
    empty = np.zeros((limit + 1) // 2, dtype=np.uint32)
    monkeypatch.setattr(search, "_STATE", {"tables": {unitary: empty}})
    table = search._build_table(unitary)
    m = np.arange(1, limit + 1, dtype=np.int64)
    sums, inside = search._lookup(table, m, unitary)
    assert inside.all()
    assert (sums == (usig if unitary else sig)[1:]).all()
    # the first odd value past the table, alone and times a power of two
    _, inside = search._lookup(table, np.array([limit + 1, 8 * (limit + 1)]), unitary)
    assert not inside.any()


def test_segment_split_invariance():
    whole = sigma_star_segment(1, 20001)
    parts = np.concatenate(
        [sigma_star_segment(lo, min(20001, lo + 1024)) for lo in range(1, 20001, 1024)]
    )
    assert (whole == parts).all()


def test_find_usp_first_hits():
    hits = find_usp(300)
    assert [(h.n, h.sigma_star_n, h.sigma_star_sigma_star_n) for h in hits] == [
        (2, 3, 4),
        (9, 10, 18),
        (165, 288, 330),
        (238, 432, 476),
    ]
    assert [h.parity for h in hits] == ["even", "odd", "odd", "even"]


def test_find_usp_trivial_limit():
    assert find_usp(1) == []


def test_find_usp_parity_filter():
    odd = find_usp(1000, parity="odd")
    even = find_usp(1000, parity="even")
    assert [h.n for h in odd] == [9, 165]
    assert [h.n for h in even] == [2, 238]


def test_odd_usp_hits_carry_structure():
    for h in find_usp(10**4, parity="odd"):
        assert h.structure is not None and h.structure.ok
    for h in find_usp(10**4, parity="even"):
        assert h.structure is None


def test_find_unitary_perfect():
    assert [h.n for h in find_unitary_perfect(100)] == [6, 60, 90]
    hits = find_unitary_perfect(10**5)
    assert 87360 in [h.n for h in hits]
    assert unitary_sigma(factorize(87360)) == 2 * 87360
    assert find_unitary_perfect(10**6, parity="odd") == []


def test_find_super_perfect():
    assert [h.n for h in find_super_perfect(100)] == [2, 4, 16, 64]
    hits = find_super_perfect(5000)
    assert 4096 in [h.n for h in hits]
    # sigma(4096) = 8191 is prime, sigma(8191) = 8192 = 2 * 4096
    assert sigma_from_factorization(factorize(4096)) == 8191
    assert find_super_perfect(10**5, parity="odd") == []


def test_find_perfect():
    assert [h.n for h in find_perfect(10**4)] == [6, 28, 496, 8128]


def test_classification_matches_brute_oracle_small():
    limit = 2 * 10**4
    expected = bruteforce.classify_brute(limit)
    hits = run_search(SearchConfig(limit=limit, classes=CLASS_ORDER)).hits
    got = {c: [] for c in CLASS_ORDER}
    for h in hits:
        got[h.classification].append(h.n)
    assert got == expected


def test_hit_lists_strictly_increasing():
    hits = run_search(SearchConfig(limit=10**5, classes=CLASS_ORDER)).hits
    per_class = {c: [] for c in CLASS_ORDER}
    for h in hits:
        per_class[h.classification].append(h.n)
    for ns in per_class.values():
        assert ns == sorted(set(ns))


def test_worker_count_independence():
    seg = 1 << 16
    r1 = run_search(SearchConfig(limit=2 * 10**5, segment_size=seg, workers=1))
    r4 = run_search(SearchConfig(limit=2 * 10**5, segment_size=seg, workers=4))
    assert r1.checkpoint_text == r4.checkpoint_text
    assert [h.n for h in r1.hits] == [h.n for h in r4.hits]


def test_segment_size_independence():
    ra = run_search(SearchConfig(limit=10**5, segment_size=1 << 14))
    rb = run_search(SearchConfig(limit=10**5, segment_size=1 << 20))
    assert [h.n for h in ra.hits] == [h.n for h in rb.hits]


def test_checkpoint_roundtrip(tmp_path):
    cp = str(tmp_path / "cp.txt")
    result = run_search(
        SearchConfig(limit=10**4, segment_size=2048, checkpoint_path=cp)
    )
    with open(cp) as fh:
        limit, seg, hits_by_segment = parse_checkpoint(fh.read())
    assert (limit, seg) == (10**4, 2048)
    flat = [h for s in hits_by_segment for h in s]
    assert [h.n for h in flat] == [h.n for h in result.hits]
    assert render_checkpoint(limit, seg, hits_by_segment) == result.checkpoint_text


def test_interrupt_resume_identical(tmp_path):
    cp = str(tmp_path / "cp.txt")
    seg = 2048
    baseline = run_search(SearchConfig(limit=10**4, segment_size=seg))
    partial = run_search(
        SearchConfig(limit=10**4, segment_size=seg, checkpoint_path=cp, max_segments=2)
    )
    assert not partial.completed and partial.segments_done == 2
    resumed = run_search(
        SearchConfig(limit=10**4, segment_size=seg, checkpoint_path=cp, resume=True)
    )
    assert resumed.completed
    assert resumed.checkpoint_text == baseline.checkpoint_text


def test_checkpoint_corruption_refused(tmp_path):
    cp = str(tmp_path / "cp.txt")
    run_search(SearchConfig(limit=300, segment_size=1024, checkpoint_path=cp))
    with open(cp) as fh:
        text = fh.read()
    with open(cp, "w") as fh:
        fh.write(text.replace("hit 2 3 4 usp", "hit 3 3 4 usp"))
    with pytest.raises(CheckpointError):
        run_search(
            SearchConfig(limit=300, segment_size=1024, checkpoint_path=cp, resume=True)
        )


def test_checkpoint_config_mismatch_refused(tmp_path):
    cp = str(tmp_path / "cp.txt")
    run_search(SearchConfig(limit=300, segment_size=1024, checkpoint_path=cp))
    with pytest.raises(CheckpointError):
        run_search(
            SearchConfig(limit=300, segment_size=2048, checkpoint_path=cp, resume=True)
        )
    with pytest.raises(CheckpointError):
        run_search(SearchConfig(limit=300, resume=True))


_GOOD_BODY = (
    "uspsearch-v1 300 1024\nseg 0 4\n"
    "hit 2 3 4 usp\nhit 9 10 18 usp\nhit 165 288 330 usp\nhit 238 432 476 usp\n"
)


@pytest.mark.parametrize(
    "body",
    [
        _GOOD_BODY.replace("1024\n", "1024\n\n"),
        _GOOD_BODY.replace("seg 0 4", "seg 0 5"),
        _GOOD_BODY.replace("seg 0 4", "seg 0 -1"),
        _GOOD_BODY.replace("hit 9 10 18 usp", "hit 9 10 18"),
        _GOOD_BODY.replace("hit 9 10", "hit 9.0 10"),
    ],
    ids=["blank-line", "count-above-lines", "negative-count", "short-hit-line",
         "non-integer-field"],
)
def test_malformed_checkpoint_refused(tmp_path, capsys, body):
    # each body carries a valid digest, so only the parser can refuse it
    cp = tmp_path / "cp.txt"
    cp.write_text(body + f"digest {hashlib.sha256(body.encode()).hexdigest()}\n")
    with pytest.raises(CheckpointError):
        run_search(
            SearchConfig(limit=300, segment_size=1024, checkpoint_path=str(cp), resume=True)
        )
    code = main(["search", "usp", "--limit", "300", "--segment-size", "1024",
                 "--checkpoint", str(cp), "--resume"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_out_of_table_segment_sieved_once(sieve_spans):
    # a zero budget leaves the 2**16-entry floor, odd values below 2**17;
    # each segment past it is sieved once per divisor sum, not once per class
    run_search(SearchConfig(limit=14 * 10**4, segment_size=4096, classes=CLASS_ORDER,
                            parity="odd", table_budget_bytes=0))
    assert len(sieve_spans) == len(set(sieve_spans))
    scanned = Counter(span[:3] for span in sieve_spans if span[0] > 2**17)
    assert scanned and set(scanned.values()) == {2}


def test_table_budget_fallback_matches_uncapped(monkeypatch, sieve_spans):
    # under the 2**16-entry floor, first applications of n > 2**17 come from a
    # per-segment sieve (step 1; the table is built from step-2 spans), and
    # second ones with an odd part past the table from exact factorization:
    # sigma(2 * 211**2) = 3 * 44733, for one
    common = dict(limit=14 * 10**4, segment_size=4096, classes=CLASS_ORDER)
    full = run_search(SearchConfig(**common))
    exact = []
    exact_divisor_sum = search._exact_divisor_sum

    def counted(m, unitary):
        exact.append(m)
        return exact_divisor_sum(m, unitary)

    monkeypatch.setattr(search, "_exact_divisor_sum", counted)
    sieve_spans.clear()
    capped = run_search(SearchConfig(table_budget_bytes=0, **common))
    assert any(step == 1 for _, _, step, _ in sieve_spans)
    assert 3 * 44733 in exact
    assert capped.checkpoint_text == full.checkpoint_text


#: SHA-256 of the checkpoint text of all four classes at limit 3*10**5 with
#: segment 2**14, by parity; the output bytes of these searches are fixed
_GOLDEN_CHECKPOINTS = {
    "all": "82b7734bb5fff162a7e26a4b16c24b14d4d947b1810f93a512d65739ad03e9e4",
    "odd": "e6c804429b9c5774f81be256bd7cb618c6eb20a363bc973936e13a4e6d87b715",
    "even": "c7e0eae102e896207dc75f40f837e61c20169e1c2ceb947099e6ae79150d0dfb",
}


@pytest.mark.parametrize("parity", _GOLDEN_CHECKPOINTS)
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("budget", [{}, {"table_budget_bytes": 0}], ids=["default", "capped"])
def test_checkpoint_bytes_golden(parity, workers, budget):
    result = run_search(SearchConfig(limit=3 * 10**5, segment_size=1 << 14, classes=CLASS_ORDER,
                                     parity=parity, workers=workers, **budget))
    digest = hashlib.sha256(result.checkpoint_text.encode()).hexdigest()
    assert digest == _GOLDEN_CHECKPOINTS[parity]


def test_one_pool_bounded_by_cpu_count(monkeypatch):
    # fork pools start all their workers at once: asking for 10**5 must not
    # fork 10**5 processes; the recorder starts two real ones at most
    requested = []
    pool_class = search.ProcessPoolExecutor

    def recorder(max_workers, mp_context):
        requested.append(max_workers)
        return pool_class(max_workers=min(max_workers, 2), mp_context=mp_context)

    monkeypatch.setattr(search, "ProcessPoolExecutor", recorder)
    common = dict(limit=10**5, segment_size=1 << 14, classes=CLASS_ORDER)
    serial = run_search(SearchConfig(**common)).checkpoint_text
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    # both tables and the scan share the one pool
    assert run_search(SearchConfig(workers=10**5, **common)).checkpoint_text == serial
    assert requested == [3]
    # a search of one segment and one table chunk runs in-process
    run_search(SearchConfig(limit=1000, workers=2))
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert run_search(SearchConfig(workers=10**5, **common)).checkpoint_text == serial
    assert requested == [3]


def test_nothing_to_scan_builds_no_table(monkeypatch, tmp_path):
    # max_segments 0 and a completed checkpoint leave no segment to scan: no
    # table is built, no pool is started, and the checkpoint text is unchanged
    cp = str(tmp_path / "cp.txt")
    common = dict(limit=10**5, segment_size=1 << 14, classes=CLASS_ORDER, workers=2)
    full = run_search(SearchConfig(checkpoint_path=cp, **common)).checkpoint_text
    builds, pools = [], []
    build_table = search._build_table
    monkeypatch.setattr(search, "_build_table", lambda *a: builds.append(a) or build_table(*a))
    monkeypatch.setattr(search, "ProcessPoolExecutor", lambda **kw: pools.append(kw))
    resumed = run_search(SearchConfig(checkpoint_path=cp, resume=True, **common))
    assert resumed.completed and resumed.checkpoint_text == full
    stopped = run_search(SearchConfig(max_segments=0, **common))
    assert not stopped.completed and stopped.segments_done == 0
    assert stopped.checkpoint_text == render_checkpoint(10**5, 1 << 14, [])
    assert builds == [] and pools == []


@pytest.mark.parametrize("workers", [1, 2])
def test_table_overflow_refused(monkeypatch, workers):
    # a divisor sum past uint32 stops the build, also from a pool worker
    def too_big(lo, hi, unitary, step):
        return np.full(len(range(lo, hi, step)), 1 << 32, dtype=np.int64)

    monkeypatch.setattr(search, "divisor_sum_segment", too_big)
    with pytest.raises(OverflowError):
        run_search(SearchConfig(limit=1 << 20, parity="odd", workers=workers))


def test_odd_sigma_table_capped_at_limit(monkeypatch):
    # for odd n, sigma(n) is odd only for squares, so the sigma table stops at
    # limit and the odd squares with sigma(n) past it are factorized exactly
    limit = 3 * 10**5
    config = SearchConfig(limit=limit, classes=("super_perfect",), parity="odd")
    assert search._table_sizes(config) == {False: (limit + 1) // 2}
    exact = []
    exact_divisor_sum = search._exact_divisor_sum

    def counted(m, unitary):
        exact.append(m)
        return exact_divisor_sum(m, unitary)

    monkeypatch.setattr(search, "_exact_divisor_sum", counted)
    assert run_search(config).hits == []
    odd_square_sigmas = {
        sigma_from_factorization(factorize(k * k)) for k in range(1, math.isqrt(limit) + 1, 2)
    }
    assert exact and set(exact) <= odd_square_sigmas


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_verify_hit_rejects_wrong_class(variant):
    hits = bruteforce.classify_brute(300)[variant.name]
    n = hits[0]
    hit = verify_hit(n, variant.name)
    # sigma* and sigma*sigma* travel with every hit, whatever its class
    s_star = unitary_sigma(factorize(n))
    assert (hit.sigma_star_n, hit.sigma_star_sigma_star_n) == (
        s_star, unitary_sigma(factorize(s_star))
    )
    assert n + 1 not in hits
    with pytest.raises(RuntimeError):
        verify_hit(n + 1, variant.name)


def test_search_hit_json_roundtrip():
    h = verify_hit(165, "usp")
    d = json.loads(h.to_json_line())
    assert d["n"] == 165 and d["sigma_star"] == 288
    assert d["structure"]["ok"] is True
    h = verify_hit(6, "perfect")
    assert json.loads(h.to_json_line())["structure"] is None


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(limit=0)
    with pytest.raises(ValueError):
        SearchConfig(limit=10**11)
    with pytest.raises(ValueError):
        SearchConfig(limit=10, parity="prime")
    with pytest.raises(ValueError):
        SearchConfig(limit=10, classes=("usp", "weird"))
    with pytest.raises(ValueError):
        SearchConfig(limit=10, workers=0)
    with pytest.raises(ValueError):
        SearchConfig(limit=10, segment_size=8)
    with pytest.raises(ValueError):
        SearchConfig(limit=10, max_segments=-1)
    SearchConfig(limit=10, max_segments=0)
