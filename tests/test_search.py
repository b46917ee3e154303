import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import random
import re
import signal
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uspkit import bruteforce, lists, search, sieve
from uspkit.arith import (
    factorize,
    is_prime,
    prime_power,
    sigma_from_factorization,
    unitary_sigma,
)
from uspkit.cli import main
from uspkit.search import (
    CLASS_ORDER,
    VARIANTS,
    CheckpointError,
    SearchConfig,
    find_usp,
    parse_checkpoint,
    render_checkpoint,
    run_search,
    verify_hit,
)
from uspkit.sieve import MAX_SIEVE_VALUE, base_primes, divisor_sum_segment

rng = random.Random(65537)

# reproducible examples, no example database written next to the tests
_PROPERTY = settings(deadline=None, derandomize=True, database=None)


def _exact_sums(values):
    return [unitary_sigma(factorize(n)) for n in values]


#: the unitary variants, which a search of every class classifies its blocks by
_UNITARY = [v for v in VARIANTS if v.unitary]


def _table(entries):
    """A sigma* table of entries odd values, filled by draining the builtin
    map of _fill_chunk over its chunks, as a run in one process does."""
    table = np.zeros(entries, dtype=np.uint32)
    chunks = search._runs(entries)
    return search._build_table(table, map(functools.partial(search._fill_chunk, table), chunks))


def _sigma_star_all(lo, hi):
    """sigma*(n) of every n in [lo, hi): the sieve's segments of the two
    parities, interleaved."""
    sums = np.zeros(hi - lo, dtype=np.int64)
    sums[0::2] = divisor_sum_segment(lo, hi)
    sums[1::2] = divisor_sum_segment(lo + 1, hi)
    return sums


@pytest.fixture
def sieve_spans(monkeypatch):
    """(lo, hi) of every call into the sieve kernel."""
    spans = []
    kernel = sieve._divisor_sum_segment

    def recorded(lo, hi, primes, out=None):
        spans.append((lo, hi))
        return kernel(lo, hi, primes, out)

    monkeypatch.setattr(sieve, "_divisor_sum_segment", recorded)
    return spans


def _refuse_forks(monkeypatch):
    """A list of the os.fork calls from here on, each refused: a run that
    starts a pool fails."""
    calls = []

    def refuse():
        calls.append(1)
        raise AssertionError("this run starts no pool")

    monkeypatch.setattr(search.os, "fork", refuse)
    return calls


def _forked_pids(monkeypatch):
    """A list of the pids that this process forks from here on."""
    pids, fork = [], search.os.fork

    def recorded():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(search.os, "fork", recorded)
    return pids


def _exits_within(seconds, pid):
    """Whether the child pid exits within seconds; it stays unreaped."""
    deadline = time.monotonic() + seconds
    while os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT | os.WNOHANG) is None:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _open_fds():
    """The descriptors open in this process, where the platform lists them."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


@pytest.fixture
def no_child_left():
    """Checks after the test that the process has no child, running or not
    yet reaped, and no descriptor open that was not open before it."""
    fds = _open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() <= fds


@pytest.fixture
def capped(monkeypatch):
    """Call to cap every lookup table at 2**16 entries, the odd values below
    2**17, for the rest of the test."""
    return lambda: monkeypatch.setattr(search, "_TABLE_ENTRIES", 1 << 16)


def test_sigma_star_segment_first_ten():
    # a segment holds the values of lo's parity
    assert divisor_sum_segment(1, 11).tolist() == [1, 4, 6, 8, 10]
    assert divisor_sum_segment(2, 11).tolist() == [3, 5, 12, 9, 18]
    assert _sigma_star_all(1, 11).tolist() == [1, 3, 4, 5, 6, 12, 8, 9, 10, 18]


def test_sigma_star_segment_known_values():
    seg = _sigma_star_all(165, 239)
    assert seg[0] == 288          # sigma*(165) = 4 * 6 * 12
    assert seg[238 - 165] == 432  # sigma*(238) = 3 * 8 * 18


def test_segment_bounds_validation():
    for lo, hi in ((0, 10), (10, 10), (1, 1 << 60)):
        with pytest.raises(ValueError):
            divisor_sum_segment(lo, hi)


def test_segments_agree_with_factorization():
    for _ in range(200):
        lo = rng.randrange(1, 10**7)
        assert _sigma_star_all(lo, lo + 50).tolist() == _exact_sums(range(lo, lo + 50))


@settings(_PROPERTY, max_examples=200)
@given(lo=st.integers(1, 10**9), length=st.integers(1, 300))
def test_divisor_sum_segment_matches_factorization(lo, length):
    # the sums equal the factorize-based ones, uint32 exactly when hi <= 2**29
    hi = lo + length
    seg = divisor_sum_segment(lo, hi)
    assert seg.dtype == (np.uint32 if hi <= 2**29 else np.int64)
    assert seg.tolist() == _exact_sums(range(lo, hi, 2))


@settings(_PROPERTY, max_examples=120)
@given(lo=st.integers(2**29 - 4000, 2**29 + 4000), length=st.integers(1, 300))
@example(lo=2**29 - 200, length=200)  # even lo, hi = 2**29
@example(lo=2**29 - 199, length=199)  # odd lo, hi = 2**29
@example(lo=2**29 - 200, length=201)  # even lo, hi = 2**29 + 1
@example(lo=2**29 - 199, length=200)  # odd lo, hi = 2**29 + 1
def test_fused_kernel_matches_factorization(lo, length):
    # the kernel factors the values and forms their sum in one fused pass:
    # about the 2**29 switch from uint32 to int64 its sums equal the
    # factorize-based ones
    hi = lo + length
    seg = divisor_sum_segment(lo, hi)
    assert seg.dtype == (np.uint32 if hi <= 2**29 else np.int64)
    assert seg.tolist() == _exact_sums(range(lo, hi, 2))


def _check_kernel(lo, hi, factors):
    """The kernel against factorize over lo, lo + 2, ... < hi.

    The base primes up to sqrt(top) can take a sieve far too large for a
    test near MAX_SIEVE_VALUE; primes that divide no value in the span
    contribute nothing, so the kernel gets exactly the ones that do.
    factors caches factorize across calls.
    """
    values = range(lo, hi, 2)
    for n in values:
        if n not in factors:
            factors[n] = factorize(n)
    top = values[-1]
    primes = sorted({p for n in values for p, _ in factors[n].entries if p * p <= top})
    seg = sieve._divisor_sum_segment(lo, hi, np.array(primes, dtype=np.int64))
    assert seg.tolist() == [unitary_sigma(factors[n]) for n in values], (lo, hi)


@settings(_PROPERTY, max_examples=60)
@given(below_max=st.integers(0, 10**6), length=st.integers(2, 12))
def test_sieve_kernel_near_max_sieve_value(below_max, length):
    # from an odd and an even lo
    hi = MAX_SIEVE_VALUE - below_max
    factors = {}
    for lo in (hi - length, hi - length - 1):
        _check_kernel(lo, hi, factors)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97, 1009])
def test_sieve_kernel_around_prime_powers(p):
    # the values of both parities within 64 of each p^k <= 10**12 and of the
    # largest p^k in the sieve's range, where multiples of p^j (j <= k) swap
    # sigma*'s p-part factor in place
    powers = [p]
    while powers[-1] * p + 64 <= MAX_SIEVE_VALUE:
        powers.append(powers[-1] * p)
    powers = [pk for pk in powers if pk <= 10**12] + powers[-1:]
    factors = {}
    for pk in powers:
        lo = max(1, pk - 64)
        for start in (lo, lo + 1):
            _check_kernel(start, start + 128, factors)


def test_divisor_sum_segment_full_block_matches_brute(brute_tables_2e5):
    limit = 2 * 10**5
    usig = brute_tables_2e5[1]
    for lo in (1, 2):
        seg = divisor_sum_segment(lo, limit + 1)
        assert (seg == usig[lo::2]).all(), lo


def _kernel_peak(lo, hi):
    """The sieve kernel's sum over lo, lo + 2, ... < hi, and the peak bytes
    that tracemalloc reads while it runs."""
    primes = base_primes(math.isqrt(hi - 1))
    tracemalloc.start()
    try:
        seg = sieve._divisor_sum_segment(lo, hi, primes)
        return seg, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("lo", [10**7 + 1, 10**7 + 2, 2**29 + 1, 2**29 + 2])
@pytest.mark.parametrize("step", [1, 2], ids=["sigma_star-1", "sigma_star-2"])
def test_sieve_kernel_holds_two_block_arrays(lo, step):
    # sigma* of count values step apart: one kernel run over lo's parity, or
    # for step 1 one run per parity of count / 2 values each. A run holds
    # rest and the returned sums, plus the boolean mask of the cofactor step
    # (and the 2-part of an even lo), in uint32 below 2**29 and int64 past it
    count = 1 << 18
    hi = lo + count * step
    width = 4 if hi <= 2**29 else 8
    for start in (lo,) if step == 2 else (lo, lo + 1):
        seg, peak = _kernel_peak(start, hi)
        assert seg.shape == (count * step // 2,)
        assert seg.dtype.itemsize == width
        assert peak < 3.5 * width * len(seg)


def test_table_chunk_holds_one_row():
    # a chunk of the odd values at the table's end, below 2**29: the uint32
    # sum, rest beside it, and the cofactor mask
    count = search._TABLE_CHUNK
    hi = 2 * search._TABLE_ENTRIES
    seg, peak = _kernel_peak(hi - 2 * count + 1, hi)
    assert seg.shape == (count,) and seg.dtype == np.uint32
    assert peak < 2.5 * 4 * count


def test_uint32_threshold_is_proved():
    # below the threshold a value has at most k distinct primes, k the most
    # whose primorial stays below it, so sigma*(n) <= sigma(n) < n * the
    # product of p / (p - 1) over the first k primes; that must stay below
    # 2**32, which fails at 2**30
    def bound(threshold):
        primes, primorial, ratio = [p for p in range(2, 100) if is_prime(p)], 1, Fraction(1)
        for p in primes:
            if primorial * p >= threshold:
                break
            primorial *= p
            ratio *= Fraction(p, p - 1)
        return (threshold - 1) * ratio

    assert sieve._UINT32_HI == 2**29
    assert bound(sieve._UINT32_HI) < 2**32 <= bound(2 * sieve._UINT32_HI)
    assert bound(sieve._UINT32_HI) < Fraction(612, 100) * 2**29


def test_odd_part_lookup_matches_brute(brute_tables_1e5):
    limit = 10**5
    usig = brute_tables_1e5[1]
    table = _table((limit + 1) // 2)
    m = np.arange(1, limit + 1, dtype=np.int64)
    sums, inside = search._lookup(table, m)
    assert inside.all()
    assert (sums == usig[1:]).all()
    # the first odd value past the table, alone and times a power of two
    _, inside = search._lookup(table, np.array([limit + 1, 8 * (limit + 1)]))
    assert not inside.any()


def test_segment_split_invariance():
    # from an odd and an even lo, a segment equals its parts
    for start in (1, 2):
        whole = divisor_sum_segment(start, 20001)
        parts = np.concatenate(
            [divisor_sum_segment(lo, min(20001, lo + 1024)) for lo in range(start, 20001, 1024)]
        )
        assert (whole == parts).all()


@pytest.mark.parametrize("lo, hi", [(1, 20001), (2, 20001), (2**29 - 4001, 2**29),
                                    (2**29 - 4000, 2**29 + 1)])
def test_divisor_sum_segment_into_out(lo, hi):
    # from an odd and an even lo, on either side of the uint32 switch, the
    # sums sieved into a given array are those of the allocating call, and
    # that array is returned; its old contents do not leak into the sums
    expected = divisor_sum_segment(lo, hi)
    out = np.full(expected.shape, 7, dtype=sieve.sum_dtype(hi))
    assert divisor_sum_segment(lo, hi, out=out) is out
    assert out.dtype == expected.dtype and (out == expected).all()


def test_divisor_sum_segment_refuses_a_wrong_out():
    # out must hold one entry per value, of the dtype the sums take at hi
    count = len(range(1, 20001, 2))
    for bad in (np.zeros(count - 1, dtype=np.uint32), np.zeros(count + 1, dtype=np.uint32),
                np.zeros(count, dtype=np.int64), np.zeros((count, 1), dtype=np.uint32)):
        with pytest.raises(ValueError, match="out must hold 10000 values of uint32"):
            divisor_sum_segment(1, 20001, out=bad)
    with pytest.raises(ValueError, match="of int64"):
        divisor_sum_segment(2**29 - 1, 2**29 + 1, out=np.zeros(1, dtype=np.uint32))


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


def _found(cls, limit, parity="all"):
    """The n <= limit that a search of the one class cls finds."""
    config = SearchConfig(limit=limit, classes=(cls,), parity=parity)
    return [h.n for h in run_search(config).hits]


def test_find_unitary_perfect():
    assert _found("unitary_perfect", 100) == [6, 60, 90]
    assert 87360 in _found("unitary_perfect", 10**5)
    assert unitary_sigma(factorize(87360)) == 2 * 87360
    assert _found("unitary_perfect", 10**6, parity="odd") == []


def test_find_super_perfect():
    assert _found("super_perfect", 100) == [2, 4, 16, 64]
    assert 4096 in _found("super_perfect", 5000)
    # sigma(4096) = 8191 is prime, sigma(8191) = 8192 = 2 * 4096
    assert sigma_from_factorization(factorize(4096)) == 8191
    assert _found("super_perfect", 10**5, parity="odd") == []


def test_find_perfect():
    assert _found("perfect", 10**4) == [6, 28, 496, 8128]


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
        # segment 1 holds the n in (1024, 2048]
        "uspsearch-v1 300 1024\nseg 0 0\nseg 1 2\nhit 165 288 330 usp\nhit 9 10 18 usp\n",
        _GOOD_BODY.replace("seg 0 4", "seg 0 5") + "hit 496 544 594 perfect\n",
        _GOOD_BODY.replace("hit 9 10 18 usp\nhit 165 288 330 usp",
                           "hit 165 288 330 usp\nhit 9 10 18 usp"),
        _GOOD_BODY.replace("seg 0 4", "seg 0 5").replace("hit 9 10 18 usp",
                                                         "hit 9 10 18 usp\nhit 9 10 18 usp"),
        # segments 1 and 2 start at 1025 and 2049, past the limit
        _GOOD_BODY + "seg 1 0\nseg 2 0\n",
    ],
    ids=["blank-line", "count-above-lines", "negative-count", "short-hit-line",
         "non-integer-field", "hit-outside-its-segment", "hit-past-the-limit",
         "hits-out-of-order", "repeated-hit", "segment-past-the-limit"],
)
def test_malformed_checkpoint_refused(tmp_path, capsys, body):
    # each body carries a valid digest, so only the parser can refuse it; a
    # refused resume leaves the file as it was
    cp = tmp_path / "cp.txt"
    cp.write_text(body + f"digest {hashlib.sha256(body.encode()).hexdigest()}\n")
    text = cp.read_bytes()
    with pytest.raises(CheckpointError):
        parse_checkpoint(cp.read_text())
    with pytest.raises(CheckpointError):
        run_search(
            SearchConfig(limit=300, segment_size=1024, checkpoint_path=str(cp), resume=True)
        )
    code = main(["search", "usp", "--limit", "300", "--segment-size", "1024",
                 "--checkpoint", str(cp), "--resume"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert cp.read_bytes() == text


def test_out_of_table_segment_sieved_once(sieve_spans, capped):
    # the capped table holds the odd values below 2**17 (built from spans
    # ending at 2**17), the odd parts of the even n up to 2**18; both even
    # blocks up to 6 * 10**5 reach past it, and each is sieved once, not
    # once per class or per segment
    capped()
    limit = 6 * 10**5
    run_search(SearchConfig(limit=limit, segment_size=4096, classes=CLASS_ORDER))
    assert len(sieve_spans) == len(set(sieve_spans))
    scanned = Counter(span for span in sieve_spans if span[1] > 2**17)
    blocks = search._blocks(CLASS_ORDER, "all", 1, limit + 1)
    assert len(blocks) == 2 and blocks[0].hi > 2**18
    assert scanned == {(lo, hi): 1 for lo, hi in blocks}


def test_table_budget_fallback_matches_uncapped(monkeypatch, sieve_spans, capped):
    # under a 2**16-entry cap, first applications of even n > 2**18 come
    # from the block's sieve (the table is built from spans ending at
    # 2**17), and second ones with an odd part past the table from exact
    # factorization: the first application sigma*(291290) = 2**2 * 131085
    # of a usp candidate (5 divides 291290), for one, whose odd part the
    # uncapped table of the odd values up to 3 * 10**5 holds
    common = dict(limit=6 * 10**5, segment_size=4096, classes=CLASS_ORDER)
    full = run_search(SearchConfig(**common))
    exact = []
    exact_divisor_sum = search._exact_divisor_sum

    def counted(m):
        exact.append(m)
        return exact_divisor_sum(m)

    monkeypatch.setattr(search, "_exact_divisor_sum", counted)
    sieve_spans.clear()
    capped()
    result = run_search(SearchConfig(**common))
    assert (2, 300002) in sieve_spans
    assert unitary_sigma(factorize(291290)) == 4 * 131085 in exact
    assert result.checkpoint_text == full.checkpoint_text


def test_capped_scan_sieves_one_block_at_a_time(sieve_spans, capped):
    # past a 2**16-entry cap a segment of 2**20 values is sieved one scan
    # block at a time, so the scan's memory is one block whatever the
    # segment
    common = dict(limit=10**6, segment_size=1 << 20, classes=CLASS_ORDER)
    full = run_search(SearchConfig(**common))
    sieve_spans.clear()
    capped()
    result = run_search(SearchConfig(**common))
    # the scan's blocks, all even
    assert {lo % 2 for lo, hi in sieve_spans if hi > 2**17} == {0}
    assert all(len(range(lo, hi, 2)) <= search._TABLE_CHUNK for lo, hi in sieve_spans)
    assert result.checkpoint_text == full.checkpoint_text


#: SHA-256 of the checkpoint text of all four classes at limit 3*10**5 with
#: segment 2**14, by parity; the output bytes of these searches are fixed
_GOLDEN_CHECKPOINTS = {
    "all": "82b7734bb5fff162a7e26a4b16c24b14d4d947b1810f93a512d65739ad03e9e4",
    "odd": "e6c804429b9c5774f81be256bd7cb618c6eb20a363bc973936e13a4e6d87b715",
    "even": "c7e0eae102e896207dc75f40f837e61c20169e1c2ceb947099e6ae79150d0dfb",
}


@pytest.mark.parametrize("parity", _GOLDEN_CHECKPOINTS)
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cap", [False, True], ids=["default", "capped"])
def test_checkpoint_bytes_golden(parity, workers, cap, capped):
    if cap:
        capped()
    result = run_search(SearchConfig(limit=3 * 10**5, segment_size=1 << 14, classes=CLASS_ORDER,
                                     parity=parity, workers=workers))
    digest = hashlib.sha256(result.checkpoint_text.encode()).hexdigest()
    assert digest == _GOLDEN_CHECKPOINTS[parity]


#: the same at limit 10**6 with segment 2**16, for the parities that look up
#: both divisor sums
_GOLDEN_CHECKPOINTS_1E6 = {
    "all": "2c6cd73af8d94a4ed16d172d56dba5b5dbbcbe63a6f511e73913935a6b4eb3f7",
    "even": "f64e6cfba6c1e3541a40dc396c9941faaefbe1bcc4aa741b3a1abc71aab5efd9",
}


@pytest.mark.parametrize("parity", _GOLDEN_CHECKPOINTS_1E6)
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cap", [False, True], ids=["default", "capped"])
def test_checkpoint_bytes_golden_1e6(parity, workers, cap, capped):
    if cap:
        capped()
    result = run_search(SearchConfig(limit=10**6, segment_size=1 << 16, classes=CLASS_ORDER,
                                     parity=parity, workers=workers))
    digest = hashlib.sha256(result.checkpoint_text.encode()).hexdigest()
    assert digest == _GOLDEN_CHECKPOINTS_1E6[parity]


def _odd_values(last):
    """Entries of a table of the odd values up to last: index i holds 2i + 1."""
    return len(range(1, last + 1, 2))


@pytest.fixture
def built_tables(monkeypatch):
    """(entries, bytes) of the table each table build fills and returns."""
    built = []
    build_table = search._build_table

    def recorded(table, filling):
        assert build_table(table, filling) is table
        built.append((table.shape[0], table.nbytes))
        return table

    monkeypatch.setattr(search, "_build_table", recorded)
    return built


@pytest.mark.parametrize("cap", [False, True], ids=["default", "capped"])
def test_stopped_run_tables_end_at_its_last_n(tmp_path, built_tables, cap, capped):
    # a run stopped by max_segments sizes its table to its own last n, not
    # to limit; the resumed run sizes it to limit, and its bytes are those
    # of the uninterrupted run.  sigma* is read only at even n, whose odd
    # parts are at most half the last n, and no other table is built
    if cap:
        capped()
    size, stop = 1 << 16, 3
    common = dict(limit=10**6, segment_size=size, classes=CLASS_ORDER,
                  checkpoint_path=str(tmp_path / "cp.txt"), workers=2)
    partial = run_search(SearchConfig(max_segments=stop, **common))
    assert partial.segments_done == stop and not partial.completed
    resumed = run_search(SearchConfig(resume=True, **common))
    # the stopped run's last n, then limit's
    entries = [min(_odd_values(last // 2), search._TABLE_ENTRIES) for last in (stop * size, 10**6)]
    assert built_tables == [(e, 4 * e) for e in entries]
    digest = hashlib.sha256(resumed.checkpoint_text.encode()).hexdigest()
    assert digest == _GOLDEN_CHECKPOINTS_1E6["all"]


@pytest.mark.parametrize("parity", ["all", "even"])
def test_usp_search_builds_one_half_row(built_tables, parity):
    # usp reads sigma* at even n only, the odd usp n being listed: the table
    # holds the odd values up to half the last n
    top = 10**5 + 3
    run_search(SearchConfig(limit=top, parity=parity))
    entries = (top // 2 + 1) // 2
    assert built_tables == [(entries, 4 * entries)]


def test_one_pool_bounded_by_cpu_count(monkeypatch):
    # fork pools start all their workers at once: asking for 10**5 must not
    # fork 10**5 processes; the recorder starts two real ones at most
    requested, forked = [], []
    phases, fork, usable_cpus = search._phases, search.os.fork, search.usable_cpus

    def recorder(processes, *tasks):
        requested.append(processes)
        return phases(min(processes, 2), *tasks)

    monkeypatch.setattr(search, "_phases", recorder)
    monkeypatch.setattr(search.os, "fork", lambda: forked.append(1) or fork())
    # three scan blocks of at most 2**18 even n, two table chunks of 2**18
    # entries
    common = dict(limit=12 * 10**5, segment_size=1 << 14, classes=CLASS_ORDER)
    serial = run_search(SearchConfig(**common)).checkpoint_text
    monkeypatch.setattr(search, "usable_cpus", lambda: [0, 1, 2])
    # the table and the scan share the one pool
    assert run_search(SearchConfig(workers=10**5, **common)).checkpoint_text == serial
    assert requested == [1, 3] and len(forked) == 2
    # a search of one block and one table chunk runs in-process, however
    # many segments it has
    run_search(SearchConfig(limit=1000, workers=2))
    run_search(SearchConfig(limit=10**5, segment_size=1024, workers=2))
    # a platform with no affinity mask that cannot count its CPUs
    monkeypatch.setattr(search, "usable_cpus", usable_cpus)
    monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert run_search(SearchConfig(workers=10**5, **common)).checkpoint_text == serial
    assert requested == [1, 3, 1, 1, 1] and len(forked) == 2


def test_parent_pickles_nothing(monkeypatch, no_child_left):
    # the 25 table chunks and 25 scan blocks of an even usp search to
    # 2 * 10**5, in blocks of 2**12 n, pass through a pool of two processes
    # that inherit them: the parent pickles nothing for its workers, and the
    # run gives the serial bytes
    config = SearchConfig(limit=2 * 10**5, parity="even", workers=2)
    expected = run_search(dataclasses.replace(config, workers=1)).checkpoint_text
    pickled, dumps = [], search.pickle.dumps
    # a worker's records stay in its own copy of the list
    monkeypatch.setattr(search.pickle, "dumps", lambda *a: pickled.append(a) or dumps(*a))
    monkeypatch.setattr(search.pickle, "dump", lambda *a: pickled.append(a))
    monkeypatch.setattr(search, "usable_cpus", lambda: [0, 1])
    monkeypatch.setattr(search, "_TABLE_CHUNK", 1 << 12)
    pids = _forked_pids(monkeypatch)
    assert len(search._blocks(config.classes, "even", 1, 2 * 10**5 + 1)) == 25
    assert run_search(config).checkpoint_text == expected
    assert len(pids) == 2 and pickled == []


def test_concurrent_searches_in_one_process():
    # two in-process searches on two threads of one process, one to 4 * 10**6
    # and one to 3 * 10**5, run at once for several rounds: each run's tasks
    # read its own table and classes, so each returns the bytes of its
    # serial run.  Pools started from threads are out of scope: a fork of a
    # process of several threads can deadlock the child (test_startup)
    configs = [SearchConfig(limit=4 * 10**6), SearchConfig(limit=3 * 10**5)]
    serial = [run_search(c).checkpoint_text for c in configs]
    for _ in range(3):
        with ThreadPoolExecutor(len(configs)) as threads:
            texts = list(threads.map(lambda c: run_search(c).checkpoint_text, configs))
        assert texts == serial


def test_worker_error_reaches_the_parent(monkeypatch, no_child_left):
    # a table chunk whose sieve raises in a worker raises the same error from
    # run_search, and every worker is reaped
    parent = os.getpid()

    def broken(lo, hi, out=None):
        raise ValueError(f"sieve failed in process {os.getpid()}")

    monkeypatch.setattr(search, "divisor_sum_segment", broken)
    monkeypatch.setattr(search, "usable_cpus", lambda: [0, 1])
    with pytest.raises(ValueError, match="sieve failed") as raised:
        run_search(SearchConfig(limit=12 * 10**5, workers=2))
    assert str(parent) not in str(raised.value)


def test_killed_worker_fails_the_search(monkeypatch, capsys, no_child_left):
    # a worker killed in the middle of a scan block makes run_search raise
    # at once, naming the worker; the pool never waits on it
    parent = os.getpid()
    lookup = search._progression_lookup

    def die(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return lookup(*args)

    monkeypatch.setattr(search, "_progression_lookup", die)
    monkeypatch.setattr(search, "usable_cpus", lambda: [0, 1])
    t0 = time.monotonic()
    with pytest.raises(ChildProcessError, match=r"search worker \d+ died \(exit code -9\)"):
        run_search(SearchConfig(limit=12 * 10**5, workers=2))
    assert time.monotonic() - t0 < 10
    # a dead worker is an error of the run, not of the mathematics: one
    # error line and exit 1
    assert main(["search", "usp", "--limit", "1200000", "--workers", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(r"error: search worker \d+ died \(exit code -9\)", err[0])


def _signal_each_task(monkeypatch, signum):
    """The checkpoint text of a 2-worker search whose workers send signum to
    themselves in every lookup, and that of the same search in one process."""
    parent = os.getpid()
    config = SearchConfig(limit=12 * 10**5, segment_size=1 << 14, workers=2)
    serial = run_search(dataclasses.replace(config, workers=1)).checkpoint_text
    lookup = search._progression_lookup

    def interrupt(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signum)
        return lookup(*args)

    monkeypatch.setattr(search, "_progression_lookup", interrupt)
    monkeypatch.setattr(search, "usable_cpus", lambda: [0, 1])
    return run_search(config).checkpoint_text, serial


def test_worker_ignores_sigint(monkeypatch, no_child_left):
    # a terminal's Ctrl-C reaches the workers too: a worker that receives
    # SIGINT in a task goes on, and the 2-worker search gives the serial bytes
    try:
        text, serial = _signal_each_task(monkeypatch, signal.SIGINT)
    except KeyboardInterrupt:  # raised in a worker and sent to the parent
        pytest.fail("a worker's SIGINT stopped the search")
    assert text == serial


def test_worker_ignores_sigterm(monkeypatch, no_child_left):
    # a SIGTERM sent to the process group reaches the workers too; only the
    # parent acts on it, so a worker that receives one goes on
    text, serial = _signal_each_task(monkeypatch, signal.SIGTERM)
    assert text == serial


class _MergeError(Exception):
    pass


def test_merge_error_stops_the_pool(monkeypatch, no_child_left):
    # an error in the parent's merge, with blocks still out in the workers,
    # propagates from run_search, and the workers are killed and reaped
    def refuse(n, cls):
        raise _MergeError(n)

    monkeypatch.setattr(search, "verify_hit", refuse)
    monkeypatch.setattr(search, "usable_cpus", lambda: [0, 1])
    with pytest.raises(_MergeError):
        run_search(SearchConfig(limit=12 * 10**5, segment_size=1 << 14, workers=2))


def test_worker_exit_fails_the_map(no_child_left):
    # a worker that exits in the middle of a task, before it answers, makes
    # the phase raise a ChildProcessError with its exit code
    with pytest.raises(ChildProcessError, match=r"search worker \d+ died \(exit code 3\)"):
        with search._phases(2, os._exit, [3, 3], abs, []) as (filling, scanning):
            list(filling)


def test_caller_error_kills_busy_workers(no_child_left):
    # an error in the phases' caller while both workers hold a long task
    # kills them: the pool does not wait for the tasks to end
    t0 = time.monotonic()
    with pytest.raises(_MergeError):
        with search._phases(2, abs, [0, 0], time.sleep, [0, 60, 60]) as (filling, scanning):
            list(filling)
            for _ in scanning:
                raise _MergeError
    assert time.monotonic() - t0 < 10


def test_workers_exit_after_their_last_answer(monkeypatch, no_child_left):
    # worker i answers once for chunks i, i + 2, ..., then once per block
    # i, i + 2, ..., and exits before the parent takes those answers, staying
    # unreaped for the pool; the parent reads them back in block order
    pids = _forked_pids(monkeypatch)
    with search._phases(2, abs, [-1, -2, -3], abs, [-4, -5, -6]) as (filling, scanning):
        assert list(filling) == [[1, 3], [2]]
        assert all(_exits_within(10, pid) for pid in pids)
        assert list(scanning) == [4, 5, 6]


def test_go_write_with_every_worker_dead(monkeypatch, no_child_left):
    # both workers die after their fill answers: the go bytes find no
    # reader, and the scan's first read names a dead worker
    pids = _forked_pids(monkeypatch)
    with pytest.raises(ChildProcessError, match=r"search worker \d+ died \(exit code -9\)"):
        with search._phases(2, abs, [-1, -2], abs, [-3, -4]) as (filling, scanning):
            assert [next(filling), next(filling)] == [[1], [2]]
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            assert list(filling) == []
            list(scanning)


def test_undrained_phases_release_the_workers(no_child_left, monkeypatch):
    # a caller that takes the fill answers and leaves before the go bytes
    # leaves each worker waiting for one; the pool's close of the go pipe
    # ends that wait, so each worker exits 0 by itself (one still alive
    # after 10 s is killed)
    waitpid, codes = os.waitpid, []

    def reap(pid, options):
        if not _exits_within(10, pid):
            os.kill(pid, signal.SIGKILL)
        status = waitpid(pid, options)[1]
        codes.append(os.waitstatus_to_exitcode(status))
        return pid, status

    monkeypatch.setattr(search.os, "waitpid", reap)
    with search._phases(2, abs, [-1, -2], abs, [-3, -4]) as (filling, scanning):
        assert [next(filling), next(filling)] == [[1], [2]]
    assert codes == [0, 0]


@pytest.mark.parametrize("error", [_MergeError, KeyboardInterrupt])
def test_listing_error_with_table_tasks_in_flight(monkeypatch, no_child_left, error):
    # the parent lists the hits that need no scan after the pool has forked
    # and its workers fill the table: an error or an interrupt there kills
    # and reaps the workers
    pids = _forked_pids(monkeypatch)

    def refuse(*args):
        assert len(pids) == 2  # one worker per table chunk
        raise error

    monkeypatch.setattr(search, "listed", refuse)
    monkeypatch.setattr(search, "usable_cpus", lambda: [0, 1])
    with pytest.raises(error):
        run_search(SearchConfig(limit=12 * 10**5, classes=CLASS_ORDER, workers=2))
    assert pids


def test_fresh_checkpoint_written_before_the_fork(monkeypatch, tmp_path, no_child_left):
    # a fresh run's checkpoint, with no segment, is on disk before the pool
    # forks, so that an interrupt at any later point leaves one to resume
    cp = tmp_path / "cp.txt"
    seen, fork = [], search.os.fork

    def recorded_fork():
        if not seen:
            seen.append(parse_checkpoint(cp.read_text())[2])
        return fork()

    monkeypatch.setattr(search.os, "fork", recorded_fork)
    monkeypatch.setattr(search, "usable_cpus", lambda: [0, 1])
    run_search(SearchConfig(limit=12 * 10**5, workers=2, checkpoint_path=str(cp)))
    assert seen == [[]]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(search.usable_cpus()) < 2,
                    reason="needs sched_setaffinity and two usable CPUs")
def test_workers_keep_to_distinct_cpus(monkeypatch, tmp_path, no_child_left):
    # each worker of a 2-worker search is pinned to one CPU of the parent's,
    # not the other's, and the parent's own CPU set is left as it was
    parent, cpus = os.getpid(), os.sched_getaffinity(0)
    log = tmp_path / "cpus.txt"
    segment = search.divisor_sum_segment

    def record(lo, hi, out=None):
        if os.getpid() != parent:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {sorted(os.sched_getaffinity(0))}\n")
        return segment(lo, hi, out)

    monkeypatch.setattr(search, "divisor_sum_segment", record)
    run_search(SearchConfig(limit=12 * 10**5, workers=2))
    seen = dict(line.split(" ", 1) for line in log.read_text().splitlines())
    pinned = [json.loads(cpu_list) for cpu_list in seen.values()]
    assert len(pinned) == 2 and all(len(cpu_set) == 1 for cpu_set in pinned)
    [a], [b] = pinned
    assert a != b and {a, b} <= cpus
    assert os.sched_getaffinity(0) == cpus


def test_failed_pin_leaves_the_worker_unpinned(monkeypatch, tmp_path, no_child_left):
    # a worker whose pin raises OSError runs where the scheduler put it: the
    # search still gives the serial bytes
    log = tmp_path / "pins.txt"

    def refuse(pid, cpus):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        raise OSError("no such CPU")

    config = SearchConfig(limit=12 * 10**5, segment_size=1 << 14, workers=2)
    serial = run_search(dataclasses.replace(config, workers=1)).checkpoint_text
    monkeypatch.setattr(search.os, "sched_setaffinity", refuse, raising=False)
    monkeypatch.setattr(search, "usable_cpus", lambda: [0, 1])
    assert run_search(config).checkpoint_text == serial
    assert len(set(log.read_text().split())) == 2


def test_nothing_to_scan_builds_no_table(monkeypatch, tmp_path):
    # max_segments 0 and a completed checkpoint leave no segment to scan: no
    # table is built, no pool is started, and the checkpoint text is unchanged
    cp = str(tmp_path / "cp.txt")
    common = dict(limit=10**5, segment_size=1 << 14, classes=CLASS_ORDER, workers=2)
    full = run_search(SearchConfig(checkpoint_path=cp, **common)).checkpoint_text
    builds = []
    build_table = search._build_table
    monkeypatch.setattr(search, "_build_table", lambda *a: builds.append(a) or build_table(*a))
    forks = _refuse_forks(monkeypatch)
    resumed = run_search(SearchConfig(checkpoint_path=cp, resume=True, **common))
    assert resumed.completed and resumed.checkpoint_text == full
    stopped = run_search(SearchConfig(max_segments=0, **common))
    assert not stopped.completed and stopped.segments_done == 0
    assert stopped.checkpoint_text == render_checkpoint(10**5, 1 << 14, [])
    assert builds == [] and forks == []


def test_checkpoint_written_once_per_merging_block(monkeypatch, tmp_path):
    # a fresh run writes the checkpoint with no segment before the table
    # build; then a returned block that merges segments writes it once for
    # all of them, however many there are, and a run that merges none (a
    # completed resume, max_segments 0) writes it once in total; each write
    # holds every segment merged so far, the listed perfect n among them
    cp = tmp_path / "cp.txt"
    limit, size, classes = 6 * 10**5, 2048, ("usp", "perfect")
    common = dict(limit=limit, segment_size=size, classes=classes, checkpoint_path=str(cp))
    baseline = run_search(SearchConfig(limit=limit, segment_size=size, classes=classes))
    baseline = baseline.checkpoint_text
    writes = []
    write_atomic = search._write_atomic
    monkeypatch.setattr(search, "_write_atomic",
                        lambda path, text: writes.append(text) or write_atomic(path, text))
    partial = run_search(SearchConfig(max_segments=2, **common))
    assert writes == [render_checkpoint(limit, size, []), partial.checkpoint_text]
    assert writes[-1] == cp.read_text()
    writes.clear()
    resumed = run_search(SearchConfig(resume=True, **common))
    # two even blocks of 2**18 n at most from 1 + 2 * size, each ending
    # past dozens of segments
    blocks = search._blocks(classes, "all", 1 + 2 * size, limit + 1)
    assert [b.lo % 2 for b in blocks] == [0, 0]
    assert [len(parse_checkpoint(text)[2]) for text in writes] == [147, resumed.total_segments]
    assert writes[-1] == resumed.checkpoint_text == baseline == cp.read_text()
    for config in (SearchConfig(resume=True, **common), SearchConfig(max_segments=0, **common)):
        writes.clear()
        result = run_search(config)
        assert writes == [result.checkpoint_text] == [cp.read_text()]
    assert writes == [render_checkpoint(limit, size, [])]


@pytest.mark.parametrize("workers", [1, 2])
def test_table_overflow_refused(monkeypatch, workers):
    # the table refuses to grow past _TABLE_ENTRIES, so the largest table's
    # last chunk ends at 2 * _TABLE_ENTRIES, where the sieve's sums are still
    # uint32 and exact: no chunk can overflow the table's uint32 entries, and
    # a full-size chunk at that end comes back uint32
    assert search._table_size(10**18) == search._TABLE_ENTRIES
    assert 2 * search._TABLE_ENTRIES <= sieve._UINT32_HI
    hi = 2 * search._TABLE_ENTRIES
    seg = divisor_sum_segment(hi - 2 * search._TABLE_CHUNK + 1, hi)
    assert seg.shape == (search._TABLE_CHUNK,) and seg.dtype == np.uint32
    # a usp search over all n <= 2**21 builds a sigma* table of 2**19
    # entries, two chunks, each filled straight from the sieve's uint32 sums,
    # in this process or in a pool worker
    assert search._table_size(1 << 21) == 2 * search._TABLE_CHUNK
    chunks = []

    def recorded(lo, hi, out=None):
        seg = divisor_sum_segment(lo, hi, out)
        chunks.append((lo, seg.dtype))
        return seg

    monkeypatch.setattr(search, "divisor_sum_segment", recorded)
    result = run_search(SearchConfig(limit=1 << 21, classes=("usp",), parity="all", workers=workers))
    assert [h.n for h in result.hits] == [n for n in _USP_1E8_HITS if n <= 1 << 21]
    # with two workers both chunks ran in the pool, not in this process
    expected = [(1, np.uint32), (2**19 + 1, np.uint32)]
    assert chunks == (expected if workers == 1 else [])


def test_odd_sigma_factorizes_only_candidates(monkeypatch, brute_tables_4e5):
    # the odd sigma classes read no table: odd_sigma sieves u = sigma(m^2)
    # for the odd m <= sqrt(limit), and factorizes u, in order of m, only
    # where Euler's form leaves m^2 (u = 1 (mod 4), u < 2m^2) or some
    # p^k * m^2 (5m^2 <= limit, 8m^2 < 5u < 10m^2) as a candidate (lists
    # docstring): O(sqrt(limit)) values
    limit = 3 * 10**5
    sig = brute_tables_4e5[0]
    roots = range(1, math.isqrt(limit) + 1, 2)
    assert lists._odd_square_sigmas(roots[-1]) == [int(sig[m * m]) for m in roots]
    factorized = []
    monkeypatch.setattr(lists, "factorize", lambda n: factorized.append(n) or factorize(n))
    assert lists.odd_sigma(1, limit + 1) == []
    expected = []
    for m in roots:
        u, m2 = int(sig[m * m]), m * m
        if (u % 4 == 1 and u < 2 * m2) or (5 * m2 <= limit and 8 * m2 < 5 * u < 10 * m2):
            expected.append(u)
    assert factorized == expected
    # the filter keeps some of the u and drops others
    assert 0 < len(expected) < len(roots)


@pytest.mark.parametrize("parity", ["all", "odd", "even"])
def test_table_sizes_limit_at_every_parity(parity, capped):
    # blocks are laid, of the even n, when a unitary class is requested and
    # the parity is not odd, and read sigma* at the odd parts of the even n
    # up to the run's last n, at most half of it.  The table is at most 2**28
    # entries (1 GiB), or at most the cap
    assert search._TABLE_ENTRIES == 1 << 28
    for cap in (1 << 28, 1 << 16):
        if cap == 1 << 16:
            capped()
        for top in (1, 2, 3, 10**5, 3 * 10**5 + 1, 10**8, search.HARD_LIMIT):
            assert search._table_size(top) == min(_odd_values(top // 2), cap)
    for r in range(1, len(CLASS_ORDER) + 1):
        for classes in itertools.combinations(CLASS_ORDER, r):
            unitary = any(search._VARIANT_BY_NAME[c].unitary for c in classes)
            for top in (1, 2, 10**5):
                laid = unitary and parity != "odd" and top >= 2
                assert bool(search._blocks(classes, parity, 1, top + 1)) == laid


@pytest.mark.parametrize("parity", ["all", "odd", "even"])
def test_odd_first_applications_factorized(monkeypatch, sieve_spans, brute_tables_4e5, parity):
    # under the default cap every first application comes from the table,
    # and a second lookup leaves it only for a usp candidate whose odd part
    # lies past limit // 2, where the table ends.  Those candidates are
    # exactly the families of the search docstring, n = 2^b, whose first
    # application 2^b + 1 is odd, and n = 2^b * 3^(2e); at parity odd no
    # block is laid and nothing is factorized
    limit = 3 * 10**5
    exact = []
    exact_divisor_sum = search._exact_divisor_sum

    def counted(m):
        exact.append(m)
        return exact_divisor_sum(m)

    monkeypatch.setattr(search, "_exact_divisor_sum", counted)
    config = SearchConfig(limit=limit, segment_size=1 << 14, classes=CLASS_ORDER, parity=parity)
    run_search(config)
    assert all(hi <= limit + 1 for _, hi in sieve_spans)

    def past_table(ns, firsts):
        # the first application of each scanned n that is a candidate (the
        # usp prefilter and first < 2n) with its odd part past the table
        low = firsts & -firsts
        keep = (ns % np.where(low > 1, low + 1, 1) == 0) & (firsts // low > limit // 2)
        keep &= firsts < 2 * ns
        return [int(m) for m in firsts[keep]]

    # the even n, where the parity scans them; their first applications from
    # the divisor-sweep table (factorizing every n takes seconds)
    n = np.arange(2, limit + 1, 2, dtype=np.int64) if parity != "odd" else np.zeros(0, np.int64)
    assert sorted(exact) == sorted(past_table(n, brute_tables_4e5[1][n]))
    # the families, from factorize: n = 2^b and 2^b * 9^e, each of which occurs
    powers = [2**b for b in range(1, limit.bit_length())]
    nines = [p * 9**e for p in powers for e in range(1, 6) if p * 9**e <= limit]
    found = [past_table(np.array(ns), np.array(_exact_sums(ns))) for ns in (powers, nines)]
    assert all(found)
    assert sorted(exact) == (sorted(sum(found, [])) if parity != "odd" else [])


@settings(_PROPERTY, max_examples=200)
@given(a=st.integers(0, 28), odd=st.integers(0, 10**9))  # m < 2**59
def test_two_part_factor_matches_factorization(a, odd):
    # m = 2^a * m' with m' odd: sigma*(m) = sigma*(2^a) sigma*(m'); the
    # lookups and the prefilter all take the 2-part's factor from
    # _two_part_factor, on ints or arrays
    m_odd = 2 * odd + 1
    m = 2**a * m_odd
    two_part = 2**a + (a > 0)
    idx, factor = search._split(np.array([m], dtype=np.int64))
    assert (int(idx[0]), int(factor[0])) == (odd, two_part)
    assert search._two_part_factor(2**a) == two_part
    assert _exact_sums([m]) == [two_part * _exact_sums([m_odd])[0]]
    assert _exact_sums([2**a]) == [two_part]


def test_prefilter_keeps_every_brute_hit():
    # a usp hit n has the 2-part's factor of its first application dividing
    # n, at every parity; the search then finds every oracle hit of the
    # parity (all n: test_classification_matches_brute_oracle_small)
    limit = 2 * 10**4
    expected = bruteforce.classify_brute(limit)
    ns = expected["usp"]
    first = np.array(_exact_sums(ns), dtype=np.int64)
    assert (np.array(ns) % search._split(first)[1] == 0).all()
    for parity, keep in (("odd", {1}), ("even", {0})):
        hits = run_search(SearchConfig(limit=limit, classes=CLASS_ORDER, parity=parity)).hits
        got = {c: [] for c in CLASS_ORDER}
        for h in hits:
            got[h.classification].append(h.n)
        assert got == {c: [n for n in ns if n % 2 in keep] for c, ns in expected.items()}


def test_prefilter_survivors_with_odd_or_twice_odd_first(brute_tables_2e5):
    # the module docstring's reason why the table holds nearly every second
    # lookup: a prefilter survivor whose first application has v2 <= 1 is
    # n = 2^b (v2 0) or n = 2^b * 3^(2e) (v2 1), over every even n <= 2*10**5
    limit = 2 * 10**5
    first = brute_tables_2e5[1][2::2]  # sigma*(n) for n = 2, 4, ..., limit
    idx = search._prefilter(first, 2)
    low = first[idx] & -first[idx]
    got = sorted((2 + 2 * idx[low <= 2]).tolist())
    forms = {2**b * 9**e for b in range(1, 18) for e in range(6)}
    assert got == sorted(n for n in forms if n <= limit)


def test_runs_split_evenly():
    # the one split rule of table chunks and scan blocks: the fewest runs of
    # at most _TABLE_CHUNK values, in order, lengths differing by at most 1
    chunk = search._TABLE_CHUNK
    for count in (0, 1, chunk - 1, chunk, chunk + 1, 507_904, 3 * chunk + 1):
        runs = search._runs(count)
        lengths = [j - i for i, j in runs]
        assert len(runs) == -(-count // chunk)
        assert [i for i, _ in runs] + [count] == [0] + [j for _, j in runs]
        assert max(lengths, default=0) <= chunk
        assert max(lengths, default=0) - min(lengths, default=0) <= 1
    # the resumed table of 10**6 entries: 4 chunks of 250,000, not 3 full
    # ones and a short one
    assert search._runs(10**6) == [(k * 250_000, (k + 1) * 250_000) for k in range(4)]


@settings(_PROPERTY, max_examples=200)
@given(s=st.integers(1, 10**5), count=st.integers(1, 3 * search._SCAN_BLOCK))
# slices whose largest odd part is the table's last value 99999 or the next
# odd value, from an odd s (n = 99999 and 100001) and from an even s (n =
# 2 * 99999 and 2 * 100001); and a short one from s = 1
@example(s=97_001, count=1_500)
@example(s=99_003, count=500)
@example(s=199_000, count=500)
@example(s=199_002, count=501)
@example(s=1, count=8)
def test_progression_lookup_and_prefilter_match_split(brute_tables_1e5, s, count):
    # the scan's first applications and the prefilter walk the progression's
    # 2-adic classes; they must agree with _lookup and _split value by
    # value, and the lookups refuse exactly the slices the table does not
    # serve, those that reach past its last odd value 10**5 - 1 among them
    table = brute_tables_1e5[1][1::2].astype(np.uint32)
    n = np.arange(s, s + 2 * count, 2, dtype=np.int64)
    sums, inside = search._lookup(table, n)
    first = search._progression_lookup(table, s, count)
    assert (first is None) == (not inside.all())
    # int64, as the scan widens the sieve's sums before any product
    firsts = [divisor_sum_segment(s, s + 2 * count).astype(np.int64)]
    if first is not None:
        assert first.dtype == np.int64 and (first == sums).all()
        firsts.append(first)
    for first in firsts:
        # the survivors come in no particular order: the merge sorts hits
        survivors = np.sort(search._prefilter(first, s))
        expected = np.flatnonzero(n % search._split(first)[1] == 0)
        assert np.array_equal(survivors, expected)


def test_progression_lookup_products_past_uint32():
    # table entries are uint32; the run's product with the 2-part's factor
    # is taken in int64, so sigma*(2^a * m') past 2^32 stays exact
    table = np.full(4, 2**32 - 1, dtype=np.uint32)
    first = search._progression_lookup(table, 2, 8)
    assert first.tolist() == [((n & -n) + 1) * (2**32 - 1) for n in range(2, 17, 2)]


def test_narrow_fallback_block_products_past_uint32(monkeypatch, sieve_spans):
    # the even block of the 2**17 values just below 2**29, past a 4-entry
    # table: it takes its first applications from one uint32 sieve pass of
    # sigma* and takes them to int64 before any product, so its second
    # applications, all from exact factorization here, are held exactly
    # past 2**32.  No true second application of a narrow block gets there
    # (first < 2**30, and below 2**30 sigma*(m) < 3.75m), so the stand-in
    # factorization returns each exact sum plus 2**32; the block has no hit
    table = _table(4)
    sieve_spans.clear()
    shifted, held = [], []
    exact_divisor_sum, lookup = search._exact_divisor_sum, search._lookup

    def shifted_sum(m):
        shifted.append(exact_divisor_sum(m) + 2**32)
        return shifted[-1]

    def recorded(table, m):
        assert m.dtype == np.int64
        held.append(lookup(table, m))
        return held[-1]

    monkeypatch.setattr(search, "_exact_divisor_sum", shifted_sum)
    monkeypatch.setattr(search, "_lookup", recorded)
    hi = 2**29
    block = search._Block(hi - 2**17, hi)
    assert search._classify_segment(table, _UNITARY, block) == []
    assert sieve_spans == [(block.lo, hi)]
    # the candidates fall back, and the int64 seconds keep every sum past 2**32
    assert shifted
    assert [int(x) for second, inside in held for x in second[~inside]] == shifted


def _int64_block_reference(block):
    """(hits, first applications of the usp survivors) of a block, all in
    int64 from the block's sieve and exact factorization: the n with
    sigma*(n) = 2n, and the n whose first application is below 2n with a
    2-part factor dividing n and a second application equal to 2n."""
    n = np.arange(block.lo, block.hi, 2, dtype=np.int64)
    first = divisor_sum_segment(block.lo, block.hi).astype(np.int64)
    survive = (n % search._split(first)[1] == 0) & (first < 2 * n)
    second = np.array(_exact_sums(first[survive].tolist()), dtype=np.int64)
    usp = n[survive][second == 2 * n[survive]]
    hits = [(int(x), "unitary_perfect") for x in n[first == 2 * n]]
    return sorted(hits + [(int(x), "usp") for x in usp]), sorted(first[survive].tolist())


@pytest.mark.parametrize("lo, hi, dtype", [
    (2**29 - 2**17, 2**29, np.uint32),  # ends at 2**29: narrow
    (2**29 - 2**17 + 2, 2**29 + 2, np.int64),  # holds n = 2**29: wide
    (2**29, 2**29 + 2**17, np.int64),  # starts at 2**29: wide
], ids=["ends-at-2^29", "holds-2^29", "starts-at-2^29"])
def test_narrow_scan_matches_int64_reference(monkeypatch, lo, hi, dtype):
    # a block up to 2**29 scans in uint32 and one past it in int64, taken
    # from the block's hi as the sieve takes its dtype; against the true
    # table of the first 2**20 odd values, with all four classes, both give
    # the hits and the int64 survivors of an all-int64 reference
    table = _table(1 << 20)
    firsts, survivors = [], []
    prefilter, lookup = search._prefilter, search._lookup

    def recorded_prefilter(first, s):
        firsts.append(first.dtype)
        return prefilter(first, s)

    def recorded_lookup(table, m):
        survivors.append(m)
        return lookup(table, m)

    monkeypatch.setattr(search, "_prefilter", recorded_prefilter)
    monkeypatch.setattr(search, "_lookup", recorded_lookup)
    block = search._Block(lo, hi)
    hits, first = _int64_block_reference(block)
    assert sorted(search._classify_segment(table, _UNITARY, block)) == hits
    assert firsts and set(firsts) == {np.dtype(dtype)}
    assert all(m.dtype == np.int64 for m in survivors)
    assert sorted(np.concatenate(survivors).tolist()) == first


@pytest.mark.parametrize("s, count", [(1, 8), (2, 3 * search._SCAN_BLOCK), (99_003, 500),
                                      (199_000, 500)])
def test_narrow_progression_lookup_matches_int64(brute_tables_1e5, s, count):
    # the uint32 first applications of a slice below 2**29 are the int64
    # ones, and both refuse the same slices
    table = brute_tables_1e5[1][1::2].astype(np.uint32)
    wide = search._progression_lookup(table, s, count)
    narrow = search._progression_lookup(table, s, count, np.uint32)
    assert (narrow is None) == (wide is None)
    if wide is not None:
        assert narrow.dtype == np.uint32 and (narrow == wide).all()


def test_scan_holds_few_slice_arrays(sieve_spans):
    # the in-table block of the 2**18 even n up to 2**19, all four classes: a
    # slice holds n, its one first application and 2n as int64 arrays of
    # _SCAN_BLOCK values, and the prefilter's and second lookup's arrays are
    # smaller; four such arrays bound the peak (taking the first
    # applications through _lookup's split of every n needs more than eight)
    hi = (1 << 19) + 1
    table = _table((hi + 1) // 2)
    sieve_spans.clear()
    tracemalloc.start()
    try:
        hits = search._classify_segment(table, _UNITARY, search._Block(2, hi))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not sieve_spans  # every first application came from the table
    # the block holds the even usp and unitary perfect n below 2**19
    usp = [(n, "usp") for n in _USP_1E8_HITS if n % 2 == 0 and n < hi]
    unitary_perfect = [(n, "unitary_perfect") for n in (6, 60, 90, 87360)]
    assert sorted(hits) == sorted(usp + unitary_perfect)
    assert peak < 4 * 8 * search._SCAN_BLOCK


#: SHA-256 of the checkpoint text of odd searches of the unitary classes, by
#: (classes, limit, segment_size); the table-free scan writes these bytes
_GOLDEN_ODD_UNITARY = {
    (("usp",), 1, 1024):
        "e3548eeba449db445380cc530a9d93c035fe5c24a7ceee9efd6f9317f3434130",
    (("usp",), 165, 1024):
        "93bc32f48be4b8c7d22472aefdeb75652653dec8748f9f65112be91b98fd427c",
    (("usp",), 10**5, 1025):
        "8b3da2b8fdc373c2add2ef8a8ee501557a03c00911011c959b34243071550031",
    (("usp",), 10**5 + 3, 1031):
        "174f3a357b7590e5a3f1aa2dc5e5496f4b796bacf51888d677a2ae966e9c359d",
    (("usp",), 10**7, 1 << 20):
        "90d95b1838e14a18e8453549164640847320cf7c4f7eb222b8d0a2e7db1c757f",
    (("unitary_perfect",), 1, 1024):
        "e3548eeba449db445380cc530a9d93c035fe5c24a7ceee9efd6f9317f3434130",
    (("unitary_perfect",), 165, 1024):
        "fcf3d14afe6e8558bfe28b98b0a0b50dce0da9a22bd4e6d8ccc76f96e6855788",
    (("unitary_perfect",), 10**5, 1025):
        "1ea791727e33a998ec8e031a7d4b903712f6921669a0656d06e54d574dd76198",
    (("unitary_perfect",), 10**5 + 3, 1031):
        "da6262f5fe3f0cedc8754c915ae1289e62b13923ab237710f228323f8534464b",
    (("unitary_perfect",), 10**7, 1 << 20):
        "329238111520b78dc6a327f7120628f61728e2b33c88a5d3b3153cebfb26b92c",
    (("usp", "unitary_perfect"), 1, 1024):
        "e3548eeba449db445380cc530a9d93c035fe5c24a7ceee9efd6f9317f3434130",
    (("usp", "unitary_perfect"), 165, 1024):
        "93bc32f48be4b8c7d22472aefdeb75652653dec8748f9f65112be91b98fd427c",
    (("usp", "unitary_perfect"), 10**5, 1025):
        "8b3da2b8fdc373c2add2ef8a8ee501557a03c00911011c959b34243071550031",
    (("usp", "unitary_perfect"), 10**5 + 3, 1031):
        "174f3a357b7590e5a3f1aa2dc5e5496f4b796bacf51888d677a2ae966e9c359d",
    (("usp", "unitary_perfect"), 10**7, 1 << 20):
        "90d95b1838e14a18e8453549164640847320cf7c4f7eb222b8d0a2e7db1c757f",
}


@pytest.mark.parametrize(
    "classes, limit, segment_size", _GOLDEN_ODD_UNITARY,
    ids=lambda v: "+".join(v) if isinstance(v, tuple) else str(v),
)
@pytest.mark.parametrize("workers", [1, 2])
def test_odd_unitary_checkpoint_golden(classes, limit, segment_size, workers):
    # odd segment sizes start every other segment at an even n
    result = run_search(SearchConfig(limit=limit, segment_size=segment_size, classes=classes,
                                     parity="odd", workers=workers))
    digest = hashlib.sha256(result.checkpoint_text.encode()).hexdigest()
    assert digest == _GOLDEN_ODD_UNITARY[classes, limit, segment_size]


#: SHA-256 of the checkpoint text of the odd usp search at the default
#: segment size, by limit; all hold the hits 9 and 165
_GOLDEN_ODD_USP_AT_SCALE = {
    10**8: "2f5c4a5d9f68a2e817999513188180c2c75cdcd1744e37942c01c1c655e2295c",
    10**9: "76801a022ef6882dd2bd4d160685e35a226dda133db5bd7233dcfc308a44532f",
    search.HARD_LIMIT:
        "fa3383bac738eb6fa23ffea929109b27494ad80ee2f1847ce09ff1bb7ff78637",
}


@pytest.mark.parametrize("limit", _GOLDEN_ODD_USP_AT_SCALE, ids=["1e8", "1e9", "1e10"])
def test_odd_usp_checkpoint_golden_at_scale(limit):
    # the headline search, ten times it, and HARD_LIMIT: milliseconds each,
    # since the hits are listed, not sieved
    result = run_search(SearchConfig(limit=limit, parity="odd", workers=2))
    assert [h.n for h in result.hits] == [9, 165]
    digest = hashlib.sha256(result.checkpoint_text.encode()).hexdigest()
    assert digest == _GOLDEN_ODD_USP_AT_SCALE[limit]


#: the usp below 10**8 over all n, the search of Sitaramaiah and Subbarao,
#: and the SHA-256 of its checkpoint text at the default segment size
_USP_1E8_HITS = [
    2, 9, 165, 238, 1640, 4320, 10250, 10824, 13500, 23760, 58500, 66912, 425880, 520128,
    873180, 931392, 1899744, 2129400, 2253888, 3276000, 4580064, 4668300, 13722800,
    15459840, 40360320,
]
_USP_1E8_DIGEST = "9c96935e2c83a71a6aad8457e2cddd63a7a16b7aafec9bfa30380cd501917cf9"


def test_usp_checkpoint_golden_1e8_all_n():
    # the table-backed scan of every n <= 10**8: about 4 s with 2 workers
    result = run_search(SearchConfig(limit=10**8, classes=("usp",), parity="all", workers=2))
    assert [h.n for h in result.hits] == _USP_1E8_HITS
    assert hashlib.sha256(result.checkpoint_text.encode()).hexdigest() == _USP_1E8_DIGEST


def test_scanned_odd_usp_hits_match_the_list():
    # no block tests usp on an odd n, whatever classes are asked beside it:
    # for every class set with usp, at parity all, the odd usp hits are the
    # ones odd_usp lists
    limit = 10**6
    listed = lists.odd_usp(1, limit + 1)
    others = [c for c in CLASS_ORDER if c != "usp"]
    for r in range(len(others) + 1):
        for rest in itertools.combinations(others, r):
            hits = run_search(SearchConfig(limit=limit, classes=("usp",) + rest)).hits
            assert [h.n for h in hits if h.classification == "usp" and h.n % 2] == listed


@pytest.mark.parametrize("classes", [("usp",), ("unitary_perfect",), ("usp", "unitary_perfect")])
def test_unitary_search_over_all_n_scans_even_n(monkeypatch, classes):
    # every requested class unitary: the scan lays blocks from even starts
    # only and the odd usp n are listed; perfect beside them lays the same
    # even blocks and no other, and its checkpoint holds the same hits
    limit, size = 10**6, 1 << 16
    blocks = []
    classify = search._classify_segment
    monkeypatch.setattr(search, "_classify_segment",
                        lambda *args: blocks.append(args[-1]) or classify(*args))
    result = run_search(SearchConfig(limit=limit, segment_size=size, classes=classes))
    even = list(blocks)
    assert len(even) > 1 and all(lo % 2 == 0 for lo, _ in even)
    blocks.clear()
    full = run_search(SearchConfig(limit=limit, segment_size=size, classes=classes + ("perfect",)))
    assert blocks == even

    assert result.checkpoint_text == render_checkpoint(limit, size, [
        [h for h in seg if h.classification in classes]
        for seg in parse_checkpoint(full.checkpoint_text)[2]
    ])
    assert any(h.n % 2 for h in result.hits) == ("usp" in classes)


@pytest.mark.parametrize("parity", ["all", "odd", "even"])
def test_each_block_reads_one_divisor_sum(monkeypatch, sieve_spans, parity):
    # for every class set: the blocks hold even n and cover the even n
    # once, and are laid exactly when a unitary class is requested and the
    # parity is not odd, and the sieve runs exactly when blocks are laid;
    # every slice takes its first applications from the table; and the hits
    # are the oracle's, the odd usp and the even sigma hits listed
    limit = 3000
    oracle = bruteforce.classify_brute(limit)
    blocks, slices = [], []
    classify = search._classify_segment
    progression_lookup = search._progression_lookup

    def recorded_progression_lookup(table, s, count, dtype):
        slices.append((s, count))
        return progression_lookup(table, s, count, dtype)

    monkeypatch.setattr(search, "_classify_segment",
                        lambda *args: blocks.append(args[-1]) or classify(*args))
    monkeypatch.setattr(search, "_progression_lookup", recorded_progression_lookup)
    for r in range(1, len(CLASS_ORDER) + 1):
        for classes in itertools.combinations(CLASS_ORDER, r):
            blocks.clear()
            slices.clear()
            sieve_spans.clear()
            hits = run_search(SearchConfig(limit=limit, segment_size=1024, classes=classes,
                                           parity=parity)).hits
            unitary = any(search._VARIANT_BY_NAME[c].unitary for c in classes)
            scanned = [n for b in blocks for n in range(b.lo, b.hi, 2)]
            laid = unitary and parity != "odd"
            assert scanned == (list(range(2, limit + 1, 2)) if laid else [])
            # one first lookup per n
            assert [s + 2 * i for s, count in slices for i in range(count)] == scanned
            assert bool(sieve_spans) == laid
            keep = {"all": (0, 1), "odd": (1,), "even": (0,)}[parity]
            assert sorted((h.n, h.classification) for h in hits) == sorted(
                (n, c) for c in classes for n in oracle[c] if n % 2 in keep)


@pytest.mark.parametrize("cap", [False, True], ids=["default", "capped"])
def test_odd_unitary_search_builds_no_table(monkeypatch, sieve_spans, cap, capped):
    # the odd usp hits come from odd_usp and no odd n is unitary_perfect: no
    # table, no sieve, no pool, no exact fallback, and every hit still
    # re-verified; the hits per segment equal the odd hits of the
    # table-backed search over all n
    common = dict(limit=10**6, segment_size=1 << 16, classes=("usp", "unitary_perfect"))
    full = run_search(SearchConfig(**common)).checkpoint_text
    expected = render_checkpoint(10**6, 1 << 16, [
        [h for h in seg if h.n % 2] for seg in parse_checkpoint(full)[2]
    ])
    if cap:
        capped()
    odd_config = SearchConfig(parity="odd", **common)
    # no block at parity odd, whatever the classes
    assert search._blocks(odd_config.classes, "odd", 1, 10**6 + 1) == []
    assert search._blocks(CLASS_ORDER, "odd", 1, 10**6 + 1) == []
    calls = {"_build_table": [], "_exact_divisor_sum": [], "verify_hit": []}
    for name, record in calls.items():
        fn = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *a, fn=fn, rec=record: rec.append(a) or fn(*a))
    sieve_spans.clear()
    forks = _refuse_forks(monkeypatch)
    odd = run_search(dataclasses.replace(odd_config, workers=2))
    assert calls["_build_table"] == [] and calls["_exact_divisor_sum"] == []
    assert sieve_spans == [] and forks == []
    assert calls["verify_hit"] == [(9, "usp"), (165, "usp")]
    assert odd.checkpoint_text == expected


def _brute_odd_usp(usig, limit):
    """The odd usp n <= limit by classify_brute's test, from sigma* tables up to
    2 * limit, which hold sigma*(n) of every hit since sigma*(sigma*(n)) > sigma*(n)."""
    n = np.arange(1, limit + 1, 2)
    s = usig[n]
    assert not (s == 2 * n).any()  # no odd unitary perfect n
    return n[(s < 2 * n) & (usig[np.minimum(s, 2 * limit)] == 2 * n)].tolist()


def test_closed_form_filter_matches_brute_oracle(brute_tables_2e5):
    # over every odd n <= 10**5 the list holds exactly the oracle's odd hits,
    # also from lo past 1 and up to hi below limit; the empty range [1, 0)
    # lists nothing, here and in the other two lists
    limit = 10**5
    usp = _brute_odd_usp(brute_tables_2e5[1], limit)
    assert usp
    for lo, hi in ((1, limit + 1), (9, 10), (10, limit + 1), (1, 165), (166, limit + 1), (1, 0)):
        assert lists.odd_usp(lo, hi) == [x for x in usp if lo <= x < hi]
    assert lists.even_sigma(1, 0) == lists.odd_sigma(1, 0) == []


def test_moduli_divide_every_candidate(brute_tables_2e5):
    # the odd n <= 2 * 10**5 that solve (2^a + 1)(m' + 1) = 2n for their own
    # a, whether or not m' is a prime power, are 9 (a = 1) and 165, a
    # multiple of 2^5 + 1, the modulus odd_usp starts from
    limit = 2 * 10**5
    usig = brute_tables_2e5[1]
    n = np.arange(1, limit + 1, 2)
    s = usig[n]
    low = s & -s
    assert n[(low + 1) * (s // low + 1) == 2 * n].tolist() == [9, 165]
    assert unitary_sigma(factorize(9)) == 2 * 5 and unitary_sigma(factorize(165)) == 2**5 * 9
    assert 165 % (2**5 + 1) == 0
    assert _brute_odd_usp(usig, limit // 2) == [9, 165]


def test_power_of_three_only_at_a_1_and_3():
    # 2^a + 1 has a prime r != 3 for every a >= 2 but 3 (lists docstring),
    # so odd_usp's default r = 3 serves a = 3 alone
    powers_of_three = {3**k for k in range(1, 260)}
    assert [a for a in range(1, 401) if 2**a + 1 in powers_of_three] == [1, 3]


def test_no_mersenne_prime_divides_two_power_plus_one():
    # the order of 2 mod 2^p - 1 is p, so for odd p 2^a = -1 never holds;
    # checked for every odd p <= 127, the Mersenne primes 2^3 - 1, ...,
    # 2^127 - 1 among them
    assert [(p, a) for p in range(3, 128, 2) for a in range(1, 401)
            if (2**a + 1) % (2**p - 1) == 0] == []


def test_prime_power_plus_one_never_power_of_two():
    # r^e + 1 for odd prime r and e >= 2, r^e <= 10**7, always has an odd prime
    limit = 10**7
    found = []
    for r in base_primes(math.isqrt(limit))[1:].tolist():
        re = r * r
        while re <= limit:
            if (re + 1) & re == 0:
                found.append(re)
            re *= r
    assert found == []


def test_odd_usp_matches_step_2_sieve():
    # the brute-force side: sigma*(n) of every odd n <= 10**7 from the plain
    # sieve of the odd values, then the equation (2^a + 1)(m' + 1) = 2n with m' a prime
    # power; the enumeration lists exactly those n
    limit = 10**7
    solved = []
    for lo in range(1, limit + 1, 1 << 21):
        hi = min(limit + 1, lo + (1 << 21))
        n = np.arange(lo, hi, 2, dtype=np.int64)
        s = divisor_sum_segment(lo, hi).astype(np.int64)
        low = s & -s
        odd = s // low
        for j in np.flatnonzero((low + 1) * (odd + 1) == 2 * n):
            if prime_power(int(odd[j])) is not None:
                solved.append(int(n[j]))
    assert solved == lists.odd_usp(1, limit + 1) == [9, 165]


def test_odd_usp_by_definition_1e8():
    # the paper's odd range by sigma*(sigma*(n)) = 2n alone, with neither
    # factorize, nor odd_usp's equation, nor the cut-off lemma: a table of
    # sigma*(2i + 1) at i over the odd values <= 10**8 from the sieve, then,
    # for every odd n with sigma*(n) = 2^a * m' < 2n, the second application
    # sigma*(2^a) * sigma*(m'), where m' < n lies in the table
    limit, chunk = 10**8, 1 << 21
    table = np.empty((limit + 1) // 2, dtype=np.uint32)
    for lo in range(1, limit + 1, chunk):
        hi = min(limit + 1, lo + chunk)
        table[lo // 2 : hi // 2] = divisor_sum_segment(lo, hi)  # lo, hi odd
    hits = []
    for lo in range(1, limit + 1, chunk):
        hi = min(limit + 1, lo + chunk)
        n = np.arange(lo, hi, 2, dtype=np.int64)
        first = table[lo // 2 : hi // 2].astype(np.int64)
        keep = first < 2 * n
        n, first = n[keep], first[keep]
        low = first & -first  # 2^a, and sigma*(2^a) = 2^a + 1 for a >= 1
        second = (low + (low > 1)) * table[(first // low) >> 1]
        hits += n[second == 2 * n].tolist()
    assert hits == lists.odd_usp(1, limit + 1) == [9, 165]


def test_odd_unitary_perfect_search_sieves_nothing(monkeypatch, sieve_spans):
    # no odd n is unitary perfect: the search scans no block and starts no
    # pool, yet writes one empty line per segment
    forks = _refuse_forks(monkeypatch)
    config = SearchConfig(limit=10**4, segment_size=1024, classes=("unitary_perfect",),
                          parity="odd", workers=2)
    assert search._blocks(config.classes, "odd", 1, 10**4 + 1) == []
    result = run_search(config)
    assert sieve_spans == [] and forks == []
    assert result.completed and result.checkpoint_text == render_checkpoint(10**4, 1024, [[]] * 10)


def _one_segment_split(config):
    """The checkpoint text of config, from the hits of one segment over every n."""
    whole = dataclasses.replace(config, segment_size=config.limit, checkpoint_path=None,
                                max_segments=None, resume=False, workers=1)
    hits = run_search(whole).hits
    size = config.segment_size
    starts = range(1, config.limit + 1, size)
    return render_checkpoint(config.limit, size,
                             [[h for h in hits if lo <= h.n < lo + size] for lo in starts])


#: (classes, parity, limit) of searches whose blocks cut across segments:
#: three blocks or more each, of the even n, with the listed hits merged in:
#: the odd usp n and the super perfect n of both parities, and every class
_MERGED_SEARCHES = [
    (("usp", "super_perfect"), "all", 15 * 10**5),
    (CLASS_ORDER, "all", 12 * 10**5),
]


@pytest.mark.parametrize("classes, parity, limit", _MERGED_SEARCHES, ids=["odd-usp", "all"])
@pytest.mark.parametrize("segment_size", [1 << 12, 1 << 21], ids=["small", "large"])
@pytest.mark.parametrize("workers", [1, 2])
def test_blocks_merge_into_segments(classes, parity, limit, segment_size, workers):
    # segments smaller and larger than a block (2**18 n at most) get the hits
    # of one segment over every n, at each worker count
    config = SearchConfig(limit=limit, segment_size=segment_size, classes=classes,
                          parity=parity, workers=workers)
    assert len(search._blocks(classes, parity, 1, limit + 1)) > 2
    assert run_search(config).checkpoint_text == _one_segment_split(config)


@pytest.mark.parametrize("classes, parity, limit", _MERGED_SEARCHES, ids=["odd-usp", "all"])
def test_stop_inside_block_then_resume(tmp_path, classes, parity, limit):
    # max_segments stops the run inside a block; the resumed run lays its
    # blocks from the next segment, and the bytes equal an uninterrupted run
    cp = str(tmp_path / "cp.txt")
    common = dict(limit=limit, segment_size=10**5 + 1, classes=classes, parity=parity,
                  checkpoint_path=cp, workers=2)
    stop = 3
    end = 1 + stop * (10**5 + 1)  # where the stopped run ends
    assert any(b.lo < end < b.hi for b in search._blocks(classes, parity, 1, limit + 1))
    partial = run_search(SearchConfig(max_segments=stop, **common))
    assert partial.segments_done == stop and not partial.completed
    resumed = run_search(SearchConfig(resume=True, **common))
    assert resumed.completed
    assert resumed.checkpoint_text == _one_segment_split(SearchConfig(**common))


def test_odd_usp_stop_then_resume(tmp_path):
    # an odd usp search has no block; max_segments still stops it after the
    # segments asked for, and the resumed bytes equal the uninterrupted run's
    cp = str(tmp_path / "cp.txt")
    common = dict(limit=10**5, segment_size=1025, parity="odd", checkpoint_path=cp)
    for stop, hits in ((0, []), (1, [9, 165]), (50, [9, 165])):
        partial = run_search(SearchConfig(max_segments=stop, **common))
        assert partial.segments_done == stop and [h.n for h in partial.hits] == hits
        resumed = run_search(SearchConfig(resume=True, workers=2, **common))
        assert resumed.completed and [h.n for h in resumed.hits] == [9, 165]
        digest = hashlib.sha256(resumed.checkpoint_text.encode()).hexdigest()
        assert digest == _GOLDEN_ODD_UNITARY[("usp",), 10**5, 1025]


def test_closed_form_candidate_still_verified(monkeypatch):
    # a fault in the list is caught by verify_hit: 99 = 3^2 * 11 is odd and a
    # multiple of 2^5 + 1, but sigma*(99) = 10 * 12 is not 2^5 * q^b
    odd_usp = lists.odd_usp
    monkeypatch.setattr(lists, "odd_usp", lambda lo, hi: sorted(odd_usp(lo, hi) + [99]))
    with pytest.raises(RuntimeError, match=r"^hit 99 \(usp\) fails exact recomputation$"):
        run_search(SearchConfig(limit=1000, parity="odd"))


def test_closed_form_needs_prime_power(monkeypatch):
    # sigma*(55) = 2^2 * 21 would meet (2^2 + 1) * (21 + 1) = 110, but 21 = 3 * 7
    # is no prime power: the list names q from prime powers only, so 55 is
    # never a candidate, even with that sigma*(55) faked
    assert prime_power(21) is None
    unitary_sigma_ = lists.unitary_sigma
    monkeypatch.setattr(lists, "unitary_sigma",
                        lambda f: 2**2 * 21 if f.value == 55 else unitary_sigma_(f))
    assert lists.odd_usp(1, 1000) == [9, 165]


@pytest.fixture(scope="module")
def brute_sigma_hits_2e5(brute_tables_4e5):
    """(n, class) of the super perfect and perfect n <= 2 * 10**5, by
    classify_brute's test on the session's divisor-sweep tables up to 4 *
    10**5: sigma(m) > m for m > 1, so a super perfect n has sigma(n) < 2n."""
    limit = 2 * 10**5
    sig = brute_tables_4e5[0]
    n = np.arange(1, limit + 1)
    first = sig[n]
    super_perfect = n[(first < 2 * n) & (sig[np.minimum(first, 2 * limit)] == 2 * n)]
    perfect = n[first == 2 * n]
    return sorted([(int(x), "super_perfect") for x in super_perfect]
                  + [(int(x), "perfect") for x in perfect])


@settings(_PROPERTY, max_examples=100)
@given(
    limit=st.integers(1, 2 * 10**5),
    parity=st.sampled_from(["all", "odd", "even"]),
    workers=st.sampled_from([1, 2]),
    segment_size=st.sampled_from([1024, 1 << 14, 1 << 22]),
)
# either side of the perfect 8128 and of the super perfect 2**16
@example(limit=8127, parity="all", workers=1, segment_size=1024)
@example(limit=8128, parity="even", workers=2, segment_size=1024)
@example(limit=65535, parity="all", workers=2, segment_size=1 << 14)
@example(limit=65536, parity="even", workers=1, segment_size=1 << 14)
def test_sigma_search_matches_brute_oracle(brute_sigma_hits_2e5, limit, parity, workers,
                                           segment_size):
    # the even hits listed from the Mersenne primes are exactly the
    # oracle's hits, which hold no odd n
    keep = {"all": (0, 1), "odd": (1,), "even": (0,)}[parity]
    result = run_search(SearchConfig(limit=limit, classes=("super_perfect", "perfect"),
                                     parity=parity, workers=workers, segment_size=segment_size))
    assert sorted((h.n, h.classification) for h in result.hits) == [
        (n, c) for n, c in brute_sigma_hits_2e5 if n <= limit and n % 2 in keep]


@pytest.mark.parametrize("parity", ["all", "odd", "even"])
def test_listed_matches_brute_oracle(brute_tables_2e5, brute_sigma_hits_2e5, parity):
    # for each class alone and all four, listed gives the oracle's hits at
    # the parity less the scanned ones, the unitary classes at even n: the
    # odd usp n (no odd n is unitary perfect) and the sigma hits; also in
    # windows past 1 and in the empty range [1, 0)
    limit = 10**5
    oracle = sorted([(n, "usp") for n in _brute_odd_usp(brute_tables_2e5[1], limit)]
                    + [h for h in brute_sigma_hits_2e5 if h[0] <= limit])
    keep = {"all": (0, 1), "odd": (1,), "even": (0,)}[parity]
    windows = ((1, limit + 1), (1, 0), (9, 10), (10, 8128), (7, 497), (166, limit + 1))
    for classes in [(c,) for c in CLASS_ORDER] + [CLASS_ORDER]:
        for lo, hi in windows:
            assert lists.listed(classes, parity, lo, hi) == [
                (n, c) for n, c in oracle if c in classes and n % 2 in keep and lo <= n < hi]
    assert lists.listed(CLASS_ORDER, parity, 1, limit + 1)  # each parity lists a hit


def test_even_sigma_search_lays_no_block(monkeypatch):
    # the even super perfect and perfect n are listed, so a search of the
    # sigma classes over the even n lays no block, builds no table and
    # starts no pool, up to HARD_LIMIT; its hits are 2^(p-1) and 2^(p-1) *
    # (2^p - 1) for the Mersenne primes 2^p - 1, and each is re-verified
    def refuse(*args, **kwargs):
        raise AssertionError("a parity-even sigma search reads no table")

    for name in ("_build_table", "_classify_segment"):
        monkeypatch.setattr(search, name, refuse)
    monkeypatch.setattr(search.os, "fork", refuse)
    verified = []
    verify = search.verify_hit
    monkeypatch.setattr(search, "verify_hit",
                        lambda n, cls: verified.append((n, cls)) or verify(n, cls))
    limit, classes = search.HARD_LIMIT, ("super_perfect", "perfect")
    assert search._blocks(classes, "even", 1, limit + 1) == []
    result = run_search(SearchConfig(limit=limit, classes=classes, parity="even", workers=2))
    mersenne_exponents = [2, 3, 5, 7, 13, 17, 19, 31]  # 2^(p-1) <= 10**10
    expected = sorted(
        [(2 ** (p - 1), "super_perfect") for p in mersenne_exponents]
        + [(n, "perfect") for p in mersenne_exponents if (n := 2 ** (p - 1) * (2**p - 1)) <= limit]
    )
    assert [(h.n, h.classification) for h in result.hits] == expected == verified
    assert lists.even_sigma(1, limit + 1) == expected
    assert lists.even_sigma(7, 8128) == [(16, "super_perfect"), (28, "perfect"), (64, "super_perfect"),
                                         (496, "perfect"), (4096, "super_perfect")]
    # one class alone keeps only its own listed hits
    perfect = run_search(SearchConfig(limit=limit, classes=("perfect",), parity="even")).hits
    assert [(h.n, h.classification) for h in perfect] == [h for h in expected if h[1] == "perfect"]


def test_even_sigma_tries_only_exponents_below_hi():
    # hi = 2^64 tries p <= 64 alone, as hi = 2^64 - 1 does: p = 65 would
    # test 2^65 - 1, past what is_mersenne_prime takes, for an n = 2^64
    # outside the range
    hits = lists.even_sigma(1, 2**64)
    assert hits == lists.even_sigma(1, 2**64 - 1)
    assert hits[-2:] == [(2**60, "super_perfect"), (2305843008139952128, "perfect")]


@pytest.fixture(scope="module")
def odd_sigma_conditions_2e5(brute_tables_4e5):
    """(n, class) of the odd n <= 2 * 10**5 that meet the necessary conditions
    of the lists docstring, read from the divisor-sweep table: super_perfect
    for sigma(n) = 1 (mod 4) below 2n, and perfect for sigma(n) = 2 (mod 4)
    with n = p^k * m^2 in Euler's form, 8m^2 < 5 sigma(m^2) < 10m^2 and p^k
    dividing sigma(m^2)."""
    sig = brute_tables_4e5[0]
    n = np.arange(1, 2 * 10**5 + 1, 2)
    first = sig[n]
    squares = n[(first % 4 == 1) & (first < 2 * n)].tolist()
    assert all(math.isqrt(x) ** 2 == x for x in n[first % 2 == 1].tolist())  # Kanold's squares
    found = [(x, "super_perfect") for x in squares]
    for x in n[first % 4 == 2].tolist():
        [(p, k)] = [(p, e) for p, e in factorize(x).entries if e % 2]
        assert p % 4 == k % 4 == 1  # Euler's form
        m2 = x // p**k
        u = int(sig[m2])
        if 8 * m2 < 5 * u < 10 * m2 and u % p**k == 0:
            found.append((x, "perfect"))
    return sorted(found)


@settings(_PROPERTY, max_examples=100)
@given(lo=st.integers(1, 2 * 10**5), hi=st.integers(1, 2 * 10**5))
# hi at the odd square 445**2, a super perfect candidate, and lo there; hi
# at 5 * 75**2, where m = 75 starts to count for perfect n, whose candidate
# 13 * 75**2 = 73125 comes from lo past 75**2 and from lo at it
@example(lo=1, hi=445**2)
@example(lo=445**2, hi=445**2 + 1)
@example(lo=1, hi=5 * 75**2)
@example(lo=75**2 + 1, hi=13 * 75**2 + 1)
@example(lo=13 * 75**2, hi=13 * 75**2 + 1)
def test_odd_sigma_matches_brute_oracle(brute_tables_4e5, brute_sigma_hits_2e5,
                                        odd_sigma_conditions_2e5, lo, hi):
    # the list is the oracle's odd super perfect and perfect n (none are
    # known); its candidates are exactly the odd n in [lo, hi) that meet
    # the necessary conditions, each with the sum it is tested by
    lo, hi = sorted((lo, hi))
    sig = brute_tables_4e5[0]
    assert lists.odd_sigma(lo, hi) == [
        h for h in brute_sigma_hits_2e5 if h[0] % 2 and lo <= h[0] < hi]
    candidates = list(lists._odd_sigma_candidates(lo, hi))
    assert sorted((n, c) for n, c, _ in candidates) == [
        h for h in odd_sigma_conditions_2e5 if lo <= h[0] < hi]
    for n, c, s in candidates:
        assert s == (sig[sig[n]] if c == "super_perfect" else sig[n])


def test_odd_sigma_candidates_at_their_bounds():
    # past the oracle's range: 5 * 1089**2 is the least perfect candidate n
    # = 5m^2 (5 divides sigma(1089**2), which lies in the band), listed once
    # hi passes it; and 13 * 195**2 is none, since 13 divides 195 too: it is
    # 3^2 * 5^2 * 13^3, whose sigma is 0 (mod 4)
    def perfect(lo, hi):
        return [n for n, c, _ in lists._odd_sigma_candidates(lo, hi) if c == "perfect"]

    n = 5 * 1089**2
    assert n in perfect(n, n + 1) and n not in perfect(1, n)
    assert not [x for x in perfect(1, n) if x % 5 == 0 and math.isqrt(x // 5) ** 2 == x // 5]
    assert 13 * 195**2 not in perfect(1, 13 * 195**2 + 1)
    assert sigma_from_factorization(factorize(13 * 195**2)) % 4 == 0


def test_no_odd_sigma_hit_below_hard_limit():
    # the certificate that no odd n up to the largest limit a search takes
    # is perfect or super perfect: odd_sigma's exact list, rerun at whatever
    # HARD_LIMIT is, so that listed may leave the odd sigma classes out
    assert lists.odd_sigma(1, search.HARD_LIMIT + 1) == []


@pytest.mark.parametrize("parity", ["all", "odd"])
def test_odd_sigma_search_lays_no_block(monkeypatch, parity):
    # no odd n up to HARD_LIMIT is super perfect or perfect (the certificate
    # test_no_odd_sigma_hit_below_hard_limit), so a search of the sigma
    # classes lays no block, builds no table and starts no pool at any
    # parity; to 10**9 its hits are the even ones, 2^(p-1) and 2^(p-1) *
    # (2^p - 1) for the Mersenne primes 2^p - 1, each re-verified
    def refuse(*args, **kwargs):
        raise AssertionError("a sigma search reads no table")

    for name in ("_build_table", "_classify_segment"):
        monkeypatch.setattr(search, name, refuse)
    monkeypatch.setattr(search.os, "fork", refuse)
    verified = []
    verify = search.verify_hit
    monkeypatch.setattr(search, "verify_hit",
                        lambda n, cls: verified.append((n, cls)) or verify(n, cls))
    limit, classes = 10**9, ("super_perfect", "perfect")
    assert search._blocks(classes, parity, 1, limit + 1) == []
    result = run_search(SearchConfig(limit=limit, classes=classes, parity=parity, workers=2))
    mersenne_exponents = [2, 3, 5, 7, 13, 17, 19]  # 2^(p-1) <= 10**9
    expected = sorted(
        [(2 ** (p - 1), "super_perfect") for p in mersenne_exponents]
        + [(n, "perfect") for p in mersenne_exponents if (n := 2 ** (p - 1) * (2**p - 1)) <= limit]
    ) if parity == "all" else []
    assert [(h.n, h.classification) for h in result.hits] == expected == verified


@settings(_PROPERTY, max_examples=200)
@given(st.lists(st.tuples(st.integers(3, 10**6), st.integers(1, 40)), min_size=1, max_size=4))
def test_closed_form_identity(parts):
    # odd n from a few prime powers q <= 10**12, n <= 10**18; sigma*(n) =
    # 2^a * m' with m' odd: sigma*(sigma*(n)) = (2^a + 1) sigma*(m') and
    # 2^omega(m') divides sigma*(m'), so n is never unitary perfect
    n = 1
    for seed, e in parts:
        p = seed | 1
        while not is_prime(p):
            p += 2
        q = p**e
        while q > 10**12:
            q //= p
        if n % p and n * q <= 10**18:
            n *= q
    s = unitary_sigma(factorize(n))
    a = (s & -s).bit_length() - 1
    m = s >> a
    fm = factorize(m)
    assert a >= 1
    assert unitary_sigma(factorize(s)) == (2**a + 1) * unitary_sigma(fm)
    assert unitary_sigma(fm) % 2 ** len(fm.entries) == 0
    assert s != 2 * n


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


@pytest.mark.parametrize("field, value", [
    ("limit", 1e5), ("limit", True), ("segment_size", 4096.0), ("workers", True),
    ("max_segments", 1.0), ("max_segments", False),
])
def test_config_counts_are_ints(field, value):
    # a float or a bool count is refused at construction, not taken as 1 or
    # left to fail inside range or a slice
    with pytest.raises(TypeError, match=f"{field} must be an int"):
        SearchConfig(**{"limit": 10, field: value})
