"""Segmented, parallel, resumable search for perfect-number variants.

The search classifies the n <= limit of the requested parity over the run's
range: from the first segment still to do to the end of the last one.  Only
the unitary classes (usp, unitary_perfect) at even n are scanned: no odd n
is unitary_perfect, lists.listed gives the odd usp n and the even sigma
hits, and no odd n up to HARD_LIMIT is a sigma hit (the certificate
test_no_odd_sigma_hit_below_hard_limit; the lists docstring holds the
proofs).  A search merges the listed hits into their segments like scanned
ones.  The units of the scan are sieve blocks, each of the even n = lo,
lo + 2, ... < hi.  One rule, _runs, cuts the even n of the range into
blocks and the table (below) into build chunks: the fewest runs of at most
_TABLE_CHUNK values, their lengths within 1 of each other.  Blocks run in
order of lo, and are laid only when a unitary class is requested and the
parity is not odd.  Every block reads one divisor sum, sigma*.

A block is classified in slices of _SCAN_BLOCK n.  Every slice takes the
first application sigma*(n) by one rule: from the search's lookup table
when the table holds every odd part of the slice, otherwise from the
divisor-sum sieve of the enclosing block, run at most once per block.  A
slice's arrays (its n, first applications and 2n, and the prefilter's
views of them) take the sieve's dtype for the block's hi, sieve.sum_dtype:
uint32 for a block that ends at or below 2^29, where every sigma*(n) is
below 2^32 (the bound is proved in the sieve docstring), and int64 past
it.  Only the prefilter's survivors are widened to int64, before the
second lookup, whose products pass 2^32.  The table serves a slice one 2-adic
class at a time: the n with v2(n) = a recur every 2^a values of the slice
and their odd parts are consecutive odd values, so their sums are one
contiguous run of the table times the 2-part's factor (below), written at
that stride; no n is split into its 2-part and odd part.  The scan's
memory is thus one block, whatever the segment size.  Segments are the
checkpoint's unit: a segment is merged once every block that starts before
its end has returned.  One recorder renders the checkpoint and writes the
run's file: before a fresh run forks, once per returned block that merges
segments, and at the end of a resume that merged none.  parse_checkpoint
refuses what it never writes, such as a segment past the limit.

A class applied once (unitary_perfect) is a hit when first = 2n.  The usp
scan looks its second application up.  A flat uint32 table of
sigma* of odd values, at most _TABLE_ENTRIES of them (its length is below),
is built once per run, chunk by chunk, each chunk from one sieve pass:
entry i holds sigma*(2i + 1).  A lookup of m = 2^a * m' with m' odd
multiplies the entry for m' by the 2-part's factor sigma*(2^a), which is
2^a + 1 for a >= 1.  The inequality sigma*(m) >= m + 1 means any n with a
first application above 2n - 1 can be discarded before the second lookup.
A usp candidate's second application is the 2-part's factor times
sigma*(m') by multiplicativity; the factor is odd, so a hit needs it to
divide n.  That prefilter walks the factors, not the n: for each a >= 1
whose factor 2^a + 1 is at most the slice's last n, its multiples are every
factor-th n of the slice, and those among them with v2(first) = a survive,
beside the few odd first applications (factor 1).  Each n has one
v2(first), so this is the prefilter exactly, and it touches about 1.8
slice lengths.  Of the even n up to 4*10^6, 6.8% survive it; only they are
compared with 2n and looked up a second time.  A second application whose
odd part lies past the table (below, and every candidate past a
memory-capped table) is computed by exact factorization.

The table stops at the largest odd part its readers need; take top as the
run's last n.  An even n <= top has its odd part at most top/2, and so does
a usp candidate's first application 2^a * m' with a >= 2, since m' < 2n/4;
so the table holds the odd values up to top/2.  A candidate with a = 0 is
n = 2^b (an odd prime power p^e contributes the even p^e + 1 to
sigma*(n)), and one with a = 1 has a single odd prime power p^e || n, with
p^e = 1 (mod 4) so that p^e + 1 = 2 (mod 4), and its factor sigma*(2) = 3
divides n, so p = 3 and e is even: n = 2^b * 3^(2e).  Only these leave the
table, and their lookups are exact factorizations.

Each search runs the table build and the scan as two phases, filling and
scanning: the builtin maps of _fill_chunk over the table's chunks and of
_classify_segment over the blocks in one process or where the platform has
no os.fork, otherwise one pool of at most one worker per CPU that the
process may run on, forked once per search with os.fork.  Worker i pins
itself to the i-th of those CPUs (mod their number), since the scheduler
tends to keep pipe-woken workers on one CPU; the parent stays unpinned.
Each worker has fixed shares: worker i of P fills the chunks i, i + P, ...
and answers once, waits for a byte of one go pipe that all share, which the
parent writes once every worker has answered and the table is whole, then
classifies the blocks i, i + P, ..., answering each one on its own result
pipe, and exits; the parent reads block j's answer from worker j mod P.
The tasks of a phase are equal-sized, so fixed shares lose nothing to a
queue, and the workers inherit the task lists and the two task functions
bound to the run's table and variants, so nothing but the go bytes travels
from the parent to a worker.  Workers ignore SIGINT and SIGTERM and leave
through os._exit, and the parent reaps every one, killed first when a task,
a worker or the merge fails, or an interrupt stops it.
The table lives in one shared anonymous map made before the pool forks, so
the workers sieve each chunk straight into its slice and then classify
blocks against it; no table chunk travels between processes.  A run goes
in this order: the fresh run's checkpoint; the fork, after which the
workers fill the table; the listed hits, computed by the parent while the
workers sieve; the wait for every fill answer, and the go bytes; the
blocks, merged as their answers arrive, each worker exiting after its last
answer while the parent merges; and the workers reaped.  In one process
the same steps run in turn, the table after the listing.

Every hit is recomputed from scratch from its factorization during the
ordered merge, independent of the sieve or the list that produced it, and
odd hits of the doubly-applied unitary class additionally pass the
structural check.  Output order and checkpoint bytes depend only on (limit,
segment_size, classes, parity), never on worker count or interruption
points.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import pickle
import signal
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import BinaryIO, NamedTuple

import numpy as np

from .arith import Factorization, factorize, sigma_from_factorization, unitary_sigma
from .lists import listed
from .sieve import divisor_sum_segment, sum_dtype
from .structure import UspStructureVerdict, check_usp_structure


class Variant(NamedTuple):
    """n is a hit when the divisor sum, applied `applications` times, is 2n."""

    name: str
    unitary: bool  # sigma* if True, sigma if False
    applications: int


#: every searchable class, in output order (checkpoint bytes depend on it)
VARIANTS = (
    Variant("usp", unitary=True, applications=2),
    Variant("unitary_perfect", unitary=True, applications=1),
    Variant("super_perfect", unitary=False, applications=2),
    Variant("perfect", unitary=False, applications=1),
)
CLASS_ORDER = tuple(v.name for v in VARIANTS)
_VARIANT_BY_NAME = {v.name: v for v in VARIANTS}

DEFAULT_LIMIT = 10**8
HARD_LIMIT = 10**10
DEFAULT_SEGMENT_SIZE = 1 << 22

CHECKPOINT_MAGIC = "uspsearch-v1"


class CheckpointError(Exception):
    """Raised for unusable checkpoint files (corruption or config mismatch)."""


@dataclass(frozen=True)
class SearchHit:
    n: int
    sigma_star_n: int
    sigma_star_sigma_star_n: int
    classification: str
    parity: str
    structure: UspStructureVerdict | None = None

    def checkpoint_line(self) -> str:
        return (
            f"hit {self.n} {self.sigma_star_n} "
            f"{self.sigma_star_sigma_star_n} {self.classification}"
        )

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "sigma_star": self.sigma_star_n,
                "sigma_star_sigma_star": self.sigma_star_sigma_star_n,
                "classification": self.classification,
                "parity": self.parity,
                "structure": None if self.structure is None else self.structure.to_dict(),
            }
        )


def verify_hit(n: int, classification: str) -> SearchHit:
    """Rebuild a hit from n alone via exact factorization.

    Raises RuntimeError when the claimed classification does not survive
    recomputation; this is the independent second check on every hit.
    """
    variant = _VARIANT_BY_NAME.get(classification)
    if variant is None:
        raise ValueError(f"unknown classification {classification!r}")
    fn = factorize(n)
    s_star = unitary_sigma(fn)
    fs = factorize(s_star)
    ss_star = unitary_sigma(fs)
    # every hit carries sigma*(n) and sigma*(sigma*(n)); reuse those
    # factorizations wherever the variant's own chain passes through them
    factored = {n: fn, s_star: fs}
    value = n
    for _ in range(variant.applications):
        f = factored[value] if value in factored else factorize(value)
        value = _divisor_sum(f, variant.unitary)
    if value != 2 * n:
        raise RuntimeError(f"hit {n} ({classification}) fails exact recomputation")
    structure = None
    if classification == "usp" and n % 2 == 1:
        structure = check_usp_structure(n, fs)
    return SearchHit(
        n, s_star, ss_star, classification,
        "odd" if n % 2 else "even", structure,
    )


@dataclass(frozen=True)
class SearchConfig:
    limit: int
    classes: tuple[str, ...] = ("usp",)
    parity: str = "all"
    segment_size: int = DEFAULT_SEGMENT_SIZE
    workers: int = 1
    checkpoint_path: str | None = None
    resume: bool = False
    max_segments: int | None = None

    def __post_init__(self) -> None:
        for name in ("limit", "segment_size", "workers", "max_segments"):
            value = getattr(self, name)
            if value is None and name == "max_segments":
                continue  # no cap
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if not 1 <= self.limit <= HARD_LIMIT:
            raise ValueError(f"limit must be in [1, {HARD_LIMIT}], got {self.limit}")
        if self.parity not in ("all", "odd", "even"):
            raise ValueError(f"parity must be all/odd/even, got {self.parity!r}")
        bad = [c for c in self.classes if c not in CLASS_ORDER]
        if bad or not self.classes:
            raise ValueError(f"unknown classes {bad}; choose from {CLASS_ORDER}")
        if self.segment_size < 1024:
            raise ValueError("segment_size must be at least 1024")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_segments is not None and self.max_segments < 0:
            raise ValueError("max_segments must be >= 0")


@dataclass
class SearchResult:
    hits: list[SearchHit]
    completed: bool
    segments_done: int
    total_segments: int
    elapsed: float
    checkpoint_text: str


# ---------------------------------------------------------------------------
# table construction

#: values per table-build task and per sieve block of the scan, at most: the
#: sieve's arrays stay in cache (uint32 for the table's chunks and for blocks
#: up to 2^29, int64 past it), and its Python work per base prime is spread
#: over enough entries
_TABLE_CHUNK = 1 << 18


def _runs(count: int) -> list[tuple[int, int]]:
    """[0, count) cut into runs [i, j) by the split rule (module docstring):
    a short last run's arrays would split the memory a full one frees, and
    the heap would grow."""
    parts = -(-count // _TABLE_CHUNK)
    return [(k * count // parts, (k + 1) * count // parts) for k in range(parts)]


def _fill_chunk(table: np.ndarray, chunk: tuple[int, int]) -> None:
    i, end = chunk
    # every chunk ends at or below 2 * _TABLE_ENTRIES = 2^29, where the
    # sieve's sums are uint32 and exact (sieve docstring), so the sieve
    # writes them straight into the chunk's slice of the table
    divisor_sum_segment(2 * i + 1, 2 * end, out=table[i:end])


def _build_table(table: np.ndarray, filling) -> np.ndarray:
    """Return table, with sigma*(2i + 1) at index i, once filling is
    drained: the filling phase of _phases over the table's _runs."""
    # draining the phase runs (builtin map) or awaits (pool) every chunk
    for _ in filling:
        pass
    return table


# ---------------------------------------------------------------------------
# segment classification


def _divisor_sum(f: Factorization, unitary: bool) -> int:
    return unitary_sigma(f) if unitary else sigma_from_factorization(f)


def _exact_divisor_sum(m: int) -> int:
    return unitary_sigma(factorize(m))


#: n classified at a time: a slice's arrays stay in cache (uint32 in a block
#: up to 2^29, int64 past it)
_SCAN_BLOCK = 1 << 16


def _two_part_factor(low):
    """sigma*(2^a) of low = 2^a, an int or an int64 array: 2^a + 1 for a >=
    1 and 1 for a = 0."""
    return low + (low > 1)


def _split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For values m = 2^a * m' >= 1 with m' odd: the table index (m' - 1) / 2
    of m', and sigma* of the 2-part."""
    low = m & -m  # 2^a
    return m >> np.bitwise_count(low - 1) >> 1, _two_part_factor(low)


def _lookup(table: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma* of the values m >= 1 served by the odd-part table.

    Returns the sums and the mask of values whose odd part the table holds;
    sums outside the mask are meaningless.
    """
    idx, factor = _split(m)
    return table.take(idx, mode="clip") * factor, idx < table.shape[0]


def _progression_lookup(
    table: np.ndarray, s: int, count: int, dtype=np.int64
) -> np.ndarray | None:
    """sigma* of the count values n = s, s + 2, ... served by the odd-part
    table, as an array of dtype, or None when the table lacks the odd part
    of one of them.

    The n with v2(n) = a recur every 2^a values, and their odd parts are
    consecutive odd values: one contiguous run of the table, times the
    2-part's factor.  uint32 holds the sums only when every n is below 2^29
    (sieve.sum_dtype); int64 holds them for any slice.
    """
    top = s + 2 * (count - 1)
    sums = np.empty(count, dtype=dtype)
    for a in range(top.bit_length()):  # 2^a <= top
        low = 1 << a
        offset = (low - s) % (2 * low)  # from s to its first n = 2^a (mod 2^(a+1))
        if offset % 2 or offset // 2 >= count:
            continue  # no n of the progression, or of these count, has v2(n) = a
        i0 = offset // 2
        run = len(range(i0, count, low))
        j0 = (s + 2 * i0) >> (a + 1)  # the table index of its odd part
        if j0 + run > table.shape[0]:
            return None
        # the factor in the sums' dtype: an int64 one keeps the product out
        # of uint32
        factor = sums.dtype.type(_two_part_factor(low))
        np.multiply(table[j0 : j0 + run], factor, out=sums[i0::low])
    return sums


def _prefilter(first: np.ndarray, s: int) -> np.ndarray:
    """The indices i of the n = s + 2i whose first application first[i] =
    sigma*(n) has a 2-part factor dividing n.

    The factor of 2^a is 1 for a = 0, and otherwise the odd 2^a + 1: its
    multiples n are every factor-th value of the progression, among which
    those with v2(first) = a survive.
    """
    top = s + 2 * (first.shape[0] - 1)
    parts = [np.flatnonzero((first & 1) == 1)]
    for a in range(1, top.bit_length()):
        low = 1 << a
        factor = _two_part_factor(low)
        if factor > top:
            break
        i0 = -s * pow(2, -1, factor) % factor  # the first n = 0 (mod factor)
        two_parts = first[i0::factor] & (2 * low - 1)
        parts.append(i0 + factor * np.flatnonzero(two_parts == low))
    return np.concatenate(parts)


class _Block(NamedTuple):
    """A sieve block: the even n = lo, lo + 2, ... < hi."""

    lo: int
    hi: int


def _blocks(classes, parity: str, lo: int, hi: int) -> list[_Block]:
    """The blocks of a run over [lo, hi), sorted by lo: the _runs of its
    even n when it tests a unitary class there, otherwise none (module
    docstring)."""
    if parity == "odd" or not any(_VARIANT_BY_NAME[c].unitary for c in classes):
        return []
    start = lo + lo % 2  # the first even n
    return [_Block(start + 2 * i, min(hi, start + 2 * j))
            for i, j in _runs(len(range(start, hi, 2)))]


def _classify_segment(table: np.ndarray, variants: list[Variant],
                      block: _Block) -> list[tuple[int, str]]:
    """(n, class) of the hits of the unitary variants among the block's n,
    against the run's sigma* table."""
    lo, hi = block
    # the slices' n, first applications and 2n in the dtype of the block's
    # sieve: uint32 up to 2^29, where they stay below 2^32 (module docstring)
    dtype = sum_dtype(hi)
    hits: list[tuple[int, str]] = []
    # the block's sigma*, sieved at most once and only when a slice needs a
    # first application the table lacks
    sieved = None
    for s in range(lo, hi, 2 * _SCAN_BLOCK):
        n = np.arange(s, min(hi, s + 2 * _SCAN_BLOCK), 2, dtype=dtype)
        count = n.shape[0]
        first = _progression_lookup(table, s, count, dtype)
        if first is None:
            if sieved is None:
                sieved = divisor_sum_segment(lo, hi)
            i = (s - lo) // 2
            first = sieved[i : i + count]
        for variant in variants:
            if variant.applications == 1:
                good = n[first == 2 * n]
            else:
                # a usp hit needs the odd sigma* of first's 2-part to divide
                # n, and sigma*(m) >= m + 1, so it needs first <= 2n - 1
                # (module docstring)
                idx = _prefilter(first, s)
                mm, nn = first[idx], n[idx]
                keep = mm < 2 * nn
                # only the survivors are widened, before any product: a
                # second application may pass 2^32
                mm = mm[keep].astype(np.int64, copy=False)
                nn = nn[keep].astype(np.int64, copy=False)
                second, inside = _lookup(table, mm)
                for j in np.flatnonzero(~inside):
                    second[j] = _exact_divisor_sum(int(mm[j]))
                good = nn[second == 2 * nn]
            hits.extend((int(x), variant.name) for x in good)
    return hits


# ---------------------------------------------------------------------------
# checkpoints

def render_checkpoint(
    limit: int, segment_size: int, hits_by_segment: list[list[SearchHit]]
) -> str:
    lines = [f"{CHECKPOINT_MAGIC} {limit} {segment_size}"]
    for idx, seg_hits in enumerate(hits_by_segment):
        lines.append(f"seg {idx} {len(seg_hits)}")
        lines.extend(h.checkpoint_line() for h in seg_hits)
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    return body + f"digest {digest}\n"


def parse_checkpoint(text: str) -> tuple[int, int, list[list[SearchHit]]]:
    """Parse and re-verify a checkpoint; CheckpointError for any bad file."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[-1].startswith("digest "):
        raise CheckpointError("missing digest line")
    body = "\n".join(lines[:-1]) + "\n"
    if lines[-1] != f"digest {hashlib.sha256(body.encode()).hexdigest()}":
        raise CheckpointError("digest mismatch; refusing corrupted checkpoint")
    line = lines[0]  # the line being parsed, for error messages
    hits_by_segment: list[list[SearchHit]] = []
    try:
        head = line.split()
        if len(head) != 3 or head[0] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad header {line!r}")
        limit, segment_size = int(head[1]), int(head[2])
        rest = iter(lines[1:-1])
        last = (0, 0)  # the (n, class) key of the previous hit
        for line in rest:
            tag, idx, count = line.split()
            # segment idx holds the n with lo < n <= hi, and starts below
            # the limit
            lo = len(hits_by_segment) * segment_size
            if tag != "seg" or int(idx) != len(hits_by_segment) or lo >= limit:
                raise CheckpointError(f"unexpected line {line!r}")
            hi = min(limit, lo + segment_size)
            seg_hits = []
            for line in islice(rest, int(count)):
                _, n, _, _, cls = line.split()
                key = (int(n), CLASS_ORDER.index(cls))
                if not lo < key[0] <= hi or key <= last:
                    # render_checkpoint writes each hit in its segment, in
                    # the merge's order
                    raise CheckpointError(f"hit line {line!r} out of its segment or order")
                last = key
                hit = verify_hit(int(n), cls)
                if hit.checkpoint_line() != line:
                    raise CheckpointError(f"hit line {line!r} fails recomputation")
                seg_hits.append(hit)
            if len(seg_hits) != int(count):
                raise CheckpointError(f"segment {idx} ends before its {count} hit lines")
            hits_by_segment.append(seg_hits)
        return limit, segment_size, hits_by_segment
    except (ValueError, RuntimeError) as exc:
        # unpacking, int() and verify_hit: a body the digest vouches for but
        # that this program did not write
        raise CheckpointError(f"malformed line {line!r}: {exc}") from exc


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        # a failed write or replace leaves no temp file behind
        with suppress(OSError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# orchestration

#: entries of a lookup table at most: 1 GiB of uint32
_TABLE_ENTRIES = 1 << 28


def _table_size(top: int) -> int:
    """Entries of the sigma* table that the blocks of a run whose last n is
    top read (module docstring)."""
    # index i holds 2i + 1, so the odd values up to x take (x + 1) // 2
    # entries: an even n <= top has its odd part at most top // 2
    return min((top // 2 + 1) // 2, _TABLE_ENTRIES)


def usable_cpus() -> list[int]:
    """The CPUs this process may run on, in order: its affinity mask where
    the platform has one, else every CPU that it counts."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _answer(writer: BinaryIO, fn, arg) -> bool:
    """A worker's answer: write (True, fn(arg)) or (False, (exception,
    traceback text)) to its result pipe, and return whether fn returned."""
    try:
        reply, ok = pickle.dumps((True, fn(arg))), True
    except BaseException as exc:
        import traceback  # here, so that only a failed task pays for it

        trace, ok = traceback.format_exc(), False
        try:
            reply = pickle.dumps((False, (exc, trace)))
        except Exception:  # an exception that does not pickle
            reply = pickle.dumps((False, (RuntimeError(repr(exc)), trace)))
    writer.write(reply)
    writer.flush()
    return ok


class _Worker(NamedTuple):
    pid: int
    results: BinaryIO  # the read end of its result pipe


class _ForkPool:
    """P forked workers with fixed shares (module docstring): worker i runs
    fill over chunks[i::P] and answers once, waits for a byte of the go
    pipe, then runs classify over blocks[i::P], answering each one."""

    def __init__(self, processes: int, fill, chunks: list, classify, blocks: list) -> None:
        self.workers: list[_Worker] = []
        self.status: dict[int, int] = {}  # the wait status of each reaped pid
        self.blocks = blocks
        cpus = usable_cpus()
        go, self.go = os.pipe()  # the read end, and the write end kept here
        try:
            for i in range(processes):
                self._fork(cpus[i % len(cpus)], go, fill, chunks[i::processes],
                           classify, blocks[i::processes])
        except BaseException:
            self.close(kill=True)
            raise
        finally:
            # the workers hold the read end; with none left, the go write
            # fails instead of filling a pipe that nobody reads
            os.close(go)

    def _fork(self, cpu: int, go: int, fill, chunks: list, classify, blocks: list) -> None:
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(result_r)
            os.close(result_w)
            raise
        if pid == 0:
            status = 1
            try:
                # a terminal's Ctrl-C reaches the whole process group, and a
                # SIGTERM may too; only the parent acts on them, and reaps
                # the workers on its way out
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
                # the go pipe's write end held open here would hide the
                # parent's close from a waiting worker
                for fd in (self.go, result_r, *(w.results.fileno() for w in self.workers)):
                    os.close(fd)
                # left to the scheduler, pipe-woken workers tend to share
                # one CPU; a worker that cannot be pinned runs where it is
                if hasattr(os, "sched_setaffinity"):
                    with suppress(OSError):
                        os.sched_setaffinity(0, {cpu})
                with open(result_w, "wb") as writer:
                    # one answer for the share of chunks (the list of their
                    # None results); a failed fill, or EOF in place of the
                    # go byte, ends the worker before the scan
                    if _answer(writer, list, map(fill, chunks)) and os.read(go, 1):
                        for block in blocks:
                            if not _answer(writer, classify, block):
                                break
                status = 0
            finally:
                # no atexit hook, and no flush of the parent's stdio buffers
                os._exit(status)
        os.close(result_w)
        self.workers.append(_Worker(pid, open(result_r, "rb")))

    def _reap(self, pid: int) -> int:
        if pid not in self.status:
            self.status[pid] = os.waitpid(pid, 0)[1]
        return self.status[pid]

    def _receive(self, worker: _Worker):
        try:
            ok, value = pickle.load(worker.results)
        except (EOFError, pickle.UnpicklingError):  # a worker gone mid-task
            code = os.waitstatus_to_exitcode(self._reap(worker.pid))
            # an OSError: the run failed, not the mathematics
            raise ChildProcessError(f"search worker {worker.pid} died (exit code {code})") from None
        if not ok:
            exc, trace = value
            # the worker's traceback shows as the cause of the error
            raise exc from RuntimeError(f"in search worker {worker.pid}:\n{trace}")
        return value

    def filling(self):
        """Each worker's answer for its chunks, then the go bytes."""
        for worker in self.workers:
            yield self._receive(worker)
        # with every worker dead, the write finds no reader; the scan's
        # first read then names a dead worker
        with suppress(BrokenPipeError):
            os.write(self.go, bytes(len(self.workers)))

    def scanning(self):
        """Each block's hits, in order."""
        for j in range(len(self.blocks)):
            yield self._receive(self.workers[j % len(self.workers)])

    def close(self, kill: bool) -> None:
        """Close every pipe and reap every worker, killed first if kill; a
        worker still waiting for the go byte reads EOF and exits."""
        os.close(self.go)
        for worker in self.workers:
            if kill and worker.pid not in self.status:
                os.kill(worker.pid, signal.SIGKILL)
            worker.results.close()
        for worker in self.workers:
            self._reap(worker.pid)


@contextmanager
def _phases(processes: int, fill, chunks: list, classify, blocks: list):
    """Yield (filling, scanning): the results of fill over chunks and of
    classify over blocks, each in order, filling to be drained first.

    In one process, or where the platform has no os.fork, they are builtin
    maps, which run each task when its result is taken; otherwise they come
    from a pool of that many forked workers.  A task's exception is raised
    in the parent, and so is a ChildProcessError for a worker that dies.
    Every worker is reaped on the way out, killed first when a phase or the
    caller raised.
    """
    if processes <= 1 or not hasattr(os, "fork"):
        yield map(fill, chunks), map(classify, blocks)
        return
    pool = _ForkPool(processes, fill, chunks, classify, blocks)
    try:
        yield pool.filling(), pool.scanning()
    except BaseException:
        pool.close(kill=True)
        raise
    pool.close(kill=False)


def _check_resumed(config: SearchConfig, hits_by_segment: list[list[SearchHit]]) -> None:
    """CheckpointError unless the recorded hits could be this run's: each of
    a requested class and parity, and every hit that lists.listed gives below
    the resume point among them.  A missing scanned hit goes unseen, since
    the header records neither classes nor parity."""
    hits = [h for seg in hits_by_segment for h in seg]
    for h in hits:
        if h.classification not in config.classes or config.parity not in ("all", h.parity):
            raise CheckpointError(
                f"checkpoint holds hit {h.n} ({h.classification}), which a search "
                f"of {', '.join(config.classes)} at parity {config.parity} excludes"
            )
    recorded = {(h.n, h.classification) for h in hits}
    done = min(config.limit + 1, 1 + len(hits_by_segment) * config.segment_size)
    for n, cls in listed(config.classes, config.parity, 1, done):
        if (n, cls) not in recorded:
            raise CheckpointError(
                f"checkpoint lacks hit {n} ({cls}) of a search of "
                f"{', '.join(config.classes)} at parity {config.parity}"
            )


def run_search(config: SearchConfig) -> SearchResult:
    """Execute a (possibly resumed) search; see module docstring.

    Returns the merged hits for all completed segments.  When max_segments
    stops the run early, completed is False and the checkpoint holds the
    finished prefix.
    """
    t0 = time.perf_counter()
    starts = range(1, config.limit + 1, config.segment_size)
    total = len(starts)

    hits_by_segment: list[list[SearchHit]] = []
    if config.resume:
        if not config.checkpoint_path or not os.path.exists(config.checkpoint_path):
            raise CheckpointError("resume requested but checkpoint file not found")
        with open(config.checkpoint_path) as fh:
            cp_limit, cp_seg, hits_by_segment = parse_checkpoint(fh.read())
        if (cp_limit, cp_seg) != (config.limit, config.segment_size):
            raise CheckpointError(
                f"checkpoint was written for limit={cp_limit}, "
                f"segment_size={cp_seg}; refusing to mix configurations"
            )
        _check_resumed(config, hits_by_segment)

    todo = starts[len(hits_by_segment) :]
    if config.max_segments is not None:
        todo = todo[: config.max_segments]
    ends = [min(config.limit + 1, lo + config.segment_size) for lo in todo]
    blocks = _blocks(config.classes, config.parity, todo[0], ends[-1]) if todo else []

    text = None  # the checkpoint text last recorded

    def record() -> None:
        # render the merged segments, and write them when there is a file
        nonlocal text
        text = render_checkpoint(config.limit, config.segment_size, hits_by_segment)
        if config.checkpoint_path:
            _write_atomic(config.checkpoint_path, text)

    if config.checkpoint_path and not config.resume:
        # a fresh run records its zero segments before the pool forks, so
        # that a run stopped anywhere leaves a checkpoint to resume from
        record()
    found: list[tuple[int, str]] = []  # hits listed or scanned, not yet merged
    merged = 0  # segments of todo merged

    def merge_before(bound: int) -> None:
        # merge each segment ending at or before bound: no block still out
        # starts before that end, so all of its hits are found; then record
        # the checkpoint once for all of them, so that the writes grow with
        # the blocks, not with the segments
        nonlocal found, merged
        first = merged
        while merged < len(ends) and ends[merged] <= bound:
            end = ends[merged]
            merged += 1
            seg_hits_raw = sorted((h for h in found if h[0] < end),
                                  key=lambda h: (h[0], CLASS_ORDER.index(h[1])))
            found = [h for h in found if h[0] >= end]
            hits_by_segment.append([verify_hit(n, cls) for n, cls in seg_hits_raw])
        if merged > first and config.checkpoint_path:
            record()

    # a run with no block to scan (max_segments 0, a completed checkpoint, a
    # search of the sigma classes or at parity odd) reads no table, so none
    # is built and no pool is started
    entries = _table_size(ends[-1] - 1) if blocks else 0
    chunks = _runs(entries)
    # a shared anonymous map, which the forked workers fill in place
    table = (np.ndarray(entries, dtype=np.uint32, buffer=mmap.mmap(-1, 4 * entries))
             if entries else None)
    variants = [v for v in VARIANTS if v.unitary and v.name in config.classes]
    # the tasks, bound to this run's table and variants when it starts, so
    # that they run whatever the module names _fill_chunk and
    # _classify_segment then, such as a benchmark's traced wrapper
    fill = partial(_fill_chunk, table)
    classify = partial(_classify_segment, table, variants)
    # a process per task at most: a phase of one task gains nothing from a pool
    tasks = max(len(blocks), len(chunks))
    processes = min(config.workers, len(usable_cpus()), tasks)
    with _phases(processes, fill, chunks, classify, blocks) as (filling, scanning):
        # a pool's workers start on the table chunks while this process
        # lists the hits that need no scan
        if todo:
            found = listed(config.classes, config.parity, todo[0], ends[-1])
        if entries:
            _build_table(table, filling)
        # after a block, the next one's first n bounds the segments done;
        # after the last, every segment is
        bounds = [block.lo for block in blocks[1:]] + [config.limit + 1]
        for block_hits, bound in zip(scanning, bounds):
            found.extend(block_hits)
            merge_before(bound)
        merge_before(config.limit + 1)  # every segment, when there is no block

    if text is None:
        # no checkpoint file, or a resume that merged no segment (max_segments
        # 0, a completed checkpoint): nothing has rendered the text yet
        record()
    return SearchResult(
        hits=[h for seg in hits_by_segment for h in seg],
        completed=len(hits_by_segment) == total,
        segments_done=len(hits_by_segment),
        total_segments=total,
        elapsed=time.perf_counter() - t0,
        checkpoint_text=text,
    )


def find_usp(limit: int, parity: str = "all", **kwargs) -> list[SearchHit]:
    """All n <= limit with the unitary divisor sum applied twice equal to 2n."""
    return run_search(SearchConfig(limit=limit, classes=("usp",), parity=parity, **kwargs)).hits
