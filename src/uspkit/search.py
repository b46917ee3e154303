"""Segmented, parallel, resumable search for perfect-number variants.

The search runs in two layers.  A flat uint32 lookup table of divisor sums
of odd values is built once per run, chunk by chunk: entry i holds
sigma*(2i + 1) or sigma(2i + 1).  A lookup of m = 2^a * m' with m' odd
multiplies the entry for m' by the 2-part's factor, sigma*(2^a) = 2^a + 1
for a >= 1 or sigma(2^a) = 2^(a+1) - 1.

The classification pass then walks [1, limit] in segments: a number n is a
hit for the second-order classes exactly when the re-applied divisor sum
equals 2n, and the inequality sigma(m) >= m + 1 means any n with a first
application above 2n - 1 can be discarded before the second lookup, so every
odd part looked up is below 2 * limit.  Over odd n it is below limit for
every class: for odd n > 1, sigma*(n) is even, and so is sigma(n) unless n is
a square, so a candidate's first application, at most 2n - 1, has an odd part
below n.  The odd squares, at most sqrt(limit) / 2 of them, take the exact
fallback below.  The table covers the odd values up to that bound.  When the
table is memory-capped, first applications past it come from a per-segment
sieve and second ones from exact factorization.

Each search makes one ordered map and runs both layers through it: the
builtin map in one process, otherwise the map of one fork process pool of
at most os.cpu_count() workers, which yields results in submission order.
The tables live in shared anonymous memory mapped before the pool forks, so
the workers fill them in place and then classify segments against them; no
table chunk travels between processes.

Every hit is recomputed from scratch from its factorization during the
ordered merge, independent of the sieve that produced it, and odd hits of
the doubly-applied unitary class additionally pass the structural check.
Output order and checkpoint bytes depend only on (limit, segment_size,
classes, parity), never on worker count or interruption points.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .arith import Factorization, factorize, sigma_from_factorization, unitary_sigma
from .sieve import divisor_sum_segment
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
        raise RuntimeError(
            f"sieve hit {n} ({classification}) fails exact recomputation"
        )
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
    table_budget_bytes: int = 1 << 30
    max_segments: int | None = None

    def __post_init__(self) -> None:
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

#: the running search's classes, parity and odd-part tables (keyed by
#: unitary), set by run_search before its pool forks so that the workers
#: inherit them; the tables are shared memory that every process writes and
#: reads in place
_STATE: dict | None = None

#: odd values per table-build task: the sieve's int64 arrays for a task stay
#: in cache, and its Python work per base prime is spread over enough entries
_TABLE_CHUNK = 1 << 18


def _fill_chunk(unitary: bool, i: int) -> None:
    table = _STATE["tables"][unitary]
    lo, hi = 2 * i + 1, 2 * min(table.shape[0], i + _TABLE_CHUNK)
    seg = divisor_sum_segment(lo, hi, unitary, step=2)
    if seg.max(initial=0) >= 1 << 32:
        raise OverflowError(f"divisor sums in [{lo}, {hi}) exceed uint32")
    table[i : i + seg.shape[0]] = seg


def _build_table(unitary: bool, omap=map) -> np.ndarray:
    """Fill the state's table with sigma*(2i + 1) if unitary else sigma(2i + 1)
    at index i, one task per _TABLE_CHUNK entries run through omap."""
    starts = range(0, _STATE["tables"][unitary].shape[0], _TABLE_CHUNK)
    # draining the map runs (builtin map) or awaits (pool) every task, and
    # raises a task's OverflowError here
    list(omap(_fill_chunk, [unitary] * len(starts), starts))
    return _STATE["tables"][unitary]


# ---------------------------------------------------------------------------
# segment classification


def _divisor_sum(f: Factorization, unitary: bool) -> int:
    return unitary_sigma(f) if unitary else sigma_from_factorization(f)


def _exact_divisor_sum(m: int, unitary: bool) -> int:
    return _divisor_sum(factorize(m), unitary)


#: n classified at a time: the lookups' int64 temporaries stay in cache
_SCAN_BLOCK = 1 << 16


def _lookup(table: np.ndarray, m: np.ndarray, unitary: bool) -> tuple[np.ndarray, np.ndarray]:
    """Divisor sums of the values m >= 1 served by the odd-part table.

    Returns the sums and the mask of values whose odd part the table holds;
    sums outside the mask are meaningless.
    """
    low = m & -m  # 2^a, for m = 2^a * m' with m' odd
    idx = m >> np.bitwise_count(low - 1) >> 1  # (m' - 1) / 2
    factor = low + (low > 1) if unitary else 2 * low - 1
    return table.take(idx, mode="clip") * factor, idx < table.shape[0]


def _classify_segment(lo: int, hi: int) -> list[tuple[int, str]]:
    parity = _STATE["parity"]
    if parity == "all":
        start, step = lo, 1
    else:  # from the first n of the requested parity
        start, step = (lo if lo % 2 == (parity == "odd") else lo + 1), 2
    # first applications past the table: the segment is sieved at most once
    # per divisor sum, whichever classes need it
    sieved: dict[bool, np.ndarray] = {}

    def first_sieved(unitary: bool) -> np.ndarray:
        if unitary not in sieved:
            if parity == "odd":
                sieved[unitary] = divisor_sum_segment(start, hi, unitary, step=2)
            else:
                sieved[unitary] = divisor_sum_segment(start, hi, unitary)[::step]
        return sieved[unitary]

    values = range(start, hi, step)
    hits: list[tuple[int, str]] = []
    for i in range(0, len(values), _SCAN_BLOCK):
        block = values[i : i + _SCAN_BLOCK]
        n_all = np.arange(block.start, block.stop, step, dtype=np.int64)
        for variant in VARIANTS:
            if variant.name not in _STATE["classes"]:
                continue
            unitary = variant.unitary
            table = _STATE["tables"][unitary]
            first, inside = _lookup(table, n_all, unitary)
            if not inside.all():
                first = first_sieved(unitary)[i : i + _SCAN_BLOCK]
            if variant.applications == 1:
                good = n_all[first == 2 * n_all]
            else:
                # sigma(m) >= m + 1, so a hit needs first <= 2n - 1; that also
                # bounds the odd part of every second lookup (module docstring)
                cand = first < 2 * n_all
                mm = first[cand]
                nn = n_all[cand]
                second, inside = _lookup(table, mm, unitary)
                for j in np.flatnonzero(~inside):
                    second[j] = _exact_divisor_sum(int(mm[j]), unitary)
                good = nn[second == 2 * nn]
            hits.extend((int(x), variant.name) for x in good)
    hits.sort(key=lambda t: (t[0], CLASS_ORDER.index(t[1])))
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
        for line in rest:
            tag, idx, count = line.split()
            if tag != "seg" or int(idx) != len(hits_by_segment):
                raise CheckpointError(f"unexpected line {line!r}")
            seg_hits = []
            for line in islice(rest, int(count)):
                _, n, _, _, cls = line.split()
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
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# orchestration

def _table_sizes(config: SearchConfig) -> dict[bool, int]:
    """Entries of each odd-part table the classes use, keyed by unitary."""
    budget_entries = max(config.table_budget_bytes // 4, 1 << 16)
    need: dict[bool, int] = {}  # the largest odd part a lookup can ask for
    for variant in VARIANTS:
        if variant.name in config.classes:
            # over odd n a candidate's odd part is below n, odd squares
            # aside (module docstring)
            bound = config.limit * (1 if config.parity == "odd" else variant.applications)
            need[variant.unitary] = max(need.get(variant.unitary, 0), bound)
    # index i holds 2i + 1, so the odd values up to b take (b + 1) // 2 entries
    return {unitary: min((b + 1) // 2, budget_entries) for unitary, b in need.items()}


@contextmanager
def _ordered_map(processes: int):
    """map, or the map of a fork pool; both yield results in submission order."""
    if processes <= 1:
        yield map
    else:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=processes, mp_context=ctx) as pool:
            yield pool.map


def run_search(config: SearchConfig) -> SearchResult:
    """Execute a (possibly resumed) search; see module docstring.

    Returns the merged hits for all completed segments.  When max_segments
    stops the run early, completed is False and the checkpoint holds the
    finished prefix.
    """
    global _STATE
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
        hits_by_segment = hits_by_segment[:total]

    todo = starts[len(hits_by_segment) :]
    if config.max_segments is not None:
        todo = todo[: config.max_segments]

    def merge(seg_hits_raw: list[tuple[int, str]]) -> None:
        verified = [verify_hit(n, cls) for n, cls in seg_hits_raw]
        hits_by_segment.append(verified)
        if config.checkpoint_path:
            _write_atomic(
                config.checkpoint_path,
                render_checkpoint(config.limit, config.segment_size, hits_by_segment),
            )

    # no segment left to scan (max_segments 0, a completed checkpoint) reads
    # no table, so none is built and no pool is started
    sizes = _table_sizes(config) if todo else {}
    # a process per task at most: a phase of one task gains nothing from a pool
    tasks = max([len(todo)] + [-(-size // _TABLE_CHUNK) for size in sizes.values()])
    _STATE = {
        "classes": set(config.classes),
        "parity": config.parity,
        "tables": {
            unitary: np.frombuffer(mmap.mmap(-1, 4 * size), dtype=np.uint32)
            for unitary, size in sizes.items()
        },
    }
    try:
        with _ordered_map(min(config.workers, os.cpu_count() or 1, tasks)) as omap:
            for unitary in sizes:
                _build_table(unitary, omap)
            ends = [min(config.limit + 1, lo + config.segment_size) for lo in todo]
            for seg_hits_raw in omap(_classify_segment, todo, ends):
                merge(seg_hits_raw)
    finally:
        _STATE = None

    completed = len(hits_by_segment) == total
    text = render_checkpoint(config.limit, config.segment_size, hits_by_segment)
    if config.checkpoint_path:
        _write_atomic(config.checkpoint_path, text)
    return SearchResult(
        hits=[h for seg in hits_by_segment for h in seg],
        completed=completed,
        segments_done=len(hits_by_segment),
        total_segments=total,
        elapsed=time.perf_counter() - t0,
        checkpoint_text=text,
    )


def find_usp(limit: int, parity: str = "all", **kwargs) -> list[SearchHit]:
    """All n <= limit with the unitary divisor sum applied twice equal to 2n."""
    return run_search(SearchConfig(limit=limit, classes=("usp",), parity=parity, **kwargs)).hits


def find_unitary_perfect(limit: int, parity: str = "all", **kwargs) -> list[SearchHit]:
    """All n <= limit whose unitary divisor sum equals 2n."""
    return run_search(
        SearchConfig(limit=limit, classes=("unitary_perfect",), parity=parity, **kwargs)
    ).hits


def find_super_perfect(limit: int, parity: str = "all", **kwargs) -> list[SearchHit]:
    """All n <= limit with the ordinary divisor sum applied twice equal to 2n."""
    return run_search(
        SearchConfig(limit=limit, classes=("super_perfect",), parity=parity, **kwargs)
    ).hits


def find_perfect(limit: int, parity: str = "all", **kwargs) -> list[SearchHit]:
    """All n <= limit with sigma(n) = 2n."""
    return run_search(
        SearchConfig(limit=limit, classes=("perfect",), parity=parity, **kwargs)
    ).hits
