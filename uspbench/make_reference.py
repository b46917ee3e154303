"""Write reference.json, the expected outputs the benchmark checks against.

Nothing here calls uspkit.  The checkpoint digest comes from divisor-sum
tables built with a smallest-prime-factor sieve and rendered in the
checkpoint format the README documents; lemma instance counts come from
sympy's factorizations over the same ranges; the hits, the q-scan sets and
the bound verdicts are the paper's and the acceptance report's values.
Needs numpy and sympy; takes about 20 s and 800 MiB::

    python3 uspbench/make_reference.py
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
from sympy import factorint, primerange

import rep

MAX_NATURAL = 2**64 - 1
CHECKPOINT = {"limit": 4 * 10**6, "segment_size": 1 << 16, "stop_after": 31}


def divisor_sums(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, sigma*) for 0..bound from smallest prime factors."""
    spf = np.zeros(bound + 1, dtype=np.int64)
    for p in range(2, int(bound**0.5) + 1):
        if spf[p] == 0:
            mult = spf[p * p :: p]
            mult[mult == 0] = p
    spf[spf == 0] = np.arange(bound + 1)[spf == 0]
    sigma = np.ones(bound + 1, dtype=np.int64)
    star = np.ones(bound + 1, dtype=np.int64)
    rem = np.arange(bound + 1, dtype=np.int64)
    rem[0] = 1
    while True:
        active = np.nonzero(rem > 1)[0]
        if active.size == 0:
            return sigma, star
        p = spf[rem[active]]
        pe = np.ones_like(p)
        r = rem[active]
        while True:
            div = r % p == 0
            if not div.any():
                break
            r[div] //= p[div]
            pe[div] *= p[div]
        rem[active] = r
        sigma[active] *= (pe * p - 1) // (p - 1)
        star[active] *= pe + 1


def checkpoint_sha256() -> tuple[str, int]:
    limit, seg = CHECKPOINT["limit"], CHECKPOINT["segment_size"]
    sigma, star = divisor_sums(2 * limit)
    twice = 2 * np.arange(limit + 1, dtype=np.int64)
    first_star, first_sigma = star[: limit + 1], sigma[: limit + 1]
    # a second application is at least the first plus one, so a hit's first
    # application is below 2n and its second lookup stays inside the tables
    hits = {
        "usp": (first_star < twice) & (star[np.minimum(first_star, 2 * limit)] == twice),
        "unitary_perfect": first_star == twice,
        "super_perfect": (first_sigma < twice) & (sigma[np.minimum(first_sigma, 2 * limit)] == twice),
        "perfect": first_sigma == twice,
    }
    by_segment = [[] for _ in range(0, limit, seg)]
    for m in range(1, limit + 1):
        for cls in rep.ALL_CLASSES:
            if hits[cls][m]:
                by_segment[(m - 1) // seg].append(f"hit {m} {star[m]} {star[star[m]]} {cls}")
    lines = [f"uspsearch-v1 {limit} {seg}"]
    for idx, seg_lines in enumerate(by_segment):
        lines.append(f"seg {idx} {len(seg_lines)}")
        lines.extend(seg_lines)
    body = "\n".join(lines) + "\n"
    text = body + f"digest {hashlib.sha256(body.encode()).hexdigest()}\n"
    return hashlib.sha256(text.encode()).hexdigest(), len(by_segment)


def _odd_part(v: int) -> int:
    while v % 2 == 0:
        v //= 2
    return v


def _prime_powers(p_max: int, e_max: int):
    for p in primerange(3, p_max + 1):
        for e in range(1, e_max + 1):
            if p**e + 1 > MAX_NATURAL:
                break
            yield p, e


def lemma_instances(lemma_id: str, args: tuple) -> int:
    if lemma_id == "2.2":  # p^e + 1 = 2^a q^b with b >= 1
        return sum(
            1 for p, e in _prime_powers(*args)
            if _odd_part(p**e + 1) > 1 and len(factorint(_odd_part(p**e + 1))) == 1
        )
    if lemma_id == "2.3":  # p^e + 1 = 2^a 3^b with b >= 1
        return sum(
            1 for p, e in _prime_powers(*args)
            if _odd_part(p**e + 1) > 1 and set(factorint(_odd_part(p**e + 1))) == {3}
        )
    if lemma_id == "2.4":  # p^e + 1 a power of two
        return sum(1 for p, e in _prime_powers(*args) if _odd_part(p**e + 1) == 1)
    if lemma_id == "2.5":  # one instance per exponent x
        return args[0]
    if lemma_id == "2.6":  # each prime factor of 2^a + 1
        return sum(len(factorint(2**a + 1)) for a in range(1, args[0] + 1))
    if lemma_id == "2.7":  # each odd prime factor of q^b + 1 when 4 does not divide it
        q_max, b_max = args
        return sum(
            len(factorint(_odd_part(q**b + 1)))
            for q in primerange(3, q_max + 1)
            for b in range(1, b_max + 1)
            if q**b + 1 <= MAX_NATURAL and (q**b + 1) % 4 != 0
        )
    if lemma_id == "5.1":  # one instance per exponent b
        return args[1]
    raise KeyError(lemma_id)


def main() -> None:
    sha, segments = checkpoint_sha256()
    reference = {
        "odd-usp": {"hits": [9, 165]},
        "checkpoint-resume": {
            "sha256": sha, "segments": segments, "stop_after": CHECKPOINT["stop_after"],
        },
        "proof-chain": {
            "lemma_instances": {
                f"{lemma_id}{args}": lemma_instances(lemma_id, args)
                for lemma_id, args in rep.LEMMA_ARGS
            },
            "mersenne_upper_below": "1.6131008",
            "reproduction_tol": 5e-4,
            "records": {
                "E31": {"verdict": "discrepancy_flagged"},
                "L42": {"verdict": "reproduced_below_2", "printed": 1.4588},
                "L43": {"verdict": "reproduced_below_2", "printed": 1.9041},
                "T53-first": {"verdict": "reproduced_below_2", "printed": 1.7332},
                "T53-second": {"verdict": "reproduced_below_2", "printed": 1.9150},
                "T54-q7": {"verdict": "discrepancy_flagged"},
                "T54-q11": {"verdict": "reproduced_below_2", "printed": 1.8850},
            },
            "qscan_f2_1": [5, 7, 11, 13],
            "qscan_f2_2": [5, 7],
        },
    }
    path = os.path.join(rep.HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
