"""uspkit: unitary divisor arithmetic, certified inequality enclosures, and
exhaustive searches for perfect-number variants."""

import os as _os

# uspkit makes no BLAS call, yet numpy's OpenBLAS starts a worker thread on
# import that spins: it slows the import, charges its CPU to single-process
# runs and leaves the process that the search pool forks multi-threaded.  So
# pin OpenBLAS to one thread before any submodule loads numpy, unless the
# caller chose a count; OpenBLAS reads OPENBLAS_NUM_THREADS first, then
# GOTO_NUM_THREADS, then OMP_NUM_THREADS, so setting the first beside either
# of the others would override the caller.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .arith import (
    Factorization,
    MAX_NATURAL,
    factorize,
    is_mersenne_prime,
    is_prime,
    ord_mod,
    prime_power,
    unitary_divisors,
    unitary_sigma,
)
from .bounds import (
    BoundCertificate,
    InequalityRecord,
    MIN_K_BOTH_DIVISIBLE,
    Verdict,
    case_13_elimination,
    evaluate_all,
    evaluate_inequality,
    exp_bounds,
    mersenne_constant,
    q_bound_scan,
)
from .search import (
    SearchConfig,
    SearchHit,
    SearchResult,
    find_usp,
    run_search,
)
from .structure import (
    LemmaReport,
    TwoAQB,
    ZsigmondyKind,
    ZsigmondyResult,
    check_lemma_22,
    check_lemma_23,
    check_lemma_24,
    check_lemma_25,
    check_lemma_26,
    check_lemma_27,
    check_lemma_51,
    check_usp_structure,
    decompose_2aqb,
    zsigmondy,
)

__version__ = "0.1.0"
