"""uspkit: unitary divisor arithmetic, certified inequality enclosures, and
exhaustive searches for perfect-number variants."""

from .arith import (
    Factorization,
    MAX_NATURAL,
    a_q,
    factorize,
    is_mersenne_prime,
    is_prime,
    jacobi,
    omega,
    ord_mod,
    pow_mod,
    prime_power,
    unitary_divisors,
    unitary_sigma,
    v_p,
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
    exp_upper,
    mersenne_constant,
    q_bound_scan,
    tail_product_bound,
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
    enumerate_prime_powers_2aqb,
    zsigmondy,
)

__version__ = "0.1.0"
