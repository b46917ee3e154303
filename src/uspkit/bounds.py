"""Certified rational enclosures for the displayed inequality chain.

Every displayed product is evaluated two ways: a float rendering for
comparison against the decimals as printed, and an exact-rational enclosure
[lower, upper] in which every exponential factor and every truncated tail is
replaced by a one-sided rational bound.  A certificate is that enclosure and
its float, nothing more.  The contradiction logic downstream only ever
consumes ``upper < 2``, which survives certification even where a printed
decimal does not reproduce.

The registry holds each display as its rationals: the factors and the
exponent arguments as printed, with one imported constant,
MIN_K_BOTH_DIVISIBLE.  Where a printed expression is internally
inconsistent (a handful of displays carry transcription slips), the
registry keeps the printed reading and a recomputed reading side by side;
the record's note says which is which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .arith import MAX_NATURAL, factorize, is_prime, ord_mod, primes_up_to

#: Minimum count of distinct prime factors assumed for the
#: both-3-and-sigma*-divisible case; an imported search result consumed as a
#: named constant.
MIN_K_BOTH_DIVISIBLE = 46

#: Difference tolerated between a recomputed float and the decimal as
#: printed before a record is flagged.
REPRODUCTION_TOL = 5e-4

_TAYLOR_DEGREE = 12


def _taylor(a: int, b: int) -> tuple[int, int, int, int]:
    """The integers behind exp_bounds(a/b), for 0 <= a < b: the degree-12
    partial sum over the common denominator 12! b^12, its last term, that
    denominator, and the gap 13b - a of the tail bound.

    Every term a^k / (k! b^k) over 12! b^12 is the integer
    (12!/k!) a^k b^(12-k); each step's division is exact, and the last term
    is a^12.  exp(a/b) lies in [partial/den, (partial*gap + term*a)/(den*gap)],
    the upper end adding the tail bound a^13 / (12! b^12 (13b - a)).
    """
    den = term = math.factorial(_TAYLOR_DEGREE) * b**_TAYLOR_DEGREE
    partial = term
    for k in range(1, _TAYLOR_DEGREE + 1):
        term = term * a // (k * b)
        partial += term
    return partial, term, den, (_TAYLOR_DEGREE + 1) * b - a


def exp_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rational enclosure of exp(x) for 0 <= x < 1.

    Lower bound: the degree-12 Taylor partial sum (all omitted terms are
    positive).  Upper bound: partial sum plus a geometric over-estimate of
    the remainder (term ratio is at most x/13 < 1).  Relative width is far
    below 1e-6 on the whole domain.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"argument must satisfy 0 <= x < 1, got {x}")
    a = x.numerator
    partial, term, den, gap = _taylor(a, x.denominator)
    return Fraction(partial, den), Fraction(partial * gap + term * a, den * gap)


def tail_exponent(t: int, r: int, i0: int) -> Fraction:
    """Exponent x with  prod_{i >= i0} t*r^i / (t*r^i - 1)  <=  exp(x).

    Term-wise, 1/(t*r^(i0+k) - 1) <= r^(-k) / (t*r^(i0) - 1); summing the
    geometric series gives x = (1/(t*r^(i0) - 1)) * (r/(r - 1)).
    """
    if r < 2 or t < 1 or i0 < 0:
        raise ValueError(f"bad tail parameters t={t} r={r} i0={i0}")
    lead = t * r**i0
    if lead < 2:
        raise ValueError(f"first tail term t*r^i0 = {lead} must be >= 2")
    return Fraction(r, (r - 1) * (lead - 1))


@dataclass(frozen=True)
class BoundCertificate:
    """Exact enclosure [lower, upper] of one product expression.

    upper is rigorous: every truncated tail enters via a certified rational
    over-estimate.  float_estimate always lies inside [lower, upper] when
    read back as an exact rational.
    """

    expression_id: str
    lower: Fraction
    upper: Fraction
    float_estimate: float

    def __post_init__(self) -> None:
        if not (self.lower <= Fraction(self.float_estimate) <= self.upper):
            raise ValueError(f"estimate escapes enclosure in {self.expression_id}")


def _certify(expr_id, lo, hi) -> BoundCertificate:
    fe = float(hi)
    # widening by one float rounding step keeps both bounds rigorous
    lower = min(lo, Fraction(fe))
    upper = max(hi, Fraction(fe))
    return BoundCertificate(expr_id, lower, upper, fe)


def fraction_decimal(x: Fraction, places: int = 12) -> str:
    """Plain decimal rendering of a nonnegative rational, truncated."""
    whole, rem = divmod(x.numerator, x.denominator)
    digits = rem * 10**places // x.denominator
    return f"{whole}.{digits:0{places}d}"


def mersenne_constant(p_cutoff: int = 31) -> BoundCertificate:
    """Enclosure of the product of 2^p/(2^p - 1) over all p with 2^p - 1 prime.

    The finite product over exponents p <= p_cutoff is the exact lower bound.
    Every exponent beyond the cutoff is an odd prime, so the remaining
    factors are dominated by 2^n/(2^n - 1) over odd n > p_cutoff, whose log
    is at most (1/(2^n0 - 1)) * 4/3 with n0 the first odd value past the
    cutoff.
    """
    if p_cutoff < 2:
        raise ValueError(f"p_cutoff must be >= 2, got {p_cutoff}")
    if 2**p_cutoff - 1 > MAX_NATURAL:
        raise ValueError(f"p_cutoff={p_cutoff} exceeds the testable exponent range")
    lo = Fraction(1)
    for p in primes_up_to(p_cutoff):
        m = 2**p - 1
        if is_prime(m):
            lo *= Fraction(2**p, m)
    n0 = p_cutoff + 2 if p_cutoff % 2 == 1 else p_cutoff + 1
    tail = exp_bounds(Fraction(4, 3 * (2**n0 - 1)))[1]
    return _certify("mersenne-constant", lo, lo * tail)


class Verdict(Enum):
    REPRODUCED_BELOW_2 = "reproduced_below_2"
    DISCREPANCY_FLAGGED = "discrepancy_flagged"


@dataclass(frozen=True)
class AltResult:
    """A secondary reading of a display: float value, plus a certified upper
    bound when the reading is well-formed enough to certify."""

    label: str
    value: float
    upper: Fraction | None


@dataclass(frozen=True)
class InequalityRecord:
    id: str
    printed_value: float
    computed: BoundCertificate
    verdict: Verdict
    alts: tuple[AltResult, ...]
    note: str

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "printed_value": self.printed_value,
            "float_estimate": self.computed.float_estimate,
            "lower": fraction_decimal(self.computed.lower),
            "upper": fraction_decimal(self.computed.upper),
            "lower_fraction": str(self.computed.lower),
            "upper_fraction": str(self.computed.upper),
            "verdict": self.verdict.value,
            "alts": [[a.label, a.value] for a in self.alts],
            "note": self.note,
        }


@dataclass(frozen=True)
class _Reading:
    factors: tuple[Fraction, ...]
    #: the exponent arguments, summed into one exp(x)
    exp_args: tuple[Fraction, ...]
    with_constant: bool = False


@dataclass(frozen=True)
class _Display:
    id: str
    printed_value: float
    primary: _Reading
    #: alternate readings: a label and the exp_args that replace the primary's
    alts: tuple[tuple[str, tuple[Fraction, ...]], ...] = ()
    note: str = ""


def _second_application_max_q7() -> Fraction:
    # worst second-application ratio over the three possible splits of at
    # least three prime factors between Mersenne primes and 2*7^b - 1 forms;
    # the first, 65/56, is the largest
    branches = (
        Fraction(2**6 + 1, 2**6) * Fraction(8, 7),
        Fraction(2**4 + 1, 2**4) * Fraction(7**3 + 1, 7**3),
        Fraction(2**3 + 1, 2**3) * Fraction(7**6 + 1, 7**6),
    )
    return max(branches)


def _registry() -> dict[str, _Display]:
    f = Fraction
    k = MIN_K_BOTH_DIVISIBLE
    even_tail = tail_exponent(2, 4, 2)  # tail 2^(2i+1) over i >= 2, = 4/93
    displays = [
        _Display(
            id="E31",
            printed_value=1.631007,
            primary=_Reading(factors=(f(4, 3),), exp_args=(f(4, 21),)),
            note=(
                "printed decimal 1.631007 transposes digits of the recomputed "
                "value 1.6131008 of (4/3)*exp(4/21); flagged, not fatal"
            ),
        ),
        _Display(
            id="L42",
            printed_value=1.4588,
            primary=_Reading(
                factors=(f(2**3 + 1, 2**3), f(3**6 + 1, 3**6), f(6, 5), f(18, 17), f(54, 53)),
                # the tail 2*3^i over i >= 7, as printed
                exp_args=(f(3, 8744),),
            ),
            alts=(("recomputed tail exponent 3/8746", (tail_exponent(2, 3, 7),)),),
            note=(
                "printed tail exponent 3/8744 slightly exceeds the "
                "majorization value 3/8746 (= (1/(2*3^7-1))*(3/2)), so the "
                "printed display still bounds the underlying product"
            ),
        ),
        _Display(
            id="L43",
            printed_value=1.9041,
            primary=_Reading(
                factors=(
                    f(2**k + 1, 2**k),
                    f(3 ** (k - 1) + 1, 3 ** (k - 1)),
                    f(4, 3), f(6, 5), f(12, 11), f(18, 17), f(54, 53), f(108, 107),
                ),
                # the tails 2*3^i over i >= 7, as printed, and 4*3^i over i >= 5
                exp_args=(f(3, 8744), f(3, 1942)),
            ),
            alts=(
                (
                    "recomputed tail exponents 3/8746 + 3/1942",
                    (tail_exponent(2, 3, 7), tail_exponent(4, 3, 5)),
                ),
            ),
        ),
        _Display(
            id="T53-first",
            printed_value=1.7332,
            primary=_Reading(
                factors=(f(2**9 + 1, 2**9), f(6, 5), f(7, 9)),
                exp_args=(tail_exponent(2, 5, 1),),
                with_constant=True,
            ),
        ),
        _Display(
            id="T53-second",
            printed_value=1.9150,
            primary=_Reading(
                factors=(f(7, 8), f(6, 5), f(9, 8)),
                exp_args=(tail_exponent(2, 5, 3),),  # = (5/4)*(1/249)
                with_constant=True,
            ),
            alts=(("literal exp((5/4)*(250/249)) as printed", (f(5, 4) * f(250, 249),)),),
            note=(
                "the printed exponent (5/4)*(250/249) makes the display "
                "exceed 2; the tail-majorization reading (5/4)*(1/249) "
                "reproduces the printed decimal and is used as primary"
            ),
        ),
        _Display(
            id="T54-q7",
            printed_value=1.7604,
            primary=_Reading(
                factors=(_second_application_max_q7(), f(4, 3)),
                # the tail 2*7^i over i >= 1, as printed
                exp_args=(even_tail, f(8, 91)),
            ),
            alts=(
                (
                    "recomputed tail exponent 7/78 for 2*7^i",
                    (even_tail, tail_exponent(2, 7, 1)),
                ),
            ),
            note=(
                "printed decimal 1.7604 matches neither the printed factors "
                "(1.7641) nor the recomputed tails (1.7673); flagged, and "
                "both stay well below 2"
            ),
        ),
        _Display(
            id="T54-q11",
            printed_value=1.8850,
            primary=_Reading(
                factors=(f(2**3 + 1, 2**3), f(11**6 + 1, 11**6), f(4, 3), f(8, 7)),
                # the tail 2*11^i over i >= 1, as printed
                exp_args=(even_tail, f(4, 77)),
            ),
            alts=(
                (
                    "recomputed tail exponent 11/210 for 2*11^i",
                    (even_tail, tail_exponent(2, 11, 1)),
                ),
            ),
            note=(
                "printed tail exponent (1/21)*(12/11) sits slightly below "
                "the majorization value (1/21)*(11/10); the recomputed "
                "variant is reported alongside and also stays below 2"
            ),
        ),
    ]
    return {d.id: d for d in displays}


_REGISTRY = _registry()

#: the registered displays, in the order evaluate_all reports them
INEQUALITY_IDS = tuple(_REGISTRY)

#: The displays whose certified upper bound the contradiction chain consumes.
CHAIN_INEQUALITY_IDS = tuple(i for i in INEQUALITY_IDS if i != "E31")


def _eval_reading(expr_id: str, reading: _Reading) -> BoundCertificate:
    lo = hi = math.prod(reading.factors, start=Fraction(1))
    elo, ehi = exp_bounds(sum(reading.exp_args, Fraction(0)))
    lo *= elo
    hi *= ehi
    if reading.with_constant:
        c = mersenne_constant(2)
        lo *= c.lower
        hi *= c.upper
    return _certify(expr_id, lo, hi)


def _eval_alt(expr_id: str, label: str, reading: _Reading) -> AltResult:
    x = sum(reading.exp_args, Fraction(0))
    if 0 <= x < 1:
        cert = _eval_reading(f"{expr_id}[{label}]", reading)
        return AltResult(label, cert.float_estimate, cert.upper)
    value = math.exp(float(x))
    for frac in reading.factors:
        value *= float(frac)
    if reading.with_constant:
        value *= float(mersenne_constant(2).upper)
    return AltResult(label, value, None)


def evaluate_inequality(ineq_id: str) -> InequalityRecord:
    """Certified record for one registered display; floats are compared
    against the decimal as printed and flagged past REPRODUCTION_TOL."""
    if ineq_id not in _REGISTRY:
        raise KeyError(f"unknown inequality id {ineq_id!r}; known: {INEQUALITY_IDS}")
    d = _REGISTRY[ineq_id]
    cert = _eval_reading(d.id, d.primary)
    alts = tuple(
        _eval_alt(d.id, label, replace(d.primary, exp_args=exp_args))
        for label, exp_args in d.alts
    )
    if abs(cert.float_estimate - d.printed_value) > REPRODUCTION_TOL:
        verdict = Verdict.DISCREPANCY_FLAGGED
    else:
        verdict = Verdict.REPRODUCED_BELOW_2
    return InequalityRecord(d.id, d.printed_value, cert, verdict, alts, d.note)


def evaluate_all() -> list[InequalityRecord]:
    return [evaluate_inequality(i) for i in INEQUALITY_IDS]


@dataclass(frozen=True, slots=True)
class QScanEntry:
    """One (q, f2) of q_bound_scan and its verdict.

    The verdict was decided by exact integer comparison; the enclosure
    [lhs_lower, lhs_upper] of ((q^f2 + 1)/q^f2) * exp(q/((q-1)(2q-1))) that
    decided it is recomputed on demand, so an entry holds no rational.
    """

    q: int
    f2: int
    satisfies: bool

    def _lhs(self, upper: bool) -> Fraction:
        q, power = self.q, self.q**self.f2
        partial, term, den, gap = _taylor(q, (q - 1) * (2 * q - 1))
        if upper:
            return Fraction((power + 1) * (partial * gap + term * q), power * den * gap)
        return Fraction((power + 1) * partial, power * den)

    @property
    def lhs_lower(self) -> Fraction:
        return self._lhs(False)

    @property
    def lhs_upper(self) -> Fraction:
        return self._lhs(True)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "f2": self.f2,
            "satisfies": self.satisfies,
            "lhs": fraction_decimal(self.lhs_upper, 6),
        }


def q_bound_scan(q_max: int = 100) -> list[QScanEntry]:
    """For each odd prime 5 <= q <= q_max and f2 in {1, 2}: does
    ((q^f2 + 1)/q^f2) * exp(q/((q-1)(2q-1))) still reach 16/(9C)?

    The threshold uses the certified ceiling of the constant C, matching how
    the elimination consumes it.  q = 3 has its own dedicated elimination and
    is out of scope here.  Each verdict is an exact comparison of integers:
    the two ends of the enclosure, cross-multiplied with the threshold, so
    no rational is built per entry; ArithmeticError when the enclosure
    straddles the threshold.  The entries recompute the enclosure on demand.
    """
    if q_max < 5:
        raise ValueError(f"q_max must be >= 5, got {q_max}")
    threshold = Fraction(16, 9) / mersenne_constant(2).upper
    t_num, t_den = threshold.numerator, threshold.denominator
    out = []
    for q in primes_up_to(q_max):
        if q < 5:
            continue
        partial, term, den, gap = _taylor(q, (q - 1) * (2 * q - 1))
        # lhs >= T  iff  (q^f2 + 1) * num * T_den >= q^f2 * den * T_num,
        # with num/den the lower or the upper end of the exp enclosure
        lower, upper = partial * t_den, (partial * gap + term * q) * t_den
        cut_lower, cut_upper = den * t_num, den * gap * t_num
        for power, f2 in ((q, 1), (q * q, 2)):
            if (power + 1) * lower >= power * cut_lower:
                sat = True
            elif (power + 1) * upper < power * cut_upper:
                sat = False
            else:
                raise ArithmeticError(f"enclosure straddles the cutoff at q={q}")
            out.append(QScanEntry(q, f2, sat))
    return out


@dataclass(frozen=True)
class ChainStep:
    step_id: str
    statement: str
    ok: bool
    witness: str


@dataclass(frozen=True)
class Case13Verdict:
    steps: tuple[ChainStep, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "steps": [
                {"id": s.step_id, "statement": s.statement, "ok": s.ok, "witness": s.witness}
                for s in self.steps
            ],
        }


def case_13_elimination() -> Case13Verdict:
    """Mechanical verification of the arithmetic chain ruling out q = 13.

    Each step is a finite computation; together they force a parity clash on
    the exponent of 2 in the first divisor-sum application.
    """
    steps = []

    steps.append(ChainStep(
        "q_mod_3", "13 = 1 (mod 3)", 13 % 3 == 1, "13 = 4*3 + 1"))

    ok = all((13**b + 1) % 3 != 0 for b in range(1, 49))
    steps.append(ChainStep(
        "q_side_never_div_3", "3 never divides 13^b + 1",
        ok, "13^b + 1 = 2 (mod 3) for all b checked (b <= 48)"))

    ok = all(((2**e + 1) % 3 == 0) == (e % 2 == 1) for e in range(1, 49))
    steps.append(ChainStep(
        "f1_parity", "3 | 2^f1 + 1 exactly when f1 is odd, so 3 | n forces f1 odd",
        ok, "checked f1 <= 48"))

    ok = all((4 * 13**b - 1) % 3 == 0 for b in range(1, 49))
    steps.append(ChainStep(
        "a2_family_div_3", "every 4*13^b - 1 is divisible by 3",
        ok, "4*13 - 1 = 51 = 3*17; checked b <= 48"))

    entry = next(e for e in q_bound_scan(13) if e.q == 13 and e.f2 == 2)
    steps.append(ChainStep(
        "f2_forced_1", "q = 13 fails the threshold at f2 = 2, so f2 = 1",
        not entry.satisfies,
        f"lhs <= {fraction_decimal(entry.lhs_upper, 6)} < threshold"))

    f25 = factorize(2 * 13 - 1)
    f51 = factorize(4 * 13 - 1)
    ok = f25.entries == ((5, 2),) and len(f51.entries) > 1
    steps.append(ChainStep(
        "unique_candidate_25",
        "with a <= 2 and b = 1, 2^a*13 - 1 is a prime power only for a = 1: 25 = 5^2",
        ok, "2*13 - 1 = 25 = 5^2; 4*13 - 1 = 51 = 3*17"))

    steps.append(ChainStep(
        "sigma_star_13", "13 + 1 = 2 * 7", 13 + 1 == 2 * 7, "14 = 2*7"))

    residues = {e % 4 for e in range(1, 49) if (2**e + 1) % 5 == 0}
    ok = ord_mod(2, 5) == 4 and residues == {2}
    steps.append(ChainStep(
        "five_needs_f1_2_mod_4",
        "5 | n via 5^2, and 5 | 2^f1 + 1 requires f1 = 2 (mod 4)",
        ok, "order of 2 mod 5 is 4; 2^f1 = -1 (mod 5) iff f1 = 2 (mod 4)"))

    ok = not any(e % 2 == 1 and e % 4 == 2 for e in range(1, 1001))
    steps.append(ChainStep(
        "parity_clash", "no f1 is both odd and 2 (mod 4): contradiction",
        ok, "odd numbers are 1 or 3 (mod 4)"))

    return Case13Verdict(tuple(steps))
