"""Command-line entry point.

Every capability is exposed as a subcommand with stable flags; ``--json``
switches any subcommand from aligned text to JSON-lines output.  Exit codes:
0 on success, 2 when a verifier finds a counterexample or a certificate
fails its ceiling, 1 on usage or I/O errors and when a search worker dies,
130 when Ctrl-C (SIGINT) interrupts it and 143 when SIGTERM does; an
interrupted or failed search keeps the checkpoint of the segments it
merged.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import signal
import sys

from . import bounds as bounds_mod
from . import report as report_mod
from . import search as search_mod
from .arith import (
    divisors,
    factorize,
    sigma_from_factorization,
    unitary_divisors,
    unitary_sigma,
)
from .bounds import (
    INEQUALITY_IDS,
    case_13_elimination,
    evaluate_all,
    evaluate_inequality,
    fraction_decimal,
    q_bound_scan,
)
from .search import CLASS_ORDER, CheckpointError, SearchConfig, run_search
from .structure import (
    LEMMA_51_QS,
    LEMMA_CHECKS,
    decompose_2aqb,
    lemma_25_solutions,
    zsigmondy,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the exit-code contract
    # reserves 2 for mathematical failures, so route usage errors to 1
    def error(self, message):
        raise _UsageError(message)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _config_echo(args, **extra) -> None:
    fields = {k: v for k, v in vars(args).items() if k not in ("func", "json")}
    fields.update(extra)
    if args.json:
        print(json.dumps({"config": fields}))
    else:
        print("# config: " + " ".join(f"{k}={v}" for k, v in sorted(fields.items())))


def _cmd_sigma(args) -> int:
    f = factorize(args.n)
    payload = {
        "n": args.n,
        "sigma_star": unitary_sigma(f),
        "sigma": sigma_from_factorization(f),
        "unitary_divisors": unitary_divisors(f),
        "divisors": divisors(f),
    }
    _emit(args, payload, [
        f"n               = {args.n}",
        f"sigma*          = {payload['sigma_star']}",
        f"sigma           = {payload['sigma']}",
        f"unitary divisors: {payload['unitary_divisors']}",
        f"all divisors    : {payload['divisors']}",
    ])
    return 0


def _cmd_factor(args) -> int:
    f = factorize(args.n)
    text = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in f.entries) or "1"
    _emit(args, {"n": args.n, "factors": [list(t) for t in f.entries]},
          [f"{args.n} = {text}"])
    return 0


def _cmd_decompose(args) -> int:
    d = decompose_2aqb(args.m)
    if d is None:
        _emit(args, {"m": args.m, "decomposition": None},
              [f"{args.m} has more than one odd prime factor"])
    else:
        _emit(args, {"m": args.m, "a": d.a, "q": d.q, "b": d.b},
              [f"{args.m} = 2^{d.a}" + (f" * {d.q}^{d.b}" if d.q else "")])
    return 0


def _cmd_zsigmondy(args) -> int:
    r = zsigmondy(args.a, args.b, args.n)
    payload = {"a": args.a, "b": args.b, "n": args.n,
               "kind": r.kind.value, "prime": r.prime}
    if r.prime is not None:
        text = f"least primitive prime divisor of {args.a}^{args.n} - {args.b}^{args.n}: {r.prime}"
    else:
        text = f"no primitive prime divisor: {r.kind.value}"
    _emit(args, payload, [text])
    return 0


def _cmd_verify_lemma(args) -> int:
    check = LEMMA_CHECKS[args.id]
    # --pmax fills p_max and so on; a flag not given leaves the check's default
    params = inspect.signature(check).parameters
    ranges = {
        f"{flag[0]}_max": getattr(args, flag)
        for flag in ("pmax", "emax", "xmax", "amax", "qmax", "bmax")
        if getattr(args, flag) is not None
    }
    unknown = [f"--{name[0]}max" for name in ranges if name not in params]
    if args.q is not None and "q" not in params:
        unknown.append("--q")
    if unknown:
        raise _UsageError(f"lemma {args.id} takes no {' '.join(unknown)}")
    if args.id == "5.1":
        qs = LEMMA_51_QS if args.q is None else (args.q,)
        reports = [check(q, **ranges) for q in qs]
    else:
        reports = [check(**ranges)]
    status = 0
    for rep in reports:
        if args.json:
            print(rep.to_json_line())
        else:
            state = "ok" if rep.ok else f"COUNTEREXAMPLES {list(rep.counterexamples)}"
            print(f"lemma {rep.lemma_id} [{rep.range_descriptor}] "
                  f"checked={rep.instances_checked} {state} ({rep.elapsed*1000:.0f} ms)")
            if rep.lemma_id == "2.5" and rep.ok:
                # lemma 2.5 checks one instance per x, so checked is x_max
                sols = lemma_25_solutions(rep.instances_checked)
                print(f"  power-of-three solutions: {sols}")
        if not rep.ok:
            status = 2
    return status


def _cmd_bounds(args) -> int:
    records = [evaluate_inequality(args.id)] if args.id else evaluate_all()
    status = 0
    for rec in records:
        if args.json:
            print(json.dumps(rec.to_dict()))
        else:
            print(f"{rec.id:<11} printed={rec.printed_value:<9} "
                  f"float={rec.computed.float_estimate:.6f} "
                  f"upper={fraction_decimal(rec.computed.upper, 8)} "
                  f"{rec.verdict.value}")
            for alt in rec.alts:
                print(f"    alt [{alt.label}]: {alt.value:.6f}")
        if rec.id in bounds_mod.CHAIN_INEQUALITY_IDS and rec.computed.upper >= 2:
            status = 2
    return status


def _cmd_qscan(args) -> int:
    entries = q_bound_scan(args.qmax)
    sat = {1: [], 2: []}
    for e in entries:
        if e.satisfies:
            sat[e.f2].append(e.q)
        if args.json:
            print(json.dumps(e.to_dict()))
        else:
            print(f"q={e.q:<4} f2={e.f2}  lhs<={fraction_decimal(e.lhs_upper, 6)}  "
                  f"{'satisfies' if e.satisfies else 'fails'}")
    if not args.json:
        print(f"# satisfying sets: f2=1 -> {sat[1]}, f2>=2 -> {sat[2]}")
    return 0


def _cmd_case13(args) -> int:
    verdict = case_13_elimination()
    if args.json:
        print(json.dumps(verdict.to_dict()))
    else:
        for s in verdict.steps:
            print(f"{'PASS' if s.ok else 'FAIL'} {s.step_id:<24} {s.statement}")
            print(f"     {s.witness}")
    return 0 if verdict.ok else 2


def _cmd_search(args) -> int:
    config = SearchConfig(
        limit=args.limit,
        classes=(args.klass.replace("-", "_"),),
        parity=args.parity,
        segment_size=args.segment_size,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        max_segments=args.max_segments,
    )
    _config_echo(args)
    result = run_search(config)
    status = 0
    for h in result.hits:
        if args.json:
            print(h.to_json_line())
        else:
            line = (f"{h.n:<12} sigma*={h.sigma_star_n:<12} "
                    f"sigma*sigma*={h.sigma_star_sigma_star_n:<12} "
                    f"{h.classification} ({h.parity})")
            print(line)
        if h.structure is not None and not h.structure.ok:
            status = 2
    if not args.json:
        state = "complete" if result.completed else (
            f"stopped at {result.segments_done}/{result.total_segments} segments")
        print(f"# {len(result.hits)} hit(s), {state}, {result.elapsed:.1f}s")
    return status


def _cmd_report(args) -> int:
    results = report_mod.run_all()
    failed = 0
    for r in results:
        if args.json:
            print(json.dumps({"criterion": r.name, "ok": r.ok, "detail": r.detail}))
        else:
            print(f"{'PASS' if r.ok else 'FAIL'}  {r.name}: {r.detail}")
        if not r.ok:
            failed += 1
    if not args.json:
        print(f"# {len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="uspkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="JSON-lines output")
        p.set_defaults(func=fn)
        return p

    p = add("sigma", _cmd_sigma, help="divisor sums and divisor lists of n")
    p.add_argument("n", type=int)

    p = add("factor", _cmd_factor, help="canonical factorization of n")
    p.add_argument("n", type=int)

    p = add("decompose", _cmd_decompose, help="write m as 2^a * q^b if possible")
    p.add_argument("m", type=int)

    p = add("zsigmondy", _cmd_zsigmondy,
            help="least primitive prime divisor of a^n - b^n")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("n", type=int)

    p = add("verify-lemma", _cmd_verify_lemma, help="scan one lemma over a range")
    p.add_argument("id", choices=sorted(LEMMA_CHECKS))
    p.add_argument("--pmax", type=int)
    p.add_argument("--emax", type=int)
    p.add_argument("--xmax", type=int)
    p.add_argument("--amax", type=int)
    p.add_argument("--qmax", type=int)
    p.add_argument("--bmax", type=int)
    p.add_argument("--q", type=int)

    p = add("bounds", _cmd_bounds, help="certified inequality records")
    p.add_argument("--id", choices=INEQUALITY_IDS)

    p = add("qscan", _cmd_qscan, help="threshold scan eliminating large q")
    p.add_argument("--qmax", type=int, default=100)

    add("case13", _cmd_case13, help="verified elimination chain for q = 13")

    p = add("search", _cmd_search, help="exhaustive perfect-variant search",
            description="Search the n up to LIMIT for one class.  The usp and "
                        "unitary-perfect searches scan the even n against a lookup "
                        "table of sigma*, which serves the n up to about 1.07 x 10^9 "
                        "(1 GiB at most).  Past it, each second application whose odd "
                        "part the table lacks is one exact factorization, about 10-11 "
                        "microseconds each at 2 x 10^9 to 10^10.  With the table capped "
                        "at 1024 entries, the usp search up to 10^7 makes 288,456 of "
                        "them and takes about 1.8 s in one process, against 0.08 s.")
    p.add_argument("klass", metavar="class",
                   choices=sorted(c.replace("_", "-") for c in CLASS_ORDER),
                   help="the class to search for: %(choices)s")
    p.add_argument("--limit", type=int, default=search_mod.DEFAULT_LIMIT,
                   help="search the n from 1 to LIMIT, with LIMIT from 1 to "
                        f"{search_mod.HARD_LIMIT} (default: %(default)s)")
    p.add_argument("--parity", choices=("all", "odd", "even"), default="all",
                   help="search only the n of this parity: %(choices)s (default: %(default)s)")
    p.add_argument("--workers", type=int, default=1,
                   help="processes to ask for, at least 1; the run uses at most "
                        "one per CPU that it may run on, each pinned to its own, "
                        "and no more than its tasks, the table chunks and sieve "
                        "blocks (default: %(default)s)")
    p.add_argument("--segment-size", type=int, default=search_mod.DEFAULT_SEGMENT_SIZE,
                   help="n per checkpointed segment, at least 1024 (default: %(default)s)")
    p.add_argument("--checkpoint",
                   help="text file that records the completed segments and their hits "
                        "(default: none)")
    p.add_argument("--resume", action="store_true",
                   help="go on from the segments that --checkpoint records, instead of "
                        "starting afresh")
    p.add_argument("--max-segments", type=int,
                   help="stop after this many more segments, at least 0 "
                        "(default: run to the limit)")

    add("report", _cmd_report,
        help="one-shot reproduction of the acceptance checks, the odd usp n to 10^8 among them")

    return parser


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread so that it stops a run the way
    Ctrl-C does: the search's pool is killed and reaped on the way out."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # a thread other than the main one sets no handler
        previous = None
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (CheckpointError, OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # a hit failed exact recomputation or a verifier contract broke
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (KeyboardInterrupt, _Terminated) as exc:
        # a search's checkpoint holds every segment merged before it; a
        # fresh run writes it, with none, before the table build
        cp = getattr(args, "checkpoint", None)
        tail = "; --resume continues from the checkpoint" if cp and os.path.exists(cp) else ""
        print(f"interrupted{tail}", file=sys.stderr)
        return 130 if isinstance(exc, KeyboardInterrupt) else 143
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
