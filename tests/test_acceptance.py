"""Acceptance suite: one test per entry of ``report.CRITERIA``, each held to
the entry's time budget, printing one PASS line on success (visible with
pytest -rA/-s).  ``uspkit report`` runs the same entries.

The headline search also runs at its full scale of 10^8 here, through the
CLI; everything else is seconds.
"""

import json
import time

from uspkit import cli, report
from uspkit.report import CRITERIA, Criterion

WORKERS = 2  # this container exposes two cores

_BY_NAME = {c.name: c for c in CRITERIA}


def _passes(name):
    criterion = _BY_NAME[name]
    t0 = time.perf_counter()
    result = criterion.run(workers=WORKERS)
    elapsed = time.perf_counter() - t0
    assert result.ok, result.detail
    if criterion.budget_s is not None:
        assert elapsed < criterion.budget_s, f"took {elapsed:.2f}s, budget {criterion.budget_s}s"
    print(f"PASS  {name}: {result.detail}")


def test_criterion_1_headline_reproduction(capsys):
    # full-scale odd search through the public CLI surface
    code = cli.main(
        ["search", "usp", "--limit", "100000000", "--parity", "odd",
         "--workers", str(WORKERS), "--json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    hits = [json.loads(l) for l in out.strip().splitlines() if '"n"' in l]
    assert [h["n"] for h in hits] == [9, 165]
    assert all(h["structure"]["ok"] for h in hits)
    with capsys.disabled():
        # CI scale: the same odd set below 10^6, even prefix {2, 238} below 10^3
        _passes("headline-odd-search")


def test_criterion_2_first_hits_table():
    _passes("first-hits")


def test_criterion_3_oracle_equivalence():
    _passes("oracle-classification")


def test_criterion_4_lemma_suite():
    _passes("lemma-suite")


def test_criterion_5_zsigmondy_oracle():
    _passes("zsigmondy-oracle")


def test_criterion_6_bound_certificates():
    _passes("bound-certificates")


def test_criterion_7_q_elimination_scan():
    _passes("q-elimination-scan")


def test_criterion_8_case_13_elimination():
    _passes("case-13-chain")


def test_criterion_9_determinism():
    _passes("determinism")


def test_criterion_10_property_suites():
    _passes("property-suites")


def test_report_cli_exit_code(capsys):
    # `report` exits 0 exactly when the criteria above pass (fast scale)
    code = cli.main(["report", "--workers", str(WORKERS)])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == len(CRITERIA) == 10
    with capsys.disabled():
        print("PASS  report-cli: 10/10 criteria, exit 0")


def test_report_cli_exit_2_on_failure(monkeypatch, capsys):
    # the other entries are stubbed to pass so that only the failure path runs
    stubs = [Criterion(c.name, lambda full, workers: (True, "stub")) for c in CRITERIA]
    stubs[5] = Criterion(CRITERIA[5].name, lambda full, workers: (False, "forced failure"))
    monkeypatch.setattr(report, "CRITERIA", tuple(stubs))
    code = cli.main(["report"])
    out = capsys.readouterr().out
    assert code == 2
    assert f"FAIL  {CRITERIA[5].name}: forced failure" in out
    assert "# 9/10 criteria passed" in out
