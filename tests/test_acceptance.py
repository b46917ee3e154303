"""Acceptance suite: one test per entry of ``report.CRITERIA``, each held to
the entry's time budget, printing one PASS line on success (visible with
pytest -rA/-s).  ``uspkit report`` runs the same entries.

Every entry runs once per session, and both its own test and the ``report``
CLI test read that run.  The headline odd search to 10^8 also runs through
the ``search`` CLI here; everything else is seconds.
"""

import json
import os
import time

import pytest

from uspkit import cli, report, search
from uspkit.report import CRITERIA, Criterion

WORKERS = 2  # this container exposes two cores

_BY_NAME = {c.name: c for c in CRITERIA}


@pytest.fixture(scope="session")
def runs():
    """Each CRITERIA entry run for real once: name -> (result, seconds)."""
    timed = {}
    for criterion in CRITERIA:
        t0 = time.perf_counter()
        result = criterion.run()
        timed[criterion.name] = (result, time.perf_counter() - t0)
    return timed


def _passes(runs, name):
    criterion = _BY_NAME[name]
    result, elapsed = runs[name]
    assert result.ok, result.detail
    if criterion.budget_s is not None:
        assert elapsed < criterion.budget_s, f"took {elapsed:.2f}s, budget {criterion.budget_s}s"
    print(f"PASS  {name}: {result.detail}")


def test_criterion_1_headline_reproduction(runs, capsys):
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
    assert runs["headline-odd-search"][0].detail == "odd hits <= 100000000: [9, 165]"
    with capsys.disabled():
        # the same odd set, through report's entry and within its 1-s budget
        _passes(runs, "headline-odd-search")


def test_criterion_2_first_hits_table(runs):
    _passes(runs, "first-hits")


def test_criterion_3_oracle_equivalence(runs):
    _passes(runs, "oracle-classification")


def test_criterion_4_lemma_suite(runs):
    _passes(runs, "lemma-suite")


def test_criterion_5_zsigmondy_oracle(runs):
    _passes(runs, "zsigmondy-oracle")


def test_criterion_6_bound_certificates(runs):
    _passes(runs, "bound-certificates")


def test_criterion_7_q_elimination_scan(runs):
    _passes(runs, "q-elimination-scan")


def test_criterion_8_case_13_elimination(runs):
    _passes(runs, "case-13-chain")


def test_criterion_9_determinism(runs):
    _passes(runs, "determinism")


@pytest.mark.parametrize("cpus, workers", [(None, 1), (1, 1), (2, 2), (8, 2)])
def test_determinism_names_the_workers_that_ran(monkeypatch, cpus, workers):
    # the search caps its pool at its usable CPUs and at its tasks, two here;
    # the detail names the pool that the compared run started, and the resumed
    # run, which still has two blocks, starts the same pool.  Without an
    # affinity mask the usable CPUs are those that os.cpu_count() counts
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    pools = []
    ordered_map = search._ordered_map
    monkeypatch.setattr(search, "_ordered_map",
                        lambda processes: pools.append(processes) or ordered_map(processes))
    ok, detail = report._determinism()
    assert ok
    assert detail == f"1 vs {workers} workers and interrupt/resume produce identical bytes"
    assert pools == [1, workers, 1, workers]


def test_criterion_10_property_suites(runs):
    _passes(runs, "property-suites")


def test_report_cli_exit_code(runs, monkeypatch, capsys):
    # `report` exits 0 exactly when the criteria above pass; its entries
    # return the session's results rather than running a second time
    replayed = [
        Criterion(c.name, lambda r=runs[c.name][0]: (r.ok, r.detail)) for c in CRITERIA
    ]
    monkeypatch.setattr(report, "CRITERIA", tuple(replayed))
    code = cli.main(["report"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == len(CRITERIA) == 10
    with capsys.disabled():
        print("PASS  report-cli: 10/10 criteria, exit 0")


def test_report_cli_exit_2_on_failure(monkeypatch, capsys):
    # the other entries are stubbed to pass so that only the failure path runs
    stubs = [Criterion(c.name, lambda: (True, "stub")) for c in CRITERIA]
    stubs[5] = Criterion(CRITERIA[5].name, lambda: (False, "forced failure"))
    monkeypatch.setattr(report, "CRITERIA", tuple(stubs))
    code = cli.main(["report"])
    out = capsys.readouterr().out
    assert code == 2
    assert f"FAIL  {CRITERIA[5].name}: forced failure" in out
    assert "# 9/10 criteria passed" in out
