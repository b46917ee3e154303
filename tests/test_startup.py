"""uspkit pins numpy's OpenBLAS pool to one thread before numpy loads,
unless the caller chose a thread count; it loads no process-pool module,
its search pool forks from a process of one thread, and a process that may
run on one CPU, or a platform without os.fork, forks no pool.  Its lists,
bounds and lemma checks run without numpy."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import uspkit
from uspkit import search
from uspkit.search import SearchConfig, run_search

SRC = str(pathlib.Path(uspkit.__file__).resolve().parent.parent)
STDLIB_PROBE = pathlib.Path(__file__).resolve().parent / "stdlib_probe.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _probe(probe, **env):
    """The JSON that probe prints, run in a new interpreter whose environment
    holds none of the three variables but those in env; a warning is an
    error there."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", probe], env=dict(base, PYTHONPATH=SRC, **env),
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def _fresh_import(module, **env):
    """(threads or None, the three variables) after `import module`."""
    return _probe(
        f"import json, os, {module}\n"
        "task = '/proc/self/task'\n"
        "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
        f"print(json.dumps([threads, {{k: os.environ.get(k) for k in {THREAD_VARS!r}}}]))\n",
        **env,
    )


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("module", ["uspkit", "uspkit.search"])
def test_import_leaves_one_thread(module):
    threads, env = _fresh_import(module)
    assert threads == 1
    assert env["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("var", THREAD_VARS)
def test_callers_thread_count_wins(var):
    # OpenBLAS reads OPENBLAS_NUM_THREADS before the other two, so setting
    # it beside either of them would override the caller
    _, env = _fresh_import("uspkit", **{var: "2"})
    assert env == {k: "2" if k == var else None for k in THREAD_VARS}


@pytest.mark.parametrize("module", ["uspkit", "uspkit.cli"])
def test_import_loads_no_process_pool_module(module):
    # the search forks its workers itself: the stdlib's pools cost every
    # process their import time and memory
    pools = ("multiprocessing", "concurrent.futures")
    assert _probe(f"import json, sys, {module}\n"
                  f"print(json.dumps([m for m in {pools!r} if m in sys.modules]))\n") == []


def test_workers_fork_from_one_thread():
    # forking a process of several threads can deadlock the child, and
    # CPython 3.12+ warns when it happens; each fork of a two-worker search
    # sees one thread
    assert _probe(
        "import json, os, threading\n"
        "from uspkit import search\n"
        "threads, fork = [], os.fork\n"
        "os.fork = lambda: threads.append(threading.active_count()) or fork()\n"
        "search.usable_cpus = lambda: [0, 1]\n"
        "search.run_search(search.SearchConfig(limit=12 * 10**5, workers=2))\n"
        "print(json.dumps(threads))\n"
    ) == [1, 1]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_one_cpu_forks_no_pool():
    # a process restricted to one CPU runs a search that asks for two
    # workers in-process: its pool would put both on that CPU
    serial = run_search(SearchConfig(limit=12 * 10**5)).checkpoint_text
    assert _probe(
        "import json, os\n"
        "from uspkit import search\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "text = search.run_search(search.SearchConfig(limit=12 * 10**5, workers=2)).checkpoint_text\n"
        "print(json.dumps([len(forks), text]))\n"
    ) == [0, serial]


def test_no_fork_searches_in_process(monkeypatch):
    # a platform without os.fork, as Windows, runs a search that asks for
    # two workers in-process
    serial = run_search(SearchConfig(limit=12 * 10**5)).checkpoint_text
    monkeypatch.delattr(search.os, "fork")
    monkeypatch.setattr(search, "usable_cpus", lambda: [0, 1])
    assert run_search(SearchConfig(limit=12 * 10**5, workers=2)).checkpoint_text == serial


def test_no_module_loads_mpmath():
    # the exponential reference is the stdlib's decimal: uspkit runs where
    # mpmath is not installed
    assert _probe(
        "import json, sys\n"
        "from fractions import Fraction\n"
        "import uspkit, uspkit.cli, uspkit.report, uspkit.bruteforce\n"
        "uspkit.bruteforce.exp_reference(Fraction(1, 2))\n"
        "print(json.dumps('mpmath' in sys.modules))\n"
    ) is False


def test_lists_run_without_numpy():
    # uspkit.arith, uspkit.lists, uspkit.bounds and uspkit.structure need
    # the standard library alone: with numpy unimportable and
    # uspkit/__init__.py not run, the lists still give the odd usp n below
    # 2^64, the even sigma hits and the hits that a search of all four
    # classes lists; every bound certificate, the q scan, the q = 13 chain
    # and every lemma check still run; and no other uspkit module loads
    assert _probe(STDLIB_PROBE.read_text()) == {
        "odd_usp": [9, 165],
        "even_sigma": [[2, "super_perfect"], [4, "super_perfect"], [6, "perfect"],
                       [16, "super_perfect"], [28, "perfect"], [64, "super_perfect"],
                       [496, "perfect"], [4096, "super_perfect"], [8128, "perfect"]],
        "listed": [[2, "super_perfect"], [4, "super_perfect"], [6, "perfect"], [9, "usp"],
                   [16, "super_perfect"], [28, "perfect"], [64, "super_perfect"], [165, "usp"],
                   [496, "perfect"], [4096, "super_perfect"], [8128, "perfect"]],
        "verdicts": {"E31": "discrepancy_flagged", "L42": "reproduced_below_2",
                     "L43": "reproduced_below_2", "T53-first": "reproduced_below_2",
                     "T53-second": "reproduced_below_2", "T54-q7": "discrepancy_flagged",
                     "T54-q11": "reproduced_below_2"},
        "qscan": [[5, 7, 11, 13], [5, 7]],
        "case13": True,
        "lemmas": {"2.2": True, "2.3": True, "2.4": True, "2.5": True, "2.6": True,
                   "2.7": True, "5.1": True},
        "modules": ["uspkit", "uspkit.arith", "uspkit.bounds", "uspkit.lists",
                    "uspkit.structure"],
    }
