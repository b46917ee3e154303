"""uspkit pins numpy's OpenBLAS pool to one thread before numpy loads,
unless the caller chose a thread count."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import uspkit

SRC = str(pathlib.Path(uspkit.__file__).resolve().parent.parent)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_import(module, **env):
    """(threads or None, the three variables) after `import module` in a new
    interpreter whose environment holds none of them but those in env."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    probe = (
        f"import json, os, {module}\n"
        "task = '/proc/self/task'\n"
        "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
        f"print(json.dumps([threads, {{k: os.environ.get(k) for k in {THREAD_VARS!r}}}]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(base, PYTHONPATH=SRC, **env),
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


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
