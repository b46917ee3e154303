import argparse
import hashlib
import importlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import uspkit
from uspkit import search
from uspkit.cli import build_parser, main
from uspkit.search import CLASS_ORDER, parse_checkpoint

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = str(pathlib.Path(uspkit.__file__).resolve().parent.parent)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def json_lines(text):
    return [json.loads(line) for line in text.strip().splitlines()]


def test_sigma_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "sigma", "9")
    assert code == 0
    assert "sigma*          = 10" in out
    assert "[1, 9]" in out
    code, out, _ = run_cli(capsys, "sigma", "9", "--json")
    (rec,) = json_lines(out)
    assert rec == {
        "n": 9,
        "sigma_star": 10,
        "sigma": 13,
        "unitary_divisors": [1, 9],
        "divisors": [1, 3, 9],
    }


def test_factor_and_decompose(capsys):
    code, out, _ = run_cli(capsys, "factor", "288", "--json")
    assert code == 0 and json_lines(out)[0]["factors"] == [[2, 5], [3, 2]]
    code, out, _ = run_cli(capsys, "decompose", "288", "--json")
    assert json_lines(out)[0] == {"m": 288, "a": 5, "q": 3, "b": 2}
    code, out, _ = run_cli(capsys, "decompose", "30", "--json")
    assert json_lines(out)[0]["decomposition"] is None
    # an odd part past 2^64 - 1 is refused under the name the user typed
    code, out, err = run_cli(capsys, "decompose", str(2**65 + 2))
    assert (code, out) == (1, "")
    assert err == ("error: m=36893488147419103234 has an odd part past the supported range "
                   "(2**64 - 1)\n")


def test_zsigmondy_cli(capsys):
    code, out, _ = run_cli(capsys, "zsigmondy", "2", "1", "6", "--json")
    assert code == 0 and json_lines(out)[0]["kind"] == "exception_2_1_6"
    code, out, _ = run_cli(capsys, "zsigmondy", "2", "1", "4", "--json")
    assert json_lines(out)[0]["prime"] == 5


def test_verify_lemma_cli(capsys):
    code, out, _ = run_cli(capsys, "verify-lemma", "2.5", "--xmax", "60")
    assert code == 0
    assert "power-of-three solutions: [(1, 1), (2, 3)]" in out
    code, out, _ = run_cli(capsys, "verify-lemma", "2.2", "--pmax", "100", "--json")
    assert code == 0
    rec = json_lines(out)[0]
    assert rec["lemma_id"] == "2.2" and rec["counterexamples"] == []
    code, out, _ = run_cli(capsys, "verify-lemma", "5.1", "--json")
    assert code == 0 and len(json_lines(out)) == 4


def test_verify_lemma_refuses_bounds_below_one(capsys):
    # a bound below 1 leaves nothing to scan: refused, never reported ok
    for argv in (("2.5", "--xmax", "-1"), ("2.5", "--xmax", "0"), ("2.2", "--pmax", "-5"),
                 ("2.3", "--emax", "0"), ("2.4", "--pmax", "0"), ("2.6", "--amax", "-3"),
                 ("2.7", "--qmax", "0"), ("2.7", "--bmax", "-2"), ("5.1", "--bmax", "0"),
                 ("5.1", "--q", "7", "--bmax", "-1")):
        code, out, err = run_cli(capsys, "verify-lemma", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "must be >= 1" in err
    # so does a prime bound that leaves no odd prime in range
    for argv in (("2.2", "--pmax", "2"), ("2.2", "--pmax", "1"), ("2.3", "--pmax", "1"),
                 ("2.4", "--pmax", "1"), ("2.7", "--qmax", "1"), ("2.7", "--qmax", "2")):
        code, out, err = run_cli(capsys, "verify-lemma", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "leaves no odd prime in range" in err


def test_verify_lemma_refuses_flags_it_does_not_take(capsys):
    # a range flag the lemma's check does not take, or --q beside any lemma
    # but 5.1, is a usage error, not a scan of the default range
    for argv in (("2.5", "--pmax", "10"), ("2.4", "--q", "7"), ("2.2", "--xmax", "5"),
                 ("2.7", "--qmax", "5", "--q", "7")):
        code, out, err = run_cli(capsys, "verify-lemma", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and "takes no" in err


def test_unallocatable_bound_exits_1(capsys):
    # a prime sieve to 10**18 cannot be allocated (no 64-bit Linux maps 10**18
    # bytes, so nothing is): an error line and exit 1, not a traceback
    for argv in (("verify-lemma", "2.4", "--pmax", str(10**18)),
                 ("qscan", "--qmax", str(10**18))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


def test_out_of_range_power_refused_before_it_is_computed(capsys):
    # 3**(10**7), 2**(10**7) and 2**64 + 1 are never computed: the exponent
    # alone puts them past 2**64 - 1, so each exits 1 at once
    for argv in (("zsigmondy", "3", "1", str(10**7)),
                 ("verify-lemma", "2.6", "--amax", str(10**7)),
                 ("verify-lemma", "2.5", "--xmax", "64")):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    # 2**63 + 1 is still in range
    code, out, _ = run_cli(capsys, "verify-lemma", "2.5", "--xmax", "63")
    assert code == 0 and "x<=63] checked=63 ok" in out


def test_verify_lemma_51_large_b(capsys):
    code, out, _ = run_cli(capsys, "verify-lemma", "5.1", "--q", "7", "--bmax", "100000",
                           "--json")
    (rec,) = json_lines(out)
    assert code == 0 and rec["checked"] == 100000 and rec["counterexamples"] == []


def test_bounds_cli(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--json")
    assert code == 0
    recs = json_lines(out)
    assert {r["id"] for r in recs} == {
        "E31", "L42", "L43", "T53-first", "T53-second", "T54-q7", "T54-q11"
    }
    for r in recs:
        assert float(r["upper"]) < 2
        assert "/" in r["upper_fraction"]
    code, out, _ = run_cli(capsys, "bounds", "--id", "L42", "--json")
    (rec,) = json_lines(out)
    assert rec["verdict"] == "reproduced_below_2"


def test_qscan_cli(capsys):
    code, out, _ = run_cli(capsys, "qscan", "--qmax", "30")
    assert code == 0
    assert "f2=1 -> [5, 7, 11, 13]" in out
    assert "f2>=2 -> [5, 7]" in out
    code, out, _ = run_cli(capsys, "qscan", "--qmax", "30", "--json")
    recs = json_lines(out)
    assert {r["q"] for r in recs if r["satisfies"] and r["f2"] == 1} == {5, 7, 11, 13}


def test_case13_cli(capsys):
    code, out, _ = run_cli(capsys, "case13")
    assert code == 0
    assert "FAIL" not in out
    code, out, _ = run_cli(capsys, "case13", "--json")
    assert json_lines(out)[0]["ok"] is True


def test_search_cli_text(capsys):
    code, out, _ = run_cli(capsys, "search", "usp", "--limit", "300")
    assert code == 0
    assert "# config:" in out
    for n in (2, 9, 165, 238):
        assert f"\n{n} " in "\n" + out
    assert "4 hit(s), complete" in out
    code, out, _ = run_cli(capsys, "search", "unitary-perfect", "--limit", "100")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:-1]] == ["6", "60", "90"]


@pytest.mark.parametrize("argv, lines, digest", [
    (["qscan", "--qmax", "10000", "--json"], 2454,
     "9ba688f168879caf4d8adceb1141e78dbf130bb761d29650719e4d3a3c3a996b"),
    (["qscan", "--qmax", "10000"], 2455,
     "573ac9e214ade7bb4442d61765aaa95388106296c3bb8a20c709d59228cdaa26"),
    (["bounds"], 12, "d1781ca606bc2d82b218b2d58e60b8a6b80078584f68b581dcc0ffe8860e1335"),
    (["bounds", "--json"], 7, "cdedb1099ec4b178859ef20a71ebd2f2f37456a6cdbf01d92f73fc52ad1ee6d3"),
    (["case13"], 18, "324d0bea1d49521ef71af02d06f1d346bf9e9355586fd1ea9fbdc6f840aed3d4"),
    (["case13", "--json"], 1, "288422c84bcd410cbd05f11e47d3bc12a9607c75be92a17cfd8775e9ce145bd2"),
], ids=["qscan-1e4-json", "qscan-1e4-text", "bounds-text", "bounds-json", "case13-text",
        "case13-json"])
def test_cli_golden(capsys, argv, lines, digest):
    # the q-scan verdicts are integer comparisons and its printed ceilings
    # are computed per entry on demand; a certificate is its enclosure and
    # float; none of these moves a byte of the output
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_cli_json_lines(capsys):
    code, out, _ = run_cli(capsys, "search", "usp", "--limit", "300", "--json")
    assert code == 0
    recs = json_lines(out)
    assert "config" in recs[0]
    hits = [r for r in recs if "n" in r]
    assert [h["n"] for h in hits] == [2, 9, 165, 238]
    odd = [h for h in hits if h["parity"] == "odd"]
    assert all(h["structure"]["ok"] for h in odd)


def test_search_cli_checkpoint_resume(tmp_path, capsys):
    cp = str(tmp_path / "cp.txt")
    code, _, _ = run_cli(
        capsys, "search", "usp", "--limit", "10000", "--segment-size", "2048",
        "--checkpoint", cp, "--max-segments", "2",
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "search", "usp", "--limit", "10000", "--segment-size", "2048",
        "--checkpoint", cp, "--resume",
    )
    assert code == 0 and "complete" in out


def test_interrupted_search_exits_130_and_resumes(tmp_path, capsys, monkeypatch):
    # Ctrl-C during a scan block ends the run with one stderr line and exit
    # 130.  A fresh run writes its checkpoint before the table build, so even
    # the first block leaves one to resume from; in the second block it holds
    # the first block's segments, and --resume ends with the bytes of an
    # uninterrupted run
    cp = tmp_path / "cp.txt"
    argv = ["search", "usp", "--limit", "1000000", "--segment-size", "65536",
            "--checkpoint", str(cp)]
    assert run_cli(capsys, *argv)[0] == 0
    whole = cp.read_bytes()
    cp.unlink()
    classify, blocks = search._classify_segment, []

    def interrupt(block):
        blocks.append(block)
        if len(blocks) == stop:
            raise KeyboardInterrupt
        return classify(block)

    monkeypatch.setattr(search, "_classify_segment", interrupt)
    for stop in (1, 2):
        blocks.clear()
        try:
            code, _, err = run_cli(capsys, *argv)
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")
        assert (code, err) == (130, "interrupted; --resume continues from the checkpoint\n")
        _, _, segments = parse_checkpoint(cp.read_text())
        assert len(segments) == 0 if stop == 1 else 0 < len(segments) < 16
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, *argv, "--resume")
    assert code == 0 and "complete" in out
    assert cp.read_bytes() == whole


def test_interrupt_while_the_workers_fill_the_table(tmp_path, capsys, monkeypatch):
    # Ctrl-C while the parent lists and a 2-worker pool fills the table: one
    # stderr line, exit 130, the fresh checkpoint left to resume from, and
    # no child left, running or unreaped
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(search, "listed", interrupt)
    monkeypatch.setattr(search, "usable_cpus", lambda: [0, 1])
    cp = tmp_path / "cp.txt"
    code, _, err = run_cli(capsys, "search", "usp", "--limit", "1200000", "--workers", "2",
                           "--checkpoint", str(cp))
    assert (code, err) == (130, "interrupted; --resume continues from the checkpoint\n")
    assert parse_checkpoint(cp.read_text())[2] == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sigterm_exits_143_and_resumes(tmp_path, capsys):
    # SIGTERM, here from a worker during the second block of a 2-worker run
    # in a new interpreter, stops the run as Ctrl-C does: one stderr line,
    # exit 143 and every worker reaped; the checkpoint parses, and --resume
    # ends with the bytes of an uninterrupted run
    cp = tmp_path / "cp.txt"
    argv = ["search", "usp", "--limit", "1000000", "--segment-size", "65536",
            "--checkpoint", str(cp)]
    assert run_cli(capsys, *argv)[0] == 0
    whole = cp.read_bytes()
    cp.unlink()
    second = search._blocks(("usp",), "all", 1, 1000001)[1]
    probe = (
        "import os, signal, sys\n"
        "from uspkit import cli, search\n"
        "parent, classify = os.getpid(), search._classify_segment\n"
        "def terminate(block):\n"
        f"    if os.getpid() != parent and block == {tuple(second)}:\n"
        "        os.kill(parent, signal.SIGTERM)\n"
        "    return classify(block)\n"
        "search._classify_segment = terminate\n"
        "search.usable_cpus = lambda: [0, 1]\n"
        f"code = cli.main({argv + ['--workers', '2']!r})\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    print('child left')\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n"
        "sys.exit(code)\n"
    )
    run = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 143
    assert run.stderr == "interrupted; --resume continues from the checkpoint\n"
    assert run.stdout.splitlines()[-1] == "no child left"
    parse_checkpoint(cp.read_text())
    code, out, _ = run_cli(capsys, *argv, "--resume")
    assert code == 0 and "complete" in out
    assert cp.read_bytes() == whole


@pytest.mark.parametrize(
    "written, resumed",
    [
        (("usp", "even"), ("perfect", "odd")),  # hits of another class and parity
        (("usp", "even"), ("usp", "odd")),  # hits of the excluded parity
        (("usp", "even"), ("usp", "all")),  # lacks the odd usp 9 and 165
        (("perfect", "odd"), ("perfect", "all")),  # lacks 6, 28, 496 and 8128
    ],
    ids=["other-class-and-parity", "other-parity", "lacks-odd-usp", "lacks-even-perfect"],
)
def test_resume_refuses_checkpoint_of_another_search(tmp_path, capsys, written, resumed):
    # the header records only the limit and the segment size, so the hits
    # must fit the resumed search's classes and parity; exit 1, and the
    # checkpoint is left as it was
    cp = tmp_path / "cp.txt"
    size = ["--limit", "100000", "--segment-size", "16384", "--checkpoint", str(cp)]
    klass, parity = written
    code, _, _ = run_cli(capsys, "search", klass, "--parity", parity, *size,
                         "--max-segments", "3")
    assert code == 0
    text = cp.read_text()
    klass, parity = resumed
    code, out, err = run_cli(capsys, "search", klass, "--parity", parity, *size, "--resume")
    assert code == 1
    assert err.startswith("error: checkpoint ")
    assert cp.read_text() == text


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "nosuchcmd")[0] == 1
    assert run_cli(capsys, "sigma", "notanint")[0] == 1
    assert run_cli(capsys, "search", "usp", "--limit", "0")[0] == 1
    assert run_cli(capsys, "search", "usp", "--limit", "10000", "--segment-size", "2048",
                   "--max-segments", "-1")[0] == 1
    assert run_cli(capsys, "verify-lemma", "9.9")[0] == 1
    # report has one scale and runs no pool of its own
    for argv in (["--full"], ["--workers", "2"]):
        code, _, err = run_cli(capsys, "report", *argv)
        assert code == 1 and err.startswith("usage error: unrecognized arguments: ")


def test_io_errors_exit_1(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "search", "usp", "--limit", "300", "--resume",
        "--checkpoint", str(tmp_path / "missing.txt"),
    )
    assert code == 1
    assert "error" in err


def test_failed_checkpoint_write_leaves_no_temp_file(tmp_path, capsys):
    # the checkpoint path is a directory, so replacing it fails after the
    # temp file is written: exit 1 with an error line, and no .tmp left over
    target = tmp_path / "cp"
    target.mkdir()
    code, out, err = run_cli(capsys, "search", "usp", "--limit", "100",
                             "--checkpoint", str(target))
    assert code == 1
    assert err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cp"]


def test_search_help_explains_every_argument(capsys):
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert all(action.help for action in sub.choices["search"]._actions)
    with pytest.raises(SystemExit) as exc:
        main(["search", "--help"])
    assert exc.value.code == 0
    classes = ", ".join(sorted(c.replace("_", "-") for c in CLASS_ORDER))
    assert f"the class to search for: {classes}" in " ".join(capsys.readouterr().out.split())


def test_console_scripts_resolve():
    # the installed `uspkit` command calls this entry point, so renaming it
    # must fail here and not only in an installed copy
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for name in attr.split("."):
            obj = getattr(obj, name)
        assert callable(obj)
