import json
import time

import pytest

from uspkit.cli import main


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
    # 3**(10**7) and 2**(10**7) are never computed: the exponent alone puts
    # them past 2**64 - 1, so both exit 1 at once
    for argv in (("zsigmondy", "3", "1", str(10**7)),
                 ("verify-lemma", "2.6", "--amax", str(10**7))):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 0.5
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


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
