import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kmlift
from kmlift import charsums
from kmlift.cli import main
from kmlift.exactalg import CycloNum

# The CLI runs in tmp_path, where a relative PYTHONPATH (the "src" of the
# tier-1 command) points nowhere; putting the absolute directory of the
# imported kmlift first makes the child run the same kmlift as the suite.
_KMLIFT_ROOT = str(Path(kmlift.__file__).resolve().parent.parent)


def _run(args, cwd, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_KMLIFT_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "kmlift.cli"] + args,
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=timeout)


def _assert_error(argv, tmp_path, capsys, *words):
    assert main(["--out", str(tmp_path)] + argv) == 2, argv
    err = capsys.readouterr().err
    assert err.startswith("error: "), (argv, err)
    assert all(w in err for w in words), (argv, err)
    assert not any(tmp_path.iterdir()), argv


def test_cli_prop510_pass(tmp_path):
    r = _run(["--out", str(tmp_path), "charsum", "--identity", "prop5.10",
              "--primes", "5", "7"], cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    data = json.load(open(tmp_path / "charsum-prop5.10.json"))
    assert data["passed"] is True
    assert (tmp_path / "charsum-prop5.10.txt").exists()
    assert (tmp_path / "charsum-prop5.10.manifest.json").exists()


def test_cli_malformed_descriptor(tmp_path):
    r = _run(["--out", str(tmp_path), "jacobi", "--chi", "bogus"],
             cwd=str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert "malformed character descriptor" in r.stderr


def test_cli_budget_refusal(tmp_path):
    # the --budget check, the Siegel oracle cap and the density cap all
    # refuse with the computed cost and exit 2
    for args in (["--budget", "10", "charsum", "--identity", "lemma5.3",
                  "--primes", "11"],
                 ["--budget", "10", "jacobi", "--chi", "7:1", "--m", "3",
                  "--mode", "brute"],
                 ["local", "siegel", "--mode", "oracle", "--p", "3",
                  "--gram", "2 0 0 0;0 2 0 0;0 0 2 0;0 0 0 18"],
                 ["local", "density", "--mode", "brute", "--p", "7",
                  "--gram", "2 0 0 0;0 2 0 0;0 0 2 0;0 0 0 14"]):
        r = _run(["--out", str(tmp_path)] + args, cwd=str(tmp_path))
        assert r.returncode == 2, (args, r.stderr)
        assert r.stderr.startswith("refused: "), (args, r.stderr)
        assert "exceeds budget" in r.stderr, (args, r.stderr)


def test_cli_budget_is_scoped_to_the_command(tmp_path, capsys):
    # budget_limit restores the previous limit on a normal exit and when
    # BudgetExceeded leaves the block, so a refused command leaves later
    # library calls in the process on the default
    A = [[1, 2, 0], [2, 0, 1], [0, 1, 3]]
    with charsums.budget_limit(10):
        with charsums.budget_limit(20):
            assert charsums._budget == 20
        assert charsums._budget == 10
        with pytest.raises(charsums.BudgetExceeded) as exc:
            with charsums.budget_limit(30):
                charsums.sym_dettarget_trace_counts(A, 5, 1)
        assert (exc.value.cost, exc.value.budget) == (5 ** 6, 30)
        assert charsums._budget == 10
    assert charsums._budget == charsums.DEFAULT_BUDGET
    charsums._sym_dt_table.cache_clear()    # a cache hit is not charged
    assert main(["--out", str(tmp_path), "--budget", "10", "jacobi",
                 "--chi", "7:1", "--m", "3", "--mode", "brute"]) == 2
    assert "exceeds budget 10" in capsys.readouterr().err
    # 5^6 cells, over the 10 of the refused command
    assert charsums.sym_dettarget_trace_counts(A, 5, 1).sum() > 0


def test_cli_local_density(tmp_path):
    r = _run(["--out", str(tmp_path), "local", "density",
              "--gram", "2 1;1 2", "--p", "3"], cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    data = json.load(open(tmp_path / "local-density.json"))
    assert data["alpha"] == "6/1"


def test_cli_local_siegel_default_mode_is_stratified(tmp_path):
    # without --mode, siegel takes the stratified route (density keeps closed)
    args = ["local", "siegel", "--gram", "2 0;0 18", "--p", "3"]
    reports = []
    for extra in ([], ["--mode", "stratified"]):
        out = tmp_path / str(len(extra))
        assert main(["--out", str(out)] + args + extra) == 0
        reports.append((out / "local-siegel.json").read_bytes())
    assert reports[0] == reports[1]
    assert main(["--out", str(tmp_path), "local", "density"]) == 0
    assert json.load(open(tmp_path / "local-density.json"))["mode"] == "closed"


def test_cli_local_pseries_refuses_mode(tmp_path, capsys):
    # pseries always compares the brute and the closed series, so an explicit
    # --mode is refused rather than ignored; without it the run passes
    args = ["local", "pseries", "--n", "2", "--p", "3", "--prec", "4"]
    for mode in ("bogus", "brute"):
        assert main(["--out", str(tmp_path)] + args + ["--mode", mode]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--mode" in err
        assert not (tmp_path / "local-pseries.json").exists()
    assert main(["--out", str(tmp_path)] + args) == 0
    assert json.load(open(tmp_path / "local-pseries.json"))[
        "brute_equals_closed"] is True


def test_cli_refuses_arguments_that_check_nothing(tmp_path, capsys):
    # pseries --prec 0 compared two empty series and reported PASS; jacobi
    # --m -1 and lemma5.1 --m 0 stopped in numpy with its own message
    for argv, flag in ((["local", "pseries", "--prec", "0"], "--prec"),
                       (["local", "pseries", "--prec", "-2"], "--prec"),
                       (["jacobi", "--chi", "7:1", "--m", "-1"], "--m"),
                       (["charsum", "--identity", "lemma5.1", "--m", "0"],
                        "--m"),
                       (["charsum", "--identity", "lemma5.1", "--m", "-3"],
                        "--m")):
        _assert_error(argv, tmp_path, capsys, flag, "at least")
    # J_0 = 1 is a valid Jacobi sum
    assert main(["--out", str(tmp_path), "jacobi", "--chi", "7:1",
                 "--m", "0"]) == 0
    assert json.load(open(tmp_path / "jacobi.json"))["value"] == \
        CycloNum.one().serialize()


def test_cli_local_refuses_nonprime_p(tmp_path, capsys):
    # --p 1 used to loop forever in the p-adic valuation, so it runs in a
    # child with a timeout: a regression fails instead of hanging the suite
    for what in ("density", "siegel"):
        r = _run(["--out", str(tmp_path), "local", what, "--p", "1"],
                 cwd=str(tmp_path), timeout=60)
        assert r.returncode == 2, (what, r.stderr)
        assert r.stderr.startswith("error: ") and "prime" in r.stderr
    # 0 divided by zero; 9 and 4 gave a wrong PASS or a traceback
    for what, p in (("density", 0), ("density", 9), ("siegel", 4),
                    ("pseries", 4), ("pseries", -3)):
        _assert_error(["local", what, "--p", str(p)], tmp_path, capsys,
                      "--p", "prime")


def test_cli_local_pseries_refuses_n(tmp_path, capsys):
    # --n 0 stopped in a ZeroDivisionError traceback and --n -2 in a
    # TypeError; the genus series is defined for even n >= 2
    for n in ("0", "-2", "3"):
        _assert_error(["local", "pseries", "--n", n, "--p", "3"], tmp_path,
                      capsys, "even integer")


CHARSUM_PRIMES_READERS = ("lemma5.1", "lemma5.3", "prop5.4", "prop5.7",
                          "prop5.8", "thm5.9", "prop5.10")


def test_cli_charsum_refuses_primes_that_are_not_odd_primes(
        tmp_path, monkeypatch, capsys):
    # the closed forms are for odd p: lemma5.1 --primes 2 reported FAIL on
    # 164 of 200 points and lemma5.3 --primes 2 stopped in a StopIteration
    # traceback; each entry is checked before any suite runs
    calls = []
    for suite in set(CHARSUM_SUITES.values()):
        monkeypatch.setattr(charsums, suite,
                            lambda *a, **k: calls.append(a) or _StubReport(""))
    for identity in CHARSUM_PRIMES_READERS:
        for p in ("2", "9"):
            _assert_error(["charsum", "--identity", identity,
                           "--primes", "5", p], tmp_path, capsys,
                          "--primes", "odd prime")
    assert calls == []


def test_cli_charsum_says_when_nothing_was_compared(tmp_path):
    # mod 3 no character has a nontrivial square, so these suites compare
    # no point; their notes used to claim agreement over those zero points
    for identity in ("prop5.4", "prop5.7"):
        assert main(["--out", str(tmp_path), "charsum", "--identity",
                     identity, "--primes", "3"]) == 1
        data = json.load(open(tmp_path / f"charsum-{identity}.json"))
        assert (data["total"], data["passed"]) == (0, False)
        assert data["variant_notes"] == ["no point was compared"]
    # lemma5.3 skips its scaling check mod 3 instead of stopping in next()
    assert main(["--out", str(tmp_path), "charsum", "--identity",
                 "lemma5.3", "--primes", "3"]) == 0
    assert json.load(open(tmp_path / "charsum-lemma5.3.json"))["total"] > 0


def test_cli_refuses_malformed_gram(tmp_path, capsys):
    for argv in (["local", "density", "--gram", "2 1;1"],
                 ["local", "density", "--gram", ""],
                 ["local", "siegel", "--gram", "2 1 0;1 2 0"],
                 ["forms", "aut", "--gram", "2 1;1"]):
        _assert_error(argv, tmp_path, capsys, "--gram", "square")


def test_cli_forms_aut_refuses_N_below_1(tmp_path, capsys):
    for N in ("-3", "0"):
        _assert_error(["forms", "aut", "--N", N], tmp_path, capsys, "--N")
    assert main(["--out", str(tmp_path), "forms", "aut", "--N", "3"]) == 0
    assert json.load(open(tmp_path / "forms-aut.json"))["e"] == 1


def test_cli_forms_enumerate(tmp_path):
    from kmlift.quadforms import enumerate_classes
    assert main(["--out", str(tmp_path), "forms", "enumerate", "--n", "4",
                 "--det-bound", "16"]) == 0
    data = json.load(open(tmp_path / "forms-enumerate.json"))
    want = enumerate_classes(4, 16).to_dict()["classes"]
    assert len(want) == 9 and data["classes"] == want


def test_cli_firstkind_refuses_imprimitive_chi(tmp_path, capsys):
    # the closed h(A, chi) of Theorems 5.5/5.6 takes chi primitive; 5:0 is
    # the trivial character mod 5, so no report is written
    assert main(["--out", str(tmp_path), "firstkind", "--chi", "5:0",
                 "--det-bound", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "primitive" in err
    assert not (tmp_path / "firstkind.json").exists()


@pytest.mark.parametrize("argv", [
    ["lift", "coeffs", "--det-bound", "-5"],
    ["kmverify", "--det-bound", "3"],
    ["firstkind", "--chi", "7:2", "--det-bound", "3"]])
def test_cli_refuses_a_det_bound_without_classes(argv, tmp_path, capsys):
    # the smallest det(2T) at n = 4 is 4 (D_4): below it every compared sum
    # is empty, which used to report PASS
    _assert_error(argv, tmp_path, capsys, "--det-bound", "no class")


def test_cli_report_determinism(tmp_path):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        r = _run(["--out", str(d), "lseries", "cohen", "--l", "2",
                  "--prec", "40"], cwd=str(tmp_path))
        assert r.returncode == 0, r.stderr
        outs.append((d / "lseries-cohen.json").read_bytes())
    assert outs[0] == outs[1]


CHARSUM_SUITES = {
    "lemma5.1": "run_lemma51_suite", "prop5.2": "run_prop52_suite",
    "lemma5.3": "run_lemma53_suite", "prop5.4": "run_prop54_suite",
    "prop5.7": "run_prop57_58_thm59_suite",
    "prop5.8": "run_prop57_58_thm59_suite",
    "thm5.9": "run_prop57_58_thm59_suite",
    "prop5.10": "run_prop510_suite",
    "thm5.5": "run_thm55_56_suite", "thm5.6": "run_thm55_56_suite",
}


class _StubReport:
    passed = True

    def __init__(self, suite):
        self.suite = suite

    def to_dict(self):
        return {"suite": self.suite}


@pytest.mark.parametrize("identity", sorted(CHARSUM_SUITES))
def test_cli_charsum_dispatch(identity, tmp_path, monkeypatch, capsys):
    calls = []
    for suite in set(CHARSUM_SUITES.values()):
        def stub(*args, _suite=suite, **kwargs):
            calls.append(_suite)
            return _StubReport(_suite)
        monkeypatch.setattr(charsums, suite, stub)
    assert main(["--out", str(tmp_path), "charsum",
                 "--identity", identity]) == 0
    assert calls == [CHARSUM_SUITES[identity]]
    data = json.load(open(tmp_path / f"charsum-{identity}.json"))
    assert data == {"suite": CHARSUM_SUITES[identity]}
    assert f"charsum-{identity}: PASS" in capsys.readouterr().out


def test_cli_charsum_unknown_identity_lists_all(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "charsum",
                 "--identity", "prop9.9"]) == 2
    err = capsys.readouterr().err
    assert "unknown identity 'prop9.9'" in err
    assert str(sorted(CHARSUM_SUITES)) in err


def test_cli_firstkind_reports_skipped_thm61(tmp_path, monkeypatch, capsys):
    # a failing Thm 4.1 fit leaves no (c_n, d_n): the report says that
    # Thm 6.1 was not checked, and the run fails
    import kmlift.liftkm as lk
    from kmlift.liftkm import FitReport
    monkeypatch.setattr(lk, "verify_thm41", lambda *a, **k: FitReport(
        "thm4.1", {}, [{"D": 5, "lhs": "1", "rhs": "2"}]))
    assert main(["--out", str(tmp_path), "firstkind", "--n", "4", "--k", "8",
                 "--chi", "7:2", "--det-bound", "16", "--with-thm41"]) == 1
    data = json.load(open(tmp_path / "firstkind.json"))
    assert data["passed"] is False and data["residuals"] == []
    assert "Thm 6.1 was not checked" in data["notes"][-1]
    assert "c_{n,N}" not in data["constants"]
    assert "firstkind: FAIL" in capsys.readouterr().out


def test_cli_charsum_refuses_unread_arguments(tmp_path, monkeypatch, capsys):
    # --primes, --m and --pairs are refused by the suites that never read
    # them; the suites that do read them get the usual defaults
    for identity, arg in (("thm5.5", "--primes"), ("thm5.6", "--primes"),
                          ("prop5.2", "--primes"), ("prop5.2", "--m"),
                          ("thm5.6", "--pairs"), ("prop5.10", "--m"),
                          ("lemma5.3", "--pairs")):
        _assert_error(["charsum", "--identity", identity, arg, "9"],
                      tmp_path, capsys, identity, arg)
    calls = []
    monkeypatch.setattr(charsums, "run_lemma51_suite",
                        lambda *a: calls.append(a) or _StubReport("lemma5.1"))
    assert main(["--out", str(tmp_path), "charsum",
                 "--identity", "lemma5.1"]) == 0
    assert calls == [((5, 7, 11, 13), 4, 200, 11)]


def test_cli_refuses_unread_seed(tmp_path, monkeypatch, capsys):
    # only charsum lemma5.1 reads the global --seed; every other command used
    # to accept it and ignore it
    for argv in (["charsum", "--identity", "prop5.10"],
                 ["charsum", "--identity", "thm5.5"],
                 ["lseries", "cohen"],
                 ["local", "density"],
                 ["forms", "enumerate", "--n", "2", "--det-bound", "4"]):
        _assert_error(["--seed", "99"] + argv, tmp_path, capsys, "--seed")
    calls = []
    monkeypatch.setattr(charsums, "run_lemma51_suite",
                        lambda *a: calls.append(a) or _StubReport("lemma5.1"))
    assert main(["--out", str(tmp_path), "--seed", "99", "charsum",
                 "--identity", "lemma5.1"]) == 0
    assert calls == [((5, 7, 11, 13), 4, 200, 99)]
