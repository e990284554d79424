"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import os
import stat
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fareysum import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse(work):
    def refused(*args, **kwargs):
        raise AssertionError(f"{work} must not start")

    return refused


def error_line(err):
    """The one `fareysum: error:` line that ends a failure's stderr; only
    usage lines may come before it."""
    *usage, last = err.splitlines()
    assert last.startswith("fareysum: error: ")
    assert all(line.startswith(("usage: ", " ")) for line in usage), err
    return last


class TestSum:
    def test_exact_and_decimal(self, capsys):
        code, out, _ = run(capsys, "sum", "1", "6")
        assert code == 0
        assert "10/3" in out
        assert "3.33333333333" in out

    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "sum", "3504214", "31537789")
        assert code == 0
        assert "25573.43" in out

    def test_invalid_modulus(self, capsys):
        code, _, _ = run(capsys, "sum", "1", "0")
        assert code == 1

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "frobnicate")
        assert exc.value.code == 1


class TestDecompose:
    def test_table_has_all_terms(self, capsys):
        code, out, _ = run(capsys, "decompose", "3504214", "31537789", "1", "9", "12")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 2 + 28  # summary + header + terms

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "decompose", "1", "3", "0", "1", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == 1
        assert len(payload["terms"]) == 3
        assert payload["terms"][0]["m"] == 1
        assert {"r", "j", "k", "m", "a_prime", "b_prime", "c_prime", "d_prime",
                "sum_value", "expected", "deviation"} <= set(payload["terms"][0])

    def test_premise_failure_is_usage_error(self, capsys):
        code, _, err = run(capsys, "decompose", "9", "50", "0", "1", "12", "--require-theorem1")
        assert code == 1
        assert "alpha" in err


class TestVerifyCounting:
    def test_clean_sweep_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "verify-counting", "--max-n", "20", "--max-d", "8", "--csv", str(path)
        )
        assert code == 0
        assert "0 violation(s)" in out
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["ok"] == "1" for r in rows)

    def test_missing_csv_directory_fails_before_sweeping(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli.counting, "verify_theorem2", refuse)
        path = tmp_path / "missing" / "rows.csv"
        code, _, err = run(capsys, "verify-counting", "--max-n", "5", "--max-d", "5",
                           "--csv", str(path))
        assert code == 1
        assert err.startswith("fareysum: error:")
        assert "Traceback" not in err

    def test_empty_csv_path_fails_before_sweeping(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli.counting, "verify_theorem2", refuse)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "verify-counting", "--max-n", "5", "--max-d", "5",
                             "--csv", "")
        assert code == 1
        assert err == "fareysum: error: cannot write a report to an empty path\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_csv_is_exit_one(self, capsys, tmp_path):
        # the directory exists, but the path itself is a directory
        code, _, err = run(capsys, "verify-counting", "--max-n", "5", "--max-d", "5",
                           "--csv", str(tmp_path))
        assert code == 1
        assert err.startswith("fareysum: error:")

    def test_csv_run_sweeps_once(self, capsys, tmp_path, monkeypatch):
        # one histogram per (n, d, c): 12 * (phi(1) + ... + phi(6)) = 144
        calls = []
        histogram = cli.counting.multiplicity_histogram

        def counted(*args):
            calls.append(args)
            return histogram(*args)

        monkeypatch.setattr(cli.counting, "multiplicity_histogram", counted)
        code, _, _ = run(capsys, "verify-counting", "--max-n", "12", "--max-d", "6",
                         "--csv", str(tmp_path / "rows.csv"))
        assert code == 0
        assert len(calls) == 144

    def test_violation_is_tallied_and_written(self, capsys, tmp_path, monkeypatch):
        # wrong for m = 3 the first time each (n, d) asks, so a second sweep
        # for the CSV would write rows that disagree with the tally
        formula = cli.counting.count_A_formula
        asked = set()

        def wrong_for_m3(query):
            first = (query.n, query.m, query.d) not in asked
            asked.add((query.n, query.m, query.d))
            return formula(query) + (query.m == 3 and first)

        monkeypatch.setattr(cli.counting, "count_A_formula", wrong_for_m3)
        path = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "verify-counting", "--max-n", "6", "--max-d", "2",
                           "--csv", str(path))
        assert code == 2
        # n = 3, 6 and d = 1, 2 with c = 0 resp. 1: four (n, m=3, d, c) rows
        assert out.count("VIOLATION") == 4
        assert "VIOLATION n=3 m=3 d=1 c=0: brute=1 formula=2 n/m=1" in out
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = [(r["n"], r["m"], r["d"], r["c"], r["formula"]) for r in rows if r["ok"] == "0"]
        assert bad == [("3", "3", "1", "0", "2"), ("3", "3", "2", "1", "2"),
                       ("6", "3", "1", "0", "3"), ("6", "3", "2", "1", "3")]

    def test_failed_sweep_leaves_no_csv(self, capsys, tmp_path, monkeypatch):
        calls = []
        histogram = cli.counting.multiplicity_histogram

        def fails_late(*args):
            calls.append(args)
            if len(calls) == 20:
                raise ValueError("histogram failed")
            return histogram(*args)

        monkeypatch.setattr(cli.counting, "multiplicity_histogram", fails_late)
        code, out, err = run(capsys, "verify-counting", "--max-n", "12", "--max-d", "6",
                             "--csv", str(tmp_path / "rows.csv"))
        assert code == 1
        assert "histogram failed" in err
        assert "wrote" not in out
        assert list(tmp_path.iterdir()) == []

    def test_n_above_brute_cap_is_refused_and_leaves_no_csv(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify-counting", "--max-n", "10001", "--max-d", "1",
                             "--csv", str(tmp_path / "rows.csv"))
        assert code == 1
        assert err == "fareysum: error: max_n must be an integer in [1, 10000], got 10001\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_d_above_brute_cap_is_refused_and_leaves_no_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.counting, "multiplicity_histogram", refuse("the sweep"))
        huge = str(10 ** 30)  # walked d by d, it would never end
        code, out, err = run(capsys, "verify-counting", "--max-n", "1", "--max-d", huge,
                             "--csv", str(tmp_path / "rows.csv"))
        assert code == 1
        assert err == f"fareysum: error: max_d must be an integer in [1, 10000], got {huge}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_fifo_csv_is_refused_before_sweeping(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.counting, "verify_theorem2", refuse("the sweep"))
        fifo = tmp_path / "rows.csv"
        os.mkfifo(fifo)
        code, out, err = run(capsys, "verify-counting", "--max-n", "5", "--max-d", "5",
                             "--csv", str(fifo))
        assert (code, out) == (1, "")
        assert err == f"fareysum: error: cannot write {fifo}: it is not a regular file\n"
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_violations_exit_two(self, capsys, monkeypatch):
        from fareysum.counting import SweepReport, SweepRow

        fake = SweepReport(5, 5, 1, (SweepRow(4, 2, 3, 1, 2, 2, 1, False),))
        monkeypatch.setattr(cli.counting, "verify_theorem2", lambda *a, **k: fake)
        code, out, _ = run(capsys, "verify-counting", "--max-n", "5", "--max-d", "5")
        assert code == 2
        assert "VIOLATION" in out


class TestScan:
    def test_writes_reports(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        json_path = tmp_path / "scan.json"
        code, out, _ = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "1,2",
            "--b-start", "100000001", "--b-count", "10",
            "--csv", str(csv_path), "--json", str(json_path),
        )
        assert code == 0
        assert csv_path.read_text().startswith("b,c,a,ruled_out,m1,m2")
        payload = json.loads(json_path.read_text())
        assert payload["config"]["c_list"] == [1, 2]
        assert len(payload["records"]) == 20

    def test_random_mode_with_seed(self, capsys, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        for path in (first, second):
            code, _, _ = run(
                capsys, "scan", "--n", "12", "--d", "9", "--c", "1",
                "--b-start", "10000019", "--b-count", "6",
                "--random", "--seed", "99", "--json", str(path),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_64_bits_is_refused(self, capsys, tmp_path, seed):
        code, out, err = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "1",
            "--b-start", "100000000", "--b-count", "3", "--random", "--seed", seed,
            "--json", str(tmp_path / "report.json"),
        )
        assert code == 1
        assert err == f"fareysum: error: rng_seed must be an integer in [0, {2 ** 64 - 1}], got {seed}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_seed_without_random_is_refused(self, capsys, tmp_path):
        # a consecutive scan draws no b: --seed 5 and --seed 6 would scan the
        # same cells and echo different JSON
        code, out, err = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "1",
            "--b-start", "100000001", "--b-count", "2", "--seed", "5",
            "--json", str(tmp_path / "report.json"),
        )
        assert code == 1
        assert err == "fareysum: error: rng_seed must be 0 unless b_mode is 'random', got 5\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--csv", "--json"])
    def test_missing_report_directory_fails_before_scanning(self, capsys, tmp_path, monkeypatch, flag):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan must not start")

        monkeypatch.setattr(cli.experiments, "run_scan", refuse)
        code, _, err = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "1",
            "--b-start", "100000001", "--b-count", "5",
            flag, str(tmp_path / "missing" / "report"),
        )
        assert code == 1
        assert err.startswith("fareysum: error:")
        assert "missing" in err

    @pytest.mark.parametrize("reports", [["--csv", ""], ["--json", ""],
                                         ["--csv", "ok.csv", "--json", ""]])
    def test_empty_report_path_fails_before_scanning(self, capsys, tmp_path, monkeypatch, reports):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan must not start")

        monkeypatch.setattr(cli.experiments, "run_scan", refuse)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "1",
            "--b-start", "100000001", "--b-count", "5", *reports,
        )
        assert code == 1
        assert err == "fareysum: error: cannot write a report to an empty path\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--csv", "--json"])
    def test_fifo_report_is_refused_before_scanning(self, capsys, tmp_path, monkeypatch, flag):
        # os.replace would turn the FIFO (or a device node) into a regular file
        monkeypatch.setattr(cli.experiments, "run_scan", refuse("the scan"))
        fifo = tmp_path / "report"
        os.mkfifo(fifo)
        code, out, err = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "1",
            "--b-start", "100000001", "--b-count", "2", flag, str(fifo),
        )
        assert (code, out) == (1, "")
        assert err == f"fareysum: error: cannot write {fifo}: it is not a regular file\n"
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_unwritable_report_is_exit_one(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "1",
            "--b-start", "100000001", "--b-count", "2", "--json", str(tmp_path),
        )
        assert code == 1
        assert err.startswith("fareysum: error:")

    def test_failed_report_leaves_no_report_set(self, capsys, tmp_path):
        # the CSV could be written, the JSON path is a directory: nothing is written
        (tmp_path / "dir.json").mkdir()
        code, out, err = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "1",
            "--b-start", "100000001", "--b-count", "2",
            "--csv", str(tmp_path / "ok.csv"), "--json", str(tmp_path / "dir.json"),
        )
        assert code == 1
        assert err.startswith("fareysum: error:")
        assert "wrote" not in out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir.json"]

    def test_one_path_for_both_reports_is_refused(self, capsys, tmp_path, monkeypatch):
        # "same" and "./same" are one file: the JSON would silently replace the CSV
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "1",
            "--b-start", "100000001", "--b-count", "2", "--csv", "same", "--json", "./same",
        )
        assert code == 1
        assert "two reports name the same file" in err
        assert "wrote" not in out
        assert list(tmp_path.iterdir()) == []

    def test_repeated_c_is_refused(self, capsys):
        code, out, err = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "1,1",
            "--b-start", "100000001", "--b-count", "3",
        )
        assert code == 1
        assert "c = 1 is repeated" in err
        assert out == ""

    def test_b_count_above_limit_is_refused_and_leaves_no_report(self, capsys, tmp_path):
        huge = str(10 ** 30)  # list(range(...)) of it would raise OverflowError
        code, out, err = run(
            capsys, "scan", "--n", "1", "--d", "1", "--c", "0", "--b-start", "5", "--b-count", huge,
            "--csv", str(tmp_path / "a.csv"), "--json", str(tmp_path / "a.json"),
        )
        assert code == 1
        assert err == f"fareysum: error: b_count must be an integer in [0, 1000000], got {huge}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("b_start", ["5", "2000000000000000"])
    def test_n_above_limit_is_refused_whatever_b(self, capsys, b_start):
        # at b = 5 every cell is ruled out, so no decomposition would refuse n
        code, out, err = run(
            capsys, "scan", "--n", "10001", "--d", "1", "--c", "0",
            "--b-start", b_start, "--b-count", "3",
        )
        assert code == 1
        assert "n must be an integer in [1, 10000], got 10001" in err
        assert out == ""

    def test_failed_scan_removes_temp_reports(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("scan failed")

        monkeypatch.setattr(cli.experiments, "run_scan", fail)
        code, _, err = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "1",
            "--b-start", "100000001", "--b-count", "2",
            "--csv", str(tmp_path / "a.csv"), "--json", str(tmp_path / "a.json"),
        )
        assert code == 1
        assert "scan failed" in err
        assert list(tmp_path.iterdir()) == []

    def test_reports_replace_existing_files(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        csv_path.write_text("stale\n")
        code, out, _ = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "1",
            "--b-start", "100000001", "--b-count", "2", "--csv", str(csv_path),
        )
        assert code == 0
        assert out.startswith(f"wrote {csv_path}\n")
        assert csv_path.read_text().startswith("b,c,a,ruled_out,m1,m2")
        assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]

    @pytest.mark.parametrize("seed", ["3", "1"])
    def test_b_below_d_cubed_is_ruled_out(self, capsys, tmp_path, seed):
        # seed 3 draws b = 253, seed 1 draws b = 465; both lie below d^3 = 729
        csv_path = tmp_path / "scan.csv"
        code, _, err = run(
            capsys, "scan", "--n", "1", "--d", "9", "--c", "1",
            "--b-start", "100", "--b-count", "1", "--random", "--seed", seed,
            "--csv", str(csv_path),
        )
        assert code == 0, err
        record = csv_path.read_text().splitlines()[1].split(",")
        assert int(record[0]) < 729
        assert record[3] == "premises_failed"

    @pytest.mark.parametrize("argv", [["scan", "--c", "1,"], ["sum", "1"], ["verify-counting", "--max-n", "2.0"]])
    def test_a_subcommand_error_has_the_one_prefix(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 1
        error_line(capsys.readouterr().err)  # argparse would say "fareysum scan: error: ..."

    def test_bad_c_list(self, capsys):
        code, _, err = run(
            capsys, "scan", "--n", "12", "--d", "9", "--c", "3",
            "--b-start", "100000001", "--b-count", "5",
        )
        assert code == 1
        assert "error" in err


class TestExample:
    def test_reproduction(self, capsys):
        code, out, _ = run(capsys, "example")
        assert code == 0
        assert "b = 31537789" in out
        assert "25578.0932685" in out
        assert "max deviation ~ 0.0465929 at (r=6, j=1)" in out
        assert "mean deviation ~ 0.00600072" in out


# The CLI contract, drawn: every argv ends in exit 0, 1 or 2, never a
# traceback, and a failure in one `fareysum: error:` line and no report.
# A report path "@name" names a file in the test's own directory, which holds
# a directory and a FIFO.  Sizes stay small enough for milliseconds a run.
BAD = st.sampled_from(["0", "-1", "2.0", "1e3", "x", "", str(2 ** 64), str(10 ** 30), str(-(10 ** 30))])
PATHS = st.sampled_from(["@fifo", "@out.csv", "@./out.csv", "@dir", "@missing/out.csv", ""])
FLAG = st.booleans()  # a bare flag, given or not


def some(*values):
    return st.sampled_from([str(v) for v in values])


@st.composite
def command(draw, name, *fields):
    """`name` and its (flag, good values[, bad values]) fields in turn, flag
    None for a positional; at most one field is left out or given a bad
    value, and a good value of None or False leaves an optional field out.
    A path's bad values are paths in the test's directory too."""
    broken = draw(st.none() | st.integers(0, len(fields) - 1))
    argv = [name]
    for i, (flag, good, *bad) in enumerate(fields):
        value = draw(st.none() | (bad[0] if bad else BAD)) if i == broken else draw(good)
        if value in (None, False):
            continue
        argv += [value] if flag is None else [flag] if value is True else [flag, value]
    return argv


ARGVS = st.one_of(
    command("sum", (None, some(3504214, -5, 1)), (None, some(31537789, 6))),
    command("decompose", (None, some(3504214, 2, -3)), (None, some(31537789, 7)), (None, some(1, 0)),
            (None, some(9, 1)), (None, some(12, 6, 1)), ("--require-theorem1", FLAG), ("--json", FLAG)),
    command("verify-counting", ("--max-n", st.integers(1, 6).map(str)),
            ("--max-d", st.integers(1, 4).map(str)),
            ("--csv", PATHS, st.none() | PATHS), ("--jobs", st.none() | some(1))),
    command("scan", ("--n", some(12, 6, 1)), ("--d", some(9, 7)),
            ("--c", some(1, "1,2", "4,2,1"), some("1,1", "1,", "", 0, 9, "2.0")),
            ("--b-start", some(100000001, 1000, 10 ** 30)),
            ("--b-count", st.integers(0, 5).map(str)), ("--random", FLAG),
            ("--seed", st.none() | some(0, 7, 2 ** 64 - 1)),
            ("--csv", st.none() | PATHS, PATHS), ("--json", st.none() | PATHS, PATHS),
            ("--jobs", st.none() | some(1))),
    command("example", (None, st.none())),
)
SCAN = ["scan", "--n", "12", "--d", "9", "--c", "1", "--b-start", "100000001", "--b-count", "2"]


@settings(derandomize=True, deadline=None)
@given(ARGVS)
@example(SCAN + ["--csv", "@fifo"])
@example(SCAN + ["--json", "@fifo", "--csv", "@out.csv"])
@example(["verify-counting", "--max-n", "3", "--max-d", "2", "--csv", "@fifo"])
@example(["scan", "--c", "1,"])
@example(SCAN[:-1] + [str(10 ** 30), "--csv", "@out.csv"])
@example(["verify-counting", "--max-n", "1", "--max-d", str(10 ** 30)])
def test_cli_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "dir"))
        fifo = os.path.join(tmp, "fifo")
        os.mkfifo(fifo)
        argv = [os.path.join(tmp, tok[1:]) if tok.startswith("@") else tok for tok in argv]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
        if code == 1:
            error_line(err)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and os.listdir(os.path.join(tmp, "dir")) == []
        left = set(os.listdir(tmp)) - {"dir", "fifo"}
        assert not (code and left), (argv, left)
        assert not any(name.endswith(".tmp") for name in left)
