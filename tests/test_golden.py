"""Reports checked byte for byte against committed golden files.

The files under tests/golden/ were written by an earlier build; any change
to the value or the rendering of a single record shows up here, which a
comparison of two runs of the same build cannot catch.
"""

import hashlib
import inspect
from pathlib import Path

import pytest

from fareysum import cli, counting, experiments
from fareysum.counting import verify_theorem2
from fareysum.experiments import (
    B_MODE_RANDOM,
    ExperimentConfig,
    run_scan,
    scan_csv_lines,
    write_scan_csv,
    write_scan_json,
)

GOLDEN = Path(__file__).parent / "golden"

SCANS = {
    # one 50-b consecutive window of the table config at 1e8
    "scan_1e8_w50": ExperimentConfig(
        n=12, d=9, c_list=(1, 2, 4, 5, 7, 8), b_start=10 ** 8 + 1, b_count=50,
    ),
    # the acceptance suite's determinism (criterion 9) config
    "criterion9_random": ExperimentConfig(
        n=12, d=9, c_list=(1, 2), b_start=10 ** 7 + 19, b_count=40,
        b_mode=B_MODE_RANDOM, rng_seed=20250809,
    ),
    # 72-term cells with b' around 1e16, as in the wide benchmark workload
    "scan_1e15_w10": ExperimentConfig(
        n=30, d=7, c_list=(1, 2, 3), b_start=10 ** 15, b_count=10,
        b_mode=B_MODE_RANDOM, rng_seed=7,
    ),
}


@pytest.mark.parametrize("name, jobs", [
    # the serial cases keep their bare names; jobs=2 runs a real process
    # pool wherever two CPUs are usable
    pytest.param(name, jobs, id=name if jobs == 1 else f"{name}-jobs{jobs}")
    for jobs in (1, 2) for name in sorted(SCANS)
])
def test_scan_reports_match_golden(name, jobs, tmp_path):
    report = run_scan(SCANS[name], jobs=jobs)
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_scan_csv(report, str(csv_path))
    write_scan_json(report, str(json_path))
    assert csv_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert json_path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def _tiny_report():
    return run_scan(ExperimentConfig(n=12, d=9, c_list=(1,), b_start=10 ** 8 + 1, b_count=2))


@pytest.mark.parametrize("module, write", [
    pytest.param(experiments, lambda path: write_scan_csv(_tiny_report(), path), id="write_scan_csv"),
    pytest.param(experiments, lambda path: write_scan_json(_tiny_report(), path), id="write_scan_json"),
    pytest.param(counting, lambda path: counting.write_sweep_csv(path, ()), id="write_sweep_csv"),
])
def test_reports_are_opened_with_newline_empty(module, write, tmp_path, monkeypatch):
    # newline=None would have the text layer write the platform's line ending
    # for each "\n", and the goldens hold "\n" (scan reports) and "\r\n" (sweep)
    newlines = []

    def spy(*args, **kwargs):
        newlines.append(inspect.signature(open).bind(*args, **kwargs).arguments.get("newline"))
        return open(*args, **kwargs)

    monkeypatch.setattr(module, "open", spy, raising=False)
    write(str(tmp_path / "report"))
    assert newlines == [""]


@pytest.mark.parametrize("exponent", [8, 9])
def test_whole_table_matches_golden(exponent):
    # every c row of the reproduced table, with all four shares, where the
    # acceptance suite's criterion 6 pins four shares of c = 1
    config = ExperimentConfig(n=12, d=9, c_list=(1, 2, 4, 5, 7, 8),
                              b_start=10 ** exponent + 1, b_count=10000)
    footer = [line for line in scan_csv_lines(run_scan(config, jobs=2)) if line.startswith("#agg,")]
    golden = GOLDEN / f"table_1e{exponent}_w10000_agg.csv"
    assert "".join(line + "\n" for line in footer).encode() == golden.read_bytes()


def test_decompose_json_matches_golden(capsys):
    code = cli.main(["decompose", "3504214", "31537789", "1", "9", "12", "--json"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "decompose_example.json").read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_csv_and_stdout_match_golden(jobs, tmp_path, monkeypatch, capsys):
    # a relative report path keeps the "wrote ..." line independent of tmp_path
    monkeypatch.chdir(tmp_path)
    code = cli.main(["verify-counting", "--max-n", "24", "--max-d", "8",
                     "--csv", "sweep.csv", "--jobs", jobs])
    assert code == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "sweep_n24_d8.stdout").read_bytes()
    assert (tmp_path / "sweep.csv").read_bytes() == (GOLDEN / "sweep_n24_d8.csv").read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_benchmark_sweep_csv_matches_its_hash(jobs, tmp_path):
    # the (80, 30) sweep that the counting benchmark times, too large for a
    # committed golden: its sha256 as an earlier build wrote it
    path = tmp_path / "sweep.csv"
    assert verify_theorem2(80, 30, jobs=jobs, csv_path=str(path)).ok
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "31967991438c2fcb03141b552b8b94a44f1001ddb953f5d9f5aea93149f91229"


def test_example_stdout_matches_golden(capsys):
    # every deviation line, the exact S and E and the max and mean lines
    code = cli.main(["example"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "example.stdout").read_bytes()


def test_scan_stdout_matches_golden(capsys):
    code = cli.main(["scan", "--n", "12", "--d", "9", "--c", "1,2,4,5,7,8",
                     "--b-start", "100000001", "--b-count", "50"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "scan_1e8_w50.stdout").read_bytes()


def test_empty_scan_reports_match_golden(tmp_path, monkeypatch, capsys):
    # no b at all: every share is empty, rendered as "-", "" and null
    monkeypatch.chdir(tmp_path)
    code = cli.main(["scan", "--n", "12", "--d", "9", "--c", "1,2",
                     "--b-start", "100000001", "--b-count", "0",
                     "--csv", "scan_empty.csv", "--json", "scan_empty.json"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "scan_empty.stdout").read_bytes()
    for name in ("scan_empty.csv", "scan_empty.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
