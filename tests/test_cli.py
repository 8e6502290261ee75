"""End-to-end CLI: solve, generate, verify, bench."""

import csv
import json
import math
import time
from pathlib import Path

import pytest

from tdmcfg import cli, heuristics
from tdmcfg.cli import main
from tdmcfg.model import Schedule
from tdmcfg.serialize import save_instance, save_schedule


@pytest.fixture
def golden_path(tmp_path, golden_instance):
    path = tmp_path / "golden.json"
    save_instance(golden_instance, path)
    return path


def test_solve_bnp_writes_result(tmp_path, golden_path):
    out = tmp_path / "result.json"
    code = main(
        ["solve", str(golden_path), "--method", "bnp", "--time-limit", "60",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "optimal"
    assert doc["objective"] == "0.8"
    names = {entry["name"] for entry in doc["clients"]}
    assert names == {"c1", "c2"}
    for entry in doc["clients"]:
        assert entry["allocated_rate"] is not None


def test_solve_without_time_reports_the_slot_bound_sum(capsys, golden_path):
    code = main(["solve", str(golden_path), "--time-limit", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert (doc["status"], doc["bound"], doc["schedule"]) == ("timed_out", 0.8, None)


def test_solve_ilp_stdout(capsys, golden_path):
    code = main(["solve", str(golden_path), "--method", "ilp"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == "0.8"


def test_solve_heuristic_passes_time_limit(monkeypatch, capsys, golden_path):
    deadlines = []
    generative = heuristics.generative

    def recording(instance, *, deadline, **kwargs):
        deadlines.append(deadline)
        return generative(instance, deadline=deadline, **kwargs)

    monkeypatch.setattr(heuristics, "generative", recording)
    start = time.monotonic()
    code = main(
        ["solve", str(golden_path), "--method", "heuristic", "--time-limit", "30"]
    )
    end = time.monotonic()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "feasible"
    assert deadlines and all(start + 30 <= d <= end + 30 for d in deadlines)


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_ilp_gets_the_time_limit_as_one_deadline(monkeypatch, tmp_path, golden_path, command):
    # --time-limit becomes a deadline once, before the ILP builds its model
    deadlines = []
    solve_direct = cli.solve_direct

    def recording(instance, decisions=(), deadline=float("inf"), **kwargs):
        assert not kwargs
        deadlines.append(deadline)
        return solve_direct(instance, decisions, deadline)

    monkeypatch.setattr(cli, "solve_direct", recording)
    if command == "solve":
        argv = ["solve", str(golden_path), "--method", "ilp", "--time-limit", "30"]
    else:
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"instance\n{golden_path.name}\n")
        argv = ["bench", str(manifest), "--methods", "ilp", "--time-limit", "30",
                "--out", str(tmp_path / "bench.csv")]
    start = time.monotonic()
    assert main(argv) == 0
    end = time.monotonic()
    assert len(deadlines) == 1 and start + 30 <= deadlines[0] <= end + 30


def test_solve_infeasible_exit_code(tmp_path):
    from fractions import Fraction

    from tdmcfg.model import ClientRequirement, ProblemInstance

    inst = ProblemInstance(
        4,
        tuple(
            ClientRequirement(i, f"c{i}", Fraction(1, 2), None) for i in (1, 2, 3)
        ),
    )
    path = tmp_path / "over.json"
    save_instance(inst, path)
    assert main(["solve", str(path), "--method", "ilp"]) == 2


def test_solve_missing_file_exit_code(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("args, code", [
    (["--method", "nope"], 1),
    (["--time-limit", "abc"], 1),
    (["--heuristic-runs", "-3"], 1),
    (["--method", "bnp", "--heuristic-runs", "-3"], 1),
    (["--heuristic-runs", "two"], 1),
    (["--help"], 0),
    (["generate", "BD", "--count", "-1"], 1),
    (["--time-limit", "nan"], 1),
    (["--time-limit", "-1"], 1),
    (["--method", "heuristic", "--time-limit", "nan"], 1),
    (["bench", "manifest.csv", "--time-limit", "-1"], 1),
    (["--branching", "auto"], 1),
])
def test_bad_arguments_exit_1(capsys, golden_path, args, code):
    # exit code 2 means "infeasible", so argparse's own 2 must not show;
    # arguments are to solve the golden instance unless they name generate
    # or bench
    argv = args if args[0] in ("generate", "bench") else ["solve", str(golden_path), *args]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out = capsys.readouterr()
    assert ("error:" in out.err) == (code == 1)


@pytest.mark.parametrize("limit", [math.nan, -1.0])
@pytest.mark.parametrize("method", ["ilp", "bnp", "heuristic", "continuous"])
def test_run_method_refuses_bad_time_limits(monkeypatch, golden_instance, method, limit):
    # refused before any solve starts, whatever the method
    for solver in ("solve_direct", "solve_bnp", "best_of_runs", "continuous_allocation"):
        monkeypatch.setattr(cli, solver, lambda *a, **k: pytest.fail("a solve started"))
    with pytest.raises(ValueError, match="at least 0"):
        cli.run_method(golden_instance, method, time_limit=limit)


def test_time_limit_may_be_zero_or_inf():
    for text, limit in [("0", 0.0), ("inf", float("inf"))]:
        for command in (["solve", "in.json"], ["bench", "manifest.csv"]):
            args = cli.build_parser().parse_args([*command, "--time-limit", text])
            assert args.time_limit == limit


def test_zero_heuristic_runs_make_no_run(monkeypatch, capsys, golden_path):
    runs = []
    generative = heuristics.generative
    monkeypatch.setattr(
        heuristics, "generative", lambda *a, **k: runs.append(1) or generative(*a, **k)
    )
    code = main(["solve", str(golden_path), "--method", "heuristic", "--heuristic-runs", "0"])
    assert (code, json.loads(capsys.readouterr().out)["status"]) == (2, "no_feasible")
    assert runs == []
    # with no count given, the heuristic makes one run
    assert main(["solve", str(golden_path), "--method", "heuristic"]) == 0
    assert runs == [1]


def test_malformed_files_exit_code_without_traceback(
    tmp_path, capsys, caplog, golden_path
):
    bad_instance = tmp_path / "bad_instance.json"
    bad_instance.write_text(json.dumps({"frame_size": 4, "clients": None}))
    bad_schedule = tmp_path / "bad_schedule.json"
    bad_schedule.write_text(json.dumps({"frame_size": 10, "slots": None}))
    assert main(["solve", str(bad_instance)]) == 1
    assert main(["verify", str(golden_path), str(bad_schedule)]) == 1
    client = {"name": "a", "rate": "0.3", "latency_slots": "3"}
    for k, doc in enumerate([
        {"frame_size": 10.9, "clients": [client]},
        {"frame_size": True, "clients": [client]},
        {"frame_size": 10, "clients": [client, client]},  # duplicate names
    ]):
        path = tmp_path / f"bad_instance_{k}.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1
    for k, frame_size in enumerate((10.9, True)):
        path = tmp_path / f"bad_schedule_{k}.json"
        path.write_text(json.dumps({"frame_size": frame_size, "slots": [None] * 10}))
        assert main(["verify", str(golden_path), str(path)]) == 1
    assert "cannot read instance" in caplog.text
    assert "cannot read input" in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_generate_writes_instances_and_manifest(tmp_path):
    out = tmp_path / "gen"
    code = main(
        ["generate", "BD", "--n", "8", "--count", "3", "--seed", "5",
         "--out", str(out)]
    )
    assert code == 0
    with open(out / "manifest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        assert (out / row["instance"]).exists()
        assert row["class"] == "BD"
        assert row["n"] == "8"


def test_generate_fails_at_once_on_an_unreachable_window(tmp_path, caplog):
    # 4 BD clients at rates up to 0.16 sum to at most 0.64, below 0.8
    out = tmp_path / "gen"
    code = main(["generate", "BD", "--n", "4", "--count", "3", "--out", str(out)])
    assert code == 1
    assert not (out / "manifest.csv").exists()
    assert "total-rate window 0.8-0.95" in caplog.text
    assert "attempts" not in caplog.text


def test_verify_detects_infeasible_schedule(tmp_path, golden_path, golden_instance):
    sched_path = tmp_path / "sched.json"
    # all of c1 bunched at the front violates its latency bound
    schedule = Schedule((1, 1, 1, 1, 1, 2, 2, 2, None, None))
    save_schedule(schedule, golden_instance, sched_path)
    assert main(["verify", str(golden_path), str(sched_path)]) == 2


def test_verify_accepts_feasible_schedule(
    capsys, tmp_path, golden_path, golden_instance
):
    sched_path = tmp_path / "sched.json"
    schedule = Schedule((2, 1, 1, 2, 1, 1, 2, None, 1, None))
    save_schedule(schedule, golden_instance, sched_path)
    assert main(["verify", str(golden_path), str(sched_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True


def test_verify_frame_mismatch_exit_code(tmp_path, golden_path, golden_instance):
    sched_path = tmp_path / "sched.json"
    doc = {"frame_size": 8, "slots": [None] * 8}
    sched_path.write_text(json.dumps(doc))
    assert main(["verify", str(golden_path), str(sched_path)]) == 1


def test_bench_produces_well_formed_csv(tmp_path, monkeypatch):
    gen_dir = tmp_path / "bench_in"
    assert (
        main(["generate", "BD", "--n", "8", "--count", "2", "--seed", "7",
              "--out", str(gen_dir)])
        == 0
    )
    out_csv = tmp_path / "bench.csv"
    args = ["bench", str(gen_dir / "manifest.csv"), "--methods", "bnp,heuristic,continuous",
            "--time-limit", "60", "--out", str(out_csv)]
    assert main(args) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    data_rows = [r for r in rows if r["instance"] != "SUMMARY"]
    summary_rows = [r for r in rows if r["instance"] == "SUMMARY"]
    assert len(data_rows) == 6  # 2 instances x 3 methods
    assert {r["method"] for r in summary_rows} == {"bnp", "heuristic", "continuous"}
    # the continuous baseline may find no schedule; no row is an error
    allowed = {"bnp": {"optimal"}, "heuristic": {"feasible"},
               "continuous": {"feasible", "no_feasible"}}
    for row in data_rows:
        assert row["status"] in allowed[row["method"]], row
        assert row["runtime"]

    # the first row fails: every row is still written, and the exit code is 1
    real, calls = cli.run_method, []

    def first_call_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_method", first_call_fails)
    assert main(args) == 1
    with open(out_csv, newline="") as fh:
        statuses = [r["status"] for r in csv.DictReader(fh) if r["instance"] != "SUMMARY"]
    assert len(statuses) == 6 and statuses[0] == "error: boom"
    assert not any(status.startswith("error") for status in statuses[1:])


def test_bench_records_unreadable_instances_and_manifests(tmp_path, capsys, caplog, golden_path):
    # a missing or malformed instance file is an error row for each method;
    # every row is still written and the exit code is 1
    (tmp_path / "bad.json").write_text(json.dumps({"frame_size": 4, "clients": None}))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("instance,class\ngolden.json,BD\nmissing.json,BD\nbad.json,BD\n")
    out_csv = tmp_path / "bench.csv"
    args = ["bench", str(manifest), "--methods", "bnp,heuristic", "--out", str(out_csv)]
    assert main(args) == 1
    with open(out_csv, newline="") as fh:
        rows = [(Path(r["instance"]).name, r["method"], r["status"]) for r in csv.DictReader(fh)]
    assert [row[:2] for row in rows] == [
        (name, method) for name in ("golden.json", "missing.json", "bad.json")
        for method in ("bnp", "heuristic")
    ] + [("SUMMARY", "bnp"), ("SUMMARY", "heuristic")]
    assert [status for _, _, status in rows[:2]] == ["optimal", "feasible"]
    assert all(status.startswith("error: ") for _, _, status in rows[2:6])
    assert "missing.json" in rows[2][2]
    # a row too short to name an instance is an error row too
    (tmp_path / "short.csv").write_text("class,instance\nBD,golden.json\nBD\n")
    assert main(["bench", str(tmp_path / "short.csv"), "--methods", "heuristic",
                 "--out", str(out_csv)]) == 1
    with open(out_csv, newline="") as fh:
        statuses = [r["status"] for r in csv.DictReader(fh)]
    assert statuses[0] == "feasible" and statuses[1].startswith("error: ")
    # a manifest that is missing or has no instance column is refused
    (tmp_path / "no_column.csv").write_text("file\ngolden.json\n")
    for name in ("absent.csv", "no_column.csv"):
        assert main(["bench", str(tmp_path / name), "--out", str(tmp_path / "x.csv")]) == 1
    assert caplog.text.count("cannot read manifest") == 2
    assert not (tmp_path / "x.csv").exists()
    assert "Traceback" not in caplog.text + capsys.readouterr().err
