"""Workbench CLI: commands, file flows and exit codes."""

import csv
import io

import yaml

from rainbowpack.cli import (
    CSV_FIELDS,
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    run_command,
)


def gen_instance_file(tmp_path, name="inst.yaml", family="uniform", n=3, extra=()):
    path = tmp_path / name
    code = run_command(
        ["gen", "--family", family, "--n", str(n), "--out", str(path), *extra]
    )
    assert code == EXIT_OK
    return path


def test_gen_solve_verify_flow(tmp_path, capsys):
    inst = gen_instance_file(tmp_path)
    report = tmp_path / "report.yaml"
    log = tmp_path / "moves.jsonl"
    assert run_command(
        ["solve", "--instance", str(inst), "--out", str(report), "--log", str(log)]
    ) == EXIT_OK
    data = yaml.safe_load(report.read_text())
    assert data["rainbow_bases"] == 3
    assert data["signature"][-1] == 3
    assert run_command(
        [
            "verify",
            "--instance", str(inst),
            "--log", str(log),
            "--report", str(report),
        ]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "verified" in out and "3 rainbow bases" in out


def test_verify_rejects_tampered_log(tmp_path):
    inst = gen_instance_file(tmp_path)
    report = tmp_path / "report.yaml"
    log = tmp_path / "moves.jsonl"
    run_command(
        ["solve", "--instance", str(inst), "--out", str(report), "--log", str(log)]
    )
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:-1]) + "\n")  # drop the last move
    assert run_command(
        [
            "verify",
            "--instance", str(inst),
            "--log", str(log),
            "--report", str(report),
        ]
    ) == EXIT_FAIL
    log.write_text("{broken\n")
    assert run_command(
        ["verify", "--instance", str(inst), "--log", str(log)]
    ) == EXIT_FAIL


def test_verify_missing_log_or_report_is_usage_error(tmp_path):
    inst = gen_instance_file(tmp_path)
    report = tmp_path / "report.yaml"
    log = tmp_path / "moves.jsonl"
    run_command(
        ["solve", "--instance", str(inst), "--out", str(report), "--log", str(log)]
    )
    missing = str(tmp_path / "missing")
    assert run_command(
        ["verify", "--instance", str(inst), "--log", missing]
    ) == EXIT_USAGE
    assert run_command(
        ["verify", "--instance", str(inst), "--log", str(log), "--report", missing]
    ) == EXIT_USAGE


def test_verify_rejects_report_that_is_not_a_mapping(tmp_path):
    inst = gen_instance_file(tmp_path)
    report = tmp_path / "report.yaml"
    log = tmp_path / "moves.jsonl"
    run_command(
        ["solve", "--instance", str(inst), "--out", str(report), "--log", str(log)]
    )
    for text in ("- 1\n", "[unclosed\n"):
        report.write_text(text)
        assert run_command(
            ["verify", "--instance", str(inst), "--log", str(log), "--report", str(report)]
        ) == EXIT_FAIL


def test_verify_rejects_wrong_instance(tmp_path):
    inst = gen_instance_file(tmp_path)
    other = gen_instance_file(tmp_path, name="other.yaml", extra=("--seed", "3"))
    report = tmp_path / "report.yaml"
    log = tmp_path / "moves.jsonl"
    run_command(
        ["solve", "--instance", str(inst), "--out", str(report), "--log", str(log)]
    )
    # replaying one instance's log against another must fail somewhere:
    # digest mismatch at best, invalid moves at worst
    assert run_command(
        [
            "verify",
            "--instance", str(other),
            "--log", str(log),
            "--report", str(report),
        ]
    ) == EXIT_FAIL


def test_solve_csv_format(tmp_path):
    inst = gen_instance_file(tmp_path, family="sparse_paving")
    out = tmp_path / "row.csv"
    assert run_command(
        [
            "solve",
            "--instance", str(inst),
            "--format", "csv",
            "--out", str(out),
        ]
    ) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 1
    assert list(rows[0]) == CSV_FIELDS
    assert rows[0]["family"] == "sparse_paving"
    assert rows[0]["status"] == "ok"


def test_brute_command(tmp_path, capsys):
    inst = gen_instance_file(tmp_path, n=3)
    assert run_command(["brute", "--instance", str(inst)]) == EXIT_OK
    assert "t = 3" in capsys.readouterr().out


def test_bounds_command(capsys):
    assert run_command(["bounds", "--n", "16", "--beta", "1"]) == EXIT_OK
    assert "bound = 1 (applicable" in capsys.readouterr().out
    assert run_command(
        ["bounds", "--n", "53", "--beta", "1", "--kappa", "1", "--overlapping"]
    ) == EXIT_OK
    assert "bound = 25 (applicable" in capsys.readouterr().out
    assert run_command(["bounds", "--n", "4", "--beta", "0"]) == EXIT_OK
    assert "inapplicable" in capsys.readouterr().out


def test_harness_command(capsys):
    assert run_command(
        ["harness", "--lemma", "swappable", "--target", "30"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "counterexamples=0" in out and "complete=True" in out


def test_bench_command(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_command(
        [
            "bench",
            "--family", "uniform",
            "--n", "3",
            "--seeds", "2",
            "--out", str(out),
        ]
    ) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 2
    for row in rows:
        assert list(row) == CSV_FIELDS
        assert int(row["solver_rbs"]) <= int(row["brute_t"])
        assert row["status"] == "ok"


def test_usage_errors():
    assert run_command(["solve"]) == EXIT_USAGE  # missing required option
    assert run_command(["gen", "--family", "nosuch", "--n", "3"]) == EXIT_USAGE
    assert run_command(
        ["solve", "--instance", "/nonexistent/inst.yaml"]
    ) == EXIT_USAGE


def test_invalid_instance_file_fails(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "version: 1\nmatroid: {family: uniform, params: {k: 2, m: 4}}\n"
        "bases: [[0], [2, 3]]\n"
    )
    assert run_command(["solve", "--instance", str(bad)]) == EXIT_FAIL
