"""Workbench CLI: commands, file flows and exit codes."""

import csv
import io
import re
import time

import pytest
import yaml

from rainbowpack import cli, instances
from rainbowpack.cli import (
    CSV_FIELDS,
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    run_command,
)
from rainbowpack.model import Collection
from rainbowpack.oracle import run_lemma_harness
from rainbowpack.solver import MOVE_KINDS, SolveResult, SolverParams


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


@pytest.mark.parametrize("line", ["[1, 2]", "5", '{"changes": []}'])
def test_verify_rejects_malformed_log_line(tmp_path, line):
    inst = gen_instance_file(tmp_path)
    log = tmp_path / "moves.jsonl"
    log.write_text(line + "\n")
    assert run_command(
        ["verify", "--instance", str(inst), "--log", str(log)]
    ) == EXIT_FAIL


def test_solve_reports_why_it_stopped(tmp_path):
    inst = gen_instance_file(tmp_path)
    report = tmp_path / "report.yaml"
    log = tmp_path / "moves.jsonl"
    assert run_command(
        ["solve", "--instance", str(inst), "--out", str(report)]
    ) == EXIT_OK
    assert yaml.safe_load(report.read_text())["stopped"] == "fixed_point"
    assert run_command(
        [
            "solve",
            "--instance", str(inst),
            "--budget-ms", "1",
            "--out", str(report),
            "--log", str(log),
        ]
    ) == EXIT_BUDGET
    data = yaml.safe_load(report.read_text())
    assert data["stopped"] == "budget" and data["moves"] == 1
    assert run_command(
        ["verify", "--instance", str(inst), "--log", str(log), "--report", str(report)]
    ) == EXIT_OK


def test_solve_reports_independence_answers(tmp_path):
    # Each answer the solve's is_independent calls got, by how it was found;
    # a linear matroid answers most growth by one element from its kept state.
    report = tmp_path / "report.yaml"
    for family in ("linear", "uniform"):
        inst = gen_instance_file(tmp_path, family=family, n=5)
        assert run_command(["solve", "--instance", str(inst), "--out", str(report)]) == EXIT_OK
        answers = yaml.safe_load(report.read_text())["independence"]
        assert set(answers) == {"cached", "incremental", "scratch"}
        assert all(type(v) is int and v >= 0 for v in answers.values())
        if family == "linear":
            assert answers["incremental"] > answers["scratch"]
        else:
            assert answers["incremental"] == 0 and answers["scratch"] > 0
            assert answers["cached"] == 0  # a closed form remembers nothing


def test_solve_reports_moves_by_kind(tmp_path):
    # one count per move kind, zeros included; the CSV row keeps its fields
    inst = gen_instance_file(tmp_path, extra=("--mode", "overlapping"))
    report = tmp_path / "report.yaml"
    assert run_command(["solve", "--instance", str(inst), "--out", str(report)]) == EXIT_OK
    data = yaml.safe_load(report.read_text())
    by_kind = data["moves_by_kind"]
    assert list(by_kind) == sorted(MOVE_KINDS)
    assert by_kind["steal"] == 1 and by_kind["cascade"] == 0
    assert sum(by_kind.values()) == data["moves"]
    assert run_command(
        ["solve", "--instance", str(inst), "--format", "csv", "--out", str(report)]
    ) == EXIT_OK
    assert report.read_text().splitlines()[0].split(",") == CSV_FIELDS


def test_solve_rejects_a_boolean_version(tmp_path):
    inst = gen_instance_file(tmp_path)
    text = inst.read_text()
    assert "version: 1\n" in text
    inst.write_text(text.replace("version: 1\n", "version: true\n"))
    assert run_command(["solve", "--instance", str(inst)]) == EXIT_FAIL


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


def test_verify_rejects_report_that_is_not_yaml(tmp_path):
    inst = gen_instance_file(tmp_path)
    report = tmp_path / "report.yaml"
    log = tmp_path / "moves.jsonl"
    run_command(
        ["solve", "--instance", str(inst), "--out", str(report), "--log", str(log)]
    )
    for text in (
        "signature: [1, 2\n",  # unclosed flow sequence
        "instance_digest: 'open\n",  # unterminated quoted scalar
        "a: b: c\n",  # mapping value inside a plain scalar
        "--- 1\n--- 2\n",  # two documents
        "a: *nowhere\n",  # undefined alias
        "x\x07\n",  # control character
        f"signature: [1, {'9' * 5000}]\n",  # an integer over Python's digit limit
        "made: 2001-02-30\n",  # an impossible date
    ):
        report.write_text(text)
        assert run_command(
            ["verify", "--instance", str(inst), "--log", str(log), "--report", str(report)]
        ) == EXIT_FAIL


@pytest.mark.parametrize("kind", ("instance", "move log", "report"))
def test_an_input_that_is_not_utf8_is_a_failure(tmp_path, capsys, kind):
    inst = gen_instance_file(tmp_path)
    report = tmp_path / "report.yaml"
    log = tmp_path / "moves.jsonl"
    run_command(
        ["solve", "--instance", str(inst), "--out", str(report), "--log", str(log)]
    )
    paths = {"instance": inst, "move log": log, "report": report}
    paths[kind].write_bytes(b"version: 1\n\xff\xfe bad\n")
    capsys.readouterr()
    assert run_command(
        ["verify", "--instance", str(inst), "--log", str(log), "--report", str(report)]
    ) == EXIT_FAIL
    assert f"error: {kind} is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("signature", (5, None))
def test_verify_rejects_malformed_report_signature(tmp_path, signature):
    inst = gen_instance_file(tmp_path)
    report = tmp_path / "report.yaml"
    log = tmp_path / "moves.jsonl"
    run_command(
        ["solve", "--instance", str(inst), "--out", str(report), "--log", str(log)]
    )
    data = yaml.safe_load(report.read_text())
    data["signature"] = signature
    report.write_text(yaml.safe_dump(data))
    assert run_command(
        ["verify", "--instance", str(inst), "--log", str(log), "--report", str(report)]
    ) == EXIT_FAIL


def test_verify_rejects_a_wrong_rainbow_base_count(tmp_path, capsys):
    inst = gen_instance_file(tmp_path)
    report = tmp_path / "report.yaml"
    log = tmp_path / "moves.jsonl"
    run_command(
        ["solve", "--instance", str(inst), "--out", str(report), "--log", str(log)]
    )
    data = yaml.safe_load(report.read_text())
    data["rainbow_bases"] -= 1
    report.write_text(yaml.safe_dump(data))
    assert run_command(
        ["verify", "--instance", str(inst), "--log", str(log), "--report", str(report)]
    ) == EXIT_FAIL
    assert "RB count differs" in capsys.readouterr().err


def _swap_first_elements(data):
    first, second = data["sets"][:2]
    first[0], second[0] = second[0], first[0]


def _miscount_a_kind(data):
    data["moves_by_kind"]["augment"] += 1


@pytest.mark.parametrize(
    "tamper, message",
    (
        (_swap_first_elements, "replayed sets differ"),
        (lambda data: data.update(moves=999), "replayed move count differs"),
        (_miscount_a_kind, "replayed moves by kind differ"),
    ),
    ids=("sets", "moves", "moves_by_kind"),
)
def test_verify_rejects_a_report_the_replay_does_not_match(tmp_path, capsys, tamper, message):
    inst = gen_instance_file(tmp_path, n=4)
    report = tmp_path / "report.yaml"
    log = tmp_path / "moves.jsonl"
    run_command(
        ["solve", "--instance", str(inst), "--out", str(report), "--log", str(log)]
    )
    verify = ["verify", "--instance", str(inst), "--log", str(log), "--report", str(report)]
    assert run_command(verify) == EXIT_OK
    data = yaml.safe_load(report.read_text())
    tamper(data)
    report.write_text(instances.dump_yaml(data))
    capsys.readouterr()
    assert run_command(verify) == EXIT_FAIL
    assert message in capsys.readouterr().err


def test_every_text_the_program_writes_takes_the_splice(tmp_path):
    texts = [
        instances.emit_instance(instances.generate_instance(family, 8, mode, seed=0))
        for family in instances.GENERATOR_FAMILIES
        for mode in ("disjoint", "overlapping")
    ]
    inst = gen_instance_file(tmp_path, family="graphic", n=8, extra=("--mode", "overlapping"))
    report = tmp_path / "report.yaml"
    assert run_command(["solve", "--instance", str(inst), "--out", str(report)]) == EXIT_OK
    texts.append(report.read_text())
    for text in texts:
        spliced, value = instances._load_spliced(text)
        assert spliced
        assert value == yaml.load(text, Loader=instances._YAML_LOADER)


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
    assert (rows[0]["beta_declared"], rows[0]["bound_thm"]) == ("1", "-12")
    # With no declared beta the row takes the least beta the girth allows
    # (girth 3 here, so beta 1), not beta 0.
    doc = yaml.safe_load(inst.read_text())
    del doc["declared"]
    inst.write_text(yaml.safe_dump(doc))
    assert run_command(
        ["solve", "--instance", str(inst), "--format", "csv", "--out", str(out)]
    ) == EXIT_OK
    [row] = csv.DictReader(io.StringIO(out.read_text()))
    assert (row["beta_declared"], row["girth"], row["bound_thm"]) == ("", "3", "-12")


def test_solve_csv_takes_the_actual_overlap_for_an_undeclared_kappa(tmp_path):
    # U(3, 4) with every element in up to three bases: the bound with no
    # declared block is the one kappa = 3 gives, not kappa = 1's -8.
    inst = tmp_path / "inst.yaml"
    out = tmp_path / "row.csv"
    text = (
        "version: 1\nmatroid: {family: uniform, params: {k: 3, m: 4}}\n"
        "bases: [[0, 1, 2], [0, 1, 3], [1, 2, 3]]\n"
    )
    for declared in ("", "declared: {kappa: 3}\n"):
        inst.write_text(text + declared)
        assert run_command(
            ["solve", "--instance", str(inst), "--format", "csv", "--out", str(out)]
        ) == EXIT_OK
        [row] = csv.DictReader(io.StringIO(out.read_text()))
        assert (row["kappa_actual"], row["bound_thm"]) == ("3", "-48"), declared


def test_brute_command(tmp_path, capsys):
    inst = gen_instance_file(tmp_path, n=3)
    assert run_command(["brute", "--instance", str(inst)]) == EXIT_OK
    assert "t = 3" in capsys.readouterr().out


@pytest.mark.parametrize(
    "matroid",
    (
        "{family: uniform, params: {k: 0, m: 3}}",
        "{family: graphic, params: {vertices: 2, edges: [[0, 0], [1, 1]]}}",
    ),
    ids=("uniform", "graphic-loops"),
)
def test_a_rank_0_instance_fails_every_command(tmp_path, capsys, matroid):
    # No base sequence has rank 0: each command that loads the instance
    # exits 1 with one message and no traceback.
    inst = tmp_path / "inst.yaml"
    inst.write_text(f"version: 1\nmatroid: {matroid}\nbases: []\n")
    log = tmp_path / "moves.jsonl"
    log.write_text("")
    for command in (["solve"], ["verify", "--log", str(log)], ["brute"]):
        capsys.readouterr()
        assert run_command([*command, "--instance", str(inst)]) == EXIT_FAIL, command
        captured = capsys.readouterr()
        assert captured.err == "error: matroid has rank 0; a base sequence needs rank >= 1\n"
        assert captured.out == ""


def test_brute_above_the_oracle_limit_is_a_budget_stop(tmp_path, capsys):
    inst = gen_instance_file(tmp_path, n=6)
    assert run_command(["brute", "--instance", str(inst)]) == EXIT_BUDGET
    assert "budget exhausted" in capsys.readouterr().err


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
    checked = run_lemma_harness("swappable", target=30).checked
    assert f"exercised=30 checked={checked} " in out


def test_harness_notes_a_sweep_that_checked_nothing(capsys):
    # No generated instance gives obs1 an eta-maximal collection.
    assert run_command(["harness", "--lemma", "obs1", "--target", "50"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "checked=0 " in out
    assert "note: no configuration met the lemma's hypothesis" in out
    assert run_command(
        ["harness", "--lemma", "injection", "--target", "50"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "checked=50 " in out and "note:" not in out


def test_gen_builds_overlapping_instances_past_n_5(tmp_path):
    path = gen_instance_file(
        tmp_path, n=8, extra=("--mode", "overlapping", "--kappa", "2")
    )
    inst, seq = instances.load_instance(path.read_text())
    assert seq.n == 8 and inst.declared_kappa == 2
    assert seq.overlap_kappa() <= 2


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


def _bench_rows(tmp_path, *args):
    out = tmp_path / "bench.csv"
    code = run_command(["bench", *args, "--no-brute", "--out", str(out)])
    return code, list(csv.DictReader(io.StringIO(out.read_text())))


def test_bench_leaves_an_unknown_bound_empty(tmp_path):
    # Linear n = 8 has 64 elements: its girth is over the search cap and the
    # generator declares no beta, so the theorem's bound is unknown.
    code, rows = _bench_rows(
        tmp_path, "--family", "linear", "--n", "8", "--seeds", "2"
    )
    assert code == EXIT_OK and len(rows) == 2
    for row in rows:
        assert row["beta_declared"] == "" and row["girth"] == "unknown"
        assert row["bound_thm"] == "" and row["bound_applicable"] == "False"


def test_bench_fails_a_row_below_the_bound(tmp_path, monkeypatch):
    # Uniform disjoint n = 5 has beta = 0, so the bound is 1 and applicable;
    # a solve that packs nothing falls below it.
    def nothing(seq, params):
        return SolveResult(Collection(seq.n), [], "fixed_point")

    code, [row] = _bench_rows(
        tmp_path, "--family", "uniform", "--n", "5", "--seeds", "1"
    )
    assert code == EXIT_OK and row["status"] == "ok"
    assert (row["bound_thm"], row["bound_applicable"]) == ("1", "True")
    monkeypatch.setattr(cli, "pack_rainbow_bases", nothing)
    code, [row] = _bench_rows(
        tmp_path, "--family", "uniform", "--n", "5", "--seeds", "1"
    )
    assert code == EXIT_FAIL
    assert row["solver_rbs"] == "0" and row["status"] == "below_bound"


def test_bench_reports_a_budget_stop(tmp_path, monkeypatch):
    # A fill move completes a set, so uniform n = 72 needs about 2n moves
    # and no instance spends the default budget; a budget of one move does.
    monkeypatch.setattr(cli, "SolverParams", lambda: SolverParams(iteration_budget=1))
    out = tmp_path / "bench.csv"
    assert run_command(
        [
            "bench",
            "--family", "uniform",
            "--n", "5",
            "--seeds", "1",
            "--no-brute",
            "--out", str(out),
        ]
    ) == EXIT_BUDGET
    [row] = csv.DictReader(io.StringIO(out.read_text()))
    assert row["moves"] == "1" and row["status"] == "budget"


def test_bench_reports_a_brute_force_budget_stop(tmp_path):
    # n = 6 is above the exact oracle's limit, so its column runs out.
    out = tmp_path / "bench.csv"
    assert run_command(
        ["bench", "--family", "uniform", "--n", "6", "--seeds", "1", "--out", str(out)]
    ) == EXIT_BUDGET
    [row] = csv.DictReader(io.StringIO(out.read_text()))
    assert row["brute_t"] == "" and row["status"] == "budget"


def test_bench_elapsed_ms_times_the_solve_alone(tmp_path, monkeypatch):
    # elapsed_ms is the solve's time in bench as in solve --format csv, so a
    # brute force that takes 0.3 s does not show in it.
    exact = cli.brute_force_t

    def slow(seq, budget):
        time.sleep(0.3)
        return exact(seq, budget)

    monkeypatch.setattr(cli, "brute_force_t", slow)
    out = tmp_path / "bench.csv"
    assert run_command(
        ["bench", "--family", "uniform", "--n", "3", "--seeds", "1", "--out", str(out)]
    ) == EXIT_OK
    [row] = csv.DictReader(io.StringIO(out.read_text()))
    assert row["brute_t"] == "3" and int(row["elapsed_ms"]) < 300


def test_solve_alpha_of_at_least_n_is_a_usage_error(tmp_path, capsys):
    # eta = n - alpha <= 0 would open no set, and the solve would report no
    # rainbow bases at a fixed point.  The check comes before any output.
    inst = str(gen_instance_file(tmp_path, n=4))
    report, log = tmp_path / "report.yaml", tmp_path / "moves.jsonl"
    capsys.readouterr()
    for alpha in ("4", "10"):
        argv = ["solve", "--instance", inst, "--alpha", alpha]
        assert run_command(argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert run_command([*argv, "--out", str(report), "--log", str(log)]) == EXIT_USAGE
        assert not report.exists() and not log.exists()
    argv = ["solve", "--instance", inst, "--alpha", "3", "--out", str(report)]
    assert run_command(argv) == EXIT_OK
    assert yaml.safe_load(report.read_text())["rainbow_bases"] >= 1


def test_usage_errors(tmp_path):
    assert run_command(["solve"]) == EXIT_USAGE  # missing required option
    assert run_command(["gen", "--family", "nosuch", "--n", "3"]) == EXIT_USAGE
    assert run_command(
        ["solve", "--instance", "/nonexistent/inst.yaml"]
    ) == EXIT_USAGE
    inst = str(gen_instance_file(tmp_path))
    out_of_range = [
        ["solve", "--instance", inst, "--budget-ms", "0"],
        ["solve", "--instance", inst, "--budget-ms", "-4"],
        ["solve", "--instance", inst, "--alpha", "-2"],
        ["solve", "--instance", inst, "--depth", "0"],
        ["brute", "--instance", inst, "--budget-ms", "0"],
        ["harness", "--lemma", "exchange", "--budget-ms", "0"],
        ["harness", "--lemma", "exchange", "--target", "0"],
        ["harness", "--lemma", "exchange", "--family", "nosuch"],
        ["bench", "--family", "uniform", "--n", "3", "--budget-ms", "0"],
        ["bench", "--family", "uniform", "--n", "0"],
        ["bench", "--family", "uniform", "--n", "3", "--seeds", "0"],
        ["bench", "--family", "uniform", "--n", "3", "--seeds", "-1"],
        ["bench", "--family", "uniform", "--n", "3", "--kappa", "1"],
        ["gen", "--family", "uniform", "--n", "0"],
        ["gen", "--family", "uniform", "--n", "3", "--kappa", "-5"],
        ["gen", "--family", "uniform", "--n", "3", "--mode", "overlapping", "--kappa", "1"],
        ["bounds", "--n", "-1", "--beta", "0"],
        ["bounds", "--n", "3", "--beta", "-1"],
        ["bounds", "--n", "3", "--beta", "0", "--kappa", "0"],
    ]
    for argv in out_of_range:
        assert run_command(argv) == EXIT_USAGE, argv


def test_unwritable_output_is_usage_error(tmp_path):
    inst = str(gen_instance_file(tmp_path))
    nowhere = str(tmp_path / "missing" / "out")  # its directory does not exist
    unwritable = [
        ["gen", "--family", "uniform", "--n", "3", "--out", nowhere],
        ["solve", "--instance", inst, "--out", nowhere],
        ["solve", "--instance", inst, "--log", nowhere],
        ["bench", "--family", "uniform", "--n", "3", "--seeds", "1", "--out", nowhere],
    ]
    for argv in unwritable:
        assert run_command(argv) == EXIT_USAGE, argv


def test_unwritable_output_fails_before_solving(tmp_path, monkeypatch):
    inst = str(gen_instance_file(tmp_path))
    nowhere = str(tmp_path / "missing" / "out")

    def never(*args):
        raise AssertionError("solved before opening the output paths")

    monkeypatch.setattr(cli, "pack_rainbow_bases", never)
    for argv in (
        ["solve", "--instance", inst, "--out", nowhere],
        ["solve", "--instance", inst, "--log", nowhere],
        ["bench", "--family", "uniform", "--n", "3", "--seeds", "2", "--out", nowhere],
    ):
        assert run_command(argv) == EXIT_USAGE, argv


def test_invalid_instance_file_fails(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "version: 1\nmatroid: {family: uniform, params: {k: 2, m: 4}}\n"
        "bases: [[0], [2, 3]]\n"
    )
    assert run_command(["solve", "--instance", str(bad)]) == EXIT_FAIL


MALFORMED_INSTANCES = (
    "just: [a, scalar",  # not YAML
    "- a\n- list\n",  # not a mapping
    "version: 99\nmatroid: {family: uniform, params: {k: 2, m: 4}}\nbases: [[0, 1], [2, 3]]\n",
    "version: 1\nbases: [[0, 1], [2, 3]]\n",  # no matroid
    "version: 1\nmatroid: {family: nosuch, params: {}}\nbases: [[0, 1], [2, 3]]\n",
    # a parameter the family does not take
    "version: 1\nmatroid: {family: uniform, params: {k: 2, m: 4, circuit_hyperplanes: [[0, 1]]}}\n"
    "bases: [[0, 1], [2, 3]]\n",
    "version: 1\nmatroid: {family: uniform, params: {k: 2, m: 4}}\nbases: [[0], [2, 3]]\n",
    "version: 1\nmatroid: {family: uniform, params: {k: 2, m: 4}}\nbases: [[0, 1], [0, 1]]\n"
    "declared: {kappa: 1}\n",  # overlap above the declared kappa
    *(
        "version: 1\nmatroid: {family: uniform, params: {k: 2, m: 4}}\nbases: [[0, 1], [2, 3]]\n"
        + section
        for section in (
            "declared: [1, 2]\n",  # not a mapping
            "declared: 5\n",
            "provenance: [a]\n",  # not a mapping
            # falsy, but still not a mapping: only null or absence means none
            "declared: []\n",
            "declared: 0\n",
            "declared: false\n",
            "declared: ''\n",
            "provenance: []\n",
            "provenance: 0\n",
            "declared: {beta: -1}\n",  # a negative beta
            "declared: {kapa: 1}\n",  # a field declared does not have
            # YAML scalars with no Python value
            f"provenance: {{seed: {'9' * 5000}}}\n",  # over Python's int digit limit
            "provenance: {made: 2001-02-30}\n",  # an impossible date
        )
    ),
    # a linear modulus that is a strong pseudoprime to the bases 2, 3, 5 and 7,
    # and one beyond the primality test's range
    *(
        f"version: 1\nmatroid: {{family: linear, params: {{p: {p}, matrix: [[1, 1]]}}}}\n"
        "bases: [[0]]\n"
        for p in (3215031751, 10**25 + 13)
    ),
    # an integer over the digit limit inside a list of integers
    f"version: 1\nmatroid: {{family: uniform, params: {{k: 2, m: 4}}}}\n"
    f"bases: [[0, 1], [2, {'9' * 5000}]]\n",
)


def _short_id(text):
    """The text, with a long run of nines shown by its length."""
    return re.sub("9{100,}", lambda run: f"<{len(run[0])} nines>", text)


@pytest.mark.parametrize("text", MALFORMED_INSTANCES, ids=_short_id)
def test_malformed_instance_exit_codes(tmp_path, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    log = tmp_path / "moves.jsonl"
    log.write_text("")
    for argv in (
        ["solve", "--instance", str(bad)],
        ["solve", "--instance", str(bad), "--format", "csv"],
        ["brute", "--instance", str(bad)],
        ["verify", "--instance", str(bad), "--log", str(log)],
    ):
        assert run_command(argv) == EXIT_FAIL, argv


def test_commands_build_one_base_sequence(tmp_path, monkeypatch):
    built = []

    class Counting(instances.BaseSequence):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    inst = gen_instance_file(tmp_path, family="linear", n=3)
    log = tmp_path / "moves.jsonl"
    monkeypatch.setattr(instances, "BaseSequence", Counting)
    for argv in (
        ["solve", "--instance", str(inst), "--log", str(log), "--out", str(tmp_path / "r")],
        ["solve", "--instance", str(inst), "--format", "csv", "--out", str(tmp_path / "c")],
        ["brute", "--instance", str(inst)],
        ["verify", "--instance", str(inst), "--log", str(log)],
    ):
        built.clear()
        assert run_command(argv) == EXIT_OK
        assert len(built) == 1, argv
