"""Command-line workbench: generate, solve, brute-force, verify, benchmark."""

from __future__ import annotations

import csv
import io
import sys
import time
from dataclasses import dataclass
from typing import Optional

import click
import yaml

from .bounds import theorem_bounds
from .errors import BudgetExceededError, RainbowError
from .instances import (
    GENERATOR_FAMILIES,
    Instance,
    emit_instance,
    generate_instance,
    instance_digest,
    parse_instance,
    _safe_girth,
)
from .model import BoundParams
from .oracle import (
    HARNESS_IDS,
    OracleBudget,
    brute_force_t,
    run_lemma_harness,
)
from .solver import (
    SolverParams,
    dump_move_log,
    load_move_log,
    pack_rainbow_bases,
    replay_moves,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CSV_FIELDS = [
    "instance_digest",
    "n",
    "m",
    "family",
    "kappa_actual",
    "beta_declared",
    "girth",
    "solver_rbs",
    "brute_t",
    "bound_thm",
    "bound_applicable",
    "moves",
    "elapsed_ms",
    "status",
]


def _write(path: Optional[str], text: str):
    if path is None or path == "-":
        click.echo(text, nl=not text.endswith("\n"))
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_text(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read {what}: {exc}")


def _read_instance(path: str) -> Instance:
    return parse_instance(_read_text(path, "instance"))


def _girth_field(inst: Instance) -> str:
    g = _safe_girth(inst.matroid())
    if g is None:
        return f"declared:beta={inst.declared_beta}"
    return "inf" if g == float("inf") else str(int(g))


@click.group()
def main():
    """Workbench for packing disjoint rainbow bases of a matroid."""


@main.command()
@click.option("--family", type=click.Choice(GENERATOR_FAMILIES), required=True)
@click.option("--n", type=int, required=True)
@click.option(
    "--mode", type=click.Choice(["disjoint", "overlapping"]), default="disjoint"
)
@click.option("--kappa", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=None, help="output path (default stdout)")
def gen(family, n, mode, kappa, seed, out):
    """Generate a seeded instance file."""
    inst = generate_instance(family, n, mode, kappa=kappa, seed=seed)
    _write(out, emit_instance(inst))


def _solver_params(alpha, depth, budget_ms, inst) -> SolverParams:
    bound = BoundParams(
        beta=inst.declared_beta or 0,
        kappa=inst.declared_kappa or 1,
        alpha=max(0, alpha),
    )
    iteration_budget = 5000 if budget_ms is None else max(1, budget_ms)
    return SolverParams(bound=bound, depth_limit=depth, iteration_budget=iteration_budget)


@main.command()
@click.option("--instance", "instance_path", type=str, required=True)
@click.option("--alpha", type=int, default=0, show_default=True)
@click.option("--depth", type=int, default=2, show_default=True)
@click.option("--budget-ms", type=int, default=None)
@click.option("--out", type=str, default=None, help="report path (default stdout)")
@click.option("--log", "log_path", type=str, default=None, help="move log path (JSONL)")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "csv"]), default="text",
    show_default=True,
)
def solve(instance_path, alpha, depth, budget_ms, out, log_path, fmt):
    """Pack disjoint rainbow bases and report the result."""
    inst = _read_instance(instance_path)
    seq = inst.base_sequence()
    params = _solver_params(alpha, depth, budget_ms, inst)
    started = time.monotonic()
    result = pack_rainbow_bases(seq, params)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    if log_path:
        _write(log_path, dump_move_log(result.moves))
    report = {
        "instance_digest": instance_digest(inst),
        "n": seq.n,
        "family": inst.family,
        "signature": list(result.collection.signature),
        "rainbow_bases": result.rb_count,
        "sets": [sorted(map(list, S)) for S in result.collection.sets],
        "moves": len(result.moves),
        "elapsed_ms": elapsed_ms,
        "move_log": log_path,
    }
    if fmt == "csv":
        _write(out, _csv_text([_solve_csv_row(inst, seq, result, elapsed_ms)]))
    else:
        _write(out, yaml.safe_dump(report, sort_keys=True))


def _solve_csv_row(inst, seq, result, elapsed_ms, brute=None):
    record = theorem_bounds(
        seq.n,
        inst.declared_beta or 0,
        inst.declared_kappa or 1,
        disjoint=seq.is_disjoint(),
    )
    return {
        "instance_digest": instance_digest(inst),
        "n": seq.n,
        "m": seq.matroid.size,
        "family": inst.family,
        "kappa_actual": seq.overlap_kappa(),
        "beta_declared": inst.declared_beta,
        "girth": _girth_field(inst),
        "solver_rbs": result.rb_count,
        "brute_t": brute if brute is not None else "",
        "bound_thm": record.bound,
        "bound_applicable": record.applicable,
        "moves": len(result.moves),
        "elapsed_ms": elapsed_ms,
        "status": "ok",
    }


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


@main.command()
@click.option("--instance", "instance_path", type=str, required=True)
@click.option("--budget-ms", type=int, default=60000, show_default=True)
def brute(instance_path, budget_ms):
    """Exact maximum number of disjoint rainbow bases (tiny instances)."""
    inst = _read_instance(instance_path)
    seq = inst.base_sequence()
    t = brute_force_t(seq, OracleBudget(wall_ms=budget_ms))
    click.echo(f"t = {t}")


@main.command()
@click.option("--instance", "instance_path", type=str, required=True)
@click.option("--log", "log_path", type=str, required=True)
@click.option("--report", "report_path", type=str, default=None)
def verify(instance_path, log_path, report_path):
    """Re-derive a solve result from its move log and re-validate every step."""
    inst = _read_instance(instance_path)
    seq = inst.base_sequence()
    moves = load_move_log(_read_text(log_path, "move log"))
    coll = replay_moves(seq, moves)
    if report_path:
        try:
            report = yaml.safe_load(_read_text(report_path, "report"))
        except yaml.YAMLError as exc:
            raise RainbowError(f"report is not valid YAML: {exc}") from exc
        if not isinstance(report, dict):
            raise RainbowError("report is not a mapping")
        if report.get("instance_digest") != instance_digest(inst):
            raise RainbowError("report digest does not match the instance")
        if tuple(report.get("signature", ())) != coll.signature:
            raise RainbowError("replayed signature differs from the report")
        if report.get("rainbow_bases") != coll.signature[-1]:
            raise RainbowError("replayed RB count differs from the report")
    click.echo(
        f"verified: {len(moves)} moves, signature {list(coll.signature)}, "
        f"{coll.signature[-1]} rainbow bases"
    )


@main.command()
@click.option("--lemma", type=click.Choice(HARNESS_IDS), required=True)
@click.option("--family", type=str, default="all", show_default=True)
@click.option("--target", type=int, default=None)
@click.option("--budget-ms", type=int, default=60000, show_default=True)
def harness(lemma, family, target, budget_ms):
    """Run one lemma harness over generated tiny instances."""
    report = run_lemma_harness(
        lemma, family, OracleBudget(wall_ms=budget_ms), target
    )
    click.echo(
        f"lemma={report.lemma} exercised={report.exercised} "
        f"counterexamples={len(report.counterexamples)} complete={report.complete}"
    )
    for ce in report.counterexamples[:5]:
        click.echo(f"counterexample: {ce}")
    if report.counterexamples:
        sys.exit(EXIT_FAIL)
    if not report.complete:
        sys.exit(EXIT_BUDGET)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--beta", type=int, required=True)
@click.option("--kappa", type=int, default=1, show_default=True)
@click.option("--disjoint/--overlapping", default=True)
def bounds(n, beta, kappa, disjoint):
    """Closed-form lower bound on the number of disjoint rainbow bases."""
    record = theorem_bounds(n, beta, kappa, disjoint)
    status = "applicable" if record.applicable else "inapplicable"
    click.echo(
        f"bound = {record.bound} ({status}; side condition {record.side_condition})"
    )


@main.command()
@click.option("--family", type=click.Choice(GENERATOR_FAMILIES), required=True)
@click.option("--n", type=int, required=True)
@click.option(
    "--mode", type=click.Choice(["disjoint", "overlapping"]), default="disjoint"
)
@click.option("--kappa", type=int, default=2, show_default=True)
@click.option("--seeds", type=int, default=10, show_default=True)
@click.option("--budget-ms", type=int, default=60000, show_default=True)
@click.option("--no-brute", is_flag=True, help="skip the exact oracle column")
@click.option("--out", type=str, default=None, help="CSV path (default stdout)")
def bench(family, n, mode, kappa, seeds, budget_ms, no_brute, out):
    """Batch solve+brute over seeds and emit one CSV row per instance."""
    rows = []
    for seed in range(seeds):
        inst = generate_instance(family, n, mode, kappa=kappa, seed=seed)
        seq = inst.base_sequence()
        started = time.monotonic()
        status = "ok"
        brute_t = ""
        try:
            result = pack_rainbow_bases(
                seq, _solver_params(0, 2, None, inst)
            )
            if not no_brute:
                brute_t = brute_force_t(seq, OracleBudget(wall_ms=budget_ms))
                if result.rb_count > brute_t:
                    status = "solver_above_oracle"
        except BudgetExceededError:
            status = "budget"
        elapsed_ms = int((time.monotonic() - started) * 1000)
        row = _solve_csv_row(inst, seq, result, elapsed_ms, brute=brute_t)
        row["status"] = status
        rows.append(row)
    _write(out, _csv_text(rows))
    if any(r["status"] == "solver_above_oracle" for r in rows):
        sys.exit(EXIT_FAIL)
    if any(r["status"] == "budget" for r in rows):
        sys.exit(EXIT_BUDGET)


def run_command(argv) -> int:
    """Programmatic entry point mirroring the console script's exit codes."""
    try:
        main.main(args=list(argv), standalone_mode=False)
        return EXIT_OK
    except SystemExit as exc:
        return int(exc.code or 0)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        click.echo(f"budget exhausted: {exc}", err=True)
        return EXIT_BUDGET
    except RainbowError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_FAIL


def console_main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
