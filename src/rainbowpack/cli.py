"""Command-line workbench: generate, solve, brute-force, verify, benchmark."""

from __future__ import annotations

import csv
import io
import sys
import time
from typing import Optional

import click
import yaml

from .bounds import theorem_bounds
from .errors import BudgetExceededError, InputError, RainbowError
from .instances import (
    GENERATOR_FAMILIES,
    Instance,
    dump_yaml,
    emit_instance,
    generate_instance,
    instance_digest,
    load_yaml,
    parse_instance,
    _safe_girth,
)
from .model import BoundParams
from .oracle import (
    HARNESS_FAMILIES,
    HARNESS_IDS,
    OracleBudget,
    brute_force_t,
    run_lemma_harness,
)
from .solver import (
    MOVE_KINDS,
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

# Option types: a value out of range is a usage error (exit 2).
POSITIVE = click.IntRange(min=1)
NON_NEGATIVE = click.IntRange(min=0)

# The instance options of gen and bench, in help order.
_GENERATOR_OPTIONS = (
    click.option("--family", type=click.Choice(GENERATOR_FAMILIES), required=True),
    click.option("--n", type=POSITIVE, required=True),
    click.option("--mode", type=click.Choice(["disjoint", "overlapping"]), default="disjoint"),
    # 2 is the generator's least overlap; disjoint mode ignores the value
    click.option("--kappa", type=click.IntRange(min=2), default=2, show_default=True),
)


def _generator_options(command):
    for option in reversed(_GENERATOR_OPTIONS):  # decorators apply bottom up
        command = option(command)
    return command


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


def _open_out(path: Optional[str]):
    """``path`` opened for writing, closed with the command; None for stdout.

    Commands open their outputs before any solving, so a path that cannot be
    written is a usage error that costs no work.
    """
    if path is None or path == "-":
        return None
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise click.UsageError(f"cannot write output: {exc}")
    click.get_current_context().call_on_close(fh.close)
    return fh


def _write(fh, text: str):
    if fh is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        fh.write(text)


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read {what}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} is not UTF-8 text: {exc}") from exc


def _read_instance(path: str) -> tuple:
    """The instance at ``path`` and its checked base sequence."""
    inst = parse_instance(_read_text(path, "instance"))
    return inst, inst.base_sequence()


def _girth_field(inst: Instance, g) -> str:
    if g is None:
        if inst.declared_beta is None:
            return "unknown"
        return f"declared:beta={inst.declared_beta}"
    return "inf" if g == float("inf") else str(int(g))


@click.group()
def main():
    """Workbench for packing disjoint rainbow bases of a matroid."""


@main.command()
@_generator_options
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=None, help="output path (default stdout)")
def gen(family, n, mode, kappa, seed, out):
    """Generate a seeded instance file."""
    inst = generate_instance(family, n, mode, kappa=kappa, seed=seed)
    _write(_open_out(out), emit_instance(inst))


@main.command()
@click.option("--instance", "instance_path", type=str, required=True)
@click.option("--alpha", type=NON_NEGATIVE, default=0, show_default=True)
@click.option("--depth", type=POSITIVE, default=SolverParams.depth_limit, show_default=True)
@click.option(
    "--budget-ms", type=POSITIVE, default=SolverParams.iteration_budget, show_default=True,
    help="cap on the number of solver moves (not milliseconds); "
    "a solve that reaches it exits 3",
)
@click.option("--out", type=str, default=None, help="report path (default stdout)")
@click.option("--log", "log_path", type=str, default=None, help="move log path (JSONL)")
@click.option(
    "--format", "fmt", type=click.Choice(["text", "csv"]), default="text",
    show_default=True,
)
def solve(instance_path, alpha, depth, budget_ms, out, log_path, fmt):
    """Pack disjoint rainbow bases and report the result."""
    inst, seq = _read_instance(instance_path)
    if alpha >= seq.n:
        # eta = n - alpha would open no set at all
        raise click.BadParameter(f"must be below n = {seq.n}", param_hint="--alpha")
    out_fh, log_fh = _open_out(out), _open_out(log_path)
    params = SolverParams(
        bound=BoundParams(alpha=alpha), depth_limit=depth, iteration_budget=budget_ms
    )
    answers = dict(seq.matroid.answers)  # those of the instance's base checks
    started = time.monotonic()
    result = pack_rainbow_bases(seq, params)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    if log_path:
        _write(log_fh, dump_move_log(result.moves))
    report = {
        "instance_digest": instance_digest(inst),
        "n": seq.n,
        "family": inst.family,
        "signature": list(result.collection.signature),
        "rainbow_bases": result.rb_count,
        "sets": _set_lists(result.collection),
        "moves": len(result.moves),
        "moves_by_kind": _moves_by_kind(result.moves),
        "elapsed_ms": elapsed_ms,
        "move_log": log_path,
        "stopped": result.stopped,
        "independence": {k: v - answers[k] for k, v in seq.matroid.answers.items()},
    }
    if fmt == "csv":
        _write(out_fh, _csv_text([_solve_csv_row(inst, seq, result, elapsed_ms)]))
    else:
        _write(out_fh, dump_yaml(report))
    if result.stopped == "budget":
        sys.exit(EXIT_BUDGET)


def _set_lists(coll) -> list:
    """The collection's sets as a report holds them: sorted
    ``[element, colour]`` lists."""
    return [sorted(map(list, S)) for S in coll.sets]


def _moves_by_kind(moves) -> dict:
    return {kind: sum(m["kind"] == kind for m in moves) for kind in MOVE_KINDS}


def _solve_csv_row(inst, seq, result, elapsed_ms, brute=None):
    """One CSV row; with neither a declared beta nor a computable girth the
    theorem's bound is unknown, so the row leaves it empty and inapplicable.
    An undeclared kappa is the actual overlap."""
    g = _safe_girth(seq.matroid)
    beta = inst.declared_beta
    if beta is None and g is not None:
        beta = max(0, seq.n + 1 - g)  # the least beta the girth allows
    kappa = inst.declared_kappa
    if kappa is None:
        kappa = seq.overlap_kappa()
    bound, applicable = "", False
    if beta is not None:
        record = theorem_bounds(seq.n, beta, kappa, disjoint=seq.is_disjoint())
        bound, applicable = record.bound, record.applicable
    return {
        "instance_digest": instance_digest(inst),
        "n": seq.n,
        "m": seq.matroid.size,
        "family": inst.family,
        "kappa_actual": seq.overlap_kappa(),
        "beta_declared": inst.declared_beta,
        "girth": _girth_field(inst, g),
        "solver_rbs": result.rb_count,
        "brute_t": brute if brute is not None else "",
        "bound_thm": bound,
        "bound_applicable": applicable,
        "moves": len(result.moves),
        "elapsed_ms": elapsed_ms,
        "status": "budget" if result.stopped == "budget" else "ok",
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
@click.option("--budget-ms", type=POSITIVE, default=60000, show_default=True)
def brute(instance_path, budget_ms):
    """Exact maximum number of disjoint rainbow bases (tiny instances)."""
    inst, seq = _read_instance(instance_path)
    t = brute_force_t(seq, OracleBudget(wall_ms=budget_ms))
    click.echo(f"t = {t}")


@main.command()
@click.option("--instance", "instance_path", type=str, required=True)
@click.option("--log", "log_path", type=str, required=True)
@click.option("--report", "report_path", type=str, default=None)
def verify(instance_path, log_path, report_path):
    """Re-derive a solve result from its move log and re-validate every step."""
    inst, seq = _read_instance(instance_path)
    moves = load_move_log(_read_text(log_path, "move log"))
    coll = replay_moves(seq, moves)
    if report_path:
        try:
            report = load_yaml(_read_text(report_path, "report"))
        except yaml.YAMLError as exc:
            raise RainbowError(f"report is not valid YAML: {exc}") from exc
        if not isinstance(report, dict):
            raise RainbowError("report is not a mapping")
        if report.get("instance_digest") != instance_digest(inst):
            raise RainbowError("report digest does not match the instance")
        if report.get("signature") != list(coll.signature):
            raise RainbowError("replayed signature differs from the report")
        if report.get("rainbow_bases") != coll.signature[-1]:
            raise RainbowError("replayed RB count differs from the report")
        if report.get("sets") != _set_lists(coll):
            raise RainbowError("replayed sets differ from the report")
        if report.get("moves") != len(moves):
            raise RainbowError("replayed move count differs from the report")
        if report.get("moves_by_kind") != _moves_by_kind(moves):
            raise RainbowError("replayed moves by kind differ from the report")
    click.echo(
        f"verified: {len(moves)} moves, signature {list(coll.signature)}, "
        f"{coll.signature[-1]} rainbow bases"
    )


@main.command()
@click.option("--lemma", type=click.Choice(HARNESS_IDS), required=True)
@click.option("--family", type=click.Choice(HARNESS_FAMILIES), default="all")
@click.option("--target", type=POSITIVE, default=None)
@click.option("--budget-ms", type=POSITIVE, default=60000, show_default=True)
def harness(lemma, family, target, budget_ms):
    """Run one lemma harness over generated tiny instances."""
    report = run_lemma_harness(
        lemma, family, OracleBudget(wall_ms=budget_ms), target
    )
    click.echo(
        f"lemma={report.lemma} exercised={report.exercised} checked={report.checked} "
        f"counterexamples={len(report.counterexamples)} complete={report.complete}"
    )
    if report.notes:
        click.echo(f"note: {report.notes}")
    for ce in report.counterexamples[:5]:
        click.echo(f"counterexample: {ce}")
    if report.counterexamples:
        sys.exit(EXIT_FAIL)
    if not report.complete:
        sys.exit(EXIT_BUDGET)


@main.command()
@click.option("--n", type=NON_NEGATIVE, required=True)
@click.option("--beta", type=NON_NEGATIVE, required=True)
@click.option("--kappa", type=POSITIVE, default=1, show_default=True)
@click.option("--disjoint/--overlapping", default=True)
def bounds(n, beta, kappa, disjoint):
    """Closed-form lower bound on the number of disjoint rainbow bases."""
    record = theorem_bounds(n, beta, kappa, disjoint)
    status = "applicable" if record.applicable else "inapplicable"
    click.echo(
        f"bound = {record.bound} ({status}; side condition {record.side_condition})"
    )


@main.command()
@_generator_options
@click.option("--seeds", type=POSITIVE, default=10, show_default=True)
@click.option("--budget-ms", type=POSITIVE, default=60000, show_default=True)
@click.option("--no-brute", is_flag=True, help="skip the exact oracle column")
@click.option("--out", type=str, default=None, help="CSV path (default stdout)")
def bench(family, n, mode, kappa, seeds, budget_ms, no_brute, out):
    """Batch solve+brute over seeds and emit one CSV row per instance."""
    out_fh = _open_out(out)
    rows = []
    for seed in range(seeds):
        inst = generate_instance(family, n, mode, kappa=kappa, seed=seed)
        seq = inst.base_sequence()
        started = time.monotonic()
        result = pack_rainbow_bases(seq, SolverParams())
        elapsed_ms = int((time.monotonic() - started) * 1000)  # the solve alone
        brute_t = ""
        status = None  # keep the solve's own status
        if not no_brute:
            try:
                brute_t = brute_force_t(seq, OracleBudget(wall_ms=budget_ms))
            except BudgetExceededError:
                status = "budget"
            else:
                if result.rb_count > brute_t:
                    status = "solver_above_oracle"
        row = _solve_csv_row(inst, seq, result, elapsed_ms, brute=brute_t)
        below = row["bound_applicable"] and result.rb_count < row["bound_thm"]
        if status is not None:
            row["status"] = status
        elif below and row["status"] == "ok":
            row["status"] = "below_bound"  # the paper's bound is not certified
        rows.append(row)
    _write(out_fh, _csv_text(rows))
    if any(r["status"] in ("solver_above_oracle", "below_bound") for r in rows):
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
