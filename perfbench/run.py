"""rainbowpack benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload exact-small --seed 0 --seconds 38 --trace 0

The program is imported from ``src`` beside this directory, never from an
installed copy.  A run builds its instance texts from the seed (see
``gen.py``) and repeats rounds until ``--seconds`` have gone by.  A round
makes one step per instance: parse and build it, solve it, replay its move
log on a fresh base sequence and, on exact-small, run ``brute_force_t`` on a
freshly loaded copy.

``setup_s`` is the median over complete rounds of the time to parse and
build every instance.  The other times sum, over instances, the instance's
mean time over every step of the run.  On a shared machine whose speed
changes from one second to the next, a mean over the whole run varied less
between runs than a median or the fastest repetition did, and interleaving
the operations lets each of them see the whole run.

With ``--trace 1`` the run makes one untraced round, wraps each layer's
public functions (see ``spans.py``), and makes one traced round; on
exact-small it then runs the eight lemma harnesses, traced, at their default
targets.  It reports per-layer counts and self times and the tracing
overhead.

Human-readable figures go to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``).
The exit code is 0 only when every correctness check passed: no operation
raised, every replay reproduced its solve, no solve beat ``brute_force_t``,
every harness completed without counterexamples, and every step of an
instance gave the same move log and optimum (traced or not).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import spans  # noqa: E402

if not os.path.isdir(os.path.join(ROOT, "src", "rainbowpack")):
    sys.exit(f"no program source at {ROOT}/src/rainbowpack")
from rainbowpack import instances, model, oracle, solver  # noqa: E402

# Node budgets only, so that pass or fail does not depend on machine load:
# the wall-clock limit is set out of reach.
NODE_BUDGET_ONLY = oracle.OracleBudget(wall_ms=10**9)
SETUP_SAMPLES = 3
MODES = ("disjoint", "overlapping")


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple  # (family, n, mode, index)
    brute: bool = False
    harness: bool = False  # the eight lemma harnesses, in the traced run only
    required_spans: tuple = ()


def _cells(families, ns, modes):
    return tuple((f, n, m, 0) for f in families for m in modes for n in ns)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-small",
            _cells(gen.FAMILIES, (3, 4, 5), MODES),
            brute=True,
            harness=True,
            required_spans=(
                "oracle.brute_force_t",
                "oracle.enumerate_rainbow_bases",
                "solver.pack_rainbow_bases",
                "solver.replay_moves",
                "cascade.cascade_search",
                "cascade.good_transform",
                "cascade.build_good_graph",
                "oracle.brute_force_tau_eta",
                "oracle.enumerate_ris",
                "oracle.run_lemma_harness",
            ),
        ),
        Workload(
            "dense-oracle",
            _cells(("graphic",), (16, 20), MODES)
            + _cells(("linear",), (16, 20), ("disjoint",)),
            required_spans=(
                "matroids.is_independent",
                "matroids.girth",
                "exchange.add_set",
                "exchange.arrow",
                "cascade.concentration_probe",
                "instances.parse_instance",
            ),
        ),
        Workload(
            "closed-form-large",
            _cells(("uniform", "sparse_paving"), (32, 40), ("disjoint",)),
            required_spans=(
                "model.validate_collection",
                "model.is_ris",
                "solver.pack_rainbow_bases",
            ),
        ),
    )
}

# (module, attribute, span name, wrapper options).  Spans cover the public
# functions of each layer that the per-layer metrics name, plus
# Instance.base_sequence, so that base validation is not counted as
# parse_instance self time.
SPANS = (
    ("matroids", "Matroid.is_independent", "matroids.is_independent", {}),
    ("matroids", "girth", "matroids.girth", {}),
    ("model", "validate_collection", "model.validate_collection", {}),
    ("model", "is_ris", "model.is_ris", {}),
    ("exchange", "add_set", "exchange.add_set", {}),
    ("exchange", "arrow", "exchange.arrow", {}),
    ("exchange", "cyclic_exchange", "exchange.cyclic_exchange", {}),
    ("exchange", "transition", "exchange.transition", {}),
    (
        "cascade", "concentration_probe", "cascade.concentration_probe",
        {"tally": lambda r: {"hits": int(r is not None)}},
    ),
    ("cascade", "cascade_search", "cascade.cascade_search", {}),
    ("cascade", "good_transform", "cascade.good_transform", {}),
    ("cascade", "build_good_graph", "cascade.build_good_graph", {}),
    ("solver", "pack_rainbow_bases", "solver.pack_rainbow_bases", {}),
    ("solver", "replay_moves", "solver.replay_moves", {}),
    (
        "oracle", "enumerate_rainbow_bases", "oracle.enumerate_rainbow_bases",
        {"tally": lambda r: {"count": len(r)}},
    ),
    ("oracle", "brute_force_t", "oracle.brute_force_t", {}),
    ("oracle", "brute_force_tau_eta", "oracle.brute_force_tau_eta", {}),
    ("oracle", "enumerate_ris", "oracle.enumerate_ris", {}),
    (
        "oracle", "run_lemma_harness", "oracle.run_lemma_harness",
        {
            "label": lambda args, kwargs: args[0],  # the lemma id
            "tally": lambda r: {"exercised": r.exercised},
        },
    ),
    ("instances", "parse_instance", "instances.parse_instance", {}),
    ("instances", "Instance.base_sequence", "instances.base_sequence", {}),
)

MOVE_KINDS = ("seed", "grow", "swapgrow", "cascade")


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def fail(self, what: str):
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(what)




@dataclass(frozen=True)
class InstanceRecord:
    """What an instance's first step produced; every later step must match."""

    log: str
    rb: int
    n: int
    verified_rb: int
    brute_t: object  # exact optimum, or None without brute_force_t
    moves: dict


@dataclass
class Samples:
    """Seconds per (operation, instance index), one entry per step."""

    seconds: dict = field(default_factory=dict)

    def add(self, op: str, idx: int, seconds: float):
        self.seconds.setdefault((op, idx), []).append(seconds)

    def total(self, op: str) -> float:
        """Sum over instances of the instance's mean time for ``op``."""
        return sum(statistics.fmean(v) for (o, _), v in self.seconds.items() if o == op)

    def all(self, op: str) -> list:
        return [s for (o, _), v in self.seconds.items() if o == op for s in v]


def instance_texts(workload: Workload, seed: int) -> list:
    return [gen.instance_text(f, n, m, i, seed) for f, n, m, i in workload.cells]


def _solver_params(inst):
    # the settings `rainbowpack solve` uses by default
    bound = model.BoundParams(
        beta=inst.declared_beta or 0, kappa=inst.declared_kappa or 1, alpha=0
    )
    return solver.SolverParams(bound=bound, depth_limit=2, iteration_budget=5000)


def load_all(texts: list) -> float:
    started = time.perf_counter()
    for text in texts:
        instances.parse_instance(text).base_sequence()
    return time.perf_counter() - started


def run_instance(idx, text, ledger, samples, records, brute) -> tuple:
    """One step on one instance: load, solve, replay the log on a fresh base
    sequence and, with ``brute``, run ``brute_force_t`` on a freshly loaded
    copy.

    The first step of an instance stores its outcome in ``records``; a later
    step that differs from it is a failure.  Returns (load seconds, move log
    or None when the step failed).
    """
    t0 = time.perf_counter()
    inst = instances.parse_instance(text)
    seq = inst.base_sequence()
    setup_s = time.perf_counter() - t0
    samples.add("setup", idx, setup_s)
    where = f"instance {idx} ({inst.family}, n={seq.n})"

    ledger.attempted += 1
    t0 = time.perf_counter()
    try:
        result = solver.pack_rainbow_bases(seq, _solver_params(inst))
    except Exception as exc:  # recorded as a failed operation
        ledger.fail(f"{where}: solve raised {exc!r}")
        return setup_s, None
    samples.add("solve", idx, time.perf_counter() - t0)
    log = solver.dump_move_log(result.moves)

    fresh = inst.base_sequence()
    ledger.attempted += 1
    t0 = time.perf_counter()
    try:
        replayed = solver.replay_moves(fresh, solver.load_move_log(log))
    except Exception as exc:  # recorded as a failed operation
        ledger.fail(f"{where}: replay raised {exc!r}")
        return setup_s, None
    samples.add("verify", idx, time.perf_counter() - t0)
    if replayed != result.collection or replayed.signature != result.collection.signature:
        ledger.fail(f"{where}: replay differs from the solve")
        return setup_s, None

    brute_t = None
    if brute:
        bseq = instances.parse_instance(text).base_sequence()
        ledger.attempted += 1
        t0 = time.perf_counter()
        try:
            brute_t = oracle.brute_force_t(bseq, NODE_BUDGET_ONLY)
        except Exception as exc:  # budget hits count as failures too
            ledger.fail(f"{where}: brute_force_t raised {exc!r}")
            return setup_s, None
        samples.add("brute", idx, time.perf_counter() - t0)
        if result.rb_count > brute_t:
            ledger.fail(f"{where}: solver found {result.rb_count} > brute t={brute_t}")

    moves: dict = {}
    for move in result.moves:
        moves[move["kind"]] = moves.get(move["kind"], 0) + 1
    record = InstanceRecord(
        log, result.rb_count, seq.n, replayed.signature[-1], brute_t, moves
    )
    first = records.setdefault(idx, record)
    if first.log != log:
        ledger.fail(f"{where}: move log differs from this instance's first solve")
    elif first.brute_t != brute_t:
        ledger.fail(f"{where}: brute_force_t gave {brute_t}, first {first.brute_t}")
    return setup_s, log


def movelog_sha256(logs: dict) -> str:
    """Digest of the move logs, by instance index."""
    digest = hashlib.sha256()
    for idx in sorted(logs):
        digest.update(f"{idx}\n".encode())
        digest.update(logs[idx].encode())
    return digest.hexdigest()


def run_round(texts, ledger, samples=None, records=None, brute=False) -> str:
    """One step on every instance; returns the round's movelog_sha256."""
    samples = Samples() if samples is None else samples
    records = {} if records is None else records
    logs = {}
    for idx, text in enumerate(texts):
        _, log = run_instance(idx, text, ledger, samples, records, brute)
        if log is not None:
            logs[idx] = log
    return movelog_sha256(logs)


def totals(records: dict) -> dict:
    """Rainbow bases, sum of n, verified bases, brute optimum and move counts."""
    out = {"rb": 0, "n": 0, "verified_rb": 0, "brute_t": 0, "moves": {}}
    for r in records.values():
        out["rb"] += r.rb
        out["n"] += r.n
        out["verified_rb"] += r.verified_rb
        out["brute_t"] += r.brute_t or 0
        for kind, count in r.moves.items():
            out["moves"][kind] = out["moves"].get(kind, 0) + count
    return out


def run_harness(lemma: str, ledger: Ledger) -> float:
    """One lemma harness at its default targets; returns seconds taken."""
    ledger.attempted += 1
    t0 = time.perf_counter()
    try:
        report = oracle.run_lemma_harness(lemma, budget=NODE_BUDGET_ONLY)
    except Exception as exc:  # recorded as a failed operation
        ledger.fail(f"harness {lemma} raised {exc!r}")
        return time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    if report.counterexamples:
        ledger.fail(f"harness {lemma}: {len(report.counterexamples)} counterexamples")
    if not report.complete:
        ledger.fail(f"harness {lemma}: incomplete sweep ({report.notes})")
    return elapsed


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(workload: Workload, texts: list, seconds: float, ledger: Ledger):
    """Untraced run; returns (end-to-end metrics, report lines).

    Rounds of one step per instance repeat while the next step, taking as
    long as that instance's previous step, would end within ``seconds`` of
    the start.
    """
    deadline = time.perf_counter() + seconds
    samples, records, logs, cost = Samples(), {}, {}, {}
    rounds, setups = 0, []
    finished = False
    while not finished:
        round_setup = 0.0
        for idx, text in enumerate(texts):
            if rounds and time.perf_counter() + cost[idx] > deadline:
                finished = True
                break
            t0 = time.perf_counter()
            setup_s, log = run_instance(idx, text, ledger, samples, records, workload.brute)
            cost[idx] = time.perf_counter() - t0
            round_setup += setup_s
            if log is not None and rounds == 0:
                logs[idx] = log
        else:
            setups.append(round_setup)
            rounds += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(load_all(texts))

    got = totals(records)
    setup_s = statistics.median(setups)
    solve_s, verify_s = samples.total("solve"), samples.total("verify")
    brute_s = samples.total("brute")
    solve_ms = [1000.0 * s for s in samples.all("solve")]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "verify_s": (verify_s, "s"),
        "run_s": (setup_s + solve_s + verify_s + brute_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "rb_ratio": (got["rb"] / max(1, got["n"]), "ratio"),
        "certified_rb_per_s": (got["verified_rb"] / max(1e-9, solve_s + verify_s), "1/s"),
    }
    report = dict(metrics)
    report["solve_ms.p50"] = (_percentile(solve_ms or [0.0], 0.5), "ms")
    report["solve_ms.p95"] = (_percentile(solve_ms or [0.0], 0.95), "ms")
    if workload.brute:
        report["brute_s"] = (brute_s, "s")
        report["oracle_gap"] = (got["brute_t"] - got["rb"], "RB")
    report["failed_frac"] = (ledger.failed / max(1, ledger.attempted), "ratio")
    lines = [
        f"workload {workload.name}: {len(texts)} instances, {rounds} complete rounds, "
        f"{len(solve_ms)} solve samples, {len(setups)} setup samples",
        f"movelog_sha256 {movelog_sha256(logs)}",
        f"rainbow bases {got['rb']} of {got['n']}"
        + (f", brute_t total {got['brute_t']}" if workload.brute else ""),
        "moves " + " ".join(f"{k}={got['moves'].get(k, 0)}" for k in MOVE_KINDS),
    ]
    lines += [f"  {name:<20} {value:>14.6f} {unit}" for name, (value, unit) in report.items()]
    return metrics, lines


def measure_traced(workload: Workload, texts: list, ledger: Ledger):
    """One untraced and one traced round; returns (per-layer metrics, lines)."""
    records = {}
    plain = Samples()
    plain_sha = run_round(texts, ledger, plain, records, workload.brute)

    tracer = spans.Tracer()
    spans.install(tracer, "rainbowpack", SPANS)
    traced = Samples()
    traced_sha = run_round(texts, ledger, traced, records, workload.brute)
    harness_s = 0.0
    if workload.harness:
        for lemma in oracle.HARNESS_IDS:
            harness_s += run_harness(lemma, ledger)
    if traced_sha != plain_sha:
        ledger.fail("traced move logs differ from untraced ones")
    for name in workload.required_spans:
        if tracer.totals(name).calls == 0:
            ledger.fail(f"span {name} recorded no calls on {workload.name}")
    moves = totals(records)["moves"]

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def span_figures(span, calls=True, failed=False):
        s = tracer.totals(span)
        if calls:
            put(f"{span}.calls", s.calls, "count")
        if failed:
            put(f"{span}.failed", s.failed, "count")
        put(f"{span}.self_s", s.self_s, "s")

    span_figures("matroids.is_independent")
    span_figures("matroids.girth", calls=False)
    span_figures("model.validate_collection")
    span_figures("model.is_ris")
    span_figures("exchange.add_set")
    span_figures("exchange.arrow")
    span_figures("exchange.cyclic_exchange", failed=True)
    span_figures("exchange.transition", failed=True)
    probe = tracer.totals("cascade.concentration_probe")
    hits = tracer.tallies.get(("cascade.concentration_probe", "hits"), 0)
    put("cascade.concentration_probe.calls", probe.calls, "count")
    put("cascade.concentration_probe.hits", hits, "count")
    put("cascade.concentration_probe.hit_ratio", hits / max(1, probe.calls), "ratio")
    put("cascade.concentration_probe.self_s", probe.self_s, "s")
    span_figures("cascade.cascade_search")
    span_figures("cascade.good_transform")
    span_figures("cascade.build_good_graph", calls=False)
    for kind in MOVE_KINDS:
        put(f"solver.moves.{kind}", moves.get(kind, 0), "count")
    span_figures("solver.pack_rainbow_bases", calls=False)
    span_figures("solver.replay_moves", calls=False)
    span_figures("oracle.enumerate_rainbow_bases", calls=False)
    put(
        "oracle.enumerate_rainbow_bases.count",
        tracer.tallies.get(("oracle.enumerate_rainbow_bases", "count"), 0),
        "count",
    )
    span_figures("oracle.brute_force_t", calls=False)
    span_figures("oracle.brute_force_tau_eta", calls=False)
    span_figures("oracle.enumerate_ris", calls=False)
    for lemma in oracle.HARNESS_IDS:
        span = f"oracle.run_lemma_harness.{lemma}"
        put(f"{span}.exercised", tracer.tallies.get((span, "exercised"), 0), "count")
        put(f"{span}.self_s", tracer.totals(span).self_s, "s")
    span_figures("instances.parse_instance", calls=False)
    plain_solve_s, traced_solve_s = plain.total("solve"), traced.total("solve")
    put("trace.overhead.solve_s", traced_solve_s - plain_solve_s, "s")

    lines = [
        f"workload {workload.name} (traced): {len(texts)} instances",
        f"movelog_sha256 untraced {plain_sha}",
        f"movelog_sha256 traced   {traced_sha}",
        f"solve_s untraced {plain_solve_s:.6f} traced {traced_solve_s:.6f} "
        f"overhead {traced_solve_s - plain_solve_s:+.6f} s",
    ]
    if workload.brute:
        before, after = plain.total("brute"), traced.total("brute")
        lines.append(
            f"brute_s untraced {before:.6f} traced {after:.6f} overhead {after - before:+.6f} s"
        )
    if workload.harness:
        lines.append(f"harness_s traced {harness_s:.6f} s (eight lemma harnesses)")
    lines += [f"  {name:<48} {value:>14.6f} {unit}" for name, (value, unit) in metrics.items()]
    lines.append("matroids.is_independent by parent span:")
    for parent, s in sorted(
        tracer.by_parent("matroids.is_independent").items(), key=lambda kv: -kv[1].calls
    ):
        lines.append(f"  {str(parent):<40} calls={s.calls:<9} self_s={s.self_s:.6f}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    texts = instance_texts(workload, args.seed)
    ledger = Ledger()
    if args.trace:
        metrics, lines = measure_traced(workload, texts, ledger)
    else:
        metrics, lines = measure(workload, texts, args.seconds, ledger)
    for line in lines:
        print(line)
    for reason in ledger.reasons:
        print(f"FAILED: {reason}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
