"""The benchmark's traced runs on the workloads perfbench's own tests skip,
the move logs its workloads make at seed 0, and how the independence oracle
answers on its dense-oracle workload.

A traced run reports ``correct: false`` when a span its workload requires
stays empty (dense-oracle: ``exchange.arrow``, ``exchange.add_set``,
``cascade.concentration_probe``; closed-form-large: ``model.is_ris``) or when
tracing changes a move log.  ``perfbench/test_perfbench.py`` traces
exact-small only.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from rainbowpack.matroids import GraphicMatroid

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "run.py")

# The benchmark's movelog_sha256 of one round at seed 0.  A speed-up must
# leave the move logs byte-identical; a change of behaviour on purpose
# updates these digests and says why.
SEED0_MOVELOG_SHA256 = {
    "exact-small": "37efab731c1915162b605d83d0df76da8208b8d48ff05853137a3f71ebe01018",
    "dense-oracle": "694ab6f9c496a5b63126979a2383b59f7ea4c90adf01154f820a7bb224d60134",
    "closed-form-large": "786ffaa7a9257b8544dea15bb0d9087553f52a5ffa995de6b0e6c051244c6441",
}

# The independence answers (cached, incremental, scratch) of the seed-0
# dense-oracle instances by step and family, base checks left out: the solve,
# then the replay of its log on a fresh base sequence.  A change to how the
# linear and graphic matroids keep their state shows here first.  The kept
# state follows is_independent alone (a state built for a caller leaves it
# where it was), so a fill's first question about a set the solver has just
# searched is a check from scratch.
SEED0_DENSE_ORACLE_ANSWERS = {
    ("solve", "graphic"): [968, 2178, 179],
    ("solve", "linear"): [36, 628, 38],
    ("replay", "graphic"): [109, 2, 194],
    ("replay", "linear"): [36, 0, 74],
}


@pytest.mark.parametrize("workload", ["dense-oracle", "closed-form-large"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0 and result["correct"], proc.stdout[-2000:]


def _benchmark_module():
    module = sys.modules.get("perfbench_run")
    if module is None:
        spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
        module = sys.modules["perfbench_run"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look the module up
    return module


@pytest.mark.parametrize("workload", sorted(SEED0_MOVELOG_SHA256))
def test_seed0_move_logs_are_pinned(workload):
    run = _benchmark_module()
    ledger = run.Ledger()
    digest = run.run_round(run.instance_texts(run.WORKLOADS[workload], 0), ledger)
    assert ledger.failed == 0, ledger.reasons
    assert digest == SEED0_MOVELOG_SHA256[workload]


def test_seed0_dense_oracle_answer_routing():
    run = _benchmark_module()
    totals: dict = {}
    for text in run.instance_texts(run.WORKLOADS["dense-oracle"], 0):
        inst = run.instances.parse_instance(text)
        log = None
        for step in ("solve", "replay"):
            seq = inst.base_sequence()
            before = dict(seq.matroid.answers)
            if log is None:
                result = run.solver.pack_rainbow_bases(seq, run._solver_params(inst))
                log = run.solver.dump_move_log(result.moves)
            else:
                run.solver.replay_moves(seq, run.solver.load_move_log(log))
            counts = totals.setdefault((step, inst.family), [0, 0, 0])
            for i, kind in enumerate(("cached", "incremental", "scratch")):
                counts[i] += seq.matroid.answers[kind] - before[kind]
    assert totals == SEED0_DENSE_ORACLE_ANSWERS


def test_steal_builds_one_state_per_short_set_and_repair(monkeypatch):
    # One _steal_move call builds short set a's exchange graph once, for its
    # reach test and for every y's path search, and one more graph per
    # repair, so a failed repair leaves a's graph as it was.  Counted on the
    # seed-0 dense-oracle graphic instances; inside a steal, every state
    # built is a graph's.
    run = _benchmark_module()
    solver = run.solver
    build, takes, path, steal = (
        GraphicMatroid._build, solver._takes, solver.augmenting_path, solver._steal_move
    )
    seen: dict = {"builds": 0, "short": [], "repairs": 0}
    calls = []  # (states built, short sets searched, repairs) per call

    def counting_build(self, T):
        seen["builds"] += 1
        return build(self, T)

    def counting_takes(graph, free):
        seen["short"].append(graph)
        return takes(graph, free)

    def counting_path(graph, pool):
        # a repair searches from another set than the short ones
        seen["repairs"] += all(graph.holder != g.holder for g in seen["short"])
        return path(graph, pool)

    def counting_steal(seq, coll, free):
        seen.update(builds=0, short=[], repairs=0)
        move = steal(seq, coll, free)
        calls.append((seen["builds"], len(seen["short"]), seen["repairs"]))
        return move

    monkeypatch.setattr(GraphicMatroid, "_build", counting_build)
    monkeypatch.setattr(solver, "_takes", counting_takes)
    monkeypatch.setattr(solver, "augmenting_path", counting_path)
    monkeypatch.setattr(solver, "_steal_move", counting_steal)
    for text in run.instance_texts(run.WORKLOADS["dense-oracle"], 0):
        inst = run.instances.parse_instance(text)
        if inst.family == "graphic":
            solver.pack_rainbow_bases(inst.base_sequence(), run._solver_params(inst))
    assert all(built <= short + repairs for built, short, repairs in calls), calls
    assert sum(repairs for *_, repairs in calls) > 0
