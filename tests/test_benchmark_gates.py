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

from rainbowpack.matroids import Matroid

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
    # One _augment_move call builds each short set's exchange graph once, for
    # its path search into the pool, its reach test and every y's steal
    # search, plus one graph for a new set and one per repair, so a failed
    # repair leaves the short set's graph as it was.  A repair is a path
    # search, once the steal stage has begun, from a graph no reach test
    # was given.  Counted on the seed-0 dense-oracle graphic instances.
    run = _benchmark_module()
    solver = run.solver
    Graph, takes, path, augment = (
        solver.ExchangeGraph, solver._takes, solver.augmenting_path, solver._augment_move
    )
    seen: dict = {"builds": 0, "taken": [], "repairs": 0}
    calls = []  # (graphs built, short sets, repairs) per call

    class CountingGraph(Graph):
        def __init__(self, seq, S):
            seen["builds"] += 1
            super().__init__(seq, S)

    def counting_takes(graph, free):
        seen["taken"].append(graph)
        return takes(graph, free)

    def counting_path(graph, pool):
        seen["repairs"] += bool(seen["taken"]) and all(
            graph is not g for g in seen["taken"]
        )
        return path(graph, pool)

    def counting_augment(seq, coll, eta, free):
        seen.update(builds=0, taken=[], repairs=0)
        move = augment(seq, coll, eta, free)
        short = len(solver._short_sets(seq, coll))
        calls.append((seen["builds"], short, seen["repairs"]))
        return move

    monkeypatch.setattr(solver, "ExchangeGraph", CountingGraph)
    monkeypatch.setattr(solver, "_takes", counting_takes)
    monkeypatch.setattr(solver, "augmenting_path", counting_path)
    monkeypatch.setattr(solver, "_augment_move", counting_augment)
    for text in run.instance_texts(run.WORKLOADS["dense-oracle"], 0):
        inst = run.instances.parse_instance(text)
        if inst.family == "graphic":
            solver.pack_rainbow_bases(inst.base_sequence(), run._solver_params(inst))
    assert all(built <= short + 1 + repairs for built, short, repairs in calls), calls
    assert sum(repairs for *_, repairs in calls) > 0


def _seed0_dense_oracle_graphic_solves(run):
    for text in run.instance_texts(run.WORKLOADS["dense-oracle"], 0):
        inst = run.instances.parse_instance(text)
        if inst.family == "graphic":
            run.solver.pack_rainbow_bases(inst.base_sequence(), run._solver_params(inst))


def test_steal_reach_test_admits_only_ys_with_a_path(monkeypatch):
    # Once a short set's path into the pool has failed, _takes is exact:
    # every y it admits has an augmenting path into the pool plus y, and
    # that path adds y.  Checked on the seed-0 dense-oracle graphic instances.
    run = _benchmark_module()
    solver = run.solver
    takes, admitted = solver._takes, []

    def checked_takes(graph, free):
        test = takes(graph, free)

        def checked(y):
            if not test(y):
                return False
            path = solver.augmenting_path(graph, sorted([*free, y]))
            assert path is not None and y in path[1], y
            admitted.append(y)
            return True

        return checked

    monkeypatch.setattr(solver, "_takes", checked_takes)
    _seed0_dense_oracle_graphic_solves(run)
    assert admitted


def test_cascade_exchange_builds_one_state_per_attempt(monkeypatch):
    # _attempt_exchange builds the landing set's exchange graph once, and
    # every donor's cyclic exchange asks it, so one attempt makes at most
    # one state build.  Counted on the seed-0 dense-oracle graphic instances.
    run = _benchmark_module()
    solver = run.solver
    attempt, state = solver._attempt_exchange, Matroid.state
    builds = []  # state builds per attempt
    inside = []  # the attempt in progress

    def counting_state(self, T):
        if inside:
            builds[-1] += 1
        return state(self, T)

    def counting_attempt(seq, coll, probe):
        builds.append(0)
        inside.append(probe)
        try:
            return attempt(seq, coll, probe)
        finally:
            inside.pop()

    monkeypatch.setattr(Matroid, "state", counting_state)
    monkeypatch.setattr(solver, "_attempt_exchange", counting_attempt)
    _seed0_dense_oracle_graphic_solves(run)
    assert builds and all(b <= 1 for b in builds), builds
