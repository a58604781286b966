"""Packing solver: progress, certificates, logs and replay."""

import copy
import functools
import hashlib
import json
import random
from itertools import combinations, islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rainbowpack import cascade, solver
from rainbowpack.cli import EXIT_OK, run_command
from rainbowpack.errors import (
    CorruptedTraceError,
    InternalInvariantError,
    PreconditionError,
)
from rainbowpack.exchange import ExchangeGraph
from rainbowpack.instances import GENERATOR_FAMILIES, emit_instance, generate_instance
from rainbowpack.matroids import GraphicMatroid
from rainbowpack.model import (
    BaseSequence,
    BoundParams,
    Collection,
    colours_of,
    is_ris,
    lex_compare,
    signature_of_sizes,
    validate_collection,
)
from rainbowpack.oracle import brute_force_t, enumerate_ris, iter_collections
from rainbowpack.solver import (
    SolverParams,
    _takes,
    apply_move,
    augmenting_path,
    dump_move_log,
    load_move_log,
    pack_rainbow_bases,
    replay_moves,
)
from conftest import SUITES, generated_seqs, suite_instances, uniform_seq


def test_solver_params_validation():
    SolverParams()
    with pytest.raises(PreconditionError):
        SolverParams(depth_limit=0)
    with pytest.raises(PreconditionError):
        SolverParams(iteration_budget=0)


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
@pytest.mark.parametrize("mode", ("disjoint", "overlapping"))
def test_augmenting_path_matches_oracle(family, mode):
    # Edmonds: S is a largest common independent set of S | pool exactly
    # when its exchange graph has no augmenting path.
    for n in (2, 3, 4):
        seq = generate_instance(family, n, mode, kappa=2, seed=n).base_sequence()
        all_ris = enumerate_ris(seq)
        for coll in islice(iter_collections(seq, 3, rng=random.Random(n)), 200):
            free = seq.universe - coll.used()
            for S in coll.sets + (frozenset(),):
                if len(S) == seq.n:
                    continue
                larger = any(len(R) > len(S) and R <= S | free for R in all_ris)
                path = augmenting_path(ExchangeGraph(seq, S), sorted(free))
                assert (path is not None) == larger
                if path is not None:
                    removed, added = path
                    T = S - frozenset(removed) | frozenset(added)
                    assert len(T) == len(S) + 1 and is_ris(seq, T)


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
@pytest.mark.parametrize("mode", ("disjoint", "overlapping"))
def test_steal_rules_out_only_elements_no_path_adds(family, mode):
    # _takes may rule out y only where the path search into the pool plus y
    # finds no path or one that leaves y out.
    ruled_out = kept = 0
    for n in (2, 3, 4):
        seq = generate_instance(family, n, mode, kappa=2, seed=n).base_sequence()
        for coll in islice(iter_collections(seq, 3, rng=random.Random(n)), 200):
            free = sorted(seq.universe - coll.used())
            for S in coll.sets:
                if len(S) == seq.n:
                    continue
                graph = ExchangeGraph(seq, S)
                takes = _takes(graph, free)
                for y in sorted(coll.used() - S):
                    path = augmenting_path(graph, sorted(free + [y]))
                    if path is not None and y in path[1]:
                        assert takes(y), (sorted(S), y)
                    ruled_out += not takes(y)
                    kept += takes(y)
    assert ruled_out and kept


def test_a_fill_leaves_nothing_the_set_could_take():
    # An augment move that only adds to a set the collection holds is a fill:
    # it takes every pool element whose colour the set lacks and that keeps
    # the set an RIS, so none is left for a one-element move to add.
    fills = 0
    for name, seq in generated_seqs(range(3, 13)):
        coll, free = Collection(seq.n), sorted(seq.universe)
        for move in pack_rainbow_bases(seq).moves:
            before = len(coll.sets)
            coll = apply_move(seq, coll, move, free)
            changes = move["changes"]
            i = changes[0]["set"]
            adds_only = len(changes) == 1 and not changes[0]["removed"]
            if move["kind"] != "augment" or not adds_only or i == before:
                continue
            fills += 1
            S = coll.sets[i]
            present = colours_of(S)
            left = [y for y in free if y[1] not in present and is_ris(seq, S | {y})]
            assert not left, (name, move, left)
    assert fills > 100


def test_pack_disjoint_uniform_full():
    for n in (2, 3, 4):
        blocks = [set(range(c * n, (c + 1) * n)) for c in range(n)]
        seq = uniform_seq(n, blocks)
        result = pack_rainbow_bases(seq)
        assert result.rb_count == n  # full packing on disjoint uniform
        ok, why = validate_collection(seq, result.collection)
        assert ok, why


def test_pack_never_beats_oracle():
    for family in ("uniform", "sparse_paving", "graphic", "linear"):
        for mode in ("disjoint", "overlapping"):
            inst = generate_instance(family, 3, mode, kappa=2, seed=1)
            seq = inst.base_sequence()
            result = pack_rainbow_bases(seq)
            assert result.rb_count <= brute_force_t(seq)
            ok, why = validate_collection(seq, result.collection)
            assert ok, why


def test_signatures_strictly_increase():
    seq = uniform_seq(3, [{0, 1, 2}, {0, 3, 5}, {1, 3, 4}])
    result = pack_rainbow_bases(seq)
    for move in result.moves:
        assert "signature" in move
    signatures = [[0] * seq.n] + [m["signature"] for m in result.moves]
    for before, after in zip(signatures, signatures[1:]):
        assert lex_compare(after, before) > 0


def test_replay_reproduces_final_collection():
    for seed in range(3):
        inst = generate_instance("sparse_paving", 4, "disjoint", seed=seed)
        seq = inst.base_sequence()
        result = pack_rainbow_bases(seq)
        replayed = replay_moves(seq, result.moves)
        assert replayed.sets == result.collection.sets  # bit-exact


def test_one_element_logs_still_replay():
    # Logs written before a fill could add several elements hold one augment
    # move per element, each with its own signature; they must still replay.
    split = 0
    for name, seq in generated_seqs():
        result = pack_rainbow_bases(seq)
        sets, log = [], []
        for move in result.moves:
            changes = move["changes"]
            i = changes[0]["set"]
            if len(changes) == 1 and not changes[0]["removed"] and i < len(sets):
                for y in changes[0]["added"]:
                    sets[i] |= {y}
                    log.append({
                        "kind": "augment",
                        "changes": [{"set": i, "removed": [], "added": [y]}],
                        "signature": list(signature_of_sizes(map(len, sets), seq.n)),
                    })
                split += len(changes[0]["added"]) > 1
                continue
            sets.append(frozenset())
            for ch in changes:
                sets[ch["set"]] = sets[ch["set"]] - set(ch["removed"]) | set(ch["added"])
            sets = [S for S in sets if S]
            log.append(move)
        replayed = replay_moves(seq, load_move_log(dump_move_log(log)))
        assert replayed.sets == result.collection.sets, name
    assert split > 10


def test_move_log_roundtrip():
    inst = generate_instance("uniform", 3, "overlapping", kappa=2, seed=5)
    seq = inst.base_sequence()
    result = pack_rainbow_bases(seq)
    text = dump_move_log(result.moves)
    assert load_move_log(text) == [
        json.loads(json.dumps(m, sort_keys=True)) for m in result.moves
    ]
    assert replay_moves(seq, load_move_log(text)).sets == result.collection.sets


def test_replay_rejects_tampered_log():
    inst = generate_instance("uniform", 3, "disjoint", seed=0)
    seq = inst.base_sequence()
    result = pack_rainbow_bases(seq)
    assert result.moves[1]["changes"][0]["set"] == 0  # grows the first set
    tampered = copy.deepcopy(result.moves)
    tampered[-1]["signature"] = [9] * seq.n
    with pytest.raises(CorruptedTraceError):
        replay_moves(seq, tampered)
    for key, value in (
        ("added", [[99, 1]]),
        ("added", []),
        ("removed", [[99, 1]]),
        ("set", 5),
        ("set", -1),
    ):
        broken = copy.deepcopy(result.moves)
        broken[0]["changes"][0][key] = value
        with pytest.raises(CorruptedTraceError):
            replay_moves(seq, broken)
    held = result.moves[0]["changes"][0]["added"]
    grown = result.moves[1]["changes"][0]["added"]
    for edit in (
        # removes and re-adds an element the set already holds
        lambda m: m[1]["changes"][0].update(removed=held, added=held + grown),
        # a second change to the same set
        lambda m: m[0]["changes"].append({"set": 0, "removed": [], "added": []}),
        # fields outside the record shape
        lambda m: m[0].update(landing=0),
        lambda m: m[0]["changes"][0].update(witness=[0, 1]),
    ):
        broken = copy.deepcopy(result.moves)
        edit(broken)
        with pytest.raises(CorruptedTraceError):
            replay_moves(seq, broken)
    for edit in (
        # opens set 1 with an element set 0 still holds
        lambda m: m[2]["changes"][0].update(added=held),
        # sets 1 and 2 both gain (2, 1)
        lambda m: m[4]["changes"].insert(
            0, {"set": 1, "removed": [[1, 1]], "added": [[2, 1]]}
        ),
    ):
        broken = copy.deepcopy(result.moves)
        edit(broken)
        with pytest.raises(CorruptedTraceError, match="share"):
            replay_moves(seq, broken)
    for text in ("{not json\n", "[1, 2]\n", "5\n"):
        with pytest.raises(CorruptedTraceError):
            load_move_log(text)
    with pytest.raises(CorruptedTraceError):
        apply_move(seq, Collection(seq.n), {"kind": "nosuch", "changes": []}, sorted(seq.universe))
    # the second change makes its set dependent: edges 0 and 3 are parallel
    triangle = GraphicMatroid(3, [[0, 1], [1, 2], [0, 2], [0, 1]])
    seq = BaseSequence(triangle, [{0, 1}, {2, 3}])
    coll = Collection(2, [{(0, 1)}, {(2, 2)}])
    move = {
        "kind": "augment",
        "changes": [
            {"set": 1, "removed": [], "added": [[1, 1]]},
            {"set": 0, "removed": [], "added": [[3, 2]]},
        ],
    }
    free = sorted(seq.universe - coll.used())
    with pytest.raises(CorruptedTraceError, match="dependent"):
        apply_move(seq, coll, move, free)
    move["changes"][1]["added"] = [[2, 2]]  # held by set 1 before the move
    with pytest.raises(CorruptedTraceError, match="share"):
        apply_move(seq, coll, move, free)


@functools.cache
def _seed0_logs():
    """(name, base sequence, move log as a replay reads it) of the seed-0
    generated instances with n = 3 and 4, every family and mode."""
    return tuple(
        (name, seq, load_move_log(dump_move_log(pack_rainbow_bases(seq).moves)))
        for name, seq in generated_seqs((3, 4))
    )


def _mutate(data, seq, log, signed):
    """One mutation of a copy of ``log``, drawn from ``data``; an unsigned
    copy keeps no recorded signature."""
    log = copy.deepcopy(log)

    def pick(options):
        return data.draw(st.sampled_from(options))

    move = pick(log)
    change = pick(move["changes"])
    how = pick(
        ("drop", "swap", "retarget", "flip", "replace", "duplicate", "signature")[
            : 7 if signed else 6
        ]
    )
    if how == "drop":
        log.remove(move)
    elif how == "swap":
        i, j = pick(list(combinations(range(len(log)), 2)))
        log[i], log[j] = log[j], log[i]
    elif how == "retarget":
        change["set"] = data.draw(st.integers(-1, seq.n + 1))
    elif how == "flip":  # one element between removed and added
        src = pick([key for key in ("removed", "added") if change[key]])
        dst = "added" if src == "removed" else "removed"
        change[dst].append(change[src].pop(pick(range(len(change[src])))))
    elif how == "replace":
        k = pick(range(len(change["added"])))
        change["added"][k] = list(pick(sorted(seq.universe)))
    elif how == "duplicate":
        at = pick(range(len(move["changes"]) + 1))
        move["changes"].insert(at, copy.deepcopy(change))
    else:
        k = pick(range(len(move["signature"])))
        move["signature"][k] += pick((-1, 1))
    for move in log if not signed else ():
        del move["signature"]
    return log


@settings(
    max_examples=300, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_fuzzed_replay_rejects_or_reaches_a_valid_recorded_collection(data):
    # A mutated log replays to a valid collection with the last recorded
    # signature, or is refused with CorruptedTraceError; every accepted move
    # leaves a valid collection with its recorded signature.  Half the logs
    # lose their signatures, which would otherwise refuse most mutations.
    name, seq, log = data.draw(st.sampled_from(_seed0_logs()))
    signed = data.draw(st.booleans())
    log = _mutate(data, seq, log, signed)
    coll, free = Collection(seq.n), sorted(seq.universe)
    try:
        for move in log:
            coll = apply_move(seq, coll, move, free)
            assert validate_collection(seq, coll) == (True, None), name
            if signed:
                assert list(coll.signature) == move["signature"], name
    except CorruptedTraceError:
        with pytest.raises(CorruptedTraceError):
            replay_moves(seq, log)
        return
    assert replay_moves(seq, log) == coll


def _random_change(rng, seq, coll, i):
    S = (*coll.sets, frozenset())[i]
    removed = rng.sample(sorted(S), rng.randint(0, min(1, len(S))))
    # mostly unused elements; sometimes elements another set holds
    if rng.random() < 0.7:
        pool = sorted(seq.universe - coll.used())
    else:
        pool = sorted(seq.universe - S)
    added = rng.sample(pool, min(len(pool), rng.randint(1, 2)))
    return {"set": i, "removed": sorted(map(list, removed)), "added": sorted(map(list, added))}


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
@pytest.mark.parametrize("mode", ("disjoint", "overlapping"))
def test_apply_move_accepts_exactly_valid_rising_moves(family, mode):
    rng = random.Random(f"{family} {mode}")
    accepted = rejected = 0
    for n in (3, 4, 5):
        seq = generate_instance(family, n, mode, kappa=2, seed=n).base_sequence()
        colls, free = [Collection(n)], sorted(seq.universe)
        for move in pack_rainbow_bases(seq).moves:
            colls.append(apply_move(seq, colls[-1], move, free))
        for _ in range(40):
            coll = rng.choice(colls)
            slots = range(len(coll.sets) + 1)  # the last one opens a new set
            touched = rng.sample(slots, min(len(slots), rng.randint(1, 2)))
            move = {
                "kind": "augment",
                "changes": [_random_change(rng, seq, coll, i) for i in touched],
            }
            sets = [*coll.sets, frozenset()]
            for ch in move["changes"]:
                i = ch["set"]
                removed, added = (set(map(tuple, ch[k])) for k in ("removed", "added"))
                sets[i] = sets[i] - removed | added
            sets = [S for S in sets if S]
            expected = None
            if all(len(S) <= n for S in sets):
                result = Collection(n, sets)
                if (
                    validate_collection(seq, result)[0]
                    and lex_compare(result.signature, coll.signature) > 0
                ):
                    expected = result
            free = sorted(seq.universe - coll.used())
            try:
                got = apply_move(seq, coll, move, free)
            except CorruptedTraceError:
                got = None
            assert got == expected, (n, coll, move)
            assert free == sorted(seq.universe - (got or coll).used())
            if got is None:
                rejected += 1
            else:
                accepted += 1
    assert accepted >= 10 and rejected >= 10, (accepted, rejected)


def _steal_case():
    """uniform n = 3 overlapping, seed 0: one steal move, whose repair takes
    back the element the thief's path removed."""
    inst = generate_instance("uniform", 3, "overlapping", kappa=2, seed=0)
    result = pack_rainbow_bases(inst.base_sequence())
    at = [m["kind"] for m in result.moves].index("steal")
    return inst, result, at


def test_a_steal_move_replays(tmp_path, capsys):
    inst, result, at = _steal_case()
    seq = inst.base_sequence()
    steal = result.moves[at]
    (thief, a_removed, a_added), (victim, b_removed, b_added) = (
        (ch["set"], ch["removed"], ch["added"]) for ch in steal["changes"]
    )
    assert thief != victim and len(a_added) == len(a_removed) + 1
    assert len(b_added) == len(b_removed)
    assert set(a_added) & set(b_removed) and set(a_removed) & set(b_added)
    log = load_move_log(dump_move_log(result.moves))
    assert replay_moves(seq, log).sets == result.collection.sets
    path, log_path, report = tmp_path / "inst.yaml", tmp_path / "moves.jsonl", tmp_path / "r"
    path.write_text(emit_instance(inst))
    assert run_command(
        ["solve", "--instance", str(path), "--log", str(log_path), "--out", str(report)]
    ) == EXIT_OK
    assert load_move_log(log_path.read_text()) == log
    assert run_command(
        ["verify", "--instance", str(path), "--log", str(log_path), "--report", str(report)]
    ) == EXIT_OK
    assert "3 rainbow bases" in capsys.readouterr().out


def test_a_tampered_steal_move_is_rejected():
    inst, result, at = _steal_case()
    seq = inst.base_sequence()
    before = replay_moves(seq, result.moves[:at])
    # without the victim's change, the thief takes an element the victim holds
    broken = copy.deepcopy(result.moves[at])
    del broken["changes"][1]
    with pytest.raises(CorruptedTraceError, match="share"):
        apply_move(seq, before, broken, sorted(seq.universe - before.used()))
    broken = copy.deepcopy(result.moves)
    broken[at]["signature"][-1] += 1
    with pytest.raises(CorruptedTraceError, match=f"move {at}: .*differs from the record"):
        replay_moves(seq, broken)


def test_steal_reaches_the_oracle_where_augment_stopped_short():
    # augment and cascade alone stop at 3 rainbow bases here
    seq = generate_instance("graphic", 4, "disjoint", seed=13).base_sequence()
    result = pack_rainbow_bases(seq)
    assert result.rb_count == brute_force_t(seq) == 4
    assert "steal" in {m["kind"] for m in result.moves}


def _without_steal(monkeypatch):
    """No steal, since a ``_takes`` test that rules out every y leaves the
    steal stage nothing to search: the steal move would solve the instances
    these tests take a cascade move from."""
    monkeypatch.setattr(solver, "_takes", lambda graph, free: lambda y: False)


def test_replay_of_a_cascade_move(monkeypatch):
    _without_steal(monkeypatch)
    inst = generate_instance("graphic", 5, "overlapping", kappa=2, seed=1)
    seq = inst.base_sequence()
    result = pack_rainbow_bases(seq)
    kinds = [m["kind"] for m in result.moves]
    assert kinds.count("cascade") == 1
    at = kinds.index("cascade")
    cascade = result.moves[at]
    assert len(cascade["changes"]) == 4  # root, chain, landing and donor sets
    log = load_move_log(dump_move_log(result.moves))
    assert replay_moves(seq, log).sets == result.collection.sets
    before = replay_moves(seq, log[:at])
    for drop in range(len(cascade["changes"])):
        broken = copy.deepcopy(cascade)
        del broken["changes"][drop]
        with pytest.raises(CorruptedTraceError):
            apply_move(seq, before, broken, sorted(seq.universe - before.used()))


def test_cascade_exchange_invariant_errors_propagate(monkeypatch):
    # A failed donor raises PreconditionError and is skipped; an
    # InternalInvariantError is a bug, so the solve must not swallow it.
    def broken(graph, pairs):
        raise InternalInvariantError("every pair has a partner, yet no cycle")

    monkeypatch.setattr(solver, "cyclic_exchange", broken)
    seq = generate_instance("graphic", 5, "overlapping", kappa=2, seed=1).base_sequence()
    with pytest.raises(InternalInvariantError, match="yet no cycle"):
        pack_rainbow_bases(seq)


def test_a_finders_bad_move_is_an_internal_error(monkeypatch):
    # A move the finder makes must pass apply_move; one that does not is a
    # bug in the solver, not a corrupted log.
    monkeypatch.setattr(
        solver, "_find_move", lambda *args: {"kind": "augment", "changes": []}
    )
    seq = generate_instance("uniform", 3, "disjoint", seed=0).base_sequence()
    with pytest.raises(InternalInvariantError, match="finder made a bad move"):
        pack_rainbow_bases(seq)


def test_cascade_attempts_each_distinct_probe_once(monkeypatch):
    # The k = 1 probe can find the k = 2 probe again; the same exchange
    # attempt would fail the same way, so it is made once.
    attempted = []
    attempt = solver._attempt_exchange

    def recording(seq, coll, probe):
        attempted.append((coll, probe))
        return attempt(seq, coll, probe)

    monkeypatch.setattr(solver, "_attempt_exchange", recording)
    _without_steal(monkeypatch)
    seq = generate_instance("graphic", 4, "disjoint", seed=4).base_sequence()
    pack_rainbow_bases(seq)
    assert attempted
    for (c1, p1), (c2, p2) in zip(attempted, attempted[1:]):
        assert c1 is not c2 or p1 != p2


def test_cascade_move_searches_each_chain_once(monkeypatch):
    # One probe pass per cascade move: no (root, chain) pair is searched twice.
    searched = []  # one list of searched pairs per cascade move
    search, move = cascade.cascade_search, solver._cascade_move

    def recording_move(seq, coll, params):
        searched.append([])
        return move(seq, coll, params)

    def recording_search(seq, root, chain, good=False):
        searched[-1].append((root, chain))
        return search(seq, root, chain, good)

    monkeypatch.setattr(solver, "_cascade_move", recording_move)
    monkeypatch.setattr(cascade, "cascade_search", recording_search)
    for inst in (
        generate_instance("graphic", 4, "disjoint", seed=4),
        generate_instance("graphic", 5, "overlapping", kappa=2, seed=1),
    ):
        pack_rainbow_bases(inst.base_sequence())
    assert any(searched)
    for pairs in searched:
        assert len(pairs) == len(set(pairs))


def test_free_pool_tracks_unused_elements(monkeypatch):
    # Augment moves with removals and cascade moves, which move elements
    # between sets, must leave the pool equal to a from-scratch rebuild, in a
    # solve and in its replay.
    checked = with_removals = 0

    def checking(seq, coll, move, free):
        nonlocal checked, with_removals
        result = apply_move(seq, coll, move, free)
        assert free == sorted(seq.universe - result.used())
        checked += 1
        with_removals += any(ch["removed"] for ch in move["changes"])
        return result

    monkeypatch.setattr(solver, "apply_move", checking)
    for family in GENERATOR_FAMILIES:
        for mode in ("disjoint", "overlapping"):
            for n in range(3, 7):
                for seed in range(3):
                    inst = generate_instance(family, n, mode, kappa=2, seed=seed)
                    seq = inst.base_sequence()
                    solved = checked
                    moves = pack_rainbow_bases(seq).moves
                    assert checked - solved == len(moves)
                    replay_moves(seq, load_move_log(dump_move_log(moves)))
                    assert checked - solved == 2 * len(moves)
    assert with_removals > 0


def _every_kind_instances():
    """(name, base sequence) of small generated instances whose solves make
    every move kind between them: the cascade still moves on graphic
    overlapping n = 8, seed 5."""
    for family in GENERATOR_FAMILIES:
        for mode in ("disjoint", "overlapping"):
            for n in (3, 4, 5):
                for seed in (0, 1):
                    inst = generate_instance(family, n, mode, kappa=2, seed=seed)
                    yield (family, mode, n, seed), inst.base_sequence()
    inst = generate_instance("graphic", 8, "overlapping", kappa=2, seed=5)
    yield ("graphic", "overlapping", 8, 5), inst.base_sequence()


def test_solved_sets_hold_the_universes_objects():
    # Set operations against seq.universe stay identity checks only when the
    # collection holds the universe's own (element, colour) tuples, not copies.
    kinds = set()
    for name, seq in _every_kind_instances():
        own = {ce: ce for ce in seq.universe}
        result = pack_rainbow_bases(seq)
        logged = [
            ch[k] for m in result.moves for ch in m["changes"] for k in ("removed", "added")
        ]
        for S in (*result.collection.sets, *logged):
            assert all(own[ce] is ce for ce in S), name
        kinds.update(m["kind"] for m in result.moves)
    assert kinds == set(solver.MOVE_KINDS) == {"augment", "steal", "cascade"}


def test_replayed_sets_hold_the_universes_objects():
    # A replay reads [element, colour] lists from the log; the collection it
    # builds must still hold the universe's own tuples, as a solve's does.
    for family in GENERATOR_FAMILIES:
        seq = generate_instance(family, 4, "overlapping", kappa=2, seed=1).base_sequence()
        own = {ce: ce for ce in seq.universe}
        log = load_move_log(dump_move_log(pack_rainbow_bases(seq).moves))
        replayed = replay_moves(seq, log)
        assert replayed.sets and all(own[ce] is ce for S in replayed.sets for ce in S), family
        for edit in ([99, 1], [0, seq.n + 1]):  # outside the universe
            broken = copy.deepcopy(log)
            broken[-1]["changes"][0]["added"].append(edit)
            with pytest.raises(CorruptedTraceError, match=f"move {len(log) - 1}: "):
                replay_moves(seq, broken)


def test_moves_keep_the_cached_signature(monkeypatch):
    # Collection trusts a signature it is given, so every collection that
    # apply_move builds, in a solve and in its replay, must carry the
    # signature its set sizes give.
    built = []

    def recording(seq, coll, move, free):
        built.append(apply_move(seq, coll, move, free))
        return built[-1]

    monkeypatch.setattr(solver, "apply_move", recording)
    kinds = set()
    for _, seq in _every_kind_instances():
        moves = pack_rainbow_bases(seq).moves
        replay_moves(seq, moves)
        kinds |= {m["kind"] for m in moves}
    assert kinds == {"augment", "steal", "cascade"}
    for coll in built:
        assert coll.signature == signature_of_sizes(map(len, coll.sets), coll.n)


def _pool_case():
    """U(2, 3) with bases {0, 1} and {0, 2}; sets {(0, 1)} and {(2, 2)}."""
    seq = uniform_seq(2, [{0, 1}, {0, 2}])
    coll = Collection(2, [{(0, 1)}, {(2, 2)}])
    return seq, coll, sorted(seq.universe - coll.used())


def test_apply_move_rejects_an_element_that_is_not_free():
    # a new set takes (0, 1), which set 0 keeps
    seq, coll, free = _pool_case()
    move = {"kind": "augment", "changes": [{"set": 2, "removed": [], "added": [[0, 1]]}]}
    with pytest.raises(CorruptedTraceError, match=r"sets 2 and 0 share \[\(0, 1\)\]"):
        apply_move(seq, coll, move, free)
    assert free == [(0, 2), (1, 1)]


def test_apply_move_accepts_an_element_carried_between_sets():
    # (0, 1) leaves set 0 and joins set 1 in the same move, so it never
    # passes through the pool; the two free elements fill set 0.
    seq, coll, free = _pool_case()
    assert free == [(0, 2), (1, 1)]
    move = {
        "kind": "augment",
        "changes": [
            {"set": 0, "removed": [[0, 1]], "added": [[0, 2], [1, 1]]},
            {"set": 1, "removed": [], "added": [[0, 1]]},
        ],
    }
    result = apply_move(seq, coll, move, free)
    assert result.sets == (frozenset({(0, 2), (1, 1)}), frozenset({(0, 1), (2, 2)}))
    assert free == []
    assert validate_collection(seq, result)[0]


def test_apply_move_rejects_an_element_added_twice_and_keeps_the_pool():
    seq, coll, free = _pool_case()
    for changes, match in (
        # set 1 and a new set both gain the free (1, 1)
        (
            [
                {"set": 1, "removed": [], "added": [[1, 1]]},
                {"set": 2, "removed": [], "added": [[1, 1]]},
            ],
            r"sets 2 and 1 share \[\(1, 1\)\]",
        ),
        # (0, 1) leaves set 0, and set 1 and a new set both gain it
        (
            [
                {"set": 0, "removed": [[0, 1]], "added": [[1, 1]]},
                {"set": 1, "removed": [], "added": [[0, 1]]},
                {"set": 2, "removed": [], "added": [[0, 1]]},
            ],
            r"sets 2 and 1 share \[\(0, 1\)\]",
        ),
    ):
        with pytest.raises(CorruptedTraceError, match=match):
            apply_move(seq, coll, {"kind": "augment", "changes": changes}, free)
        assert free == [(0, 2), (1, 1)]


def test_intermediate_collections_all_valid():
    inst = generate_instance("graphic", 4, "overlapping", kappa=2, seed=2)
    seq = inst.base_sequence()
    result = pack_rainbow_bases(seq)
    coll, free = Collection(seq.n), sorted(seq.universe)
    for move in result.moves:
        coll = apply_move(seq, coll, move, free)
        ok, why = validate_collection(seq, coll)
        assert ok, why
    assert coll.sets == result.collection.sets


def test_iteration_budget_respected():
    seq = uniform_seq(3, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])
    result = pack_rainbow_bases(seq, SolverParams(iteration_budget=2))
    assert len(result.moves) == 2
    assert result.stopped == "budget"
    result = pack_rainbow_bases(seq)
    assert result.stopped == "fixed_point" and result.rb_count == 3


@pytest.mark.parametrize("spare, stopped", [(-1, "budget"), (0, "fixed_point")])
def test_budget_equal_to_the_moves_needed_is_a_fixed_point(spare, stopped):
    """A budget that runs out on the last move a solve needs still reports
    the fixed point it reached; one move fewer is a budget stop."""
    seq = generate_instance("uniform", 4, "disjoint", seed=0).base_sequence()
    full = pack_rainbow_bases(seq)
    assert full.stopped == "fixed_point" and len(full.moves) == 8
    budget = len(full.moves) + spare
    result = pack_rainbow_bases(seq, SolverParams(iteration_budget=budget))
    assert result.stopped == stopped
    assert result.moves == full.moves[:budget]


def test_eta_caps_collection_size():
    seq = uniform_seq(3, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])
    params = SolverParams(bound=BoundParams(alpha=1))
    result = pack_rainbow_bases(seq, params)
    assert len(result.collection.sets) <= 2  # eta = n - alpha = 2


def _solve_suite(suite):
    """(family, solve result) of every instance of a suite, in the order of
    its move-log digest: family, n, mode, seed."""
    for family, inst in suite_instances(suite):
        yield family, pack_rainbow_bases(inst.base_sequence())


def test_uniform_instances_reach_n():
    # A rainbow base of a uniform matroid of rank n is n distinct elements,
    # one per colour: a matching of the colour-element bipartite graph that
    # covers every colour.  Each colour has degree n and each element lies in
    # at most n bases, so König's edge-colouring theorem splits the edges
    # into n such matchings: t = n on every uniform instance.
    cases = [
        (n, mode, seed)
        for ns, seeds in SUITES.values()
        for n in ns
        for mode in ("disjoint", "overlapping")
        for seed in seeds
    ] + [(32, "overlapping", 0), (40, "overlapping", 0)]
    for n, mode, seed in cases:
        seq = generate_instance("uniform", n, mode, kappa=2, seed=seed).base_sequence()
        assert pack_rainbow_bases(seq).rb_count == n, (n, mode, seed)


# The n <= 5 suite: the sha256 over every solve's move log, and the rainbow
# bases found.  A simplification that keeps behaviour keeps both.
SUITE_MOVELOG_SHA256 = "fe4c966429ef558600f2ebe62a2af79b7b2ce1eea4b20f0631bf549a1e209701"
SUITE_RB_TOTAL = 1905


def test_generated_suite_move_logs_are_pinned():
    digest = hashlib.sha256()
    total = 0
    for _, result in _solve_suite("n<=5"):
        digest.update(dump_move_log(result.moves).encode())
        total += result.rb_count
    assert (digest.hexdigest(), total) == (SUITE_MOVELOG_SHA256, SUITE_RB_TOTAL)


# The sha256 over emit_instance of every instance of both suites, n <= 5
# first: generation may change how it builds an instance, not what it emits.
SUITE_INSTANCES_SHA256 = "2fd630ce73ca35ecfab40bd5dc7861a9c76ee0cdbaf008179841f6874074b1f0"


def test_generated_suite_instances_are_pinned():
    digest = hashlib.sha256()
    for suite in ("n<=5", "n=6..12"):
        for _, inst in suite_instances(suite):
            digest.update(emit_instance(inst).encode())
    assert digest.hexdigest() == SUITE_INSTANCES_SHA256


# Rainbow bases found on each suite, in GENERATOR_FAMILIES order.  A
# change of behaviour on purpose may change the logs, but not these totals
# without saying why.
SUITE_FAMILY_TOTALS = {"n<=5": [480, 480, 465, 480], "n=6..12": [576, 576, 548, 576]}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_generated_suites_keep_their_per_family_totals(suite):
    totals = dict.fromkeys(GENERATOR_FAMILIES, 0)
    for family, result in _solve_suite(suite):
        totals[family] += result.rb_count
    assert [totals[f] for f in GENERATOR_FAMILIES] == SUITE_FAMILY_TOTALS[suite]
