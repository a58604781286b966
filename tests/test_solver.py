"""Packing solver: progress, certificates, logs and replay."""

import json
import random
from itertools import islice

import pytest

from rainbowpack.errors import CorruptedTraceError, PreconditionError
from rainbowpack.instances import GENERATOR_FAMILIES, generate_instance
from rainbowpack.model import (
    BoundParams,
    Collection,
    is_ris,
    lex_compare,
    validate_collection,
)
from rainbowpack.oracle import brute_force_t, enumerate_ris, iter_collections
from rainbowpack.solver import (
    SolverParams,
    apply_move,
    augmenting_path,
    dump_move_log,
    load_move_log,
    pack_rainbow_bases,
    replay_moves,
)
from conftest import uniform_seq


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
        for coll in islice(iter_collections(seq, 3, all_ris, random.Random(n)), 200):
            free = seq.universe - coll.used()
            for S in coll.sets + (frozenset(),):
                if len(S) == seq.n:
                    continue
                larger = any(len(R) > len(S) and R <= S | free for R in all_ris)
                path = augmenting_path(seq, S, sorted(free))
                assert (path is not None) == larger
                if path is not None:
                    removed, added = path
                    T = S - frozenset(removed) | frozenset(added)
                    assert len(T) == len(S) + 1 and is_ris(seq, T)


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
    for before, after in zip(result.signatures, result.signatures[1:]):
        assert lex_compare(after, before) > 0
    assert len(result.signatures) == len(result.moves) + 1
    for move in result.moves:
        assert "signature" in move


def test_replay_reproduces_final_collection():
    for seed in range(3):
        inst = generate_instance("sparse_paving", 4, "disjoint", seed=seed)
        seq = inst.base_sequence()
        result = pack_rainbow_bases(seq)
        replayed = replay_moves(seq, result.moves)
        assert replayed.sets == result.collection.sets  # bit-exact


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
    assert result.moves
    tampered = [dict(m) for m in result.moves]
    tampered[-1]["signature"] = [9] * seq.n
    with pytest.raises(CorruptedTraceError):
        replay_moves(seq, tampered)
    for key, value in (
        ("added", [[99, 1]]), ("added", []), ("removed", [[99, 1]]), ("set", 5)
    ):
        broken = [dict(m) for m in result.moves]
        broken[0][key] = value
        with pytest.raises(CorruptedTraceError):
            replay_moves(seq, broken)
    with pytest.raises(CorruptedTraceError):
        load_move_log("{not json\n")
    with pytest.raises(CorruptedTraceError):
        apply_move(seq, Collection(seq.n), {"kind": "nosuch"})


def test_intermediate_collections_all_valid():
    inst = generate_instance("graphic", 4, "overlapping", kappa=2, seed=2)
    seq = inst.base_sequence()
    result = pack_rainbow_bases(seq)
    coll = Collection(seq.n)
    for move in result.moves:
        coll = apply_move(seq, coll, move)
        ok, why = validate_collection(seq, coll)
        assert ok, why
    assert coll.sets == result.collection.sets


def test_iteration_budget_respected():
    seq = uniform_seq(3, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])
    result = pack_rainbow_bases(seq, SolverParams(iteration_budget=2))
    assert len(result.moves) <= 2


def test_eta_caps_collection_size():
    seq = uniform_seq(3, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])
    params = SolverParams(bound=BoundParams(alpha=1))
    result = pack_rainbow_bases(seq, params)
    assert len(result.collection.sets) <= 2  # eta = n - alpha = 2
