"""Exact oracles, oracle budgets and lemma harness plumbing."""

import gc
import random
from itertools import combinations

import pytest

from rainbowpack import oracle
from rainbowpack.cli import EXIT_FAIL, run_command
from rainbowpack.errors import BudgetExceededError, InputError
from rainbowpack.exchange import Root
from rainbowpack.instances import GENERATOR_FAMILIES, generate_instance, load_instance
from rainbowpack.matroids import (
    GraphicMatroid,
    LinearMatroid,
    SparsePavingMatroid,
)
from rainbowpack.model import (
    BaseSequence,
    Collection,
    is_ris,
    lex_compare,
    validate_collection,
)
from rainbowpack.oracle import (
    HARNESS_IDS,
    OracleBudget,
    _bits,
    _check_maxsubmax_case,
    _max_disjoint,
    _Meter,
    _qbound_side_condition,
    _rarest,
    _statuses,
    brute_force_t,
    brute_force_t_naive,
    brute_force_tau_eta,
    enumerate_rainbow_bases,
    enumerate_ris,
    iter_collections,
    run_lemma_harness,
)
from conftest import generated_seqs, uniform_seq


def _masks(seq, sets):
    """Each set of coloured elements as its int mask (see ``oracle._bits``)."""
    bit = _bits(seq)
    return [sum(bit[ce] for ce in S) for S in sets]


def _rainbow_bases_from_scratch(seq):
    """Colour-wise backtracking, each extension checked with is_independent."""
    out = []

    def extend(colour, chosen, raw):
        if colour > seq.n:
            out.append(frozenset(chosen))
            return
        for x in sorted(seq.base(colour)):
            if x not in raw and seq.matroid.is_independent(raw | {x}):
                extend(colour + 1, chosen + [(x, colour)], raw | {x})

    extend(1, [], frozenset())
    return tuple(out)


def _ris_from_scratch(seq):
    """Every nonempty RIS in canonical order: a walk over the sorted universe
    that extends each set by later elements, each checked with is_independent."""
    elems = sorted(seq.universe)
    out = []

    def extend(start, chosen):
        for i in range(start, len(elems)):
            x, c = elems[i]
            if any(x == y or c == d for y, d in chosen):
                continue
            if seq.matroid.is_independent([y for y, _ in chosen] + [x]):
                out.append(frozenset(chosen + [(x, c)]))
                extend(i + 1, chosen + [(x, c)])

    extend(0, [])
    return tuple(out)


def test_enumerate_rainbow_bases_matches_from_scratch_search(monkeypatch):
    """Generated instances, n = 3..5 in every family and mode, and n = 6 on
    graphic ones; the other n = 6 instances hold 35k-47k rainbow bases each
    and take seconds here.  enumerate_ris is checked for n = 3..5, order
    included, since the harnesses sample configurations in that order."""
    monkeypatch.setattr(oracle, "MAX_N", 6)
    cases = [*generated_seqs(range(3, 6)), *generated_seqs((6,), ("graphic",))]
    for name, seq in cases:
        got = enumerate_rainbow_bases(seq)
        assert list(got) == _masks(seq, _rainbow_bases_from_scratch(seq)), name
        if seq.n <= 5:
            assert enumerate_ris(seq) == _ris_from_scratch(seq), name


def _decode(seq, mask):
    """The set of coloured elements whose bits ``mask`` holds."""
    universe = sorted(seq.universe)
    return frozenset(ce for i, ce in enumerate(universe) if mask >> i & 1)


# Instances where a wrong girth would let a dependent set through: the
# closed-form girth, then the dependent rainbow transversal.
GIRTH_CASES = {
    # the circuit-hyperplane {0, 3, 6} is a rainbow transversal
    "sparse-paving-rainbow-circuit": (
        BaseSequence(
            SparsePavingMatroid(3, 9, [{0, 3, 6}]), [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}]
        ),
        3,
        {(0, 1), (3, 2), (6, 3)},
    ),
    # column 3 is zero (a loop, girth 1); columns 0 and 2 are parallel
    "linear-zero-column": (
        BaseSequence(LinearMatroid(3, [[1, 0, 1, 0], [0, 1, 0, 0]]), [{0, 1}, {1, 2}]),
        1,
        {(0, 1), (2, 2)},
    ),
    # edges 0 and 3 are parallel (girth 2); edges 0, 4 and 7 form a triangle
    "graphic-parallel-edges": (
        BaseSequence(
            GraphicMatroid(
                4, [(0, 1), (1, 2), (2, 3), (0, 1), (0, 2), (1, 3), (0, 3), (1, 2)]
            ),
            [{0, 1, 2}, {3, 4, 5}, {6, 7, 4}],
        ),
        2,
        {(0, 1), (4, 2), (7, 3)},
    ),
}


@pytest.mark.parametrize("case", sorted(GIRTH_CASES))
def test_enumeration_below_the_girth_matches_from_scratch_search(case):
    seq, girth, dependent = GIRTH_CASES[case]
    assert seq.matroid._girth_closed_form() == girth
    assert not seq.matroid.is_independent(x for x, _ in dependent)
    got = enumerate_rainbow_bases(seq)
    assert list(got) == _masks(seq, _rainbow_bases_from_scratch(seq))
    assert _masks(seq, [dependent])[0] not in got
    assert enumerate_ris(seq) == _ris_from_scratch(seq)


def test_enumerate_rainbow_bases_u24(u24_disjoint):
    rbs = enumerate_rainbow_bases(u24_disjoint)
    assert len(rbs) == 4  # 2 choices for colour 1 x 2 for colour 2
    for rb in rbs:
        rb = _decode(u24_disjoint, rb)
        assert len(rb) == 2 and is_ris(u24_disjoint, rb)


def test_enumerate_rainbow_bases_overlapping(u24_overlapping):
    rbs = enumerate_rainbow_bases(u24_overlapping)
    # colour 1 and colour 2 must pick distinct raws from {0,1}
    assert len(rbs) == 2


def test_brute_force_t_matches_naive():
    instances = [
        uniform_seq(2, [{0, 1}, {2, 3}]),
        uniform_seq(2, [{0, 1}, {0, 1}]),
        uniform_seq(3, [{0, 1, 2}, {0, 3, 5}, {1, 3, 4}]),
        uniform_seq(3, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}]),
        BaseSequence(
            SparsePavingMatroid(2, 4, [frozenset({0, 2})]),
            [{0, 1}, {2, 3}],
        ),
    ] + [
        generate_instance(family, 3, mode, seed=seed).base_sequence()
        for family in GENERATOR_FAMILIES
        for mode in ("disjoint", "overlapping")
        for seed in range(3)
    ]
    for seq in instances:
        assert brute_force_t(seq) == brute_force_t_naive(seq)


def test_brute_force_t_disjoint_uniform_is_n():
    for n in (2, 3):
        blocks = [set(range(c * n, (c + 1) * n)) for c in range(n)]
        seq = uniform_seq(n, blocks)
        assert brute_force_t(seq) == n


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
@pytest.mark.parametrize("mode", ("disjoint", "overlapping"))
@pytest.mark.parametrize("n", (4, 5))
def test_brute_force_t_is_n_on_generated(family, mode, n):
    # Includes uniform overlapping n = 5, where taking rainbow bases greedily
    # in enumeration order falls short of n.
    seq = generate_instance(family, n, mode, seed=0).base_sequence()
    assert brute_force_t(seq) == n


def _most_disjoint(masks):
    """Reference for _max_disjoint: the largest pairwise-disjoint subfamily,
    by trying every subfamily from the largest size down."""
    for k in range(len(masks), 0, -1):
        for sub in combinations(masks, k):
            union = 0
            for m in sub:
                if union & m:
                    break
                union |= m
            else:
                return k
    return 0


def test_max_disjoint_matches_exhaustive_search():
    # Generated instances all have t = n, so random families of n-bit masks
    # over n^2 bits are what reach the search's skip branch (t < n).
    rng = random.Random(0)
    short = 0
    for _ in range(600):
        n = rng.randint(2, 4)
        masks = [
            sum(1 << b for b in rng.sample(range(n * n), n))
            for _ in range(rng.randint(0, 11))
        ]
        expected = _most_disjoint(masks)
        assert _max_disjoint(masks, n, _Meter(OracleBudget())) == expected, masks
        short += expected < n
    assert short > 300


def test_rarest_is_the_lowest_least_held_bit():
    # _max_disjoint's branching element, against a count per live bit
    rng = random.Random(1)
    for _ in range(2000):
        n = rng.randint(1, 5)
        cands = [
            sum(1 << b for b in rng.sample(range(n * n), n))
            for _ in range(rng.randint(1, 200))
        ]
        live = 0
        for m in cands:
            live |= m
        expected = min(
            (1 << i for i in range(live.bit_length()) if live >> i & 1),
            key=lambda bit: sum(1 for m in cands if m & bit),
        )
        assert _rarest(cands, live) == expected, cands


def test_max_disjoint_obeys_node_budget(monkeypatch):
    # every mask holds bit 0 or bit 1, so no three are disjoint
    sets = [{0, 2, 3}, {0, 4, 5}, {0, 6, 7}, {1, 2, 4}, {1, 3, 6}, {1, 5, 8}, {1, 7, 8}]
    masks = [sum(1 << b for b in S) for S in sets]
    meter = _Meter(OracleBudget())
    assert _max_disjoint(masks, 3, meter) == 2
    monkeypatch.setattr(oracle, "MAX_NODES", meter.nodes - 1)
    with pytest.raises(BudgetExceededError):
        _max_disjoint(masks, 3, _Meter(OracleBudget()))


def test_one_node_budget_per_oracle_call(monkeypatch):
    # brute_force_t visits 1,074 enumeration nodes, then 6 search nodes; the
    # cap covers both together
    seq = generate_instance("graphic", 5, "disjoint", seed=0).base_sequence()
    monkeypatch.setattr(oracle, "MAX_NODES", 1079)
    with pytest.raises(BudgetExceededError):
        brute_force_t(seq)
    monkeypatch.setattr(oracle, "MAX_NODES", 1080)
    assert brute_force_t(seq) == 5


def test_oracles_leave_no_garbage_cycles():
    # The searches' results must be freed by reference counting when they
    # return, not held in a reference cycle until a full collection.
    seq = generate_instance("uniform", 5, "overlapping", seed=0).base_sequence()
    for oracle_call in (brute_force_t, enumerate_ris):
        gc.collect()
        gc.disable()
        try:
            oracle_call(seq)
            assert gc.collect() == 0, oracle_call.__name__
        finally:
            gc.enable()


def test_enumerate_ris_counts(u24_disjoint):
    ris = enumerate_ris(u24_disjoint)
    # 4 singletons + 4 rainbow bases
    assert len(ris) == 8
    assert all(is_ris(u24_disjoint, S) for S in ris)
    assert len(set(ris)) == len(ris)


def test_brute_force_tau_eta_exact(u24_disjoint):
    seq = u24_disjoint
    sig, witness = brute_force_tau_eta(seq, eta=2)
    assert sig == (0, 2)
    assert witness.signature == sig
    ok, why = validate_collection(seq, witness)
    assert ok, why


def test_brute_force_tau_eta_matches_exhaustive():
    """Cross-check the branch and bound against a plain stream maximum."""
    instances = [
        uniform_seq(2, [{0, 1}, {0, 1}]),
        uniform_seq(3, [{0, 1, 2}, {0, 3, 5}, {1, 3, 4}]),
    ] + [
        generate_instance(family, 3, mode, seed=0).base_sequence()
        for family in GENERATOR_FAMILIES
        for mode in ("disjoint", "overlapping")
    ]
    for seq in instances:
        for eta in (1, 2, seq.n):
            best = tuple([0] * seq.n)
            for coll in iter_collections(seq, max_sets=eta):
                if lex_compare(coll.signature, best) > 0:
                    best = coll.signature
            sig, _ = brute_force_tau_eta(seq, eta)
            assert sig == best, (eta, sig, best)


def test_tau_eta_monotone_in_eta():
    seq = uniform_seq(3, [{0, 1, 2}, {0, 3, 5}, {1, 3, 4}])
    sigs = [brute_force_tau_eta(seq, eta)[0] for eta in (1, 2, 3)]
    assert lex_compare(sigs[0], sigs[1]) <= 0 and lex_compare(sigs[1], sigs[2]) <= 0


def test_iter_collections_valid_and_distinct(u24_overlapping):
    seq = u24_overlapping
    seen = set()
    for coll in iter_collections(seq, max_sets=2, rng=random.Random(0)):
        ok, why = validate_collection(seq, coll)
        assert ok, why
        assert coll.sets not in seen
        seen.add(coll.sets)
    assert len(seen) > 4


def _sized(n, sizes):
    """A collection with sets of the given sizes, set j on raw elements
    10j, 10j + 1, ... and colours 1, 2, ...; no base sequence needed."""
    return Collection(
        n,
        tuple(
            frozenset((10 * j + c, c) for c in range(1, size + 1))
            for j, size in enumerate(sizes)
        ),
    )


def test_eta_statuses(monkeypatch):
    # a disjoint instance with t = n: tau_n is n rainbow bases, and its
    # submaximal signature is undefined
    seq = uniform_seq(3, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])
    assert _statuses(seq) == {(0, 0, 3): "maximal"}
    # tau_n with no (n-1)-set: the submaximal key is the one-step-below signature
    tau = (0, 0, 2, 0, 4)
    monkeypatch.setattr(oracle, "brute_force_tau_eta", lambda seq, eta: (tau, None))
    statuses = _statuses(seq)
    assert statuses == {tau: "maximal", (0, 0, 1, 2, 3): "submaximal"}
    assert statuses.get(_sized(5, [3, 3, 5, 5, 5, 5]).signature) == "maximal"
    assert statuses.get(_sized(5, [3, 4, 4, 5, 5, 5]).signature) == "submaximal"
    assert statuses.get(_sized(5, [3, 4, 5, 5, 5, 5]).signature) is None
    # tau_n with an (n-1)-set: only the maximal key
    monkeypatch.setattr(
        oracle, "brute_force_tau_eta", lambda seq, eta: ((0, 1, 1), None)
    )
    assert _statuses(seq) == {(0, 1, 1): "maximal"}


def _moved(sizes, index):
    """The root a transition leaves: its collection and the donor's index."""
    return Root(_sized(3, sizes), index, 1)


def test_maxsubmax_cases():
    # n = 3.  (i): tau_3 = (0, 1, 1) holds a 2-set, so only "maximal" exists
    with_two = {(0, 1, 1): "maximal"}
    coll = _sized(3, [2, 3])
    assert _check_maxsubmax_case(with_two, coll, _moved([3, 2], 1)) == (True, None)
    assert _check_maxsubmax_case(with_two, coll, _moved([3, 1], 1)) == (
        False, "result not maximal (case i)",
    )
    assert _check_maxsubmax_case(with_two, coll, _moved([2, 3], 1)) == (
        False, "|S0'|=3 != n-1 (case i)",
    )
    # (ii) and (iii): tau_3 = (1, 0, 1), one step below it (0, 2, 0)
    statuses = {(1, 0, 1): "maximal", (0, 2, 0): "submaximal"}
    coll = _sized(3, [1, 3])
    assert _check_maxsubmax_case(statuses, coll, _moved([2, 2], 1)) == (True, None)
    assert _check_maxsubmax_case(statuses, coll, _moved([1, 3], 0)) == (
        False, "result not submaximal (case ii)",
    )
    coll = _sized(3, [2, 2])
    assert _check_maxsubmax_case(statuses, coll, _moved([3, 1], 1)) == (True, None)
    assert _check_maxsubmax_case(statuses, coll, _moved([3, 1], 0)) == (
        False, "|S0'|=3 != i*(result) (case iii)",
    )
    assert _check_maxsubmax_case(statuses, coll, _moved([1, 1, 2], 2)) == (
        False, "result neither maximal nor submaximal (case iii)",
    )


def test_qbound_side_condition():
    n = 4
    # maximal: S' at most n - 1
    coll = _sized(n, [4, 3, 3, 2])
    assert _qbound_side_condition("maximal", coll, coll.sets[1], n)
    assert not _qbound_side_condition("maximal", coll, coll.sets[0], n)
    # submaximal with two (n-1)-sets: S' below n - 1
    assert _qbound_side_condition("submaximal", coll, coll.sets[3], n)
    assert not _qbound_side_condition("submaximal", coll, coll.sets[1], n)
    # submaximal otherwise: S' below i**, when there is one
    coll = _sized(n, [4, 3, 2, 1])
    assert _qbound_side_condition("submaximal", coll, coll.sets[3], n)
    assert not _qbound_side_condition("submaximal", coll, coll.sets[2], n)
    # ... and never when there is no i**
    assert not _qbound_side_condition("submaximal", _sized(n, [4, 3]), frozenset(), n)


def test_budget_node_cap(monkeypatch):
    n = 4
    blocks = [set(range(c * n, (c + 1) * n)) for c in range(n)]
    seq = uniform_seq(n, blocks)
    monkeypatch.setattr(oracle, "MAX_NODES", 10)
    with pytest.raises(BudgetExceededError):
        enumerate_ris(seq)
    with pytest.raises(InputError):
        OracleBudget(wall_ms=0)  # the wall-clock budget must be positive


def test_budget_size_gate():
    n = 6
    blocks = [set(range(c * n, (c + 1) * n)) for c in range(n)]
    seq = uniform_seq(n, blocks)
    with pytest.raises(BudgetExceededError):
        enumerate_rainbow_bases(seq)  # n = 6 is above oracle.MAX_N


def test_harness_ids_and_unknown_lemma():
    assert set(HARNESS_IDS) == {
        "swappable",
        "injection",
        "maxsubmax",
        "exchange",
        "levelbound",
        "qbound",
        "obs1",
        "obs2",
    }
    with pytest.raises(InputError):
        run_lemma_harness("nosuch")
    with pytest.raises(InputError):
        run_lemma_harness("exchange", family="nosuch")


def test_harness_smoke_small_target():
    # tiny-target runs to exercise the sweep plumbing; full-coverage runs
    # live in the acceptance gate
    for lemma in ("swappable", "injection", "obs1"):
        report = run_lemma_harness(lemma, target=40)
        assert report.ok, report.counterexamples[:2]
        assert report.exercised == 40 and report.complete
        # injection's hypothesis always holds; a directly addable witness
        # fails swappable's; every stream collection fails obs1's (t = n)
        assert report.checked == {"swappable": 3, "injection": 40, "obs1": 0}[lemma]


def test_harness_reports_a_broken_lemma(monkeypatch, capsys):
    real = oracle.exchange_injection

    def collapsing(seq, S, c):
        # maps the first two raw elements to one base element
        phi = real(seq, S, c)
        if len(phi) >= 2:
            first, second = sorted(phi)[:2]
            phi[second] = phi[first]
        return phi

    monkeypatch.setattr(oracle, "exchange_injection", collapsing)
    report = run_lemma_harness("injection", target=40)
    assert not report.ok and report.exercised == 40
    ce = next(
        ce for ce in report.counterexamples
        if ce["reason"] == "not injective into base"
    )
    _, seq = load_instance(ce["instance"])
    assert {tuple(xc) for xc in ce["set"]} <= seq.universe
    assert run_command(["harness", "--lemma", "injection"]) == EXIT_FAIL
    assert "not injective into base" in capsys.readouterr().out
