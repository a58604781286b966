"""Brute-force ground truth and exhaustive tiny-scale lemma harnesses."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, islice
from typing import Optional, Sequence

from .cascade import _chains, build_good_graph, cascade_search
from .errors import (
    BudgetExceededError,
    InputError,
    LevelBoundViolatedError,
    OracleInconsistencyError,
    PreconditionError,
)
from .exchange import (
    ExchangeGraph,
    add_set,
    arrow,
    cyclic_exchange,
    exchange_injection,
    exchanged_set,
    iter_roots,
    swap_set,
    transition,
)
from .instances import GENERATOR_FAMILIES, _girth_deficit, emit_instance, generate_instance
from .matroids import closure
from .model import (
    BaseSequence,
    Collection,
    colours_of,
    is_ris,
    istar,
    istarstar,
    lex_compare,
    signature_of_sizes,
    submaximal_signature,
    underline,
    validate_ris,
)


# The largest n the exhaustive oracles admit, and the search nodes one
# oracle call may visit.
MAX_N = 5
MAX_NODES = 5_000_000


@dataclass(frozen=True)
class OracleBudget:
    wall_ms: int = 60000

    def __post_init__(self):
        if self.wall_ms < 1:
            raise InputError("the wall-clock budget must be positive")


DEFAULT_BUDGET = OracleBudget()


class _Meter:
    """Shared node/wall accounting for one oracle call."""

    def __init__(self, budget: OracleBudget):
        self.budget = budget
        self.nodes = 0
        self.deadline = time.monotonic() + budget.wall_ms / 1000.0

    def tick(self):
        self.nodes += 1
        if self.nodes > MAX_NODES:
            raise BudgetExceededError(f"node budget {MAX_NODES} exhausted")
        if self.nodes % 1024 == 0 and time.monotonic() > self.deadline:
            raise BudgetExceededError(
                f"wall-clock budget {self.budget.wall_ms} ms exhausted"
            )


def _admit(seq: BaseSequence, budget) -> _Meter:
    """One oracle call's meter; a ``budget`` that is a meter is returned as is."""
    if isinstance(budget, _Meter):
        return budget
    if seq.n > MAX_N:
        raise BudgetExceededError(f"n={seq.n} above oracle cap {MAX_N}")
    return _Meter(budget)


def enumerate_rainbow_bases(
    seq: BaseSequence, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple:
    """All size-n RIS's, one element per colour, by colour-wise backtracking.

    Each rainbow base is an int mask whose bit i marks
    ``sorted(seq.universe)[i]`` (see :func:`_bits`), in the order the
    search finds them: colour 1's choices in sorted order first.
    """
    return tuple(_enumerate(seq, seq.n, budget))


def enumerate_ris(seq: BaseSequence, budget: OracleBudget = DEFAULT_BUDGET) -> tuple:
    """All nonempty RIS's, in canonical order (by their sorted elements)."""
    universe = sorted(seq.universe)
    masks = sorted(map(_set_bits, _enumerate(seq, 1, budget)))
    return tuple(frozenset([universe[i] for i in bits]) for bits in masks)


def _set_bits(mask: int) -> list:
    """The positions of the set bits of ``mask``, lowest first.

    A mask's set bits, lowest first, name its set's elements in sorted
    order, so sorting masks by this key puts their sets in canonical order.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _bits(seq: BaseSequence) -> dict:
    """Each coloured element's bit: ``1 << i`` for ``sorted(seq.universe)[i]``."""
    return {ce: 1 << i for i, ce in enumerate(sorted(seq.universe))}


def _enumerate(seq: BaseSequence, size: int, budget) -> list:
    """Every RIS of at least ``size`` elements as a mask, colour by colour.

    The search plan is built once: each colour's ``(x, bit)`` pairs in
    sorted base order, and the girth the family's closed form gives.  A set
    smaller than the girth holds no circuit, so the search asks no
    independence question below it; without a closed form (0 here) it asks
    about every extension.  :func:`matroids.girth` is not called: its
    exhaustive search costs more than it saves at these sizes.
    """
    bit = _bits(seq)
    choices = [()] + [
        [(x, bit[x, c]) for x in sorted(seq.base(c))] for c in range(1, seq.n + 1)
    ]
    girth = seq.matroid._girth_closed_form()
    out: list = []
    plan = (_admit(seq, budget), seq.matroid, seq.n, size, girth or 0, choices, out)
    _extend_rainbow(plan, 1, [], 0, None)
    return out


# The searches below recurse through module-level helpers, not closures: a
# recursive closure refers to itself, and that cycle would hold its results
# until the next full garbage collection.


def _extend_rainbow(plan: tuple, colour: int, raw: list, mask: int, state):
    """Extend the RIS ``mask``, whose raw elements are ``raw``, from ``colour`` on.

    ``plan`` is :func:`_enumerate`'s ``(meter, matroid, n, size, girth,
    choices, out)``; each set found is appended to ``out``.  An extension
    that stays below the girth needs only a distinct raw element.  From the
    first set that one more element could bring to the girth, ``state`` is
    the independence state of ``raw`` (built there, None before): each
    child is asked about once, and the state grows by ``extend``, unchecked,
    after its own independence answer.  A colour is left out only while the
    later colours can still reach ``size``, so every set that reaches the
    last colour has at least ``size`` elements.
    """
    meter, M, n, size, girth, choices, out = plan
    meter.tick()
    if colour > n:
        out.append(mask)
        return
    ask = len(raw) + 1 >= girth
    if ask and state is None:
        state = M.state(raw)
    for x, b in choices[colour]:
        # x outside T = raw, as the state's own query requires
        if x in raw or ask and not state._query((), (x,)):
            continue
        raw.append(x)
        # the last colour's state would answer no further query
        child = state.extend(x) if ask and colour < n else None
        _extend_rainbow(plan, colour + 1, raw, mask | b, child)
        raw.pop()
    if len(raw) + n - colour >= size:
        _extend_rainbow(plan, colour + 1, raw, mask, state)


def brute_force_t(seq: BaseSequence, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Exact maximum number t of pairwise-disjoint rainbow bases.

    t = n exactly when n rainbow bases cover the n^2 coloured elements, so the
    search is an exact-cover search first (see :func:`_max_disjoint`) and
    finds such a cover directly; its skip branch keeps it exact when none
    exists.  The search takes the int masks of
    :func:`enumerate_rainbow_bases` as they are, and keeps no structure per
    pair of rainbow bases: memory is the list of masks and the filtered
    candidate lists along one path.
    """
    meter = _admit(seq, budget)
    return _max_disjoint(enumerate_rainbow_bases(seq, meter), seq.n, meter)


def _max_disjoint(masks: Sequence[int], n: int, meter: _Meter) -> int:
    """Most pairwise-disjoint masks, capped at n; every mask has n bits set.

    Branch and bound after Knuth's Algorithm X ("Dancing Links",
    arXiv:cs/0011047): branch on the live element (a bit some candidate
    still holds) that the fewest candidates hold, cover it with each of them
    in turn, and only then leave it uncovered.  The search stops once n
    masks are found: n disjoint rainbow bases cover all n^2 coloured
    elements, so no more can exist.
    """
    return _cover(list(masks), 0, 0, n, meter)


def _cover(cands: list, count: int, best: int, n: int, meter: _Meter) -> int:
    meter.tick()
    best = max(best, count)
    live = 0
    for m in cands:
        live |= m
    # every candidate covers n live bits, so at most live/n more fit
    if best == n or count + live.bit_count() // n <= best:
        return best
    e = _rarest(cands, live)
    for m in cands:
        if m & e:
            best = _cover([o for o in cands if not o & m], count + 1, best, n, meter)
            if best == n:
                return best
    return _cover([o for o in cands if not o & e], count, best, n, meter)


def _rarest(cands: list, live: int) -> int:
    """The lowest live bit that the fewest candidates hold.

    Counts are kept bit-sliced: ``planes[k]`` holds bit k of every
    position's count, and each candidate is added with a ripple carry.  The
    planes are then read from the highest, keeping the positions whose
    count has a 0 there whenever one does, which leaves those of least count.
    """
    planes: list = []
    for m in cands:
        for k, plane in enumerate(planes):
            planes[k] = plane ^ m
            m &= plane
            if not m:
                break
        else:
            planes.append(m)
    rarest = live
    for plane in reversed(planes):
        if rarest & ~plane:
            rarest &= ~plane
    return rarest & -rarest


def brute_force_t_naive(
    seq: BaseSequence, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Independent cross-check: plain include/exclude recursion, no ordering."""
    meter = _admit(seq, budget)
    rbs = enumerate_rainbow_bases(seq, meter)
    return _include_exclude(rbs, 0, 0, meter)


def _include_exclude(rbs, idx: int, used: int, meter: _Meter) -> int:
    meter.tick()
    if idx == len(rbs):
        return 0
    skip = _include_exclude(rbs, idx + 1, used, meter)
    if rbs[idx] & used:
        return skip
    return max(skip, 1 + _include_exclude(rbs, idx + 1, used | rbs[idx], meter))


def brute_force_tau_eta(
    seq: BaseSequence, eta: int, budget: OracleBudget = DEFAULT_BUDGET
):
    """Lex-maximum signature over collections of at most eta disjoint RIS's.

    Branch and bound choosing sets in non-increasing size: the optimum's next
    set always has the largest feasible size, since a single such set already
    lex-dominates any continuation without one.  Sets are searched as the
    int masks of the enumeration, in the canonical order of
    :func:`enumerate_ris`, and only the sets picked are decoded.
    """
    if eta < 1:
        raise InputError("eta must be positive")
    meter = _admit(seq, budget)
    masks = sorted(_enumerate(seq, 1, meter), key=_set_bits)
    n = seq.n
    sig, picked = _tau_dfs(
        masks, min(eta, len(masks)), [], [], (tuple([0] * n), ()), n, meter
    )
    universe = sorted(seq.universe)
    sets = (frozenset([universe[i] for i in _set_bits(R)]) for R in picked)
    return sig, Collection(n, tuple(sets))


def _tau_dfs(feasible: list, slots: int, sizes: list, picked: list, best, n, meter):
    """The search of :func:`brute_force_tau_eta`; ``best`` is the best
    (signature, picked masks) so far, and the updated pair is returned."""
    meter.tick()
    if sizes:
        sig = signature_of_sizes(sizes, n)
        if lex_compare(sig, best[0]) > 0:
            best = (sig, tuple(picked))
    if slots == 0 or not feasible:
        return best
    smax = max(R.bit_count() for R in feasible)
    # no continuation of this node can beat filling every slot at size smax
    top = signature_of_sizes(sizes + [smax] * slots, n)
    if lex_compare(top, best[0]) <= 0:
        return best
    for R in feasible:
        if R.bit_count() != smax:
            continue
        rest = [T for T in feasible if not T & R]
        picked.append(R)
        sizes.append(smax)
        best = _tau_dfs(rest, slots - 1, sizes, picked, best, n, meter)
        sizes.pop()
        picked.pop()
        if best[0] == top:
            return best
    return best


def iter_collections(
    seq: BaseSequence, max_sets: int, rng: Optional[random.Random] = None
):
    """Lazy stream of nonempty collections (canonically ordered members).

    A seeded rng shuffles branch order so bounded prefixes of the stream show
    varied shapes rather than lexicographic near-duplicates.
    """
    pool = enumerate_ris(seq)
    order = list(range(len(pool)))
    if rng is not None:
        rng.shuffle(order)
    yield from _walk_collections(seq.n, max_sets, pool, order, 0, [], frozenset())


def _walk_collections(n, max_sets, pool, order, start, chosen, used):
    for pos in range(start, len(order)):
        R = pool[order[pos]]
        if R & used:
            continue
        chosen.append(R)
        yield Collection(n, tuple(chosen))
        if len(chosen) < max_sets:
            yield from _walk_collections(
                n, max_sets, pool, order, pos + 1, chosen, used | R
            )
        chosen.pop()


@dataclass
class HarnessReport:
    lemma: str
    exercised: int = 0
    checked: int = 0  # exercised configurations whose hypothesis held
    counterexamples: list = field(default_factory=list)
    complete: bool = True
    notes: str = ""

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _harness_stream(
    family, ns=(2, 3, 4), modes=("disjoint", "overlapping"), every=GENERATOR_FAMILIES
):
    """Deterministic instance stream, seeds 0..59; 'all' interleaves ``every``
    family."""
    families = every if family == "all" else (family,)
    for seed in range(60):
        for fam in families:
            for n in ns:
                for mode in modes:
                    inst = generate_instance(fam, n, mode, kappa=2, seed=seed)
                    yield inst, inst.base_sequence()


# Larger disjoint instances for qbound: the only desk scale where its side
# conditions (three spare sets and alpha above the overlap) can hold.
_qbound_stream = partial(
    _harness_stream, ns=(5,), modes=("disjoint",), every=("uniform", "sparse_paving")
)


def _some_collections(seq, rng, per_instance=30, max_sets=None):
    """The stream's first ``per_instance`` collections, less those made only
    of rainbow bases: they have no roots, so no harness examines them."""
    cap = max_sets if max_sets is not None else seq.n
    prefix = islice(iter_collections(seq, cap, rng=rng), per_instance)
    return [coll for coll in prefix if coll.signature[seq.n - 1] < len(coll.sets)]


def _statuses(seq):
    """Signature -> "maximal" or "submaximal" against the exact tau_n.

    The submaximal key is left out where the submaximal signature is
    undefined, e.g. when tau_n is n rainbow bases.
    """
    tau, _ = brute_force_tau_eta(seq, seq.n)
    statuses = {tau: "maximal"}
    try:
        statuses[submaximal_signature(tau)] = "submaximal"
    except PreconditionError:
        pass
    return statuses


# Each harness is a generator over one instance's base sequence: for every
# configuration it examines it yields the counterexamples found there, [] when
# the lemma holds there and None when its hypothesis fails.  run_lemma_harness
# does the rest.


def _harness_swappable(seq, rng):
    M = seq.matroid
    for coll in _some_collections(seq, rng):
        for root in iter_roots(seq, coll):
            S = root.ris
            cl = closure(M, underline(S))
            for xpc, witnesses in swap_set(seq, root).items():
                c = xpc[1]
                same_colour = [e for e in S if e[1] == c]
                for yb in witnesses:
                    if is_ris(seq, S | {yb}):
                        yield None  # witness directly addable
                        continue
                    bad = [
                        x
                        for x in sorted(seq.base(c))
                        if x not in cl
                        and not any(
                            is_ris(seq, (S | {(x, c), yb}) - {old})
                            for old in same_colour
                        )
                    ]
                    yield [
                        dict(
                            root=(root.index, root.b), swappable=list(xpc),
                            witness=list(yb), unaddable=bad,
                        )
                    ] if bad else []


def _harness_injection(seq, rng):
    M = seq.matroid
    for S in enumerate_ris(seq):
        raw = underline(S)
        for c in range(1, seq.n + 1):
            where = dict(set=sorted(S), colour=c)
            try:
                phi = exchange_injection(seq, S, c)
            except OracleInconsistencyError:
                yield [dict(where, reason="no injection")]
                continue
            found = []
            values = list(phi.values())
            if len(set(values)) != len(values) or any(
                v not in seq.base(c) for v in values
            ):
                found.append(dict(where, reason="not injective into base"))
            for x, y in phi.items():
                if not M.is_independent(raw - {x} | {y}):
                    found.append(
                        dict(where, swap=[x, y], reason="exchange not independent")
                    )
            yield found


def _harness_maxsubmax(seq, rng):
    statuses = _statuses(seq)
    for coll in _some_collections(seq, rng):
        status = statuses.get(coll.signature)
        for root in iter_roots(seq, coll, size=istar(coll)):
            for rec in add_set(seq, root, coll.used()):
                for variant in rec.variants or (None,):
                    try:
                        moved = transition(seq, root, rec, variant)
                    except PreconditionError:
                        moved = None
                    if moved is None or status is None:
                        yield None  # no transition or no hypothesis
                        continue
                    ok, why = _check_maxsubmax_case(statuses, coll, moved)
                    yield [] if ok else [
                        dict(
                            status=status, signature=list(coll.signature),
                            moved=list(rec.element), reason=why,
                        )
                    ]


def _check_maxsubmax_case(statuses, coll, moved):
    """(ok, reason) for a transition ``moved`` of the eta-maximal or
    eta-submaximal ``coll``, against the signature ``statuses``."""
    n = coll.n
    coll2 = moved.collection
    status = statuses.get(coll.signature)
    result = statuses.get(coll2.signature)
    s0p = len(moved.ris)
    # case i: tau_n, the signature of a maximal input, holds an (n-1)-set
    if status == "maximal" and coll.signature[n - 2] > 0:
        if result != "maximal":
            return False, "result not maximal (case i)"
        if s0p != n - 1:
            return False, f"|S0'|={s0p} != n-1 (case i)"
        return True, None
    if status == "maximal":
        if result != "submaximal":
            return False, "result not submaximal (case ii)"
        try:
            if s0p != n - 1 or istar(coll2) != n - 1:
                return False, "sizes off (case ii)"
        except PreconditionError:
            return False, "i* undefined on result (case ii)"
        return True, None
    # submaximal input, case iii
    try:
        if s0p != istar(coll2):
            return False, f"|S0'|={s0p} != i*(result) (case iii)"
    except PreconditionError:
        return False, "i* undefined on result (case iii)"
    if result is None:
        return False, "result neither maximal nor submaximal (case iii)"
    return True, None


def _harness_exchange(seq, rng):
    candidates = [S for S in enumerate_ris(seq) if len(S) >= 2]
    rng.shuffle(candidates)
    for S in candidates[:12]:
        for S_prime in candidates[:12]:
            if S is S_prime or (S & S_prime):
                continue
            if underline(S) & underline(S_prime):
                continue  # the exchange argument needs fresh raw elements
            shared = sorted(colours_of(S) & colours_of(S_prime))
            if not shared:
                continue
            left = {c: next(e for e in sorted(S) if e[1] == c) for c in shared}
            right = {c: next(e for e in sorted(S_prime) if e[1] == c) for c in shared}
            pairs = [(left[c], right[c]) for c in shared]
            graph = ExchangeGraph(seq, S_prime)
            if not all(any(arrow(graph, l, r) for _, r in pairs) for l, _ in pairs):
                yield None
                continue
            where = dict(S=sorted(S), S_prime=sorted(S_prime))
            try:
                I = cyclic_exchange(graph, pairs)
            except Exception as exc:
                yield [dict(where, reason=f"cyclic_exchange failed: {exc}")]
                continue
            found = []
            ok, why = validate_ris(seq, exchanged_set(S_prime, pairs, I))
            if not I or not ok:
                found.append(dict(where, I=sorted(I), reason=why or "empty index set"))
            # definitional cross-check: some nonempty subset works
            if not any(
                validate_ris(seq, exchanged_set(S_prime, pairs, frozenset(sub)))[0]
                for r in range(1, len(pairs) + 1)
                for sub in combinations(range(len(pairs)), r)
            ):
                found.append(
                    dict(where, reason="no subset at all works; lemma false here")
                )
            yield found


def _harness_levelbound(seq, rng):
    kappa = seq.overlap_kappa()
    # the lemma needs alpha = n - |collection| above kappa
    max_sets = seq.n - kappa - 1
    if max_sets < 1:
        return
    for coll in _some_collections(seq, rng, per_instance=40, max_sets=max_sets):
        alpha = seq.n - len(coll.sets)
        for root in iter_roots(seq, coll):
            graph = build_good_graph(seq, root)
            sizes = graph.cumulative_sizes()
            where = dict(root=(root.index, root.b))
            found = []
            # the graph stops at its first level holding a terminal, so only
            # the last level can hold one
            for lvl in range(len(sizes) - 1):
                if sizes[lvl + 1] * kappa < sizes[lvl] * alpha:
                    found.append(
                        dict(
                            where, level=lvl, sizes=list(sizes),
                            reason="growth ratio below alpha/kappa",
                        )
                    )
            if not graph.terminals:
                found.append(
                    dict(where, reason="no terminal vertices despite alpha > kappa")
                )
            yield found


def _harness_qbound(seq, rng):
    n = seq.n
    kappa = seq.overlap_kappa()
    beta = _girth_deficit(seq.matroid, n) or 0
    statuses = _statuses(seq)
    # at most n - kappa - 1 sets: alpha = n - |collection| is above kappa
    for coll in _some_collections(seq, rng, per_instance=24, max_sets=n - kappa - 1):
        if len(coll.sets) < 3:
            continue
        status = statuses.get(coll.signature)
        for root in iter_roots(seq, coll, size=istar(coll)):
            for _, chain in _chains(coll, (root,), 2):
                try:
                    casc = cascade_search(seq, root, chain, good=True)
                except LevelBoundViolatedError:
                    continue
                occupied = set(chain) | {root.index}
                for j, S in enumerate(coll.sets):
                    if j in occupied:
                        continue
                    q = len([e for e in casc if e in S])
                    if q == 0:
                        continue
                    for jp, S_prime in enumerate(coll.sets):
                        if jp in occupied or jp == j:
                            continue
                        if status is None or not _qbound_side_condition(
                            status, coll, S_prime, n
                        ):
                            yield None
                            continue
                        short = len(underline(S) & underline(S_prime)) < q - 2 * beta
                        yield [
                            dict(
                                status=status, chain=list(chain), q=q,
                                S=sorted(S), S_prime=sorted(S_prime),
                                reason="underline intersection below q-2beta",
                            )
                        ] if short else []


def _qbound_side_condition(status, coll, S_prime, n):
    if status == "maximal":
        return len(S_prime) <= n - 1
    if coll.signature[n - 2] == 2:
        return len(S_prime) < n - 1
    second = istarstar(coll)
    return second is not None and len(S_prime) < second


def _harness_observation(seq, rng, submax):
    n = seq.n
    statuses = _statuses(seq)
    for coll in _some_collections(seq, rng, per_instance=25):
        status = statuses.get(coll.signature)
        hypothesis = status == ("submaximal" if submax else "maximal")
        size = (n - 1) if submax else istar(coll)
        for root in iter_roots(seq, coll, size=size):
            for _, chain in _chains(coll, (root,), 2):
                if not hypothesis:
                    yield None
                    continue
                found = []
                for elem in cascade_search(seq, root, chain):
                    ok, why = _check_observation(seq, coll, chain, elem, submax, n)
                    if not ok:
                        found.append(
                            dict(chain=list(chain), element=list(elem), reason=why)
                        )
                yield found


def _check_observation(seq, coll, chain, elem, submax, n):
    for i in chain:
        size = len(coll.sets[i])
        if not submax and size != n:
            return False, "intermediate set is not an RB"
        if submax:
            if coll.signature[n - 2] == 2 and size < n - 1:
                return False, "intermediate set below n-1"
            if coll.signature[n - 2] == 1:
                second = istarstar(coll)
                if size != n and (second is None or size != second):
                    return False, "intermediate size neither i** nor n"
    landing = coll.index_of_element(elem)
    if landing is None:
        return False, "cascadable element is unused"
    if landing in chain:
        return False, "cascadable element inside the chain"
    if not submax and len(coll.sets[landing]) != n:
        return False, "landing set is not an RB"
    return True, None


_HARNESSES = {
    "swappable": (_harness_swappable, 1000, _harness_stream),
    "injection": (_harness_injection, 1000, _harness_stream),
    "maxsubmax": (_harness_maxsubmax, 1000, _harness_stream),
    "exchange": (_harness_exchange, 1000, _harness_stream),
    "levelbound": (_harness_levelbound, 1000, _harness_stream),
    "qbound": (_harness_qbound, 100, _qbound_stream),
    "obs1": (partial(_harness_observation, submax=False), 1000, _harness_stream),
    "obs2": (partial(_harness_observation, submax=True), 1000, _harness_stream),
}

HARNESS_IDS = tuple(_HARNESSES)
HARNESS_FAMILIES = ("all", *GENERATOR_FAMILIES)


def run_lemma_harness(
    lemma: str,
    family: str = "all",
    budget: OracleBudget = DEFAULT_BUDGET,
    target: Optional[int] = None,
) -> HarnessReport:
    """Sweep generated tiny instances checking one lemma's contract.

    The sweep counts every examined configuration (root, chain, transition or
    pair system) as exercised, and those on which the lemma's hypotheses hold,
    the only ones its conclusion is checked on, as checked.  It stops after the
    configuration that reaches the target, or the first one past the
    budget's wall clock.  An incomplete sweep, or a complete one that checked
    nothing, says so in the report's notes.
    """
    if lemma not in _HARNESSES:
        raise InputError(
            f"unknown lemma id {lemma!r}; known: {', '.join(_HARNESSES)}"
        )
    if family not in HARNESS_FAMILIES:
        raise InputError(
            f"unknown family {family!r}; known: {', '.join(HARNESS_FAMILIES)}"
        )
    harness, default_target, stream = _HARNESSES[lemma]
    target = target if target is not None else default_target
    report = HarnessReport(lemma=lemma)
    deadline = time.monotonic() + budget.wall_ms / 1000.0
    rng = random.Random(f"harness:{lemma}:{family}")
    configurations = (
        (inst, found) for inst, seq in stream(family) for found in harness(seq, rng)
    )
    for inst, found in configurations:
        report.exercised += 1
        if found is not None:
            report.checked += 1
            report.counterexamples += [
                {"instance": emit_instance(inst), **ce} for ce in found
            ]
        if report.exercised >= target or time.monotonic() > deadline:
            break
    report.complete = report.exercised >= target
    if not report.complete:
        report.notes = "stream exhausted or wall clock hit before target"
    elif not report.checked:
        report.notes = (
            "no configuration met the lemma's hypothesis, "
            "so its conclusion was not checked"
        )
    return report
