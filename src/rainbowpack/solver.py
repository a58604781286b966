"""Signature hill-climbing packer for disjoint rainbow bases.

Every accepted move strictly increases the collection signature under the
last-coordinate-first order, so termination needs no budget; the budget is a
safety net.  The replayable move log holds one JSON object per move:
``{"kind", "changes", "signature"}``.  ``kind`` names the finder that made
the move (``augment``: a fill that adds to one set every unused element it
can take directly, or a shortest augmenting path, :func:`augmenting_path`;
``steal``: a short set takes another set's element by an augmenting path,
and the other set repairs by one; ``cascade``: the paper's root cascade and
cyclic exchange) and does not change how it applies, so a log with one
element per fill still replays.  Two finders are tried in turn, and the
first move found is taken: :func:`_augment_move` makes the augment and
steal moves, in that order, and the cascade comes last.  Every path search
asks the exchange graph of its set
(:class:`~rainbowpack.exchange.ExchangeGraph`), which holds its own
independence state; a short set's graph is built once per move, for its path
search into the pool and for every steal through it, and a repair builds one
more.  A cascade builds its landing set's graph once per probe, for every
donor's cyclic exchange.
``changes`` lists ``{"set", "removed", "added"}`` with coloured elements as
``[element, colour]`` pairs; ``set`` is a position
in the collection before the move, ``set == len(sets)`` opens a new set, and
a set left empty is dropped once every change is applied.  ``signature`` is
the signature the move produces.  Solve and replay share one checked step,
:func:`apply_move`, so every logged move has passed the replay checks.  Both
keep the unused coloured elements as one sorted pool for the whole run;
:func:`apply_move` checks a move's disjointness against it alone and then
updates it from the move's net changes, so no move re-sorts it.  Logs
with per-kind fields (``set``/``removed``/``added`` at the top level, or the
cascade's ``root_set``, ``steps``, ``assoc``, ``landing``, ``donor_set``)
come from earlier versions and no longer replay.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Optional

from .cascade import concentration_probe
from .errors import CorruptedTraceError, InternalInvariantError, PreconditionError
from .exchange import ExchangeGraph, cyclic_exchange, transition
from .model import (
    BaseSequence,
    BoundParams,
    Collection,
    colours_of,
    is_ris,
    lex_compare,
    signature_of_sizes,
    validate_collection,
    validate_ris,
)

@dataclass(frozen=True)
class SolverParams:
    bound: BoundParams = field(default_factory=BoundParams)
    depth_limit: int = 2
    iteration_budget: int = 5000

    def __post_init__(self):
        if self.depth_limit < 1 or self.iteration_budget < 1:
            raise PreconditionError("depth limit and budget must be at least 1")


@dataclass
class SolveResult:
    collection: Collection
    moves: list  # each records the signature it produces
    stopped: str  # "fixed_point" (no finder found a move) or "budget"

    @property
    def rb_count(self) -> int:
        return self.collection.signature[-1]


MOVE_KINDS = ("augment", "steal", "cascade")


def _change(i, removed, added) -> dict:
    """One entry of a move's ``changes``; both element lists sorted.

    ``json.dumps`` writes the coloured elements as ``[element, colour]``
    lists.
    """
    return {"set": i, "removed": list(removed), "added": list(added)}


def augmenting_path(graph: ExchangeGraph, pool) -> Optional[tuple]:
    """Shortest augmenting path from the RIS S of ``graph``, its exchange
    graph, into the unused ``pool``.

    In the exchange graph (Edmonds) an outside y leads to the element of S
    with y's colour, and an inside x to every outside y it has an edge to;
    paths run from the sources in ``pool`` to those of a colour S lacks.
    Returns the path's sorted ``(removed, added)`` elements, with
    ``S - removed | added`` an RIS one larger than S, or None exactly when
    no RIS on S | pool is larger.  Ties break by the order of ``pool``.
    """
    holder = graph.holder
    parent: dict = {}

    def path_to(y):
        removed, added = [], [y]
        x = parent[y]
        while x is not None:
            removed.append(x)
            added.append(parent[x])
            x = parent[parent[x]]
        return tuple(sorted(removed)), tuple(sorted(added))

    frontier = []
    for y in pool:
        if graph.source(y):
            parent[y] = None
            if y[1] not in holder:
                return path_to(y)
            frontier.append(y)
    while frontier:
        reached = []
        for y in frontier:
            x = holder[y[1]]
            if x in parent:
                continue
            parent[x] = y
            for z in pool:
                if z in parent or not graph.edge(x, z):
                    continue
                parent[z] = x
                if z[1] not in holder:
                    return path_to(z)
                reached.append(z)
        frontier = reached
    return None


def _short_sets(seq, coll) -> list:
    """Positions of the sets short of n, smallest set first, then by index."""
    return sorted(
        (i for i, S in enumerate(coll.sets) if len(S) < seq.n),
        key=lambda i: (len(coll.sets[i]), i),
    )


def _augment(i, removed, added) -> dict:
    return {"kind": "augment", "changes": [_change(i, removed, added)]}


def _takes(graph: ExchangeGraph, free: list):
    """A test that fails each y outside the RIS S of ``graph`` and outside
    ``free`` that no augmenting path of S into ``free`` plus y can add; once
    S has no path into ``free``, the test is exact, not just a filter.

    In S's exchange graph, y changes only the edges at y.  So a path through
    y runs from the sources over ``free`` to y (y is a source, or an inside
    element that the sources reach over ``free`` has an edge to y), and from
    y to a sink (y's colour is missing from S, or its holder in S reaches a
    sink over ``free``); with no path into ``free``, the two reaches make one
    through y, as a vertex they shared would join a source to a sink.  Both
    reaches are searched once here, each asking about an edge at most once;
    the test then asks at most one question per reached element about y.
    """
    holder, source, edge = graph.holder, graph.source, graph.edge
    reached: set = set()
    frontier = [holder[y[1]] for y in free if y[1] in holder and source(y)]
    while frontier:
        x = frontier.pop()
        if x not in reached:
            reached.add(x)
            frontier += [
                holder[y[1]]
                for y in free
                if y[1] in holder and holder[y[1]] not in reached and edge(x, y)
            ]
    # Backward from the sinks: x reaches a sink once it has an edge to a
    # sink, or to a free element whose colour's holder reaches one.
    by_colour: dict = {}
    for y in free:
        by_colour.setdefault(y[1], []).append(y)
    ends: set = set()
    targets = [y for y in free if y[1] not in holder]
    while targets:
        y = targets.pop()
        for x in holder.values():
            if x not in ends and edge(x, y):
                ends.add(x)
                targets += by_colour.get(x[1], ())
    return lambda y: (y[1] not in holder or holder[y[1]] in ends) and (
        source(y) or any(edge(x, y) for x in reached)
    )


def _augment_move(seq, coll, eta, free):
    """The first move of four stages: a fill of a short set, smallest first,
    that takes an element directly; a longer augmenting path of one, in the
    same order; a new set's path; a steal.

    The fill walks ``free`` once and adds every element whose colour the set
    lacks and that keeps it an RIS, so no element left in the pool could
    still be added on its own: an element refused once stays refused as the
    set grows.  ``free`` is the solve's pool, kept across moves: the sorted
    coloured elements no set of ``coll`` holds.

    A steal takes y from another set b, in set then element order: a path
    of S_a into ``free`` plus y that adds y grows a and leaves b short of y;
    a path of S_b - y into what is then unused (``free``, plus what a's path
    removed, less what it added) brings b back to its size.  The signature
    rises since a grows and b keeps its size.  :func:`_takes` admits exactly
    the y with such a path, a's path into ``free`` having failed, so each
    search finds one.  Each short set's exchange graph is built once, for
    its path into ``free``, its :func:`_takes` test and every y's path; only
    a repair builds another.
    """
    order = _short_sets(seq, coll)
    for i in order:
        S = coll.sets[i]
        present = set(colours_of(S))
        added = []
        for y in free:
            if y[1] not in present and is_ris(seq, S | {y}):
                S |= {y}
                present.add(y[1])
                added.append(y)
        if added:
            return _augment(i, (), added)
    graphs = []
    for i in order:
        graph = ExchangeGraph(seq, coll.sets[i])
        path = augmenting_path(graph, free)
        if path is not None:
            return _augment(i, *path)
        graphs.append((i, graph))
    if len(coll.sets) < eta:
        path = augmenting_path(ExchangeGraph(seq, frozenset()), free)
        if path is not None:
            return _augment(len(coll.sets), *path)
    for a, graph in graphs:
        takes = _takes(graph, free)
        for b, S_b in enumerate(coll.sets):
            if b == a:
                continue
            for y in sorted(S_b):
                if not takes(y):
                    continue
                pool = free.copy()
                insort(pool, y)
                removed, added = augmenting_path(graph, pool)
                rest = sorted(set(pool).difference(added).union(removed))
                repair = augmenting_path(ExchangeGraph(seq, S_b - {y}), rest)
                if repair is not None:
                    return {
                        "kind": "steal",
                        "changes": [
                            _change(a, removed, added),
                            _change(b, sorted({y, *repair[0]}), repair[1]),
                        ],
                    }
    return None


def _cascade_move(seq, coll, params):
    if len(coll.sets) < 3:
        return None
    probes = concentration_probe(seq, coll, depth_limit=params.depth_limit)
    for probe in probes or ():
        attempt = _attempt_exchange(seq, coll, probe)
        if attempt is not None:
            return attempt
    return None


def _attempt_exchange(seq, coll, probe):
    j = probe.landing_index
    target = coll.sets[j]
    graph = ExchangeGraph(seq, target)  # every donor's exchange asks it
    blocked = set(probe.chain) | {probe.root.index, j}
    by_colour = {xc[1]: xc for xc in probe.traces}
    donors = sorted(
        (d for d in range(len(coll.sets)) if d not in blocked),
        key=lambda d: (len(coll.sets[d]), d),
    )
    for d in donors:
        source = coll.sets[d]
        pairs = [(xc, by_colour[xc[1]]) for xc in sorted(source) if xc[1] in by_colour]
        if not pairs:
            continue
        try:
            I = cyclic_exchange(graph, pairs)
        except PreconditionError:
            continue
        # every right element landed, so it has a trace; one more transition
        # moves it out of the landing set (the paper's associated root)
        trace = probe.traces[pairs[min(I)][1]]
        try:
            aroot = transition(seq, trace.final_root, trace.record)
        except PreconditionError:
            continue
        removed = frozenset(pairs[i][1] for i in I)
        added = frozenset(pairs[i][0] for i in I)
        final = list(aroot.collection.sets)
        final[j] = target - removed | added
        final[d] = source - added
        # add_set proved each transition's set an RIS and the exchange
        # argument makes the landing set one (apply_move checks every changed
        # set), so the signature is the one test left for pack_rainbow_bases
        sizes = (len(S) for S in final if S)
        if lex_compare(signature_of_sizes(sizes, seq.n), coll.signature) <= 0:
            continue
        changes = [
            _change(i, sorted(old - new), sorted(new - old))
            for i, (old, new) in enumerate(zip(coll.sets, final))
            if old != new
        ]
        return {"kind": "cascade", "changes": changes}
    return None


def _find_move(seq, coll, eta, params, free):
    return _augment_move(seq, coll, eta, free) or _cascade_move(seq, coll, params)


def pack_rainbow_bases(seq: BaseSequence, params: SolverParams | None = None) -> SolveResult:
    """Hill-climb to a large family of disjoint rainbow independent sets."""
    params = params or SolverParams()
    eta = params.bound.eta(seq.n)
    coll = Collection(seq.n)
    free = sorted(seq.universe)  # every element is unused in the empty collection
    moves: list = []
    for _ in range(params.iteration_budget):
        move = _find_move(seq, coll, eta, params, free)
        if move is None:
            stopped = "fixed_point"
            break
        try:
            coll = apply_move(seq, coll, move, free)
        except CorruptedTraceError as exc:
            raise InternalInvariantError(f"finder made a bad move: {exc}") from exc
        move["signature"] = list(coll.signature)
        moves.append(move)
    else:
        # the budget is spent only when a move is still left to make
        stopped = "fixed_point" if _find_move(seq, coll, eta, params, free) is None else "budget"
    return SolveResult(coll, moves, stopped)


def apply_move(seq: BaseSequence, coll: Collection, move: dict, free: list) -> Collection:
    """The collection one logged move makes of ``coll``, fully checked.

    ``coll`` must pass :func:`validate_collection` and ``free`` must be its
    pool, the sorted coloured elements no set holds: ``sorted(seq.universe)``
    for ``Collection(n)``, and this function keeps it so.  Raises
    :class:`CorruptedTraceError` unless the move is well formed, each
    change's ``removed`` lies in its set and its ``added`` avoids it, the
    signature rises (and equals the recorded one, when present), each
    changed set is an RIS, no element is added twice and each added element
    no change removes is in ``free``; the result then passes
    :func:`validate_collection`.  Only an accepted move updates ``free``.
    The sets it builds hold the universe's own coloured elements, whether
    the move names them by tuples (a solve) or by the lists a log holds (a
    replay).
    """
    own = seq.own
    try:
        kind = move["kind"]
        # A change whose three fields were read holds no others iff len == 3.
        # Added elements become the universe's own tuples (an element outside
        # it stays a new tuple, which the RIS check rejects); removed ones
        # leave a set whose elements already are.
        changes = [
            (
                ch["set"],
                frozenset(map(tuple, ch["removed"])),
                frozenset([own.get(y, y) for y in map(tuple, ch["added"])]),
                len(ch),
            )
            for ch in move["changes"]
        ]
    except (KeyError, TypeError) as exc:
        raise CorruptedTraceError(f"malformed move: {exc!r}") from exc
    if kind not in MOVE_KINDS:
        raise CorruptedTraceError(f"unknown move kind {kind!r}")
    if len(move) != 2 + ("signature" in move):
        raise CorruptedTraceError(f"{kind} move has undocumented fields")
    sets = [*coll.sets, frozenset()]
    sig = list(coll.signature)
    touched: set = set()
    lost: set = set()
    for i, removed, added, fields in changes:
        if fields != 3:
            raise CorruptedTraceError(
                f"{kind} move's change to set {i!r} has undocumented fields"
            )
        if type(i) is not int or not 0 <= i < len(sets) or i in touched:
            raise CorruptedTraceError(f"{kind} move names set {i!r} of {len(coll.sets)}")
        touched.add(i)
        S = sets[i]
        T = S - removed | added
        if not removed <= S or not added.isdisjoint(S) or len(T) > seq.n:
            raise CorruptedTraceError(f"{kind} move does not fit set {i}")
        if S:
            sig[len(S) - 1] -= 1
        if T:
            sig[len(T) - 1] += 1
        sets[i] = T
        lost |= removed
    new = Collection(coll.n, [S for S in sets if S], tuple(sig))
    if lex_compare(new.signature, coll.signature) <= 0:
        raise CorruptedTraceError(f"{kind} move does not raise the signature")
    if "signature" in move and move["signature"] != list(new.signature):
        raise CorruptedTraceError(f"{kind} move's signature differs from the record")
    gained: set = set()
    taken = []  # the pool positions of the added elements no change removes
    for i, _, added, _ in changes:
        ok, why = validate_ris(seq, sets[i])
        if not ok:
            raise CorruptedTraceError(f"{kind} move breaks validity: set {i}: {why}")
        for y in added:
            k = None if y in lost else bisect_left(free, y)
            if y in gained or (k is not None and (k == len(free) or free[k] != y)):
                j = next(h for h, T in enumerate(sets) if h != i and y in T)
                raise CorruptedTraceError(
                    f"{kind} move breaks validity: sets {i} and {j} share "
                    f"{sorted(added & sets[j])}"
                )
            gained.add(y)
            if k is not None:
                taken.append(k)
    for k in sorted(taken, reverse=True):
        del free[k]
    for x in lost.difference(gained):
        insort(free, x)
    return new


def replay_moves(seq: BaseSequence, moves: list) -> Collection:
    """Re-derive the final collection from the log, checking every step.

    The replay keeps its own pool of unused elements, as a solve does.  The
    final collection is validated once more in full.
    """
    coll = Collection(seq.n)
    free = sorted(seq.universe)
    for idx, move in enumerate(moves):
        try:
            coll = apply_move(seq, coll, move, free)
        except CorruptedTraceError as exc:
            raise CorruptedTraceError(f"move {idx}: {exc}") from exc
    ok, why = validate_collection(seq, coll)
    if not ok:
        raise CorruptedTraceError(f"replayed collection is invalid: {why}")
    return coll


def dump_move_log(moves: list) -> str:
    return "".join(json.dumps(m, sort_keys=True) + "\n" for m in moves)


def load_move_log(text: str) -> list:
    moves = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            move = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorruptedTraceError(f"move log line {lineno}: {exc}") from exc
        if not isinstance(move, dict):
            raise CorruptedTraceError(f"move log line {lineno} is not a JSON object")
        moves.append(move)
    return moves
