"""Roots, the exchange graph of an RIS, swappable/addable elements,
transitions and exchange lemma moves."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    InputError,
    InternalInvariantError,
    OracleInconsistencyError,
    PreconditionError,
    ValidationError,
)
from .model import (
    BaseSequence,
    CElem,
    Collection,
    colours_of,
    underline,
    unused,
)


@dataclass(frozen=True)
class Root:
    """A collection, one of its member sets (by index) and a missing colour."""

    collection: Collection
    index: int
    b: int

    @property
    def ris(self) -> frozenset:
        return self.collection.sets[self.index]


def make_root(seq: BaseSequence, coll: Collection, index: int, b: int) -> Root:
    if not 0 <= index < len(coll.sets):
        raise ValidationError(f"set index {index} outside the collection")
    if not 1 <= b <= seq.n:
        raise InputError(f"colour {b} outside 1..{seq.n}")
    if b in colours_of(coll.sets[index]):
        raise ValidationError(f"colour {b} already present in the chosen set")
    return Root(coll, index, b)


def iter_roots(seq: BaseSequence, coll: Collection, size: int | None = None):
    """All roots of a collection, optionally restricted to |S| == size."""
    for i, S in enumerate(coll.sets):
        if size is not None and len(S) != size:
            continue
        present = colours_of(S)
        for b in range(1, seq.n + 1):
            if b not in present:
                yield Root(coll, i, b)


class ExchangeGraph:
    """Edmonds' exchange graph of the RIS ``S``.

    An RIS is a common independent set of the lifted matroid (coloured
    copies of an element are parallel) and the colour partition matroid.
    Outside S, y is a source when S + y is independent in the lifted matroid,
    and an inside x has an edge to y when S - x + y is.  The graph holds
    raw(S), S's element of each colour (``holder``) and one state of raw(S),
    its own.
    """

    def __init__(self, seq: BaseSequence, S: frozenset):
        self.raw = underline(S)
        self.holder = {xc[1]: xc for xc in S}
        self.state = seq.matroid.state(self.raw)

    def source(self, y: CElem) -> bool:
        return y[0] not in self.raw and self.state._query((), (y[0],))

    def edge(self, x: CElem, y: CElem) -> bool:
        if y[0] in self.raw:
            return y[0] == x[0]  # S - x + y has the raw elements of S
        return self.state._query((x[0],), (y[0],))


def swap_set(seq: BaseSequence, root: Root) -> dict:
    """Swappable elements of the root's set, each with its sorted witness list.

    ``yb`` witnesses ``xc`` when ``S - xc + yb`` is an RIS.  S is an RIS
    lacking colour b, so that holds iff the exchange graph of S has an edge
    from xc to yb.
    """
    S = root.ris
    graph = ExchangeGraph(seq, S)
    pool = sorted(unused(seq, root.collection, root.b))
    out: dict = {}
    for xc in sorted(S):
        witnesses = [yb for yb in pool if graph.edge(xc, yb)]
        if witnesses:
            out[xc] = tuple(witnesses)
    return out


@dataclass(frozen=True)
class AddRecord:
    """One addable element with how it can be added.

    A direct addition needs no witness and has no ``variants``.  An indirect
    one carries every valid (removed, witness) pair in ``variants``,
    canonical choice first, ordered by witness then removed element.
    """

    element: CElem
    variants: tuple = ()


def add_set(seq: BaseSequence, root: Root) -> tuple:
    """All addable elements at a root, in deterministic element order.

    ``xc`` is directly addable when ``S + xc`` is an RIS, and indirectly, by
    ``(xpc, yb)``, when ``S - xpc + xc + yb`` is one, xpc being S's element
    of colour c and yb an unused element of the root's colour b.  S is an
    RIS lacking colour b, so a direct addition is a source of S's exchange
    graph whose colour S lacks.  An indirect one needs an edge from xpc to
    xc first, which is one single-element query: without it S - xpc + xc
    is not an RIS, and neither is any set that adds a witness to it.  Only
    then does each witness need raw distinctness and one two-element query
    of the graph's state.
    """
    S = root.ris
    graph = ExchangeGraph(seq, S)
    raw, state = graph.raw, graph.state
    pool = sorted(unused(seq, root.collection, root.b))
    records = []
    for xc in sorted(seq.universe - S):
        x, c = xc
        xpc = graph.holder.get(c)
        if xpc is None:
            if graph.source(xc):
                records.append(AddRecord(xc))
            continue
        if not graph.edge(xpc, xc):
            continue
        xp = xpc[0]
        variants = [
            (xpc, yb) for yb in pool
            if yb[0] != x and (yb[0] == xp or yb[0] not in raw)
            and state.independent((xp,), (x, yb[0]))
        ]
        if variants:
            records.append(AddRecord(xc, tuple(variants)))
    return tuple(records)


def apply_add(S: frozenset, record: AddRecord, variant=None) -> frozenset:
    """The set the root's RIS becomes after adding the record's element."""
    if not record.variants:
        return S | {record.element}
    removed, witness = variant if variant is not None else record.variants[0]
    return (S | {record.element, witness}) - {removed}


def transition(
    seq: BaseSequence, root: Root, record: AddRecord, variant=None
) -> Root:
    """Move an addable element out of its current set into the root's set.

    The caller keeps the contract: the root's collection is valid and
    ``record`` comes from :func:`add_set` at this root, which makes the new
    root set an RIS, draws an indirect variant's witness from the root's
    unused pool and the element from outside the root's set.  The result's
    collection is then valid too: the donor only loses an element, and the
    witness lands in no second set.  :class:`PreconditionError` when no set
    holds the element, or when it is its set's only one.  Returns the new
    root (same collection size, set identities kept positional).
    """
    xc = record.element
    donor = root.collection.index_of_element(xc)
    if donor is None:
        raise PreconditionError(f"{xc} is held by no set of the collection")
    if len(root.collection.sets[donor]) == 1:
        # the donor would become empty, which no collection may contain;
        # such degenerate roots carry no useful continuation
        raise PreconditionError(f"removing {xc} would empty its set")
    coll = root.collection.replace(root.index, apply_add(root.ris, record, variant))
    coll = coll.replace(donor, coll.sets[donor] - {xc})
    return Root(coll, donor, xc[1])


def exchange_injection(seq: BaseSequence, S: frozenset, c: int) -> dict:
    """Injection phi from the raw elements of the RIS ``S`` into base B_c.

    phi maps each x to an element keeping underline(S) - x + phi(x)
    independent; returned as the lexicographically least such injection.
    """
    raw = sorted(underline(S))
    state = seq.matroid.state(raw)
    B = sorted(seq.base(c))
    edges = [[y for y in B if state.independent((x,), (y,))] for x in raw]
    phi = _assign(raw, edges, 0, set(), {})
    if phi is None:
        raise OracleInconsistencyError(
            f"no exchange injection into colour {c}; the oracle violates "
            "the exchange axiom"
        )
    return phi


# Module level, not a recursive closure: a closure that refers to itself is
# a reference cycle, held until the next full garbage collection.


def _assign(raw: list, edges: list, i: int, used: set, acc: dict) -> Optional[dict]:
    """Depth-first with ascending candidates: the first complete assignment
    is the lexicographically least one."""
    if i == len(raw):
        return dict(acc)
    for y in edges[i]:
        if y in used:
            continue
        used.add(y)
        acc[raw[i]] = y
        result = _assign(raw, edges, i + 1, used, acc)
        if result is not None:
            return result
        used.remove(y)
        del acc[raw[i]]
    return None


def arrow(graph: ExchangeGraph, xc: CElem, xpc: CElem) -> bool:
    """Whether the target set less ``xpc`` plus ``xc`` is independent in the
    lifted matroid: the edge from xpc to xc of its exchange ``graph``."""
    return graph.edge(xpc, xc)


def cyclic_exchange(graph: ExchangeGraph, pairs: Sequence) -> frozenset:
    """Nonempty index set realizing a valid multi-element swap into S_prime.

    The caller keeps the contract: ``graph`` is the exchange graph of the
    RIS S_prime, and ``pairs`` is a nonempty list of ((x_i, c_i) in S,
    (x'_i, c_i) in S_prime) for one other set S of the collection, each pair
    of one colour and no colour twice.  Pair i relates to pair j when
    :func:`arrow` holds for x_i and x'_j, asked once per (i, j) of
    ``graph``.  Returns the 0-based indices I of a shortest cycle of that
    relation, the least by sorted indices among them (a self-swap is a cycle
    of length one), so that removing the right elements of I and adding the
    left ones keeps S_prime an RIS.  The exchange argument alone gives that,
    so the set is not re-checked here: callers check the exchanged set (the
    solver's :func:`~rainbowpack.solver.apply_move` checks every move it
    makes).  A pair with no partner reaches no cycle, nor does a pair whose
    arrows all lead to such pairs, so they need no pruning.  Raises
    :class:`PreconditionError` when some x_i other than x'_i already lies in
    underline(S_prime), and when no cycle exists and some pair has no
    partner; when every pair has one, a cycle exists.
    """
    k = len(pairs)
    for (xi, _), (xpi, _) in pairs:
        # the exchange argument needs incoming raw elements fresh to S_prime
        # (except for the trivial self-swap) for every index set to stay RIS
        if xi in graph.raw and xi != xpi:
            raise PreconditionError(f"raw element {xi} already present in the target set")

    succ = [
        [j for j in range(k) if arrow(graph, pairs[i][0], pairs[j][1])]
        for i in range(k)
    ]

    # Shortest directed cycle; breadth-first from each start, neighbours in
    # ascending order so ties resolve deterministically.
    best: Optional[tuple] = None
    for start in range(k):
        prev = {start: None}
        frontier = [start]
        found = None
        while frontier and found is None:
            nxt = []
            for u in frontier:
                for v in succ[u]:
                    if v == start:
                        found = u
                        break
                    if v not in prev:
                        prev[v] = u
                        nxt.append(v)
                if found is not None:
                    break
            frontier = nxt
        if found is not None:
            path = [found]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            cycle = tuple(sorted(path))
            if best is None or (len(cycle), cycle) < (len(best), best):
                best = cycle
    if best is None:
        if not all(succ):
            raise PreconditionError("no cycle, and some pair has no partner")
        raise InternalInvariantError("every pair has a partner, yet no cycle")
    return frozenset(best)


def exchanged_set(S_prime, pairs: Sequence, I: frozenset) -> frozenset:
    return frozenset(S_prime) - {pairs[i][1] for i in I} | {pairs[i][0] for i in I}
