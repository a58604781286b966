"""Root cascades, the layered recolouring graph and concentration probes."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

from .errors import LevelBoundViolatedError, PreconditionError
from .exchange import (
    AddRecord,
    Root,
    add_set,
    iter_roots,
    transition,
)
from .model import (
    BaseSequence,
    Collection,
    istar,
    underline,
    unused,
)


def is_good(seq: BaseSequence, root: Root) -> bool:
    """True when some unused element of the missing colour avoids the set."""
    under = underline(root.ris)
    return any(y not in under for y, _ in unused(seq, root.collection, root.b))


@dataclass(frozen=True)
class GoodGraph:
    """Layered graph used to recolour a bad root into a good one."""

    base: tuple
    levels: tuple  # levels[d] = vertices at distance d; levels[0] == (base,)
    parents: dict
    terminals: tuple  # in discovery order; good_transform routes through the first

    def cumulative_sizes(self) -> tuple:
        """|V_0|, |V_1|, ...: vertices within each distance."""
        total = 0
        out = []
        for level in self.levels:
            total += len(level)
            out.append(total)
        return tuple(out)


def build_good_graph(seq: BaseSequence, root: Root) -> GoodGraph:
    S = root.ris
    coll = root.collection
    under = underline(S)
    colour_in_S = {x: c for x, c in S}
    base = ("O", root.b)
    levels = [(base,)]
    parents: dict = {}
    vertices = {base}
    terminals: list = []
    current = [base]
    while True:
        next_level = []
        for v in current:
            c = v[1]
            for y, _ in sorted(unused(seq, coll, c)):
                if y in under:
                    w = (y, colour_in_S[y])
                    if w not in vertices and w != v:
                        vertices.add(w)
                        parents[w] = v
                        next_level.append(w)
                else:
                    w = (y, c)
                    if w not in vertices:
                        vertices.add(w)
                        parents[w] = v
                        next_level.append(w)
                        terminals.append(w)
        if not next_level:
            return GoodGraph(base, tuple(levels), parents, ())
        levels.append(tuple(next_level))
        if terminals:
            return GoodGraph(base, tuple(levels), parents, tuple(terminals))
        current = next_level


def good_transform(seq: BaseSequence, root: Root):
    """Recolour the root's set along a shortest terminal path of its graph.

    Returns ``(good_root, vertices)``, the path's vertices
    ``(("O", b), (x1, c1), ..., (xh, ch), (x_{h+1}, ch))`` from the graph's
    base to its first terminal; an already-good root comes back unchanged,
    with two vertices.  The result is good by construction: the terminal is
    an unused element of the new missing colour outside the set, and the
    recolouring keeps the set's raw elements.
    Collections small enough relative to the overlap (|collection| <= n -
    alpha with alpha > kappa) always reach a terminal; anything else may
    raise :class:`LevelBoundViolatedError`.
    """
    graph = build_good_graph(seq, root)
    if not graph.terminals:
        raise LevelBoundViolatedError(
            "recolouring graph has no terminal vertex; the collection is too "
            "large for the overlap bound"
        )
    term = graph.terminals[0]
    path = [term]
    while path[-1] != graph.base:
        path.append(graph.parents[path[-1]])
    path.reverse()
    if len(path) == 2:
        return root, tuple(path)
    inner = path[1:-1]  # (x_1, c_1) .. (x_h, c_h), elements of S
    prev_colours = [root.b] + [c for _, c in inner[:-1]]
    recoloured = {(x, pc) for (x, _), pc in zip(inner, prev_colours)}
    new_set = root.ris - frozenset(inner) | recoloured
    b_prime = inner[-1][1]
    coll = root.collection.replace(root.index, frozenset(new_set))
    return Root(coll, root.index, b_prime), tuple(path)


@dataclass(frozen=True)
class CascadeTrace:
    """Why one element is (good-)cascadable for a chain.

    ``final_root`` is the root reached after the chain's transitions (and,
    for a good cascade, the last recolouring); ``record`` is the add record
    that adds the element, ``record.element``, at that root.
    """

    final_root: Root
    record: AddRecord


# Search nodes one cascade_search may visit, and cascade_search calls one
# concentration_probe may make.
SEARCH_NODE_BUDGET = 20000
PROBE_SEARCH_BUDGET = 200


def cascade_search(
    seq: BaseSequence, root: Root, chain: tuple, good: bool = False
) -> dict:
    """All cascadable elements for a fixed chain of donor sets.

    ``chain`` lists the positions of the intermediate sets, distinct and
    other than the root's own; the caller keeps that contract.  The search
    walks every transition choice, witness choices included, so it realizes
    the definition exactly, up to ``SEARCH_NODE_BUDGET`` nodes.  Returns one :class:`CascadeTrace` per
    element, the first found in deterministic order.
    """
    forbidden = frozenset().union(
        root.ris, *(root.collection.sets[i] for i in chain)
    )
    results: dict = {}
    _walk(seq, chain, good, forbidden, results, set(), [0], root, 0)
    return results


# Module level, not a recursive closure: a closure that refers to itself is
# a reference cycle, which would hold the search's states and results until
# the next full garbage collection.


def _walk(seq, chain, good, forbidden, results, seen_states, nodes, current, pos):
    nodes[0] += 1
    if nodes[0] > SEARCH_NODE_BUDGET:
        return
    if good:
        current, _ = good_transform(seq, current)
    state = (current.collection.sets, current.index, current.b, pos)
    if state in seen_states:
        return
    seen_states.add(state)
    if pos == len(chain):
        for rec in add_set(seq, current):
            if rec.element not in forbidden and rec.element not in results:
                results[rec.element] = CascadeTrace(current, rec)
        return
    target = current.collection.sets[chain[pos]]
    for rec in add_set(seq, current):
        if rec.element not in target:
            continue
        for variant in rec.variants or (None,):
            try:
                nxt = transition(seq, current, rec, variant)
            except PreconditionError:
                continue  # singleton donor; no continuation through it
            _walk(seq, chain, good, forbidden, results, seen_states, nodes, nxt, pos + 1)


@dataclass(frozen=True)
class ProbeResult:
    root: Root
    chain: tuple  # intermediate set positions, root's set excluded
    landing_index: int
    traces: dict = field(compare=False)  # one per element landed in the set


def _chains(coll: Collection, roots, max_hops: int):
    """(root, chain) pairs breadth first: every chain of h hops before h + 1."""
    frontier = [(root, ()) for root in roots]
    while frontier:
        yield from frontier
        frontier = [
            (root, chain + (j,))
            for root, chain in frontier
            if len(chain) + 1 < max_hops
            for j in range(len(coll.sets))
            if j != root.index and j not in chain
        ]


def concentration_probe(
    seq: BaseSequence, coll: Collection, k: int, depth_limit: int
) -> Optional[tuple]:
    """Look for chains whose cascadable elements pile up in one set.

    One breadth-first pass over chains of at most ``depth_limit`` hops,
    making at most ``PROBE_SEARCH_BUDGET`` cascade searches.  For each
    c = 1, ..., k it keeps the first chain, and that chain's first other
    set, holding at least c cascadable elements, and it stops at the first
    chain that reaches k.  Returns those results most concentrated first,
    each once; ``None`` means none found within budget, not that none exists.
    ``k`` must be positive; the caller keeps that contract.
    """
    try:
        top = istar(coll)
    except PreconditionError:
        return None
    found: list = []  # found[c - 1]: the first result landing c elements
    pairs = _chains(coll, iter_roots(seq, coll, size=top), depth_limit)
    for root, chain in islice(pairs, PROBE_SEARCH_BUDGET):
        casc = cascade_search(seq, root, chain)
        used = set(chain) | {root.index}
        for j, S in enumerate(coll.sets):
            if j not in used:
                landed = {e: trace for e, trace in casc.items() if e in S}
                while len(found) < min(len(landed), k):
                    found.append(ProbeResult(root, chain, j, landed))
        if len(found) == k:
            break
    results: list = []
    for probe in reversed(found):
        if not results or probe != results[-1]:
            results.append(probe)
    return tuple(results) or None
