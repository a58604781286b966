"""Root cascades, the layered recolouring graph and concentration probes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    CorruptedTraceError,
    InputError,
    InternalInvariantError,
    LevelBoundViolatedError,
    PreconditionError,
)
from .exchange import (
    AddRecord,
    Root,
    add_set,
    apply_add,
    iter_roots,
    transition,
)
from .model import (
    BaseSequence,
    CElem,
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
    complete: bool  # ended on a terminal level rather than a fixed point

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
            return GoodGraph(base, tuple(levels), parents, (), False)
        levels.append(tuple(next_level))
        if terminals:
            return GoodGraph(
                base, tuple(levels), parents, tuple(terminals), True
            )
        current = next_level


@dataclass(frozen=True)
class GoodPath:
    """Shortest base-to-terminal path and the recoloured set it produces."""

    vertices: tuple  # (("O", b), (x1, c1), ..., (xh, ch), (x_{h+1}, ch))
    result: frozenset
    missing: int

    @property
    def hops(self) -> int:
        return len(self.vertices) - 2


def good_transform(seq: BaseSequence, root: Root):
    """Recolour the root's set along a shortest terminal path of its graph.

    Returns ``(good_root, path)``.  Already-good roots come back unchanged
    with an empty path.  Collections small enough relative to the overlap
    (|collection| <= n - alpha with alpha > kappa) always reach a terminal;
    anything else may raise :class:`LevelBoundViolatedError`.
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
        return root, GoodPath(tuple(path), root.ris, root.b)
    inner = path[1:-1]  # (x_1, c_1) .. (x_h, c_h), elements of S
    prev_colours = [root.b] + [c for _, c in inner[:-1]]
    recoloured = {(x, pc) for (x, _), pc in zip(inner, prev_colours)}
    new_set = root.ris - frozenset(inner) | recoloured
    b_prime = inner[-1][1]
    coll = root.collection.replace(root.index, frozenset(new_set))
    new_root = Root(coll, root.index, b_prime)
    if __debug__:
        assert underline(new_root.ris) == underline(root.ris)
        assert is_good(seq, new_root)
    return new_root, GoodPath(tuple(path), new_root.ris, b_prime)


@dataclass(frozen=True)
class CascadeStep:
    donor_index: int  # position of the chain set the element left
    element: CElem
    mode: str
    variant: Optional[tuple]  # (removed, witness) for indirect additions
    good_path: Optional[GoodPath] = None  # transform applied before this step


@dataclass(frozen=True)
class CascadeTrace:
    """A replayable witness that one element is (good-)cascadable."""

    collection: Collection
    root_index: int
    root_colour: int
    steps: tuple
    final_root: Root
    final_good_path: Optional[GoodPath]
    element: CElem
    good: bool

    def chain_indices(self) -> tuple:
        return (self.root_index,) + tuple(s.donor_index for s in self.steps)


def mu_map(trace: CascadeTrace) -> dict:
    """The natural correspondence from initial sets to final sets.

    Sets keep their positions through every transition, so the bijection maps
    each initial member to the final member at the same position.
    """
    final = trace.final_root.collection
    return {
        old: final.sets[i] for i, old in enumerate(trace.collection.sets)
    }


def apply_cascade(seq: BaseSequence, trace: CascadeTrace):
    """Replay a trace step by step; returns (final collection, mu map).

    Raises :class:`CorruptedTraceError` when the recorded steps cannot be
    reproduced or the result differs from the recorded final root.
    """
    root = Root(trace.collection, trace.root_index, trace.root_colour)
    try:
        for step in trace.steps:
            if step.good_path is not None or trace.good:
                root, path = good_transform(seq, root)
                if step.good_path is not None and path != step.good_path:
                    raise CorruptedTraceError("good path diverged during replay")
            record = AddRecord(
                step.element,
                step.mode,
                (step.variant,) if step.variant else (),
            )
            root = transition(seq, root, record, step.variant)
            if root.index != step.donor_index:
                raise CorruptedTraceError("donor index diverged during replay")
        if trace.good:
            root, path = good_transform(seq, root)
            if trace.final_good_path is not None and path != trace.final_good_path:
                raise CorruptedTraceError("final good path diverged during replay")
    except (PreconditionError, LevelBoundViolatedError) as exc:
        raise CorruptedTraceError(f"trace replay failed: {exc}") from exc
    if root != trace.final_root:
        raise CorruptedTraceError("replayed final root differs from the record")
    return root.collection, mu_map(trace)


def _expand_records(records):
    for rec in records:
        if rec.mode == "direct":
            yield rec, None
        else:
            for variant in rec.variants:
                yield rec, variant


def cascade_search(
    seq: BaseSequence,
    root: Root,
    chain: tuple,
    depth_limit: Optional[int] = None,
    good: bool = False,
    node_budget: int = 20000,
) -> dict:
    """All cascadable elements for a fixed chain of donor sets.

    ``chain`` lists the positions of the intermediate sets (excluding the
    root's own).  The search walks every transition choice, witness choices
    included, so it realizes the definition exactly.  Returns one witnessing
    trace per element, first found in deterministic order.
    """
    hops = len(chain) + 1
    if depth_limit is not None and hops > depth_limit:
        return {}
    if len(set(chain) | {root.index}) != len(chain) + 1:
        raise InputError("chain sets must be distinct and differ from the root's")
    forbidden = frozenset().union(
        root.ris, *(root.collection.sets[i] for i in chain)
    )
    results: dict = {}
    seen_states: set = set()
    nodes = [0]

    def record_trace(current: Root, steps, final_path):
        for rec in add_set(seq, current):
            if rec.element in forbidden or rec.element in results:
                continue
            results[rec.element] = CascadeTrace(
                collection=root.collection,
                root_index=root.index,
                root_colour=root.b,
                steps=tuple(steps),
                final_root=current,
                final_good_path=final_path,
                element=rec.element,
                good=good,
            )

    def walk(current: Root, pos: int, steps):
        nodes[0] += 1
        if nodes[0] > node_budget:
            return
        path = None
        if good:
            current, path = good_transform(seq, current)
        state = (current.collection.sets, current.index, current.b, pos)
        if state in seen_states:
            return
        seen_states.add(state)
        if pos == len(chain):
            record_trace(current, steps, path)
            return
        target_index = chain[pos]
        target = current.collection.sets[target_index]
        for rec, variant in _expand_records(add_set(seq, current)):
            if rec.element not in target:
                continue
            try:
                nxt = transition(seq, current, rec, variant)
            except PreconditionError:
                continue  # singleton donor; no continuation through it
            step = CascadeStep(target_index, rec.element, rec.mode, variant, path)
            walk(nxt, pos + 1, steps + [step])

    walk(root, 0, [])
    return results


def associated_root(seq: BaseSequence, trace: CascadeTrace) -> Root:
    """One more transition moving the cascadable element out of its set."""
    for rec in add_set(seq, trace.final_root):
        if rec.element == trace.element:
            return transition(seq, trace.final_root, rec)
    raise InternalInvariantError(
        "trace element no longer addable at the final root"
    )


def addable_concentration(seq: BaseSequence, coll: Collection, good: bool = False):
    """Largest |ADD(root) ∩ S'| over roots at the top non-RB size.

    Returns ``(value, argmax root, argmax set index)`` with first-found
    tie-breaks; ``(0, None, None)`` when the good variant finds no good root.
    """
    top = istar(coll)  # raises on all-RB collections
    best = (0, None, None)
    for root in iter_roots(seq, coll, size=top):
        if good and not is_good(seq, root):
            continue
        adds = {rec.element for rec in add_set(seq, root)}
        for j, other in enumerate(coll.sets):
            if j == root.index:
                continue
            count = len(adds & other)
            if count > best[0]:
                best = (count, root, j)
    return best


@dataclass(frozen=True)
class ProbeResult:
    root: Root
    chain: tuple  # intermediate set positions, root's set excluded
    landing_index: int
    witnesses: frozenset
    traces: dict = field(compare=False)


def concentration_probe(
    seq: BaseSequence,
    coll: Collection,
    k: int,
    depth_limit: Optional[int] = None,
    search_budget: int = 200,
) -> Optional[ProbeResult]:
    """Look for a chain whose cascadable elements pile k-deep in one set.

    Bounded search; ``None`` means none found within budget, not that none
    exists.
    """
    if k < 1:
        raise InputError("k must be positive")
    try:
        top = istar(coll)
    except PreconditionError:
        return None
    max_hops = depth_limit if depth_limit is not None else k
    calls = [0]

    def try_chain(root: Root, chain: tuple) -> Optional[ProbeResult]:
        calls[0] += 1
        casc = cascade_search(seq, root, chain)
        used = set(chain) | {root.index}
        for j, S in enumerate(coll.sets):
            if j in used:
                continue
            landed = frozenset(e for e in casc if e in S)
            if len(landed) >= k:
                return ProbeResult(
                    root, chain, j, landed,
                    {e: casc[e] for e in landed},
                )
        return None

    roots = list(iter_roots(seq, coll, size=top))
    frontier = [(root, ()) for root in roots]
    while frontier and calls[0] < search_budget:
        next_frontier = []
        for root, chain in frontier:
            if calls[0] >= search_budget:
                break
            hit = try_chain(root, chain)
            if hit is not None:
                return hit
            if len(chain) + 1 < max_hops:
                for j in range(len(coll.sets)):
                    if j != root.index and j not in chain:
                        next_frontier.append((root, chain + (j,)))
        frontier = next_frontier
    return None
