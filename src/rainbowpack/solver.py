"""Signature hill-climbing packer for disjoint rainbow bases.

Every accepted move strictly increases the collection signature under the
last-coordinate-first order, so termination needs no budget; the budget is a
safety net.  The replayable move log holds one JSON object per move, with
coloured elements as ``[element, colour]`` pairs and the ``signature`` the
move produces.  Kind ``augment`` has ``set``, ``removed`` and ``added``: set
``set`` takes a shortest augmenting path (:func:`augmenting_path`), and
``set == len(sets)`` opens a new set.  Kind ``cascade`` has ``root_set``,
``colour``, ``steps`` (``donor``, ``element``, ``mode``, ``removed``,
``witness``), ``assoc``, ``landing``, ``donor_set``, ``removed`` and
``added``.  Logs with kinds ``grow``, ``swapgrow`` or ``seed``, or with a
``good`` field, come from earlier versions and no longer replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .cascade import concentration_probe
from .errors import CorruptedTraceError, InternalInvariantError, PreconditionError
from .exchange import AddRecord, Root, add_set, arrow, cyclic_exchange, transition
from .model import (
    BaseSequence,
    BoundParams,
    Collection,
    colours_of,
    is_ris,
    istar,
    lex_compare,
    underline,
    validate_collection,
)

# Deepest concentration a cascade probes for; it falls back to k - 1, ..., 1.
PROBE_K = 2


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
    moves: list
    signatures: list

    @property
    def rb_count(self) -> int:
        return self.collection.signature[-1]


def _pair(ce):
    return [ce[0], ce[1]]


def _unpair(p):
    return (p[0], p[1])


def augmenting_path(seq: BaseSequence, S: frozenset, pool) -> Optional[tuple]:
    """Shortest augmenting path from the RIS ``S`` into the unused ``pool``.

    An RIS is a common independent set of the lifted matroid (coloured copies
    of an element are parallel) and the colour partition matroid.  In their
    exchange graph (Edmonds) an outside y leads to the element of S with y's
    colour, and an inside x to every outside y with S - x + y independent in
    the lifted matroid; paths run from the outside elements the lifted
    matroid lets S take to those of a colour S lacks.  Returns the path's
    sorted ``(removed, added)`` elements, with ``S - removed | added`` an RIS
    one larger than S, or None exactly when no RIS on S | pool is larger.
    Ties break by the order of ``pool``.
    """
    M = seq.matroid
    raw = underline(S)
    holder = {xc[1]: xc for xc in S}
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
        if y[0] not in raw and M.is_independent(raw | {y[0]}):
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
            rest = raw - {x[0]}
            for z in pool:
                if z in parent or z[0] in rest or not M.is_independent(rest | {z[0]}):
                    continue
                parent[z] = x
                if z[1] not in holder:
                    return path_to(z)
                reached.append(z)
        frontier = reached
    return None


def _augmented(coll: Collection, i: int, removed, added) -> Collection:
    if i == len(coll.sets):
        return coll.append(frozenset(added))
    return coll.replace(i, coll.sets[i] - frozenset(removed) | frozenset(added))


def _augment(coll, i, removed, added):
    move = {
        "kind": "augment",
        "set": i,
        "removed": [_pair(e) for e in removed],
        "added": [_pair(e) for e in added],
    }
    return move, _augmented(coll, i, removed, added)


def _augment_move(seq, coll, eta):
    """Direct additions to the non-full sets, smallest set first; then longer
    augmenting paths, set by set; then a new set."""
    free = sorted(seq.universe - coll.used())
    order = sorted(
        (i for i, S in enumerate(coll.sets) if len(S) < seq.n),
        key=lambda i: (len(coll.sets[i]), i),
    )
    for i in order:
        S = coll.sets[i]
        present = colours_of(S)
        for y in free:
            if y[1] not in present and is_ris(seq, S | {y}):
                return _augment(coll, i, (), (y,))
    for i in order:
        path = augmenting_path(seq, coll.sets[i], free)
        if path is not None:
            return _augment(coll, i, *path)
    if len(coll.sets) < eta:
        path = augmenting_path(seq, frozenset(), free)
        if path is not None:
            return _augment(coll, len(coll.sets), *path)
    return None


def _step_dict(step):
    out = {
        "donor": step.donor_index,
        "element": _pair(step.element),
        "mode": step.mode,
    }
    if step.variant is not None:
        out["removed"] = _pair(step.variant[0])
        out["witness"] = _pair(step.variant[1])
    return out


def _cascade_move(seq, coll, params):
    if len(coll.sets) < 3:
        return None
    try:
        istar(coll)
    except PreconditionError:
        return None
    for k in range(PROBE_K, 0, -1):
        probe = concentration_probe(seq, coll, k, depth_limit=params.depth_limit)
        if probe is None:
            continue
        attempt = _attempt_exchange(seq, coll, probe)
        if attempt is not None:
            return attempt
    return None


def _attempt_exchange(seq, coll, probe):
    j = probe.landing_index
    target = coll.sets[j]
    blocked = set(probe.chain) | {probe.root.index, j}
    by_colour = {c: (x, c) for x, c in probe.witnesses}
    donors = sorted(
        (d for d in range(len(coll.sets)) if d not in blocked),
        key=lambda d: (len(coll.sets[d]), d),
    )
    for d in donors:
        source = coll.sets[d]
        pairs = [
            ((x, c), by_colour[c]) for x, c in sorted(source) if c in by_colour
        ]
        # Keep only pairs whose left element relates to some right element;
        # repeat until stable since dropping pairs shrinks the right side.
        while pairs:
            kept = [
                p
                for p in pairs
                if any(arrow(seq.matroid, source, target, p[0], q[1]) for q in pairs)
            ]
            if len(kept) == len(pairs):
                break
            pairs = kept
        if not pairs:
            continue
        try:
            I = cyclic_exchange(seq, source, target, pairs)
        except (PreconditionError, InternalInvariantError):
            continue
        chosen = min(I)
        landing_elem = pairs[chosen][1]
        trace = probe.traces.get(landing_elem)
        if trace is None:
            continue
        rec = next(
            (r for r in add_set(seq, trace.final_root) if r.element == landing_elem),
            None,
        )
        if rec is None:
            continue
        try:
            aroot = transition(seq, trace.final_root, rec)
        except PreconditionError:
            continue
        removed = sorted(pairs[i][1] for i in I)
        added = sorted(pairs[i][0] for i in I)
        new_target = target - frozenset(removed) | frozenset(added)
        new_source = source - frozenset(added)
        cand = aroot.collection.replace(j, new_target)
        cand = cand.replace(d, new_source)
        ok, _ = validate_collection(seq, cand)
        if not ok:
            continue
        if lex_compare(cand.signature, coll.signature) <= 0:
            continue
        move = {
            "kind": "cascade",
            "root_set": probe.root.index,
            "colour": probe.root.b,
            "steps": [_step_dict(s) for s in trace.steps],
            "assoc": {
                "element": _pair(rec.element),
                "mode": rec.mode,
                "removed": _pair(rec.removed) if rec.removed else None,
                "witness": _pair(rec.witness) if rec.witness else None,
            },
            "landing": j,
            "donor_set": d,
            "removed": [_pair(e) for e in removed],
            "added": [_pair(e) for e in added],
        }
        return move, cand
    return None


def _find_move(seq, coll, eta, params):
    return _augment_move(seq, coll, eta) or _cascade_move(seq, coll, params)


def pack_rainbow_bases(seq: BaseSequence, params: SolverParams | None = None) -> SolveResult:
    """Hill-climb to a large family of disjoint rainbow independent sets."""
    params = params or SolverParams()
    eta = params.bound.eta(seq.n)
    coll = Collection(seq.n)
    moves: list = []
    signatures = [coll.signature]
    while len(moves) < params.iteration_budget:
        found = _find_move(seq, coll, eta, params)
        if found is None:
            break
        move, new_coll = found
        if lex_compare(new_coll.signature, coll.signature) <= 0:
            raise InternalInvariantError("accepted move did not raise the signature")
        ok, why = validate_collection(seq, new_coll)
        if not ok:
            raise InternalInvariantError(f"move corrupted the collection: {why}")
        move["signature"] = list(new_coll.signature)
        moves.append(move)
        signatures.append(new_coll.signature)
        coll = new_coll
    return SolveResult(coll, moves, signatures)


def _record_from_move(data: dict) -> AddRecord:
    if data["mode"] == "direct":
        return AddRecord(_unpair(data["element"]), "direct")
    variant = (_unpair(data["removed"]), _unpair(data["witness"]))
    return AddRecord(_unpair(data["element"]), "indirect", (variant,))


def apply_move(seq: BaseSequence, coll: Collection, move: dict) -> Collection:
    """Mechanically apply one logged move; raises on any divergence."""
    kind = move["kind"]
    try:
        if kind == "augment":
            return _apply_augment_move(coll, move)
        if kind == "cascade":
            return _apply_cascade_move(seq, coll, move)
    except (KeyError, IndexError, TypeError, PreconditionError) as exc:
        raise CorruptedTraceError(f"cannot apply move {kind!r}: {exc}") from exc
    raise CorruptedTraceError(f"unknown move kind {kind!r}")


def _apply_augment_move(coll, move):
    i = move["set"]
    if not 0 <= i <= len(coll.sets):
        raise CorruptedTraceError(f"augment names set {i} of {len(coll.sets)}")
    S = coll.sets[i] if i < len(coll.sets) else frozenset()
    removed = frozenset(map(tuple, move["removed"]))
    added = frozenset(map(tuple, move["added"]))
    if not removed <= S or not added.isdisjoint(S) or len(added) != len(removed) + 1:
        raise CorruptedTraceError(f"augment of set {i} is not a path out of it")
    return _augmented(coll, i, removed, added)


def _apply_cascade_move(seq, coll, move):
    root = Root(coll, move["root_set"], move["colour"])
    for step in move["steps"]:
        root = transition(seq, root, _record_from_move(step))
        if root.index != step["donor"]:
            raise CorruptedTraceError("cascade step landed on the wrong set")
    root = transition(seq, root, _record_from_move(move["assoc"]))
    j, d = move["landing"], move["donor_set"]
    removed = frozenset(_unpair(p) for p in move["removed"])
    added = frozenset(_unpair(p) for p in move["added"])
    new_target = coll.sets[j] - removed | added
    new_source = coll.sets[d] - added
    out = root.collection.replace(j, new_target)
    return out.replace(d, new_source)


def replay_moves(seq: BaseSequence, moves: list) -> Collection:
    """Re-derive the final collection from the log, re-validating every step."""
    coll = Collection(seq.n)
    for idx, move in enumerate(moves):
        new_coll = apply_move(seq, coll, move)
        if lex_compare(new_coll.signature, coll.signature) <= 0:
            raise CorruptedTraceError(f"move {idx} does not raise the signature")
        ok, why = validate_collection(seq, new_coll)
        if not ok:
            raise CorruptedTraceError(f"move {idx} breaks validity: {why}")
        if "signature" in move and tuple(move["signature"]) != new_coll.signature:
            raise CorruptedTraceError(f"move {idx} signature mismatch")
        coll = new_coll
    return coll


def dump_move_log(moves: list) -> str:
    return "".join(json.dumps(m, sort_keys=True) + "\n" for m in moves)


def load_move_log(text: str) -> list:
    moves = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            moves.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise CorruptedTraceError(f"move log line {lineno}: {exc}") from exc
    return moves
