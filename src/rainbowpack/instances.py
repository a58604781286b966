"""Instance file format (YAML), the one check of an instance
(:meth:`Instance.base_sequence`) and generators that build their bases by
construction, so they succeed at every n.

Documents load through PyYAML's safe loader (libyaml's ``CSafeLoader``
where PyYAML has it) with one fast path: the flow sequences of plain decimal
ints that make up nearly all of an instance are spliced out of the text and
read with ``split`` and ``int``; see :func:`load_yaml`.  Everything else
takes the safe loader's own path (``017`` is still 15, ``019`` a string), so
a document loads to the same values as the safe loader it builds on.  That
is not always ``yaml.safe_load``: its pure-Python parser refuses a tab
inside a flow sequence (``a: [1,<tab>2]``), which libyaml reads as
``[1, 2]``.  Every text the package writes goes through :func:`dump_yaml`,
whose flow-style leaves are what the splice reads.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from typing import Optional

import yaml

from .errors import InputError, ValidationError
from .matroids import GirthTooExpensiveError, Matroid, build_matroid, gf_rank, girth
from .model import BaseSequence, overlap_counts

FORMAT_VERSION = 1

GENERATOR_FAMILIES = ("uniform", "sparse_paving", "graphic", "linear")

# libyaml's safe dumper and loader where PyYAML was built with it: the same
# text as the pure-Python SafeDumper, several times faster.
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# A flow sequence of one or more plain decimals (ASCII digits with no leading
# zero, or 0: always YAML 1.1 decimal ints) standing after "- " or ": ",
# wrapped over lines as the dumper wraps long rows.
_FLOW_DECIMALS = re.compile(
    r"(?<=[-:] )\[([ \n]*(?:{0})[ \n]*(?:,[ \n]*(?:{0})[ \n]*)*)\]".format("0|[1-9][0-9]*")
)
_INTS_TAG = "!rainbowpack/ints"


class _SplicedLoader(_YAML_LOADER):
    """The loader for a text whose flow sequences of plain decimals were cut
    out: each one is a scalar ``!rainbowpack/ints k`` whose items' text
    waits in ``unclaimed`` under the key ``"k"``."""

    def __init__(self, text, unclaimed):
        super().__init__(text)
        self.unclaimed = unclaimed


def _claim_ints(loader, node):
    # A scalar that is not exactly "k" for an unclaimed k (plain text that
    # ran on after the tag, say) claims nothing, and the caller sees it.
    items = loader.unclaimed.pop(node.value, None)
    return None if items is None else list(map(int, items.split(",")))


_SplicedLoader.add_constructor(_INTS_TAG, _claim_ints)


def _load_spliced(text: str):
    """``(True, value)`` of the text loaded with its flow sequences of plain
    decimals spliced out, or ``(False, None)`` where the splice cannot be
    trusted to mean what the text means."""
    if "!" in text:  # a tag of the text's own could be the splice's
        return False, None
    pieces, unclaimed, end = [], {}, 0
    for match in _FLOW_DECIMALS.finditer(text):
        key = str(len(unclaimed))
        unclaimed[key] = match[1]
        pieces += (text[end:match.start()], _INTS_TAG, " ", key)
        end = match.end()
    if not unclaimed:
        return False, None
    pieces.append(text[end:])
    loader = _SplicedLoader("".join(pieces), unclaimed)
    try:
        value = loader.get_single_data()
    except (yaml.YAMLError, ValueError):  # the original text's error, or none
        return False, None
    finally:
        loader.dispose()
    # every span was a flow sequence only if each stand-in was built, once,
    # from its own text; one in a comment, a quoted, block or multi-line
    # scalar is built as part of that text or not at all
    return not unclaimed, value


@dataclass(frozen=True)
class Instance:
    """One serializable problem: a matroid family spec, n coloured bases and
    the kappa and beta it may declare, unchecked until :meth:`base_sequence`."""

    family: str
    params: dict
    bases: tuple
    version: int = FORMAT_VERSION
    declared_beta: Optional[int] = None
    declared_kappa: Optional[int] = None
    provenance: dict = field(default_factory=dict)

    def matroid(self) -> Matroid:
        return build_matroid(self.family, self.params)

    def base_sequence(self) -> BaseSequence:
        """The checked base sequence: the matroid checks its parameters, the
        sequence each base, then the declared kappa and beta are checked."""
        seq = BaseSequence(self.matroid(), self.bases)
        _check_declared(self, seq)
        return seq


def _require(mapping, key, kind, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise InputError(f"{where}: missing field {key!r}")
    value = mapping[key]
    # not isinstance: YAML's true and false load as bools, which isinstance
    # counts as integers
    if kind is not None and type(value) is not kind:
        raise InputError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _optional_mapping(data: dict, key: str) -> dict:
    """The mapping under ``key``; an absent key or null means an empty one."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise InputError(f"{key}: expected a mapping")
    return value


def load_yaml(text: str):
    """One YAML document under the safe schema; raises ``yaml.YAMLError``,
    also for a scalar that has no Python value (an integer over Python's
    digit limit, an impossible date).

    Each flow sequence of plain decimals (ASCII digits with no leading
    zero, or ``0``) after ``- `` or ``: ``, one line or wrapped, is read
    with one ``split`` and ``int``, and the safe loader composes only the
    rest of the document, with a tagged stand-in scalar for each sequence.
    Its result stands only if the text has no ``!`` (so holds no tag, the
    stand-ins' among them) and every stand-in was built exactly once from
    its own text.  Otherwise (no such sequence, a span inside a comment or
    a quoted, block or multi-line scalar, an int over the digit limit, or a
    spliced text the loader rejects) the safe loader reads the whole
    original text, so the value, or the error, is the safe loader's.
    """
    try:
        spliced, value = _load_spliced(text)
        if spliced:
            return value
        return yaml.load(text, Loader=_YAML_LOADER)
    except ValueError as exc:
        raise yaml.YAMLError(str(exc)) from exc


def parse_instance(text: str) -> Instance:
    """Read one instance document; raises :class:`InputError` only, for a
    text that is not one.  It builds nothing: see :meth:`Instance.base_sequence`."""
    try:
        data = load_yaml(text)
    except yaml.YAMLError as exc:
        raise InputError(f"not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("instance document must be a mapping")
    version = _require(data, "version", int, "instance")
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported format version {version}")
    matroid_spec = _require(data, "matroid", dict, "instance")
    family = _require(matroid_spec, "family", str, "matroid")
    params = _require(matroid_spec, "params", dict, "matroid")
    bases_raw = _require(data, "bases", list, "instance")
    bases = []
    for c, base in enumerate(bases_raw, start=1):
        if not isinstance(base, list) or not {*map(type, base)} <= {int}:
            raise InputError(f"bases[{c}]: expected a list of integers")
        bases.append(tuple(sorted(base)))

    declared = _optional_mapping(data, "declared")
    extra = sorted(map(str, declared.keys() - {"beta", "kappa"}))
    if extra:
        raise InputError(f"declared: unknown field {', '.join(extra)}; expected beta or kappa")
    beta = declared.get("beta")
    kappa = declared.get("kappa")
    for name, value in (("beta", beta), ("kappa", kappa)):
        if value is not None and type(value) is not int:
            raise InputError(f"declared.{name}: expected an integer")

    provenance = _optional_mapping(data, "provenance")

    return Instance(
        family=family,
        params=params,
        bases=tuple(bases),
        version=version,
        declared_beta=beta,
        declared_kappa=kappa,
        provenance=dict(provenance),
    )


def _check_declared(inst: Instance, seq: BaseSequence) -> None:
    """Check the declared kappa and beta against the instance's base sequence."""
    if inst.declared_kappa is not None:
        actual = seq.overlap_kappa()
        if inst.declared_kappa < actual:
            counts = overlap_counts(seq.bases)
            offender = max(counts, key=lambda x: (counts[x], -x))
            raise ValidationError(
                f"declared kappa={inst.declared_kappa} below actual overlap "
                f"{actual} (element {offender})"
            )
    if inst.declared_beta is not None:
        if inst.declared_beta < 0:
            raise ValidationError("declared beta must be non-negative")
        promised = seq.n - inst.declared_beta + 1
        # only a circuit smaller than the promise breaks it, and the search
        # finds the smallest first: when it finds one, that is the girth
        g = _safe_girth(seq.matroid, promised - 1)
        if g is not None and g < promised:
            raise ValidationError(
                f"declared beta={inst.declared_beta} promises girth >= "
                f"{promised} but the matroid has girth {g}"
            )


def _safe_girth(M: Matroid, most: Optional[int] = None):
    try:
        return girth(M, most)
    except GirthTooExpensiveError:
        return None


def _girth_deficit(M: Matroid, n: int) -> Optional[int]:
    """The least beta with girth >= n - beta + 1; 0 for a free matroid,
    None when the girth search is over its cap."""
    g = _safe_girth(M)
    return None if g is None else max(0, n + 1 - g)


def canonical_dict(inst: Instance) -> dict:
    data: dict = {
        "version": inst.version,
        "matroid": {"family": inst.family, "params": inst.params},
        "bases": [sorted(base) for base in inst.bases],
    }
    declared = {}
    if inst.declared_beta is not None:
        declared["beta"] = inst.declared_beta
    if inst.declared_kappa is not None:
        declared["kappa"] = inst.declared_kappa
    if declared:
        data["declared"] = declared
    if inst.provenance:
        data["provenance"] = dict(inst.provenance)
    return data


def dump_yaml(data) -> str:
    """``data`` as YAML text in sorted key order, with every sequence or
    mapping of scalars in flow style, the form :func:`load_yaml`'s splice
    reads."""
    return yaml.dump(data, Dumper=_YAML_DUMPER, sort_keys=True, default_flow_style=None)


def emit_instance(inst: Instance) -> str:
    """Canonical text form: stable key order, bit-exact across runs."""
    return dump_yaml(canonical_dict(inst))


def instance_digest(inst: Instance) -> str:
    return hashlib.sha256(emit_instance(inst).encode()).hexdigest()[:16]


def _windows(n, mode, kappa, rng):
    """Ground size m and n bases: n cyclic windows of n elements each.

    Window c holds positions c*step .. c*step + n - 1 of a cycle of
    m = n*step positions.  Disjoint mode takes step n and keeps the labels,
    so base c is c*n .. c*n + n - 1.  Overlapping mode draws step from
    ceil(n/kappa)..n-1, so no position lies in more than kappa windows, and
    relabels the cycle at random.
    """
    if mode == "disjoint":
        step = n
        label = range(n * n)
    else:
        least = -(-n // kappa)
        step = rng.randint(least, max(least, n - 1))
        label = list(range(n * step))
        rng.shuffle(label)
    m = n * step
    bases = tuple(
        tuple(sorted(label[(c * step + i) % m] for i in range(n))) for c in range(n)
    )
    return m, bases


def _gen_uniform(n, mode, kappa, rng):
    m, bases = _windows(n, mode, kappa, rng)
    return {"k": n, "m": m}, bases


def _gen_sparse_paving(n, mode, kappa, rng):
    """The windows, and as circuit-hyperplanes up to n of 200 random n-sets
    that are not bases and meet each other in at most n - 2 elements."""
    m, bases = _windows(n, mode, kappa, rng)
    forbidden = {frozenset(B) for B in bases}
    chs: list = []
    for _ in range(200):
        if len(chs) >= n:
            break
        cand = frozenset(rng.sample(range(m), n))
        if cand not in forbidden and all(len(cand & ch) <= n - 2 for ch in chs):
            chs.append(cand)
    return {"k": n, "m": m, "circuit_hyperplanes": [sorted(ch) for ch in chs]}, bases


def _random_spanning_tree(rng: random.Random, vertices: int) -> list:
    """Random tree on 0..vertices-1 as an edge list."""
    order = list(range(vertices))
    rng.shuffle(order)
    return [
        tuple(sorted((order[i], order[rng.randrange(i)])))
        for i in range(1, vertices)
    ]


def _gen_graphic(n, mode, kappa, rng):
    """Fresh copies of random spanning trees on n + 1 vertices.

    ``share`` colours take one copy each, 1 in disjoint mode and kappa in
    overlapping mode, so every edge lies in at most kappa bases.
    """
    share = 1 if mode == "disjoint" else kappa
    vertices = n + 1
    edges: list = []
    bases: list = []
    for start in range(0, n, share):
        idx = tuple(range(len(edges), len(edges) + n))
        edges.extend(_random_spanning_tree(rng, vertices))
        bases.extend([idx] * min(share, n - start))
    return {"vertices": vertices, "edges": [list(e) for e in edges]}, tuple(bases)


def _draw_base(columns, B, p, rng) -> bool:
    """Redraw the columns of B that no earlier base drew until B has full
    rank; False when the columns already drawn are dependent, since then no
    redraw can help."""
    fixed = [columns[j] for j in B if columns[j] is not None]
    if gf_rank(fixed, p) < len(fixed):
        return False
    fresh = [j for j in B if columns[j] is None]
    while True:
        for j in fresh:
            columns[j] = tuple(rng.randrange(p) for _ in range(len(B)))
        if gf_rank([columns[j] for j in B], p) == len(B):
            return True


def _gen_linear(n, mode, kappa, rng):
    """Random GF(5) columns on the windows, drawn base by base; a base whose
    earlier columns are dependent starts the whole draw over."""
    p = 5
    m, bases = _windows(n, mode, kappa, rng)
    while True:
        columns: list = [None] * m
        if all(_draw_base(columns, B, p, rng) for B in bases):
            break
    matrix = [[col[i] for col in columns] for i in range(n)]
    return {"p": p, "matrix": matrix}, bases


_GENERATORS = {
    "uniform": _gen_uniform,
    "sparse_paving": _gen_sparse_paving,
    "graphic": _gen_graphic,
    "linear": _gen_linear,
}


def generate_instance(
    family: str,
    n: int,
    mode: str = "disjoint",
    kappa: int = 2,
    seed: int = 0,
) -> Instance:
    """One instance, deterministic per (family, n, mode, kappa, seed).

    The bases are built, not sampled: cyclic windows (:func:`_windows`) for
    uniform, sparse paving and linear, shared spanning-tree copies for
    graphic.  So every n >= 1 and every kappa >= 2 give an instance with no
    element in more than kappa bases.  Only the matroid is built, for the
    least beta its girth allows; kappa is the bases' overlap, or ``kappa``.
    """
    if family not in _GENERATORS:
        raise InputError(f"unknown generator family {family!r}")
    if n < 1:
        raise InputError("n must be positive")
    if mode not in ("disjoint", "overlapping"):
        raise InputError(f"mode must be 'disjoint' or 'overlapping', got {mode!r}")
    if mode == "overlapping" and kappa < 2:
        raise InputError("overlapping mode needs kappa >= 2")
    rng = random.Random(f"{family}:{n}:{mode}:{kappa}:{seed}")
    params, bases = _GENERATORS[family](n, mode, kappa, rng)
    overlap = max(overlap_counts(bases).values())
    return Instance(
        family=family,
        params=params,
        bases=tuple(tuple(sorted(b)) for b in bases),
        declared_beta=_girth_deficit(build_matroid(family, params), n),
        declared_kappa=max(overlap, kappa if mode == "overlapping" else 1),
        provenance={"generator": f"{family}-{mode}", "seed": seed},
    )
