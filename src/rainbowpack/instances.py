"""Instance file format (YAML), validation and seeded generators."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Optional

import yaml

from .errors import InputError, ValidationError
from .matroids import GirthTooExpensiveError, Matroid, build_matroid, girth
from .model import BaseSequence, overlap_counts

FORMAT_VERSION = 1

GENERATOR_FAMILIES = ("uniform", "sparse_paving", "graphic", "linear")

# libyaml's safe loader where PyYAML was built with it: the same documents as
# the pure-Python SafeLoader, several times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class Instance:
    """One serializable problem: a matroid family spec plus n coloured bases."""

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
        return BaseSequence(self.matroid(), self.bases)


def _require(mapping, key, kind, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise InputError(f"{where}: missing field {key!r}")
    value = mapping[key]
    # not isinstance: YAML's true and false load as bools, which isinstance
    # counts as integers
    if kind is not None and type(value) is not kind:
        raise InputError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def load_yaml(text: str):
    """One YAML document under the safe schema; raises ``yaml.YAMLError``."""
    return yaml.load(text, Loader=_YAML_LOADER)


def parse_instance(text: str) -> Instance:
    """Parse and fully validate one instance document."""
    return load_instance(text)[0]


def load_instance(text: str) -> tuple:
    """Parse and fully validate one instance document; returns the instance
    and the base sequence its validation built."""
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
        if not isinstance(base, list) or not all(type(x) is int for x in base):
            raise InputError(f"bases[{c}]: expected a list of integers")
        bases.append(tuple(sorted(base)))

    declared = data.get("declared") or {}
    if not isinstance(declared, dict):
        raise InputError("declared: expected a mapping")
    beta = declared.get("beta")
    kappa = declared.get("kappa")
    for name, value in (("beta", beta), ("kappa", kappa)):
        if value is not None and type(value) is not int:
            raise InputError(f"declared.{name}: expected an integer")

    provenance = data.get("provenance") or {}
    if not isinstance(provenance, dict):
        raise InputError("provenance: expected a mapping")

    inst = Instance(
        family=family,
        params=params,
        bases=tuple(bases),
        version=version,
        declared_beta=beta,
        declared_kappa=kappa,
        provenance=dict(provenance),
    )
    return inst, validate_instance(inst)


def validate_instance(inst: Instance) -> BaseSequence:
    """Build and cross-check the instance; returns the base sequence."""
    seq = inst.base_sequence()  # raises naming the offending colour
    _check_declared(inst, seq)
    return seq


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
        g = _safe_girth(seq.matroid)
        if g is not None and g < seq.n - inst.declared_beta + 1:
            raise ValidationError(
                f"declared beta={inst.declared_beta} promises girth >= "
                f"{seq.n - inst.declared_beta + 1} but the matroid has girth {g}"
            )


def _safe_girth(M: Matroid):
    try:
        return girth(M)
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


def emit_instance(inst: Instance) -> str:
    """Canonical text form: stable key order, bit-exact across runs."""
    return yaml.safe_dump(canonical_dict(inst), sort_keys=True, default_flow_style=None)


def instance_digest(inst: Instance) -> str:
    return hashlib.sha256(emit_instance(inst).encode()).hexdigest()[:16]


def _sample_subset(rng: random.Random, m: int, size: int) -> tuple:
    return tuple(sorted(rng.sample(range(m), size)))


def _overlapping_ground_size(n: int, kappa: int) -> int:
    # kappa copies of each element must cover n*n base slots
    return max(n + 1, -(-n * n // kappa) + n)


def _gen_uniform(n, mode, kappa, rng):
    if mode == "disjoint":
        m = n * n
        bases = tuple(tuple(range(c * n, (c + 1) * n)) for c in range(n))
        return {"k": n, "m": m}, bases
    m = _overlapping_ground_size(n, kappa)
    for _ in range(500):
        bases = tuple(_sample_subset(rng, m, n) for _ in range(n))
        if max(overlap_counts(bases).values()) <= kappa:
            return {"k": n, "m": m}, bases
    raise InputError(f"could not sample kappa={kappa} overlapping bases for n={n}")


def _sample_circuit_hyperplanes(n, m, bases, rng, tries=200):
    forbidden = {frozenset(B) for B in bases}
    chs: list = []
    for _ in range(tries):
        if len(chs) >= n:
            break
        cand = frozenset(_sample_subset(rng, m, n))
        if cand in forbidden:
            continue
        if all(len(cand & other) <= n - 2 for other in chs):
            chs.append(cand)
    return [sorted(ch) for ch in chs]


def _gen_sparse_paving(n, mode, kappa, rng):
    params, bases = _gen_uniform(n, mode, kappa, rng)
    m = params["m"]
    chs = _sample_circuit_hyperplanes(n, m, bases, rng)
    return {"k": n, "m": m, "circuit_hyperplanes": chs}, bases


def _random_spanning_tree(rng: random.Random, vertices: int) -> list:
    """Random tree on 0..vertices-1 as an edge list."""
    order = list(range(vertices))
    rng.shuffle(order)
    return [
        tuple(sorted((order[i], order[rng.randrange(i)])))
        for i in range(1, vertices)
    ]


def _gen_graphic(n, mode, kappa, rng):
    vertices = n + 1
    if mode == "disjoint":
        # each base gets its own fresh copies of a random spanning tree
        edges: list = []
        bases = []
        for _ in range(n):
            tree = _random_spanning_tree(rng, vertices)
            bases.append(tuple(range(len(edges), len(edges) + n)))
            edges.extend(tree)
        return {"vertices": vertices, "edges": [list(e) for e in edges]}, tuple(bases)
    # groups of up to kappa colours share one fresh tree copy, so every edge
    # instance is used by at most kappa bases and the construction never fails
    pool: list = []
    bases = []
    for start in range(0, n, kappa):
        tree = _random_spanning_tree(rng, vertices)
        idx = tuple(range(len(pool), len(pool) + n))
        pool.extend(tree)
        for _ in range(min(kappa, n - start)):
            bases.append(idx)
    return {"vertices": vertices, "edges": [list(e) for e in pool]}, tuple(bases)


def _gen_linear(n, mode, kappa, rng):
    from .matroids import gf_rank

    p = 5
    def random_base_columns():
        while True:
            cols = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)]
            if gf_rank(cols, p) == n:
                return cols

    if mode == "disjoint":
        columns: list = []
        bases = []
        for _ in range(n):
            bases.append(tuple(range(len(columns), len(columns) + n)))
            columns.extend(random_base_columns())
    else:
        m = _overlapping_ground_size(n, kappa)
        for _ in range(500):
            columns = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(m)]
            bases = []
            for _ in range(200):
                cand = _sample_subset(rng, m, n)
                if gf_rank([columns[j] for j in cand], p) == n:
                    bases.append(cand)
                    if len(bases) == n:
                        break
            if len(bases) == n and max(overlap_counts(bases).values()) <= kappa:
                break
        else:
            raise InputError(f"could not sample linear kappa={kappa} bases for n={n}")
    matrix = [[col[i] for col in columns] for i in range(n)]
    return {"p": p, "matrix": matrix}, tuple(bases)


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
    """Deterministic per (family, n, mode, kappa, seed)."""
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
    seq = BaseSequence(build_matroid(family, params), bases)
    return Instance(
        family=family,
        params=params,
        bases=tuple(tuple(sorted(b)) for b in bases),
        declared_beta=_girth_deficit(seq.matroid, n),
        declared_kappa=max(seq.overlap_kappa(), kappa if mode == "overlapping" else 1),
        provenance={"generator": f"{family}-{mode}", "seed": seed},
    )
