"""Instance file format: round trips, validation and seeded generators."""

import ast
import importlib.util
import pathlib

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from rainbowpack import instances, matroids
from rainbowpack.errors import InputError, ValidationError
from rainbowpack.instances import (
    GENERATOR_FAMILIES,
    Instance,
    emit_instance,
    generate_instance,
    instance_digest,
    load_yaml,
    parse_instance,
)
from rainbowpack.model import overlap_counts


# Every family in both modes at these n, seeds 0-1 with kappa = 2 and a few
# n with kappa = 3: the generators build their bases, so each one succeeds.
GRID = [
    *((n, 2) for n in (*range(1, 9), 12, 16, 24, 40)),
    *((n, 3) for n in (3, 7, 12)),
]


def _round_tripped():
    """The generator-grid instances the text round trip covers."""
    for family in GENERATOR_FAMILIES:
        for mode in ("disjoint", "overlapping"):
            for n, kappa in GRID:
                if n <= 16:
                    for seed in range(2):
                        yield generate_instance(family, n, mode, kappa=kappa, seed=seed)


def test_round_trip_identity_fuzz():
    # The text round trip stops at n = 16: even libyaml takes ~0.4 s to emit
    # the 40 x 1600 matrix of a linear instance at n = 40.
    for family in GENERATOR_FAMILIES:
        for mode in ("disjoint", "overlapping"):
            for n, kappa in GRID:
                for seed in range(2):
                    inst = generate_instance(family, n, mode, kappa=kappa, seed=seed)
                    most = max(overlap_counts(inst.bases).values())
                    assert most <= (kappa if mode == "overlapping" else 1)
                    if n > 16:
                        continue
                    text = emit_instance(inst)
                    back = parse_instance(text)
                    assert back == inst
                    back.base_sequence()  # a generated instance passes its check
                    if n <= 8:
                        assert emit_instance(back) == text  # a fixed point


def test_generator_determinism():
    a = generate_instance("graphic", 4, "disjoint", seed=7)
    b = generate_instance("graphic", 4, "disjoint", seed=7)
    c = generate_instance("graphic", 4, "disjoint", seed=8)
    assert a == b
    assert instance_digest(a) != instance_digest(c)


@pytest.mark.parametrize(
    "family, mode, digest",
    [
        ("uniform", "disjoint", "a8e9baa091eb650a"),
        ("sparse_paving", "disjoint", "125a2f47789e39ec"),
        ("graphic", "disjoint", "ae530304ec427f41"),
        ("linear", "disjoint", "2bf6ef9d0d79dd55"),
        ("graphic", "overlapping", "4fc04620ef98e05c"),
    ],
)
def test_generator_output_is_pinned(family, mode, digest):
    # The instances the window construction left alone: disjoint ones of
    # every family and graphic overlapping ones.
    assert instance_digest(generate_instance(family, 4, mode, kappa=2, seed=0)) == digest


def test_generator_modes():
    for family in GENERATOR_FAMILIES:
        for n in (1, 2, 5, 8):
            disjoint = generate_instance(family, n, "disjoint", seed=0)
            assert disjoint.base_sequence().is_disjoint()
            assert disjoint.declared_kappa == 1
            for kappa in (2, 3):
                overlapping = generate_instance(family, n, "overlapping", kappa=kappa)
                assert overlapping.base_sequence().overlap_kappa() <= kappa
                assert overlapping.declared_kappa == kappa
    # the windows of an overlapping instance do overlap once n > 1
    assert not generate_instance("uniform", 8, "overlapping").base_sequence().is_disjoint()
    with pytest.raises(InputError):
        generate_instance("uniform", 3, "overlapping", kappa=1)
    with pytest.raises(InputError):
        generate_instance("nosuch", 3)
    with pytest.raises(InputError):
        generate_instance("uniform", 0)


def test_generators_do_not_import_each_other():
    # The benchmark's instances must not move when the program's generators
    # do, so neither generator may import the other.
    root = pathlib.Path(__file__).resolve().parent.parent
    pairs = (
        ("src/rainbowpack/instances.py", ("gen", "perfbench")),
        ("perfbench/gen.py", ("rainbowpack",)),
    )
    for path, forbidden in pairs:
        tree = ast.parse((root / path).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in forbidden, (path, name)


def test_declared_fields_checked():
    inst = generate_instance("uniform", 3, "disjoint", seed=0)
    too_low = Instance(
        inst.family, inst.params, inst.bases,
        declared_beta=inst.declared_beta, declared_kappa=0,
    )
    with pytest.raises(ValidationError):
        parse_instance(emit_instance(too_low)).base_sequence()
    # declared beta promising a girth the matroid does not have
    sp = generate_instance("sparse_paving", 3, "disjoint", seed=0)
    if sp.declared_beta and sp.declared_beta > 0:
        lying = Instance(
            sp.family, sp.params, sp.bases,
            declared_beta=0, declared_kappa=sp.declared_kappa,
        )
        with pytest.raises(ValidationError):
            parse_instance(emit_instance(lying)).base_sequence()


def test_a_hand_built_instance_is_checked_by_its_base_sequence():
    # The same check as a parsed one: a declared kappa below the overlap,
    # and a declared beta that the girth breaks, are both refused.
    overlapping = ("uniform", {"k": 2, "m": 4}, ((0, 1), (0, 1)))
    Instance(*overlapping, declared_kappa=2).base_sequence()
    with pytest.raises(ValidationError, match="declared kappa=1 below actual overlap 2"):
        Instance(*overlapping, declared_kappa=1).base_sequence()
    # a circuit-hyperplane of U(2, 4) is a circuit of size 2
    paving = ("sparse_paving", {"k": 2, "m": 4, "circuit_hyperplanes": [[0, 1]]}, ((0, 2), (1, 3)))
    Instance(*paving, declared_beta=1).base_sequence()
    with pytest.raises(ValidationError, match="promises girth >= 3 but the matroid has girth 2"):
        Instance(*paving, declared_beta=0).base_sequence()


@pytest.mark.parametrize("mode", ["disjoint", "overlapping"])
def test_declared_beta_check_asks_no_set_beyond_the_promise(mode):
    # Linear n = 4 has no closed-form girth and m <= 20, so the check
    # searches.  The promise girth >= n - beta + 1 is broken only by a
    # smaller circuit, so no set of more than n - beta elements is asked;
    # a broken promise still names the matroid's girth.
    inst = generate_instance("linear", 4, mode, seed=0)
    seq = inst.base_sequence()
    M = seq.matroid
    g = matroids.girth(M)
    assert M._girth_closed_form() is None and M.size <= matroids.GIRTH_SEARCH_CAP
    asked = []
    build = M._build
    M._build = lambda T: asked.append(len(T)) or build(T)
    for beta in (inst.declared_beta, inst.declared_beta - 1):
        asked.clear()
        declared = Instance(inst.family, inst.params, inst.bases, declared_beta=beta)
        if g >= seq.n - beta + 1:
            instances._check_declared(declared, seq)
        else:
            with pytest.raises(ValidationError, match=f"the matroid has girth {g}$"):
                instances._check_declared(declared, seq)
        assert asked and max(asked) <= seq.n - beta, (beta, asked)


def test_parse_rejects_malformed():
    good = emit_instance(generate_instance("uniform", 2, "disjoint", seed=0))
    with pytest.raises(InputError):
        parse_instance("just: [a, scalar")  # broken YAML
    with pytest.raises(InputError):
        parse_instance("- a\n- list\n")
    with pytest.raises(InputError):
        parse_instance(good.replace("version: 1", "version: 99"))
    with pytest.raises(InputError):
        parse_instance("version: 1\nbases: []\n")  # missing matroid
    with pytest.raises(InputError):
        parse_instance(
            "version: 1\nmatroid: {family: uniform, params: {k: 2, m: 4}}\n"
            "bases: [[0, x], [2, 3]]\n"
        )
    # the matroid's parameters are read, and checked by base_sequence()
    for matroid, message in (
        (
            "{family: graphic, params: {vertices: 3, edges: [5, [0, 1]]}}",
            "family 'graphic' parameter 'edges' must be a list of lists, got [5, [0, 1]]",
        ),
        (
            "{family: uniform, params: {k: a, m: 4}}",
            "family 'uniform' parameter 'k' must be an integer, got 'a'",
        ),
        (
            "{family: uniform, params: {k: 2, m: 4.5}}",
            "family 'uniform' parameter 'm' must be an integer, got 4.5",
        ),
        (
            "{family: linear, params: {p: 2, matrix: 5}}",
            "family 'linear' parameter 'matrix' must be a list of lists, got 5",
        ),
        (
            "{family: sparse_paving, params: {k: 2, m: 4, circuit_hyperplanes: 5}}",
            "family 'sparse_paving' parameter 'circuit_hyperplanes' must be a list of lists, got 5",
        ),
        (  # a parameter the family does not take
            "{family: uniform, params: {k: 2, m: 4, circuit_hyperplanes: [[0, 1]]}}",
            "family 'uniform' takes no parameter circuit_hyperplanes",
        ),
    ):
        inst = parse_instance(f"version: 1\nmatroid: {matroid}\nbases: [[0, 1], [2, 3]]\n")
        with pytest.raises(ValidationError) as raised:
            inst.base_sequence()
        assert str(raised.value) == message
    # a declared field other than beta and kappa, such as a misspelt kappa
    with pytest.raises(InputError, match="kapa"):
        parse_instance(
            "version: 1\nmatroid: {family: uniform, params: {k: 2, m: 4}}\n"
            "bases: [[0, 1], [2, 3]]\ndeclared: {kapa: 1}\n"
        )


_UNIFORM = "matroid: {family: uniform, params: {k: 2, m: 4}}\n"


@pytest.mark.parametrize(
    "text, error",
    [
        ("version: true\n" + _UNIFORM + "bases: [[0, 1], [2, 3]]\n", InputError),
        (
            "version: 1\nmatroid: {family: uniform, params: {k: 3, m: 6}}\n"
            "bases: [[false, true, 2], [3, 4, 5], [0, 2, 4]]\n",
            InputError,
        ),
        (
            "version: 1\n" + _UNIFORM + "bases: [[0, 1], [2, 3]]\ndeclared: {beta: true}\n",
            InputError,
        ),
        (
            "version: 1\nmatroid: {family: linear, params: {p: 2, matrix: [[1, 0], [0, true]]}}\n"
            "bases: [[0, 1], [0, 1]]\n",
            ValidationError,
        ),
        (
            "version: 1\nmatroid: {family: graphic, params: {vertices: 4, edges: "
            "[[false, 3], [1, 2], [2, 3], [0, 1], [1, 3], [0, 2]]}}\n"
            "bases: [[0, 1, 2], [3, 4, 5], [2, 3, 5]]\n",
            ValidationError,
        ),
        (
            "version: 1\nmatroid: {family: sparse_paving, params: "
            "{k: 3, m: 6, circuit_hyperplanes: [[false, true, 5]]}}\n"
            "bases: [[0, 1, 2], [3, 4, 5], [0, 2, 4]]\n",
            InputError,  # an element outside the ground set
        ),
    ],
    ids=["version", "base", "declared", "matrix-entry", "edge", "hyperplane"],
)
def test_parse_rejects_booleans_for_integers(text, error):
    # YAML's true and false are not integers anywhere in the format: kept,
    # they would give the same instance another digest
    with pytest.raises(error):
        parse_instance(text).base_sequence()


def test_parse_rejects_non_base():
    inst = parse_instance(
        "version: 1\nmatroid: {family: uniform, params: {k: 2, m: 4}}\n"
        "bases: [[0], [2, 3]]\n"
    )
    with pytest.raises(ValidationError) as raised:
        inst.base_sequence()
    assert str(raised.value) == "colour 1: [0] is not a base"


def test_digest_is_short_stable_hex():
    inst = generate_instance("linear", 2, "disjoint", seed=0)
    d = instance_digest(inst)
    assert len(d) == 16 and int(d, 16) >= 0


def test_emit_instance_matches_the_pure_python_dumper():
    if yaml.__with_libyaml__:
        assert instances._YAML_DUMPER is yaml.CSafeDumper
    for inst in _round_tripped():
        pure = yaml.safe_dump(
            instances.canonical_dict(inst), sort_keys=True, default_flow_style=None
        )
        assert emit_instance(inst) == pure


# Plain decimals take the loader's fast path; octal, hex, binary, separated,
# signed, base-60, float, quoted, explicitly tagged and non-ASCII digit
# scalars, and decimals with a leading zero, do not.
_SCALARS = (
    "[0, 7, 10, 017, 019, 0x1F, 0b101, 1_000, +5, -3, 1:20, 12.0, '12', \"12\","
    " !!str 12, !!int 017, \u0661\u0662\u0663, \u00b2, 007, 00]\n"
)
_YAML_CORPUS = (
    _SCALARS,
    "a: [&x 5, *x, 6]\nb: *x\n",  # anchors and aliases
    "{7: seven, 010: eight, '7': quoted}\n",  # int mapping keys
    "- 1\n- - 2\n  - 3\n- []\n- [[], [4, [5, 017]]]\n",  # block and nested sequences
    "[]\n",
    "a: []\nb: [[]]\n",
    "- !!int 12\n- !!int '34'\n",
)


def test_load_yaml_matches_the_pure_python_loader():
    safe = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert issubclass(instances._YAML_LOADER, safe)
    texts = list(_YAML_CORPUS)
    for family in GENERATOR_FAMILIES:
        for mode in ("disjoint", "overlapping"):
            texts.append(emit_instance(generate_instance(family, 4, mode, kappa=2, seed=1)))
    for family in ("uniform", "sparse_paving"):
        for mode in ("disjoint", "overlapping"):
            texts.append(emit_instance(generate_instance(family, 40, mode, kappa=2, seed=0)))
    texts.append(emit_instance(generate_instance("linear", 20, "disjoint", seed=0)))
    for text in texts:
        ours, reference = load_yaml(text), yaml.safe_load(text)
        assert ours == reference
        assert repr(ours) == repr(reference)  # True and 1, 15 and 15.0 differ here
    assert load_yaml(_SCALARS)[:5] == [0, 7, 10, 15, "019"]
    for text in ("just: [a, scalar", "a: 'open\n", "--- 1\n--- 2\n", "a: *nowhere\n"):
        with pytest.raises(yaml.YAMLError):
            yaml.safe_load(text)
        with pytest.raises(yaml.YAMLError):
            load_yaml(text)


# The safe loader load_yaml builds on: yaml.safe_load's schema on libyaml's
# parser where PyYAML has it.  The two parsers differ on a few texts (libyaml
# takes a tab inside a flow sequence, the pure-Python one refuses it), and
# the splice must keep the one load_yaml has.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _loads_like_safe_load(text):
    """load_yaml gives the safe loader's value, or raises where it raises,
    with the same message (its marks point into the text as given)."""
    try:
        reference = yaml.load(text, Loader=_SAFE_LOADER)
    except (yaml.YAMLError, ValueError) as exc:
        with pytest.raises(yaml.YAMLError) as raised:
            load_yaml(text)
        assert str(raised.value) == str(exc)
        return
    ours = load_yaml(text)
    assert ours == reference
    assert repr(ours) == repr(reference)


# Flow sequences of plain decimals where the splice must not change what the
# text means: spans that are not flow sequences, items that are not plain
# decimals, and texts whose tags or line ends the splice must respect.
_SPLICE_CORPUS = (
    'a: "x: [1, 2]"\nb: [3]\n',  # double-quoted scalar
    "a: 'x: [1, 2]'\nb: [3]\n",  # single-quoted scalar
    "a: |\n  x: [1, 2]\n  - [3]\nb: [4]\n",  # block scalar
    "a: [1] # b: [2, 3]\n",  # comment
    "# see: [1,\n2]\n",  # a comment opens a span the next line closes
    "a: b - [1]\n",  # plain scalar
    "a: b\n  - [1]\n",  # multi-line plain scalar
    "- [1, 2]: x\n",  # mapping key
    "a: [1] 0\n",
    "a: [1,\n  2]\nb: c: d\n",  # an error whose mark lies past a wrapped span
    "a: [1, 2, ]\n",
    "a: [1 2]\n",
    "a: [01]\n",
    "a: [1_000]\n",
    "a: [+1]\n",
    "a: [-1]\n",
    "a: []\n",
    "a: [[0, 1], [2, 3]]\n",
    "- [0, 1]\n- [2,\n  3]\n- {a: [4]}\n",
    "a: &x [1]\nb: *x\n",
    f"a: [1, {'9' * 5000}]\n",  # over Python's digit limit
    f"a: 'b: [1, {'9' * 5000}]'\n",  # the same in a quoted scalar
    "a: !rainbowpack/ints 0\nb: [1, 2]\n",  # the splice's own tag
    "a: '!rainbowpack/ints 0'\nb: [1, 2]\n",
    "%TAG !r! !rainbowpack/\n---\na: !r!ints 0\nb: [1, 2]\n",
    "a: [1, 2]\r\nb:\r\n- [3,\r\n  4]\r\n",  # CRLF line ends
    "a: [1,\t2]\n",  # a tab
)


@pytest.mark.parametrize("text", _SPLICE_CORPUS)
def test_a_spliced_text_loads_like_safe_load(text):
    _loads_like_safe_load(text)


# Values for the lines of an assembled document: flow sequences the splice
# takes, and the contexts and items it must leave to PyYAML.
_PLAIN_VALUES = ("[1, 2]", "[3,\n  40]", "[0]", "[]", "x", "{c: [11]}", "'x: [5]'")
_TRICKY_VALUES = (
    "[01]", "[1, 2, ]", "[[0, 1], [2]]", '"x: [6]"', "|\n  x: [7]\n  - [8]",
    "b - [9]", "x\n  - [10]", "[1,\t2]", "&x [12]", "*x", "[1] 0",
    f"[1, {'9' * 5000}]", "'!rainbowpack/ints 0'", "[1,", "2]",
)


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from(("a: ", "- ")),
    st.lists(
        st.tuples(
            st.sampled_from(_PLAIN_VALUES) | st.sampled_from(_TRICKY_VALUES),
            st.sampled_from(("\n", "\r\n", " # e: [13]\n", ": f\n")),
        ),
        max_size=6,
    ),
)
def test_load_yaml_matches_safe_load_on_assembled_texts(lead, lines):
    _loads_like_safe_load("".join(lead + value + end for value, end in lines))


def _perfbench_gen():
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_flow_style_instance_composes_only_its_skeleton(monkeypatch):
    texts = (
        emit_instance(generate_instance("linear", 20, "disjoint", seed=0)),
        _perfbench_gen().instance_text("linear", 20, "disjoint", 0, 0),
    )
    composed = []
    init = yaml.nodes.ScalarNode.__init__

    def counting_init(self, *args, **kwargs):
        composed.append(1)
        init(self, *args, **kwargs)

    for text in texts:
        reference = yaml.load(text, Loader=_SAFE_LOADER)
        composed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(yaml.nodes.ScalarNode, "__init__", counting_init)
            loaded = load_yaml(text)
        assert loaded == reference
        # one per key, short value and flow sequence (40 rows and bases), not
        # one per integer (8,400 of them)
        assert len(composed) <= 80, len(composed)


# Scalars that parse but have no Python value: an integer over Python's
# digit limit, in a sequence (the loader's fast path) and as a mapping value,
# and an impossible date.
_HUGE = "9" * 5000
NO_VALUE_YAML = (
    f"bases: [[0, 1], [2, {_HUGE}]]\n",
    f"provenance: {{seed: {_HUGE}}}\n",
    "provenance: {made: 2001-02-30}\n",
)


@pytest.mark.parametrize("section", NO_VALUE_YAML, ids=["huge-in-list", "huge", "date"])
def test_a_scalar_without_a_value_is_invalid_yaml(section):
    with pytest.raises(ValueError):
        yaml.safe_load(section)
    with pytest.raises(yaml.YAMLError):
        load_yaml(section)
    with pytest.raises(InputError, match="not valid YAML"):
        parse_instance("version: 1\n" + _UNIFORM + section)


def test_null_sections_mean_none():
    inst = parse_instance(
        "version: 1\n" + _UNIFORM + "bases: [[0, 1], [2, 3]]\ndeclared: null\nprovenance: null\n"
    )
    assert inst.declared_beta is None and inst.declared_kappa is None
    assert inst.provenance == {}


def _counting_builds(monkeypatch):
    """Counts of the matroids and base sequences ``instances`` builds."""
    built = {"matroid": 0, "sequence": 0}
    build = instances.build_matroid

    def counting_build(*args):
        built["matroid"] += 1
        return build(*args)

    class Counting(instances.BaseSequence):
        def __init__(self, *args):
            built["sequence"] += 1
            super().__init__(*args)

    monkeypatch.setattr(instances, "build_matroid", counting_build)
    monkeypatch.setattr(instances, "BaseSequence", Counting)
    return built


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_generate_instance_builds_one_base_sequence(monkeypatch, family):
    # generation builds the matroid for the girth and no base sequence;
    # the instance's check builds the one
    built = _counting_builds(monkeypatch)
    inst = generate_instance(family, 3, "overlapping", kappa=2, seed=0)
    assert built == {"matroid": 1, "sequence": 0}
    inst.base_sequence()
    assert built == {"matroid": 2, "sequence": 1}


def test_parse_instance_builds_nothing(monkeypatch):
    built = _counting_builds(monkeypatch)
    for family in GENERATOR_FAMILIES:
        for mode in ("disjoint", "overlapping"):
            inst = generate_instance(family, 4, mode, kappa=2, seed=3)
            before = dict(built)
            parsed = parse_instance(emit_instance(inst))
            assert parsed == inst and built == before
            seq = parsed.base_sequence()
            assert seq.bases == tuple(frozenset(B) for B in inst.bases)
            assert seq.matroid.params() == inst.matroid().params()


@pytest.mark.parametrize("mode", ["disjoint", "overlapping"])
def test_base_sequence_checks_leave_the_oracle_as_the_base_checks_do(mode):
    # The declared-beta check searches linear n = 4 (no closed-form girth,
    # m <= 20) by state builds, so the sequence comes back with the answers,
    # memo and kept state its base checks left, and a solve routes its
    # questions as it would without declared.beta.
    inst = generate_instance("linear", 4, mode, seed=0)
    assert inst.declared_beta is not None
    checked = inst.base_sequence().matroid
    plain = instances.BaseSequence(inst.matroid(), inst.bases).matroid
    assert checked.answers == plain.answers
    assert checked._known == plain._known
    assert checked._state.T == plain._state.T
