"""Packing disjoint rainbow bases of a matroid: models, solver, exact oracle."""

from .bounds import BoundRecord, theorem_bounds
from .errors import (
    BudgetExceededError,
    CorruptedTraceError,
    GirthTooExpensiveError,
    InputError,
    InternalInvariantError,
    LevelBoundViolatedError,
    OracleInconsistencyError,
    PreconditionError,
    RainbowError,
    ValidationError,
)
from .matroids import (
    GraphicMatroid,
    IndependenceState,
    LinearMatroid,
    Matroid,
    SparsePavingMatroid,
    UniformMatroid,
    build_matroid,
    closure,
    find_circuit,
    girth,
    rank_of,
)
from .model import (
    BaseSequence,
    BoundParams,
    Collection,
    colours_of,
    is_ris,
    istar,
    istarstar,
    lex_compare,
    signature_of_sizes,
    submaximal_signature,
    underline,
    unused,
    validate_collection,
    validate_ris,
)
from .exchange import (
    AddRecord,
    Root,
    add_set,
    arrow,
    cyclic_exchange,
    exchange_injection,
    iter_roots,
    make_root,
    swap_set,
    transition,
)
from .cascade import (
    CascadeTrace,
    GoodGraph,
    build_good_graph,
    cascade_search,
    concentration_probe,
    good_transform,
    is_good,
)
from .solver import (
    SolveResult,
    SolverParams,
    pack_rainbow_bases,
    replay_moves,
)
from .oracle import (
    HarnessReport,
    OracleBudget,
    brute_force_t,
    brute_force_tau_eta,
    enumerate_rainbow_bases,
    run_lemma_harness,
)
from .instances import (
    Instance,
    emit_instance,
    generate_instance,
    instance_digest,
    load_instance,
    parse_instance,
)

__version__ = "1.0.0"
