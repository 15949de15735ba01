"""Influence-diagram games where agents may hold different models of play.

The layers build on each other: discrete Bayes nets (``bn``), influence
diagrams with agents (``maid``), their game-tree unfoldings (``efg``),
families of subjective models with cyclic beliefs (``incomplete``), belief
spaces over game trees (``iiefg``), finite-depth reasoning stacks and their
bottom-up solver (``depth``), plus JSON interchange, simulation, DOT export,
and a command line (``gamedoc``, ``simulate``, ``dot``, ``cli``).
"""

from .bn import (
    CHANCE,
    DECISION,
    TOL,
    UTILITY,
    BayesNet,
    Cpd,
    Variable,
    chance,
    decision,
    marginal,
    utility,
)
from .depth import (
    DepthStack,
    RbrResult,
    TraceStep,
    audit_trace,
    classify_depth,
    depth1_best_response,
    final_decision_assignment,
    final_information_sets,
    is_open_minded,
    recursive_best_response,
    reduce_stack,
    unroll,
    validate_stack,
)
from .efg import (
    Efg,
    EfgNode,
    efg_expected_utility,
    has_perfect_recall_efg,
    info_sets,
    maid2efg,
    observation_of,
    strategy_from_policy,
)
from .errors import (
    CycleError,
    GameError,
    MissingRule,
    NonTopologicalOrder,
    NotOpenMinded,
    SchemaViolation,
    SearchSpaceTooLarge,
    UnknownAgent,
    ValidationError,
    ZeroProbabilityEvidence,
)
from .gamedoc import (
    GameDocument,
    IiProfile,
    MaidProfile,
    parse_document,
    serialize_document,
)
from .iiefg import (
    BeliefSpace,
    IiConversion,
    IiEfg,
    MetaInfoSet,
    belief_types,
    interim_utility,
    is_bayesian_equilibrium,
    is_interim_nash,
    maid2efgII,
    meta_information_sets,
    strategy_from_ii_policy,
    verify_equivalence,
)
from .incomplete import (
    CoherenceViolation,
    ConsistencyReport,
    IiMaid,
    InformationSet,
    SubjectiveMaid,
    best_response_ii,
    check_consistency,
    find_nash_ii,
    information_sets,
    is_encounterable,
    is_nash_ii,
    model_information_sets,
    subjective_expected_utility,
    validate_coherence,
)
from .maid import (
    DEFAULT_CAP,
    Maid,
    PostPolicyMaid,
    best_response,
    expected_utilities,
    expected_utility,
    find_pure_nash,
    has_perfect_recall,
    induced_network,
    is_nash,
)
from .simulate import SimulationReport, simulate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
