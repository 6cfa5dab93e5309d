"""General stochastic Petri net core: structure, simulation, exact solving."""

from .net import (
    And,
    Arc,
    Atom,
    Constant,
    Deterministic,
    Diagnostic,
    EvaluationError,
    Exponential,
    ExpectedTokens,
    FiringRate,
    FlushAll,
    Flushed,
    Immediate,
    IntRhs,
    Not,
    Or,
    PetriNet,
    Place,
    PlaceRhs,
    Predicate,
    ProbabilityOf,
    RewardQuery,
    ServerSemantics,
    SpnError,
    Transition,
    predicate_places,
    validate_net,
)
from .engine import (
    ContractViolationError,
    DivergenceError,
    Estimate,
    LivelockError,
    PartialResultError,
    SimConfig,
    SimulationResult,
    simulate_stationary,
)
from .ctmc import (ExactResult, ExplosionError, SingularGeneratorError,
                   UnsupportedModelError, solve_ctmc)
from .textfmt import guard_to_text, to_dot

__all__ = [
    "And", "Arc", "Atom", "Constant", "ContractViolationError",
    "Deterministic", "Diagnostic", "DivergenceError", "Estimate",
    "EvaluationError", "ExactResult", "ExplosionError", "Exponential",
    "ExpectedTokens", "FiringRate", "FlushAll", "Flushed",
    "Immediate", "IntRhs", "LivelockError", "Not", "Or",
    "PartialResultError", "PetriNet", "Place", "PlaceRhs",
    "Predicate", "ProbabilityOf", "RewardQuery", "ServerSemantics",
    "SimConfig", "SimulationResult", "SingularGeneratorError", "SpnError",
    "Transition",
    "UnsupportedModelError", "guard_to_text", "predicate_places",
    "simulate_stationary", "solve_ctmc", "to_dot", "validate_net",
]
