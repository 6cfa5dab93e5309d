"""General stochastic Petri net core: structure, simulation, exact solving."""

from .net import (
    And,
    Arc,
    Atom,
    Deterministic,
    Exponential,
    ExpectedTokens,
    FiringRate,
    FlushAll,
    Flushed,
    Immediate,
    Not,
    Or,
    PetriNet,
    Place,
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
from .ctmc import (ExactResult, ExplosionError, NumericalSolveError,
                   SingularGeneratorError, UnsupportedModelError, solve_ctmc)
from .textfmt import guard_to_text, to_dot

__all__ = [
    "And", "Arc", "Atom", "ContractViolationError", "Deterministic",
    "DivergenceError", "Estimate", "ExactResult", "ExplosionError",
    "Exponential", "ExpectedTokens", "FiringRate", "FlushAll", "Flushed",
    "Immediate", "LivelockError", "Not", "NumericalSolveError", "Or",
    "PartialResultError",
    "PetriNet", "Place", "Predicate", "ProbabilityOf", "RewardQuery",
    "ServerSemantics",
    "SimConfig", "SimulationResult", "SingularGeneratorError", "SpnError",
    "Transition",
    "UnsupportedModelError", "guard_to_text", "predicate_places",
    "simulate_stationary", "solve_ctmc", "to_dot", "validate_net",
]
