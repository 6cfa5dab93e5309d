"""Stochastic Petri net structure: places, transitions, arcs, guards.

Nets are plain immutable data.  Evaluation (simulation, CTMC solving)
lives in :mod:`hlfspn.spn.engine` and :mod:`hlfspn.spn.ctmc`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Union


def _rebuild_error(cls, args, state):
    exc = cls.__new__(cls, *args)  # sets exc.args
    exc.__dict__.update(state)
    return exc


class SpnError(Exception):
    """Base class for all net-related errors. It pickles as (type, args,
    attributes) and unpickles without `__init__`, whatever that takes."""

    def __reduce__(self):
        return _rebuild_error, (type(self), self.args, self.__dict__)


class EvaluationError(SpnError):
    """Raised when a guard or arc expression cannot be evaluated."""


# ---------------------------------------------------------------------------
# Arc count expressions

@dataclass(frozen=True)
class Constant:
    k: int

    def __post_init__(self):
        if not (self.k >= 1 and self.k % 1 == 0):  # NaN and inf fail too
            raise ValueError(f"arc constant must be an integer >= 1, "
                             f"got {self.k}")


@dataclass(frozen=True)
class FlushAll:
    """Input arcs only: consume every token present in the place."""


@dataclass(frozen=True)
class Flushed:
    """Output arcs only: produce as many tokens as FlushAll consumed."""


CountExpr = Union[Constant, FlushAll, Flushed]


@dataclass(frozen=True)
class Arc:
    place: str
    count: CountExpr = Constant(1)


# ---------------------------------------------------------------------------
# Guard predicates

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")

# rhs of an atom: integer literal or another place count
@dataclass(frozen=True)
class IntRhs:
    value: int


@dataclass(frozen=True)
class PlaceRhs:
    place: str


Rhs = Union[IntRhs, PlaceRhs]


@dataclass(frozen=True)
class Atom:
    place: str
    op: str
    rhs: Rhs

    def __post_init__(self):
        if self.op not in _CMP_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class And:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Or:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Not:
    operand: "Predicate"


Predicate = Union[Atom, And, Or, Not]


def predicate_places(pred: Predicate) -> set[str]:
    """All places a predicate reads."""
    if isinstance(pred, Atom):
        out = {pred.place}
        if isinstance(pred.rhs, PlaceRhs):
            out.add(pred.rhs.place)
        return out
    if isinstance(pred, (And, Or)):
        return predicate_places(pred.left) | predicate_places(pred.right)
    if isinstance(pred, Not):
        return predicate_places(pred.operand)
    raise TypeError(f"not a predicate: {pred!r}")


# ---------------------------------------------------------------------------
# Transitions

class ServerSemantics(enum.Enum):
    SINGLE = "single"
    INFINITE = "infinite"


@dataclass(frozen=True)
class Immediate:
    priority: int = 1
    weight: float = 1.0

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("immediate weight must be positive")


@dataclass(frozen=True)
class Exponential:
    mean_delay: float

    def __post_init__(self):
        if not 0 < self.mean_delay < math.inf:  # NaN fails too
            raise ValueError("exponential mean delay must be finite and "
                             "positive")


@dataclass(frozen=True)
class Deterministic:
    delay: float

    def __post_init__(self):
        if not self.delay > 0:  # NaN fails too
            raise ValueError("deterministic delay must be positive")


TransitionKind = Union[Immediate, Exponential, Deterministic]


@dataclass(frozen=True)
class Transition:
    name: str
    kind: TransitionKind
    input_arcs: tuple[Arc, ...] = ()
    output_arcs: tuple[Arc, ...] = ()
    guard: Optional[Predicate] = None
    server_semantics: ServerSemantics = ServerSemantics.SINGLE

    @property
    def is_immediate(self) -> bool:
        return isinstance(self.kind, Immediate)


@dataclass(frozen=True)
class Place:
    name: str
    initial_tokens: int = 0

    def __post_init__(self):
        tokens = self.initial_tokens
        if not (tokens >= 0 and tokens % 1 == 0):  # NaN and inf fail too
            raise ValueError(f"place {self.name!r}: initial tokens must be "
                             f"an integer >= 0, got {tokens}")


@dataclass(frozen=True)
class PetriNet:
    places: tuple[Place, ...]
    transitions: tuple[Transition, ...]

    def transition(self, name: str) -> Transition:
        for t in self.transitions:
            if t.name == name:
                return t
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Reward queries

@dataclass(frozen=True)
class ExpectedTokens:
    place: str


@dataclass(frozen=True)
class ProbabilityOf:
    predicate: Predicate


@dataclass(frozen=True)
class FiringRate:
    transition: str


RewardQuery = Union[ExpectedTokens, ProbabilityOf, FiringRate]


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class Diagnostic:
    element: str
    message: str

    def __str__(self):
        return f"{self.element}: {self.message}"


def validate_net(net: PetriNet) -> list[Diagnostic]:
    """Structural checks.  Empty list iff the net is well formed."""
    diags: list[Diagnostic] = []
    place_names = [p.name for p in net.places]
    seen: set[str] = set()
    for name in place_names:
        if name in seen:
            diags.append(Diagnostic(name, "duplicate place name"))
        seen.add(name)
    places = set(place_names)

    tseen: set[str] = set()
    for t in net.transitions:
        if t.name in tseen:
            diags.append(Diagnostic(t.name, "duplicate transition name"))
        tseen.add(t.name)
        if t.name in places:
            diags.append(Diagnostic(t.name, "name clashes with a place"))

        in_places: set[str] = set()
        has_flush_all = False
        for arc in t.input_arcs:
            if arc.place not in places:
                diags.append(Diagnostic(t.name,
                                        f"input arc references unknown place {arc.place!r}"))
            if arc.place in in_places:
                diags.append(Diagnostic(t.name,
                                        f"multiple input arcs from place {arc.place!r}"))
            in_places.add(arc.place)
            if isinstance(arc.count, Flushed):
                diags.append(Diagnostic(t.name, "Flushed expression on an input arc"))
            if isinstance(arc.count, FlushAll):
                has_flush_all = True

        out_places: set[str] = set()
        for arc in t.output_arcs:
            if arc.place not in places:
                diags.append(Diagnostic(t.name,
                                        f"output arc references unknown place {arc.place!r}"))
            if arc.place in out_places:
                diags.append(Diagnostic(t.name,
                                        f"multiple output arcs to place {arc.place!r}"))
            out_places.add(arc.place)
            if isinstance(arc.count, FlushAll):
                diags.append(Diagnostic(t.name, "FlushAll expression on an output arc"))
            if isinstance(arc.count, Flushed) and not has_flush_all:
                diags.append(Diagnostic(t.name,
                                        "Flushed output without a FlushAll input"))

        if t.guard is not None:
            for pl in predicate_places(t.guard):
                if pl not in places:
                    diags.append(Diagnostic(t.name,
                                            f"guard references unknown place {pl!r}"))

    return diags
