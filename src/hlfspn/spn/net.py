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


# ---------------------------------------------------------------------------
# Arcs

@dataclass(frozen=True)
class FlushAll:
    """Input arcs only: consume every token present in the place."""


@dataclass(frozen=True)
class Flushed:
    """Output arcs only: produce as many tokens as FlushAll consumed."""


@dataclass(frozen=True)
class Arc:
    """An arc moving `count` tokens: an integer >= 1, FlushAll or
    Flushed."""

    place: str
    count: Union[int, FlushAll, Flushed] = 1

    def __post_init__(self):
        k = self.count
        if not isinstance(k, (FlushAll, Flushed)):
            if not (k >= 1 and k % 1 == 0):  # NaN and inf fail too
                raise ValueError(f"arc count must be an integer >= 1, "
                                 f"got {k}")
            object.__setattr__(self, "count", int(k))


# ---------------------------------------------------------------------------
# Guard predicates

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Atom:
    """`place op rhs`, where rhs is an integer or the name of a place."""

    place: str
    op: str
    rhs: Union[int, str]

    def __post_init__(self):
        if self.op not in _CMP_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        if not isinstance(self.rhs, str):
            if not self.rhs % 1 == 0:  # NaN and inf fail too
                raise ValueError(f"guard threshold must be an integer, "
                                 f"got {self.rhs}")
            object.__setattr__(self, "rhs", int(self.rhs))


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
        if isinstance(pred.rhs, str):
            out.add(pred.rhs)
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
        if not 0 < self.weight < math.inf:  # NaN fails too
            raise ValueError("immediate weight must be finite and positive")


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
        object.__setattr__(self, "initial_tokens", int(tokens))


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

def validate_net(net: PetriNet) -> list[str]:
    """Structural checks, each problem as "<element>: <problem>". Empty
    list iff the net is well formed."""
    diags: list[str] = []

    def bad(element: str, problem: str):
        diags.append(f"{element}: {problem}")

    place_names = [p.name for p in net.places]
    seen: set[str] = set()
    for name in place_names:
        if name in seen:
            bad(name, "duplicate place name")
        seen.add(name)
    places = set(place_names)

    tseen: set[str] = set()
    for t in net.transitions:
        if t.name in tseen:
            bad(t.name, "duplicate transition name")
        tseen.add(t.name)
        if t.name in places:
            bad(t.name, "name clashes with a place")

        in_places: set[str] = set()
        has_flush_all = False
        for arc in t.input_arcs:
            if arc.place not in places:
                bad(t.name,
                    f"input arc references unknown place {arc.place!r}")
            if arc.place in in_places:
                bad(t.name, f"multiple input arcs from place {arc.place!r}")
            in_places.add(arc.place)
            if isinstance(arc.count, Flushed):
                bad(t.name, "Flushed expression on an input arc")
            if isinstance(arc.count, FlushAll):
                has_flush_all = True

        out_places: set[str] = set()
        for arc in t.output_arcs:
            if arc.place not in places:
                bad(t.name,
                    f"output arc references unknown place {arc.place!r}")
            if arc.place in out_places:
                bad(t.name, f"multiple output arcs to place {arc.place!r}")
            out_places.add(arc.place)
            if isinstance(arc.count, FlushAll):
                bad(t.name, "FlushAll expression on an output arc")
            if isinstance(arc.count, Flushed) and not has_flush_all:
                bad(t.name, "Flushed output without a FlushAll input")

        if t.guard is not None:
            for pl in predicate_places(t.guard):
                if pl not in places:
                    bad(t.name, f"guard references unknown place {pl!r}")

    return diags
