"""Small hand-built nets shared by the engine, CTMC, and acceptance tests."""

from hlfspn.spn import (
    And,
    Arc,
    Atom,
    Exponential,
    FlushAll,
    Flushed,
    Immediate,
    PetriNet,
    Place,
    ServerSemantics,
    Transition,
)


def mm1k_net(lam: float, mu: float, K: int) -> PetriNet:
    """Single server, K total capacity.  Q holds the customers; ROOM is the
    free capacity, so blocking shows up as ROOM = 0."""
    return PetriNet(
        places=(Place("Q", 0), Place("ROOM", K)),
        transitions=(
            Transition("ARRIVE", Exponential(1.0 / lam),
                       input_arcs=(Arc("ROOM"),),
                       output_arcs=(Arc("Q"),)),
            Transition("SERVE", Exponential(1.0 / mu),
                       input_arcs=(Arc("Q"),),
                       output_arcs=(Arc("ROOM"),)),
        ))


def mmck_net(lam: float, mu: float, c: int, K: int) -> PetriNet:
    """c parallel servers, K total capacity.  Waiting customers sit in Q,
    in-service ones in S; FREE tracks idle servers and ROOM free capacity."""
    return PetriNet(
        places=(Place("Q", 0), Place("S", 0), Place("FREE", c),
                Place("ROOM", K)),
        transitions=(
            Transition("ARRIVE", Exponential(1.0 / lam),
                       input_arcs=(Arc("ROOM"),),
                       output_arcs=(Arc("Q"),)),
            Transition("START", Immediate(),
                       input_arcs=(Arc("Q"), Arc("FREE")),
                       output_arcs=(Arc("S"),)),
            Transition("SERVE", Exponential(1.0 / mu),
                       input_arcs=(Arc("S"),),
                       output_arcs=(Arc("FREE"), Arc("ROOM")),
                       server_semantics=ServerSemantics.INFINITE),
        ))


def tandem_net() -> PetriNet:
    """Two finite single-server stages in series; stage-2 overflow blocks
    stage 1 (classic transfer blocking)."""
    return PetriNet(
        places=(Place("Q1", 0), Place("R1", 4), Place("Q2", 0),
                Place("R2", 3)),
        transitions=(
            Transition("ARRIVE", Exponential(0.5),
                       input_arcs=(Arc("R1"),),
                       output_arcs=(Arc("Q1"),)),
            Transition("S1", Exponential(0.3),
                       input_arcs=(Arc("Q1"), Arc("R2")),
                       output_arcs=(Arc("Q2"), Arc("R1"))),
            Transition("S2", Exponential(0.4),
                       input_arcs=(Arc("Q2"),),
                       output_arcs=(Arc("R2"),)),
        ))


def branch_net() -> PetriNet:
    """Weighted immediate fork into two finite queues; exercises vanishing
    branching probabilities and immediate firing-rate rewards."""
    return PetriNet(
        places=(Place("IN", 0), Place("QA", 0), Place("QB", 0)),
        transitions=(
            Transition("ARRIVE", Exponential(0.4),
                       output_arcs=(Arc("IN"),)),
            Transition("TO_A", Immediate(weight=1.0),
                       input_arcs=(Arc("IN"),),
                       output_arcs=(Arc("QA"),),
                       guard=Atom("QA", "<", 4)),
            Transition("TO_B", Immediate(weight=3.0),
                       input_arcs=(Arc("IN"),),
                       output_arcs=(Arc("QB"),),
                       guard=Atom("QB", "<", 4)),
            Transition("DROP", Immediate(),
                       input_arcs=(Arc("IN"),),
                       guard=And(Atom("QA", ">=", 4),
                                 Atom("QB", ">=", 4))),
            Transition("SA", Exponential(0.5),
                       input_arcs=(Arc("QA"),)),
            Transition("SB", Exponential(0.2),
                       input_arcs=(Arc("QB"),)),
        ))


def flush_net() -> PetriNet:
    """Accumulate-and-flush pipeline: a guarded batch cut at a threshold of
    3, FlushAll/Flushed arcs, and a downstream drain."""
    return PetriNet(
        places=(Place("ACC", 0), Place("ROOM", 8), Place("OUT", 0)),
        transitions=(
            Transition("FEED", Exponential(0.2),
                       input_arcs=(Arc("ROOM"),),
                       output_arcs=(Arc("ACC"),)),
            Transition("CUT", Exponential(0.5),
                       input_arcs=(Arc("ACC", FlushAll()),),
                       output_arcs=(Arc("OUT", Flushed()),
                                    Arc("ROOM", Flushed())),
                       guard=And(Atom("ACC", ">=", 3),
                                 Atom("OUT", "<=", 4))),
            Transition("DRAIN", Exponential(0.3),
                       input_arcs=(Arc("OUT", 1),),
                       server_semantics=ServerSemantics.INFINITE),
        ),
    )


def priority_net() -> PetriNet:
    """A job routed by immediates at three priority levels: TAKE_Z (3)
    while FLAG is marked, else TO_X or TO_Y (2, weights 1 and 2) while
    X or Y is empty, else SPILL (1)."""
    return PetriNet(
        places=(Place("IDLE", 4), Place("J", 0), Place("FLAG", 1),
                Place("X", 0), Place("Y", 0), Place("Z", 0)),
        transitions=(
            Transition("ARRIVE", Exponential(1.0),
                       input_arcs=(Arc("IDLE"),),
                       output_arcs=(Arc("J"),)),
            Transition("TAKE_Z", Immediate(priority=3),
                       input_arcs=(Arc("J"), Arc("FLAG")),
                       output_arcs=(Arc("Z"),)),
            Transition("TO_X", Immediate(priority=2, weight=1.0),
                       input_arcs=(Arc("J"),),
                       output_arcs=(Arc("X"),),
                       guard=Atom("X", "<", 1)),
            Transition("TO_Y", Immediate(priority=2, weight=2.0),
                       input_arcs=(Arc("J"),),
                       output_arcs=(Arc("Y"),),
                       guard=Atom("Y", "<", 1)),
            Transition("SPILL", Immediate(priority=1),
                       input_arcs=(Arc("J"),),
                       output_arcs=(Arc("IDLE"),)),
            Transition("BACK_X", Exponential(2.0),
                       input_arcs=(Arc("X"),),
                       output_arcs=(Arc("IDLE"),)),
            Transition("BACK_Y", Exponential(1.5),
                       input_arcs=(Arc("Y"),),
                       output_arcs=(Arc("IDLE"),)),
            Transition("BACK_Z", Exponential(3.0),
                       input_arcs=(Arc("Z"),),
                       output_arcs=(Arc("IDLE"), Arc("FLAG"))),
        ))
