"""Hyperledger Fabric transaction-flow net.

Builds the endorse -> order -> commit pipeline as a stochastic Petri net:
per-node queue/processing "triangles" with capacity places, a block
accumulator cut either at block_size transactions or at a deterministic
timeout, and a broadcast commit to every committer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import reduce
from typing import Optional

from .spn.net import (
    And,
    Arc,
    Atom,
    Deterministic,
    Exponential,
    FlushAll,
    Flushed,
    Immediate,
    PetriNet,
    Place,
    ServerSemantics,
    SpnError,
    Transition,
)


class ConfigError(SpnError):
    """Invalid model configuration."""


def arrival_delay(tps: float) -> float:
    """The mean arrival delay of a rate in transactions per second."""
    if not (0 < tps < math.inf and 1.0 / tps < math.inf):  # NaN fails too
        raise ConfigError("arrival_rate_tps must be finite and positive")
    return 1.0 / tps


@dataclass(frozen=True)
class HlfConfig:
    """Model configuration; defaults follow the reference two-endorser,
    one-orderer, two-committer deployment."""

    n_endorsers: int = 2
    n_committers: int = 2
    arrival_delay_s: Optional[float] = None  # must be set per experiment
    block_size: int = 1
    timeout_s: float = 10.0
    # queue capacities (tokens)
    eq: int = 100
    oq: int = 100
    cq: int = 100
    # processing capacities (parallel containers per node)
    ep: int = 6
    op: int = 6
    cp: int = 6
    # mean service times, seconds
    te1: float = 0.005  # endorse, node 1
    te2: float = 0.005  # endorse, node 2+
    te3: float = 0.005  # ordering pre-process
    te4: float = 0.002  # full-block formation
    te5: float = 0.002  # partial-block formation
    te6: float = 0.01   # block transfer / commit broadcast
    te7: float = 0.08   # commit, node 1
    te8: float = 0.08   # commit, node 2+
    # "deterministic" (default) or "exponential"; exponential arrivals and
    # timeout make small configurations solvable by the CTMC oracle
    arrival_dist: str = "deterministic"
    timeout_dist: str = "deterministic"

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int":  # node counts, block size and capacities
                v = getattr(self, f.name)
                if not v >= 1:  # NaN fails too
                    raise ConfigError(f"{f.name} must be >= 1")
                if v % 1:  # inf fails too
                    raise ConfigError(f"{f.name} must be an integer, "
                                      f"got {v!r}")
                object.__setattr__(self, f.name, int(v))
        if not self.timeout_s > 0:  # NaN fails too
            raise ConfigError("timeout_s must be positive")
        if self.timeout_dist == "exponential" and self.timeout_s == math.inf:
            raise ConfigError("timeout_s must be finite when timeout_dist "
                              "is exponential")
        for f in ("te1", "te2", "te3", "te4", "te5", "te6", "te7", "te8"):
            if not 0 < getattr(self, f) < math.inf:  # NaN fails too
                raise ConfigError(f"{f} must be finite and positive")
        if self.arrival_delay_s is not None and \
                not 0 < self.arrival_delay_s < math.inf:
            raise ConfigError("arrival_delay_s must be finite and positive")
        for f in ("arrival_dist", "timeout_dist"):
            if getattr(self, f) not in ("deterministic", "exponential"):
                raise ConfigError(f"bad {f} {getattr(self, f)!r}")

    @property
    def arrival_rate_tps(self) -> float:
        if self.arrival_delay_s is None:
            raise ConfigError("arrival_delay_s is not set")
        return 1.0 / self.arrival_delay_s

    def with_arrival_rate(self, tps: float) -> "HlfConfig":
        return replace(self, arrival_delay_s=arrival_delay(tps))

    def endorse_mean(self, i: int) -> float:
        return self.te1 if i == 1 else self.te2

    def commit_mean(self, i: int) -> float:
        return self.te7 if i == 1 else self.te8


# ---------------------------------------------------------------------------
# Net construction

@dataclass(frozen=True)
class HlfNetHandle:
    """The built net plus the canonical names the metrics layer needs."""

    cfg: HlfConfig
    net: PetriNet
    endorser_queue_fills: tuple[str, ...]  # EQF_i
    endorser_proc_caps: tuple[str, ...]    # EP_i
    endorser_proc_fills: tuple[str, ...]   # EPF_i
    orderer_proc_cap: str                  # OP_1
    full_block: str                        # FULLBLK_1
    partial_block: str                     # PARTBLK_1
    committer_proc_caps: tuple[str, ...]   # CP_i
    committer_proc_fills: tuple[str, ...]  # CPF_i
    arrival: str
    entry_drop: str
    full_block_cut: str                    # TI6
    # places whose token counts are transactions (or blocks) in flight
    in_progress_places: tuple[str, ...]


def _delay(dist: str, mean: float):
    return Deterministic(mean) if dist == "deterministic" \
        else Exponential(mean)


def _stage(places, transitions, entry, names, queue, slots, mean, served,
           guard=None):
    """Append one node's triangle: a token on `entry` takes a unit of the
    node's `queue` room, then one of its `slots` processing slots, and is
    served by an infinite-server exponential delay of `mean` that puts a
    token on each place of `served`. `names` are the room, fill, free and
    busy places and the route, start and serve transitions."""
    room, fill, free, busy, route, start, serve = names
    places += [Place(room, queue), Place(fill, 0), Place(free, slots),
               Place(busy, 0)]
    transitions += [
        Transition(route, Immediate(), input_arcs=(Arc(entry), Arc(room)),
                   output_arcs=(Arc(fill),)),
        Transition(start, Immediate(), input_arcs=(Arc(fill), Arc(free)),
                   output_arcs=(Arc(busy), Arc(room))),
        Transition(serve, Exponential(mean), input_arcs=(Arc(busy),),
                   output_arcs=tuple(map(Arc, served)), guard=guard,
                   server_semantics=ServerSemantics.INFINITE)]


def build_hlf_net(cfg: HlfConfig) -> HlfNetHandle:
    """Construct the transaction-flow net for a configuration."""
    if cfg.arrival_delay_s is None:
        raise ConfigError("arrival_delay_s must be set to build the net")
    ends = range(1, cfg.n_endorsers + 1)
    coms = range(1, cfg.n_committers + 1)

    # --- arrival, and discard when every endorser queue is full
    places = [Place("P_GT", 0)]
    transitions = [
        Transition("T_ARRIVAL", _delay(cfg.arrival_dist, cfg.arrival_delay_s),
                   output_arcs=(Arc("P_GT"),)),
        Transition("T_DROP", Immediate(), input_arcs=(Arc("P_GT"),),
                   guard=reduce(And, (Atom(f"EQ_{i}", "=", 0) for i in ends)))]

    # --- endorsement; the guard blocks completion while the orderer queue
    # is full, so congestion backs up to the entry queues and no
    # transaction is lost inside the pipeline
    for i in ends:
        _stage(places, transitions, "P_GT",
               (f"EQ_{i}", f"EQF_{i}", f"EP_{i}", f"EPF_{i}", f"TI_ROUTE_{i}",
                f"TI{2 * i}" if i <= 2 else f"TI_EP_{i}",
                f"TE{i}" if i <= 2 else f"TE2_{i}"),
               cfg.eq, cfg.ep, cfg.endorse_mean(i), (f"EP_{i}", "ENDORSED"),
               guard=Atom("OQ_1", ">=", 1))

    # --- ordering entry; its slots return only when the block transfers
    places.append(Place("ENDORSED", 0))
    _stage(places, transitions, "ENDORSED",
           ("OQ_1", "OQF1_1", "OP_1", "OPF2_1", "TI_OQ", "TI5", "TE3"),
           cfg.oq, cfg.op, cfg.te3, ("OPF3_1",))
    places += [Place(p, 0) for p in
               ("OPF3_1", "FULLBLK_1", "PARTBLK_1", "OPF5_1", "BLKTX_1")]

    # --- block formation: cut at block_size, or flush the accumulator on
    # timeout. Cutting is serialized: no new block until the in-flight one
    # has fully transferred, so BLKTX_1 only ever holds the in-flight
    # block's transactions and the transfer flush is exact.
    no_block_in_flight = reduce(And, (Atom(p, "=", 0) for p in
                                      ("FULLBLK_1", "PARTBLK_1", "OPF5_1")))
    transitions.append(Transition(
        "TI6", Immediate(),
        input_arcs=(Arc("OPF3_1", cfg.block_size),),
        output_arcs=(Arc("FULLBLK_1"),
                     Arc("BLKTX_1", cfg.block_size)),
        guard=And(Atom("OPF3_1", ">=", cfg.block_size),
                  no_block_in_flight)))
    transitions.append(Transition(
        "TI7", Immediate(),
        input_arcs=(Arc("OPF3_1", FlushAll()),),
        output_arcs=(Arc("PARTBLK_1"), Arc("BLKTX_1", Flushed())),
        guard=And(And(Atom("CLK_EXP", ">=", 1), Atom("OPF3_1", ">=", 1)),
                  no_block_in_flight)))
    for te, mean, block in (("TE4", cfg.te4, "FULLBLK_1"),
                            ("TE5", cfg.te5, "PARTBLK_1")):
        transitions.append(Transition(
            te, Exponential(mean),
            input_arcs=(Arc(block),),
            output_arcs=(Arc("OPF5_1"),),
            server_semantics=ServerSemantics.INFINITE))

    # --- clock
    places += [Place("CLK_RUN", 1), Place("CLK_EXP", 0), Place("CLK_RESET", 0)]
    transitions.append(Transition(
        "T_TIMEOUT", _delay(cfg.timeout_dist, cfg.timeout_s),
        input_arcs=(Arc("CLK_RUN"),),
        output_arcs=(Arc("CLK_EXP"),)))
    transitions.append(Transition(
        "TI_CLK", Immediate(),
        input_arcs=(Arc("CLK_RESET"),),
        output_arcs=(Arc("CLK_RUN"),)))

    # --- block transfer + commit broadcast; resets the clock by routing its
    # token through the vanishing CLK_RESET place, which restarts T_TIMEOUT.
    # Transfer waits until every committer queue can absorb the whole block,
    # so commit congestion backs up through the orderer to the entry queues
    room_for_block = reduce(And, (Atom(f"CQ_{i}", ">=", "BLKTX_1")
                                  for i in coms))
    for te6, clock_place in (("TE6", "CLK_RUN"), ("TE6_EXP", "CLK_EXP")):
        transitions.append(Transition(
            te6, Exponential(cfg.te6),
            input_arcs=(Arc("OPF5_1"), Arc("BLKTX_1", FlushAll()),
                        Arc(clock_place)),
            output_arcs=(Arc("OP_1", Flushed()), Arc("CLK_RESET"),
                         *(Arc(f"CIN_{i}", Flushed()) for i in coms)),
            guard=room_for_block))

    # --- commit
    for i in coms:
        places.append(Place(f"CIN_{i}", 0))
        _stage(places, transitions, f"CIN_{i}",
               (f"CQ_{i}", f"CQF_{i}", f"CP_{i}", f"CPF_{i}", f"TI_CQ_{i}",
                f"TI8_{i}", f"TE{6 + i}" if i <= 2 else f"TE8_{i}"),
               cfg.cq, cfg.cp, cfg.commit_mean(i), (f"CP_{i}",))

    def per_node(prefix, nodes):
        return tuple(f"{prefix}_{i}" for i in nodes)

    return HlfNetHandle(
        cfg=cfg,
        net=PetriNet(places=tuple(places), transitions=tuple(transitions)),
        endorser_queue_fills=per_node("EQF", ends),
        endorser_proc_caps=per_node("EP", ends),
        endorser_proc_fills=per_node("EPF", ends),
        orderer_proc_cap="OP_1",
        full_block="FULLBLK_1",
        partial_block="PARTBLK_1",
        committer_proc_caps=per_node("CP", coms),
        committer_proc_fills=per_node("CPF", coms),
        arrival="T_ARRIVAL",
        entry_drop="T_DROP",
        full_block_cut="TI6",
        in_progress_places=("P_GT", *per_node("EQF", ends),
                            *per_node("EPF", ends), "OQF1_1", "OPF2_1",
                            "OPF3_1", "FULLBLK_1", "PARTBLK_1", "OPF5_1",
                            "BLKTX_1", *per_node("CQF", coms),
                            *per_node("CPF", coms)),
    )
