"""Hyperledger Fabric transaction-flow net.

Builds the endorse -> order -> commit pipeline as a stochastic Petri net:
per-node queue/processing "triangles" with capacity places, a block
accumulator cut either at block_size transactions or at a deterministic
timeout, and a broadcast commit to every committer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
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
        if not tps > 0:
            raise ConfigError("arrival rate must be positive")
        return replace(self, arrival_delay_s=1.0 / tps)

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
    entry_place: str
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


def build_hlf_net(cfg: HlfConfig) -> HlfNetHandle:
    """Construct the transaction-flow net for a configuration."""
    if cfg.arrival_delay_s is None:
        raise ConfigError("arrival_delay_s must be set to build the net")
    ne = cfg.n_endorsers
    nc = cfg.n_committers

    places = [Place("P_GT", 0)]
    transitions = []

    eq_names = tuple(f"EQ_{i}" for i in range(1, ne + 1))
    eqf_names = tuple(f"EQF_{i}" for i in range(1, ne + 1))
    ep_names = tuple(f"EP_{i}" for i in range(1, ne + 1))
    epf_names = tuple(f"EPF_{i}" for i in range(1, ne + 1))
    cq_names = tuple(f"CQ_{i}" for i in range(1, nc + 1))
    cqf_names = tuple(f"CQF_{i}" for i in range(1, nc + 1))
    cp_names = tuple(f"CP_{i}" for i in range(1, nc + 1))
    cpf_names = tuple(f"CPF_{i}" for i in range(1, nc + 1))
    cin_names = tuple(f"CIN_{i}" for i in range(1, nc + 1))

    # --- arrival
    arr_kind = Deterministic(cfg.arrival_delay_s) \
        if cfg.arrival_dist == "deterministic" \
        else Exponential(cfg.arrival_delay_s)
    transitions.append(Transition(
        "T_ARRIVAL", arr_kind, output_arcs=(Arc("P_GT"),)))

    # --- entry routing and discard
    all_full = None
    for name in eq_names:
        atom = Atom(name, "=", 0)
        all_full = atom if all_full is None else And(all_full, atom)
    transitions.append(Transition(
        "T_DROP", Immediate(), input_arcs=(Arc("P_GT"),), guard=all_full))

    for i in range(1, ne + 1):
        eq, eqf, ep, epf = (eq_names[i - 1], eqf_names[i - 1],
                            ep_names[i - 1], epf_names[i - 1])
        places += [Place(eq, cfg.eq), Place(eqf, 0),
                   Place(ep, cfg.ep), Place(epf, 0)]
        transitions.append(Transition(
            f"TI_ROUTE_{i}", Immediate(),
            input_arcs=(Arc("P_GT"), Arc(eq)),
            output_arcs=(Arc(eqf),)))
        start = f"TI{2 * i}" if i <= 2 else f"TI_EP_{i}"
        transitions.append(Transition(
            start, Immediate(),
            input_arcs=(Arc(eqf), Arc(ep)),
            output_arcs=(Arc(epf), Arc(eq))))
        te = f"TE{i}" if i <= 2 else f"TE2_{i}"
        # the guard blocks completion while the orderer queue is full, so
        # congestion backs up to the entry queues; no transaction is lost
        # inside the pipeline
        transitions.append(Transition(
            te, Exponential(cfg.endorse_mean(i)),
            input_arcs=(Arc(epf),),
            output_arcs=(Arc(ep), Arc("ENDORSED")),
            guard=Atom("OQ_1", ">=", 1),
            server_semantics=ServerSemantics.INFINITE))

    # --- ordering entry
    places += [Place("ENDORSED", 0), Place("OQ_1", cfg.oq),
               Place("OQF1_1", 0), Place("OP_1", cfg.op), Place("OPF2_1", 0),
               Place("OPF3_1", 0), Place("FULLBLK_1", 0),
               Place("PARTBLK_1", 0), Place("OPF5_1", 0), Place("BLKTX_1", 0)]
    transitions.append(Transition(
        "TI_OQ", Immediate(),
        input_arcs=(Arc("ENDORSED"), Arc("OQ_1")),
        output_arcs=(Arc("OQF1_1"),)))
    transitions.append(Transition(
        "TI5", Immediate(),
        input_arcs=(Arc("OQF1_1"), Arc("OP_1")),
        output_arcs=(Arc("OPF2_1"), Arc("OQ_1"))))
    transitions.append(Transition(
        "TE3", Exponential(cfg.te3),
        input_arcs=(Arc("OPF2_1"),),
        output_arcs=(Arc("OPF3_1"),),
        server_semantics=ServerSemantics.INFINITE))

    # --- block formation: cut at block_size, or flush the accumulator on
    # timeout. Cutting is serialized: no new block until the in-flight one
    # has fully transferred, so BLKTX_1 only ever holds the in-flight
    # block's transactions and the transfer flush is exact.
    no_block_in_flight = And(
        And(Atom("FULLBLK_1", "=", 0), Atom("PARTBLK_1", "=", 0)),
        Atom("OPF5_1", "=", 0))
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
    transitions.append(Transition(
        "TE4", Exponential(cfg.te4),
        input_arcs=(Arc("FULLBLK_1"),),
        output_arcs=(Arc("OPF5_1"),),
        server_semantics=ServerSemantics.INFINITE))
    transitions.append(Transition(
        "TE5", Exponential(cfg.te5),
        input_arcs=(Arc("PARTBLK_1"),),
        output_arcs=(Arc("OPF5_1"),),
        server_semantics=ServerSemantics.INFINITE))

    # --- clock
    places += [Place("CLK_RUN", 1), Place("CLK_EXP", 0), Place("CLK_RESET", 0)]
    timeout_kind = Deterministic(cfg.timeout_s) \
        if cfg.timeout_dist == "deterministic" \
        else Exponential(cfg.timeout_s)
    transitions.append(Transition(
        "T_TIMEOUT", timeout_kind,
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
    room_for_block = None
    for cq in cq_names:
        atom = Atom(cq, ">=", "BLKTX_1")
        room_for_block = atom if room_for_block is None \
            else And(room_for_block, atom)
    for te6, clock_place in (("TE6", "CLK_RUN"), ("TE6_EXP", "CLK_EXP")):
        transitions.append(Transition(
            te6, Exponential(cfg.te6),
            input_arcs=(Arc("OPF5_1"), Arc("BLKTX_1", FlushAll()),
                        Arc(clock_place)),
            output_arcs=(Arc("OP_1", Flushed()), Arc("CLK_RESET"),
                         *(Arc(c, Flushed()) for c in cin_names)),
            guard=room_for_block))

    # --- commit
    for i in range(1, nc + 1):
        cin, cq, cqf, cp, cpf = (cin_names[i - 1], cq_names[i - 1],
                                 cqf_names[i - 1], cp_names[i - 1],
                                 cpf_names[i - 1])
        places += [Place(cin, 0), Place(cq, cfg.cq), Place(cqf, 0),
                   Place(cp, cfg.cp), Place(cpf, 0)]
        transitions.append(Transition(
            f"TI_CQ_{i}", Immediate(),
            input_arcs=(Arc(cin), Arc(cq)),
            output_arcs=(Arc(cqf),)))
        transitions.append(Transition(
            f"TI8_{i}", Immediate(),
            input_arcs=(Arc(cqf), Arc(cp)),
            output_arcs=(Arc(cpf), Arc(cq))))
        te = f"TE{6 + i}" if i <= 2 else f"TE8_{i}"
        transitions.append(Transition(
            te, Exponential(cfg.commit_mean(i)),
            input_arcs=(Arc(cpf),),
            output_arcs=(Arc(cp),),
            server_semantics=ServerSemantics.INFINITE))

    net = PetriNet(places=tuple(places), transitions=tuple(transitions))

    return HlfNetHandle(
        cfg=cfg, net=net,
        entry_place="P_GT",
        endorser_queue_fills=eqf_names,
        endorser_proc_caps=ep_names,
        endorser_proc_fills=epf_names,
        orderer_proc_cap="OP_1",
        full_block="FULLBLK_1",
        partial_block="PARTBLK_1",
        committer_proc_caps=cp_names,
        committer_proc_fills=cpf_names,
        arrival="T_ARRIVAL",
        entry_drop="T_DROP",
        full_block_cut="TI6",
        in_progress_places=("P_GT", *eqf_names, *epf_names, "OQF1_1",
                            "OPF2_1", "OPF3_1", "FULLBLK_1", "PARTBLK_1",
                            "OPF5_1", "BLKTX_1", *cqf_names, *cpf_names),
    )
