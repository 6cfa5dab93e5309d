"""Hyperledger Fabric transaction-flow net.

Builds the endorse -> order -> commit pipeline as a stochastic Petri net:
per-node queue/processing "triangles" with capacity places, a block
accumulator cut either at BLOCK transactions or at a deterministic
timeout, and a broadcast commit to every committer.
"""

from __future__ import annotations

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
    IntRhs,
    Param,
    ParamRhs,
    PetriNet,
    PlaceRhs,
    Place,
    ServerSemantics,
    SpnError,
    Transition,
    validate_net,
)


class ConfigError(SpnError):
    """Invalid model configuration."""


@dataclass(frozen=True)
class HlfConfig:
    """Model parameters; defaults follow the reference two-endorser,
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
        if self.n_endorsers < 1 or self.n_committers < 1:
            raise ConfigError("node counts must be >= 1")
        if self.block_size < 1:
            raise ConfigError("block_size must be >= 1")
        for f in ("eq", "oq", "cq", "ep", "op", "cp"):
            if getattr(self, f) < 1:
                raise ConfigError(f"capacity {f} must be >= 1")
        for f in ("timeout_s", "te1", "te2", "te3", "te4", "te5", "te6",
                  "te7", "te8"):
            if getattr(self, f) <= 0:
                raise ConfigError(f"{f} must be positive")
        if self.arrival_delay_s is not None and self.arrival_delay_s <= 0:
            raise ConfigError("arrival_delay_s must be positive")
        for f in ("arrival_dist", "timeout_dist"):
            if getattr(self, f) not in ("deterministic", "exponential"):
                raise ConfigError(f"bad {f} {getattr(self, f)!r}")

    @property
    def arrival_rate_tps(self) -> float:
        if self.arrival_delay_s is None:
            raise ConfigError("arrival_delay_s is not set")
        return 1.0 / self.arrival_delay_s

    def with_arrival_rate(self, tps: float) -> "HlfConfig":
        if tps <= 0:
            raise ConfigError("arrival rate must be positive")
        return replace(self, arrival_delay_s=1.0 / tps)

    def endorse_mean(self, i: int) -> float:
        return self.te1 if i == 1 else self.te2

    def commit_mean(self, i: int) -> float:
        return self.te7 if i == 1 else self.te8


def default_config() -> HlfConfig:
    """Reference configuration: one-transaction blocks, 10 s timeout,
    arrival delay left unset."""
    return HlfConfig()


CONFIG_FIELDS = tuple(f.name for f in fields(HlfConfig))

_FIELD_TYPES = {"arrival_rate_tps": float,
                **{f.name: {"int": int, "str": str}.get(f.type, float)
                   for f in fields(HlfConfig)}}

# case-insensitive aliases: the paper's parameter names and per-node forms
_ALIASES = {"block": "block_size", "time_out": "timeout_s",
            "ad": "arrival_delay_s",
            **{f"{f}_1": f for f in ("eq", "oq", "cq", "ep", "op", "cp")}}


def coerce_field(key: str, value) -> tuple[str, object]:
    """Resolve a configuration key and convert its value to the field's
    type; returns (field name, value).

    Keys are case-insensitive and may be aliases; ``arrival_rate_tps`` sets
    ``arrival_delay_s`` to its reciprocal. Values may be strings or numbers.
    """
    name = key.strip().lower()
    name = _ALIASES.get(name, name)
    kind = _FIELD_TYPES.get(name)
    if kind is None:
        raise ConfigError(f"unknown model parameter {key.strip()!r}")
    if kind is str:
        return name, str(value).strip()
    try:
        v = float(value)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    if kind is int and not v.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value}")
    if name == "arrival_rate_tps":
        if not v > 0:
            raise ConfigError("arrival rate must be positive")
        return "arrival_delay_s", 1.0 / v
    return name, kind(v)


def parse_config(text: str) -> HlfConfig:
    """Parse a flat key = value configuration document."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        try:
            name, v = coerce_field(key, val)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        values[name] = v
    return HlfConfig(**values)


def serialize_config(cfg: HlfConfig) -> str:
    lines = []
    for f in CONFIG_FIELDS:
        v = getattr(cfg, f)
        if v is None:
            continue
        lines.append(f"{f} = {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Net construction

@dataclass(frozen=True)
class HlfNetHandle:
    """The built net plus the canonical names the metrics layer needs."""

    cfg: HlfConfig
    net: PetriNet
    entry_place: str
    endorser_queue_caps: tuple[str, ...]   # EQ_i
    endorser_queue_fills: tuple[str, ...]  # EQF_i
    endorser_proc_caps: tuple[str, ...]    # EP_i
    endorser_proc_fills: tuple[str, ...]   # EPF_i
    orderer_queue_cap: str                 # OQ_1
    orderer_queue_fill: str                # OQF1_1
    orderer_proc_cap: str                  # OP_1
    orderer_preproc_fill: str              # OPF2_1
    accumulator: str                       # OPF3_1
    full_block: str                        # FULLBLK_1
    partial_block: str                     # PARTBLK_1
    transfer_buffer: str                   # OPF5_1
    block_tx_buffer: str                   # BLKTX_1
    clock_run: str                         # CLK_RUN
    clock_expired: str                     # CLK_EXP
    committer_queue_caps: tuple[str, ...]  # CQ_i
    committer_queue_fills: tuple[str, ...]
    committer_proc_caps: tuple[str, ...]   # CP_i
    committer_proc_fills: tuple[str, ...]  # CPF_i
    arrival: str
    entry_drop: str
    full_block_cut: str                    # TI6
    timeout_cut: str                       # TI7
    full_block_service: str                # TE4
    partial_block_service: str             # TE5
    transfer_services: tuple[str, ...]     # TE6 variants
    endorse_services: tuple[str, ...]      # TE1, TE2, ...
    commit_services: tuple[str, ...]       # TE7, TE8, ...

    @property
    def in_progress_places(self) -> tuple[str, ...]:
        """Places whose token counts are transactions (or blocks) in flight."""
        return (self.entry_place,
                *self.endorser_queue_fills, *self.endorser_proc_fills,
                self.orderer_queue_fill, self.orderer_preproc_fill,
                self.accumulator, self.full_block, self.partial_block,
                self.transfer_buffer, self.block_tx_buffer,
                *self.committer_queue_fills, *self.committer_proc_fills)


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
        atom = Atom(name, "=", IntRhs(0))
        all_full = atom if all_full is None else And(all_full, atom)
    transitions.append(Transition(
        "T_DROP", Immediate(), input_arcs=(Arc("P_GT"),), guard=all_full))

    endorse_services = []
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
        endorse_services.append(te)
        # the guard blocks completion while the orderer queue is full, so
        # congestion backs up to the entry queues; no transaction is lost
        # inside the pipeline
        transitions.append(Transition(
            te, Exponential(cfg.endorse_mean(i)),
            input_arcs=(Arc(epf),),
            output_arcs=(Arc(ep), Arc("ENDORSED")),
            guard=Atom("OQ_1", ">=", IntRhs(1)),
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

    # --- block formation: cut at BLOCK, or flush the accumulator on timeout.
    # Cutting is serialized: no new block until the in-flight one has fully
    # transferred, so BLKTX_1 only ever holds the in-flight block's
    # transactions and the transfer flush is exact.
    no_block_in_flight = And(
        And(Atom("FULLBLK_1", "=", IntRhs(0)),
            Atom("PARTBLK_1", "=", IntRhs(0))),
        Atom("OPF5_1", "=", IntRhs(0)))
    transitions.append(Transition(
        "TI6", Immediate(),
        input_arcs=(Arc("OPF3_1", Param("BLOCK")),),
        output_arcs=(Arc("FULLBLK_1"), Arc("BLKTX_1", Param("BLOCK"))),
        guard=And(Atom("OPF3_1", ">=", ParamRhs("BLOCK")),
                  no_block_in_flight)))
    transitions.append(Transition(
        "TI7", Immediate(),
        input_arcs=(Arc("OPF3_1", FlushAll()),),
        output_arcs=(Arc("PARTBLK_1"), Arc("BLKTX_1", Flushed())),
        guard=And(And(Atom("CLK_EXP", ">=", IntRhs(1)),
                      Atom("OPF3_1", ">=", IntRhs(1))),
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
    # token through the vanishing CLK_RESET place, which restarts T_TIMEOUT
    transfer_services = ("TE6", "TE6_EXP")
    # transfer waits until every committer queue can absorb the whole block,
    # so commit congestion backs up through the orderer to the entry queues
    room_for_block = None
    for cq in cq_names:
        atom = Atom(cq, ">=", PlaceRhs("BLKTX_1"))
        room_for_block = atom if room_for_block is None \
            else And(room_for_block, atom)
    for te6, clock_place in zip(transfer_services, ("CLK_RUN", "CLK_EXP")):
        transitions.append(Transition(
            te6, Exponential(cfg.te6),
            input_arcs=(Arc("OPF5_1"), Arc("BLKTX_1", FlushAll()),
                        Arc(clock_place)),
            output_arcs=(Arc("OP_1", Flushed()), Arc("CLK_RESET"),
                         *(Arc(c, Flushed()) for c in cin_names)),
            guard=room_for_block))

    # --- commit
    commit_services = []
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
        commit_services.append(te)
        transitions.append(Transition(
            te, Exponential(cfg.commit_mean(i)),
            input_arcs=(Arc(cpf),),
            output_arcs=(Arc(cp),),
            server_semantics=ServerSemantics.INFINITE))

    net = PetriNet(
        places=tuple(places),
        transitions=tuple(transitions),
        parameters={"BLOCK": cfg.block_size, "TIME_OUT": cfg.timeout_s},
    )
    diags = validate_net(net)
    assert not diags, f"constructed net fails validation: {diags}"

    return HlfNetHandle(
        cfg=cfg, net=net,
        entry_place="P_GT",
        endorser_queue_caps=eq_names,
        endorser_queue_fills=eqf_names,
        endorser_proc_caps=ep_names,
        endorser_proc_fills=epf_names,
        orderer_queue_cap="OQ_1",
        orderer_queue_fill="OQF1_1",
        orderer_proc_cap="OP_1",
        orderer_preproc_fill="OPF2_1",
        accumulator="OPF3_1",
        full_block="FULLBLK_1",
        partial_block="PARTBLK_1",
        transfer_buffer="OPF5_1",
        block_tx_buffer="BLKTX_1",
        clock_run="CLK_RUN",
        clock_expired="CLK_EXP",
        committer_queue_caps=cq_names,
        committer_queue_fills=cqf_names,
        committer_proc_caps=cp_names,
        committer_proc_fills=cpf_names,
        arrival="T_ARRIVAL",
        entry_drop="T_DROP",
        full_block_cut="TI6",
        timeout_cut="TI7",
        full_block_service="TE4",
        partial_block_service="TE5",
        transfer_services=transfer_services,
        endorse_services=tuple(endorse_services),
        commit_services=tuple(commit_services),
    )
