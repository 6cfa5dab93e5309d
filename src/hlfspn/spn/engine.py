"""Compiled nets over index markings, and the stationary discrete-event
simulator that runs them.

The simulator uses race-with-restart memory: whenever the enabling degree
of a timed transition drops, its newest pending firings are cancelled;
whenever it grows, fresh firings are scheduled (a new exponential sample,
or a full deterministic delay, per degree unit).

Every firing takes one path through the event loop, from t = 0 on: an
enabled immediate of highest priority, picked by weight, fires before the
next timed event, so a vanishing start marking resolves like any other and
its firings count toward the event cap. The next batch boundary is an entry
of the same heap as the pending firings; it pops before a firing at the same
time, so that firing belongs to the next batch.

Compiling a net does once the work that would otherwise repeat on every
firing: each transition gets generated enabling-degree and firing code
specialised to its arcs, with its guard written into that code as a Python
expression over the marking, and a precomputed list of the transitions
whose enabling its firing may change. That list is the dependency graph of
the next-reaction method (Gibson & Bruck, J. Phys. Chem. A 104, 2000).
Each transition also gets the generated scan that gives the conflict set,
the enabled immediates of highest priority, after it fires: over the
immediates its firing can enable when it is timed, since it fires only
where no immediate is enabled, and over all immediates when it is
immediate. The simulator and the CTMC generator both take their conflict
sets from these scans.

Vanishing markings are resolved here for both evaluators (Ajmone Marsan et
al., *Modelling with GSPNs*, 1995) into a distribution over tangible
markings and the expected number of firings of each immediate transition on
the way. One-member conflict sets are followed in a plain loop, each step
fired in place with probability 1; from the first marking with a real
choice, a depth-first search resolves each vanishing marking once, by
priority and weight. The first conflict set comes from the scan it is
given, every later one from the scan over all immediates. A vanishing loop,
also one back into the one-member prefix, raises LivelockError, naming each
transition on it once, even one that is left with probability 1; so does a
resolution past _MAX_VANISHING distinct vanishing markings, prefix
included, even of a finite cascade. The
CTMC generator resolves each timed firing's markings so; the simulator its
current marking once it has fired _MAX_IMMEDIATE_STEPS immediates in a row,
so it reports a loop whole.

The simulator generates, per transition, the whole step that follows its
pick: fire it, reconcile the schedule of each timed transition its firing
affects (the dependency graph compiled into straight-line code), and return
the next conflict set from the shared scan. Rates and delays are read from
the net and bound in the generated code's namespace, never written into its
source or kept in the compiled net, so nets and simulators of the same
structure share one compiled copy of the code: a sweep over rates, delays or
seeds compiles once per structure.

Queries are Markov rewards of two kinds (Ciardo, Blakemore, Chimento,
Muppala & Trivedi, 1993). A rate reward, ExpectedTokens or ProbabilityOf, is
a Python expression over the marking, written into the simulator's
generated steps like a guard: each step settles the time integral of every
rate reward that reads a place it touches, from the marking before the
firing. An impulse reward, FiringRate, counts firings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache
from heapq import heappop, heappush
from itertools import count
from statistics import NormalDist
from typing import Callable, Optional, Sequence
from zlib import crc32

from .net import (
    And,
    Atom,
    Exponential,
    ExpectedTokens,
    FiringRate,
    FlushAll,
    Flushed,
    Immediate,
    Not,
    Or,
    PetriNet,
    Predicate,
    ProbabilityOf,
    RewardQuery,
    ServerSemantics,
    SpnError,
    predicate_places,
    validate_net,
)

_TOKEN_LIMIT = 10 ** 9
# immediate firings in a row, with no timed firing between them, after which
# the simulator checks its marking for a livelock with _resolve_vanishing
_MAX_IMMEDIATE_STEPS = 10 ** 6


class ContractViolationError(SpnError):
    """An operation was applied outside its precondition (e.g. a firing that
    would drive a place negative, or a query naming an unknown place)."""


class LivelockError(SpnError):
    def __init__(self, transitions: Sequence[str]):
        self.transitions = list(dict.fromkeys(transitions))
        super().__init__(
            "immediate-transition livelock; cycling transitions: "
            + ", ".join(sorted(self.transitions)))


class DivergenceError(SpnError):
    def __init__(self, place: str):
        self.place = place
        super().__init__(f"place {place!r} exceeded {_TOKEN_LIMIT} tokens")


class PartialResultError(SpnError):
    def __init__(self, max_events: int, result=None):
        self.max_events = max_events
        self.result = result
        super().__init__(f"event cap of {max_events} exceeded")


# ---------------------------------------------------------------------------
# Net compilation

def _define(functions: list[list[str]], ns: dict) -> None:
    """Define generated functions, each given as its source lines, in the
    namespace ns."""
    for code in _compiled(tuple("\n".join(f) + "\n" for f in functions)):
        exec(code, ns)


@lru_cache(maxsize=32)
def _compiled(functions: tuple[str, ...]) -> tuple:
    """The code of a generated module, keyed on its source text: generated
    source holds place and transition indices, arc counts and guard
    literals, never a rate or a delay, so nets and simulators of one
    structure share the code. Each function is compiled on its own, which
    bounds the compiler's working memory by the largest one. The file name
    carries a digest of the whole source, so a profile keeps functions of
    different structures that share a name apart."""
    name = f"<hlfspn generated {crc32(''.join(functions).encode()):08x}>"
    return tuple(compile(f, name, "exec") for f in functions)


class _CTrans:
    __slots__ = ("idx", "name", "const_in", "flush_in", "const_out",
                 "flushed_out", "guard", "immediate", "priority",
                 "exponential", "infinite", "touched")


def _enabled_source(ct: _CTrans) -> str:
    """Whether ct is enabled in marking m, as a Python expression: its arc
    thresholds, then its guard, which is pure, so the order does not change
    the result."""
    conds = [f"m[{p:d}]" for p in ct.flush_in]
    conds += [f"m[{p:d}]" if k == 1 else f"m[{p:d}] >= {k:d}"
              for p, k in ct.const_in]
    if ct.guard:
        conds.append(ct.guard)
    return " and ".join(conds) or "True"


def _scan_source(name: str, cands: list[_CTrans]) -> list[str]:
    """`def <name>(m)`: the enabled immediates of highest priority among
    cands (in index order), the conflict set that weight resolves, as a
    tuple of transition indices in index order; () when none is enabled.
    The priority levels are tested in descending order, and the first level
    with an enabled member is returned."""
    levels: dict[int, list[_CTrans]] = {}
    for ct in cands:
        levels.setdefault(ct.priority, []).append(ct)
    lines = [f"def {name}(m):"]
    for prio in sorted(levels, reverse=True):
        first, *rest = levels[prio]
        if not rest:
            lines.append(f"    if {_enabled_source(first)}: "
                         f"return ({first.idx:d},)")
            continue
        lines.append(f"    t = ({first.idx:d},) if {_enabled_source(first)} "
                     "else ()")
        for ct in rest:
            lines.append(f"    if {_enabled_source(ct)}: t += ({ct.idx:d},)")
        lines.append("    if t: return t")
    lines.append("    return ()")
    return lines


def _degree_source(ct: _CTrans) -> list[str]:
    """`def _D<i>(m)`: the enabling degree of ct in marking m (0 =
    disabled): 1 or 0 for a transition with FlushAll inputs or no input,
    and otherwise the number of times its constant inputs are covered."""
    lines = [f"def _D{ct.idx:d}(m):"]
    if ct.flush_in or not ct.const_in:
        lines.append(f"    return 1 if {_enabled_source(ct)} else 0")
        return lines
    for n, (p, k) in enumerate(ct.const_in):
        q = f"m[{p:d}]" if k == 1 else f"m[{p:d}] // {k:d}"
        if n == 0:
            lines += [f"    d = {q}", "    if not d: return 0"]
        else:
            lines += [f"    q = {q}", "    if q < d:",
                      "        if not q: return 0", "        d = q"]
    if ct.guard:
        lines.append(f"    if not {ct.guard}: return 0")
    lines.append("    return d")
    return lines


def _fire_body(ct: _CTrans) -> list[str]:
    """Statements that fire ct in marking m, leaving the flushed token
    count in `kappa` when ct has FlushAll inputs."""
    lines = []
    for n, p in enumerate(ct.flush_in):
        lines += [f"kappa {'+' if n else ''}= m[{p:d}]", f"m[{p:d}] = 0"]
    for p, k in ct.const_in:
        lines += [f"v = m[{p:d}] - {k:d}",
                  f"if v < 0: raise _negative({ct.idx:d}, {p:d})",
                  f"m[{p:d}] = v"]
    for p, k in ct.const_out:
        lines.append(f"m[{p:d}] += {k:d}")
    for p in ct.flushed_out:
        lines.append(f"m[{p:d}] += kappa")
    return lines


def _fire_source(ct: _CTrans) -> list[str]:
    """`def _F<i>(m)`: fire ct in place, returning the flushed count."""
    body = _fire_body(ct) + ["return kappa" if ct.flush_in else "return 0"]
    return [f"def _F{ct.idx:d}(m):"] + ["    " + s for s in body]


def _reconcile_body(ct: _CTrans) -> list[str]:
    """Statements that bring the schedule `s<j>` of timed transition ct
    in line with its enabling degree in marking m at time `now`:
    race-with-restart cancels the newest pending firings, and each missing
    degree unit gets a firing at now plus an exponential draw at rate
    `L<j>` or the deterministic delay `W<j>`. A single server holds at most
    one firing; an infinite server one per degree unit."""
    j = ct.idx
    delay = f"expovariate(L{j:d})" if ct.exponential else f"W{j:d}"
    schedule = [f"e = [now + {delay}, next(seq), {j:d}, True]",
                "push(heap, e)", f"s{j:d}.append(e)"]
    if not ct.infinite:
        return ([f"if {_enabled_source(ct)}:", f"    if not s{j:d}:"]
                + ["        " + s for s in schedule]
                + [f"elif s{j:d}: s{j:d}.pop()[3] = False"])
    return ([f"d = _D{j:d}(m)", f"n = len(s{j:d})", "while n > d:",
             f"    s{j:d}.pop()[3] = False", "    n -= 1", "while n < d:"]
            + ["    " + s for s in schedule] + ["    n += 1"])


class CompiledNet:
    """Index-based form of a PetriNet's structure, holding no rate or delay:
    its enabling and firing code and its conflict scans generated per
    transition, and its dependency graph precomputed."""

    def __init__(self, net: PetriNet):
        diags = validate_net(net)
        if diags:
            raise ContractViolationError(
                "net fails validation: " + "; ".join(diags))
        self.place_index = {p.name: i for i, p in enumerate(net.places)}
        self.place_names = [p.name for p in net.places]
        self.n_places = len(net.places)
        self.initial = [p.initial_tokens for p in net.places]
        self.trans_index = {t.name: i for i, t in enumerate(net.transitions)}
        self.trans: list[_CTrans] = []

        for i, t in enumerate(net.transitions):
            ct = _CTrans()
            ct.idx = i
            ct.name = t.name
            ct.const_in = []
            ct.flush_in = []
            ct.const_out = []
            ct.flushed_out = []
            for arc in t.input_arcs:
                p = self.place_index[arc.place]
                if isinstance(arc.count, FlushAll):
                    ct.flush_in.append(p)
                else:
                    ct.const_in.append((p, arc.count))
            for arc in t.output_arcs:
                p = self.place_index[arc.place]
                if isinstance(arc.count, Flushed):
                    ct.flushed_out.append(p)
                else:
                    ct.const_out.append((p, arc.count))
            ct.guard = (None if t.guard is None
                        else self._predicate_source(t.guard))
            ct.immediate = t.is_immediate
            if isinstance(t.kind, Immediate):
                ct.priority = t.kind.priority
                ct.exponential = False
                ct.infinite = False
            else:
                ct.priority = 0
                ct.exponential = isinstance(t.kind, Exponential)
                ct.infinite = t.server_semantics is ServerSemantics.INFINITE
            touched = {p for p, _ in ct.const_in} | set(ct.flush_in) \
                | {p for p, _ in ct.const_out} | set(ct.flushed_out)
            ct.touched = tuple(touched)
            self.trans.append(ct)
        self.immediates = tuple(ct.idx for ct in self.trans if ct.immediate)
        self.timed = tuple(ct.idx for ct in self.trans if not ct.immediate)

        # place -> transitions whose enabling may change when it does
        dep_places: list[set[int]] = [set() for _ in range(self.n_places)]
        for i, t in enumerate(net.transitions):
            for arc in t.input_arcs:
                dep_places[self.place_index[arc.place]].add(i)
            if t.guard is not None:
                for pl in predicate_places(t.guard):
                    dep_places[self.place_index[pl]].add(i)
        dep_imm = [tuple(j for j in s if self.trans[j].immediate)
                   for s in dep_places]
        dep_timed = [tuple(j for j in s if not self.trans[j].immediate)
                     for s in dep_places]
        # transition -> the timed transitions to reconcile after it fires,
        # itself included when timed (its schedule lost the firing), and
        # the immediates that may have become enabled. The simulator
        # reconciles, and so draws its random numbers, in the order of
        # tuple(timed): CPython's iteration order of the set, which is
        # neither the order in which it was filled nor sorted. Any change
        # to how the set is built can change that order, and with it every
        # sample path (test_engine pins it on the default net).
        self.affects_timed: list[tuple[int, ...]] = []
        self.affects_imm: list[frozenset[int]] = []
        for ct in self.trans:
            timed = set()
            imm = set()
            for p in ct.touched:
                timed.update(dep_timed[p])
                imm.update(dep_imm[p])
            if not ct.immediate:
                timed.add(ct.idx)
            self.affects_timed.append(tuple(timed))
            self.affects_imm.append(frozenset(imm))

        functions = []
        for ct in self.trans:
            functions += [_degree_source(ct), _fire_source(ct)]
        # one conflict scan per distinct candidate set: after a timed
        # firing, which happens only in a marking where no immediate is
        # enabled, the immediates it affects; after an immediate firing,
        # all of them, since lower-priority immediates may have been
        # enabled before it
        every = frozenset(self.immediates)
        after = [every if ct.immediate else self.affects_imm[ct.idx]
                 for ct in self.trans]
        scan_names: dict[frozenset[int], str] = {}
        for key in (every, *after):
            if key not in scan_names:
                scan_names[key] = name = f"_T{len(scan_names):d}"
                functions.append(_scan_source(name, [self.trans[j]
                                                     for j in sorted(key)]))
        ns = {"_negative": self._negative}
        _define(functions, ns)
        n = len(self.trans)
        self.degrees: list[Callable] = [ns[f"_D{i}"] for i in range(n)]
        self.fires: list[Callable] = [ns[f"_F{i}"] for i in range(n)]
        # the conflict set in marking m: top_all(m) among every immediate,
        # top_after[i](m) among those that can be enabled after i fired
        self.top_all: Callable = ns[scan_names[every]]
        self.top_after: list[Callable] = [ns[scan_names[key]]
                                          for key in after]
        self.weights = [t.kind.weight if t.is_immediate else 0.0
                        for t in net.transitions]

    def _negative(self, i: int, p: int) -> ContractViolationError:
        return ContractViolationError(
            f"firing {self.trans[i].name!r} drove place "
            f"{self.place_names[p]!r} negative")

    def place_id(self, name: str) -> int:
        """Index of a place; ContractViolationError when there is none."""
        try:
            return self.place_index[name]
        except KeyError:
            raise ContractViolationError(f"unknown place {name!r}") from None

    def transition_id(self, name: str) -> int:
        """Index of a transition; ContractViolationError when there is
        none."""
        try:
            return self.trans_index[name]
        except KeyError:
            raise ContractViolationError(
                f"unknown transition {name!r}") from None

    def _predicate_source(self, pred: Predicate) -> str:
        """pred as a Python expression over the marking m."""
        if isinstance(pred, Atom):
            rhs = pred.rhs
            r = f"m[{self.place_id(rhs):d}]" if isinstance(rhs, str) \
                else f"{rhs:d}"
            op = "==" if pred.op == "=" else pred.op
            return f"m[{self.place_id(pred.place):d}] {op} {r}"
        if isinstance(pred, (And, Or)):
            word = "and" if isinstance(pred, And) else "or"
            return (f"({self._predicate_source(pred.left)} {word} "
                    f"{self._predicate_source(pred.right)})")
        if isinstance(pred, Not):
            return f"(not {self._predicate_source(pred.operand)})"
        raise TypeError(f"not a predicate: {pred!r}")

    def reward_plan(self, queries: Sequence[RewardQuery]
                    ) -> tuple[list[tuple], dict[RewardQuery, tuple]]:
        """The distinct queries, each compiled once: the rate rewards as a
        list of (query, expression, places), the expression over the
        marking m reading those places (`m[i]` for ExpectedTokens; for
        ProbabilityOf 1 or 0 as its predicate holds, an int so that time
        integrals stay Python floats), and each query's slot (is_rate,
        index): its place in that list, or a FiringRate's transition.
        Raises ContractViolationError for an unknown place or transition
        and TypeError for anything that is not a query."""
        rates: list[tuple[RewardQuery, str, tuple[int, ...]]] = []
        slots: dict[RewardQuery, tuple[bool, int]] = {}
        for q in queries:
            if q in slots:
                continue
            if isinstance(q, FiringRate):
                slots[q] = (False, self.transition_id(q.transition))
                continue
            if isinstance(q, ExpectedTokens):
                p = self.place_id(q.place)
                expr, places = f"m[{p:d}]", (p,)
            elif isinstance(q, ProbabilityOf):
                pred = q.predicate
                expr = f"(1 if {self._predicate_source(pred)} else 0)"
                places = tuple(sorted(map(self.place_id,
                                          predicate_places(pred))))
            else:
                raise TypeError(f"not a reward query: {q!r}")
            slots[q] = (True, len(rates))
            rates.append((q, expr, places))
        return rates, slots

    def rewards(self, rates: Sequence[tuple]) -> Callable[[list], tuple]:
        """The rate rewards of a plan (`reward_plan`) compiled to one
        function of the marking m that returns their values, in order."""
        body = "".join(expr + ", " for _, expr, _ in rates)
        return eval(f"lambda m: ({body})", {})


def compile_net(net: PetriNet) -> CompiledNet:
    """The compiled form of a net: a new CompiledNet on each call, whose
    generated code every net of the same structure shares."""
    return CompiledNet(net)


def _pick(top: tuple[int, ...], weights: list[float],
          rng: random.Random) -> int:
    """One transition of the conflict set top, with probability
    proportional to its weight; one rng.random() draw. The run loop takes
    a one-member set without a draw."""
    total = 0.0
    for tid in top:
        total += weights[tid]
    x = rng.random() * total
    for tid in top:
        x -= weights[tid]
        if x < 0.0:
            return tid
    return top[-1]


# distinct vanishing markings one resolution may visit
_MAX_VANISHING = 100_000


def _resolve_vanishing(cn: CompiledNet, m0: list[int], scan=None):
    """Resolve the vanishing markings reached from m0, each one once.

    Returns (dist, counts): dist maps each tangible marking reached to its
    probability, counts each immediate transition index to its expected
    number of firings on the way. `scan` gives m0's conflict set: the
    `CompiledNet.top_after` entry of the timed transition that led to m0,
    or `top_all` when None; every later marking is scanned by `top_all`.
    m0 is not modified.

    While the conflict set has one member, that member fires with
    probability 1, so a plain loop fires it in place and counts it. From
    the first marking with a real choice, an iterative depth-first search
    stores each vanishing marking's resolution once it has resolved all its
    successors, so a marking that many firing orders reach is resolved
    once. Both register the markings they expand, so a loop back into the
    prefix is a loop of the search. Raises LivelockError from one site:
    naming the transitions on the loop when a marking being expanded is
    reached again, and those on the path past _MAX_VANISHING distinct
    vanishing markings."""
    top_all = cn.top_all
    key = tuple(m0)
    cands = (top_all if scan is None else scan)(m0)
    if not cands:
        return {key: 1.0}, {}
    fires = cn.fires
    # the markings being expanded, each with its position on the path: the
    # one-member prefix's steps (`fired`), then the search's frames (`path`)
    depth: dict[tuple, int] = {}
    fired: list[int] = []
    prefix_counts: dict[int, float] = {}
    m = list(m0)
    at = None
    while len(cands) == 1:
        depth[key] = len(fired)
        tid = cands[0]
        fired.append(tid)
        prefix_counts[tid] = prefix_counts.get(tid, 0.0) + 1.0
        fires[tid](m)
        key = tuple(m)
        at = depth.get(key)  # where a loop closes on the path
        if at is None:
            cands = top_all(m)
            if not cands:
                return {key: 1.0}, prefix_counts
            if len(depth) < _MAX_VANISHING:
                continue
            at = 0
        break
    weights = cn.weights
    tangible: set[tuple] = set()
    memo: dict[tuple, tuple[dict, dict]] = {}
    # each frame: [marking, conflict set, total weight, branches taken,
    # dist, counts]
    path: list[list] = []
    if at is None:  # the search starts at the first real choice
        depth[key] = len(fired)
        path.append([key, cands, sum(weights[t] for t in cands), 0, {}, {}])
    while at is None:
        frame = path[-1]
        key, cands, total, i, dist, counts = frame
        if i == len(cands):
            path.pop()
            del depth[key]
            memo[key] = dist, counts
            if not path:
                # each prefix step adds 1.0 to the search's count in turn,
                # as a search from m0 would, so that the floats match
                for tid, c in counts.items():
                    for _ in range(int(prefix_counts.get(tid, 0.0))):
                        c += 1.0
                    prefix_counts[tid] = c
                return dist, prefix_counts
            parent = path[-1]
            tid = parent[1][parent[3] - 1]
            _add(parent[4], parent[5], weights[tid] / parent[2], dist, counts)
            continue
        tid = cands[i]
        frame[3] = i + 1
        p = weights[tid] / total
        counts[tid] = counts.get(tid, 0.0) + p
        m = list(key)
        fires[tid](m)
        key = tuple(m)
        if key in tangible:
            dist[key] = dist.get(key, 0.0) + p
            continue
        done = memo.get(key)
        if done is not None:
            _add(dist, counts, p, *done)
            continue
        at = depth.get(key)
        if at is None:
            cands = top_all(m)
            if not cands:
                tangible.add(key)
                dist[key] = dist.get(key, 0.0) + p
                continue
            if len(depth) + len(memo) < _MAX_VANISHING:
                depth[key] = len(fired) + len(path)
                path.append([key, cands, sum(weights[t] for t in cands), 0,
                             {}, {}])
                continue
            at = 0
    tids = fired[at:] + [f[1][f[3] - 1]
                         for f in path[max(at - len(fired), 0):]]
    raise LivelockError([cn.trans[t].name for t in tids])


def _add(dist: dict, counts: dict, p: float, sub_dist: dict,
         sub_counts: dict) -> None:
    """Add p times a successor's resolution to a marking's."""
    for mt, q in sub_dist.items():
        dist[mt] = dist.get(mt, 0.0) + p * q
    for tid, c in sub_counts.items():
        counts[tid] = counts.get(tid, 0.0) + p * c


# ---------------------------------------------------------------------------
# Stationary simulation

@dataclass(frozen=True)
class SimConfig:
    warmup_time: float = 0.0
    batch_count: int = 30
    batch_length: float = 10.0
    confidence_level: float = 0.95
    seed: int = 1
    max_events: int = 200_000_000

    def __post_init__(self):
        for f in ("batch_count", "seed", "max_events"):
            v = getattr(self, f)
            if not v % 1 == 0:  # NaN and inf fail too
                raise ValueError(f"{f} must be an integer, got {v!r}")
            object.__setattr__(self, f, int(v))
        if not 0 <= self.warmup_time < math.inf:  # NaN fails too
            raise ValueError("warmup_time must be finite and >= 0")
        if self.batch_count < 2:
            raise ValueError("batch_count must be >= 2")
        if not 0 < self.batch_length < math.inf:  # NaN fails too
            raise ValueError("batch_length must be finite and positive")
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError("confidence_level must be in (0, 1)")
        if self.max_events < 1:
            raise ValueError("max_events must be positive")


@dataclass(frozen=True)
class Estimate:
    """A value with its confidence-interval half-width, and the per-batch
    series the CI comes from: empty for an exact value, whose CI is 0."""
    value: float
    ci: float
    batch_values: tuple[float, ...] = ()


def t_halfwidth(values: Sequence[float], confidence_level: float) -> float:
    """Half-width of the Student-t confidence interval for the mean of a
    series of batch means (Law, *Simulation Modeling and Analysis*); inf
    for fewer than two values. The quantile is t_quantile's."""
    n = len(values)
    if n < 2:
        return math.inf
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return t_quantile(n - 1, confidence_level) * math.sqrt(var / n)


# digits of the decimal arithmetic in t_quantile, and pi to more of them
_T_DIGITS = 40
_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


@lru_cache(maxsize=None)
def t_quantile(df: int, level: float) -> float:
    """The two-sided Student-t quantile: the t with P(|T| <= t) = 2p - 1
    for T with df degrees of freedom and p = (1 + level)/2, i.e. the
    p-quantile, rounded to the nearest float.

    Newton's method on theta = arctan(t / sqrt(df)) in 40-digit decimal
    arithmetic, applied to the closed form of P(|T| <= t) for integer df
    (Abramowitz & Stegun, *Handbook of Mathematical Functions*, 26.7.3-4).
    The form is increasing and concave in theta, so from below the root
    the iterates increase to it. The start is the first Cornish-Fisher
    term (A&S 26.7.5), which lies below the root. One step costs O(df)."""
    p = (1.0 + level) / 2.0
    z = NormalDist().inv_cdf(p)
    guess = z + (z ** 3 + z) / (4 * df)
    with localcontext() as ctx:
        ctx.prec = _T_DIGITS
        target = 2 * Decimal(p) - 1
        theta = Decimal(math.atan(guess / math.sqrt(df)))
        tol = Decimal(10) ** (10 - _T_DIGITS)
        for _ in range(100):
            a, slope = _t_abs_cdf(df, theta)
            step = (target - a) / slope
            theta += step
            if abs(step) <= theta * tol:
                break
        s, c = _sin_cos(theta)
        return float(Decimal(df).sqrt() * s / c)


def _t_abs_cdf(df: int, theta: Decimal) -> tuple[Decimal, Decimal]:
    """P(|T| <= sqrt(df) tan(theta)) for T with df degrees of freedom, and
    its derivative in theta, which is proportional to cos(theta)^(df-1):
    A&S 26.7.3 (odd df) and 26.7.4 (even df)."""
    s, c = _sin_cos(theta)
    c2 = c * c
    term = total = Decimal(1)  # term k: the series' coefficient * c^(2k)
    if df % 2 == 0:
        for k in range(1, df // 2):
            term = term * c2 * (2 * k - 1) / (2 * k)
            total += term
        return s * total, (df - 1) * term * c
    if df == 1:
        return 2 * theta / _PI, 2 / _PI
    for k in range(1, (df - 1) // 2):
        term = term * c2 * (2 * k) / (2 * k + 1)
        total += term
    return (2 * (theta + s * c * total) / _PI,
            2 * (df - 1) * term * c2 / _PI)


def _sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    """sin x and cos x by their Taylor series, for 0 <= x <= pi/2."""
    x2 = x * x
    eps = Decimal(10) ** -(_T_DIGITS + 2)
    s = ts = x
    c = tc = Decimal(1)
    n = 0
    while abs(ts) > eps:
        tc = -tc * x2 / ((n + 1) * (n + 2))
        ts = -ts * x2 / ((n + 2) * (n + 3))
        c += tc
        s += ts
        n += 2
    return s, c


@dataclass(frozen=True)
class Result:
    """Each query's Estimate, from a simulation or an exact solve."""
    estimates: dict[RewardQuery, Estimate]

    def value(self, query: RewardQuery) -> float:
        return self.estimates[query].value

    def halfwidth(self, query: RewardQuery) -> float:
        return self.estimates[query].ci

    def batch_values(self, query: RewardQuery) -> tuple[float, ...]:
        return self.estimates[query].batch_values

    def has(self, query: RewardQuery) -> bool:
        return query in self.estimates


@dataclass(frozen=True)
class SimulationResult(Result):
    total_time: float
    event_count: int
    confidence_level: float


def simulate_stationary(net: PetriNet, queries: Sequence[RewardQuery],
                        cfg: SimConfig,
                        on_fire: Optional[Callable] = None
                        ) -> SimulationResult:
    """Batch-means stationary simulation of a net.

    Deterministic: the same (net, queries, cfg) always yields the same
    result. `on_fire(name, marking, now)`, when given, is called after
    every firing, immediate steps included, with the marking as a tuple in
    the order of `net.places`; it is called `event_count` times.
    """
    return _Simulator(net, queries, cfg, on_fire).run()


class _Simulator:
    def __init__(self, net: PetriNet, queries: Sequence[RewardQuery],
                 cfg: SimConfig, on_fire: Optional[Callable] = None):
        self.cn = cn = compile_net(net)
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.on_fire = on_fire

        # a rate reward's time integral since the batch began and the time
        # it was last settled, both indexed as in `rates`; the firings of
        # each transition with an impulse reward
        rates, self.slots = cn.reward_plan(queries)
        self.rewards = cn.rewards(rates)
        self.ra = [0.0] * len(rates)
        self.rl = [0.0] * len(rates)
        self.fire_count = [0] * len(cn.trans)
        self.batches: dict[RewardQuery, list[float]] = {
            q: [] for q in self.slots}
        self.passed = 0  # batch boundaries passed, the warmup's end first
        # the pending firings, as [time, sequence, transition, live]
        # entries, in one heap and per transition in scheduling order; the
        # next batch boundary, [time, -1, -1, True], is in the heap too
        self.heap: list[list] = []
        self.sched: list[list[list]] = [[] for _ in cn.trans]
        self.start, self.steps = self._generate_steps(net, rates)

    def _generate_steps(self, net: PetriNet, rates: list[tuple]
                        ) -> tuple[Callable, list[Callable]]:
        """`_S(m, now)`, which schedules every timed transition at the
        start, and one `_S<i>(m, now)` per transition i: the whole step
        after i is picked to fire. A timed step first checks that i is
        enabled, since the schedule must only hold enabled firings. Then it
        settles, from the marking before the firing, the integrals of the
        rate rewards that read a place i touches, fires i, checks the
        places it added to for divergence, counts the firing and calls the
        hook. Last it reconciles the schedule of each timed transition i
        affects (the dependency graph's edges, inlined in the order
        `affects_timed` lists them, which is the order of the random
        draws). Both return the next conflict set from the shared scan:
        `top_all` at the start and `top_after[i]` after i.

        Rates and delays are names in the namespace, bound from the kinds of
        net's transitions, so the source, and its compiled code, depends
        only on the net's structure, the queries and whether a hook is
        set."""
        cn = self.cn
        names = cn.place_names
        tnames = [ct.name for ct in cn.trans]
        ns = {"ra": self.ra, "rl": self.rl, "fc": self.fire_count,
              "on_fire": self.on_fire, "N": tnames,
              "_diverged": lambda p: DivergenceError(names[p]),
              "_unsound": lambda i: AssertionError(
                  f"scheduled transition {tnames[i]!r} is disabled; "
                  "schedule reconciliation bug"),
              "_negative": cn._negative,
              "heap": self.heap, "push": heappush, "seq": count(),
              "expovariate": self.rng.expovariate}
        for f in (*cn.degrees, *cn.top_after, cn.top_all):
            ns[f.__name__] = f
        for j in cn.timed:
            kind = net.transitions[j].kind
            ns[f"s{j:d}"] = self.sched[j]
            if cn.trans[j].exponential:
                ns[f"L{j:d}"] = 1.0 / kind.mean_delay
            else:
                ns[f"W{j:d}"] = kind.delay
        readers: list[list[int]] = [[] for _ in range(cn.n_places)]
        for k, (_, _, places) in enumerate(rates):
            for p in places:
                readers[p].append(k)
        counted = {i for is_rate, i in self.slots.values() if not is_rate}
        reconcile = {j: _reconcile_body(cn.trans[j]) for j in cn.timed}
        functions = [["def _S(m, now):"]
                     + ["    " + s for j in cn.timed for s in reconcile[j]]
                     + [f"    return {cn.top_all.__name__}(m)"]]
        for ct in cn.trans:
            i = ct.idx
            outputs = {p for p, _ in ct.const_out} | set(ct.flushed_out)
            body = []
            if not ct.immediate:
                body.append(f"if not ({_enabled_source(ct)}): "
                            f"raise _unsound({i:d})")
            for k in dict.fromkeys(k for p in ct.touched for k in readers[p]):
                body += [f"ra[{k:d}] += {rates[k][1]} * (now - rl[{k:d}])",
                         f"rl[{k:d}] = now"]
            body += _fire_body(ct)
            for p in ct.touched:
                if p in outputs:
                    body.append(f"if m[{p:d}] > {_TOKEN_LIMIT:d}: "
                                f"raise _diverged({p:d})")
            if i in counted:
                body.append(f"fc[{i:d}] += 1")
            if self.on_fire is not None:
                body.append(f"on_fire(N[{i:d}], tuple(m), now)")
            for j in cn.affects_timed[i]:
                body += reconcile[j]
            body.append(f"return {cn.top_after[i].__name__}(m)")
            functions.append([f"def _S{i:d}(m, now):"]
                             + ["    " + s for s in body])
        _define(functions, ns)
        return ns["_S"], [ns[f"_S{i}"] for i in range(len(cn.trans))]

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimulationResult:
        cn = self.cn
        cfg = self.cfg
        rng = self.rng
        m = list(cn.initial)
        heap = self.heap
        sched = self.sched
        steps = self.steps
        weights = cn.weights
        pop = heappop
        max_events = cfg.max_events
        max_imm = _MAX_IMMEDIATE_STEPS
        batch_count = cfg.batch_count
        now = 0.0
        heappush(heap, [cfg.warmup_time, -1, -1, True])

        # every timed transition is scheduled and every immediate is
        # scanned, so a vanishing start marking resolves like any other
        top = self.start(m, now)
        event_count = 0
        imm_steps = 0

        while True:
            # an enabled immediate of the conflict set fires first
            if top:
                tid = top[0] if len(top) == 1 else _pick(top, weights, rng)
                imm_steps += 1
                if imm_steps > max_imm:
                    # raises LivelockError on a loop or past _MAX_VANISHING
                    # markings; otherwise the cascade ends within them
                    _resolve_vanishing(cn, m)
                    imm_steps = 0
            else:
                # the next live heap entry: a batch boundary or a firing
                e = pop(heap)
                if not e[3]:
                    continue
                now = e[0]
                tid = e[2]
                if tid < 0:
                    self._close_batch(now, m)
                    k = self.passed
                    if k > batch_count:
                        return self._finish(event_count)
                    heappush(heap, [cfg.warmup_time + k * cfg.batch_length,
                                    -1, -1, True])
                    continue
                lst = sched[tid]
                if lst[-1] is e:
                    lst.pop()
                else:
                    lst.remove(e)
                imm_steps = 0

            # fire, reconcile the schedules, scan for the next conflict set
            top = steps[tid](m, now)
            event_count += 1
            if event_count > max_events:
                raise PartialResultError(
                    max_events, result=self._finish(event_count))

    def _close_batch(self, t: float, m: list[int]) -> None:
        """Settle every rate reward at boundary time t, record the batch
        unless it is the warmup, reset the accumulators and count t."""
        ra = self.ra
        rl = self.rl
        for k, v in enumerate(self.rewards(m)):
            ra[k] += v * (t - rl[k])
            rl[k] = t
        if self.passed:
            length = self.cfg.batch_length
            for q, (is_rate, i) in self.slots.items():
                self.batches[q].append(
                    (ra if is_rate else self.fire_count)[i] / length)
        ra[:] = [0.0] * len(ra)
        self.fire_count[:] = [0] * len(self.fire_count)
        self.passed += 1

    def _finish(self, event_count: int) -> SimulationResult:
        """The result of the run, after releasing its schedule: the
        generated steps and their namespace form a reference cycle, which
        would keep the pending firings alive until a garbage collection."""
        self.heap.clear()
        for lst in self.sched:
            lst.clear()
        cfg = self.cfg
        estimates = {}
        for q, vals in self.batches.items():
            mean = sum(vals) / len(vals) if vals else math.nan
            estimates[q] = Estimate(
                mean, t_halfwidth(vals, cfg.confidence_level), tuple(vals))
        total = cfg.warmup_time + max(self.passed - 1, 0) * cfg.batch_length
        return SimulationResult(estimates=estimates, total_time=total,
                                event_count=event_count,
                                confidence_level=cfg.confidence_level)
