"""Token-game semantics and the stationary discrete-event simulator.

The simulator uses race-with-restart memory: whenever the enabling degree
of a timed transition drops, its newest pending firings are cancelled;
whenever it grows, fresh firings are scheduled (a new exponential sample,
or a full deterministic delay, per degree unit).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional, Sequence

from scipy import stats as _scipy_stats

from .net import (
    And,
    Atom,
    Constant,
    Deterministic,
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
    Param,
    ParamRhs,
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


class ContractViolationError(SpnError):
    """An operation was applied outside its precondition (e.g. firing a
    disabled transition)."""


class LivelockError(SpnError):
    def __init__(self, transitions: Sequence[str]):
        self.transitions = list(transitions)
        super().__init__(
            "immediate-transition livelock; cycling transitions: "
            + ", ".join(sorted(set(self.transitions)))
        )


class DivergenceError(SpnError):
    def __init__(self, place: str):
        self.place = place
        super().__init__(f"place {place!r} exceeded {_TOKEN_LIMIT} tokens")


class PartialResultError(SpnError):
    def __init__(self, max_events: int, result=None):
        self.result = result
        super().__init__(f"event cap of {max_events} exceeded")


# ---------------------------------------------------------------------------
# Net compilation

class _CTrans:
    __slots__ = ("idx", "name", "const_in", "flush_in", "const_out",
                 "flushed_out", "guard", "immediate", "priority", "weight",
                 "exponential", "mean", "det_delay", "infinite", "touched")

    def __init__(self):
        self.guard = None
        self.det_delay = None


class CompiledNet:
    """Index-based form of a PetriNet with parameters resolved."""

    def __init__(self, net: PetriNet):
        diags = validate_net(net)
        if diags:
            raise ContractViolationError(
                "net fails validation: " + "; ".join(str(d) for d in diags))
        self.net = net
        self.place_index = {p.name: i for i, p in enumerate(net.places)}
        self.place_names = [p.name for p in net.places]
        self.n_places = len(net.places)
        self.initial = [p.initial_tokens for p in net.places]
        self.trans_index = {t.name: i for i, t in enumerate(net.transitions)}
        self.trans: list[_CTrans] = []

        params = dict(net.parameters)
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
                    ct.const_in.append((p, self._resolve_count(arc.count, params)))
            for arc in t.output_arcs:
                p = self.place_index[arc.place]
                if isinstance(arc.count, Flushed):
                    ct.flushed_out.append(p)
                else:
                    ct.const_out.append((p, self._resolve_count(arc.count, params)))
            if t.guard is not None:
                ct.guard = self._compile_predicate(t.guard, params)
            ct.immediate = t.is_immediate
            if isinstance(t.kind, Immediate):
                ct.priority = t.kind.priority
                ct.weight = t.kind.weight
                ct.exponential = False
                ct.infinite = False
            else:
                ct.priority = 0
                ct.weight = 0.0
                ct.exponential = isinstance(t.kind, Exponential)
                ct.mean = t.kind.mean_delay if ct.exponential else 0.0
                if isinstance(t.kind, Deterministic):
                    ct.det_delay = t.kind.delay
                ct.infinite = t.server_semantics is ServerSemantics.INFINITE
            touched = {p for p, _ in ct.const_in} | set(ct.flush_in) \
                | {p for p, _ in ct.const_out} | set(ct.flushed_out)
            ct.touched = tuple(touched)
            self.trans.append(ct)

        # place -> transitions whose enabling may change when it does
        dep_places: list[set[int]] = [set() for _ in range(self.n_places)]
        for i, t in enumerate(net.transitions):
            for arc in t.input_arcs:
                dep_places[self.place_index[arc.place]].add(i)
            if t.guard is not None:
                for pl in predicate_places(t.guard):
                    dep_places[self.place_index[pl]].add(i)
        self.dep_imm = [tuple(j for j in s if self.trans[j].immediate)
                        for s in dep_places]
        self.dep_timed = [tuple(j for j in s if not self.trans[j].immediate)
                          for s in dep_places]
        self.immediates = tuple(ct.idx for ct in self.trans if ct.immediate)

    def _resolve_count(self, expr, params) -> int:
        if isinstance(expr, Constant):
            return expr.k
        if isinstance(expr, Param):
            if expr.name not in params:
                raise EvaluationError(f"undeclared parameter {expr.name!r}")
            v = params[expr.name]
            if int(v) != v or v < 1:
                raise EvaluationError(
                    f"parameter {expr.name!r} = {v!r} is not a positive integer "
                    "arc count")
            return int(v)
        raise EvaluationError(f"bad count expression {expr!r}")

    def _compile_predicate(self, pred: Predicate, params) -> Callable:
        pidx = self.place_index
        if isinstance(pred, Atom):
            i = pidx[pred.place]
            rhs = pred.rhs
            if isinstance(rhs, IntRhs):
                r = rhs.value
            elif isinstance(rhs, ParamRhs):
                if rhs.name not in params:
                    raise EvaluationError(f"undeclared parameter {rhs.name!r}")
                r = params[rhs.name]
            else:
                j = pidx[rhs.place]
                op = pred.op
                if op == "=":
                    return lambda m: m[i] == m[j]
                if op == "!=":
                    return lambda m: m[i] != m[j]
                if op == "<":
                    return lambda m: m[i] < m[j]
                if op == "<=":
                    return lambda m: m[i] <= m[j]
                if op == ">":
                    return lambda m: m[i] > m[j]
                return lambda m: m[i] >= m[j]
            op = pred.op
            if op == "=":
                return lambda m: m[i] == r
            if op == "!=":
                return lambda m: m[i] != r
            if op == "<":
                return lambda m: m[i] < r
            if op == "<=":
                return lambda m: m[i] <= r
            if op == ">":
                return lambda m: m[i] > r
            return lambda m: m[i] >= r
        if isinstance(pred, And):
            a = self._compile_predicate(pred.left, params)
            b = self._compile_predicate(pred.right, params)
            return lambda m: a(m) and b(m)
        if isinstance(pred, Or):
            a = self._compile_predicate(pred.left, params)
            b = self._compile_predicate(pred.right, params)
            return lambda m: a(m) or b(m)
        if isinstance(pred, Not):
            a = self._compile_predicate(pred.operand, params)
            return lambda m: not a(m)
        raise TypeError(f"not a predicate: {pred!r}")

    # -- token game ---------------------------------------------------------

    def degree(self, ct: _CTrans, m: list[int]) -> int:
        """Enabling degree of a transition in marking m (0 = disabled)."""
        if ct.guard is not None and not ct.guard(m):
            return 0
        d = -1
        for p, k in ct.const_in:
            q = m[p] // k
            if q == 0:
                return 0
            if d < 0 or q < d:
                d = q
        for p in ct.flush_in:
            if m[p] == 0:
                return 0
        if ct.flush_in:
            return 1
        return d if d > 0 else 1

    def top_immediates(self, candidates, m: list[int],
                       prune: Optional[set] = None) -> list[_CTrans]:
        """The enabled immediates of highest priority among `candidates`
        (transition indices, iterated in index order): the conflict set
        that priority and weight resolve. Disabled candidates are removed
        from `prune` when it is given."""
        degree = self.degree
        trans = self.trans
        best_prio = None
        top: list[_CTrans] = []
        for tid in candidates:
            ct = trans[tid]
            if degree(ct, m) > 0:
                if best_prio is None or ct.priority > best_prio:
                    best_prio = ct.priority
                    top = [ct]
                elif ct.priority == best_prio:
                    top.append(ct)
            elif prune is not None:
                prune.discard(tid)
        return top

    def fire_inplace(self, ct: _CTrans, m: list[int]) -> int:
        """Fire in place; returns the flushed token count."""
        kappa = 0
        for p in ct.flush_in:
            kappa += m[p]
            m[p] = 0
        for p, k in ct.const_in:
            v = m[p] - k
            if v < 0:
                raise ContractViolationError(
                    f"firing {ct.name!r} drove place "
                    f"{self.place_names[p]!r} negative")
            m[p] = v
        for p, k in ct.const_out:
            m[p] += k
        for p in ct.flushed_out:
            m[p] += kappa
        return kappa


_COMPILE_CACHE: dict[int, tuple[PetriNet, CompiledNet]] = {}


def compile_net(net: PetriNet) -> CompiledNet:
    cached = _COMPILE_CACHE.get(id(net))
    if cached is not None and cached[0] is net:
        return cached[1]
    cn = CompiledNet(net)
    if len(_COMPILE_CACHE) > 256:
        _COMPILE_CACHE.clear()
    _COMPILE_CACHE[id(net)] = (net, cn)
    return cn


# ---------------------------------------------------------------------------
# Public token-game operations on dict markings

def _to_vec(cn: CompiledNet, marking: dict) -> list[int]:
    try:
        return [marking[name] for name in cn.place_names]
    except KeyError as exc:
        raise ContractViolationError(f"marking missing place {exc}") from exc


def _to_dict(cn: CompiledNet, m: list[int]) -> dict:
    return dict(zip(cn.place_names, m))


def enabled_set(net: PetriNet, marking: dict) -> dict[str, int]:
    """Transitions enabled in the marking, with their enabling degree."""
    cn = compile_net(net)
    m = _to_vec(cn, marking)
    out = {}
    for ct in cn.trans:
        d = cn.degree(ct, m)
        if d > 0:
            out[ct.name] = d
    return out


def fire(net: PetriNet, marking: dict, transition: str) -> tuple[dict, int]:
    """Fire an enabled transition; returns (new marking, flushed count)."""
    cn = compile_net(net)
    if transition not in cn.trans_index:
        raise KeyError(transition)
    ct = cn.trans[cn.trans_index[transition]]
    m = _to_vec(cn, marking)
    if cn.degree(ct, m) == 0:
        raise ContractViolationError(
            f"transition {transition!r} is not enabled")
    kappa = cn.fire_inplace(ct, m)
    return _to_dict(cn, m), kappa


def vanish(net: PetriNet, marking: dict, rng: random.Random,
           max_immediate_steps: int = 10 ** 6) -> dict:
    """Resolve immediate transitions down to a tangible marking."""
    cn = compile_net(net)
    m = _to_vec(cn, marking)
    _vanish_inplace(cn, m, rng, max_immediate_steps)
    return _to_dict(cn, m)


def _vanish_inplace(cn: CompiledNet, m: list[int], rng: random.Random,
                    max_steps: int) -> int:
    """Fire immediates until none is enabled; returns the step count."""
    steps = 0
    recent: list[str] = []
    while True:
        candidates = cn.top_immediates(cn.immediates, m)
        if not candidates:
            return steps
        ct = _pick_weighted(candidates, rng)
        cn.fire_inplace(ct, m)
        steps += 1
        recent.append(ct.name)
        if len(recent) > 64:
            recent.pop(0)
        if steps > max_steps:
            raise LivelockError(recent)


def _pick_weighted(candidates: list[_CTrans], rng: random.Random) -> _CTrans:
    if len(candidates) == 1:
        return candidates[0]
    total = 0.0
    for ct in candidates:
        total += ct.weight
    x = rng.random() * total
    for ct in candidates:
        x -= ct.weight
        if x < 0.0:
            return ct
    return candidates[-1]


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
    max_immediate_steps: int = 10 ** 6

    def __post_init__(self):
        if self.warmup_time < 0:
            raise ValueError("warmup_time must be >= 0")
        if self.batch_count < 2:
            raise ValueError("batch_count must be >= 2")
        if self.batch_length <= 0:
            raise ValueError("batch_length must be positive")
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError("confidence_level must be in (0, 1)")
        if self.max_events < 1:
            raise ValueError("max_events must be positive")


@dataclass(frozen=True)
class Estimate:
    point_estimate: float
    ci_halfwidth: float
    batch_values: tuple[float, ...]


@dataclass(frozen=True)
class SimulationResult:
    estimates: dict
    total_time: float
    event_count: int
    seed: int

    def value(self, query: RewardQuery) -> float:
        return self.estimates[query].point_estimate

    def halfwidth(self, query: RewardQuery) -> float:
        return self.estimates[query].ci_halfwidth

    def has(self, query: RewardQuery) -> bool:
        return query in self.estimates


def simulate_stationary(net: PetriNet, queries: Sequence[RewardQuery],
                        cfg: SimConfig) -> SimulationResult:
    """Batch-means stationary simulation of a net.

    Deterministic: the same (net, queries, cfg) always yields the same
    result.
    """
    cn = compile_net(net)
    sim = _Simulator(cn, list(queries), cfg)
    return sim.run()


class _Simulator:
    def __init__(self, cn: CompiledNet, queries: list[RewardQuery],
                 cfg: SimConfig):
        self.cn = cn
        self.cfg = cfg
        self.queries = queries
        self.rng = random.Random(cfg.seed)

        n_places = cn.n_places
        # reward bookkeeping: lazily settled time integrals
        self.watch_place = [False] * n_places
        self.place_last = [0.0] * n_places
        self.place_acc = [0.0] * n_places
        self.pred_fns: list[Callable] = []
        self.pred_cur: list[bool] = []
        self.pred_last: list[float] = []
        self.pred_acc: list[float] = []
        self.pred_dep: list[list[int]] = [[] for _ in range(n_places)]
        self.fire_count: dict[int, int] = {}

        self.slots: dict[RewardQuery, tuple[str, int]] = {}
        for q in queries:
            if q in self.slots:
                continue
            if isinstance(q, ExpectedTokens):
                if q.place not in cn.place_index:
                    raise ContractViolationError(f"unknown place {q.place!r}")
                p = cn.place_index[q.place]
                self.watch_place[p] = True
                self.slots[q] = ("place", p)
            elif isinstance(q, ProbabilityOf):
                fn = cn._compile_predicate(q.predicate, dict(cn.net.parameters))
                k = len(self.pred_fns)
                self.pred_fns.append(fn)
                self.pred_cur.append(False)
                self.pred_last.append(0.0)
                self.pred_acc.append(0.0)
                for pl in predicate_places(q.predicate):
                    self.pred_dep[cn.place_index[pl]].append(k)
                self.slots[q] = ("pred", k)
            elif isinstance(q, FiringRate):
                if q.transition not in cn.trans_index:
                    raise ContractViolationError(
                        f"unknown transition {q.transition!r}")
                t = cn.trans_index[q.transition]
                self.fire_count[t] = 0
                self.slots[q] = ("fire", t)
            else:
                raise TypeError(f"not a reward query: {q!r}")

        self.batches: dict[RewardQuery, list[float]] = {
            q: [] for q in self.slots}

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimulationResult:
        cn = self.cn
        cfg = self.cfg
        rng = self.rng
        m = list(cn.initial)
        now = 0.0
        heap: list[list] = []
        seq = 0
        sched: list[list] = [[] for _ in cn.trans]
        event_count = 0

        watch_place = self.watch_place
        place_last = self.place_last
        place_acc = self.place_acc
        pred_dep = self.pred_dep
        pred_fns = self.pred_fns
        pred_cur = self.pred_cur
        pred_last = self.pred_last
        pred_acc = self.pred_acc
        fire_count = self.fire_count
        degree = cn.degree
        top_immediates = cn.top_immediates
        dep_timed = cn.dep_timed
        dep_imm = cn.dep_imm
        trans = cn.trans

        for k, fn in enumerate(pred_fns):
            pred_cur[k] = fn(m)

        def apply_fire(ct) -> None:
            """Atomically fire ct, settling reward integrals on the way."""
            nonlocal event_count
            for p in ct.touched:
                if watch_place[p]:
                    place_acc[p] += m[p] * (now - place_last[p])
                    place_last[p] = now
            cn.fire_inplace(ct, m)
            for p in ct.touched:
                if m[p] > _TOKEN_LIMIT:
                    raise DivergenceError(cn.place_names[p])
                for k in pred_dep[p]:
                    if pred_last[k] != now:
                        if pred_cur[k]:
                            pred_acc[k] += now - pred_last[k]
                        pred_last[k] = now
                    pred_cur[k] = pred_fns[k](m)
            i = ct.idx
            if i in fire_count:
                fire_count[i] += 1
            event_count += 1
            if event_count > cfg.max_events:
                raise PartialResultError(cfg.max_events)

        def reconcile(tid: int) -> None:
            ct = trans[tid]
            nonlocal seq
            d = degree(ct, m)
            if d > 1 and not ct.infinite:
                d = 1
            lst = sched[tid]
            while len(lst) > d:
                e = lst.pop()
                e[3] = False
            while len(lst) < d:
                if ct.exponential:
                    dt = rng.expovariate(1.0 / ct.mean)
                else:
                    dt = ct.det_delay
                e = [now + dt, seq, tid, True]
                seq += 1
                heappush(heap, e)
                lst.append(e)

        def settle_and_fire(ct) -> None:
            """Fire ct, then resolve immediates, reconciling timed schedules
            after every atomic step.

            The start marking is tangible, so the only immediates that can
            become enabled are those depending on a place the firing touched.
            """
            apply_fire(ct)
            affected_timed = set()
            pending = set()
            for p in ct.touched:
                affected_timed.update(dep_timed[p])
                pending.update(dep_imm[p])
            if not ct.immediate:
                affected_timed.add(ct.idx)
            for tid in affected_timed:
                reconcile(tid)
            imm_steps = 0
            while pending:
                candidates = top_immediates(sorted(pending), m, pending)
                if not candidates:
                    return
                ct2 = _pick_weighted(candidates, rng)
                apply_fire(ct2)
                imm_steps += 1
                if imm_steps > cfg.max_immediate_steps:
                    raise LivelockError([ct2.name])
                affected_timed = set()
                for p in ct2.touched:
                    affected_timed.update(dep_timed[p])
                    pending.update(dep_imm[p])
                for tid in affected_timed:
                    reconcile(tid)

        # initial vanishing + schedule
        steps = _vanish_inplace(cn, m, rng, cfg.max_immediate_steps)
        event_count += steps
        for k, fn in enumerate(pred_fns):
            pred_cur[k] = fn(m)
        for tid in range(len(trans)):
            if not trans[tid].immediate:
                reconcile(tid)

        boundaries = [cfg.warmup_time + i * cfg.batch_length
                      for i in range(cfg.batch_count + 1)]
        next_b = 0

        def settle_all(t: float) -> None:
            for p in range(cn.n_places):
                if watch_place[p]:
                    place_acc[p] += m[p] * (t - place_last[p])
                    place_last[p] = t
            for k in range(len(pred_fns)):
                if pred_cur[k]:
                    pred_acc[k] += t - pred_last[k]
                pred_last[k] = t

        def handle_boundary(bt: float, is_warmup: bool) -> None:
            settle_all(bt)
            if not is_warmup:
                for q, (kind, i) in self.slots.items():
                    if kind == "place":
                        self.batches[q].append(place_acc[i] / cfg.batch_length)
                    elif kind == "pred":
                        self.batches[q].append(pred_acc[i] / cfg.batch_length)
                    else:
                        self.batches[q].append(
                            fire_count[i] / cfg.batch_length)
            for p in range(cn.n_places):
                place_acc[p] = 0.0
            for k in range(len(pred_fns)):
                pred_acc[k] = 0.0
            for t in fire_count:
                fire_count[t] = 0

        try:
            while next_b <= cfg.batch_count:
                # next valid event
                while heap and not heap[0][3]:
                    heappop(heap)
                te = heap[0][0] if heap else math.inf
                if te >= boundaries[next_b]:
                    bt = boundaries[next_b]
                    handle_boundary(bt, next_b == 0)
                    next_b += 1
                    continue
                e = heappop(heap)
                now = te
                tid = e[2]
                sched[tid].remove(e)
                ct = trans[tid]
                # guard soundness: the schedule must only hold enabled firings
                if degree(ct, m) == 0:
                    raise AssertionError(
                        f"scheduled transition {ct.name!r} is disabled; "
                        "schedule reconciliation bug")
                settle_and_fire(ct)
        except PartialResultError as exc:
            raise PartialResultError(
                cfg.max_events, result=self._finish(event_count)) from exc

        return self._finish(event_count)

    def _finish(self, event_count: int) -> SimulationResult:
        cfg = self.cfg
        estimates = {}
        for q, vals in self.batches.items():
            n = len(vals)
            if n >= 2:
                mean = sum(vals) / n
                var = sum((v - mean) ** 2 for v in vals) / (n - 1)
                tq = _scipy_stats.t.ppf((1.0 + cfg.confidence_level) / 2.0,
                                        n - 1)
                hw = tq * math.sqrt(var / n)
            elif n == 1:
                mean, hw = vals[0], math.inf
            else:
                mean, hw = math.nan, math.inf
            estimates[q] = Estimate(mean, hw, tuple(vals))
        total = cfg.warmup_time + len(
            next(iter(self.batches.values()), [])) * cfg.batch_length
        return SimulationResult(estimates=estimates, total_time=total,
                                event_count=event_count, seed=cfg.seed)
