"""Token game and stationary simulator."""

import dataclasses
import functools
import math
import operator
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.special import stdtrit

from hlfspn.spn import (
    And,
    Arc,
    Atom,
    ContractViolationError,
    Deterministic,
    DivergenceError,
    ExpectedTokens,
    Exponential,
    FiringRate,
    FlushAll,
    Flushed,
    Immediate,
    LivelockError,
    Not,
    Or,
    PartialResultError,
    PetriNet,
    Place,
    ProbabilityOf,
    ServerSemantics,
    SimConfig,
    Transition,
    simulate_stationary,
)

from hlfspn.hlf import HlfConfig, build_hlf_net
from hlfspn.metrics import standard_queries
from hlfspn.spn import ctmc, engine
from hlfspn.spn.engine import CompiledNet, compile_net

from queueing import mm1k, mmck
from refnets import (branch_net, flush_net, mm1k_net, mmck_net, priority_net,
                     tandem_net)
from test_acceptance import degenerate_endorse_config


def compiled_degrees(net, marking):
    """The transitions enabled in a dict marking, with their enabling
    degrees, by the generated `_D<i>` code."""
    cn = CompiledNet(net)
    m = [marking[name] for name in cn.place_names]
    return {ct.name: d for ct, d in zip(cn.trans, (f(m) for f in cn.degrees))
            if d}


def compiled_fire(net, marking, name):
    """Fire a transition on a dict marking by the generated `_F<i>` code;
    returns (new marking, flushed count)."""
    cn = CompiledNet(net)
    m = [marking[p] for p in cn.place_names]
    kappa = cn.fires[cn.transition_id(name)](m)
    return dict(zip(cn.place_names, m)), kappa


class TestEnabledSet:
    def test_degrees_and_guard(self):
        net = PetriNet(
            places=(Place("A", 6), Place("B", 1), Place("C", 0)),
            transitions=(
                Transition("T1", Immediate(), input_arcs=(Arc("A", 2),)),
                Transition("T2", Immediate(), input_arcs=(Arc("A"), Arc("B"))),
                Transition("T3", Immediate(), input_arcs=(Arc("C"),)),
                Transition("T4", Immediate(), input_arcs=(Arc("A"),),
                           guard=Atom("B", "=", 0)),
            ))
        assert compiled_degrees(net, {"A": 6, "B": 1, "C": 0}) == \
            {"T1": 3, "T2": 1}

    def test_flush_enabling_degree_is_one(self):
        net = PetriNet(
            places=(Place("A", 7), Place("B", 0)),
            transitions=(
                Transition("T", Immediate(),
                           input_arcs=(Arc("A", FlushAll()),),
                           output_arcs=(Arc("B", Flushed()),)),
            ))
        assert compiled_degrees(net, {"A": 7, "B": 0}) == {"T": 1}
        assert compiled_degrees(net, {"A": 0, "B": 0}) == {}

    def test_source_transition_degree_is_one(self):
        net = PetriNet(
            places=(Place("A", 0),),
            transitions=(Transition("SRC", Exponential(1.0),
                                    output_arcs=(Arc("A"),)),))
        assert compiled_degrees(net, {"A": 0}) == {"SRC": 1}

    def test_arc_threshold(self):
        net = PetriNet(
            places=(Place("A", 5),),
            transitions=(Transition("T", Immediate(),
                                    input_arcs=(Arc("A", 3),)),))
        assert compiled_degrees(net, {"A": 5}) == {"T": 1}
        assert compiled_degrees(net, {"A": 2}) == {}


class TestFire:
    def test_constant_arcs(self):
        net = PetriNet(
            places=(Place("A", 3), Place("B", 0)),
            transitions=(Transition("T", Immediate(),
                                    input_arcs=(Arc("A", 2),),
                                    output_arcs=(Arc("B", 5),)),))
        marking, kappa = compiled_fire(net, {"A": 3, "B": 0}, "T")
        assert marking == {"A": 1, "B": 5}
        assert kappa == 0

    def test_flush_returns_and_reproduces_kappa(self):
        net = PetriNet(
            places=(Place("A", 4), Place("B", 0), Place("C", 0)),
            transitions=(Transition("T", Immediate(),
                                    input_arcs=(Arc("A", FlushAll()),),
                                    output_arcs=(Arc("B", Flushed()),
                                                 Arc("C", 1))),))
        marking, kappa = compiled_fire(net, {"A": 4, "B": 0, "C": 0}, "T")
        assert kappa == 4
        assert marking == {"A": 0, "B": 4, "C": 1}

    def test_firing_disabled_transition_raises(self):
        net = PetriNet(
            places=(Place("A", 0),),
            transitions=(Transition("T", Immediate(),
                                    input_arcs=(Arc("A"),)),))
        with pytest.raises(ContractViolationError, match="negative"):
            compiled_fire(net, {"A": 0}, "T")

    def test_compiling_an_invalid_net_lists_each_problem(self):
        net = PetriNet(
            places=(Place("A", 1),),
            transitions=(Transition("T", Immediate(),
                                    input_arcs=(Arc("A"), Arc("A")),
                                    output_arcs=(Arc("NOPE"),)),))
        with pytest.raises(ContractViolationError) as exc_info:
            compile_net(net)
        message = str(exc_info.value)
        assert message.startswith("net fails validation: ")
        assert "multiple input arcs from place 'A'" in message
        assert "output arc references unknown place 'NOPE'" in message


def firings(net, seed=0, batch_length=1.0):
    """The names of the transitions simulate_stationary fires, in order."""
    names = []
    simulate_stationary(net, [], SimConfig(batch_count=2,
                                           batch_length=batch_length,
                                           seed=seed),
                        on_fire=lambda name, m, now: names.append(name))
    return names


class TestVanish:
    """Immediate-transition resolution, as simulate_stationary runs it."""

    def test_resolves_chain_to_tangible(self):
        net = PetriNet(
            places=(Place("A", 2), Place("B", 0), Place("C", 0)),
            transitions=(
                Transition("T1", Immediate(), input_arcs=(Arc("A"),),
                           output_arcs=(Arc("B"),)),
                Transition("T2", Immediate(), input_arcs=(Arc("B"),),
                           output_arcs=(Arc("C"),)),
            ))
        seen = []
        res = simulate_stationary(
            net, [ExpectedTokens("C")], SimConfig(batch_count=2),
            on_fire=lambda name, m, now: seen.append((name, m, now)))
        assert sorted(name for name, _, _ in seen) == ["T1", "T1", "T2", "T2"]
        assert seen[-1][1:] == ((0, 0, 2), 0.0)
        assert res.value(ExpectedTokens("C")) == 2.0

    def test_priority_beats_weight(self):
        net = PetriNet(
            places=(Place("A", 1), Place("LO", 0), Place("HI", 0)),
            transitions=(
                Transition("T_LO", Immediate(priority=1, weight=1000.0),
                           input_arcs=(Arc("A"),), output_arcs=(Arc("LO"),)),
                Transition("T_HI", Immediate(priority=2, weight=1.0),
                           input_arcs=(Arc("A"),), output_arcs=(Arc("HI"),)),
            ))
        for seed in range(20):
            assert firings(net, seed) == ["T_HI"]

    def test_lower_priority_immediate_fires_after_a_higher_one(self):
        # HI and LO share no place: HI's firing cannot enable LO, which was
        # enabled before it and must still fire at t = 0
        net = PetriNet(
            places=(Place("A", 1), Place("B", 1), Place("X", 0),
                    Place("Y", 0)),
            transitions=(
                Transition("LO", Immediate(priority=1),
                           input_arcs=(Arc("B"),), output_arcs=(Arc("Y"),)),
                Transition("HI", Immediate(priority=2),
                           input_arcs=(Arc("A"),), output_arcs=(Arc("X"),)),
            ))
        seen = []
        simulate_stationary(
            net, [], SimConfig(batch_count=2),
            on_fire=lambda name, m, now: seen.append((name, m, now)))
        assert seen == [("HI", (0, 1, 1, 0), 0.0), ("LO", (0, 0, 1, 1), 0.0)]

    def test_weight_proportional_choice(self):
        # each time unit the token returns to A and the conflict is
        # resolved again: 40,000 choices in one run
        net = PetriNet(
            places=(Place("A", 1), Place("X", 0), Place("Y", 0)),
            transitions=(
                Transition("TX", Immediate(weight=1.0),
                           input_arcs=(Arc("A"),), output_arcs=(Arc("X"),)),
                Transition("TY", Immediate(weight=3.0),
                           input_arcs=(Arc("A"),), output_arcs=(Arc("Y"),)),
                Transition("BX", Deterministic(1.0),
                           input_arcs=(Arc("X"),), output_arcs=(Arc("A"),)),
                Transition("BY", Deterministic(1.0),
                           input_arcs=(Arc("Y"),), output_arcs=(Arc("A"),)),
            ))
        names = firings(net, seed=42, batch_length=20_000.0)
        hits, misses = names.count("TX"), names.count("TY")
        assert hits + misses == 40_000
        assert abs(hits / (hits + misses) - 0.25) < 0.01

    def test_livelock_detection(self, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_IMMEDIATE_STEPS", 100)
        net = PetriNet(
            places=(Place("A", 1), Place("B", 0)),
            transitions=(
                Transition("AB", Immediate(), input_arcs=(Arc("A"),),
                           output_arcs=(Arc("B"),)),
                Transition("BA", Immediate(), input_arcs=(Arc("B"),),
                           output_arcs=(Arc("A"),)),
            ))
        with pytest.raises(LivelockError):
            firings(net)

    def test_livelock_detection_after_a_timed_firing(self, monkeypatch):
        # the start marking is tangible; the cycle begins once GO fires
        monkeypatch.setattr(engine, "_MAX_IMMEDIATE_STEPS", 100)
        net = PetriNet(
            places=(Place("S", 1), Place("A", 0), Place("B", 0)),
            transitions=(
                Transition("GO", Exponential(0.1), input_arcs=(Arc("S"),),
                           output_arcs=(Arc("A"),)),
                Transition("AB", Immediate(), input_arcs=(Arc("A"),),
                           output_arcs=(Arc("B"),)),
                Transition("BA", Immediate(), input_arcs=(Arc("B"),),
                           output_arcs=(Arc("A"),)),
            ))
        with pytest.raises(LivelockError):
            firings(net, batch_length=100.0)


def test_initial_immediates_count_toward_the_event_cap():
    # four immediate firings at t = 0 and no timed transition
    net = PetriNet(
        places=(Place("A", 2), Place("B", 0), Place("C", 0)),
        transitions=(
            Transition("T1", Immediate(), input_arcs=(Arc("A"),),
                       output_arcs=(Arc("B"),)),
            Transition("T2", Immediate(), input_arcs=(Arc("B"),),
                       output_arcs=(Arc("C"),)),
        ))
    with pytest.raises(PartialResultError) as exc_info:
        simulate_stationary(net, [ExpectedTokens("C")],
                            SimConfig(batch_count=2, max_events=1))
    assert exc_info.value.result.event_count == 2


@pytest.mark.parametrize("start", ["S", "A"], ids=["after-go", "at-zero"])
def test_livelock_names_its_cycle(monkeypatch, start):
    monkeypatch.setattr(engine, "_MAX_IMMEDIATE_STEPS", 100)
    net = PetriNet(
        places=(Place("S", int(start == "S")), Place("A", int(start == "A")),
                Place("B", 0)),
        transitions=(
            Transition("GO", Exponential(0.1), input_arcs=(Arc("S"),),
                       output_arcs=(Arc("A"),)),
            Transition("AB", Immediate(), input_arcs=(Arc("A"),),
                       output_arcs=(Arc("B"),)),
            Transition("BA", Immediate(), input_arcs=(Arc("B"),),
                       output_arcs=(Arc("A"),)),
        ))
    with pytest.raises(LivelockError) as exc_info:
        firings(net, batch_length=100.0)
    assert set(exc_info.value.transitions) == {"AB", "BA"}
    assert "cycling transitions: AB, BA" in str(exc_info.value)


def test_livelock_names_every_transition_of_a_long_loop(monkeypatch):
    # a token circles a ring of 70 immediates
    monkeypatch.setattr(engine, "_MAX_IMMEDIATE_STEPS", 100)
    n = 70
    net = PetriNet(
        places=tuple(Place(f"P{i}", int(i == 0)) for i in range(n)),
        transitions=tuple(
            Transition(f"R{i}", Immediate(), input_arcs=(Arc(f"P{i}"),),
                       output_arcs=(Arc(f"P{(i + 1) % n}"),))
            for i in range(n)))
    with pytest.raises(LivelockError) as exc_info:
        firings(net)
    assert sorted(exc_info.value.transitions) == sorted(
        f"R{i}" for i in range(n))


def test_finite_cascade_longer_than_the_check_runs_to_its_end(monkeypatch):
    # 150 DRAIN firings in a row at t = 0, past a check after 100
    monkeypatch.setattr(engine, "_MAX_IMMEDIATE_STEPS", 100)
    net = PetriNet(
        places=(Place("A", 150), Place("B", 0)),
        transitions=(
            Transition("DRAIN", Immediate(), input_arcs=(Arc("A"),),
                       output_arcs=(Arc("B"),)),
        ))
    queries = [ExpectedTokens("A"), ExpectedTokens("B")]
    res = simulate_stationary(net, queries, SimConfig(batch_count=2))
    assert res.event_count == 150
    assert [res.value(q) for q in queries] == [0.0, 150.0]


def test_unbounded_immediate_growth_is_a_livelock(monkeypatch):
    # GROW keeps A and adds a token to B: every marking is new, so the
    # check stops at the resolver's cap on distinct markings
    monkeypatch.setattr(engine, "_MAX_IMMEDIATE_STEPS", 100)
    monkeypatch.setattr(engine, "_MAX_VANISHING", 1000)
    net = PetriNet(
        places=(Place("A", 1), Place("B", 0)),
        transitions=(
            Transition("GROW", Immediate(), input_arcs=(Arc("A"),),
                       output_arcs=(Arc("A"), Arc("B"))),
        ))
    with pytest.raises(LivelockError) as exc_info:
        firings(net)
    assert exc_info.value.transitions == ["GROW"]


def test_vanishing_start_marking_matches_the_exact_solution():
    # S starts marked and is vanishing: the weighted pick between TA and
    # TB at t = 0 disables LEAK, which the loop has already scheduled
    net = PetriNet(
        places=(Place("S", 1), Place("A", 0), Place("B", 0)),
        transitions=(
            Transition("TA", Immediate(weight=1.0), input_arcs=(Arc("S"),),
                       output_arcs=(Arc("A"),)),
            Transition("TB", Immediate(weight=3.0), input_arcs=(Arc("S"),),
                       output_arcs=(Arc("B"),)),
            Transition("LEAK", Exponential(1.0), input_arcs=(Arc("S"),),
                       output_arcs=(Arc("B"),)),
            Transition("BACK_A", Exponential(1.0), input_arcs=(Arc("A"),),
                       output_arcs=(Arc("S"),)),
            Transition("BACK_B", Exponential(2.0), input_arcs=(Arc("B"),),
                       output_arcs=(Arc("S"),)),
        ))
    queries = [ExpectedTokens("A"), FiringRate("TA"), FiringRate("LEAK")]
    exact = ctmc.solve_ctmc(net, queries)
    assert exact.value(queries[0]) == pytest.approx(1 / 7)
    res = run(net, queries, warmup_time=0.0, batch_length=200.0,
              confidence_level=0.999)
    for q in queries:
        assert abs(res.value(q) - exact.value(q)) <= res.halfwidth(q)
    assert res.value(FiringRate("LEAK")) == 0.0


# ---------------------------------------------------------------------------
# Property tests: enabling and firing against a naive reference

place_names = ("P0", "P1", "P2")


@st.composite
def small_nets(draw):
    places = tuple(Place(n, draw(st.integers(0, 5))) for n in place_names)
    transitions = []
    for i in range(draw(st.integers(1, 3))):
        n_in = draw(st.integers(0, 2))
        in_places = draw(st.permutations(place_names))[:n_in]
        input_arcs = tuple(
            Arc(p, draw(st.integers(1, 3))) for p in in_places)
        guard = None
        if draw(st.booleans()):
            guard = Atom(draw(st.sampled_from(place_names)),
                         draw(st.sampled_from(("=", "<", ">=", "!="))),
                         draw(st.integers(0, 4)))
        transitions.append(Transition(
            f"T{i}", Immediate(), input_arcs=input_arcs, guard=guard))
    return PetriNet(places=places, transitions=tuple(transitions))


_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def eval_predicate(pred, tokens) -> bool:
    """Reference guard interpreter over a dict marking, for comparison with
    the guard source the compiler generates."""
    if isinstance(pred, Atom):
        rhs = pred.rhs
        r = tokens[rhs] if isinstance(rhs, str) else rhs
        return _OPS[pred.op](tokens[pred.place], r)
    if isinstance(pred, And):
        return eval_predicate(pred.left, tokens) and \
            eval_predicate(pred.right, tokens)
    if isinstance(pred, Or):
        return eval_predicate(pred.left, tokens) or \
            eval_predicate(pred.right, tokens)
    return not eval_predicate(pred.operand, tokens)


def naive_degree(t, marking):
    if t.guard is not None and not eval_predicate(t.guard, marking):
        return 0
    flush = [a for a in t.input_arcs if isinstance(a.count, FlushAll)]
    degrees = [marking[a.place] // a.count
               for a in t.input_arcs if a not in flush]
    if 0 in degrees or any(marking[a.place] == 0 for a in flush):
        return 0
    if flush or not degrees:
        return 1
    return min(degrees)


def naive_fire(t, marking):
    out = dict(marking)
    kappa = 0
    for arc in t.input_arcs:
        if isinstance(arc.count, FlushAll):
            kappa += out[arc.place]
            out[arc.place] = 0
    for arc in t.input_arcs:
        if not isinstance(arc.count, FlushAll):
            out[arc.place] -= arc.count
    for arc in t.output_arcs:
        if isinstance(arc.count, Flushed):
            out[arc.place] += kappa
        else:
            out[arc.place] += arc.count
    return out, kappa


@settings(max_examples=200, deadline=None)
@given(net=small_nets(), data=st.data())
def test_enabled_set_matches_naive_reference(net, data):
    marking = {n: data.draw(st.integers(0, 6), label=n) for n in place_names}
    expected = {}
    for t in net.transitions:
        d = naive_degree(t, marking)
        if d > 0:
            expected[t.name] = d
    assert compiled_degrees(net, marking) == expected


@settings(max_examples=200, deadline=None)
@given(net=small_nets(), data=st.data())
def test_fire_applies_arc_deltas(net, data):
    marking = {n: data.draw(st.integers(0, 6), label=n) for n in place_names}
    enabled = compiled_degrees(net, marking)
    if not enabled:
        return
    name = data.draw(st.sampled_from(sorted(enabled)))
    t = net.transition(name)
    after, kappa = compiled_fire(net, marking, name)
    assert (after, kappa) == naive_fire(t, marking)
    assert all(v >= 0 for v in after.values())


def hlf_nets():
    for dist in ("deterministic", "exponential"):
        cfg = HlfConfig(n_endorsers=2, n_committers=2, block_size=3,
                        arrival_dist=dist, timeout_dist=dist)
        yield f"hlf-{dist}", build_hlf_net(cfg.with_arrival_rate(50.0)).net


NETS = [("mm1k", mm1k_net(8.0, 10.0, 5)), ("mmck", mmck_net(6.0, 2.0, 3, 7)),
        ("tandem", tandem_net()), ("branch", branch_net()),
        ("flush", flush_net()), ("priority", priority_net()), *hlf_nets()]


@pytest.mark.parametrize("name,net", NETS, ids=[n for n, _ in NETS])
def test_generated_code_matches_naive_reference(name, net):
    cn = compile_net(net)
    rng = random.Random(name)
    names = cn.place_names
    for _ in range(400):
        # small counts so that thresholds, guards and zeros all occur
        m = [rng.choice((0, 0, 1, 2, 3, 4, 7)) for _ in names]
        marking = dict(zip(names, m))
        for t, ct in zip(net.transitions, cn.trans):
            want = naive_degree(t, marking)
            assert cn.degrees[ct.idx](m) == want, (t.name, marking)
            if want:
                m2 = list(m)
                kappa = cn.fires[ct.idx](m2)
                assert (dict(zip(names, m2)), kappa) == \
                    naive_fire(t, marking), (t.name, marking)
        enabled = [ct for t, ct in zip(net.transitions, cn.trans)
                   if ct.immediate and naive_degree(t, marking)]
        assert cn.top_all(m) == naive_top(enabled), marking
        for ct in cn.trans:
            # after a timed firing, only the immediates it affects
            cands = cn.immediates if ct.immediate else cn.affects_imm[ct.idx]
            assert cn.top_after[ct.idx](m) == naive_top(
                [e for e in enabled if e.idx in cands]), (ct.name, marking)


def naive_top(enabled) -> tuple[int, ...]:
    """The indices of the enabled immediates of highest priority, in
    index order."""
    best = max((ct.priority for ct in enabled), default=None)
    return tuple(sorted(ct.idx for ct in enabled if ct.priority == best))


def test_hlf_nets_cover_every_arc_kind():
    for _, net in hlf_nets():
        trans = compile_net(net).trans
        assert any(ct.infinite for ct in trans)
        assert any(ct.guard is not None for ct in trans)
        assert any(ct.flush_in for ct in trans)
        assert any(k > 1 for ct in trans for _, k in ct.const_in)


# every rhs kind: another place, and int, integral float and numpy values
atoms = st.builds(
    Atom, st.sampled_from(place_names),
    st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
    st.one_of(st.integers(0, 4), st.sampled_from((2.0, np.int64(2))),
              st.sampled_from(place_names)))
predicates = st.recursive(atoms, lambda sub: st.one_of(
    st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Not, sub)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(pred=predicates,
       tokens=st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_compiled_predicate_matches_eval_predicate(pred, tokens):
    # the guard is generated into both forms of `_D<i>`: without input
    # arcs (T0) and after an arc threshold test (T1, ON always marked)
    net = PetriNet(
        places=tuple(Place(n) for n in place_names) + (Place("ON", 1),),
        transitions=(Transition("T0", Immediate(), guard=pred),
                     Transition("T1", Immediate(), input_arcs=(Arc("ON"),),
                                guard=pred)))
    cn = compile_net(net)
    m = tokens + [1]
    want = eval_predicate(pred, dict(zip(place_names, tokens)))
    rates, _ = cn.reward_plan([ProbabilityOf(pred)])
    assert cn.rewards(rates)(m) == (int(want),)
    assert [d(m) for d in cn.degrees] == [int(want)] * 2


def test_guard_and_reward_source_hold_literals_and_place_indices():
    net = PetriNet(places=(Place("A"), Place("B")), transitions=(
        Transition("T", Immediate(), guard=And(Atom("A", ">=", np.int64(4)),
                                               Atom("B", "<", "A"))),))
    cn = compile_net(net)
    assert cn.trans[0].guard == "(m[0] >= 4 and m[1] < m[0])"
    ((_, expr, places),), _ = cn.reward_plan(
        [ProbabilityOf(Atom("B", "=", 2.0))])
    assert (expr, places) == ("(1 if m[1] == 2 else 0)", (1,))


# ---------------------------------------------------------------------------
# Stationary simulation

def run(net, queries, **kwargs):
    defaults = dict(warmup_time=100.0, batch_count=20, batch_length=100.0,
                    seed=7)
    defaults.update(kwargs)
    return simulate_stationary(net, queries, SimConfig(**defaults))


class TestStationarySimulation:
    def test_mm1k_against_closed_form(self):
        lam, mu, K = 8.0, 10.0, 5
        oracle = mm1k(lam, mu, K)
        net = mm1k_net(lam, mu, K)
        q_len = ExpectedTokens("Q")
        q_blocked = ProbabilityOf(Atom("ROOM", "=", 0))
        q_rate = FiringRate("SERVE")
        res = run(net, [q_len, q_blocked, q_rate], batch_length=200.0)
        assert res.value(q_len) == pytest.approx(
            oracle.mean_in_system, abs=max(3 * res.halfwidth(q_len),
                                           0.03 * oracle.mean_in_system))
        assert res.value(q_blocked) == pytest.approx(
            oracle.blocking_prob, abs=max(3 * res.halfwidth(q_blocked),
                                          0.05 * oracle.blocking_prob))
        assert res.value(q_rate) == pytest.approx(
            oracle.effective_rate, abs=max(3 * res.halfwidth(q_rate),
                                           0.03 * oracle.effective_rate))

    def test_mmck_against_closed_form(self):
        lam, mu, c, K = 6.0, 2.0, 3, 7
        oracle = mmck(lam, mu, c, K)
        net = mmck_net(lam, mu, c, K)
        q_n = [ExpectedTokens("Q"), ExpectedTokens("S")]
        q_blocked = ProbabilityOf(Atom("ROOM", "=", 0))
        res = run(net, q_n + [q_blocked], batch_length=200.0)
        n_est = res.value(q_n[0]) + res.value(q_n[1])
        hw = math.hypot(res.halfwidth(q_n[0]), res.halfwidth(q_n[1]))
        assert n_est == pytest.approx(
            oracle.mean_in_system, abs=max(3 * hw,
                                           0.03 * oracle.mean_in_system))
        assert res.value(q_blocked) == pytest.approx(
            oracle.blocking_prob, abs=max(3 * res.halfwidth(q_blocked),
                                          0.05 * oracle.blocking_prob))

    def test_infinite_server_mean(self):
        # M/M/inf: mean in system is exactly arrival rate x mean service
        net = PetriNet(
            places=(Place("Q", 0),),
            transitions=(
                Transition("ARRIVE", Exponential(0.2),
                           output_arcs=(Arc("Q"),)),
                Transition("SERVE", Exponential(2.0),
                           input_arcs=(Arc("Q"),),
                           server_semantics=ServerSemantics.INFINITE),
            ))
        q = ExpectedTokens("Q")
        res = run(net, [q])
        assert res.value(q) == pytest.approx(10.0, rel=0.05)

    def test_single_server_mean(self):
        # M/M/1 at rho = 0.5: mean in system is rho / (1 - rho) = 1
        net = PetriNet(
            places=(Place("Q", 0),),
            transitions=(
                Transition("ARRIVE", Exponential(2.0),
                           output_arcs=(Arc("Q"),)),
                Transition("SERVE", Exponential(1.0),
                           input_arcs=(Arc("Q"),)),
            ))
        q = ExpectedTokens("Q")
        res = run(net, [q], batch_length=500.0)
        assert res.value(q) == pytest.approx(1.0, rel=0.08)

    def test_deterministic_source_rate(self):
        net = PetriNet(
            places=(Place("Q", 0),),
            transitions=(
                Transition("TICK", Deterministic(0.1),
                           output_arcs=(Arc("Q"),)),
                Transition("SINK", Exponential(0.01),
                           input_arcs=(Arc("Q"),),
                           server_semantics=ServerSemantics.INFINITE),
            ))
        q = FiringRate("TICK")
        res = run(net, [q], warmup_time=10.0, batch_count=10,
                  batch_length=50.0)
        assert res.value(q) == pytest.approx(10.0, rel=0.01)

    def test_race_with_restart_cancels_pending_firings(self):
        # the token shuttles between A and B every ~0.4 s on average, so a
        # 5 s deterministic timer on A restarts constantly and never fires
        net = PetriNet(
            places=(Place("A", 1), Place("B", 0), Place("C", 0)),
            transitions=(
                Transition("OFF", Exponential(0.4), input_arcs=(Arc("A"),),
                           output_arcs=(Arc("B"),)),
                Transition("ON", Exponential(0.4), input_arcs=(Arc("B"),),
                           output_arcs=(Arc("A"),)),
                Transition("TIMER", Deterministic(5.0),
                           input_arcs=(Arc("A"),), output_arcs=(Arc("C"),)),
            ))
        q = FiringRate("TIMER")
        res = run(net, [q], warmup_time=10.0, batch_count=10,
                  batch_length=100.0)
        assert res.value(q) == 0.0

    def test_confidence_interval_matches_t_formula(self):
        net = mm1k_net(8.0, 10.0, 5)
        q = ExpectedTokens("Q")
        res = run(net, [q], batch_count=12, batch_length=50.0,
                  confidence_level=0.9)
        vals = res.estimates[q].batch_values
        assert len(vals) == 12
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        expected_hw = scipy_stats.t.ppf(0.95, 11) * math.sqrt(var / 12)
        assert res.value(q) == pytest.approx(mean)
        assert res.halfwidth(q) == pytest.approx(expected_hw)

    def test_same_seed_reproduces_exactly(self):
        net = mm1k_net(8.0, 10.0, 5)
        q = ExpectedTokens("Q")
        r1 = run(net, [q], batch_count=5, batch_length=20.0, seed=3)
        r2 = run(net, [q], batch_count=5, batch_length=20.0, seed=3)
        assert r1.estimates[q].batch_values == r2.estimates[q].batch_values
        r3 = run(net, [q], batch_count=5, batch_length=20.0, seed=4)
        assert r1.estimates[q].batch_values != r3.estimates[q].batch_values

    def test_event_cap_yields_partial_result(self):
        net = mm1k_net(8.0, 10.0, 5)
        q = ExpectedTokens("Q")
        with pytest.raises(PartialResultError) as exc_info:
            run(net, [q], max_events=50)
        partial = exc_info.value.result
        assert partial is not None
        assert partial.event_count >= 50

    @pytest.mark.parametrize("queries", [[], [FiringRate("SERVE")]],
                             ids=["no-query", "one-query"])
    def test_total_time_counts_closed_batches(self, queries):
        res = run(mm1k_net(8.0, 10.0, 5), queries, warmup_time=10.0,
                  batch_count=4, batch_length=50.0)
        assert res.total_time == 210.0

    def test_partial_result_total_time_counts_closed_batches(self):
        # queries draw no random numbers, so both runs stop at the same
        # event, after the same number of closed batches
        q = FiringRate("SERVE")
        partial = {}
        for queries in ([], [q]):
            with pytest.raises(PartialResultError) as exc_info:
                run(mm1k_net(8.0, 10.0, 5), queries, warmup_time=10.0,
                    batch_count=4, batch_length=50.0, max_events=2000)
            partial[len(queries)] = exc_info.value.result
        closed = len(partial[1].estimates[q].batch_values)
        assert 0 < closed < 4
        assert partial[1].total_time == 10.0 + 50.0 * closed
        assert partial[0].total_time == partial[1].total_time

    @staticmethod
    def clock_net():
        # one token that T moves from P back to P every 2 s
        return PetriNet(
            places=(Place("P", 1),),
            transitions=(Transition("T", Deterministic(2.0),
                                    input_arcs=(Arc("P"),),
                                    output_arcs=(Arc("P"),)),))

    def test_a_firing_at_a_boundary_belongs_to_the_next_batch(self):
        # T fires at 2 s and 4 s, each exactly at a batch boundary: the
        # batch closes first, so the first batch holds no firing and the
        # run ends at 4 s before the second firing
        res = run(self.clock_net(), [FiringRate("T")], warmup_time=0.0,
                  batch_count=2, batch_length=2.0)
        assert res.batch_values(FiringRate("T")) == (0.0, 0.5)
        assert res.event_count == 1

    def test_a_large_batch_count_costs_nothing_before_the_first_event(self):
        tracemalloc.start()
        try:
            with pytest.raises(PartialResultError):
                run(self.clock_net(), [FiringRate("T")], warmup_time=0.0,
                    batch_count=10**6, batch_length=1.0, max_events=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_token_divergence_detected(self):
        net = PetriNet(
            places=(Place("Q", 0),),
            transitions=(Transition(
                "FLOOD", Deterministic(0.001),
                output_arcs=(Arc("Q", 600_000_000),)),))
        with pytest.raises(DivergenceError):
            run(net, [ExpectedTokens("Q")], warmup_time=0.0,
                batch_count=2, batch_length=1.0)

    def test_sim_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(batch_count=1)
        with pytest.raises(ValueError):
            SimConfig(batch_length=0.0)
        with pytest.raises(ValueError):
            SimConfig(confidence_level=1.0)
        with pytest.raises(ValueError):
            SimConfig(warmup_time=-1.0)
        with pytest.raises(ValueError, match="batch_length"):
            SimConfig(batch_length=math.nan)
        with pytest.raises(ValueError, match="warmup_time"):
            SimConfig(warmup_time=math.nan)
        with pytest.raises(ValueError, match="batch_length"):
            SimConfig(batch_length=math.inf)
        with pytest.raises(ValueError, match="warmup_time"):
            SimConfig(warmup_time=math.inf)

    def test_sim_config_integer_fields_are_integers(self):
        for field in ("batch_count", "seed", "max_events"):
            for bad in (2.5, math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{field} must be an "
                                   "integer"):
                    SimConfig(**{field: bad})
        cfg = SimConfig(batch_count=2.0, seed=np.int64(3), max_events=1e6)
        assert (cfg.batch_count, cfg.seed, cfg.max_events) == (2, 3, 10**6)
        assert {type(cfg.batch_count), type(cfg.seed),
                type(cfg.max_events)} == {int}
        # an integral float batch count runs; it used to reach range()
        res = run(mm1k_net(1.0, 2.0, 3), [ExpectedTokens("Q")],
                  warmup_time=0.0, batch_count=2.0, batch_length=5.0)
        assert len(res.batch_values(ExpectedTokens("Q"))) == 2

    @pytest.mark.parametrize("query", [
        ExpectedTokens("NOPE"), FiringRate("NOPE"),
        ProbabilityOf(Atom("NOPE", "=", 0)), "Q"],
        ids=["tokens", "rate", "probability", "not-a-query"])
    @pytest.mark.parametrize("evaluator", ["simulate", "solve"])
    def test_unknown_query_targets_raise(self, evaluator, query):
        net = mm1k_net(8.0, 10.0, 5)
        error = TypeError if query == "Q" else ContractViolationError
        with pytest.raises(error):
            if evaluator == "simulate":
                run(net, [query], batch_count=2, batch_length=1.0)
            else:
                ctmc.solve_ctmc(net, [query])


# ---------------------------------------------------------------------------
# Query sets, in the simulator and the exact solver alike

MM1K_QUERIES = [ExpectedTokens("Q"),
                ProbabilityOf(Atom("ROOM", "=", 0)),
                FiringRate("ARRIVE"), FiringRate("SERVE")]


def evaluate(evaluator, net, queries):
    if evaluator == "simulate":
        return run(net, queries, batch_count=4, batch_length=50.0)
    return ctmc.solve_ctmc(net, queries)


@pytest.mark.parametrize("evaluator", ["simulate", "solve"])
class TestQuerySets:
    @pytest.mark.parametrize("subset", [[2, 3], [0, 1], [1, 0, 1, 3, 3], []],
                             ids=["impulse-only", "rate-only", "duplicates",
                                  "empty"])
    def test_a_subset_gives_the_full_set_values(self, evaluator, subset):
        # rewards never feed back into the simulation, so a query's value
        # does not depend on which other queries are asked
        net = mm1k_net(8.0, 10.0, 5)
        full = evaluate(evaluator, net, MM1K_QUERIES)
        queries = [MM1K_QUERIES[i] for i in subset]
        part = evaluate(evaluator, net, queries)
        assert list(part.estimates) == list(dict.fromkeys(queries))
        for q in queries:
            assert part.batch_values(q) == full.batch_values(q)
            assert part.value(q) == pytest.approx(full.value(q), rel=1e-12)

    @pytest.mark.parametrize("kinds", ["all", "impulse-only"])
    def test_one_state_chain(self, evaluator, kinds):
        # a timed self-loop on the one token: the marking never changes
        net = PetriNet(places=(Place("P", 1),), transitions=(
            Transition("T", Exponential(0.5), input_arcs=(Arc("P"),),
                       output_arcs=(Arc("P"),)),))
        rates = [ExpectedTokens("P"), ProbabilityOf(Atom("P", "=", 1))]
        res = evaluate(evaluator, net, [FiringRate("T")]
                       + (rates if kinds == "all" else []))
        if evaluator == "solve":
            assert res.n_states == 1
            assert res.value(FiringRate("T")) == pytest.approx(2.0, rel=1e-12)
        else:
            assert res.value(FiringRate("T")) == pytest.approx(2.0, rel=0.15)
        for q in rates if kinds == "all" else []:
            assert res.value(q) == pytest.approx(1.0, rel=1e-12)

    def test_a_predicate_is_compiled_once_per_evaluation(self, evaluator,
                                                         monkeypatch):
        # the one reward plan compiles each query once: per simulation, per
        # cold solve and per cached solve (whose indicator is kept)
        pred = Atom("Q", ">=", 2)
        seen = []
        real = engine.CompiledNet._predicate_source
        monkeypatch.setattr(engine.CompiledNet, "_predicate_source",
                            lambda cn, p: seen.append(p) or real(cn, p))
        monkeypatch.setattr(ctmc, "_chains", {})
        net = mm1k_net(8.0, 10.0, 5)
        queries = [ExpectedTokens("Q"), ProbabilityOf(pred),
                   FiringRate("SERVE")]
        for _ in range(2):
            evaluate(evaluator, net, queries)
            assert seen.count(pred) == 1
            seen.clear()


# simulate_stationary on the exponential-arrival criterion-1 configuration,
# seed 13, recorded before the event loop was compiled: the event count and
# every (point estimate, CI half-width) of PINNED_QUERIES, the rewards the
# metrics layer collected then, in its order of that time. The T_ARRIVAL
# rate entry was added later; every other entry is as recorded. Four of the
# rates (TE4, TE5, TE7, TI7) are read by no metric.
PINNED_QUERIES = [
    *(ExpectedTokens(p) for p in (
        "P_GT", "EQF_1", "EPF_1", "OQF1_1", "OPF2_1", "OPF3_1", "FULLBLK_1",
        "PARTBLK_1", "OPF5_1", "BLKTX_1", "CQF_1", "CPF_1")),
    ProbabilityOf(Atom("EQ_1", "=", 0)),
    *(ExpectedTokens(p) for p in ("EP_1", "OP_1", "CP_1")),
    *(FiringRate(t) for t in (
        "TE4", "TE5", "T_ARRIVAL", "T_DROP", "TE7", "TI6", "TI7")),
]
PINNED_EVENTS = 44327
PINNED_ESTIMATES = [
    (0.0, 0.0),
    (2.466296833410479, 0.26787805234505385),
    (2.8145266410894862, 0.05247069196402896),
    (0.0, 0.0),
    (0.028118048589752292, 0.0011731267752553751),
    (0.002293001963360322, 0.0006893283090925336),
    (0.028681153466841847, 0.0033444406226078313),
    (0.0, 0.0),
    (0.0286433904308765, 0.002130822002246336),
    (0.05732454389771835, 0.005250397001705214),
    (0.0, 0.0),
    (0.028532825164276347, 0.0031360762268777416),
    (0.187132973575153, 0.03794511292601028),
    (0.1854733589105139, 0.05247069196402953),
    (5.912264405549168, 0.00538609788942777),
    (5.971467174835723, 0.0031360762268778605),
    (27.9, 1.5551810597830618),
    (0.0, 0.0),
    (34.35, 0.9343470022221511),
    (6.4300000000000015, 2.1197571989232276),
    (27.9, 1.5352260254863297),
    (27.9, 1.5551810597830618),
    (0.0, 0.0),
]


def test_fixed_seed_result_is_pinned():
    # the exponential draws, heap order and immediate picks all feed these
    # numbers, so any change to the random draw order shows up here
    handle = build_hlf_net(degenerate_endorse_config(35.0))
    res = simulate_stationary(handle.net, PINNED_QUERIES, SimConfig(
        warmup_time=10.0, batch_count=5, batch_length=20.0, seed=13))
    assert res.event_count == PINNED_EVENTS
    got = [(res.value(q), res.halfwidth(q)) for q in PINNED_QUERIES]
    assert got == PINNED_ESTIMATES


# the timed transitions each firing reconciles on the default net, as
# transition indices in CPython's set order: neither the order in which
# the set was filled nor sorted
PINNED_AFFECTS_TIMED = {
    "T_ARRIVAL": (0,), "T_DROP": (), "TI_ROUTE_1": (), "TI2": (4,),
    "TE1": (4,), "TI_ROUTE_2": (), "TI4": (7,), "TE2": (7,),
    "TI_OQ": (4, 7), "TI5": (10, 4, 7), "TE3": (10,), "TI6": (17, 18, 13),
    "TI7": (17, 18, 14), "TE4": (17, 18, 13), "TE5": (17, 18, 14),
    "T_TIMEOUT": (17, 18, 15), "TI_CLK": (17, 15), "TE6": (17, 18, 15),
    "TE6_EXP": (17, 18), "TI_CQ_1": (17, 18), "TI8_1": (17, 18, 21),
    "TE7": (21,), "TI_CQ_2": (17, 18), "TI8_2": (24, 17, 18), "TE8": (24,),
}


def test_reconcile_order_is_pinned():
    # the simulator draws its random numbers in affects_timed order, so a
    # change to how those sets are built fails here by name before it
    # moves the pinned estimates
    cn = compile_net(build_hlf_net(HlfConfig().with_arrival_rate(10.0)).net)
    got = {ct.name: cn.affects_timed[ct.idx] for ct in cn.trans}
    assert got == PINNED_AFFECTS_TIMED


# ---------------------------------------------------------------------------
# Generated steps

def generated_code(cfg):
    """The code objects of a configuration's compiled net and of its
    simulator's steps, with the standard queries."""
    handle = build_hlf_net(cfg)
    sim = engine._Simulator(handle.net, standard_queries(handle), SimConfig())
    cn = sim.cn
    return [f.__code__ for f in (*cn.degrees, *cn.fires, *cn.top_after,
                                 cn.top_all, sim.start, *sim.steps)]


def test_generated_code_is_shared_only_by_one_structure():
    # rates, delays and the timeout are bound in the namespace, never
    # written into the source, so the cached code fits every one of them
    base = HlfConfig(block_size=2)
    timing = dataclasses.replace(
        base, timeout_s=0.3, te1=0.004, te2=0.006, te3=0.007, te4=0.003,
        te5=0.001, te6=0.02, te7=0.05, te8=0.09)
    a = generated_code(base.with_arrival_rate(20.0))
    b = generated_code(timing.with_arrival_rate(35.0))
    assert all(x is y for x, y in zip(a, b))
    # the block size is an arc count of TI6, so it is structure
    c = generated_code(dataclasses.replace(base, block_size=3)
                       .with_arrival_rate(20.0))
    assert len(c) == len(a)
    assert not any(x is y for x, y in zip(a, c))
    # a profile keys a function on its file name, line and name, so code of
    # different structures never shares a file name
    files = [x.co_filename for x in a]
    assert files == [x.co_filename for x in b]
    assert not set(files) & {x.co_filename for x in c}


@pytest.mark.parametrize("dist,kind", [("exponential", Exponential),
                                       ("deterministic", Deterministic)])
def test_a_compiled_net_holds_structure_only(dist, kind):
    # two nets of one structure whose timed kinds differ only in their
    # means or delays compile alike: the simulator reads those from the net
    base = HlfConfig(block_size=2, arrival_dist=dist, timeout_dist=dist)
    other = (dataclasses.replace(base, te1=0.004, te6=0.02, te8=0.09)
             if kind is Exponential else
             dataclasses.replace(base, timeout_s=0.3))
    nets = [build_hlf_net(base.with_arrival_rate(20.0)).net,
            build_hlf_net(other.with_arrival_rate(35.0)).net]
    assert ctmc._structure(nets[0]) == ctmc._structure(nets[1])
    differ = [(s.kind, t.kind) for s, t in zip(*(n.transitions for n in nets))
              if s.kind != t.kind]
    assert len(differ) >= 2
    assert all(type(k) is kind for pair in differ for k in pair)
    a, b = map(compile_net, nets)
    for x, y in zip(a.trans, b.trans, strict=True):
        assert ([getattr(x, slot) for slot in x.__slots__]
                == [getattr(y, slot) for slot in y.__slots__])
    for fa, fb in zip((*a.degrees, *a.fires, *a.top_after, a.top_all),
                      (*b.degrees, *b.fires, *b.top_after, b.top_all),
                      strict=True):
        assert fa.__code__ is fb.__code__


def test_the_schedule_is_released_when_a_run_ends(monkeypatch):
    # the generated steps and their namespace form a reference cycle, so a
    # schedule left filled would live until a garbage collection
    sims = []

    class Recorded(engine._Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(engine, "_Simulator", Recorded)
    net = mmck_net(6.0, 2.0, 3, 7)
    run(net, [ExpectedTokens("Q")], batch_count=2, batch_length=10.0)
    with pytest.raises(PartialResultError):
        run(net, [ExpectedTokens("Q")], max_events=50)
    assert len(sims) == 2
    for sim in sims:
        assert sim.heap == []
        assert all(lst == [] for lst in sim.sched)


@pytest.mark.parametrize("places", [1, 12], ids=["inline", "degree-call"])
def test_a_timed_step_rejects_a_disabled_transition(places):
    # the schedule must only hold enabled firings, with a short guard and
    # with a guard over many places
    names = [f"G{k}" for k in range(places)]
    guard = functools.reduce(And, (Atom(g, "=", 0) for g in names))
    net = PetriNet(
        places=(Place("A", 1), *(Place(g) for g in names)),
        transitions=(Transition("SERVE", Exponential(1.0),
                                input_arcs=(Arc("A"),), guard=guard),))
    sim = engine._Simulator(net, [], SimConfig())
    for m in ([0] + [0] * places, [1, 1] + [0] * (places - 1)):
        with pytest.raises(AssertionError, match="'SERVE' is disabled; "
                           "schedule reconciliation bug"):
            sim.steps[0](m, 0.0)


# ---------------------------------------------------------------------------
# Property test: P-invariants hold at every firing

@st.composite
def conservative_nets(draw):
    """Nets whose every transition moves k tokens from one place to another,
    or flushes one place into another, so the token sum of each connected
    component of places is a P-invariant. The places form one or two blocks
    of consecutive indices. A ring of unguarded timed transitions through
    each block of two or more places keeps its tokens moving, and every
    other transition joins two places of one block. An immediate moves
    tokens only to a higher-index place, so no sequence of immediate
    firings loops."""
    n = draw(st.integers(2, 5))
    split = draw(st.sampled_from([0, *range(2, n - 1)]))
    blocks = [b for b in (range(split), range(split, n)) if len(b) > 1]
    places = tuple(Place(f"P{i}", draw(st.integers(0, 4))) for i in range(n))

    def transition(name, kind, a, b, guard=None):
        if draw(st.booleans()):
            arcs = (Arc(f"P{a}", FlushAll()),), (Arc(f"P{b}", Flushed()),)
        else:
            k = draw(st.integers(1, 2))
            arcs = (Arc(f"P{a}", k),), (Arc(f"P{b}", k),)
        return Transition(
            name, kind, *arcs, guard=guard,
            server_semantics=draw(st.sampled_from(ServerSemantics)))

    def timed():
        kind = draw(st.sampled_from((Exponential, Deterministic)))
        return kind(draw(st.floats(0.5, 2.0)))

    transitions = [transition(f"R{a}", timed(), a, b[(i + 1) % len(b)])
                   for b in blocks for i, a in enumerate(b)]
    for i in range(draw(st.integers(0, 4))):
        a, b = draw(st.permutations(draw(st.sampled_from(blocks))))[:2]
        if draw(st.booleans()):
            a, b = min(a, b), max(a, b)
            kind = Immediate(draw(st.integers(1, 3)),
                             draw(st.sampled_from((0.5, 1.0, 3.0))))
        else:
            kind = timed()
        guard = None
        if draw(st.booleans()):
            guard = Atom(f"P{draw(st.integers(0, n - 1))}",
                         draw(st.sampled_from(("=", "<", ">=", "!="))),
                         draw(st.integers(0, 3)))
        transitions.append(transition(f"T{i}", kind, a, b, guard))
    return PetriNet(places=places, transitions=tuple(transitions))


def components(net) -> list[int]:
    """Each place's connected component, as a representative place index:
    places are joined by the arcs of a transition."""
    index = {p.name: i for i, p in enumerate(net.places)}
    parent = list(range(len(net.places)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for t in net.transitions:
        a, b = (find(index[arc.place])
                for arc in (*t.input_arcs, *t.output_arcs))
        parent[a] = b
    return [find(i) for i in range(len(parent))]


@settings(max_examples=40, deadline=None)
@given(net=conservative_nets(), seed=st.integers(0, 2 ** 16))
def test_p_invariants_hold_at_every_firing(net, seed):
    label = components(net)

    def sums(marking) -> dict[int, int]:
        total = dict.fromkeys(label, 0)
        for c, v in zip(label, marking):
            total[c] += v
        return total

    want = sums(p.initial_tokens for p in net.places)
    fired = []

    def check(name, marking, now):
        assert sums(marking) == want, (name, marking, now)
        fired.append(name)

    result = simulate_stationary(
        net, [], SimConfig(batch_count=2, batch_length=10.0, seed=seed),
        on_fire=check)
    assert len(fired) == result.event_count


# ---------------------------------------------------------------------------
# Student-t quantile

@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_t_quantile_matches_scipy(level):
    for df in [*range(1, 201), 499, 999, 10_000]:
        want = stdtrit(df, (1.0 + level) / 2.0)
        assert engine.t_quantile(df, level) == pytest.approx(
            want, rel=1e-13, abs=0.0), df


@pytest.mark.parametrize("df", [1, 4])
def test_t_quantile_equals_scipy_at_pinned_points(df):
    # the degrees of freedom of the pinned fixed-seed tests' intervals
    assert engine.t_quantile(df, 0.95) == stdtrit(df, 0.975)


def test_t_quantile_at_large_df():
    assert engine.t_quantile(100_000, 0.95) == pytest.approx(
        stdtrit(100_000, 0.975), rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# Import path

_SIMULATE_WITHOUT_SCIPY = """
import sys
import hlfspn
from hlfspn.hlf import HlfConfig, build_hlf_net
from hlfspn.metrics import metric_report, standard_queries
from hlfspn.spn import SimConfig, simulate_stationary, solve_ctmc
handle = build_hlf_net(HlfConfig(block_size=2).with_arrival_rate(20.0))
res = simulate_stationary(handle.net, standard_queries(handle), SimConfig(
    warmup_time=1.0, batch_count=3, batch_length=2.0, seed=1))
metric_report(res, handle)
print(sorted(m for m in sys.modules if m.split(".")[0]
             in ("scipy", "multiprocessing", "concurrent")))
sys.path.insert(0, {tests!r})
from refnets import mm1k_net
from hlfspn.spn import ExpectedTokens
print(solve_ctmc(mm1k_net(3.0, 4.0, 5), [ExpectedTokens("Q")]).n_states)
print("scipy" in sys.modules)
"""


def test_simulation_path_does_not_import_scipy():
    # nor the process pool that only a parallel sweep uses
    code = _SIMULATE_WITHOUT_SCIPY.format(tests=str(Path(__file__).parent))
    src = str(Path(engine.__file__).resolve().parents[2])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split("\n")[:3] == ["[]", "6", "True"]
