"""Exact CTMC solver against closed forms and the simulator."""

from dataclasses import replace
from functools import partial, reduce
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.sparse import linalg

from hlfspn import hlf
from hlfspn.experiments import parse_experiment
from hlfspn.metrics import metric_report, standard_queries
from hlfspn.spn import (
    And,
    Arc,
    Atom,
    ContractViolationError,
    Deterministic,
    ExpectedTokens,
    ExplosionError,
    Exponential,
    FiringRate,
    Immediate,
    LivelockError,
    Not,
    NumericalSolveError,
    Or,
    PetriNet,
    Place,
    ProbabilityOf,
    ServerSemantics,
    SimConfig,
    SingularGeneratorError,
    Transition,
    UnsupportedModelError,
    simulate_stationary,
    solve_ctmc,
)

from hlfspn.spn import ctmc, engine
from hlfspn.spn.ctmc import _resolve_vanishing
from hlfspn.spn.engine import compile_net

from queueing import mm1k, mmck
from refnets import (branch_net, flush_net, mm1k_net, mmck_net, priority_net,
                     tandem_net)
from test_cli import SOLVE_SPEC
from test_hlf import littles_law_pairs


@pytest.fixture
def chains(monkeypatch):
    """An empty chain cache of the test's own, so that the first solve of
    each structure generates its chain whatever ran before."""
    cache = {}
    monkeypatch.setattr(ctmc, "_chains", cache)
    return cache


class TestClosedForms:
    def test_two_state_on_off(self):
        # P(on) = (1/mean_off) / (1/mean_off + 1/mean_on)
        net = PetriNet(
            places=(Place("ON", 1), Place("OFF", 0)),
            transitions=(
                Transition("FAIL", Exponential(2.0), input_arcs=(Arc("ON"),),
                           output_arcs=(Arc("OFF"),)),
                Transition("REPAIR", Exponential(0.5),
                           input_arcs=(Arc("OFF"),),
                           output_arcs=(Arc("ON"),)),
            ))
        q = ProbabilityOf(Atom("ON", "=", 1))
        res = solve_ctmc(net, [q])
        assert res.n_states == 2
        assert res.value(q) == pytest.approx(0.8)

    def test_mm1_3_geometric_distribution(self):
        lam, mu, K = 3.0, 4.0, 3
        oracle = mm1k(lam, mu, K)
        net = mm1k_net(lam, mu, K)
        queries = [ProbabilityOf(Atom("Q", "=", n))
                   for n in range(K + 1)]
        res = solve_ctmc(net, queries)
        assert res.n_states == K + 1
        for n, q in enumerate(queries):
            assert res.value(q) == pytest.approx(oracle.pi[n])
        # sanity: the stationary distribution is geometric in rho
        rho = lam / mu
        assert res.value(queries[2]) / res.value(queries[1]) == \
            pytest.approx(rho)

    def test_mmck_quantities(self):
        lam, mu, c, K = 6.0, 2.0, 3, 7
        oracle = mmck(lam, mu, c, K)
        net = mmck_net(lam, mu, c, K)
        q_q = ExpectedTokens("Q")
        q_s = ExpectedTokens("S")
        q_block = ProbabilityOf(Atom("ROOM", "=", 0))
        q_rate = FiringRate("SERVE")
        res = solve_ctmc(net, [q_q, q_s, q_block, q_rate])
        assert res.value(q_q) + res.value(q_s) == pytest.approx(
            oracle.mean_in_system)
        assert res.value(q_block) == pytest.approx(oracle.blocking_prob)
        assert res.value(q_rate) == pytest.approx(oracle.effective_rate)
        assert res.value(q_s) / c == pytest.approx(oracle.utilization)

    def test_immediate_branching_probabilities(self):
        # arrivals split 1:3 between two drains; in light traffic the
        # immediate firing rates are exactly the weighted split of lambda
        net = branch_net()
        q_a = FiringRate("TO_A")
        q_b = FiringRate("TO_B")
        arrival_rate = 1.0 / 0.4
        res = solve_ctmc(net, [q_a, q_b])
        total = res.value(q_a) + res.value(q_b)
        assert total <= arrival_rate + 1e-9
        # conditional split given neither queue is full stays close to 1:3
        assert res.value(q_b) / res.value(q_a) == pytest.approx(3.0, rel=0.15)

    def test_flushed_rewards_conserve_flow(self):
        net = flush_net()
        q_feed = FiringRate("FEED")
        q_drain = FiringRate("DRAIN")
        res = solve_ctmc(net, [q_feed, q_drain])
        # every fed token is eventually cut into OUT and drained
        assert res.value(q_feed) == pytest.approx(res.value(q_drain))


class TestLimits:
    def test_deterministic_transition_rejected(self):
        net = PetriNet(
            places=(Place("A", 1),),
            transitions=(Transition("T", Deterministic(1.0),
                                    input_arcs=(Arc("A"),)),))
        with pytest.raises(UnsupportedModelError):
            solve_ctmc(net, [])

    def test_state_space_cap(self):
        net = mm1k_net(3.0, 4.0, 50)
        with pytest.raises(ExplosionError):
            solve_ctmc(net, [], max_states=10)

    @pytest.mark.parametrize("query,cached", [
        pytest.param(query, cached, id=name + ("-hit" if cached else ""))
        for cached in (False, True)
        for name, query in {"tokens": ExpectedTokens("NOPE"),
                            "rate": FiringRate("NOPE"),
                            "probability": ProbabilityOf(Atom("NOPE", "=", 0)),
                            "not-a-query": "Q"}.items()])
    def test_queries_are_checked_before_the_chain_is_generated(
            self, monkeypatch, chains, query, cached):
        # on a hit the check runs on the cached chain's compiled net, and
        # a failed check leaves that chain cached
        net = mm1k_net(3.0, 4.0, 3)
        if cached:
            solve_ctmc(net, [])

        def reached(*args, **kwargs):
            raise AssertionError("the chain was generated or solved")

        monkeypatch.setattr(ctmc, "_resolve_vanishing", reached)
        monkeypatch.setattr(ctmc, "_stationary", reached)
        error = TypeError if query == "Q" else ContractViolationError
        with pytest.raises(error):
            solve_ctmc(net, [query])
        assert len(chains) == int(cached)

    def test_vanishing_initial_marking_is_resolved(self):
        net = PetriNet(
            places=(Place("A", 1), Place("B", 0)),
            transitions=(
                Transition("MOVE", Immediate(), input_arcs=(Arc("A"),),
                           output_arcs=(Arc("B"),)),
                Transition("CYCLE", Exponential(1.0),
                           input_arcs=(Arc("B"),), output_arcs=(Arc("A"),)),
            ))
        q = ProbabilityOf(Atom("B", "=", 1))
        res = solve_ctmc(net, [q])
        # A is vanishing, so the chain has the single tangible state B=1
        assert res.n_states == 1
        assert res.value(q) == pytest.approx(1.0)


    def test_single_state_without_timed_firings(self):
        net = PetriNet(
            places=(Place("A", 1), Place("B", 0)),
            transitions=(Transition("T", Exponential(1.0),
                                    input_arcs=(Arc("B"),)),))
        q_a = ExpectedTokens("A")
        q_t = FiringRate("T")
        res = solve_ctmc(net, [q_a, q_t])
        assert res.n_states == 1
        assert res.value(q_a) == 1.0
        assert res.value(q_t) == 0.0

    def test_more_than_one_closed_class_is_rejected(self):
        # the token ends in X or in Y, split 1:3, and stays there: two
        # absorbing states, so no unique stationary distribution exists
        net = PetriNet(
            places=(Place("C", 1), Place("X", 0), Place("Y", 0)),
            transitions=(
                Transition("TO_X", Immediate(weight=1.0),
                           input_arcs=(Arc("C"),), output_arcs=(Arc("X"),)),
                Transition("TO_Y", Immediate(weight=3.0),
                           input_arcs=(Arc("C"),), output_arcs=(Arc("Y"),)),
            ))
        with pytest.raises(SingularGeneratorError) as info:
            solve_ctmc(net, [ProbabilityOf(Atom("X", "=", 1))])
        assert "more than one closed class" in str(info.value)

    def test_one_closed_class_that_fails_numerically_names_its_rates(
            self, monkeypatch):
        # every capacity 1 and arrivals at 1e300 tps: one closed class of
        # 144 states, whose rates span 0.1 to 1e300
        cfg = hlf.HlfConfig(
            n_endorsers=1, n_committers=1, eq=1, oq=1, cq=1, ep=1, op=1,
            cp=1, arrival_dist="exponential", timeout_dist="exponential"
        ).with_arrival_rate(1e300)
        got = []
        real = ctmc._stationary
        monkeypatch.setattr(ctmc, "_stationary",
                            lambda *args: got.append(args) or real(*args))
        with pytest.raises(NumericalSolveError) as info:
            solve_ctmc(hlf.build_hlf_net(cfg).net, [])
        n, rows, cols, rates = got[0][:4]
        assert n == 144
        assert ctmc._closed_classes(n, rows, cols, rates) == 1
        assert (info.value.low, info.value.high) == \
            pytest.approx((0.1, 1e300), rel=1e-12)
        assert "more than one closed class" not in str(info.value)
        assert "rates span 0.1 to 1e+300" in str(info.value)


class TestAgreementWithSimulator:
    def test_tandem_estimates_cover_exact_values(self):
        net = tandem_net()
        queries = [ExpectedTokens("Q1"), ExpectedTokens("Q2"),
                   ProbabilityOf(Atom("R1", "=", 0)),
                   FiringRate("S2")]
        exact = solve_ctmc(net, queries)
        sim = simulate_stationary(net, queries, SimConfig(
            warmup_time=200.0, batch_count=20, batch_length=300.0, seed=11))
        for q in queries:
            assert abs(sim.value(q) - exact.value(q)) <= \
                max(3 * sim.halfwidth(q), 0.02 * abs(exact.value(q)) + 1e-4)


def fork_join_net(k: int) -> PetriNet:
    """FORK (mean 1) puts a token in each of P0..P{k-1}; immediate Ii moves
    it to Qi; JOIN (mean 2) takes one from every Qi back to S. The k
    immediates are independent, so they fire in any of k! orders."""
    return PetriNet(
        places=(Place("S", 1),) + tuple(Place(f"P{i}", 0) for i in range(k))
        + tuple(Place(f"Q{i}", 0) for i in range(k)),
        transitions=(
            Transition("FORK", Exponential(1.0), input_arcs=(Arc("S"),),
                       output_arcs=tuple(Arc(f"P{i}") for i in range(k))),
            Transition("JOIN", Exponential(2.0),
                       input_arcs=tuple(Arc(f"Q{i}") for i in range(k)),
                       output_arcs=(Arc("S"),)),
        ) + tuple(Transition(f"I{i}", Immediate(),
                             input_arcs=(Arc(f"P{i}"),),
                             output_arcs=(Arc(f"Q{i}"),))
                  for i in range(k)))


class TestVanishingResolution:
    def test_independent_immediates_are_not_a_livelock(self):
        # 10! firing orders, but only 2^10 vanishing markings and no loop
        q_s = ProbabilityOf(Atom("S", "=", 1))
        q_i0 = FiringRate("I0")
        res = solve_ctmc(fork_join_net(10), [q_s, q_i0])
        assert res.n_states == 2
        assert res.value(q_s) == pytest.approx(1 / 3, rel=0, abs=1e-12)
        assert res.value(q_i0) == pytest.approx(1 / 3, rel=0, abs=1e-12)

    def test_vanishing_loop_names_every_transition_on_it(self):
        net = PetriNet(
            places=(Place("S", 1), Place("A", 0), Place("B", 0)),
            transitions=(
                Transition("GO", Exponential(1.0), input_arcs=(Arc("S"),),
                           output_arcs=(Arc("A"),)),
                Transition("AB", Immediate(), input_arcs=(Arc("A"),),
                           output_arcs=(Arc("B"),)),
                Transition("BA", Immediate(), input_arcs=(Arc("B"),),
                           output_arcs=(Arc("A"),)),
            ))
        with pytest.raises(LivelockError) as info:
            solve_ctmc(net, [])
        assert set(info.value.transitions) == {"AB", "BA"}

    @pytest.mark.parametrize("moves,loop", [
        ((("BC", "B", "C"), ("CB", "C", "B")), ["BC", "CB"]),
        ((("BA", "B", "A"), ("BD", "B", "D")), ["AB", "BA"]),
    ], ids=["within-prefix", "search-into-prefix"])
    def test_loop_from_a_one_member_prefix_names_only_the_loop(
            self, chains, moves, loop):
        # GO's token goes A -> B alone, a one-member prefix. Then either
        # B -> C -> B, one-member steps back into the prefix's last marking,
        # or a real choice at B whose branch BA leads back to A, the
        # prefix's first marking
        net = PetriNet(
            places=(Place("S", 1), Place("A", 0), Place("B", 0),
                    Place("C", 0), Place("D", 0)),
            transitions=(
                Transition("GO", Exponential(1.0), input_arcs=(Arc("S"),),
                           output_arcs=(Arc("A"),)),
                Transition("AB", Immediate(), input_arcs=(Arc("A"),),
                           output_arcs=(Arc("B"),)),
            ) + tuple(Transition(name, Immediate(), input_arcs=(Arc(src),),
                                 output_arcs=(Arc(dst),))
                      for name, src, dst in moves))
        cn = compile_net(net)
        with pytest.raises(LivelockError) as info:
            _resolve_vanishing(cn, [0, 1, 0, 0, 0])
        assert sorted(info.value.transitions) == loop
        with pytest.raises(LivelockError) as info:
            solve_ctmc(net, [])
        assert sorted(info.value.transitions) == loop

    def test_a_long_one_member_drain_keeps_no_frames(self):
        # 20,000 DRAIN firings in a row, each a new vanishing marking. The
        # search kept a frame and a memo entry per marking: 14.6 MB peak;
        # the prefix loop keeps one entry per marking for its loop check,
        # 3.7 MB (CPython 3.11)
        n = 20_000
        cn = compile_net(PetriNet(
            places=(Place("A", n), Place("B", 0)),
            transitions=(
                Transition("DRAIN", Immediate(), input_arcs=(Arc("A"),),
                           output_arcs=(Arc("B"),)),
                Transition("BACK", Exponential(1.0), input_arcs=(Arc("B"),),
                           output_arcs=(Arc("A"),)),
            )))
        m0 = list(cn.initial)
        tracemalloc.start()
        try:
            dist, counts = _resolve_vanishing(cn, m0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist == {(0, n): 1.0}
        assert counts == {0: float(n)}
        assert m0 == [n, 0]
        assert peak < 6e6

    def test_unbounded_vanishing_growth_is_capped(self, monkeypatch,
                                                  chains):
        # GROW keeps A and adds a token to B: every marking is new
        monkeypatch.setattr(engine, "_MAX_VANISHING", 1000)
        net = PetriNet(
            places=(Place("S", 1), Place("A", 0), Place("B", 0)),
            transitions=(
                Transition("GO", Exponential(1.0), input_arcs=(Arc("S"),),
                           output_arcs=(Arc("A"),)),
                Transition("GROW", Immediate(), input_arcs=(Arc("A"),),
                           output_arcs=(Arc("A"), Arc("B"))),
            ))
        with pytest.raises(LivelockError) as info:
            solve_ctmc(net, [])
        assert info.value.transitions == ["GROW"]


def naive_resolve(cn, m0: list[int], max_steps: int = 10 ** 6):
    """Reference resolver: every firing path through the immediates, as
    (tangible marking, probability, immediate firing counts) triples."""
    outcomes = []
    stack = [(m0, 1.0, {})]
    steps = 0
    while stack:
        m, pr, counts = stack.pop()
        cands = cn.top_all(m)
        if not cands:
            outcomes.append((tuple(m), pr, counts))
            continue
        total_w = sum(cn.weights[tid] for tid in cands)
        for tid in cands:
            m2 = list(m)
            cn.fires[tid](m2)
            c2 = dict(counts)
            c2[tid] = c2.get(tid, 0.0) + 1.0
            stack.append((m2, pr * cn.weights[tid] / total_w, c2))
        steps += len(cands)
        if steps > max_steps:
            raise LivelockError([cn.trans[tid].name for tid in cands])
    return outcomes


def naive_merged(cn, m0: list[int]) -> tuple[dict, dict]:
    dist: dict = {}
    counts: dict = {}
    for mt, pr, c in naive_resolve(cn, m0):
        dist[mt] = dist.get(mt, 0.0) + pr
        for tid, n in c.items():
            counts[tid] = counts.get(tid, 0.0) + pr * n
    return dist, counts


def small_hlf_net(block_size: int) -> PetriNet:
    cfg = hlf.HlfConfig(
        n_endorsers=1, n_committers=1, block_size=block_size, timeout_s=0.5,
        eq=2, oq=2, cq=2, ep=2, op=2, cp=2, arrival_dist="exponential",
        timeout_dist="exponential").with_arrival_rate(20.0)
    return hlf.build_hlf_net(cfg).net


def assert_close(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for k, v in want.items():
        assert got[k] == pytest.approx(v, rel=0, abs=1e-12)


def prefix_choice_net() -> PetriNet:
    """GO puts two tokens in A; DRAIN (priority 2) moves them to B one at a
    time, a one-member prefix; then X or Y (weights 1 : 3) take each token
    on, so the branches re-converge on the same markings. REFILL returns
    the first token Y takes to A, so DRAIN fires inside the search too; R
    and U record whether it has. Each token then waits in E until a RESET
    takes both back to S."""
    def imm(name, ins, outs, **kind):
        return Transition(name, Immediate(**kind), input_arcs=ins,
                          output_arcs=outs)

    def timed(name, mean, ins, outs):
        return Transition(name, Exponential(mean), input_arcs=ins,
                          output_arcs=outs)

    return PetriNet(
        places=(Place("S", 1), Place("A", 0), Place("B", 0), Place("C", 0),
                Place("D", 0), Place("E", 0), Place("R", 1), Place("U", 0)),
        transitions=(
            timed("GO", 1.0, (Arc("S"),), (Arc("A", 2),)),
            imm("DRAIN", (Arc("A"),), (Arc("B"),), priority=2),
            imm("REFILL", (Arc("D"), Arc("R")), (Arc("A"), Arc("U")),
                priority=2),
            imm("X", (Arc("B"),), (Arc("C"),), weight=1.0),
            imm("Y", (Arc("B"),), (Arc("D"),), weight=3.0),
            timed("C_DONE", 2.0, (Arc("C"),), (Arc("E"),)),
            timed("D_DONE", 3.0, (Arc("D"),), (Arc("E"),)),
            timed("RESET_USED", 1.0, (Arc("E", 2), Arc("U")),
                  (Arc("S"), Arc("R"))),
            timed("RESET_UNUSED", 1.0, (Arc("E", 2), Arc("R")),
                  (Arc("S"), Arc("R"))),
        ))


@pytest.mark.parametrize("make", [
    lambda: mm1k_net(3.0, 4.0, 3),
    lambda: mmck_net(6.0, 2.0, 3, 7),
    tandem_net,
    branch_net,
    flush_net,
    priority_net,
    prefix_choice_net,
    lambda: small_hlf_net(2),
    lambda: small_hlf_net(3),
], ids=["mm1k", "mmck", "tandem", "branch", "flush", "priority",
        "prefix-choice", "hlf-block2", "hlf-block3"])
def test_resolution_matches_path_enumeration(make):
    """From every tangible state, after every timed firing, the resolver
    gives the merged distribution and expected immediate counts of the
    enumeration of every firing path."""
    cn = compile_net(make())
    dist, counts = _resolve_vanishing(cn, list(cn.initial))
    want_dist, want_counts = naive_merged(cn, list(cn.initial))
    assert_close(dist, want_dist)
    assert_close(counts, want_counts)
    seen = set(dist)
    frontier = list(dist)
    firings = 0
    while frontier:
        m = frontier.pop()
        for tid in cn.timed:
            if not cn.degrees[tid](m):
                continue
            m2 = list(m)
            cn.fires[tid](m2)
            dist, counts = _resolve_vanishing(cn, list(m2),
                                              cn.top_after[tid])
            want_dist, want_counts = naive_merged(cn, m2)
            assert_close(dist, want_dist)
            assert_close(counts, want_counts)
            firings += 1
            for mt in dist:
                if mt not in seen:
                    seen.add(mt)
                    frontier.append(mt)
    assert firings >= len(seen)


def benchmark_small_hlf_config() -> hlf.HlfConfig:
    """The 1,200-state HLF net of the benchmark's small CTMC point."""
    return hlf.HlfConfig(
        n_endorsers=1, n_committers=1, block_size=2, timeout_s=0.5,
        eq=2, oq=2, cq=3, ep=2, op=2, cp=2, arrival_dist="exponential",
        timeout_dist="exponential").with_arrival_rate(20.0)


def benchmark_small_hlf_net() -> PetriNet:
    return hlf.build_hlf_net(benchmark_small_hlf_config()).net


def benchmark_large_hlf_net() -> PetriNet:
    """The 5,768-state HLF net of the benchmark's large CTMC point."""
    return hlf.build_hlf_net(replace(benchmark_small_hlf_config(), eq=4,
                                     oq=4, cq=5, op=3)).net


@pytest.mark.parametrize("cfg,states", [
    (parse_experiment(SOLVE_SPEC).base, 368),
    (benchmark_small_hlf_config(), 1200),
], ids=["solve-spec", "hlf-1200"])
def test_discard_fraction_is_all_full_probability_under_poisson_arrivals(
        cfg, states):
    # Poisson arrivals see time averages (Wolff, Oper. Res. 1982), so the
    # fraction of arrivals discarded equals the time-average probability
    # that every entry queue is full (its capacity place empty)
    handle = hlf.build_hlf_net(cfg)
    all_full = ProbabilityOf(reduce(And, (
        Atom(f"EQ_{i}", "=", 0)
        for i in range(1, cfg.n_endorsers + 1))))
    res = solve_ctmc(handle.net, [*standard_queries(handle), all_full])
    assert res.n_states == states
    dp = metric_report(res, handle).dp_prob
    assert dp.value == pytest.approx(res.value(all_full), rel=1e-10)
    assert dp.value > 1e-4
    assert dp.ci == 0.0


@pytest.mark.parametrize("cfg", [
    parse_experiment(SOLVE_SPEC).base,
    benchmark_small_hlf_config(),
], ids=["solve-spec", "hlf-1200"])
def test_rate_and_impulse_rewards_agree_by_littles_law(cfg):
    # rate rewards come from the chain's marking matrix, impulse rewards
    # from the firing-rate triplets; in the stationary chain each pair is
    # equal
    handle = hlf.build_hlf_net(cfg)
    pairs = littles_law_pairs(handle)
    res = solve_ctmc(handle.net, [q for pair in pairs for q in pair[:2]])
    for rate, tokens, mean in pairs:
        assert res.value(rate) > 0.1
        assert res.value(rate) == pytest.approx(res.value(tokens) / mean,
                                                rel=1e-10)


def test_compound_predicates_sum_pi_over_the_markings_where_they_hold(
        monkeypatch, chains):
    # a probability is pi times the predicate's 0/1 value on each tangible
    # marking; it must equal the per-state sum of the scalar reward
    # function, compound predicates and place-to-place atoms included
    queries = [
        ProbabilityOf(And(Atom("Q1", ">", 0),
                          Or(Atom("Q2", "<", 2), Not(Atom("R1", "=", 1))))),
        ProbabilityOf(Atom("Q1", ">=", "Q2")),
        ProbabilityOf(Or(Atom("Q1", "=", "R2"),
                         Not(And(Atom("Q2", ">=", 1),
                                 Atom("R1", "<=", "Q2"))))),
        ProbabilityOf(Not(Atom("Q2", "!=", "R1"))),
        ExpectedTokens("Q2"),
    ]
    net = tandem_net()
    solved = []
    real = ctmc._stationary
    monkeypatch.setattr(ctmc, "_stationary",
                        lambda *a: solved.append(real(*a)) or solved[-1])
    res = solve_ctmc(net, queries)
    (ch,), (pi,) = chains.values(), solved
    cn = compile_net(net)
    reward = cn.rewards(cn.reward_plan(queries)[0])
    want = [sum(p * v[k] for p, v in zip(pi.tolist(),
                                         map(reward, ch.marks.tolist())))
            for k in range(len(queries))]
    assert len(ch.marks) == res.n_states > 10
    assert 0 < min(want[:4]) and max(want[:4]) < 1
    for q, w in zip(queries, want):
        assert abs(res.value(q) - w) <= 1e-14


def generator_triplets(net: PetriNet) -> tuple:
    """The (n, rows, cols, rates, pattern) that solve_ctmc hands to
    _stationary."""
    got = []
    real = ctmc._stationary

    def spy(*args):
        got.append(args)
        return real(*args)

    ctmc._stationary = spy
    try:
        solve_ctmc(net, [])
    finally:
        ctmc._stationary = real
    return got[0]


def dense_stationary(n, rows, cols, rates) -> np.ndarray:
    """Reference: numpy.linalg.solve of Q^T with its last row replaced by
    ones, right-hand side e_n, assembled densely."""
    q = np.zeros((n, n))
    np.add.at(q, (np.asarray(rows), np.asarray(cols)), rates)
    q[np.diag_indices(n)] -= np.bincount(rows, weights=rates, minlength=n)
    a = q.T.copy()
    a[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def assert_same_distribution(got, want, rel: float) -> None:
    assert np.abs(got - want).max() <= rel * want.max()


def record_preconditioners(monkeypatch, calls: list) -> None:
    """Append to calls the name of each preconditioner that is built."""
    for name in ("_symmetric_gauss_seidel", "_complete_lu"):
        real = getattr(ctmc, name)
        monkeypatch.setattr(ctmc, name, lambda *args, name=name, real=real: (
            calls.append(name) or real(*args)))


# M/M/1/100 with equal rates: its first-tier GMRES takes more than
# _RESTART Krylov steps, so it runs the restart
restarting_net = partial(mm1k_net, 4.0, 4.0, 100)

# the refnets nets, the benchmark's 1,200-state HLF net, M/M/1/50 in a
# finer time unit (convergence judged by the backward error) and a net
# whose solve restarts
solved_nets = pytest.mark.parametrize("make", [
    lambda: mm1k_net(3.0, 4.0, 3),
    lambda: mmck_net(6.0, 2.0, 3, 7),
    tandem_net,
    branch_net,
    flush_net,
    priority_net,
    benchmark_small_hlf_net,
    lambda: mm1k_net(3e3, 4e3, 50),
    restarting_net,
], ids=["mm1k", "mmck", "tandem", "branch", "flush", "priority", "hlf-1200",
        "mm1k-50-x1e3", "mm1k-100-restart"])


def coo_assembled(n, rows, cols, rates):
    """A assembled by scipy from COO triplets, the reference the chain's
    pattern must reproduce: Q^T with row 0 replaced by ones, its
    duplicates summed."""
    from scipy import sparse
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    rates = np.asarray(rates, dtype=float)
    diag = -np.bincount(rows, weights=rates, minlength=n)
    states = np.arange(n)
    # Q^T holds rate (i -> j) at (j, i); row 0 is dropped for the ones
    keep = cols != 0
    a_rows = np.concatenate([cols[keep], states[1:], np.zeros(n, np.int64)])
    a_cols = np.concatenate([rows[keep], states[1:], states])
    a_vals = np.concatenate([rates[keep], diag[1:], np.ones(n)])
    return sparse.csc_matrix((a_vals, (a_rows, a_cols)), shape=(n, n))


@pytest.mark.parametrize("make", [*solved_nets.args[1],
                                  benchmark_large_hlf_net],
                         ids=[*solved_nets.kwargs["ids"], "hlf-5768"])
def test_pattern_assembles_the_coo_matrix(monkeypatch, make):
    # the chain's pattern sums each solve's values, duplicate pairs and a
    # self-loop's rate with its diagonal included, into the same matrix,
    # entry for entry and bit for bit, as the COO assembly did
    triplets = generator_triplets(make())
    matrices = []
    real_gmres = ctmc._gmres
    monkeypatch.setattr(ctmc, "_gmres", lambda A, b, precondition: (
        matrices.append(A) or real_gmres(A, b, precondition)))
    ctmc._stationary(*triplets)
    got, want = matrices[0], coo_assembled(*triplets[:4])
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    for j in range(0, got.shape[1], 512):  # dense, a block of columns at once
        assert (got[:, j:j + 512].toarray() == want[:, j:j + 512].toarray()
                ).all()


@pytest.mark.filterwarnings("error")
class TestStationarySolve:
    @solved_nets
    def test_matches_dense_solve(self, make):
        triplets = generator_triplets(make())
        assert_same_distribution(ctmc._stationary(*triplets),
                                 dense_stationary(*triplets[:4]), 1e-10)

    def test_complete_lu_when_a_triangle_is_singular(self, monkeypatch):
        triplets = generator_triplets(benchmark_small_hlf_net())
        want = ctmc._stationary(*triplets)
        real_splu = linalg.splu
        calls = []

        def splu(A, **kwargs):
            # the symmetric Gauss-Seidel triangles are factored in natural
            # order, the complete LU in SuperLU's default order
            if kwargs.get("permc_spec") == "NATURAL":
                calls.append("triangle")
                raise RuntimeError("Factor is exactly singular")
            calls.append("complete")
            return real_splu(A, **kwargs)

        monkeypatch.setattr(linalg, "splu", splu)
        assert_same_distribution(ctmc._stationary(*triplets), want, 1e-12)
        assert calls == ["triangle", "complete"]

    def test_complete_lu_when_gmres_does_not_converge(self, monkeypatch):
        triplets = generator_triplets(benchmark_small_hlf_net())
        want = ctmc._stationary(*triplets)
        real_gmres = ctmc._gmres
        calls = []

        def gmres(A, b, precondition):
            with monkeypatch.context() as first:
                if "gmres" not in calls:  # Gauss-Seidel: one Krylov step
                    first.setattr(ctmc, "_RESTART", 1)
                    first.setattr(ctmc, "_MAX_RESTARTS", 1)
                x = real_gmres(A, b, precondition)
            calls.append("gmres")  # after the preconditioner it built
            return x

        record_preconditioners(monkeypatch, calls)
        monkeypatch.setattr(ctmc, "_gmres", gmres)
        assert_same_distribution(ctmc._stationary(*triplets), want, 1e-12)
        assert calls == ["_symmetric_gauss_seidel", "gmres", "_complete_lu",
                         "gmres"]

    @solved_nets
    def test_first_tier_solves_without_fallback(self, monkeypatch, make):
        # a broken preconditioner would otherwise show only as a slow solve
        triplets = generator_triplets(make())
        real_gmres = ctmc._gmres
        calls = []

        def gmres(A, b, precondition):
            calls.append("gmres")
            return real_gmres(A, b, precondition)

        def complete_lu(A):
            raise AssertionError("fell back to the complete LU")

        monkeypatch.setattr(ctmc, "_gmres", gmres)
        monkeypatch.setattr(ctmc, "_complete_lu", complete_lu)
        ctmc._stationary(*triplets)
        assert calls == ["gmres"]

    @solved_nets
    def test_preconditioner_is_symmetric_gauss_seidel(self, monkeypatch,
                                                      make):
        # GMRES converges under a mis-sliced M too, only more slowly, so
        # the dense-pi tests cannot catch a slicing error: the triangles the
        # pattern takes from A must be A's own, taken densely, the upper one
        # holding row 0's ones and both the diagonal, and one application
        # must be (D + U)^-1 D (D + L)^-1 r
        triplets = generator_triplets(make())
        splits = []
        real = ctmc._symmetric_gauss_seidel
        monkeypatch.setattr(ctmc, "_symmetric_gauss_seidel", lambda *args: (
            splits.append(args) or real(*args)))
        ctmc._stationary(*triplets)
        A, lower, upper = splits[0]
        dense = A.toarray()
        assert (dense[0] == 1.0).all()
        assert (lower.toarray() == np.tril(dense)).all()
        assert (upper.toarray() == np.triu(dense)).all()
        r = np.random.default_rng(2700).random(A.shape[0])
        forward = solve_triangular(np.tril(dense), r, lower=True)
        want = solve_triangular(np.triu(dense), np.diag(dense) * forward)
        got = real(A, lower, upper)(r)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("lam,mu,K", [(3.9, 4.0, 200), (4.0, 4.0, 300)])
    def test_long_birth_death_chains_fall_back_to_the_complete_lu(
            self, monkeypatch, lam, mu, K):
        # a chain whose state graph is one long path defeats the
        # Gauss-Seidel sweeps within _MAX_RESTARTS cycles; the complete LU
        # carries it. A preconditioner that carries these chains changes
        # the calls seen here
        calls = []
        record_preconditioners(monkeypatch, calls)
        oracle = mm1k(lam, mu, K)
        queries = [ProbabilityOf(Atom("Q", "=", n)) for n in range(K + 1)]
        res = solve_ctmc(mm1k_net(lam, mu, K), queries)
        got = np.array([res.value(q) for q in queries])
        assert_same_distribution(got, np.array(oracle.pi), 1e-10)
        assert calls == ["_symmetric_gauss_seidel", "_complete_lu"]

    def test_the_restarting_net_restarts(self, monkeypatch):
        # one preconditioner application per Krylov step and one per cycle
        real = ctmc._symmetric_gauss_seidel
        applied = []

        def counted(*args):
            solve = real(*args)
            return lambda r: applied.append(1) or solve(r)

        monkeypatch.setattr(ctmc, "_symmetric_gauss_seidel", counted)
        ctmc._stationary(*generator_triplets(restarting_net()))
        assert len(applied) > ctmc._RESTART + 1

    def test_zero_diagonal_before_the_last_row(self):
        # X is absorbing and is the second state found, so A = Q^T (row 0:
        # ones) has a zero diagonal entry in row 1: a singular lower
        # triangle, which the complete LU replaces
        net = PetriNet(
            places=(Place("S", 1), Place("X", 0), Place("Y", 0)),
            transitions=(
                Transition("TO_X", Exponential(1.0), input_arcs=(Arc("S"),),
                           output_arcs=(Arc("X"),)),
                Transition("TO_Y", Exponential(0.5), input_arcs=(Arc("S"),),
                           output_arcs=(Arc("Y"),)),
                Transition("Y_X", Exponential(2.0), input_arcs=(Arc("Y"),),
                           output_arcs=(Arc("X"),)),
            ))
        n, rows, cols, rates = generator_triplets(net)[:4]
        assert n == 3
        assert not np.isin(1, rows)  # X, state 1, has no outgoing rate
        queries = [ExpectedTokens("X"), ExpectedTokens("Y"), FiringRate("Y_X")]
        res = solve_ctmc(net, queries)
        assert [res.value(q) for q in queries] == \
            pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_rates_in_a_finer_time_unit(self, scale):
        # the same M/M/1/50 queue with its rates scaled up, as when times
        # are given in ms or us: rounding then keeps |b - A pi| far above
        # 1e-14, so convergence is judged by the normwise backward error
        lam, mu, K = 3.0 * scale, 4.0 * scale, 50
        oracle = mm1k(lam, mu, K)
        queries = [ProbabilityOf(Atom("Q", "=", n))
                   for n in range(K + 1)]
        res = solve_ctmc(mm1k_net(lam, mu, K), queries)
        got = np.array([res.value(q) for q in queries])
        assert_same_distribution(got, np.array(oracle.pi), 1e-12)

    def test_more_than_one_closed_class_warns_nothing(self):
        net = PetriNet(
            places=(Place("C", 1), Place("X", 0), Place("Y", 0)),
            transitions=(
                Transition("TO_X", Immediate(weight=1.0),
                           input_arcs=(Arc("C"),), output_arcs=(Arc("X"),)),
                Transition("TO_Y", Immediate(weight=3.0),
                           input_arcs=(Arc("C"),), output_arcs=(Arc("Y"),)),
            ))
        with pytest.raises(SingularGeneratorError):
            solve_ctmc(net, [])


def solve_cold(net: PetriNet, queries, chains, **kwargs):
    """solve_ctmc with the chain cache emptied first."""
    chains.clear()
    return solve_ctmc(net, queries, **kwargs)


def hlf_1200(lam: float = 20.0, **changes) -> tuple:
    """The benchmark's 1,200-state HLF net at rate lam, with changes to its
    configuration, and its standard queries."""
    handle = hlf.build_hlf_net(replace(benchmark_small_hlf_config(),
                                       **changes).with_arrival_rate(lam))
    return handle.net, standard_queries(handle)


def with_transition(net: PetriNet, name: str, **changes) -> PetriNet:
    return replace(net, transitions=tuple(
        replace(t, **changes) if t.name == name else t
        for t in net.transitions))


class TestChainCache:
    def test_hit_at_another_rate_equals_a_cold_solve(self, monkeypatch,
                                                     chains):
        solve_ctmc(*hlf_1200(20.0))
        net, queries = hlf_1200(21.0)
        args = []
        real = ctmc._stationary
        monkeypatch.setattr(ctmc, "_stationary",
                            lambda *a: args.append(a) or real(*a))
        hit = solve_ctmc(net, queries)
        assert len(chains) == 1
        cold = solve_cold(net, queries, chains)
        assert hit == cold
        (n, *triplets), (n_cold, *triplets_cold) = (a[:4] for a in args)
        assert n == n_cold == 1200
        for got, want in zip(triplets, triplets_cold):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("base,changed", [
        (hlf_1200, lambda: hlf_1200(block_size=3)),
        (hlf_1200, lambda: hlf_1200(cq=2)),
        (lambda: (branch_net(), [FiringRate("TO_A"), FiringRate("TO_B")]),
         lambda: (with_transition(branch_net(), "TO_B",
                                  kind=Immediate(weight=2.0)),
                  [FiringRate("TO_A"), FiringRate("TO_B")])),
        (lambda: (mmck_net(6.0, 2.0, 3, 7), [FiringRate("SERVE")]),
         lambda: (with_transition(mmck_net(6.0, 2.0, 3, 7), "SERVE",
                                  server_semantics=ServerSemantics.SINGLE),
                  [FiringRate("SERVE")])),
        (lambda: (priority_net(), [FiringRate("SPILL")]),
         lambda: (with_transition(priority_net(), "SPILL",
                                  kind=Immediate(priority=2)),
                  [FiringRate("SPILL")])),
        (lambda: (flush_net(), [FiringRate("CUT")]),
         lambda: (with_transition(flush_net(), "CUT",
                                  guard=And(Atom("ACC", ">=", 2),
                                            Atom("OUT", "<=", 4))),
                  [FiringRate("CUT")])),
    ], ids=["block-size", "capacity", "immediate-weight", "server-semantics",
            "immediate-priority", "guard"])
    def test_structural_change_misses(self, chains, base, changed):
        net, queries = changed()
        before = solve_ctmc(*base())
        got = solve_ctmc(net, queries)
        assert len(chains) == 2
        assert got == solve_cold(net, queries, chains)
        assert got != before

    def test_deterministic_twin_of_a_cached_net_is_rejected(self, chains):
        net = mm1k_net(3.0, 4.0, 3)
        solve_ctmc(net, [])
        with pytest.raises(UnsupportedModelError):
            solve_ctmc(with_transition(net, "SERVE",
                                       kind=Deterministic(0.25)), [])
        assert len(chains) == 1

    def test_deterministic_net_is_rejected_before_compiling(
            self, monkeypatch, chains):
        compiled = []
        monkeypatch.setattr(ctmc, "compile_net", compiled.append)
        with pytest.raises(UnsupportedModelError, match="'SERVE'"):
            solve_ctmc(with_transition(mm1k_net(3.0, 4.0, 3), "SERVE",
                                       kind=Deterministic(0.25)), [])
        assert compiled == [] and chains == {}

    def test_hit_compiles_nothing(self, monkeypatch, chains):
        compiled = []
        real = ctmc.compile_net
        monkeypatch.setattr(ctmc, "compile_net",
                            lambda net: compiled.append(net) or real(net))
        for lam in (20.0, 21.0):
            solve_ctmc(*hlf_1200(lam))
        assert len(compiled) == 1

    def test_the_pattern_is_built_once_per_chain(self, monkeypatch, chains):
        # the generator's sparsity is the chain's, so a re-solve at another
        # rate builds none
        built = []
        real = ctmc._pattern
        monkeypatch.setattr(ctmc, "_pattern",
                            lambda n, *args: built.append(n) or real(n, *args))
        for lam in (19.0, 20.0, 21.0):
            solve_ctmc(*hlf_1200(lam))
        assert built == [1200]

    def test_hit_hashes_and_compares_the_structure_once(self, monkeypatch,
                                                         chains):
        # the structure key is frozen dataclasses hashed and compared in
        # Python: a hit hashes it once, and its lookup compares it once; a
        # miss hashes it for its lookup and again to cache its chain
        counts = {"hash": 0, "eq": 0}

        class Spy(tuple):
            def __hash__(self):
                counts["hash"] += 1
                return super().__hash__()

            def __eq__(self, other):
                counts["eq"] += 1
                return super().__eq__(other)

        real = ctmc._structure
        monkeypatch.setattr(ctmc, "_structure", lambda net: Spy(real(net)))
        solve_ctmc(*hlf_1200(20.0))
        assert counts == {"hash": 2, "eq": 0}
        counts.update(hash=0, eq=0)
        net, queries = hlf_1200(21.0)
        hit = solve_ctmc(net, queries)
        assert counts["hash"] == 1 and counts["eq"] <= 1
        assert len(chains) == 1
        assert hit == solve_cold(net, queries, chains)

    def test_each_set_of_places_read_has_its_own_indicator(self, chains):
        # a chain keeps one indicator per predicate; one kept for Q1 > 0
        # reused for Q1 >= Q2 would misread markings the two tell apart
        net = tandem_net()
        solve_ctmc(net, [ProbabilityOf(Atom("Q1", ">", 0))])
        queries = [ProbabilityOf(Atom("Q1", ">=", "Q2"))]
        hit = solve_ctmc(net, queries)
        assert hit == solve_cold(net, queries, chains)

    def test_hit_evaluates_no_predicate(self, monkeypatch, chains):
        # each ProbabilityOf's indicator is built once per chain and query,
        # so a re-solve at another rate compiles and calls no predicate
        calls = []
        real = engine.CompiledNet.rewards
        monkeypatch.setattr(engine.CompiledNet, "rewards",
                            lambda cn, qs: calls.append(qs) or real(cn, qs))
        solve_ctmc(*hlf_1200(20.0))
        assert calls
        calls.clear()
        net, queries = hlf_1200(21.0)
        hit = solve_ctmc(net, queries)
        assert not calls
        assert hit == solve_cold(net, queries, chains)

    def test_hit_below_max_states_raises_the_cold_error(self, chains):
        net = mm1k_net(3.0, 4.0, 50)
        assert solve_ctmc(net, []).n_states == 51
        with pytest.raises(ExplosionError) as hit:
            solve_ctmc(net, [], max_states=10)
        with pytest.raises(ExplosionError) as cold:
            solve_cold(net, [], chains, max_states=10)
        assert (hit.value.count, hit.value.max_states) == \
            (cold.value.count, cold.value.max_states) == (11, 10)
        assert str(hit.value) == str(cold.value)

    def test_failed_generation_caches_nothing(self, chains):
        livelock = PetriNet(
            places=(Place("S", 1), Place("A", 0), Place("B", 0)),
            transitions=(
                Transition("GO", Exponential(1.0), input_arcs=(Arc("S"),),
                           output_arcs=(Arc("A"),)),
                Transition("AB", Immediate(), input_arcs=(Arc("A"),),
                           output_arcs=(Arc("B"),)),
                Transition("BA", Immediate(), input_arcs=(Arc("B"),),
                           output_arcs=(Arc("A"),)),
            ))
        with pytest.raises(LivelockError):
            solve_ctmc(livelock, [])
        with pytest.raises(ExplosionError):
            solve_ctmc(mm1k_net(3.0, 4.0, 50), [], max_states=10)
        assert not chains

    def test_oldest_chains_leave_past_the_state_budget(self, monkeypatch,
                                                       chains):
        monkeypatch.setattr(ctmc, "_CACHED_STATES", 100)
        for k in (40, 30, 20):  # 41 + 31 + 21 states: within the budget
            solve_ctmc(mm1k_net(3.0, 4.0, k), [])
        solve_ctmc(mm1k_net(3.0, 4.0, 40), [])  # a hit moves nothing
        assert [len(c.marks) for c in chains.values()] == [41, 31, 21]
        solve_ctmc(mm1k_net(3.0, 4.0, 10), [])
        assert [len(c.marks) for c in chains.values()] == [31, 21, 11]
        solve_ctmc(mm1k_net(3.0, 4.0, 200), [])  # alone past the budget
        assert [len(c.marks) for c in chains.values()] == [201]
