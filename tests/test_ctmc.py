"""Exact CTMC solver against closed forms and the simulator."""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
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
    NumericalSolveError,
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

from hlfspn.spn import ctmc
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

    @pytest.mark.parametrize("query", [
        ExpectedTokens("NOPE"), FiringRate("NOPE"),
        ProbabilityOf(Atom("NOPE", "=", 0)), "Q"],
        ids=["tokens", "rate", "probability", "not-a-query"])
    def test_queries_are_checked_before_the_chain_is_generated(
            self, monkeypatch, chains, query):
        def generate(*args, **kwargs):
            raise AssertionError("the chain was generated")

        monkeypatch.setattr(ctmc, "_resolve_vanishing", generate)
        error = TypeError if query == "Q" else ContractViolationError
        with pytest.raises(error):
            solve_ctmc(mm1k_net(3.0, 4.0, 3), [query])

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
        n, rows, cols, rates = got[0]
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

    def test_unbounded_vanishing_growth_is_capped(self, monkeypatch,
                                                  chains):
        # GROW keeps A and adds a token to B: every marking is new
        monkeypatch.setattr(ctmc, "_MAX_VANISHING", 1000)
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
        assert set(info.value.transitions) == {"GROW"}


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


@pytest.mark.parametrize("make", [
    lambda: mm1k_net(3.0, 4.0, 3),
    lambda: mmck_net(6.0, 2.0, 3, 7),
    tandem_net,
    branch_net,
    flush_net,
    priority_net,
    lambda: small_hlf_net(2),
    lambda: small_hlf_net(3),
], ids=["mm1k", "mmck", "tandem", "branch", "flush", "priority",
        "hlf-block2", "hlf-block3"])
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
    # rate rewards come from pi @ R, impulse rewards from the firing-rate
    # triplets; in the stationary chain each pair is equal
    handle = hlf.build_hlf_net(cfg)
    pairs = littles_law_pairs(handle)
    res = solve_ctmc(handle.net, [q for pair in pairs for q in pair[:2]])
    for rate, tokens, mean in pairs:
        assert res.value(rate) > 0.1
        assert res.value(rate) == pytest.approx(res.value(tokens) / mean,
                                                rel=1e-10)


def generator_triplets(net: PetriNet) -> tuple:
    """The (n, rows, cols, rates) that solve_ctmc hands to _stationary."""
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


@pytest.mark.filterwarnings("error")
class TestStationarySolve:
    @pytest.mark.parametrize("make", [
        lambda: mm1k_net(3.0, 4.0, 3),
        lambda: mmck_net(6.0, 2.0, 3, 7),
        tandem_net,
        branch_net,
        flush_net,
        benchmark_small_hlf_net,
    ], ids=["mm1k", "mmck", "tandem", "branch", "flush", "hlf-1200"])
    def test_matches_dense_solve(self, make):
        triplets = generator_triplets(make())
        assert_same_distribution(ctmc._stationary(*triplets),
                                 dense_stationary(*triplets), 1e-10)

    def test_complete_lu_when_incomplete_lu_is_singular(self, monkeypatch):
        triplets = generator_triplets(benchmark_small_hlf_net())
        want = ctmc._stationary(*triplets)

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(linalg, "spilu", singular)
        assert_same_distribution(ctmc._stationary(*triplets), want, 1e-12)

    def test_complete_lu_when_gmres_does_not_converge(self, monkeypatch):
        triplets = generator_triplets(benchmark_small_hlf_net())
        want = ctmc._stationary(*triplets)
        real_gmres, real_splu = linalg.gmres, linalg.splu
        calls = []

        def gmres(A, b, **kwargs):
            calls.append("gmres")
            if len(calls) == 1:  # the incomplete-LU run: one Krylov step
                kwargs.update(restart=1, maxiter=1)
            return real_gmres(A, b, **kwargs)

        def splu(A):
            calls.append("splu")
            return real_splu(A)

        monkeypatch.setattr(linalg, "gmres", gmres)
        monkeypatch.setattr(linalg, "splu", splu)
        assert_same_distribution(ctmc._stationary(*triplets), want, 1e-12)
        assert calls == ["gmres", "splu", "gmres"]

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
        (n, *triplets), (n_cold, *triplets_cold) = args
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
    ], ids=["block-size", "capacity", "immediate-weight", "server-semantics"])
    def test_structural_change_misses(self, chains, base, changed):
        net, queries = changed()
        before = solve_ctmc(*base())
        got = solve_ctmc(net, queries)
        assert len(chains) == 2
        assert got == solve_cold(net, queries, chains)
        assert got != before

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

    def test_least_recently_used_chains_leave_past_the_state_budget(
            self, monkeypatch, chains):
        monkeypatch.setattr(ctmc, "_CACHED_STATES", 100)
        for k in (40, 30, 20):  # 41 + 31 + 21 states: within the budget
            solve_ctmc(mm1k_net(3.0, 4.0, k), [])
        solve_ctmc(mm1k_net(3.0, 4.0, 40), [])  # a hit: now the newest
        assert [len(c.states) for c in chains.values()] == [31, 21, 41]
        solve_ctmc(mm1k_net(3.0, 4.0, 10), [])
        assert [len(c.states) for c in chains.values()] == [21, 41, 11]
        solve_ctmc(mm1k_net(3.0, 4.0, 200), [])  # alone past the budget
        assert [len(c.states) for c in chains.values()] == [201]
