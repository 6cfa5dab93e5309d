"""Exact CTMC solver against closed forms and the simulator."""

import pytest

from hlfspn import hlf
from hlfspn.spn import (
    Arc,
    Atom,
    Deterministic,
    ExpectedTokens,
    ExplosionError,
    Exponential,
    FiringRate,
    Immediate,
    IntRhs,
    LivelockError,
    PetriNet,
    Place,
    ProbabilityOf,
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
from refnets import branch_net, flush_net, mm1k_net, mmck_net, tandem_net


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
        q = ProbabilityOf(Atom("ON", "=", IntRhs(1)))
        res = solve_ctmc(net, [q])
        assert res.n_states == 2
        assert res.value(q) == pytest.approx(0.8)

    def test_mm1_3_geometric_distribution(self):
        lam, mu, K = 3.0, 4.0, 3
        oracle = mm1k(lam, mu, K)
        net = mm1k_net(lam, mu, K)
        queries = [ProbabilityOf(Atom("Q", "=", IntRhs(n)))
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
        q_block = ProbabilityOf(Atom("ROOM", "=", IntRhs(0)))
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

    def test_vanishing_initial_marking_is_resolved(self):
        net = PetriNet(
            places=(Place("A", 1), Place("B", 0)),
            transitions=(
                Transition("MOVE", Immediate(), input_arcs=(Arc("A"),),
                           output_arcs=(Arc("B"),)),
                Transition("CYCLE", Exponential(1.0),
                           input_arcs=(Arc("B"),), output_arcs=(Arc("A"),)),
            ))
        q = ProbabilityOf(Atom("B", "=", IntRhs(1)))
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
        with pytest.raises(SingularGeneratorError):
            solve_ctmc(net, [ProbabilityOf(Atom("X", "=", IntRhs(1)))])


class TestAgreementWithSimulator:
    def test_tandem_estimates_cover_exact_values(self):
        net = tandem_net()
        queries = [ExpectedTokens("Q1"), ExpectedTokens("Q2"),
                   ProbabilityOf(Atom("R1", "=", IntRhs(0))),
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
        q_s = ProbabilityOf(Atom("S", "=", IntRhs(1)))
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

    def test_unbounded_vanishing_growth_is_capped(self, monkeypatch):
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
        cands = cn.top_immediates(cn.immediates, m)
        if not cands:
            outcomes.append((tuple(m), pr, counts))
            continue
        total_w = sum(ct.weight for ct in cands)
        for ct in cands:
            m2 = list(m)
            cn.fire_inplace(ct, m2)
            c2 = dict(counts)
            c2[ct.idx] = c2.get(ct.idx, 0.0) + 1.0
            stack.append((m2, pr * ct.weight / total_w, c2))
        steps += len(cands)
        if steps > max_steps:
            raise LivelockError([ct.name for ct in cands])
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
    lambda: small_hlf_net(2),
    lambda: small_hlf_net(3),
], ids=["mm1k", "mmck", "tandem", "branch", "flush", "hlf-block2",
        "hlf-block3"])
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
                                              cn.affects_imm[tid])
            want_dist, want_counts = naive_merged(cn, m2)
            assert_close(dist, want_dist)
            assert_close(counts, want_counts)
            firings += 1
            for mt in dist:
                if mt not in seen:
                    seen.add(mt)
                    frontier.append(mt)
    assert firings >= len(seen)
