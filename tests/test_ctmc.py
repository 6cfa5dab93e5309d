"""Exact CTMC solver against closed forms and the simulator."""

import pytest

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

from queueing import mm1k, mmck
from refnets import branch_net, flush_net, mm1k_net, mmck_net


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
        from refnets import tandem_net
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
