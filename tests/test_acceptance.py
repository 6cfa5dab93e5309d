"""Acceptance gate: one test per top-level criterion.

Each test name carries its criterion number, so `pytest -v` emits one
pass/fail line per criterion.  Runtime budgets are asserted alongside the
numeric checks.
"""

import math
import time

import pytest

from hlfspn.doe import effects, signs
from hlfspn.experiments import case_study_specs, evaluate_config, run_sweep
from hlfspn.hlf import HlfConfig, build_hlf_net
from hlfspn.metrics import metric_report, standard_queries
from hlfspn.spn import (
    Atom,
    ExpectedTokens,
    FiringRate,
    ProbabilityOf,
    SimConfig,
    simulate_stationary,
    solve_ctmc,
)
from hlfspn.spn.engine import compile_net

from queueing import mmck
from refnets import branch_net, flush_net, mm1k_net, mmck_net, tandem_net


# ---------------------------------------------------------------------------
# Criterion 1: degenerate configuration reduces to M/M/c/K

def degenerate_endorse_config(lam: float, c: int = 3, wait: int = 5,
                              mu: float = 10.0) -> HlfConfig:
    """Single endorser with c slots and `wait` queue positions; every other
    stage is near-instant and effectively unbounded, so the endorse stage
    behaves as an M/M/c/K queue with K = c + wait."""
    return HlfConfig(
        n_endorsers=1, n_committers=1,
        ep=c, eq=wait, te1=1.0 / mu, te2=1.0 / mu,
        te3=1e-3, te4=1e-3, te5=1e-3, te6=1e-3, te7=1e-3, te8=1e-3,
        oq=400, cq=400, op=6, cp=6,
        block_size=1, timeout_s=1000.0,
        arrival_dist="exponential", timeout_dist="exponential",
    ).with_arrival_rate(lam)


@pytest.mark.parametrize("lam", [25.0, 35.0])
def test_criterion_1_mmck_closed_form_oracle(lam):
    c, wait, mu = 3, 5, 10.0
    oracle = mmck(lam, mu, c, wait + c)
    handle = build_hlf_net(degenerate_endorse_config(lam, c, wait, mu))
    sim = SimConfig(warmup_time=100.0, batch_count=20, batch_length=300.0,
                    seed=13)
    start = time.time()
    res = simulate_stationary(handle.net, standard_queries(handle), sim)
    elapsed = time.time() - start
    report = metric_report(res, handle)

    q_wait = ExpectedTokens(handle.endorser_queue_fills[0])
    q_serve = ExpectedTokens(handle.endorser_proc_fills[0])
    mean_n = res.value(q_wait) + res.value(q_serve)
    mean_n_hw = math.hypot(res.halfwidth(q_wait), res.halfwidth(q_serve))

    checks = [
        ("mean in system", mean_n, mean_n_hw, oracle.mean_in_system),
        ("blocking probability", report.dp_prob.value, report.dp_prob.ci,
         oracle.blocking_prob),
        ("utilization", report.u_end.value, report.u_end.ci,
         oracle.utilization),
        ("effective throughput", report.tp_tps.value, report.tp_tps.ci,
         oracle.effective_rate),
    ]
    assert res.event_count >= 1_000_000
    for name, est, hw, exact in checks:
        assert abs(est - exact) <= hw, \
            f"{name}: {est} not within CI {hw} of {exact}"
        assert abs(est - exact) <= 0.02 * exact, \
            f"{name}: {est} off exact {exact} by more than 2%"
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Criterion 2: simulator agrees with the exact CTMC solver

def cross_check_nets():
    yield mm1k_net(8.0, 10.0, 5), [
        ExpectedTokens("Q"),
        ProbabilityOf(Atom("ROOM", "=", 0)),
        ProbabilityOf(Atom("Q", "=", 0)),
        FiringRate("SERVE"),
        FiringRate("ARRIVE"),
    ]
    yield mmck_net(6.0, 2.0, 3, 7), [
        ExpectedTokens("Q"),
        ExpectedTokens("S"),
        ProbabilityOf(Atom("ROOM", "=", 0)),
        FiringRate("SERVE"),
        FiringRate("START"),
    ]
    yield tandem_net(), [
        ExpectedTokens("Q1"),
        ExpectedTokens("Q2"),
        ProbabilityOf(Atom("R1", "=", 0)),
        ProbabilityOf(Atom("R2", "=", 0)),
        FiringRate("S2"),
    ]
    yield branch_net(), [
        ExpectedTokens("QA"),
        ExpectedTokens("QB"),
        FiringRate("TO_A"),
        FiringRate("TO_B"),
        FiringRate("DROP"),
    ]
    yield flush_net(), [
        ExpectedTokens("ACC"),
        ExpectedTokens("OUT"),
        ProbabilityOf(Atom("ACC", ">=", 3)),
        FiringRate("CUT"),
        FiringRate("DRAIN"),
    ]


def test_criterion_2_simulator_matches_exact_solver():
    start = time.time()
    total = 0
    covered = 0
    for i, (net, queries) in enumerate(cross_check_nets()):
        exact = solve_ctmc(net, queries)
        assert exact.n_states <= 50_000
        sim = simulate_stationary(net, queries, SimConfig(
            warmup_time=200.0, batch_count=20, batch_length=250.0,
            seed=17 + i))
        for q in queries:
            total += 1
            if abs(sim.value(q) - exact.value(q)) <= sim.halfwidth(q):
                covered += 1
    elapsed = time.time() - start
    assert total >= 25
    assert covered / total >= 0.9, f"only {covered}/{total} within CI"
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# Criterion 3: arrival sweep saturates the commit stage at cp / 0.08

def test_criterion_3_commit_saturation_sweep():
    start = time.time()
    specs = case_study_specs(1, seed=1, batch_count=10)
    for cp in (2, 4, 6):
        rows = list(run_sweep(specs[f"cs1_cp{cp}"]))
        plateau = cp / 0.08
        rates = [r.point["arrival_rate_tps"] for r in rows]
        tps = [r.report.tp_tps.value for r in rows]
        # delivered throughput levels off at the commit capacity
        for rate, tp in zip(rates, tps):
            if rate >= plateau * 1.2:
                assert tp == pytest.approx(plateau, rel=0.10), \
                    f"cp={cp}: tp {tp} at arrival {rate}"
        if cp == 6:
            near_75 = min(rows,
                          key=lambda r: abs(r.point["arrival_rate_tps"] - 75))
            assert near_75.report.u_com.value >= 0.95
    elapsed = time.time() - start
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 4: block-size cliff at the accumulator capacity

def cs2_point(block_size, seed):
    cfg = HlfConfig(block_size=block_size,
                    timeout_s=100.0).with_arrival_rate(100.0)
    sim = SimConfig(warmup_time=300.0, batch_count=10, batch_length=100.0,
                    seed=seed)
    return evaluate_config(cfg, sim)


def test_criterion_4_block_size_cliff():
    smooth = {b: cs2_point(b, seed=3 + b) for b in (1, 6)}
    report7, res7, handle7 = cs2_point(7, seed=10)

    # below the cliff the commit stage is the bottleneck at ~70 tps
    for b, (report, _, _) in smooth.items():
        assert 63.0 <= report.tp_tps.value <= 77.0, \
            f"BLOCK={b}: tp {report.tp_tps.value}"
    # the accumulator holds at most op_1 = 6 tokens, so BLOCK = 7 starves
    # the full-block cut and the response time explodes
    mrt_before = smooth[6][0].mrt_s.value
    assert report7.mrt_s.value >= 5.0 * mrt_before
    assert report7.dp_prob.value >= 0.6
    assert res7.value(FiringRate(handle7.full_block_cut)) == 0.0


# ---------------------------------------------------------------------------
# Criterion 5: timeout sweep crosses from the partial to the full path

def test_criterion_5_timeout_sweep_crossing():
    spec = case_study_specs(3, seed=1, batch_count=10)["cs3"]
    rows = list(run_sweep(spec))
    t_rates = [r.report.timeout_call_rate for r in rows]
    b_rates = [r.report.block_call_rate for r in rows]

    # partial path dominates at a near-zero timeout, full path at 2 s
    assert t_rates[0].value > b_rates[0].value
    assert b_rates[-1].value > t_rates[-1].value
    assert t_rates[-1].value == pytest.approx(0.0, abs=0.1)

    diffs = [t.value - b.value for t, b in zip(t_rates, b_rates)]
    assert any(a > 0 >= b for a, b in zip(diffs, diffs[1:])), \
        "curves never cross inside the sweep"

    scale = max(m.value for m in b_rates)
    for series, direction in ((t_rates, -1), (b_rates, +1)):
        for cur, nxt in zip(series, series[1:]):
            slack = cur.ci + nxt.ci + 0.05 * scale
            if direction < 0:
                assert nxt.value <= cur.value + slack
            else:
                assert nxt.value >= cur.value - slack


# ---------------------------------------------------------------------------
# Criterion 6: factorial design correctness and timeout dominance

STD_2_3_SIGNS = [
    [-1, -1, -1], [-1, -1, +1], [-1, +1, -1], [-1, +1, +1],
    [+1, -1, -1], [+1, -1, +1], [+1, +1, -1], [+1, +1, +1],
]


def test_criterion_6_doe_sign_matrix_and_timeout_ranking():
    design = signs(3)
    assert design.tolist() == STD_2_3_SIGNS

    x1 = design[:, 0]
    x3 = design[:, 2]
    y = 1.5 - 4.0 * x1 + 0.25 * x3
    table = dict(effects(("x1", "x2", "x3"), y))
    assert table[("x1",)] == pytest.approx(-8.0, abs=1e-12)
    assert table[("x3",)] == pytest.approx(0.5, abs=1e-12)
    assert table[("x2",)] == pytest.approx(0.0, abs=1e-12)

    start = time.time()
    spec = case_study_specs(4, seed=1, batch_count=5)["cs4"]
    responses = [getattr(row.report, spec.doe_response).value
                 for row in list(run_sweep(spec))]
    elapsed = time.time() - start
    # the first term of largest |effect|, in term order
    top = max(effects([name for name, _ in spec.sweep], responses),
              key=lambda term_effect: abs(term_effect[1]))
    assert top[0] == ("timeout_s",), \
        f"largest effect is {top}, not the timeout"
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# Criterion 7: structural invariants hold along whole trajectories

def simulate_with_invariant_checks(cfg: HlfConfig, sim: SimConfig):
    """Run the stationary simulation while asserting conservation laws and
    non-negativity after every single firing (vanishing steps included)."""
    handle = build_hlf_net(cfg)
    cn = compile_net(handle.net)
    idx = cn.place_index
    conserved = []
    for i in range(1, cfg.n_endorsers + 1):
        conserved.append(((idx[f"EQ_{i}"], idx[f"EQF_{i}"]), cfg.eq))
        conserved.append(((idx[f"EP_{i}"], idx[f"EPF_{i}"]), cfg.ep))
    conserved.append(((idx["OQ_1"], idx["OQF1_1"]), cfg.oq))
    conserved.append(
        ((idx["OP_1"], idx["OPF2_1"], idx["OPF3_1"], idx["BLKTX_1"]),
         cfg.op))
    for i in range(1, cfg.n_committers + 1):
        conserved.append(((idx[f"CQ_{i}"], idx[f"CQF_{i}"]), cfg.cq))
        conserved.append(((idx[f"CP_{i}"], idx[f"CPF_{i}"]), cfg.cp))
    conserved.append(((idx["CLK_RUN"], idx["CLK_EXP"], idx["CLK_RESET"]), 1))

    calls = 0

    def check_invariants(name, m, now):
        nonlocal calls
        calls += 1
        for places, expected in conserved:
            total = 0
            for p in places:
                total += m[p]
            assert total == expected, \
                f"after {name}: places {places} sum {total} != {expected}"
        for v in m:
            assert v >= 0

    res = simulate_stationary(handle.net, standard_queries(handle), sim,
                              on_fire=check_invariants)
    assert calls == res.event_count
    return res


def test_criterion_7_invariants_across_load_levels():
    total_events = 0
    for i, rate in enumerate((25.0, 100.0, 175.0)):
        cfg = HlfConfig().with_arrival_rate(rate)
        sim = SimConfig(warmup_time=20.0, batch_count=10,
                        batch_length=40.0, seed=31 + i)
        res = simulate_with_invariant_checks(cfg, sim)
        total_events += res.event_count
    assert total_events >= 1_000_000
