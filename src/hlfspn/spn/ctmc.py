"""Exact steady-state analysis of exponential-only nets.

Builds the tangible reachability graph (immediate transitions resolved by
priority and weight into branching probabilities), assembles the CTMC
generator, and solves pi Q = 0, sum(pi) = 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .engine import CompiledNet, LivelockError, compile_net
from .net import (
    Deterministic,
    ExpectedTokens,
    FiringRate,
    PetriNet,
    ProbabilityOf,
    RewardQuery,
    SpnError,
)


class UnsupportedModelError(SpnError):
    """The net contains features the CTMC mapping cannot express."""


class SingularGeneratorError(SpnError):
    """The chain has more than one closed class, so its stationary
    distribution is not unique."""

    def __init__(self):
        super().__init__(
            "stationary solve failed: singular generator (the chain has "
            "more than one closed class)")


class ExplosionError(SpnError):
    def __init__(self, count: int, max_states: int):
        self.count = count
        self.max_states = max_states
        super().__init__(
            f"tangible state space exceeds {max_states} states "
            f"(reached {count})")


@dataclass(frozen=True)
class ExactResult:
    estimates: dict
    n_states: int

    def value(self, query: RewardQuery) -> float:
        return self.estimates[query]

    def halfwidth(self, query: RewardQuery) -> float:
        return 0.0

    def has(self, query: RewardQuery) -> bool:
        return query in self.estimates


def _resolve_vanishing(cn: CompiledNet, m0: list[int],
                       max_steps: int = 10 ** 6):
    """Distribution over tangible markings reached from m0, with the
    expected number of firings of each immediate transition on the way."""
    top_immediates = cn.top_immediates
    immediates = cn.immediates
    outcomes: list[tuple[tuple, float, dict]] = []
    stack: list[tuple[list[int], float, dict]] = [(m0, 1.0, {})]
    steps = 0
    while stack:
        m, pr, counts = stack.pop()
        cands = top_immediates(immediates, m)
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


def solve_ctmc(net: PetriNet, queries: list[RewardQuery],
               max_states: int = 50_000) -> ExactResult:
    """Exact stationary rewards for an exponential-only net.

    Raises UnsupportedModelError on deterministic transitions and
    ExplosionError when the tangible state space exceeds max_states.
    """
    cn = compile_net(net)
    for t in net.transitions:
        if isinstance(t.kind, Deterministic):
            raise UnsupportedModelError(
                f"deterministic transition {t.name!r} is not supported by "
                "the CTMC solver")

    timed = [ct for ct in cn.trans if not ct.immediate]

    index: dict[tuple, int] = {}
    states: list[tuple] = []
    # per-state expected immediate firing rates, accumulated during BFS
    imm_rate: list[dict] = []
    rows: list[int] = []
    cols: list[int] = []
    rates: list[float] = []
    # per-state firing rate of each timed transition
    timed_rate: list[dict] = []

    def intern(mt: tuple) -> int:
        i = index.get(mt)
        if i is None:
            i = len(states)
            if i >= max_states:
                raise ExplosionError(i + 1, max_states)
            index[mt] = i
            states.append(mt)
            imm_rate.append({})
            timed_rate.append({})
            frontier.append(i)
        return i

    frontier: list[int] = []
    for mt, _pr, _counts in _resolve_vanishing(cn, list(cn.initial)):
        intern(mt)

    pos = 0
    while pos < len(frontier):
        i = frontier[pos]
        pos += 1
        m = list(states[i])
        for ct in timed:
            d = cn.degree(ct, m)
            if d == 0:
                continue
            if not ct.infinite:
                d = 1
            rate = d / ct.mean
            timed_rate[i][ct.idx] = timed_rate[i].get(ct.idx, 0.0) + rate
            m2 = list(m)
            cn.fire_inplace(ct, m2)
            for mt, pr, counts in _resolve_vanishing(cn, m2):
                j = intern(mt)
                rows.append(i)
                cols.append(j)
                rates.append(rate * pr)
                acc = imm_rate[i]
                for tid, c in counts.items():
                    acc[tid] = acc.get(tid, 0.0) + rate * pr * c

    n = len(states)
    pi = _stationary(n, rows, cols, rates)

    estimates: dict[RewardQuery, float] = {}
    for q in queries:
        if isinstance(q, ExpectedTokens):
            p = cn.place_index[q.place]
            estimates[q] = float(sum(pi[i] * states[i][p] for i in range(n)))
        elif isinstance(q, ProbabilityOf):
            fn = cn._compile_predicate(q.predicate, dict(net.parameters))
            estimates[q] = float(sum(pi[i] for i in range(n)
                                     if fn(states[i])))
        elif isinstance(q, FiringRate):
            tid = cn.trans_index[q.transition]
            if cn.trans[tid].immediate:
                estimates[q] = float(sum(
                    pi[i] * imm_rate[i].get(tid, 0.0) for i in range(n)))
            else:
                estimates[q] = float(sum(
                    pi[i] * timed_rate[i].get(tid, 0.0) for i in range(n)))
        else:
            raise TypeError(f"not a reward query: {q!r}")
    return ExactResult(estimates=estimates, n_states=n)


def _stationary(n: int, rows, cols, rates) -> np.ndarray:
    """Solve pi Q = 0 with sum(pi) = 1 for the generator built from the
    off-diagonal rate triplets: one sparse LU solve of Q^T with its last
    equation replaced by the normalisation (Stewart 1994)."""
    if n == 1:
        return np.ones(1)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    rates = np.asarray(rates, dtype=float)
    diag = -np.bincount(rows, weights=rates, minlength=n)
    states = np.arange(n)
    # Q^T holds rate (i -> j) at (j, i); row n-1 is dropped for the ones
    keep = cols != n - 1
    a_rows = np.concatenate([cols[keep], states[:-1], np.full(n, n - 1)])
    a_cols = np.concatenate([rows[keep], states[:-1], states])
    a_vals = np.concatenate([rates[keep], diag[:-1], np.ones(n)])
    # CSR, not CSC: spsolve then factors the transpose, which took half the
    # time on a 5,768-state HLF generator (0.65 s against 1.2 s, 2 vCPU)
    A = sparse.csr_matrix((a_vals, (a_rows, a_cols)), shape=(n, n))
    b = np.zeros(n)
    b[-1] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MatrixRankWarning)
        pi = spsolve(A, b)
    pi = np.maximum(pi, 0.0)
    s = pi.sum()
    if not np.isfinite(s) or s <= 0:
        raise SingularGeneratorError()
    return pi / s
