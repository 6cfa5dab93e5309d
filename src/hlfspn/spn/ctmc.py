"""Exact steady-state analysis of exponential-only nets.

Builds the tangible reachability graph, assembles the CTMC generator, and
solves pi Q = 0, sum(pi) = 1. Vanishing markings are eliminated on the fly
(Ajmone Marsan et al., *Modelling with GSPNs*, 1995): after each timed
firing, a depth-first search over the vanishing markings it leads to
resolves each of them once, by priority and weight, into a distribution
over tangible markings and the expected number of firings of each
immediate transition on the way. Each conflict set comes from a scan the
compiled net generates: the timed transition's own scan for the first
step, the scan over all immediates after that. A vanishing loop raises
LivelockError, even one that is left with probability 1.

The normalised system is solved by GMRES with an incomplete-LU
preconditioner; the complete LU takes its place when the incomplete
factorisation is singular or GMRES does not converge with it. Rate rewards
are pi @ R, where R holds CompiledNet.rewards of each tangible state;
impulse rewards are the firing rates, immediates' included.

scipy is imported by the first solve, not with the module, so that the
simulator never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .engine import CompiledNet, LivelockError, compile_net
from .net import Deterministic, PetriNet, RewardQuery, SpnError


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

    def batch_values(self, query: RewardQuery) -> tuple[float, ...]:
        """An exact value has no batch series and no sampling error."""
        return ()

    def has(self, query: RewardQuery) -> bool:
        return query in self.estimates


# distinct vanishing markings one resolution may visit
_MAX_VANISHING = 100_000


def _resolve_vanishing(cn: CompiledNet, m0: list[int], scan=None):
    """Resolve the vanishing markings reached from m0, each one once.

    Returns (dist, counts): dist maps each tangible marking reached to its
    probability, counts each immediate transition index to its expected
    number of firings on the way. `scan` gives m0's conflict set: the
    `CompiledNet.top_after` entry of the timed transition that led to m0,
    or `top_all` when None; every later marking is scanned by `top_all`.

    An iterative depth-first search stores each vanishing marking's
    resolution once it has resolved all its successors, so a marking that
    many firing orders reach is resolved once. Raises LivelockError, naming
    the transitions on the loop, when the search reaches a marking it is
    still expanding, and when it visits more than _MAX_VANISHING distinct
    vanishing markings."""
    top_all = cn.top_all
    key = tuple(m0)
    cands = (top_all if scan is None else scan)(m0)
    if not cands:
        return {key: 1.0}, {}
    fires = cn.fires
    weights = cn.weights
    tangible: set[tuple] = set()
    memo: dict[tuple, tuple[dict, dict]] = {}
    # the markings being expanded: [marking, conflict set, total weight,
    # branches taken, dist, counts], and each one's depth in `path`
    path = [[key, cands, sum(weights[t] for t in cands), 0, {}, {}]]
    depth = {key: 0}
    while True:
        frame = path[-1]
        key, cands, total, i, dist, counts = frame
        if i == len(cands):
            path.pop()
            del depth[key]
            memo[key] = dist, counts
            if not path:
                return dist, counts
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
        if key in depth:
            raise LivelockError([cn.trans[f[1][f[3] - 1]].name
                                 for f in path[depth[key]:]])
        cands = top_all(m)
        if not cands:
            tangible.add(key)
            dist[key] = dist.get(key, 0.0) + p
            continue
        if len(memo) + len(path) >= _MAX_VANISHING:
            raise LivelockError([cn.trans[f[1][f[3] - 1]].name
                                 for f in path])
        depth[key] = len(path)
        path.append([key, cands, sum(weights[t] for t in cands), 0, {}, {}])


def _add(dist: dict, counts: dict, p: float, sub_dist: dict,
         sub_counts: dict) -> None:
    """Add p times a successor's resolution to a marking's."""
    for mt, q in sub_dist.items():
        dist[mt] = dist.get(mt, 0.0) + p * q
    for tid, c in sub_counts.items():
        counts[tid] = counts.get(tid, 0.0) + p * c


def solve_ctmc(net: PetriNet, queries: list[RewardQuery],
               max_states: int = 50_000) -> ExactResult:
    """Exact stationary rewards for an exponential-only net.

    Raises UnsupportedModelError on deterministic transitions and
    ExplosionError when the tangible state space exceeds max_states. The
    queries' targets are looked up before the chain is generated, so a
    query naming an unknown place or transition fails at once.
    """
    cn = compile_net(net)
    for t in net.transitions:
        if isinstance(t.kind, Deterministic):
            raise UnsupportedModelError(
                f"deterministic transition {t.name!r} is not supported by "
                "the CTMC solver")
    rate_rewards, slots = cn.reward_slots(queries)
    reward = cn.rewards(rate_rewards)

    timed = [(ct.idx, cn.degrees[ct.idx], cn.fires[ct.idx], ct.infinite,
              ct.mean, cn.top_after[ct.idx])
             for ct in cn.trans if not ct.immediate]

    index: dict[tuple, int] = {}
    states: list[tuple] = []
    # generator off-diagonal triplets (state, state, rate)
    rows: list[int] = []
    cols: list[int] = []
    rates: list[float] = []
    # firing-rate triplets (state, transition, rate), immediates included
    f_rows: list[int] = []
    f_tids: list[int] = []
    f_rates: list[float] = []

    def intern(mt: tuple) -> int:
        i = index.get(mt)
        if i is None:
            i = len(states)
            if i >= max_states:
                raise ExplosionError(i + 1, max_states)
            index[mt] = i
            states.append(mt)
        return i

    for mt in _resolve_vanishing(cn, list(cn.initial))[0]:
        intern(mt)

    i = 0
    while i < len(states):
        m = states[i]
        for tid, degree, fire, infinite, mean, scan in timed:
            d = degree(m)
            if not d:
                continue
            if not infinite:
                d = 1
            rate = d / mean
            f_rows.append(i)
            f_tids.append(tid)
            f_rates.append(rate)
            m2 = list(m)
            fire(m2)
            dist, counts = _resolve_vanishing(cn, m2, scan)
            for mt, p in dist.items():
                rows.append(i)
                cols.append(intern(mt))
                rates.append(rate * p)
            for t, c in counts.items():
                f_rows.append(i)
                f_tids.append(t)
                f_rates.append(rate * c)
        i += 1

    n = len(states)
    pi = _stationary(n, rows, cols, rates)

    # rate rewards: pi @ R, R holding each state's reward values as a row
    # (read flat: on 5,768 states faster than np.array of the row tuples);
    # impulse rewards: each transition's firing rate
    k = len(rate_rewards)
    R = np.fromiter(chain.from_iterable(map(reward, states)), float, n * k)
    values = pi @ R.reshape(n, k)
    firing = np.bincount(np.asarray(f_tids, dtype=np.int64),
                         weights=pi[f_rows] * np.asarray(f_rates),
                         minlength=len(cn.trans))
    estimates = {q: float((values if is_rate else firing)[i])
                 for q, (is_rate, i) in slots.items()}
    return ExactResult(estimates=estimates, n_states=n)


# GMRES settings of the stationary solve: incomplete-LU drop tolerance,
# Krylov vectors per restart, residual tolerance (|b| = 1), restarts
_DROP_TOL = 1e-2
_RESTART = 50
_RTOL = 1e-14
_MAX_RESTARTS = 4


def _stationary(n: int, rows, cols, rates) -> np.ndarray:
    """Solve pi Q = 0 with sum(pi) = 1 for the generator built from the
    off-diagonal rate triplets: Q^T with its last equation replaced by the
    normalisation (Stewart 1994), solved by restarted GMRES (Saad & Schultz
    1986) preconditioned by an incomplete LU factorisation. When that
    factorisation is exactly singular, or GMRES gives no converged
    solution with it, the same GMRES call is made once more, preconditioned
    by the complete LU, with which it converges in a step or two. Raises
    SingularGeneratorError when neither gives a solution with a positive
    sum."""
    if n == 1:
        return np.ones(1)
    from scipy import sparse
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
    A = sparse.csc_matrix((a_vals, (a_rows, a_cols)), shape=(n, n))
    b = np.zeros(n)
    b[-1] = 1.0
    for precondition in (_incomplete_lu, _complete_lu):
        pi = _gmres(A, b, precondition)
        if pi is not None:
            pi = np.maximum(pi, 0.0)
            s = pi.sum()
            if s > 0:
                return pi / s
    raise SingularGeneratorError()


def _incomplete_lu(A):
    from scipy.sparse.linalg import spilu
    return spilu(A, drop_tol=_DROP_TOL).solve


def _complete_lu(A):
    # factor the transpose (the CSR arrays of A read as CSC) and solve with
    # trans="T": on a 5,768-state HLF generator that took 0.65 s against
    # 1.2 s for factoring A itself (2 vCPU)
    from scipy.sparse.linalg import splu
    lu = splu(A.tocsr().T)
    return lambda r: lu.solve(r, trans="T")


def _gmres(A, b, precondition):
    """x from GMRES on A x = b preconditioned by precondition(A), or None
    when that factorisation is exactly singular or x is not converged.

    GMRES stops at |b - A x| <= _RTOL. x counts as converged when its
    normwise backward error is at most _RTOL, |b - A x| <= _RTOL (|A| |x| +
    1), which also passes a generator whose rates are so large that
    rounding alone keeps |b - A x| above _RTOL. NaN or infinite entries
    fail the test."""
    from scipy.sparse.linalg import LinearOperator, gmres
    try:
        solve = precondition(A)
    except RuntimeError:  # an exactly singular factor
        return None
    x, _ = gmres(A, b, rtol=_RTOL, atol=0.0, restart=_RESTART,
                 maxiter=_MAX_RESTARTS, M=LinearOperator(A.shape, solve))
    residual = np.linalg.norm(b - A @ x)
    scale = np.linalg.norm(abs(A) @ abs(x)) + 1.0
    return x if residual <= _RTOL * scale else None
