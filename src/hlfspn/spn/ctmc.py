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

Generation reads no rate: in an exponential net the means change neither
the reachable markings nor the immediate branching, so Q = sum over timed
t of (1 / mean_t) B_t (Stewart, *Introduction to the Numerical Solution of
Markov Chains*, 1994). It yields the tangible states and, for each
generator and firing-rate triplet, the timed transition t that fired, its
degree d and the probability or expected count p; a solve computes each
rate as (d / mean_t) * p, the float a generation with rates would give.
Generated chains stay in a small LRU keyed on the net's structure, so a
solve at other rates of a structure solved before skips generation.

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

from .engine import (CompiledNet, Estimate, LivelockError, Result,
                     compile_net)
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


class NumericalSolveError(SpnError):
    """The chain has one closed class, so its stationary distribution is
    unique, yet no solve converged to it: its rates span too many orders of
    magnitude for double precision."""

    def __init__(self, low: float, high: float):
        self.low = low
        self.high = high
        super().__init__(
            "stationary solve failed numerically: no converged solution "
            f"for a chain with one closed class, whose rates span {low:.3g} "
            f"to {high:.3g}")


class ExplosionError(SpnError):
    def __init__(self, count: int, max_states: int):
        self.count = count
        self.max_states = max_states
        super().__init__(
            f"tangible state space exceeds {max_states} states "
            f"(reached {count})")


@dataclass(frozen=True)
class ExactResult(Result):
    """Each query's exact value, as an Estimate with CI 0."""
    n_states: int


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
    query naming an unknown place or transition fails at once. The chain
    of each structure is generated once (`_chain`); each solve assembles
    its rates from the net's own means.
    """
    cn = compile_net(net)
    for t in net.transitions:
        if isinstance(t.kind, Deterministic):
            raise UnsupportedModelError(
                f"deterministic transition {t.name!r} is not supported by "
                "the CTMC solver")
    rate_rewards, slots = cn.reward_slots(queries)
    reward = cn.rewards(rate_rewards)
    ch = _chain(cn, max_states)

    # each timed firing's rate d / mean_t, then each triplet's (d / mean_t)
    # * p: the expressions, and so the floats, of a generation with rates
    means = np.array([1.0 if ct.immediate else ct.mean for ct in cn.trans])
    rate = ch.degrees / means[ch.tids]
    n = len(ch.states)
    pi = _stationary(n, ch.rows, ch.cols, rate[ch.src] * ch.probs)

    # rate rewards: pi @ R, R holding each state's reward values as a row
    # (read flat: on 5,768 states faster than np.array of the row tuples);
    # impulse rewards: each transition's firing rate
    k = len(rate_rewards)
    R = np.fromiter(chain.from_iterable(map(reward, ch.states)), float, n * k)
    values = pi @ R.reshape(n, k)
    firing = np.bincount(ch.f_tids,
                         weights=pi[ch.f_rows] * (rate[ch.f_src]
                                                  * ch.f_counts),
                         minlength=len(cn.trans))
    estimates = {q: Estimate(float((values if is_rate else firing)[i]), 0.0)
                 for q, (is_rate, i) in slots.items()}
    return ExactResult(estimates=estimates, n_states=n)


@dataclass(frozen=True)
class _Chain:
    """The tangible chain of one net structure, free of rates.

    Timed firing k, of transition tids[k] with degree degrees[k] (1 for a
    single server), has rate degrees[k] / mean. Each generator triplet
    (rows, cols) and each firing-rate triplet (f_rows, f_tids) stems from
    the timed firing src or f_src, with probability probs or expected count
    f_counts; its rate is the firing's times that. A timed firing's own
    firing-rate triplet has count 1."""
    states: tuple
    tids: np.ndarray
    degrees: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    src: np.ndarray
    probs: np.ndarray
    f_rows: np.ndarray
    f_tids: np.ndarray
    f_src: np.ndarray
    f_counts: np.ndarray


# generated chains, by structure, least recently used first: the newest,
# and older ones while all hold at most _CACHED_STATES states. On the
# benchmark's HLF nets a chain holds 0.7 kB per state (a 23-place tuple and
# about 60 array entries), so the cache holds about 70 MB at most, or the
# one chain of a larger structure
_CACHED_STATES = 100_000
_chains: dict[tuple, _Chain] = {}


def _structure(cn: CompiledNet) -> tuple:
    """Everything chain generation reads of cn but the timed means: the
    generated code (arcs, guards, priorities; each compile binds new
    functions to the shared code), the initial marking, the immediates'
    weights and each transition's kind and server semantics."""
    code = tuple(f.__code__ for f in chain(cn.degrees, cn.fires,
                                           cn.top_after, (cn.top_all,)))
    return (code, tuple(cn.initial), tuple(cn.weights),
            tuple((ct.immediate, ct.infinite) for ct in cn.trans))


def _chain(cn: CompiledNet, max_states: int) -> _Chain:
    """cn's chain from the cache, or generated and cached. A cached chain
    larger than max_states raises the ExplosionError its generation would
    have; a generation that raises caches nothing."""
    key = _structure(cn)
    ch = _chains.pop(key, None)
    if ch is None:
        ch = _generate(cn, max_states)
        cached = sum(len(c.states) for c in _chains.values())
        while cached + len(ch.states) > _CACHED_STATES and _chains:
            cached -= len(_chains.pop(next(iter(_chains))).states)
    _chains[key] = ch  # the most recently used last
    if len(ch.states) > max_states:
        raise ExplosionError(max_states + 1, max_states)
    return ch


def _generate(cn: CompiledNet, max_states: int) -> _Chain:
    """The tangible reachability graph of cn, from its initial marking,
    with each timed firing's vanishing markings resolved on the fly."""
    timed = [(ct.idx, cn.degrees[ct.idx], cn.fires[ct.idx], ct.infinite,
              cn.top_after[ct.idx])
             for ct in cn.trans if not ct.immediate]

    index: dict[tuple, int] = {}
    states: list[tuple] = []
    # timed firings (state, transition, degree)
    firing_rows: list[int] = []
    tids: list[int] = []
    degrees: list[int] = []
    # generator off-diagonal triplets (state, firing, probability)
    cols: list[int] = []
    src: list[int] = []
    probs: list[float] = []
    # firing-rate triplets (transition, firing, count), immediates included
    f_tids: list[int] = []
    f_src: list[int] = []
    f_counts: list[float] = []

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
        for tid, degree, fire, infinite, scan in timed:
            d = degree(m)
            if not d:
                continue
            if not infinite:
                d = 1
            k = len(tids)
            firing_rows.append(i)
            tids.append(tid)
            degrees.append(d)
            f_tids.append(tid)
            f_src.append(k)
            f_counts.append(1.0)
            m2 = list(m)
            fire(m2)
            dist, counts = _resolve_vanishing(cn, m2, scan)
            for mt, p in dist.items():
                cols.append(intern(mt))
                src.append(k)
                probs.append(p)
            for t, c in counts.items():
                f_tids.append(t)
                f_src.append(k)
                f_counts.append(c)
        i += 1

    def frozen(xs, dtype=np.int64) -> np.ndarray:
        # the cache hands these to every later solve: none may write them
        a = np.array(xs, dtype=dtype)
        a.flags.writeable = False
        return a

    firing_rows = np.array(firing_rows, dtype=np.int64)
    src, f_src = frozen(src), frozen(f_src)
    return _Chain(states=tuple(states), tids=frozen(tids),
                  degrees=frozen(degrees, float),
                  rows=frozen(firing_rows[src]), cols=frozen(cols), src=src,
                  probs=frozen(probs, float),
                  f_rows=frozen(firing_rows[f_src]), f_tids=frozen(f_tids),
                  f_src=f_src, f_counts=frozen(f_counts, float))


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
    by the complete LU, with which it converges in a step or two. When
    neither gives a solution with a positive sum, raises
    SingularGeneratorError if the chain has more than one closed class,
    and NumericalSolveError if it has one."""
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
    if _closed_classes(n, rows, cols, rates) > 1:
        raise SingularGeneratorError()
    raise NumericalSolveError(float(rates.min()), float(rates.max()))


def _closed_classes(n: int, rows, cols, rates) -> int:
    """The number of closed classes of the chain with the off-diagonal
    rate triplets: strongly connected components of its transition graph
    that no positive rate leaves."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    live = rates > 0
    rows, cols = rows[live], cols[live]
    graph = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)),
                              shape=(n, n))
    k, labels = connected_components(graph, directed=True,
                                     connection="strong")
    leaving = labels[rows] != labels[cols]
    return k - len(np.unique(labels[rows[leaving]]))


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
