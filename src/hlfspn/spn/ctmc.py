"""Exact steady-state analysis of exponential-only nets.

Builds the tangible reachability graph, assembles the CTMC generator, and
solves pi Q = 0, sum(pi) = 1. Vanishing markings are eliminated on the fly:
after each timed firing, the engine's resolver (`engine._resolve_vanishing`,
which the simulator's livelock check uses too), started from that
transition's own conflict scan, turns the vanishing markings it leads to
into a distribution over tangible markings and the expected number of
firings of each immediate on the way. A vanishing loop raises LivelockError.

Generation reads no rate: in an exponential net the means change neither
the reachable markings nor the immediate branching, so Q = sum over timed
t of (1 / mean_t) B_t (Stewart, *Introduction to the Numerical Solution of
Markov Chains*, 1994). It yields the tangible states, each timed firing's
transition t and degree d, and, for each generator triplet and each
immediate's firing-rate triplet, the firing it stems from and the
probability or expected count p; a solve computes each rate as
(d / mean_t) * p, the float a generation with rates would give. Its
triplets go to typed buffers that numpy reads in place.
Generated chains stay in a small cache keyed on the net's structure, oldest
first, each with its compiled net, so a solve at other rates of a
structure solved before skips compilation and generation and reads only
the net's means.

The normalised system's sparsity is rate-free too, so a chain keeps it
(`_Pattern`), and a solve sums its values into it with one bincount and
sorts or masks nothing. The system is solved by the module's own
restarted GMRES, right preconditioned by symmetric Gauss-Seidel, whose two
triangular factors cost no fill; the complete LU takes its place when a
triangle is singular (a zero diagonal entry) or GMRES does not converge
with it. Every rate reward is pi times a vector over the tangible states
(Ciardo et al. 1993): a chain keeps its markings as one integer matrix S,
a row per state, so the expected token counts are pi @ S, and a
probability is pi @ h, h its predicate's 0/1 value on each marking, kept
with the chain once computed. Impulse rewards are the firing rates,
immediates' included.

scipy is imported by the first solve and `array`, a shared library too, by
the first generation, not with the module, so that the simulator never
loads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import (CompiledNet, Estimate, Result, _resolve_vanishing,
                     compile_net)
from .net import (Deterministic, ExpectedTokens, Immediate, PetriNet,
                  RewardQuery, SpnError)


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


def solve_ctmc(net: PetriNet, queries: list[RewardQuery],
               max_states: int = 50_000) -> ExactResult:
    """Exact stationary rewards for an exponential-only net.

    Raises UnsupportedModelError on deterministic transitions, before the
    net is compiled, and ExplosionError when the tangible state space
    exceeds max_states. The queries' targets are looked up before the chain
    is generated, so a query naming an unknown place or transition fails at
    once. The chain of each structure is generated once, and compiled with
    it (`_chains`); each solve assembles its rates from the net's own means.
    A cached chain larger than max_states raises the ExplosionError its
    generation would have; a generation that raises caches nothing.
    """
    structure = _structure(net)
    ch = _chains.get(structure)
    if ch is None:  # a hit's key holds each timed kind's class: exponential
        for t in net.transitions:
            if isinstance(t.kind, Deterministic):
                raise UnsupportedModelError(
                    f"deterministic transition {t.name!r} is not supported "
                    "by the CTMC solver")
    cn = compile_net(net) if ch is None else ch.cn
    # every query compiled once; an unknown place or transition raises here
    rates, slots = cn.reward_plan(queries)
    if ch is None:
        ch = _generate(cn, max_states)
        cached = sum(len(c.marks) for c in _chains.values())
        while cached + len(ch.marks) > _CACHED_STATES and _chains:
            cached -= len(_chains.pop(next(iter(_chains))).marks)
        _chains[structure] = ch
    elif len(ch.marks) > max_states:
        raise ExplosionError(max_states + 1, max_states)

    # each timed firing's rate d / mean_t, then each triplet's (d / mean_t)
    # * p: the expressions, and so the floats, of a generation with rates
    means = np.array([1.0 if t.is_immediate else t.kind.mean_delay
                      for t in net.transitions])
    rate = ch.degrees / means[ch.tids]
    n = len(ch.marks)
    pi = _stationary(n, ch.rows, ch.cols, rate[ch.src] * ch.probs,
                     ch.pattern)

    # rate rewards: pi @ S for the token counts, pi @ h for a probability
    expected = pi @ ch.marks
    values = []
    for q, expr, places in rates:
        if isinstance(q, ExpectedTokens):
            values.append(float(expected[places[0]]))
            continue
        if q not in ch.indicators:
            holds = cn.rewards([(q, expr, places)])
            h = np.fromiter((holds(row.tolist())[0] for row in ch.marks),
                            bool, n)
            h.flags.writeable = False  # later solves share it, as in _generate
            ch.indicators[q] = h
        values.append(float(pi @ ch.indicators[q]))
    # impulse rewards: each transition's firing rate, a timed one's from
    # its firings and an immediate's from its counts; no bin is in both, so
    # their sum adds only zeros
    n_trans = len(cn.trans)
    firing = np.bincount(ch.tids, weights=pi[ch.firing_rows] * rate,
                         minlength=n_trans)
    firing += np.bincount(ch.f_tids,
                          weights=pi[ch.f_rows] * (rate[ch.f_src]
                                                   * ch.f_counts),
                          minlength=n_trans)
    estimates = {q: Estimate(float((values if is_rate else firing)[i]), 0.0)
                 for q, (is_rate, i) in slots.items()}
    return ExactResult(estimates=estimates, n_states=n)


@dataclass(frozen=True)
class _Chain:
    """The tangible chain of one net structure, free of rates, and its
    CompiledNet.

    Timed firing k, of transition tids[k] from state firing_rows[k] with
    degree degrees[k] (1 for a single server), has rate degrees[k] / mean,
    which is also that transition's firing-rate contribution: a timed
    firing is stored once, with no firing-rate triplet of its own. Each
    generator triplet (rows, cols) and each immediate's firing-rate triplet
    (f_rows, f_tids) stems from the timed firing src or f_src, with
    probability probs or expected count f_counts; its rate is the firing's
    times that. Row i of marks is tangible state i's marking, in the
    smallest integer dtype that holds every token count. pattern is the
    sparsity of the matrix every solve of the chain assembles
    (`_pattern`)."""
    cn: CompiledNet
    marks: np.ndarray
    firing_rows: np.ndarray
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
    pattern: _Pattern
    # by ProbabilityOf query, its predicate's value on each row of marks
    indicators: dict = field(default_factory=dict)


# generated chains, by structure, oldest first: a miss drops the oldest
# while they and its chain would hold more than _CACHED_STATES states, and a
# hit moves none, since a sweep reuses a structure on consecutive points or
# cycles through structures, where recency order evicts the same chains. On
# the benchmark's HLF nets a chain holds about 0.6 kB per state (a 23-byte
# marking row, about 48 array entries and 170 bytes of pattern; tracemalloc:
# 3.4 MB for 5,768 states, 1.0 MB of it the pattern), and 0.7 kB on the
# 10,240-state 2x2 net, so the cache holds about 60-70 MB at most, or the
# one chain of a larger structure
_CACHED_STATES = 100_000
_chains: dict[tuple, _Chain] = {}


def _structure(net: PetriNet) -> tuple:
    """Everything compilation and chain generation read of net but the
    timed means: the places, with their initial tokens, and each
    transition's name, arcs, guard and server semantics, with its Immediate
    kind (priority and weight) or its kind's class."""
    return net.places, tuple(
        (t.name, t.input_arcs, t.output_arcs, t.guard, t.server_semantics,
         t.kind if isinstance(t.kind, Immediate) else type(t.kind))
        for t in net.transitions)


def _generate(cn: CompiledNet, max_states: int) -> _Chain:
    """The tangible reachability graph of cn, from its initial marking,
    with each timed firing's vanishing markings resolved on the fly, and
    the pattern of its generator."""
    from array import array
    timed = [(ct.idx, cn.degrees[ct.idx], cn.fires[ct.idx], ct.infinite,
              cn.top_after[ct.idx])
             for ct in cn.trans if not ct.immediate]

    index: dict[tuple, int] = {}
    states: list[tuple] = []
    # typed buffers, read by numpy in place at the end: no Python int or
    # float per entry, and no copy
    # timed firings (state, transition, degree)
    firing_rows, tids, degrees = array("q"), array("q"), array("d")
    # generator off-diagonal triplets (state, firing, probability)
    cols, src, probs = array("q"), array("q"), array("d")
    # immediates' firing-rate triplets (transition, firing, expected count)
    f_tids, f_src, f_counts = array("q"), array("q"), array("d")

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

    def frozen(a: np.ndarray) -> np.ndarray:
        # the cache hands these to every later solve: none may write them
        a.flags.writeable = False
        return a

    def view(buf) -> np.ndarray:
        return frozen(np.frombuffer(buf, buf.typecode))  # int64 or float64

    n = len(states)
    marks = np.array(states, dtype=np.int64).reshape(n, len(cn.initial))
    marks = frozen(marks.astype(np.min_scalar_type(marks.max(initial=0))))
    # S holds the markings now: free their tuples before the pattern's sort
    index.clear()
    states.clear()
    firing_rows, src, f_src = view(firing_rows), view(src), view(f_src)
    rows, cols = frozen(firing_rows[src]), view(cols)
    return _Chain(cn=cn, marks=marks, firing_rows=firing_rows,
                  tids=view(tids), degrees=view(degrees), rows=rows,
                  cols=cols, src=src, probs=view(probs),
                  f_rows=frozen(firing_rows[f_src]), f_tids=view(f_tids),
                  f_src=f_src, f_counts=view(f_counts),
                  pattern=_pattern(n, rows, cols))


@dataclass(frozen=True)
class _Pattern:
    """The sparsity of the matrix A that _stationary solves for a chain,
    Q^T with row 0 replaced by ones, as canonical CSC arrays; it depends on
    the chain's (rows, cols) alone, never on a rate.

    A solve's values are each off-diagonal triplet's rate, at (col, row) of
    A, then each state's diagonal entry, then the ones of row 0. slot[k] is
    the position in A's data that value k is added to; a triplet into
    state 0 and state 0's diagonal, which the ones replace, go to position
    nnz, past A's entries. Each triangle of the Gauss-Seidel split is
    (positions in A's data, row indices, indptr): the lower one keeps row
    >= col, the upper one row <= col, so each holds the diagonal."""
    indices: np.ndarray
    indptr: np.ndarray
    slot: np.ndarray
    triangles: tuple


def _pattern(n: int, rows: np.ndarray, cols: np.ndarray) -> _Pattern:
    """The _Pattern of the chain with n states and off-diagonal triplets
    (rows, cols)."""
    states = np.arange(n)
    a_rows = np.concatenate([cols, states, np.zeros(n, np.int64)])
    a_cols = np.concatenate([rows, states, states])
    kept = np.concatenate([cols != 0, states != 0, np.ones(n, bool)])
    # each entry's cell, numbered down the columns: sorted cells are A's
    # canonical CSC order, and each distinct cell one stored entry
    cells, inverse = np.unique((a_cols * n + a_rows)[kept],
                               return_inverse=True)
    slot = np.full(len(kept), len(cells))
    slot[kept] = inverse
    indices = (cells % n).astype(np.intc)
    indptr = np.searchsorted(cells, np.arange(n + 1) * n).astype(np.intc)
    col = cells // n
    triangles = []
    for keep in (indices >= col, indices <= col):
        positions = np.flatnonzero(keep)
        triangles.append((positions, indices[positions],
                          np.append(0, np.cumsum(keep))[indptr]
                          .astype(np.intc)))
    arrays = [indices, indptr, slot, *(a for t in triangles for a in t)]
    for a in arrays:  # shared by every solve of the chain, as in _generate
        a.flags.writeable = False
    return _Pattern(indices=indices, indptr=indptr, slot=slot,
                    triangles=tuple(triangles))


# GMRES settings of the stationary solve: Krylov vectors per restart,
# residual tolerance (|b| = 1), restarts
_RESTART = 50
_RTOL = 1e-14
_MAX_RESTARTS = 4


def _stationary(n: int, rows, cols, rates, pattern: _Pattern) -> np.ndarray:
    """Solve pi Q = 0 with sum(pi) = 1 for the generator built from the
    off-diagonal rate triplets: A = Q^T with its first equation, that of
    the initial state, replaced by the normalisation (Stewart 1994), its
    entries summed into the chain's pattern in the triplets' order, solved by
    restarted GMRES (`_gmres`) right preconditioned by symmetric
    Gauss-Seidel (Saad 2003, 9.3 and 10.2). When a triangle of A is exactly
    singular, or GMRES gives no converged solution with it, the same GMRES
    call is made once more, preconditioned by the complete LU, with which
    it converges in a step or two. When neither gives a solution with a
    positive sum, raises SingularGeneratorError if the chain has more than
    one closed class, and NumericalSolveError if it has one.

    The normalisation is a row of ones, so the Gauss-Seidel sweep through
    it sums a whole vector into that row's entry, and with right
    preconditioning the cancellation error lands in pi. Row 0 puts it on
    the initial state, typically one of the most probable, where the last
    row put it on the last state found, typically one of the least: on the
    368-state 1x1 net at 5 tps (eq = oq = cq = 2), P(EQ_1 = 0) moved 3.1e-12
    relative from a refined dense solve with the ones last, and 2e-14 with
    them first."""
    if n == 1:
        return np.ones(1)
    from scipy import sparse
    diag = -np.bincount(rows, weights=rates, minlength=n)
    nnz = len(pattern.indices)
    values = np.concatenate([rates, diag, np.ones(n)])
    data = np.bincount(pattern.slot, values, minlength=nnz + 1)[:nnz]
    A = sparse.csc_matrix((data, pattern.indices, pattern.indptr),
                          shape=(n, n))
    lower, upper = (sparse.csc_matrix((data[at], indices, indptr),
                                      shape=(n, n))
                    for at, indices, indptr in pattern.triangles)
    b = np.zeros(n)
    b[0] = 1.0
    for precondition in (
            lambda A: _symmetric_gauss_seidel(A, lower, upper), _complete_lu):
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
    return k - len(set(labels[rows[leaving]].tolist()))


def _symmetric_gauss_seidel(A, lower, upper):
    # A = L + D + U and M = (D + L) D^-1 (D + U): one forward and one
    # backward sweep through A's triangles lower = D + L and upper = D + U,
    # which _stationary takes from A's data by the chain's pattern. In
    # natural order each is its own factor, so splu adds no fill. A zero
    # diagonal entry makes a triangle exactly singular. SuperLU's default
    # panel size raised peak RSS by about 5 MB on the benchmark's 1,200- and
    # 5,768-state chains; a panel of 1 does not. Relaxed supernodes pay off
    # on dense blocks, not on 3-4 entries a column: relax=1 took the two
    # factorisations of the 5,768-state chain from 3.2-3.9 to 2.1-2.4 ms
    # and an application from 0.26-0.31 to 0.19-0.24 ms
    from scipy.sparse.linalg import splu
    lower, upper = (splu(T, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                         panel_size=1, relax=1) for T in (lower, upper))
    d = A.diagonal()
    return lambda r: upper.solve(d * lower.solve(r))


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

    Restarted GMRES (Saad & Schultz 1986) with right preconditioning: it
    minimises |b - A M^-1 u| over a Krylov space of A M^-1 and sets x = M^-1
    u, so that its least-squares residual is the true residual |b - A x| up
    to rounding. Each Arnoldi step orthogonalises against the whole basis
    at once, by classical Gram-Schmidt applied twice (Giraud et al., Numer.
    Math. 101, 2005), and the Givens rotations run on Python floats, since
    the Hessenberg columns hold at most _RESTART + 1 entries. A cycle of at
    most _RESTART steps ends in x += M^-1 (V y), so no preconditioned basis
    is stored; at most _MAX_RESTARTS cycles run.

    x counts as converged when its normwise backward error is at most
    _RTOL, |b - A x| <= _RTOL (|A| |x| + |b|), which also passes a
    generator whose rates are so large that rounding alone keeps |b - A x|
    above _RTOL |b|. The iteration stops when the least-squares residual
    meets that bound at the cycle's starting x, and between cycles when x
    passes the test. NaN or infinite entries fail it."""
    import math
    try:
        solve = precondition(A)
    except RuntimeError:  # an exactly singular factor
        return None
    norm = np.linalg.norm
    abs_a = abs(A)
    b_norm = float(norm(b))
    x = np.zeros(len(b))
    r = b
    V = np.empty((_RESTART + 1, len(b)))
    # the result is judged by the backward-error test below, so overflow on
    # a chain with extreme rates needs no warning
    with np.errstate(all="ignore"):
        for cycle in range(_MAX_RESTARTS + 1):
            residual = float(norm(r))
            bound = _RTOL * (float(norm(abs_a @ abs(x))) + b_norm)
            if residual <= bound:
                return x
            if cycle == _MAX_RESTARTS or not math.isfinite(residual):
                return None
            V[0] = r / residual
            g = [residual]  # Q^T (residual e_1), Q the rotations so far
            R = []  # the columns of the rotated Hessenberg matrix
            rotations = []
            for j in range(_RESTART):
                w = A @ solve(V[j])
                basis = V[:j + 1]
                h = basis @ w
                w -= h @ basis
                h2 = basis @ w
                w -= h2 @ basis
                col = (h + h2).tolist()
                w_norm = float(norm(w))
                for i, (c, s) in enumerate(rotations):
                    col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                          c * col[i + 1] - s * col[i])
                rho = math.hypot(col[j], w_norm)
                if rho == 0.0:  # A M^-1 is singular on the Krylov space
                    return None
                c, s = col[j] / rho, w_norm / rho
                col[j] = rho
                rotations.append((c, s))
                R.append(col)
                g.append(-s * g[j])
                g[j] *= c
                if abs(g[-1]) <= bound or w_norm == 0.0:
                    break
                V[j + 1] = w / w_norm
            # back substitution for y in R y = g[:k]
            k = len(R)
            y = g[:k]
            for i in range(k - 1, -1, -1):
                y[i] /= R[i][i]
                for m in range(i):
                    y[m] -= R[i][m] * y[i]
            x = x + solve(np.array(y) @ V[:k])
            r = b - A @ x
