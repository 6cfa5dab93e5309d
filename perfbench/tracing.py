"""In-memory tracing for the benchmark, without changes to ``src/``.

A ``Tracer`` replaces module-level names (and two class attributes) that the
program calls through, and puts the originals back on exit:

- always: a span around each coarse layer call (net build, validation,
  compile, simulate, metric report, point evaluation, CTMC solve, stationary
  solve, linear solve);
- with ``counters=True`` also aggregate counters and timers on the calls made
  millions of times per run: ``CompiledNet.degree`` and ``fire_inplace``, the
  heap operations ``spn.engine`` calls, ``Random.expovariate`` and
  ``ctmc._resolve_vanishing``. Each span records how much every counter grew
  while it was open, so counts can be split between layers.

A name the program no longer has is skipped and listed in ``missing``, so a
refactor degrades the per-layer numbers to zero instead of stopping the
benchmark.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field

import numpy
from hlfspn import experiments, hlf, metrics
from hlfspn.spn import ctmc, engine

COUNTERS = ("degree_calls", "degree_s", "fire_calls", "fire_s",
            "heap_pushes", "heap_pops", "stale_pops", "exp_draws",
            "vanishing_calls")
(_DEG_N, _DEG_T, _FIRE_N, _FIRE_T, _PUSH, _POP, _STALE, _EXP,
 _VAN) = range(len(COUNTERS))

# (owner, attribute, span name). A layer is wrapped both where it is defined
# and where another module imported the name.
_SPANS = (
    (hlf, "build_hlf_net", "hlf.build"),
    (experiments, "build_hlf_net", "hlf.build"),
    (hlf, "validate_net", "net.validate"),
    (engine, "validate_net", "net.validate"),
    (engine, "compile_net", "engine.compile"),
    (ctmc, "compile_net", "engine.compile"),
    (engine, "simulate_stationary", "engine.simulate"),
    (experiments, "simulate_stationary", "engine.simulate"),
    (metrics, "metric_report", "metrics.report"),
    (experiments, "metric_report", "metrics.report"),
    (experiments, "evaluate_config", "experiments.evaluate"),
    (ctmc, "solve_ctmc", "ctmc.solve"),
    (ctmc, "_stationary", "ctmc.stationary"),
    (ctmc, "spsolve", "ctmc.linsolve"),
    (numpy.linalg, "lstsq", "ctmc.linsolve"),
)


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    counts: list = field(default_factory=list)  # counter growth while open
    notes: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _generator_size(args) -> dict:
    """States and stored nonzeros of the generator ``ctmc._stationary`` is
    handed as (n, rows, cols, rates) off-diagonal triplets."""
    try:
        n, rows, cols = args[0], args[1], args[2]
        return {"states": n, "nnz": len(set(zip(rows, cols))) + n}
    except (IndexError, TypeError):
        return {}


class Tracer:
    def __init__(self, counters: bool = False):
        self.counters = counters
        self.cells = [0] * len(COUNTERS)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open: list[Span] = []
        self._patches: list = []

    # -- installing ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, name in _SPANS:
            self._patch(owner, attr, lambda fn, name=name:
                        self._spanned(fn, name))
        if self.counters:
            cells = self.cells
            cls = engine.CompiledNet
            self._patch(cls, "degree",
                        lambda fn: _count_timed(fn, cells, _DEG_N, _DEG_T))
            self._patch(cls, "fire_inplace",
                        lambda fn: _count_timed(fn, cells, _FIRE_N, _FIRE_T))
            self._patch(engine, "heappush", lambda fn: _count_push(fn, cells))
            self._patch(engine, "heappop", lambda fn: _count_pop(fn, cells))
            self._patch(random.Random, "expovariate",
                        lambda fn: _count(fn, cells, _EXP))
            self._patch(ctmc, "_resolve_vanishing",
                        lambda fn: _count(fn, cells, _VAN))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _spanned(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1].id if self._open else -1
            span = Span(len(self.spans), parent, name, 0.0)
            self.spans.append(span)
            self._open.append(span)
            before = list(self.cells)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                span.counts = [a - b for a, b in zip(self.cells, before)]
                if name == "ctmc.stationary":
                    span.notes = _generator_size(args)
        return wrapper

    # -- reading ------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Seconds in `name` spans not covered by their child spans."""
        return sum(s.seconds - sum(c.seconds for c in self.children(s))
                   for s in self.named(name))

    def counted(self, name: str, counter: str):
        """Growth of a counter while `name` spans were open."""
        k = COUNTERS.index(counter)
        return sum(s.counts[k] for s in self.named(name))

    def note(self, name: str, key: str):
        return sum(s.notes.get(key, 0) for s in self.named(name))

    def dump(self, origin: float) -> list[dict]:
        """Spans as JSON-ready records, times relative to `origin`."""
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start_s": s.start - origin, "seconds": s.seconds,
                 "counts": dict(zip(COUNTERS, s.counts)), **s.notes}
                for s in self.spans]


def _count(fn, cells: list, n: int):
    def wrapper(*args, **kwargs):
        cells[n] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_timed(fn, cells: list, n: int, t: int):
    clock = time.perf_counter

    def wrapper(*args):
        t0 = clock()
        result = fn(*args)
        cells[t] += clock() - t0
        cells[n] += 1
        return result
    return wrapper


def _count_push(fn, cells: list):
    def heappush(heap, item):
        cells[_PUSH] += 1
        fn(heap, item)
    return heappush


def _count_pop(fn, cells: list):
    """Counts pops, and as stale those of an entry whose last field (the
    engine's live flag) is false: a firing cancelled by race-with-restart."""
    def heappop(heap):
        item = fn(heap)
        cells[_POP] += 1
        if type(item) is list and not item[-1]:
            cells[_STALE] += 1
        return item
    return heappop
