"""Two-level full factorial designs and effect estimation.

Standard-order sign matrices (the last factor toggles fastest), all
interaction columns as elementwise sign products, and effects computed as
mean(response at +1) - mean(response at -1) per column.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


class DesignError(ValueError):
    pass


@dataclass(frozen=True)
class Factor:
    name: str
    low: float
    high: float

    def __post_init__(self):
        if self.low == self.high:
            raise DesignError(f"factor {self.name!r}: low equals high")

    def level(self, sign: int) -> float:
        return self.high if sign > 0 else self.low


@dataclass(frozen=True)
class DesignMatrix:
    factors: tuple[Factor, ...]
    signs: np.ndarray              # 2^k x k main-effect signs, standard order

    @property
    def k(self) -> int:
        return len(self.factors)

    @property
    def n_runs(self) -> int:
        return 2 ** self.k

    @property
    def terms(self) -> tuple[tuple[str, ...], ...]:
        """All main and interaction terms, mains first, by interaction order."""
        names = [f.name for f in self.factors]
        out = []
        for order in range(1, self.k + 1):
            for combo in itertools.combinations(range(self.k), order):
                out.append(tuple(names[i] for i in combo))
        return tuple(out)

    def column(self, term: tuple[str, ...]) -> np.ndarray:
        names = [f.name for f in self.factors]
        col = np.ones(self.n_runs, dtype=int)
        for name in term:
            if name not in names:
                raise DesignError(f"unknown factor {name!r}")
            col = col * self.signs[:, names.index(name)]
        return col

    def settings(self, row: int) -> dict[str, float]:
        """Actual low/high parameter values for a standard-order row."""
        return {f.name: f.level(int(self.signs[row, j]))
                for j, f in enumerate(self.factors)}


def factorial_design(factors: list[Factor]) -> DesignMatrix:
    """2^k design in standard order: the last factor alternates -,+ every
    run, the first alternates in half-blocks."""
    k = len(factors)
    if not 1 <= k <= 12:
        raise DesignError(f"factor count {k} outside supported range 1..12")
    names = [f.name for f in factors]
    if len(set(names)) != k:
        raise DesignError("duplicate factor names")
    n = 2 ** k
    signs = np.empty((n, k), dtype=int)
    for j in range(k):
        period = 2 ** (k - 1 - j)  # runs between toggles of factor j
        for i in range(n):
            signs[i, j] = 1 if (i // period) % 2 else -1
    return DesignMatrix(factors=tuple(factors), signs=signs)


@dataclass(frozen=True)
class EffectsTable:
    terms: tuple[tuple[str, ...], ...]
    effects: tuple[float, ...]

    def effect(self, *names: str) -> float:
        key = tuple(sorted(names))
        for term, eff in zip(self.terms, self.effects):
            if tuple(sorted(term)) == key:
                return eff
        raise DesignError(f"no term {names!r}")

    def ranking(self) -> list[tuple[tuple[str, ...], float]]:
        """Terms sorted by absolute effect, largest first."""
        pairs = list(zip(self.terms, self.effects))
        pairs.sort(key=lambda te: -abs(te[1]))
        return pairs


def effects(design: DesignMatrix, responses) -> EffectsTable:
    """Main and interaction effects from standard-order responses."""
    y = np.asarray(responses, dtype=float)
    if y.shape != (design.n_runs,):
        raise DesignError(
            f"expected {design.n_runs} responses, got {y.shape}")
    terms = design.terms
    effs = []
    half = design.n_runs / 2
    for term in terms:
        col = design.column(term)
        effs.append(float(col @ y / half))
    return EffectsTable(terms=terms, effects=tuple(effs))


def interaction_table(design: DesignMatrix, responses, factor_a: str,
                      factor_b: str) -> dict[tuple[int, int], float]:
    """Cell means behind an interaction plot, keyed by (a_sign, b_sign)."""
    y = np.asarray(responses, dtype=float)
    if y.shape != (design.n_runs,):
        raise DesignError(
            f"expected {design.n_runs} responses, got {y.shape}")
    ca = design.column((factor_a,))
    cb = design.column((factor_b,))
    out = {}
    for sa in (-1, 1):
        for sb in (-1, 1):
            mask = (ca == sa) & (cb == sb)
            if not mask.any():
                raise DesignError("empty design cell")
            out[(sa, sb)] = float(y[mask].mean())
    return out
