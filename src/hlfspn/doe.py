"""Effect estimation for two-level full factorial designs.

A design's runs are the corners of its factors' two levels in standard
order, the last factor toggling fastest (Box, Hunter & Hunter, *Statistics
for Experimenters*, 2nd ed., 2005, ch. 5): the cartesian product of each
factor's (low, high) levels, which is how `ExperimentSpec.points`
enumerates a DoE. A term's sign column is the elementwise product of its
factors' main-effect signs, and its effect is mean(response at +1) -
mean(response at -1) over that column.
"""

from __future__ import annotations

import itertools

import numpy as np


class DesignError(ValueError):
    pass


def signs(k: int) -> np.ndarray:
    """The 2^k x k main-effect sign matrix in standard order: the last
    factor alternates -,+ every run, the first in half-blocks."""
    return np.array(list(itertools.product((-1, 1), repeat=k)), dtype=int)


def effects(names, responses) -> list[tuple[tuple[str, ...], float]]:
    """(term, effect) for every main and interaction term of the factors
    `names`, mains first and then by interaction order, from responses in
    standard order."""
    k = len(names)
    y = np.asarray(responses, dtype=float)
    if y.shape != (2 ** k,):
        raise DesignError(f"expected {2 ** k} responses, got {y.shape}")
    s = signs(k)
    out = []
    for order in range(1, k + 1):
        for combo in itertools.combinations(range(k), order):
            col = np.prod(s[:, combo], axis=1)
            out.append((tuple(names[j] for j in combo),
                        float(col @ y / 2 ** (k - 1))))
    return out
