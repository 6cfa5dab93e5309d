"""Two-level factorial designs and effect estimation."""

import csv
import itertools

import numpy as np
import pytest

from hlfspn.doe import DesignError, effects, signs
from hlfspn.experiments import ExperimentSpec, SpecError, write_interaction_csv
from hlfspn.hlf import HlfConfig
from hlfspn.spn import SimConfig

# Frozen 2^3 reference matrix in standard order: x3 alternates every run,
# x2 every two runs, x1 every four; interaction columns are sign products.
STD_2_3 = {
    "x1": [-1, -1, -1, -1, +1, +1, +1, +1],
    "x2": [-1, -1, +1, +1, -1, -1, +1, +1],
    "x3": [-1, +1, -1, +1, -1, +1, -1, +1],
    ("x1", "x2"): [+1, +1, -1, -1, -1, -1, +1, +1],
    ("x1", "x3"): [+1, -1, +1, -1, -1, +1, -1, +1],
    ("x2", "x3"): [+1, -1, -1, +1, +1, -1, -1, +1],
    ("x1", "x2", "x3"): [-1, +1, +1, -1, +1, -1, -1, +1],
}
NAMES_2_3 = ("x1", "x2", "x3")


def doe_spec(*factors):
    return ExperimentSpec(base=HlfConfig(), sim=SimConfig(), sweep=factors,
                          doe_response="mrt_s")


class TestDesignMatrix:
    def test_standard_order_matches_reference(self):
        assert signs(3).T.tolist() == [STD_2_3[n] for n in NAMES_2_3]
        # the response that is 1 at run i alone has, for each term, the
        # effect sign(term, run i) / 4: every column, interactions included
        for i, y in enumerate(np.eye(8)):
            table = dict(effects(NAMES_2_3, y))
            for key, column in STD_2_3.items():
                term = (key,) if isinstance(key, str) else key
                assert table[term] == column[i] / 4

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_balance_and_orthogonality(self, k):
        design = signs(k)
        assert design.shape == (2 ** k, k)
        for j in range(k):
            assert design[:, j].sum() == 0
        for a in range(k):
            for b in range(a + 1, k):
                assert (design[:, a] * design[:, b]).sum() == 0

    def test_terms_enumerate_all_interactions(self):
        terms = [term for term, _ in effects(NAMES_2_3, np.zeros(8))]
        assert len(terms) == 7
        assert terms[0] == ("x1",)
        assert ("x1", "x2", "x3") in terms

    def test_settings_map_signs_to_levels(self):
        points = doe_spec(("ep", (2, 6)), ("timeout_s", (0.1, 100))).points()
        assert points[0] == (("ep", 2), ("timeout_s", 0.1))
        assert points[3] == (("ep", 6), ("timeout_s", 100))
        # the points follow the sign matrix, whichever level comes first
        levels = ((6, 2), (1, 3))
        points = doe_spec(("cp", levels[0]), ("ep", levels[1])).points()
        for point, row in zip(points, signs(2)):
            assert [v for _, v in point] == [
                pair[int(s > 0)] for pair, s in zip(levels, row)]

    def test_invalid_designs_rejected(self, monkeypatch):
        with pytest.raises(SpecError, match="factor count 0"):
            doe_spec()
        with pytest.raises(SpecError, match="'cp' and 'cp'"):
            doe_spec(("cp", (1, 2)), ("cp", (2, 3)))
        with pytest.raises(SpecError, match="two distinct levels"):
            doe_spec(("cp", (1.0, 1.0)))
        # the count is checked before 2^13 points are listed
        def no_points(self):
            raise AssertionError("points listed before the count check")

        monkeypatch.setattr(ExperimentSpec, "points", no_points)
        with pytest.raises(SpecError, match="factor count 13"):
            doe_spec(*((f"x{i}", (0, 1)) for i in range(13)))


class TestEffects:
    def test_linear_response_recovered_exactly(self):
        # y = 3 + 5 x1 - 2 x2 + 0.5 x1 x2 in coded units: each effect is
        # twice its coefficient, recovered to machine precision
        x1, x2 = signs(2).T
        y = 3.0 + 5.0 * x1 - 2.0 * x2 + 0.5 * x1 * x2
        table = dict(effects(("x1", "x2"), y))
        assert table[("x1",)] == pytest.approx(10.0, abs=1e-12)
        assert table[("x2",)] == pytest.approx(-4.0, abs=1e-12)
        assert table[("x1", "x2")] == pytest.approx(1.0, abs=1e-12)

    def test_response_length_checked(self):
        with pytest.raises(DesignError):
            effects(NAMES_2_3, [1.0, 2.0])


def interaction_cells(tmp_path, y):
    """The x1-by-x2 cells of a 2^3 design at levels 0 and 1, read back from
    the interaction CSV, keyed by (x1, x2) level."""
    points = list(itertools.product(*([(n, v) for v in (0, 1)]
                                      for n in NAMES_2_3)))
    path = tmp_path / "interaction.csv"
    write_interaction_csv(path, points, y, "x1", "x2")
    with open(path, newline="") as fh:
        return {(int(a), int(b)): float(mean)
                for a, b, mean in list(csv.reader(fh))[1:]}


class TestInteractionTable:
    def test_additive_model_gives_parallel_lines(self, tmp_path):
        x1, x2, _ = signs(3).T
        cells = interaction_cells(tmp_path, 2.0 * x1 + 3.0 * x2)
        # no interaction: the x2 gap is the same at both x1 levels
        gap_low = cells[(0, 1)] - cells[(0, 0)]
        gap_high = cells[(1, 1)] - cells[(1, 0)]
        assert gap_low == pytest.approx(gap_high)

    def test_interaction_breaks_parallelism(self, tmp_path):
        x1, x2, _ = signs(3).T
        cells = interaction_cells(tmp_path, 4.0 * x1 * x2)
        gap_low = cells[(0, 1)] - cells[(0, 0)]
        gap_high = cells[(1, 1)] - cells[(1, 0)]
        assert gap_low == pytest.approx(-gap_high)
        assert gap_low != pytest.approx(gap_high)
