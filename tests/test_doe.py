"""Two-level factorial designs and effect estimation."""

import numpy as np
import pytest

from hlfspn.doe import (
    DesignError,
    Factor,
    effects,
    factorial_design,
    interaction_table,
)

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


def design_2_3():
    return factorial_design([Factor("x1", 0, 1), Factor("x2", 0, 1),
                             Factor("x3", 0, 1)])


class TestDesignMatrix:
    def test_standard_order_matches_reference(self):
        design = design_2_3()
        for key, column in STD_2_3.items():
            term = (key,) if isinstance(key, str) else key
            assert design.column(term).tolist() == column

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_balance_and_orthogonality(self, k):
        factors = [Factor(f"f{i}", 0, 1) for i in range(k)]
        design = factorial_design(factors)
        assert design.signs.shape == (2 ** k, k)
        for j in range(k):
            assert design.signs[:, j].sum() == 0
        for a in range(k):
            for b in range(a + 1, k):
                assert (design.signs[:, a] * design.signs[:, b]).sum() == 0

    def test_terms_enumerate_all_interactions(self):
        design = design_2_3()
        assert len(design.terms) == 7
        assert design.terms[0] == ("x1",)
        assert ("x1", "x2", "x3") in design.terms

    def test_settings_map_signs_to_levels(self):
        design = factorial_design([Factor("a", 2, 6), Factor("b", 0.1, 100)])
        assert design.settings(0) == {"a": 2, "b": 0.1}
        assert design.settings(3) == {"a": 6, "b": 100}

    def test_invalid_designs_rejected(self):
        with pytest.raises(DesignError):
            factorial_design([])
        with pytest.raises(DesignError):
            factorial_design([Factor("a", 0, 1), Factor("a", 2, 3)])
        with pytest.raises(DesignError):
            Factor("a", 1.0, 1.0)


class TestEffects:
    def test_linear_response_recovered_exactly(self):
        # y = 3 + 5 x1 - 2 x2 + 0.5 x1 x2 in coded units: each effect is
        # twice its coefficient, recovered to machine precision
        design = factorial_design([Factor("x1", 0, 1), Factor("x2", 0, 1)])
        x1 = design.column(("x1",))
        x2 = design.column(("x2",))
        y = 3.0 + 5.0 * x1 - 2.0 * x2 + 0.5 * x1 * x2
        table = effects(design, y)
        assert table.effect("x1") == pytest.approx(10.0, abs=1e-12)
        assert table.effect("x2") == pytest.approx(-4.0, abs=1e-12)
        assert table.effect("x1", "x2") == pytest.approx(1.0, abs=1e-12)

    def test_effect_lookup_is_order_insensitive(self):
        design = design_2_3()
        y = np.arange(8.0)
        table = effects(design, y)
        assert table.effect("x1", "x3") == table.effect("x3", "x1")
        with pytest.raises(DesignError):
            table.effect("nope")

    def test_ranking_sorted_by_magnitude(self):
        design = factorial_design([Factor("x1", 0, 1), Factor("x2", 0, 1)])
        y = 1.0 * design.column(("x1",)) - 7.0 * design.column(("x2",))
        ranking = effects(design, y).ranking()
        assert ranking[0][0] == ("x2",)
        mags = [abs(e) for _, e in ranking]
        assert mags == sorted(mags, reverse=True)

    def test_response_length_checked(self):
        with pytest.raises(DesignError):
            effects(design_2_3(), [1.0, 2.0])


class TestInteractionTable:
    def test_additive_model_gives_parallel_lines(self):
        design = design_2_3()
        y = 2.0 * design.column(("x1",)) + 3.0 * design.column(("x2",))
        cells = interaction_table(design, y, "x1", "x2")
        # no interaction: the x2 gap is the same at both x1 levels
        gap_low = cells[(-1, 1)] - cells[(-1, -1)]
        gap_high = cells[(1, 1)] - cells[(1, -1)]
        assert gap_low == pytest.approx(gap_high)

    def test_interaction_breaks_parallelism(self):
        design = design_2_3()
        y = 4.0 * design.column(("x1", "x2"))
        cells = interaction_table(design, y, "x1", "x2")
        gap_low = cells[(-1, 1)] - cells[(-1, -1)]
        gap_high = cells[(1, 1)] - cells[(1, -1)]
        assert gap_low == pytest.approx(-gap_high)
        assert gap_low != pytest.approx(gap_high)
