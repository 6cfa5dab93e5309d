"""Net data model: predicates, validation, basic invariants."""

import math

import numpy as np
import pytest

from hlfspn.spn import (
    And,
    Arc,
    Atom,
    ContractViolationError,
    Deterministic,
    Exponential,
    FlushAll,
    Flushed,
    Immediate,
    Not,
    Or,
    PetriNet,
    Place,
    ProbabilityOf,
    Transition,
    predicate_places,
    validate_net,
)
from hlfspn.spn.engine import CompiledNet


def two_place_net(*transitions):
    return PetriNet(places=(Place("A", 1), Place("B", 0)),
                    transitions=transitions)


class TestConstruction:
    def test_arc_defaults_to_count_one(self):
        assert Arc("A").count == 1

    def test_zero_arc_constant_rejected(self):
        with pytest.raises(ValueError):
            Arc("A", 0)

    def test_non_integral_arc_constant_rejected(self):
        for k in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="integer"):
                Arc("A", k)
        # an integral float or numpy integer is stored as an int, and a
        # bare int compiles as its weight
        assert type(Arc("A", 2.0).count) is int
        assert type(Arc("A", np.int64(2)).count) is int
        cn = CompiledNet(two_place_net(Transition(
            "T", Immediate(), input_arcs=(Arc("A", 2.0),),
            output_arcs=(Arc("B", 3),))))
        assert cn.trans[0].const_in == [(0, 2)]
        assert cn.trans[0].const_out == [(1, 3)]

    def test_non_integral_guard_threshold_rejected(self):
        for rhs in (1.5, np.float64(2.5), math.nan, math.inf):
            with pytest.raises(ValueError, match="integer"):
                Atom("A", ">=", rhs)
        # stored as an int; a negative threshold is allowed
        for rhs in (2.0, np.int64(2)):
            assert type(Atom("A", ">=", rhs).rhs) is int
        assert Atom("A", ">", -1.0).rhs == -1

    def test_negative_initial_tokens_rejected(self):
        with pytest.raises(ValueError):
            Place("A", -1)

    def test_non_integral_initial_tokens_rejected(self):
        for tokens in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="integer"):
                Place("A", tokens)
        # stored as an int
        for tokens in (2.0, np.int64(2)):
            assert type(Place("A", tokens).initial_tokens) is int

    def test_bad_comparison_operator_rejected(self):
        with pytest.raises(ValueError):
            Atom("A", "==", 0)

    def test_nonpositive_delays_rejected(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Deterministic(-1.0)
        # a NaN or infinite weight would win every weighted choice
        for weight in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="immediate weight"):
                Immediate(weight=weight)
        for delay in (math.inf, math.nan):
            with pytest.raises(ValueError):
                Exponential(delay)
        with pytest.raises(ValueError):
            Deterministic(math.nan)
        assert Deterministic(math.inf).delay == math.inf  # never fires

    def test_non_integral_priority_rejected(self):
        # a NaN priority compares false with every other, so the conflict
        # set it joined depended on which transition the net listed first
        for priority in (math.nan, math.inf, 1.5):
            with pytest.raises(ValueError, match="immediate priority"):
                Immediate(priority=priority)
        # stored as an int, as a guard threshold is
        for priority in (2.0, np.int64(2)):
            kind = Immediate(priority=priority)
            assert type(kind.priority) is int
            assert kind == Immediate(priority=2)

    def test_initial_marking(self):
        cn = CompiledNet(two_place_net())
        assert cn.place_names == ["A", "B"]
        assert cn.initial == [1, 0]


def holds(pred, tokens) -> int:
    """A predicate's value in a marking, 1 or 0, as the compiled rate reward
    ProbabilityOf(pred) computes it."""
    cn = CompiledNet(PetriNet(
        places=tuple(Place(name, k) for name, k in tokens.items()),
        transitions=()))
    (value,) = cn.rewards(cn.reward_plan([ProbabilityOf(pred)])[0])(
        cn.initial)
    return value


class TestPredicates:
    TOKENS = {"A": 3, "B": 0}

    @pytest.mark.parametrize("op,rhs,expected", [
        ("=", 3, True), ("=", 2, False),
        ("!=", 2, True), ("!=", 3, False),
        ("<", 4, True), ("<", 3, False),
        ("<=", 3, True), ("<=", 2, False),
        (">", 2, True), (">", 3, False),
        (">=", 3, True), (">=", 4, False),
    ])
    def test_comparison_table(self, op, rhs, expected):
        pred = Atom("A", op, rhs)
        assert holds(pred, self.TOKENS) == int(expected)

    def test_place_operand(self):
        assert holds(Atom("A", ">", "B"), self.TOKENS)
        assert not holds(Atom("B", ">", "A"), self.TOKENS)

    def test_connectives(self):
        t = Atom("A", ">", 0)
        f = Atom("B", ">", 0)
        assert holds(And(t, t), self.TOKENS)
        assert not holds(And(t, f), self.TOKENS)
        assert holds(Or(f, t), self.TOKENS)
        assert not holds(Or(f, f), self.TOKENS)
        assert holds(Not(f), self.TOKENS)

    def test_unknown_names_raise(self):
        with pytest.raises(ContractViolationError):
            holds(Atom("Z", "=", 0), self.TOKENS)
        with pytest.raises(ContractViolationError):
            holds(Atom("A", "=", "Z"), self.TOKENS)

    def test_predicate_places_includes_rhs(self):
        pred = And(Atom("A", ">", "B"), Atom("B", "=", 0))
        assert predicate_places(pred) == {"A", "B"}


class TestValidation:
    def test_clean_net(self):
        net = two_place_net(
            Transition("T", Immediate(), input_arcs=(Arc("A"),),
                       output_arcs=(Arc("B"),)))
        assert validate_net(net) == []

    def test_duplicate_place(self):
        net = PetriNet(places=(Place("A"), Place("A")), transitions=())
        assert any("duplicate place" in d for d in validate_net(net))

    def test_duplicate_transition(self):
        net = two_place_net(Transition("T", Immediate()),
                            Transition("T", Immediate()))
        assert any("duplicate transition" in d for d in validate_net(net))

    def test_transition_place_name_clash(self):
        net = two_place_net(Transition("A", Immediate()))
        assert any("clashes" in d for d in validate_net(net))

    def test_unknown_place_in_arcs_and_guard(self):
        net = two_place_net(
            Transition("T", Immediate(), input_arcs=(Arc("Z"),)),
            Transition("U", Immediate(), output_arcs=(Arc("Y"),)),
            Transition("V", Immediate(), guard=Atom("X", "=", 0)))
        messages = validate_net(net)
        assert any("'Z'" in msg for msg in messages)
        assert any("'Y'" in msg for msg in messages)
        assert any("'X'" in msg for msg in messages)

    def test_multiple_arcs_between_same_pair(self):
        for side in ("input", "output"):
            arcs = {f"{side}_arcs": (Arc("A"), Arc("A", 2))}
            net = two_place_net(Transition("T", Immediate(), **arcs))
            assert any(f"multiple {side} arcs" in d
                       for d in validate_net(net)), side

    def test_flushed_output_requires_flush_all_input(self):
        net = two_place_net(
            Transition("T", Immediate(), input_arcs=(Arc("A"),),
                       output_arcs=(Arc("B", Flushed()),)))
        assert any("Flushed output without" in d for d in validate_net(net))

    def test_flush_expressions_on_wrong_side(self):
        net = two_place_net(
            Transition("T", Immediate(),
                       input_arcs=(Arc("A", Flushed()),),
                       output_arcs=(Arc("B", FlushAll()),)))
        messages = validate_net(net)
        assert any("Flushed expression on an input arc" in m
                   for m in messages)
        assert any("FlushAll expression on an output arc" in m
                   for m in messages)
