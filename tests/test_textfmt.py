"""Guard text and DOT export."""

import pytest

import hlfspn.spn
from hlfspn.spn import (
    And,
    Arc,
    Atom,
    Deterministic,
    Exponential,
    FlushAll,
    Flushed,
    Immediate,
    Not,
    Or,
    PetriNet,
    Place,
    ServerSemantics,
    Transition,
    guard_to_text,
    to_dot,
)

# an accumulator with a batch cut: every arc-count and timing kind
EXAMPLE_NET = PetriNet(
    places=(Place("ACC", 0), Place("OUT", 0), Place("CLOCK", 1)),
    transitions=(
        Transition("CUT", Immediate(priority=2, weight=2.0),
                   input_arcs=(Arc("ACC", FlushAll()),),
                   output_arcs=(Arc("OUT", Flushed()),),
                   guard=Atom("ACC", ">=", 3)),
        Transition("FEED", Exponential(0.25),
                   output_arcs=(Arc("ACC", 1),),
                   server_semantics=ServerSemantics.INFINITE),
        Transition("TICK", Deterministic(10.0),
                   input_arcs=(Arc("CLOCK", 1),),
                   output_arcs=(Arc("CLOCK", 1),)),
    ))


class TestGuardText:
    @pytest.mark.parametrize("atom,text", [
        (Atom("A", ">=", 3), "#A >= 3"),
        (Atom("A", "<", "B"), "#A < #B"),
    ])
    def test_atom_for_each_rhs_kind(self, atom, text):
        assert guard_to_text(atom) == text

    def test_connectives_are_parenthesised(self):
        a = Atom("A", "=", 0)
        b = Atom("B", "!=", 2)
        assert guard_to_text(And(a, b)) == "(#A = 0 and #B != 2)"
        assert guard_to_text(Or(a, Not(b))) == \
            "(#A = 0 or not (#B != 2))"

    def test_rejects_a_non_predicate(self):
        with pytest.raises(TypeError):
            guard_to_text("#A = 0")


class TestDot:
    def test_contains_every_node_and_is_deterministic(self):
        dot = to_dot(EXAMPLE_NET)
        assert dot == to_dot(EXAMPLE_NET)
        for name in ("ACC", "OUT", "CLOCK", "CUT", "FEED", "TICK"):
            assert f'"{name}"' in dot
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")

    def test_edge_labels_for_non_unit_counts(self):
        net = PetriNet(
            places=(Place("A", 0), Place("B", 0)),
            transitions=(Transition(
                "T", Immediate(),
                input_arcs=(Arc("A", 3),),
                output_arcs=(Arc("B"),)),))
        dot = to_dot(net)
        assert '"A" -> "T" [label="3"]' in dot
        assert '"T" -> "B";' in dot

    def test_guard_shown_on_transition(self):
        assert "#ACC >= 3" in to_dot(EXAMPLE_NET)


def test_every_exported_name_resolves():
    for name in hlfspn.spn.__all__:
        assert hasattr(hlfspn.spn, name), name
