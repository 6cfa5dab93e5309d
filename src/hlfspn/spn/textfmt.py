"""Text renderings of a net: guard expressions and DOT export.

Guards read like ``(#OPF3_1 >= BLOCK and #CLK_EXP = 1)``. Arc labels are an
integer, a parameter name, ``all`` (flush the place) or ``flushed`` (emit
as many tokens as were flushed).
"""

from __future__ import annotations

from .net import (
    And,
    Atom,
    Constant,
    Exponential,
    FlushAll,
    Flushed,
    Immediate,
    IntRhs,
    Not,
    Or,
    ParamRhs,
    PetriNet,
    Predicate,
)


def guard_to_text(pred: Predicate) -> str:
    if isinstance(pred, Atom):
        rhs = pred.rhs
        if isinstance(rhs, IntRhs):
            r = str(rhs.value)
        elif isinstance(rhs, ParamRhs):
            r = rhs.name
        else:
            r = f"#{rhs.place}"
        return f"#{pred.place} {pred.op} {r}"
    if isinstance(pred, And):
        return f"({guard_to_text(pred.left)} and {guard_to_text(pred.right)})"
    if isinstance(pred, Or):
        return f"({guard_to_text(pred.left)} or {guard_to_text(pred.right)})"
    if isinstance(pred, Not):
        return f"not ({guard_to_text(pred.operand)})"
    raise TypeError(f"not a predicate: {pred!r}")


def _count_to_text(count) -> str:
    if isinstance(count, FlushAll):
        return "all"
    if isinstance(count, Flushed):
        return "flushed"
    if isinstance(count, Constant):
        return str(count.k)
    return count.name


# ---------------------------------------------------------------------------
# DOT export

def to_dot(net: PetriNet) -> str:
    """Deterministic DOT rendering: places as circles, transitions as bars."""
    out = ["digraph petri_net {", "  rankdir=TB;"]
    for p in net.places:
        label = p.name if p.initial_tokens == 0 else \
            f"{p.name}\\n{p.initial_tokens}"
        out.append(f'  "{p.name}" [shape=circle, label="{label}"];')
    for t in net.transitions:
        kind = t.kind
        if isinstance(kind, Immediate):
            style = "shape=box, style=filled, fillcolor=black, " \
                "fontcolor=white, height=0.1"
            label = t.name
        elif isinstance(kind, Exponential):
            style = "shape=box"
            label = f"{t.name}\\nexp {kind.mean_delay}"
        else:
            style = "shape=box, style=filled, fillcolor=gray"
            label = f"{t.name}\\ndet {kind.delay}"
        if t.guard is not None:
            label += f"\\n[{guard_to_text(t.guard)}]"
        out.append(f'  "{t.name}" [{style}, label="{label}"];')
    for t in net.transitions:
        for arc in t.input_arcs:
            out.append(_dot_edge(arc.place, t.name, arc.count))
        for arc in t.output_arcs:
            out.append(_dot_edge(t.name, arc.place, arc.count))
    out.append("}")
    return "\n".join(out) + "\n"


def _dot_edge(src: str, dst: str, count) -> str:
    label = _count_to_text(count)
    if label == "1":
        return f'  "{src}" -> "{dst}";'
    return f'  "{src}" -> "{dst}" [label="{label}"];'
