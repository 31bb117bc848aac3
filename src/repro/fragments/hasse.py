"""The Hasse diagram of fragment expressiveness (Figure 1).

Figure 1 of the paper arranges the sixteen fragments over {E, I, N, R} into
eleven equivalence classes and draws the subsumption order between them
(arity and packing are omitted because they are redundant regardless of the
other features).  This module recomputes that diagram from the Theorem 6.1
characterisation and offers it both as a :class:`networkx.DiGraph` (cover
edges only) and as a text rendering; :data:`EXPECTED_FIGURE1_CLASSES` and
:data:`EXPECTED_FIGURE1_COVER_EDGES` record the diagram exactly as printed in
the paper so the benchmark can verify the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.fragments.fragment import Fragment, core_fragments
from repro.fragments.subsumption import equivalence_classes, is_subsumed

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = [
    "EXPECTED_FIGURE1_CLASSES",
    "EXPECTED_FIGURE1_COVER_EDGES",
    "HasseDiagram",
    "build_hasse_diagram",
    "class_label",
]


def class_label(members: Iterable[Fragment]) -> str:
    """Render an equivalence class the way Figure 1 prints it, e.g. ``{E} = {I} = {E, I}``."""
    ordered = sorted(members, key=lambda fragment: (len(fragment), fragment.letters))
    return " = ".join(str(fragment) for fragment in ordered)


#: The eleven equivalence classes of Figure 1 (each class as a set of letter-strings).
EXPECTED_FIGURE1_CLASSES: frozenset[frozenset[str]] = frozenset({
    frozenset({"INR", "EINR"}),
    frozenset({"IN", "EIN"}),
    frozenset({"ENR"}),
    frozenset({"IR", "EIR"}),
    frozenset({"EN"}),
    frozenset({"NR"}),
    frozenset({"ER"}),
    frozenset({"N"}),
    frozenset({"E", "I", "EI"}),
    frozenset({"R"}),
    frozenset({""}),
})

#: The cover edges of the Figure 1 order (its transitive reduction), from the
#: smaller class to the larger class, each class named by its smallest
#: representative's letters.  "Ascending paths" in Figure 1 are exactly the
#: directed paths of this relation.
EXPECTED_FIGURE1_COVER_EDGES: frozenset[tuple[str, str]] = frozenset({
    ("", "N"),
    ("", "E"),
    ("", "R"),
    ("N", "EN"),
    ("N", "NR"),
    ("E", "EN"),
    ("E", "ER"),
    ("R", "NR"),
    ("R", "ER"),
    ("EN", "ENR"),
    ("EN", "IN"),
    ("NR", "ENR"),
    ("ER", "ENR"),
    ("ER", "IR"),
    ("IN", "INR"),
    ("IR", "INR"),
    ("ENR", "INR"),
})


@dataclass(frozen=True)
class HasseDiagram:
    """The computed expressiveness order of fragment equivalence classes."""

    classes: tuple[frozenset[Fragment], ...]
    graph: nx.DiGraph  # nodes: class representative letter-strings; edges: cover relation

    @property
    def class_count(self) -> int:
        """Number of equivalence classes (eleven for the core fragments)."""
        return len(self.classes)

    def representative_of(self, fragment: "Fragment | str") -> str:
        """Return the representative letters of the class containing *fragment*."""
        target = fragment if isinstance(fragment, Fragment) else Fragment(fragment)
        for members in self.classes:
            if target in members:
                return _representative(members)
        raise KeyError(f"fragment {target} is not part of this diagram")

    def class_letter_sets(self) -> frozenset[frozenset[str]]:
        """The classes as sets of letter-strings, for comparison with Figure 1."""
        return frozenset(
            frozenset(member.letters for member in members) for members in self.classes
        )

    def cover_edges(self) -> frozenset[tuple[str, str]]:
        """The cover edges, as pairs of class representative letter-strings."""
        return frozenset(self.graph.edges())

    def matches_figure1(self) -> bool:
        """Return ``True`` if classes and cover edges equal the published Figure 1."""
        return (
            self.class_letter_sets() == EXPECTED_FIGURE1_CLASSES
            and self.cover_edges() == EXPECTED_FIGURE1_COVER_EDGES
        )

    def to_text(self) -> str:
        """Render the diagram level by level (an ASCII stand-in for Figure 1)."""
        levels = _levels(self.graph)
        lines = ["Hasse diagram of Sequence Datalog fragments (Figure 1):"]
        for depth in sorted(levels, reverse=True):
            labels = []
            for representative in sorted(levels[depth]):
                members = self._members_by_representative(representative)
                labels.append(class_label(members))
            lines.append("  level {:d}:  {}".format(depth, "   |   ".join(labels)))
        lines.append("")
        lines.append("cover edges (lower ≤ upper):")
        for lower, upper in sorted(self.cover_edges()):
            lines.append(f"  {{{','.join(lower)}}} < {{{','.join(upper)}}}")
        return "\n".join(lines)

    def _members_by_representative(self, representative: str) -> frozenset[Fragment]:
        for members in self.classes:
            if _representative(members) == representative:
                return members
        raise KeyError(representative)


def _representative(members: Iterable[Fragment]) -> str:
    """The smallest member's letters name the class."""
    ordered = sorted(members, key=lambda fragment: (len(fragment), fragment.letters))
    return ordered[0].letters


def _levels(graph: nx.DiGraph) -> dict[int, list[str]]:
    """Longest-path depth of each node from the bottom (for text rendering)."""
    import networkx as nx

    depth: dict[str, int] = {}
    for node in nx.topological_sort(graph):
        predecessors = list(graph.predecessors(node))
        depth[node] = 0 if not predecessors else 1 + max(depth[p] for p in predecessors)
    levels: dict[int, list[str]] = {}
    for node, level in depth.items():
        levels.setdefault(level, []).append(node)
    return levels


def build_hasse_diagram(fragments: Iterable[Fragment] | None = None) -> HasseDiagram:
    """Compute the expressiveness Hasse diagram of *fragments* (default: Figure 1's sixteen)."""
    import networkx as nx

    pool = list(fragments) if fragments is not None else core_fragments()
    classes = tuple(equivalence_classes(pool))
    representatives = {members: _representative(members) for members in classes}

    graph = nx.DiGraph()
    graph.add_nodes_from(representatives.values())

    def below(first: frozenset[Fragment], second: frozenset[Fragment]) -> bool:
        return is_subsumed(next(iter(first)), next(iter(second)))

    # Full order between classes, then reduce to cover edges.
    order: set[tuple[str, str]] = set()
    for lower in classes:
        for upper in classes:
            if lower is upper:
                continue
            if below(lower, upper):
                order.add((representatives[lower], representatives[upper]))

    for lower, upper in order:
        # (lower, upper) is a cover edge when no class sits strictly in between.
        intermediate = any(
            (lower, middle) in order and (middle, upper) in order
            for middle in representatives.values()
            if middle not in (lower, upper)
        )
        if not intermediate:
            graph.add_edge(lower, upper)

    return HasseDiagram(classes=classes, graph=graph)
