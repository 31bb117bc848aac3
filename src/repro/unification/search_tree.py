"""Search trees produced by the pig-pug procedure (Figure 2).

Each node is labelled with an equation; children are generated by the
rewriting rules; edges carry the substitution and the name of the rule that
produced them.  Successful leaves are ``ϵ = ϵ`` nodes; the symbolic solution
of a successful branch is the composition of the substitutions along it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.syntax.literals import Equation
from repro.syntax.substitution import Substitution

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["SearchNode", "SearchTree"]


@dataclass
class SearchNode:
    """One node of a pig-pug search tree."""

    equation: Equation
    #: Substitution on the edge from the parent (identity at the root).
    via_substitution: Substitution = field(default_factory=Substitution)
    #: Name of the rewrite rule that produced this node ("root" at the root).
    via_rule: str = "root"
    children: list["SearchNode"] = field(default_factory=list)
    #: Leaf classification: "success", "failure", or None for inner/unexpanded nodes.
    status: str | None = None

    def is_leaf(self) -> bool:
        """Return ``True`` if the node has no children."""
        return not self.children

    def add_child(self, child: "SearchNode") -> "SearchNode":
        """Attach *child* and return it."""
        self.children.append(child)
        return child


class SearchTree:
    """The full search tree for one equation."""

    def __init__(self, root_equation: Equation):
        self.root = SearchNode(root_equation)
        self.node_count = 1

    # -- traversal -----------------------------------------------------------------------

    def nodes(self) -> Iterator[SearchNode]:
        """Iterate over all nodes, depth first."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> Iterator[SearchNode]:
        """Iterate over all leaves."""
        return (node for node in self.nodes() if node.is_leaf())

    def successful_branches(self) -> Iterator[list[SearchNode]]:
        """Yield root-to-leaf paths ending in a successful leaf."""
        def walk(node: SearchNode, prefix: list[SearchNode]) -> Iterator[list[SearchNode]]:
            path = prefix + [node]
            if node.is_leaf():
                if node.status == "success":
                    yield path
                return
            for child in node.children:
                yield from walk(child, path)

        yield from walk(self.root, [])

    def branch_solution(self, branch: list[SearchNode]) -> Substitution:
        """Compose the substitutions along a branch (earliest applied first)."""
        solution = Substitution.IDENTITY
        for node in branch[1:]:
            solution = node.via_substitution.compose(solution)
        return solution

    def solutions(self) -> list[Substitution]:
        """The symbolic solutions of all successful branches."""
        return [self.branch_solution(branch) for branch in self.successful_branches()]

    def successful_branch_count(self) -> int:
        """Number of successful branches (Figure 2's equation has four)."""
        return sum(1 for _ in self.successful_branches())

    def depth(self) -> int:
        """Length of the longest root-to-leaf path (in edges)."""
        def height(node: SearchNode) -> int:
            if node.is_leaf():
                return 0
            return 1 + max(height(child) for child in node.children)

        return height(self.root)

    # -- export ---------------------------------------------------------------------------

    def to_networkx(self) -> nx.DiGraph:
        """Export the tree as a directed graph (node labels are equation strings)."""
        import networkx as nx

        graph = nx.DiGraph()
        counter = 0

        def visit(node: SearchNode, parent_id: int | None) -> None:
            nonlocal counter
            node_id = counter
            counter += 1
            graph.add_node(node_id, equation=str(node.equation), status=node.status or "inner")
            if parent_id is not None:
                graph.add_edge(
                    parent_id,
                    node_id,
                    rule=node.via_rule,
                    substitution=str(node.via_substitution),
                )
            for child in node.children:
                visit(child, node_id)

        visit(self.root, None)
        return graph

    def render_text(self, max_nodes: int = 200) -> str:
        """An indented text rendering of the tree (truncated after *max_nodes* nodes)."""
        lines: list[str] = []

        def visit(node: SearchNode, depth: int) -> None:
            if len(lines) >= max_nodes:
                return
            marker = ""
            if node.status == "success":
                marker = "   ✔"
            elif node.status == "failure":
                marker = "   ✘"
            via = ""
            if node.via_rule != "root":
                via = f"[{node.via_rule}  {node.via_substitution}]  "
            lines.append("  " * depth + via + str(node.equation) + marker)
            for child in node.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        if len(lines) >= max_nodes:
            lines.append(f"... (truncated at {max_nodes} nodes)")
        return "\n".join(lines)
