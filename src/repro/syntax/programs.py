"""Strata and programs (Section 2.2 and 2.3).

A *program* is a finite sequence of strata; a stratum is a finite set of safe
rules; the use of negation must be stratified: when a negated predicate
``¬P(...)`` occurs in some stratum, no rule of that stratum or of a later
stratum may use ``P`` in its head.

The relation names of a program split into EDB names (never used in a head)
and IDB names (used in some head).  A program is *semipositive* when negated
predicates only use EDB relation names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.errors import StratificationError, SyntaxSemanticError
from repro.model.schema import Schema
from repro.syntax.literals import Predicate
from repro.syntax.rules import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["Stratum", "Program", "stratify_rules", "strongly_connected_components"]


def strongly_connected_components(
    successors: "Mapping[str, Iterable[str]]",
) -> "list[set[str]]":
    """The strongly connected components of a directed graph (Tarjan, iterative).

    *successors* maps a node to the nodes it has an edge to; a node named
    only as a successor counts too.  Components come out callees first: a
    component appears after every component it can reach.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[set[str]] = []
    for root in successors:
        if root in index:
            continue
        work = [(root, iter(successors[root]))]
        while work:
            node, children = work[-1]
            if node not in index:
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            for child in children:
                if child not in index:
                    work.append((child, iter(successors.get(child, ()))))
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: set[str] = set()
                    while node not in component:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                    components.append(component)
    return components


class Stratum:
    """A finite set of safe rules, evaluated together as one semipositive program."""

    __slots__ = ("_rules",)

    def __init__(self, rules: Iterable[Rule] = (), *, validate: bool = True):
        unique: list[Rule] = []
        seen: set[Rule] = set()
        for item in rules:
            if not isinstance(item, Rule):
                raise SyntaxSemanticError(f"strata contain rules, got {item!r}")
            if item not in seen:
                seen.add(item)
                unique.append(item)
        self._rules = tuple(unique)
        if validate:
            for item in self._rules:
                item.check_safe()

    @property
    def rules(self) -> tuple[Rule, ...]:
        """The rules of this stratum (duplicates removed, original order kept)."""
        return self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def head_relation_names(self) -> frozenset[str]:
        """Relation names defined (used in a head) by this stratum."""
        return frozenset(rule.head.name for rule in self._rules)

    def body_relation_names(self) -> frozenset[str]:
        """Relation names used in bodies of this stratum."""
        names: set[str] = set()
        for rule in self._rules:
            names.update(rule.body_relation_names())
        return frozenset(names)

    def negated_relation_names(self) -> frozenset[str]:
        """Relation names used under negation in this stratum."""
        names: set[str] = set()
        for rule in self._rules:
            names.update(rule.negative_body_relation_names())
        return frozenset(names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Stratum) and frozenset(self._rules) == frozenset(other._rules)

    def __hash__(self) -> int:
        return hash(frozenset(self._rules))

    def __repr__(self) -> str:
        return f"Stratum({list(self._rules)!r})"

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self._rules)


class Program:
    """A Sequence Datalog program: a finite sequence of strata."""

    __slots__ = ("_strata",)

    def __init__(self, strata: Iterable["Stratum | Iterable[Rule]"] = (), *, validate: bool = True):
        built: list[Stratum] = []
        for stratum in strata:
            if isinstance(stratum, Stratum):
                built.append(stratum)
            else:
                built.append(Stratum(stratum, validate=validate))
        self._strata = tuple(built)
        if validate:
            self._check_arities()
            self._check_stratification()

    # -- constructors ---------------------------------------------------------------------

    @staticmethod
    def single_stratum(rules: Iterable[Rule], *, validate: bool = True) -> "Program":
        """Build a single-stratum program from *rules*."""
        return Program([Stratum(rules, validate=validate)], validate=validate)

    @staticmethod
    def from_rules(rules: Iterable[Rule], *, validate: bool = True) -> "Program":
        """Build a program from an unordered set of rules, stratifying automatically.

        Raises :class:`StratificationError` if the rules cannot be stratified
        (i.e. there is a cycle through negation).
        """
        strata = stratify_rules(list(rules))
        return Program(strata, validate=validate)

    # -- structure --------------------------------------------------------------------------

    @property
    def strata(self) -> tuple[Stratum, ...]:
        """The strata, in evaluation order."""
        return self._strata

    def rules(self) -> tuple[Rule, ...]:
        """All rules of the program, stratum by stratum."""
        return tuple(rule for stratum in self._strata for rule in stratum)

    def rule_count(self) -> int:
        """The total number of rules."""
        return sum(len(stratum) for stratum in self._strata)

    def __len__(self) -> int:
        return len(self._strata)

    def __iter__(self) -> Iterator[Stratum]:
        return iter(self._strata)

    # -- relation name classification ----------------------------------------------------------

    def idb_relation_names(self) -> frozenset[str]:
        """Relation names used in the head of some rule."""
        return frozenset(rule.head.name for rule in self.rules())

    def edb_relation_names(self) -> frozenset[str]:
        """Relation names used only in bodies."""
        idb = self.idb_relation_names()
        names: set[str] = set()
        for rule in self.rules():
            names.update(rule.body_relation_names())
        return frozenset(names - idb)

    def relation_names(self) -> frozenset[str]:
        """All relation names occurring in the program."""
        names: set[str] = set()
        for rule in self.rules():
            names.update(rule.relation_names())
        return frozenset(names)

    def relation_arities(self) -> Schema:
        """Return the arity of every relation used, checking consistency."""
        arities: dict[str, int] = {}

        def record(predicate: Predicate) -> None:
            known = arities.get(predicate.name)
            if known is None:
                arities[predicate.name] = predicate.arity
            elif known != predicate.arity:
                raise SyntaxSemanticError(
                    f"relation {predicate.name!r} is used with arities {known} and {predicate.arity}"
                )

        for rule in self.rules():
            record(rule.head)
            for literal in rule.body:
                if literal.is_predicate():
                    record(literal.atom)  # type: ignore[arg-type]
        return Schema(arities)

    def is_over(self, schema: Schema) -> bool:
        """Return ``True`` if the program is *over* the given schema (Section 2.3).

        All EDB relation names must belong to the schema and no IDB relation
        name may belong to it.
        """
        return (
            self.edb_relation_names() <= schema.relation_names
            and not (self.idb_relation_names() & schema.relation_names)
        )

    # -- dependency graph and recursion -----------------------------------------------------------

    def idb_dependencies(self) -> dict[str, dict[str, bool]]:
        """The IDB dependency relation (footnote 2 of the paper), as plain dicts.

        Maps every IDB relation name ``R1`` to ``{R2: negative}`` for each
        IDB name ``R2`` occurring in the body of a rule whose head relation
        is ``R1``; ``negative`` records whether some such occurrence is
        negated.
        """
        idb = self.idb_relation_names()
        dependencies: dict[str, dict[str, bool]] = {name: {} for name in idb}
        for rule in self.rules():
            callees = dependencies[rule.head.name]
            for literal in rule.body:
                if not literal.is_predicate():
                    continue
                name = literal.atom.name  # type: ignore[union-attr]
                if name in idb:
                    callees[name] = literal.negative or callees.get(name, False)
        return dependencies

    def dependency_graph(self) -> nx.DiGraph:
        """Return :meth:`idb_dependencies` as a graph.

        Nodes are IDB relation names; there is an edge from ``R1`` to ``R2`` if
        ``R2`` occurs in the body of a rule whose head relation is ``R1``.
        Edges carry a ``negative`` attribute recording whether some such
        occurrence is negated.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for head, callees in self.idb_dependencies().items():
            graph.add_node(head)
            for name, negative in callees.items():
                graph.add_edge(head, name, negative=negative)
        return graph

    def uses_recursion(self) -> bool:
        """Return ``True`` if the dependency graph has a cycle (the R feature)."""
        return bool(self.recursive_relation_names())

    def recursive_relation_names(self) -> frozenset[str]:
        """IDB relation names that participate in a dependency cycle."""
        dependencies = self.idb_dependencies()
        recursive: set[str] = set()
        for component in strongly_connected_components(dependencies):
            if len(component) > 1:
                recursive.update(component)
            else:
                (node,) = component
                if node in dependencies[node]:
                    recursive.add(node)
        return frozenset(recursive)

    def is_semipositive(self) -> bool:
        """Return ``True`` if negated predicates only use EDB relation names."""
        edb = self.edb_relation_names()
        for rule in self.rules():
            for predicate in rule.negative_predicates():
                if predicate.name not in edb:
                    return False
        return True

    # -- validation -------------------------------------------------------------------------------

    def _check_arities(self) -> None:
        self.relation_arities()

    def _check_stratification(self) -> None:
        """Check the paper's stratification condition on the given strata order."""
        for index, stratum in enumerate(self._strata):
            negated = stratum.negated_relation_names()
            later_heads: set[str] = set()
            for later in self._strata[index:]:
                later_heads.update(later.head_relation_names())
            violating = negated & later_heads
            if violating:
                names = ", ".join(sorted(violating))
                raise StratificationError(
                    f"stratum {index} negates relation(s) {names} that are defined in "
                    f"this stratum or a later one"
                )

    # -- equality and rendering --------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and self._strata == other._strata

    def __hash__(self) -> int:
        return hash(self._strata)

    def __repr__(self) -> str:
        return f"Program({list(self._strata)!r})"

    def __str__(self) -> str:
        blocks = []
        for index, stratum in enumerate(self._strata):
            header = f"% stratum {index}" if len(self._strata) > 1 else ""
            body = str(stratum)
            blocks.append(f"{header}\n{body}".strip())
        return "\n\n".join(blocks)


def stratify_rules(rules: Sequence[Rule]) -> list[Stratum]:
    """Partition *rules* into a valid sequence of strata.

    Uses the classical precedence-graph algorithm: IDB relation names are
    nodes; a positive body occurrence gives an edge of weight 0, a negated one
    an edge of weight 1 (meaning "must be in a strictly earlier stratum").
    Raises :class:`StratificationError` when a cycle contains a negative edge.
    """
    idb = {rule.head.name for rule in rules}
    #: (body relation, head relation) → negated somewhere: the body relation
    #: must be computed no later than (strictly earlier, if negated) the head.
    edges: dict[tuple[str, str], bool] = {}
    for rule in rules:
        head = rule.head.name
        for literal in rule.body:
            if not literal.is_predicate():
                continue
            name = literal.atom.name  # type: ignore[union-attr]
            if name in idb:
                edges[name, head] = literal.negative or edges.get((name, head), False)

    # Reject cycles that contain a negative edge.
    successors: dict[str, list[str]] = {name: [] for name in idb}
    for source, target in edges:
        successors[source].append(target)
    for component in strongly_connected_components(successors):
        for (source, target), negative in edges.items():
            if negative and source in component and target in component:
                if len(component) == 1:
                    raise StratificationError(
                        f"relation {source!r} negatively depends on itself"
                    )
                raise StratificationError(
                    f"relations {sorted(component)} form a cycle through negation"
                )

    # Assign stratum numbers by longest chain of negative edges.
    level: dict[str, int] = {name: 0 for name in idb}
    changed = True
    iterations = 0
    bound = max(1, len(idb)) * (len(edges) + 1)
    while changed:
        changed = False
        iterations += 1
        if iterations > bound:
            raise StratificationError("stratification did not converge (negation cycle)")
        for (source, target), negative in edges.items():
            required = level[source] + (1 if negative else 0)
            if level[target] < required:
                level[target] = required
                changed = True

    if not rules:
        return [Stratum(())]

    max_level = max(level.values(), default=0)
    buckets: list[list[Rule]] = [[] for _ in range(max_level + 1)]
    for rule in rules:
        buckets[level[rule.head.name]].append(rule)
    return [Stratum(bucket) for bucket in buckets if bucket] or [Stratum(())]
