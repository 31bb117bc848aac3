"""Rules, limited variables, and safety (Section 2.2).

A rule is ``H ← B`` with ``H`` a predicate (the head) and ``B`` a finite set
of literals (the body).  The *limited* variables of a rule are the smallest
set such that

1. every variable occurring in a positive predicate in the body is limited;
2. if all variables occurring in one side of a positive equation in the body
   are limited, then all variables of the other side are limited too.

A rule is *safe* if every variable occurring in it is limited.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import UnsafeRuleError
from repro.syntax.expressions import PathExpression, Variable
from repro.syntax.literals import Atom, Equation, Literal, Predicate, pos
from repro.syntax.substitution import Substitution

__all__ = ["Rule", "rule", "fact_rule", "bind_equations"]


def bind_equations(pending: "list[Literal]", bound: "set[Variable]") -> "list[Literal]":
    """Move the equations *bound* reaches out of *pending*, in the order it reaches them.

    A positive equation can be evaluated once every variable of one side is
    in *bound*, and then limits the variables of its other side (rule 2 of
    the limited variables); a nonequality once all of its variables are.
    Each equation taken adds its variables to *bound*, which may reach
    further ones.  Both arguments are updated in place: what is left in
    *pending* has no side within *bound*, so for a safe rule and the
    variables of its positive predicates nothing is left.  Only ``positive``
    and ``atom`` are read of each entry, so a lowered equation that carries
    both is ordered like its literal.

    This is the one ordering of equations: the limited variables below, the
    static body order of :func:`repro.engine.evaluation.plan_body_order`,
    the join order of :class:`repro.engine.compiled.CompiledRule` and the
    elimination order of Lemma 4.5 (:mod:`repro.transform.equations`).
    """
    ordered: list[Literal] = []
    progressed = True
    while pending and progressed:
        progressed = False
        for literal in list(pending):
            equation: Equation = literal.atom  # type: ignore[assignment]
            left = equation.lhs.variables() <= bound
            right = equation.rhs.variables() <= bound
            if (left or right) if literal.positive else (left and right):
                ordered.append(literal)
                pending.remove(literal)
                bound.update(equation.variables())
                progressed = True
    return ordered


def _as_literal(item: "Literal | Atom") -> Literal:
    if isinstance(item, Literal):
        return item
    return pos(item)


class Rule:
    """A Sequence Datalog rule ``head ← body``."""

    __slots__ = ("_head", "_body", "_hash")

    def __init__(self, head: Predicate, body: Iterable["Literal | Atom"] = ()):
        if not isinstance(head, Predicate):
            raise UnsafeRuleError(f"rule heads must be predicates, got {head!r}")
        self._head = head
        self._body = tuple(_as_literal(item) for item in body)
        self._hash = hash((head, frozenset(self._body)))

    # -- components -------------------------------------------------------------------

    @property
    def head(self) -> Predicate:
        """The head predicate."""
        return self._head

    @property
    def body(self) -> tuple[Literal, ...]:
        """The body literals, in the order given."""
        return self._body

    def is_fact(self) -> bool:
        """Return ``True`` if the body is empty and the head is ground."""
        return not self._body and self._head.is_ground()

    # -- body views --------------------------------------------------------------------

    def positive_literals(self) -> Iterator[Literal]:
        """Iterate over the positive literals of the body."""
        return (literal for literal in self._body if literal.positive)

    def negative_literals(self) -> Iterator[Literal]:
        """Iterate over the negated literals of the body."""
        return (literal for literal in self._body if literal.negative)

    def positive_predicates(self) -> Iterator[Predicate]:
        """Iterate over the positive body predicates."""
        return (
            literal.atom  # type: ignore[misc]
            for literal in self._body
            if literal.positive and literal.is_predicate()
        )

    def negative_predicates(self) -> Iterator[Predicate]:
        """Iterate over the negated body predicates."""
        return (
            literal.atom  # type: ignore[misc]
            for literal in self._body
            if literal.negative and literal.is_predicate()
        )

    def positive_equations(self) -> Iterator[Equation]:
        """Iterate over the positive body equations."""
        return (
            literal.atom  # type: ignore[misc]
            for literal in self._body
            if literal.positive and literal.is_equation()
        )

    def negative_equations(self) -> Iterator[Equation]:
        """Iterate over the negated body equations (nonequalities)."""
        return (
            literal.atom  # type: ignore[misc]
            for literal in self._body
            if literal.negative and literal.is_equation()
        )

    def body_relation_names(self) -> frozenset[str]:
        """Relation names used (positively or negatively) in the body."""
        return frozenset(
            literal.atom.name  # type: ignore[union-attr]
            for literal in self._body
            if literal.is_predicate()
        )

    def positive_body_relation_names(self) -> frozenset[str]:
        """Relation names used positively in the body."""
        return frozenset(predicate.name for predicate in self.positive_predicates())

    def negative_body_relation_names(self) -> frozenset[str]:
        """Relation names used under negation in the body."""
        return frozenset(predicate.name for predicate in self.negative_predicates())

    def relation_names(self) -> frozenset[str]:
        """All relation names occurring in the rule (head and body)."""
        return self.body_relation_names() | {self._head.name}

    # -- variables, safety ----------------------------------------------------------------

    def variables(self) -> frozenset[Variable]:
        """All variables occurring anywhere in the rule."""
        found: set[Variable] = set(self._head.variables())
        for literal in self._body:
            found.update(literal.variables())
        return frozenset(found)

    def body_variables(self) -> frozenset[Variable]:
        """All variables occurring in the body."""
        found: set[Variable] = set()
        for literal in self._body:
            found.update(literal.variables())
        return frozenset(found)

    def limited_variables(self) -> frozenset[Variable]:
        """Compute the limited variables of the rule (Section 2.2)."""
        limited: set[Variable] = set()
        for predicate in self.positive_predicates():
            limited.update(predicate.variables())
        bind_equations(
            [literal for literal in self._body if literal.positive and literal.is_equation()],
            limited,
        )
        return frozenset(limited)

    def is_safe(self) -> bool:
        """Return ``True`` if every variable of the rule is limited."""
        return self.variables() <= self.limited_variables()

    def check_safe(self) -> None:
        """Raise :class:`UnsafeRuleError` if the rule is not safe."""
        unlimited = self.variables() - self.limited_variables()
        if unlimited:
            names = ", ".join(sorted(str(v) for v in unlimited))
            raise UnsafeRuleError(f"rule {self} is unsafe: variables {names} are not limited")

    # -- feature probes ---------------------------------------------------------------------

    def has_packing(self) -> bool:
        """Return ``True`` if a packed expression occurs anywhere in the rule."""
        if self._head.has_packing():
            return True
        return any(literal.has_packing() for literal in self._body)

    def has_equation(self) -> bool:
        """Return ``True`` if the body contains an equation (positive or negated)."""
        return any(literal.is_equation() for literal in self._body)

    def has_negation(self) -> bool:
        """Return ``True`` if the body contains a negated literal."""
        return any(literal.negative for literal in self._body)

    def max_arity(self) -> int:
        """Return the maximum predicate arity occurring in the rule."""
        arity = self._head.arity
        for literal in self._body:
            if literal.is_predicate():
                arity = max(arity, literal.atom.arity)  # type: ignore[union-attr]
        return arity

    def all_expressions(self) -> Iterator[PathExpression]:
        """Iterate over every path expression occurring in the rule."""
        yield from self._head.components
        for literal in self._body:
            atom = literal.atom
            if isinstance(atom, Predicate):
                yield from atom.components
            else:
                yield atom.lhs
                yield atom.rhs

    def constants(self) -> frozenset[str]:
        """Atomic constants occurring anywhere in the rule."""
        found: set[str] = set()
        for expression in self.all_expressions():
            found.update(expression.constants())
        return frozenset(found)

    # -- rewriting --------------------------------------------------------------------------

    def substitute(self, substitution: Substitution) -> "Rule":
        """Apply *substitution* to head and body."""
        return Rule(
            self._head.substitute(substitution),
            tuple(literal.substitute(substitution) for literal in self._body),
        )

    def with_head(self, head: Predicate) -> "Rule":
        """Return the same rule with a different head."""
        return Rule(head, self._body)

    def with_body(self, body: Iterable["Literal | Atom"]) -> "Rule":
        """Return the same rule with a different body."""
        return Rule(self._head, body)

    def with_extra_literals(self, extra: Iterable["Literal | Atom"]) -> "Rule":
        """Return the rule with additional body literals appended."""
        return Rule(self._head, tuple(self._body) + tuple(_as_literal(item) for item in extra))

    def without_literals(self, unwanted: Iterable[Literal]) -> "Rule":
        """Return the rule with the given body literals removed."""
        removed = set(unwanted)
        return Rule(self._head, tuple(literal for literal in self._body if literal not in removed))

    def renamed_relations(self, mapping: dict[str, str]) -> "Rule":
        """Rename relation names in head and body predicates according to *mapping*."""
        head = self._head.renamed(mapping.get(self._head.name, self._head.name))
        body = []
        for literal in self._body:
            atom = literal.atom
            if isinstance(atom, Predicate):
                atom = atom.renamed(mapping.get(atom.name, atom.name))
            body.append(Literal(atom, literal.positive))
        return Rule(head, body)

    # -- equality and rendering ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rule)
            and self._head == other._head
            and frozenset(self._body) == frozenset(other._body)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Rule({self._head!r}, {list(self._body)!r})"

    def __str__(self) -> str:
        if not self._body:
            return f"{self._head}."
        body = ", ".join(str(literal) for literal in self._body)
        return f"{self._head} ← {body}."


def rule(head: Predicate, *body: "Literal | Atom") -> Rule:
    """Build a rule from a head predicate and body atoms/literals."""
    return Rule(head, body)


def fact_rule(head: Predicate) -> Rule:
    """Build a bodyless rule (a ground fact rule)."""
    return Rule(head, ())
