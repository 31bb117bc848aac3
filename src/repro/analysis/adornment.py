"""Binding-pattern (adornment) analysis for goal-directed evaluation.

A query asks for the facts of one output relation, possibly with some argument
positions *bound* to concrete paths.  Classical bottom-up evaluation ignores
this and computes the whole fixpoint; goal-directed evaluation (the magic-set
rewriting in :mod:`repro.transform.magic`) needs to know, for every rule and
every body predicate, which argument positions are reached with their
variables already bound.  That propagation is the *adornment analysis*
implemented here.

An :class:`Adornment` is the classic ``b``/``f`` string over argument
positions.  Given a head adornment, the variables of the bound head components
are bound (a magic fact is a concrete tuple of paths, and matching a path
expression against a ground path binds every variable in it).  The body is
then ordered by a *sideways information passing strategy* (SIPS,
:func:`sips_order`): fully bound literals run as filters, equations with one
bound side bind the other, and otherwise the positive predicate with the best
bound-argument coverage is scheduled, binding all its variables.  This mirrors
the bound-variable logic of the engine's greedy planner
(:func:`repro.engine.evaluation.plan_literal_sequence`), but statically —
from binding patterns rather than live cardinalities.

The analysis itself is sound for any program; whether the magic-set rewriting
built on top of it is applicable (negation, termination) is decided by
:mod:`repro.transform.magic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import EvaluationError, UnsafeRuleError
from repro.syntax.expressions import Variable
from repro.syntax.literals import Equation, Literal, Predicate
from repro.syntax.programs import Program
from repro.syntax.rules import Rule

__all__ = [
    "Adornment",
    "AdornedRule",
    "AdornedProgram",
    "adornment_from_binding",
    "sips_order",
    "adorn_rule",
    "adorn_program",
]


@dataclass(frozen=True)
class Adornment:
    """A binding pattern: one ``bound``/``free`` flag per argument position."""

    pattern: tuple[bool, ...]

    @staticmethod
    def from_string(text: str) -> "Adornment":
        """Parse the classic notation, e.g. ``"bf"`` for bound-free."""
        if any(letter not in "bf" for letter in text):
            raise EvaluationError(f"adornments use only 'b' and 'f', got {text!r}")
        return Adornment(tuple(letter == "b" for letter in text))

    @staticmethod
    def from_positions(arity: int, bound_positions: Iterable[int]) -> "Adornment":
        """Build the adornment of *arity* with the given positions bound."""
        wanted = set(bound_positions)
        outside = wanted - set(range(arity))
        if outside:
            raise EvaluationError(
                f"bound positions {sorted(outside)} are outside the arity-{arity} range"
            )
        return Adornment(tuple(position in wanted for position in range(arity)))

    @staticmethod
    def all_free(arity: int) -> "Adornment":
        """The adornment with every position free."""
        return Adornment((False,) * arity)

    @property
    def arity(self) -> int:
        """The number of argument positions."""
        return len(self.pattern)

    @property
    def bound_positions(self) -> tuple[int, ...]:
        """The bound argument positions, in order."""
        return tuple(i for i, bound in enumerate(self.pattern) if bound)

    @property
    def free_positions(self) -> tuple[int, ...]:
        """The free argument positions, in order."""
        return tuple(i for i, bound in enumerate(self.pattern) if not bound)

    def subsumes(self, other: "Adornment") -> bool:
        """Whether a goal with this adornment subsumes one with *other*.

        ``A1`` subsumes ``A2`` when every position bound by ``A1`` is also
        bound by ``A2``: the ``A1`` goal asks for a superset of the answers
        (fewer restrictions), so its answer set can serve any ``A2`` call
        whose seed agrees on the shared bound positions.  This is the
        adornment half of the seed ordering the subgoal answer tables
        (:mod:`repro.engine.tabling`) organise their entries by — their
        entry check adds the seed-value agreement on the shared positions.
        """
        if self.arity != other.arity:
            return False
        return all(not bound or other.pattern[i] for i, bound in enumerate(self.pattern))

    def weakenings(self) -> "Iterable[Adornment]":
        """All strictly more general adornments, most specific first.

        Yields every adornment whose bound positions are a proper subset of
        this one's, ordered by decreasing number of bound positions (ties:
        lexicographic on the bound-position tuple).  The all-free adornment
        comes last; it subsumes every call and its magic predicates are
        nullary, so it can never trip the expanding-recursion refusal at the
        goal itself.
        """
        bound = self.bound_positions
        subsets: list[tuple[int, ...]] = []
        for mask in range(2 ** len(bound) - 1):
            subset = tuple(
                position for index, position in enumerate(bound) if mask >> index & 1
            )
            subsets.append(subset)
        subsets.sort(key=lambda subset: (-len(subset), subset))
        for subset in subsets:
            yield Adornment.from_positions(self.arity, subset)

    def suffix(self) -> str:
        """The ``b``/``f`` string used to name adorned relations."""
        return "".join("b" if bound else "f" for bound in self.pattern)

    def __str__(self) -> str:
        return self.suffix()


def adornment_from_binding(arity: int, binding: "Mapping[int, object] | None") -> Adornment:
    """The adornment induced by a query binding (bound = position has a value)."""
    return Adornment.from_positions(arity, binding.keys() if binding else ())


@dataclass(frozen=True)
class AdornedRule:
    """One rule analysed under a head adornment.

    ``order`` is the SIPS order of the body literals; ``body_adornments``
    gives, for each position of that order, the adornment of the literal's
    predicate when it is a positive IDB predicate, and ``None`` otherwise
    (equations, negations, and EDB predicates receive no adornment).
    """

    rule: Rule
    head_adornment: Adornment
    order: tuple[Literal, ...]
    body_adornments: tuple["Adornment | None", ...]


def _bound_component_variables(predicate: Predicate, adornment: Adornment) -> frozenset[Variable]:
    found: set[Variable] = set()
    for position in adornment.bound_positions:
        found.update(predicate.components[position].variables())
    return frozenset(found)


def sips_order(rule: Rule, bound: "Iterable[Variable]" = ()) -> list[Literal]:
    """Order the body for left-to-right information passing from *bound*.

    Greedy: (1) literals whose variables are all bound run first as filters;
    (2) an equation with one fully bound side binds the other side; (3) the
    positive predicate with the most bound argument components (ties: fewest
    new variables, then original body position) binds all its variables.
    Safe rules always admit such an order (the same argument as for
    :func:`repro.syntax.rules.plan_body_order`); otherwise
    :class:`UnsafeRuleError` is raised.
    """
    bound_now: set[Variable] = set(bound)
    remaining = list(range(len(rule.body)))
    ordered: list[Literal] = []

    def schedule(position: int) -> None:
        ordered.append(rule.body[position])
        remaining.remove(position)

    while remaining:
        filters = [
            position for position in remaining if rule.body[position].variables() <= bound_now
        ]
        if filters:
            for position in filters:
                schedule(position)
            continue

        equation_position = next(
            (
                position
                for position in remaining
                if rule.body[position].positive
                and rule.body[position].is_equation()
                and _one_side_bound(rule.body[position].atom, bound_now)  # type: ignore[arg-type]
            ),
            None,
        )
        if equation_position is not None:
            bound_now.update(rule.body[equation_position].variables())
            schedule(equation_position)
            continue

        predicates = [
            position
            for position in remaining
            if rule.body[position].positive and rule.body[position].is_predicate()
        ]
        if not predicates:
            unordered = ", ".join(str(rule.body[position]) for position in remaining)
            raise UnsafeRuleError(
                f"cannot order the body of rule {rule} for information passing: "
                f"[{unordered}] never becomes bound"
            )
        best = min(
            predicates,
            key=lambda position: (
                -_bound_component_count(rule.body[position].atom, bound_now),  # type: ignore[arg-type]
                len(rule.body[position].variables() - bound_now),
                position,
            ),
        )
        bound_now.update(rule.body[best].variables())
        schedule(best)

    return ordered


def _one_side_bound(equation: Equation, bound: "set[Variable]") -> bool:
    return equation.lhs.variables() <= bound or equation.rhs.variables() <= bound


def _bound_component_count(predicate: Predicate, bound: "set[Variable]") -> int:
    return sum(1 for component in predicate.components if component.variables() <= bound)


def adorn_rule(rule: Rule, head_adornment: Adornment, idb: frozenset[str]) -> AdornedRule:
    """Analyse one rule under *head_adornment*, adorning its positive IDB atoms."""
    if head_adornment.arity != rule.head.arity:
        raise EvaluationError(
            f"adornment {head_adornment} has arity {head_adornment.arity}, "
            f"but the head of {rule} has arity {rule.head.arity}"
        )
    bound: set[Variable] = set(_bound_component_variables(rule.head, head_adornment))
    order = tuple(sips_order(rule, bound))

    adornments: list["Adornment | None"] = []
    for literal in order:
        if literal.positive and literal.is_predicate() and literal.atom.name in idb:  # type: ignore[union-attr]
            predicate: Predicate = literal.atom  # type: ignore[assignment]
            adornments.append(
                Adornment(
                    tuple(
                        component.variables() <= bound for component in predicate.components
                    )
                )
            )
        else:
            adornments.append(None)
        if literal.positive and literal.is_predicate():
            bound.update(literal.variables())
        elif literal.positive and literal.is_equation():
            equation: Equation = literal.atom  # type: ignore[assignment]
            if _one_side_bound(equation, bound):
                bound.update(equation.variables())
    return AdornedRule(
        rule=rule,
        head_adornment=head_adornment,
        order=order,
        body_adornments=tuple(adornments),
    )


@dataclass(frozen=True)
class AdornedProgram:
    """The rules reachable from a query goal, analysed per (relation, adornment).

    ``rules`` maps each reachable ``(relation name, adornment)`` pair to the
    analysed versions of the rules defining that relation.  Rules of IDB
    relations never called (directly or transitively) from the goal do not
    appear — goal-directed evaluation ignores them entirely.
    """

    program: Program
    output_relation: str
    output_adornment: Adornment
    rules: dict[tuple[str, Adornment], tuple[AdornedRule, ...]]

    def reachable_rules(self) -> Iterable[AdornedRule]:
        """Iterate over every analysed rule, goal first."""
        for entries in self.rules.values():
            yield from entries


def adorn_program(
    program: Program, output_relation: str, adornment: Adornment
) -> AdornedProgram:
    """Propagate *adornment* from *output_relation* through the program.

    Starting from the goal ``output_relation^adornment``, every rule defining
    a demanded relation is analysed with :func:`adorn_rule`; each positive IDB
    body predicate then demands its own (relation, adornment) pair, until the
    worklist is exhausted.
    """
    idb = program.idb_relation_names()
    if output_relation not in idb:
        raise EvaluationError(
            f"output relation {output_relation!r} is not an IDB relation of the program"
        )
    arities = program.relation_arities()
    if adornment.arity != arities[output_relation]:
        raise EvaluationError(
            f"adornment {adornment} has arity {adornment.arity}, but relation "
            f"{output_relation!r} has arity {arities[output_relation]}"
        )

    rules_by_head: dict[str, list[Rule]] = {}
    for rule in program.rules():
        rules_by_head.setdefault(rule.head.name, []).append(rule)

    analysed: dict[tuple[str, Adornment], tuple[AdornedRule, ...]] = {}
    worklist: list[tuple[str, Adornment]] = [(output_relation, adornment)]
    while worklist:
        goal = worklist.pop()
        if goal in analysed:
            continue
        name, head_adornment = goal
        entries = tuple(
            adorn_rule(rule, head_adornment, idb) for rule in rules_by_head.get(name, ())
        )
        analysed[goal] = entries
        for entry in entries:
            for literal, body_adornment in zip(entry.order, entry.body_adornments):
                if body_adornment is not None:
                    called = (literal.atom.name, body_adornment)  # type: ignore[union-attr]
                    if called not in analysed:
                        worklist.append(called)

    return AdornedProgram(
        program=program,
        output_relation=output_relation,
        output_adornment=adornment,
        rules=analysed,
    )
