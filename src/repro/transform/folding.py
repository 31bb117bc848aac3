"""Folding away intermediate predicates (Theorem 4.16).

In the absence of negation and recursion, intermediate predicates are
redundant in the presence of equations: every call to an intermediate
relation can be *unfolded* by inlining the bodies of its defining rules,
using equations to unify the calling predicate's arguments with the head
arguments of the definition.  After unfolding every intermediate relation,
only the output relation's rules remain, so the program has a single IDB
relation name and no longer uses the I feature.
"""

from __future__ import annotations

from graphlib import TopologicalSorter

from repro.errors import TransformationError
from repro.fragments.features import Feature, program_features
from repro.syntax.expressions import AtomVariable, PathVariable, Variable
from repro.syntax.literals import Equation, Literal, Predicate
from repro.syntax.naming import FreshNames
from repro.syntax.programs import Program, Stratum
from repro.syntax.rules import Rule
from repro.syntax.substitution import Substitution

__all__ = ["unfold_relation", "eliminate_intermediate_predicates"]


def _freshly_renamed(rule: Rule, fresh: FreshNames) -> Rule:
    """Return *rule* with all its variables renamed to fresh ones."""
    mapping: dict[Variable, object] = {}
    for variable in sorted(rule.variables(), key=lambda v: (v.prefix, v.name)):
        if isinstance(variable, AtomVariable):
            mapping[variable] = fresh.atom_variable(variable.name)
        else:
            mapping[variable] = fresh.path_variable(variable.name)
    return rule.substitute(Substitution(mapping))


def unfold_relation(rules: list[Rule], relation: str, fresh: FreshNames) -> list[Rule]:
    """Inline every positive body occurrence of *relation* using its defining rules.

    The defining rules themselves are removed from the result.  Negated
    occurrences of *relation* are rejected (the construction is only sound
    without negation).
    """
    definitions = [rule for rule in rules if rule.head.name == relation]
    others = [rule for rule in rules if rule.head.name != relation]

    result: list[Rule] = []
    worklist = list(others)
    while worklist:
        rule = worklist.pop(0)
        call_literal = None
        for literal in rule.body:
            if literal.is_predicate() and literal.atom.name == relation:  # type: ignore[union-attr]
                if literal.negative:
                    raise TransformationError(
                        f"cannot fold away relation {relation!r}: it occurs under negation"
                    )
                call_literal = literal
                break
        if call_literal is None:
            result.append(rule)
            continue
        call: Predicate = call_literal.atom  # type: ignore[assignment]
        for definition in definitions:
            renamed = _freshly_renamed(definition, fresh)
            if renamed.head.arity != call.arity:
                raise TransformationError(
                    f"relation {relation!r} is used with arity {call.arity} but defined "
                    f"with arity {renamed.head.arity}"
                )
            unification = tuple(
                Literal(Equation(call_component, head_component), True)
                for call_component, head_component in zip(call.components, renamed.head.components)
            )
            new_body = (
                tuple(literal for literal in rule.body if literal is not call_literal)
                + tuple(renamed.body)
                + unification
            )
            worklist.append(Rule(rule.head, new_body))
    return result


def eliminate_intermediate_predicates(program: Program, output_relation: str) -> Program:
    """Fold away every IDB relation except *output_relation* (Theorem 4.16).

    Preconditions: the program must not use negation of IDB relations on the
    unfolding path, and must not be recursive.  Violations raise
    :class:`TransformationError`.
    """
    if program.uses_recursion():
        raise TransformationError(
            "intermediate predicates cannot be folded away in a recursive program "
            "(Theorem 5.6 shows they are primitive in the presence of recursion)"
        )
    idb = program.idb_relation_names()
    if output_relation not in idb:
        raise TransformationError(f"{output_relation!r} is not an IDB relation of the program")

    rules = list(program.rules())
    for rule in rules:
        for predicate in rule.negative_predicates():
            if predicate.name in idb:
                raise TransformationError(
                    "intermediate predicates cannot be folded away in the presence of "
                    "negation over IDB relations (Theorem 5.5 shows they are primitive there)"
                )

    fresh = FreshNames.for_program(program)

    # Unfold relations from the output downwards: a relation may only be
    # unfolded once every relation whose definition mentions it has already
    # been unfolded, otherwise its atoms would be reintroduced later.  R1
    # depends on R2 when R1's definition mentions R2; the sorter yields a
    # relation after everything it depends on, so callers come first in reverse.
    callees_first = TopologicalSorter(program.idb_dependencies()).static_order()
    order = [name for name in reversed(list(callees_first)) if name != output_relation]
    for relation in order:
        rules = unfold_relation(rules, relation, fresh)

    folded = Program.single_stratum(rules)
    remaining = program_features(folded)
    if Feature.INTERMEDIATE in remaining:
        raise TransformationError("folding failed to remove the I feature")
    return folded
