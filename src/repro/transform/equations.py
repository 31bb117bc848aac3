"""Equation elimination (Example 4.4, Lemma 4.5, Theorem 4.7).

Equations are redundant in the presence of intermediate predicates:

* a *positive* equation ``e1 = e2`` in a rule ``H ← B ∧ e1 = e2`` is replaced
  by introducing an auxiliary relation that stores, together with the
  variables of the remaining body, the value of the side of the equation
  whose variables are already limited; the rule then calls that auxiliary
  relation with the other side (Example 4.4);
* a *negated* equation cannot be handled the same way inside a recursive
  stratum without breaking stratification; instead, a copy of the stratum
  (with head relations renamed) is inserted *before* it, positive-equation
  rules collect the variable bindings under which some nonequality fails,
  and the original rule negates that auxiliary relation (Lemma 4.5,
  Example 4.6).

Both constructions introduce intermediate predicates and arity; arity can be
removed afterwards with :func:`repro.transform.arity.eliminate_arity`.
"""

from __future__ import annotations

from repro.errors import TransformationError
from repro.fragments.features import Feature, program_features
from repro.syntax.expressions import PathExpression, Variable
from repro.syntax.literals import Equation, Literal, Predicate
from repro.syntax.naming import FreshNames
from repro.syntax.programs import Program, Stratum
from repro.syntax.rules import Rule, bind_equations

__all__ = [
    "eliminate_positive_equations",
    "eliminate_negated_equations",
    "eliminate_equations",
]


def _sorted_variables(variables: "frozenset[Variable] | set[Variable]") -> list[Variable]:
    return sorted(variables, key=lambda variable: (variable.prefix, variable.name))


# -- positive equations -----------------------------------------------------------------------------


def _equation_binding_order(rule: Rule) -> list[Literal]:
    """Order the positive equation literals so each has one side bound when reached."""
    bound: set[Variable] = set()
    for predicate in rule.positive_predicates():
        bound.update(predicate.variables())
    pending = [
        literal for literal in rule.body if literal.positive and literal.is_equation()
    ]
    ordered = bind_equations(pending, bound)
    if pending:
        raise TransformationError(
            f"cannot order the positive equations of rule {rule}; is the rule safe?"
        )
    return ordered


def _eliminate_last_equation(rule: Rule, fresh: FreshNames) -> list[Rule]:
    """Remove the last-bound positive equation from *rule*, producing a rule pair."""
    order = _equation_binding_order(rule)
    literal = order[-1]
    equation: Equation = literal.atom  # type: ignore[assignment]

    # Variables limited by the body without this equation decide which side is stored.
    remaining = rule.without_literals([literal])
    limited_without = remaining.limited_variables()
    if equation.lhs.variables() <= limited_without:
        bound_side, open_side = equation.lhs, equation.rhs
    elif equation.rhs.variables() <= limited_without:
        bound_side, open_side = equation.rhs, equation.lhs
    else:
        raise TransformationError(
            f"neither side of {equation} is limited without the equation in rule {rule}"
        )

    auxiliary_body = [
        body_literal for body_literal in remaining.body if body_literal.positive
    ]
    body_variables: set[Variable] = set(bound_side.variables())
    for body_literal in auxiliary_body:
        body_variables.update(body_literal.variables())
    witness_variables = _sorted_variables(body_variables)
    auxiliary_name = fresh.relation("EqAux")
    auxiliary_head = Predicate(auxiliary_name, (bound_side, *witness_variables))
    auxiliary_rule = Rule(auxiliary_head, auxiliary_body)

    call = Predicate(auxiliary_name, (open_side, *witness_variables))
    main_rule = Rule(remaining.head, tuple(remaining.body) + (Literal(call, True),))
    return [main_rule, auxiliary_rule]


def eliminate_positive_equations(program: Program, fresh: FreshNames | None = None) -> Program:
    """Remove every positive equation, introducing auxiliary intermediate predicates."""
    fresh = fresh or FreshNames.for_program(program)
    new_strata = []
    for stratum in program.strata:
        worklist = list(stratum.rules)
        finished: list[Rule] = []
        while worklist:
            rule = worklist.pop(0)
            if any(literal.positive and literal.is_equation() for literal in rule.body):
                worklist.extend(_eliminate_last_equation(rule, fresh))
            else:
                finished.append(rule)
        new_strata.append(Stratum(finished))
    return Program(new_strata)


# -- negated equations ------------------------------------------------------------------------------


def _rename_body(rule: Rule, renaming: dict[str, str]) -> Rule:
    return rule.renamed_relations(renaming)


def eliminate_negated_equations(program: Program, fresh: FreshNames | None = None) -> Program:
    """Remove every negated equation following the stratum-copy construction of Lemma 4.5."""
    fresh = fresh or FreshNames.for_program(program)
    new_strata: list[Stratum] = []
    for stratum in program.strata:
        has_negated_equations = any(
            literal.negative and literal.is_equation()
            for rule in stratum
            for literal in rule.body
        )
        if not has_negated_equations:
            new_strata.append(stratum)
            continue

        # Renaming ρ: head relation names of this stratum map to fresh names.
        renaming = {name: fresh.relation(f"{name}_pre") for name in stratum.head_relation_names()}

        shadow_rules: list[Rule] = []
        rewritten_rules: list[Rule] = []
        for rule in stratum:
            negated_equations = [
                literal for literal in rule.body if literal.negative and literal.is_equation()
            ]
            shadow_rules.append(_rename_body(rule.without_literals(negated_equations), renaming)
                                if negated_equations else _rename_body(rule, renaming))
            if not negated_equations:
                rewritten_rules.append(rule)
                continue

            remaining = rule.without_literals(negated_equations)
            witness_variables = _sorted_variables(remaining.body_variables())
            blocker_name = fresh.relation("NeqBlock")
            renamed_remaining = _rename_body(remaining, renaming)
            for literal in negated_equations:
                equation: Equation = literal.atom  # type: ignore[assignment]
                shadow_rules.append(
                    Rule(
                        Predicate(blocker_name, tuple(witness_variables)),
                        tuple(renamed_remaining.body) + (Literal(equation, True),),
                    )
                )
            blocker_call = Predicate(blocker_name, tuple(witness_variables))
            rewritten_rules.append(
                Rule(remaining.head, tuple(remaining.body) + (Literal(blocker_call, False),))
            )

        new_strata.append(Stratum(shadow_rules))
        new_strata.append(Stratum(rewritten_rules))
    return Program(new_strata)


# -- the combined transformation (Theorem 4.7) --------------------------------------------------------


def eliminate_equations(program: Program) -> Program:
    """Remove all equations, positive and negated (Theorem 4.7).

    The result uses intermediate predicates and arity instead; it never uses
    the E feature.  Combine with :func:`repro.transform.arity.eliminate_arity`
    to also remove the arity introduced by the auxiliary relations.
    """
    fresh = FreshNames.for_program(program)
    without_negated = eliminate_negated_equations(program, fresh)
    result = eliminate_positive_equations(without_negated, fresh)
    if Feature.EQUATIONS in program_features(result):
        raise TransformationError("equation elimination failed to remove the E feature")
    return result
