"""The reference evaluator: Section 2.3 executed literally, as the tests' oracle.

Everything :mod:`repro.engine` runs in production goes through one lowered
id-space plan.  This module is the independent second opinion the agreement
suites compare it against — and nothing else: no production module imports
it.  It shares only the definitional pieces with the engine (the static body
order of :func:`~repro.engine.evaluation.plan_body_order`, the associative
matcher of :mod:`repro.engine.match`, :class:`~repro.engine.valuation.Valuation`)
and none of its machinery:

* **naive** — every round re-evaluates every rule of the stratum against the
  whole instance, until a round derives nothing new;
* **static order, full scan** — a body runs in its static order, and a
  positive predicate is extended by matching *every* row of its relation
  against every valuation so far;
* no statistics, no indexes, no planner, no term table — but the same
  :class:`~repro.engine.limits.EvaluationLimits`, so a non-terminating
  program (Example 2.3) stops here as it does there.

Keep it small and obviously right; it is allowed to be slow.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.engine.evaluation import plan_body_order
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.engine.match import lower_pattern
from repro.engine.valuation import Valuation
from repro.model.instance import Fact, Instance
from repro.syntax.literals import Literal
from repro.syntax.programs import Program
from repro.syntax.rules import Rule

__all__ = ["reference_fixpoint"]


def _valuations(
    order: Sequence[Literal], instance: Instance, limits: EvaluationLimits = DEFAULT_LIMITS
) -> list[Valuation]:
    """Every valuation of the variables of *order* under which *instance* satisfies it.

    *order* must be safe to run left to right (:func:`plan_body_order`): a
    positive equation is reached with one side bound, a negated literal with
    all of its variables bound.
    """
    valuations = [Valuation.EMPTY]
    bound: set = set()
    for literal in order:
        atom = literal.atom
        if literal.negative and literal.is_equation():
            valuations = [v for v in valuations if v.values_of(atom.lhs) != v.values_of(atom.rhs)]
        elif literal.negative:
            valuations = [v for v in valuations if v.apply_to_predicate(atom) not in instance]
        elif literal.is_predicate():
            match = lower_pattern(atom.components, bound).match
            rows = [row for row in instance.relation(atom.name) if len(row) == atom.arity]
            valuations = [
                extended for v in valuations for row in rows for extended in match(row, v)
            ]
        elif atom.lhs.variables() <= bound and atom.rhs.variables() <= bound:
            valuations = [v for v in valuations if v.values_of(atom.lhs) == v.values_of(atom.rhs)]
        else:
            known, pattern = atom.sides if atom.lhs.variables() <= bound else atom.sides[::-1]
            match = lower_pattern((pattern,), bound).match
            valuations = [
                extended
                for v in valuations
                for extended in match((v.apply_to_expression(known),), v)
            ]
        limits.check_derivations(len(valuations))
        bound |= atom.variables()
    return valuations


def _apply(rule: Rule, instance: Instance, limits: EvaluationLimits) -> set[Fact]:
    """The head facts one application of *rule* derives from *instance*."""
    derived = set()
    for valuation in _valuations(plan_body_order(rule), instance, limits):
        fact = valuation.apply_to_predicate(rule.head)
        for path in fact.paths:
            limits.check_path_length(len(path))
        derived.add(fact)
    return derived


def reference_fixpoint(
    program: Program,
    instance: Instance,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    *,
    seed_facts: "Iterable[Fact] | None" = None,
) -> Instance:
    """The stratified least fixpoint of *program* on *instance*: EDB plus all IDB relations.

    Stratum by stratum, each as a semipositive program over the result of the
    preceding ones; within a stratum, naive rounds to saturation.
    *seed_facts* join the instance before the first stratum (the magic seed
    of a goal-directed program).
    """
    current = instance.copy()
    for fact in seed_facts or ():
        current.add_fact(fact)
    for stratum in program.strata:
        for rule in stratum:
            current.ensure_relation(rule.head.name)
        iterations = 0
        while True:
            iterations += 1
            limits.check_iterations(iterations)
            new = {
                fact
                for rule in stratum
                for fact in _apply(rule, current, limits)
                if fact not in current
            }
            if not new:
                break
            for fact in new:
                current.add_fact(fact)
            limits.check_fact_count(current.fact_count())
    for name in program.idb_relation_names():
        current.ensure_relation(name)
    return current
