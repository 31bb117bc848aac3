"""Evaluation of a single rule against an instance (Section 2.3).

``I, ν ⊨ L`` is defined as expected: a positive predicate is satisfied when
the fact ``ν(L)`` is in ``I``; an equation when both sides denote the same
path; a negated atom when the atom is not satisfied.  A rule fires for every
valuation satisfying its body, producing the head fact.

There is one evaluator.  :class:`RuleEvaluator` fixes the rule's static body
order (:func:`plan_body_order` — the *position space* that delta frontiers
and the telescoped maintenance joins index into) and lowers the rule once to
an id-space plan over interned terms: hash joins for the predicates, id
filters and split-plan binding steps for the equations
(:mod:`repro.engine.compiled`, :mod:`repro.storage.columnar`,
:mod:`repro.engine.match`).  Everything it answers — one application
(:meth:`~RuleEvaluator.derive`), the derivation counts of counting
maintenance (:meth:`~RuleEvaluator.derivation_counts`) and a join pivoted
on a negated literal (:meth:`~RuleEvaluator.pivoted`) — runs that plan; the
semi-naive loop of :mod:`repro.engine.fixpoint` and delete–rederive drive
it without leaving id space.  Only an unsafe rule does not lower, and
evaluating one raises :class:`~repro.errors.UnsafeRuleError` with the
registered reason (:attr:`RuleEvaluator.lowering_refusal`).

The valuation-level semantics survives, on purpose, in exactly one place:
:mod:`repro.engine.reference`, the naive full-scan oracle the agreement
suites compare this evaluator against.

:func:`plan_literal_sequence`, the bound-aware greedy planner of the former
interpreter, has no caller left in ``src/``; it stays because the benchmark's
tracer (``benchmarks/e2e/tracing.py``) resolves it by name (ROADMAP item 1).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.engine.compiled import CompiledRule, lower_rule
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.errors import UnsafeRuleError
from repro.model.instance import Fact, Instance
from repro.syntax.expressions import AtomVariable, PathExpression, PathVariable
from repro.syntax.literals import Equation, Literal, Predicate
from repro.syntax.rules import Rule, bind_equations

__all__ = [
    "plan_body_order",
    "plan_literal_sequence",
    "evaluate_rule",
    "RuleEvaluator",
]


def plan_body_order(rule: Rule) -> list[Literal]:
    """Return the rule's body literals in a safe-to-evaluate static order.

    Positive predicates come first (smaller number of variables first, a
    cheap join-ordering heuristic), then positive equations in an order in
    which each has at least one side bound when reached, then all negated
    literals.  Raises :class:`UnsafeRuleError` if no such order exists,
    which for safe rules cannot happen.

    This is the canonical *position space* that delta frontiers refer to;
    the id-space plan chooses its own join order per evaluation.
    """
    positive_predicates = [
        literal for literal in rule.body if literal.positive and literal.is_predicate()
    ]
    positive_equations = [
        literal for literal in rule.body if literal.positive and literal.is_equation()
    ]
    negatives = [literal for literal in rule.body if literal.negative]

    positive_predicates.sort(key=lambda literal: len(literal.variables()))

    bound: set = set()
    for literal in positive_predicates:
        bound.update(literal.variables())

    ordered_equations = bind_equations(positive_equations, bound)
    if positive_equations:
        raise UnsafeRuleError(
            f"cannot order the equations of rule {rule}: no side becomes fully bound"
        )

    return positive_predicates + ordered_equations + negatives


# -- bound-aware greedy planning -------------------------------------------------------------------

#: Selectivity factors for the index kind a predicate extension could use,
#: given which of its arguments are determined by the variables bound so far.
_SELECTIVITY_EXACT_ARGUMENT = 0.05
_SELECTIVITY_FIRST_ATOM = 0.25
#: Estimated cost of extending through an equation with one side bound: the
#: bound side is evaluated and matched against the other, which enumerates at
#: most O(path length) splits per valuation — cheap, but not free.
_EQUATION_BINDER_COST = 2.0


def _predicate_cost(
    predicate: Predicate, source_size: int, bound: "set | frozenset"
) -> float:
    """Estimated candidate rows per valuation when extending through *predicate*."""
    if source_size == 0:
        return 0.0
    exact = False
    first_atom = False
    for component in predicate.components:
        if component.variables() <= bound:
            exact = True
            break
        if _first_atom_is_determined(component, bound):
            first_atom = True
    if exact:
        return max(1.0, source_size * _SELECTIVITY_EXACT_ARGUMENT)
    if first_atom:
        return max(1.0, source_size * _SELECTIVITY_FIRST_ATOM)
    return float(source_size)


def _first_atom_is_determined(component: PathExpression, bound: "set | frozenset") -> bool:
    """Would the first or last atom of *component* be ground once *bound* is?"""
    for items in (component.items, component.items[::-1]):
        for item in items:
            if isinstance(item, str):
                return True
            if isinstance(item, (AtomVariable, PathVariable)):
                # A bound path variable may denote ϵ, in which case the *next*
                # item determines the atom — still a usable prefix (or suffix)
                # at plan time, so treat any bound variable as determining it.
                if item in bound:
                    return True
                break
            break  # a packed value can never match a ground atom
    return False


def plan_literal_sequence(
    order: Sequence[Literal],
    instance: Instance,
    frontier: "dict[int, Instance] | None" = None,
    *,
    bound: "Iterable | None" = None,
) -> list[int]:
    """Greedily permute the positions of *order* by bound-variable coverage and cost.

    Returns a permutation of ``range(len(order))``.  At every step, literals
    whose variables are all bound act as free filters and are scheduled
    immediately (this moves negations and ground equations as early as safety
    allows); otherwise the cheapest extension is chosen among the positive
    predicates — costed by the live cardinality of their relation (the delta
    instance for frontier-restricted positions) discounted by the best index
    the bound variables enable — and the equations with one bound side.

    *bound* names variables that are already bound before the body runs
    (rederivation seeds the join with the valuations of the head's variables);
    the plan then schedules the literals those bindings make selective first.
    """
    remaining = set(range(len(order)))
    sequence: list[int] = []
    bound = set(bound) if bound is not None else set()

    variables = [literal.variables() for literal in order]

    def source_size(position: int) -> int:
        source = instance
        if frontier is not None and position in frontier:
            source = frontier[position]
        predicate: Predicate = order[position].atom  # type: ignore[assignment]
        storage = source.storage(predicate.name)
        return len(storage) if storage is not None else 0

    while remaining:
        # 1. Free filters: every variable already bound.
        filters = sorted(
            position for position in remaining if variables[position] <= bound
        )
        if filters:
            for position in filters:
                sequence.append(position)
                remaining.discard(position)
            continue

        # 2. Cheapest extension among predicates and one-side-bound equations.
        best_position = -1
        best_key: "tuple[float, int, int] | None" = None
        for position in sorted(remaining):
            literal = order[position]
            if literal.positive and literal.is_predicate():
                cost = _predicate_cost(literal.atom, source_size(position), bound)  # type: ignore[arg-type]
            elif literal.positive and literal.is_equation():
                equation: Equation = literal.atom  # type: ignore[assignment]
                if not (
                    equation.lhs.variables() <= bound or equation.rhs.variables() <= bound
                ):
                    continue
                cost = _EQUATION_BINDER_COST
            else:
                continue  # negations never bind; they wait until fully bound
            new_variables = len(variables[position] - bound)
            key = (cost, new_variables, position)
            if best_key is None or key < best_key:
                best_key = key
                best_position = position
        if best_position >= 0:
            sequence.append(best_position)
            remaining.discard(best_position)
            bound.update(variables[best_position])
            continue

        # 3. Stuck: equations with no bound side are unsafe; negations with
        # unbound variables are appended so evaluation reports the same
        # runtime error the static order would.
        if any(order[position].positive for position in remaining):
            rule_text = ", ".join(str(order[position]) for position in sorted(remaining))
            raise UnsafeRuleError(
                f"cannot order the equations of the body [{rule_text}]: "
                f"no side becomes fully bound"
            )
        sequence.extend(sorted(remaining))
        remaining.clear()

    return sequence


def evaluate_rule(
    rule: Rule, instance: Instance, limits: EvaluationLimits = DEFAULT_LIMITS
) -> set[Fact]:
    """Return the head facts derivable from *instance* by a single application of *rule*."""
    return RuleEvaluator(rule, limits).derive(instance)


class RuleEvaluator:
    """A rule lowered once to its id-space plan, evaluated repeatedly.

    Fixpoint computation evaluates the same rules many times; the static body
    order (the frontier position space) and the lowering happen here, once
    per rule, and the plan caches its join orders per delta position until
    the cardinality regime of the relations involved changes
    (:class:`~repro.engine.compiled.CompiledRule`).
    """

    def __init__(self, rule: Rule, limits: EvaluationLimits = DEFAULT_LIMITS):
        self.rule = rule
        self.limits = limits
        self.order = plan_body_order(rule)
        lowered = lower_rule(rule.head, self.order)
        refused = isinstance(lowered, str)
        #: The registered reason an unsafe rule has no plan, else ``None``.
        self.lowering_refusal: "str | None" = lowered if refused else None
        self._plan: "CompiledRule | None" = None if refused else lowered
        #: Negated position → the plan with that literal flipped positive.
        self._pivoted: dict[int, CompiledRule] = {}
        #: Positions (in the planned order) of positive body predicates, by relation name.
        self.predicate_positions: dict[str, list[int]] = {}
        for position, literal in enumerate(self.order):
            if literal.positive and literal.is_predicate():
                name = literal.atom.name  # type: ignore[union-attr]
                self.predicate_positions.setdefault(name, []).append(position)
        #: All positive-predicate ``(position, relation name)`` pairs in static
        #: order — the position space delta frontiers and the telescoped
        #: maintenance joins index into.
        self.positions_in_order: tuple[tuple[int, str], ...] = tuple(
            (position, literal.atom.name)  # type: ignore[union-attr]
            for position, literal in enumerate(self.order)
            if literal.positive and literal.is_predicate()
        )
        #: Relation names the body's positive predicates read from.
        self.body_relation_names = frozenset(self.predicate_positions)
        #: Relation names the body reads under negation.
        self.negated_relation_names = frozenset(
            literal.atom.name  # type: ignore[union-attr]
            for literal in self.order
            if literal.negative and literal.is_predicate()
        )

    @property
    def compiled_plan(self) -> CompiledRule:
        """The rule's id-space plan; an unsafe rule has none and raises here."""
        if self._plan is None:
            raise UnsafeRuleError(self.lowering_refusal)
        return self._plan

    def pivoted(self, position: int) -> CompiledRule:
        """The plan of the body with the negated literal at *position* flipped positive.

        Signed maintenance pivots on a changed negated relation: the flipped
        literal is restricted, through the frontier at the same static
        *position*, to the delta rows of that relation, and what the join
        derives (or counts) enters with the opposite sign.  Lowered on first
        use, once per position.
        """
        plan = self._pivoted.get(position)
        if plan is None:
            flipped = list(self.order)
            flipped[position] = flipped[position].negated()
            lowered = lower_rule(self.rule.head, flipped)
            if isinstance(lowered, str):
                raise UnsafeRuleError(lowered)
            plan = self._pivoted[position] = lowered
        return plan

    def derive(
        self,
        instance: Instance,
        frontier: "dict[int, Instance] | None" = None,
        statistics=None,
        *,
        negative_sources: "dict[int, Instance] | None" = None,
    ) -> set[Fact]:
        """Evaluate the rule once against *instance* (optionally delta-restricted).

        *frontier* maps positions of the static order to an alternative
        instance for the positive predicate there — how the semi-naive loop
        restricts one body atom to the newly derived facts;
        *negative_sources* is the same override for negated predicates —
        maintenance reads a changed negated relation's pre-update overlay
        through it.
        """
        return self.compiled_plan.derive(
            instance, frontier, self.limits, statistics, negative_sources
        )

    def derivation_counts(
        self,
        instance: Instance,
        frontier: "dict[int, Instance] | None" = None,
        statistics=None,
        *,
        negative_sources: "dict[int, Instance] | None" = None,
    ) -> "dict[Fact, int]":
        """Every derived fact with the number of derivations behind it.

        Unlike :meth:`derive` this does not collapse derivations into a fact
        set: counting-based maintenance needs each distinct valuation of the
        rule's variables as one unit of support for its head fact.
        """
        return self.compiled_plan.derivation_counts(
            instance, frontier, self.limits, statistics, negative_sources
        )
