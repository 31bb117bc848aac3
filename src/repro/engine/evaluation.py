"""The bound-aware greedy planner of the former interpreter.

Rules are evaluated by :class:`~repro.engine.compiled.CompiledRule`, which
chooses its join order from the live relation sizes.
:func:`plan_literal_sequence` has no caller left in ``src/``; it stays
because the benchmark's tracer (``benchmarks/e2e/tracing.py``) resolves it
by name.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import UnsafeRuleError
from repro.model.instance import Instance
from repro.syntax.expressions import AtomVariable, PathExpression, PathVariable
from repro.syntax.literals import Equation, Literal, Predicate

__all__ = ["plan_literal_sequence"]


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
