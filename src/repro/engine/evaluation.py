"""Evaluation of a single rule against an instance (Section 2.3).

``I, ν ⊨ L`` is defined as expected: a positive predicate is satisfied when
the fact ``ν(L)`` is in ``I``; an equation when both sides denote the same
path; a negated atom when the atom is not satisfied.  A rule fires for every
valuation satisfying its body, producing the head fact.

The evaluator enumerates the satisfying valuations of a body by processing
its literals in a *join order*.  Three execution modes are supported:

* ``"scan"`` — the seed strategy: a static order (positive predicates first,
  fewest variables first, then equations, then negations), each predicate
  extended by scanning every row of its relation;
* ``"indexed"`` — a *bound-aware greedy planner* re-selects the
  next literal at evaluation time from the variables already bound and the
  live cardinalities of the relations involved, and each predicate extension
  consults the storage layer's indexes (exact tuple, exact argument path,
  ground first atom, fixed argument length — see :mod:`repro.storage`) to
  prune the candidate rows before falling back to associative matching;
* ``"compiled"`` — the default (``DEFAULT_EXECUTION = "compiled"``): every
  safe rule is lowered once to an id-space plan over interned terms — hash
  joins for the predicates, id filters and split-plan binding steps for the
  equations (:mod:`repro.engine.compiled`, :mod:`repro.storage.columnar`) —
  and a stratum of such rules keeps its semi-naive loop in id space
  (:mod:`repro.engine.fixpoint`).  What still runs as in indexed mode is
  every :meth:`RuleEvaluator.derivations` stream (counting maintenance needs
  one valuation per derivation), a ``negative_sources`` override, the
  rederivation of a head with two path variables in one component, and a
  rule that does not lower — :attr:`RuleEvaluator.lowering_refusal` says why.

All modes enumerate exactly the same derivations; the indexed mode merely
attempts far fewer row matches than scan (the ``extension_attempts``
statistics counter makes the difference measurable, and
``benchmarks/bench_join_planning.py`` records it), and the compiled mode
removes the per-row interpreter constant on top.  Whatever stays interpreted
matches rows through split plans lowered once per pattern and bound-variable
set (:mod:`repro.engine.match`), never by re-inspecting the pattern per row.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Sequence
from typing import Literal as TypingLiteral

from repro.engine.compiled import lower_rule
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.engine.match import MatchPlan, lower_pattern
from repro.engine.valuation import Valuation
from repro.errors import EvaluationError, UnsafeRuleError
from repro.model.instance import Fact, Instance
from repro.storage import EMPTY_ROWS
from repro.syntax.expressions import AtomVariable, PathExpression, PathVariable, Variable
from repro.syntax.literals import Equation, Literal, Predicate
from repro.syntax.rules import Rule, bind_equations

__all__ = [
    "DEFAULT_EXECUTION",
    "ExecutionMode",
    "plan_body_order",
    "plan_literal_sequence",
    "satisfying_valuations",
    "evaluate_rule",
    "RuleEvaluator",
]

#: How predicate extensions source their candidate rows: ``"compiled"`` lowers
#: rules to id-space joins over interned terms (:mod:`repro.engine.compiled`)
#: and behaves exactly like ``"indexed"`` for what stays on valuations (see
#: the module docstring); ``"indexed"`` prunes through the storage
#: indexes under a bound-aware greedy plan; ``"scan"`` is the seed
#: nested-loop strategy, kept as the oracle of the agreement sweeps.
ExecutionMode = TypingLiteral["indexed", "scan", "compiled"]

#: The mode every layer runs when the caller names none: every signature
#: default, the service's ``options.get("execution", ...)`` and the stamp of
#: the benchmark records read this one constant.
DEFAULT_EXECUTION: ExecutionMode = "compiled"


def plan_body_order(rule: Rule) -> list[Literal]:
    """Return the rule's body literals in a safe-to-evaluate static order.

    Positive predicates come first (smaller number of variables first, a
    cheap join-ordering heuristic), then positive equations in an order in
    which each has at least one side bound when reached, then all negated
    literals.  Raises :class:`UnsafeRuleError` if no such order exists,
    which for safe rules cannot happen.

    This is the seed planner; it remains the ``"scan"``-mode order and the
    canonical *position space* that delta frontiers refer to.  The bound-aware
    planner (:func:`plan_literal_sequence`) permutes these positions per
    evaluation.
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


# -- candidate row pruning -------------------------------------------------------------------------


def _required_end_atom(
    component: PathExpression, valuation: Valuation, end: int
) -> "str | None":
    """The atom every matching path must start (``end=0``) or finish (``end=-1``)
    with, if determined by *valuation*."""
    items = component.items if end == 0 else component.items[::-1]
    for item in items:
        if isinstance(item, str):
            return item
        if isinstance(item, AtomVariable):
            value = valuation.get(item)
            return value if isinstance(value, str) else None
        if isinstance(item, PathVariable):
            binding = valuation.get(item)
            if binding is None:
                return None
            elements = binding.elements  # type: ignore[union-attr]
            if not elements:
                continue  # bound to ϵ: the adjacent item determines the atom
            value = elements[end]
            return value if isinstance(value, str) else None
        return None  # packed sub-expression: no ground end atom
    return None


def _required_length(component: PathExpression, valuation: Valuation) -> "int | None":
    """The exact length every matching path must have, if fixed under *valuation*."""
    total = 0
    for item in component.items:
        if isinstance(item, PathVariable):
            binding = valuation.get(item)
            if binding is None:
                return None
            total += len(binding.elements)  # type: ignore[union-attr]
        else:
            total += 1  # constants, atomic variables, and packed items are width one
    return total


def _candidate_rows(predicate: Predicate, storage, valuation: Valuation, ready: "Sequence[bool]"):
    """A superset of the rows that can match *predicate* under *valuation*.

    Chooses the most selective applicable index: exact tuple membership when
    every argument is bound, otherwise the smallest among the exact-path,
    first-atom, and length buckets of any argument, falling back to the full
    row set.  Soundness only needs the superset property — the associative
    matcher remains the final arbiter.  *ready* says, per argument, whether
    all of its variables are bound (a property of the join order, decided
    once per stream rather than per valuation).
    """
    components = predicate.components
    if not components:
        return storage.view()

    targets = [
        valuation.apply_to_expression(component) if is_ready else None
        for component, is_ready in zip(components, ready)
    ]
    if all(ready):
        row = tuple(targets)
        return (row,) if row in storage else EMPTY_ROWS

    best = storage.view()
    best_size = len(best)
    for position, (component, target) in enumerate(zip(components, targets)):
        if best_size <= 1:
            return best  # no further index can prune a singleton bucket
        if target is not None:
            rows = storage.rows_with_path(position, target)
            if len(rows) < best_size:
                best, best_size = rows, len(rows)
            continue
        for end in (0, -1):
            atom = _required_end_atom(component, valuation, end)
            if atom is not None:
                if end == 0:
                    rows = storage.rows_with_first_atom(position, atom)
                else:
                    rows = storage.rows_with_last_atom(position, atom)
                if len(rows) < best_size:
                    best, best_size = rows, len(rows)
        length = _required_length(component, valuation)
        if length is not None:
            rows = storage.rows_with_length(position, length)
            if len(rows) < best_size:
                best, best_size = rows, len(rows)
    return best


# -- extension steps -------------------------------------------------------------------------------


def _lowered(
    plans: "dict[tuple, MatchPlan]",
    expressions: "tuple[PathExpression, ...]",
    bound: "Collection[Variable]",
) -> MatchPlan:
    """The split plan of *expressions* under *bound*, lowered once per cache."""
    mentioned = [
        variable
        for expression in expressions
        for variable in expression.variables()
        if variable in bound
    ]
    key = (expressions, frozenset(mentioned))
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = lower_pattern(expressions, key[1])
    return plan


def _extend_with_predicate(
    valuations: Iterable[Valuation],
    predicate: Predicate,
    matcher: MatchPlan,
    ready: "Sequence[bool]",
    instance: Instance,
    limits: EvaluationLimits,
    execution: ExecutionMode,
    statistics,
) -> Iterator[Valuation]:
    storage = instance.storage(predicate.name)
    if storage is None or not storage:
        return
    if storage.arity() != predicate.arity:
        # No row of a homogeneous relation can match a predicate of another
        # arity; the scan mode would discover this one failed match at a time.
        return
    indexed = execution != "scan"
    match = matcher.match
    count = 0
    for valuation in valuations:
        if indexed:
            candidates = _candidate_rows(predicate, storage, valuation, ready)
        else:
            # The cached frozen view, not the live set: like the seed, lazy
            # consumers may add derived facts while the generator is running.
            candidates = storage.view()
        if statistics is not None:
            statistics.extension_attempts += len(candidates)
        for row in candidates:
            for extended in match(row, valuation):
                count += 1
                limits.check_derivations(count)
                yield extended


def _extend_with_equation(
    valuations: Iterable[Valuation],
    equation: Equation,
    bound: "frozenset[Variable]",
    plans: "dict[tuple, MatchPlan]",
    limits: EvaluationLimits,
) -> Iterator[Valuation]:
    """Extend through a positive equation: a known path matched against the other side."""
    left_ready = equation.lhs.variables() <= bound
    right_ready = equation.rhs.variables() <= bound
    count = 0
    if left_ready and right_ready:
        for valuation in valuations:
            if valuation.values_of(equation.lhs) == valuation.values_of(equation.rhs):
                count += 1
                limits.check_derivations(count)
                yield valuation
        return
    if not (left_ready or right_ready):
        for _ in valuations:
            raise EvaluationError(
                f"equation {equation} reached with neither side bound; the rule is unsafe"
            )
        return
    known, pattern = (equation.lhs, equation.rhs) if left_ready else (equation.rhs, equation.lhs)
    match = _lowered(plans, (pattern,), bound).match
    for valuation in valuations:
        target = valuation.apply_to_expression(known)
        for extended in match((target,), valuation):
            count += 1
            limits.check_derivations(count)
            yield extended


def _filter_negative(
    valuations: Iterable[Valuation],
    literal: Literal,
    instance: Instance,
) -> Iterator[Valuation]:
    """Keep only the valuations under which the negated literal is satisfied."""
    atom = literal.atom
    if isinstance(atom, Equation):
        lhs, rhs = atom.lhs, atom.rhs
        for valuation in valuations:
            if valuation.values_of(lhs) != valuation.values_of(rhs):
                yield valuation
    elif isinstance(atom, Predicate):
        for valuation in valuations:
            if valuation.apply_to_predicate(atom) not in instance:
                yield valuation
    else:
        raise EvaluationError(f"unexpected negated atom {atom!r}")  # pragma: no cover


def satisfying_valuations(
    rule: Rule,
    instance: Instance,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    *,
    order: Sequence[Literal] | None = None,
    frontier: "dict[int, Instance] | None" = None,
    execution: ExecutionMode = DEFAULT_EXECUTION,
    sequence: "Sequence[int] | None" = None,
    statistics=None,
    initial_valuations: "Iterable[Valuation] | None" = None,
    negative_sources: "dict[int, Instance] | None" = None,
) -> Iterator[Valuation]:
    """Yield the valuations (restricted to the rule's variables) satisfying the body.

    When *frontier* is given it maps positions in *order* to an alternative
    instance to use for the positive predicate at that position; this is how
    the semi-naive strategy restricts one body atom to the newly derived facts.
    Frontier positions always refer to the static order, regardless of the
    execution mode's actual evaluation sequence.

    *negative_sources* is the same position-indexed override for *negated*
    predicate literals: the membership check at an overridden position runs
    against the supplied instance instead of *instance*.  Signed counting
    maintenance uses this to evaluate negations against the pre-update
    overlay of a changed negated relation (the telescoped joins read "old"
    state at positions after their pivot).

    A precomputed *sequence* (a permutation of the order's positions, e.g. a
    cached plan from :class:`RuleEvaluator`) skips the per-call greedy
    planning of the indexed mode.

    *initial_valuations* seeds the join with partial valuations instead of
    the empty one — rederivation during delete–rederive maintenance uses
    this to ask "which of *these* head facts still have a derivation?" with
    the head variables pre-bound, turning the body evaluation into
    index-backed membership probes (:meth:`RuleEvaluator.derivable`).

    Every pattern is lowered (:func:`~repro.engine.match.lower_pattern`) per
    call; :meth:`RuleEvaluator.valuations` is the same stream over the
    evaluator's cache of lowered patterns.
    """
    plan = list(order) if order is not None else plan_body_order(rule)
    if sequence is None:
        sequence = _default_sequence(plan, instance, frontier, execution)
    return _run_body(
        plan,
        sequence,
        instance,
        limits,
        frontier,
        execution,
        statistics,
        initial_valuations,
        negative_sources,
        {},
    )


def _default_sequence(
    plan: Sequence[Literal],
    instance: Instance,
    frontier: "dict[int, Instance] | None",
    execution: ExecutionMode,
) -> "Sequence[int]":
    """The evaluation sequence of *plan* when the caller brings no compiled one."""
    if execution in ("indexed", "compiled"):
        # The valuation-level interpreter (used by compiled mode for rules
        # outside the simple id-space fragment, and for derivation streams)
        # plans exactly like indexed mode.
        return plan_literal_sequence(plan, instance, frontier)
    if execution == "scan":
        return range(len(plan))
    raise EvaluationError(f"unknown execution mode {execution!r}")


def _run_body(
    plan: Sequence[Literal],
    sequence: "Sequence[int]",
    instance: Instance,
    limits: EvaluationLimits,
    frontier: "dict[int, Instance] | None",
    execution: ExecutionMode,
    statistics,
    initial_valuations: "Iterable[Valuation] | None",
    negative_sources: "dict[int, Instance] | None",
    match_plans: "dict[tuple, MatchPlan]",
) -> Iterator[Valuation]:
    """Run the literals of *plan* in *sequence*; *match_plans* caches the lowered patterns."""
    # Which variables are bound when a literal is reached follows from the
    # seeds' domain and the sequence, so every pattern is lowered for its
    # bound set here, once, and the per-row work is plan execution only.
    # Seeds with different domains run as separate streams.
    if initial_valuations is None:
        streams = {frozenset(): [Valuation.EMPTY]}
    else:
        streams: "dict[frozenset, list[Valuation]]" = {}
        for valuation in initial_valuations:
            streams.setdefault(valuation.domain, []).append(valuation)

    for domain, valuations in streams.items():
        bound = set(domain)
        for position in sequence:
            literal = plan[position]
            if literal.positive and literal.is_predicate():
                source = instance
                if frontier is not None and position in frontier:
                    source = frontier[position]
                predicate: Predicate = literal.atom  # type: ignore[assignment]
                valuations = _extend_with_predicate(
                    valuations,
                    predicate,
                    _lowered(match_plans, predicate.components, bound),
                    [component.variables() <= bound for component in predicate.components],
                    source,
                    limits,
                    execution,
                    statistics,
                )
                bound |= predicate.variables()
            elif literal.positive and literal.is_equation():
                equation: Equation = literal.atom  # type: ignore[assignment]
                # A copy: the step only runs once the stream is pulled, by
                # which time `bound` has moved on to the later literals.
                valuations = _extend_with_equation(
                    valuations, equation, frozenset(bound), match_plans, limits
                )
                bound |= equation.variables()
            else:
                # Negative literals filter the stream of candidate valuations.
                source = instance
                if negative_sources is not None and position in negative_sources:
                    source = negative_sources[position]
                valuations = _filter_negative(valuations, literal, source)
        yield from valuations


def evaluate_rule(
    rule: Rule,
    instance: Instance,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    *,
    frontier: "dict[int, Instance] | None" = None,
    order: Sequence[Literal] | None = None,
    execution: ExecutionMode = DEFAULT_EXECUTION,
    sequence: "Sequence[int] | None" = None,
    statistics=None,
) -> set[Fact]:
    """Return the head facts derivable from *instance* by a single application of *rule*."""
    derived: set[Fact] = set()
    for valuation in satisfying_valuations(
        rule,
        instance,
        limits,
        order=order,
        frontier=frontier,
        execution=execution,
        sequence=sequence,
        statistics=statistics,
    ):
        fact = valuation.apply_to_predicate(rule.head)
        for path in fact.paths:
            limits.check_path_length(len(path))
        derived.add(fact)
    return derived


class RuleEvaluator:
    """Pre-plans a rule's join order and evaluates it repeatedly.

    Fixpoint computation evaluates the same rules many times; the static body
    order (the frontier position space) is planned once per rule, and the
    indexed execution mode's greedy evaluation sequence is *compiled*: cached
    per delta position (the frontier key) and reused until the cardinality
    regime of the relations involved changes.  The planner's choices depend
    only on the relative sizes of the source relations, so a plan stays good
    while every source remains in the same power-of-two size bucket; crossing
    a bucket boundary invalidates the cached plan and triggers a replan.
    The split plans of the body's patterns (:mod:`repro.engine.match`) are
    cached beside the sequences, per pattern and bound-variable set.
    """

    def __init__(
        self,
        rule: Rule,
        limits: EvaluationLimits = DEFAULT_LIMITS,
        *,
        execution: ExecutionMode = DEFAULT_EXECUTION,
    ):
        self.rule = rule
        self.limits = limits
        self.execution: ExecutionMode = execution
        self.order = plan_body_order(rule)
        #: The id-space plan (compiled mode only) — every safe rule has one —
        #: or, beside it, the registered reason the rule stays interpreted.
        self.compiled_plan = None
        self.lowering_refusal: "str | None" = None
        if execution == "compiled":
            lowered = lower_rule(rule.head, self.order)
            if isinstance(lowered, str):
                self.lowering_refusal = lowered
            else:
                self.compiled_plan = lowered
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
        #: Relation names the body reads under negation (maintenance refuses
        #: to propagate deltas through these).
        negated: set[str] = set()
        for literal in self.order:
            if literal.negative and literal.is_predicate():
                negated.add(literal.atom.name)  # type: ignore[union-attr]
        self.negated_relation_names = frozenset(negated)
        #: All positive-predicate positions, for the cardinality signature.
        self._predicate_order_positions = tuple(
            position
            for positions in self.predicate_positions.values()
            for position in sorted(positions)
        )
        #: frontier key → (cardinality signature, compiled evaluation sequence).
        self._plans: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        #: (pattern, bound variables) → lowered split plan.  Bounded by the
        #: rule itself: its patterns times the bound sets its join orders reach.
        self.match_plans: dict[tuple, MatchPlan] = {}

    def _cardinality_signature(
        self, instance: Instance, frontier: "dict[int, Instance] | None"
    ) -> tuple[int, ...]:
        """Power-of-two size buckets of every body predicate's source relation."""
        signature = []
        for position in self._predicate_order_positions:
            source = instance
            if frontier is not None and position in frontier:
                source = frontier[position]
            storage = source.storage(self.order[position].atom.name)  # type: ignore[union-attr]
            size = len(storage) if storage is not None else 0
            signature.append(size.bit_length())
        return tuple(signature)

    def compiled_sequence(
        self,
        instance: Instance,
        frontier: "dict[int, Instance] | None" = None,
        statistics=None,
    ) -> tuple[int, ...]:
        """The (cached) indexed-mode evaluation sequence for this call shape."""
        key = tuple(sorted(frontier)) if frontier else ()
        signature = self._cardinality_signature(instance, frontier)
        cached = self._plans.get(key)
        if cached is not None and cached[0] == signature:
            if statistics is not None:
                statistics.plan_cache_hits += 1
            return cached[1]
        sequence = tuple(plan_literal_sequence(self.order, instance, frontier))
        self._plans[key] = (signature, sequence)
        if statistics is not None:
            statistics.plans_compiled += 1
        return sequence

    def valuations(
        self,
        instance: Instance,
        frontier: "dict[int, Instance] | None" = None,
        statistics=None,
        *,
        order: "Sequence[Literal] | None" = None,
        sequence: "Sequence[int] | None" = None,
        initial_valuations: "Iterable[Valuation] | None" = None,
        negative_sources: "dict[int, Instance] | None" = None,
    ) -> Iterator[Valuation]:
        """:func:`satisfying_valuations` of this rule, on the cached split plans.

        *order* replaces the body order position by position — signed
        maintenance flips one negated literal positive to pivot on it — and
        is planned per call unless a *sequence* comes with it.
        """
        plan = self.order if order is None else order
        if sequence is None:
            sequence = _default_sequence(plan, instance, frontier, self.execution)
        return _run_body(
            plan,
            sequence,
            instance,
            self.limits,
            frontier,
            self.execution,
            statistics,
            initial_valuations,
            negative_sources,
            self.match_plans,
        )

    def derivations(
        self,
        instance: Instance,
        frontier: "dict[int, Instance] | None" = None,
        statistics=None,
        *,
        negative_sources: "dict[int, Instance] | None" = None,
    ) -> "Iterator[tuple[Fact, Valuation]]":
        """Yield every ``(head fact, satisfying valuation)`` derivation.

        Unlike :meth:`derive` this does not collapse derivations into a fact
        set: counting-based maintenance needs each distinct body valuation as
        one unit of support for its head fact.
        """
        sequence = None
        if self.execution in ("indexed", "compiled"):
            sequence = self.compiled_sequence(instance, frontier, statistics)
        for valuation in self.valuations(
            instance,
            frontier,
            statistics,
            sequence=sequence,
            negative_sources=negative_sources,
        ):
            fact = valuation.apply_to_predicate(self.rule.head)
            for path in fact.paths:
                self.limits.check_path_length(len(path))
            yield fact, valuation

    def derivable(
        self, instance: Instance, facts: "Collection[Fact]", statistics=None
    ) -> set[Fact]:
        """The subset of the head *facts* this rule derives from *instance* in one application.

        Delete–rederive asks this of everything it over-deleted, set at a
        time.  The body only ever reads *instance*: a fact of *facts* supports
        nothing, itself included, unless *instance* holds it.  A rule that
        lowers and whose head can be matched in id space runs its ordinary
        join led by one extra step over the head rows
        (:meth:`~repro.engine.compiled.CompiledRule.derivable_rows`);
        anything else runs one interpreted stream seeded with the head
        valuations of all the facts, planned once around the head's variables.
        """
        head = self.rule.head
        plan = self.compiled_plan
        if plan is not None and plan.head_step is not None:
            intern_row = instance.term_table().intern_row
            by_row = {
                intern_row(fact.paths): fact
                for fact in facts
                if fact.relation == head.name and fact.arity == head.arity
            }
            id_rows = plan.derivable_rows(instance, list(by_row), self.limits, statistics)
            return {by_row[row] for row in id_rows}
        seeds = [valuation for fact in facts for valuation in self.head_valuations(fact)]
        if not seeds:
            return set()
        sequence = None
        if self.execution in ("indexed", "compiled"):
            # The cached sequences only know unbound starts; around the head's
            # bindings the body turns into index-backed membership probes.
            sequence = plan_literal_sequence(self.order, instance, bound=head.variables())
            if statistics is not None:
                statistics.plans_compiled += 1
        return {
            valuation.apply_to_predicate(head)
            for valuation in self.valuations(
                instance, None, statistics, sequence=sequence, initial_valuations=seeds
            )
        }

    def head_valuations(self, fact: Fact) -> list[Valuation]:
        """The valuations of the head's variables under which the head denotes *fact*.

        These seed the interpreted stream of :meth:`derivable`; the head's
        split plan is lowered once.
        """
        head = self.rule.head
        if head.name != fact.relation or head.arity != fact.arity:
            return []
        plan = _lowered(self.match_plans, head.components, ())
        return list(plan.match(fact.paths, Valuation.EMPTY))

    def derive(
        self,
        instance: Instance,
        frontier: "dict[int, Instance] | None" = None,
        statistics=None,
        *,
        negative_sources: "dict[int, Instance] | None" = None,
    ) -> set[Fact]:
        """Evaluate the rule once against *instance* (optionally delta-restricted).

        In compiled mode a rule runs its id-space plan
        (:class:`~repro.engine.compiled.CompiledRule`); a rule that did not
        lower — and every :meth:`derivations` stream, which needs
        per-valuation support — takes the interpreted path, so answers are
        identical across modes.
        A *negative_sources* override always interprets: the compiled plan's
        negation membership tests are baked against the live instance.
        """
        if self.compiled_plan is not None and negative_sources is None:
            return self.compiled_plan.derive(instance, frontier, self.limits, statistics)
        return {
            fact
            for fact, _ in self.derivations(
                instance, frontier, statistics, negative_sources=negative_sources
            )
        }
