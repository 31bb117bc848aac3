"""Stratified fixpoint evaluation of Sequence Datalog programs (Section 2.3).

The semantics of a program is defined stratum by stratum: each stratum is a
semipositive program applied to the result of the preceding strata; the
result of a semipositive program ``P`` on an instance ``I`` is the smallest
instance containing ``I`` and satisfying all rules of ``P``.

One loop computes it, semi-naively and **resident in id space**: the first
round evaluates every rule of the stratum against the full instance; each
later round (:func:`semi_naive_rounds`, which delete–rederive maintenance
runs too) evaluates only the rules whose body mentions a relation that
changed in the previous round, once per such body position with that
position restricted to a view of the newly derived id rows.  Every round's
head rows stay id tuples (:meth:`~repro.engine.compiled.CompiledRule.head_rows`),
the rows the head relation already holds are subtracted from its columnar
view's row set, and each genuinely new row is decoded to paths exactly once,
where it enters the relation (:func:`admit_rows`), which is also where the
path-length limit is checked.

The naive, valuation-level definition of the same fixpoint is kept apart in
:mod:`repro.engine.reference` as the oracle the agreement suites compare
this loop against; nothing here imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.engine.compiled import CompiledProgram, CompiledRule, decode_rows
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.errors import ModelError
from repro.model.instance import Fact, Instance
from repro.storage import ColumnarView, RowSources
from repro.syntax.programs import Program, Stratum

__all__ = [
    "EvaluationStatistics",
    "evaluate_stratum",
    "evaluate_program",
]


@dataclass
class EvaluationStatistics:
    """Counters accumulated while evaluating a program.

    ``rule_applications`` counts how many times a rule was evaluated in a
    round (at most once per rule per round);
    ``delta_restricted_applications`` additionally counts the per-delta-
    position body evaluations of the semi-naive rounds, which may exceed
    the rule count for rules with several IDB body predicates.
    ``extension_attempts`` counts the candidate rows a join step looked at
    while extending its register rows through a body predicate — the
    nested-loop work the hash groupings exist to avoid.
    ``plans_compiled`` and ``plan_cache_hits`` split the body evaluations
    into those that chose a join order and those that reused the cached one
    (see :class:`~repro.engine.compiled.CompiledRule`).

    The maintenance counters belong to incremental view maintenance
    (:mod:`repro.engine.maintenance`): ``maintenance_rounds`` counts the
    delta-propagation rounds of a pass — one per counting stratum, and in a
    delete–rederive stratum one per overdeletion round, one for the
    head-led rederivation ask, one per semi-naive rederivation round and
    one per insertion round; ``rederivation_attempts`` the (over-deleted
    row, rule of its head relation) pairs the head-led ask asked about — a
    row once per rule until one derives it; and
    ``facts_retracted`` the facts that net-disappeared from a maintained
    materialization (EDB retractions plus derived facts that lost their last
    support).

    ``subgoal_table_hits`` counts goal-mode calls answered from a session's
    subgoal answer table (:mod:`repro.engine.tabling`) — repeated subsumed
    calls detected and served with zero evaluation.
    """

    iterations: int = 0
    rule_applications: int = 0
    delta_restricted_applications: int = 0
    facts_derived: int = 0
    extension_attempts: int = 0
    plans_compiled: int = 0
    plan_cache_hits: int = 0
    maintenance_rounds: int = 0
    rederivation_attempts: int = 0
    facts_retracted: int = 0
    subgoal_table_hits: int = 0
    per_stratum_iterations: list[int] = field(default_factory=list)

    def merge_stratum(self, iterations: int) -> None:
        """Record the iteration count of one stratum."""
        self.per_stratum_iterations.append(iterations)
        self.iterations += iterations


def admit_rows(instance: Instance, name: str, rows: set, limits: EvaluationLimits) -> set:
    """Add to relation *name* of *instance* the head id rows *rows* it lacks; return them.

    What the relation holds is subtracted from its columnar view's row set;
    the rest decode once — where the path-length limit is checked — and
    enter as one batch, which advances that view by the same id rows.
    """
    table = instance.term_table()
    stored = instance.storage(name)
    new = rows - stored.columnar(table).id_row_set if stored else rows
    if new:
        id_rows = list(new)
        instance.add_rows(name, set(decode_rows(table, id_rows, limits)), id_rows)
    return new


def semi_naive_rounds(
    plans: Sequence[CompiledRule],
    instance: Instance,
    delta: "dict[str, set]",
    take: "Callable[[dict[str, set]], dict[str, set]]",
    limits: EvaluationLimits,
    statistics: EvaluationStatistics,
    *,
    around=None,
    asks=None,
    negative=None,
    rounds: int = 0,
) -> int:
    """Semi-naive rounds from the id rows *delta* until a round takes nothing.

    Each rule reading a delta relation (and passing *asks*, when given) runs
    once per such body position, restricted there to a view of the delta's
    rows; its other positions read ``around(plan, pivot)`` where given, else
    *instance*, and its negated ones ``negative(plan)``.  ``take`` turns a
    round's head id rows, per relation, into the next delta.  The rounds are
    numbered on from *rounds*, the iteration limit is checked before each,
    and the last number is returned.
    """
    table = instance.term_table()
    while delta := {name: rows for name, rows in delta.items() if rows}:
        rounds += 1
        limits.check_iterations(rounds)
        sources = RowSources(
            {name: ColumnarView(list(rows), table) for name, rows in delta.items()}
        )
        found: "dict[str, set]" = {}
        for plan in plans:
            pivots = [
                position
                for name in plan.predicate_positions.keys() & delta.keys()
                for position in plan.predicate_positions[name]
            ]
            if not pivots or (asks is not None and not asks(plan)):
                continue
            statistics.rule_applications += 1
            for pivot in pivots:
                statistics.delta_restricted_applications += 1
                frontier = around(plan, pivot) if around else {}
                frontier[pivot] = sources
                found.setdefault(plan.head_name, set()).update(
                    plan.head_rows(
                        instance, frontier, limits, statistics, negative and negative(plan)
                    )
                )
        delta = take(found)
    return rounds


def evaluate_stratum(
    stratum: Stratum,
    instance: Instance,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    *,
    statistics: EvaluationStatistics | None = None,
    compiled: "Sequence[CompiledRule] | None" = None,
) -> Instance:
    """Grow *instance* in place to the fixpoint of one stratum, and return it.

    *compiled* are the stratum's rules already lowered (a
    :class:`~repro.engine.compiled.CompiledStratum`'s ``rules``); without
    them the rules are lowered for this call.
    """
    if statistics is None:
        statistics = EvaluationStatistics()
    # A round's head rows decode as one batch per relation, so of one arity.
    heads = {(rule.head.name, rule.head.arity) for rule in stratum}
    if len(heads) > len(stratum.head_relation_names()):
        raise ModelError("the stratum derives one relation at two arities")
    for rule in stratum:
        instance.ensure_relation(rule.head.name)
    if compiled is None:
        compiled = [CompiledRule(rule) for rule in stratum]

    def take(found: "dict[str, set]") -> "dict[str, set]":
        fresh = {name: admit_rows(instance, name, rows, limits) for name, rows in found.items()}
        statistics.facts_derived += sum(map(len, fresh.values()))
        limits.check_fact_count(instance.fact_count())
        return fresh

    # The first round runs every rule against the full instance; its new
    # rows are the first delta of the semi-naive rounds.
    limits.check_iterations(1)
    found: "dict[str, set]" = {}
    for plan in compiled:
        statistics.rule_applications += 1
        found.setdefault(plan.head_name, set()).update(
            plan.head_rows(instance, None, limits, statistics)
        )
    iterations = semi_naive_rounds(
        compiled, instance, take(found), take, limits, statistics, rounds=1
    )
    statistics.merge_stratum(iterations)
    return instance


def evaluate_program(
    program: Program,
    instance: Instance,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    *,
    statistics: EvaluationStatistics | None = None,
    seed_facts: "Iterable[Fact] | None" = None,
    compiled: "CompiledProgram | None" = None,
) -> Instance:
    """Evaluate *program* on *instance*, returning EDB plus all IDB relations.

    The strata are applied in order, each as a semipositive program over the
    result of the preceding ones (Section 2.3).  The input instance is copied
    exactly once; the working copy then grows in place through the chained
    strata.  If any stratum exceeds the limits,
    :class:`~repro.errors.EvaluationBudgetExceeded` propagates.

    *seed_facts* are injected into the working copy before the first stratum
    — this is how goal-directed evaluation plants the magic fact describing
    the query's bindings (see :mod:`repro.transform.magic`).  *compiled*
    optionally supplies the program already lowered
    (:class:`~repro.engine.compiled.CompiledProgram`): repeated evaluations
    of the same program reuse both the plans and their cached join orders.
    """
    compiled = CompiledProgram.of(program, compiled)
    current = instance.copy()
    if seed_facts is not None:
        for fact in seed_facts:
            current.add_fact(fact)
    for stratum in compiled.strata:
        evaluate_stratum(
            stratum.stratum, current, limits, statistics=statistics, compiled=stratum.rules
        )
    for name in program.idb_relation_names():
        current.ensure_relation(name)
    return current
