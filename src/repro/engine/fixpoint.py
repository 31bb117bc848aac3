"""Stratified fixpoint evaluation of Sequence Datalog programs (Section 2.3).

The semantics of a program is defined stratum by stratum: each stratum is a
semipositive program applied to the result of the preceding strata; the
result of a semipositive program ``P`` on an instance ``I`` is the smallest
instance containing ``I`` and satisfying all rules of ``P``.

One loop computes it, semi-naively and **resident in id space**: the first
round evaluates every rule of the stratum against the full instance; each
later round evaluates only the rules whose body mentions a relation that
changed in the previous round, once per such body position with that position
restricted to the newly derived facts.  Every round's head rows stay id
tuples (:meth:`~repro.engine.compiled.CompiledRule.head_rows`), the rows the
head relation already holds are subtracted from its columnar view's row set,
each genuinely new row is decoded to paths exactly once — where it enters
the relation, which is also where the path-length limit is checked — and the
next round's delta view is built from those same id rows.

The naive, valuation-level definition of the same fixpoint is kept apart in
:mod:`repro.engine.reference` as the oracle the agreement suites compare
this loop against; nothing here imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.engine.compiled import CompiledProgram, CompiledRule, decode_rows
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.model.instance import Fact, Instance
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


def _resident_round(
    compiled: Sequence[CompiledRule],
    current: Instance,
    delta: "Instance | None",
    limits: EvaluationLimits,
    statistics: EvaluationStatistics,
) -> Instance:
    """One round, kept in id space; returns the next delta.

    With *delta* ``None`` — the first round — every rule runs against
    *current*; otherwise each rule whose body mentions a relation of *delta*
    runs once per such position, restricted there to *delta*.  Head id rows
    lose the rows their relation already holds by set difference against its
    view; what is left is decoded once, joins *current* as one batch per
    relation (which advances that view), and becomes the next delta — an
    instance sharing the term table, with views built from the very id
    rows.
    """
    table = current.term_table()
    #: (head relation, arity) → new id rows; a batch decodes as one arity.
    fresh: "dict[tuple[str, int], set]" = {}
    for plan in compiled:
        if delta is None:
            frontiers: list = [None]
        else:
            frontiers = [
                {position: delta}
                for name in plan.predicate_positions.keys() & delta.relation_names
                for position in plan.predicate_positions[name]
            ]
            if not frontiers:
                continue
            statistics.delta_restricted_applications += len(frontiers)
        statistics.rule_applications += 1
        head = plan.rule.head
        for frontier in frontiers:
            derived = plan.head_rows(current, frontier, limits, statistics)
            storage = current.storage(head.name)
            if derived and storage:
                derived -= storage.columnar(table).id_row_set
            if derived:
                key = (head.name, head.arity)
                if key in fresh:
                    fresh[key] |= derived
                else:
                    fresh[key] = derived
    following = current.restricted(())
    for (name, _), id_set in fresh.items():
        id_rows = list(id_set)
        rows = set(decode_rows(table, id_rows, limits))
        current.add_rows(name, rows, id_rows)
        following.add_rows(name, rows, id_rows)
    statistics.facts_derived += following.fact_count()
    limits.check_fact_count(current.fact_count())
    return following


def evaluate_stratum(
    stratum: Stratum,
    instance: Instance,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    *,
    statistics: EvaluationStatistics | None = None,
    compiled: "Sequence[CompiledRule] | None" = None,
    copy: bool = True,
) -> Instance:
    """Compute the fixpoint of one stratum, returning the enlarged instance.

    The input *instance* is not modified unless ``copy=False``, which lets
    :func:`evaluate_program` grow one working copy across chained strata
    instead of re-copying the ever-larger instance per stratum.  *compiled*
    are the stratum's rules already lowered (a
    :class:`~repro.engine.compiled.CompiledStratum`'s ``rules``); without
    them the rules are lowered for this call.
    """
    if statistics is None:
        statistics = EvaluationStatistics()
    current = instance.copy() if copy else instance
    for rule in stratum:
        current.ensure_relation(rule.head.name)
    if compiled is None:
        compiled = [CompiledRule(rule) for rule in stratum]

    # First round: all rules against the full instance; then each round's
    # rules restricted to the previous round's delta, until it is empty.
    iterations = 1
    limits.check_iterations(iterations)
    delta = _resident_round(compiled, current, None, limits, statistics)
    while delta:
        iterations += 1
        limits.check_iterations(iterations)
        delta = _resident_round(compiled, current, delta, limits, statistics)
    statistics.merge_stratum(iterations)
    return current


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
        current = evaluate_stratum(
            stratum.stratum,
            current,
            limits,
            statistics=statistics,
            compiled=stratum.rules,
            copy=False,
        )
    for name in program.idb_relation_names():
        current.ensure_relation(name)
    return current
