"""Incremental view maintenance of stratified fixpoints.

A serving workload rarely re-asks a query over a fresh database: it asks the
same query over a database that drifted by a handful of facts.  This module
keeps a program's materialized fixpoint — the result of
:func:`~repro.engine.fixpoint.evaluate_program` — *maintained* under such
drifts instead of recomputing it:

* **Counting** (non-recursive strata): every derived row carries the number
  of distinct ``(rule, body valuation)`` derivations supporting it — a
  valuation of *all* the rule's variables, tallied per head id row
  (:meth:`~repro.engine.compiled.CompiledRule.derivation_counts`).  An
  update changes the counts by the telescoped delta joins
  ``new⁽<i⁾ ⊗ Δi ⊗ old⁽>i⁾`` (one term per body position over a changed
  relation), which count each gained and lost derivation exactly once;
  a row enters its relation when its count leaves zero and leaves when it
  returns there.
* **Delete–rederive** (recursive strata), in id space: deletions are
  *over-deleted* (everything derivable through a deleted fact, to a
  fixpoint, against the old state: the columnar views the changed relations
  had).  The over-deleted rows are *hidden*, not deleted; rederivation and
  insertion read each head relation's *survivors*, a
  :class:`~repro.storage.MaskedView`, and show again the rows they bring
  back.  Only the rows still hidden are discarded, and only they and the
  new rows decode, so a retraction pays for its net change.  All three
  phases run :func:`~repro.engine.fixpoint.semi_naive_rounds`.

Both keep one row form, id rows: EDB rows are interned as they enter, support
counts and pinned rows are keyed by ``(relation, id row)``, and each stratum
hands on its net change as id rows.  A row enters a relation through
:func:`~repro.engine.fixpoint.admit_rows` (its one decode, where the
path-length limit is checked) and leaves through ``Relation.discard_rows``.
Only :meth:`MaintainedFixpoint.support_state` builds facts.

Both algorithms propagate **signed** deltas through stratified negation.  A
negated literal ``not N(t̄)`` is an indicator that flips when ``N`` changes,
so the telescoped joins gain one extra pivot per changed negated position:
the literal is flipped positive
(:meth:`~repro.engine.compiled.CompiledRule.pivoted`, one more lowered
plan in the same position space), restricted to the delta rows of ``N``, and
its contribution enters with the *opposite* sign (an addition to ``N``
retracts downstream derivations, a retraction adds them).  Delete–rederive
likewise seeds extra overdeletions from additions to negated relations
(evaluated against the pre-update overlay) and extra insertions from
retractions (evaluated against the new state).  Stratification makes this
sound: a negated relation is always owned by an earlier stratum, so its net
delta is final by the time any reader maintains.  Only genuinely
unstratifiable programs are refused, at build time, with
:class:`~repro.errors.MaintenanceUnsupportedError`.

A fixpoint reads its base relations in place: its working instance holds the
base instance's own relation objects and copies only the relations it writes
(:meth:`~repro.model.instance.Instance.shared_copy`).  So an update is
applied once, to the base, by :func:`apply_delta`, and every fixpoint built
over that base is then maintained from the one :class:`ChangeSet` it
returns (:meth:`MaintainedFixpoint.update`).  A relation the program never
mentions changes in the base and moves nothing derived.  The property tests in
``tests/properties/test_maintenance_agreement.py`` assert that a maintained
materialization stays extensionally identical to a from-scratch fixpoint of
the reference evaluator, including retractions and retraction streams
through negated literals.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.engine.compiled import CompiledProgram, CompiledRule, CompiledStratum
from repro.engine.fixpoint import (
    EvaluationStatistics, admit_rows, evaluate_stratum, semi_naive_rounds
)
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.errors import EvaluationError, MaintenanceUnsupportedError, ModelError
from repro.model.instance import Fact, Instance
from repro.storage import ColumnarView, MaskedView, Relation, RowSources, TermTable
from repro.syntax.programs import Program

__all__ = ["ChangeSet", "MaintainedFixpoint", "apply_delta"]


class _StratumState:
    """Per-stratum maintenance state, keyed by ``(relation, id row)``.

    ``counts`` (counting strata only, ``None`` for a recursive one) maps
    each derived row to its number of distinct ``(rule, body valuation)``
    derivations.  ``pinned`` holds the rows of this stratum's head relations
    that were already present in the *input* instance: they are axioms,
    never retracted by maintenance.
    """

    __slots__ = ("counts", "pinned")

    def __init__(self, recursive: bool, pinned: "frozenset[tuple[str, tuple]]"):
        self.counts: "dict[tuple[str, tuple], int] | None" = None if recursive else {}
        self.pinned = pinned


class ChangeSet:
    """An update's running per-relation delta in id space, threaded through the strata.

    ``added_facts`` / ``removed_facts`` are the net base facts the update
    changed (:func:`apply_delta`).  Per changed relation: its added and
    removed id rows, views of them (``added_overlay`` / ``removed_overlay``)
    and the view it had before the update (``old_overlay``), the frontier
    sources of the delta joins.
    """

    __slots__ = (
        "table", "added_facts", "removed_facts", "names", "added", "removed",
        "added_overlay", "removed_overlay", "old_overlay",
    )

    def __init__(
        self, table: TermTable, added_facts: "frozenset[Fact]", removed_facts: "frozenset[Fact]"
    ) -> None:
        self.table = table
        self.added_facts = added_facts
        self.removed_facts = removed_facts
        self.names: set[str] = set()
        self.added: dict[str, set] = {}
        self.removed: dict[str, set] = {}
        self.added_overlay = RowSources()
        self.removed_overlay = RowSources()
        #: The columnar views the changed relations had before the update
        #: mutated them (:meth:`hold`); a view handed out never changes.
        self.old_overlay = RowSources()

    def hold(self, instance: Instance, names: "Iterable[str]") -> None:
        """Hold *instance*'s relations *names*, read-only, as they are now."""
        table = instance.term_table()
        for name in names:
            self.old_overlay[name] = (instance.storage(name) or Relation()).columnar(table)

    def record(self, name: str, added_rows: set, removed_rows: set) -> None:
        """Register *name* as changed by the id rows given (its old state is already held)."""
        if not added_rows and not removed_rows:
            return
        self.names.add(name)
        self.added[name], self.removed[name] = added_rows, removed_rows
        self.added_overlay[name] = ColumnarView(list(added_rows), self.table)
        self.removed_overlay[name] = ColumnarView(list(removed_rows), self.table)

    def extended(self) -> "ChangeSet":
        """A copy that one fixpoint extends with the changes of its derived relations."""
        clone = ChangeSet(self.table, self.added_facts, self.removed_facts)
        clone.names = set(self.names)
        clone.added, clone.removed = dict(self.added), dict(self.removed)
        clone.added_overlay = RowSources(self.added_overlay)
        clone.removed_overlay = RowSources(self.removed_overlay)
        clone.old_overlay = RowSources(self.old_overlay)
        return clone


def apply_delta(
    instance: Instance, additions: Iterable[Fact] = (), retractions: Iterable[Fact] = ()
) -> ChangeSet:
    """Net a base delta against *instance*, apply it there once, and return the change.

    Additions win over retractions of the same fact (retract-then-add nets
    out), and facts already present or absent drop out.  Each changed
    relation's old columnar view is held, its rows are interned once and
    leave or enter by their id rows (``Relation.discard_rows`` /
    :meth:`~repro.model.instance.Instance.add_rows`), so the view advances
    in step; a relation that empties stays present.  An addition of the
    wrong arity raises :class:`~repro.errors.ModelError` before anything
    changes.  Every fixpoint built over *instance* is then maintained from
    the returned change (:meth:`MaintainedFixpoint.update`).
    """
    added_set = set(additions)
    added_facts = frozenset(fact for fact in added_set if fact not in instance)
    removed_facts = frozenset(
        fact for fact in retractions if fact not in added_set and fact in instance
    )
    rows: "dict[str, tuple[set, set]]" = {}
    for facts, side in ((added_facts, 0), (removed_facts, 1)):
        for fact in facts:
            rows.setdefault(fact.relation, (set(), set()))[side].add(fact.paths)
    for name, (added_rows, _removed) in rows.items():
        arities = {len(row) for row in added_rows} | {instance.arity_of(name)} - {None}
        if len(arities) > 1:
            raise ModelError(f"the delta gives relation {name!r} arities {sorted(arities)}")
    table = instance.term_table()
    change = ChangeSet(table, added_facts, removed_facts)
    change.hold(instance, rows)
    for name, (added_rows, removed_rows) in rows.items():
        added_ids = set(map(table.intern_row, added_rows))
        removed_ids = set(map(table.intern_row, removed_rows))
        if removed_ids:
            instance.storage(name).discard_rows(  # type: ignore[union-attr]
                removed_rows, list(removed_ids), table
            )
        if added_rows:
            instance.add_rows(name, added_rows, list(added_ids))
        change.record(name, added_ids, removed_ids)
    return change


def _changed_negations(plan: CompiledRule, changes: ChangeSet) -> "dict[int, str]":
    """Static position → relation name of the negated predicates over a changed relation."""
    return {
        negation.position: negation.name
        for negation in plan.negations
        if negation.name in changes.names
    }


class MaintainedFixpoint:
    """A materialized program fixpoint that can be updated in place.

    Built by :meth:`evaluate` (which shares the semi-naive core and the
    compiled-plan cache with :func:`~repro.engine.fixpoint.evaluate_program`)
    and advanced by :meth:`update`.  After an update, :attr:`materialized`
    is extensionally identical to re-evaluating the program on the updated
    base instance.  If an update raises, the state may be partially applied
    and the fixpoint marks itself stale; further updates are refused and the
    owner must rebuild from scratch.
    """

    def __init__(
        self,
        program: Program,
        materialized: Instance,
        states: list[_StratumState],
        limits: EvaluationLimits,
        compiled: CompiledProgram,
    ):
        self.program = program
        self.materialized = materialized
        self.limits = limits
        self.compiled = compiled
        self._states = states
        self._idb = program.idb_relation_names()
        self._valid = True

    # -- construction ------------------------------------------------------------------

    @classmethod
    def evaluate(
        cls,
        program: Program,
        instance: Instance,
        limits: EvaluationLimits = DEFAULT_LIMITS,
        *,
        statistics: "EvaluationStatistics | None" = None,
        compiled: "CompiledProgram | None" = None,
        seed_facts: "Iterable[Fact] | None" = None,
    ) -> "MaintainedFixpoint":
        """Materialize *program* over *instance*, with support state.

        Equivalent to :func:`~repro.engine.fixpoint.evaluate_program` on the
        same inputs, but non-recursive strata are evaluated *counting* —
        each derivation enumerated once and tallied — so later updates can
        maintain them exactly.  Raises
        :class:`~repro.errors.MaintenanceUnsupportedError` (before doing any
        work) for programs whose strata the maintainer cannot own, e.g. a
        relation defined in several strata.

        The materialization reads *instance*'s relations in place and copies
        only those it writes — the program's derived relations and the
        relations of *seed_facts*
        (:meth:`~repro.model.instance.Instance.shared_copy`; the term table
        is created on *instance* if needed).  So *instance* changes with
        every :meth:`update`, whose change :func:`apply_delta` applies to
        it, and a change made to it any other way is not maintained.  Build
        over an instance that already holds (possibly empty) every relation
        a later update touches: a relation added to it afterwards is not
        the materialization's.

        *seed_facts* are planted into the working instance before the first
        stratum, exactly as in :func:`~repro.engine.fixpoint.evaluate_program`
        — this is how a goal-directed (magic) program's seed enters a
        maintained materialization.  Planted facts of derived relations are
        *pinned*: they are axioms of this materialization and never
        retracted by maintenance.
        """
        if statistics is None:
            statistics = EvaluationStatistics()
        seen_heads: set[str] = set()
        for index, stratum in enumerate(program.strata):
            heads = stratum.head_relation_names()
            overlap = heads & seen_heads
            if overlap:
                raise MaintenanceUnsupportedError(
                    f"relation(s) {sorted(overlap)} are defined in several strata; "
                    f"maintenance needs every relation owned by exactly one stratum"
                )
            seen_heads |= heads
        # Signed propagation through a negated literal relies on the negated
        # relation being sealed by an *earlier* stratum.  Program construction
        # guarantees that; a hand-assembled stratum list might not, and an
        # unstratifiable one has no unambiguous fixpoint to maintain.
        defined_so_far: set[str] = set()
        for index, stratum in enumerate(program.strata):
            unsealed = stratum.negated_relation_names() & (
                program.idb_relation_names() - defined_so_far
            )
            if unsealed:
                raise MaintenanceUnsupportedError(
                    f"stratum {index} negates relation(s) {sorted(unsealed)} that no "
                    f"earlier stratum defines; the program is not stratified, so its "
                    f"fixpoint is ambiguous and cannot be maintained"
                )
            defined_so_far |= stratum.head_relation_names()

        compiled = CompiledProgram.of(program, compiled)
        seed_facts = list(seed_facts or ())
        current = instance.shared_copy(
            program.idb_relation_names() | {fact.relation for fact in seed_facts}
        )
        for fact in seed_facts:
            current.add_fact(fact)
        table = current.term_table()
        states: list[_StratumState] = []
        for stratum in compiled.strata:
            pinned = frozenset(
                (name, table.intern_row(row))
                for name in stratum.stratum.head_relation_names()
                for row in current.storage(name) or ()
            )
            state = _StratumState(stratum.recursive, pinned)
            if stratum.recursive:
                evaluate_stratum(
                    stratum.stratum, current, limits, statistics=statistics, compiled=stratum.rules
                )
            else:
                cls._evaluate_counting_stratum(stratum, current, state, limits, statistics)
            states.append(state)
        for name in program.idb_relation_names():
            current.ensure_relation(name)
        return cls(program, current, states, limits, compiled)

    # -- durability (support-state export / restore) -----------------------------------

    def support_state(self) -> "list[tuple[bool, dict[Fact, int] | None, frozenset[Fact]]]":
        """The per-stratum maintenance support as plain data.

        One ``(recursive, counts, pinned)`` triple per stratum, in stratum
        order — together with :attr:`materialized` this is *everything*
        :meth:`update` reads, so a snapshot carrying it can be restored by
        :meth:`from_support` without re-evaluating anything.
        """
        path = self.materialized.term_table().path

        def fact(key: "tuple[str, tuple]") -> Fact:
            name, row = key
            return Fact._from_trusted(name, tuple(map(path, row)))

        return [
            (
                stratum.recursive,
                None
                if state.counts is None
                else {fact(key): count for key, count in state.counts.items()},
                frozenset(map(fact, state.pinned)),
            )
            for stratum, state in zip(self.compiled.strata, self._states)
        ]

    @classmethod
    def from_support(
        cls,
        program: Program,
        materialized: Instance,
        support: "Iterable[tuple[bool, dict[Fact, int] | None, Iterable[Fact]]]",
        limits: EvaluationLimits,
        compiled: CompiledProgram,
    ) -> "MaintainedFixpoint":
        """Rebuild a maintained fixpoint from exported support state.

        The inverse of :meth:`support_state` + :attr:`materialized`: no
        evaluation happens — which is what makes restore-from-snapshot
        fast.  The support must match the program's strata (count and
        the recursive flags of *compiled*); a mismatch means the snapshot
        was taken for a different program shape and is refused with
        :class:`~repro.errors.MaintenanceUnsupportedError`.
        """
        compiled = CompiledProgram.of(program, compiled)
        intern_row = materialized.term_table().intern_row

        def key(fact: Fact) -> "tuple[str, tuple]":
            return fact.relation, intern_row(fact.paths)

        states: list[_StratumState] = []
        triples = list(support)
        if len(triples) != len(program.strata):
            raise MaintenanceUnsupportedError(
                f"support state covers {len(triples)} strata but the program has "
                f"{len(program.strata)}; the snapshot matches a different program"
            )
        for stratum, (recursive, counts, pinned) in zip(compiled.strata, triples):
            expected = stratum.recursive
            if bool(recursive) != expected:
                raise MaintenanceUnsupportedError(
                    f"support state marks a stratum recursive={bool(recursive)} but "
                    f"this build classifies it recursive={expected}; the snapshot "
                    f"matches a different program"
                )
            state = _StratumState(expected, frozenset(map(key, pinned)))
            if not expected:
                state.counts = {key(fact): count for fact, count in (counts or {}).items()}
            states.append(state)
        return cls(program, materialized, states, limits, compiled)

    @staticmethod
    def _evaluate_counting_stratum(
        stratum: CompiledStratum,
        current: Instance,
        state: _StratumState,
        limits: EvaluationLimits,
        statistics: EvaluationStatistics,
    ) -> None:
        """One counting pass over a non-recursive stratum.

        No head relation is read by any body in the stratum, so a single
        round reaches the fixpoint; the counted rows are admitted after
        every rule was counted, so the read views stay stable.
        """
        for plan in stratum.rules:
            current.ensure_relation(plan.head_name)
        limits.check_iterations(1)
        counts = state.counts
        assert counts is not None
        found: "dict[str, set]" = {}
        for plan in stratum.rules:
            statistics.rule_applications += 1
            name = plan.head_name
            tally = plan.derivation_counts(current, None, limits, statistics)
            for row, count in tally.items():
                counts[name, row] = counts.get((name, row), 0) + count
            found.setdefault(name, set()).update(tally)
        statistics.facts_derived += sum(
            len(admit_rows(current, name, rows, limits)) for name, rows in found.items()
        )
        limits.check_fact_count(current.fact_count())
        statistics.merge_stratum(1)

    # -- updates -----------------------------------------------------------------------

    def update(
        self, change: ChangeSet, *, statistics: "EvaluationStatistics | None" = None
    ) -> EvaluationStatistics:
        """Maintain every derived relation past *change*, already applied to the base.

        *change* is what :func:`apply_delta` returned for the instance this
        fixpoint was built over (or for :attr:`materialized`); it must change
        only EDB relations — updating a relation the program derives is a
        caller error, and leaves this fixpoint stale.  A relation the
        program never mentions changes nothing derived.  Updates that reach
        relations read under (stratified) negation are maintained exactly
        via signed delta propagation.  Returns *statistics* (a fresh one
        when not given), counted into.
        """
        if not self._valid:
            raise EvaluationError(
                "this maintained fixpoint is stale (a previous update failed midway); "
                "rebuild it with MaintainedFixpoint.evaluate"
            )
        if statistics is None:
            statistics = EvaluationStatistics()
        if not change.names:
            return statistics

        # The base already changed; any failure from here on leaves the
        # materialization inconsistent with it, so poison the fixpoint.
        try:
            derived = change.names & self._idb
            if derived:
                raise EvaluationError(
                    f"cannot update relation {min(derived)!r}: it is derived by the "
                    f"program; update the EDB relations it depends on instead"
                )
            changes = change.extended()
            statistics.facts_retracted += len(change.removed_facts)
            for index, (stratum, state) in enumerate(zip(self.compiled.strata, self._states)):
                if not (changes.names & stratum.stratum.body_relation_names()):
                    continue
                if index < len(self.compiled.strata) - 1:
                    # Later strata read this one's heads as they were.
                    changes.hold(self.materialized, stratum.stratum.head_relation_names())
                if stratum.recursive:
                    net = self._maintain_dred_stratum(stratum, state, changes, statistics)
                else:
                    net = self._maintain_counting_stratum(stratum, state, changes, statistics)
                for name, (added_ids, removed_ids) in net.items():
                    changes.record(name, added_ids, removed_ids)
                    statistics.facts_retracted += len(removed_ids)
            self.limits.check_fact_count(self.materialized.fact_count())
        except Exception:
            self._valid = False
            raise
        return statistics

    # -- counting maintenance ----------------------------------------------------------

    def _maintain_counting_stratum(
        self,
        stratum: CompiledStratum,
        state: _StratumState,
        changes: ChangeSet,
        statistics: EvaluationStatistics,
    ) -> "dict[str, tuple[set, set]]":
        """Adjust derivation counts by the telescoped delta joins.

        For a body with positive-predicate positions ``p1 < … < pn`` the
        change in satisfying valuations factors as
        ``Σ_i new(<i) ⊗ (added_i − removed_i) ⊗ old(>i)``: positions before
        the pivot read the already-updated materialization, the pivot reads
        the delta, and positions after it read the pre-update overlay.
        Every gained (lost) derivation is enumerated at exactly one pivot —
        the last changed position it uses.

        Negated predicate positions extend the same telescope (they sit
        after every positive position in the static order).  At a positive
        pivot, a changed negated position reads the *old* overlay.  A
        changed negated position is additionally a pivot itself — the
        literal flipped positive and restricted to the delta rows — with
        the **opposite** sign: a row added to the negated relation
        extinguishes every derivation it now blocks, a removed row revives
        them.  Stratification guarantees the negated relation's net delta
        is final (its owning stratum committed earlier this pass).
        """
        statistics.maintenance_rounds += 1
        assert state.counts is not None
        delta_counts: "dict[str, Counter]" = {}
        for plan in stratum.rules:
            if not (plan.rule.body_relation_names() & changes.names):
                continue
            statistics.rule_applications += 1
            delta = delta_counts.setdefault(plan.head_name, Counter())
            gain, lose = delta.update, delta.subtract
            positions = plan.positions_in_order
            changed_negations = _changed_negations(plan, changes)
            # Negations follow every positive predicate in the static order,
            # so at any positive pivot every changed negated position reads
            # the pre-update overlay.
            negative_old = dict.fromkeys(changed_negations, changes.old_overlay) or None
            for pivot_index, (pivot, name) in enumerate(positions):
                if name not in changes.names:
                    continue
                overrides = {
                    position: changes.old_overlay
                    for position, later_name in positions[pivot_index + 1 :]
                    if later_name in changes.names
                }
                for overlay, tally in (
                    (changes.added_overlay, gain),
                    (changes.removed_overlay, lose),
                ):
                    if not overlay[name]:
                        continue
                    statistics.delta_restricted_applications += 1
                    tally(
                        plan.derivation_counts(
                            self.materialized,
                            {pivot: overlay, **overrides},
                            self.limits,
                            statistics,
                            negative_old,
                        )
                    )
            for pivot, name in changed_negations.items():
                # Telescope: changed negated positions *after* this pivot
                # still read old; those before it (and every positive
                # position) read the updated materialization.
                later_old = {
                    position: changes.old_overlay
                    for position in changed_negations
                    if position > pivot
                }
                # The opposite sign: a row the negated relation gained blocks
                # derivations, a row it lost admits them.
                for overlay, tally in (
                    (changes.added_overlay, lose),
                    (changes.removed_overlay, gain),
                ):
                    if not overlay[name]:
                        continue
                    statistics.delta_restricted_applications += 1
                    tally(
                        plan.pivoted(pivot).derivation_counts(
                            self.materialized,
                            {pivot: overlay},
                            self.limits,
                            statistics,
                            later_old or None,
                        )
                    )

        return self._apply_count_deltas(delta_counts, state, statistics)

    def _apply_count_deltas(
        self,
        delta_counts: "dict[str, Counter]",
        state: _StratumState,
        statistics: EvaluationStatistics,
    ) -> "dict[str, tuple[set, set]]":
        """Fold signed derivation-count deltas, per head relation, into the stratum's counts.

        A row whose support count leaves zero enters its relation, one whose
        count returns there leaves it; pinned rows stay present regardless.
        Returns the net change as id rows, added and removed, per relation.
        """
        counts = state.counts
        assert counts is not None
        net: "dict[str, tuple[set, set]]" = {}
        for name, deltas in delta_counts.items():
            gained, lost = set(), set()
            for row, change in deltas.items():
                if not change:
                    continue
                key = (name, row)
                before = counts.get(key, 0)
                after = before + change
                if after < 0:
                    raise EvaluationError(
                        f"maintenance drove the support count of a row of {name!r} below "
                        f"zero; the counting state is corrupt"
                    )
                if after:
                    counts[key] = after
                else:
                    del counts[key]
                if key in state.pinned:
                    continue
                if not before:
                    gained.add(row)
                elif not after:
                    lost.add(row)
            if gained:
                gained = admit_rows(self.materialized, name, gained, self.limits)
                statistics.facts_derived += len(gained)
            if lost:
                self._discard(name, lost)
            if gained or lost:
                net[name] = (gained, lost)
        return net

    def _discard(self, name: str, rows: set) -> None:
        """Remove the id rows *rows*, all present, from relation *name*."""
        table = self.materialized.term_table()
        id_rows = list(rows)
        self.materialized.storage(name).discard_rows(  # type: ignore[union-attr]
            set(table.decode_rows(id_rows)), id_rows, table
        )

    # -- delete-rederive maintenance ---------------------------------------------------

    def _maintain_dred_stratum(
        self,
        stratum: CompiledStratum,
        state: _StratumState,
        changes: ChangeSet,
        statistics: EvaluationStatistics,
    ) -> "dict[str, tuple[set, set]]":
        """DRed in id space: over-delete, rederive, insert, then discard the rest.

        The over-deleted rows are hidden: the stratum reads each head
        relation's live view without them, its *survivors*.  Rederivation is
        DRed's fixpoint — one head-led ask per rule over the hidden rows of
        its head, then semi-naive rounds through the rows brought back,
        counting only rows still hidden.  Insertion runs semi-naive rounds
        over the survivors from the update's added rows; a hidden row it
        derives is shown again, an absent one added.  Only the rows still
        hidden then leave the relation.  A changed negated relation seeds
        both halves with the opposite sign (:meth:`_negation_seeds`).  Returns
        the net change as id rows, added and removed, per relation.
        """
        plans = stratum.rules
        heads = stratum.stratum.head_relation_names()
        negated = changes.names & stratum.stratum.negated_relation_names()
        table = self.materialized.term_table()
        seeds = self._negation_seeds(plans, heads, state, changes, statistics) if negated else {}
        hidden = self._overdelete(plans, state, changes, statistics, seeds)
        added: "dict[str, set]" = {}

        def survivors(plan: CompiledRule, pivot: int = -1) -> dict:
            """The frontier reading *plan*'s head-relation positions from the survivors."""
            live = RowSources()
            for name in heads & plan.predicate_positions.keys():
                stored = self.materialized.storage(name)
                if stored:
                    view = stored.columnar(table)
                    live[name] = MaskedView(view, hidden[name]) if hidden.get(name) else view
            return {p: live for name in live for p in plan.predicate_positions[name]}

        if hidden:
            # Every rule asks once, all against the same survivors, so no
            # answer depends on the order of asking.
            statistics.maintenance_rounds += 1
            kept: "dict[str, set]" = {}
            for plan in plans:
                asked = hidden.get(plan.head_name, set()) - kept.get(plan.head_name, set())
                if asked:
                    statistics.rederivation_attempts += len(asked)
                    kept.setdefault(plan.head_name, set()).update(
                        plan.derivable_rows(
                            self.materialized, list(asked), self.limits, statistics, survivors(plan)
                        )
                    )
            statistics.maintenance_rounds += semi_naive_rounds(
                plans,
                self.materialized,
                self._absorb(kept, hidden, added),
                lambda found: self._absorb(
                    {name: rows & hidden[name] for name, rows in found.items()}, hidden, added
                ),
                self.limits,
                statistics,
                around=survivors,
                asks=lambda plan: hidden.get(plan.head_name),
            )
        delta = {
            name: changes.added[name]
            for name in changes.names & stratum.stratum.body_relation_names()
        }
        if negated:
            gains = self._negation_seeds(plans, heads, state, changes, statistics, survivors)
            delta.update(self._absorb(gains, hidden, added))
        statistics.maintenance_rounds += semi_naive_rounds(
            plans,
            self.materialized,
            delta,
            lambda found: self._absorb(found, hidden, added),
            self.limits,
            statistics,
            around=survivors,
        )

        for name, rows in hidden.items():
            if rows:
                self._discard(name, rows)
        statistics.facts_derived += sum(map(len, added.values()))
        return {
            name: (added.get(name, set()), hidden.get(name, set()))
            for name in added.keys() | hidden.keys()
        }

    def _absorb(
        self, found: "dict[str, set]", hidden: "dict[str, set]", added: "dict[str, set]"
    ) -> "dict[str, set]":
        """Make the head id rows *found* present — a hidden row shown again, an absent
        one added and recorded in *added* — and return those that were not."""
        delta: "dict[str, set]" = {}
        for name, rows in found.items():
            back = rows & hidden.get(name, set())
            hidden.get(name, set()).difference_update(back)
            new = admit_rows(self.materialized, name, rows, self.limits)
            if new:
                added.setdefault(name, set()).update(new)
            delta[name] = back | new
        return delta

    def _negation_seeds(
        self,
        plans: "tuple[CompiledRule, ...]",
        heads: "frozenset[str]",
        state: _StratumState,
        changes: ChangeSet,
        statistics: EvaluationStatistics,
        survivors=None,
    ) -> "dict[str, set]":
        """Head id rows a negated relation's delta kills (or, over *survivors*, admits).

        The flip trick: the negated literal becomes a positive pivot
        restricted to the delta rows.  Without *survivors* it reads the
        *added* rows and every other changed position reads the old state —
        derivations blocked now, of present, unpinned rows.  With *survivors*
        it reads the *removed* rows against the new state — derivations
        admitted now.
        """
        table = self.materialized.term_table()
        killed = survivors is None
        delta = changes.added_overlay if killed else changes.removed_overlay
        seeds: "dict[str, set]" = {}
        for plan in plans:
            changed_negations = _changed_negations(plan, changes)
            for pivot, name in changed_negations.items():
                if not delta[name]:
                    continue
                negative_sources = frontier = None
                if killed:
                    frontier = {
                        position: changes.old_overlay
                        for position, other_name in plan.positions_in_order
                        if other_name in changes.names
                    }
                    negative_sources = {
                        position: changes.old_overlay
                        for position in changed_negations
                        if position != pivot
                    } or None
                else:
                    frontier = survivors(plan)
                frontier[pivot] = delta
                statistics.delta_restricted_applications += 1
                derived = plan.pivoted(pivot).head_rows(
                    self.materialized, frontier, self.limits, statistics, negative_sources
                )
                head = plan.head_name
                if killed:
                    stored = self.materialized.storage(head)
                    derived &= stored.columnar(table).id_row_set if stored else set()
                seeds.setdefault(head, set()).update(
                    row for row in derived if (head, row) not in state.pinned
                )
        return seeds

    def _overdelete(
        self,
        plans: "tuple[CompiledRule, ...]",
        state: _StratumState,
        changes: ChangeSet,
        statistics: EvaluationStatistics,
        seeds: "dict[str, set]",
    ) -> "dict[str, set]":
        """Everything derivable through a deleted fact (or *seeds*), to a fixpoint, as id rows.

        Evaluation runs against the *old* database: the stratum's own facts
        are still present, and changed relations — negated ones too — read
        the old overlay.  A round's head rows count when the live relation
        holds them, unpinned and not over-deleted yet; nothing decodes.
        """
        table = self.materialized.term_table()
        overdeleted = {name: set(rows) for name, rows in seeds.items()}

        def take(found: "dict[str, set]") -> "dict[str, set]":
            fresh = {}
            for head, rows in found.items():
                stored = self.materialized.storage(head)
                present = stored.columnar(table).id_row_set if stored else set()
                known = overdeleted.setdefault(head, set())
                fresh[head] = {
                    row for row in rows & present if row not in known and (head, row) not in state.pinned
                }
                known |= fresh[head]
            return fresh

        def old(plan: CompiledRule, pivot: int) -> dict:
            return {
                position: changes.old_overlay
                for position, other in plan.positions_in_order
                if position != pivot and other in changes.names
            }

        delta = {name: set(rows) for name, rows in seeds.items()}
        for name in changes.names & {n for plan in plans for n in plan.predicate_positions}:
            delta[name] = changes.removed[name]
        statistics.maintenance_rounds += semi_naive_rounds(
            plans,
            self.materialized,
            delta,
            take,
            self.limits,
            statistics,
            around=old,
            negative=lambda plan: dict.fromkeys(
                _changed_negations(plan, changes), changes.old_overlay
            )
            or None,
        )
        return {name: rows for name, rows in overdeleted.items() if rows}
