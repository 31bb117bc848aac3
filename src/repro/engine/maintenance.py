"""Incremental view maintenance of stratified fixpoints.

A serving workload rarely re-asks a query over a fresh database: it asks the
same query over a database that drifted by a handful of facts.  This module
keeps a program's materialized fixpoint — the result of
:func:`~repro.engine.fixpoint.evaluate_program` — *maintained* under such
drifts instead of recomputing it:

* **Counting** (non-recursive strata): every derived fact carries the number
  of distinct ``(rule, body valuation)`` derivations supporting it — a
  valuation of *all* the rule's variables, tallied in id space
  (:meth:`~repro.engine.compiled.CompiledRule.derivation_counts`).  An
  update changes the counts by the telescoped delta joins
  ``new⁽<i⁾ ⊗ Δi ⊗ old⁽>i⁾`` (one term per body position over a changed
  relation), which count each gained and lost derivation exactly once;
  a fact appears when its count leaves zero and disappears when it returns
  there.
* **Delete–rederive** (recursive strata): deletions are first *over-deleted*
  (everything derivable through a deleted fact, to a fixpoint, evaluated
  against the old state); then the over-deleted set is *rederived* set at a
  time — each rule is asked once which of those rows it still derives from
  the surviving ones (one head-restricted join per rule,
  :meth:`~repro.engine.compiled.CompiledRule.derivable_rows`) and the
  survivors are re-added together; and finally insertions propagate through
  the ordinary semi-naive core
  (:func:`~repro.engine.fixpoint.propagate_delta`) shared with full
  evaluation, which also brings back facts whose support was itself
  rederived.  The old state of a changed relation is a read-only snapshot
  of the view it had before the update
  (:meth:`~repro.storage.Relation.snapshot`), and the over-deleted rows stay
  id rows until they leave the materialization, so a retraction interns
  and decodes in proportion to its delta, not to the relations it reads.

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
delta is final by the time any reader maintains.  Only updates naming
relations the program has never heard of are refused upfront with
:class:`~repro.errors.MaintenanceUnsupportedError` — plus, defensively,
genuinely unstratifiable programs at build time.  The property tests in
``tests/properties/test_maintenance_agreement.py`` assert that a maintained
materialization stays extensionally identical to a from-scratch fixpoint of
the reference evaluator, including retractions and retraction streams
through negated literals.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.engine.compiled import CompiledProgram, CompiledRule, CompiledStratum
from repro.engine.fixpoint import EvaluationStatistics, evaluate_stratum, propagate_delta
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.errors import EvaluationError, MaintenanceUnsupportedError
from repro.model.instance import Fact, Instance
from repro.syntax.programs import Program

__all__ = ["MaintainedFixpoint", "MaintenanceResult"]


class MaintenanceResult:
    """The net effect one :meth:`MaintainedFixpoint.update` had.

    ``added`` and ``removed`` are the facts (EDB and derived alike) that
    appeared in / disappeared from the materialization; ``statistics``
    accumulates the evaluation counters of the maintenance run.
    """

    __slots__ = ("added", "removed", "statistics")

    def __init__(
        self,
        added: frozenset[Fact],
        removed: frozenset[Fact],
        statistics: EvaluationStatistics,
    ):
        self.added = added
        self.removed = removed
        self.statistics = statistics

    def __repr__(self) -> str:
        return f"MaintenanceResult(+{len(self.added)}, -{len(self.removed)})"


class _StratumState:
    """Per-stratum maintenance state.

    ``counts`` (counting strata only, ``None`` for a recursive one) maps
    each derived fact to its number of distinct ``(rule, body valuation)``
    derivations.  ``pinned`` holds facts of this stratum's head relations
    that were already present in the *input* instance: they are axioms,
    never retracted by maintenance.
    """

    __slots__ = ("counts", "pinned")

    def __init__(self, recursive: bool, pinned: frozenset[Fact]):
        self.counts: "dict[Fact, int] | None" = None if recursive else {}
        self.pinned = pinned


class _ChangeSet:
    """The update's running per-relation delta, threaded through the strata.

    Keeps three overlay instances the telescoped joins and overdeletion use
    as frontier sources: the added rows, the removed rows, and the *old*
    rows (pre-update state) of every changed relation.
    """

    __slots__ = ("names", "added", "removed", "added_overlay", "removed_overlay", "old_overlay")

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.added: dict[str, set] = {}
        self.removed: dict[str, set] = {}
        self.added_overlay = Instance()
        self.removed_overlay = Instance()
        #: Read-only snapshots, taken before the update mutates a relation
        #: (:meth:`Instance.hold_snapshots`).
        self.old_overlay = Instance()

    def record(
        self, name: str, added_rows: "set | frozenset", removed_rows: "set | frozenset"
    ) -> None:
        """Register *name* as changed (its old state is already held)."""
        if not added_rows and not removed_rows:
            return
        self.names.add(name)
        self.added[name] = set(added_rows)
        self.removed[name] = set(removed_rows)
        self.added_overlay.set_relation_rows(name, added_rows)
        self.removed_overlay.set_relation_rows(name, removed_rows)

    def facts(self, source: dict, wanted: "frozenset[str] | set[str]") -> set[Fact]:
        """The added/removed facts whose relation is in *wanted*."""
        return {
            Fact(name, row)
            for name in self.names & set(wanted)
            for row in source.get(name, ())
        }


def _changed_negations(plan: CompiledRule, changes: _ChangeSet) -> "dict[int, str]":
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
        self._known = program.relation_names()
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
        """Materialize *program* over a copy of *instance*, with support state.

        Equivalent to :func:`~repro.engine.fixpoint.evaluate_program` on the
        same inputs, but non-recursive strata are evaluated *counting* —
        each derivation enumerated once and tallied — so later updates can
        maintain them exactly.  Raises
        :class:`~repro.errors.MaintenanceUnsupportedError` (before doing any
        work) for programs whose strata the maintainer cannot own, e.g. a
        relation defined in several strata.

        *seed_facts* are planted into the working copy before the first
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
        current = instance.copy()
        if seed_facts is not None:
            for fact in seed_facts:
                current.add_fact(fact)
        states: list[_StratumState] = []
        for stratum in compiled.strata:
            pinned = frozenset(
                Fact(name, row)
                for name in stratum.stratum.head_relation_names()
                for row in current.relation(name)
            )
            state = _StratumState(stratum.recursive, pinned)
            if stratum.recursive:
                evaluate_stratum(
                    stratum.stratum,
                    current,
                    limits,
                    statistics=statistics,
                    compiled=stratum.rules,
                    copy=False,
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
        return [
            (
                stratum.recursive,
                None if state.counts is None else dict(state.counts),
                state.pinned,
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
            state = _StratumState(expected, frozenset(pinned))
            if not expected:
                state.counts = dict(counts or {})
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
        round reaches the fixpoint; the derived facts are applied after
        every rule was counted, so the read views stay stable.
        """
        for plan in stratum.rules:
            current.ensure_relation(plan.head_name)
        limits.check_iterations(1)
        counts = state.counts
        assert counts is not None
        for plan in stratum.rules:
            statistics.rule_applications += 1
            for fact, count in plan.derivation_counts(current, None, limits, statistics).items():
                counts[fact] = counts.get(fact, 0) + count
        new_facts = 0
        for fact in counts:
            if fact not in current:
                current.add_fact(fact)
                new_facts += 1
        statistics.facts_derived += new_facts
        limits.check_fact_count(current.fact_count())
        statistics.merge_stratum(1)

    # -- updates -----------------------------------------------------------------------

    def update(
        self,
        additions: Iterable[Fact] = (),
        retractions: Iterable[Fact] = (),
        *,
        statistics: "EvaluationStatistics | None" = None,
    ) -> MaintenanceResult:
        """Apply an EDB delta and maintain every derived relation.

        *additions* and *retractions* must target EDB relations (relations
        the program does not define); updating a derived relation directly
        is a caller error.  Raises
        :class:`~repro.errors.MaintenanceUnsupportedError` — before touching
        any state — when the update names a relation the program has never
        heard of.  Updates that reach relations read under (stratified)
        negation are maintained exactly via signed delta propagation.
        """
        if not self._valid:
            raise EvaluationError(
                "this maintained fixpoint is stale (a previous update failed midway); "
                "rebuild it with MaintainedFixpoint.evaluate"
            )
        if statistics is None:
            statistics = EvaluationStatistics()
        additions = list(additions)
        retractions = list(retractions)
        for fact in (*additions, *retractions):
            if fact.relation in self._idb:
                raise EvaluationError(
                    f"cannot update relation {fact.relation!r}: it is derived by the "
                    f"program; update the EDB relations it depends on instead"
                )
            if fact.relation not in self._known:
                # Checked on the *named* relations, before netting: even a
                # no-op delta naming a stray relation is a caller error, not
                # something to silently accept.
                raise MaintenanceUnsupportedError(
                    f"the update names relation {fact.relation!r}, which the program "
                    f"never mentions; maintenance cannot decide what it affects — "
                    f"re-evaluate from scratch (or drop the stray facts) instead"
                )

        # Net EDB delta against the current materialization.  Additions win
        # over retractions of the same fact (retract-then-add nets out).
        added_set = set(additions)
        added_facts = {fact for fact in added_set if fact not in self.materialized}
        removed_facts = {
            fact
            for fact in retractions
            if fact not in added_set and fact in self.materialized
        }
        result_added: set[Fact] = set(added_facts)
        result_removed: set[Fact] = set(removed_facts)
        touched = {fact.relation for fact in added_facts | removed_facts}
        self._check_supported(touched)
        if not touched:
            return MaintenanceResult(frozenset(), frozenset(), statistics)

        # From here on the materialization mutates; any failure leaves it
        # inconsistent with the support state, so poison the fixpoint.
        try:
            changes = _ChangeSet()
            changes.old_overlay.hold_snapshots(self.materialized, touched)
            for name in touched:
                added_rows = {f.paths for f in added_facts if f.relation == name}
                removed_rows = {f.paths for f in removed_facts if f.relation == name}
                for fact in removed_facts:
                    if fact.relation == name:
                        self.materialized.discard_fact(fact, keep_empty=True)
                for fact in added_facts:
                    if fact.relation == name:
                        self.materialized.add_fact(fact)
                changes.record(name, added_rows, removed_rows)
            statistics.facts_retracted += len(removed_facts)

            for index, (stratum, state) in enumerate(zip(self.compiled.strata, self._states)):
                if not (changes.names & stratum.stratum.body_relation_names()):
                    continue
                if index < len(self.compiled.strata) - 1:
                    # Later strata read this one's heads as they were.
                    changes.old_overlay.hold_snapshots(
                        self.materialized, stratum.stratum.head_relation_names()
                    )
                if stratum.recursive:
                    net_added, net_removed = self._maintain_dred_stratum(
                        stratum, state, changes, statistics
                    )
                else:
                    net_added, net_removed = self._maintain_counting_stratum(
                        stratum, state, changes, statistics
                    )
                statistics.facts_retracted += len(net_removed)
                result_added |= net_added
                result_removed |= net_removed
                self._commit_stratum_changes(changes, net_added, net_removed)
            self.limits.check_fact_count(self.materialized.fact_count())
        except Exception:
            self._valid = False
            raise
        return MaintenanceResult(frozenset(result_added), frozenset(result_removed), statistics)

    def _check_supported(self, touched: "set[str]") -> None:
        """Refuse updates the maintainer cannot give meaning to.

        Historically this also refused any update whose closure could reach
        a relation used under negation; signed counting and negation-aware
        delete–rederive now maintain those exactly (stratification seals a
        negated relation before its readers run), so the only remaining
        refusal is a touched relation the program has never heard of.  That
        one is a caller error, not a no-op: silently accepting it would let
        the materialization drift from what re-evaluating the program on
        the updated base would produce.  Unstratifiable stratum lists —
        the genuinely unsupported shape — are refused at build time in
        :meth:`evaluate`.
        """
        unknown = touched - self._known
        if unknown:
            raise MaintenanceUnsupportedError(
                f"the update names relation(s) {sorted(unknown)} that the program "
                f"never mentions; maintenance cannot decide what they affect — "
                f"re-evaluate from scratch (or drop the stray facts) instead"
            )

    @staticmethod
    def _commit_stratum_changes(
        changes: _ChangeSet, net_added: "set[Fact]", net_removed: "set[Fact]"
    ) -> None:
        """Fold a stratum's net changes into the running change set."""
        by_name: dict[str, tuple[set, set]] = {}
        for fact in net_added:
            by_name.setdefault(fact.relation, (set(), set()))[0].add(fact.paths)
        for fact in net_removed:
            by_name.setdefault(fact.relation, (set(), set()))[1].add(fact.paths)
        for name, (added_rows, removed_rows) in by_name.items():
            changes.record(name, added_rows, removed_rows)

    # -- counting maintenance ----------------------------------------------------------

    def _maintain_counting_stratum(
        self,
        stratum: CompiledStratum,
        state: _StratumState,
        changes: _ChangeSet,
        statistics: EvaluationStatistics,
    ) -> tuple[set, set]:
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
        delta_counts: "Counter[Fact]" = Counter()
        gain, lose = delta_counts.update, delta_counts.subtract
        for plan in stratum.rules:
            if not (plan.rule.body_relation_names() & changes.names):
                continue
            statistics.rule_applications += 1
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
                    if not overlay.relation(name):
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
                    if not overlay.relation(name):
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
        delta_counts: "dict[Fact, int]",
        state: _StratumState,
        statistics: EvaluationStatistics,
    ) -> tuple[set, set]:
        """Fold signed derivation-count deltas into the stratum's count state.

        A fact whose support count crosses zero materializes (or retracts);
        pinned facts stay present regardless.
        """
        counts = state.counts
        assert counts is not None
        net_added: set[Fact] = set()
        net_removed: set[Fact] = set()
        for fact, change in delta_counts.items():
            if change == 0:
                continue
            before = counts.get(fact, 0)
            after = before + change
            if after < 0:
                raise EvaluationError(
                    f"maintenance drove the support count of {fact} below zero; "
                    f"the counting state is corrupt"
                )
            if after:
                counts[fact] = after
            else:
                counts.pop(fact, None)
            pinned = fact in state.pinned
            present_before = pinned or before > 0
            present_after = pinned or after > 0
            if present_after and not present_before:
                self.materialized.add_fact(fact)
                net_added.add(fact)
            elif present_before and not present_after:
                self.materialized.discard_fact(fact, keep_empty=True)
                net_removed.add(fact)
        statistics.facts_derived += len(net_added)
        return net_added, net_removed

    # -- delete-rederive maintenance ---------------------------------------------------

    def _maintain_dred_stratum(
        self,
        stratum: CompiledStratum,
        state: _StratumState,
        changes: _ChangeSet,
        statistics: EvaluationStatistics,
    ) -> tuple[set, set]:
        """Classic DRed: over-delete, rederive survivors, propagate insertions.

        Stratified negated reads extend both halves with the opposite sign.
        Rows *added* to a negated relation become kill seeds: derivations
        they newly block are enumerated against the old state (the negated
        literal flipped positive and restricted to the added rows) and
        pre-seed the overdeletion cascade.  Rows *removed* from a negated
        relation become insertion seeds: derivations they newly admit are
        enumerated against the new state and join the semi-naive insertion
        propagation.  Stratification makes both exact — the negated
        relation's delta is final before this stratum runs.
        """
        plans = stratum.rules
        head_names = stratum.stratum.head_relation_names()
        negated_changed = changes.names & stratum.stratum.negated_relation_names()
        kill_seeds = set()
        if negated_changed:
            kill_seeds = self._negation_seeds(
                plans, head_names, state, changes, statistics, killed=True
            )
        overdeleted_rows = self._overdelete(plans, state, changes, statistics, kill_seeds)
        overdeleted = {
            Fact._from_trusted(name, row)
            for name, rows in overdeleted_rows.items()
            for row in rows.values()
        }
        for fact in overdeleted:
            self.materialized.discard_fact(fact, keep_empty=True)
        rederived = self._rederive(plans, overdeleted_rows, statistics)

        gained: set[Fact] = set()
        if negated_changed:
            # Derivations newly admitted by rows leaving a negated relation.
            # They probe the *new* state (the stratum's deletions are already
            # applied), land in the materialization directly, and seed the
            # propagation below like any other insertion.
            gained = self._negation_seeds(
                plans, head_names, state, changes, statistics, killed=False
            )
            gained = {fact for fact in gained if fact not in self.materialized}
            for fact in gained:
                self.materialized.add_fact(fact)
            statistics.facts_derived += len(gained)

        # One semi-naive propagation finishes both halves of the update: the
        # rederived facts re-support other over-deleted facts (rederivation
        # ran against the state without any of them) and the update's added
        # facts derive genuinely new ones.
        seeds = (
            changes.facts(changes.added, stratum.stratum.body_relation_names()) | rederived | gained
        )
        rounds, inserted = propagate_delta(
            plans,
            self.materialized,
            seeds,
            self.limits,
            statistics,
            collect=True,
        )
        statistics.maintenance_rounds += rounds

        net_added = (inserted | gained) - overdeleted
        net_removed = {fact for fact in overdeleted if fact not in self.materialized}
        return net_added, net_removed

    def _negation_seeds(
        self,
        plans: "tuple[CompiledRule, ...]",
        head_names: frozenset[str],
        state: _StratumState,
        changes: _ChangeSet,
        statistics: EvaluationStatistics,
        *,
        killed: bool,
    ) -> set[Fact]:
        """Derivations a negated relation's delta kills (or newly admits).

        The flip trick: the negated literal becomes a positive pivot
        restricted to the delta rows.  With ``killed=True`` the pivot reads
        the *added* rows and every other changed position (positive via the
        frontier overlay, negated via ``negative_sources``) reads the
        pre-update state — these are derivations that held before and are
        blocked now.  With ``killed=False`` the pivot reads the *removed*
        rows against the current (new) state — derivations admitted now
        that were blocked before.
        """
        seeds: set[Fact] = set()
        delta = changes.removed if not killed else changes.added
        for plan in plans:
            changed_negations = _changed_negations(plan, changes)
            for pivot, name in changed_negations.items():
                rows = delta.get(name)
                if not rows:
                    continue
                frontier: dict[int, Instance] = {}
                negative_sources = None
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
                part = Instance()
                part.set_relation_rows(name, rows)
                frontier[pivot] = part
                statistics.delta_restricted_applications += 1
                derived = plan.pivoted(pivot).derive(
                    self.materialized, frontier, self.limits, statistics, negative_sources
                )
                for fact in derived:
                    if fact.relation not in head_names or fact in state.pinned:
                        continue
                    if killed and fact not in self.materialized:
                        continue
                    seeds.add(fact)
        return seeds

    def _overdelete(
        self,
        plans: "tuple[CompiledRule, ...]",
        state: _StratumState,
        changes: _ChangeSet,
        statistics: EvaluationStatistics,
        kill_seeds: "set[Fact]",
    ) -> "dict[str, dict[tuple, tuple]]":
        """Everything derivable through a deleted fact, to a fixpoint.

        Evaluation runs against the *old* database: the stratum's own facts
        are still physically present, positions over earlier-changed
        relations read the old overlay, and so do changed *negated*
        positions, via ``negative_sources``.  *kill_seeds* pre-load the
        cascade with facts killed through negated literals (enumerated by
        :meth:`_negation_seeds`).  The cascade stays in id space: each
        round's head id rows are filtered against the live relation's id
        row set and the pinned rows, and only the rows new to the cascade
        decode, once, to found the next frontier.  Returns each relation's
        over-deleted rows as id row → row.
        """
        table = self.materialized.term_table()
        intern_row = table.intern_row
        pinned = {(fact.relation, intern_row(fact.paths)) for fact in state.pinned}
        frontier: "dict[str, dict[tuple, tuple]]" = {}
        for fact in kill_seeds:
            frontier.setdefault(fact.relation, {})[intern_row(fact.paths)] = fact.paths
        overdeleted = {name: dict(rows) for name, rows in frontier.items()}
        for name in changes.names & {n for plan in plans for n in plan.predicate_positions}:
            frontier[name] = {intern_row(row): row for row in changes.removed[name]}
        rounds = 0
        while frontier := {name: rows for name, rows in frontier.items() if rows}:
            rounds += 1
            self.limits.check_iterations(rounds)
            statistics.maintenance_rounds += 1
            frontier_instance = self.materialized.restricted(())
            for name, rows in frontier.items():
                frontier_instance.add_rows(name, set(rows.values()), list(rows))
            found: "dict[str, set[tuple]]" = {}
            for plan in plans:
                head = plan.head_name
                live = self.materialized.storage(head)
                if not (plan.predicate_positions.keys() & frontier.keys()) or not live:
                    continue
                statistics.rule_applications += 1
                present = live.columnar(table).id_row_set
                known = overdeleted.get(head, {})
                positions = plan.positions_in_order
                negative_old = (
                    dict.fromkeys(_changed_negations(plan, changes), changes.old_overlay)
                    or None
                )
                for pivot, name in positions:
                    if name not in frontier:
                        continue
                    overrides = {
                        position: changes.old_overlay
                        for position, other in positions
                        if position != pivot and other in changes.names
                    }
                    statistics.delta_restricted_applications += 1
                    derived = plan.head_rows(
                        self.materialized,
                        {pivot: frontier_instance, **overrides},
                        self.limits,
                        statistics,
                        negative_old,
                    )
                    found.setdefault(head, set()).update(
                        row
                        for row in derived & present
                        if row not in known and (head, row) not in pinned
                    )
            frontier = {}
            for name, ids in found.items():
                id_rows = list(ids)
                frontier[name] = dict(zip(id_rows, table.decode_rows(id_rows)))
                overdeleted.setdefault(name, {}).update(frontier[name])
        return overdeleted

    def _rederive(
        self,
        plans: "tuple[CompiledRule, ...]",
        overdeleted: "dict[str, dict[tuple, tuple]]",
        statistics: EvaluationStatistics,
    ) -> set[Fact]:
        """Re-add the over-deleted rows that still have a derivation.

        Set at a time: every rule is asked once — one head-led join over id
        rows (:meth:`~repro.engine.compiled.CompiledRule.derivable_rows`),
        one ``rederivation_attempts`` per row asked about — which of the
        over-deleted rows no earlier rule supported it derives from the
        post-deletion state, and the survivors are added afterwards, so no
        answer depends on the order of asking.
        One sweep is enough: a fact whose support only comes back through
        another rederived fact is recovered by the semi-naive propagation
        that follows (the rederived facts seed it).
        """
        if not overdeleted:
            return set()
        statistics.maintenance_rounds += 1
        pending = {name: set(rows) for name, rows in overdeleted.items()}
        found: "dict[str, set[tuple]]" = {}
        for plan in plans:
            name = plan.head_name
            candidates = pending.get(name)
            if not candidates:
                continue
            statistics.rederivation_attempts += len(candidates)
            derived = plan.derivable_rows(
                self.materialized, list(candidates), self.limits, statistics
            )
            candidates -= derived
            found.setdefault(name, set()).update(derived)
        rederived: set[Fact] = set()
        for name, ids in found.items():
            if ids:
                id_rows = list(ids)
                rows = [overdeleted[name][row] for row in id_rows]
                self.materialized.add_rows(name, set(rows), id_rows)
                rederived.update(Fact._from_trusted(name, row) for row in rows)
        statistics.facts_derived += len(rederived)
        return rederived
