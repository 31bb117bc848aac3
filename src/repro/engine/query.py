"""Queries: the baseline class of flat unary queries (Section 3.1).

A *query* from a monadic schema ``Γ`` to an output relation ``S ∉ Γ`` of
arity at most one is a total mapping from flat instances over ``Γ`` to flat
instances over ``{S}``.  A program *computes* such a query when it is over
``Γ``, terminates on every flat instance, has ``S`` among its IDB relations,
and produces exactly the query's answer in ``S``.

:class:`ProgramQuery` packages a program with its input schema and output
relation and offers convenient evaluation entry points.  It is the unit the
fragment-expressiveness machinery (Section 3) reasons about.

Two evaluation modes are supported:

* ``mode="full"`` — the semantics-defining baseline: materialise the whole
  program fixpoint, then restrict to the output relation (filtered by the
  query *binding*, if one is given);
* ``mode="goal"`` — goal-directed: the binding induces an adornment of the
  output relation, the program is magic-set rewritten
  (:func:`repro.transform.magic.magic_rewrite`), and the rewritten program is
  evaluated with the binding seeded into the magic relation, deriving only
  the facts the query actually demands.  Stratified negation on demanded
  relations is handled by the rewrite itself (the negated relations'
  support rules ride along un-adorned and evaluate fully); when the
  rewriting is unsupported (expanding magic recursion) or the goal-directed
  run exceeds the evaluation limits, the query transparently falls back to
  full evaluation and records the reason on the result.

Both modes return identical answers by construction; the goal mode merely
avoids work (`tests/engine/test_goal_directed.py` gates how much).

:class:`QuerySession` pins an instance and reuses the compiled artifacts —
magic rewritings per adornment, each program lowered once to a
:class:`~repro.engine.compiled.CompiledProgram` whose plans keep their join
orders — across repeated queries, which is the intended entry point for
query-heavy serving workloads.  The session additionally *memoizes the full
fixpoint as a maintained materialization*
(:class:`~repro.engine.maintenance.MaintainedFixpoint`): repeated full-mode
queries — and binding-only changes in goal mode, once a full run happened —
are answered from the materialization without re-evaluating anything
(``QueryResult.served_by == "maintained"``), and :meth:`QuerySession.update`
applies fact-level additions/retractions to both the pinned instance and the
materialization incrementally (counting / delete–rederive, see
:mod:`repro.engine.maintenance`).  An answer is the program's fixpoint over
the *current* instance, so a mutation of the pinned instance made behind the
session's back simply drops what the session memoized (reason
``out_of_band_mutation``) and the next query evaluates from scratch; updates
maintenance cannot cover fall back the same way with their own recorded
reason, mirroring the goal-mode fallback contract.

Until a full materialization exists, goal-mode answers are *tabled* by call
subsumption (:mod:`repro.engine.tabling`): every evaluated goal's answers
are kept — as their own maintained materialization of the magic program —
in a per-session answer table, a later call whose seed is subsumed by a
tabled entry is served from the table with zero evaluation
(``served_by == "tabled"``), and :meth:`QuerySession.update` maintains the
tabled subgoals incrementally alongside everything else.  Goal adornments
refused as *expanding magic recursion* are no longer a hard fallback to
full evaluation: the rewriting retries with a generalized (more general,
subsuming) adornment, the generalized goal is evaluated and tabled, and the
requested call — plus every later call it subsumes — is answered from that
entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping
from typing import Literal as TypingLiteral

from repro.engine.compiled import CompiledProgram
from repro.engine.fixpoint import EvaluationStatistics, evaluate_program
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.engine.maintenance import MaintainedFixpoint
from repro.engine.reasons import (
    GENERALIZATION_TOO_LARGE,
    GOAL_BUDGET_EXCEEDED,
    OUT_OF_BAND_MUTATION,
    REWRITE_UNSUPPORTED,
    SNAPSHOT_UNSUPPORTED,
    maintenance_reason,
    reason,
)
from repro.engine.tabling import DEFAULT_MAX_ENTRIES, AnswerTable, TableEntry
from repro.errors import (
    EvaluationBudgetExceeded,
    EvaluationError,
    MagicSetUnsupportedError,
    MaintenanceUnsupportedError,
    ModelError,
    SnapshotUnsupportedError,
)
from repro.model.instance import Fact, Instance
from repro.model.schema import Schema
from repro.model.terms import Path, as_path
from repro.syntax.programs import Program

__all__ = ["ProgramQuery", "QueryResult", "QuerySession", "QueryMode", "ServedBy", "UpdateResult"]

QueryMode = TypingLiteral["full", "goal"]

#: How a query answer was produced: ``"full"`` — a from-scratch fixpoint was
#: evaluated for this call; ``"maintained"`` — the answer was read off the
#: session's maintained materialization with no (or only incremental)
#: evaluation; ``"goal"`` — the magic-set pipeline derived the demanded slice
#: for this call; ``"tabled"`` — the call was subsumed by a previously
#: evaluated goal and served from the session's subgoal answer table with
#: zero evaluation (:mod:`repro.engine.tabling`).
ServedBy = TypingLiteral["full", "maintained", "goal", "tabled"]

#: A query binding: concrete paths for some output argument positions.
Binding = dict[int, Path]

#: Default ceiling for the generalized-tabling cost model: a generalized
#: rewriting is only tabled when its estimated answer sweep is within this
#: multiple of the requested slice (see
#: :meth:`QuerySession._generalization_guard`).  ``None`` disables the model.
DEFAULT_GENERALIZATION_LIMIT = 256.0

#: Version stamp of :meth:`QuerySession.export_state` documents.  Bumped on
#: any incompatible change to the state layout; :meth:`QuerySession.restore`
#: refuses other versions with
#: :class:`~repro.errors.SnapshotUnsupportedError`.
SESSION_STATE_VERSION = 1


@dataclass(frozen=True)
class QueryResult:
    """The result of running a :class:`ProgramQuery` on an instance.

    ``mode`` records the request's identity — the mode the caller asked for
    and that this result answers: a goal-mode request keeps
    ``mode == "goal"`` even when its answer happened to be read off a warm
    full materialization.  ``served_by`` records how the answer was actually
    produced: ``"goal"`` when the magic-set pipeline evaluated for this
    call, ``"tabled"`` when a subsumed tabled goal served it, ``"maintained"``
    when a session's materialization did, and ``"full"`` when a from-scratch
    fixpoint ran.  ``fallback_reason`` is set when a goal-mode request could
    not (or, served from a warm materialization, *would not cold*) run the
    magic pipeline — it records the compile-time refusal or the runtime
    budget breach that forces full evaluation.
    """

    output: Instance
    full_instance: Instance
    statistics: EvaluationStatistics
    output_relation: "str | None" = None
    binding: "Binding | None" = None
    mode: QueryMode = "full"
    fallback_reason: "str | None" = None
    served_by: ServedBy = "full"

    def paths(self, relation: str | None = None) -> frozenset[Path]:
        """The set of output paths (for a unary output relation).

        Defaults to the query's output relation; an explicit *relation* reads
        another one.  Results that do not know their output relation (built
        by hand) fall back to the single present relation, and raise
        :class:`EvaluationError` — naming every candidate — instead of
        picking arbitrarily when several are present.
        """
        name = relation if relation is not None else self.output_relation
        if name is None:
            names = sorted(self.output.relation_names)
            if len(names) > 1:
                candidates = ", ".join(repr(candidate) for candidate in names)
                raise EvaluationError(
                    f"result holds several relations and does not know which one is "
                    f"the output; pass relation=... to disambiguate between the "
                    f"candidates {candidates}"
                )
            name = names[0] if names else None
        if name is None:
            return frozenset()
        return self.output.paths(name)

    def boolean(self) -> bool:
        """For a nullary output relation: whether the empty tuple was derived."""
        return bool(self.output)


def _mentions(path: Path, value: Path) -> bool:
    """Whether *path* equals *value* or contains it as a contiguous run.

    The touch predicate of the generalized-tabling cost model: a base row
    can only feed the requested slice through an access that equates an
    argument with a bound value or destructures it around one, and both
    shapes require the value's elements to appear contiguously in the row.
    """
    if path == value:
        return True
    elements = path.elements
    needle = value.elements
    span = len(needle)
    if span == 0 or span > len(elements):
        return False
    return any(
        elements[start : start + span] == needle
        for start in range(len(elements) - span + 1)
    )


def _normalise_binding(
    binding: "Mapping[int, object] | None", arity: int, relation: str
) -> Binding:
    """Coerce binding values to paths and validate the positions."""
    if not binding:
        return {}
    normalised: Binding = {}
    for position, value in binding.items():
        if not isinstance(position, int) or not 0 <= position < arity:
            raise EvaluationError(
                f"binding position {position!r} is outside the argument range of "
                f"{relation!r} (arity {arity})"
            )
        normalised[position] = as_path(value)
    return normalised


def _restrict_output(full: Instance, relation: str, binding: Binding) -> Instance:
    """The output sub-instance: the relation's rows that match the binding.

    Bound values are probed in the relation's columnar view
    (:meth:`~repro.storage.columnar.ColumnarView.select`, the filter a
    committed read uses too), so a selective binding never scans the whole
    output relation.  Stored rows are already valid, so they are decoded as
    they are, not re-validated.
    """
    if not binding:
        output = full.restricted([relation])
        output.ensure_relation(relation)
        return output
    storage = full.storage(relation)
    output = Instance()
    output.set_relation_rows(
        relation, storage.columnar(full.term_table()).select(binding) if storage else ()
    )
    return output


class ProgramQuery:
    """A Sequence Datalog program viewed as a query from a schema to one relation."""

    def __init__(
        self,
        program: Program,
        input_schema: "Schema | dict[str, int]",
        output_relation: str,
        *,
        limits: EvaluationLimits = DEFAULT_LIMITS,
        mode: QueryMode = "full",
        name: str | None = None,
        require_monadic: bool = True,
    ):
        self.program = program
        self.input_schema = input_schema if isinstance(input_schema, Schema) else Schema(input_schema)
        self.output_relation = output_relation
        self.limits = limits
        if mode not in ("full", "goal"):
            raise EvaluationError(f"unknown query mode {mode!r}; use 'full' or 'goal'")
        self.mode: QueryMode = mode
        self.name = name or output_relation
        self._validate(require_monadic)
        self.output_arity: int = self.program.relation_arities()[output_relation]
        self._compiled: "CompiledProgram | None" = None
        #: Per-adornment magic rewritings, each next to its compiled program
        #: (or the reason they are unavailable), keyed by the tuple of bound
        #: positions.  Shared by every session.
        self._goal_programs: dict[tuple[int, ...], "tuple | str"] = {}

    @property
    def compiled(self) -> CompiledProgram:
        """The program lowered once, on first use, and shared by every session."""
        if self._compiled is None:
            self._compiled = CompiledProgram(self.program)
        return self._compiled

    def _validate(self, require_monadic: bool) -> None:
        if require_monadic and not self.input_schema.is_monadic():
            raise EvaluationError(
                f"the baseline queries of Section 3.1 use monadic input schemas; "
                f"got {self.input_schema!r} (pass require_monadic=False to override)"
            )
        if not self.program.is_over(self.input_schema):
            raise EvaluationError(
                f"the program is not over the input schema {self.input_schema!r}: "
                f"EDB = {sorted(self.program.edb_relation_names())}, "
                f"IDB = {sorted(self.program.idb_relation_names())}"
            )
        if self.output_relation not in self.program.idb_relation_names():
            raise EvaluationError(
                f"output relation {self.output_relation!r} is not an IDB relation of the program"
            )
        if self.output_relation in self.input_schema:
            raise EvaluationError(
                f"output relation {self.output_relation!r} must not belong to the input schema"
            )
        arity = self.program.relation_arities().get(self.output_relation, 1)
        if require_monadic and arity > 1:
            raise EvaluationError(
                f"output relation {self.output_relation!r} has arity {arity}; "
                f"queries return relations of arity at most one"
            )

    # -- goal compilation -------------------------------------------------------------------------

    def goal_program(self, binding: "Mapping[int, object] | None" = None):
        """The magic-set rewriting for *binding*'s adornment, or ``None`` + reason.

        Returns ``(MagicProgram | None, reason | None)``; the rewriting is
        computed once per adornment and cached on the query.  Adornments
        refused as expanding magic recursion are retried with generalized
        (more general) adornments — the returned program then records the
        adornment it was actually rewritten for, and callers must filter its
        answers down to the requested binding.
        """
        normalised = _normalise_binding(binding, self.output_arity, self.output_relation)
        goal, refusal = self._goal_program_for_key(tuple(sorted(normalised)))
        return (None if goal is None else goal[0]), refusal

    def _goal_program_for_key(self, key: tuple[int, ...]):
        """As :meth:`goal_program`, keyed by already-validated bound positions,
        with the rewriting's compiled program: ``((MagicProgram,
        CompiledProgram) | None, reason | None)``."""
        # Imported lazily: repro.transform depends on the engine package.
        from repro.analysis.adornment import Adornment
        from repro.transform.magic import magic_rewrite

        cached = self._goal_programs.get(key)
        if cached is None:
            try:
                magic = magic_rewrite(
                    self.program,
                    self.output_relation,
                    Adornment.from_positions(self.output_arity, key),
                    on_expanding="generalize",
                )
                cached = (magic, CompiledProgram(magic.program))
            except MagicSetUnsupportedError as error:
                cached = reason(REWRITE_UNSUPPORTED, str(error))
            self._goal_programs[key] = cached
        if isinstance(cached, str):
            return None, cached
        return cached, None

    # -- evaluation -------------------------------------------------------------------------------

    def session(
        self,
        instance: Instance,
        *,
        check_flat: bool = True,
        memoize: bool = True,
        table_capacity: "int | None" = None,
        generalization_limit: "float | None" = DEFAULT_GENERALIZATION_LIMIT,
    ) -> "QuerySession":
        """Open a :class:`QuerySession` for repeated queries over *instance*.

        ``table_capacity`` is the subgoal answer table's LRU bound and
        ``generalization_limit`` the cost model gating generalized tabling
        (``None`` disables it) — see :class:`QuerySession`.
        """
        return QuerySession(
            self,
            instance,
            check_flat=check_flat,
            memoize=memoize,
            table_capacity=table_capacity,
            generalization_limit=generalization_limit,
        )

    def run(
        self,
        instance: Instance,
        *,
        binding: "Mapping[int, object] | None" = None,
        mode: "QueryMode | None" = None,
        check_flat: bool = True,
    ) -> QueryResult:
        """Run the query on *instance* and return the full :class:`QueryResult`.

        One-shot runs use a throwaway, non-memoizing session: building the
        maintenance support state would be pure overhead for a single query.
        """
        return self.session(instance, check_flat=check_flat, memoize=False).run(
            binding=binding, mode=mode
        )

    def answer(
        self,
        instance: Instance,
        *,
        binding: "Mapping[int, object] | None" = None,
        mode: "QueryMode | None" = None,
    ) -> frozenset[Path]:
        """Run the query and return the set of output paths (unary output)."""
        return self.run(instance, binding=binding, mode=mode).paths(self.output_relation)

    def boolean(
        self,
        instance: Instance,
        *,
        binding: "Mapping[int, object] | None" = None,
        mode: "QueryMode | None" = None,
    ) -> bool:
        """Run the query and interpret the (nullary) output relation as a boolean."""
        return self.run(instance, binding=binding, mode=mode).boolean()

    # -- introspection ----------------------------------------------------------------------------

    def features(self):
        """Return the set of features used by the underlying program (Section 3)."""
        from repro.fragments.features import program_features

        return program_features(self.program)

    def __repr__(self) -> str:
        return (
            f"ProgramQuery(name={self.name!r}, output={self.output_relation!r}, "
            f"schema={self.input_schema!r}, mode={self.mode!r})"
        )


@dataclass(frozen=True)
class UpdateResult:
    """The outcome of one :meth:`QuerySession.update`.

    ``added`` / ``removed`` are the *effective* EDB changes (no-op additions
    and retractions net out, see :class:`~repro.model.instance.DeltaResult`).
    ``maintained`` says whether the session's materialized fixpoint was
    updated incrementally; when it is ``False`` and ``fallback_reason`` is
    set, maintenance could not cover the update (or broke its budget) and the
    next query will re-evaluate from scratch for that recorded reason.
    """

    added: frozenset[Fact]
    removed: frozenset[Fact]
    maintained: bool
    fallback_reason: "str | None"
    statistics: EvaluationStatistics


class QuerySession:
    """Repeated (possibly goal-directed) queries over one pinned instance.

    The session validates the instance once, then caches the evaluation
    machinery that is worth keeping warm between queries (the compiled
    programs are the query's, shared by its sessions): a subgoal
    :class:`~repro.engine.tabling.AnswerTable` for
    goal-mode calls, and — once a full-mode evaluation has happened — the
    full fixpoint itself as a
    :class:`~repro.engine.maintenance.MaintainedFixpoint`.

    Later full-mode queries (any binding) are answered from that
    materialization without re-evaluating; goal-mode queries use it too when
    it is available, since reading a maintained materialization beats even a
    magic-set run (such results keep ``mode == "goal"`` with
    ``served_by == "maintained"``).  Before a full materialization exists,
    goal-mode calls go through the answer table: a call subsumed by a
    previously evaluated goal is served from that entry
    (``served_by == "tabled"``), and a fresh call evaluates its magic
    program as a maintained materialization of its own and tables it.
    :meth:`update` mutates the pinned instance through a transactional
    :class:`~repro.model.instance.InstanceDelta` and maintains the
    materialization *and* every tabled subgoal incrementally; anything
    maintenance cannot cover falls back to re-evaluation with a recorded
    reason (table entries degrade individually: an entry whose update cannot
    be maintained is evicted and re-evaluates on next demand).  A mutation
    of the pinned instance that did not go through :meth:`update` is caught
    by comparing each relation's storage object and generation with those
    the session's own writes left: it drops the materialization and every
    table entry (reason ``out_of_band_mutation``), and the next demand
    rebuilds them from scratch.

    Results served from the materialization or the table share their
    ``full_instance`` with the session; treat it as read-only.
    """

    def __init__(
        self,
        query: ProgramQuery,
        instance: Instance,
        *,
        check_flat: bool = True,
        memoize: bool = True,
        table_capacity: "int | None" = None,
        generalization_limit: "float | None" = DEFAULT_GENERALIZATION_LIMIT,
    ):
        if check_flat and not instance.is_flat():
            raise ModelError("queries are defined on flat instances (no packed values)")
        unknown = instance.relation_names - query.input_schema.relation_names
        if unknown:
            raise EvaluationError(
                f"instance uses relations {sorted(unknown)} outside the input schema"
            )
        self.query = query
        self.instance = instance
        #: When ``False`` (one-shot queries), full-mode runs evaluate plainly
        #: instead of building and memoizing maintenance support state, and
        #: goal-mode runs bypass the subgoal answer table.
        self._memoize = memoize
        self._maintained: "MaintainedFixpoint | None" = None
        #: Tabled goal-mode calls, by call subsumption.  The LRU capacity is
        #: a serving knob: sessions pinning many overlapping goals can raise
        #: it, memory-tight fleets can lower it (minimum 1).
        self.table_capacity = (
            DEFAULT_MAX_ENTRIES if table_capacity is None else table_capacity
        )
        self._tables = AnswerTable(max_entries=self.table_capacity)
        #: Cost-model ceiling for *generalized* rewritings: a generalized
        #: goal subsumes the requested call, so its tabled entry can be
        #: arbitrarily larger than the slice actually demanded.  When the
        #: estimated sweep exceeds this multiple of the requested slice the
        #: session refuses to table it and falls back to full evaluation
        #: with a ``generalization_too_large`` reason.  ``None`` disables
        #: the model (always table); exactly-adorned rewritings are never
        #: affected.
        self.generalization_limit = generalization_limit
        #: Relation name → (storage object, generation) after the session's
        #: own last write, which is what the maintained artifacts
        #: (materialization and table entries) describe.
        self._basis: "dict[str, tuple[object, int]]" = {}
        #: Why the last update (or out-of-band change) could not be
        #: maintained incrementally, if it could not.
        self.last_maintenance_fallback: "str | None" = None

    def _evaluate(
        self,
        compiled: CompiledProgram,
        statistics: EvaluationStatistics,
        seed_facts: "Iterable[Fact] | None" = None,
    ) -> Instance:
        return evaluate_program(
            compiled.program,
            self.instance,
            self.query.limits,
            statistics=statistics,
            seed_facts=seed_facts,
            compiled=compiled,
        )

    # -- maintained artifacts (materialization + subgoal tables) -----------------------

    def _has_artifacts(self) -> bool:
        """Whether any maintained state (materialization or table entries) exists."""
        return self._maintained is not None or len(self._tables) > 0

    def _record_basis(self) -> None:
        self._basis = {}
        for name in self.instance.relation_names:
            storage = self.instance.storage(name)
            self._basis[name] = (storage, storage.generation)

    def _drop_drifted_artifacts(self) -> "str | None":
        """Drop every maintained artifact if the pinned instance drifted.

        Drift is any difference from the basis the session's own writes
        recorded — a changed generation, a replaced storage object, a
        relation added or gone.  The artifacts no longer describe the
        instance, and the scratch evaluation the next demand runs is the
        answer by definition, so nothing tries to reconstruct the missed
        delta.  Returns the recorded reason, or ``None`` when nothing drifted.
        """
        if not self._has_artifacts():
            return None
        instance = self.instance
        names = instance.relation_names
        basis = self._basis
        drifted = list(basis.keys() - names)
        for name in names:
            storage = instance.storage(name)
            entry = basis.get(name)
            if entry is None or entry[0] is not storage or entry[1] != storage.generation:
                drifted.append(name)
        if not drifted:
            return None
        self._maintained = None
        self._tables.clear()
        self._basis = {}
        self.last_maintenance_fallback = reason(
            OUT_OF_BAND_MUTATION, ", ".join(sorted(drifted))
        )
        return self.last_maintenance_fallback

    def _maintain_main(
        self,
        additions: "Iterable[Fact]",
        retractions: "Iterable[Fact]",
        statistics: EvaluationStatistics,
    ) -> None:
        """Advance the main materialization past a base delta.

        Facts of relations the program never mentions cannot affect any
        derived relation — the maintainer refuses them as unknown — so they
        are mirrored straight into the materialized instance instead, which
        keeps ``full_instance`` a faithful copy of the base.  Raises
        :class:`~repro.errors.EvaluationError` when maintenance cannot cover
        the program-relevant part.
        """
        assert self._maintained is not None
        additions = list(additions)
        retractions = list(retractions)
        known = self._maintained.program.relation_names()
        self._maintained.update(
            [fact for fact in additions if fact.relation in known],
            [fact for fact in retractions if fact.relation in known],
            statistics=statistics,
        )
        stray_removed = [fact for fact in retractions if fact.relation not in known]
        stray_added = [fact for fact in additions if fact.relation not in known]
        for fact in stray_removed:
            self._maintained.materialized.discard_fact(fact, keep_empty=True)
        for fact in stray_added:
            self._maintained.materialized.add_fact(fact)

    def _materialization(
        self, statistics: EvaluationStatistics
    ) -> "tuple[MaintainedFixpoint, ServedBy]":
        """The maintained full fixpoint, synced with the pinned instance.

        Out-of-band drift has already been checked by :meth:`lookup`; this
        either serves the live materialization or (re)builds it from
        scratch.  The second component says how the caller's answer was
        produced.
        """
        if not self._memoize:
            return self._plain_materialization(statistics), "full"
        if self._maintained is not None:
            return self._maintained, "maintained"
        try:
            maintained = MaintainedFixpoint.evaluate(
                self.query.program,
                self.instance,
                self.query.limits,
                statistics=statistics,
                compiled=self.query.compiled,
            )
        except EvaluationError as error:
            if isinstance(error, EvaluationBudgetExceeded):
                raise
            # The program cannot be maintained (e.g. a relation defined in
            # several strata): evaluate plainly and serve without a memo.
            self.last_maintenance_fallback = maintenance_reason(error)
            return self._plain_materialization(statistics), "full"
        self._maintained = maintained
        # The materialization subsumes every tabled subgoal; keeping the
        # entries alive would only make later updates maintain dead state.
        self._tables.clear()
        self._record_basis()
        return maintained, "full"

    def _plain_materialization(self, statistics: EvaluationStatistics) -> MaintainedFixpoint:
        """A one-shot full evaluation wrapped for serving, with no memo state."""
        full = self._evaluate(self.query.compiled, statistics)
        return MaintainedFixpoint(
            self.query.program, full, [], self.query.limits, self.query.compiled
        )

    # -- updates -----------------------------------------------------------------------

    def update(
        self,
        additions: Iterable[Fact] = (),
        retractions: Iterable[Fact] = (),
    ) -> UpdateResult:
        """Apply an EDB delta to the pinned instance and maintain the fixpoint.

        The delta is applied atomically through
        :meth:`~repro.model.instance.Instance.begin_delta`; if a materialized
        fixpoint exists it is maintained incrementally (counting for
        non-recursive strata, delete–rederive for recursive ones, signed
        deltas through stratified negation), and so is every tabled subgoal.
        Updates maintenance cannot cover — budget breaches, stray relations
        — drop the materialization and record the reason; the next query
        transparently re-evaluates from scratch.  Table entries degrade
        individually: an entry whose
        magic program cannot be maintained through the update is evicted and
        re-evaluates on next demand.  ``UpdateResult.maintained`` reports
        whether the session still holds incrementally updated state — the
        materialization when one existed, otherwise surviving table entries.
        After an out-of-band mutation there is nothing left to maintain: the
        delta is applied and the result carries the ``out_of_band_mutation``
        reason.
        """
        delta = self.instance.begin_delta()
        for verb, facts in (("add", additions), ("retract", retractions)):
            for fact in facts:
                if fact.relation not in self.query.input_schema:
                    raise EvaluationError(
                        f"cannot {verb} facts of relation {fact.relation!r}: it is "
                        f"outside the input schema {self.query.input_schema!r}"
                    )
                if verb == "add":
                    delta.add_fact(fact)
                else:
                    delta.retract_fact(fact)
        # Drift must be checked before the delta mutates the instance, or
        # the basis recorded below would bury it.
        drift = self._drop_drifted_artifacts()
        applied = delta.apply()

        statistics = EvaluationStatistics()
        had_entries = len(self._tables) > 0
        maintained = False
        fallback = drift
        if self._maintained is not None:
            try:
                self._maintain_main(applied.added, applied.removed, statistics=statistics)
            except EvaluationError as error:
                fallback = maintenance_reason(error)
                self._maintained = None
            else:
                maintained = True
        evicted = self._tables.apply_update(
            applied.added, applied.removed, statistics=statistics
        )
        if not maintained and fallback is None and had_entries:
            # Goal-only session: the tables are the maintained state.
            if len(self._tables) > 0:
                maintained = True
            elif evicted:
                fallback = evicted[0][1]
        if self._has_artifacts():
            self._record_basis()
        else:
            self._basis = {}
        self.last_maintenance_fallback = fallback
        return UpdateResult(
            added=applied.added,
            removed=applied.removed,
            maintained=maintained,
            fallback_reason=fallback,
            statistics=statistics,
        )

    # -- queries -----------------------------------------------------------------------

    def _request(
        self, binding: "Mapping[int, object] | None", mode: "QueryMode | None"
    ) -> "tuple[QueryMode, Binding]":
        """The validated mode and normalised binding of one request."""
        query = self.query
        wanted_mode: QueryMode = mode if mode is not None else query.mode
        if wanted_mode not in ("full", "goal"):
            raise EvaluationError(f"unknown query mode {wanted_mode!r}; use 'full' or 'goal'")
        return wanted_mode, _normalise_binding(binding, query.output_arity, query.output_relation)

    def lookup(
        self,
        *,
        binding: "Mapping[int, object] | None" = None,
        mode: "QueryMode | None" = None,
    ) -> "QueryResult | None":
        """The answer the session already holds for this request, or ``None``.

        A synced materialization answers any request, and a tabled entry
        subsuming a goal-mode call answers that; neither evaluates anything.
        """
        wanted_mode, normalised = self._request(binding, mode)
        if not self._memoize:
            return None
        self._drop_drifted_artifacts()
        statistics = EvaluationStatistics()
        key = tuple(sorted(normalised))
        if self._maintained is not None:
            # A goal-mode request keeps its identity and the compile-time
            # fallback reason a cold run would have hit.
            fallback = self.query._goal_program_for_key(key)[1] if wanted_mode == "goal" else None
            materialized = self._maintained.materialized
            return self._answer(
                materialized, normalised, statistics, wanted_mode, "maintained", fallback
            )
        entry = self._tables.lookup(key, normalised, statistics) if wanted_mode == "goal" else None
        if entry is None:
            return None
        return self._answer(entry.answers, normalised, statistics, "goal", "tabled")

    def lookup_entry(
        self, binding: Binding, statistics: EvaluationStatistics
    ) -> "TableEntry | None":
        """:meth:`lookup`'s table probe for goal call *binding* (normalised)
        on a session with no materialization, counted in *statistics*; the
        caller reads the answer off the entry, and evaluates on ``None``."""
        self._drop_drifted_artifacts()
        return self._tables.lookup(tuple(sorted(binding)), binding, statistics)

    def run(
        self,
        *,
        binding: "Mapping[int, object] | None" = None,
        mode: "QueryMode | None" = None,
        looked_up: bool = False,
    ) -> QueryResult:
        """Run the query against the session's instance.

        What :meth:`lookup` finds is served first; ``looked_up=True`` says
        the caller has just had ``None`` from it for this request, so
        evaluation starts at once and the table is not probed twice.
        """
        held = None if looked_up else self.lookup(binding=binding, mode=mode)
        if held is not None:
            return held
        wanted_mode, normalised = self._request(binding, mode)
        statistics = EvaluationStatistics()
        fallback_reason: "str | None" = None
        if wanted_mode == "goal":
            goal, fallback_reason = self.query._goal_program_for_key(tuple(sorted(normalised)))
            if goal is not None and self._memoize:
                too_large = self._generalization_guard(goal[0], normalised)
                if too_large is not None:
                    goal, fallback_reason = None, too_large
            if goal is not None:
                result, fallback_reason = self._evaluate_goal(*goal, normalised, statistics)
                if result is not None:
                    return result

        # Full-mode requests, and goal-mode requests that genuinely fell back
        # to full evaluation (refused rewriting, budget breach): the answer
        # is computed as a full query, and mode records that.
        maintained, served_by = self._materialization(statistics)
        return self._answer(
            maintained.materialized, normalised, statistics, "full", served_by, fallback_reason
        )

    def _generalization_guard(self, magic, normalised: Binding) -> "str | None":
        """The tabling cost model: refuse oversized generalized entries.

        A generalized rewriting (``on_expanding="generalize"``) drops bound
        positions from the goal, so the entry it would table answers a
        strictly wider call than the one requested — in the worst case the
        all-free goal, which materializes the whole output relation.  That
        is a great trade when later calls hit the entry, and a terrible one
        when the requested slice is a sliver of a large instance.

        The estimate is deliberately cheap and symmetric: the generalized
        sweep is bounded by the magic program's *total* EDB rows (nothing
        restricts it), while the requested slice is proportional to the EDB
        rows that mention one of the requested bound values (an index-bucket
        estimate — equality or contiguous-subsequence containment, the two
        access shapes Sequence Datalog bodies have).  When the ratio exceeds
        :attr:`generalization_limit`, the returned reason (starting with
        ``generalization_too_large``) makes the caller fall back to full
        evaluation, whose materialization is at least reusable for *every*
        later call.
        """
        limit = self.generalization_limit
        if limit is None or not magic.generalized:
            return None
        edb = magic.program.edb_relation_names() - {magic.magic_seed_relation}
        bound_values = list(normalised.values())
        total = 0
        touching = 0
        for name in sorted(edb & self.instance.relation_names):
            rows = self.instance.relation(name)
            total += len(rows)
            for row in rows:
                if any(
                    _mentions(path, value) for path in row for value in bound_values
                ):
                    touching += 1
        ratio = total / max(1, touching)
        if ratio <= limit:
            return None
        return reason(
            GENERALIZATION_TOO_LARGE,
            f"tabling the generalized goal "
            f"({magic.adornment.suffix() or 'g'} for requested "
            f"{magic.requested_adornment.suffix() or 'g'}) would sweep "
            f"~{total} EDB rows against a requested slice touching ~{touching} "
            f"(ratio {ratio:.0f} > limit {limit:g}); fell back to full evaluation",
        )

    def _evaluate_goal(
        self,
        magic,
        compiled: CompiledProgram,
        normalised: Binding,
        statistics: EvaluationStatistics,
    ) -> "tuple[QueryResult | None, str | None]":
        """Evaluate one goal-directed call, tabling its answers when memoizing.

        Returns ``(result, None)`` on success and ``(None, reason)`` when the
        evaluation breached its budget and the caller must fall back to full
        evaluation.
        """
        seed_binding = {
            position: normalised[position]
            for position in magic.adornment.bound_positions
        }
        seed = magic.seed_fact(seed_binding)
        try:
            if self._memoize:
                entry = self._table_entry_for(magic, compiled, seed_binding, seed, statistics)
                self._tables.insert(entry)
                self._record_basis()
                full = entry.answers
            else:
                full = self._evaluate(compiled, statistics, seed_facts=(seed,))
        except EvaluationBudgetExceeded as error:
            return None, reason(
                GOAL_BUDGET_EXCEEDED,
                f"goal-directed evaluation exceeded the limits ({error}); "
                f"fell back to full evaluation",
            )
        return self._answer(full, normalised, statistics, "goal", "goal"), None

    def _table_entry_for(
        self,
        magic,
        compiled: CompiledProgram,
        seed_binding: Binding,
        seed: Fact,
        statistics: EvaluationStatistics,
    ) -> TableEntry:
        """Evaluate the *magic* program from *seed* into a (preferably maintained) entry."""
        positions = tuple(magic.adornment.bound_positions)
        values = tuple(seed_binding[position] for position in positions)
        # Intern the base relations the magic program reads once, on the
        # session's instance: every entry's working copy shares these views.
        table = self.instance.term_table()
        for name in magic.program.edb_relation_names() & self.instance.relation_names:
            self.instance.storage(name).columnar(table)  # type: ignore[union-attr]
        try:
            fixpoint = MaintainedFixpoint.evaluate(
                magic.program,
                self.instance,
                self.query.limits,
                statistics=statistics,
                compiled=compiled,
                seed_facts=(seed,),
            )
        except MaintenanceUnsupportedError:
            # The magic program cannot be maintained; table a plain snapshot
            # (served until the first update that touches its relations).
            snapshot = self._evaluate(compiled, statistics, seed_facts=(seed,))
            return TableEntry(
                self.query.output_relation,
                positions,
                values,
                magic,
                snapshot=snapshot,
            )
        return TableEntry(
            self.query.output_relation,
            positions,
            values,
            magic,
            fixpoint=fixpoint,
        )

    def _answer(
        self,
        full: Instance,
        normalised: Binding,
        statistics: EvaluationStatistics,
        mode: QueryMode,
        served_by: ServedBy,
        fallback_reason: "str | None" = None,
    ) -> QueryResult:
        """The result answering *normalised* from the state *full*; *mode* is
        the request's, *served_by* how the answer was actually produced."""
        output_relation = self.query.output_relation
        return QueryResult(
            output=_restrict_output(full, output_relation, normalised),
            full_instance=full,
            statistics=statistics,
            output_relation=output_relation,
            binding=normalised,
            mode=mode,
            fallback_reason=fallback_reason,
            served_by=served_by,
        )

    def answer(
        self,
        *,
        binding: "Mapping[int, object] | None" = None,
        mode: "QueryMode | None" = None,
    ) -> frozenset[Path]:
        """Run against the pinned instance and return the output paths."""
        return self.run(binding=binding, mode=mode).paths(self.query.output_relation)

    def boolean(
        self,
        *,
        binding: "Mapping[int, object] | None" = None,
        mode: "QueryMode | None" = None,
    ) -> bool:
        """Run against the pinned instance and read the nullary output as a boolean."""
        return self.run(binding=binding, mode=mode).boolean()

    @property
    def materialized(self) -> "Instance | None":
        """The maintained full materialization, or ``None`` when no full-mode
        evaluation has happened yet (or the last update dropped it).

        The serving layer reads committed snapshots off this instance; treat
        it as read-only.
        """
        return self._maintained.materialized if self._maintained is not None else None

    # -- durability (state export / restore) -------------------------------------------

    def export_state(self) -> dict:
        """The session's full serving state as a JSON-serializable document.

        Everything a :meth:`restore` needs to come back serving without
        re-evaluating: the pinned EDB, the maintained materialization plus
        its per-stratum support state (:meth:`MaintainedFixpoint.support_state`),
        and every tabled goal's seed and answers.  The document is stamped
        with :data:`SESSION_STATE_VERSION`.
        """
        # Imported lazily: repro.io.serialization depends on this module.
        from repro.io.serialization import (
            _answers_to_json,
            fact_to_json,
            path_to_text,
            rows_to_json,
        )

        state: dict = {
            "version": SESSION_STATE_VERSION,
            "edb": {
                name: rows_to_json(self.instance.relation(name))
                for name in sorted(self.instance.relation_names)
            },
            "materialization": None,
            "strata": None,
            "table": [],
        }
        if self._maintained is not None:
            materialized = self._maintained.materialized
            state["materialization"] = {
                name: rows_to_json(materialized.relation(name))
                for name in sorted(materialized.relation_names)
            }
            state["strata"] = [
                {
                    "recursive": recursive,
                    "counts": None
                    if counts is None
                    else sorted(
                        [fact_to_json(fact), count] for fact, count in counts.items()
                    ),
                    "pinned": sorted(fact_to_json(fact) for fact in pinned),
                }
                for recursive, counts, pinned in self._maintained.support_state()
            ]
        for entry in self._tables:
            state["table"].append(
                {
                    "positions": list(entry.positions),
                    "values": [path_to_text(value) for value in entry.values],
                    "answers": _answers_to_json(entry.answers),
                }
            )
        return state

    @classmethod
    def restore(
        cls,
        query: ProgramQuery,
        state: "Mapping[str, object]",
        *,
        table_capacity: "int | None" = None,
        generalization_limit: "float | None" = DEFAULT_GENERALIZATION_LIMIT,
    ) -> "QuerySession":
        """Rebuild a session from an :meth:`export_state` document.

        The restored session serves identically to the one that exported
        the state — same materialization, same maintenance support, same
        tabled answers — without evaluating anything, which is what makes
        restore-from-snapshot fast.  Tabled goals come back as serve-only
        snapshot entries (their magic rewriting is re-derived from the
        program; an entry whose adornment this build rewrites differently
        is dropped rather than restored wrong, and any snapshot entry is
        evicted by the first update that touches it).  A state written by
        an incompatible build — a different :data:`SESSION_STATE_VERSION`
        — is refused with :class:`~repro.errors.SnapshotUnsupportedError`.
        Keys this build does not know are ignored, so a state exported by
        an older build that recorded more reads the same.
        """
        # Imported lazily: repro.io.serialization depends on this module.
        from repro.io.serialization import (
            _answers_from_json,
            fact_from_json,
            path_from_text,
            rows_from_json,
        )

        version = state.get("version")
        if version != SESSION_STATE_VERSION:
            raise SnapshotUnsupportedError(
                reason(
                    SNAPSHOT_UNSUPPORTED,
                    f"session state version {version!r} is not readable by this "
                    f"build (expected {SESSION_STATE_VERSION})",
                )
            )
        instance = Instance()
        for name, rows in dict(state.get("edb") or {}).items():
            instance.ensure_relation(name)
            instance.set_relation_rows(name, rows_from_json(rows))
        session = cls(
            query,
            instance,
            table_capacity=table_capacity,
            generalization_limit=generalization_limit,
        )
        materialization = state.get("materialization")
        strata = state.get("strata")
        if materialization is not None and strata is not None:
            materialized = Instance()
            for name, rows in dict(materialization).items():
                materialized.ensure_relation(name)
                materialized.set_relation_rows(name, rows_from_json(rows))
            for name in query.program.idb_relation_names():
                materialized.ensure_relation(name)
            support = [
                (
                    bool(stratum["recursive"]),
                    None
                    if stratum.get("counts") is None
                    else {
                        fact_from_json(fact): int(count)
                        for fact, count in stratum["counts"]
                    },
                    frozenset(fact_from_json(fact) for fact in stratum.get("pinned", ())),
                )
                for stratum in strata
            ]
            session._maintained = MaintainedFixpoint.from_support(
                query.program,
                materialized,
                support,
                query.limits,
                query.compiled,
            )
        for stored in state.get("table") or ():
            positions = tuple(int(position) for position in stored["positions"])
            values = tuple(path_from_text(text) for text in stored["values"])
            goal, _refusal = query._goal_program_for_key(positions)
            if goal is None:
                continue
            magic = goal[0]
            if tuple(magic.adornment.bound_positions) != positions:
                continue
            answers = _answers_from_json(stored["answers"])
            for name in magic.program.idb_relation_names():
                answers.ensure_relation(name)
            session._tables.insert(
                TableEntry(
                    query.output_relation,
                    positions,
                    values,
                    magic,
                    snapshot=answers,
                )
            )
        session._record_basis()
        return session

    def close(self) -> None:
        """Release the session (idempotent).  It holds no resource outside
        the process, so this only lets callers scope it with ``with``."""

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
