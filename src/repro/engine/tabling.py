"""Subsumption-based tabling of adorned subgoals.

Goal-directed evaluation (:mod:`repro.transform.magic`) answers one call —
an output relation, an adornment, and a seed of concrete paths for the bound
positions — by evaluating the magic-rewritten program from that seed.  A
serving workload rarely asks one call: it asks many *overlapping* calls, and
re-running the magic pipeline per call re-derives the same answers again and
again.  This module pools those answers the way the memory-pod systems of
PAPERS.md pool buffers: one computed resource is shared across every consumer
it *subsumes* instead of being recomputed per consumer.

A call ``(A₂, s₂)`` is subsumed by a tabled call ``(A₁, s₁)`` when

* every position bound by ``A₁`` is also bound by ``A₂`` (the tabled goal
  asks with fewer restrictions), and
* ``s₂`` agrees with ``s₁`` on the positions ``A₁`` binds.

Goal-directed evaluation of a call derives the *complete* set of output
facts matching its seed, so the subsumed call's answers are exactly the
tabled entry's answers filtered down to the more specific binding — zero
evaluation.  Seeds are therefore ordered by generality: entries with fewer
bound positions sit higher, the all-free entry (when present) subsumes every
call, and inserting a more general entry *absorbs* the entries it subsumes
(they can never serve a call the new entry does not serve better).

Each entry's answers are kept as a
:class:`~repro.engine.maintenance.MaintainedFixpoint` of the magic program
with the seed planted, so :meth:`~repro.engine.query.QuerySession.update`
maintains every tabled subgoal incrementally alongside the session's full
materialization; entries whose magic program maintenance cannot own are
stored as plain snapshots and evicted on the first update that touches them.

The table is also what makes the *relaxed* expanding-magic-recursion
boundary viable: a call whose adornment is refused as expanding is rewritten
for a generalized adornment (``magic_rewrite(..., on_expanding="generalize")``),
evaluated once, and tabled under the generalized key — every later call it
subsumes (including repeats of the originally refused one) is detected as a
repeated subsumed call and served from the table instead of re-deriving.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.engine.fixpoint import EvaluationStatistics
from repro.engine.maintenance import MaintainedFixpoint
from repro.engine.reasons import SNAPSHOT_NOT_MAINTAINED, maintenance_reason, reason
from repro.errors import EvaluationError, SubgoalTableError
from repro.model.instance import Fact, Instance
from repro.model.terms import Path

__all__ = ["DEFAULT_MAX_ENTRIES", "TableEntry", "AnswerTable"]

#: Default cap on live entries per table; the least recently used entry is
#: evicted first.  Serving fleets pin many sessions per process — an
#: unbounded table would let one hot query monopolise memory.
DEFAULT_MAX_ENTRIES = 64

#: How many maintenance evictions the table remembers for introspection.
#: Only the seed description and the reason are kept — never the evicted
#: entry itself, whose materialized answer state must become collectable.
EVICTION_LOG_LIMIT = 32


class TableEntry:
    """One tabled call: an adorned seed plus its complete answer set.

    ``positions``/``values`` are the call's bound output positions and their
    concrete paths (the seed).  ``fixpoint`` is the maintained
    materialization of the magic program evaluated from that seed, when
    maintenance can own it; ``snapshot`` the plain materialized instance
    otherwise.  Exactly one of the two is set.

    :meth:`encoded_answer` memoises each encoded answer on the columnar view
    of the output rows it encodes; an update that moves those rows yields a
    new view, so nothing here is ever reset.
    """

    __slots__ = (
        "output_relation",
        "positions",
        "values",
        "compiled",
        "fixpoint",
        "snapshot",
        "known_relations",
        "hits",
        "last_used",
    )

    def __init__(
        self,
        output_relation: str,
        positions: "tuple[int, ...]",
        values: "tuple[Path, ...]",
        compiled,
        *,
        fixpoint: "MaintainedFixpoint | None" = None,
        snapshot: "Instance | None" = None,
    ):
        if len(positions) != len(values):
            raise SubgoalTableError(
                f"seed values {values!r} do not line up with bound positions {positions!r}"
            )
        if tuple(sorted(positions)) != tuple(positions):
            raise SubgoalTableError(f"bound positions {positions!r} must be sorted")
        if (fixpoint is None) == (snapshot is None):
            raise SubgoalTableError(
                "a table entry holds either a maintained fixpoint or a plain snapshot"
            )
        self.output_relation = output_relation
        self.positions = positions
        self.values = values
        self.compiled = compiled
        self.fixpoint = fixpoint
        self.snapshot = snapshot
        #: Relations the entry's magic program mentions: the only ones whose
        #: base-instance changes can move this entry's answers.
        self.known_relations: frozenset[str] = (
            compiled.program.relation_names() if compiled is not None else frozenset()
        )
        self.hits = 0
        self.last_used = 0

    @property
    def answers(self) -> Instance:
        """The materialized answer state (magic program fixpoint)."""
        if self.fixpoint is not None:
            return self.fixpoint.materialized
        assert self.snapshot is not None
        return self.snapshot

    @property
    def maintained(self) -> bool:
        """Whether updates can advance this entry in place."""
        return self.fixpoint is not None

    def subsumes(self, positions: "tuple[int, ...]", binding: "Mapping[int, Path]") -> bool:
        """Whether this entry's call subsumes the call ``(positions, binding)``."""
        if not set(self.positions) <= set(positions):
            return False
        return all(
            binding.get(position) == value
            for position, value in zip(self.positions, self.values)
        )

    def encoded_answer(self, binding: "Mapping[int, Path]") -> list:
        """The encoded output rows matching *binding*, a call this entry
        subsumes, memoised on the output relation's columnar view
        (:func:`~repro.io.serialization.memoised_answer`)."""
        from repro.io.serialization import NO_ROWS, memoised_answer  # it imports the engine

        storage = self.answers.storage(self.output_relation)
        if not storage:
            return NO_ROWS
        view = storage.columnar(self.answers.term_table())
        return memoised_answer(view.answers, binding, view.select)

    def seed_binding(self) -> "dict[int, Path]":
        """The entry's seed as a binding mapping."""
        return dict(zip(self.positions, self.values))

    def __repr__(self) -> str:
        seed = ", ".join(
            f"{position}={value}" for position, value in zip(self.positions, self.values)
        )
        kind = "maintained" if self.maintained else "snapshot"
        return f"TableEntry({self.output_relation}[{seed or 'all-free'}], {kind}, hits={self.hits})"


class AnswerTable:
    """The per-query table of evaluated subgoal calls, ordered by generality.

    Lookups return the *most specific* entry subsuming the call (fewest
    extra answers to filter away); insertion absorbs every entry the new
    one subsumes.  The table is bounded: beyond ``max_entries`` live
    entries the least recently used one is dropped (its call will simply
    re-evaluate on next demand).
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise SubgoalTableError("an answer table needs room for at least one entry")
        self.max_entries = max_entries
        #: Entries by seed ``(positions, values)``, in insertion order, and
        #: how many entries each bound-position shape has.
        self._entries: "dict[tuple[tuple[int, ...], tuple[Path, ...]], TableEntry]" = {}
        self._shapes: "dict[tuple[int, ...], int]" = {}
        self._clock = 0
        #: ``(entry description, reason)`` pairs dropped because an update
        #: could not be maintained through them — a bounded introspection
        #: log (:data:`EVICTION_LOG_LIMIT`); the entries themselves are
        #: released so their answer state can be collected.
        self.evictions: list[tuple[str, str]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TableEntry]:
        return iter(self._entries.values())

    def clear(self) -> None:
        self._entries.clear()
        self._shapes.clear()

    def _remove(self, entry: TableEntry) -> None:
        del self._entries[entry.positions, entry.values]
        self._shapes[entry.positions] -= 1
        if not self._shapes[entry.positions]:
            del self._shapes[entry.positions]

    def _touch(self, entry: TableEntry) -> None:
        self._clock += 1
        entry.last_used = self._clock

    def lookup(
        self,
        positions: "tuple[int, ...]",
        binding: "Mapping[int, Path]",
        statistics: "EvaluationStatistics | None" = None,
    ) -> "TableEntry | None":
        """The most specific tabled call subsuming ``(positions, binding)``.

        A hit counts as a *detected repeated subsumed call*: the statistics
        counter ``subgoal_table_hits`` records it, and the caller serves the
        answer by filtering the entry — no evaluation.  The lookup is one
        probe per tabled shape the call binds, most specific first (the
        older entry wins a tie, as in insertion order).
        """
        wanted = set(positions)
        best: "TableEntry | None" = None
        for shape in sorted(self._shapes, key=len, reverse=True):
            if best is not None and len(shape) < len(best.positions):
                break
            if not wanted.issuperset(shape):
                continue
            entry = self._entries.get((shape, tuple(binding.get(p) for p in shape)))
            if entry is not None and best is not None:
                entry = next(e for e in self._entries.values() if e is entry or e is best)
            best = entry or best
        if best is not None:
            best.hits += 1
            self._touch(best)
            if statistics is not None:
                statistics.subgoal_table_hits += 1
        return best

    def insert(self, entry: TableEntry) -> "list[TableEntry]":
        """Add *entry*, absorbing the entries it subsumes.

        Returns the absorbed entries.  An absorbed entry's answers are a
        subset of the new one's, so every call it could serve is served by
        the new entry instead — keeping both would only grow the table.
        """
        absorbed = [
            existing
            for existing in self._entries.values()
            if entry.subsumes(existing.positions, existing.seed_binding())
        ]
        for existing in absorbed:
            self._remove(existing)
        self._entries[entry.positions, entry.values] = entry
        self._shapes[entry.positions] = self._shapes.get(entry.positions, 0) + 1
        self._touch(entry)
        while len(self._entries) > self.max_entries:
            self._remove(min(self._entries.values(), key=lambda candidate: candidate.last_used))
        return absorbed

    # -- maintenance --------------------------------------------------------------------

    def apply_update(
        self,
        additions: "Iterable[Fact]",
        retractions: "Iterable[Fact]",
        statistics: "EvaluationStatistics | None" = None,
    ) -> "list[tuple[TableEntry, str]]":
        """Advance every entry past a base-instance delta.

        Maintained entries are updated incrementally through their magic
        fixpoints, with the delta filtered to the relations each entry's
        program mentions (an unmentioned relation cannot move its answers).
        An entry's encoded answers live on the columnar views they encode,
        which an update that moves rows replaces, so none is reset here.
        Snapshot entries survive deltas that miss their relations and are
        evicted otherwise; maintained entries whose update fails (budget
        breach, stray relations, …) are evicted with the reason recorded.
        Returns this call's evictions.
        """
        additions = list(additions)
        retractions = list(retractions)
        if not additions and not retractions:
            return []
        evicted: list[tuple[TableEntry, str]] = []
        for entry in list(self._entries.values()):
            relevant_added = [f for f in additions if f.relation in entry.known_relations]
            relevant_removed = [
                f for f in retractions if f.relation in entry.known_relations
            ]
            if not relevant_added and not relevant_removed:
                continue
            if entry.fixpoint is None:
                evicted.append(
                    (
                        entry,
                        reason(
                            SNAPSHOT_NOT_MAINTAINED,
                            "snapshot entries cannot be maintained",
                        ),
                    )
                )
                self._remove(entry)
                continue
            try:
                entry.fixpoint.update(
                    relevant_added, relevant_removed, statistics=statistics
                )
            except EvaluationError as error:
                evicted.append((entry, maintenance_reason(error)))
                self._remove(entry)
        self.evictions.extend((repr(entry), reason) for entry, reason in evicted)
        del self.evictions[:-EVICTION_LOG_LIMIT]
        return evicted
