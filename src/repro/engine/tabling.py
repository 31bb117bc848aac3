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
with the seed planted, built over the session's base instance: the entry
reads the base relations in place and owns only the relations its program
derives and its seed relation.  :meth:`~repro.engine.query.QuerySession.update`
applies a delta to the base once and maintains, from that one change, every
entry whose program mentions a changed relation.  An entry is a cache: only
its seed is persisted, and a restored session re-evaluates it.

The table is also what makes the *relaxed* expanding-magic-recursion
boundary viable: a call whose adornment is refused as expanding is rewritten
for a generalized adornment (``magic_rewrite(..., on_expanding="generalize")``),
evaluated once, and tabled under the generalized key — every later call it
subsumes (including repeats of the originally refused one) is detected as a
repeated subsumed call and served from the table instead of re-deriving.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.engine.fixpoint import EvaluationStatistics
from repro.engine.maintenance import ChangeSet, MaintainedFixpoint
from repro.engine.reasons import maintenance_reason
from repro.errors import EvaluationError, SubgoalTableError
from repro.model.instance import Instance
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
    materialization of the magic program evaluated from that seed.

    A call the entry answers — the goal miss that tabled it, and every hit it
    subsumes — is encoded from :attr:`answers` like any engine reply
    (:func:`~repro.io.serialization.relation_answer`), memoised on the output
    relation's columnar view; an update that moves those rows yields a new
    view, so nothing here is ever reset.
    """

    __slots__ = (
        "output_relation",
        "positions",
        "values",
        "compiled",
        "fixpoint",
        "known_relations",
        "hits",
    )

    def __init__(
        self,
        output_relation: str,
        positions: "tuple[int, ...]",
        values: "tuple[Path, ...]",
        compiled,
        fixpoint: MaintainedFixpoint,
    ):
        if len(positions) != len(values):
            raise SubgoalTableError(
                f"seed values {values!r} do not line up with bound positions {positions!r}"
            )
        if tuple(sorted(positions)) != tuple(positions):
            raise SubgoalTableError(f"bound positions {positions!r} must be sorted")
        self.output_relation = output_relation
        self.positions = positions
        self.values = values
        self.compiled = compiled
        self.fixpoint = fixpoint
        #: Relations the entry's magic program mentions: the only ones whose
        #: base-instance changes can move this entry's answers.
        self.known_relations: frozenset[str] = (
            compiled.program.relation_names() if compiled is not None else frozenset()
        )
        self.hits = 0

    @property
    def answers(self) -> Instance:
        """The materialized answer state (magic program fixpoint)."""
        return self.fixpoint.materialized

    def subsumes(self, positions: "tuple[int, ...]", binding: "Mapping[int, Path]") -> bool:
        """Whether this entry's call subsumes the call ``(positions, binding)``."""
        if not set(self.positions) <= set(positions):
            return False
        return all(
            binding.get(position) == value
            for position, value in zip(self.positions, self.values)
        )

    def seed_binding(self) -> "dict[int, Path]":
        """The entry's seed as a binding mapping."""
        return dict(zip(self.positions, self.values))

    def __repr__(self) -> str:
        seed = ", ".join(
            f"{position}={value}" for position, value in zip(self.positions, self.values)
        )
        return f"TableEntry({self.output_relation}[{seed or 'all-free'}], hits={self.hits})"


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
        #: Entries by seed ``(positions, values)``: in insertion order, in
        #: use order (least recently used first), and by bound-position shape
        #: then values.
        self._entries: "dict[tuple[tuple[int, ...], tuple[Path, ...]], TableEntry]" = {}
        self._recent: "dict[tuple[tuple[int, ...], tuple[Path, ...]], TableEntry]" = {}
        self._shapes: "dict[tuple[int, ...], dict[tuple[Path, ...], TableEntry]]" = {}
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
        self._recent.clear()
        self._shapes.clear()

    def _remove(self, entry: TableEntry) -> None:
        del self._entries[entry.positions, entry.values]
        del self._recent[entry.positions, entry.values]
        group = self._shapes[entry.positions]
        del group[entry.values]
        if not group:
            del self._shapes[entry.positions]

    def _touch(self, entry: TableEntry) -> None:
        key = (entry.positions, entry.values)
        self._recent.pop(key, None)
        self._recent[key] = entry

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
            entry = self._shapes[shape].get(tuple(binding.get(p) for p in shape))
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
        Only the shapes binding every position the new entry binds can hold
        one: of its own shape, the entry with its values; of a larger shape,
        those agreeing with it there.  Beyond ``max_entries`` the least
        recently used entries go, first in use order.
        """
        bound = set(entry.positions)
        absorbed: "list[TableEntry]" = []
        for shape, group in self._shapes.items():
            if shape == entry.positions:
                existing = group.get(entry.values)
                if existing is not None:
                    absorbed.append(existing)
            elif bound.issubset(shape):
                absorbed += [
                    existing
                    for existing in group.values()
                    if entry.subsumes(existing.positions, existing.seed_binding())
                ]
        for existing in absorbed:
            self._remove(existing)
        self._entries[entry.positions, entry.values] = entry
        self._shapes.setdefault(entry.positions, {})[entry.values] = entry
        self._touch(entry)
        while len(self._entries) > self.max_entries:
            self._remove(next(iter(self._recent.values())))
        return absorbed

    # -- maintenance --------------------------------------------------------------------

    def apply_update(
        self, change: ChangeSet, statistics: "EvaluationStatistics | None" = None
    ) -> "list[tuple[TableEntry, str]]":
        """Maintain every entry past *change*, already applied to the session's base.

        Only an entry whose program mentions a changed relation is updated
        (:meth:`~repro.engine.maintenance.MaintainedFixpoint.update`); no
        other can see its answers move.  An entry's encoded answers live on
        the columnar views they encode, which an update that moves rows
        replaces, so none is reset here.  An entry whose update fails
        (budget breach, …) is evicted with the reason recorded.  Returns
        this call's evictions.
        """
        evicted: list[tuple[TableEntry, str]] = []
        for entry in list(self._entries.values()):
            if not change.names & entry.known_relations:
                continue
            try:
                entry.fixpoint.update(change, statistics=statistics)
            except EvaluationError as error:
                evicted.append((entry, maintenance_reason(error)))
                self._remove(entry)
        self.evictions.extend((repr(entry), reason) for entry, reason in evicted)
        del self.evictions[:-EVICTION_LOG_LIMIT]
        return evicted
