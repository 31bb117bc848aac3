"""A single stored relation: a row set, cached read views and a change log.

The evaluation semantics of the paper (Section 2.3) only ever needs set
membership and iteration, and the seed implementation provided exactly that —
at the price of re-allocating a fresh ``frozenset`` on every read.
:class:`Relation` keeps the same extensional contract while adding what the
layers above it read:

* a **generation counter**, bumped on every mutation, which stamps all derived
  structures so they can be invalidated lazily instead of eagerly;
* a cached **read view** (:meth:`view`): repeated reads between mutations
  return the *same* ``frozenset`` object, so hot loops pay for one snapshot
  per generation instead of one per call;
* one **lazy per-argument index**, built on first use and dropped when the
  generation moves on: *exact path* (:meth:`rows_with_path`) — rows whose
  ``i``-th argument is a given ground path, which is how a query binding
  restricts an output relation (:mod:`repro.engine.query`).  The joins of
  the engine do not read it: they probe the hash groupings of the relation's
  columnar view.

For incremental view maintenance the relation can additionally keep a
**change log**: :meth:`watch` starts recording every effective ``add`` /
``discard`` (stamped with the generation it produced), and
:meth:`changes_since` folds the log into the net ``(added, removed)`` row
sets between a past generation and now.  Logging is opt-in so the hot
fixpoint loops (whose delta relations are rewritten wholesale every round)
pay nothing; wholesale rewrites (:meth:`set_rows`, :meth:`clear`) and log
overflow simply advance the *floor* below which changes are unknown, making
:meth:`changes_since` answer ``None`` — "recompute instead".

The same log keeps the relation's **columnar view** (:meth:`columnar`, the
id-space form the engine joins over) alive across generations: building a
view starts the log, and a stale view advances by the net rows added and
removed since it was cached instead of being rebuilt.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import count, repeat
from operator import itemgetter
from typing import Iterable, Iterator

from repro.errors import ModelError
from repro.model.terms import Path
from repro.storage.columnar import ColumnarView, TermTable

__all__ = ["EMPTY_ROWS", "Relation"]

#: The canonical empty row set, shared by all misses so lookups allocate nothing.
EMPTY_ROWS: frozenset[tuple[Path, ...]] = frozenset()

Row = "tuple[Path, ...]"


class Relation:
    """Rows of one relation, with cached views and a lazy exact-path index."""

    __slots__ = (
        "_rows",
        "_generation",
        "_view",
        "_view_generation",
        "_unary_view",
        "_unary_view_generation",
        "_index_generation",
        "_by_path",
        "_log",
        "_log_floor",
        "_columnar",
        "_columnar_table",
        "_columnar_generation",
    )

    #: Maximum number of change-log entries kept before the log gives up and
    #: advances its floor (past that many row changes, recomputing downstream
    #: views from scratch is the better deal anyway).
    LOG_LIMIT = 8192

    def __init__(self, rows: "Iterable[tuple[Path, ...]] | None" = None):
        self._rows: set[tuple[Path, ...]] = set(rows) if rows is not None else set()
        self._generation = 0
        self._view: frozenset[tuple[Path, ...]] | None = None
        self._view_generation = -1
        self._unary_view: frozenset[Path] | None = None
        self._unary_view_generation = -1
        self._index_generation = -1
        self._by_path: dict[int, dict[Path, set]] = {}
        self._log: "list[tuple[int, tuple[Path, ...], bool]] | None" = None
        self._log_floor = 0
        self._columnar: "ColumnarView | None" = None
        self._columnar_table: "TermTable | None" = None
        self._columnar_generation = -1

    # -- mutation ----------------------------------------------------------------------

    def add(self, row: "tuple[Path, ...]") -> bool:
        """Insert *row*; return ``True`` if it was not present before."""
        before = len(self._rows)
        self._rows.add(row)
        if len(self._rows) != before:
            self._generation += 1
            if self._log is not None:
                self._record(row, True)
            return True
        return False

    def discard(self, row: "tuple[Path, ...]") -> bool:
        """Remove *row* if present; return ``True`` if it was removed."""
        before = len(self._rows)
        self._rows.discard(row)
        if len(self._rows) != before:
            self._generation += 1
            if self._log is not None:
                self._record(row, False)
            return True
        return False

    def add_rows(
        self,
        rows: "set[tuple[Path, ...]]",
        id_rows: "list[tuple] | None" = None,
        table: "TermTable | None" = None,
    ) -> None:
        """Insert the batch *rows*, none of which is present: one :meth:`add` each.

        The generation moves by one per row and a watched relation logs the
        same entries the single adds would (a batch that overflows the log
        voids it whole — no mark can fall inside a batch).  *id_rows*, the
        same rows as id tuples against *table*, advance the cached columnar
        view in step — or found it, when the relation was empty — so the
        resident fixpoint never re-interns what it derived in id space.
        """
        start = self._generation
        before = len(self._rows)
        was_empty = not before
        self._rows |= rows
        if len(self._rows) != before + len(rows):
            raise ModelError("add_rows takes only rows the relation does not hold")
        self._generation = start + len(rows)
        if self._log is not None:
            if len(self._log) + len(rows) > self.LOG_LIMIT:
                self._log.clear()
                self._log_floor = self._generation
            else:
                self._log.extend(zip(count(start + 1), rows, repeat(True)))
        if id_rows is None:
            return
        if was_empty:
            self._columnar = ColumnarView(id_rows, table)  # type: ignore[arg-type]
            self._columnar_table = table
        elif self._columnar_table is table and self._columnar_generation == start:
            self._columnar = self._columnar.advanced(id_rows)  # type: ignore[union-attr]
        else:
            return  # no current view to advance; columnar() catches up from the log
        self._columnar_generation = self._generation

    def set_rows(self, rows: "Iterable[tuple[Path, ...]]") -> None:
        """Replace the entire contents with *rows* (used by incremental deltas).

        A wholesale rewrite is not diffed: the change log (if any) is voided
        up to the new generation, so :meth:`changes_since` over the rewrite
        reports "unknown" rather than a wrong delta.
        """
        self._rows = set(rows)
        self._generation += 1
        if self._log is not None:
            self._log.clear()
            self._log_floor = self._generation

    def clear(self) -> None:
        """Remove all rows."""
        if self._rows:
            self._rows = set()
            self._generation += 1
            if self._log is not None:
                self._log.clear()
                self._log_floor = self._generation

    # -- change log --------------------------------------------------------------------

    def watch(self) -> int:
        """Start logging row changes (idempotent) and return the current generation.

        The returned generation is the *mark* to later hand to
        :meth:`changes_since`.  Logging stays enabled for the lifetime of the
        relation; copies made with :meth:`copy` do not inherit it.
        """
        if self._log is None:
            self._log = []
            self._log_floor = self._generation
        return self._generation

    def _record(self, row: "tuple[Path, ...]", added: bool) -> None:
        self._log.append((self._generation, row, added))  # type: ignore[union-attr]
        if len(self._log) > self.LOG_LIMIT:  # type: ignore[arg-type]
            self._log.clear()  # type: ignore[union-attr]
            self._log_floor = self._generation

    def changes_since(self, generation: int) -> "tuple[frozenset, frozenset] | None":
        """Net ``(added, removed)`` row sets since *generation*, or ``None``.

        ``None`` means the log cannot answer (logging was not enabled at that
        generation, a wholesale rewrite happened, or the log overflowed) and
        the caller should fall back to a full diff or recomputation.  Because
        only *effective* mutations are logged, a row's operations since any
        mark strictly alternate, so its net change is determined by its first
        and last logged operation alone.
        """
        if generation == self._generation:
            return (EMPTY_ROWS, EMPTY_ROWS)
        if self._log is None or generation < self._log_floor:
            return None
        first: dict[tuple[Path, ...], bool] = {}
        last: dict[tuple[Path, ...], bool] = {}
        # Entries are appended in generation order: bisect to the mark.
        start = bisect_right(self._log, generation, key=itemgetter(0))
        for _, row, added in self._log[start:]:
            if row not in first:
                first[row] = added
            last[row] = added
        added_rows = frozenset(row for row, was_add in last.items() if was_add and first[row])
        removed_rows = frozenset(
            row for row, was_add in last.items() if not was_add and not first[row]
        )
        return (added_rows, removed_rows)

    # -- plain access ------------------------------------------------------------------

    @property
    def rows(self) -> set:
        """The live row set.  Callers must treat it as read-only."""
        return self._rows

    @property
    def generation(self) -> int:
        """A counter bumped on every mutation; stamps views and indexes."""
        return self._generation

    def arity(self) -> "int | None":
        """The arity of the stored rows, or ``None`` when empty."""
        if not self._rows:
            return None
        return len(next(iter(self._rows)))

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __iter__(self) -> Iterator:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"Relation({len(self._rows)} rows, generation {self._generation})"

    def copy(self) -> "Relation":
        """Return a copy sharing no mutable state (indexes and change log are not copied)."""
        return Relation(self._rows)

    # -- cached read views -------------------------------------------------------------

    def view(self) -> frozenset:
        """A frozen snapshot of the rows, cached until the next mutation.

        Because the snapshot is immutable, callers holding a view across later
        mutations keep a consistent picture of the relation as it was; callers
        re-reading between mutations get the same object back with no copy.
        """
        if self._view_generation != self._generation:
            self._view = frozenset(self._rows) if self._rows else EMPTY_ROWS
            self._view_generation = self._generation
        return self._view  # type: ignore[return-value]

    def unary_view(self, label: str = "relation") -> frozenset:
        """The cached set of paths of a unary relation (``row[0]`` of each row)."""
        if self._unary_view_generation != self._generation:
            paths = set()
            for row in self._rows:
                if len(row) != 1:
                    raise ModelError(f"relation {label!r} is not unary")
                paths.add(row[0])
            self._unary_view = frozenset(paths)
            self._unary_view_generation = self._generation
        return self._unary_view  # type: ignore[return-value]

    # -- lazy index ---------------------------------------------------------------------

    def rows_with_path(self, position: int, path: Path) -> "set | frozenset":
        """Rows whose argument at *position* equals the ground *path*."""
        if self._index_generation != self._generation:
            self._by_path = {}
            self._index_generation = self._generation
        index = self._by_path.get(position)
        if index is None:
            index = {}
            for row in self._rows:
                index.setdefault(row[position], set()).add(row)
            self._by_path[position] = index
        return index.get(path, EMPTY_ROWS)

    # -- columnar id-space view ----------------------------------------------------------

    def columnar(self, table: TermTable) -> ColumnarView:
        """The packed id-space view of the current generation, against *table*.

        Cached per ``(table, generation)``.  A stale view against the same
        table advances by the net delta the change log reports — rows added
        *and* rows removed (:meth:`ColumnarView.advanced`; :meth:`add_rows`
        advances the view itself) — so only the changed rows are interned and
        every grouping the old view had built is patched, not rebuilt.  A
        wholesale rewrite, a log overflow or a different term table rebuild
        the whole view, which is how a relation's terms first enter an
        instance's id space.  Building a view turns the change log on, so
        a long-lived relation — a maintained materialization — advances on
        every later generation bump.
        """
        if self._columnar_table is table and self._columnar_generation == self._generation:
            return self._columnar  # type: ignore[return-value]
        intern_row = table.intern_row
        changes = None
        if self._columnar is not None and self._columnar_table is table:
            changes = self.changes_since(self._columnar_generation)
        if changes is not None:
            added, removed = changes
            self._columnar = self._columnar.advanced(
                [intern_row(row) for row in added], [intern_row(row) for row in removed]
            )
        else:
            self.watch()
            self._columnar = ColumnarView([intern_row(row) for row in self._rows], table)
            self._columnar_table = table
        self._columnar_generation = self._generation
        return self._columnar
