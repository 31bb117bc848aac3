"""A single stored relation: a row set and its cached read views.

The evaluation semantics of the paper (Section 2.3) only ever needs set
membership and iteration, and the seed implementation provided exactly that —
at the price of re-allocating a fresh ``frozenset`` on every read.
:class:`Relation` keeps the same extensional contract while adding what the
layers above it read:

* a **generation counter**, bumped on every mutation, which stamps all derived
  structures so they can be invalidated lazily instead of eagerly;
* a cached **read view** (:meth:`view`): repeated reads between mutations
  return the *same* ``frozenset`` object, so hot loops pay for one snapshot
  per generation instead of one per call.

The relation's **columnar view** (:meth:`columnar`, the id-space form the
engine joins over) moves one way: a batch given with its id rows against the
view's term table (:meth:`add_rows`, :meth:`discard_rows`) advances it in
step, so a row that entered or left in id space is never re-interned.  Every
other mutation — a single :meth:`add` or :meth:`discard`, a batch without id
rows or against another table, a wholesale rewrite — drops the view, and the
next read rebuilds it.  A view handed out stays as it was, which is how
maintenance reads a relation's old state (the view itself, a read-only
id-row source).  Relations are shared, not copied, between the fixpoints of
one session (:meth:`repro.model.instance.Instance.shared_copy`), so one
advance serves every reader.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import ModelError
from repro.model.terms import Path
from repro.storage.columnar import ColumnarView, TermTable

__all__ = ["EMPTY_ROWS", "Relation"]

#: The canonical empty row set, shared by all misses so lookups allocate nothing.
EMPTY_ROWS: frozenset[tuple[Path, ...]] = frozenset()

Row = "tuple[Path, ...]"


class Relation:
    """Rows of one relation, with cached read views."""

    __slots__ = (
        "_rows",
        "_generation",
        "_view",
        "_view_generation",
        "_columnar",
        "_columnar_table",
    )

    def __init__(self, rows: "Iterable[tuple[Path, ...]] | None" = None):
        self._rows: set[tuple[Path, ...]] = set(rows) if rows is not None else set()
        self._generation = 0
        self._view: frozenset[tuple[Path, ...]] | None = None
        self._view_generation = -1
        self._columnar: "ColumnarView | None" = None
        self._columnar_table: "TermTable | None" = None

    # -- mutation ----------------------------------------------------------------------

    def add(self, row: "tuple[Path, ...]") -> bool:
        """Insert *row*; return ``True`` if it was not present before."""
        before = len(self._rows)
        self._rows.add(row)
        if len(self._rows) != before:
            self._generation += 1
            self._drop_columnar()
            return True
        return False

    def discard(self, row: "tuple[Path, ...]") -> bool:
        """Remove *row* if present; return ``True`` if it was removed."""
        before = len(self._rows)
        self._rows.discard(row)
        if len(self._rows) != before:
            self._generation += 1
            self._drop_columnar()
            return True
        return False

    def add_rows(
        self,
        rows: "set[tuple[Path, ...]]",
        id_rows: "list[tuple] | None" = None,
        table: "TermTable | None" = None,
    ) -> None:
        """Insert the batch *rows*, none of which is present, as one mutation.

        *id_rows*, the same rows as id tuples against *table*, advance the
        columnar view cached against *table* in step — or found it, when the
        relation was empty — so the resident fixpoint never re-interns what
        it derived in id space.  Otherwise the cached view is dropped.
        """
        before = len(self._rows)
        self._rows |= rows
        if len(self._rows) != before + len(rows):
            raise ModelError("add_rows takes only rows the relation does not hold")
        self._generation += 1
        if id_rows is not None and not before:
            self._columnar = ColumnarView(id_rows, table)  # type: ignore[arg-type]
            self._columnar_table = table
        elif id_rows is not None and self._columnar_table is table:
            self._columnar = self._columnar.advanced(id_rows)  # type: ignore[union-attr]
        else:
            self._drop_columnar()

    def discard_rows(
        self, rows: "set[tuple[Path, ...]]", id_rows: "list[tuple]", table: TermTable
    ) -> None:
        """Remove the batch *rows*, all of them present, as one mutation.

        The mirror of :meth:`add_rows`: *id_rows*, the same rows as id tuples
        against *table*, advance the columnar view cached against *table* in
        step, so a row leaves without being re-interned.  Otherwise the
        cached view is dropped.
        """
        before = len(self._rows)
        self._rows -= rows
        if len(self._rows) != before - len(rows):
            raise ModelError("discard_rows takes only rows the relation holds")
        self._generation += 1
        if self._columnar_table is table:
            self._columnar = self._columnar.advanced([], id_rows)  # type: ignore[union-attr]
        else:
            self._drop_columnar()

    def set_rows(self, rows: "Iterable[tuple[Path, ...]]") -> None:
        """Replace the entire contents with *rows* (used by incremental deltas).

        A wholesale rewrite is not diffed: the columnar view is dropped and
        the next read rebuilds it.
        """
        self._rows = set(rows)
        self._generation += 1
        self._drop_columnar()

    def clear(self) -> None:
        """Remove all rows."""
        if self._rows:
            self._rows = set()
            self._generation += 1
            self._drop_columnar()

    def _drop_columnar(self) -> None:
        self._columnar = None
        self._columnar_table = None

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
        """A copy of the rows; no view is shared or copied."""
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

    # -- columnar id-space view ----------------------------------------------------------

    def columnar(self, table: TermTable) -> ColumnarView:
        """The packed id-space view of the current rows, against *table*.

        A view cached against *table* is current (every mutation either
        advanced it or dropped it) and is returned as it is.  Otherwise the
        whole view is built, which is how a relation's terms first enter an
        instance's id space.
        """
        if self._columnar_table is not table:
            self._columnar = ColumnarView([table.intern_row(row) for row in self._rows], table)
            self._columnar_table = table
        return self._columnar  # type: ignore[return-value]
