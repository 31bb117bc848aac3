"""Interned terms and columnar id-space views of relations.

The engine runs its joins (:mod:`repro.engine.compiled`) over dense integer
ids instead of :class:`~repro.model.terms.Path` objects.  Two pieces live
here:

* :class:`TermTable` — a per-instance interner mapping each distinct ``Path``
  to a dense integer id.  Ids are append-only and therefore stable for the
  lifetime of a session: copies and restrictions of an
  :class:`~repro.model.instance.Instance` share the table, so an id minted
  while evaluating one stratum keeps meaning the same path in every later
  fixpoint, maintenance round, or tabled goal over the same data.

* :class:`ColumnarView` — a packed, read-only view of one
  :class:`~repro.storage.relation.Relation` generation: one int array per
  argument position, the id-rows as tuples for random access, and the hash
  indexes the joins probe, as ``dict[int, array]`` groupings
  (``groups(position)`` maps the id at a position to the indexes of the rows
  carrying it; ``first_groups`` / ``last_groups`` key on the first / last
  element), all built on first use.  A relation caches one view per term
  table and brings it up to date by *advancing it by the net delta* pending
  since its last read (:meth:`ColumnarView.advanced`): rows added and rows
  removed patch the membership set and the columns the old view had built,
  and copies of its groupings, so a maintenance pass that changes a handful
  of rows of a large relation interns and regroups only those.  Only a
  wholesale rewrite or another term table packs a fresh view.  The old view
  keeps its rows and groupings, unmutated, so a published view answers
  :meth:`ColumnarView.select` on one thread while its relation advances on
  another (:mod:`repro.service.core`).

Ids never leak past the engine: the resident semi-naive loop
(:mod:`repro.engine.fixpoint`) keeps its deltas as id rows between rounds and
decodes each new row once, when it enters the relation; everything above
(counting/DRed maintenance, tabling) keeps trafficking in ordinary
:class:`~repro.model.instance.Fact` objects.
"""

from array import array
from itertools import count
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Mapping

from repro.model.terms import Packed, Path, as_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.terms import Value

__all__ = ["ColumnarView", "TermTable"]


class TermTable:
    """Dense, append-only interner of :class:`Path` values.

    ``intern`` assigns the next free id to an unseen path and returns the
    existing id otherwise; ids index directly into :attr:`paths` for O(1)
    decoding.  A parallel byte array records whether each interned path is a
    single atomic value, so compiled atom-variable slots can test
    "matches ``@x``" with one array lookup instead of re-inspecting the path.
    """

    __slots__ = (
        "_paths",
        "_ids",
        "_atomic",
        "_elements",
        "_element_ids",
        "_concat",
        "_splices",
        "_packs",
    )

    def __init__(self, paths: "Iterable[Path | Value]" = ()):
        self._paths: list[Path] = []
        self._ids: dict[Path, int] = {}
        self._atomic = array("b")
        # Caches for the id-space sequence operations (all append-only):
        # per-id element decomposition (plus a raw-element shortcut that
        # skips Path construction for already-seen atoms/packed values),
        # concatenation, and slicing.
        self._elements: dict[int, tuple] = {}
        self._element_ids: dict = {}
        self._concat: dict[tuple, int] = {}
        self._splices: dict[tuple, int] = {}
        self._packs: dict[int, int] = {}
        for path in paths:
            self.intern(as_path(path))

    def intern(self, path: Path) -> int:
        """Return the dense id of *path*, assigning the next id if unseen."""
        ident = self._ids.get(path)
        if ident is None:
            ident = len(self._paths)
            self._ids[path] = ident
            self._paths.append(path)
            self._atomic.append(1 if path.is_atomic() else 0)
        return ident

    def intern_row(self, row: tuple) -> tuple:
        """Intern every path of one stored row into an id tuple."""
        ids = self._ids
        out = []
        for path in row:
            ident = ids.get(path)
            if ident is None:
                ident = self.intern(path)
            out.append(ident)
        return tuple(out)

    def id_of(self, path: Path) -> "int | None":
        """Return the id of *path* without interning, or ``None`` if unseen."""
        return self._ids.get(path)

    def path(self, ident: int) -> Path:
        """Decode one id back to its path."""
        return self._paths[ident]

    def decode_rows(self, id_rows: "Iterable[tuple]") -> "list[tuple]":
        """Decode id rows (all of one arity) back to path rows, in order."""
        decode = self._paths.__getitem__
        # Column by column: one C-level map per position instead of one
        # tuple(...) call per row.
        columns = [map(decode, column) for column in zip(*id_rows)]
        return list(zip(*columns)) if columns else [() for _ in id_rows]

    def is_atomic(self, ident: int) -> bool:
        """Whether id *ident* names a single atomic value (an ``@x`` match)."""
        return bool(self._atomic[ident])

    # -- id-space sequence operations ---------------------------------------------------
    #
    # Sequence Datalog destructures and concatenates paths; the compiled tier
    # does both in id space.  Each operation interns the paths it produces,
    # so results are themselves ids, and each is memoised — the same path is
    # decomposed (or the same parts concatenated) at most once per table.

    def elements(self, ident: int) -> tuple:
        """Ids of the single-element sub-paths of *ident*, in order.

        Each element of the path (an atom or a packed value) is interned as
        its own length-1 path; an atom's element id therefore has the atomic
        flag set while a packed value's does not — exactly the distinction a
        lone ``@x`` needs.
        """
        cached = self._elements.get(ident)
        if cached is None:
            values = self._paths[ident].elements
            try:  # every value seen before: the common case, no call per value
                cached = tuple([self._element_ids[value] for value in values])
            except KeyError:
                cached = tuple(map(self.element, values))
            self._elements[ident] = cached
        return cached

    def element(self, value: "Value") -> int:
        """The id of the length-one path holding *value* (an atom or a packed value)."""
        eid = self._element_ids.get(value)
        if eid is None:
            eid = self._element_ids[value] = self.intern(Path._from_trusted((value,)))
        return eid

    def pack(self, ident: int) -> int:
        """The id of ``⟨p⟩`` as a length-one path, for the path *p* named by *ident*."""
        cached = self._packs.get(ident)
        if cached is None:
            cached = self._packs[ident] = self.element(Packed(self._paths[ident]))
        return cached

    def concat(self, parts: tuple) -> int:
        """The id of the concatenation of the paths named by *parts*."""
        cached = self._concat.get(parts)
        if cached is None:
            elements: list = []
            paths = self._paths
            for ident in parts:
                elements.extend(paths[ident].elements)
            cached = self.intern(Path._from_trusted(tuple(elements)))
            self._concat[parts] = cached
        return cached

    def splice(self, ident: int, start: int, from_end: int) -> int:
        """The id of ``path[start : len(path) - from_end]`` for path *ident*."""
        key = (ident, start, from_end)
        cached = self._splices.get(key)
        if cached is None:
            elements = self._paths[ident].elements
            cached = self.intern(
                Path._from_trusted(elements[start : len(elements) - from_end])
            )
            self._splices[key] = cached
        return cached

    @property
    def atomic_flags(self) -> array:
        """The raw per-id atomic flags, for hot loops."""
        return self._atomic

    @property
    def paths(self) -> list[Path]:
        """The id-ordered list of interned paths (do not mutate)."""
        return self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self._paths)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TermTable({len(self._paths)} terms)"


def _group_into(grouped: dict, pairs: "Iterable[tuple[int, int]]") -> dict:
    """*grouped*, each value of *pairs* appended to the ``array('q')`` bucket of its key;
    a bucket it held is replaced by an extended copy, not extended in place."""
    added: dict = {}
    for key, value in pairs:
        bucket = added.get(key)
        if bucket is None:
            added[key] = bucket = array("q")
        bucket.append(value)
    for key, bucket in added.items():
        old = grouped.get(key)
        grouped[key] = bucket if old is None else old + bucket
    return grouped


def _copied(groupings: dict) -> dict:
    """A shallow copy of each grouping of *groupings*: the buckets are shared."""
    return {key: dict(grouped) for key, grouped in groupings.items()}


class ColumnarView:
    """Packed id-space snapshot of one relation generation.

    Holds the relation's rows as id tuples against *table* — row-wise
    (:attr:`id_rows`, for candidate checks) and, on demand, column-wise
    (:meth:`column`, one ``array('q')`` per argument position).
    :meth:`groups` materialises the id-space hash index for one position on
    first use; :attr:`id_row_set` does the same for membership tests
    (negation, fully bound join steps, the fixpoint's known-row
    subtraction).  Instances are snapshots — when its generation changes the
    owning relation swaps in the view :meth:`advanced` by the net delta,
    which takes the membership set and the columns with it and copies the
    groupings, so this view keeps answering :meth:`select` for its rows.
    """

    __slots__ = (
        "table",
        "id_rows",
        "_columns",
        "_decomposed",
        "_groups",
        "_first_groups",
        "_last_groups",
        "_element_joins",
        "_row_set",
        "_index",
        "answers",
    )

    def __init__(self, id_rows: "list[tuple]", table: TermTable):
        self.table = table
        self.id_rows = id_rows
        #: Encoded answers to reads of these rows, by binding
        #: (:func:`repro.io.serialization.memoised_answer`); never reset,
        #: since the rows never change: a change of rows makes a new view.
        self.answers: dict = {}
        # Nothing but the rows: every structure below builds on first use.
        self._columns: "dict[int, array]" = {}
        self._decomposed: "dict[int, list]" = {}
        self._groups: "dict[int, dict]" = {}
        self._first_groups: "dict[int, dict]" = {}
        self._last_groups: "dict[int, dict]" = {}
        self._element_joins: "dict[tuple, dict]" = {}
        self._row_set: "set | None" = None
        #: row → its index in :attr:`id_rows`; built by the first removal.
        self._index: "dict[tuple, int] | None" = None

    def __len__(self) -> int:
        return len(self.id_rows)

    def advanced(
        self, added: "list[tuple]", removed: "Collection[tuple]" = ()
    ) -> "ColumnarView":
        """The view one net delta on: this view's rows minus *removed* plus *added*.

        The generation-advance path, in both directions: a maintenance pass
        or a semi-naive round changes a handful of rows of a large relation,
        and rebuilding the view would re-intern and regroup every unchanged
        row.  *added* must be disjoint from the rows held and *removed* a
        subset of them (callers advance by a net delta).  The membership set
        and the columns *move* to the new view and are patched; each grouping
        is copied and the buckets the delta touches are replaced, so this
        view keeps its rows and groupings unmutated.  Advancing costs one copy
        of the row list and of each grouping's key map plus work proportional
        to the delta.
        """
        view = ColumnarView(self.id_rows.copy(), self.table)
        view._columns, view._decomposed = self._columns, self._decomposed
        view._row_set, view._index = self._row_set, self._index
        self._columns, self._decomposed, self._row_set, self._index = {}, {}, None, None
        view._groups = _copied(self._groups)
        if removed:
            # Swap-removal moves rows: the whole-argument groupings are
            # patched row by row, the element-level ones rebuild on first use.
            for row in removed:
                view._remove(row)
            if not view.id_rows:  # emptied: the rows that follow may have another arity
                view = ColumnarView([], self.table)
        else:
            view._first_groups = _copied(self._first_groups)
            view._last_groups = _copied(self._last_groups)
            view._element_joins = _copied(self._element_joins)
        if added:
            view._extend(added)
        return view

    def _extend(self, added: "list[tuple]") -> None:
        """Append the rows *added* and bring every built structure up to them."""
        start = len(self.id_rows)
        self.id_rows.extend(added)
        if self._row_set is not None:
            self._row_set.update(added)
        if self._index is not None:
            self._index.update(zip(added, count(start)))
        for position, column in self._columns.items():
            column.extend([row[position] for row in added])
        elements = self.table.elements
        for position, decomposed in self._decomposed.items():
            decomposed.extend([elements(row[position]) for row in added])
        for position, grouped in self._groups.items():
            _group_into(grouped, self._whole_pairs(position, start))
        for position, grouped in self._first_groups.items():
            _group_into(grouped, self._element_pairs(position, 0, start))
        for position, grouped in self._last_groups.items():
            _group_into(grouped, self._element_pairs(position, -1, start))
        for key, grouped in self._element_joins.items():
            _group_into(grouped, self._join_pairs(*key, start))

    def _remove(self, row: tuple) -> None:
        """Drop the held *row*; the last row takes over its index.

        The swap keeps row indexes dense, so columns are patched in place and
        the whole-argument groupings by replacing the (at most two) buckets
        that change (the caller has dropped the element-level groupings).
        """
        id_rows = self.id_rows
        index = self._index
        if index is None:
            index = self._index = dict(zip(id_rows, count()))
        at = index.pop(row)
        last = len(id_rows) - 1
        moved = id_rows.pop()
        if at != last:
            id_rows[at] = moved
            index[moved] = at
        if self._row_set is not None:
            self._row_set.discard(row)
        for parallel in (*self._columns.values(), *self._decomposed.values()):
            tail = parallel.pop()
            if at != last:
                parallel[at] = tail
        for position, grouped in self._groups.items():
            bucket = grouped[row[position]][:]
            bucket.remove(at)
            if bucket:
                grouped[row[position]] = bucket
            else:
                del grouped[row[position]]
            if at != last:
                bucket = grouped[moved[position]][:]
                bucket[bucket.index(last)] = at
                grouped[moved[position]] = bucket

    def column(self, position: int) -> array:
        """The packed int array of ids at *position*, one entry per row."""
        col = self._columns.get(position)
        if col is None:
            col = array("q", (row[position] for row in self.id_rows))
            self._columns[position] = col
        return col

    def decomposed(self, position: int) -> list:
        """Per-row element-id tuples for the path at *position*.

        Parallel to :attr:`id_rows`; entry *i* is ``table.elements`` of row
        *i*'s id at the position.  Built once per view so hot candidate loops
        index a list instead of re-probing the table's memo dict per row.
        """
        decomposed = self._decomposed.get(position)
        if decomposed is None:
            elements = self.table.elements
            decomposed = [elements(ident) for ident in self.column(position)]
            self._decomposed[position] = decomposed
        return decomposed

    # Each grouping is filled from ``(key, value)`` pairs over the rows from
    # index *start* on: 0 when it is first built, the old row count when
    # :meth:`_extend` patches it.

    def _whole_pairs(self, position: int, start: int):
        return zip(self.column(position)[start:], count(start))

    def _element_pairs(self, position: int, end: int, start: int):
        for index, parts in enumerate(self.decomposed(position)[start:], start):
            if parts:
                yield parts[end], index

    def _join_pairs(self, position: int, length: int, key_index: int, emit_index: int, start: int):
        atomic = self.table.atomic_flags
        for parts in self.decomposed(position)[start:]:
            if len(parts) == length and atomic[parts[emit_index]]:
                yield parts[key_index], parts[emit_index]

    def groups(self, position: int) -> dict:
        """Id-space hash index: id at *position* → array of row indexes."""
        grouped = self._groups.get(position)
        if grouped is None:
            grouped = self._groups[position] = _group_into({}, self._whole_pairs(position, 0))
        return grouped

    def select(self, binding: "Mapping[int, Path]") -> "list[tuple]":
        """The rows matching *binding* (position → path), decoded; all rows when unbound.

        A value the term table has never seen matches nothing; otherwise the
        smallest :meth:`groups` bucket of a bound position is checked in id
        space at the other positions.  With those groupings built it builds
        nothing, so a published view is read while its relation advances.
        """
        table = self.table
        if not binding or not self.id_rows:
            return table.decode_rows(self.id_rows)
        ids = {position: table.id_of(value) for position, value in binding.items()}
        if None in ids.values():
            return []
        bucket = min((self.groups(p).get(ident, ()) for p, ident in ids.items()), key=len)
        return table.decode_rows(
            [
                row
                for row in map(self.id_rows.__getitem__, bucket)
                if all(row[p] == ident for p, ident in ids.items())
            ]
        )

    def first_groups(self, position: int) -> dict:
        """Group rows by the *first element* id of the path at *position*.

        Rows whose path at the position is ε are in no bucket.  Keys are element ids (length-1
        paths), so atoms and packed values each get their own bucket.
        """
        grouped = self._first_groups.get(position)
        if grouped is None:
            grouped = self._first_groups[position] = {}
            _group_into(grouped, self._element_pairs(position, 0, 0))
        return grouped

    def last_groups(self, position: int) -> dict:
        """Group rows by the *last element* id of the path at *position*."""
        grouped = self._last_groups.get(position)
        if grouped is None:
            grouped = self._last_groups[position] = {}
            _group_into(grouped, self._element_pairs(position, -1, 0))
        return grouped

    def element_join_groups(
        self, position: int, length: int, key_index: int, emit_index: int
    ) -> dict:
        """Prejoined element index for the two-atom destructure pattern.

        Maps the element id at *key_index* to the ``array('q')`` of element
        ids at *emit_index*, over exactly the rows whose path at *position*
        has exactly *length* elements and whose emitted element is atomic.
        Length and atomicity are checked once at build time, so the inner
        loop of a compiled sequence join (probe one element, emit another —
        the unary-reachability shape) degenerates to one dict lookup and an
        array extend per probe.
        """
        key = (position, length, key_index, emit_index)
        grouped = self._element_joins.get(key)
        if grouped is None:
            grouped = self._element_joins[key] = {}
            _group_into(grouped, self._join_pairs(*key, 0))
        return grouped

    @property
    def id_row_set(self) -> set:
        """The id rows as a set, for membership tests (treat as read-only)."""
        rows = self._row_set
        if rows is None:
            rows = self._row_set = set(self.id_rows)
        return rows
