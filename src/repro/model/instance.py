"""Facts and instances (Section 2.1 and 2.3).

An *instance* of a schema assigns to each relation name a finite relation on
paths.  Equivalently (and this is the view used by the semantics in Section
2.3), an instance is a finite set of *facts* ``R(p1, ..., pn)`` where each
``pi`` is a path.

Relations are stored as :class:`repro.storage.Relation` objects, which carry
cached read views and lazy secondary indexes; :meth:`Instance.relation` and
:meth:`Instance.paths` therefore return the *same* frozen snapshot on repeated
calls between mutations instead of allocating a fresh copy per call, and the
evaluation engine reaches the indexes through :meth:`Instance.storage`.
Extensional equality (same set of facts) is unchanged.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import ModelError
from repro.model.schema import Schema
from repro.model.terms import Path, Value, as_path
from repro.storage import EMPTY_ROWS, Relation, TermTable

__all__ = ["Fact", "Instance"]


class Fact:
    """A fact ``R(p1, ..., pn)``: a relation name applied to a tuple of paths."""

    __slots__ = ("_relation", "_paths", "_hash")

    def __init__(self, relation: str, paths: Iterable["Path | Value"] = ()):
        if not isinstance(relation, str) or not relation:
            raise ModelError(f"relation names must be non-empty strings, got {relation!r}")
        self._relation = relation
        self._paths = tuple(as_path(path) for path in paths)
        self._hash = hash((relation, self._paths))

    @staticmethod
    def _from_trusted(relation: str, paths: "tuple[Path, ...]") -> "Fact":
        """Build a fact from an already-validated path tuple (internal).

        Skips the argument coercion of ``__init__``; callers must pass a
        non-empty relation name and a tuple of :class:`Path` objects.
        """
        fact = Fact.__new__(Fact)
        fact._relation = relation
        fact._paths = paths
        fact._hash = hash((relation, paths))
        return fact

    @property
    def relation(self) -> str:
        """The relation name of this fact."""
        return self._relation

    @property
    def paths(self) -> tuple[Path, ...]:
        """The argument paths of this fact."""
        return self._paths

    @property
    def arity(self) -> int:
        """The number of arguments of this fact."""
        return len(self._paths)

    def is_flat(self) -> bool:
        """Return ``True`` if none of the argument paths contains packing."""
        return all(path.is_flat() for path in self._paths)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Fact)
            and self._relation == other._relation
            and self._paths == other._paths
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Fact({self._relation!r}, {list(self._paths)!r})"

    def __str__(self) -> str:
        if not self._paths:
            return self._relation
        return f"{self._relation}({', '.join(str(path) for path in self._paths)})"


class Instance:
    """A finite set of facts, organised per relation name.

    The class behaves like a mutable database: facts can be added and the
    relations inspected.  Equality is extensional (same set of facts).
    """

    __slots__ = ("_relations", "_terms")

    def __init__(self, facts: "Iterable[Fact] | Mapping[str, Iterable[tuple]] | None" = None):
        self._relations: dict[str, Relation] = {}
        self._terms: "TermTable | None" = None
        if facts is None:
            return
        if isinstance(facts, Mapping):
            for relation, tuples in facts.items():
                for row in tuples:
                    self.add(relation, *_as_row(row))
        else:
            for fact in facts:
                self.add_fact(fact)

    # -- construction -------------------------------------------------------------

    @staticmethod
    def from_paths(relation: str, paths: Iterable["Path | Value"]) -> "Instance":
        """Build a unary instance holding *paths* in relation *relation*."""
        instance = Instance()
        for path in paths:
            instance.add(relation, path)
        return instance

    def add_fact(self, fact: Fact) -> None:
        """Insert *fact* into the instance (idempotent)."""
        relation = self._relations.get(fact.relation)
        if relation is None:
            relation = self._relations[fact.relation] = Relation()
        else:
            existing = relation.arity()
            if existing is not None and existing != fact.arity:
                raise ModelError(
                    f"relation {fact.relation!r} already holds tuples of arity {existing}; "
                    f"cannot add a tuple of arity {fact.arity}"
                )
        relation.add(fact.paths)

    def add(self, relation: str, *paths: "Path | Value") -> None:
        """Insert the fact ``relation(paths...)`` into the instance."""
        self.add_fact(Fact(relation, paths))

    def add_rows(
        self,
        relation: str,
        rows: "set[tuple[Path, ...]]",
        id_rows: "list[tuple] | None" = None,
    ) -> None:
        """Insert a non-empty batch of rows, none of them present, into *relation*.

        What :meth:`add_fact` does per fact — the arity check and the
        generation step — in one call (see :meth:`Relation.add_rows`).
        *id_rows* are the same rows as id tuples of :meth:`term_table`.
        """
        stored = self._relations.get(relation)
        if stored is None:
            stored = self._relations[relation] = Relation()
        existing = stored.arity()
        if existing is None:
            existing = len(next(iter(rows)))
        wrong = set(map(len, rows)) - {existing}
        if wrong:
            raise ModelError(
                f"relation {relation!r} already holds tuples of arity {existing}; "
                f"cannot add a tuple of arity {min(wrong)}"
            )
        stored.add_rows(rows, id_rows, self._terms)

    def discard_fact(self, fact: Fact, *, keep_empty: bool = False) -> None:
        """Remove *fact* if present.

        By default a relation whose last row is removed disappears from the
        instance entirely; ``keep_empty=True`` keeps it present (but empty),
        with its storage object.
        """
        relation = self._relations.get(fact.relation)
        if relation is not None:
            relation.discard(fact.paths)
            if not relation and not keep_empty:
                del self._relations[fact.relation]

    def ensure_relation(self, relation: str) -> None:
        """Make *relation* present (possibly empty) in this instance."""
        if relation not in self._relations:
            self._relations[relation] = Relation()

    def set_relation_rows(self, name: str, rows: "Iterable[tuple[Path, ...]]") -> None:
        """Create or wholesale-replace the rows of relation *name*.

        Rows are taken as-is (no per-fact validation), for rows already
        validated: a decoded query output or a relation read back from a
        snapshot.
        """
        relation = self._relations.get(name)
        if relation is None:
            self._relations[name] = Relation(rows)
        else:
            relation.set_rows(rows)

    # -- access --------------------------------------------------------------------

    @property
    def relation_names(self) -> frozenset[str]:
        """The relation names that occur in this instance."""
        return frozenset(self._relations)

    def relation(self, name: str) -> frozenset[tuple[Path, ...]]:
        """Return the set of tuples stored for relation *name* (empty if absent).

        The returned frozenset is a cached snapshot: repeated calls between
        mutations return the same object (no per-call copy).
        """
        relation = self._relations.get(name)
        if relation is None:
            return EMPTY_ROWS
        return relation.view()

    def paths(self, name: str) -> frozenset[Path]:
        """Return the set of paths of a unary relation *name* (empty if absent)."""
        relation = self._relations.get(name)
        if relation is None:
            return frozenset()
        try:
            return frozenset(path for (path,) in relation.view())
        except ValueError:
            raise ModelError(f"relation {name!r} is not unary") from None

    def storage(self, name: str) -> "Relation | None":
        """Return the :class:`~repro.storage.Relation` storing *name*, if present."""
        return self._relations.get(name)

    def term_table(self) -> TermTable:
        """The instance's lazily-created path interner (the id space joins run in).

        Created on first use; :meth:`copy`/:meth:`restricted` clones made
        afterwards share it, and :meth:`shared_copy` creates it first, so ids
        stay stable across the working instances a session derives from the
        same data.
        """
        table = self._terms
        if table is None:
            table = self._terms = TermTable()
        return table

    def contains(self, relation: str, *paths: "Path | Value") -> bool:
        """Return ``True`` if the fact ``relation(paths...)`` is in the instance."""
        row = tuple(as_path(path) for path in paths)
        stored = self._relations.get(relation)
        return stored is not None and row in stored

    def facts(self) -> Iterator[Fact]:
        """Iterate over all facts in the instance."""
        for relation, stored in self._relations.items():
            for row in stored.rows:
                yield Fact(relation, row)

    def arity_of(self, relation: str) -> int | None:
        """Return the arity of *relation* in this instance, or ``None`` if empty."""
        stored = self._relations.get(relation)
        if stored is None:
            return None
        return stored.arity()

    def fact_count(self) -> int:
        """Return the total number of facts."""
        return sum(len(stored) for stored in self._relations.values())

    def __len__(self) -> int:
        return self.fact_count()

    def __bool__(self) -> bool:
        return any(self._relations.values())

    def __contains__(self, fact: object) -> bool:
        if not isinstance(fact, Fact):
            return False
        stored = self._relations.get(fact.relation)
        return stored is not None and fact.paths in stored

    # -- predicates -------------------------------------------------------------------

    def is_flat(self) -> bool:
        """Return ``True`` if no packed value occurs anywhere in the instance."""
        return all(
            path.is_flat()
            for stored in self._relations.values()
            for row in stored.rows
            for path in row
        )

    def is_classical(self) -> bool:
        """Return ``True`` if every argument path is a single atomic value."""
        return all(
            path.is_atomic()
            for stored in self._relations.values()
            for row in stored.rows
            for path in row
        )

    def schema(self) -> Schema:
        """Return the schema induced by this instance (arities of present relations)."""
        arities = {}
        for relation, stored in self._relations.items():
            arities[relation] = stored.arity() or 0
        return Schema(arities)

    def max_path_length(self) -> int:
        """Return the maximal length of a path in the instance (0 if empty)."""
        return max((len(path) for fact in self.facts() for path in fact.paths), default=0)

    def atoms(self) -> frozenset[str]:
        """Return all atomic values occurring (at any depth) in the instance."""
        found: set[str] = set()
        for fact in self.facts():
            for path in fact.paths:
                found.update(path.atoms())
        return frozenset(found)

    # -- algebraic combinations ---------------------------------------------------------

    def copy(self) -> "Instance":
        """Return a deep-enough copy (facts are immutable, so row sets are copied).

        The term table is *shared*, not copied: it is append-only, so ids
        minted while evaluating the copy stay valid for the original (and
        vice versa).  No columnar view is: the copy builds its own on first
        read.
        """
        clone = Instance()
        clone._relations = {name: stored.copy() for name, stored in self._relations.items()}
        clone._terms = self._terms
        return clone

    def shared_copy(self, copied: Iterable[str]) -> "Instance":
        """A new instance over this one's relations, of which only *copied* are copied.

        Every other relation is the *same* :class:`~repro.storage.Relation`
        object in both instances: a change to it through either is seen by
        both, and so is its columnar view.  A relation named in *copied* is
        the new instance's own, and one absent here is created there when
        first written.  The term table is created here if needed and shared,
        so every instance derived this way joins in one id space.
        """
        copied = set(copied)
        clone = Instance()
        clone._relations = {
            name: stored.copy() if name in copied else stored
            for name, stored in self._relations.items()
        }
        clone._terms = self.term_table()
        return clone

    def restricted(self, names: Iterable[str]) -> "Instance":
        """Return the sub-instance containing only the relations in *names*."""
        wanted = set(names)
        clone = Instance()
        clone._relations = {
            name: stored.copy() for name, stored in self._relations.items() if name in wanted
        }
        clone._terms = self._terms
        return clone

    def union(self, other: "Instance") -> "Instance":
        """Return the fact-wise union of the two instances."""
        result = self.copy()
        for fact in other.facts():
            result.add_fact(fact)
        return result

    def update(self, other: "Instance") -> None:
        """Add all facts of *other* into this instance."""
        for fact in other.facts():
            self.add_fact(fact)

    def renamed(self, mapping: Mapping[str, str]) -> "Instance":
        """Return a copy with relation names renamed according to *mapping*."""
        clone = Instance()
        for fact in self.facts():
            clone.add(mapping.get(fact.relation, fact.relation), *fact.paths)
        return clone

    # -- equality and representation -----------------------------------------------------

    def _canonical(self) -> frozenset[Fact]:
        return frozenset(self.facts())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Instance) and self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        return f"Instance({sorted(str(fact) for fact in self.facts())})"

    def __str__(self) -> str:
        lines = sorted(str(fact) + "." for fact in self.facts())
        return "\n".join(lines)


def _as_row(row: object) -> tuple:
    """Interpret *row* as a tuple of path-like arguments."""
    if isinstance(row, tuple):
        return row
    if isinstance(row, (Path, str)):
        return (row,)
    if isinstance(row, list):
        return tuple(row)
    return (row,)
