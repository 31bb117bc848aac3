"""Valuations: ground assignments of variables (Section 2.3).

A valuation maps atomic variables to atomic values and path variables to
paths.  A valuation is *appropriate* for a syntactic construct if it is
defined on all of its variables; applying an appropriate valuation to a path
expression yields a path, and applying it to a predicate yields a fact.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import EvaluationError
from repro.model.instance import Fact
from repro.model.terms import Packed, Path, is_atomic_value
from repro.syntax.expressions import (
    AtomVariable,
    PackedExpression,
    PathExpression,
    PathVariable,
    Variable,
)
from repro.syntax.literals import Predicate

__all__ = ["Valuation"]


def _coerce_binding(variable: Variable, value: object) -> "str | Path":
    if isinstance(variable, AtomVariable):
        if isinstance(value, Path) and value.is_atomic():
            return value.elements[0]  # type: ignore[return-value]
        if is_atomic_value(value):
            return value  # type: ignore[return-value]
        raise EvaluationError(
            f"atomic variable {variable} can only be bound to an atomic value, got {value!r}"
        )
    if isinstance(value, Path):
        return value
    if is_atomic_value(value) or isinstance(value, Packed):
        return Path((value,))
    raise EvaluationError(f"path variable {variable} can only be bound to a path, got {value!r}")


class Valuation(Mapping[Variable, object]):
    """An immutable assignment of variables to atomic values / paths."""

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings: "Mapping[Variable, object] | Iterable[tuple[Variable, object]]" = ()):
        entries = dict(bindings)
        self._bindings: dict[Variable, object] = {
            variable: _coerce_binding(variable, value) for variable, value in entries.items()
        }
        self._hash: "int | None" = None

    @staticmethod
    def _from_trusted(bindings: "dict[Variable, object]") -> "Valuation":
        """Wrap an already-coerced binding dict without copying it (internal).

        Skips the per-binding coercion of ``__init__``; callers hand over
        ownership of a dict mapping atomic variables to atomic values and
        path variables to :class:`Path` objects.
        """
        valuation = Valuation.__new__(Valuation)
        valuation._bindings = bindings
        valuation._hash = None
        return valuation

    #: The empty valuation.
    EMPTY: "Valuation"

    # -- mapping protocol ---------------------------------------------------------------

    def __getitem__(self, variable: Variable) -> object:
        return self._bindings[variable]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __contains__(self, variable: object) -> bool:
        return variable in self._bindings

    @property
    def domain(self) -> frozenset[Variable]:
        """The variables this valuation is defined on."""
        return frozenset(self._bindings)

    def is_appropriate_for(self, variables: Iterable[Variable]) -> bool:
        """Return ``True`` if all *variables* are in the domain."""
        return set(variables) <= set(self._bindings)

    # -- extension ------------------------------------------------------------------------

    def bind(self, variable: Variable, value: object) -> "Valuation":
        """Return an extension binding *variable* to *value*.

        Raises :class:`EvaluationError` if the variable is already bound to a
        different value.
        """
        coerced = _coerce_binding(variable, value)
        existing = self._bindings.get(variable)
        if existing is not None:
            if existing != coerced:
                raise EvaluationError(
                    f"variable {variable} is already bound to {existing}, cannot rebind to {coerced}"
                )
            return self
        extended = dict(self._bindings)
        extended[variable] = coerced
        return Valuation._from_trusted(extended)

    def merge(self, other: "Valuation") -> "Valuation | None":
        """Return the union of two valuations, or ``None`` if they conflict."""
        merged = dict(self._bindings)
        for variable, value in other._bindings.items():
            existing = merged.get(variable)
            if existing is None:
                merged[variable] = value
            elif existing != value:
                return None
        return Valuation._from_trusted(merged)

    def restricted(self, variables: Iterable[Variable]) -> "Valuation":
        """Return the restriction of the valuation to *variables*."""
        wanted = set(variables)
        return Valuation._from_trusted(
            {v: value for v, value in self._bindings.items() if v in wanted}
        )

    # -- application ------------------------------------------------------------------------

    def path_of(self, variable: Variable) -> Path:
        """Return the binding of *variable*, as a path."""
        value = self._bindings.get(variable)
        if value is None:
            raise EvaluationError(f"valuation is not defined on {variable}")
        if isinstance(value, Path):
            return value
        return Path._from_trusted((value,))  # atomic value, identified with a length-one path

    def values_of(self, expression: PathExpression) -> tuple:
        """The elements of the path *expression* denotes (must be appropriate).

        Comparing two expressions only needs their element tuples; building
        (and hashing) a :class:`Path` is left to :meth:`apply_to_expression`.
        """
        bindings = self._bindings
        values: list[object] = []
        for item in expression.items:
            if isinstance(item, str):
                values.append(item)
            elif isinstance(item, PackedExpression):
                values.append(Packed(self.apply_to_expression(item.inner)))
            else:
                binding = bindings.get(item)
                if binding is None:
                    raise EvaluationError(f"valuation is not defined on {item}")
                if isinstance(item, PathVariable):
                    values.extend(binding._elements)  # type: ignore[union-attr]
                else:
                    values.append(binding)
        return tuple(values)

    def apply_to_expression(self, expression: PathExpression) -> Path:
        """Evaluate a path expression under this valuation (must be appropriate)."""
        items = expression.items
        if len(items) == 1 and isinstance(items[0], PathVariable):
            binding = self._bindings.get(items[0])
            if binding is None:
                raise EvaluationError(f"valuation is not defined on {items[0]}")
            return binding  # type: ignore[return-value]
        # Bindings were validated when they entered the valuation and the
        # constants when the expression was built: no re-validation here.
        return Path._from_trusted(self.values_of(expression))

    def apply_to_predicate(self, predicate: Predicate) -> Fact:
        """Evaluate a predicate to a fact under this valuation."""
        return Fact._from_trusted(
            predicate.name,
            tuple([self.apply_to_expression(component) for component in predicate.components]),
        )

    def can_evaluate(self, expression: PathExpression) -> bool:
        """Return ``True`` if all variables of *expression* are bound."""
        return expression.variables() <= self.domain

    # -- equality and rendering --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Valuation) and self._bindings == other._bindings

    def __hash__(self) -> int:
        # Lazy: the matcher builds one valuation per match and most are never
        # hashed (only the maintenance dedup sets do).
        if self._hash is None:
            self._hash = hash(frozenset(self._bindings.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{variable} ↦ {value}"
            for variable, value in sorted(
                self._bindings.items(), key=lambda pair: (pair[0].prefix, pair[0].name)
            )
        )
        return f"Valuation({{{inner}}})"


Valuation.EMPTY = Valuation()
