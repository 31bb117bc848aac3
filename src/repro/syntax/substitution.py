"""Variable substitutions: partial maps from variables to path expressions.

Substitutions are used throughout the library:

* by the associative unification engine (Section 4.3.1), whose symbolic
  solutions are substitutions;
* by the program transformations of Section 4, which rewrite rules by
  substituting expressions for variables;
* by the folding transformation (Theorem 4.16), which unifies calling
  predicates with intermediate head predicates.

Applying a substitution to an atomic variable must produce either an atomic
variable or a single atomic constant (atomic variables range over atomic
values only); applying one to a path variable may produce any expression.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import SyntaxSemanticError
from repro.syntax.expressions import (
    AtomVariable,
    Item,
    PackedExpression,
    PathExpression,
    PathVariable,
    Variable,
)

__all__ = ["Substitution"]


def _coerce_image(variable: Variable, image: object) -> PathExpression:
    expression = image if isinstance(image, PathExpression) else PathExpression.of(image)
    if isinstance(variable, AtomVariable):
        if len(expression.items) != 1:
            raise SyntaxSemanticError(
                f"atomic variable {variable} can only be mapped to a single atomic "
                f"constant or atomic variable, got {expression}"
            )
        item = expression.items[0]
        if not (isinstance(item, (str, AtomVariable))):
            raise SyntaxSemanticError(
                f"atomic variable {variable} can only be mapped to an atomic constant "
                f"or atomic variable, got {expression}"
            )
    return expression


class Substitution(Mapping[Variable, PathExpression]):
    """An immutable partial function from variables to path expressions."""

    __slots__ = ("_mapping", "_hash")

    def __init__(self, mapping: "Mapping[Variable, object] | Iterable[tuple[Variable, object]]" = ()):
        entries = dict(mapping)
        coerced: dict[Variable, PathExpression] = {}
        for variable, image in entries.items():
            if not isinstance(variable, Variable):
                raise SyntaxSemanticError(f"substitution keys must be variables, got {variable!r}")
            coerced[variable] = _coerce_image(variable, image)
        self._mapping = coerced
        self._hash = hash(frozenset(self._mapping.items()))

    # -- mapping protocol -------------------------------------------------------------

    def __getitem__(self, variable: Variable) -> PathExpression:
        return self._mapping[variable]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    def __contains__(self, variable: object) -> bool:
        return variable in self._mapping

    @property
    def domain(self) -> frozenset[Variable]:
        """The set of variables this substitution is defined on."""
        return frozenset(self._mapping)

    # -- application ------------------------------------------------------------------

    def apply_to_expression(self, expression: PathExpression) -> PathExpression:
        """Return *expression* with every occurrence of a mapped variable replaced."""
        items: list[object] = []
        for item in expression.items:
            items.append(self._apply_to_item(item))
        return PathExpression.of(*items)

    def _apply_to_item(self, item: Item) -> object:
        if isinstance(item, Variable):
            image = self._mapping.get(item)
            return image if image is not None else item
        if isinstance(item, PackedExpression):
            return PackedExpression(self.apply_to_expression(item.inner))
        return item

    def __call__(self, expression: PathExpression) -> PathExpression:
        return self.apply_to_expression(expression)

    # -- combination -------------------------------------------------------------------

    def compose(self, earlier: "Substitution") -> "Substitution":
        """Return the substitution ``self ∘ earlier`` (apply *earlier* first).

        The domain of the result is the union of both domains; images of
        *earlier* are rewritten by ``self``.
        """
        mapping: dict[Variable, PathExpression] = {}
        for variable, image in earlier._mapping.items():
            mapping[variable] = self.apply_to_expression(image)
        for variable, image in self._mapping.items():
            mapping.setdefault(variable, image)
        return Substitution(mapping)

    def then(self, later: "Substitution") -> "Substitution":
        """Return ``later ∘ self`` (apply this substitution first, then *later*)."""
        return later.compose(self)

    def extended(self, variable: Variable, image: object) -> "Substitution":
        """Return a copy with one additional (or overriding) binding."""
        mapping = dict(self._mapping)
        mapping[variable] = _coerce_image(variable, image)
        return Substitution(mapping)

    def restricted(self, variables: Iterable[Variable]) -> "Substitution":
        """Return the restriction of this substitution to *variables*."""
        wanted = set(variables)
        return Substitution({v: e for v, e in self._mapping.items() if v in wanted})

    def without(self, variables: Iterable[Variable]) -> "Substitution":
        """Return a copy with *variables* removed from the domain."""
        unwanted = set(variables)
        return Substitution({v: e for v, e in self._mapping.items() if v not in unwanted})

    # -- classification ----------------------------------------------------------------

    def is_renaming(self) -> bool:
        """Return ``True`` if every image is a single variable."""
        return all(
            len(image.items) == 1 and isinstance(image.items[0], Variable)
            for image in self._mapping.values()
        )

    def introduces_packing(self) -> bool:
        """Return ``True`` if any image contains a packed sub-expression."""
        return any(image.has_packing() for image in self._mapping.values())

    # -- equality and rendering ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._mapping == other._mapping

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{var} ↦ {image}" for var, image in sorted(
            self._mapping.items(), key=lambda pair: (pair[0].prefix, pair[0].name)))
        return f"{{{inner}}}"

    __str__ = __repr__

    #: The empty (identity) substitution.
    IDENTITY: "Substitution"


Substitution.IDENTITY = Substitution()
