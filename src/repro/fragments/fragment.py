"""Fragments: subsets of the feature set Φ = {A, E, I, N, P, R} (Section 3).

A program *belongs to* a fragment ``F`` when it uses only features from
``F``.  The paper compares fragments by their power in expressing the
baseline flat unary queries; two helper notions appear constantly:

* the *reduced* fragment ``F̂ = F − {A, P}``, because arity and packing are
  redundant independently of the other features (Theorems 4.2 and 4.15);
* enumeration of all fragments over a feature universe (all 64 subsets of
  Φ, or the 16 subsets of {E, I, N, R} shown in Figure 1).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from repro.errors import SyntaxSemanticError
from repro.fragments.features import Feature, describe_features, program_features
from repro.syntax.programs import Program

__all__ = [
    "Fragment",
    "ALL_FEATURES",
    "CORE_FEATURES",
    "all_fragments",
    "core_fragments",
    "program_fragment",
    "program_belongs_to",
]

#: The full feature set Φ.
ALL_FEATURES = frozenset(Feature)

#: The features that matter for Figure 1 (arity and packing are redundant).
CORE_FEATURES = frozenset({Feature.EQUATIONS, Feature.INTERMEDIATE,
                           Feature.NEGATION, Feature.RECURSION})


class Fragment(frozenset):
    """A set of features, with paper-style parsing and rendering.

    ``Fragment`` is a frozenset of :class:`Feature`, so all set operations
    work; additional niceties are construction from strings (``"EIN"`` or
    ``"{E, I, N}"``) and the ``reduced`` view without A and P.
    """

    def __new__(cls, features: "Iterable[Feature | str] | str" = ()):
        if isinstance(features, str):
            parsed = _parse_fragment_text(features)
        else:
            parsed = frozenset(
                feature if isinstance(feature, Feature) else Feature.from_letter(str(feature))
                for feature in features
            )
        return super().__new__(cls, parsed)

    # -- views -----------------------------------------------------------------------

    @property
    def letters(self) -> str:
        """The features as a sorted string of letters, e.g. ``"EIN"``."""
        return "".join(sorted(feature.letter for feature in self))

    def reduced(self) -> "Fragment":
        """Return ``F − {A, P}`` (written ``F̂`` in the proof of Theorem 6.1)."""
        return Fragment(feature for feature in self
                        if feature not in (Feature.ARITY, Feature.PACKING))

    def without_feature(self, feature: "Feature | str") -> "Fragment":
        """Return the fragment with one feature removed."""
        removed = feature if isinstance(feature, Feature) else Feature.from_letter(feature)
        return Fragment(set(self) - {removed})

    def has(self, feature: "Feature | str") -> bool:
        """Return ``True`` if the fragment contains *feature*."""
        wanted = feature if isinstance(feature, Feature) else Feature.from_letter(feature)
        return wanted in self

    # -- set operations preserving the subclass ------------------------------------------

    def union(self, *others: Iterable) -> "Fragment":  # type: ignore[override]
        return Fragment(frozenset(self).union(*others))

    def intersection(self, *others: Iterable) -> "Fragment":  # type: ignore[override]
        return Fragment(frozenset(self).intersection(*others))

    def difference(self, *others: Iterable) -> "Fragment":  # type: ignore[override]
        return Fragment(frozenset(self).difference(*others))

    # -- rendering ----------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Fragment({self.letters!r})"

    def __str__(self) -> str:
        return describe_features(self)


def _parse_fragment_text(text: str) -> frozenset[Feature]:
    cleaned = text.strip().strip("{}")
    if not cleaned:
        return frozenset()
    if "," in cleaned:
        letters = [piece.strip() for piece in cleaned.split(",") if piece.strip()]
    else:
        letters = list(cleaned.replace(" ", ""))
    features = set()
    for letter in letters:
        try:
            features.add(Feature.from_letter(letter))
        except ValueError as exc:
            raise SyntaxSemanticError(f"unknown feature letter {letter!r} in {text!r}") from exc
    return frozenset(features)


def all_fragments(universe: Iterable[Feature] = ALL_FEATURES) -> Iterator[Fragment]:
    """Enumerate every fragment over *universe*, smallest first."""
    features = sorted(set(universe), key=lambda feature: feature.letter)
    for size in range(len(features) + 1):
        for combination in combinations(features, size):
            yield Fragment(combination)


def core_fragments() -> list[Fragment]:
    """The sixteen fragments over {E, I, N, R} classified by Figure 1."""
    return list(all_fragments(CORE_FEATURES))


def program_fragment(program: Program) -> Fragment:
    """The (smallest) fragment a program belongs to: exactly its used features."""
    return Fragment(program_features(program))


def program_belongs_to(program: Program, fragment: "Fragment | str") -> bool:
    """Return ``True`` if *program* uses only features of *fragment*."""
    target = fragment if isinstance(fragment, Fragment) else Fragment(fragment)
    return program_fragment(program) <= target
