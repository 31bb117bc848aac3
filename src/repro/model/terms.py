"""Values, packed values, and paths — the data model of Section 2.1.

The paper fixes a countably infinite universe ``dom`` of *atomic values*, and
defines *packed values*, *values*, and *paths* as the smallest sets such that

1. every atomic value is a value;
2. every finite sequence of values is a path (the empty path is ``ϵ``);
3. if ``p`` is a path then ``⟨p⟩`` is a packed value;
4. every packed value is a value.

In this implementation atomic values are (non-empty) Python strings, packed
values are :class:`Packed` objects wrapping a :class:`Path`, and paths are
:class:`Path` objects — immutable, hashable sequences of values.  A value is
identified with the length-one path containing it (the paper does the same),
which :func:`as_path` makes explicit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from repro.errors import ModelError

__all__ = [
    "Value",
    "Packed",
    "Path",
    "EPSILON",
    "is_atomic_value",
    "is_value",
    "as_path",
    "concat",
]


def is_atomic_value(obj: object) -> bool:
    """Return ``True`` if *obj* is an atomic value (a non-empty string)."""
    return isinstance(obj, str) and len(obj) > 0


def is_value(obj: object) -> bool:
    """Return ``True`` if *obj* is a value (atomic or packed)."""
    return is_atomic_value(obj) or isinstance(obj, Packed)


class Packed:
    """A packed value ``⟨p⟩``: a path temporarily treated as a single value.

    Packing is the J-Logic feature the paper studies as feature ``P``.  A
    packed value compares equal to another packed value exactly when the
    wrapped paths are equal.
    """

    __slots__ = ("_contents", "_hash")

    def __init__(self, contents: "Path | Iterable[Value] | Value" = ()):
        self._contents = as_path(contents)
        self._hash = hash(("Packed", self._contents))

    @property
    def contents(self) -> "Path":
        """The path wrapped by this packed value."""
        return self._contents

    def packing_depth(self) -> int:
        """Return the nesting depth of packing inside this value (at least 1)."""
        return 1 + self._contents.packing_depth()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Packed) and self._contents == other._contents

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Packed({self._contents!r})"

    def __str__(self) -> str:
        return f"<{self._contents}>"


#: The type of values: atomic values (strings) or packed values.
Value = Union[str, Packed]


class Path:
    """An immutable finite sequence of values.

    Concatenation (``+``) is associative because a path is stored as a flat
    tuple of values; nesting can only be created explicitly through
    :class:`Packed`.
    """

    __slots__ = ("_elements", "_hash")

    def __init__(self, elements: Iterable[Value] = ()):
        items = tuple(elements)
        for item in items:
            if not is_value(item):
                raise ModelError(
                    f"path elements must be atomic values (non-empty strings) or "
                    f"packed values, got {item!r}"
                )
        self._elements = items
        self._hash = hash(("Path", items))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_trusted(items: tuple) -> "Path":
        """Build a path from an already-validated value tuple (internal).

        Skips the per-element validation of ``__init__``; callers must pass a
        tuple whose items came out of existing :class:`Path` objects.
        """
        path = Path.__new__(Path)
        path._elements = items
        path._hash = hash(("Path", items))
        return path

    @staticmethod
    def empty() -> "Path":
        """Return the empty path ``ϵ``."""
        return EPSILON

    @staticmethod
    def of(*elements: "Value | Path") -> "Path":
        """Build a path by concatenating values and paths left to right.

        ``Path.of("a", "b", Packed(Path.of("c")))`` is ``a·b·⟨c⟩``.
        """
        result: list[Value] = []
        for element in elements:
            if isinstance(element, Path):
                result.extend(element._elements)
            elif is_value(element):
                result.append(element)
            else:
                raise ModelError(f"cannot build a path from {element!r}")
        return Path(result)

    # -- sequence protocol ----------------------------------------------------

    @property
    def elements(self) -> tuple[Value, ...]:
        """The values of this path, as a tuple."""
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Value]:
        return iter(self._elements)

    def __getitem__(self, index: "int | slice") -> "Value | Path":
        if isinstance(index, slice):
            return Path(self._elements[index])
        return self._elements[index]

    def __contains__(self, value: Value) -> bool:
        return value in self._elements

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "Path | Value") -> "Path":
        if isinstance(other, Path):
            return Path(self._elements + other._elements)
        if is_value(other):
            return Path(self._elements + (other,))
        return NotImplemented

    def __radd__(self, other: Value) -> "Path":
        if is_value(other):
            return Path((other,) + self._elements)
        return NotImplemented

    def concat(self, *others: "Path | Value") -> "Path":
        """Concatenate this path with further paths or values."""
        return Path.of(self, *others)

    def __mul__(self, times: int) -> "Path":
        if not isinstance(times, int) or times < 0:
            raise ModelError("a path can only be repeated a non-negative number of times")
        return Path(self._elements * times)

    __rmul__ = __mul__

    # -- predicates and measures ----------------------------------------------

    def is_empty(self) -> bool:
        """Return ``True`` for the empty path ``ϵ``."""
        return not self._elements

    def is_flat(self) -> bool:
        """Return ``True`` if no packed value occurs anywhere in this path.

        Flat instances (Section 3.1) contain only flat paths.
        """
        return all(not isinstance(element, Packed) for element in self._elements)

    def packing_depth(self) -> int:
        """Return the maximum packing nesting depth of the path (0 if flat)."""
        depth = 0
        for element in self._elements:
            if isinstance(element, Packed):
                depth = max(depth, element.packing_depth())
        return depth

    def is_atomic(self) -> bool:
        """Return ``True`` if the path is a single atomic value."""
        return len(self._elements) == 1 and is_atomic_value(self._elements[0])

    # -- derived paths ----------------------------------------------------------

    def prefixes(self) -> Iterator["Path"]:
        """Yield every prefix of this path, from ``ϵ`` to the path itself."""
        for end in range(len(self._elements) + 1):
            yield Path(self._elements[:end])

    def suffixes(self) -> Iterator["Path"]:
        """Yield every suffix of this path, from the path itself to ``ϵ``."""
        for start in range(len(self._elements) + 1):
            yield Path(self._elements[start:])

    def substrings(self) -> Iterator["Path"]:
        """Yield every substring (contiguous subsequence) of this path.

        The empty path is yielded exactly once.  This mirrors the ``SUB``
        operator of the sequence relational algebra (Section 7).
        """
        yield EPSILON
        n = len(self._elements)
        for start in range(n):
            for end in range(start + 1, n + 1):
                yield Path(self._elements[start:end])

    def is_substring_of(self, other: "Path") -> bool:
        """Return ``True`` if this path occurs contiguously inside *other*."""
        if self.is_empty():
            return True
        n, m = len(self._elements), len(other._elements)
        if n > m:
            return False
        for start in range(m - n + 1):
            if other._elements[start:start + n] == self._elements:
                return True
        return False

    def reversed(self) -> "Path":
        """Return the reversal of this path (element order reversed)."""
        return Path(tuple(reversed(self._elements)))

    def atoms(self) -> Iterator[str]:
        """Yield the atomic values occurring in this path, at any depth."""
        for element in self._elements:
            if isinstance(element, Packed):
                yield from element.contents.atoms()
            else:
                yield element

    # -- equality and representation --------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Path) and self._elements == other._elements

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Path({list(self._elements)!r})"

    def __str__(self) -> str:
        if not self._elements:
            return "ϵ"
        return "·".join(str(element) for element in self._elements)


#: The empty path ``ϵ``.
EPSILON = Path(())


def as_path(obj: "Path | Packed | str | Iterable[Value]") -> Path:
    """Coerce *obj* into a :class:`Path`.

    Values are identified with length-one paths; iterables of values are
    converted element-wise.  Strings are treated as single atomic values, not
    as sequences of characters.
    """
    if isinstance(obj, Path):
        return obj
    if is_atomic_value(obj) or isinstance(obj, Packed):
        return Path((obj,))
    if isinstance(obj, str):
        raise ModelError("atomic values must be non-empty strings")
    try:
        return Path(obj)
    except TypeError as exc:  # not iterable
        raise ModelError(f"cannot interpret {obj!r} as a path") from exc


def concat(*parts: "Path | Value") -> Path:
    """Concatenate paths and values into a single path."""
    return Path.of(*parts)
