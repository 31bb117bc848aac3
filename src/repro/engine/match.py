"""Associative matching of path expressions against concrete paths.

This is the computational heart of Sequence Datalog evaluation: given a path
expression ``e``, a concrete path ``p``, and a partial valuation ``ν``, the
matcher enumerates every extension of ``ν`` under which ``e`` denotes ``p``.

Because concatenation is associative, an unbound path variable may absorb any
number of elements.  Which variables are already bound when a pattern is
reached is known when the rule body is planned, so the physical form of the
match is decided once, not per row: :func:`lower_pattern` turns a tuple of
expressions plus the set of bound variables into a :class:`MatchPlan` — a
flat list of ops over a register file:

* width-one items (constants, atomic variables, ground packed values) and
  bound path variables are checked by index;
* the last unbound path variable of an expression gets its extent from
  length arithmetic (``@a.$y.@b`` is deterministic: no enumeration);
* an unbound path variable that is followed by further unbound ones is a
  real choice point; when the item after it is a constant, a bound variable
  or a ground packed value, the candidate ends are found by scanning for the
  next occurrence of that anchor instead of trying every split;
* bindings accumulate in the register list; what is read back out of it,
  and when, is the driver's business.

A plan has two drivers over the one walk (:func:`_walk`).
:meth:`MatchPlan.match` is the object-space one: registers are loaded from a
:class:`Valuation`, and one :class:`Valuation` is built per *surviving* match
(trusted constructor, trusted path slices).
:meth:`MatchPlan.extend_id_rows` is the id-space one, run by the binding
equations of :mod:`repro.engine.compiled`: registers are loaded from the ids
of a register row through the term table, each new binding that the rest of
the rule reads is interned, and the result is a list of extended id rows —
no :class:`Valuation`, no dict, and no second implementation of ``SPLIT`` /
``REST`` / ``PACKED``.

A lowered equation caches its plans per open side and bound variables;
:mod:`repro.engine.reference` lowers one per literal it runs;
:func:`match_expression`, :func:`match_components` and :func:`match_fact`
lower on every call and are meant for tests and one-off matches.
"""

from __future__ import annotations

from typing import Collection, Iterator, Sequence

from repro.engine.valuation import Valuation
from repro.model.instance import Fact
from repro.model.terms import Packed, Path
from repro.syntax.expressions import (
    Item,
    PackedExpression,
    PathExpression,
    PathVariable,
    Variable,
)
from repro.syntax.literals import Predicate

__all__ = ["MatchPlan", "lower_pattern", "match_expression", "match_components", "match_fact"]

# Op tags (first element of every op tuple).
_ENTER = 0  # (tag, component, minimum, exact)      — switch to the next path of the row
_CONST = 1  # (tag, value)
_ATOM_BIND = 2  # (tag, slot)
_ATOM_CHECK = 3  # (tag, slot)
_PATH_CHECK = 4  # (tag, slot)
_REST = 5  # (tag, slot, tail_fixed, tail_slots, multiplicity)   — extent by arithmetic
_SPLIT = 6  # (tag, slot, tail_fixed, tail_slots, anchor, payload) — a choice point
_PACKED = 7  # (tag, ops, minimum, exact)            — match inside a packed value

# Anchor kinds of a ``_SPLIT`` op: what the item after the variable must equal.
_ANCHOR_NONE = 0
_ANCHOR_VALUE = 1  # payload: the constant (or ground packed value)
_ANCHOR_ATOM = 2  # payload: slot of a bound atomic variable
_ANCHOR_PATH = 3  # payload: slot of a bound path variable (anchors on its first element)

# How a newly bound variable is read back when a match survives.
_FROM_ATOM = 0  # the register holds the atomic value
_FROM_SLICE = 1  # the register holds an element tuple, wrapped into a Path
_FROM_ROW = 2  # the variable is a whole argument: reuse the row's Path object


class MatchPlan:
    """A pattern lowered for one set of already-bound variables.

    ``loads`` copy the bound variables the pattern mentions into registers
    (path variables as element tuples); ``binds`` say how to read each newly
    bound variable back out of the registers after a successful walk.
    """

    __slots__ = ("ops", "width", "loads", "binds")

    def __init__(self, ops: tuple, width: int, loads: tuple, binds: tuple):
        self.ops = ops
        self.width = width
        self.loads = loads
        self.binds = binds

    def match(self, row: "Sequence[Path]", valuation: Valuation) -> Iterator[Valuation]:
        """Yield every extension of *valuation* under which the pattern denotes *row*.

        *valuation* must bind exactly the variables the plan was lowered for
        (restricted to those the pattern mentions); *row* must have one path
        per expression of the pattern.
        """
        bindings = valuation._bindings
        registers: list = [None] * self.width
        for variable, slot, is_path in self.loads:
            value = bindings[variable]
            registers[slot] = value._elements if is_path else value
        binds = self.binds
        for _ in _walk(self.ops, 0, row, (), 0, 0, registers):
            if not binds:
                yield valuation
                continue
            extended = dict(bindings)
            for variable, source, index in binds:
                if source == _FROM_SLICE:
                    extended[variable] = Path._from_trusted(registers[index])
                elif source == _FROM_ATOM:
                    extended[variable] = registers[index]
                else:
                    extended[variable] = row[index]
            yield Valuation._from_trusted(extended)

    def extend_id_rows(
        self, rows: list, targets, slots: dict, table, limits, keep: "Collection[Variable]"
    ) -> "tuple[list, list]":
        """Match the one-expression pattern against an id per register row.

        The id-space twin of :meth:`match` for
        :class:`~repro.engine.compiled.CompiledRule`: *rows* are its register
        tuples (ids of *table*, a :class:`~repro.storage.columnar.TermTable`),
        *slots* maps each variable the plan was lowered for to its index in
        them, and *targets* yields, row by row, the id of the path the
        pattern must denote.  The walk is :func:`_walk` over the decoded
        paths; of a surviving match only the bindings of the variables in
        *keep* are interned and appended — the rest occur nowhere else in
        the rule, so the rows that differ only in them collapse, and with
        nothing to keep a row's first match ends its walk.  Returns
        the extended rows and the variables appended to them, in order;
        ``limits.check_derivations`` counts the matches as they are found.
        """
        paths = table.paths
        intern = table.intern
        element = table.element
        loads = [(slot, slots[variable], is_path) for variable, slot, is_path in self.loads]
        kept = [bind for bind in self.binds if bind[0] in keep]
        binds = [(source, index) for _, source, index in kept]
        ops = self.ops
        registers: list = [None] * self.width
        counted = limits.max_derivations_per_rule is not None
        out: list = []
        for current, target in zip(rows, targets):
            for slot, source, is_path in loads:
                elements = paths[current[source]]._elements
                registers[slot] = elements if is_path else elements[0]
            for _ in _walk(ops, 0, (paths[target],), (), 0, 0, registers):
                out.append(
                    current
                    + tuple(
                        [
                            intern(Path._from_trusted(registers[index]))
                            if source == _FROM_SLICE
                            else element(registers[index])
                            if source == _FROM_ATOM
                            else target
                            for source, index in binds
                        ]
                    )
                )
                if counted:
                    limits.check_derivations(len(out))
                if not binds:
                    break  # nothing is read back: one match is as good as all
        if len(kept) < len(self.binds):
            out = list(dict.fromkeys(out))
        return out, [variable for variable, _, _ in kept]


def _walk(
    ops: tuple, index: int, row: "Sequence[Path]", values: tuple, pos: int, hi: int, registers: list
) -> Iterator[None]:
    """Yield once per way ``ops[index:]`` consume ``values[pos:hi]`` and the rest of *row*.

    The registers are mutated in place; they hold the bindings of the current
    solution at each yield and must be read before the generator is resumed.
    """
    count = len(ops)
    while index < count:
        op = ops[index]
        index += 1
        tag = op[0]
        if tag == _CONST:
            if pos >= hi or values[pos] != op[1]:
                return
            pos += 1
        elif tag == _ATOM_BIND:
            if pos >= hi:
                return
            value = values[pos]
            if not isinstance(value, str):
                return
            registers[op[1]] = value
            pos += 1
        elif tag == _ATOM_CHECK:
            if pos >= hi or values[pos] != registers[op[1]]:
                return
            pos += 1
        elif tag == _PATH_CHECK:
            segment = registers[op[1]]
            end = pos + len(segment)
            if end > hi or values[pos:end] != segment:
                return
            pos = end
        elif tag == _ENTER:
            if pos != hi:
                return
            values = row[op[1]]._elements
            pos = 0
            hi = len(values)
            if hi < op[2] or (op[3] and hi != op[2]):
                return
        elif tag == _REST:
            room = hi - pos - op[2]
            for slot in op[3]:
                room -= len(registers[slot])
            if op[4] > 1:
                # The variable recurs later in the expression: every
                # occurrence takes an equal share of the room.
                room, remainder = divmod(room, op[4])
                if remainder:
                    return
            if room < 0:
                return
            registers[op[1]] = values[pos : pos + room]
            pos += room
        elif tag == _SPLIT:
            _, slot, tail_fixed, tail_slots, anchor, payload = op
            # The largest end that leaves room for what must still follow.
            last = hi - tail_fixed
            for tail_slot in tail_slots:
                last -= len(registers[tail_slot])
            if last < pos:
                # No room: a bound variable of the tail is longer than what
                # is left (a negative ``stop`` would count from the far end).
                return
            skip = 0
            if anchor == _ANCHOR_VALUE:
                target = payload
                skip = 1
            elif anchor == _ANCHOR_ATOM:
                target = registers[payload]
                skip = 1
            elif anchor == _ANCHOR_PATH and registers[payload]:
                target = registers[payload][0]
            else:
                for end in range(pos, last + 1):
                    registers[slot] = values[pos:end]
                    yield from _walk(ops, index, row, values, end, hi, registers)
                return
            # Anchored: only the ends where the anchor occurs can match.  A
            # width-one anchor is consumed here (``skip``); a path anchor is
            # re-checked in full by the op that follows.
            find = values.index
            end = pos
            stop = last + 1
            while True:
                try:
                    end = find(target, end, stop)
                except ValueError:
                    return
                registers[slot] = values[pos:end]
                yield from _walk(ops, index + skip, row, values, end + skip, hi, registers)
                end += 1
        else:  # _PACKED
            if pos >= hi:
                return
            value = values[pos]
            if not isinstance(value, Packed):
                return
            inner = value._contents._elements
            size = len(inner)
            if size < op[2] or (op[3] and size != op[2]):
                return
            pos += 1
            for _ in _walk(op[1], 0, row, inner, 0, size, registers):
                yield from _walk(ops, index, row, values, pos, hi, registers)
            return
    if pos == hi:
        yield None


# -- lowering -----------------------------------------------------------------------------------------


def lower_pattern(
    expressions: Sequence[PathExpression], bound: "Collection[Variable]"
) -> MatchPlan:
    """Lower *expressions* into a :class:`MatchPlan`, given the *bound* variables."""
    lowering = _Lowering(bound)
    ops: list = []
    for component, expression in enumerate(expressions):
        items = expression.items
        ops.append((_ENTER, component, *_length_bounds(items)))
        whole = None
        if len(items) == 1 and isinstance(items[0], PathVariable):
            whole = component
        lowering.lower_items(items, ops, whole)
    return MatchPlan(
        tuple(ops), len(lowering.slots), tuple(lowering.loads), tuple(lowering.binds)
    )


def _length_bounds(items: "Sequence[Item]") -> "tuple[int, bool]":
    """``(minimum length, whether it is exact)`` of the paths *items* can denote."""
    minimum = sum(1 for item in items if not isinstance(item, PathVariable))
    return minimum, minimum == len(items)


class _Lowering:
    """Register allocation and bound-variable tracking while a pattern is lowered."""

    def __init__(self, bound: "Collection[Variable]"):
        self.bound = bound
        #: Variables bound at entry or by an op emitted so far.
        self.known: set = set()
        self.slots: dict = {}
        self.loads: list = []
        self.binds: list = []

    def is_known(self, variable: Variable) -> bool:
        return variable in self.known or variable in self.bound

    def slot(self, variable: Variable) -> int:
        """The register of *variable*; a bound variable is loaded on first use."""
        slot = self.slots.get(variable)
        if slot is None:
            slot = self.slots[variable] = len(self.slots)
            if variable in self.bound:
                self.loads.append((variable, slot, isinstance(variable, PathVariable)))
        return slot

    def bind(self, variable: Variable, source: int, index: "int | None" = None) -> int:
        slot = self.slot(variable)
        self.known.add(variable)
        self.binds.append((variable, source, slot if index is None else index))
        return slot

    def lower_items(self, items: "Sequence[Item]", ops: list, whole: "int | None" = None) -> None:
        """Append the ops matching *items* against one path (or packed contents)."""
        for position, item in enumerate(items):
            if isinstance(item, PackedExpression) and _needs_walk(item):
                inner_ops: list = []
                inner = item.inner.items
                self.lower_items(inner, inner_ops)
                ops.append((_PACKED, tuple(inner_ops), *_length_bounds(inner)))
            elif isinstance(item, PathVariable) and not self.is_known(item):
                self._lower_unbound_path(item, items[position + 1 :], ops, whole)
            else:
                self._lower_simple(item, ops)

    def _lower_simple(self, item: Item, ops: list) -> None:
        """One op for an item of known width: a constant, an atomic variable, a bound path."""
        if isinstance(item, str):
            ops.append((_CONST, item))
        elif isinstance(item, PackedExpression):
            ops.append((_CONST, Packed(item.inner.ground_path())))
        elif isinstance(item, PathVariable):
            ops.append((_PATH_CHECK, self.slot(item)))
        elif self.is_known(item):
            ops.append((_ATOM_CHECK, self.slot(item)))
        else:
            ops.append((_ATOM_BIND, self.bind(item, _FROM_ATOM)))

    def _lower_unbound_path(
        self, variable: PathVariable, tail: "Sequence[Item]", ops: list, whole: "int | None"
    ) -> None:
        tail_fixed = 0
        tail_slots = []
        multiplicity = 1
        later_choice = False
        for item in tail:
            if not isinstance(item, PathVariable):
                tail_fixed += 1
            elif item == variable:
                multiplicity += 1
            elif self.is_known(item):
                tail_slots.append(self.slot(item))
            else:
                later_choice = True
        if whole is not None:
            slot = self.bind(variable, _FROM_ROW, whole)
        else:
            slot = self.bind(variable, _FROM_SLICE)
        if not later_choice:
            ops.append((_REST, slot, tail_fixed, tuple(tail_slots), multiplicity))
            return
        anchor, payload = _ANCHOR_NONE, None
        follower = tail[0]
        if isinstance(follower, str):
            anchor, payload = _ANCHOR_VALUE, follower
        elif isinstance(follower, PackedExpression):
            if not _needs_walk(follower):
                anchor, payload = _ANCHOR_VALUE, Packed(follower.inner.ground_path())
        elif follower != variable and self.is_known(follower):
            kind = _ANCHOR_PATH if isinstance(follower, PathVariable) else _ANCHOR_ATOM
            anchor, payload = kind, self.slot(follower)
        ops.append((_SPLIT, slot, tail_fixed, tuple(tail_slots), anchor, payload))


def _needs_walk(item: Item) -> bool:
    """Whether *item* is a packed sub-expression with variables (a nested match)."""
    return isinstance(item, PackedExpression) and not item.inner.is_ground()


# -- one-off matching ---------------------------------------------------------------------------------


def match_expression(
    expression: PathExpression,
    path: Path,
    valuation: Valuation = Valuation.EMPTY,
) -> Iterator[Valuation]:
    """Yield every extension of *valuation* making *expression* denote *path*."""
    return lower_pattern((expression,), valuation._bindings).match((path,), valuation)


def match_components(
    expressions: Sequence[PathExpression],
    paths: Sequence[Path],
    valuation: Valuation = Valuation.EMPTY,
) -> Iterator[Valuation]:
    """Match a tuple of expressions component-wise against a tuple of paths."""
    if len(expressions) != len(paths):
        return iter(())
    return lower_pattern(expressions, valuation._bindings).match(paths, valuation)


def match_fact(
    predicate: Predicate,
    fact: Fact,
    valuation: Valuation = Valuation.EMPTY,
) -> Iterator[Valuation]:
    """Match a body predicate against a fact of the same relation name."""
    if predicate.name != fact.relation:
        return iter(())
    return match_components(predicate.components, fact.paths, valuation)
