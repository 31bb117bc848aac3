"""Compiled id-space rule execution (``execution="compiled"``).

This is the hot-path backend beneath the bound-aware planner: a rule whose
literals fall in the *compilable fragment* lowers once into a
:class:`CompiledRule`.  Applying one runs hash joins over the dense integer
ids of a per-instance :class:`~repro.storage.columnar.TermTable` instead of
threading :class:`~repro.engine.valuation.Valuation` dictionaries through
per-row interpreter loops:

* intermediate valuations are plain tuples of ints (one slot per variable
  bound so far), extended by tuple concatenation instead of dict copies;
* each body predicate probes the :class:`~repro.storage.columnar.ColumnarView`
  groupings of its source relation — by whole argument id, or by first/last
  *element* id when only a prefix or suffix of a sequence pattern is bound —
  batch-style over the current rows;
* sequence patterns (``@x·@y``, ``$s.a``, …) destructure rows through the
  table's memoised element decomposition: an ``@x`` slot accepts an element
  iff its id carries the atomic flag (mirroring
  :func:`repro.engine.match.match_expression` semantics), and a single
  ``$x`` binds the spliced middle as its own interned id;
* negated literals become id-row membership tests against the columnar
  row set of the instance relation;
* the head stage returns the *set of head id rows*
  (:meth:`CompiledRule.head_rows`); the resident semi-naive loop of
  :mod:`repro.engine.fixpoint` works on those sets directly, and
  :meth:`CompiledRule.derive` is the same join followed by
  :func:`decode_rows` for callers that traffic in
  :class:`~repro.model.instance.Fact` objects.

The compilable fragment: no equations; every positive body component is a
lone variable, ground, or a sequence of atoms/atom-variables/ground-packed
items with at most one path variable; head and negated components are the
same but with any number of (bound) path variables, since they construct
rather than match.  Rules outside the fragment do not compile;
:class:`~repro.engine.evaluation.RuleEvaluator` transparently falls back to
the indexed interpreter for them, so ``execution="compiled"`` is always
exactly answer-equivalent to ``"indexed"``/``"scan"``.

Frontier dictionaries (semi-naive deltas, the telescoped maintenance joins)
are honoured position-by-position: each body step sources its relation from
``frontier[position]`` when present, in the same static position space as
the interpreter.
"""

from itertools import chain, repeat
from operator import itemgetter
from typing import Optional, Sequence

from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.model.instance import Fact, Instance
from repro.model.terms import Packed, Path
from repro.storage.columnar import ColumnarView
from repro.syntax.expressions import (
    AtomVariable,
    PackedExpression,
    PathExpression,
    PathVariable,
)
from repro.syntax.literals import Literal, Predicate

__all__ = ["CompiledRule", "compile_rule", "decode_rows"]

# Candidate-check op tags (first tuple element of every op):
_LEN = 0  # (0, pos, n, exact)        — length of the path at pos
_WCONST = 1  # (1, pos, id)           — whole argument equals a constant
_WSLOT = 2  # (2, pos, slot)          — whole argument equals a register
_WLOCAL = 3  # (3, pos, new_index)    — whole argument equals an earlier bind
_WFREE = 4  # (4, pos, needs_atomic)  — bind the whole argument
_ECONST = 5  # (5, pos, idx, eid)     — element at idx equals a constant
_ESLOT = 6  # (6, pos, idx, slot)     — element at idx equals a register
_ELOCAL = 7  # (7, pos, idx, new_index)
_EFREE = 8  # (8, pos, idx)           — bind element at idx (must be atomic)
_PSLOT = 9  # (9, pos, start, from_end, slot)      — spliced middle vs register
_PLOCAL = 10  # (10, pos, start, from_end, new_index)
_PFREE = 11  # (11, pos, start, from_end)          — bind the spliced middle


def _classify(component: PathExpression, *, binding_only: bool):
    """Classify one component, or ``None`` if outside the fragment.

    *binding_only* components (head, negations) construct a path from bound
    variables, so any number of path variables is fine; matching components
    destructure, which is only deterministic with at most one.
    """
    items = component.items
    if len(items) == 1 and isinstance(items[0], (AtomVariable, PathVariable)):
        return ("var", items[0])
    if component.is_ground():
        return ("const", component.ground_path())
    parts = []
    path_vars = 0
    for item in items:
        if isinstance(item, str):
            parts.append(("c", item))
        elif isinstance(item, AtomVariable):
            parts.append(("a", item))
        elif isinstance(item, PathVariable):
            parts.append(("p", item))
            path_vars += 1
        elif isinstance(item, PackedExpression) and item.inner.is_ground():
            parts.append(("c", Packed(item.inner.ground_path())))
        else:
            return None
    if path_vars > 1 and not binding_only:
        return None
    return ("seq", tuple(parts))


def _component_variables(kind, payload):
    if kind == "var":
        yield payload
    elif kind == "seq":
        for part_kind, part in payload:
            if part_kind != "c":
                yield part


class _Step:
    """One positive body predicate: its static position, name, and components."""

    __slots__ = ("position", "name", "arity", "components", "variables")

    def __init__(self, position: int, predicate: Predicate, components: tuple):
        self.position = position
        self.name = predicate.name
        self.arity = predicate.arity
        self.components = components
        #: Every variable of the components; once all are in registers the
        #: step has nothing left to bind and is a membership test.
        self.variables = frozenset(
            variable
            for kind, payload in components
            for variable in _component_variables(kind, payload)
        )

    def probeable(self, bound: set) -> bool:
        """Whether some hash grouping is usable given the *bound* variables."""
        for kind, payload in self.components:
            if kind == "const":
                return True
            if kind == "var":
                if payload in bound:
                    return True
            elif kind == "seq":
                if all(pk == "c" or pv in bound for pk, pv in payload):
                    return True
                first_kind, first = payload[0]
                if first_kind == "c" or (first_kind == "a" and first in bound):
                    return True
                last_kind, last = payload[-1]
                if last_kind == "c" or (last_kind == "a" and last in bound):
                    return True
        return False


class _Constraint:
    """A constructed membership target: one negated predicate or the head."""

    __slots__ = ("name", "arity", "components")

    def __init__(self, predicate: Predicate, components: tuple):
        self.name = predicate.name
        self.arity = predicate.arity
        self.components = components


def _target_spec(components: tuple, slots: dict, table) -> tuple:
    """Resolve constructed components to ``(tag, payload)`` id recipes."""
    intern = table.intern
    spec = []
    for kind, payload in components:
        if kind == "const":
            spec.append((0, intern(payload)))
        elif kind == "var":
            spec.append((1, slots[payload]))
        else:
            parts = tuple(
                (0, intern(Path((part,)))) if part_kind == "c" else (1, slots[part])
                for part_kind, part in payload
            )
            spec.append((2, parts))
    return tuple(spec)


def _target_rows(spec: tuple, rows: list, concat):
    """The id row *spec* constructs from each register row of *rows*, in order.

    Built column by column (constants repeated, registers picked with
    ``itemgetter``, sequences zipped into ``concat``), so the per-row work is
    C-level iteration plus one memoised ``concat`` call per sequence.
    """
    if not spec:
        return repeat((), len(rows))

    def column(tag, payload):
        if tag == 0:
            return repeat(payload, len(rows))
        if tag == 1:
            return map(itemgetter(payload), rows)
        return map(concat, zip(*[column(*part) for part in payload]))

    return zip(*[column(*component) for component in spec])


def _project(rows: list, slots: list) -> set:
    """The distinct projections of the register *rows* onto *slots*, as id tuples."""
    if not slots:
        return {()}
    if len(slots) == 1:
        return set(zip(map(itemgetter(slots[0]), rows)))
    return set(map(itemgetter(*slots), rows))


def decode_rows(table, id_rows, limits: EvaluationLimits = DEFAULT_LIMITS) -> list:
    """Decode head *id_rows* to path rows — the one place ids become paths.

    The path-length limit is checked here, on the distinct ids of the batch.
    """
    paths = table.paths
    idents = set(chain.from_iterable(id_rows))
    if idents:
        limits.check_path_length(max(len(paths[ident]) for ident in idents))
    return table.decode_rows(id_rows)


class CompiledRule:
    """An id-space execution plan for one compilable rule.

    The plan fixes *what* each step checks (constants, repeated variables,
    atomicity, splice cuts) at compile time; the join *order* is chosen
    greedily from the live relation sizes — smallest probeable source first,
    mirroring the bound-aware planner's heuristic in id space — and cached
    per delta position until a source changes its size regime.
    """

    __slots__ = (
        "head_name",
        "head_components",
        "head_vars",
        "head_step",
        "steps",
        "negations",
        "_head_index",
        "_orders",
    )

    def __init__(self, head_name, head_components, steps, negations, head_step=None):
        #: frontier key → (cardinality signature, step order).
        self._orders: dict = {}
        self.head_name = head_name
        self.head_components = head_components
        #: The head as a *matching* step over given head rows — what
        #: :meth:`derivable_rows` leads the join with; ``None`` when a head
        #: component holds two path variables and cannot destructure.
        self.head_step = head_step
        self.steps = steps
        self.negations = negations
        # The distinct head variables in first-appearance order: result rows
        # are projected onto them (and deduplicated) before a constructing
        # head concatenates anything.  ``None`` for a head of lone variables,
        # whose rows are that projection itself.
        head_vars: list = []
        for kind, payload in head_components:
            for variable in _component_variables(kind, payload):
                if variable not in head_vars:
                    head_vars.append(variable)
        self.head_vars = tuple(head_vars)
        self._head_index = (
            None
            if all(kind == "var" for kind, _ in head_components)
            else {variable: index for index, variable in enumerate(head_vars)}
        )

    # -- per-call step resolution --------------------------------------------------------

    def _resolve_step(self, step: _Step, view, slots: dict, frees: list, table):
        """Turn one step into ``(probe, ops)`` against the current registers.

        *frees* is extended with the variables this step binds, in the order
        their values are appended to each match's extension tuple.  The probe
        is ``(groups_dict, key_spec)`` or ``None`` (full scan); *key_spec* is
        ``(0, id)`` for a constant key, ``(1, slot)`` for a register key, or
        ``(2, parts)`` for a concatenated key built per current row.
        """
        intern = table.intern
        ops: list = []
        local: dict = {}
        candidates: list = []  # (priority, grouping, position, drop_span, key_spec)
        for position, (kind, payload) in enumerate(step.components):
            span_start = len(ops)
            if kind == "const":
                cid = intern(payload)
                ops.append((_WCONST, position, cid))
                candidates.append((0, "whole", position, (span_start, span_start + 1), (0, cid)))
            elif kind == "var":
                slot = slots.get(payload)
                if slot is not None:
                    ops.append((_WSLOT, position, slot))
                    candidates.append(
                        (1, "whole", position, (span_start, span_start + 1), (1, slot))
                    )
                elif payload in local:
                    ops.append((_WLOCAL, position, local[payload]))
                else:
                    local[payload] = len(frees)
                    frees.append(payload)
                    ops.append((_WFREE, position, isinstance(payload, AtomVariable)))
            else:  # seq
                parts = payload
                resolved = []
                for part_kind, part in parts:
                    if part_kind == "c":
                        resolved.append((0, intern(Path((part,)))))
                    else:
                        slot = slots.get(part)
                        if slot is None:
                            resolved = None
                            break
                        resolved.append((1, slot))
                p_index = next(
                    (i for i, part in enumerate(parts) if part[0] == "p"), None
                )

                def emit_element(index, part_kind, part):
                    if part_kind == "c":
                        eid = intern(Path((part,)))
                        ops.append((_ECONST, position, index, eid))
                        return (0, eid)
                    slot = slots.get(part)
                    if slot is not None:
                        ops.append((_ESLOT, position, index, slot))
                        return (1, slot)
                    if part in local:
                        ops.append((_ELOCAL, position, index, local[part]))
                    else:
                        local[part] = len(frees)
                        frees.append(part)
                        ops.append((_EFREE, position, index))
                    return None

                if p_index is None:
                    n = len(parts)
                    ops.append((_LEN, position, n, True))
                    for index, (part_kind, part) in enumerate(parts):
                        op_at = len(ops)
                        key = emit_element(index, part_kind, part)
                        if key is not None and index in (0, n - 1):
                            candidates.append(
                                (
                                    3,
                                    "first" if index == 0 else "last",
                                    position,
                                    (op_at, op_at + 1),
                                    key,
                                )
                            )
                else:
                    pre = parts[:p_index]
                    post = parts[p_index + 1 :]
                    ops.append((_LEN, position, len(pre) + len(post), False))
                    for index, (part_kind, part) in enumerate(pre):
                        op_at = len(ops)
                        key = emit_element(index, part_kind, part)
                        if key is not None and index == 0:
                            candidates.append(
                                (3, "first", position, (op_at, op_at + 1), key)
                            )
                    for offset, (part_kind, part) in enumerate(post):
                        index = offset - len(post)
                        op_at = len(ops)
                        key = emit_element(index, part_kind, part)
                        if key is not None and index == -1:
                            candidates.append(
                                (3, "last", position, (op_at, op_at + 1), key)
                            )
                    p_var = parts[p_index][1]
                    start, from_end = len(pre), len(post)
                    slot = slots.get(p_var)
                    if slot is not None:
                        ops.append((_PSLOT, position, start, from_end, slot))
                    elif p_var in local:
                        ops.append((_PLOCAL, position, start, from_end, local[p_var]))
                    else:
                        local[p_var] = len(frees)
                        frees.append(p_var)
                        ops.append((_PFREE, position, start, from_end))
                if resolved is not None:
                    # Every part is determined: probing the whole-argument
                    # grouping with the concatenated key subsumes all of this
                    # position's checks.
                    candidates.append(
                        (2, "whole", position, (span_start, len(ops)), (2, tuple(resolved)))
                    )

        probe = None
        if candidates:
            candidates.sort(key=lambda entry: entry[0])
            _, grouping, position, drop, key_spec = candidates[0]
            if grouping == "whole":
                groups = view.groups(position)
            elif grouping == "first":
                groups = view.first_groups(position)
            else:
                groups = view.last_groups(position)
            lo, hi = drop
            ops = ops[:lo] + ops[hi:]
            probe = (groups, key_spec, grouping, position)
        return probe, ops

    # -- execution ------------------------------------------------------------------------

    def _join_order(self, sizes: "list[int]", bound: tuple = ()) -> "tuple[int, ...]":
        """Greedy order of the steps, starting from the *bound* variables:
        prefer a step that can probe a hash grouping, breaking ties towards
        the smallest source."""
        pending = list(range(len(self.steps)))
        bound_vars: set = set(bound)
        order = []
        while pending:
            best = min(
                pending,
                key=lambda index: (
                    0 if self.steps[index].probeable(bound_vars) else 1,
                    sizes[index],
                ),
            )
            order.append(best)
            pending.remove(best)
            for kind, payload in self.steps[best].components:
                bound_vars.update(_component_variables(kind, payload))
        return tuple(order)

    def _join(
        self, instance: Instance, frontier, limits: EvaluationLimits, statistics, head_view=None
    ):
        """Run the body; ``(result rows, variable → register slot)`` or ``None``.

        With *head_view* — a view of head id rows — the join is restricted to
        those heads: :attr:`head_step` leads, reading only that view, and the
        body steps run with the head's variables bound.
        """
        table = instance.term_table()
        atomic = table.atomic_flags
        concat = table.concat
        splice = table.splice

        # Resolve every step's source relation (honouring the frontier) and
        # its columnar view up front; any empty source means no derivations.
        views = []
        for step in self.steps:
            source = instance
            if frontier is not None and step.position in frontier:
                source = frontier[step.position]
            storage = source.storage(step.name)
            if storage is None or not storage:
                return None
            if storage.arity() != step.arity:
                return None
            views.append(storage.columnar(table))

        # The join order is cached per frontier key and reused while every
        # source stays in its power-of-two size bucket — the same regime rule
        # as RuleEvaluator.compiled_sequence, counted by the same counters.
        key = tuple(sorted(frontier)) if frontier else ()
        if head_view is not None:
            key = ("head",)
        signature = tuple(len(view.id_rows).bit_length() for view in views)
        cached = self._orders.get(key)
        if cached is not None and cached[0] == signature:
            order = cached[1]
            if statistics is not None:
                statistics.plan_cache_hits += 1
        else:
            order = self._join_order(
                [len(view.id_rows) for view in views],
                self.head_vars if head_view is not None else (),
            )
            self._orders[key] = (signature, order)
            if statistics is not None:
                statistics.plans_compiled += 1
        ordered = [(self.steps[index], views[index]) for index in order]
        if head_view is not None:
            ordered.insert(0, (self.head_step, head_view))
        slots: dict = {}

        max_derivations = limits.max_derivations_per_rule
        rows: list = [()]
        width = 0

        for step, view in ordered:
            if step.variables <= slots.keys():
                # Nothing left to bind: the step is a membership test on the
                # view's row set, one attempt per current row — no group
                # probe, no walk through the bucket of one bound position.
                members = view.id_row_set
                spec = _target_spec(step.components, slots, table)
                if statistics is not None:
                    statistics.extension_attempts += len(rows)
                rows = [
                    current
                    for current, target in zip(rows, _target_rows(spec, rows, concat))
                    if target in members
                ]
                if not rows:
                    return None
                continue
            frees: list = []
            probe, ops = self._resolve_step(step, view, slots, frees, table)
            id_rows = view.id_rows
            out: list = []
            attempts = 0

            groups = key_kind = key_payload = grouping = probe_position = None
            if probe is not None:
                groups, (key_kind, key_payload), grouping, probe_position = probe
                if key_kind == 2 and all(t == 0 for t, _ in key_payload):
                    key_kind, key_payload = 0, concat(
                        tuple(p for _, p in key_payload)
                    )

            if (
                probe is not None
                and key_kind == 1
                and len(ops) == 1
                and ops[0][0] == _WFREE
            ):
                # Fast path: binary-join shape over whole arguments — probe
                # one bound position, emit one free position.
                _, position, needs_atomic = ops[0]
                column = view.column(position)
                slot = key_payload
                lookup = groups.get
                extend = out.extend
                for current in rows:
                    bucket = lookup(current[slot])
                    if bucket is None:
                        continue
                    attempts += len(bucket)
                    if needs_atomic:
                        extend(
                            [
                                current + (column[index],)
                                for index in bucket
                                if atomic[column[index]]
                            ]
                        )
                    else:
                        extend([current + (column[index],) for index in bucket])
                if max_derivations is not None:
                    limits.check_derivations(len(out))
            elif (
                probe is not None
                and key_kind == 1
                and grouping in ("first", "last")
                and len(ops) == 2
                and ops[0][0] == _LEN
                and ops[0][3]
                and ops[1][0] == _EFREE
                and ops[0][1] == ops[1][1] == probe_position
            ):
                # Fast path: sequence-destructure join — probe one bound
                # element, emit one free element (the unary-reachability
                # inner loop).  The prejoined view index has already
                # filtered length and atomicity, so each probe is one dict
                # lookup plus appends.
                n = ops[0][2]
                index = ops[1][2]
                pairs = view.element_join_groups(
                    probe_position, n, 0 if grouping == "first" else -1, index
                )
                slot = key_payload
                lookup = pairs.get
                extend = out.extend
                for current in rows:
                    bucket = lookup(current[slot])
                    if bucket is None:
                        continue
                    attempts += len(bucket)
                    extend([current + (ident,) for ident in bucket])
                if max_derivations is not None:
                    limits.check_derivations(len(out))
            elif (
                probe is None
                and len(ops) >= 2
                and ops[0][0] == _LEN
                and ops[0][3]
                and all(op[0] == _EFREE and op[1] == ops[0][1] for op in ops[1:])
            ):
                # Fast path: full destructure scan — one fixed-length
                # sequence pattern binding only fresh atomic elements (the
                # leading delta scan of a unary rule).  No per-row op
                # dispatch; just length and atomicity tests.
                n = ops[0][2]
                indexes = tuple(op[2] for op in ops[1:])
                decomposed_column = view.decomposed(ops[0][1])
                append = out.append
                extend = out.extend
                attempts += len(rows) * len(decomposed_column)
                if len(indexes) == 2:
                    first, second = indexes
                    for current in rows:
                        extend(
                            [
                                current + (decomposed[first], decomposed[second])
                                for decomposed in decomposed_column
                                if len(decomposed) == n
                                and atomic[decomposed[first]]
                                and atomic[decomposed[second]]
                            ]
                        )
                else:
                    for current in rows:
                        for decomposed in decomposed_column:
                            if len(decomposed) != n:
                                continue
                            new = []
                            ok = True
                            for index in indexes:
                                ident = decomposed[index]
                                if not atomic[ident]:
                                    ok = False
                                    break
                                new.append(ident)
                            if ok:
                                append(current + tuple(new))
                if max_derivations is not None:
                    limits.check_derivations(len(out))
            else:
                decomp_cols = {
                    op[1]: view.decomposed(op[1]) for op in ops if op[0] == _LEN
                }
                count = 0
                shared = None
                if probe is not None and key_kind == 0:
                    shared = groups.get(key_payload)
                    shared = () if shared is None else shared
                scan = range(len(id_rows)) if probe is None else None
                for current in rows:
                    if probe is None:
                        bucket = scan
                    elif key_kind == 0:
                        bucket = shared
                    else:
                        if key_kind == 1:
                            key = current[key_payload]
                        else:
                            key = concat(
                                tuple(
                                    p if t == 0 else current[p]
                                    for t, p in key_payload
                                )
                            )
                        bucket = groups.get(key)
                        if bucket is None:
                            continue
                    attempts += len(bucket)
                    for index in bucket:
                        row = id_rows[index]
                        new: list = []
                        decomposed = ()
                        ok = True
                        for op in ops:
                            tag = op[0]
                            if tag == _LEN:
                                decomposed = decomp_cols[op[1]][index]
                                n = len(decomposed)
                                if (n != op[2]) if op[3] else (n < op[2]):
                                    ok = False
                                    break
                            elif tag == _WCONST:
                                if row[op[1]] != op[2]:
                                    ok = False
                                    break
                            elif tag == _WSLOT:
                                if row[op[1]] != current[op[2]]:
                                    ok = False
                                    break
                            elif tag == _WLOCAL:
                                if row[op[1]] != new[op[2]]:
                                    ok = False
                                    break
                            elif tag == _WFREE:
                                ident = row[op[1]]
                                if op[2] and not atomic[ident]:
                                    ok = False
                                    break
                                new.append(ident)
                            elif tag == _ECONST:
                                if decomposed[op[2]] != op[3]:
                                    ok = False
                                    break
                            elif tag == _ESLOT:
                                if decomposed[op[2]] != current[op[3]]:
                                    ok = False
                                    break
                            elif tag == _ELOCAL:
                                if decomposed[op[2]] != new[op[3]]:
                                    ok = False
                                    break
                            elif tag == _EFREE:
                                ident = decomposed[op[2]]
                                if not atomic[ident]:
                                    ok = False
                                    break
                                new.append(ident)
                            elif tag == _PSLOT:
                                if splice(row[op[1]], op[2], op[3]) != current[op[4]]:
                                    ok = False
                                    break
                            elif tag == _PLOCAL:
                                if splice(row[op[1]], op[2], op[3]) != new[op[4]]:
                                    ok = False
                                    break
                            else:  # _PFREE
                                new.append(splice(row[op[1]], op[2], op[3]))
                        if not ok:
                            continue
                        out.append(current + tuple(new))
                        if max_derivations is not None:
                            count += 1
                            limits.check_derivations(count)

            if statistics is not None:
                statistics.extension_attempts += attempts
            if not out:
                return None
            rows = out
            for offset, variable in enumerate(frees):
                slots[variable] = width + offset
            width += len(frees)

        # Negated literals: membership tests against the instance relation
        # (never the frontier), exactly like the interpreter's filters.
        for negation in self.negations:
            storage = instance.storage(negation.name)
            if storage is None or not storage:
                continue
            if storage.arity() != negation.arity:
                continue
            members = storage.columnar(table).id_row_set
            spec = _target_spec(negation.components, slots, table)
            rows = [
                current
                for current, target in zip(rows, _target_rows(spec, rows, concat))
                if target not in members
            ]
            if not rows:
                return None
        return rows, slots

    def head_rows(
        self,
        instance: Instance,
        frontier=None,
        limits: EvaluationLimits = DEFAULT_LIMITS,
        statistics=None,
    ) -> set:
        """One id-space application of the rule: the set of head id rows.

        Ids are those of ``instance.term_table()``.  Result rows are
        projected onto the head variables and deduplicated *before* a
        constructing head (``T(@x·@z)``, ``T(@x·a·$y)``) concatenates, so
        each distinct binding builds its path once.
        """
        return self._head_stage(instance, self._join(instance, frontier, limits, statistics))

    def derivable_rows(
        self,
        instance: Instance,
        id_rows: "list[tuple]",
        limits: EvaluationLimits = DEFAULT_LIMITS,
        statistics=None,
    ) -> set:
        """The subset of the head *id_rows* one application derives from *instance*.

        One join for the whole set (delete–rederive asks this of everything
        it over-deleted): :attr:`head_step` — which must not be ``None`` —
        matches the head against *id_rows* and nothing else, so every result
        row's head is one of them by construction and a fact the body needs
        is only ever read from *instance*, never from the set being tested.
        """
        if not id_rows:
            return set()
        head_view = ColumnarView(id_rows, instance.term_table())
        return self._head_stage(
            instance, self._join(instance, None, limits, statistics, head_view)
        )

    def _head_stage(self, instance: Instance, joined) -> set:
        """The distinct head id rows of a :meth:`_join` result."""
        if joined is None:
            return set()
        rows, slots = joined
        if self._head_index is None:
            return _project(rows, [slots[variable] for _, variable in self.head_components])
        table = instance.term_table()
        spec = _target_spec(self.head_components, self._head_index, table)
        keys = list(_project(rows, [slots[variable] for variable in self.head_vars]))
        return set(_target_rows(spec, keys, table.concat))

    def derive(
        self,
        instance: Instance,
        frontier=None,
        limits: EvaluationLimits = DEFAULT_LIMITS,
        statistics=None,
    ) -> set:
        """One id-space application of the rule; returns the derived facts."""
        id_rows = self.head_rows(instance, frontier, limits, statistics)
        name = self.head_name
        return {
            Fact._from_trusted(name, row)
            for row in decode_rows(instance.term_table(), id_rows, limits)
        }


def compile_rule(head: Predicate, order: Sequence[Literal]) -> Optional[CompiledRule]:
    """Compile *head* ``:-`` *order* into id-space form, or ``None``.

    *order* is the rule's static body order (the frontier position space of
    :class:`~repro.engine.evaluation.RuleEvaluator`); step positions index
    into it.  Returns ``None`` when any literal falls outside the compilable
    fragment — the caller then keeps the interpreted path for this rule.
    """
    steps = []
    negations = []
    positive_vars: set = set()
    for position, literal in enumerate(order):
        if literal.is_equation():
            return None
        predicate = literal.atom
        components = []
        for component in predicate.components:
            classified = _classify(component, binding_only=not literal.positive)
            if classified is None:
                return None
            components.append(classified)
        if literal.positive:
            steps.append(_Step(position, predicate, tuple(components)))
            for kind, payload in components:
                positive_vars.update(_component_variables(kind, payload))
        else:
            negations.append(_Constraint(predicate, tuple(components)))

    for negation in negations:
        for kind, payload in negation.components:
            for variable in _component_variables(kind, payload):
                if variable not in positive_vars:
                    return None

    head_components = []
    for component in head.components:
        classified = _classify(component, binding_only=True)
        if classified is None:
            return None
        for variable in _component_variables(*classified):
            if variable not in positive_vars:
                return None
        head_components.append(classified)
    head_step = None
    if all(_classify(component, binding_only=False) for component in head.components):
        head_step = _Step(-1, head, tuple(head_components))

    return CompiledRule(
        head.name, tuple(head_components), tuple(steps), tuple(negations), head_step
    )
