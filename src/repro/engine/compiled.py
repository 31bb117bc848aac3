"""Id-space rule plans: how every rule is executed.

Every safe rule lowers once into a :class:`CompiledRule`.
Applying one runs hash joins over the dense integer ids of a per-instance
:class:`~repro.storage.columnar.TermTable` instead of threading
:class:`~repro.engine.valuation.Valuation` dictionaries through per-row
loops:

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
* each step's checks are a list of ops that one general loop runs per
  candidate row; the only specialised loop is the binary join over whole
  arguments (probe one bound position, emit one free one) that the graph
  programs run — every sequence pattern takes the general loop;
* an equation is a step without a source (:class:`_Equation`).  Once the
  steps before it have put both of its sides in registers it — or its
  negation — is a *filter*: both sides are constructed like a head and
  compared as ids, which interning makes path equality.  A positive
  equation with one side in registers is a *binding step*: that side is
  constructed, and its path matched against the other side by the split
  plan of :mod:`repro.engine.match` — the one implementation of choice
  points — whose new bindings are interned
  (:meth:`~repro.engine.match.MatchPlan.extend_id_rows`);
* negated predicates become id-row membership tests against the columnar
  row set of the instance relation — or of the instance a caller names for
  that static position (``negative_sources``: maintenance reads a changed
  negated relation as it was before the update);
* the head stage returns the *set of head id rows*
  (:meth:`CompiledRule.head_rows`); the resident semi-naive loop of
  :mod:`repro.engine.fixpoint` works on those sets directly,
  :meth:`CompiledRule.derive` is the same join followed by
  :func:`decode_rows`, the one call that returns
  :class:`~repro.model.instance.Fact` objects, and
  :meth:`CompiledRule.derivation_counts` tallies the join's rows per head id
  row instead of collapsing them — the support counts of counting
  maintenance.

What lowers: the whole language.  A component a join step can take apart
deterministically — a lone variable, a ground path, or a sequence of atoms,
atom variables and ground packed items around at most one path variable — is
matched by the step's own ops.  Any other *matched* component
(``R($u·$s·$v)``, a repeated ``$x``, a packed item holding variables) is
normalised in the paper's own spirit: the step binds the whole argument to a
fresh variable and a binding equation takes it apart.  That holds for the
positive body predicates and for the head in its matching role
(:attr:`CompiledRule.head_step`, which leads the head-restricted join of
delete–rederive).  Heads in their constructing role, negated predicates and
bound equation sides only *construct*, with any number of path variables and
with packing built from variables
(:meth:`~repro.storage.columnar.TermTable.pack`).  Only an unsafe rule does
not lower: its plan keeps the registered reason
(:attr:`CompiledRule.lowering_refusal`, :mod:`repro.engine.reasons`) and
raises it as :class:`~repro.errors.UnsafeRuleError` when the rule is
evaluated.  The agreement suites hold these plans to
:mod:`repro.engine.reference`.

Frontier dictionaries (semi-naive deltas, the telescoped maintenance joins)
are honoured position-by-position: each body step sources its relation from
``frontier[position]`` when present — an instance, or
:class:`~repro.storage.RowSources` of read-only id-row sources (a columnar
view, or delete–rederive's survivors, a
:class:`~repro.storage.MaskedView`) — in the static position space of
:func:`~repro.syntax.rules.plan_body_order`.

A program lowers into one :class:`CompiledProgram`: per stratum, its rules'
plans and whether the stratum is recursive.  Neither holds limits — every
method of a plan takes them per call — so one compiled program serves every
evaluation of its program, which is how
:class:`~repro.engine.query.ProgramQuery` shares it across its sessions.
"""

from collections import Counter
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple, Sequence

from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.engine.match import lower_pattern
from repro.engine.reasons import (
    LOWERING_UNSAFE_EQUATION,
    LOWERING_UNSAFE_HEAD,
    LOWERING_UNSAFE_NEGATION,
    reason,
)
from repro.errors import EvaluationError, UnsafeRuleError
from repro.model.instance import Fact, Instance
from repro.model.terms import Packed
from repro.storage.columnar import ColumnarView
from repro.syntax.expressions import AtomVariable, PathExpression, PathVariable
from repro.syntax.literals import Equation, Literal, Predicate
from repro.syntax.programs import Program, Stratum
from repro.syntax.rules import Rule, bind_equations, plan_body_order

__all__ = ["CompiledProgram", "CompiledRule", "CompiledStratum", "decode_rows", "evaluate_rule"]

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


def _classify(component: PathExpression):
    """One component as ``(kind, payload)``: a lone variable, a constant, or a
    sequence of parts — constants ``c``, atom variables ``a``, path variables
    ``p`` and packed sub-components ``k`` (themselves classified)."""
    items = component.items
    if len(items) == 1 and isinstance(items[0], (AtomVariable, PathVariable)):
        return ("var", items[0])
    if component.is_ground():
        return ("const", component.ground_path())
    parts = []
    for item in items:
        if isinstance(item, str):
            parts.append(("c", item))
        elif isinstance(item, AtomVariable):
            parts.append(("a", item))
        elif isinstance(item, PathVariable):
            parts.append(("p", item))
        elif item.inner.is_ground():
            parts.append(("c", Packed(item.inner.ground_path())))
        else:
            parts.append(("k", _classify(item.inner)))
    return ("seq", tuple(parts))


def _destructures(kind, payload) -> bool:
    """Whether a join step can take the component apart without a choice point.

    Constructing (head, negation, the bound side of an equation) works for
    any component; destructuring a stored row is only deterministic with at
    most one path-variable occurrence and nothing to match inside a packed
    value.  :func:`_lower` turns any other matched component into a
    binding equation, whose :class:`~repro.engine.match.MatchPlan` has the
    choice points.
    """
    if kind != "seq":
        return True
    kinds = [part_kind for part_kind, _ in payload]
    return "k" not in kinds and kinds.count("p") <= 1


def _component_variables(kind, payload):
    if kind == "var":
        yield payload
    elif kind == "seq":
        for part_kind, part in payload:
            if part_kind == "k":
                yield from _component_variables(*part)
            elif part_kind != "c":
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
    """A constructed membership target: one negated predicate at its static position."""

    __slots__ = ("position", "name", "arity", "components")

    def __init__(self, position: int, predicate: Predicate, components: tuple):
        self.position = position
        self.name = predicate.name
        self.arity = predicate.arity
        self.components = components


class _Equation:
    """One (non)equation: its sides as constructed components and as patterns.

    With both sides in registers it is a filter on their ids — interning is
    canonical, so id equality is path equality.  A positive equation with
    one side in registers binds the variables of the other: the bound side
    is constructed, and its path matched against the open side's
    :class:`~repro.engine.match.MatchPlan`, lowered once per bound-variable
    set the join orders reach (:attr:`plans`).
    """

    __slots__ = ("literal", "atom", "positive", "sides", "components", "variables", "keep", "plans")

    def __init__(self, literal: Literal):
        self.literal = literal
        #: What :func:`~repro.syntax.rules.bind_equations` reads of a literal.
        self.atom = literal.atom
        self.positive = literal.positive
        self.sides = self.atom.sides
        self.components = tuple(_classify(side) for side in self.sides)
        self.variables = tuple(side.variables() for side in self.sides)
        #: The variables something else in the rule mentions (set by
        #: :func:`_lower`); binding any other would only be interning.
        self.keep: frozenset = frozenset()
        #: (index of the open side, its bound variables) → lowered pattern.
        self.plans: dict = {}

    def apply(self, rows: list, slots: dict, table, limits, every_variable: bool = False):
        """Run the equation over the register *rows*; ``(rows, variables appended)``.

        With both sides bound the rows are filtered on the ids the two sides
        construct; otherwise (positive, one side bound — the join order
        guarantees it) the bound side's id is matched against the open side
        and every match appends the open side's new variables — those in
        :attr:`keep`, or all of them under *every_variable* (a derivation
        count tells apart valuations that differ in any variable).
        """
        left, right = (variables <= slots.keys() for variables in self.variables)
        if left and right:
            spec = _target_spec(self.components, slots, table)
            rows = [
                current
                for current, (lhs, rhs) in zip(rows, _target_rows(spec, rows, table))
                if (lhs == rhs) is self.positive
            ]
            limits.check_derivations(len(rows))
            return rows, ()
        known, opened = (0, 1) if left else (1, 0)
        bound = self.variables[opened].intersection(slots)
        plan = self.plans.get((opened, bound))
        if plan is None:
            plan = self.plans[opened, bound] = lower_pattern((self.sides[opened],), bound)
        spec = _component_spec(*self.components[known], slots, table)
        keep = self.variables[opened] if every_variable else self.keep
        return plan.extend_id_rows(
            rows, _target_column(*spec, rows, table), slots, table, limits, keep
        )


def _component_spec(kind, payload, slots: dict, table) -> tuple:
    """Resolve one constructed component to its ``(tag, payload)`` id recipe."""
    if kind == "const":
        return (0, table.intern(payload))
    if kind == "var":
        return (1, slots[payload])
    parts = []
    for part_kind, part in payload:
        if part_kind == "c":
            parts.append((0, table.element(part)))
        elif part_kind == "k":
            parts.append((3, _component_spec(*part, slots, table)))
        else:
            parts.append((1, slots[part]))
    return (2, tuple(parts))


def _target_spec(components: tuple, slots: dict, table) -> tuple:
    """Resolve constructed components to ``(tag, payload)`` id recipes."""
    return tuple(_component_spec(kind, payload, slots, table) for kind, payload in components)


def _target_column(tag, payload, rows: list, table):
    """The id one recipe constructs from each register row of *rows*, in order.

    Constants are repeated, registers picked with ``itemgetter``, sequences
    zipped into the memoised ``concat`` and packed parts mapped through the
    memoised ``pack``, so the per-row work is C-level iteration plus one
    table call per sequence or packing.
    """
    if tag == 0:
        return repeat(payload, len(rows))
    if tag == 1:
        return map(itemgetter(payload), rows)
    if tag == 3:
        return map(table.pack, _target_column(*payload, rows, table))
    return map(table.concat, zip(*[_target_column(*part, rows, table) for part in payload]))


def _target_rows(spec: tuple, rows: list, table):
    """The id row *spec* constructs from each register row of *rows*, in order."""
    if not spec:
        return repeat((), len(rows))
    return zip(*[_target_column(*component, rows, table) for component in spec])


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
    """A rule lowered once to its id-space plan, evaluated repeatedly.

    Built from a :class:`~repro.syntax.rules.Rule`: the static body order
    (:func:`~repro.syntax.rules.plan_body_order`, the position space delta
    frontiers and the telescoped maintenance joins index into) is fixed and
    lowered once.  The plan fixes *what* each step checks (constants,
    repeated variables, atomicity, splice cuts); the join *order* is chosen
    greedily from the live relation sizes — smallest probeable source first
    — and cached per delta position and size regime of the sources.
    Equations have no source: each runs as soon as the steps before it have
    bound one of its sides (:func:`~repro.syntax.rules.bind_equations`), a
    nonequality as soon as they have bound both.
    """

    __slots__ = (
        "rule",
        "order",
        "lowering_refusal",
        "head_name",
        "head_components",
        "head_vars",
        "head_step",
        "head_equations",
        "steps",
        "equations",
        "negations",
        "predicate_positions",
        "positions_in_order",
        "_head_index",
        "_orders",
        "_pivoted",
    )

    def __init__(self, rule: Rule, order: "Sequence[Literal] | None" = None):
        self.rule = rule
        #: The static body order; *order* overrides it (a pivoted plan).
        self.order = tuple(plan_body_order(rule) if order is None else order)
        lowered = _lower(rule.head, self.order)
        refused = isinstance(lowered, str)
        #: The registered reason an unsafe rule has no plan, else ``None``;
        #: evaluating the rule raises it.
        self.lowering_refusal: "str | None" = lowered if refused else None
        #: The head as a *matching* step over given head rows — what
        #: :meth:`derivable_rows` leads the join with — and the binding
        #: equations that take apart the head components it could only bind
        #: whole (normalised like a body component, see :func:`_lower`).
        self.steps, self.negations, self.equations, self.head_step, self.head_equations = (
            ((), (), (), None, ()) if refused else lowered
        )
        #: (frontier key, size buckets of the sources) → step order.
        self._orders: dict = {}
        #: Negated position → the plan with that literal flipped positive.
        self._pivoted: "dict[int, CompiledRule]" = {}
        self.head_name = rule.head.name
        self.head_components = tuple(_classify(component) for component in rule.head.components)
        # The distinct head variables in first-appearance order: result rows
        # are projected onto them (and deduplicated) before a constructing
        # head concatenates anything.  ``None`` for a head of lone variables,
        # whose rows are that projection itself.
        head_vars: list = []
        for kind, payload in self.head_components:
            for variable in _component_variables(kind, payload):
                if variable not in head_vars:
                    head_vars.append(variable)
        self.head_vars = tuple(head_vars)
        self._head_index = (
            None
            if all(kind == "var" for kind, _ in self.head_components)
            else {variable: index for index, variable in enumerate(head_vars)}
        )
        #: Every positive-predicate ``(position, relation name)`` pair in
        #: static order, and the same positions by relation name.
        self.positions_in_order = tuple((step.position, step.name) for step in self.steps)
        self.predicate_positions: "dict[str, list[int]]" = {}
        for position, name in self.positions_in_order:
            self.predicate_positions.setdefault(name, []).append(position)

    def pivoted(self, position: int) -> "CompiledRule":
        """The plan of the body with the negated literal at *position* flipped positive.

        Signed maintenance pivots on a changed negated relation: the flipped
        literal is restricted, through the frontier at the same static
        *position*, to the delta rows of that relation, and what the join
        derives (or counts) enters with the opposite sign.  Lowered on first
        use, once per position.
        """
        plan = self._pivoted.get(position)
        if plan is None:
            flipped = list(self.order)
            flipped[position] = flipped[position].negated()
            plan = self._pivoted[position] = CompiledRule(self.rule, flipped)
        return plan

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
                        resolved.append((0, table.element(part)))
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
                        eid = table.element(part)
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
            probe = (groups, key_spec)
        return probe, ops

    # -- execution ------------------------------------------------------------------------

    def _join_order(self, sizes: dict, head_led: bool = False) -> tuple:
        """Greedy order of the steps and equations: prefer a step that can
        probe a hash grouping, breaking ties towards the smallest source
        (*sizes*, per step), and run every equation the variables bound so
        far reach before the next step.  *head_led* orders what follows
        :attr:`head_step`: its variables are bound and its equations join in."""
        pending = list(self.steps)
        equations = list(self.equations)
        bound_vars: set = set()
        if head_led:
            equations += self.head_equations
            bound_vars |= self.head_step.variables
        order = bind_equations(equations, bound_vars)
        while pending:
            best = min(
                pending,
                key=lambda step: (0 if step.probeable(bound_vars) else 1, sizes[step]),
            )
            order.append(best)
            pending.remove(best)
            bound_vars |= best.variables
            order += bind_equations(equations, bound_vars)
        return tuple(order)

    def _join(
        self,
        instance: Instance,
        frontier,
        limits: EvaluationLimits,
        statistics,
        head_view=None,
        negative_sources=None,
        every_variable: bool = False,
    ):
        """Run the body; ``(result rows, variable → register slot)`` or ``None``.

        Steps and equations run in the cached :meth:`_join_order`.  With
        *head_view* — a view of head id rows — the join is restricted to
        those heads: :attr:`head_step` leads, reading only that view, and the
        body runs with the head's variables bound.  *negative_sources* is the
        frontier of the negated predicates: the membership test at an
        overridden static position reads that instance.  *every_variable*
        makes the binding equations keep the variables nothing else reads, so
        the result has one row per valuation of all the rule's variables.
        An unsafe rule raises its :attr:`lowering_refusal` here.
        """
        if self.lowering_refusal is not None:
            raise UnsafeRuleError(self.lowering_refusal)
        table = instance.term_table()
        atomic = table.atomic_flags
        concat = table.concat
        splice = table.splice

        # Resolve every step's source relation (honouring the frontier) and
        # its columnar view up front; any empty source means no derivations.
        views = {}
        for step in self.steps:
            source = instance
            if frontier is not None and step.position in frontier:
                source = frontier[step.position]
            storage = source.storage(step.name)
            if storage is None or not storage:
                return None
            if storage.arity() != step.arity:
                return None
            views[step] = storage.columnar(table)

        # The join order is cached per frontier key and size regime: the
        # power-of-two size bucket of every source.
        key = (
            "head" if head_view is not None else tuple(sorted(frontier)) if frontier else (),
            tuple(len(view.id_rows).bit_length() for view in views.values()),
        )
        order = self._orders.get(key)
        if order is not None:
            if statistics is not None:
                statistics.plan_cache_hits += 1
        else:
            order = self._orders[key] = self._join_order(
                {step: len(view.id_rows) for step, view in views.items()}, head_view is not None
            )
            if statistics is not None:
                statistics.plans_compiled += 1
        if head_view is not None:
            order = (self.head_step, *order)
            views[self.head_step] = head_view
        slots: dict = {}

        max_derivations = limits.max_derivations_per_rule
        rows: list = [()]
        width = 0

        for step in order:
            if step.__class__ is _Equation:
                rows, frees = step.apply(rows, slots, table, limits, every_variable)
                if not rows:
                    return None
                for offset, variable in enumerate(frees):
                    slots[variable] = width + offset
                width += len(frees)
                continue
            view = views[step]
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
                    for current, target in zip(rows, _target_rows(spec, rows, table))
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

            groups = key_kind = key_payload = None
            if probe is not None:
                groups, (key_kind, key_payload) = probe
                if key_kind == 2 and all(t == 0 for t, _ in key_payload):
                    key_kind, key_payload = 0, concat(
                        tuple(p for _, p in key_payload)
                    )

            if key_kind == 1 and len(ops) == 1 and ops[0][0] == _WFREE:
                # The one specialisation: a binary join over whole arguments
                # probes one bound position and emits one free position, with
                # no per-row op dispatch.  Every other shape runs the op loop.
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
            else:
                decomp_cols = {
                    op[1]: view.decomposed(op[1]) for op in ops if op[0] == _LEN
                }
                count = 0
                shared = None
                if probe is not None and key_kind == 0:
                    shared = groups.get(key_payload)
                    shared = () if shared is None else shared
                scan = view.indexes() if probe is None else None
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
        # (never the positive frontier) unless the position is overridden.
        for negation in self.negations:
            source = instance
            if negative_sources is not None and negation.position in negative_sources:
                source = negative_sources[negation.position]
            storage = source.storage(negation.name)
            if storage is None or not storage:
                continue
            if storage.arity() != negation.arity:
                continue
            members = storage.columnar(table).id_row_set
            spec = _target_spec(negation.components, slots, table)
            rows = [
                current
                for current, target in zip(rows, _target_rows(spec, rows, table))
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
        negative_sources=None,
    ) -> set:
        """One id-space application of the rule: the set of head id rows.

        Ids are those of ``instance.term_table()``.  Result rows are
        projected onto the head variables and deduplicated *before* a
        constructing head (``T(@x·@z)``, ``T(@x·a·$y)``) concatenates, so
        each distinct binding builds its path once.
        """
        joined = self._join(
            instance, frontier, limits, statistics, negative_sources=negative_sources
        )
        return self._head_stage(instance, joined)

    def derivable_rows(
        self,
        instance: Instance,
        id_rows: "list[tuple]",
        limits: EvaluationLimits = DEFAULT_LIMITS,
        statistics=None,
        frontier=None,
    ) -> set:
        """The subset of the head *id_rows* one application derives from *instance*.

        One join for the whole set (delete–rederive asks this of everything
        it over-deleted): :attr:`head_step` matches the head against
        *id_rows* and nothing else, so every result row's head is one of them
        by construction and a fact the body needs is only ever read from
        *instance* — or from the *frontier* source of its position (the
        survivors of a relation with hidden rows, a semi-naive delta) —
        never from the set being tested.
        """
        if not id_rows:
            return set()
        head_view = ColumnarView(id_rows, instance.term_table())
        return self._head_stage(
            instance, self._join(instance, frontier, limits, statistics, head_view)
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
        return set(_target_rows(spec, keys, table))

    def derive(
        self,
        instance: Instance,
        frontier=None,
        limits: EvaluationLimits = DEFAULT_LIMITS,
        statistics=None,
        negative_sources=None,
    ) -> set:
        """One id-space application of the rule; returns the derived facts."""
        id_rows = self.head_rows(instance, frontier, limits, statistics, negative_sources)
        name = self.head_name
        return {
            Fact._from_trusted(name, row)
            for row in decode_rows(instance.term_table(), id_rows, limits)
        }

    def derivation_counts(
        self,
        instance: Instance,
        frontier=None,
        limits: EvaluationLimits = DEFAULT_LIMITS,
        statistics=None,
        negative_sources=None,
    ) -> Counter:
        """Each derived head id row with its number of derivations in this application.

        A derivation is a valuation of *all* the rule's variables satisfying
        the body — what counting maintenance keeps per row — so the join
        runs with every equation variable kept and its result rows (one per
        valuation) are tallied by the head id row each constructs.  Nothing
        decodes: a row is decoded where it enters its relation.
        """
        joined = self._join(
            instance,
            frontier,
            limits,
            statistics,
            negative_sources=negative_sources,
            every_variable=True,
        )
        if joined is None:
            return Counter()
        rows, slots = joined
        table = instance.term_table()
        spec = _target_spec(self.head_components, slots, table)
        return Counter(_target_rows(spec, rows, table))


def _normalised(predicate: Predicate, tag: str) -> "tuple[tuple, list[_Equation]]":
    """The components of a *matched* predicate, each one a join step can take apart.

    A component outside the deterministic fragment (:func:`_destructures`) is
    replaced by a fresh whole-argument variable — no parsed name holds a
    ``#``, and *tag* keeps the names of different literals apart — and comes
    back as the binding equation that takes it apart.
    """
    components = [_classify(component) for component in predicate.components]
    equations = []
    for index, component in enumerate(predicate.components):
        if not _destructures(*components[index]):
            whole = PathVariable(f"#{tag}.{index}")
            components[index] = ("var", whole)
            equations.append(_Equation(Literal(Equation(PathExpression((whole,)), component))))
    return tuple(components), equations


def _lower(head: Predicate, order: Sequence[Literal]):
    """Lower *head* ``:-`` *order* into id-space parts, or say why not.

    *order* is the rule's static body order (:attr:`CompiledRule.order`);
    step positions index into it.  Returns ``(steps, negations, equations,
    head step, head equations)``.  Every literal of the language lowers;
    what comes back as a string is a registered reason
    (:mod:`repro.engine.reasons`) naming a variable no positive predicate or
    equation binds — :class:`CompiledRule` raises it as
    :class:`~repro.errors.UnsafeRuleError` when the rule is evaluated.
    """
    steps = []
    negations = []
    equations = []
    for position, literal in enumerate(order):
        atom = literal.atom
        if literal.is_equation():
            equations.append(_Equation(literal))
        elif literal.positive:
            components, binding = _normalised(atom, str(position))
            steps.append(_Step(position, atom, components))
            equations += binding
        else:
            components = tuple(_classify(component) for component in atom.components)
            negations.append(_Constraint(position, atom, components))

    # Safety: the limited variables are those of the steps, closed under the
    # equations in binding order.
    limited: set = set()
    for step in steps:
        limited |= step.variables
    stuck = list(equations)
    bind_equations(stuck, limited)
    if stuck:
        return reason(LOWERING_UNSAFE_EQUATION, f"no side of {stuck[0].literal} becomes bound")
    negated = [literal for literal in order if literal.negative and literal.is_predicate()]
    constructed = [(LOWERING_UNSAFE_NEGATION, literal) for literal in negated]
    constructed.append((LOWERING_UNSAFE_HEAD, head))
    for code, literal in constructed:
        unlimited = sorted(map(str, literal.variables() - limited))
        if unlimited:
            return reason(code, f"{', '.join(unlimited)} of {literal} not limited")

    # A binding equation interns only what another literal (or the head) reads.
    mentions = Counter(head.variables())
    for step in steps:
        mentions.update(step.variables)
    for literal in negated:
        mentions.update(literal.variables())
    for equation in equations:
        mentions.update(equation.atom.variables())
    for equation in equations:
        equation.keep = frozenset(
            variable for variable in equation.atom.variables() if mentions[variable] > 1
        )

    # The head as a matching step reads back every variable it takes apart:
    # the body, run after it, mentions them all (the rule is safe).
    head_components, head_equations = _normalised(head, "head")
    for equation in head_equations:
        equation.keep = frozenset(equation.atom.variables())

    return (
        tuple(steps),
        tuple(negations),
        tuple(equations),
        _Step(-1, head, head_components),
        tuple(head_equations),
    )


def evaluate_rule(
    rule: Rule, instance: Instance, limits: EvaluationLimits = DEFAULT_LIMITS
) -> "set[Fact]":
    """Return the head facts derivable from *instance* by a single application of *rule*."""
    return CompiledRule(rule).derive(instance, limits=limits)


class CompiledStratum(NamedTuple):
    """One stratum of a :class:`CompiledProgram`.

    ``recursive`` — a head relation of the stratum is read by one of its
    bodies — picks how maintenance keeps it: counting derivations when it
    is not, delete–rederive when it is.
    """

    stratum: Stratum
    rules: "tuple[CompiledRule, ...]"
    recursive: bool


class CompiledProgram:
    """A program lowered once: one :class:`CompiledStratum` per stratum, in order.

    It holds no limits, so the same compiled program serves every
    evaluation of :attr:`program`, under any limits, and keeps the join
    orders its plans cached warm between them.
    """

    __slots__ = ("program", "strata")

    def __init__(self, program: Program):
        self.program = program
        self.strata = tuple(
            CompiledStratum(
                stratum,
                tuple(CompiledRule(rule) for rule in stratum),
                bool(stratum.head_relation_names() & stratum.body_relation_names()),
            )
            for stratum in program.strata
        )

    @staticmethod
    def of(program: Program, compiled: "CompiledProgram | None" = None) -> "CompiledProgram":
        """*compiled*, checked to lower *program*; a fresh lowering when ``None``."""
        if compiled is None:
            return CompiledProgram(program)
        if compiled.program is not program:
            raise EvaluationError("the CompiledProgram was lowered from a different program")
        return compiled
