"""The columnar view of a relation advances by the delta, in both directions.

A :class:`~repro.storage.Relation` keeps one id-space view alive across its
generations: the additions and removals pending since the last read patch
what the view has built instead of rebuilding it.  Whatever the relation went
through, and however many operations the view fell behind, the advanced view
must be indistinguishable from one built from scratch over the current rows.
And the view it advanced from must stay one over *its* rows: advancing moves
the membership set and the columns but copies every grouping, replacing the
buckets the delta touches instead of patching them in place.
"""

from hypothesis import given, settings, strategies as st

from repro.io.serialization import encode_answer, memoised_answer
from repro.model import Instance, Path
from repro.storage import ColumnarView, Relation, TermTable

PATHS = [
    Path(elements)
    for elements in [(), ("a",), ("b",), ("c",), ("a", "b"), ("b", "a"), ("a", "b", "c")]
]
ROWS = st.tuples(st.sampled_from(PATHS), st.sampled_from(PATHS))
#: What a step may ask the live view to build (and the check then compares).
STRUCTURES = ("row_set", "columns", "groups", "element_groups", "element_joins")

#: ``(operation, read the view after it?, structures to build and compare)``:
#: a step that skips the read lets the view fall behind by its delta.
STEPS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("add"), ROWS),
            st.tuples(st.just("discard"), ROWS),
            st.tuples(st.just("add_rows"), st.sets(ROWS, min_size=1, max_size=4)),
            st.tuples(st.just("set_rows"), st.sets(ROWS, max_size=4)),
            st.tuples(st.just("clear"), st.none()),
        ),
        st.booleans(),
        st.sets(st.sampled_from(STRUCTURES)),
    ),
    min_size=1,
    max_size=25,
)


def rows_by_key(view, grouped):
    """A grouping of row indexes as ``key → set of id rows``."""
    return {key: {view.id_rows[index] for index in bucket} for key, bucket in grouped.items()}


def assert_same(view, relation, table, structures):
    """*view* against a view rebuilt over the relation's current rows."""
    rebuilt = ColumnarView([table.intern_row(row) for row in relation.rows], table)
    assert len(view.id_rows) == len(rebuilt.id_rows) == len(view)
    assert set(view.id_rows) == set(rebuilt.id_rows)
    if "row_set" in structures:
        assert view.id_row_set == rebuilt.id_row_set
    for position in (0, 1):
        if "columns" in structures:
            assert list(view.column(position)) == [row[position] for row in view.id_rows]
            assert view.decomposed(position) == [
                table.elements(row[position]) for row in view.id_rows
            ]
        if "groups" in structures:
            assert rows_by_key(view, view.groups(position)) == rows_by_key(
                rebuilt, rebuilt.groups(position)
            )
        if "element_groups" in structures:
            for grouping in ("first_groups", "last_groups"):
                assert rows_by_key(view, getattr(view, grouping)(position)) == rows_by_key(
                    rebuilt, getattr(rebuilt, grouping)(position)
                )
        if "element_joins" in structures:
            joined = view.element_join_groups(position, 2, 0, -1)
            expected = rebuilt.element_join_groups(position, 2, 0, -1)
            assert {key: sorted(bucket) for key, bucket in joined.items()} == {
                key: sorted(bucket) for key, bucket in expected.items()
            }


@given(steps=STEPS)
@settings(max_examples=150, deadline=None)
def test_the_advanced_view_equals_a_rebuilt_one_after_every_step(steps):
    table = Instance().term_table()
    relation = Relation()
    relation.columnar(table)
    for (verb, argument), read, structures in steps:
        if verb == "add_rows":
            fresh = argument - relation.rows
            if fresh:
                relation.add_rows(fresh, [table.intern_row(row) for row in fresh], table)
        elif verb == "clear":
            relation.clear()
        else:
            getattr(relation, verb)(argument)
        if read:
            assert_same(relation.columnar(table), relation, table, structures)
    assert_same(relation.columnar(table), relation, table, STRUCTURES)


def test_a_view_read_after_every_single_row_change_is_never_rebuilt():
    """However long a relation lives, single-row changes keep advancing its
    one view: no count of changes makes the next read start over."""
    table = Instance().term_table()
    relation = Relation([(Path((f"r{index}",)),) for index in range(50)])
    known = relation.columnar(table).id_row_set
    extra = [(Path((f"x{index}",)),) for index in range(5)]
    for step in range(8200):
        if step % 2:
            relation.discard(extra[step // 2 % 5])
        else:
            relation.add(extra[step // 2 % 5])
        assert relation.columnar(table).id_row_set is known
    assert known == {table.intern_row(row) for row in relation.rows}


def test_a_removal_keeps_what_was_built_and_the_old_snapshot():
    table = Instance().term_table()
    relation = Relation([(path, PATHS[1]) for path in PATHS])
    view = relation.columnar(table)
    known, grouped = view.id_row_set, view.groups(1)
    view.first_groups(0)
    relation.discard((PATHS[0], PATHS[1]))
    relation.discard((PATHS[4], PATHS[1]))
    advanced = relation.columnar(table)
    assert advanced is not view
    assert advanced.id_row_set is known  # moved, then patched
    assert view.groups(1) is grouped and advanced.groups(1) is not grouped  # copied
    assert_same(advanced, relation, table, STRUCTURES)
    # the view it advanced from still describes the rows it was built over
    assert len(view) == len(PATHS) and view.id_row_set == set(view.id_rows)
    assert rows_by_key(view, view.groups(1)) == {table.intern(PATHS[1]): set(view.id_rows)}


def all_groupings(view):
    """Every grouping *view* has built, as ``(kind, key) → key → sorted bucket``."""
    kinds = {
        "groups": view._groups,
        "first_groups": view._first_groups,
        "last_groups": view._last_groups,
        "element_join_groups": view._element_joins,
    }
    return {
        (kind, key): {value: sorted(bucket) for value, bucket in grouped.items()}
        for kind, built in kinds.items()
        for key, grouped in built.items()
    }


def fresh_groupings(view, built):
    """The groupings *built* names, each built afresh over *view*'s ``id_rows``."""
    fresh = ColumnarView(list(view.id_rows), view.table)
    rebuilt = {}
    for kind, key in built:
        grouped = getattr(fresh, kind)(*(key if isinstance(key, tuple) else (key,)))
        rebuilt[kind, key] = {value: sorted(bucket) for value, bucket in grouped.items()}
    return rebuilt


#: Single-row and batch changes, emptying, and refills at arity 1 and 3.
WIDE_ROWS = st.one_of(
    ROWS, st.tuples(st.sampled_from(PATHS)), st.tuples(*[st.sampled_from(PATHS)] * 3)
)


@given(
    operations=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(("add", "discard")), ROWS),
            st.tuples(st.just("add_rows"), st.sets(ROWS, min_size=1, max_size=4)),
            st.tuples(st.just("empty"), st.none()),
            st.tuples(st.just("refill"), st.sets(WIDE_ROWS, min_size=1, max_size=3)),
        ),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=150, deadline=None)
def test_every_earlier_view_keeps_the_groupings_of_its_own_rows(operations):
    """Whatever advances follow, each view read on the way keeps its rows and
    every grouping it had built, equal to a fresh build over those rows."""
    table = Instance().term_table()
    relation = Relation()
    earlier = []
    for verb, argument in operations:
        if verb == "add_rows":
            fresh = argument - relation.rows
            if fresh and relation.arity() in (None, 2):
                relation.add_rows(fresh, [table.intern_row(row) for row in fresh], table)
        elif verb == "empty":
            for row in list(relation.rows):
                relation.discard(row)
        elif verb == "refill":
            arity = relation.arity()
            for row in argument:
                if arity is None or len(row) == arity:
                    relation.add(row)
                    arity = len(row)
        else:
            if verb == "discard" or relation.arity() in (None, 2):
                getattr(relation, verb)(argument)
        view = relation.columnar(table)
        for position in range(len(view.id_rows[0]) if view.id_rows else 0):
            view.groups(position)
            view.first_groups(position)
            view.last_groups(position)
            view.element_join_groups(position, 2, 0, -1)
        earlier.append((view, list(view.id_rows), all_groupings(view)))
    for view, rows, built in earlier:
        assert view.id_rows == rows
        assert all_groupings(view) == built == fresh_groupings(view, built)


def test_a_relation_refilled_at_another_arity_starts_its_view_over():
    table = Instance().term_table()
    relation = Relation([(PATHS[1], PATHS[2])])
    relation.columnar(table).groups(1)
    relation.discard((PATHS[1], PATHS[2]))
    relation.add((PATHS[3],))
    view = relation.columnar(table)
    assert view.id_rows == [table.intern_row((PATHS[3],))]
    assert rows_by_key(view, view.groups(0)) == {table.intern(PATHS[3]): set(view.id_rows)}


def test_every_new_view_starts_with_an_empty_memo_and_an_old_one_keeps_its_own():
    """The encoded-answer memo needs no reset: every change of rows is a new view."""
    table = Instance().term_table()
    relation = Relation([(PATHS[1], PATHS[2]), (PATHS[2], PATHS[3])])
    row = (PATHS[1], PATHS[5])
    changes = {
        "advanced by an addition": lambda: relation.add((PATHS[3], PATHS[4])),
        "advanced by a removal": lambda: relation.discard((PATHS[1], PATHS[2])),
        "emptied": lambda: [relation.discard(held) for held in list(relation.rows)],
        "advanced from empty": lambda: relation.add((PATHS[4], PATHS[6])),
        "rebuilt": lambda: relation.set_rows({(PATHS[1], PATHS[2]), (PATHS[1], PATHS[3])}),
        "founded": lambda: (
            relation.clear(),
            relation.add_rows({row}, [table.intern_row(row)], table),
        ),
    }
    held = []
    for change in [None, *changes]:
        if change is not None:
            changes[change]()
        view = relation.columnar(table)
        assert all(view is not old for old, _ in held), change
        assert view.answers == {}, change
        for binding in ({}, {0: PATHS[1]}, {1: PATHS[0]}):
            memoised_answer(view.answers, binding, view.select)
        held.append((view, dict(view.answers)))
    for view, memo in held:
        assert view.answers == memo
        for key, answer in memo.items():
            assert answer == encode_answer(view.select(dict(key)))


def test_a_second_term_table_gets_a_view_of_its_own():
    table, other = Instance().term_table(), TermTable([PATHS[6], PATHS[5]])
    relation = Relation([(path, PATHS[1]) for path in PATHS])
    first = relation.columnar(table)
    relation.discard((PATHS[2], PATHS[1]))
    second = relation.columnar(other)
    assert second.table is other and second is not first
    assert_same(second, relation, other, STRUCTURES)
    assert_same(relation.columnar(table), relation, table, STRUCTURES)  # and back: rebuilt again


def replay(relation, operations):
    for verb, argument in operations:
        if verb == "rewrite":
            relation.set_rows(argument)
        else:
            getattr(relation, verb)(argument)


@given(
    operations=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(("add", "discard")), ROWS),
            st.tuples(st.just("rewrite"), st.sets(ROWS, max_size=3)),
        ),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_changes_since_is_the_net_difference_from_every_mark(operations):
    """Whenever the view was last read — its mark — the pending delta is the
    difference between the rows now and the rows at the mark, with a row's
    alternating operations netted out; a wholesale rewrite after the mark
    leaves no delta, because it dropped the view."""
    table = Instance().term_table()
    for mark in range(len(operations) + 1):
        relation = Relation()
        replay(relation, operations[:mark])
        relation.columnar(table)
        rows = frozenset(relation.rows)
        replay(relation, operations[mark:])
        now = frozenset(relation.rows)
        pending = relation._pending
        if any(verb == "rewrite" for verb, _ in operations[mark:]):
            assert pending is None
        else:
            added = {row for row, is_added in pending.items() if is_added}
            removed = {row for row, is_added in pending.items() if not is_added}
            assert (added, removed) == (now - rows, rows - now)
        assert_same(relation.columnar(table), relation, table, ("row_set",))


def test_the_table_packs_and_wraps_values_as_canonical_ids():
    """``element`` and ``pack`` name length-one paths, memoised and canonical:
    the id a join constructs equals the id the same path interns to."""
    from repro.model import Packed

    table = TermTable()
    inner = table.intern(Path(("a", "b")))
    packed = table.pack(inner)
    assert table.path(packed) == Path((Packed(Path(("a", "b"))),))
    assert table.pack(inner) == packed == table.intern(Path((Packed(Path(("a", "b"))),)))
    assert not table.is_atomic(packed) and table.is_atomic(table.element("a"))
    assert table.element(Packed(Path(("a", "b")))) == packed
    whole = table.intern(Path(("a", Packed(Path(("a", "b"))))))
    assert table.elements(whole) == (table.element("a"), packed)
    assert table.pack(table.intern(Path(()))) == table.intern(Path((Packed(Path(())),)))
