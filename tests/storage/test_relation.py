"""Unit tests for the indexed relation storage layer."""

import pytest

from repro.engine import ProgramQuery
from repro.errors import ModelError
from repro.model import Fact, Instance, Path, path
from repro.parser import parse_program
from repro.storage import Relation
from repro.storage.columnar import ColumnarView


def rows_of(*paths_per_row):
    return {tuple(Path(elements) for elements in row) for row in paths_per_row}


@pytest.fixture
def edges():
    """A binary relation of (source-path, target-path) rows with mixed shapes."""
    relation = Relation()
    for row in rows_of(
        (("a", "b"), ("x",)),
        (("a", "c"), ("y",)),
        (("b", "c"), ("x",)),
        (("c",), ("x",)),
        ((), ("z",)),
    ):
        relation.add(row)
    return relation


def copy_query():
    """``T`` is a copy of the binary ``E``: a binding filters ``T``'s stored rows."""
    return ProgramQuery(
        parse_program("T($x, $y) :- E($x, $y)."), {"E": 2}, "T", require_monadic=False
    )


def edge_instance(edges):
    instance = Instance()
    for row in edges.rows:
        instance.add("E", *row)
    return instance


def scanned(rows, binding):
    return {row for row in rows if all(row[p] == value for p, value in binding.items())}


class TestBindingFilterAgreesWithFullScans:
    """A query binding restricts the output relation exactly as a full scan does."""

    def test_one_bound_position(self, edges):
        query = copy_query()
        instance = edge_instance(edges)
        for position in (0, 1):
            for key in {row[position] for row in edges.rows}:
                result = query.run(instance, binding={position: key})
                assert result.output.relation("T") == scanned(edges.rows, {position: key})

    def test_two_bound_positions(self, edges):
        query = copy_query()
        instance = edge_instance(edges)
        for source in {row[0] for row in edges.rows}:
            for target in {row[1] for row in edges.rows}:
                binding = {0: source, 1: target}
                result = query.run(instance, binding=binding)
                assert result.output.relation("T") == scanned(edges.rows, binding)

    def test_an_unseen_value_matches_nothing_and_interns_nothing(self, edges):
        session = copy_query().session(edge_instance(edges))
        full = session.run().full_instance
        table = full.term_table()
        for binding in ({0: path("q", "q")}, {0: path("a", "b"), 1: path("q")}):
            before = len(table)
            result = session.run(binding=binding)
            assert result.full_instance.term_table() is table
            assert result.output.relation("T") == frozenset()
            assert len(table) == before

    def test_filter_follows_add_and_discard(self, edges):
        session = copy_query().session(edge_instance(edges))
        assert len(session.run(binding={1: path("x")}).output.relation("T")) == 3
        new_row = (path("a", "z"), path("x"))
        session.update([Fact("E", new_row)])
        assert new_row in session.run(binding={1: path("x")}).output.relation("T")
        session.update(retractions=[Fact("E", new_row)])
        after = session.run(binding={1: path("x")}).output.relation("T")
        assert after == scanned(edges.rows, {1: path("x")})
        assert session.run().served_by == "maintained"


class TestViews:
    def test_view_is_cached_between_mutations(self, edges):
        first = edges.view()
        assert edges.view() is first
        edges.add((path("q"), path("q")))
        second = edges.view()
        assert second is not first
        assert len(second) == len(first) + 1
        # The old snapshot is unchanged: callers keep a consistent picture.
        assert len(first) == 5

    def test_adding_an_existing_row_keeps_the_cache(self, edges):
        row = next(iter(edges.rows))
        first = edges.view()
        assert edges.add(row) is False
        assert edges.view() is first

    def test_instance_paths_of_a_unary_relation(self):
        instance = Instance()
        instance.add("R", path("a", "b"))
        instance.add("R", path("c"))
        assert instance.paths("R") == {path("a", "b"), path("c")}
        assert instance.paths("S") == frozenset()

    def test_instance_paths_rejects_binary_rows(self):
        instance = Instance()
        instance.add("E", path("a"), path("b"))
        with pytest.raises(ModelError, match="'E' is not unary"):
            instance.paths("E")

    def test_set_rows_and_clear(self, edges):
        edges.set_rows({(path("a"), path("b"))})
        assert len(edges) == 1
        edges.clear()
        assert not edges
        assert edges.view() == frozenset()


class TestViewLifetime:
    """The columnar view lives until a change it cannot follow by id rows."""

    def test_ineffective_changes_keep_the_view_and_the_generation(self, edges):
        table = Instance().term_table()
        view = edges.columnar(table)
        generation = edges.generation
        assert edges.add(next(iter(edges.rows))) is False
        assert edges.discard((path("missing"), path("missing"))) is False
        assert edges.generation == generation
        assert edges.columnar(table) is view

    def test_a_wholesale_rewrite_drops_the_view(self, edges):
        table = Instance().term_table()
        known = edges.columnar(table).id_row_set
        edges.set_rows({(path("a"), path("b"))})
        assert edges._columnar is None
        rebuilt = edges.columnar(table).id_row_set
        assert rebuilt is not known and rebuilt == {table.intern_row((path("a"), path("b")))}

    def test_clear_drops_the_view(self, edges):
        table = Instance().term_table()
        edges.columnar(table)
        edges.clear()
        assert edges._columnar is None
        assert len(edges.columnar(table)) == 0

    def test_a_copy_has_no_view_and_moves_alone(self, edges):
        table = Instance().term_table()
        view = edges.columnar(table)
        clone = edges.copy()
        assert clone._columnar is None
        clone.add((path("q"), path("q")))
        assert edges.columnar(table) is view
        assert_view_is_fresh(clone, table)

    def test_a_view_built_after_a_change_by_paths_holds_it(self, edges):
        table = Instance().term_table()
        edges.add((path("q"), path("q")))
        view = edges.columnar(table)
        assert table.intern_row((path("q"), path("q"))) in view.id_row_set
        assert_view_is_fresh(edges, table)

    def test_a_row_removed_and_readded_by_id_rows_keeps_the_id_row_set(self, edges):
        table = Instance().term_table()
        known = edges.columnar(table).id_row_set
        row = next(iter(edges.rows))
        ids = [table.intern_row(row)]
        edges.discard_rows({row}, ids, table)
        edges.add_rows({row}, ids, table)
        assert edges.columnar(table).id_row_set is known
        assert_view_is_fresh(edges, table)


class TestMutationPathAudit:
    """Every mutation path must bump generations and drop cached views."""

    def test_discard_invalidates_views(self, edges):
        view = edges.view()
        row = next(iter(edges.rows))
        assert edges.discard(row) is True
        assert edges.view() is not view
        assert row not in edges.view()

    def test_set_rows_invalidates_views(self, edges):
        view = edges.view()
        new_row = (path("z", "z"), path("z"))
        edges.set_rows({new_row})
        assert edges.view() is not view
        assert edges.view() == {new_row}

    def test_clear_empties_instance_paths(self):
        instance = Instance()
        instance.add("R", path("a"))
        assert instance.paths("R") == {path("a")}
        relation = instance.storage("R")
        relation.clear()
        assert instance.paths("R") == frozenset()
        assert relation.generation > 0

    def test_instance_discard_fact_drops_cached_relation_view(self):
        from repro.model import Fact

        instance = Instance()
        instance.add("R", path("a"))
        instance.add("R", path("b"))
        first = instance.relation("R")
        instance.discard_fact(Fact("R", [path("a")]))
        assert instance.relation("R") is not first
        assert instance.relation("R") == {(path("b"),)}
        assert instance.paths("R") == {path("b")}

    def test_instance_discard_fact_removes_empty_relation_by_default(self):
        from repro.model import Fact

        instance = Instance()
        instance.add("R", path("a"))
        instance.discard_fact(Fact("R", [path("a")]))
        assert "R" not in instance.relation_names
        assert instance.relation("R") == frozenset()

    def test_instance_discard_fact_keep_empty_preserves_storage(self):
        from repro.model import Fact

        instance = Instance()
        instance.add("R", path("a"))
        storage = instance.storage("R")
        instance.discard_fact(Fact("R", [path("a")]), keep_empty=True)
        assert "R" in instance.relation_names
        assert instance.storage("R") is storage
        assert instance.relation("R") == frozenset()

    def test_set_relation_rows_creates_and_replaces(self):
        instance = Instance()
        instance.set_relation_rows("R", {(path("a"),)})
        assert instance.paths("R") == {path("a")}
        storage = instance.storage("R")
        instance.set_relation_rows("R", {(path("b"),)})
        assert instance.storage("R") is storage
        assert instance.paths("R") == {path("b")}


class TestInstanceIntegration:
    def test_relation_view_is_cached(self):
        instance = Instance()
        instance.add("R", path("a"))
        first = instance.relation("R")
        assert instance.relation("R") is first
        instance.add("R", path("b"))
        assert instance.relation("R") is not first
        assert instance.relation("R") == {(path("a"),), (path("b"),)}

    def test_paths_follow_every_mutation(self):
        instance = Instance()
        instance.add("R", path("a"))
        first = instance.paths("R")
        instance.add("R", path("b"))
        assert instance.paths("R") == {path("a"), path("b")}
        assert first == {path("a")}

    def test_storage_exposes_relations(self):
        instance = Instance()
        instance.add("R", path("a", "b"))
        instance.add("R", path("b", "c"))
        storage = instance.storage("R")
        assert storage is not None
        assert storage.view() == {(path("a", "b"),), (path("b", "c"),)}
        assert instance.storage("missing") is None


class TestBatchAdds:
    """``add_rows``: what ``add`` does row by row, plus the id rows for the view;
    ``discard_rows`` is its mirror."""

    def test_a_batch_without_id_rows_counts_and_drops_the_view_like_single_adds(self, edges):
        table = Instance().term_table()
        single, batch = edges.copy(), edges.copy()
        for relation in (single, batch):
            relation.columnar(table)
        generation = batch.generation
        new = rows_of((("d",), ("x",)), (("e",), ("y",)))
        for row in new:
            single.add(row)
        batch.add_rows(set(new))
        assert batch.rows == single.rows
        assert batch.generation == generation + 1
        for relation in (single, batch):
            assert relation._columnar is None
            assert_view_is_fresh(relation, table)

    def test_a_single_discard_drops_the_view(self, edges):
        table = Instance().term_table()
        edges.columnar(table)
        edges.discard(next(iter(edges.rows)))
        assert edges._columnar is None
        assert_view_is_fresh(edges, table)

    def test_id_rows_against_another_table_drop_the_view(self, edges):
        table, other = Instance().term_table(), Instance().term_table()
        edges.columnar(table)
        new = list(rows_of((("d",), ("x",))))
        edges.add_rows(set(new), [other.intern_row(row) for row in new], other)
        assert edges._columnar is None
        gone = sorted(edges.rows, key=repr)[:1]
        edges.columnar(table)
        edges.discard_rows(set(gone), [other.intern_row(row) for row in gone], other)
        assert edges._columnar is None
        assert_view_is_fresh(edges, table)

    def test_a_row_already_held_is_refused(self, edges):
        with pytest.raises(ModelError):
            edges.add_rows({next(iter(edges.rows))})

    def test_id_rows_advance_the_cached_view_and_its_row_set(self, edges):
        table = Instance().term_table()
        view = edges.columnar(table)
        known = view.id_row_set
        new = list(rows_of((("d",), ("x",)), (("e",), ("y",))))
        id_rows = [table.intern_row(row) for row in new]
        edges.add_rows(set(new), id_rows, table)
        advanced = edges.columnar(table)
        assert advanced is not view and advanced.id_row_set is known  # moved, not rebuilt
        assert known == {table.intern_row(row) for row in edges.rows}
        assert sorted(advanced.id_rows) == sorted(known)
        assert view.id_row_set == set(view.id_rows) and len(view) == 5  # the old snapshot holds

    def test_id_rows_found_the_view_of_an_empty_relation(self):
        table = Instance().term_table()
        relation = Relation()
        rows = list(rows_of((("a",),), (("b",),)))
        id_rows = [table.intern_row(row) for row in rows]
        relation.add_rows(set(rows), id_rows, table)
        view = relation.columnar(table)
        assert view.id_rows is id_rows
        known = view.id_row_set
        relation.discard_rows({rows[0]}, [id_rows[0]], table)
        assert relation.columnar(table).id_row_set is known == {table.intern_row(rows[1])}

    def test_discard_rows_advances_the_cached_view_by_the_id_rows(self, edges):
        table = Instance().term_table()
        view = edges.columnar(table)
        known = view.id_row_set
        generation = edges.generation
        gone = sorted(edges.rows, key=repr)[:2]
        edges.discard_rows(set(gone), [table.intern_row(row) for row in gone], table)
        assert edges.generation == generation + 1
        advanced = edges.columnar(table)
        assert advanced.id_row_set is known == {table.intern_row(row) for row in edges.rows}
        assert len(advanced) == len(edges) == 3 and len(view) == 5  # the old snapshot holds
        assert_view_is_fresh(edges, table)

    def test_discard_rows_refuses_a_row_not_held(self, edges):
        table = Instance().term_table()
        absent = next(iter(rows_of((("d",), ("x",)))))
        with pytest.raises(ModelError):
            edges.discard_rows({absent}, [table.intern_row(absent)], table)


def assert_view_is_fresh(relation, table):
    """*relation*'s columnar view holds exactly a fresh interning of its rows."""
    view = relation.columnar(table)
    fresh = ColumnarView([table.intern_row(row) for row in relation.rows], table)
    assert sorted(view.id_rows) == sorted(fresh.id_rows)
    assert view.id_row_set == fresh.id_row_set
    for position in range(2):
        grouped, expected = (
            {key: {built.id_rows[i] for i in rows} for key, rows in built.groups(position).items()}
            for built in (view, fresh)
        )
        assert grouped == expected
