"""Unit tests for facts, instances, and schemas."""

import pytest

from repro.errors import ModelError
from repro.model import Fact, Instance, Schema, graph_instance, path, pack, unary_instance


class TestFact:
    def test_fact_equality_and_arity(self):
        fact = Fact("R", [path("a", "b")])
        assert fact.arity == 1
        assert fact == Fact("R", [path("a", "b")])
        assert fact != Fact("S", [path("a", "b")])

    def test_nullary_fact(self):
        fact = Fact("A")
        assert fact.arity == 0
        assert str(fact) == "A"

    def test_flatness(self):
        assert Fact("R", [path("a")]).is_flat()
        assert not Fact("R", [path(pack("a"))]).is_flat()


class TestInstance:
    def test_add_and_contains(self):
        instance = Instance()
        instance.add("R", path("a", "b"))
        assert instance.contains("R", path("a", "b"))
        assert not instance.contains("R", path("b", "a"))
        assert instance.fact_count() == 1

    def test_adding_is_idempotent(self):
        instance = Instance()
        instance.add("R", path("a"))
        instance.add("R", path("a"))
        assert instance.fact_count() == 1

    def test_arity_consistency_enforced(self):
        instance = Instance()
        instance.add("R", path("a"))
        with pytest.raises(ModelError):
            instance.add("R", path("a"), path("b"))

    def test_extensional_equality(self):
        first = unary_instance("R", ["ab", "a"])
        second = Instance()
        second.add("R", path("a", "b"))
        second.add("R", path("a"))
        assert first == second

    def test_paths_view_requires_unary(self):
        instance = Instance()
        instance.add("D", path("q"), path("a"), path("r"))
        with pytest.raises(ModelError):
            instance.paths("D")

    def test_restricted_and_union(self):
        instance = unary_instance("R", ["a"])
        instance.add("S", path("b"))
        only_r = instance.restricted(["R"])
        assert only_r.relation_names == frozenset({"R"})
        merged = only_r.union(instance.restricted(["S"]))
        assert merged == instance

    def test_flat_and_classical(self):
        flat = unary_instance("R", ["ab"])
        assert flat.is_flat() and not flat.is_classical()
        classical = unary_instance("R", ["a"])
        assert classical.is_classical()
        packed = Instance()
        packed.add("R", path(pack("a")))
        assert not packed.is_flat()

    def test_schema_and_max_path_length(self):
        instance = graph_instance("E", [("a", "b"), ("b", "c")])
        instance.add("Start", path("a"))
        schema = instance.schema()
        assert schema["E"] == 1 and schema["Start"] == 1
        assert instance.max_path_length() == 2

    def test_renamed(self):
        instance = unary_instance("R", ["a"])
        renamed = instance.renamed({"R": "Q"})
        assert renamed.contains("Q", path("a"))
        assert not renamed.contains("R", path("a"))

    def test_graph_instance_encodes_edges_as_length_two_paths(self):
        graph = graph_instance("R", [("a", "b")])
        assert graph.contains("R", path("a", "b"))


class TestSchema:
    def test_monadic(self):
        assert Schema({"R": 1, "A": 0}).is_monadic()
        assert not Schema({"D": 3}).is_monadic()

    def test_extended_conflict(self):
        with pytest.raises(ModelError):
            Schema({"R": 1}).extended({"R": 2})

    def test_restricted_unknown_relation(self):
        with pytest.raises(ModelError):
            Schema({"R": 1}).restricted(["S"])

    def test_mapping_protocol(self):
        schema = Schema({"R": 1, "S": 2})
        assert set(schema) == {"R", "S"}
        assert schema.arity("S") == 2
        assert "R" in schema and "T" not in schema


class TestSharedCopy:
    """``shared_copy`` reads the base's relations in place and copies only the named ones."""

    def test_unnamed_relations_are_the_same_objects(self):
        base = unary_instance("R", ["a"])
        base.add("S", path("b"))
        clone = base.shared_copy(["S"])
        assert clone.storage("R") is base.storage("R")
        assert clone.storage("S") is not base.storage("S")
        assert clone == base

    def test_a_change_to_a_shared_relation_is_seen_through_both(self):
        base = unary_instance("R", ["a"])
        clone = base.shared_copy([])
        clone.add("R", path("b"))
        base.discard_fact(Fact("R", [path("a")]), keep_empty=True)
        assert base.paths("R") == clone.paths("R") == {path("b")}

    def test_a_copied_relation_moves_alone(self):
        base = unary_instance("R", ["a"])
        clone = base.shared_copy(["R"])
        clone.add("R", path("b"))
        base.add("R", path("c"))
        assert base.paths("R") == {path("a"), path("c")}
        assert clone.paths("R") == {path("a"), path("b")}

    def test_a_relation_absent_from_the_base_is_written_only_in_the_copy(self):
        base = unary_instance("R", ["a"])
        clone = base.shared_copy(["T"])
        assert "T" not in clone.relation_names
        clone.add("T", path("t"))
        assert "T" not in base.relation_names
        assert clone.paths("T") == {path("t")}

    def test_the_term_table_is_created_on_the_base_and_shared(self):
        base = unary_instance("R", ["a"])
        first, second = base.shared_copy([]), base.shared_copy(["R"])
        table = base.term_table()
        assert first.term_table() is table and second.term_table() is table

    def test_a_shared_relation_shares_its_columnar_view(self):
        base = unary_instance("R", ["a", "b"])
        clone = base.shared_copy([])
        table = base.term_table()
        view = base.storage("R").columnar(table)
        assert clone.storage("R").columnar(clone.term_table()) is view

    def test_a_plain_copy_shares_the_term_table_but_no_view(self):
        base = unary_instance("R", ["a"])
        table = base.term_table()
        base.storage("R").columnar(table)
        clone = base.copy()
        assert clone.term_table() is table
        assert clone.storage("R")._columnar is None
