"""Tests for subsumption-based tabling of adorned subgoals.

Covers the table mechanics (seed subsumption ordering, absorption by more
general entries, the LRU bound, the seed index agreeing with a scan), the
session integration (tabled serving, incremental maintenance of entries,
eviction on unsupported updates), the relaxed expanding-magic-recursion
boundary — a recursive single-source reachability goal whose adornment used
to record an expanding-recursion ``fallback_reason`` now runs goal-directed
through a generalized, tabled rewriting — and the counter gate on repeated
overlapping goal streams against per-goal magic evaluation.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import AnswerTable, ProgramQuery, QuerySession, TableEntry, apply_delta
from repro.errors import MaintenanceUnsupportedError, SubgoalTableError
from repro.model import Fact, Instance, path
from repro.parser import parse_program
from repro.workloads import (
    as_edge_pairs,
    layered_graph_instance,
    low_overlap_goal_stream,
    prefix_tree_instance,
)

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

#: Single-source reachability in a prefix hierarchy: node identifiers are
#: paths, the implicit edges go from each node to its one-letter extensions,
#: and ``D($s, $t)`` holds when the valid node ``$t`` is reachable from
#: (i.e. a descendant-or-self of) ``$s``.  Binding the source makes the
#: recursion *extend* the bound argument — the shape the expanding-magic-
#: recursion check refuses.  ``Pairs`` is deliberately un-demanded ballast:
#: goal-directed runs must not evaluate it.
DESCENDANTS = """
D($t, $t) :- N($t).
D($s, $t) :- D($s.a, $t).
D($s, $t) :- D($s.b, $t).
Pairs($x, $y) :- N($x), N($y).
"""


def pair_query(**overrides):
    options = dict(require_monadic=False)
    options.update(overrides)
    return ProgramQuery(parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", **options)


def line_instance(length=6):
    instance = Instance()
    nodes = ["a"] + [f"n{i}" for i in range(1, length)]
    for source, target in zip(nodes, nodes[1:]):
        instance.add("E", source, target)
    return instance


def edge(source, target):
    return Fact("E", (path(source), path(target)))


class StubFixpoint:
    """A fixpoint stand-in for the table mechanics: no answers, and no
    maintenance, so an update that reaches its entry evicts it."""

    def __init__(self):
        self.materialized = Instance()

    def update(self, change, *, statistics=None):
        raise MaintenanceUnsupportedError("a stand-in fixpoint is not maintained")


def stub_entry(positions, values, relation="T"):
    return TableEntry(relation, positions, values, None, StubFixpoint())


class TestTableMechanics:
    def test_exact_repeat_is_a_hit(self):
        table = AnswerTable()
        table.insert(stub_entry((0,), (path("a"),)))
        hit = table.lookup((0,), {0: path("a")})
        assert hit is not None and hit.hits == 1
        assert table.lookup((0,), {0: path("b")}) is None

    def test_more_general_entry_serves_more_specific_calls(self):
        table = AnswerTable()
        table.insert(stub_entry((0,), (path("a"),)))
        # Bound goal {0: a} subsumes {0: a, 1: b} but not {0: b, 1: b}.
        assert table.lookup((0, 1), {0: path("a"), 1: path("b")}) is not None
        assert table.lookup((0, 1), {0: path("b"), 1: path("b")}) is None
        # The all-free entry subsumes everything.
        table.insert(stub_entry((), ()))
        assert table.lookup((0, 1), {0: path("b"), 1: path("b")}) is not None

    def test_lookup_prefers_the_most_specific_subsuming_entry(self):
        table = AnswerTable()
        table.insert(stub_entry((), ()))
        specific = stub_entry((0,), (path("a"),))
        table.insert(specific)
        assert table.lookup((0, 1), {0: path("a"), 1: path("b")}) is specific

    def test_general_entry_absorbs_the_entries_it_subsumes(self):
        table = AnswerTable()
        table.insert(stub_entry((0,), (path("a"),)))
        table.insert(stub_entry((0,), (path("b"),)))
        table.insert(stub_entry((0, 1), (path("a"), path("c"))))
        absorbed = table.insert(stub_entry((), ()))
        assert len(absorbed) == 3 and len(table) == 1

    def test_incomparable_seeds_coexist(self):
        table = AnswerTable()
        table.insert(stub_entry((0,), (path("a"),)))
        absorbed = table.insert(stub_entry((0,), (path("b"),)))
        assert not absorbed and len(table) == 2

    def test_lru_bound_evicts_the_coldest_entry(self):
        table = AnswerTable(max_entries=2)
        table.insert(stub_entry((0,), (path("a"),)))
        table.insert(stub_entry((0,), (path("b"),)))
        table.lookup((0,), {0: path("a")})  # touch "a": "b" is now coldest
        table.insert(stub_entry((0,), (path("c"),)))
        assert len(table) == 2
        assert table.lookup((0,), {0: path("b")}) is None
        assert table.lookup((0,), {0: path("a")}) is not None

    def test_invalid_entries_are_rejected(self):
        with pytest.raises(SubgoalTableError, match="line up"):
            stub_entry((0, 1), (path("a"),))
        with pytest.raises(SubgoalTableError, match="sorted"):
            stub_entry((1, 0), (path("a"), path("b")))
        with pytest.raises(SubgoalTableError, match="room"):
            AnswerTable(max_entries=0)


class TestSessionTabling:
    def test_subsumed_goal_served_from_a_more_general_entry(self):
        query = pair_query()
        session = query.session(line_instance())
        first = session.run(binding={0: "a"}, mode="goal")
        assert first.served_by == "goal"
        # The same-source pair membership call is subsumed by the tabled goal.
        second = session.run(binding={0: "a", 1: "n3"}, mode="goal")
        assert second.served_by == "tabled" and second.mode == "goal"
        reference = query.run(line_instance(), binding={0: "a", 1: "n3"})
        assert second.output == reference.output

    def test_entries_are_maintained_through_updates(self):
        instance = line_instance()
        expected = instance.copy()
        query = pair_query()
        session = query.session(instance)
        assert session.run(binding={0: "a"}, mode="goal").served_by == "goal"
        update = session.update(
            additions=[edge("n3", "a")], retractions=[edge("a", "n1")]
        )
        expected.discard_fact(edge("a", "n1"))
        expected.add_fact(edge("n3", "a"))
        assert update.maintained and update.fallback_reason is None
        result = session.run(binding={0: "a"}, mode="goal")
        assert result.served_by == "tabled"
        assert result.output == query.run(expected, binding={0: "a"}).output

    def test_a_restored_entry_is_maintained_through_updates(self, oracle_output):
        instance = line_instance()
        expected = instance.copy()
        query = pair_query()
        session = query.session(instance)
        session.run(binding={0: "a"}, mode="goal")
        state = session.export_state()
        restored = QuerySession.restore(query, state)
        update = restored.update(additions=[edge("n3", "a")], retractions=[edge("a", "n1")])
        expected.discard_fact(edge("a", "n1"))
        expected.add_fact(edge("n3", "a"))
        assert update.maintained and update.fallback_reason is None
        result = restored.run(binding={0: "a"}, mode="goal")
        assert result.served_by == "tabled"
        assert result.output == oracle_output(query, expected, {0: "a"})
        assert restored._tables.evictions == []
        assert [sorted(stored) for stored in state["table"]] == [["positions", "values"]]

    def test_a_restored_materialization_re_tables_no_seed(self):
        query = pair_query()
        tabled = query.session(line_instance())
        tabled.run(binding={0: "a"}, mode="goal")
        materialized = query.session(line_instance())
        materialized.run()
        state = {**materialized.export_state(), "table": tabled.export_state()["table"]}
        restored = QuerySession.restore(query, state)
        assert len(restored._tables) == 0
        assert restored.run(binding={0: "a"}, mode="goal").served_by == "maintained"

    def test_update_through_a_negated_relation_maintains_the_entry(self):
        # set_difference negates the EDB relation Q: an update touching Q
        # used to evict the tabled entry; signed maintenance now threads the
        # delta through the negated literal and keeps serving from the table.
        from repro.model import unary_instance
        from repro.queries import get_query

        query = get_query("set_difference").make_query()
        instance = unary_instance("R", ["ab", "ba"])
        instance.add("Q", path(*"ba"))
        session = query.session(instance)
        first = session.run(binding={0: path(*"ab")}, mode="goal")
        assert first.served_by == "goal" and first.paths() == {path(*"ab")}
        update = session.update(additions=[Fact("Q", [path(*"ab")])])
        assert update.maintained and update.fallback_reason is None
        assert len(session._tables) == 1
        second = session.run(binding={0: path(*"ab")}, mode="goal")
        assert second.served_by == "tabled" and second.paths() == frozenset()

    def test_a_second_miss_interns_no_base_row(self, monkeypatch):
        from repro.storage.columnar import TermTable

        instance = line_instance()
        edges = set(instance.relation("E"))
        interned = []
        intern_row = TermTable.intern_row

        def counting_intern_row(table, row):
            interned.append(row)
            return intern_row(table, row)

        monkeypatch.setattr(TermTable, "intern_row", counting_intern_row)
        session = pair_query().session(instance)
        assert session.run(binding={0: "a"}, mode="goal").served_by == "goal"
        assert sum(row in edges for row in interned) == len(edges)  # once, on the base
        interned.clear()
        second = session.run(binding={0: "n2"}, mode="goal")
        assert second.served_by == "goal" and len(session._tables) == 2
        assert not [row for row in interned if row in edges]

    def test_one_shot_sessions_do_not_table(self):
        session = pair_query().session(line_instance(), memoize=False)
        assert session.run(binding={0: "a"}, mode="goal").served_by == "goal"
        assert session.run(binding={0: "a"}, mode="goal").served_by == "goal"

    def test_full_materialization_supersedes_the_table(self):
        session = pair_query().session(line_instance())
        session.run(binding={0: "a"}, mode="goal")
        session.run()  # materializes the full fixpoint
        result = session.run(binding={0: "a"}, mode="goal")
        assert result.served_by == "maintained" and result.mode == "goal"


class TestGeneralizedGoals:
    """The relaxed expanding-magic-recursion boundary (acceptance criterion)."""

    def descendants_query(self):
        return ProgramQuery(
            parse_program(DESCENDANTS), {"N": 1}, "D", require_monadic=False
        )

    def test_bound_source_adornment_is_still_refused_without_generalization(self):
        from repro.errors import ExpandingMagicRecursionError
        from repro.transform import magic_rewrite

        with pytest.raises(ExpandingMagicRecursionError, match="grow paths"):
            magic_rewrite(parse_program(DESCENDANTS), "D", "bf")

    def test_previously_refused_goal_now_runs_goal_directed(self):
        query = self.descendants_query()
        instance = prefix_tree_instance(depth=4, seed=3)
        source = {0: path("a", "b")}
        full = query.run(instance, binding=source, mode="full")
        goal = query.run(instance, binding=source, mode="goal")
        assert goal.mode == "goal" and goal.fallback_reason is None
        assert goal.output == full.output
        # The un-demanded Pairs cross product is never evaluated.
        assert goal.statistics.extension_attempts < full.statistics.extension_attempts
        assert not goal.full_instance.relation("Pairs")

    def test_generalized_rewriting_records_the_requested_adornment(self):
        query = self.descendants_query()
        compiled, reason = query.goal_program({0: path("a")})
        assert reason is None and compiled.generalized
        assert compiled.requested_adornment.suffix() == "bf"
        assert compiled.adornment.suffix() == "ff"

    def test_repeats_and_subsumed_goals_hit_the_generalized_entry(self):
        query = self.descendants_query()
        instance = prefix_tree_instance(depth=4, seed=3)
        session = query.session(instance)
        first = session.run(binding={0: path("a", "b")}, mode="goal")
        assert first.served_by == "goal"
        # The generalized (all-free) entry subsumes every other source.
        for source in (path("a", "b"), path("a"), path("b", "b")):
            result = session.run(binding={0: source}, mode="goal")
            assert result.served_by == "tabled" and result.mode == "goal"
            assert result.output == query.run(instance, binding={0: source}).output

    def test_constant_fed_expansion_still_falls_back_with_reason(self):
        # only_as_air's bound goal expands through a constant even from the
        # all-free goal adornment: the narrowed boundary still refuses it and
        # the query layer records the reason.
        from repro.queries import get_query

        query = get_query("only_as_air").make_query()
        instance = Instance({"R": ["aa", "ab"]})
        result = query.run(instance, binding={0: path("a", "a")}, mode="goal")
        assert result.mode == "full"
        assert "grow paths without bound" in result.fallback_reason
        assert result.paths() == query.run(instance).paths() & {path("a", "a")}


class TestGeneralizationCostModel:
    """Oversized generalized entries are refused by the tabling cost model."""

    def descendants_query(self):
        return ProgramQuery(
            parse_program(DESCENDANTS), {"N": 1}, "D", require_monadic=False
        )

    def test_oversized_generalized_entry_falls_back_with_reason(self):
        query = self.descendants_query()
        instance = prefix_tree_instance(depth=4, seed=3)
        session = query.session(instance.copy(), generalization_limit=1.0)
        result = session.run(binding={0: path("a", "b")}, mode="goal")
        assert result.mode == "full"
        assert result.fallback_reason.startswith("generalization_too_large")
        assert len(session._tables) == 0  # the oversized entry was never tabled
        expected = query.run(instance, binding={0: path("a", "b")})
        assert result.output == expected.output

    def test_disabled_limit_always_tables(self):
        query = self.descendants_query()
        instance = prefix_tree_instance(depth=4, seed=3)
        session = query.session(instance, generalization_limit=None)
        result = session.run(binding={0: path("a", "b")}, mode="goal")
        assert result.served_by == "goal" and result.fallback_reason is None
        assert len(session._tables) == 1

    def test_default_limit_keeps_small_instances_goal_directed(self):
        query = self.descendants_query()
        session = query.session(prefix_tree_instance(depth=4, seed=3))
        result = session.run(binding={0: path("a", "b")}, mode="goal")
        assert result.served_by == "goal" and result.fallback_reason is None

    def test_selective_slice_on_a_deep_tree_trips_the_default(self):
        # ~300 nodes, and the requested source (the tree's deepest leaf)
        # appears in exactly one of them: the all-free generalized sweep is
        # hundreds of times the requested slice.
        query = self.descendants_query()
        instance = prefix_tree_instance(depth=9, seed=3)
        session = query.session(instance.copy())
        binding = {0: path("b", "b", "b", "b", "a", "b", "b", "b", "b")}
        result = session.run(binding=binding, mode="goal")
        assert result.fallback_reason is not None
        assert result.fallback_reason.startswith("generalization_too_large")
        assert result.output == query.run(instance, binding=binding).output

    def test_exact_adornments_ignore_the_limit(self):
        session = pair_query().session(line_instance(), generalization_limit=0.001)
        result = session.run(binding={0: "a"}, mode="goal")
        assert result.served_by == "goal" and result.fallback_reason is None

    def test_one_shot_runs_never_consult_the_model(self):
        # memoize=False never tables, so there is no entry to refuse.
        query = self.descendants_query()
        instance = prefix_tree_instance(depth=4, seed=3)
        session = query.session(instance, memoize=False, generalization_limit=1.0)
        result = session.run(binding={0: path("a", "b")}, mode="goal")
        assert result.mode == "goal" and result.fallback_reason is None



def scan_lookup(table, positions, binding):
    """The entry a linear scan picks: the first most specific one subsuming the call."""
    best = None
    for entry in table:
        if entry.subsumes(positions, binding):
            if best is None or len(entry.positions) > len(best.positions):
                best = entry
    return best


def key(entry):
    return entry.positions, entry.values


class ScanTable:
    """The answer table as a scan: an insert tries every entry for absorption,
    an eviction takes the entry with the smallest use stamp."""

    def __init__(self, capacity):
        self.capacity, self.entries, self.used, self.clock = capacity, [], {}, 0

    def touch(self, entry):
        self.clock += 1
        self.used[key(entry)] = self.clock

    def insert(self, seed):
        entry = stub_entry(*seed)
        absorbed = [e for e in self.entries if entry.subsumes(e.positions, e.seed_binding())]
        for gone in absorbed:
            self.entries.remove(gone)
            del self.used[key(gone)]
        self.entries.append(entry)
        self.touch(entry)
        while len(self.entries) > self.capacity:
            coldest = min(self.entries, key=lambda e: self.used[key(e)])
            self.entries.remove(coldest)
            del self.used[key(coldest)]
        return absorbed

    def lookup(self, positions, binding):
        best = scan_lookup(self.entries, positions, binding)
        if best is not None:
            self.touch(best)
        return best


SHAPES = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
VALUES = [path("a"), path("b")]
PROBE_VALUES = [(path("a"),) * 3, (path("b"),) * 3, (path("a"), path("b"), path("a"))]

seeds = st.tuples(
    st.sampled_from(SHAPES), st.lists(st.sampled_from(VALUES), min_size=3, max_size=3)
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), seeds, st.sampled_from(["E", "F"])),
        st.tuples(st.just("lookup"), seeds),
        st.tuples(st.just("update"), st.sampled_from(["E", "F"])),
        st.tuples(st.just("clear")),
    ),
    max_size=30,
)


class TestSeedIndex:
    """The seed index answers every lookup as the scan it replaced did."""

    @settings(max_examples=150, deadline=None)
    @given(steps, st.integers(min_value=1, max_value=4))
    def test_the_index_agrees_with_a_scan(self, operations, capacity):
        table = AnswerTable(max_entries=capacity)
        for operation in operations:
            kind = operation[0]
            if kind == "insert":
                (shape, values), relation = operation[1], operation[2]
                entry = stub_entry(shape, tuple(values[position] for position in shape))
                entry.known_relations = frozenset({relation})
                table.insert(entry)
                assert len(table) <= capacity
            elif kind == "lookup":
                shape, values = operation[1]
                binding = {position: values[position] for position in shape}
                expected = scan_lookup(table, shape, binding)
                assert table.lookup(shape, binding) is expected
            elif kind == "update":
                table.apply_update(apply_delta(Instance(), [Fact(operation[1], (path("a"),))]))
            else:
                table.clear()
            entries = list(table)
            assert table._entries == {(e.positions, e.values): e for e in entries}
            assert Counter({shape: len(group) for shape, group in table._shapes.items()}) == (
                Counter(e.positions for e in entries)
            )
            assert all(
                group[e.values] is e for e in entries for group in [table._shapes[e.positions]]
            )
            for shape in SHAPES:
                for values in PROBE_VALUES:
                    binding = {position: values[position] for position in shape}
                    expected = scan_lookup(table, shape, binding)
                    assert table.lookup(shape, binding) is expected

    @settings(max_examples=150, deadline=None)
    @given(steps, st.integers(min_value=1, max_value=4))
    def test_insert_absorbs_and_evicts_as_a_scan_did(self, operations, capacity):
        """Absorption, the tie-break toward the older entry and LRU order of
        the indexed table are those of :class:`ScanTable`: each insert tried
        every entry, each eviction took the smallest use stamp."""
        table, model = AnswerTable(max_entries=capacity), ScanTable(capacity)
        for operation in operations:
            if operation[0] == "insert":
                shape, values = operation[1]
                seed = (shape, tuple(values[position] for position in shape))
                absorbed = table.insert(stub_entry(*seed))
                assert {key(e) for e in absorbed} == {key(e) for e in model.insert(seed)}
            elif operation[0] == "lookup":
                shape, values = operation[1]
                binding = {position: values[position] for position in shape}
                hit, expected = table.lookup(shape, binding), model.lookup(shape, binding)
                assert (hit and key(hit)) == (expected and key(expected))
            assert [key(e) for e in table] == [key(e) for e in model.entries]
            assert list(table._recent) == sorted(model.used, key=model.used.get)

    def test_a_tie_between_equally_specific_shapes_goes_to_the_older_entry(self):
        table = AnswerTable()
        older = stub_entry((1,), (path("b"),))
        table.insert(older)
        table.insert(stub_entry((0,), (path("a"),)))
        assert table.lookup((0, 1), {0: path("a"), 1: path("b")}) is older


#: The repeated overlapping goal stream: hot sources of a layered graph, each
#: asked for its reachable set again and again.
STREAM_GRAPH = dict(layers=10, width=10, edges_per_node=2, seed=2)
SOURCES = ["a", "l1n0", "l1n5", "l2n3", "l3n2", "l0n4"]
REPEATS = 5


def stream_workload():
    query = pair_query()
    return query, as_edge_pairs(layered_graph_instance(**STREAM_GRAPH))


def run_stream(session, stream):
    """``(answers, served_by, extension_attempts, subgoal_table_hits)`` of *stream*."""
    answers, served_by, attempts, hits = [], [], 0, 0
    for source in stream:
        result = session.run(binding={0: source}, mode="goal")
        assert result.mode == "goal" and result.fallback_reason is None
        answers.append(result.output.relation("T"))
        served_by.append(result.served_by)
        attempts += result.statistics.extension_attempts
        hits += result.statistics.subgoal_table_hits
    return answers, served_by, attempts, hits


class TestOverlappingGoalStreams:
    """Tabled serving against per-goal magic evaluation, on counters."""

    def test_tabled_stream_prunes_at_least_3x(self):
        query, instance = stream_workload()
        stream = [source for _ in range(REPEATS) for source in SOURCES]
        baseline = run_stream(query.session(instance, memoize=False), stream)
        assert set(baseline[1]) == {"goal"}
        answers, served_by, attempts, hits = run_stream(query.session(instance), stream)
        assert answers == baseline[0]
        # One evaluation per distinct source; every repeat is a table hit.
        assert served_by.count("goal") == len(SOURCES)
        assert served_by.count("tabled") == len(stream) - len(SOURCES)
        assert hits == len(stream) - len(SOURCES)
        assert attempts * 3 <= baseline[2]

    def test_low_overlap_stream_degrades_gracefully(self):
        """Every goal binds a different source: nothing to hit, nothing lost."""
        query, instance = stream_workload()
        stream = low_overlap_goal_stream(instance, relation="E", position=0, goals=24, seed=9)
        assert len(set(stream)) == len(stream)  # genuinely zero overlap
        baseline = run_stream(query.session(instance, memoize=False), stream)
        assert set(baseline[1]) == {"goal"}
        capacity = 8
        session = query.session(instance, table_capacity=capacity)
        answers, _served_by, attempts, hits = run_stream(session, stream)
        assert answers == baseline[0]
        assert hits == 0
        assert len(session._tables) <= capacity
        assert attempts <= 2 * baseline[2]

    def test_tables_are_maintained_through_updates(self):
        query, instance = stream_workload()
        expected = instance.copy()
        session = query.session(instance)
        for source in SOURCES:
            assert session.run(binding={0: source}, mode="goal").served_by == "goal"
        update = session.update(additions=[Fact("E", (path("l1n0"), path("l2n3")))])
        expected.add_fact(Fact("E", (path("l1n0"), path("l2n3"))))
        assert update.maintained and update.fallback_reason is None
        hits = 0
        for source in SOURCES:
            result = session.run(binding={0: source}, mode="goal")
            assert result.served_by == "tabled"
            assert result.output == query.run(expected, binding={0: source}).output
            hits += result.statistics.subgoal_table_hits
        assert hits == len(SOURCES)
