"""Round-trip tests for the JSON boundary codec in :mod:`repro.io.serialization`.

The service encodes paths in ground expression syntax, facts as
``[relation, path, ...]`` lists, and whole :class:`QueryResult` /
:class:`UpdateResult` values as JSON dicts.  Every encoder here is paired
with a decoder and the round trip must be exact — and every encoded value
must survive ``json.dumps`` (the wire is real JSON, not Python dicts).
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import EvaluationStatistics, ProgramQuery
from repro.errors import ParseError
from repro.io.serialization import (
    fact_from_json,
    fact_to_json,
    path_from_text,
    path_to_text,
    query_result_from_json,
    query_result_to_json,
    rows_from_json,
    rows_to_json,
    statistics_from_json,
    statistics_to_json,
    update_result_from_json,
    update_result_to_json,
)
from repro.model import Fact, Instance, path
from repro.model.terms import Packed, Path
from repro.parser import format_path, parse_program

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""


def pair_query():
    return ProgramQuery(
        parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", require_monadic=False
    )


def line_instance(length=5):
    instance = Instance()
    nodes = ["a"] + [f"n{i}" for i in range(1, length)]
    for source, target in zip(nodes, nodes[1:]):
        instance.add("E", source, target)
    return instance


#: Bare names, reserved words (``eps``, ``not``) and constants that need
#: quoting: a space, a ``·``, one quote kind or the other.
labels = st.sampled_from(
    ["a", "b", "node", "x1", "it's", "eps", "not", "epsilon", "x y", "a·b", "x'y z", 'say "hi"']
)
paths = st.recursive(
    st.lists(labels, max_size=3).map(Path),
    lambda inner: st.lists(st.one_of(labels, inner.map(Packed)), max_size=3).map(Path),
    max_leaves=8,
)


class TestPathsAndFacts:
    @given(paths)
    def test_path_round_trip(self, value):
        text = path_to_text(value)
        assert isinstance(text, str)
        assert path_from_text(text) == value
        # The memo never serves a spelling the unparser would not produce.
        assert text == format_path(value)

    @pytest.mark.parametrize("constant", ["a'b\"c", "line\nbreak"])
    def test_a_constant_without_a_spelling_is_refused(self, constant):
        with pytest.raises(ParseError, match="no quoted spelling"):
            path_to_text(Path([constant]))

    @pytest.mark.parametrize("text", [5, None, ["a"], {"a": "b"}])
    def test_non_string_path_text_is_refused(self, text):
        with pytest.raises(ParseError, match="must be a string"):
            path_from_text(text)

    def test_non_ground_path_text_is_refused(self):
        with pytest.raises(ParseError, match="ground"):
            path_from_text("@x")

    @given(st.lists(paths, min_size=1, max_size=3))
    def test_fact_round_trip(self, fact_paths):
        fact = Fact("R", tuple(fact_paths))
        encoded = fact_to_json(fact)
        assert json.loads(json.dumps(encoded)) == encoded
        assert fact_from_json(encoded) == fact

    def test_malformed_fact_json_is_refused(self):
        with pytest.raises(ParseError):
            fact_from_json([])
        with pytest.raises(ParseError):
            fact_from_json("E(a, b)")

    def test_rows_round_trip_is_sorted_and_exact(self):
        rows = {(path("b"), path("a")), (path("a"), Path(["a", "b"]))}
        encoded = rows_to_json(rows)
        assert encoded == sorted(encoded)
        assert set(rows_from_json(encoded)) == rows


class TestStatistics:
    def test_round_trip_preserves_every_counter(self):
        statistics = EvaluationStatistics()
        statistics.iterations = 7
        statistics.extension_attempts = 123
        statistics.per_stratum_iterations = [3, 4]
        encoded = statistics_to_json(statistics)
        assert json.loads(json.dumps(encoded)) == encoded
        decoded = statistics_from_json(encoded)
        assert decoded == statistics

    def test_unknown_and_missing_fields_are_tolerated(self):
        decoded = statistics_from_json({"iterations": 2, "counter_from_the_future": 9})
        assert decoded.iterations == 2
        assert not hasattr(decoded, "counter_from_the_future")
        assert statistics_from_json(None) == EvaluationStatistics()


class TestResultRoundTrips:
    def test_query_result_round_trip_from_a_real_run(self):
        result = pair_query().run(line_instance(), binding={0: path("a")})
        encoded = query_result_to_json(result)
        assert json.loads(json.dumps(encoded)) == encoded
        decoded = query_result_from_json(encoded)
        assert set(decoded.output.relation("T")) == set(result.output.relation("T"))
        assert decoded.output_relation == result.output_relation
        assert decoded.binding == result.binding
        assert decoded.mode == result.mode
        assert decoded.served_by == result.served_by
        assert decoded.fallback_reason == result.fallback_reason
        assert decoded.statistics == result.statistics
        # The wire carries answers, not the backing materialization: the
        # decoded result's full_instance is its own answers.
        assert decoded.full_instance is decoded.output

    def test_update_result_round_trip_from_a_real_update(self):
        session = pair_query().session(line_instance())
        session.run()
        result = session.update(
            additions=[Fact("E", (path("n4"), path("z")))],
            retractions=[Fact("E", (path("a"), path("n1")))],
        )
        encoded = update_result_to_json(result)
        assert json.loads(json.dumps(encoded)) == encoded
        decoded = update_result_from_json(encoded)
        assert decoded.added == result.added
        assert decoded.removed == result.removed
        assert decoded.maintained == result.maintained
        assert decoded.fallback_reason == result.fallback_reason
        assert decoded.statistics == result.statistics
        session.close()
