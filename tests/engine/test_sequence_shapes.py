"""Sequence-destructure shapes that the join's general op loop runs, against the oracle.

Two shapes: unary reachability over length-2 paths, whose recursive step
probes one bound element and binds the other, and a rule whose only step
binds fresh atoms of one fixed-length pattern.  Each relation also holds a
packed value where an ``@x`` stands and paths of the wrong length.  So the
loop's length and atomicity checks decide the answer.  Full evaluation, a
goal, and a maintained session through an add/retract stream must each
equal the reference fixpoint.
"""

import pytest

from repro.engine import ProgramQuery
from repro.model import Fact, Instance, pack, path
from repro.parser import parse_program

UNARY_REACHABILITY = """
T(@x·@y) :- R(@x·@y).
T(@x·@z) :- T(@x·@y), R(@y·@z).
"""

THREE_ATOMS = "T(@z·@y·@x) :- R(@x·@y·@z)."


def row(*elements):
    return Fact("R", (path(*elements),))


SHAPES = {
    "unary_reachability": (
        UNARY_REACHABILITY,
        [
            row("a", "b"),
            row("b", "c"),
            row("c", "d"),
            row("d", "b"),
            row("e", "f"),
            row("c", pack("d")),  # a packed value where @z stands
            row(pack("a"), "e"),  # ... and where @x stands
            row("f", "a", "b"),  # too long
            row("f"),  # too short
        ],
        path("a", "d"),
        [
            ([row("f", "a")], []),
            ([row(pack("b"), "a"), row("d", "e", "f")], [row("b", "c")]),
            ([row("b", "c")], [row("f", "a"), row("c", pack("d"))]),
            ([row("d", pack("e"))], [row("d", "b")]),
        ],
    ),
    "three_fresh_atoms": (
        THREE_ATOMS,
        [
            row("a", "b", "c"),
            row("b", "c", "d"),
            row("a", pack("b"), "c"),  # a packed value where @y stands
            row(pack("c"), "a", "b"),  # ... and where @x stands
            row("a", "b"),  # too short
            row("a", "b", "c", "d"),  # too long
        ],
        path("c", "b", "a"),
        [
            ([row("c", "b", "a")], []),
            ([row("d", "e", pack("f")), row("e", "f")], [row("a", "b", "c")]),
            ([row("a", "b", "c")], [row("a", pack("b"), "c")]),
        ],
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_general_loop_agrees_with_the_oracle(oracle_output, shape):
    program, facts, goal, stream = SHAPES[shape]
    query = ProgramQuery(parse_program(program), {"R": 1}, "T")
    instance = Instance()
    for fact in facts:
        instance.add_fact(fact)
    assert query.run(instance, check_flat=False).output == oracle_output(query, instance)
    for binding in ({0: goal}, {0: path("z")}):
        goal_run = query.run(instance, binding=binding, mode="goal", check_flat=False)
        assert goal_run.mode == "goal" and goal_run.fallback_reason is None
        assert goal_run.output == oracle_output(query, instance, binding)

    expected = instance.copy()
    session = query.session(instance, check_flat=False)
    assert session.run().served_by == "full"
    for additions, retractions in stream:
        update = session.update(additions, retractions)
        for fact in retractions:
            expected.discard_fact(fact)
        for fact in additions:
            expected.add_fact(fact)
        assert update.maintained and update.fallback_reason is None
        result = session.run()
        assert result.served_by == "maintained"
        assert result.output == oracle_output(query, expected)
