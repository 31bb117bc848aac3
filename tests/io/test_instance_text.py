"""The instance text codec: ``instance_from_text`` against ``instance_to_text``
and against the rule parser it falls back to.

Plain ground facts are read straight off the token stream
(:func:`repro.io.serialization.instance_from_text`); everything else — and
every error — still comes from :func:`repro.parser.parse_rules`.  The round
trip covers what the direct reader handles itself (``ϵ``, quoted atoms,
nested packing, nullary facts); the table pins that malformed text reports
exactly what the rule parser reports.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, ParseError
from repro.io import instance_from_text, instance_to_text
from repro.model import Fact, Instance, Packed, Path, path
from repro.parser import parse_rules

# Bare names, and atoms the unparser has to quote (reserved words, spaces,
# leading digits, symbols).  The lexer has no escapes, so no quote or newline.
atoms = st.sampled_from(
    ["a", "b", "node", "x1", "l0n3", "_u", "not", "eps", "ϵ", "two words", "1x", "a-b", "$x", "R(a)."]
)
values = st.recursive(
    atoms,
    lambda inner: st.lists(inner, max_size=3).map(lambda items: Packed(Path(items))),
    max_leaves=6,
)
paths = st.lists(values, max_size=4).map(Path)
facts = st.builds(
    lambda name, arity, columns: Fact(name, columns[:arity]),
    st.sampled_from(["R", "S", "Edge_1"]),
    st.integers(0, 3),
    st.lists(paths, min_size=3, max_size=3),
)


@st.composite
def instances(draw):
    instance = Instance()
    arities: dict = {}
    for fact in draw(st.lists(facts, max_size=8)):
        if arities.setdefault(fact.relation, fact.arity) == fact.arity:
            instance.add_fact(fact)
    return instance


@given(instances())
@settings(max_examples=100, deadline=None)
def test_text_round_trip(instance):
    assert instance_from_text(instance_to_text(instance)) == instance


def test_the_direct_reader_and_the_rule_parser_read_the_same_instance():
    text = """
    % every term shape of a ground fact, in both spellings
    E(a, b).  E(a.b, 'two words').  E(a·<b·<c>>·d, eps).
    E(<>, ⟨a⟩*b).  E(ϵ·a·ε, <eps>).  Flag.  Flag().
    """
    expected = Instance()
    for rule in parse_rules(text):
        expected.add(rule.head.name, *(c.ground_path() for c in rule.head.components))
    assert instance_from_text(text) == expected
    assert expected.contains("E", path("a", "b"), path("two words"))
    assert expected.contains("E", path(), path("a", "b")) is False
    assert expected.contains("E", path(Packed(Path())), path(Packed(path("a")), "b"))
    assert expected.relation("Flag") == {()}


MALFORMED = [
    "E(a, b)",  # missing end of rule
    "E(a, b). E(c",  # input ends inside an argument list
    "E(a, b).\nE(a,, b).",  # empty argument
    "E(a, b).\n  E(a b).",  # missing comma
    "E(a·).",  # dangling concatenation
    "E(<a).",  # unclosed packing
    "E(a>).",  # unopened packing
    "E(a, b).\n(a, b).",  # no relation name
    "'E'(a).",  # quoted relation name
    "E(a, b). E(c, d) :- .\nE(",  # an arrow, then a later syntax error
    "E(a, b).\nE(a = b).",  # an equation where a path belongs
    "E(a, 'unterminated).",  # the lexer's own error
    "E(a, b).\nE(a, \x00).",  # a character outside the alphabet
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_text_reports_what_the_rule_parser_reports(text):
    with pytest.raises(ParseError) as expected:
        parse_rules(text)
    with pytest.raises(ParseError) as raised:
        instance_from_text(text)
    assert str(raised.value) == str(expected.value)
    assert (raised.value.line, raised.value.column) == (expected.value.line, expected.value.column)
    assert expected.value.line is not None


@pytest.mark.parametrize(
    "text, message",
    [
        ("E(a, b).\nT(@x, b).", "instance files may only contain ground facts, got T(@x, b)."),
        ("T($x) :- E($x).", "instance files may only contain ground facts, got T($x) ← E($x)."),
        ("E(a).\nT(a) :- E(a).", "instance files may only contain ground facts, got T(a) ← E(a)."),
    ],
)
def test_rules_and_variables_are_refused_by_name(text, message):
    with pytest.raises(ParseError) as raised:
        instance_from_text(text)
    assert str(raised.value) == message


def test_an_arity_clash_is_a_model_error_after_the_whole_text_parsed():
    with pytest.raises(ModelError, match="arity 2"):
        instance_from_text("E(a, b).\nE(a).")
    # A later syntax error wins: the text is parsed before any fact is stored.
    with pytest.raises(ParseError):
        instance_from_text("E(a, b).\nE(a).\nE(")
