"""The stdlib dependency analysis agrees with the graph library it replaced."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StratificationError
from repro.parser import parse_program, parse_rules
from repro.syntax.programs import stratify_rules, strongly_connected_components

NODES = "abcdefg"
GRAPHS = st.dictionaries(
    st.sampled_from(NODES), st.sets(st.sampled_from(NODES + "xy"), max_size=4), max_size=7
)


@given(successors=GRAPHS)
@settings(max_examples=200, deadline=None)
def test_components_equal_networkx_and_come_callees_first(successors):
    components = strongly_connected_components(successors)
    graph = nx.DiGraph()
    graph.add_nodes_from(successors)
    graph.add_edges_from(
        (node, child) for node, children in successors.items() for child in children
    )
    assert sorted(map(sorted, components)) == sorted(
        map(sorted, nx.strongly_connected_components(graph))
    )
    position = {node: index for index, component in enumerate(components) for node in component}
    for node, children in successors.items():
        for child in children:
            assert position[child] <= position[node]


def test_a_long_chain_does_not_recurse():
    chain = {str(index): [str(index + 1)] for index in range(5000)}
    assert len(strongly_connected_components(chain)) == 5001


def test_dependencies_recursion_and_the_graph_tell_one_story():
    program = parse_program(
        """
        P($x) :- R($x).
        P($x) :- Q($x.a).
        Q($x) :- P($x.b).
        S($x) :- P($x), S($x).
        U($x) :- S($x), R($x).
        """
    )
    dependencies = program.idb_dependencies()
    assert dependencies == {
        "P": {"Q": False},
        "Q": {"P": False},
        "S": {"P": False, "S": False},
        "U": {"S": False},
    }
    assert program.uses_recursion()
    assert program.recursive_relation_names() == {"P", "Q", "S"}
    graph = program.dependency_graph()
    assert set(graph.nodes) == set(dependencies)
    assert {(head, name): data["negative"] for head, name, data in graph.edges(data=True)} == {
        (head, name): negative
        for head, callees in dependencies.items()
        for name, negative in callees.items()
    }


def test_stratification_orders_negation_and_names_the_offending_cycle():
    strata = stratify_rules(
        parse_rules(
            """
            A($x) :- R($x), not B($x).
            B($x) :- R($x), not C($x).
            C($x) :- R($x).
            C($x) :- C($x.a), R($x).
            """
        )
    )
    assert [sorted(stratum.head_relation_names()) for stratum in strata] == [["C"], ["B"], ["A"]]
    with pytest.raises(StratificationError, match="'W' negatively depends on itself"):
        stratify_rules(parse_rules("W($x) :- R($x), not W($x)."))
    with pytest.raises(StratificationError, match=r"\['P', 'Q'\] form a cycle through negation"):
        stratify_rules(parse_rules("P($x) :- R($x), not Q($x).\nQ($x) :- P($x)."))
