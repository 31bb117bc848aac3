"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import pytest

from repro.engine.reference import reference_fixpoint
from repro.model import Instance
from repro.model.terms import as_path
from repro.workloads import (
    random_event_log_instance,
    random_graph_instance,
    random_nfa_instance,
    random_string_instance,
)


@pytest.fixture
def string_instances():
    """A small family of random string instances over {a, b}."""
    return [random_string_instance(paths=6, max_length=4, seed=seed) for seed in range(4)]


@pytest.fixture
def graph_instances():
    """A small family of random graph instances with B-coloured nodes."""
    instances = []
    for seed in range(3):
        instance = random_graph_instance(nodes=5, edges=7, seed=seed, ensure_path=("a", "b"))
        colour_source = random_graph_instance(nodes=5, edges=4, seed=seed + 100)
        for fact in colour_source.facts():
            instance.add("B", fact.paths[0][0:1])
        instances.append(instance)
    return instances


@pytest.fixture
def nfa_instance():
    """One NFA instance (Example 2.1 shape)."""
    return random_nfa_instance(seed=7)


@pytest.fixture
def event_log_instance():
    """One process-mining event log instance."""
    return random_event_log_instance(seed=11)


@pytest.fixture(scope="session")
def oracle_output():
    """``(query, instance, binding=None)`` → the output instance *query* must answer.

    The output relation of the reference fixpoint (:mod:`repro.engine.reference`)
    of the query's program, restricted to the rows the binding selects — what
    every serving tier (full, goal, tabled, maintained, restored) is held to.
    """

    def output(query, instance, binding=None):
        wanted = {position: as_path(value) for position, value in (binding or {}).items()}
        full = reference_fixpoint(query.program, instance, query.limits)
        rows = [
            row
            for row in full.relation(query.output_relation)
            if all(row[position] == value for position, value in wanted.items())
        ]
        return Instance({query.output_relation: rows})

    return output
