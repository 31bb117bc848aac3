"""Shared fixtures for the paper-result benchmarks.

Every ``bench_*.py`` module reproduces one figure or theorem of the paper
(see the per-experiment index in DESIGN.md).  Each both *checks* the
qualitative claim (the "shape" of the result) with assertions and *times*
the computation with pytest-benchmark.  Wall time is claimed only from the
repository benchmark in ``benchmarks/e2e``.
"""

from __future__ import annotations

import pytest

from repro.workloads import random_graph_instance, random_string_instance


@pytest.fixture
def string_family():
    """Random string instances used by the redundancy benchmarks."""
    return [random_string_instance(paths=6, max_length=4, seed=seed) for seed in range(3)]


@pytest.fixture
def coloured_graphs():
    """Random graphs with black nodes, used by the Theorem 5.5 / 7.1 benchmarks."""
    instances = []
    for seed in range(3):
        instance = random_graph_instance(nodes=5, edges=8, seed=seed, ensure_path=("a", "b"))
        colours = random_graph_instance(nodes=5, edges=3, seed=seed + 31)
        for fact in colours.facts():
            instance.add("B", fact.paths[0][0:1])
        instances.append(instance)
    return instances
