"""INCR — incremental view maintenance vs re-evaluation on a serving stream.

Not a paper experiment: this benchmark justifies the maintenance pipeline
described in DESIGN.md.  The workload is the serving shape the ROADMAP's
north star cares about — and exactly the weakness its open items named: the
pre-maintenance :class:`~repro.engine.QuerySession` re-evaluated the whole
fixpoint *per query*, even when only a few facts (or only the binding)
changed.  Here the layered-graph DAG is re-encoded as a binary edge
relation, all-pairs reachability is pinned in a session, and each step of a
small update stream (one edge added, one removed — under 1% of the EDB)
is followed by a burst of queries at different bindings.

The maintained path applies each update with counting / delete–rederive
maintenance and answers every query straight from the materialization; the
baseline re-evaluates the program per query (with warm compiled plans, the
strongest version of the old behaviour).  This file reports the wall-clock
ratio and the counters; the deterministic gate on the same streams — every
update maintained, answers identical to scratch, at least 5× fewer extension
attempts — is ``tests/engine/test_maintained_streams.py``.  With ``--json``
the harness writes the measured numbers to ``BENCH_incremental.json``.
"""

import time

import pytest

from repro.engine import (
    CompiledProgram,
    EvaluationStatistics,
    ProgramQuery,
    evaluate_program,
)
from repro.model import path
from repro.parser import parse_program
from repro.workloads import (
    as_edge_pairs,
    churn_stream,
    layered_graph_instance,
    update_stream,
)

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

GRAPH = dict(layers=10, width=12, edges_per_node=2, seed=2)
STEPS = 5
SOURCES = ["a", "l1n0", "l2n1", "l3n2", "l5n5", "l0n1"]


def _workload():
    program = parse_program(REACHABILITY_PAIRS)
    instance = as_edge_pairs(layered_graph_instance(**GRAPH))
    query = ProgramQuery(program, {"E": 2}, "T", require_monadic=False)
    return program, query, instance


def _steps(instance):
    return list(update_stream(instance, relation="E", steps=STEPS, seed=7))


def test_maintained_serving_beats_reevaluation_5x(bench_report):
    """Wall clock over the stream: maintained serving against re-evaluation."""
    program, query, instance = _workload()
    edb_size = len(instance.relation("E"))
    steps = _steps(instance)

    # Maintained path: one session; per step, one incremental update and a
    # burst of queries served from the materialization.
    session = query.session(instance.copy())
    incremental_stats = EvaluationStatistics()
    maintained_answers = []
    started = time.perf_counter()
    session.run(binding={0: SOURCES[0]})
    for additions, retractions in steps:
        update = session.update(additions, retractions)
        for source in SOURCES:
            maintained_answers.append(session.run(binding={0: source}).output.relation("T"))
        for field in ("extension_attempts", "plan_cache_hits", "maintenance_rounds"):
            setattr(
                incremental_stats,
                field,
                getattr(incremental_stats, field) + getattr(update.statistics, field),
            )
    incremental_seconds = time.perf_counter() - started

    # Baseline: the pre-maintenance behaviour — re-evaluate the fixpoint for
    # every query (kept as strong as possible: shared compiled plans).
    scratch_instance = instance.copy()
    compiled = CompiledProgram(program)
    scratch_stats = EvaluationStatistics()
    scratch_answers = []
    started = time.perf_counter()
    evaluate_program(program, scratch_instance, statistics=scratch_stats, compiled=compiled)
    for additions, retractions in steps:
        delta = scratch_instance.begin_delta()
        for fact in additions:
            delta.add_fact(fact)
        for fact in retractions:
            delta.retract_fact(fact)
        delta.apply()
        for source in SOURCES:
            full = evaluate_program(
                program, scratch_instance, statistics=scratch_stats, compiled=compiled
            )
            source_path = path(source)
            scratch_answers.append(
                frozenset(row for row in full.relation("T") if row[0] == source_path)
            )
    scratch_seconds = time.perf_counter() - started

    identical = maintained_answers == scratch_answers
    speedup = scratch_seconds / max(incremental_seconds, 1e-9)
    bench_report(
        "incremental",
        workload=(
            f"layered-graph all-pairs reachability; {STEPS}-step update stream "
            f"with {len(SOURCES)} queries per step"
        ),
        edb_facts=edb_size,
        steps=STEPS,
        queries_per_step=len(SOURCES),
        incremental_seconds=incremental_seconds,
        scratch_seconds=scratch_seconds,
        speedup=speedup,
        extension_attempts=incremental_stats.extension_attempts,
        scratch_extension_attempts=scratch_stats.extension_attempts,
        plan_cache_hits=incremental_stats.plan_cache_hits,
        maintenance_rounds=incremental_stats.maintenance_rounds,
    )
    print()
    print(
        f"serving stream ({STEPS} steps × {len(SOURCES)} queries, ≤1% churn): "
        f"maintained {incremental_seconds:.3f}s vs re-evaluation {scratch_seconds:.3f}s "
        f"({speedup:.1f}× faster, identical answers: {identical}); extension attempts "
        f"{incremental_stats.extension_attempts} vs {scratch_stats.extension_attempts}"
    )


def test_deletion_heavy_churn_stays_maintained(bench_report):
    """The adversarial stream: retraction-dominated churn with revivals.

    The friendly stream above is addition-balanced; this one deletes four
    edges per step and adds one back (half of them resurrecting a previously
    retracted edge), so maintenance lives on the deletion side — counting
    decrements crossing zero and revived facts that must return with correct
    support counts.  The wall time of the maintained stream is recorded.
    """
    program, query, instance = _workload()
    steps = list(
        churn_stream(
            instance,
            relation="E",
            steps=STEPS * 2,
            retractions_per_step=4,
            additions_per_step=1,
            revival_rate=0.5,
            seed=11,
        )
    )
    retracted = sum(len(removed) for _, removed in steps)
    added = sum(len(appended) for appended, _ in steps)

    session = query.session(instance.copy())
    session.run(binding={0: SOURCES[0]})
    maintenance_rounds = 0
    started = time.perf_counter()
    for additions, retractions in steps:
        update = session.update(additions, retractions)
        maintenance_rounds += update.statistics.maintenance_rounds
        for source in SOURCES[:2]:
            session.run(binding={0: source})
    churn_seconds = time.perf_counter() - started

    bench_report(
        "incremental",
        churn_steps=len(steps),
        churn_retractions=retracted,
        churn_additions=added,
        churn_maintenance_rounds=maintenance_rounds,
        churn_seconds=churn_seconds,
    )
    print()
    print(
        f"deletion-heavy churn ({len(steps)} steps, {retracted} retractions vs "
        f"{added} additions): maintained in {churn_seconds:.3f}s "
        f"({maintenance_rounds} maintenance rounds)"
    )


@pytest.mark.parametrize("step_shape", ["update_plus_query"])
def test_single_update_latency(benchmark, step_shape):
    """Per-step latency of one maintained update + query (pytest-benchmark)."""
    _, query, instance = _workload()
    session = query.session(instance.copy())
    session.run(binding={0: SOURCES[0]})
    steps = iter(_steps(instance) * 200)

    def step():
        additions, retractions = next(steps)
        session.update(additions, retractions)
        return session.run(binding={0: SOURCES[0]})

    result = benchmark.pedantic(step, rounds=1, iterations=1)
    assert result.served_by == "maintained"
