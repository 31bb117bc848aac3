"""A maintained session on the serving streams of ``benchmarks/bench_incremental.py``.

The deterministic gate of that benchmark, run with the test suite: every
update of an addition-balanced stream and of a deletion-heavy churn stream is
maintained with no fallback, every answer equals a scratch evaluation, and
over the balanced stream the maintained path attempts at least 5× fewer
extensions than re-evaluating the program for every query.  The benchmark
keeps the wall-clock report beside it.
"""

from repro.engine import EvaluationStatistics, ProgramEvaluators, ProgramQuery, evaluate_program
from repro.model import path
from repro.parser import parse_program
from repro.workloads import as_edge_pairs, churn_stream, layered_graph_instance, update_stream

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

GRAPH = dict(layers=10, width=12, edges_per_node=2, seed=2)
STEPS = 5
SOURCES = ["a", "l1n0", "l2n1", "l3n2", "l5n5", "l0n1"]


def workload():
    query = ProgramQuery(
        parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", require_monadic=False
    )
    return query, as_edge_pairs(layered_graph_instance(**GRAPH))


def serve_stream(query, instance, steps, sources):
    """Run *steps* through a maintained session, each followed by one query per
    source, and check every update and answer against a scratch copy.

    Returns the extension attempts of the maintained updates and of the
    baseline that re-evaluates the whole program for every query.  One
    scratch evaluation per step stands for all of that step's queries: they
    see the same instance, so each would attempt exactly as many extensions.
    """
    session = query.session(instance.copy())
    assert session.run(binding={0: sources[0]}).served_by == "full"
    scratch = instance.copy()
    evaluators = ProgramEvaluators(query.limits)
    initial = EvaluationStatistics()
    evaluate_program(query.program, scratch, statistics=initial, evaluators=evaluators)
    maintained_attempts, scratch_attempts = 0, initial.extension_attempts
    for additions, retractions in steps:
        update = session.update(additions, retractions)
        assert update.maintained and update.fallback_reason is None
        maintained_attempts += update.statistics.extension_attempts
        delta = scratch.begin_delta()
        for fact in additions:
            delta.add_fact(fact)
        for fact in retractions:
            delta.retract_fact(fact)
        delta.apply()
        statistics = EvaluationStatistics()
        full = evaluate_program(
            query.program, scratch, statistics=statistics, evaluators=evaluators
        )
        scratch_attempts += statistics.extension_attempts * len(sources)
        for source in sources:
            result = session.run(binding={0: source})
            assert result.served_by == "maintained"
            expected = {row for row in full.relation("T") if row[0] == path(source)}
            assert result.output.relation("T") == expected
    return maintained_attempts, scratch_attempts


def test_maintained_serving_attempts_5x_fewer_extensions_than_reevaluation():
    query, instance = workload()
    steps = list(update_stream(instance, relation="E", steps=STEPS, seed=7))
    churn = max(1, len(instance.relation("E")) // 100)
    assert all(len(added) + len(removed) <= churn for added, removed in steps)
    maintained, scratch = serve_stream(query, instance, steps, SOURCES)
    assert maintained * 5 <= scratch


def test_deletion_heavy_churn_stays_maintained():
    query, instance = workload()
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
    assert retracted >= 3 * added  # the stream really is deletion-heavy
    serve_stream(query, instance, steps, SOURCES[:2])
