"""A maintained session on the layered-graph serving streams, against re-evaluation.

Every update of an addition-balanced stream and of a deletion-heavy churn
stream is maintained with no fallback, every answer equals a scratch
evaluation, and over the balanced stream the maintained path attempts at
least 5× fewer extensions than re-evaluating the program for every query.
The last wall-clock report on these streams, from the deleted
``benchmarks/bench_incremental.py``, is kept in ``benchmarks/history/``.
"""

from repro.engine import CompiledProgram, EvaluationStatistics, ProgramQuery, evaluate_program
from repro.engine.reference import reference_fixpoint
from repro.model import Fact, path
from repro.parser import parse_program
from repro.storage import TermTable
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
    compiled = CompiledProgram(query.program)
    initial = EvaluationStatistics()
    evaluate_program(query.program, scratch, statistics=initial, compiled=compiled)
    maintained_attempts, scratch_attempts = 0, initial.extension_attempts
    for additions, retractions in steps:
        update = session.update(additions, retractions)
        assert update.maintained and update.fallback_reason is None
        maintained_attempts += update.statistics.extension_attempts
        for fact in retractions:
            scratch.discard_fact(fact)
        for fact in additions:
            scratch.add_fact(fact)
        statistics = EvaluationStatistics()
        full = evaluate_program(query.program, scratch, statistics=statistics, compiled=compiled)
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


def test_a_retraction_interns_in_proportion_to_its_delta(monkeypatch):
    """The old state of ``E`` is the view it already had, and the over-deleted
    rows stay id rows: retracting one edge interns rows by the over-deleted
    set, not by re-reading ``E`` (which the old-state rebuild did)."""
    query = ProgramQuery(
        parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", require_monadic=False
    )
    instance = as_edge_pairs(layered_graph_instance(layers=4, width=200, seed=5))
    edges = len(instance.relation("E"))
    assert edges >= 1000
    session = query.session(instance.copy())
    session.run()
    interned = []
    intern_row = TermTable.intern_row

    def counting_intern_row(table, row):
        interned.append(row)
        return intern_row(table, row)

    monkeypatch.setattr(TermTable, "intern_row", counting_intern_row)
    retracted = Fact("E", min(instance.relation("E"), key=repr))
    update = session.update([], [retracted])
    assert update.maintained and retracted in update.removed
    asked = update.statistics.rederivation_attempts
    assert 0 < asked and len(interned) <= 3 * asked + 1 < edges // 4


#: A recursive stratum joining ``E`` twice, then strata that read ``E`` again
#: — after the first stratum advanced the live relation past its old view.
TWICE_JOINED = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- E(@x, @y), T(@y, @w), E(@w, @z).
S(@x, @y) :- T(@x, @y), E(@y, @x).
R(@x, @y) :- S(@x, @y).
R(@x, @z) :- R(@x, @y), E(@y, @z), not T(@z, @x).
"""


def test_old_and_new_reads_of_one_relation_agree_with_the_oracle():
    program = parse_program(TWICE_JOINED)
    query = ProgramQuery(program, {"E": 2}, "R", require_monadic=False)
    instance = as_edge_pairs(layered_graph_instance(layers=3, width=3, seed=4))
    # Back edges make the graph cyclic, so S and R are not empty.
    for source, target in (("b", "a"), ("l1n1", "a"), ("b", "l1n2")):
        instance.add("E", source, target)
    session = query.session(instance.copy())
    session.run()
    current = instance.copy()
    stream = churn_stream(
        instance, relation="E", steps=12, retractions_per_step=2, additions_per_step=2, seed=3
    )
    for additions, retractions in stream:
        assert session.update(additions, retractions).maintained
        for fact in retractions:
            current.discard_fact(fact)
        for fact in additions:
            current.add_fact(fact)
        expected = reference_fixpoint(program, current, query.limits)
        for name in ("T", "S", "R"):
            assert session.materialized.relation(name) == expected.relation(name), name


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
