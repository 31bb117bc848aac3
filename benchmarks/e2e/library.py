"""The two ``eval_*`` workloads: cold library evaluation, no service involved.

``eval_sequences`` runs the paper's own programs (Examples 2.1, 2.2, 4.3,
4.6, Theorem 5.3 and the process-mining query of the Introduction) through
``CanonicalQuery.make_query().run()``; ``eval_graph`` runs binary
reachability on a skewed cyclic graph and on a layered DAG, plus negation
inside the recursion.  Every evaluation is *cold*: the query is rebuilt from
program text and nothing is memoised between runs.  Engine options are the
defaults — no ``execution=``/``strategy=`` — so a later change of default
shows here.

One *pass* evaluates every program of the workload once; passes repeat until
the window is over.  The end-to-end numbers are built from the better
quartile of each program's walls over the passes (metrics.better_quartile):
on a shared box the slow passes measure the neighbours.

The parser and the text codec are called through their modules (not imported
by name) so that the traced run's patches reach these calls too.
"""

from __future__ import annotations

import bisect
import random
import resource
import time
from dataclasses import dataclass
from typing import Callable

import repro.io.serialization as serialization
import repro.parser as parser
from repro.engine import ProgramQuery
from repro.queries.canonical import get_query

import inputs
from metrics import better_quartile, median, percentile, reference_loop, slowdown
from tracing import Recorder, install, self_times

__all__ = ["EVAL_WORKLOADS", "SEQUENCE_PROGRAMS", "GRAPH_PROGRAMS", "run_eval"]

SEQUENCE_PROGRAMS = (
    "nfa_acceptance",
    "reversal",
    "squaring",
    "process_compliance",
    "unequal_palindrome",
    "three_occurrences",
)
GRAPH_PROGRAMS = ("reachability_cyclic", "reachability_layered", "blocked_reachability")
EVAL_WORKLOADS = ("eval_sequences", "eval_graph")

#: Set-ups per run (generation + parse); ``setup_s`` is their median.
SETUPS = 5


@dataclass
class Case:
    """One program of a workload: its input text, how to run it cold, its oracle."""

    name: str
    instance_text: str
    evaluate: "Callable[[object], object]"  # Instance -> QueryResult
    reference: "Callable[[object], object]"  # Instance -> the oracle's answer
    answer: "Callable[[object], object]"  # QueryResult -> the program's answer
    idb: "frozenset[str]"


def _sequence_cases(rng: random.Random, small: bool) -> "list[Case]":
    texts = inputs.sequence_instances(rng, 0.1 if small else 1.0)
    cases = []
    for name in SEQUENCE_PROGRAMS:
        canonical = get_query(name)

        def answer(result, canonical=canonical):
            if canonical.boolean:
                return result.boolean()
            return result.paths(canonical.output_relation)

        cases.append(
            Case(
                name,
                texts[name],
                lambda instance, canonical=canonical: canonical.make_query().run(instance),
                canonical.run_reference,
                answer,
                frozenset(canonical.program().idb_relation_names()),
            )
        )
    return cases


def _graph_cases(rng: random.Random, small: bool) -> "list[Case]":
    # ≈0.13 s per program on the seed commit: 2.5k, 2.3k and 2.0k derived facts.
    nodes, layers, width = (16, 4, 4) if small else (50, 9, 11)
    graphs = {
        "reachability_cyclic": inputs.skewed_cyclic_graph(rng, nodes=nodes, edges=4 * nodes),
        "reachability_layered": inputs.layered_graph(rng, layers=layers, width=width, out_degree=3),
        "blocked_reachability": inputs.layered_graph(
            rng, layers=layers, width=width, out_degree=3, blocked=layers - 3
        ),
    }
    cases = []
    for name, graph in graphs.items():
        program = inputs.BLOCKED_REACHABILITY if graph.blocked else inputs.REACHABILITY
        schema = {"E": 2, "Blocklist": 1} if graph.blocked else {"E": 2}
        expected = {
            (source, target)
            for source, targets in inputs.blocked_closure(graph.edges, graph.blocked).items()
            for target in targets
        }

        def evaluate(instance, program=program, schema=schema):
            query = ProgramQuery(parser.parse_program(program), schema, "T", require_monadic=False)
            return query.run(instance)

        def answer(result):
            rows = result.full_instance.relation("T")
            return {tuple(serialization.path_to_text(path) for path in row) for row in rows}

        idb = frozenset(parser.parse_program(program).idb_relation_names())
        cases.append(
            Case(name, graph.text(), evaluate, lambda _instance, expected=expected: expected, answer, idb)
        )
    return cases


def _generate(name: str, seed: int, small: bool) -> "list[Case]":
    rng = random.Random(f"{name}:{seed}")
    return _sequence_cases(rng, small) if name == "eval_sequences" else _graph_cases(rng, small)


@dataclass
class _Op:
    """One timed evaluation."""

    case: str
    passno: int
    recorded: bool
    start: float
    end: float
    slowdown: float  # machine speed around it (metrics.slowdown)
    facts: int
    statistics: object

    @property
    def wall(self) -> float:
        """Seconds of the evaluation at the reference machine speed."""
        return (self.end - self.start) / self.slowdown


def run_eval(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one ``eval_*`` workload; returns ``correct/attempted/failed/values``."""
    recorder = Recorder()
    if trace:
        install(recorder)

    setups = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        cases = _generate(name, seed, small)
        instances = [serialization.instance_from_text(case.instance_text) for case in cases]
        setups.append(time.perf_counter() - started)
    expected = [case.reference(instance) for case, instance in zip(cases, instances)]

    ops: "list[_Op]" = []
    failed = 0
    passno = 0
    deadline = time.perf_counter() + seconds
    # An even number of passes (at least two), so recorded and unrecorded
    # passes pair up in the traced run.
    while time.perf_counter() < deadline or passno % 2:
        recorder.enabled = trace and passno % 2 == 0
        for case, instance, oracle in zip(cases, instances, expected):
            before = reference_loop()
            started = time.perf_counter()
            result = case.evaluate(instance)
            ended = time.perf_counter()
            speed = slowdown([before, reference_loop()])
            facts = sum(len(result.full_instance.relation(relation)) for relation in case.idb)
            ops.append(
                _Op(case.name, passno, recorder.enabled, started, ended, speed, facts, result.statistics)
            )
            failed += case.answer(result) != oracle
        passno += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def best_walls(recorded: bool) -> "dict[str, float]":
        """Each program's better-quartile wall among the (un)recorded passes."""
        walls: "dict[str, list[float]]" = {}
        for op in ops:
            if op.recorded == recorded:
                walls.setdefault(op.case, []).append(op.wall)
        return {case: better_quartile(values, "lower") for case, values in walls.items()}

    if trace:
        values = _layer_values(recorder, ops)
        values["harness.latency_p95_ms"] = percentile(best_walls(True).values(), 0.95) * 1e3
        values["trace.overhead_fraction"] = (
            sum(best_walls(True).values()) / sum(best_walls(False).values()) - 1
        )
    else:
        walls = best_walls(False)
        values = {
            "setup_s": median(setups),
            "throughput_per_s": sum(op.facts for op in ops if op.passno == 0) / sum(walls.values()),
            "latency_p50_ms": percentile(walls.values(), 0.50) * 1e3,
            "peak_rss_mb": rss_mb,
        }
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "values": values}


def _layer_values(recorder: Recorder, ops: "list[_Op]") -> "dict[str, float]":
    """Every per-layer metric of one traced ``eval_*`` run (recorded passes only)."""
    spans = recorder.records()
    own = self_times(spans)
    recorded = [op for op in ops if op.recorded]
    starts = [op.start for op in recorded]

    def op_of(start: float) -> "_Op | None":
        index = bisect.bisect_right(starts, start) - 1
        if index >= 0 and start <= recorded[index].end:
            return recorded[index]
        return None

    def per_pass(name: str, case: "str | None" = None) -> "list[float]":
        """Seconds of *name*'s self time in each recorded pass (optionally one program's)."""
        totals = {op.passno: 0.0 for op in recorded}
        for start, seconds in own.get(name, ()):
            op = op_of(start)
            if op is not None and case in (None, op.case):
                totals[op.passno] += seconds
        return list(totals.values())

    values: "dict[str, float]" = {}
    values["engine.fixpoint.evaluate_s"] = median(per_pass("engine.fixpoint.evaluate"))
    for case in {op.case for op in recorded}:
        values[f"engine.fixpoint.eval_s.{case}"] = median(per_pass("engine.fixpoint.evaluate", case))
    values["engine.evaluation.plan_s"] = median(per_pass("engine.evaluation.plan"))
    values["parser.parse_program_ms"] = median(per_pass("parser.parse_program")) * 1e3
    values["io.serialization.instance_from_text_ms"] = (
        sum(seconds for _, seconds in own.get("io.serialization.instance_from_text", ())) * 1e3 / SETUPS
    )
    values["engine.query.run_ms"] = median(
        seconds * 1e3 for start, seconds in own.get("engine.query.run", ()) if op_of(start)
    )
    values["storage.relation.view_rebuild_ms"] = (
        sum(per_pass("storage.relation.view_rebuild")) * 1e3 / max(1, len(recorded))
    )

    # The counters repeat exactly from pass to pass: one pass is enough.
    first = [op for op in recorded if op.passno == recorded[0].passno]
    facts = sum(op.facts for op in first)
    attempts = sum(op.statistics.extension_attempts for op in first)
    hits = sum(op.statistics.plan_cache_hits for op in first)
    compiled = sum(op.statistics.plans_compiled for op in first)
    values["engine.fixpoint.extension_attempts_per_fact"] = attempts / max(1, facts)
    values["engine.fixpoint.iterations"] = sum(op.statistics.iterations for op in first)
    values["engine.fixpoint.plan_cache_hit_rate"] = hits / max(1, hits + compiled)

    # Root spans (the parse in make_query, QuerySession.run) against the op walls.
    by_id = {span["id"]: span for span in spans}
    explained = sum(
        span["end"] - span["start"]
        for span in spans
        if span["parent"] not in by_id and op_of(span["start"])
    )
    values["trace.accounted_fraction"] = explained / sum(op.end - op.start for op in recorded)
    return values
