"""Workload generators for tests and benchmarks.

The paper has no experimental section, so these generators produce the
instance families its proofs and examples talk about: sets of strings over a
small alphabet, the ``R(a^n)`` families of the squaring argument, graphs
encoded as length-two paths (Section 5.1.1), two-bounded instances
(Lemma 5.4), NFAs stored in relations (Example 2.1), process-mining event
logs, and nested JSON-like sales data (Introduction).

All generators take an explicit ``seed`` and are deterministic, so benchmark
runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

from repro.model.instance import Fact, Instance
from repro.model.terms import Packed, Path

__all__ = [
    "random_word",
    "random_string_instance",
    "all_as_instance",
    "random_graph_instance",
    "layered_graph_instance",
    "power_law_graph_instance",
    "prefix_tree_instance",
    "as_edge_pairs",
    "random_two_bounded_instance",
    "random_nfa_instance",
    "random_event_log_instance",
    "sales_instance",
    "random_packed_instance",
    "random_positive_program",
    "update_stream",
    "churn_stream",
    "low_overlap_goal_stream",
]


def random_word(generator: random.Random, alphabet: Sequence[str], max_length: int) -> Path:
    """A random flat path over *alphabet* of length between 0 and *max_length*."""
    length = generator.randint(0, max_length)
    return Path(tuple(generator.choice(alphabet) for _ in range(length)))


def random_string_instance(
    *,
    relation: str = "R",
    paths: int = 10,
    alphabet: Sequence[str] = ("a", "b"),
    max_length: int = 6,
    seed: int = 0,
) -> Instance:
    """A unary relation of random words — the generic string workload."""
    generator = random.Random(seed)
    instance = Instance()
    instance.ensure_relation(relation)
    for _ in range(paths):
        instance.add(relation, random_word(generator, alphabet, max_length))
    return instance


def all_as_instance(n: int, *, relation: str = "R", letter: str = "a") -> Instance:
    """The singleton instance ``{R(a^n)}`` used by the squaring argument (Theorem 5.3)."""
    return Instance.from_paths(relation, [Path((letter,) * n)])


def random_graph_instance(
    *,
    relation: str = "R",
    nodes: int = 6,
    edges: int = 10,
    seed: int = 0,
    ensure_path: tuple[str, str] | None = None,
) -> Instance:
    """A directed graph encoded as length-two paths (Section 5.1.1).

    Node names are ``a``, ``b``, ``n2`` … ``n{nodes-1}`` so that the
    reachability query's endpoints exist.  When *ensure_path* is given, a
    directed path between the two named nodes is added.
    """
    generator = random.Random(seed)
    names = ["a", "b"] + [f"n{i}" for i in range(2, max(nodes, 2))]
    instance = Instance()
    instance.ensure_relation(relation)
    for _ in range(edges):
        source, target = generator.choice(names), generator.choice(names)
        instance.add(relation, Path((source, target)))
    if ensure_path is not None:
        source, target = ensure_path
        waypoints = [source] + generator.sample(names, k=min(2, len(names))) + [target]
        for first, second in zip(waypoints, waypoints[1:]):
            instance.add(relation, Path((first, second)))
    return instance


def layered_graph_instance(
    *,
    relation: str = "R",
    layers: int = 8,
    width: int = 8,
    edges_per_node: int = 2,
    seed: int = 0,
) -> Instance:
    """A layered DAG encoded as length-two paths, for scaling benchmarks.

    Nodes are arranged in *layers* columns of *width* rows; every node has
    *edges_per_node* random edges into the next layer, so the transitive
    closure is large (up to ``layers² · width²`` pairs) but guaranteed
    finite and acyclic.  Node ``a`` sits in the first layer and ``b`` in the
    last, with a guaranteed directed path between them, matching the
    endpoints of the reachability query.
    """
    generator = random.Random(seed)
    columns: list[list[str]] = [
        [f"l{layer}n{node}" for node in range(width)] for layer in range(layers)
    ]
    columns[0][0] = "a"
    columns[-1][0] = "b"
    instance = Instance()
    instance.ensure_relation(relation)
    for source_layer, target_layer in zip(columns, columns[1:]):
        for source in source_layer:
            for _ in range(edges_per_node):
                instance.add(relation, Path((source, generator.choice(target_layer))))
    waypoints = ["a"] + [generator.choice(column) for column in columns[1:-1]] + ["b"]
    for first, second in zip(waypoints, waypoints[1:]):
        instance.add(relation, Path((first, second)))
    return instance


def power_law_graph_instance(
    *,
    relation: str = "R",
    nodes: int = 64,
    edges: int = 256,
    exponent: float = 1.2,
    seed: int = 0,
) -> Instance:
    """A directed graph with power-law degree skew, as length-two paths.

    Endpoints are drawn by preferential attachment: each edge picks its
    source and target with probability proportional to ``(rank+1)^-exponent``
    over the node ranks, so a few hub nodes concentrate most of the edges
    — the skewed counterpart of the friendly layered graphs.  Self-loops are
    skipped (they add no reachability information and would let the
    transitive closure grow degenerate cycles); node ``a`` is the top hub
    and ``b`` the second, matching the reachability query's endpoints.
    """
    generator = random.Random(seed)
    names = ["a", "b"] + [f"n{i}" for i in range(2, max(nodes, 2))]
    weights = [(rank + 1) ** -exponent for rank in range(len(names))]
    instance = Instance()
    instance.ensure_relation(relation)
    added = 0
    while added < edges:
        source, target = generator.choices(names, weights=weights, k=2)
        if source == target:
            continue
        instance.add(relation, Path((source, target)))
        added += 1
    return instance


def prefix_tree_instance(
    *,
    relation: str = "N",
    depth: int = 4,
    alphabet: Sequence[str] = ("a", "b"),
    keep: float = 0.85,
    seed: int = 0,
) -> Instance:
    """A prefix-closed set of node paths — the hierarchy-reachability workload.

    Node identifiers are paths over *alphabet*; the implicit edges of the
    hierarchy go from each node ``$v`` to its children ``$v·letter``, so the
    node set doubles as the graph.  Starting from the root ``ϵ``, each child
    survives with probability *keep* (subtrees below a pruned child are
    pruned with it, keeping the set prefix-closed).  This is the instance
    family the single-source descendant-reachability goal runs on — the
    recursion walks the hierarchy by *extending* the bound node path, which
    is exactly the shape the expanding-magic-recursion check refuses and the
    generalized, tabled rewriting handles.
    """
    generator = random.Random(seed)
    instance = Instance()
    instance.ensure_relation(relation)
    frontier: list[Path] = [Path(())]
    instance.add(relation, Path(()))
    for _ in range(depth):
        next_frontier: list[Path] = []
        for node in frontier:
            for letter in alphabet:
                if generator.random() < keep:
                    child = Path(node.elements + (letter,))
                    instance.add(relation, child)
                    next_frontier.append(child)
        frontier = next_frontier
    return instance


def as_edge_pairs(instance: Instance, *, relation: str = "R", output: str = "E") -> Instance:
    """Re-encode a graph of length-two paths as a binary relation of node pairs.

    The graph workloads store an edge ``x → y`` as the unary fact ``R(x·y)``
    (Section 5.1.1).  The binary encoding ``E(x, y)`` exposes the source and
    target as separate argument positions, which is what the goal-directed
    query benchmarks bind (e.g. all nodes reachable *from a given source*).
    """
    result = Instance()
    result.ensure_relation(output)
    for path in instance.paths(relation):
        if len(path) == 2:
            result.add(output, path[0:1], path[1:2])
    return result


def random_two_bounded_instance(
    *,
    relations: Iterable[str] = ("R", "B"),
    nodes: int = 5,
    facts_per_relation: int = 6,
    seed: int = 0,
) -> Instance:
    """A two-bounded instance: every path has length one or two (Lemma 5.4)."""
    generator = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    instance = Instance()
    for relation in relations:
        instance.ensure_relation(relation)
        for _ in range(facts_per_relation):
            if generator.random() < 0.5:
                instance.add(relation, Path((generator.choice(names),)))
            else:
                instance.add(relation, Path((generator.choice(names), generator.choice(names))))
    return instance


def random_nfa_instance(
    *,
    states: int = 3,
    alphabet: Sequence[str] = ("a", "b"),
    transitions: int = 6,
    words: int = 8,
    max_word_length: int = 6,
    seed: int = 0,
) -> Instance:
    """An NFA stored in relations N, D, F plus a unary relation R of input words (Example 2.1)."""
    generator = random.Random(seed)
    state_names = [f"q{i}" for i in range(states)]
    instance = Instance()
    instance.add("N", state_names[0])
    instance.add("F", state_names[-1])
    for _ in range(transitions):
        instance.add(
            "D",
            generator.choice(state_names),
            generator.choice(list(alphabet)),
            generator.choice(state_names),
        )
    instance.ensure_relation("R")
    for _ in range(words):
        instance.add("R", random_word(generator, alphabet, max_word_length))
    return instance


def random_event_log_instance(
    *,
    relation: str = "R",
    logs: int = 8,
    max_events: int = 8,
    seed: int = 0,
    compliance_rate: float = 0.6,
) -> Instance:
    """Process-mining event logs: each path is a trace of named events (Introduction)."""
    generator = random.Random(seed)
    filler_events = ["create_order", "ship", "invoice", "close_ticket"]
    instance = Instance()
    instance.ensure_relation(relation)
    for _ in range(logs):
        events: list[str] = []
        length = generator.randint(1, max_events)
        for _ in range(length):
            events.append(generator.choice(filler_events))
        if generator.random() < 0.8:
            position = generator.randint(0, len(events))
            events.insert(position, "complete_order")
            if generator.random() < compliance_rate:
                later = generator.randint(position + 1, len(events))
                events.insert(later, "receive_payment")
        instance.add(relation, Path(tuple(events)))
    return instance


def sales_instance(
    *,
    relation: str = "Sales",
    items: int = 4,
    years: int = 3,
    seed: int = 0,
) -> Instance:
    """The Introduction's Sales object as item·year·volume paths."""
    generator = random.Random(seed)
    instance = Instance()
    item_names = [f"item{i}" for i in range(items)]
    year_names = [f"y{2020 + i}" for i in range(years)]
    for item in item_names:
        for year in year_names:
            instance.add(relation, Path((item, year, str(generator.randint(1, 500)))))
    return instance


def random_positive_program(
    *,
    relation: str = "R",
    derived: int = 4,
    alphabet: Sequence[str] = ("a", "b"),
    seed: int = 0,
):
    """A random positive (negation-free) program over a unary EDB *relation*.

    The program defines a chain of IDB relations ``S0 … S{derived-1}`` plus
    an output relation ``S``; every rule draws its body predicates from the
    EDB and *strictly earlier* IDB relations, except for self-recursive rules
    that strip an atom from their own relation — so every program terminates
    on every instance.  Besides plain predicates the shapes cover the
    equation forms of Section 2.2 — a filter between bound variables, an
    equation that binds by splitting around a constant, a nonequality
    between atomic variables (the one negated literal drawn: it negates no
    relation) — and a path variable repeated inside one component.  Used by
    the property-based tests to check that the evaluator agrees with the
    reference fixpoint on arbitrary programs.
    """
    from repro.parser.parser import parse_program

    generator = random.Random(seed)
    lines: list[str] = [f"S0($x) :- {relation}($x)."]
    for index in range(1, derived):
        head = f"S{index}"
        sources = [relation] + [f"S{j}" for j in range(index)]
        shape = generator.randrange(9)
        first = generator.choice(sources)
        letter = generator.choice(list(alphabet))
        if shape == 0:
            lines.append(f"{head}($x) :- {first}($x).")
        elif shape == 1:
            lines.append(f"{head}($x) :- {first}({letter}.$x).")
        elif shape == 2:
            lines.append(f"{head}($x) :- {first}($x.{letter}).")
        elif shape == 3:
            # Concatenate the EDB with an earlier IDB (keeps sizes bounded by
            # |EDB| per chain step, unlike squaring an IDB against itself).
            lines.append(f"{head}($x.$y) :- {relation}($x), {first}($y.{letter}).")
        elif shape == 4:
            # A shrinking self-recursion on top of a copied base relation.
            lines.append(f"{head}($x) :- {first}($x).")
            lines.append(f"{head}($x) :- {head}({letter}.$x).")
        elif shape == 5:
            # An equation both of whose sides are bound when it is reached.
            lines.append(f"{head}($y) :- {first}($x), {relation}($y), $x = $y.{letter}.")
        elif shape == 6:
            # A binding equation: every split of $x around the letter.
            lines.append(f"{head}($u.$v) :- {first}($x), $x = $u.{letter}.$v.")
        elif shape == 7:
            lines.append(f"{head}(@a.$x) :- {first}(@a.$x.@b), @a != @b.")
        else:
            lines.append(f"{head}($x.$y) :- {first}($x.$y.$x).")
    lines.append(f"S($x) :- S{derived - 1}($x).")
    return parse_program("\n".join(lines))


def update_stream(
    instance: Instance,
    *,
    relation: str = "R",
    steps: int = 10,
    additions_per_step: int = 1,
    retractions_per_step: int = 1,
    seed: int = 0,
) -> Iterator[tuple[list[Fact], list[Fact]]]:
    """A deterministic stream of small per-step ``(additions, retractions)``.

    This is the serving-workload shape incremental maintenance targets: each
    step retracts facts that are *currently* present (tracking the stream's
    own prior effects, so a fact is never retracted twice) and adds fresh
    rows recombined position-wise from argument paths already seen in
    *relation* — e.g. new edges between existing nodes of a graph workload.
    Retractions are clamped so at least one row always survives (an emptied
    relation would starve the recombination pool), so a step may yield fewer
    retractions than *retractions_per_step* asks for.  The yielded facts are
    ready for :func:`~repro.engine.maintenance.apply_delta` or
    :meth:`~repro.engine.query.QuerySession.update`; the stream never
    mutates *instance* itself.
    """
    generator = random.Random(seed)
    live: list[tuple[Path, ...]] = sorted(instance.relation(relation), key=repr)
    live_set = set(live)
    pools: list[list[Path]] = []
    if live:
        arity = len(live[0])
        pools = [sorted({row[i] for row in live}, key=repr) for i in range(arity)]
    for _ in range(steps):
        retractions: list[Fact] = []
        for _ in range(min(retractions_per_step, max(len(live) - 1, 0))):
            row = live.pop(generator.randrange(len(live)))
            live_set.discard(row)
            retractions.append(Fact(relation, row))
        additions: list[Fact] = []
        for _ in range(additions_per_step):
            if not pools:
                break
            for _ in range(32):  # bounded attempts to find a fresh row
                row = tuple(generator.choice(pool) for pool in pools)
                if row not in live_set:
                    live.append(row)
                    live_set.add(row)
                    additions.append(Fact(relation, row))
                    break
        yield additions, retractions


def churn_stream(
    instance: Instance,
    *,
    relation: str = "R",
    steps: int = 10,
    retractions_per_step: int = 4,
    additions_per_step: int = 1,
    revival_rate: float = 0.5,
    seed: int = 0,
) -> Iterator[tuple[list[Fact], list[Fact]]]:
    """A deletion-heavy churn stream: retraction-dominated updates with revivals.

    The adversarial counterpart of :func:`update_stream`.  Each step retracts
    *retractions_per_step* currently-live rows and adds only
    *additions_per_step* back, so the instance *shrinks* over the stream and
    the maintenance layer spends its time on the deletion side — counting
    decrements crossing zero, delete–rederive overdeletion, and (through a
    negated relation) insertion seeds.  A fraction *revival_rate* of the
    additions resurrects a previously retracted row instead of recombining a
    fresh one: a revived fact must come back with correct support counts,
    which is exactly the state a maintenance bug corrupts first.  Like
    :func:`update_stream`, at least one row always survives and *instance*
    itself is never mutated.
    """
    generator = random.Random(seed)
    live: list[tuple[Path, ...]] = sorted(instance.relation(relation), key=repr)
    live_set = set(live)
    graveyard: list[tuple[Path, ...]] = []
    pools: list[list[Path]] = []
    if live:
        arity = len(live[0])
        pools = [sorted({row[i] for row in live}, key=repr) for i in range(arity)]
    for _ in range(steps):
        retractions: list[Fact] = []
        for _ in range(min(retractions_per_step, max(len(live) - 1, 0))):
            row = live.pop(generator.randrange(len(live)))
            live_set.discard(row)
            graveyard.append(row)
            retractions.append(Fact(relation, row))
        additions: list[Fact] = []
        for _ in range(additions_per_step):
            row = None
            if graveyard and generator.random() < revival_rate:
                row = graveyard.pop(generator.randrange(len(graveyard)))
                if row in live_set:
                    row = None
            if row is None and pools:
                for _ in range(32):  # bounded attempts to find a fresh row
                    candidate = tuple(generator.choice(pool) for pool in pools)
                    if candidate not in live_set:
                        row = candidate
                        break
            if row is None:
                continue
            live.append(row)
            live_set.add(row)
            additions.append(Fact(relation, row))
        yield additions, retractions


def low_overlap_goal_stream(
    instance: Instance,
    *,
    relation: str = "E",
    position: int = 0,
    goals: int = 24,
    seed: int = 0,
) -> list[Path]:
    """A goal stream with (near-)zero subsumption overlap, for tabling.

    The friendly tabling workload repeats a handful of hot sources, so the
    subgoal table wins on every repeat.  This stream is the hostile shape:
    it binds a *different* value each time, drawn (in deterministic shuffled
    order) from the distinct paths at argument *position* of *relation* —
    every goal is a cold table miss, the LRU bound churns, and subsumption
    never fires.  Only when *goals* exceeds the number of distinct values
    does the stream wrap around, and by then an LRU-bounded table has long
    evicted the first pass's entries.  Tabled serving must degrade to
    per-goal magic gracefully here, not collapse.
    """
    generator = random.Random(seed)
    values = sorted({row[position] for row in instance.relation(relation)}, key=repr)
    generator.shuffle(values)
    if not values:
        return []
    return [values[index % len(values)] for index in range(goals)]


def random_packed_instance(
    *,
    relation: str = "R",
    paths: int = 8,
    alphabet: Sequence[str] = ("a", "b"),
    max_length: int = 4,
    max_depth: int = 2,
    seed: int = 0,
) -> Instance:
    """A unary relation of paths that may contain nested packed values.

    Used by tests of the doubling / delimiter encoding; note that the
    baseline queries of the paper work on *flat* instances only.
    """
    generator = random.Random(seed)

    def build(depth: int) -> Path:
        values = []
        for _ in range(generator.randint(0, max_length)):
            if depth < max_depth and generator.random() < 0.3:
                values.append(Packed(build(depth + 1)))
            else:
                values.append(generator.choice(alphabet))
        return Path(tuple(values))

    instance = Instance()
    instance.ensure_relation(relation)
    for _ in range(paths):
        instance.add(relation, build(0))
    return instance
