"""Seeded inputs and plain-Python oracles for the six workloads.

Everything the program under test receives is *text* generated here from the
``--seed`` argument: instance files in the fact-rule syntax, program text,
and JSON request bodies.  The generators are the benchmark's own (rather
than :mod:`repro.workloads`) for one reason: ten runs on ten seeds must
agree to within a few per cent, so the seed may choose *which* letters,
nodes and edges appear but not *how much work* they cause.  Word lengths
follow a fixed cycle, graphs have a fixed edge count and a closure size
fixed by construction (or nearly so), and key popularity is tied to graph
depth rather than to whichever nodes a shuffle happens to put first.

The oracles never import the engine: graph answers come from a breadth-first
closure over adjacency dicts, sequence answers from the reference
implementations in :mod:`repro.queries.canonical`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = [
    "BLOCKED_REACHABILITY",
    "REACHABILITY",
    "GraphInput",
    "UpdateStream",
    "blocked_closure",
    "closure",
    "goal_keys",
    "layered_graph",
    "pairs",
    "read_keys",
    "sequence_instances",
    "skewed_cyclic_graph",
]

REACHABILITY = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

#: Negation on an IDB relation inside the recursion (benchmarks/bench_negation.py).
BLOCKED_REACHABILITY = """
Blocked(@x) :- Blocklist(@x).
T(@x, @y) :- E(@x, @y), not Blocked(@y).
T(@x, @z) :- T(@x, @y), E(@y, @z), not Blocked(@z).
"""

Edge = "tuple[str, str]"


# -- graphs ----------------------------------------------------------------------------


@dataclass
class GraphInput:
    """A generated graph: its edges, node layers (if layered) and blocklist."""

    edges: "list[Edge]"
    layers: "list[list[str]]" = field(default_factory=list)
    blocked: "list[str]" = field(default_factory=list)

    def text(self) -> str:
        """The instance file: ``E(x, y).`` per edge, ``Blocklist(x).`` per blocked node."""
        lines = [f"E({source}, {target})." for source, target in self.edges]
        lines += [f"Blocklist({node})." for node in self.blocked]
        return "\n".join(lines) + "\n"


def layered_graph(
    rng: random.Random, *, layers: int, width: int, out_degree: int, blocked: int = 0
) -> GraphInput:
    """A layered DAG: every node has *out_degree* distinct edges into the next layer.

    The edge count is exactly ``(layers - 1) * width * out_degree`` and, once
    the fan-out saturates the width, a node reaches nearly every node two or
    more layers on, so the closure size barely depends on the seed.
    *blocked* nodes are drawn one per middle layer, round-robin.
    """
    names = [[f"l{layer}n{node}" for node in range(width)] for layer in range(layers)]
    edges = [
        (source, target)
        for above, below in zip(names, names[1:])
        for source in above
        for target in rng.sample(below, out_degree)
    ]
    middle = names[1:-1]
    blocklist = [rng.choice(middle[index % len(middle)]) for index in range(blocked)]
    return GraphInput(edges, names, sorted(set(blocklist)))


def skewed_cyclic_graph(rng: random.Random, *, nodes: int, edges: int) -> GraphInput:
    """A strongly connected digraph with power-law degree skew and a fixed size.

    A seeded Hamiltonian cycle makes every node reach every node, so the
    closure has exactly ``nodes²`` pairs and semi-naive reachability attempts
    exactly ``nodes * edges`` extensions whatever the seed; the remaining
    ``edges - nodes`` edges pick both endpoints with probability
    ``rank^-1.2``, which concentrates the index buckets on a few hubs.
    """
    names = [f"n{index}" for index in range(nodes)]
    cycle = names[:]
    rng.shuffle(cycle)
    chosen = set(zip(cycle, cycle[1:] + cycle[:1]))
    weights = [(rank + 1) ** -1.2 for rank in range(nodes)]
    while len(chosen) < edges:
        source, target = rng.choices(names, weights=weights, k=2)
        if source != target:
            chosen.add((source, target))
    return GraphInput(sorted(chosen))


def closure(edges: "list[Edge]") -> "dict[str, set[str]]":
    """``source -> reachable nodes`` (one or more steps), breadth first."""
    return blocked_closure(edges, ())


def blocked_closure(edges: "list[Edge]", blocked) -> "dict[str, set[str]]":
    """Reachability along paths whose every node after the source is unblocked."""
    blocked = set(blocked)
    successors: "dict[str, list[str]]" = {}
    for source, target in edges:
        if target not in blocked:
            successors.setdefault(source, []).append(target)
    reachable: "dict[str, set[str]]" = {}
    for start in {source for source, _ in edges}:
        seen: "set[str]" = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for target in successors.get(node, ()):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        if seen:
            reachable[start] = seen
    return reachable


def pairs(reachable: "dict[str, set[str]]") -> "list[list[str]]":
    """A closure as the sorted ``[[source, target], …]`` rows the wire carries."""
    return sorted([source, target] for source, targets in reachable.items() for target in targets)


# -- request keys ----------------------------------------------------------------------


def read_keys(rng: random.Random, graph: GraphInput, count: int) -> "list[str]":
    """Point-query sources with power-law popularity (``rank^-1.1``).

    Rank *r* is a seeded node of layer ``r mod layers``: how hot each graph
    depth is — and with it the answer-size mix — is the same on every seed,
    while the hot nodes themselves change.
    """
    columns = [rng.sample(column, len(column)) for column in graph.layers[:-1]]
    ranked = [column[index] for index in range(len(columns[0])) for column in columns]
    weights = [(rank + 1) ** -1.1 for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=count)


def goal_keys(rng: random.Random, graph: GraphInput, count: int) -> "list[str]":
    """Tabled-goal sources: 80 % from 8 hot nodes, 20 % a cycling cold stream.

    The hot nodes are one per layer (so hit cost does not depend on the
    seed); the cold stream walks a shuffle of every source, longer than the
    answer table's 64 entries, so each cold goal is a table miss.
    """
    sources = [node for column in graph.layers[:-1] for node in column]
    hot = [rng.choice(column) for column in graph.layers[:8]]
    cold = rng.sample(sources, len(sources))
    keys, misses = [], 0
    for _ in range(count):
        if rng.random() < 0.8:
            keys.append(rng.choice(hot))
        else:
            keys.append(cold[misses % len(cold)])
            misses += 1
    return keys


class UpdateStream:
    """One connection's private, ordered stream of single-fact update batches.

    Streams own disjoint edges, so the final EDB does not depend on how the
    server interleaves connections.  Three batches in four add an edge the
    stream does not currently hold (between a node and a later layer, which
    keeps the graph acyclic); every fourth retracts the stream's oldest live
    edge — first its share of the seed graph, later its own additions.
    """

    def __init__(self, live: "list[Edge]", absent: "list[Edge]"):
        self.live = list(live)
        self.absent = list(absent)
        self.sent = 0

    @staticmethod
    def split(rng: random.Random, graph: GraphInput, streams: int) -> "list[UpdateStream]":
        present = set(graph.edges)
        absent = [
            (source, target)
            for above, column in enumerate(graph.layers)
            for below in graph.layers[above + 1 :]
            for source in column
            for target in below
            if (source, target) not in present
        ]
        live = rng.sample(graph.edges, len(graph.edges))
        rng.shuffle(absent)
        return [UpdateStream(live[index::streams], absent[index::streams]) for index in range(streams)]

    def next_body(self) -> dict:
        """The next ``/update`` request body; records its effect on the stream."""
        self.sent += 1
        if self.sent % 4 == 0 and len(self.live) > 1:
            edge = self.live.pop(0)
            self.absent.append(edge)
            return {"add": [], "retract": [["E", *edge]]}
        edge = self.absent.pop(0)
        self.live.append(edge)
        return {"add": [["E", *edge]], "retract": []}


# -- the paper's sequence programs -----------------------------------------------------


def _word(rng: random.Random, length: int, alphabet: str = "ab") -> "list[str]":
    return [rng.choice(alphabet) for _ in range(length)]


def _facts(relation: str, words) -> "list[str]":
    return [f"{relation}({'.'.join(word) if word else 'eps'})." for word in words]


def sequence_instances(rng: random.Random, scale: float) -> "dict[str, str]":
    """Instance text per canonical query name, sized by *scale* (1.0 ≈ 0.1 s each on the seed commit).

    Lengths cycle through a fixed range and every count is fixed, so the
    number of derived facts is the same (or within a per cent) on every seed.
    """

    def count(base: int) -> int:
        return max(2, round(base * scale))

    texts: "dict[str, list[str]]" = {}

    # Two seeded DFAs over disjoint states, both initial: exactly two live
    # states after every prefix, so S grows by 2·(|w|+1) facts per word.
    states = [[f"p{index}" for index in range(4)], [f"q{index}" for index in range(4)]]
    lines = []
    for machine in states:
        lines += [f"N({machine[0]}).", f"F({rng.choice(machine)})."]
        lines += [f"D({state}, {letter}, {rng.choice(machine)})." for state in machine for letter in "ab"]
    lines += _facts("R", (_word(rng, 4 + index % 9) for index in range(count(70))))
    texts["nfa_acceptance"] = lines

    texts["reversal"] = _facts("R", (_word(rng, 8 + index % 17) for index in range(count(50))))

    # a^n has no seeded part; the cost is cubic in n.
    texts["squaring"] = _facts("R", [["a"] * max(4, round(17 * scale ** (1 / 3)))])

    fillers = ["create_order", "ship", "invoice", "close_ticket"]
    logs = []
    for index in range(count(500)):
        events = [rng.choice(fillers) for _ in range(2 + index % 7)]
        if index % 5:  # four logs in five complete an order …
            position = rng.randrange(len(events) + 1)
            events.insert(position, "complete_order")
            if index % 5 > 2:  # … and two of those are paid afterwards
                events.insert(rng.randrange(position + 1, len(events) + 1), "receive_payment")
        logs.append(events)
    texts["process_compliance"] = _facts("R", logs)

    # a1…am·bm…b1 with ai ≠ bi for the outer `depth` pairs and a(depth) = b(depth):
    # the program peels exactly `depth` pairs (all m for a true unequal palindrome).
    flip = {"a": "b", "b": "a"}
    words = []
    for index in range(count(220)):
        half = 2 + index % 7
        depth = (index // 7) % (half + 1)
        first = _word(rng, half)
        last = [flip[letter] if pair < depth else letter for pair, letter in enumerate(first)]
        words.append(first + last[::-1])
    texts["unequal_palindrome"] = _facts("R", words)

    # The pattern c·d occurs exactly where it is inserted (R-words are over
    # {a, b}), so T has exactly 2 facts per word; the three-way self-join over
    # T is cubic, hence the tiny size whatever the scale.
    words = []
    for _ in range(4):
        word = _word(rng, 8)
        for position in sorted(rng.sample(range(len(word) + 1), 2), reverse=True):
            word[position:position] = ["c", "d"]
        words.append(word)
    texts["three_occurrences"] = ["S(c.d)."] + _facts("R", words)

    return {name: "\n".join(lines) + "\n" for name, lines in texts.items()}
